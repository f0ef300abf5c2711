"""Analysis reports: one machine-readable record per algebra.

Field failures are collected per-field (an exception in one analysis does
not abort the report); serialization is deterministic (sorted keys, string
rationals).
"""

from __future__ import annotations

import json

from . import frattini as fr
from . import radicals as rd
from .formats import subspace_to_json
from .liealg import (
    LieAlgebra,
    center,
    derived_series,
    is_characteristic,
    killing_rank,
    lower_central_series,
    nilpotency_index,
    solvability_index,
    validate,
)


def _guard(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - reports collect failures per field
        return {"error": "%s: %s" % (type(exc).__name__, exc)}


def _series_record(series, index):
    return {
        "terms": [subspace_to_json(t) for t in series.terms],
        "stable_index": series.stable_index,
        "index": index,
    }


def _estimate_record(est: fr.IdealEstimate) -> dict:
    return {
        "kind": "Exact" if est.exact else "Interval",
        "lower": subspace_to_json(est.lower),
        "upper": subspace_to_json(est.upper),
    }


def _index_record(est: fr.IndexEstimate) -> dict:
    return {
        "kind": "Exact" if est.exact else "Interval",
        "low": est.low,
        "high": est.high,
    }


def _decomposition_record(d) -> dict:
    return {
        "C": subspace_to_json(d.C),
        "S": subspace_to_json(d.S),
        "J": subspace_to_json(d.J),
        "J_summands": [subspace_to_json(s) for s in d.J_summands],
    }


def _characteristic_audit(algebra: LieAlgebra) -> dict:
    audit = {}
    named = {
        "rad": rd.solvable_radical,
        "nilrad": rd.nilradical,
        "center": center,
        "jacobson": fr.jacobson_ideal,
        "levi-radical": rd.levi_radical,
    }
    for name, fn in named.items():
        audit[name] = _guard(lambda fn=fn: is_characteristic(algebra, fn(algebra)))
    est = fr.frattini_ideal(algebra)
    if est.exact:
        audit["frattini"] = _guard(
            lambda: is_characteristic(algebra, est.value))
    return audit


def _fmarsh_chain_ok(algebra: LieAlgebra) -> bool:
    est = fr.frattini_ideal(algebra)
    k = fr.jacobson_ideal(algebra)
    nil = rd.nilradical(algebra)
    rad = rd.solvable_radical(algebra)
    return k.contains(est.upper) and nil.contains(k) and rad.contains(nil)


def analyze(algebra: LieAlgebra, name: str = "") -> dict:
    """Populate the full analysis record for one algebra."""
    report = {
        "schema": 1,
        "name": name or "algebra",
        "dim": algebra.dim,
        "basis": list(algebra.labels),
    }
    vrep = validate(algebra)
    report["validation"] = {
        "ok": vrep.ok,
        "antisymmetry_violations": [list(v) for v in vrep.antisymmetry_violations],
        "jacobi_violations": [list(v) for v in vrep.jacobi_violations],
    }
    if not vrep.ok:
        return report
    report["center"] = _guard(lambda: subspace_to_json(center(algebra)))
    report["derived_series"] = _guard(
        lambda: _series_record(derived_series(algebra), solvability_index(algebra)))
    report["lower_central_series"] = _guard(
        lambda: _series_record(lower_central_series(algebra),
                               nilpotency_index(algebra)))
    report["killing_rank"] = _guard(lambda: killing_rank(algebra))
    report["solvable_radical"] = _guard(
        lambda: subspace_to_json(rd.solvable_radical(algebra)))
    report["nilradical"] = _guard(lambda: subspace_to_json(rd.nilradical(algebra)))
    report["levi"] = _guard(lambda: {
        "levi": subspace_to_json(rd.levi_subalgebra(algebra).levi),
        "radical": subspace_to_json(rd.levi_subalgebra(algebra).radical),
    })
    report["levi_radical"] = _guard(
        lambda: subspace_to_json(rd.levi_radical(algebra)))
    report["largest_semisimple_ideal"] = _guard(
        lambda: subspace_to_json(rd.largest_semisimple_ideal(algebra)))
    report["jacobson_ideal"] = _guard(
        lambda: subspace_to_json(fr.jacobson_ideal(algebra)))
    report["jacobson_index"] = _guard(lambda: fr.jacobson_index(algebra))
    report["frattini_ideal"] = _guard(
        lambda: _estimate_record(fr.frattini_ideal(algebra)))
    report["frattini_index"] = _guard(
        lambda: _index_record(fr.frattini_index(algebra)))

    def ff_record():
        res = fr.is_frattini_free(algebra)
        rec = {"free": res.free, "failed_condition": res.failed_condition}
        if res.decomposition is not None:
            rec["decomposition"] = _decomposition_record(res.decomposition)
        return rec

    report["frattini_free"] = _guard(ff_record)

    def subsimple_record():
        cls = fr.classify_subsimple(algebra)
        return {"tag": cls.tag, "unverified": cls.unverified}

    report["subsimple_class"] = _guard(subsimple_record)

    def index_class_record():
        tag, (r_s, r_j) = fr.index_class(algebra)
        return {"class": tag, "frattini_index": _index_record(r_s),
                "jacobson_index": r_j}

    report["index_class"] = _guard(index_class_record)

    def subdirect_record():
        res = fr.is_frattini_free(algebra)
        if not res:
            return None
        comps = fr.subdirect_components(algebra)
        classes = fr.subdirect_classes(res.decomposition, comps)
        algebras, embedding = fr.assemble_subdirect_embedding(comps)
        return {
            "components": [{"dim": c.quotient.dim, "class": tag}
                           for c, tag in zip(comps, classes)],
            "verified": fr.verify_subdirect(algebras, embedding, algebra),
        }

    report["subdirect"] = _guard(subdirect_record)
    report["characteristic_audit"] = _guard(lambda: _characteristic_audit(algebra))
    report["fmarsh_chain_ok"] = _guard(lambda: _fmarsh_chain_ok(algebra))
    report["banach_stubs"] = _guard(lambda: {
        key: subspace_to_json(value)
        for key, value in fr.banach_radical_stubs(algebra).items()
    })
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_to_text(report: dict) -> str:
    """Terse human-readable rendering of the analysis record."""
    lines = ["%s (dim %s)" % (report.get("name"), report.get("dim"))]
    validation = report.get("validation", {})
    lines.append("  valid: %s" % validation.get("ok"))
    if not validation.get("ok"):
        lines.append("  antisymmetry violations: %s"
                     % validation.get("antisymmetry_violations"))
        lines.append("  jacobi violations: %s"
                     % validation.get("jacobi_violations"))
        return "\n".join(lines) + "\n"

    def dim_of(key):
        value = report.get(key)
        if isinstance(value, dict) and "error" in value:
            return "error"
        return len(value) if isinstance(value, list) else "?"

    for key in ("center", "solvable_radical", "nilradical", "levi_radical",
                "largest_semisimple_ideal", "jacobson_ideal"):
        lines.append("  dim %s = %s" % (key, dim_of(key)))
    lines.append("  jacobson_index = %s" % report.get("jacobson_index"))
    fi = report.get("frattini_ideal", {})
    if "error" not in fi:
        lines.append("  frattini_ideal: %s (dim lower %d, dim upper %d)"
                     % (fi.get("kind"), len(fi.get("lower", [])),
                        len(fi.get("upper", []))))
    fx = report.get("frattini_index", {})
    if "error" not in fx:
        lines.append("  frattini_index: %s [%s, %s]"
                     % (fx.get("kind"), fx.get("low"), fx.get("high")))
    ff = report.get("frattini_free", {})
    if "error" not in ff:
        lines.append("  frattini_free: %s%s"
                     % (ff.get("free"),
                        "" if ff.get("free")
                        else " (%s)" % ff.get("failed_condition")))
    sc = report.get("subsimple_class", {})
    if "error" not in sc:
        suffix = " (unverified)" if sc.get("unverified") else ""
        lines.append("  subsimple: %s%s" % (sc.get("tag"), suffix))
    ic = report.get("index_class", {})
    if "error" not in ic:
        lines.append("  index class: %s" % ic.get("class"))
    return "\n".join(lines) + "\n"
