"""Command-line interface: validate, analyze, radical, frattini, classify,
chains and the acceptance suite.

Targets are either file paths or `corpus:EXPR` references.  Exit codes:
0 success, 1 validation/criterion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from . import chains as ch
from . import frattini as fr
from .corpus import UnknownCorpusName, corpus_expr
from .formats import (
    AlgebraFileError,
    AlgebraValidationError,
    family_to_dict,
    load_algebra,
    load_family,
    subspace_to_json,
)
from .liealg import LieAlgebra, validate
from .radicals import REGISTRY, superposition_closure
from .reports import (
    _estimate_record,
    _index_record,
    analyze,
    report_to_json,
    report_to_text,
)


class UsageError(ValueError):
    pass


def _resolve_target(target: str) -> LieAlgebra:
    if target.startswith("corpus:"):
        try:
            return corpus_expr(target[len("corpus:"):])
        except UnknownCorpusName as exc:
            raise UsageError(str(exc)) from exc
    return load_algebra(target)


def _emit(payload):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_validate(args) -> int:
    try:
        algebra = load_algebra(args.file)
    except AlgebraValidationError as exc:
        report = exc.report
        _emit({
            "ok": False,
            "antisymmetry_violations": [list(v) for v in
                                        report.antisymmetry_violations],
            "jacobi_violations": [list(v) for v in report.jacobi_violations],
        })
        return 1
    report = validate(algebra)
    _emit({"ok": report.ok, "dim": algebra.dim,
           "basis": list(algebra.labels)})
    return 0 if report.ok else 1


def _cmd_analyze(args) -> int:
    algebra = _resolve_target(args.target)
    report = analyze(algebra, name=args.target)
    if args.text:
        sys.stdout.write(report_to_text(report))
    else:
        sys.stdout.write(report_to_json(report))
    return 0


def _cmd_radical(args) -> int:
    if args.which not in REGISTRY:
        raise UsageError("unknown radical %r (choose from %s)"
                         % (args.which, ", ".join(sorted(REGISTRY))))
    algebra = _resolve_target(args.target)
    spec = REGISTRY[args.which]
    value = spec.evaluate(algebra)
    payload = {"radical": args.which, "dim": value.dim,
               "basis": subspace_to_json(value)}
    if args.closure:
        fix, index = superposition_closure(spec, algebra)
        payload["superposition"] = {"fixpoint": subspace_to_json(fix),
                                    "index": index}
    _emit(payload)
    return 0


def _cmd_frattini(args) -> int:
    algebra = _resolve_target(args.target)
    payload = {
        "frattini_ideal": _estimate_record(fr.frattini_ideal(algebra)),
        "frattini_index": _index_record(fr.frattini_index(algebra)),
        "jacobson_ideal": subspace_to_json(fr.jacobson_ideal(algebra)),
        "jacobson_index": fr.jacobson_index(algebra),
    }
    _emit(payload)
    return 0


def _cmd_classify(args) -> int:
    algebra = _resolve_target(args.target)
    cls = fr.classify_subsimple(algebra)
    _emit({"tag": cls.tag, "unverified": cls.unverified})
    return 0


def _cmd_chains(args) -> int:
    family = load_family(args.family)
    bound = args.completion_bound
    sub = args.subcommand
    if sub == "meet":
        _emit({"meet": subspace_to_json(ch.family_meet(family))})
    elif sub == "join":
        _emit({"join": subspace_to_json(ch.family_join(family))})
    elif sub == "p-complete":
        _emit(family_to_dict(ch.p_completion(family, bound)))
    elif sub == "s-complete":
        _emit(family_to_dict(ch.s_completion(family, bound)))
    elif sub == "lower-finite-gap":
        _emit({"lower_finite_gap": ch.is_lower_finite_gap(family)})
    elif sub == "upper-finite-gap":
        _emit({"upper_finite_gap": ch.is_upper_finite_gap(family)})
    elif sub == "delta":
        try:
            _emit({"delta": subspace_to_json(ch.delta(family))})
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    elif sub == "max-chain":
        top = ch.family_join(family)
        if top not in family:
            raise UsageError("family join is not a member; no top to chain from")
        chain = ch.maximal_lower_finite_gap_chain(family, top)
        _emit({"chain": [subspace_to_json(c) for c in chain]})
    else:
        raise UsageError("unknown chains subcommand %r" % sub)
    return 0


def _cmd_suite(args) -> int:
    results = acceptance.run_all(seed=args.seed)
    width = max(len(name) for name, _, _ in results)
    failures = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        sys.stdout.write("[%s] %-*s  %s\n" % (status, width, name, detail))
        if not ok:
            failures += 1
    sys.stdout.write("%d/%d criteria passed\n"
                     % (len(results) - failures, len(results)))
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lierad",
        description="Exact-arithmetic radical and Frattini analysis of "
                    "rational Lie algebras.")
    parser.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                        help="seed for the randomized property sweeps")
    parser.add_argument("--completion-bound", type=int,
                        default=ch.DEFAULT_COMPLETION_BOUND,
                        help="maximum family size for completions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure-constant file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="full analysis report")
    p.add_argument("target", help="file path or corpus:EXPR")
    p.add_argument("--text", action="store_true",
                   help="render the report as text instead of JSON")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("radical", help="evaluate a named radical")
    p.add_argument("which", help="one of: %s" % ", ".join(sorted(REGISTRY)))
    p.add_argument("target")
    p.add_argument("--closure", action="store_true",
                   help="also report the superposition closure and index")
    p.set_defaults(func=_cmd_radical)

    p = sub.add_parser("frattini", help="Frattini/Jacobson ideals and indices")
    p.add_argument("target")
    p.set_defaults(func=_cmd_frattini)

    p = sub.add_parser("classify", help="subsimple classification")
    p.add_argument("target")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("chains", help="subspace-family operations")
    p.add_argument("family", help="family file path")
    p.add_argument("subcommand",
                   choices=["meet", "join", "p-complete", "s-complete",
                            "lower-finite-gap", "upper-finite-gap", "delta",
                            "max-chain"])
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("suite", help="run the acceptance corpus")
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 2
    except AlgebraFileError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2
    except AlgebraValidationError as exc:
        sys.stderr.write("validation error: %s\n" % exc)
        return 1
    except ch.FamilySizeError as exc:
        sys.stderr.write("size error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
