"""lierad benchmark: cold-cache ``analyze`` on one workload.

    python3 perfbench/run.py --workload ut-scale --seed 1 --seconds 50 --trace 0

Workloads (``harness.WORKLOADS``) are made of three algebra sets:

* ``corpus``: the 16 acceptance-suite corpus algebras (splitting-bound);
* ``ut-scale``: ut(4), ut(5), ut(6) (elimination-bound, no splitting);
* ``semidirect``: the acceptance suite's 25 random semidirect products
  (large coefficients, so factorization matters).

``BENCHMARK.json`` runs ``corpus-semidirect`` and ``ut-scale``; ``corpus``
and ``semidirect`` alone are there for runs by hand.

One process, one thread, a closed loop with one client.  Every analysis
starts with all memo caches cleared, as a fresh ``lierad analyze`` does,
runs under a per-algebra deadline, and its JSON report is checked field by
field against ``perfbench/reference/<set>.json``.  Algebras the deadline
stopped when the reference was made are not timed; in the traced run they
are run as probes under ``--probe-deadline`` to show where their time goes.
``--seed`` fixes the order in which the algebras are analyzed in each pass.

``--trace 0`` analyzes one full pass over the workload, then more passes
while each analysis still fits in ``--seconds``, and reports the end-to-end
metrics:

* ``setup_s``: median over several set-ups of importing lierad and building
  the workload's algebras;
* ``wall_s``: sum over the algebras of each one's median analysis time;
* ``slowest_s``: the largest of those medians;
* ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` analyzes one pass with the layer trace of ``layertrace.py``
installed and reports per-layer metrics.  While their time fits in half of
``--seconds``, algebras are also analyzed untraced right after their traced
analysis; ``trace.overhead_ratio`` compares the two times over those.

Before it, stdout has one line per algebra (its median time, or where its
traced time went), ``failed_ratio`` and each metric with its unit.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The process exits with 2, printing nothing on
stdout, when lierad or the references cannot be loaded from the checkout.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time

import harness
from layertrace import TARGETS, Tracer

SETUPS = 10

# Memo caches reported one by one; any other cache found at run time is
# still cleared and counted in cache.hit_ratio.
CACHE_METRICS = (
    "center", "derived_series", "lower_central_series", "killing_form",
    "derivation_algebra", "solvable_radical", "nilradical", "levi_subalgebra",
    "largest_semisimple_ideal", "levi_radical", "centroid", "direct_summands",
    "jacobson_ideal", "is_frattini_free", "frattini_ideal",
)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("slowest_s", "s"),
              ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list:
    """``[(name, unit)]`` of every per-layer metric, in a fixed order."""
    out = []
    for name, _, _ in TARGETS:
        if name != "reports.analyze":
            out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
    out += [
        ("linalg.rref.cells", "count"),
        ("linalg.nullspace_sparse.cols", "count"),
        ("linalg.matrix_new.entries", "count"),
        ("polys.factor_rational_poly.max_degree", "degree"),
        ("polys.factor_rational_poly.max_digits", "digits"),
        ("modules.find_proper_submodule.found_ratio", "ratio"),
        ("modules.find_proper_submodule.probes_per_call", "probes/call"),
        ("modules.associative_envelope.max_dim", "dim"),
        ("frattini.direct_summands.split_ratio", "ratio"),
        ("cache.hit_ratio", "ratio"),
    ]
    out += [("cache.%s.hit_ratio" % fn, "ratio") for fn in CACHE_METRICS]
    out += [
        ("trace.overhead_ratio", "ratio"),
        ("deadline.probes_cut", "count"),
        ("deadline.probe_polys_share", "ratio"),
    ]
    return out


def ratio(num, den) -> float:
    return num / den if den else 0.0


def set_up(workload: str):
    """Import lierad and build the workload SETUPS times; keep the last."""
    took = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        mods = harness.load_lierad()
        algebras = harness.build_workload(mods, workload)
        took.append(time.perf_counter() - start)
    return mods, algebras, statistics.median(took)


def split_by_reference(algebras: list, reference: dict) -> tuple:
    """(timed algebras, probe algebras) as the reference classifies them."""
    known, stopped = reference["reports"], set(reference["stopped"])
    strays = [n for n, _ in algebras if n not in known and n not in stopped]
    if strays:
        raise harness.SetupError("algebras missing from the reference: %s"
                                 % ", ".join(strays))
    return ([a for a in algebras if a[0] in known],
            [a for a in algebras if a[0] in stopped])


def measure(args, mods, timed, reference, caches) -> tuple:
    """Untraced closed loop; returns (outcomes, {name: [seconds]}).

    The first pass analyzes every algebra.  Later passes analyze an algebra
    only if its last time still fits in ``--seconds``; the loop ends when
    none does.
    """
    rng = random.Random(args.seed)
    outcomes, times = [], {name: [] for name, _ in timed}
    start = time.perf_counter()
    ran = True
    while ran:
        ran = False
        for name, algebra in rng.sample(timed, len(timed)):
            if times[name] and (time.perf_counter() - start + times[name][-1]
                                > args.seconds):
                continue
            outcome = harness.analyze_one(mods, caches, name, algebra,
                                          args.deadline, reference[name])
            outcomes.append(outcome)
            times[name].append(outcome.seconds)
            ran = True
    return outcomes, times


def traced_pass(args, mods, timed, probes, reference, caches) -> tuple:
    """One traced pass plus the probes; returns (outcomes, metrics, notes).

    Right after its traced analysis, an algebra is analyzed again untraced
    (its twin) while the twins fit in half of ``--seconds``; the twins give
    the tracing overhead.  Pairing them back to back keeps slow drifts in
    machine speed out of the comparison.
    """
    order = random.Random(args.seed).sample(timed, len(timed))
    tracer = Tracer()
    outcomes, notes = [], []
    hits = misses = 0
    cache_hits = dict.fromkeys(CACHE_METRICS, 0)
    cache_lookups = dict.fromkeys(CACHE_METRICS, 0)
    probe_s = probe_polys_s = 0.0
    probes_cut = 0
    traced_s = untraced_s = 0.0
    for name, algebra, is_probe in ([(n, a, False) for n, a in order]
                                    + [(n, a, True) for n, a in probes]):
        before = tracer.snapshot()
        tracer.install(mods)
        try:
            if is_probe:
                outcome = harness.analyze_one(mods, caches, name, algebra,
                                              args.probe_deadline)
            else:
                outcome = harness.analyze_one(mods, caches, name, algebra,
                                              args.deadline, reference[name])
        finally:
            tracer.uninstall()
        after = tracer.snapshot()
        notes.append(breakdown(name, outcome, before, after, is_probe))
        for fn, (h, m) in outcome.cache.items():
            hits += h
            misses += m
            if fn in cache_hits:
                cache_hits[fn] += h
                cache_lookups[fn] += h + m
        if is_probe:
            probe_s += outcome.seconds
            probe_polys_s += (after["polys.factor_rational_poly"][2]
                              - before["polys.factor_rational_poly"][2])
            probes_cut += outcome.status == "deadline"
            continue
        outcomes.append(outcome)
        if untraced_s + outcome.seconds <= args.seconds / 2:
            twin = harness.analyze_one(mods, caches, name, algebra,
                                       args.deadline, reference[name])
            outcomes.append(twin)
            traced_s += outcome.seconds
            untraced_s += twin.seconds

    metrics = {}
    for name, stat in tracer.stats.items():
        metrics[name + ".calls"] = stat.calls
        metrics[name + ".self_s"] = stat.self_s
    c = tracer.counters
    search_calls = tracer.stats["modules.find_proper_submodule"].calls
    for key in ("linalg.rref.cells", "linalg.nullspace_sparse.cols",
                "linalg.matrix_new.entries", "polys.factor_rational_poly.max_degree",
                "polys.factor_rational_poly.max_digits",
                "modules.associative_envelope.max_dim"):
        metrics[key] = c[key]
    metrics.update({
        "modules.find_proper_submodule.found_ratio":
            ratio(c["modules.find_proper_submodule.found"], search_calls),
        "modules.find_proper_submodule.probes_per_call":
            ratio(c["modules.find_proper_submodule.probes"], search_calls),
        "frattini.direct_summands.split_ratio":
            ratio(c["frattini.direct_summands.split"],
                  tracer.stats["frattini.direct_summands"].calls),
        "cache.hit_ratio": ratio(hits, hits + misses),
        "trace.overhead_ratio": ratio(traced_s, untraced_s) - 1 if untraced_s else 0.0,
        "deadline.probes_cut": probes_cut,
        "deadline.probe_polys_share": ratio(probe_polys_s, probe_s),
    })
    for fn in CACHE_METRICS:
        metrics["cache.%s.hit_ratio" % fn] = ratio(cache_hits[fn], cache_lookups[fn])
    missing = [fn for fn in CACHE_METRICS if fn not in caches.functions]
    extra = [fn for fn in caches.functions if fn not in CACHE_METRICS]
    if missing or extra:
        notes.append("caches no longer present: %s; caches not reported one by "
                     "one: %s" % (missing or "none", extra or "none"))
    return outcomes, metrics, notes


def breakdown(name, outcome, before, after, is_probe) -> str:
    """One line: where this algebra's traced time went."""
    delta = {k: (after[k][1] - before[k][1], after[k][2] - before[k][2])
             for k in after}
    total = outcome.seconds or 1.0
    by_self = sorted(delta, key=lambda k: -delta[k][1])[:3]
    by_incl = sorted((k for k in delta if k != "reports.analyze"),
                     key=lambda k: -delta[k][0])[:3]
    return "trace %s%s %.2fs %s | self %s | inclusive %s" % (
        "probe " if is_probe else "", name, outcome.seconds, outcome.status,
        ", ".join("%s %.0f%%" % (k, 100 * delta[k][1] / total) for k in by_self),
        ", ".join("%s %.0f%%" % (k, 100 * delta[k][0] / total) for k in by_incl))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, default=120.0,
                        help="per-algebra deadline in seconds")
    parser.add_argument("--probe-deadline", type=float, default=20.0,
                        help="deadline for the traced probes in seconds")
    args = parser.parse_args(argv)

    try:
        mods, algebras, setup_s = set_up(args.workload)
        reference = harness.load_reference(args.workload)
        timed, probes = split_by_reference(algebras, reference)
    except (harness.SetupError, ImportError, OSError) as exc:
        print("cannot set up the benchmark: %s" % exc, file=sys.stderr)
        return 2
    caches = harness.Caches(mods)
    expected = reference["reports"]

    if args.trace:
        outcomes, values, notes = traced_pass(args, mods, timed, probes,
                                              expected, caches)
        names = per_layer_metrics()
    else:
        outcomes, times = measure(args, mods, timed, expected, caches)
        medians = {n: statistics.median(t) for n, t in times.items()}
        values = {
            "setup_s": setup_s,
            "wall_s": sum(medians.values()),
            "slowest_s": max(medians.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        names = END_TO_END
        notes = ["algebra %s median %.4fs over %d" % (n, medians[n], len(times[n]))
                 for n in sorted(medians, key=medians.get)]

    failed = [o for o in outcomes if o.failed]
    notes += ["failed %s: %s %s" % (o.name, o.status, o.detail) for o in failed]
    notes.append("failed_ratio %.4f (%d of %d analyses)"
                 % (ratio(len(failed), len(outcomes)), len(failed), len(outcomes)))
    for line in notes:
        print(line)
    for name, unit in names:
        print("%s %s %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": not any(o.status in ("mismatch", "error-field") for o in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
