"""Checks of the benchmark's own machinery.

    python3 -m pytest perfbench -q

They cover the deadline, cache discovery, the reference comparison and the
layer trace; each takes at most a few seconds.
"""

from __future__ import annotations

import argparse
import json

import pytest

import harness
from layertrace import TARGETS, Tracer
import run


@pytest.fixture(scope="module")
def env():
    mods = harness.load_lierad()
    return mods, harness.Caches(mods), dict(harness.build_workload(mods, "corpus"))


def test_caches_are_found_at_run_time(env):
    _, caches, _ = env
    assert set(run.CACHE_METRICS) <= set(caches.functions)
    by_module = {}
    for fn in caches.functions.values():
        by_module.setdefault(fn.__module__, []).append(fn)
    assert {m: len(f) for m, f in by_module.items()} == {
        "lierad.liealg": 5, "lierad.radicals": 5, "lierad.frattini": 5}


def test_forced_timeout_is_one_failure_and_leaves_the_next_report_intact(env):
    mods, caches, algebras = env
    expected = harness.load_reference("corpus")["reports"]
    names = ["sl2sl2", "aff1", "heis3", "abelian(2)"]
    args = argparse.Namespace(seed=0, seconds=0, deadline=0.5)
    for seed in (1, 2, 3):  # sl2sl2, which takes seconds, at varying places
        args.seed = seed
        outcomes, _ = run.measure(args, mods, [(n, algebras[n]) for n in names],
                                  expected, caches)
        assert len(outcomes) == len(names)
        # The interrupt escaped reports._guard instead of becoming field errors,
        # and the algebras after it still match their reference reports.
        assert [o.status for o in outcomes if o.failed] == ["deadline"]
        assert [o.name for o in outcomes if o.failed] == ["sl2sl2"]
    cut = harness.analyze_one(mods, caches, "sl2sl2", algebras["sl2sl2"], 0.5)
    assert cut.status == "deadline"
    assert all(fn.cache_info().currsize == 0 for fn in caches.functions.values())


def test_reference_check_ignores_new_fields_and_catches_changed_ones():
    reference = {"a": {"x": ["1/2"], "y": 3}, "b": True}
    assert harness.mismatches(reference, {"a": {"x": ["1/2"], "y": 3, "new": 1},
                                          "b": True, "extra": 0}) == []
    assert harness.mismatches(reference, {"a": {"x": ["1/3"], "y": 3},
                                          "b": True}) == ["/a/x"]
    assert harness.mismatches(reference, {"a": {"x": ["1/2"]}, "b": True}) == ["/a/y"]
    assert harness.error_paths({"a": [{"error": "boom"}], "b": 1}) == ["/a/0"]


def test_tracer_rebinds_every_binding_and_restores_them(env):
    mods, _, _ = env
    originals = {name: getattr(mods[m], attr) for name, m, attr in TARGETS
                 if "." not in attr}
    holders = {name: [(mod, key) for mod in mods.values()
                      for key, value in vars(mod).items() if value is fn]
               for name, fn in originals.items()}
    # nullspace_matrix is imported by name into several layers
    assert {mod.__name__ for mod, _ in holders["linalg.nullspace_matrix"]} >= {
        "lierad.linalg", "lierad.modules", "lierad.radicals", "lierad.frattini"}
    tracer = Tracer()
    tracer.install(mods)
    try:
        for name, places in holders.items():
            for mod, key in places:
                assert getattr(mod, key) is not originals[name], (mod, key)
                assert getattr(mod, key).__wrapped__ is originals[name]
        matrix_init = mods["linalg"].Matrix.__dict__["__init__"]
        assert hasattr(matrix_init, "__wrapped__")
    finally:
        tracer.uninstall()
    for name, places in holders.items():
        for mod, key in places:
            assert getattr(mod, key) is originals[name]
    assert not hasattr(mods["linalg"].Matrix.__dict__["__init__"], "__wrapped__")


@pytest.mark.parametrize("name", ["sl2", "heis3", "ut(3)", "direct(ut(2),d1_v2)"])
def test_traced_report_is_byte_identical(env, name):
    mods, caches, algebras = env
    reports = mods["reports"]
    caches.clear()
    plain = reports.report_to_json(reports.analyze(algebras[name], name=name))
    caches.clear()
    tracer = Tracer()
    tracer.install(mods)
    try:
        traced = reports.report_to_json(reports.analyze(algebras[name], name=name))
    finally:
        tracer.uninstall()
    caches.clear()
    assert traced == plain
    assert tracer.stats["reports.analyze"].calls == 1
    assert tracer.stats["linalg.matrix_new"].calls > 0


def test_child_time_nests_within_each_parent_span(env):
    mods, caches, algebras = env
    reports = mods["reports"]
    tracer = Tracer(keep_spans=True)
    caches.clear()
    tracer.install(mods)
    try:
        reports.analyze(algebras["sl2"], name="sl2")
    finally:
        tracer.uninstall()
    caches.clear()
    spans = {sid: (parent, name, start, end)
             for sid, parent, name, start, end in tracer.spans}
    children = {}
    for sid, (parent, _, start, end) in spans.items():
        if parent is not None:
            children.setdefault(parent, []).append(end - start)
    assert children
    for parent, durations in children.items():
        p_start, p_end = spans[parent][2], spans[parent][3]
        assert sum(durations) <= (p_end - p_start) + 1e-9
    for sid, (parent, _, start, end) in spans.items():
        if parent is not None:
            assert spans[parent][2] <= start and end <= spans[parent][3]
    roots = [end - start for parent, _, start, end in spans.values() if parent is None]
    total_self = sum(s.self_s for s in tracer.stats.values())
    assert total_self == pytest.approx(sum(roots), rel=1e-9, abs=1e-9)
    assert all(s.self_s >= -1e-9 for s in tracer.stats.values())


def test_printed_metrics_are_the_ones_benchmark_json_declares():
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == run.per_layer_metrics()
    assert {w["name"] for w in declared["workloads"]} <= set(harness.WORKLOADS)
