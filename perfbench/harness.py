"""Shared pieces of the lierad benchmark.

* loading ``lierad`` from the checkout's ``src/`` (never from site-packages);
* the workloads, built from the package's own corpus and generators;
* the memo caches, found at run time and cleared before every algebra;
* a per-algebra deadline that ``reports._guard`` cannot swallow;
* the field-by-field check of each report against the committed reference.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

# Each workload is one or more algebra sets; each set has its own reference.
WORKLOADS = {
    "corpus-semidirect": ("corpus", "semidirect"),
    "ut-scale": ("ut-scale",),
    "corpus": ("corpus",),
    "semidirect": ("semidirect",),
}
UT_SIZES = (4, 5, 6)
# The seed behind the acceptance suite's 25 products (acceptance.DEFAULT_SEED).
SEMIDIRECT_SEED = 20260810
SEMIDIRECT_COUNT = 25


class SetupError(RuntimeError):
    """The checkout does not hold an importable lierad source tree."""


class DeadlineExceeded(BaseException):
    """Raised from the timer signal.

    A BaseException, so the per-field ``except Exception`` in
    ``reports._guard`` lets it through and the whole algebra is abandoned.
    """


def load_lierad() -> dict:
    """Import lierad and every submodule from ``<checkout>/src``, afresh.

    Returns ``{short name: module}``, e.g. ``{"linalg": <module>, ...}``,
    with the package itself under ``"lierad"``.
    """
    if not (SRC / "lierad" / "__init__.py").is_file():
        raise SetupError("no lierad sources under %s" % SRC)
    for name in [n for n in sys.modules if n == "lierad" or n.startswith("lierad.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("lierad")
    if Path(package.__file__).resolve().parent != (SRC / "lierad").resolve():
        raise SetupError("lierad was imported from %s, not from the checkout"
                         % package.__file__)
    modules = {"lierad": package}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module("lierad." + info.name)
    return modules


def build_set(mods: dict, name: str) -> list:
    """One algebra set as ``[(name, LieAlgebra)]``, in a fixed order."""
    corpus = mods["corpus"]
    if name == "corpus":
        return [(e, corpus.corpus_expr(e)) for e in corpus.SUITE_CORPUS_EXPRS]
    if name == "ut-scale":
        return [("ut(%d)" % n, corpus.corpus("ut", n)) for n in UT_SIZES]
    if name == "semidirect":
        return list(mods["acceptance"].random_semidirect_products(
            SEMIDIRECT_COUNT, SEMIDIRECT_SEED))
    raise ValueError("unknown algebra set %r" % name)


def build_workload(mods: dict, workload: str) -> list:
    return [a for part in WORKLOADS[workload] for a in build_set(mods, part)]


class Caches:
    """Every memo cache reachable from the lierad modules.

    Found by scanning module globals and class attributes for objects with
    ``cache_clear`` and ``cache_info``, so a cache added later is cleared too.
    """

    def __init__(self, mods: dict):
        self.functions = {}
        for mod in mods.values():
            holders = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                     if isinstance(v, type)
                                     and v.__module__ == mod.__name__]
            for namespace in holders:
                for value in namespace.values():
                    if callable(getattr(value, "cache_clear", None)) \
                            and callable(getattr(value, "cache_info", None)):
                        self.functions.setdefault(value.__qualname__, value)

    def clear(self):
        for fn in self.functions.values():
            fn.cache_clear()

    def info(self) -> dict:
        """``{function: (hits, misses)}`` since the last clear."""
        return {name: fn.cache_info()[:2] for name, fn in self.functions.items()}


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the main thread after ``seconds``."""
    def on_alarm(signum, frame):
        raise DeadlineExceeded("deadline of %gs reached" % seconds)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    name: str
    seconds: float
    status: str          # ok | deadline | raised | error-field | mismatch
    detail: str = ""
    cache: dict = None   # Caches.info() at the end of this algebra

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def error_paths(value, path="") -> list:
    """Paths of every ``{"error": ...}`` record inside a report."""
    out = []
    if isinstance(value, dict):
        if "error" in value:
            out.append(path or "/")
        for key, item in value.items():
            out.extend(error_paths(item, "%s/%s" % (path, key)))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            out.extend(error_paths(item, "%s/%d" % (path, i)))
    return out


def mismatches(reference, actual, path="") -> list:
    """Paths where ``actual`` differs from ``reference``.

    Dicts are compared key by key over the reference's keys only, so fields
    the reference lacks are ignored; every other value must serialize to the
    same bytes.
    """
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [path or "/"]
        out = []
        for key, ref in reference.items():
            sub = "%s/%s" % (path, key)
            if key not in actual:
                out.append(sub)
            else:
                out.extend(mismatches(ref, actual[key], sub))
        return out
    same = json.dumps(reference, sort_keys=True) == json.dumps(actual, sort_keys=True)
    return [] if same else [path or "/"]


def load_reference(workload: str) -> dict:
    """The reference of every set in the workload, merged."""
    merged = {"reports": {}, "stopped": []}
    for part in WORKLOADS[workload]:
        with open(REFERENCE_DIR / ("%s.json" % part)) as fh:
            ref = json.load(fh)
        merged["reports"].update(ref["reports"])
        merged["stopped"] += ref["stopped"]
    return merged


def analyze_one(mods: dict, caches: Caches, name: str, algebra,
                limit_s: float, reference=None) -> Outcome:
    """One cold-cache ``analyze`` + ``report_to_json`` under a deadline.

    Only the analysis and its serialization are timed; the report is then
    checked for error fields and against ``reference`` when one is given.
    """
    reports = mods["reports"]
    caches.clear()
    start = time.perf_counter()
    try:
        with deadline(limit_s):
            text = reports.report_to_json(reports.analyze(algebra, name=name))
    except DeadlineExceeded:
        outcome = Outcome(name, time.perf_counter() - start, "deadline",
                          cache=caches.info())
        caches.clear()
        return outcome
    except Exception as exc:  # noqa: BLE001 - a raising algebra is one failure
        return Outcome(name, time.perf_counter() - start, "raised",
                       "%s: %s" % (type(exc).__name__, exc), caches.info())
    outcome = Outcome(name, time.perf_counter() - start, "ok", cache=caches.info())
    report = json.loads(text)
    errors = error_paths(report)
    if errors:
        outcome.status, outcome.detail = "error-field", ", ".join(errors)
    elif reference is not None:
        diff = mismatches(reference, report)
        if diff:
            outcome.status, outcome.detail = "mismatch", ", ".join(diff)
    return outcome
