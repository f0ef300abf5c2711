"""Layer trace recorded from outside the package.

``Tracer.install`` wraps the public functions of each lierad layer and puts
the wrapper in place of *every* binding of the original across the
``lierad.*`` module namespaces (``nullspace_matrix``, for one, is imported by
name into modules, radicals and frattini), and wraps methods on their
classes.  Nothing under ``src/`` is edited; ``uninstall`` restores the
originals.

Each wrapped call adds its duration to its own total and to its caller's
child time; self time is total minus child time.  Counters that need the
arguments or the result (matrix sizes, polynomial digits, submodules found)
are recorded by small hooks next to the spans.  Bindings held inside data
structures (``radicals.REGISTRY``'s specs) are not rebound; ``analyze`` does
not reach them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

# (metric name, module, attribute); "Class.method" attributes are patched
# on the class.
TARGETS = (
    ("linalg.rref", "linalg", "rref"),
    ("linalg.nullspace_sparse", "linalg", "nullspace_sparse"),
    ("linalg.nullspace_matrix", "linalg", "nullspace_matrix"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.span", "linalg", "Subspace.span"),
    ("linalg.coords_of", "linalg", "Subspace.coords_of"),
    ("linalg.span_intersect", "linalg", "span_intersect"),
    ("linalg.spanbuilder_add", "linalg", "SpanBuilder.add"),
    ("linalg.matrix_mul", "linalg", "Matrix.mul"),
    ("linalg.matrix_new", "linalg", "Matrix.__init__"),
    ("polys.factor_rational_poly", "polys", "factor_rational_poly"),
    ("modules.associative_envelope", "modules", "associative_envelope"),
    ("modules.minimal_polynomial", "modules", "minimal_polynomial"),
    ("modules.find_proper_submodule", "modules", "find_proper_submodule"),
    ("modules.decompose_module", "modules", "decompose_module"),
    ("modules.split_over_abelian_ideal", "modules", "split_over_abelian_ideal"),
    ("modules.trace_radical", "modules", "trace_radical"),
    ("modules.spin", "modules", "spin"),
    ("liealg.bracket_spaces", "liealg", "bracket_spaces"),
    ("liealg.restrict_to_subalgebra", "liealg", "restrict_to_subalgebra"),
    ("liealg.quotient", "liealg", "quotient"),
    ("liealg.killing_form", "liealg", "killing_form"),
    ("liealg.is_characteristic", "liealg", "is_characteristic"),
    ("liealg.validate", "liealg", "validate"),
    ("radicals.solvable_radical", "radicals", "solvable_radical"),
    ("radicals.nilradical", "radicals", "nilradical"),
    ("radicals.levi_subalgebra", "radicals", "levi_subalgebra"),
    ("radicals.decompose_semisimple", "radicals", "decompose_semisimple"),
    ("radicals.superposition_closure", "radicals", "superposition_closure"),
    ("frattini.centroid", "frattini", "centroid"),
    ("frattini.direct_summands", "frattini", "direct_summands"),
    ("frattini.is_frattini_free", "frattini", "is_frattini_free"),
    ("frattini.frattini_ideal", "frattini", "frattini_ideal"),
    ("frattini.classify_subsimple", "frattini", "classify_subsimple"),
    ("frattini.subdirect_components", "frattini", "subdirect_components"),
    ("frattini.verify_subdirect", "frattini", "verify_subdirect"),
    ("reports.analyze", "reports", "analyze"),
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def integer_digits(coeffs) -> int:
    """Decimal digits of the largest coefficient of the primitive integer
    multiple of a rational polynomial."""
    fracs = [Fraction(str(c)) for c in coeffs]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    content = 0
    for v in ints:
        content = gcd(content, v)
    return max(len(str(abs(v // content))) for v in ints) if content else 1


class Tracer:
    def __init__(self, keep_spans: bool = False):
        self.stats = {name: Stat() for name, _, _ in TARGETS}
        self.counters = {
            "linalg.rref.cells": 0,
            "linalg.nullspace_sparse.cols": 0,
            "linalg.matrix_new.entries": 0,
            "polys.factor_rational_poly.max_degree": 0,
            "polys.factor_rational_poly.max_digits": 0,
            "modules.find_proper_submodule.found": 0,
            "modules.find_proper_submodule.probes": 0,
            "modules.associative_envelope.max_dim": 0,
            "frattini.direct_summands.split": 0,
        }
        self.keep_spans = keep_spans
        self.spans = []          # (id, parent id, name, start, end)
        self._stack = []         # [child seconds, span id] per open call
        self._patches = []       # (owner, attribute, original raw value)
        self._in_search = 0      # open find_proper_submodule calls
        self._ids = itertools.count()

    # -- hooks ------------------------------------------------------------

    def _enter(self, name, args):
        c = self.counters
        if name == "linalg.rref":
            c["linalg.rref.cells"] += args[0].rows * args[0].cols
        elif name == "linalg.nullspace_sparse":
            c["linalg.nullspace_sparse.cols"] += args[1]
        elif name == "polys.factor_rational_poly":
            coeffs = list(args[0])
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if coeffs:
                c["polys.factor_rational_poly.max_degree"] = max(
                    c["polys.factor_rational_poly.max_degree"], len(coeffs) - 1)
                c["polys.factor_rational_poly.max_digits"] = max(
                    c["polys.factor_rational_poly.max_digits"],
                    integer_digits(coeffs))
        elif name == "modules.minimal_polynomial":
            if self._in_search:
                c["modules.find_proper_submodule.probes"] += 1
        elif name == "modules.find_proper_submodule":
            self._in_search += 1

    def _leave(self, name, args, result):
        c = self.counters
        if name == "linalg.matrix_new":
            c["linalg.matrix_new.entries"] += args[0].rows * args[0].cols
        elif name == "modules.find_proper_submodule":
            if result is not None:
                c["modules.find_proper_submodule.found"] += 1
        elif name == "modules.associative_envelope":
            c["modules.associative_envelope.max_dim"] = max(
                c["modules.associative_envelope.max_dim"], len(result.basis))
        elif name == "frattini.direct_summands":
            if len(result) > 1:
                c["frattini.direct_summands.split"] += 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans if self.keep_spans else None
        clock = time.perf_counter
        enter = self._enter if name in _ENTER_HOOKS else None
        leave = self._leave if name in _LEAVE_HOOKS else None
        searching = name == "modules.find_proper_submodule"
        tracer = self
        ids = self._ids

        def traced(*args, **kwargs):
            if enter is not None:
                enter(name, args)
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat.calls += 1
                stat.total_s += took
                stat.self_s += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if spans is not None:
                    spans.append((frame[1], parent, name, start, end))
                if searching:
                    tracer._in_search -= 1
            if leave is not None:
                leave(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, mods: dict):
        """Wrap every target and rebind it wherever lierad holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, attr in TARGETS:
            owner = mods[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        # a deadline can interrupt the bookkeeping itself; start clean
        self._stack.clear()
        self._in_search = 0

    def snapshot(self) -> dict:
        """Copy of the per-function totals, for per-algebra differences."""
        return {n: (s.calls, s.total_s, s.self_s) for n, s in self.stats.items()}


_ENTER_HOOKS = frozenset({"linalg.rref", "linalg.nullspace_sparse",
                          "polys.factor_rational_poly",
                          "modules.minimal_polynomial",
                          "modules.find_proper_submodule"})
_LEAVE_HOOKS = frozenset({"linalg.matrix_new", "modules.find_proper_submodule",
                          "modules.associative_envelope",
                          "frattini.direct_summands"})
