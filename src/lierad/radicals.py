"""Classical radicals and the generic preradical combinators.

The solvable radical is the Killing-orthogonal of the derived subalgebra
(Cartan, characteristic 0); the nilradical is cut out by trace conditions
against a unital associative envelope, so no algebraic closure is ever
needed.  That envelope is B, generated by ad over rad vectors independent
modulo M = [L, rad], not A, generated by ad(rad); A = B + rad(A).  Proof:
over the closure Lie's theorem makes ad(rad) triangular and ad M, nilpotent
as M lies in the nilradical, strictly triangular, so ad M lies in rad(A);
and tr(ad x * r) = 0 for x in rad, r in rad(A), so B and A give the same
conditions.  The Levi complement is lifted stepwise along the derived
series of a proper radical, one linear solve per abelian layer.  Semisimple
algebras split into simple ideals through the centroid (primary
decomposition of centroid elements, ``modules.direct_summands``), where a
1-dim centroid of a semisimple summand certifies it simple.  The Jacobson
ideal is [L, rad].

Every constructor returns its certificate alongside nothing: the functions
raise if their own output fails the checks the theory promises (solvable
output, semisimple quotient, nilpotent ideal, nondegenerate complement).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .liealg import (
    ContractError,
    LieAlgebra,
    ad_matrix,
    bracket_spaces,
    center,
    centralizer,
    derived_series,
    embed_subspace,
    is_ideal,
    is_killing_nondegenerate,
    is_subalgebra,
    killing_form,
    lower_central_series,
    quotient,
    restrict_to_subalgebra,
    solvability_index,
    stable_derived_term,
    stable_lower_central_term,
)
from .linalg import (
    Matrix,
    Q0,
    SpanBuilder,
    Subspace,
    nullspace_matrix,
    span_intersect,
    span_sum,
)
from .modules import (
    Action,
    associative_envelope,
    direct_summands,
    split_over_abelian_ideal,
)


@dataclass(frozen=True)
class PreradicalSpec:
    """A named total map LieAlgebra -> ideal-valued Subspace."""

    name: str
    evaluate: Callable[[LieAlgebra], Subspace]


@dataclass(frozen=True)
class LeviDecomposition:
    levi: Subspace
    radical: Subspace


def _solvability_index_of(algebra: LieAlgebra, space: Subspace) -> Optional[int]:
    if space.is_zero():
        return 0
    sub, _ = restrict_to_subalgebra(algebra, space)
    return solvability_index(sub)


@lru_cache(maxsize=None)
def solvable_radical(algebra: LieAlgebra) -> Subspace:
    """Largest solvable ideal, as the Killing-orthogonal of [L, L]."""
    n = algebra.dim
    derived = bracket_spaces(algebra, algebra.full_space(), algebra.full_space())
    kappa = killing_form(algebra)
    rows = []
    for d in derived.vectors():
        rows.append([sum((kappa.entry(i, j) * d[j] for j in range(n)), Q0)
                     for i in range(n)])
    if rows:
        result = Subspace.span(n, nullspace_matrix(Matrix(rows)).data)
    else:
        result = algebra.full_space()
    if not is_ideal(algebra, result):
        raise AssertionError("solvable radical candidate is not an ideal")
    if _solvability_index_of(algebra, result) is None:
        raise AssertionError("solvable radical candidate is not solvable")
    if not result.is_full():
        quot = quotient(algebra, result).quotient
        if not is_killing_nondegenerate(quot):
            raise AssertionError("quotient by the solvable radical is not semisimple")
    return result


@lru_cache(maxsize=None)
def nilradical(algebra: LieAlgebra) -> Subspace:
    """Largest nilpotent ideal, via trace conditions against an envelope.

    N = {x in rad : tr(ad x * a) = 0 for all a in A}, A the unital envelope
    of ad(rad) (Dickson's trace criterion).  The conditions are solved
    against the smaller B, the unital envelope of ad over the rad basis
    vectors independent modulo M = [L, rad], since A = B + rad(A):
    by Lie's theorem ad(rad) is triangular over the closure and ad M lies in
    the nilpotent ad(N), so it is strictly triangular there and in rad(A).
    As ad x * r lies in rad(A) for r in rad(A), tr(ad x * r) = 0.
    """
    rad = solvable_radical(algebra)
    n = algebra.dim
    if rad.is_zero():
        return rad
    commutator = bracket_spaces(algebra, algebra.full_space(), rad)
    builder = SpanBuilder(n)
    for v in commutator.vectors():
        builder.add(v)
    rad_ads = [ad_matrix(algebra, v) for v in rad.vectors()]
    gens = [a for v, a in zip(rad.vectors(), rad_ads) if builder.add(v)]
    env = associative_envelope(Action(n, tuple(gens)))
    rows = []
    for b in env.basis:
        rows.append([rad_ads[j].trace_of_product(b) for j in range(rad.dim)])
    coords = nullspace_matrix(Matrix(rows))
    result = embed_subspace(rad.basis, Subspace.span(rad.dim, coords.data))
    if not is_ideal(algebra, result):
        raise AssertionError("nilradical candidate is not an ideal")
    if not result.is_zero():
        sub, _ = restrict_to_subalgebra(algebra, result)
        if not lower_central_series(sub).reaches_zero():
            raise AssertionError("nilradical candidate is not nilpotent")
    if not result.contains(commutator):
        raise AssertionError("nilradical candidate misses [L, rad]")
    return result


@lru_cache(maxsize=None)
def levi_subalgebra(algebra: LieAlgebra) -> LeviDecomposition:
    """Levi decomposition, lifted along the derived series of the radical."""
    rad = solvable_radical(algebra)
    levi = _levi_complement(algebra, rad)
    if not is_subalgebra(algebra, levi):
        raise AssertionError("Levi candidate is not a subalgebra")
    if not levi.is_zero():
        sub, _ = restrict_to_subalgebra(algebra, levi)
        if not is_killing_nondegenerate(sub):
            raise AssertionError("Levi candidate is not semisimple")
    if not span_sum(levi, rad).is_full() or levi.dim + rad.dim != algebra.dim:
        raise AssertionError("Levi candidate does not complement the radical")
    return LeviDecomposition(levi=levi, radical=rad)


def _levi_complement(algebra: LieAlgebra, rad: Subspace) -> Subspace:
    """Complement to rad; 0 at once for a solvable L, so no lift meets A = L.

    The lift recurses on L/A with the radical R/A, never recomputing it:
    for an ideal A of L inside R, R/A is a solvable ideal of L/A and
    (L/A)/(R/A) = L/R is semisimple, so every solvable ideal of L/A maps to
    0 in L/R and lies in R/A; that is, rad(L/A) = R/A.  Only L's own Levi
    subalgebra is certified (``levi_subalgebra``).
    """
    if rad.is_zero():
        return algebra.full_space()
    if rad.is_full():
        return algebra.zero_space()
    rad_alg, rad_basis = restrict_to_subalgebra(algebra, rad)
    series = derived_series(rad_alg)
    last_nonzero = series.terms[series.stable_index - 1]
    abelian_layer = embed_subspace(rad_basis, last_nonzero)
    quot = quotient(algebra, abelian_layer)
    upper_levi = _levi_complement(quot.quotient, quot.push(rad))
    pulled = quot.pull(upper_levi)
    part_alg, part_basis = restrict_to_subalgebra(algebra, pulled)
    layer_coords = Subspace.span(
        part_alg.dim, [pulled.coords_of(v) for v in abelian_layer.vectors()])
    complement = split_over_abelian_ideal(part_alg, layer_coords)
    if complement is None:
        raise AssertionError("Levi lifting failed over an abelian layer")
    return embed_subspace(part_basis, complement)


def decompose_semisimple(algebra: LieAlgebra) -> tuple:
    """Simple ideal summands of a Killing-nondegenerate algebra.

    The summands are the ideal direct summands that primary decomposition of
    centroid elements splits off (``modules.direct_summands``).  The
    centroid of a semisimple algebra is the product of the centroids of its
    simple ideals, so a summand with a 1-dim centroid is certified simple; a
    larger centroid that no probe splits is returned as one summand.
    """
    if not is_killing_nondegenerate(algebra):
        raise ContractError("decompose_semisimple requires a nondegenerate Killing form")
    parts = direct_summands(algebra)
    kappa = killing_form(algebra)
    for i, a in enumerate(parts):
        if not is_ideal(algebra, a):
            raise AssertionError("semisimple summand is not an ideal")
        for b in parts[i + 1:]:
            for u in a.vectors():
                ku = kappa.apply(u)
                for v in b.vectors():
                    if sum((x * y for x, y in zip(ku, v)), Q0) != 0:
                        raise AssertionError("summands are not Killing-orthogonal")
    if sum(p.dim for p in parts) != algebra.dim:
        raise AssertionError("semisimple summands do not span")
    return parts


@lru_cache(maxsize=None)
def jacobson_ideal(algebra: LieAlgebra) -> Subspace:
    """[L, rad(L)], the intersection of the maximal finite-codim ideals."""
    return bracket_spaces(algebra, algebra.full_space(), solvable_radical(algebra))


@lru_cache(maxsize=None)
def largest_semisimple_ideal(algebra: LieAlgebra) -> Subspace:
    """S cap C_L(R) for a Levi subalgebra S and the radical R.

    A semisimple ideal I has I cap R = 0 (a solvable ideal of I), so
    [I, R] = 0 and [I + R, I + R] = I + [R, R].  A Levi subalgebra T of the
    ideal I + R is perfect, so it lies in I + R^(k) for every k, hence in I,
    and T = I by dimension.  S cap (I + R) is such a T, so I lies in S and
    in C_L(R).  Conversely C_S(R) is a semisimple ideal of L: it is an ideal
    of S by the Jacobi identity, as [S, R] lies in R, and [R, C_S(R)] = 0.
    """
    levi = levi_subalgebra(algebra)
    if levi.levi.is_zero():
        return algebra.zero_space()
    total = span_intersect(levi.levi, centralizer(algebra, levi.radical))
    if not total.is_zero():
        if not is_ideal(algebra, total):
            raise AssertionError("semisimple ideal candidate is not an ideal")
        sub, _ = restrict_to_subalgebra(algebra, total)
        if not is_killing_nondegenerate(sub):
            raise AssertionError("semisimple ideal candidate is degenerate")
    return total


@lru_cache(maxsize=None)
def levi_radical(algebra: LieAlgebra) -> Subspace:
    """Smallest characteristic ideal containing all Levi subalgebras.

    Equals the stable term of the derived series; cross-checked against the
    superposition fixpoint of the derived map.
    """
    stable = stable_derived_term(algebra)
    fix, _ = superposition_closure(DERIVED_MAP, algebra)
    if fix != stable:
        raise AssertionError("derived-map superposition disagrees with stable term")
    return stable


def vasilescu_radical(algebra: LieAlgebra) -> Subspace:
    """Intersection of primitive ideals; at finite dimension this is rad."""
    return solvable_radical(algebra)


def superposition_closure(spec: PreradicalSpec, algebra: LieAlgebra):
    """Iterate K <- R(K as an algebra) to the fixpoint; also its index.

    The index is 0 on the zero algebra and otherwise the least n >= 1 with
    the (n+1)-th term equal to the n-th.
    """
    if algebra.dim == 0:
        return algebra.zero_space(), 0
    terms = [algebra.full_space()]
    while True:
        current = terms[-1]
        sub, basis = restrict_to_subalgebra(algebra, current)
        value = spec.evaluate(sub)
        if not is_ideal(sub, value):
            raise ContractError("evaluator %r returned a non-ideal" % spec.name)
        nxt = embed_subspace(basis, value)
        if nxt == current:
            return current, max(1, len(terms) - 1)
        terms.append(nxt)


def convolution(r: PreradicalSpec, t: PreradicalSpec,
                algebra: LieAlgebra) -> Subspace:
    """(R * T)(L) = preimage of R(L / T(L)) under the quotient map."""
    t_value = t.evaluate(algebra)
    if not is_ideal(algebra, t_value):
        raise ContractError("evaluator %r returned a non-ideal" % t.name)
    quot = quotient(algebra, t_value)
    r_value = r.evaluate(quot.quotient)
    if not is_ideal(quot.quotient, r_value):
        raise ContractError("evaluator %r returned a non-ideal" % r.name)
    result = quot.pull(r_value)
    if not result.contains(t_value):
        raise AssertionError("convolution lost T(L)")
    return result


def convolution_closure(spec: PreradicalSpec, algebra: LieAlgebra):
    """Increasing convolution series R^(n+1) = R * R^(n), with its index."""
    if algebra.dim == 0:
        return algebra.zero_space(), 0
    terms = [algebra.zero_space()]
    while True:
        current = terms[-1]
        quot = quotient(algebra, current)
        value = spec.evaluate(quot.quotient)
        if not is_ideal(quot.quotient, value):
            raise ContractError("evaluator %r returned a non-ideal" % spec.name)
        nxt = quot.pull(value)
        if nxt == current:
            return current, max(1, len(terms) - 1)
        terms.append(nxt)


def is_absorbing(spec: PreradicalSpec, algebra: LieAlgebra,
                 ideal: Subspace) -> bool:
    """Whether L/I is R-semisimple."""
    if not is_ideal(algebra, ideal):
        raise ContractError("is_absorbing requires an ideal")
    quot = quotient(algebra, ideal)
    return spec.evaluate(quot.quotient).is_zero()


def _derived_map(algebra: LieAlgebra) -> Subspace:
    return bracket_spaces(algebra, algebra.full_space(), algebra.full_space())


DERIVED_MAP = PreradicalSpec("derived", _derived_map)


REGISTRY = {
    "rad": PreradicalSpec("rad", solvable_radical),
    "nilrad": PreradicalSpec("nilrad", nilradical),
    "center": PreradicalSpec("center", center),
    "derived": DERIVED_MAP,
    "lower-central-stable": PreradicalSpec("lower-central-stable",
                                           stable_lower_central_term),
    "levi-radical": PreradicalSpec("levi-radical", levi_radical),
    "semisimple-ideal": PreradicalSpec("semisimple-ideal", largest_semisimple_ideal),
    "jacobson": PreradicalSpec("jacobson", jacobson_ideal),
    "vasilescu": PreradicalSpec("vasilescu", vasilescu_radical),
}
