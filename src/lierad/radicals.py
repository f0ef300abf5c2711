"""Classical radicals and the generic preradical combinators.

The solvable radical is the Killing-orthogonal of the derived subalgebra
(Cartan, characteristic 0); the nilradical is cut out by trace conditions
against the powers of one generic element of ad(rad), so no algebraic
closure is ever needed.  The Levi complement is lifted stepwise along the
derived series of a proper radical, one linear solve per abelian layer.
Semisimple algebras split into simple ideals through the centroid (primary
decomposition of centroid elements, ``modules.direct_summands``), where a
1-dim centroid of a semisimple summand certifies it simple.  The Jacobson
ideal is [L, rad].

Every constructor raises if its output fails the checks the theory
promises (solvable output, semisimple quotient, nilpotent ideal,
nondegenerate complement).  The series and Killing forms of ideals are read
in L's own coordinates; ``restrict_to_subalgebra`` builds a new algebra only
for superposition steps, the Levi lift and the Levi subalgebra's Killing form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Optional

from .liealg import (
    ContractError,
    LieAlgebra,
    ad_matrix,
    bracket_spaces,
    center,
    centralizer,
    derived_series_of,
    embed_subspace,
    is_ideal,
    is_killing_nondegenerate,
    is_subalgebra,
    killing_form,
    lower_central_series_of,
    quotient,
    restrict_to_subalgebra,
    stable_derived_term,
    stable_lower_central_term,
)
from .linalg import (
    _series,
    Matrix,
    Subspace,
    closure,
    matrix_from_flat,
    nullspace_matrix,
    primitive_part,
    rank,
    span_intersect,
    span_sum,
)
from .modules import direct_summands, matrix_powers, split_over_abelian_ideal


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
    """Solvability index of a subalgebra of L (0 on 0), None if not solvable."""
    series = derived_series_of(algebra, space)
    return series.stable_index if series.reaches_zero() else None


@lru_cache(maxsize=None)
def solvable_radical(algebra: LieAlgebra) -> Subspace:
    """Largest solvable ideal, as the Killing-orthogonal of [L, L]."""
    rows = _derived_map(algebra).basis.mul(killing_form(algebra))
    result = Subspace.span(algebra.dim, nullspace_matrix(rows).data)
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
    """Largest nilpotent ideal N, from the powers of one generic element.

    N = {x in rad : tr(ad x * z^j) = 0 for all j}, z = sum_i k^i g_i over the
    ad g_i of the m rad basis vectors independent modulo M = [L, rad].
    Proof.  Let A, B be the unital envelopes of ad(rad) and of the g_i.  By
    Lie's theorem ad(rad) is triangular over the closure, so A/rad(A) is
    commutative and x in rad lies in N iff ad x is in rad(A) iff
    tr(ad x * A) = 0 (Dickson).  ad M lies in rad(A), so A = B + rad(A), and
    rad(B) = B cap rad(A): the conditions depend on B/rad(B) only, a product
    of fields with at most n characters chi over the closure.  z generates it
    iff the chi(z) differ; chi(z) - chi'(z) is a nonzero polynomial in k of
    degree < m, so at most (m - 1) n (n - 1) / 2 values of k fail (k = 1
    gives z = 0 on ut(n), hence the start at 2).  Any z solves a set S
    containing N, between M and rad and so an ideal, that is nilpotent only
    if S = N: the first candidate that passes the certificate is N.
    z is replaced by its primitive integer multiple cz (c > 0), so its
    powers are integer matrices: Q[cz] = Q[z], and the row of (cz)^j in the
    trace system is c^j times that of z^j, so the kernel is the same.
    """
    rad = solvable_radical(algebra)
    n = algebra.dim
    if rad.is_zero():
        return rad
    commutator = bracket_spaces(algebra, algebra.full_space(), rad)
    rad_ads = {v: ad_matrix(algebra, v) for v in rad.vectors()}
    picked = closure(n, commutator.vectors() + rad.vectors())[commutator.dim:]
    gens = [rad_ads[v] for v in picked]
    last_k = max(len(gens) - 1, 0) * n * (n - 1) // 2 + 2
    for k in range(2, last_k + 1):
        z = reduce(Matrix.add, [g.scale(k ** i) for i, g in enumerate(gens)],
                   Matrix.zeros(n, n))
        z = matrix_from_flat(primitive_part(z.flatten()), n, n)
        powers = matrix_powers(z)
        rows = [[a.trace_of_product(p) for a in rad_ads.values()] for p in powers]
        coords = nullspace_matrix(Matrix(rows))
        result = embed_subspace(rad.basis, Subspace.span(rad.dim, coords.data))
        if (result.contains(commutator) and is_ideal(algebra, result)
                and lower_central_series_of(algebra, result).reaches_zero()):
            return result
    raise AssertionError("no nilradical candidate passed for k = 2 .. %d" % last_k)


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
    abelian_layer = derived_series_of(algebra, rad).terms[-2]  # last nonzero
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
    for i, a in enumerate(parts):
        if not is_ideal(algebra, a):
            raise AssertionError("semisimple summand is not an ideal")
        for b in parts[i + 1:]:
            if not a.basis.mul(killing_form(algebra)).mul(b.basis.transpose()).is_zero():
                raise AssertionError("summands are not Killing-orthogonal")
    if sum(p.dim for p in parts) != algebra.dim:
        raise AssertionError("semisimple summands do not span")
    return parts


def jacobson_ideal(algebra: LieAlgebra) -> Subspace:
    """[L, rad(L)], the intersection of the maximal finite-codim ideals."""
    return bracket_spaces(algebra, algebra.full_space(), solvable_radical(algebra))


def largest_semisimple_ideal(algebra: LieAlgebra) -> Subspace:
    """S cap C_L(R) for a Levi subalgebra S and the radical R.

    A semisimple ideal I has I cap R = 0 (a solvable ideal of I), so
    [I, R] = 0 and [I + R, I + R] = I + [R, R].  A Levi subalgebra T of the
    ideal I + R is perfect, so it lies in I + R^(k) for every k, hence in I,
    and T = I by dimension.  S cap (I + R) is such a T, so I lies in S and
    in C_L(R).  Conversely C_S(R) is a semisimple ideal of L: it is an ideal
    of S by the Jacobi identity, as [S, R] lies in R, and [R, C_S(R)] = 0.

    The check rank(B κ_L B^T) = dim, B the basis, reads the Killing form of
    an ideal I as κ_L on I (Humphreys, *Introduction to Lie Algebras and
    Representation Theory*, Lemma 5.1).  Proof.  For x, y in I, ad x ad y
    maps L into I, so in a basis of L extending one of I its trace is that
    of its block on I, tr(ad_I x ad_I y).
    """
    levi = levi_subalgebra(algebra)
    if levi.levi.is_zero():
        return algebra.zero_space()
    total = span_intersect(levi.levi, centralizer(algebra, levi.radical))
    if not total.is_zero():
        if not is_ideal(algebra, total):
            raise AssertionError("semisimple ideal candidate is not an ideal")
        basis = total.basis
        if rank(basis.mul(killing_form(algebra)).mul(basis.transpose())) != total.dim:
            raise AssertionError("semisimple ideal candidate is degenerate")
    return total


def levi_radical(algebra: LieAlgebra) -> Subspace:
    """Smallest characteristic ideal containing all Levi subalgebras.

    Equals the stable term of the derived series, which is the superposition
    fixpoint of the derived map: each step of that closure forms the derived
    algebra of the last term.
    """
    return stable_derived_term(algebra)


def vasilescu_radical(algebra: LieAlgebra) -> Subspace:
    """Intersection of primitive ideals; at finite dimension this is rad."""
    return solvable_radical(algebra)


def _ideal_value(spec: PreradicalSpec, algebra: LieAlgebra) -> Subspace:
    """R(L), refused unless it is an ideal of L."""
    value = spec.evaluate(algebra)
    if not is_ideal(algebra, value):
        raise ContractError("evaluator %r returned a non-ideal" % spec.name)
    return value


def _stable(algebra: LieAlgebra, start: Subspace, step) -> tuple:
    """The stable term of the series from start, and its index: 0 on the
    zero algebra, otherwise the least n >= 1 with the (n+1)-th term equal
    to the n-th."""
    if algebra.dim == 0:
        return algebra.zero_space(), 0
    series = _series(start, step)
    return series.stable_term(), max(1, series.stable_index)


def superposition_closure(spec: PreradicalSpec, algebra: LieAlgebra):
    """Iterate K <- R(K as an algebra) to the fixpoint; also its index."""

    def step(current: Subspace) -> Subspace:
        sub, basis = restrict_to_subalgebra(algebra, current)
        return embed_subspace(basis, _ideal_value(spec, sub))

    return _stable(algebra, algebra.full_space(), step)


def convolution(r: PreradicalSpec, t: PreradicalSpec,
                algebra: LieAlgebra) -> Subspace:
    """(R * T)(L) = preimage of R(L / T(L)) under the quotient map."""
    t_value = _ideal_value(t, algebra)
    quot = quotient(algebra, t_value)
    result = quot.pull(_ideal_value(r, quot.quotient))
    if not result.contains(t_value):
        raise AssertionError("convolution lost T(L)")
    return result


def convolution_closure(spec: PreradicalSpec, algebra: LieAlgebra):
    """Increasing convolution series R^(n+1) = R * R^(n), with its index."""

    def step(current: Subspace) -> Subspace:
        quot = quotient(algebra, current)
        return quot.pull(_ideal_value(spec, quot.quotient))

    return _stable(algebra, algebra.zero_space(), step)


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
