"""Associative envelopes, invariant-subspace search, module and ideal splitting.

The engine behind the Levi construction, decomposability tests and the
Frattini-free decision.  Complete reducibility is decided operationally: the
unital associative envelope of the action must have zero trace radical (the
characteristic-0 Dickson criterion), which needs no eigenvalue computations
and stays inside Q.

A returned submodule is always verified invariant before it is handed back.
"No proper submodule" is certified when the envelope is all of M_n(Q)
(Burnside's theorem: then the action is irreducible); otherwise it is a probe
outcome, only as strong as the deterministic probe set, which suffices for
split modules with rational eigenvalue separations.  The probes are kernels
of irreducible factors of minimal polynomials of ``probe_matrices``: the
envelope basis, then sums and differences of pairs among its first 8,
leaving out scalar matrices and the shifts g +- cI, which find nothing that
g has not found.  Each kernel vector is spun once, and
``decompose_module`` hands the envelope of its complete-reducibility test
to the search, so each action's envelope is formed once.

Ideal direct summands come from the same probes, taken over the centroid
(the commutant of ad): the primary components of a centroid element are
ideals, kept when they are and when their dimensions add up.  The split
search forms the probes one at a time and stops at the first that splits.
One centroid is solved per algebra: each part of a split reads its own off
its parent's (``part_centroids``), so a direct-sum tree of any depth costs
one commutant solve, and no part is restricted to an algebra of its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Callable, Optional, Sequence

from .liealg import (
    ContractError,
    LieAlgebra,
    ad_of_basis,
    bracket,
    bracket_spaces,
    embed_subspace,
    is_ideal,
    is_subalgebra,
)
from .linalg import (
    Matrix,
    Q0,
    Q1,
    Subspace,
    closure,
    inverse,
    matrix_from_flat,
    nullspace_matrix,
    nullspace_sparse,
    solve,
    span_sum,
    trace_gram,
)
from .polys import factor_rational_poly, poly_mul, poly_trim


@dataclass(frozen=True)
class Action:
    """Operators on Q^carrier_dim."""

    carrier_dim: int
    operators: tuple

    def __post_init__(self):
        for op in self.operators:
            if op.rows != self.carrier_dim or op.cols != self.carrier_dim:
                raise ContractError("action operator has wrong shape")


@dataclass(frozen=True)
class Envelope:
    """Basis of the unital associative algebra generated by an action."""

    carrier_dim: int
    basis: tuple


def _restricted(maps: Sequence[Callable], carrier: Subspace) -> Action:
    """Linear maps that leave carrier invariant, as matrices in its basis."""
    ops = []
    for apply in maps:
        cols = []
        for row in carrier.vectors():
            coords = carrier.coords_of(apply(row))
            if coords is None:
                raise ContractError("carrier is not invariant under the action")
            cols.append(coords)
        # the image coordinates are the columns of the restricted operator
        ops.append(Matrix(list(zip(*cols)), cols=carrier.dim))
    return Action(carrier.dim, tuple(ops))


def restricted_ad_action(algebra: LieAlgebra, acting_vectors: Sequence,
                         carrier: Subspace) -> Action:
    """ad of given elements restricted to an invariant subspace, in its basis."""
    return _restricted([partial(bracket, algebra, v) for v in acting_vectors],
                       carrier)


def associative_envelope(action: Action) -> Envelope:
    """Unital span closure of the operators under matrix products.

    The ``closure`` of I and the operators under m -> m g and m -> g m,
    over the operators that a first closure with no maps keeps: one in the
    span of I and the operators before it adds nothing, since its products
    are combinations of products already formed.
    """
    n = action.carrier_dim
    kept = closure(n * n, (Matrix.identity(n),) + tuple(action.operators),
                   flat=Matrix.flatten)
    maps = []
    for g in kept[1:]:
        maps += [lambda m, g=g: m.mul(g), g.mul]
    return Envelope(n, tuple(closure(n * n, kept, maps, Matrix.flatten)))


def _span_is_nilpotent(mats: Sequence[Matrix], carrier_dim: int) -> bool:
    """Whether the associative algebra B the matrices generate is nilpotent.

    B is the ``closure`` of the matrices under left multiplication by each
    of them, and B is nilpotent iff every element of it has trace 0.
    Proof.  By Wedderburn's theorem a finite-dimensional associative algebra
    is nilpotent iff each of its elements is (Jacobson, *Lie Algebras*,
    1962).  In characteristic 0 a matrix b is nilpotent iff tr(b^k) = 0 for
    k = 1, ..., n (Newton's identities), and every power b^k lies in B.  So
    B is nilpotent iff the trace vanishes on B, which is linear, so on a
    basis of B (de Graaf, *Lie Algebras: Theory and Algorithms*, 2000).
    """
    closed = closure(carrier_dim * carrier_dim, mats, [m.mul for m in mats],
                     Matrix.flatten)
    return not any(b.trace() for b in closed)


def trace_radical(envelope: Envelope) -> Subspace:
    """Radical of the envelope as a subspace in envelope coordinates.

    Solves tr(a * b_k) = 0 over the basis; the result is certified to span a
    nilpotent two-sided ideal before being returned.
    """
    radical = Subspace.span(len(envelope.basis),
                            nullspace_matrix(trace_gram(envelope.basis)).data)
    if radical.is_zero():
        return radical
    n = envelope.carrier_dim
    flats = radical.basis.mul(Matrix([b.flatten() for b in envelope.basis]))
    rad_mats = [matrix_from_flat(row, n, n) for row in flats.data]
    if not _span_is_nilpotent(rad_mats, n):
        raise AssertionError("trace radical failed its nilpotency certificate")
    return radical


def is_completely_reducible(action: Action) -> bool:
    return trace_radical(associative_envelope(action)).is_zero()


def matrix_powers(m: Matrix) -> list:
    """I, m, ..., m^(d-1), a basis of Q[m], d = deg minpoly(m)."""
    return closure(m.rows * m.rows, [Matrix.identity(m.rows)],
                   [lambda p: p.mul(m)], Matrix.flatten)


def minimal_polynomial(m: Matrix) -> list:
    """Monic minimal polynomial, constant coefficient first: m^d solved over
    the basis I, m, ..., m^(d-1) of Q[m]; on Q^0, d = 0 and m^0 = I."""
    powers = matrix_powers(m)
    nxt = powers[-1].mul(m) if powers else Matrix.identity(m.rows)
    flats = [p.flatten() for p in powers]
    rows = [{k: f[t] for k, f in enumerate(flats) if f[t]}
            for t in range(m.rows * m.rows)]
    coeffs = [-c for c in solve(rows, nxt.flatten(), len(flats))] + [Q1]
    return poly_trim(coeffs) or [Q1]


def _poly_of_matrix(p: Sequence, m: Matrix) -> Matrix:
    acc = Matrix.zeros(m.rows, m.cols)
    for c in reversed(list(p)):
        acc = acc.mul(m)
        if c != 0:
            acc = acc.add(Matrix.identity(m.rows).scale(c))
    return acc


def spin(action: Action, seeds: Sequence) -> Subspace:
    """Smallest subspace containing the seeds invariant under the action."""
    n = action.carrier_dim
    return Subspace.span(n, closure(n, seeds, [op.apply for op in action.operators]))


def _is_invariant(action: Action, space: Subspace) -> bool:
    for op in action.operators:
        for v in space.vectors():
            if not space.contains_vector(op.apply(v)):
                return False
    return True


def _commutant_equations(action: Action) -> list:
    """Sparse rows {k: coefficient} of T op - op T = 0 over the n*n entries of T.

    T[i][j] is unknown i*n + j; each operator gives one equation per entry
    (i, j) where it has support in column j or in row i; the other entries
    give no terms.  The equations come column j by column j;
    ``nullspace_sparse`` eliminates the sparsest rows first, so this order
    only breaks ties between rows of equal length.
    """
    n = action.carrier_dim
    ops = [([[(t, r[j]) for t, r in enumerate(op.data) if r[j]] for j in range(n)],
            op.support, [i for i, r in enumerate(op.support) if r])
           for op in action.operators]
    rows = []
    for j in range(n):
        for col_support, row_support, busy_rows in ops:
            for i in (range(n) if col_support[j] else busy_rows):
                # (T op)[i][j] = sum_t T[i][t] op[t][j]
                row = {i * n + t: x for t, x in col_support[j]}
                # (op T)[i][j] = sum_t op[i][t] T[t][j]
                for t, x in row_support[i]:
                    row[t * n + j] = row.get(t * n + j, Q0) - x
                rows.append(row)
    return rows


def commutant(action: Action) -> Subspace:
    """End_A(V) = {T : T op = op T for every operator}, flattened row-major."""
    nn = action.carrier_dim ** 2
    return Subspace.span(nn, nullspace_sparse(_commutant_equations(action), nn).data)


def _is_scalar(m: Matrix) -> bool:
    """Whether m = c I, read off its entries; the 0 x 0 matrix is scalar."""
    c = m.data[0][0] if m.rows else Q0
    return all(x == c if i == j else not x
               for i, row in enumerate(m.data) for j, x in enumerate(row))


def probe_matrices(mats: Sequence[Matrix]) -> list:
    """The non-scalar matrices, then a + b and a - b for each pair of
    non-scalar matrices among the first 8, where that is not scalar.

    Leaving out the scalar matrices and the pairs with a scalar element
    changes no kernel that the probes find and no split.  Let s = c I.
    minpoly(g + s)(x) = minpoly(g)(x - c), minpoly(g - s)(x) =
    minpoly(g)(x + c) and minpoly(s - g)(x) = +-minpoly(g)(c - x), so the
    irreducible factors of the shift are h(x -+ c), or +-h(c - x), for the
    factors h of minpoly(g), with the same multiplicities.  Evaluated at
    the shift, each is +-h(g) exactly, and so is each power, so
    ``nullspace_matrix`` returns g's own kernel vectors and primary
    components.  g itself comes before every pair, so
    ``find_proper_submodule`` has already collected those vectors as seeds,
    and ``_find_ideal_split`` reaches g first: the shift splits iff g does,
    into the same parts.  A scalar probe has a minimal polynomial of degree
    at most 1, which the search has always skipped: its kernel is all of
    Q^n or 0, whose basis vectors are seeded anyway, and one factor is no
    split.  Seed order cannot matter either: the search answers with the
    least spin by ``sort_key``, and equal keys mean equal subspaces.
    """
    return list(_probes(mats))


def _probes(mats: Sequence[Matrix]):
    """The probes of ``probe_matrices(mats)``, in its order, each sum or
    difference formed only when the one before it has been consumed."""
    window = [m for m in mats[:8] if not _is_scalar(m)]
    yield from window
    yield from (m for m in mats[8:] if not _is_scalar(m))
    for i, a in enumerate(window):
        for b in window[i + 1:]:
            for form in (a.add, a.sub):
                probe = form(b)
                if not _is_scalar(probe):
                    yield probe


def _probe_factors(mats: Sequence[Matrix]):
    """Each probe of ``probe_matrices(mats)``, with the distinct irreducible
    factors of its minimal polynomial mapped to their multiplicities, formed
    lazily: a search that stops early forms no later probe."""
    for probe in _probes(mats):
        _, factors = factor_rational_poly(minimal_polynomial(probe))
        yield probe, Counter(map(tuple, factors))


def find_proper_submodule(action: Action, *,
                          envelope: Optional[Envelope] = None) -> Optional[Subspace]:
    """A proper nonzero invariant subspace, or None when none is found.

    None is certified when the envelope has dimension n^2: it is then all of
    M_n(Q), which maps any nonzero vector to any vector, so the action is
    irreducible (Burnside).  Otherwise None is a probe outcome.  Probes: for
    each of the ``probe_matrices`` of the envelope basis and each distinct
    irreducible factor of its minimal polynomial, the kernel of that factor;
    each kernel vector is spun once, as is each carrier basis vector.  The
    answer is the least proper spin by ``sort_key``.
    Any returned subspace is verified invariant and proper.

    ``envelope`` is plumbing for a caller that has already formed
    ``associative_envelope(action)``; it is formed here when not given.
    """
    n = action.carrier_dim
    if envelope is None:
        envelope = associative_envelope(action)
    if len(envelope.basis) == n * n:
        return None
    seeds = {}
    for probe, factors in _probe_factors(envelope.basis):
        for f in factors:
            kernel = nullspace_matrix(_poly_of_matrix(f, probe))
            seeds.update(dict.fromkeys(kernel.data))
    seeds.update(dict.fromkeys(Matrix.identity(n).data))
    candidates = []
    for seed in seeds:
        space = spin(action, [seed])
        if 0 < space.dim < n:
            if not _is_invariant(action, space):
                raise AssertionError("probe produced a non-invariant subspace")
            candidates.append(space)
    if not candidates:
        return None
    return min(candidates, key=lambda s: s.sort_key())


def centroid(algebra: LieAlgebra) -> Subspace:
    """{T : T[x,y] = [Tx,y] = [x,Ty]}, as a subspace of operator space.

    This is the commutant of the ad action: T[x,y] = [x,Ty] for all x, y
    gives T[x,y] = -T[y,x] = -[y,Tx] = [Tx,y].
    """
    return commutant(Action(algebra.dim, ad_of_basis(algebra)))


def part_centroids(whole: Subspace, cent: Subspace, parts: Sequence) -> list:
    """Γ(P) for each part P of an ideal direct sum W = P_1 + ... + P_k, read
    off cent = Γ(W).  W is an ideal direct summand of L, or L itself, and
    each centroid is in the canonical coordinates of its own space, W's or
    P's, as ``centroid`` of ``restrict_to_subalgebra(L, W)`` returns it.

    Γ(P) = {π_P T|_P : T ∈ Γ(W)}, π_P the projection along the other parts.
    Proof.  Let R be the sum of the other parts, so [P, R] = 0.  (⊇) For
    x, y ∈ P, π_P T[x,y] = π_P [x, Ty] = [x, π_P Ty], because [x, Ty] =
    [x, π_P Ty] + [x, π_R Ty] and [P, R] = 0; so π_P T|_P is in Γ(P).
    (⊆) For S ∈ Γ(P), S ⊕ 0 lies in Γ(W) and compresses to S.  The parts'
    bases together are a basis of W, so in that basis T is a block matrix
    and π_P T|_P is its P block.  The parts must be independent and span W:
    ``inverse`` raises ValueError otherwise.
    """
    n = whole.dim
    # columns: the parts' canonical basis vectors, part after part, in W's
    # coordinates, which are their entries at W's pivots
    change = Matrix([[v[p] for p in whole.pivots]
                     for part in parts for v in part.vectors()], cols=n).transpose()
    back = inverse(change)
    blocks = [back.mul(matrix_from_flat(t, n, n)).mul(change)
              for t in cent.vectors()]
    out, at = [], 0
    for part in parts:
        end = at + part.dim
        out.append(Subspace.span(part.dim ** 2, [
            [x for row in b.data[at:end] for x in row[at:end]] for b in blocks]))
        at = end
    return out


def _find_ideal_split(algebra: LieAlgebra, whole: Subspace,
                      cent: Subspace) -> Optional[list]:
    """Primary components of the first centroid probe that splits W into
    ideals: the kernels of f^m(probe) over its factors f of multiplicity m.
    W is an ideal direct summand of L, or L itself, and cent is Γ(W) in
    W's canonical coordinates; the kernels are returned as subspaces of L.
    An ideal of W is an ideal of L, since W's complement R has [W, R] = 0,
    so each part is tested in L.  The probes are formed one at a time."""
    m = whole.dim
    mats = [matrix_from_flat(v, m, m) for v in cent.vectors()]
    for probe, factors in _probe_factors(mats):
        if len(factors) < 2:
            continue
        parts = []
        for f, mult in factors.items():
            power = reduce(poly_mul, [f] * mult)
            kernel = nullspace_matrix(_poly_of_matrix(power, probe))
            parts.append(Subspace.span(algebra.dim, kernel.mul(whole.basis).data))
        if sum(p.dim for p in parts) == m and all(is_ideal(algebra, p) for p in parts):
            return parts
    return None


@lru_cache(maxsize=None)
def direct_summands(algebra: LieAlgebra) -> tuple:
    """Ideal direct summands found by splitting centroid minimal polynomials.

    Returns (L,) when no split is found.  ``centroid(L)`` is the one
    centroid solved: ``_summands`` hands each part its own.
    """
    if algebra.dim == 0:
        return ()
    leaves = _summands(algebra, algebra.full_space(), centroid(algebra))
    return tuple(sorted(leaves, key=lambda s: s.sort_key()))


def _summands(algebra: LieAlgebra, whole: Subspace, cent: Subspace) -> list:
    """The leaves of W, an ideal direct summand of L or L itself, given
    cent = Γ(W) in W's canonical coordinates.

    Each split is certified ideal (``_find_ideal_split``), independent and
    spanning W before its parts are compressed to their centroids
    (``part_centroids``) and split in turn.  An ideal of an ideal direct
    summand is an ideal of L, so the leaves are a verified decomposition.
    No part is restricted to an algebra of its own: the split search reads
    a part's centroid in its coordinates and tests ideals in L.  So a part
    whose centroid has dimension 1 costs no restriction either: that
    centroid is Q·1, as the identity always lies in it, so its one element
    is scalar, ``_find_ideal_split`` forms no probe, and the part is a leaf.
    """
    split = _find_ideal_split(algebra, whole, cent)
    if split is None:
        return [whole]
    total = span_sum(*split)
    if sum(p.dim for p in split) != total.dim:
        raise AssertionError("direct summands are not independent")
    if total != whole:
        raise AssertionError("direct summands do not span")
    leaves = []
    for part, part_cent in zip(split, part_centroids(whole, cent, split)):
        leaves += _summands(algebra, part, part_cent)
    return leaves


def _equivariant_complement(action: Action, sub: Subspace) -> Subspace:
    """Invariant complement of an invariant subspace W of a semisimple action.

    Solves for a projection P onto W that commutes with the action; its
    kernel is the complement.  The unknowns are P's entries, row-major, and
    the system is sparse rows: ``_commutant_equations``, (P w)_i = w_i for
    each basis vector w of W, and y P = 0 for each vector y of a basis of
    the annihilator of W, which says that every column of P lies in W.
    """
    n = action.carrier_dim
    rows = _commutant_equations(action)
    rhs = [Q0] * len(rows)
    for w in sub.vectors():
        for i in range(n):
            rows.append({i * n + k: x for k, x in enumerate(w) if x})
            rhs.append(w[i])
    for y in nullspace_matrix(sub.basis).data:
        for j in range(n):
            rows.append({i * n + j: x for i, x in enumerate(y) if x})
            rhs.append(Q0)
    sol = solve(rows, rhs, n * n)
    if sol is None:
        raise ContractError("no equivariant projection: module is not semisimple")
    proj = matrix_from_flat(sol, n, n)
    complement = Subspace.span(n, nullspace_matrix(proj).data)
    if not _is_invariant(action, complement):
        raise AssertionError("equivariant complement failed invariance check")
    return complement


class NotCompletelyReducibleError(ContractError):
    """``decompose_module`` was given an action with a nonzero trace radical."""


def decompose_module(action: Action) -> tuple:
    """Split a completely reducible action into irreducible summands.

    Raises NotCompletelyReducibleError when the action is not completely
    reducible, so a caller that needs the test and the summands runs the
    test once.  The envelope of that test is the one the submodule search
    of the whole action probes.
    """
    envelope = associative_envelope(action)
    if not trace_radical(envelope).is_zero():
        raise NotCompletelyReducibleError(
            "decompose_module requires a completely reducible action")

    def rec(act: Action, embedding: Matrix, envelope=None) -> list:
        if act.carrier_dim == 0:
            return []
        sub = find_proper_submodule(act, envelope=envelope)
        if sub is None:
            return [Subspace.span(embedding.cols, embedding.data)]
        comp = _equivariant_complement(act, sub)
        out = []
        for part in (sub, comp):
            part_basis = embed_subspace(embedding, part)
            restricted = _restricted([op.apply for op in act.operators], part)
            out.extend(rec(restricted, part_basis.basis))
        return out

    n = action.carrier_dim
    summands = rec(action, Matrix.identity(n), envelope)
    return tuple(sorted(summands, key=lambda s: s.sort_key()))


def split_over_abelian_ideal(algebra: LieAlgebra, x: Subspace) -> Optional[Subspace]:
    """Subalgebra complement M with L = M + X, for an abelian ideal X.

    The closure condition on the correcting map gamma: L/X -> X is linear
    precisely because X is abelian; returns None when inconsistent.
    """
    if not is_ideal(algebra, x):
        raise ContractError("split requires an ideal")
    if not bracket_spaces(algebra, x, x).is_zero():
        raise ContractError("split requires an abelian ideal")
    n = algebra.dim
    if x.is_zero():
        return algebra.full_space()
    pivot_set = set(x.pivots)
    free = [j for j in range(n) if j not in pivot_set]
    m = len(free)
    if m == 0:
        return algebra.zero_space()
    d = x.dim
    xbasis = x.vectors()

    def x_and_free_parts(vec) -> tuple[tuple, tuple]:
        v = x.reduce(vec)
        return tuple(vec[p] for p in x.pivots), tuple(v[j] for j in free)

    w = [algebra.basis_vector(j) for j in free]
    # ad of each w_i on X, in X coordinates
    ad_on_x = [[x.coords_of(bracket(algebra, w[i], xbasis[t])) for t in range(d)]
               for i in range(m)]
    # the unknown gamma(w_j)_s is column j * d + s
    rows = []
    rhs = []
    for i in range(m):
        for j in range(i + 1, m):
            dij, cij = x_and_free_parts(bracket(algebra, w[i], w[j]))
            for t in range(d):
                row = Counter()
                for s in range(d):
                    # + ad(w_i) gamma(w_j) - ad(w_j) gamma(w_i)
                    row[j * d + s] += ad_on_x[i][s][t]
                    row[i * d + s] -= ad_on_x[j][s][t]
                for k in range(m):
                    # - gamma(c_ij)
                    row[k * d + t] -= cij[k]
                rows.append(row)
                rhs.append(-dij[t])
    sol = solve(rows, rhs, m * d)
    if sol is None:
        return None
    vecs = []
    for i in range(m):
        vec = list(w[i])
        for s in range(d):
            coeff = sol[i * d + s]
            if coeff != 0:
                for t in range(n):
                    vec[t] += coeff * xbasis[s][t]
        vecs.append(vec)
    result = Subspace.span(n, vecs)
    if not is_subalgebra(algebra, result):
        raise AssertionError("split produced a non-subalgebra")
    if not span_sum(result, x).is_full() or result.dim != m:
        raise AssertionError("split complement has wrong dimension")
    return result
