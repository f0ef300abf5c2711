"""Lie algebras over Q as structure-constant tensors.

A ``LieAlgebra`` is a dimension, basis labels and the tensor c with
c[i][j] = coordinates of [b_i, b_j].  All operations are pure functions on
immutable values: brackets, closures, centers, the two canonical series,
the Killing form, derivations, quotients and product constructions.

Most tensors are sparse (ut(n) has about one nonzero coordinate per four
pairs (i, j)), so the kernel reads them through ``LieAlgebra.support``, the
nonzero c[i][j] with the indices of their nonzero coordinates, as in de
Graaf, *Lie Algebras: Theory and Algorithms* (2000), ch. 1: ``bracket``,
``ad_matrix``, ``centralizer`` and the Jacobi sums of ``validate`` touch only
those entries.  The support is read from the dense tensor, so none of them
assumes antisymmetry.

A function is memoized iff one cold ``analyze`` asks for it again and its
body does more than look up other memos.  Ten functions qualify, and each
skips an elimination, a trace Gram matrix or a split when asked again:
``bracket_spaces``, ``center``, ``killing_form`` and ``outer_derivations``
here, ``solvable_radical``, ``nilradical`` and ``levi_subalgebra`` in
``radicals``, ``direct_summands`` in ``modules``, and ``is_frattini_free``
and ``frattini_ideal`` in ``frattini``.  One cold pass over the 40 timed
corpus-semidirect benchmark algebras, with the memos cleared before each,
hits them 2,957 times: 1,778 products [U, V], 399 radicals, 184
nilradicals, 160 Frattini estimates and 436 others.  Every memoized value
is a pure function of an immutable algebra and canonical subspaces, so no
answer can change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Sequence

from .linalg import (
    _INTS,
    _series,
    Matrix,
    Q0,
    Q1,
    SeriesResult,
    Subspace,
    closure,
    inverse,
    matrix_from_flat,
    nullspace_matrix,
    nullspace_sparse,
    qq,
    rank,
    rref,
    trace_gram,
)


# The largest dimension taken from outside the package: the loaders of
# algebra and family files and the corpus expressions refuse anything larger
# before allocating it.  The largest ut(n) it admits is ut(10), dimension 55.
MAX_DIM = 64


class ContractError(ValueError):
    """A documented precondition of an operation was violated."""


class LieAlgebra:
    """Structure-constant presentation of a finite-dimensional Lie algebra."""

    __slots__ = ("dim", "labels", "c", "_hash", "_support")

    def __init__(self, dim: int, labels: Sequence[str], c):
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        if len(c) != dim or any(len(row) != dim for row in c):
            raise ValueError("structure tensor is not dim x dim")
        tensor = tuple(tuple(
            cij if type(cij) is tuple and _INTS.issuperset(map(type, cij))
            else tuple(qq(x) for x in cij) for cij in row) for row in c)
        if any(len(cij) != dim for row in tensor for cij in row):
            raise ValueError("bracket coordinate vector has wrong length")
        self.dim = dim
        self.labels = tuple(str(x) for x in labels)
        self.c = tensor
        self._hash = None
        self._support = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.c == other.c)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dim, self.c))
        return self._hash

    def __repr__(self) -> str:
        return "LieAlgebra(dim=%d, labels=%r)" % (self.dim, list(self.labels))

    @property
    def support(self) -> tuple:
        """Per i, ``(j, c[i][j], ks)`` for each nonzero c[i][j], with ``ks``
        the tuple of its nonzero coordinates k.

        Computed on first use and kept: the tensor is immutable.
        """
        if self._support is None:
            self._support = tuple(
                tuple([(j, cij, tuple([k for k, x in enumerate(cij) if x]))
                       for j, cij in enumerate(ci) if any(cij)])
                for ci in self.c)
        return self._support

    def basis_vector(self, i: int) -> tuple:
        return tuple(Q1 if j == i else Q0 for j in range(self.dim))

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.dim)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    antisymmetry_violations: tuple
    jacobi_violations: tuple


@dataclass(frozen=True)
class QuotientData:
    """Quotient algebra together with the projection and a linear section."""

    quotient: LieAlgebra
    projection: Matrix
    section: Matrix

    def push(self, space: Subspace) -> Subspace:
        vecs = [self.projection.apply(v) for v in space.vectors()]
        return Subspace.span(self.quotient.dim, vecs)

    def pull(self, space: Subspace) -> Subspace:
        """Preimage of a subspace of the quotient."""
        kernel = nullspace_matrix(self.projection)
        vecs = [self.section.apply(v) for v in space.vectors()]
        vecs.extend(kernel.data)
        return Subspace.span(self.projection.cols, vecs)


def validate(algebra: LieAlgebra) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity, listing every violation.

    Antisymmetry compares c[i][j] with -c[j][i] for i <= j.  Each triple
    i < j < k whose Jacobi sum is nonzero is listed, in lexicographic order;
    the sum [b_a, [b_b, b_d]] over the three cyclic orders is formed from
    the support only, so the zero parts of the tensor cost nothing.
    """
    n = algebra.dim
    c = algebra.c
    anti = []
    for i in range(n):
        for j in range(i, n):
            lhs = c[i][j]
            rhs = c[j][i]
            if any(a != -b for a, b in zip(lhs, rhs)):
                anti.append((i, j))
    # nonzero[a][b]: (c[a][b], its nonzero coordinates), for nonzero c[a][b]
    nonzero = [{j: (cij, ks) for j, cij, ks in row} for row in algebra.support]
    jac = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [Q0] * n
                for (a, b, d) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = nonzero[b].get(d)
                    if inner is None:
                        continue
                    outer_a = nonzero[a]
                    inner_c, inner_ks = inner
                    for m in inner_ks:
                        outer = outer_a.get(m)
                        if outer is not None:
                            coeff = inner_c[m]
                            outer_c, outer_ks = outer
                            for t in outer_ks:
                                total[t] += coeff * outer_c[t]
                if any(total):
                    jac.append((i, j, k))
    return ValidationReport(not anti and not jac, tuple(anti), tuple(jac))


def bracket(algebra: LieAlgebra, u: Sequence, v: Sequence) -> tuple:
    """[u, v] = sum of u_i v_j c[i][j] over the nonzero u_i and the support
    of row i; antisymmetry is not assumed."""
    n = algebra.dim
    if len(u) != n or len(v) != n:
        raise ValueError("vector length does not match algebra dimension")
    out = [Q0] * n
    support = algebra.support
    for i, a in enumerate(u):
        if not a:
            continue
        for j, cij, ks in support[i]:
            b = v[j]
            if b:
                ab = a * b
                for k in ks:
                    out[k] += ab * cij[k]
    return tuple(out)


def ad_matrix(algebra: LieAlgebra, v: Sequence) -> Matrix:
    """Matrix of ad(v): w -> [v, w] in the defining basis.

    Column j is [v, b_j]: entry (k, j) sums v_i c[i][j][k] over the nonzero
    v_i and the support of row i.
    """
    n = algebra.dim
    if len(v) != n:
        raise ValueError("vector length does not match algebra dimension")
    rows = [[Q0] * n for _ in range(n)]
    support = algebra.support
    for i, a in enumerate(v):
        if not a:
            continue
        for j, cij, ks in support[i]:
            for k in ks:
                rows[k][j] += a * cij[k]
    return Matrix(rows, cols=n)


def ad_of_basis(algebra: LieAlgebra) -> tuple:
    """ad of each basis element, read off the structure constants:
    ad(b_i) has c[i][j][k] in row k, column j."""
    n = algebra.dim
    return tuple(Matrix([[cij[k] for cij in ci] for k in range(n)])
                 for ci in algebra.c)


@lru_cache(maxsize=None)
def bracket_spaces(algebra: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """[U, V], the span of the brackets of the basis vectors of U and V.

    The tensor is assumed antisymmetric (as ``_is_homomorphism`` does):
    when U == V only the pairs i < j are bracketed, since [y, x] = -[x, y]
    and [x, x] = 0 add nothing to the span.  Each pair is bracketed once;
    zero and repeated brackets are dropped before the span, which they do
    not change.

    Memoized per (L, U, V), so every series step, ideal test and
    commutator of one analysis forms each product once.  The memo cannot
    change an answer: the result reads only the structure tensor and the
    canonical RREF bases of U and V (the ``u == v`` branch compares those
    bases), ``LieAlgebra`` and ``Subspace`` hash and compare by exactly
    that data, and both, like the returned ``Subspace``, are immutable.
    """
    if u.ambient_dim != algebra.dim or v.ambient_dim != algebra.dim:
        raise ValueError("vector length does not match algebra dimension")
    xs = u.vectors()
    if u == v:
        pairs = ((x, y) for i, x in enumerate(xs) for y in xs[i + 1:])
    else:
        pairs = ((x, y) for x in xs for y in v.vectors())
    # the span depends neither on order nor on multiplicity; a dict keeps
    # the first occurrence of each bracket, so the row order is fixed
    vecs = dict.fromkeys(bracket(algebra, x, y) for x, y in pairs)
    vecs.pop((Q0,) * algebra.dim, None)
    return Subspace.span(algebra.dim, vecs)


def _ad_closure(algebra: LieAlgebra, seed: Subspace, acting) -> Subspace:
    """The smallest subspace containing the seed and invariant under ad of
    each acting vector."""
    maps = [partial(bracket, algebra, x) for x in acting]
    return Subspace.span(algebra.dim, closure(algebra.dim, seed.vectors(), maps))


def subalgebra_closure(algebra: LieAlgebra, seed: Subspace) -> Subspace:
    """The subalgebra generated by the seed: its ad(seed)-closure, since by
    the Jacobi identity the right-normed brackets [s_1, [s_2, ... s_k]] of
    seed vectors span it."""
    return _ad_closure(algebra, seed, seed.vectors())


def ideal_closure(algebra: LieAlgebra, seed: Subspace) -> Subspace:
    """The ideal generated by the seed: its ad(L)-closure."""
    return _ad_closure(algebra, seed,
                       [algebra.basis_vector(i) for i in range(algebra.dim)])


def centralizer(algebra: LieAlgebra, space: Subspace) -> Subspace:
    """{x : [x, U] = 0}, the common kernel of x -> [x, u] over U's basis.

    Row k of the block of u is {i: [b_i, u]_k}, the sum of u_j c[i][j][k]
    over the support, so only nonzero entries are formed; on an
    antisymmetric tensor the block is -ad(u).  The blocks are stacked as
    sparse rows for ``nullspace_sparse``.  For U = 0, or when every row is
    empty, the answer is the whole space.
    """
    n = algebra.dim
    if space.ambient_dim != n:
        raise ValueError("vector length does not match algebra dimension")
    support = algebra.support
    rows = []
    for u in space.vectors():
        block = [{} for _ in range(n)]
        for i, row in enumerate(support):
            for j, cij, ks in row:
                a = u[j]
                if a:
                    for k in ks:
                        block[k][i] = block[k].get(i, Q0) + a * cij[k]
        rows.extend(r for r in block if r)
    if not rows:
        return algebra.full_space()
    ker = nullspace_sparse(rows, n)
    return Subspace.span(n, ker.data)


@lru_cache(maxsize=None)
def center(algebra: LieAlgebra) -> Subspace:
    return centralizer(algebra, algebra.full_space())


def derived_series_of(algebra: LieAlgebra, space: Subspace) -> SeriesResult:
    """S, [S, S], ... for a subalgebra S, in L's coordinates (S's own terms)."""
    return _series(space, lambda t: bracket_spaces(algebra, t, t))


def lower_central_series_of(algebra: LieAlgebra, space: Subspace) -> SeriesResult:
    """S, [S, S], [S, [S, S]], ... in L's own coordinates, likewise."""
    return _series(space, lambda t: bracket_spaces(algebra, space, t))


def derived_series(algebra: LieAlgebra) -> SeriesResult:
    return derived_series_of(algebra, algebra.full_space())


def lower_central_series(algebra: LieAlgebra) -> SeriesResult:
    return lower_central_series_of(algebra, algebra.full_space())


def solvability_index(algebra: LieAlgebra) -> Optional[int]:
    """Least n with the n-th derived term zero, None if never reached."""
    series = derived_series(algebra)
    if not series.reaches_zero():
        return None
    return series.stable_index


def nilpotency_index(algebra: LieAlgebra) -> Optional[int]:
    """Least n (1-based, first term = algebra) with n-th lower-central term 0."""
    series = lower_central_series(algebra)
    if not series.reaches_zero():
        return None
    return series.stable_index + 1


def is_solvable(algebra: LieAlgebra) -> bool:
    return solvability_index(algebra) is not None


def is_nilpotent(algebra: LieAlgebra) -> bool:
    return nilpotency_index(algebra) is not None


def stable_derived_term(algebra: LieAlgebra) -> Subspace:
    return derived_series(algebra).stable_term()


def stable_lower_central_term(algebra: LieAlgebra) -> Subspace:
    return lower_central_series(algebra).stable_term()


@lru_cache(maxsize=None)
def killing_form(algebra: LieAlgebra) -> Matrix:
    return trace_gram(ad_of_basis(algebra))


def killing_rank(algebra: LieAlgebra) -> int:
    return rank(killing_form(algebra))


def is_killing_nondegenerate(algebra: LieAlgebra) -> bool:
    return killing_rank(algebra) == algebra.dim


def derivation_algebra(algebra: LieAlgebra) -> Subspace:
    """All derivations, as a subspace of operator space Q^(dim*dim).

    Operators are flattened row-major; the Leibniz rule on every basis pair
    is one block of linear conditions on the unknown matrix.  The rows are
    built from the supports of the tensor: per (a, k), the nonzero
    c[m][a][k] and the nonzero c[a][m][k] over m.  The two tables are kept
    apart, so antisymmetry is not assumed.
    """
    n = algebra.dim
    if n == 0:
        return Subspace.zero(0)
    c = algebra.c
    indices = range(n)
    # left[a][k]: the (m, c[m][a][k]); right[a][k]: the (m, c[a][m][k])
    left = [[[(m, c[m][a][k]) for m in indices if c[m][a][k]] for k in indices]
            for a in indices]
    right = [[[(m, ca[m][k]) for m in indices if ca[m][k]] for k in indices]
             for ca in c]
    rows = []
    for i in indices:
        right_i = right[i]
        for j in range(i + 1, n):
            bracket_support = [(m, x) for m, x in enumerate(c[i][j]) if x]
            left_j = left[j]
            # D([bi,bj]) - [D bi, bj] - [bi, D bj] = 0, one row per output k
            for k in indices:
                # D([bi,bj])_k = sum_m c[i][j][m] * D[k][m]
                row = {k * n + m: x for m, x in bracket_support}
                # [D bi, bj]_k = sum_m D[m][i] * c[m][j][k]
                for m, x in left_j[k]:
                    row[m * n + i] = row.get(m * n + i, Q0) - x
                # [bi, D bj]_k = sum_m D[m][j] * c[i][m][k]
                for m, x in right_i[k]:
                    row[m * n + j] = row.get(m * n + j, Q0) - x
                if row:
                    rows.append(row)
    if not rows:
        return Subspace.full(n * n)
    ker = nullspace_sparse(rows, n * n)
    return Subspace.span(n * n, ker.data)


def _zero_or_full(algebra: LieAlgebra, space: Subspace) -> bool:
    """Whether a subspace of L is 0 or L itself."""
    if space.ambient_dim != algebra.dim:
        raise ValueError("vector length does not match algebra dimension")
    return space.is_zero() or space.is_full()


def is_subalgebra(algebra: LieAlgebra, space: Subspace) -> bool:
    """Whether [S, S] lies in S; 0 and L are answered without bracketing."""
    if _zero_or_full(algebra, space):
        return True
    return space.contains(bracket_spaces(algebra, space, space))


def is_ideal(algebra: LieAlgebra, space: Subspace) -> bool:
    """Whether [L, I] lies in I; 0 and L are answered without bracketing."""
    if _zero_or_full(algebra, space):
        return True
    return space.contains(bracket_spaces(algebra, algebra.full_space(), space))


@lru_cache(maxsize=None)
def outer_derivations(algebra: LieAlgebra) -> tuple:
    """Derivations that span Der(L) modulo ad(L), flattened row-major.

    ad(b_i) lies in Der(L) and has c[i][j][k] at position k*n + j.  Each
    canonical basis row of Der(L) is 1 at its own pivot and 0 at the other
    pivots, so the coordinates of ad(b_i) in that basis are its entries at
    the pivots.  The basis rows at the non-pivot columns of the rref of
    these n coordinate rows complete ad(L) to Der(L); there are
    dim Der(L) - (n - dim Z(L)) of them.

    The memo sits here, not on ``derivation_algebra``: every repeated
    request for Der(L) comes through this function, so a hit skips the
    rref as well.
    """
    ders = derivation_algebra(algebra)
    n = algebra.dim
    coords = Matrix([[ci[p % n][p // n] for p in ders.pivots] for ci in algebra.c],
                    cols=ders.dim)
    inner = set(rref(coords)[1])
    return tuple(v for r, v in enumerate(ders.vectors()) if r not in inner)


def is_characteristic(algebra: LieAlgebra, ideal: Subspace) -> bool:
    """True iff the ideal is invariant under every derivation.

    An ideal is invariant under ad(L), and invariance is linear in the
    derivation, so only ``outer_derivations`` are applied; 0 and L are
    characteristic without computing Der(L).
    """
    if _zero_or_full(algebra, ideal):
        return True
    if not is_ideal(algebra, ideal):
        raise ContractError("is_characteristic requires an ideal")
    n = algebra.dim
    for flat in outer_derivations(algebra):
        op = matrix_from_flat(flat, n, n)
        for v in ideal.vectors():
            if not ideal.contains_vector(op.apply(v)):
                return False
    return True


def _antisymmetric(m: int, upper) -> list:
    """The m x m tensor with c[i][j] = upper(i, j) for i < j, c[j][i] its
    negation and a zero diagonal."""
    zero = (Q0,) * m
    c = [[zero] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            coords = upper(i, j)
            c[i][j] = coords
            c[j][i] = tuple(-x for x in coords)
    return c


def quotient(algebra: LieAlgebra, ideal: Subspace) -> QuotientData:
    """Quotient by an ideal; basis = complement of the ideal's pivot columns.

    Each basis vector is projected once.  The tensor is assumed
    antisymmetric (as in ``restrict_to_subalgebra``): only the pairs i < j
    are projected into ``_antisymmetric``.
    """
    if not is_ideal(algebra, ideal):
        raise ContractError("quotient requires an ideal")
    n = algebra.dim
    pivot_set = set(ideal.pivots)
    free = [j for j in range(n) if j not in pivot_set]
    m = len(free)
    # section: j-th quotient basis vector -> e_{free[j]}
    section = Matrix([[Q1 if free[j] == i else Q0 for j in range(m)] for i in range(n)])

    def project(vec: Sequence) -> tuple:
        v = ideal.reduce(vec)
        return tuple(v[j] for j in free)

    images = [project(algebra.basis_vector(i)) for i in range(n)]
    projection = Matrix([[img[k] for img in images] for k in range(m)]) \
        if m else Matrix.zeros(0, n)
    # [b_free[i], b_free[j]] is read off the tensor
    c = _antisymmetric(m, lambda i, j: project(algebra.c[free[i]][free[j]]))
    labels = [algebra.labels[j] + "~" for j in free]
    return QuotientData(LieAlgebra(m, labels, c), projection, section)


def restrict_to_subalgebra(algebra: LieAlgebra, space: Subspace) -> tuple[LieAlgebra, Matrix]:
    """The algebra structure on a subalgebra, plus its basis (rows) in L.

    Subspaces of the restriction embed back via the returned basis matrix.
    The tensor is assumed antisymmetric (as ``_is_homomorphism`` does):
    only the pairs i < j are bracketed into ``_antisymmetric``.  The full
    space restricts to the algebra itself, since its canonical basis is the
    identity.
    """
    if space.ambient_dim != algebra.dim:
        raise ValueError("vector length does not match algebra dimension")
    basis = space.basis
    m = space.dim
    if m == algebra.dim:
        return algebra, basis

    def coords(i: int, j: int) -> tuple:
        found = space.coords_of(bracket(algebra, basis.row(i), basis.row(j)))
        if found is None:
            raise ContractError("restriction requires a subalgebra")
        return found

    labels = ["s%d" % i for i in range(m)]
    return LieAlgebra(m, labels, _antisymmetric(m, coords)), basis


def embed_subspace(sub_basis: Matrix, space: Subspace) -> Subspace:
    """Map a subspace in restricted coordinates back into the ambient space."""
    return Subspace.span(sub_basis.cols, space.basis.mul(sub_basis).data)


def ideal_closure_series(algebra: LieAlgebra, space: Subspace):
    """Descending ideal-closure series J^0 = L, J^{k+1} = Id_{J^k}(S).

    Returns (terms, depth) where depth is the least n with J^n = S when the
    series reaches S, else None (S is not a subideal).  Id_{J^k}(S) is the
    ad(J^k)-closure of S, read in L's own coordinates; at S it is S itself.
    """
    if not is_subalgebra(algebra, space):
        raise ContractError("subideal test requires a subalgebra")
    series = _series(algebra.full_space(),
                     lambda t: _ad_closure(algebra, space, t.vectors()))
    reached = series.stable_term() == space
    return series.terms, series.stable_index if reached else None


def direct_product(algebras: Sequence[LieAlgebra]) -> LieAlgebra:
    dims = [a.dim for a in algebras]
    n = sum(dims)
    offsets = []
    off = 0
    for d in dims:
        offsets.append(off)
        off += d
    c = [[[Q0] * n for _ in range(n)] for _ in range(n)]
    labels = []
    for t, alg in enumerate(algebras):
        o = offsets[t]
        labels.extend("%s%d" % (lab, t + 1) for lab in alg.labels)
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k, x in enumerate(alg.c[i][j]):
                    c[o + i][o + j][o + k] = x
    return LieAlgebra(n, labels, c)


def _is_homomorphism(source: LieAlgebra, target: LieAlgebra, m: Matrix) -> bool:
    """Whether m c[i][j] = [m b_i, m b_j] on every basis pair i < j of the
    source; antisymmetry of both sides covers the other pairs."""
    images = [m.column(i) for i in range(source.dim)]
    return all(m.apply(source.c[i][j]) == bracket(target, images[i], images[j])
               for i in range(source.dim) for j in range(i + 1, source.dim))


def semidirect_product(l1: LieAlgebra, l0: LieAlgebra,
                       phi: Sequence[Matrix]) -> LieAlgebra:
    """Semidirect product along an action of l1 on l0 by derivations.

    phi lists one operator per basis element of l1, and [x, v] = phi(x) v
    for x in l1 and v in l0.  The product is refused unless ``validate``
    passes it, which checks both laws of the action.  Proof.  The tensor is
    antisymmetric across the factors by construction.  On x, y in l1 and v
    in l0 the Jacobi sum is (phi(x)phi(y) - phi(y)phi(x) - phi([x, y]))v, and
    on x in l1 and u, v in l0 it is phi(x)[u, v] - [phi(x)u, v] - [u, phi(x)v];
    the other triples lie in l1 or in l0.  So for Lie algebras l1 and l0 the
    product is a Lie algebra iff phi is a homomorphism into Der(l0).  The
    message follows the first violation (i, j, k), or else the first
    antisymmetry pair (i, j): derivation when j >= dim l1, since then two
    entries lie in l0, else homomorphism.
    """
    if len(phi) != l1.dim:
        raise ContractError("action must list one operator per acting basis element")
    for op in phi:
        if op.rows != l0.dim or op.cols != l0.dim:
            raise ContractError("action operator has wrong shape")
    n1, n0 = l1.dim, l0.dim
    n = n1 + n0
    # the direct product's tensor, plus the brackets [l1, l0] of the action
    c = [[list(cij) for cij in row] for row in direct_product([l1, l0]).c]
    for i in range(n1):
        for j in range(n0):
            col = phi[i].column(j)
            for k, x in enumerate(col):
                c[i][n1 + j][n1 + k] = x
                c[n1 + j][i][n1 + k] = -x
    product = LieAlgebra(n, list(l1.labels) + list(l0.labels), c)
    report = validate(product)
    if not report.ok:
        first = (report.jacobi_violations + report.antisymmetry_violations)[0]
        if first[1] >= n1:
            raise ContractError("action operator is not a derivation of the base")
        raise ContractError("action is not a Lie homomorphism")
    return product


def abelian(n: int, prefix: str = "a") -> LieAlgebra:
    c = [[[Q0] * n for _ in range(n)] for _ in range(n)]
    return LieAlgebra(n, ["%s%d" % (prefix, i + 1) for i in range(n)], c)


def change_basis(algebra: LieAlgebra, t: Matrix) -> LieAlgebra:
    """Isomorphic copy in the basis f_i = sum_j t[j][i] e_j (t invertible).

    The tensor must be antisymmetric, and a tensor that is not is refused:
    only the pairs i < j are bracketed into ``_antisymmetric``, which is
    exact then, since [f_j, f_i] = -[f_i, f_j] and [f_i, f_i] = 0.
    """
    n = algebra.dim
    if t.rows != n or t.cols != n:
        raise ContractError("basis-change matrix has wrong shape")
    anti = next(((i, j) for i in range(n) for j in range(i, n)
                 if any(a != -b for a, b in zip(algebra.c[i][j], algebra.c[j][i]))),
                None)
    if anti is not None:
        raise ContractError("basis change requires an antisymmetric tensor: "
                            "c[i][j] != -c[j][i] at %s" % (anti,))
    try:
        t_inv = inverse(t)
    except ValueError:
        raise ContractError("basis-change matrix is not invertible") from None
    cols = [t.column(i) for i in range(n)]
    c = _antisymmetric(n, lambda i, j: t_inv.apply(bracket(algebra, cols[i], cols[j])))
    return LieAlgebra(n, ["f%d" % (k + 1) for k in range(n)], c)


def operator_semidirect(operators: Sequence[Matrix],
                        labels: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Semidirect product (span of the operators) |x Q^k per [.,.] = ay - bx.

    The operator list is closed under commutators first if needed.  The
    span is eliminated once; each commutator of a pair i < j is read off
    its canonical basis (``coords_of``) into ``_antisymmetric``.
    """
    if not operators:
        raise ContractError("operator list must be non-empty")
    k = operators[0].rows
    for op in operators:
        if op.rows != k or op.cols != k:
            raise ContractError("operators must be square of equal size")
    # the Lie closure: right-normed commutators of the operators span it
    closed = closure(k * k, operators,
                     [lambda x, g=g: g.mul(x).sub(x.mul(g)) for g in operators],
                     Matrix.flatten)
    span = Subspace.span(k * k, [m.flatten() for m in closed])
    # the given operators are kept when they already form a basis of it;
    # `back` then maps canonical coordinates to theirs: its inverse has
    # operator r's canonical coordinates in column r
    if closed == list(operators):
        mats = list(operators)
        back = inverse(Matrix([span.coords_of(op.flatten()) for op in mats]).transpose())
    else:
        mats = [matrix_from_flat(v, k, k) for v in span.vectors()]
        back = None
    m = len(mats)

    def coords(i: int, j: int) -> tuple:
        comm = mats[i].mul(mats[j]).sub(mats[j].mul(mats[i]))
        found = span.coords_of(comm.flatten())
        if found is None:
            raise ContractError("commutator escaped the operator span")
        return found if back is None else back.apply(found)

    if labels is None:
        labels = ["m%d" % (i + 1) for i in range(m)]
    l1 = LieAlgebra(m, labels, _antisymmetric(m, coords))
    l0 = abelian(k, prefix="v")
    return semidirect_product(l1, l0, mats)
