"""The analyses are coordinate-free: results transport along isomorphisms.

These sweeps rewrite corpus fixtures in random unimodular bases, which
forces the splitting solvers (Levi lifting, abelian-ideal complements,
equivariant projections) onto genuinely non-axis-aligned inputs, and in
dense rational bases, where no structure of the corpus basis is left for
the cost to depend on.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lierad.acceptance import random_semidirect_products
from lierad.corpus import corpus, corpus_expr, suite_corpus
from lierad.frattini import (
    classify_subsimple,
    frattini_ideal,
    frattini_index,
    index_class,
    is_frattini_free,
    jacobson_ideal,
    jacobson_index,
    subdirect_components,
    assemble_subdirect_embedding,
    verify_subdirect,
)
from lierad.liealg import ContractError, LieAlgebra, bracket, change_basis, validate
from lierad.linalg import Matrix, Subspace, inverse, qq, rref
from lierad.radicals import REGISTRY, levi_subalgebra, nilradical, solvable_radical

SEED = 20260810


def unimodular(rng: random.Random, n: int) -> Matrix:
    rows = [[qq(1) if i == j else qq(0) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = qq(rng.randint(-2, 2))
        for t in range(n):
            rows[j][t] += c * rows[i][t]
    return Matrix(rows)


def dense_rational(rng: random.Random, n: int) -> Matrix:
    """Unit lower times unit upper triangular, every entry off the diagonal
    p/q with |p| <= 5 and q <= 4: determinant 1, dense Fraction entries."""
    def factor(keep):
        return Matrix([[1 if i == j else
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if keep(i, j)
                        else 0 for j in range(n)] for i in range(n)])
    return factor(lambda i, j: j < i).mul(factor(lambda i, j: j > i))


def transport(space: Subspace, t: Matrix) -> Subspace:
    """Old-coordinate image of a subspace given in the new basis."""
    return Subspace.span(t.rows, [t.apply(v) for v in space.vectors()])


def test_invariants_transport_under_isomorphism():
    rng = random.Random(SEED)
    for expr in ("heis3", "aff1", "ut(2)", "sl2", "sl2_v2", "d1_v2",
                 "direct(sl2,heis3)"):
        original = corpus_expr(expr)
        t = unimodular(rng, original.dim)
        twisted = change_basis(original, t)
        assert validate(twisted).ok, expr
        assert transport(solvable_radical(twisted), t) == \
            solvable_radical(original), expr
        assert transport(nilradical(twisted), t) == nilradical(original), expr
        assert transport(jacobson_ideal(twisted), t) == \
            jacobson_ideal(original), expr
        assert jacobson_index(twisted) == jacobson_index(original), expr
        est_o, est_t = frattini_ideal(original), frattini_ideal(twisted)
        assert est_o.exact == est_t.exact, expr
        assert transport(est_t.lower, t) == est_o.lower, expr
        assert transport(est_t.upper, t) == est_o.upper, expr
        assert frattini_index(twisted) == frattini_index(original), expr
        assert index_class(twisted)[0] == index_class(original)[0], expr
        assert classify_subsimple(twisted).tag == \
            classify_subsimple(original).tag, expr


def test_every_preradical_transports_along_a_dense_rational_basis_change():
    rng = random.Random(SEED + 3)
    for expr in ("ut(4)", "ut(5)", "direct(sl2,heis3)"):
        original = corpus_expr(expr)
        t = dense_rational(rng, original.dim)
        twisted = change_basis(original, t)
        assert any(type(x) is Fraction for row in twisted.c for vec in row
                   for x in vec), expr
        for key, spec in REGISTRY.items():
            assert transport(spec.evaluate(twisted), t) == \
                spec.evaluate(original), (expr, key)


def test_levi_and_frattini_free_survive_basis_mixing():
    rng = random.Random(SEED + 1)
    for expr in ("sl2_v2", "d1_v2", "ut(2)", "direct(sl2,abelian(2))"):
        original = corpus_expr(expr)
        t = unimodular(rng, original.dim)
        twisted = change_basis(original, t)
        levi = levi_subalgebra(twisted)
        assert levi.levi.dim == levi_subalgebra(original).levi.dim, expr
        res = is_frattini_free(twisted)
        assert res.free, expr
        comps = subdirect_components(twisted)
        algebras, embedding = assemble_subdirect_embedding(comps)
        assert verify_subdirect(algebras, embedding, twisted), expr


def test_change_basis_is_invertible():
    rng = random.Random(SEED + 2)
    h = corpus("heis3")
    t = unimodular(rng, 3)
    red, pivots = rref(t)
    assert pivots == (0, 1, 2)
    back = change_basis(change_basis(h, t), inverse(t))
    assert back.c == h.c


def change_basis_reference(algebra: LieAlgebra, t: Matrix) -> LieAlgebra:
    """The basis change that brackets every ordered pair, diagonal included."""
    n = algebra.dim
    t_inv = inverse(t)
    cols = [t.column(i) for i in range(n)]
    c = [[t_inv.apply(bracket(algebra, cols[i], cols[j])) for j in range(n)]
         for i in range(n)]
    return LieAlgebra(n, ["f%d" % (k + 1) for k in range(n)], c)


def test_change_basis_matches_the_full_pair_fill():
    rng = random.Random(SEED + 25)
    algebras = [alg for _, alg in suite_corpus()]
    algebras += [alg for _, alg in random_semidirect_products(25, SEED)]
    algebras += [corpus("ut", 4), corpus("ut", 5), corpus_expr("direct(sl2,heis3)")]
    # [x, y] = z and [x, z] = x: antisymmetric, but Jacobi fails, which
    # change_basis does not check
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1], c[1][0] = [0, 0, 1], [0, 0, -1]
    c[0][2], c[2][0] = [1, 0, 0], [-1, 0, 0]
    algebras.append(LieAlgebra(3, ["x", "y", "z"], c))
    assert not validate(algebras[-1]).ok
    for alg in algebras:
        t = dense_rational(rng, alg.dim)
        changed, expected = change_basis(alg, t), change_basis_reference(alg, t)
        assert (changed.c, changed.labels) == (expected.c, expected.labels)


def test_change_basis_refuses_a_tensor_that_is_not_antisymmetric():
    # [x, y] = x with [y, x] = 0, and [x, x] = y with all else zero
    lopsided = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    diagonal = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    for c, pair in ((lopsided, (0, 1)), (diagonal, (0, 0))):
        alg = LieAlgebra(2, ["x", "y"], c)
        assert validate(alg).antisymmetry_violations == (pair,)
        with pytest.raises(ContractError, match=r"antisymmetric tensor: .* at \(%d, %d\)"
                           % pair):
            change_basis(alg, Matrix([[1, 1], [0, 1]]))
