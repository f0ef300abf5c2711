"""Canonical forms, subspaces and the dimension identities behind them."""

from __future__ import annotations

import random

import pytest

from lierad.linalg import (
    Matrix,
    SpanBuilder,
    Subspace,
    complement_codim,
    matrix_from_flat,
    nullspace_matrix,
    nullspace_sparse,
    qq,
    rank,
    rref,
    solve,
    span_intersect,
    span_sum,
)

SEED = 20260810


def span(n, *vectors):
    return Subspace.span(n, [[qq(x) for x in v] for v in vectors])


def random_subspace(rng, ambient, max_vectors):
    count = rng.randrange(max_vectors + 1)
    return Subspace.span(
        ambient,
        [[qq(rng.randint(-3, 3)) for _ in range(ambient)] for _ in range(count)])


def test_rref_identity():
    red, pivots = rref(Matrix.identity(2))
    assert red == Matrix.identity(2)
    assert pivots == (0, 1)


def test_rref_rank_one():
    red, pivots = rref(Matrix([[2, 4], [1, 2]]))
    assert red == Matrix([[1, 2]])
    assert pivots == (0,)


def test_rref_zero():
    red, pivots = rref(Matrix.zeros(3, 3))
    assert red.rows == 0 and red.cols == 3
    assert pivots == ()


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(SEED)
    for _ in range(50):
        m = Matrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)])
        red, _ = rref(m)
        again, _ = rref(red)
        assert again == red


def test_nullspace_identity_and_zero():
    assert nullspace_matrix(Matrix.identity(3)).rows == 0
    full = nullspace_matrix(Matrix.zeros(2, 2))
    assert Subspace.span(2, full.data) == Subspace.full(2)


def test_nullspace_single_equation():
    ker = nullspace_matrix(Matrix([[1, 1]]))
    assert Subspace.span(2, ker.data) == span(2, (1, -1))


def test_rank_nullity_random():
    rng = random.Random(SEED + 1)
    for _ in range(40):
        m = Matrix([[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)])
        assert rank(m) + nullspace_matrix(m).rows == m.cols


def test_span_sum_intersect_coordinate_lines():
    u = span(3, (1, 0, 0))
    v = span(3, (0, 1, 0))
    assert span_sum(u, v) == span(3, (1, 0, 0), (0, 1, 0))
    assert span_intersect(u, v).is_zero()


def test_span_intersect_worked_instance():
    u = span(3, (1, 0, 0), (0, 1, 0))
    v = span(3, (0, 1, 1))
    assert span_intersect(u, v).is_zero()
    assert span_sum(u, v) == Subspace.full(3)


def test_span_idempotence():
    u = span(3, (1, 2, 3), (0, 1, 1))
    assert span_sum(u, u) == u
    assert span_intersect(u, u) == u


def test_dimension_identity_on_random_triples():
    # dim(U+V) + dim(U cap V) = dim U + dim V on 200 seeded triples in Q^6
    rng = random.Random(SEED)
    for _ in range(200):
        triple = [random_subspace(rng, 6, 6) for _ in range(3)]
        for i in range(3):
            u, v = triple[i], triple[(i + 1) % 3]
            total = span_sum(u, v).dim + span_intersect(u, v).dim
            assert total == u.dim + v.dim


def test_complement_codim_examples():
    comp, codim = complement_codim(Subspace.full(2), span(2, (1, 0)))
    assert codim == 1 and comp.rows == 1
    z = span(3, (0, 1, 1))
    y = span(3, (1, 0, 0), (0, 1, 0))
    comp, codim = complement_codim(z, y)
    assert codim == 1
    assert span_sum(y, z).dim - y.dim == 1
    inside = span(3, (1, 0, 0))
    comp, codim = complement_codim(inside, y)
    assert codim == 0 and comp.rows == 0


def test_closed_sum_identity_on_random_pairs():
    # dim(Z/(Y cap Z)) = dim((Y+Z)/Y), with Y of codimension <= 3 in Q^6
    rng = random.Random(SEED + 2)
    for _ in range(200):
        y = random_subspace(rng, 6, 6)
        while 6 - y.dim > 3:
            y = span_sum(y, random_subspace(rng, 6, 2))
        z = random_subspace(rng, 6, 6)
        _, codim = complement_codim(z, y)
        assert codim == span_sum(y, z).dim - y.dim


def test_subspace_contains_and_coords():
    u = span(3, (1, 0, 1), (0, 1, 0))
    assert u.contains_vector((1, 1, 1))
    assert not u.contains_vector((1, 0, 0))
    coords = u.coords_of((1, 1, 1))
    assert coords == (qq(1), qq(1), qq(0))[:2]
    assert u.coords_of((1, 0, 0)) is None
    with pytest.raises(ValueError):
        u.coords_of((1, 1))
    with pytest.raises(ValueError):
        u.contains_vector((1, 1, 1, 0))


def test_coords_of_matches_solving_the_transposed_system():
    rng = random.Random(SEED + 5)
    for _ in range(60):
        ambient = rng.randint(1, 6)
        u = random_subspace(rng, ambient, ambient)
        inside = [qq(0)] * ambient
        for row in u.vectors():
            c = rng.randint(-3, 3)
            inside = [a + c * b for a, b in zip(inside, row)]
        outside = [qq(rng.randint(-3, 3)) for _ in range(ambient)]
        for v in (inside, outside):
            assert u.coords_of(v) == solve(map(dict, u.basis.transpose().support),
                                           v, u.dim)
        assert u.reduce(inside) == (qq(0),) * ambient


def test_solve_particular_and_inconsistent():
    a = [{0: 1, 1: 1}, {}]
    assert solve(a, (2, 0), 2) == (qq(2), qq(0))
    assert solve(a, (0, 1), 2) is None


def test_sparse_nullspace_matches_dense():
    rng = random.Random(SEED + 3)
    for _ in range(30):
        rows = [[rng.randint(-2, 2) for _ in range(7)] for _ in range(5)]
        dense = nullspace_matrix(Matrix(rows))
        sparse = nullspace_sparse(
            [{j: v for j, v in enumerate(row) if v != 0} for row in rows], 7)
        assert Subspace.span(7, dense.data) == Subspace.span(7, sparse.data)


def test_empty_matrix_keeps_shape():
    m = Matrix.zeros(0, 4)
    assert m.cols == 4
    assert m.transpose().rows == 4 and m.transpose().cols == 0
    assert matrix_from_flat((), 0, 3).cols == 3


def test_span_builder_rejects_vectors_of_the_wrong_length():
    builder = SpanBuilder(3)
    with pytest.raises(ValueError):
        builder.add((1, 0))
    assert builder.add((0, 2, 4))
    with pytest.raises(ValueError):
        builder.contains((1, 0, 5, 7))
    with pytest.raises(ValueError):
        builder.add((0, 1, 2, 0))
    assert builder.dim == 1
    assert builder.subspace() == span(3, (0, 1, 2))
