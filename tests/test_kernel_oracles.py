"""The exact kernel against outside oracles: sympy and Hypothesis.

sympy recomputes rref, kernels, solutions, determinants, inverses and the
ranks behind ``SpanBuilder`` on seeded random matrices with small, huge and
non-integral entries, and the derivation algebra from the dense Leibniz
system; Hypothesis checks that ``qq`` and ``div`` land in the scalar domain,
that ``rref`` sees only the row space and that ``nullspace_sparse`` does
not depend on the order of its rows.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from lierad.acceptance import random_semidirect_products  # noqa: E402
from lierad.corpus import corpus  # noqa: E402
from lierad.liealg import derivation_algebra  # noqa: E402
from lierad.linalg import (  # noqa: E402
    Matrix,
    SpanBuilder,
    Subspace,
    determinant,
    div,
    inverse,
    nullspace_matrix,
    nullspace_sparse,
    qq,
    rref,
    solve,
)

SEED = 20260810


def random_entry(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((-1, 1)) * rng.randrange(10 ** 18)
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randint(-3, 3)


def random_rows(rng: random.Random, rows: int, cols: int) -> list:
    return [[random_entry(rng) for _ in range(cols)] for _ in range(rows)]


def low_rank_rows(rng: random.Random, rows: int, cols: int) -> list:
    """Rows that are combinations of fewer generators, so kernels are big."""
    gens = random_rows(rng, rng.randint(1, max(1, min(rows, cols) - 1)), cols)
    out = []
    for _ in range(rows):
        coeffs = [random_entry(rng) for _ in gens]
        out.append([sum((Fraction(c) * Fraction(g[j]) for c, g in zip(coeffs, gens)),
                        Fraction(0)) for j in range(cols)])
    return out


def cases(offset: int, count: int = 25):
    rng = random.Random(SEED + offset)
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        make = random_rows if rng.random() < 0.5 else low_rank_rows
        yield rng, make(rng, rows, cols)


def to_sympy(rows: list):
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                          for x in row] for row in rows])


def from_sympy(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def test_rref_matches_sympy():
    for _, rows in cases(10):
        red, pivots = rref(Matrix(rows))
        ref, ref_pivots = to_sympy(rows).rref()
        assert pivots == tuple(ref_pivots)
        expected = [[from_sympy(ref[i, j]) for j in range(ref.cols)]
                    for i in range(len(ref_pivots))]
        assert red == Matrix(expected, cols=len(rows[0]))


def test_nullspaces_match_sympy():
    for _, rows in cases(11):
        cols = len(rows[0])
        ref = Subspace.span(cols, [[from_sympy(x) for x in v]
                                   for v in to_sympy(rows).nullspace()])
        assert Subspace.span(cols, nullspace_matrix(Matrix(rows)).data) == ref
        sparse = nullspace_sparse([{j: v for j, v in enumerate(row) if v}
                                   for row in rows], cols)
        assert Subspace.span(cols, sparse.data) == ref


def test_solve_matches_sympy():
    for rng, rows in cases(12):
        a = Matrix(rows)
        if rng.random() < 0.5:
            # a consistent right-hand side
            x = [random_entry(rng) for _ in range(a.cols)]
            b = list(a.apply(x))
        else:
            b = [random_entry(rng) for _ in range(a.rows)]
        ours = solve(a, b)
        try:
            sol, params = to_sympy(rows).gauss_jordan_solve(to_sympy([[x] for x in b]))
        except ValueError:
            assert ours is None
            continue
        sol = sol.subs({p: 0 for p in params})
        assert ours == tuple(from_sympy(sol[i, 0]) for i in range(a.cols))


def test_determinant_and_inverse_match_sympy():
    rng = random.Random(SEED + 13)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = random_rows(rng, n, n) if rng.random() < 0.7 else low_rank_rows(rng, n, n)
        ref = to_sympy(rows)
        det = determinant(Matrix(rows))
        assert det == from_sympy(ref.det())
        if det == 0:
            with pytest.raises(ValueError):
                inverse(Matrix(rows))
        else:
            inv = ref.inv()
            assert inverse(Matrix(rows)) == Matrix(
                [[from_sympy(inv[i, j]) for j in range(n)] for i in range(n)])


def entry_of_kind(rng: random.Random, kind: str):
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "18-digit":
        return rng.choice((-1, 1, 0)) * rng.randrange(10 ** 17, 10 ** 18)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def test_span_builder_matches_span_and_sympy_rank():
    rng = random.Random(SEED + 14)
    for kind in ("int", "18-digit", "fraction"):
        for _ in range(12):
            cols = rng.randint(1, 6)
            gens = [[entry_of_kind(rng, kind) for _ in range(cols)]
                    for _ in range(rng.randint(1, cols))]
            vectors = []
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.5:
                    # a combination of the generators, often already spanned
                    coeffs = [entry_of_kind(rng, kind) for _ in gens]
                    vectors.append([sum((Fraction(c) * Fraction(g[j])
                                         for c, g in zip(coeffs, gens)), Fraction(0))
                                    for j in range(cols)])
                else:
                    vectors.append([entry_of_kind(rng, kind) for _ in range(cols)])
            builder = SpanBuilder(cols)
            seen = []
            for vec in vectors:
                before = to_sympy(seen).rank() if seen else 0
                assert builder.contains(vec) == (
                    to_sympy(seen + [vec]).rank() == before)
                grew = builder.add(vec)
                seen.append(vec)
                after = to_sympy(seen).rank()
                assert grew == (after > before)
                assert builder.dim == after
                assert builder.subspace() == Subspace.span(cols, seen)
            probe = [entry_of_kind(rng, kind) for _ in range(cols)]
            assert builder.contains(probe) == \
                Subspace.span(cols, seen).contains_vector(probe)


rationals = st.one_of(
    st.integers(),
    st.fractions(),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6)),
)


@given(rationals)
def test_qq_lands_in_the_scalar_domain(value):
    got = qq(value)
    assert got == value
    assert type(got) in (int, Fraction)
    assert (type(got) is int) == (Fraction(value).denominator == 1)


@given(st.integers(), st.integers(min_value=1))
def test_qq_reads_fraction_strings(p, q):
    got = qq("%d/%d" % (p, q))
    assert got == Fraction(p, q)
    assert (type(got) is int) == (p % q == 0)


@given(rationals, rationals)
def test_div_lands_in_the_scalar_domain(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            div(a, b)
        return
    got = div(a, b)
    assert got == Fraction(a) / Fraction(b)
    assert type(got) in (int, Fraction)
    assert (type(got) is int) == ((Fraction(a) / Fraction(b)).denominator == 1)


small_rationals = st.one_of(
    st.integers(-4, 4),
    st.fractions(-4, 4, max_denominator=6),
    st.integers(-10 ** 18, 10 ** 18),
)
nonzero_rationals = small_rationals.filter(bool)


def is_normal(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@given(st.data())
def test_rref_sees_only_the_row_space(data):
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(small_rationals, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    scales = data.draw(st.lists(nonzero_rationals, min_size=nrows, max_size=nrows))
    order = data.draw(st.permutations(range(nrows)))
    red, pivots = rref(Matrix(rows))
    moved = [[Fraction(c) * Fraction(x) for x in rows[i]] for i, c in zip(order, scales)]
    assert rref(Matrix(moved)) == (red, pivots)
    assert all(is_normal(x) for row in red.data for x in row)
    assert all(red.entry(r, p) == 1 for r, p in enumerate(pivots))


@given(st.data())
def test_nullspace_sparse_ignores_row_order(data):
    nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    entries = st.one_of(st.just(0), small_rationals)
    rows = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    order = data.draw(st.permutations(range(nrows)))
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    kernel = nullspace_sparse(sparse, ncols)
    assert nullspace_sparse([sparse[i] for i in order], ncols) == kernel
    assert kernel == nullspace_matrix(Matrix(rows))


def sympy_derivations(alg):
    """Der(L) as the sympy nullspace of the dense Leibniz matrix.

    Unknown D[a][b] is column a*n + b; every ordered basis pair (i, j) and
    output k gives the row of D([bi,bj])_k - [D bi, bj]_k - [bi, D bj]_k.
    """
    n = alg.dim
    c = [[[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
           for x in cij] for cij in ci] for ci in alg.c]
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [sympy.Integer(0)] * (n * n)
                for m in range(n):
                    row[k * n + m] += c[i][j][m]
                    row[m * n + i] -= c[m][j][k]
                    row[m * n + j] -= c[i][m][k]
                rows.append(row)
    kernel = sympy.Matrix(rows).nullspace()
    return Subspace.span(n * n, [[from_sympy(x) for x in v] for v in kernel])


def test_derivation_algebra_matches_sympy():
    algebras = [corpus("sl2"), corpus("heis3"), corpus("ut", 3)]
    products = dict(random_semidirect_products(12, SEED))
    algebras += [products[name] for name in
                 ("line-on-random#1", "sl2-natural#10", "heis3-natural#11")]
    for alg in algebras:
        assert derivation_algebra(alg) == sympy_derivations(alg), alg
