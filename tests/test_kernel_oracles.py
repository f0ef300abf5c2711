"""The exact kernel against outside oracles: sympy and Hypothesis.

sympy recomputes rref, kernels, solutions, determinants, inverses and the
ranks behind ``SpanBuilder`` on seeded random matrices with small, huge and
non-integral entries, the derivation algebra from the dense Leibniz
system, the Killing form from traces of ad products, factorizations, and
the defining properties of minimal polynomials; Hypothesis checks that
``qq`` and ``div`` land in the scalar domain, that ``rref`` sees only the
row space, that ``nullspace_sparse`` does not depend on the order of its
rows and that many-argument ``span_sum`` and ``span_intersect`` equal the
pairwise fold.  The structure-constant kernels that read only the tensor's
nonzeros (``bracket``, ``ad_matrix``, ``centralizer``, ``validate``) and
``Subspace.reduce`` are compared, on Hypothesis tensors that need not be
antisymmetric or satisfy Jacobi, with dense references written out here
and, for the centralizer, with sympy.  Every span that ``linalg.closure``
grows (spins, matrix powers, generated ideals and subalgebras, the
ideal-closure series and the Lie closure of ``operator_semidirect``) is
compared with the hand-written loop it replaced, kept here as a reference.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lierad.acceptance import random_semidirect_products  # noqa: E402
from lierad.corpus import corpus, corpus_expr  # noqa: E402
from lierad.liealg import (  # noqa: E402
    LieAlgebra,
    ad_matrix,
    bracket,
    bracket_spaces,
    centralizer,
    derivation_algebra,
    embed_subspace,
    ideal_closure,
    ideal_closure_series,
    killing_form,
    operator_semidirect,
    restrict_to_subalgebra,
    subalgebra_closure,
    validate,
)
from lierad.linalg import (  # noqa: E402
    Matrix,
    SpanBuilder,
    Subspace,
    closure,
    determinant,
    div,
    inverse,
    matrix_from_flat,
    nullspace_matrix,
    nullspace_sparse,
    qq,
    rref,
    solve,
    span_intersect,
    span_sum,
)
from lierad.modules import Action, matrix_powers, minimal_polynomial, spin  # noqa: E402
from lierad.polys import factor_rational_poly  # noqa: E402

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


def sym(x):
    return sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)


def to_sympy(rows: list):
    return sympy.Matrix([[sym(x) for x in row] for row in rows])


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


def subspaces(n: int):
    """Subspaces of Q^n spanned by up to n + 1 small vectors, so that sums
    and intersections of a few of them are neither always zero nor full."""
    entry = st.one_of(st.integers(-2, 2),
                      st.sampled_from((Fraction(1, 2), Fraction(-2, 3))))
    vector = st.lists(entry, min_size=n, max_size=n)
    return st.lists(vector, max_size=n + 1).map(lambda rows: Subspace.span(n, rows))


@given(st.data())
def test_many_argument_sum_and_intersection_equal_the_pairwise_fold(data):
    n = data.draw(st.integers(1, 6))
    spaces = data.draw(st.lists(subspaces(n), min_size=1, max_size=5))
    assert span_sum(*spaces) == reduce(span_sum, spaces)
    assert span_intersect(*spaces) == reduce(span_intersect, spaces)
    stray = data.draw(subspaces(n + 1))
    at = data.draw(st.integers(0, len(spaces)))
    mixed = spaces[:at] + [stray] + spaces[at:]
    with pytest.raises(ValueError):
        span_sum(*mixed)
    with pytest.raises(ValueError):
        span_intersect(*mixed)


def sympy_derivations(alg):
    """Der(L) as the sympy nullspace of the dense Leibniz matrix.

    Unknown D[a][b] is column a*n + b; every ordered basis pair (i, j) and
    output k gives the row of D([bi,bj])_k - [D bi, bj]_k - [bi, D bj]_k.
    """
    n = alg.dim
    c = [[[sym(x) for x in cij] for cij in ci] for ci in alg.c]
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


def sympy_ads(alg):
    """ad(b_i) as sympy matrices: c[i][j][k] in row k, column j."""
    n = alg.dim
    return [sympy.Matrix(n, n, lambda k, j: sym(alg.c[i][j][k])) for i in range(n)]


def test_killing_form_matches_sympy():
    algebras = [corpus("sl2"), corpus("heis3"), corpus("ut", 3), corpus("sl2sl2")]
    algebras += [alg for _, alg in random_semidirect_products(12, SEED)]
    for alg in algebras:
        ads = sympy_ads(alg)
        expected = [[from_sympy((a * b).trace()) for b in ads] for a in ads]
        assert killing_form(alg) == Matrix(expected, cols=alg.dim), alg


x = sympy.Symbol("x")


def to_sympy_poly(coeffs):
    """A constant-first coefficient list as a sympy polynomial in x."""
    return sympy.Poly([sym(c) for c in reversed(coeffs)], x)


def monic_coeffs(poly) -> list:
    """Constant-first coefficients of the monic associate of a sympy Poly."""
    lead = poly.LC()
    return [from_sympy(c / lead) for c in reversed(poly.all_coeffs())]


def random_irreducible(rng: random.Random):
    while True:
        degree = rng.choice((1, 1, 2, 2, 3))
        coeffs = [rng.randint(-4, 4) for _ in range(degree)] + [rng.randint(1, 3)]
        poly = to_sympy_poly(coeffs)
        if poly.is_irreducible:
            return poly


def test_factor_rational_poly_matches_sympy():
    rng = random.Random(SEED + 15)
    for _ in range(40):
        # a total degree of at most 6 keeps the Kronecker search small
        parts = [random_irreducible(rng) for _ in range(rng.randint(1, 4))]
        if sum(p.degree() for p in parts) > 6:
            continue
        lead = sympy.Rational(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        product = lead * sympy.prod(parts)
        coeffs = [from_sympy(c) for c in reversed(product.all_coeffs())]
        got_lead, got = factor_rational_poly(coeffs)
        _, ref = sympy.factor_list(product.as_expr(), x)
        expected = sorted(monic_coeffs(sympy.Poly(f, x)) for f, mult in ref
                          for _ in range(mult))
        assert got_lead == from_sympy(product.LC())
        assert sorted(got) == expected, product


def random_square(rng: random.Random, n: int):
    """Random rows, or a conjugated block matrix with repeated eigenvalues."""
    if rng.random() < 0.5:
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    a = sympy.zeros(n, n)
    value = rng.randint(-2, 2)
    for i in range(n):
        a[i, i] = value if rng.random() < 0.6 else rng.randint(-2, 2)
        if i + 1 < n and rng.random() < 0.5:
            a[i, i + 1] = 1
    while True:
        t = sympy.Matrix(n, n, lambda i, j: rng.randint(-2, 2))
        if t.det() != 0:
            break
    return (t * a * t.inv()).tolist()


def poly_at(coeffs, m):
    """A constant-first sympy coefficient list evaluated at a sympy matrix."""
    acc = sympy.zeros(m.rows, m.cols)
    for c in reversed(coeffs):
        acc = acc * m + c * sympy.eye(m.rows)
    return acc


def test_minimal_polynomial_matches_its_definition():
    rng = random.Random(SEED + 16)
    for _ in range(30):
        rows = random_square(rng, rng.randint(1, 4))
        m = to_sympy(rows)
        got = minimal_polynomial(Matrix(rows))
        assert got[-1] == 1
        poly = to_sympy_poly(got)
        # it annihilates M
        assert poly_at([sym(c) for c in got], m).is_zero_matrix, rows
        # it divides the characteristic polynomial, with the same factors
        charpoly = m.charpoly(x).as_expr()
        assert sympy.rem(charpoly, poly.as_expr(), x) == 0, rows
        factors = [f for f, _ in sympy.factor_list(poly.as_expr(), x)[1]]
        assert {sympy.Poly(f, x).monic() for f in factors} == {
            sympy.Poly(f, x).monic()
            for f, _ in sympy.factor_list(charpoly, x)[1]}, rows
        # no proper divisor annihilates M: it suffices to drop one
        # irreducible factor at a time
        for f in factors:
            smaller = sympy.Poly(sympy.quo(poly.as_expr(), f, x), x)
            assert not poly_at(list(reversed(smaller.all_coeffs())), m).is_zero_matrix, rows


# Dense references for the structure-constant kernels: every entry of every
# c[i][j] is visited, as the kernels did before they read the support.

def dense_bracket(alg, u, v) -> tuple:
    n = alg.dim
    out = [0] * n
    for i, a in enumerate(u):
        if not a:
            continue
        ci = alg.c[i]
        for j, b in enumerate(v):
            if not b:
                continue
            ab = a * b
            for k, x in enumerate(ci[j]):
                if x:
                    out[k] += ab * x
    return tuple(out)


def dense_violations(alg) -> tuple:
    n = alg.dim
    c = alg.c
    anti = []
    for i in range(n):
        for j in range(i, n):
            if any(a != -b for a, b in zip(c[i][j], c[j][i])):
                anti.append((i, j))
    jac = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [0] * n
                for (a, b, d) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, coeff in enumerate(c[b][d]):
                        if coeff != 0:
                            outer = c[a][m]
                            for t in range(n):
                                if outer[t] != 0:
                                    total[t] += coeff * outer[t]
                if any(x != 0 for x in total):
                    jac.append((i, j, k))
    return tuple(anti), tuple(jac)


def dense_reduce(space, vec) -> tuple:
    v = [qq(x) for x in vec]
    for brow, p in zip(space.basis.data, space.pivots):
        c = v[p]
        if c:
            for j, b in enumerate(brow):
                if b:
                    v[j] -= c * b
    return tuple(v)


def sparse_vector(rng, n: int, density: float) -> list:
    return [random_entry(rng) if rng.random() < density else 0 for _ in range(n)]


densities = st.sampled_from((0.0, 0.15, 0.4, 1.0))


@st.composite
def tensors(draw):
    """Algebras of dimension 0-6 with ``random_entry`` coordinates at a drawn
    density; antisymmetric on request, Jacobi only by chance."""
    n = draw(st.integers(0, 6))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(densities)
    c = [[sparse_vector(rng, n, density) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            c[i][i] = [0] * n
            for j in range(i):
                c[i][j] = [-x for x in c[j][i]]
    return LieAlgebra(n, ["x%d" % i for i in range(n)], c)


LIE_ALGEBRAS = [corpus("sl2"), corpus("heis3"), corpus("ut", 3), corpus("aff1")]
LIE_ALGEBRAS += [alg for _, alg in random_semidirect_products(12, SEED) if alg.dim <= 6]


@st.composite
def perturbed_lie_algebras(draw):
    """A Lie algebra of dimension at most 6 with up to two coordinates
    replaced: Jacobi fails on some triples and holds on the others."""
    alg = draw(st.sampled_from(LIE_ALGEBRAS))
    rng = draw(st.randoms(use_true_random=False))
    c = [[list(cij) for cij in ci] for ci in alg.c]
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        c[i][j][k] = random_entry(rng)
    return LieAlgebra(alg.dim, alg.labels, c)


@st.composite
def tensor_and_vectors(draw, count: int):
    alg = draw(tensors())
    rng = draw(st.randoms(use_true_random=False))
    density = draw(densities)
    return alg, [sparse_vector(rng, alg.dim, density) for _ in range(count)]


@given(tensor_and_vectors(2))
def test_bracket_and_ad_matrix_match_the_dense_reference(drawn):
    alg, (u, v) = drawn
    assert bracket(alg, u, v) == dense_bracket(alg, u, v)
    ad = ad_matrix(alg, u)
    assert (ad.rows, ad.cols) == (alg.dim, alg.dim)
    for j in range(alg.dim):
        assert ad.column(j) == dense_bracket(alg, u, alg.basis_vector(j))


@settings(deadline=None)
@given(st.data())
def test_centralizer_matches_sympy(data):
    alg, vecs = data.draw(tensor_and_vectors(data.draw(st.integers(0, 3))))
    n = alg.dim
    space = Subspace.span(n, vecs)
    # block of u: row k holds [b_i, u]_k over i, so x is in the kernel of
    # every block iff [x, u] = 0 for each basis vector u of U
    rows = []
    for u in space.vectors():
        cols = [dense_bracket(alg, alg.basis_vector(i), u) for i in range(n)]
        rows.extend([sym(cols[i][k]) for i in range(n)] for k in range(n))
    if rows:
        kernel = sympy.Matrix(rows).nullspace()
        expected = Subspace.span(n, [[from_sympy(x) for x in k] for k in kernel])
    else:
        expected = Subspace.full(n)
    assert centralizer(alg, space) == expected


@given(st.one_of(tensors(), perturbed_lie_algebras()))
def test_validate_matches_the_dense_reference(alg):
    report = validate(alg)
    anti, jac = dense_violations(alg)
    assert (report.antisymmetry_violations, report.jacobi_violations) == (anti, jac)
    assert report.ok == (not anti and not jac)


@given(tensor_and_vectors(4))
def test_reduce_matches_the_dense_reference(drawn):
    alg, vecs = drawn
    space = Subspace.span(alg.dim, vecs[:3])
    for vec in vecs:
        assert space.reduce(vec) == dense_reduce(space, vec)


# ---------------------------------------------------------------------------
# every span grown by ``closure``, against the loops it replaced
# ---------------------------------------------------------------------------

def spin_reference(action: Action, seeds) -> Subspace:
    """Spinning with its own frontier of the builder's reduced rows."""
    builder = SpanBuilder(action.carrier_dim)
    frontier = []
    for s in seeds:
        if builder.add(s):
            frontier.append(builder.rows[-1])
    while frontier:
        v = frontier.pop()
        for op in action.operators:
            if builder.add(op.apply(v)):
                frontier.append(builder.rows[-1])
    return builder.subspace()


def subalgebra_closure_reference(alg: LieAlgebra, seed: Subspace) -> Subspace:
    """S <- S + [S, S] to the fixpoint."""
    current = seed
    while True:
        grown = span_sum(current, bracket_spaces(alg, current, current))
        if grown == current:
            return current
        current = grown


def ideal_closure_reference(alg: LieAlgebra, seed: Subspace) -> Subspace:
    """I <- I + [L, I] to the fixpoint."""
    current = seed
    while True:
        grown = span_sum(current, bracket_spaces(alg, alg.full_space(), current))
        if grown == current:
            return current
        current = grown


def ideal_closure_series_reference(alg: LieAlgebra, space: Subspace):
    """Each term's ideal closure of S taken inside the term as an algebra:
    S restricted to the term's coordinates, closed, embedded back."""
    terms = [alg.full_space()]
    current_alg = alg
    while True:
        current = terms[-1]
        if current == space:
            return tuple(terms), len(terms) - 1
        seed = Subspace.span(current_alg.dim,
                             [current.coords_of(v) for v in space.vectors()])
        nxt = embed_subspace(current.basis, ideal_closure_reference(current_alg, seed))
        if nxt == current:
            return tuple(terms), None
        terms.append(nxt)
        current_alg, _ = restrict_to_subalgebra(alg, nxt)


def matrix_powers_reference(m: Matrix) -> tuple:
    """I, m, m^2, ... by repeated products until one is dependent."""
    powers = [Matrix.identity(m.rows)]
    while True:
        nxt = powers[-1].mul(m)
        if Subspace.span(m.rows ** 2, [p.flatten() for p in powers]) \
                .contains_vector(nxt.flatten()):
            return powers, nxt
        powers.append(nxt)


def lie_closure_reference(operators) -> Subspace:
    """The operator span closed under pairwise commutators to the fixpoint."""
    k = operators[0].rows
    flat = Subspace.span(k * k, [op.flatten() for op in operators])
    while True:
        mats = [matrix_from_flat(v, k, k) for v in flat.vectors()]
        extra = [a.mul(b).sub(b.mul(a)).flatten()
                 for i, a in enumerate(mats) for b in mats[i + 1:]]
        grown = span_sum(flat, Subspace.span(k * k, extra))
        if grown == flat:
            return flat
        flat = grown


closure_entries = st.one_of(st.just(0), st.integers(-3, 3),
                            st.sampled_from((Fraction(1, 2), Fraction(-5, 3))))


@st.composite
def rational_actions(draw, max_dim: int = 4):
    """Up to three operators on Q^1..Q^max_dim with int and Fraction
    entries; some are zero."""
    n = draw(st.integers(1, max_dim))
    ops = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()) and draw(st.booleans()):
            ops.append(Matrix.zeros(n, n))
        else:
            ops.append(Matrix(draw(st.lists(
                st.lists(closure_entries, min_size=n, max_size=n),
                min_size=n, max_size=n))))
    return Action(n, tuple(ops))


def vectors(n: int, max_size: int = 3):
    return st.lists(st.lists(closure_entries, min_size=n, max_size=n),
                    max_size=max_size)


@given(st.data())
def test_closure_without_maps_keeps_exactly_the_seeds_that_enlarge_the_span(data):
    n = data.draw(st.integers(0, 5))
    seeds = [tuple(v) for v in data.draw(vectors(n, 7))]
    kept = []
    for s in seeds:
        if not Subspace.span(n, kept).contains_vector(s):
            kept.append(s)
    found = closure(n, seeds)
    # the seeds themselves, not copies or reduced rows
    assert len(found) == len(kept)
    assert all(a is b for a, b in zip(found, kept))
    # an action whose maps are all zero adds nothing either
    assert closure(n, seeds, [lambda v: (0,) * n]) == kept


@settings(deadline=None)
@given(st.data())
def test_spin_matches_the_spinning_loop(data):
    action = data.draw(rational_actions())
    seeds = data.draw(vectors(action.carrier_dim))
    assert spin(action, seeds) == spin_reference(action, seeds)


def test_spin_matches_the_spinning_loop_on_a_fraction_action():
    jordan = Matrix([[Fraction(1, 2), 1, 0], [0, Fraction(1, 2), 1], [0, 0, Fraction(1, 2)]])
    action = Action(3, (jordan, Matrix.zeros(3, 3)))
    for seeds in ([(0, 0, 1)], [(0, 1, 0)], [(1, 0, 0), (2, 0, 0)], []):
        assert spin(action, seeds) == spin_reference(action, seeds)
    assert spin(action, [(0, 0, 1)]).is_full()
    assert spin(action, [(0, 1, 0)]).dim == 2


CLOSURE_ALGEBRAS = LIE_ALGEBRAS + [corpus("ut", 4), corpus("sl2sl2"),
                                   corpus("sl2_v2"), corpus("d1_v2"),
                                   corpus_expr("direct(sl2,heis3)")]


@st.composite
def algebra_and_seed(draw):
    alg = draw(st.sampled_from(CLOSURE_ALGEBRAS))
    rows = draw(st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 2))),
                                  min_size=alg.dim, max_size=alg.dim), max_size=2))
    return alg, Subspace.span(alg.dim, rows)


@settings(deadline=None)
@given(algebra_and_seed())
def test_generated_ideals_and_subalgebras_match_the_bracket_fixpoints(drawn):
    alg, seed = drawn
    assert ideal_closure(alg, seed) == ideal_closure_reference(alg, seed)
    assert subalgebra_closure(alg, seed) == subalgebra_closure_reference(alg, seed)


@settings(deadline=None)
@given(algebra_and_seed())
def test_ideal_closure_series_matches_the_restricted_recursion(drawn):
    alg, seed = drawn
    space = subalgebra_closure(alg, seed)
    assert ideal_closure_series(alg, space) == \
        ideal_closure_series_reference(alg, space)


@settings(deadline=None)
@given(rational_actions(max_dim=5))
def test_matrix_powers_match_repeated_products(action):
    for m in action.operators:
        assert matrix_powers(m) == matrix_powers_reference(m)


@settings(deadline=None)
@given(st.data())
def test_operator_semidirect_spans_the_commutator_fixpoint(data):
    action = data.draw(rational_actions(max_dim=3).filter(lambda a: a.operators))
    ops = action.operators
    k = action.carrier_dim
    alg = operator_semidirect(ops)
    m = alg.dim - k
    # ad of acting basis element i on Q^k is its operator: [m_i, v_j] = m_i v_j
    mats = [Matrix([[alg.c[i][m + j][m + t] for j in range(k)] for t in range(k)])
            for i in range(m)]
    expected = lie_closure_reference(ops)
    assert Subspace.span(k * k, [a.flatten() for a in mats]) == expected
    assert m == expected.dim
    if Subspace.span(k * k, [op.flatten() for op in ops]) == expected \
            and len(ops) == expected.dim:
        assert mats == list(ops)


def test_the_empty_matrix_has_minimal_polynomial_one():
    # Q[m] = 0 on Q^0, so d = 0 and m^d = I
    empty = Matrix.zeros(0, 0)
    assert matrix_powers(empty) == ([], empty)
    assert minimal_polynomial(empty) == [1]
