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
So is each job that now has one implementation: the trace test of
nilpotency against the power loop, the superposition and convolution
series and the greedy maximal chain against their loops over ``_series``,
``_is_homomorphism`` against the basis-pair loop of the iso-witness and
subdirect checks, the restriction, quotient and semidirect tensors against
their own fills, the ``operator_semidirect`` tensor against its per-pair
fill, and ``_completion`` (also on generic hyperplanes, whose completions
have 2^n members) and the lower and upper finite-gap tests against theirs.
``semidirect_product``, which checks its action with ``validate``'s Jacobi
test, refuses exactly the actions that the derivation and homomorphism
loops it replaced reject.  The greedy maximal chain is also compared, on
the p-completions of generic hyperplanes, with the quadratic step it once
took, and its containment tests are counted.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lierad.acceptance import random_semidirect_products  # noqa: E402
from lierad.chains import (  # noqa: E402
    DEFAULT_COMPLETION_BOUND,
    FamilySizeError,
    SubspaceFamily,
    family_join,
    family_meet,
    is_lower_finite_gap,
    is_upper_finite_gap,
    maximal_lower_finite_gap_chain,
    p_completion,
    s_completion,
)
from lierad.corpus import corpus, corpus_expr, suite_corpus  # noqa: E402
from lierad.frattini import (  # noqa: E402
    WitnessInvalidError,
    _verify_iso_witness,
    assemble_subdirect_embedding,
    is_frattini_free,
    subdirect_components,
    verify_subdirect,
)
from lierad.liealg import (  # noqa: E402
    ContractError,
    LieAlgebra,
    _is_homomorphism,
    abelian,
    ad_matrix,
    ad_of_basis,
    bracket,
    bracket_spaces,
    centralizer,
    change_basis,
    derivation_algebra,
    direct_product,
    embed_subspace,
    ideal_closure,
    ideal_closure_series,
    is_ideal,
    is_subalgebra,
    killing_form,
    operator_semidirect,
    quotient,
    restrict_to_subalgebra,
    semidirect_product,
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
    rank,
    rref,
    solve,
    span_intersect,
    span_sum,
)
from lierad.modules import (  # noqa: E402
    Action,
    _span_is_nilpotent,
    matrix_powers,
    minimal_polynomial,
    spin,
)
from lierad.radicals import (  # noqa: E402
    REGISTRY,
    PreradicalSpec,
    convolution_closure,
    superposition_closure,
)
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
        ours = solve(map(dict, a.support), b, a.cols)
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


def matrix_powers_reference(m: Matrix) -> list:
    """I, m, m^2, ... by repeated products until one is dependent."""
    powers = [Matrix.identity(m.rows)]
    while True:
        nxt = powers[-1].mul(m)
        if Subspace.span(m.rows ** 2, [p.flatten() for p in powers]) \
                .contains_vector(nxt.flatten()):
            return powers
        powers.append(nxt)


def operator_tensor_reference(mats, k: int) -> list:
    """The per-pair fill ``operator_semidirect`` ran: the commutator of every
    ordered pair (i, j), diagonal included, solved in the basis ``mats`` of
    k x k matrices."""
    flats = [a.flatten() for a in mats]
    coord_rows = [{i: f[t] for i, f in enumerate(flats) if f[t]}
                  for t in range(k * k)]
    c = []
    for a in mats:
        row = []
        for b in mats:
            coords = solve(coord_rows, a.mul(b).sub(b.mul(a)).flatten(), len(mats))
            if coords is None:
                raise ContractError("commutator escaped the operator span")
            row.append(coords)
        c.append(row)
    return c


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
    assert [[alg.c[i][j][:m] for j in range(m)] for i in range(m)] == \
        operator_tensor_reference(mats, k)
    assert m == expected.dim
    if Subspace.span(k * k, [op.flatten() for op in ops]) == expected \
            and len(ops) == expected.dim:
        assert mats == list(ops)


def test_the_empty_matrix_has_minimal_polynomial_one():
    # Q[m] = 0 on Q^0, so d = 0 and m^d = I
    empty = Matrix.zeros(0, 0)
    assert matrix_powers(empty) == []
    assert minimal_polynomial(empty) == [1]


# ---------------------------------------------------------------------------
# one implementation per job, against the second copies it replaced
# ---------------------------------------------------------------------------

def span_is_nilpotent_reference(mats, carrier_dim: int) -> bool:
    """Products of the generators with the last span, until zero or stable."""
    if not mats:
        return True
    nn = carrier_dim * carrier_dim
    current = Subspace.span(nn, [m.flatten() for m in mats])
    for _ in range(carrier_dim + 1):
        if current.is_zero():
            return True
        builder = SpanBuilder(nn)
        for m in mats:
            for flat in current.vectors():
                w = matrix_from_flat(flat, carrier_dim, carrier_dim)
                builder.add(m.mul(w).flatten())
        nxt = builder.subspace()
        if nxt == current:
            return False
        current = nxt
    return current.is_zero()


def unit_triangular_product(draw, n: int) -> Matrix:
    """Unit lower times unit upper triangular: invertible, det 1."""
    def factor(keep):
        return Matrix([[1 if i == j else draw(closure_entries) if keep(i, j) else 0
                        for j in range(n)] for i in range(n)])
    return factor(lambda i, j: j < i).mul(factor(lambda i, j: j > i))


@st.composite
def matrix_spans(draw):
    """Up to three matrices on Q^1..Q^4: arbitrary, strictly upper
    triangular (a nilpotent algebra) or upper triangular with a sparse
    diagonal, conjugated by a dense change of basis half of the time."""
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(("any", "strict", "triangular")))
    keep = {"any": lambda i, j: True, "strict": lambda i, j: j > i,
            "triangular": lambda i, j: j >= i}[shape]
    diagonal = st.sampled_from((0, 0, 0, 1)) if shape == "triangular" else closure_entries
    mats = [Matrix([[draw(diagonal if i == j else closure_entries) if keep(i, j) else 0
                     for j in range(n)] for i in range(n)])
            for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        t = unit_triangular_product(draw, n)
        back = inverse(t)
        mats = [t.mul(m).mul(back) for m in mats]
    return n, mats


@settings(deadline=None)
@given(matrix_spans())
def test_nilpotency_certificate_matches_the_power_loop(drawn):
    n, mats = drawn
    assert _span_is_nilpotent(mats, n) == span_is_nilpotent_reference(mats, n)


def test_nilpotency_certificate_reads_the_generated_algebra_not_the_span():
    e12, e21 = Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])
    # each is nilpotent, but e12 e21 = e11 has trace 1
    assert not _span_is_nilpotent([e12, e21], 2)
    assert not span_is_nilpotent_reference([e12, e21], 2)
    strict = [Matrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]]),
              Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])]
    assert _span_is_nilpotent(strict, 3) and span_is_nilpotent_reference(strict, 3)
    assert _span_is_nilpotent([], 2)


def superposition_closure_reference(spec, algebra):
    """K <- R(K as an algebra), by hand, to the fixpoint."""
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


def convolution_closure_reference(spec, algebra):
    """R^(n+1) = R * R^(n), by hand, to the fixpoint."""
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


def test_preradical_series_match_their_loops():
    pool = suite_corpus() + random_semidirect_products(10, 7) + [("zero", abelian(0))]
    for name, alg in pool:
        for key, spec in REGISTRY.items():
            assert superposition_closure(spec, alg) == \
                superposition_closure_reference(spec, alg), (name, key)
            assert convolution_closure(spec, alg) == \
                convolution_closure_reference(spec, alg), (name, key)


def test_preradical_series_refuse_a_non_ideal_like_their_loops():
    # the line of e on sl2 is a subalgebra but not an ideal
    line = PreradicalSpec("line", lambda a: Subspace.span(a.dim, [a.basis_vector(0)]))
    for series in (superposition_closure, superposition_closure_reference,
                   convolution_closure, convolution_closure_reference):
        with pytest.raises(ContractError, match="evaluator 'line' returned a non-ideal"):
            series(line, corpus("sl2"))


def chain_families() -> list:
    """The chain fixtures of ``test_chains.py`` and seeded random families
    in Q^4, each with its p- and s-completion."""
    def span(n, *vectors):
        return Subspace.span(n, vectors)

    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    p12, p23, p13 = span(3, e1, e2), span(3, e2, e3), span(3, e1, e3)
    full3, zero3 = Subspace.full(3), Subspace.zero(3)
    base = [
        (3, []), (3, [span(3, e1)]), (3, [p12, p23]), (3, [p12, p23, p13]),
        (3, [span(3, e1), p12]), (3, [full3, zero3]), (3, [full3, span(3, e1), span(3, e2)]),
        (3, [full3, span(3, e1, e3), span(3, e2, e3), span(3, e3), zero3]),
        (3, [p12, p23, span(3, (1, 1, 1))]), (3, [p12, span(3, e3)]),
        (2, [Subspace.full(2), span(2, (1, 0)), span(2, (0, 1))]),
        (4, [Subspace.full(4), span(4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
             span(4, (1, 0, 0, 0), (0, 1, 0, 0)), span(4, (1, 0, 0, 0)), Subspace.zero(4)]),
    ]
    rng = random.Random(SEED)
    for k in range(12):
        members = [Subspace.span(4, [[rng.randint(-2, 2) for _ in range(4)]
                                     for _ in range(rng.randrange(1, 4))])
                   for _ in range(rng.randrange(1, 5))]
        base.append((4, members + [Subspace.full(4)] * (k % 2)))
    out = []
    for n, members in base:
        family = SubspaceFamily.of(n, members)
        out += [family, p_completion(family), s_completion(family)]
    return out


CHAIN_FAMILIES = chain_families()


def maximal_chain_reference(family, top, reverse_tiebreak=False) -> tuple:
    """Greedy descent, by hand, with the quadratic step the chain once took:
    every member below is compared with every other to keep the maximal
    ones, which are sorted by key."""
    chain = [top]
    while True:
        current = chain[-1]
        below = [y for y in family if y != current and current.contains(y)]
        if not below:
            return tuple(chain)
        maximal = [y for y in below
                   if not any(z != y and z.contains(y) for z in below)]
        maximal.sort(key=lambda s: s.sort_key(), reverse=reverse_tiebreak)
        chain.append(maximal[0])


def completion_reference(family, bound, combine, extra):
    if len(family) > bound:
        raise FamilySizeError("over the bound")
    members = list(family.members)
    out = [extra]
    for size in range(1, len(members) + 1):
        out.extend(combine(*combo) for combo in combinations(members, size))
    return SubspaceFamily.of(family.ambient_dim, out)


def lower_finite_gap_reference(family) -> bool:
    meet = family_meet(family)
    for z in family:
        if z == meet:
            continue
        if not any(z != y and z.contains(y) for y in family):
            return False
    return True


def upper_finite_gap_reference(family) -> bool:
    join = family_join(family)
    for z in family:
        if z == join:
            continue
        if not any(z != y and y.contains(z) for y in family):
            return False
    return True


def generic_hyperplanes(n: int) -> SubspaceFamily:
    """The kernels of (1, t, ..., t^(n-1)) for t = 1..n in Q^n: any k of
    these functionals are independent (Vandermonde), so the meets of the
    2^n - 1 nonempty subfamilies are distinct and p-completion has 2^n
    members."""
    return SubspaceFamily.of(n, [
        Subspace.span(n, nullspace_matrix(Matrix([[t ** e for e in range(n)]])).data)
        for t in range(1, n + 1)])


HYPERPLANE_FAMILIES = [generic_hyperplanes(n) for n in (2, 3, 5, 8)]
HYPERPLANE_COMPLETIONS = [p_completion(f) for f in HYPERPLANE_FAMILIES]


def test_family_operations_match_their_loops():
    for family in HYPERPLANE_FAMILIES:
        assert len(p_completion(family)) == 2 ** len(family)
    for family in CHAIN_FAMILIES + HYPERPLANE_FAMILIES:
        for top in family:
            for reverse in (False, True):
                assert maximal_lower_finite_gap_chain(family, top, reverse) == \
                    maximal_chain_reference(family, top, reverse)
        # at most 2^8 subfamilies each, to keep the test fast
        if len(family) <= 8:
            assert p_completion(family) == completion_reference(
                family, DEFAULT_COMPLETION_BOUND, span_intersect, family_join(family))
            assert s_completion(family) == completion_reference(
                family, DEFAULT_COMPLETION_BOUND, span_sum, family_meet(family))
        assert is_lower_finite_gap(family) == lower_finite_gap_reference(family)
        assert is_upper_finite_gap(family) == upper_finite_gap_reference(family)
    largest = max(CHAIN_FAMILIES, key=len)
    for completion in (p_completion, s_completion):
        with pytest.raises(FamilySizeError):
            completion(largest, bound=len(largest) - 1)


def test_maximal_chains_on_hyperplane_completions_match_the_quadratic_step():
    # a chain from the join Q^n meets one more hyperplane at each step
    for completed in HYPERPLANE_COMPLETIONS:
        top = family_join(completed)
        for reverse in (False, True):
            chain = maximal_lower_finite_gap_chain(completed, top, reverse)
            assert chain == maximal_chain_reference(completed, top, reverse)
            assert [c.dim for c in chain] == list(range(top.dim, -1, -1))


def test_maximal_chain_makes_few_containment_tests(monkeypatch):
    # 256 members: the quadratic step made about 59,200 containment tests per
    # chain, this one 1,872 forward and 1,024 reverse
    completed = HYPERPLANE_COMPLETIONS[-1]
    assert len(completed) == 256
    top = family_join(completed)
    calls = []
    real_contains = Subspace.contains

    def counting(self, other):
        calls.append(None)
        return real_contains(self, other)

    monkeypatch.setattr(Subspace, "contains", counting)
    for reverse in (False, True):
        calls.clear()
        maximal_lower_finite_gap_chain(completed, top, reverse)
        assert len(calls) <= 4000, (reverse, len(calls))


def homomorphism_reference(source, target, m) -> bool:
    """The basis-pair loop that the iso-witness and subdirect checks each
    carried: m [b_i, b_j] against [m b_i, m b_j] for i < j."""
    for i in range(source.dim):
        for j in range(i + 1, source.dim):
            lhs = m.apply(bracket(source, source.basis_vector(i), source.basis_vector(j)))
            rhs = bracket(target, m.apply(source.basis_vector(i)),
                          m.apply(source.basis_vector(j)))
            if lhs != rhs:
                return False
    return True


@settings(deadline=None)
@given(st.data())
def test_homomorphism_check_matches_the_basis_pair_loop(data):
    alg = data.draw(st.sampled_from(CLOSURE_ALGEBRAS))
    t = unit_triangular_product(data.draw, alg.dim)
    # t maps change_basis(alg, t) isomorphically onto alg
    source, m = change_basis(alg, t), t
    if data.draw(st.booleans()):
        rows = [list(r) for r in m.data]
        i, j = data.draw(st.integers(0, alg.dim - 1)), data.draw(st.integers(0, alg.dim - 1))
        rows[i][j] += data.draw(st.sampled_from((1, -1, Fraction(1, 2))))
        m = Matrix(rows)
    expected = homomorphism_reference(source, alg, m)
    assert _is_homomorphism(source, alg, m) == expected
    if rank(m) == alg.dim:
        # one component onto which the full-rank m maps: a subdirect
        # embedding exactly when it is a homomorphism
        assert verify_subdirect([alg], m, source) == expected
        if expected:
            _verify_iso_witness(source, alg, m)
        else:
            with pytest.raises(WitnessInvalidError, match="does not preserve brackets"):
                _verify_iso_witness(source, alg, m)


def test_homomorphism_check_reads_every_basis_pair():
    # a Heisenberg algebra whose one bracket [b_a, b_b] = b_k sits at each
    # pair in turn: the identity into abelian(4) fails only on that pair
    for a, b in combinations(range(4), 2):
        k = min(set(range(4)) - {a, b})
        c = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        c[a][b][k], c[b][a][k] = 1, -1
        source = LieAlgebra(4, ["b0", "b1", "b2", "b3"], c)
        assert validate(source).ok
        for check in (_is_homomorphism, homomorphism_reference):
            assert not check(source, abelian(4), Matrix.identity(4)), (a, b)
            assert check(source, source, Matrix.identity(4)), (a, b)


def test_subdirect_embeddings_are_homomorphisms_by_both_checks():
    for name, alg in suite_corpus() + random_semidirect_products(10, 7):
        if not is_frattini_free(alg):
            continue
        algebras, embedding = assemble_subdirect_embedding(subdirect_components(alg))
        product = direct_product(algebras)
        assert _is_homomorphism(alg, product, embedding), name
        assert homomorphism_reference(alg, product, embedding), name


def restrict_reference(alg, space):
    """The pairwise fill of the restriction, by hand."""
    basis, m = space.basis, space.dim
    if m == alg.dim:
        return alg, basis
    zero = (0,) * m
    c = [[zero] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            coords = space.coords_of(bracket(alg, basis.row(i), basis.row(j)))
            if coords is None:
                raise ContractError("restriction requires a subalgebra")
            c[i][j] = coords
            c[j][i] = tuple(-x for x in coords)
    return LieAlgebra(m, ["s%d" % i for i in range(m)], c), basis


def quotient_tensor_reference(alg, ideal) -> tuple:
    """The pairwise fill of the quotient, by hand, over the free columns."""
    free = [j for j in range(alg.dim) if j not in ideal.pivots]
    m = len(free)

    def project(vec):
        v = ideal.reduce(vec)
        return tuple(v[j] for j in free)

    zero = (0,) * m
    c = [[zero] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            coords = project(alg.c[free[i]][free[j]])
            c[i][j] = coords
            c[j][i] = tuple(-x for x in coords)
    return tuple(tuple(ci) for ci in c)


@settings(deadline=None)
@given(algebra_and_seed())
def test_restriction_and_quotient_tensors_match_the_pairwise_fills(drawn):
    alg, seed = drawn
    for space in (subalgebra_closure(alg, seed), ideal_closure(alg, seed)):
        sub, basis = restrict_to_subalgebra(alg, space)
        ref, ref_basis = restrict_reference(alg, space)
        assert (sub, sub.labels, basis) == (ref, ref.labels, ref_basis)
    quot = quotient(alg, ideal_closure(alg, seed)).quotient
    assert quot.c == quotient_tensor_reference(alg, ideal_closure(alg, seed))
    if not is_subalgebra(alg, seed):
        for restrict in (restrict_to_subalgebra, restrict_reference):
            with pytest.raises(ContractError, match="restriction requires a subalgebra"):
                restrict(alg, seed)


def semidirect_reference(l1, l0, phi) -> LieAlgebra:
    """The whole semidirect tensor filled by hand: l1, the action, l0."""
    n1, n0 = l1.dim, l0.dim
    n = n1 + n0
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            for k, x in enumerate(l1.c[i][j]):
                c[i][j][k] = x
    for i in range(n1):
        for j in range(n0):
            for k, x in enumerate(phi[i].column(j)):
                c[i][n1 + j][n1 + k] = x
                c[n1 + j][i][n1 + k] = -x
    for i in range(n0):
        for j in range(n0):
            for k, x in enumerate(l0.c[i][j]):
                c[n1 + i][n1 + j][n1 + k] = x
    return LieAlgebra(n, list(l1.labels) + list(l0.labels), c)


def test_semidirect_products_match_the_full_fill():
    # each algebra acting on itself by ad, and the corpus actions on Q^k
    triples = [(alg, alg, ad_of_basis(alg)) for alg in CLOSURE_ALGEBRAS]
    triples.append((abelian(1), corpus("heis3"),
                    [Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])]))
    triples += [(alg, abelian(ops[0].rows), ops)
                for alg, ops in ((corpus("sl2"), [Matrix([[0, 1], [0, 0]]),
                                                  Matrix([[0, 0], [1, 0]]),
                                                  Matrix([[1, 0], [0, -1]])]),
                                 (abelian(1), [Matrix([[Fraction(1, 2), 1], [0, 3]])]))]
    for l1, l0, phi in triples:
        semi = semidirect_product(l1, l0, phi)
        ref = semidirect_reference(l1, l0, phi)
        assert (semi, semi.labels) == (ref, ref.labels)


def derivation_reference(algebra, op) -> bool:
    """The loop ``semidirect_product`` ran per operator: D[b_i, b_j] =
    [D b_i, b_j] + [b_i, D b_j] on every basis pair i < j."""
    n = algebra.dim
    for i in range(n):
        ei = algebra.basis_vector(i)
        for j in range(i + 1, n):
            ej = algebra.basis_vector(j)
            lhs = op.apply(bracket(algebra, ei, ej))
            rhs1 = bracket(algebra, op.apply(ei), ej)
            rhs2 = bracket(algebra, ei, op.apply(ej))
            if any(a != b + c for a, b, c in zip(lhs, rhs1, rhs2)):
                return False
    return True


def lie_homomorphism_reference(algebra, ops) -> bool:
    """The loop ``semidirect_product`` ran on the action: [ops_i, ops_j] =
    sum_k c_ij^k ops_k on every basis pair i < j."""
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            expected = Matrix.zeros(ops[i].rows, ops[i].cols)
            for k, coeff in enumerate(algebra.c[i][j]):
                if coeff != 0:
                    expected = expected.add(ops[k].scale(coeff))
            if ops[i].mul(ops[j]).sub(ops[j].mul(ops[i])) != expected:
                return False
    return True


NOT_A_DERIVATION = "action operator is not a derivation of the base"
NOT_A_HOMOMORPHISM = "action is not a Lie homomorphism"


def semidirect_refusal(l1, l0, phi):
    """The message ``semidirect_product`` refuses with, or None."""
    try:
        semidirect_product(l1, l0, phi)
    except ContractError as exc:
        return str(exc)
    return None


def semidirect_actions() -> list:
    """(l1, l0, phi) over Lie algebras l1 and l0: the ad and corpus actions,
    the identity on heis3, scaled sl2 operators and random integer
    operators on abelian bases; some are actions and some are not."""
    e, f, h = (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]),
               Matrix([[1, 0], [0, -1]]))
    e12, e23, e13 = (Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                     Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
                     Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))
    sl2, heis3 = corpus("sl2"), corpus("heis3")
    out = [(alg, alg, ad_of_basis(alg)) for alg in CLOSURE_ALGEBRAS]
    out += [(sl2, abelian(2), [e, f, h]),
            (heis3, abelian(3), [e12, e23, e13]),
            (corpus("aff1"), abelian(2), [Matrix([[1, 0], [0, 0]]), e]),
            (abelian(1), heis3, [Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])]),
            (abelian(1), abelian(2), [Matrix([[Fraction(1, 2), 1], [0, 3]])])]
    identity = Matrix.identity(3)
    out += [(abelian(1), heis3, [identity]), (heis3, heis3, [identity] * 3),
            (heis3, heis3, [identity, Matrix.zeros(3, 3), Matrix.zeros(3, 3)])]
    for t in (0, 1, -1, 2, Fraction(1, 2)):
        out.append((sl2, abelian(2), [op.scale(qq(t)) for op in (e, f, h)]))
        out.append((sl2, sl2, [op.scale(qq(t)) for op in ad_of_basis(sl2)]))
    rng = random.Random(SEED)
    for _ in range(40):
        m, k = rng.randint(1, 3), rng.randint(1, 3)
        base = Matrix([[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)])
        if rng.random() < 0.5:
            # powers of one matrix commute, so they act
            ops = [reduce(Matrix.mul, [base] * (p + 1)) for p in range(m)]
        else:
            ops = [Matrix([[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)])
                   for _ in range(m)]
        out.append((abelian(m), abelian(k), ops))
        if k == 3:
            out.append((heis3, abelian(3), [base, ops[0], base.mul(ops[0])]))
    return out


def test_semidirect_refuses_exactly_the_actions_a_reference_rejects():
    verdicts = set()
    for l1, l0, phi in semidirect_actions():
        failing = set()
        if not all(derivation_reference(l0, op) for op in phi):
            failing.add(NOT_A_DERIVATION)
        if not lie_homomorphism_reference(l1, phi):
            failing.add(NOT_A_HOMOMORPHISM)
        refusal = semidirect_refusal(l1, l0, phi)
        if failing:
            assert refusal in failing, (l1, l0)
        else:
            assert refusal is None, (l1, l0)
        verdicts.add(frozenset(failing))
    # every outcome is met: accepted, and each law failing alone and together
    assert verdicts == {frozenset(), frozenset([NOT_A_DERIVATION]),
                        frozenset([NOT_A_HOMOMORPHISM]),
                        frozenset([NOT_A_DERIVATION, NOT_A_HOMOMORPHISM])}


def test_semidirect_refuses_factors_that_break_jacobi_or_antisymmetry():
    # sl2 with [e, f] = e in place of h: [e, [f, h]] + [f, [h, e]] + [h, [e, f]]
    # = 2e - 2e + 2e, while the zero action passes both reference loops
    c = [[list(cij) for cij in ci] for ci in corpus("sl2").c]
    c[0][1], c[1][0] = [1, 0, 0], [-1, 0, 0]
    broken = LieAlgebra(3, ["e", "f", "h"], c)
    assert validate(broken).jacobi_violations == ((0, 1, 2),)
    zero = [Matrix.zeros(3, 3)] * 3
    assert all(derivation_reference(broken, op) for op in zero)
    assert lie_homomorphism_reference(broken, [Matrix.zeros(1, 1)] * 3)
    assert semidirect_refusal(broken, abelian(1), [Matrix.zeros(1, 1)] * 3) \
        == NOT_A_HOMOMORPHISM
    assert semidirect_refusal(abelian(1), broken, [Matrix.zeros(3, 3)]) \
        == NOT_A_DERIVATION
    # [b, b] = b breaks antisymmetry only
    loop = LieAlgebra(1, ["b"], [[[1]]])
    assert validate(loop).antisymmetry_violations == ((0, 0),)
    assert semidirect_refusal(loop, abelian(1), [Matrix.zeros(1, 1)]) \
        == NOT_A_HOMOMORPHISM
    assert semidirect_refusal(abelian(1), loop, [Matrix.zeros(1, 1)]) \
        == NOT_A_DERIVATION
