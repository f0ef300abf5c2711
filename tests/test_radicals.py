"""Classical radicals and the preradical combinators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lierad import radicals
from lierad.acceptance import random_semidirect_products
from lierad.corpus import corpus, corpus_expr, suite_corpus
from lierad.frattini import jacobson_ideal
from lierad.liealg import (
    ContractError,
    LieAlgebra,
    ad_matrix,
    bracket_spaces,
    center,
    change_basis,
    derived_series,
    derived_series_of,
    direct_product,
    embed_subspace,
    ideal_closure,
    is_ideal,
    is_killing_nondegenerate,
    is_nilpotent,
    killing_form,
    killing_rank,
    lower_central_series_of,
    quotient,
    restrict_to_subalgebra,
    solvability_index,
    stable_derived_term,
)
from lierad.linalg import Matrix, Subspace, nullspace_matrix, qq, rank, solve, span_sum
from lierad.modules import Action, associative_envelope
from lierad.radicals import (
    DERIVED_MAP,
    PreradicalSpec,
    REGISTRY,
    convolution,
    convolution_closure,
    decompose_semisimple,
    is_absorbing,
    largest_semisimple_ideal,
    levi_radical,
    levi_subalgebra,
    nilradical,
    solvable_radical,
    superposition_closure,
    vasilescu_radical,
)


def span(n, *vectors):
    return Subspace.span(n, [[qq(x) for x in v] for v in vectors])


def test_solvable_radical_fixtures():
    assert solvable_radical(corpus("sl2")).is_zero()
    ut3 = corpus("ut", 3)
    assert solvable_radical(ut3) == ut3.full_space()
    assert solvable_radical(corpus("sl2_v2")) == \
        span(5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


def test_nilradical_fixtures():
    h = corpus("heis3")
    assert nilradical(h) == h.full_space()
    # ut(2) basis (E11, E12, E22): scalars plus the strictly-upper line
    assert nilradical(corpus("ut", 2)) == span(3, (1, 0, 1), (0, 1, 0))
    assert nilradical(corpus("sl2_v2")) == \
        span(5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


def full_envelope_nilradical(alg: LieAlgebra) -> Subspace:
    """The trace conditions against the unital envelope of all of ad(rad)."""
    rad = solvable_radical(alg)
    if rad.is_zero():
        return rad
    rad_ads = [ad_matrix(alg, v) for v in rad.vectors()]
    env = associative_envelope(Action(alg.dim, tuple(rad_ads)))
    rows = [[a.trace_of_product(b) for a in rad_ads] for b in env.basis]
    coords = nullspace_matrix(Matrix(rows))
    return embed_subspace(rad.basis, Subspace.span(rad.dim, coords.data))


def scrambled_ut4() -> LieAlgebra:
    # unit lower times unit upper triangular, a fifth of the off-diagonal
    # entries nonzero Fractions: det 1, non-integral structure constants
    rng = random.Random(0)
    n = 10

    def entry():
        if rng.random() < 0.2:
            return Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
        return 0

    lower = Matrix([[1 if i == j else entry() if j < i else 0
                     for j in range(n)] for i in range(n)])
    upper = Matrix([[1 if i == j else entry() if j > i else 0
                     for j in range(n)] for i in range(n)])
    return change_basis(corpus("ut", 4), lower.mul(upper))


def test_nilradical_equals_the_full_envelope_computation():
    algebras = suite_corpus() + list(random_semidirect_products(25, 20260810))
    algebras += [("ut(%d)" % n, corpus("ut", n)) for n in range(2, 7)]
    algebras.append(("scrambled ut(4)", scrambled_ut4()))
    assert len(algebras) == 47
    scrambled = algebras[-1][1]
    assert any(type(x) is Fraction for row in scrambled.c for vec in row
               for x in vec)
    for name, alg in algebras:
        assert nilradical(alg) == full_envelope_nilradical(alg), name
    by_name = dict(algebras)
    # sl2-natural#10, #15 and sl2-adjoint#4, #7, #8, #9: [L, rad] = rad, so
    # no rad vector is a generator and the envelope is the scalars
    for name in ("sl2-natural#10", "sl2-natural#15", "sl2-adjoint#4",
                 "sl2-adjoint#7", "sl2-adjoint#8", "sl2-adjoint#9"):
        alg = by_name[name]
        rad = solvable_radical(alg)
        assert bracket_spaces(alg, alg.full_space(), rad) == rad, name
    # abelian(3): [L, rad] = 0, so every rad vector is a generator
    ab = by_name["abelian(3)"]
    assert bracket_spaces(ab, ab.full_space(), solvable_radical(ab)).is_zero()


def test_nilradical_certificate_fires_on_a_scalars_only_envelope(monkeypatch):
    # ut(3), basis E11, E12, E13, E22, E23, E33: the generators are ad E11,
    # ad E22 and ad E33, so k = 1 gives z = ad(E11 + E22 + E33) = 0, whose
    # powers span only the scalars.  tr(ad x) = 0 alone keeps E22 and
    # E11 + E33: an ideal containing [L, rad], not nilpotent
    alg = corpus("ut", 3)
    assert ad_matrix(alg, (1, 0, 0, 1, 0, 1)).is_zero()
    verdicts = []

    # the certificate: the candidate's lower central series, read in L
    real_series = radicals.lower_central_series_of

    def spy(algebra, space):
        series = real_series(algebra, space)
        verdicts.append((space.dim, series.reaches_zero()))
        return series

    monkeypatch.setattr(radicals, "lower_central_series_of", spy)
    # the k = 1 element every time: m = 3 generators and n = 6 allow at most
    # (m - 1) n (n - 1) / 2 = 30 bad k, so the loop stops after 31
    real_powers = radicals.matrix_powers
    monkeypatch.setattr(radicals, "matrix_powers",
                        lambda z: real_powers(z.scale(0)))
    nilradical.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"k = 2 \.\. 32$"):
            nilradical(alg)
        assert verdicts == [(5, False)] * 31
        # unforced, k = 2 is generic: the first candidate passes
        monkeypatch.setattr(radicals, "matrix_powers", real_powers)
        verdicts.clear()
        # the strictly upper triangular part and the identity
        assert nilradical(alg) == span(6, (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                                       (0, 0, 0, 0, 1, 0), (1, 0, 0, 1, 0, 1))
        assert verdicts == [(4, True)]
    finally:
        nilradical.cache_clear()


def test_nilradical_powers_an_integer_matrix_in_a_dense_rational_basis(monkeypatch):
    # every off-diagonal entry of both factors a nonzero Fraction: det 1,
    # and z = sum k^i g_i carries the denominators of the new basis
    rng = random.Random(1)
    n = 10

    def factor(keep):
        return Matrix([[1 if i == j else
                        Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(2, 5))
                        if keep(i, j) else 0 for j in range(n)] for i in range(n)])

    t = factor(lambda i, j: j < i).mul(factor(lambda i, j: j > i))
    alg = change_basis(corpus("ut", 4), t)
    assert any(type(x) is Fraction for row in alg.c for vec in row for x in vec)
    seen = []
    real_powers = radicals.matrix_powers

    def spy(z):
        seen.append(z)
        return real_powers(z)

    monkeypatch.setattr(radicals, "matrix_powers", spy)
    nil = nilradical(alg)
    assert seen and all(type(x) is int for z in seen for x in z.flatten())
    # t maps the new coordinates back to those of ut(4)
    assert Subspace.span(n, [t.apply(v) for v in nil.vectors()]) == \
        nilradical(corpus("ut", 4))


def test_restriction_to_a_non_subalgebra_is_a_contract_error():
    s = corpus("sl2")
    with pytest.raises(ContractError, match="restriction requires a subalgebra"):
        restrict_to_subalgebra(s, span(3, (1, 0, 0), (0, 1, 0)))


def test_levi_fixtures():
    v2 = corpus("sl2_v2")
    levi = levi_subalgebra(v2)
    assert levi.levi == span(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
                             (0, 0, 1, 0, 0))
    assert levi.radical == span(5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    assert levi_subalgebra(corpus("ut", 3)).levi.is_zero()
    s = corpus("sl2")
    assert levi_subalgebra(s).levi == s.full_space()


def test_levi_complement_is_conjugate_invariant_certificate():
    # the construction lifts along the derived series of the radical;
    # certificates (subalgebra, nondegenerate, spanning) run inside
    for name, alg in suite_corpus():
        levi = levi_subalgebra(alg)
        assert levi.levi.dim + levi.radical.dim == alg.dim, name


def test_decompose_semisimple_fixtures():
    s = corpus("sl2")
    assert decompose_semisimple(s) == (s.full_space(),)
    parts = decompose_semisimple(corpus("sl2sl2"))
    assert [p.dim for p in parts] == [3, 3]
    with pytest.raises(ContractError):
        decompose_semisimple(corpus("heis3"))


def test_decompose_semisimple_three_simple_ideals():
    parts = decompose_semisimple(corpus_expr("direct(sl2,sl2,sl2)"))
    blocks = [Subspace.span(9, [[qq(1) if j == 3 * b + i else qq(0)
                                 for j in range(9)] for i in range(3)])
              for b in range(3)]
    assert parts == tuple(sorted(blocks, key=lambda s: s.sort_key()))


def test_decompose_semisimple_transports_under_basis_change():
    # unit lower times unit upper triangular: an integer matrix of det 1
    lower = Matrix([[1, 0, 0, 0, 0, 0], [2, 1, 0, 0, 0, 0], [0, -1, 1, 0, 0, 0],
                    [1, 0, 3, 1, 0, 0], [0, 2, 0, -1, 1, 0], [-1, 0, 1, 0, 2, 1]])
    upper = Matrix([[1, 1, 0, -2, 0, 1], [0, 1, 1, 0, 3, 0], [0, 0, 1, 2, 0, -1],
                    [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 2], [0, 0, 0, 0, 0, 1]])
    t = lower.mul(upper)
    scrambled = change_basis(corpus("sl2sl2"), t)
    first = span(6, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
    second = span(6, (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    # new coordinates x of an old vector u solve t x = u
    expected = sorted((Subspace.span(6, [solve(map(dict, t.support), u, 6)
                                         for u in block.vectors()])
                       for block in (first, second)), key=lambda s: s.sort_key())
    assert decompose_semisimple(scrambled) == tuple(expected)


def _sl2_over_q_sqrt2() -> LieAlgebra:
    """sl2(Q(sqrt 2)) as a 6-dim Q-algebra, basis (e, f, h, r e, r f, r h)
    with r = sqrt 2: simple over Q, with the 2-dim centroid Q(sqrt 2)."""
    base = corpus("sl2").c
    c = [[None] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            coeffs = base[i % 3][j % 3]
            zero = [qq(0)] * 3
            if i < 3 and j < 3:
                c[i][j] = list(coeffs) + zero
            elif i < 3 or j < 3:
                c[i][j] = zero + list(coeffs)
            else:
                c[i][j] = [2 * x for x in coeffs] + zero
    return LieAlgebra(6, ["e", "f", "h", "re", "rf", "rh"], c)


def test_decompose_semisimple_keeps_a_simple_algebra_with_larger_centroid():
    from lierad.frattini import centroid
    alg = _sl2_over_q_sqrt2()
    assert is_killing_nondegenerate(alg)
    assert centroid(alg).dim == 2
    assert decompose_semisimple(alg) == (alg.full_space(),)


def test_largest_semisimple_ideal_fixtures():
    assert largest_semisimple_ideal(corpus("sl2_v2")).is_zero()
    mixed = corpus_expr("direct(sl2,heis3)")
    expected = span(6, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                    (0, 0, 1, 0, 0, 0))
    assert largest_semisimple_ideal(mixed) == expected
    s = corpus("sl2")
    assert largest_semisimple_ideal(s) == s.full_space()


def test_levi_radical_fixtures():
    for name in ("aff1", "heis3", "ut(2)", "ut(3)", "sut(4)", "abelian(3)"):
        assert levi_radical(corpus_expr(name)).is_zero(), name
    v2 = corpus("sl2_v2")
    assert levi_radical(v2) == v2.full_space()
    mixed = corpus_expr("direct(sl2,abelian(2))")
    assert levi_radical(mixed) == span(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
                                       (0, 0, 1, 0, 0))


def test_vasilescu_equals_rad():
    for name, alg in suite_corpus():
        assert vasilescu_radical(alg) == solvable_radical(alg), name


def test_superposition_closure_of_derived_map():
    ut3 = corpus("ut", 3)
    fix, index = superposition_closure(DERIVED_MAP, ut3)
    assert fix.is_zero() and index == 3
    s = corpus("sl2")
    fix, index = superposition_closure(DERIVED_MAP, s)
    assert fix == s.full_space() and index == 1
    from lierad.liealg import abelian
    zero_alg = abelian(0)
    fix, index = superposition_closure(DERIVED_MAP, zero_alg)
    assert fix.is_zero() and index == 0


def test_levi_radical_is_the_superposition_fixpoint_of_the_derived_map():
    # levi_radical returns the stable derived term without forming the fixpoint
    algebras = suite_corpus() + [("ut(%d)" % n, corpus("ut", n)) for n in range(3, 7)]
    algebras += random_semidirect_products(25, 20260810)
    algebras += random_semidirect_products(40, 7)
    assert len(algebras) == 85
    for name, alg in algebras:
        fix, _ = superposition_closure(DERIVED_MAP, alg)
        assert levi_radical(alg) == fix == stable_derived_term(alg), name


def test_superposition_closure_rejects_non_ideal_evaluators():
    bad = PreradicalSpec("bad", lambda alg: span(
        alg.dim, alg.basis_vector(0)) if alg.dim else alg.zero_space())
    with pytest.raises(ContractError):
        superposition_closure(bad, corpus("sl2"))


def test_convolution_fixtures():
    h = corpus("heis3")
    k = REGISTRY["center"]
    assert convolution(k, k, h) == h.full_space()
    whole = PreradicalSpec("whole", lambda alg: alg.full_space())
    anything = REGISTRY["rad"]
    assert convolution(anything, whole, h) == h.full_space()
    s = corpus("sl2")
    assert convolution(k, k, s).is_zero()


def test_convolution_closure_fixtures():
    k = REGISTRY["center"]
    h = corpus("heis3")
    fix, index = convolution_closure(k, h)
    assert fix == h.full_space() and index == 2
    fix, index = convolution_closure(k, corpus("aff1"))
    assert fix.is_zero() and index == 1
    fix, index = convolution_closure(k, corpus("sl2"))
    assert fix.is_zero() and index == 1


def test_is_absorbing_fixtures():
    h = corpus("heis3")
    z = span(3, (0, 0, 1))
    assert not is_absorbing(REGISTRY["center"], h, z)
    assert is_absorbing(REGISTRY["jacobson"], h, z)
    zero_map = PreradicalSpec("zero", lambda alg: alg.zero_space())
    assert is_absorbing(zero_map, h, h.zero_space())
    with pytest.raises(ContractError):
        is_absorbing(REGISTRY["center"], h, span(3, (1, 0, 0)))


def test_radical_image_of_radical_algebra_is_radical():
    # quotients of levi-radical-radical algebras stay radical
    v2 = corpus("sl2_v2")
    assert levi_radical(v2) == v2.full_space()
    q = quotient(v2, solvable_radical(v2))
    assert levi_radical(q.quotient) == q.quotient.full_space()


def test_jacobson_is_smallest_absorbing_among_probed_ideals():
    spec = REGISTRY["jacobson"]
    for name in ("heis3", "aff1", "ut(2)", "ut(3)"):
        alg = corpus_expr(name)
        k = jacobson_ideal(alg)
        assert is_absorbing(spec, alg, k), name
        probes = [ideal_closure(alg, Subspace.span(alg.dim,
                                                   [alg.basis_vector(i)]))
                  for i in range(alg.dim)]
        probes.append(alg.full_space())
        probes.append(alg.zero_space())
        for ideal in probes:
            if is_ideal(alg, ideal) and is_absorbing(spec, alg, ideal):
                assert ideal.contains(k), name


def test_rad_semisimplicity_criterion():
    # rad(L) = 0 iff the Killing form is nondegenerate, corpus-wide
    for name, alg in suite_corpus():
        assert solvable_radical(alg).is_zero() == \
            is_killing_nondegenerate(alg), name


def test_direct_product_splitting_of_radicals():
    pairs = [("sl2", "heis3"), ("aff1", "abelian(2)"), ("ut(2)", "sl2")]
    for left, right in pairs:
        a, b = corpus_expr(left), corpus_expr(right)
        product = direct_product([a, b])
        total = product.dim

        def embed(space, offset):
            vecs = []
            for v in space.vectors():
                out = [qq(0)] * total
                for j, x in enumerate(v):
                    out[offset + j] = x
                vecs.append(out)
            return Subspace.span(total, vecs)

        for fn in (solvable_radical, nilradical, center, levi_radical):
            assert fn(product) == span_sum(embed(fn(a), 0),
                                           embed(fn(b), a.dim))


def test_registry_names_are_total_on_the_corpus():
    for name, alg in suite_corpus():
        for rname, spec in REGISTRY.items():
            value = spec.evaluate(alg)
            assert is_ideal(alg, value), (name, rname)


def test_restriction_roundtrip_inside_superposition():
    # restricting to the stable derived term and recomputing is stable
    mixed = corpus_expr("direct(sl2,abelian(2))")
    stable = stable_derived_term(mixed)
    sub, basis = restrict_to_subalgebra(mixed, stable)
    assert stable_derived_term(sub) == sub.full_space()
    assert bracket_spaces(sub, sub.full_space(), sub.full_space()) == \
        sub.full_space()


def test_series_read_in_l_match_the_restricted_algebra():
    # the restricted path kept as the oracle: the series, solvability index,
    # nilpotency verdict and Killing rank of each ideal, read in L, against
    # those of restrict_to_subalgebra(L, I)
    pool = (suite_corpus() + [("ut(%d)" % n, corpus("ut", n)) for n in range(3, 7)]
            + random_semidirect_products(25, 20260810))
    seen = set()
    for name, alg in pool:
        ideals = [solvable_radical(alg), nilradical(alg), center(alg),
                  jacobson_ideal(alg), levi_radical(alg),
                  *derived_series(alg).terms]
        for ideal in dict.fromkeys(ideals):
            sub, basis = restrict_to_subalgebra(alg, ideal)
            derived = derived_series_of(alg, ideal)
            assert derived.terms == tuple(
                embed_subspace(basis, t) for t in derived_series(sub).terms), name
            index = radicals._solvability_index_of(alg, ideal)
            assert index == solvability_index(sub), name
            nilpotent = lower_central_series_of(alg, ideal).reaches_zero()
            assert nilpotent == is_nilpotent(sub), name
            gram = basis.mul(killing_form(alg)).mul(basis.transpose())
            assert rank(gram) == killing_rank(sub), name
            seen.add((index is None, nilpotent, rank(gram) == ideal.dim > 0))
    # non-solvable, solvable but not nilpotent, nilpotent, and both
    # nondegenerate and degenerate nonzero Killing forms all occur
    assert {(True, False, True), (True, False, False), (False, False, False),
            (False, True, False)} <= seen


STRUCTURE_EXTRAS = ("direct(sl2,sl2_v2)", "direct(sl2_v2,heis3)",
                    "direct(sl2sl2,abelian(2))", "direct(aff1,aff1)",
                    "direct(d1_v2,sl2)")


@pytest.fixture(scope="module")
def levi_pool():
    """Suite corpus, seeded products and products with a nonzero Levi factor
    over a radical of derived length 2 (direct(sl2,heis3) is in the corpus)."""
    return (suite_corpus() + random_semidirect_products(25, 20260810)
            + random_semidirect_products(15, 1)
            + [(e, corpus_expr(e)) for e in STRUCTURE_EXTRAS])


def lift_steps(alg):
    """The (quotient, pushed radical) pairs the Levi lift recurses through."""
    rad = solvable_radical(alg)
    steps = []
    while not rad.is_zero() and not rad.is_full():
        rad_alg, rad_basis = restrict_to_subalgebra(alg, rad)
        series = derived_series(rad_alg)
        layer = embed_subspace(rad_basis, series.terms[series.stable_index - 1])
        quot = quotient(alg, layer)
        alg, rad = quot.quotient, quot.push(rad)
        steps.append((alg, rad))
    return steps


def test_the_lift_pushes_the_radical_and_levi_of_each_quotient(levi_pool):
    # why _levi_complement recurses on (L/A, R/A): rad(L/A) = R/A, so the
    # old levi_subalgebra(L/A) of each quotient is the pushed recursion
    deep = 0
    for name, alg in levi_pool:
        steps = lift_steps(alg)
        for quot, pushed in steps:
            assert solvable_radical(quot) == pushed, name
            assert levi_subalgebra(quot).levi == \
                radicals._levi_complement(quot, pushed), name
        deep += len(steps) >= 2 and not levi_subalgebra(alg).levi.is_zero()
    assert deep >= 2


def test_the_levi_lift_certifies_no_quotient(monkeypatch):
    seen = []

    def spy(real):
        def wrapper(alg):
            seen.append((real.__name__, alg.dim))
            return real(alg)
        return wrapper

    for expr in ("direct(sl2,heis3)", "direct(sl2_v2,heis3)", "sl2_v2"):
        alg = corpus_expr(expr)
        rad = solvable_radical(alg)
        with monkeypatch.context() as patch:
            patch.setattr(radicals, "levi_subalgebra", spy(levi_subalgebra))
            patch.setattr(radicals, "solvable_radical", spy(solvable_radical))
            levi = radicals._levi_complement(alg, rad)
        assert seen == [], expr
        assert levi == levi_subalgebra(alg).levi, expr


def sum_of_commuting_simple_components(alg) -> Subspace:
    """The former largest_semisimple_ideal: split the Levi factor into simple
    components and keep those that commute with the radical."""
    levi = levi_subalgebra(alg)
    if levi.levi.is_zero():
        return alg.zero_space()
    levi_alg, levi_basis = restrict_to_subalgebra(alg, levi.levi)
    parts = [embed_subspace(levi_basis, p) for p in decompose_semisimple(levi_alg)]
    return span_sum(alg.zero_space(), *[
        p for p in parts if bracket_spaces(alg, p, levi.radical).is_zero()])


def test_largest_semisimple_ideal_is_the_levi_centralizer_of_rad(levi_pool):
    nonzero = partial = 0
    for name, alg in levi_pool:
        value = largest_semisimple_ideal(alg)
        assert value == sum_of_commuting_simple_components(alg), name
        nonzero += not value.is_zero()
        partial += 0 < value.dim < levi_subalgebra(alg).levi.dim
    assert nonzero >= 5 and partial >= 1


def test_levi_certificates_fire(monkeypatch):
    # a non-subalgebra, a degenerate subalgebra and a semisimple subalgebra
    # that misses a direction of L/R
    sl2_v2, sl2sl2 = corpus("sl2_v2"), corpus("sl2sl2")
    cases = (
        (sl2_v2, span(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)), "not a subalgebra"),
        (sl2_v2, span(5, (0, 0, 1, 0, 0)), "not semisimple"),
        (sl2sl2, span(6, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                      (0, 0, 1, 0, 0, 0)), "does not complement"),
    )
    for alg, candidate, message in cases:
        monkeypatch.setattr(radicals, "_levi_complement",
                            lambda a, r, candidate=candidate: candidate)
        with pytest.raises(AssertionError, match=message):
            levi_subalgebra.__wrapped__(alg)


def test_solvable_radical_certificates_fire(monkeypatch):
    # the candidate is the nullspace the Killing rows give; replace it with a
    # non-ideal line of V, with all of sl2_v2 and with 0
    alg = corpus("sl2_v2")
    cases = (
        ([(0, 0, 0, 1, 0)], "not an ideal"),
        ([[int(i == j) for j in range(5)] for i in range(5)], "not solvable"),
        ([], "not semisimple"),
    )
    for rows, message in cases:
        monkeypatch.setattr(radicals, "nullspace_matrix",
                            lambda m, rows=rows: Matrix([list(r) for r in rows]))
        with pytest.raises(AssertionError, match=message):
            solvable_radical.__wrapped__(alg)
