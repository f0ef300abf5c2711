"""Lie-algebra core: brackets, closures, series, forms, quotients, products."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lierad import liealg, modules
from lierad.acceptance import random_semidirect_products
from lierad.corpus import corpus, corpus_expr, suite_corpus
from lierad.liealg import (
    ContractError,
    LieAlgebra,
    abelian,
    ad_matrix,
    bracket,
    bracket_spaces,
    center,
    centralizer,
    derivation_algebra,
    derived_series,
    direct_product,
    ideal_closure,
    ideal_closure_series,
    is_characteristic,
    is_ideal,
    is_subalgebra,
    killing_form,
    lower_central_series,
    nilpotency_index,
    operator_semidirect,
    outer_derivations,
    quotient,
    restrict_to_subalgebra,
    semidirect_product,
    solvability_index,
    stable_derived_term,
    stable_lower_central_term,
    subalgebra_closure,
    validate,
)
from lierad.linalg import Matrix, Subspace, qq, span_sum
from lierad.frattini import frattini_ideal, jacobson_ideal
from lierad.linalg import matrix_from_flat
from lierad.radicals import levi_radical, levi_subalgebra, nilradical, solvable_radical
from lierad.reports import analyze


def span(n, *vectors):
    return Subspace.span(n, [[qq(x) for x in v] for v in vectors])


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def test_validate_corpus_fixtures():
    assert validate(corpus("heis3")).ok
    assert validate(abelian(4)).ok


def test_validate_reports_antisymmetry_violation():
    z = [0, 0]
    bad = LieAlgebra(2, ["a", "b"], [[z, [1, 0]], [[1, 0], z]])
    report = validate(bad)
    assert not report.ok
    assert (0, 1) in report.antisymmetry_violations


def test_validate_reports_jacobi_violation():
    # [b1,b2] = b2, [b1,b3] = b3, [b2,b3] = b1 breaks Jacobi on (0,1,2)
    z = [0, 0, 0]
    c = [[z, [0, 1, 0], [0, 0, 1]],
         [[0, -1, 0], z, [1, 0, 0]],
         [[0, 0, -1], [-1, 0, 0], z]]
    report = validate(LieAlgebra(3, ["a", "b", "c"], c))
    assert not report.ok
    assert (0, 1, 2) in report.jacobi_violations


def test_bracket_heis3():
    h = corpus("heis3")
    assert bracket(h, E1, E2) == (qq(0), qq(0), qq(1))
    assert bracket(h, E1, E1) == (qq(0),) * 3


def test_bracket_spaces_sl2_is_perfect():
    s = corpus("sl2")
    assert bracket_spaces(s, s.full_space(), s.full_space()) == s.full_space()


def test_subalgebra_closure_heis3():
    h = corpus("heis3")
    assert subalgebra_closure(h, span(3, E1, E2)) == h.full_space()
    assert subalgebra_closure(h, Subspace.zero(3)).is_zero()


def test_ideal_closure_heis3_line():
    h = corpus("heis3")
    assert ideal_closure(h, span(3, E1)) == span(3, E1, E3)


def test_center_fixtures():
    assert center(corpus("heis3")) == span(3, E3)
    assert center(abelian(4)) == Subspace.full(4)
    assert center(corpus("sl2")).is_zero()


def test_centralizer_equals_center_on_full_space():
    h = corpus("heis3")
    assert centralizer(h, h.full_space()) == center(h)


def test_derived_series_fixtures():
    h = corpus("heis3")
    series = derived_series(h)
    assert [t.dim for t in series.terms] == [3, 1, 0]
    assert solvability_index(h) == 2
    assert solvability_index(corpus("sl2")) is None
    assert solvability_index(corpus("ut", 3)) == 3


def test_lower_central_series_fixtures():
    h = corpus("heis3")
    assert nilpotency_index(h) == 3  # heis3, <z>, 0 in the paper's numbering
    assert nilpotency_index(corpus("aff1")) is None


def test_stable_terms():
    assert stable_derived_term(corpus("heis3")).is_zero()
    assert stable_lower_central_term(corpus("heis3")).is_zero()
    ut3 = corpus("ut", 3)
    sut_part = span(6, (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0))
    assert stable_lower_central_term(ut3) == sut_part
    v2 = corpus("sl2_v2")
    assert stable_derived_term(v2) == v2.full_space()


def test_killing_form_fixtures():
    s = corpus("sl2")  # basis (e, f, h)
    kappa = killing_form(s)
    assert kappa.entry(2, 2) == qq(8)
    assert kappa.entry(0, 1) == qq(4)
    from lierad.liealg import is_killing_nondegenerate
    assert is_killing_nondegenerate(s)
    assert killing_form(abelian(3)).is_zero()
    assert killing_form(corpus("heis3")).is_zero()


def test_derivation_algebra_fixtures():
    s = corpus("sl2")
    ders = derivation_algebra(s)
    assert ders.dim == 3
    ad_span = Subspace.span(9, [ad_matrix(s, s.basis_vector(i)).flatten()
                                for i in range(3)])
    assert ders == ad_span
    assert derivation_algebra(abelian(3)) == Subspace.full(9)
    assert derivation_algebra(corpus("heis3")).dim == 6


def test_is_characteristic_fixtures():
    h = corpus("heis3")
    assert is_characteristic(h, span(3, E3))
    assert is_characteristic(h, h.full_space())
    with pytest.raises(ContractError):
        is_characteristic(h, span(3, E1))  # not an ideal
    # span{y, z} is an ideal, but the derivation exchanging x and y moves it
    assert is_ideal(h, span(3, E2, E3))
    assert not is_characteristic(h, span(3, E2, E3))


def test_subalgebra_and_ideal_predicates():
    h = corpus("heis3")
    assert is_ideal(h, span(3, E1, E3))
    s = corpus("sl2")
    e_line = span(3, E1)
    assert is_subalgebra(s, e_line)
    assert not is_ideal(s, e_line)
    assert is_subalgebra(h, Subspace.zero(3))
    assert is_ideal(h, Subspace.zero(3))


def test_quotient_heis3_by_center():
    h = corpus("heis3")
    q = quotient(h, span(3, E3))
    assert q.quotient.dim == 2
    assert q.quotient == abelian(2)
    # projection o section = identity
    assert q.projection.mul(q.section) == Matrix.identity(2)


def test_quotient_by_zero_is_isomorphic_copy():
    h = corpus("heis3")
    q = quotient(h, Subspace.zero(3))
    assert q.quotient.dim == 3
    assert q.quotient.c == h.c


def test_quotient_is_homomorphism_on_basis_pairs():
    ut3 = corpus("ut", 3)
    ideal = bracket_spaces(ut3, ut3.full_space(), ut3.full_space())
    q = quotient(ut3, ideal)
    for i in range(ut3.dim):
        for j in range(ut3.dim):
            lhs = q.projection.apply(bracket(ut3, ut3.basis_vector(i),
                                             ut3.basis_vector(j)))
            rhs = bracket(q.quotient, q.projection.apply(ut3.basis_vector(i)),
                          q.projection.apply(ut3.basis_vector(j)))
            assert lhs == rhs


def test_quotient_ut2_by_nilradical():
    ut2 = corpus("ut", 2)  # basis E11, E12, E22
    nil = span(3, (1, 0, 1), (0, 1, 0))
    q = quotient(ut2, nil)
    assert q.quotient == abelian(1)


def test_quotient_requires_an_ideal():
    s = corpus("sl2")
    with pytest.raises(ContractError):
        quotient(s, span(3, E1))


def test_operator_semidirect_builds_sl2_v2():
    v2 = corpus("sl2_v2")
    assert v2.dim == 5
    assert validate(v2).ok
    # [h, e] = 2e inside the operator part
    assert bracket(v2, (0, 0, 1, 0, 0), (1, 0, 0, 0, 0)) == \
        (qq(2), qq(0), qq(0), qq(0), qq(0))


def test_direct_product_of_sl2s():
    ss = corpus("sl2sl2")
    assert ss.dim == 6
    assert center(ss).is_zero()
    assert validate(ss).ok


def test_semidirect_with_zero_action_is_direct():
    s = corpus("sl2")
    a2 = abelian(2)
    zero_ops = [Matrix.zeros(2, 2)] * 3
    semi = semidirect_product(s, a2, zero_ops)
    assert semi.c == direct_product([s, a2]).c


def test_semidirect_rejects_bad_action():
    s = corpus("sl2")
    bad = [Matrix.identity(2)] * 3  # not a homomorphism of sl2
    with pytest.raises(ContractError):
        semidirect_product(s, abelian(2), bad)


def test_semidirect_rejects_a_non_derivation_of_a_non_abelian_base():
    # x -> x on heis3 sends [x, y] = z to z, but [x, y] + [x, y] = 2z; on an
    # abelian base every operator is a derivation, so this branch needs one
    with pytest.raises(ContractError,
                       match="action operator is not a derivation of the base"):
        semidirect_product(abelian(1), corpus("heis3"), [Matrix.identity(3)])


def test_ideal_closure_series_heis3_depths():
    h = corpus("heis3")
    terms, depth = ideal_closure_series(h, span(3, E1))
    assert depth == 2
    assert [t.dim for t in terms] == [3, 2, 1]
    ideal = span(3, E1, E3)
    _, depth = ideal_closure_series(h, ideal)
    assert depth == 1
    _, full_depth = ideal_closure_series(h, h.full_space())
    assert full_depth == 0


def test_ideal_closure_series_detects_non_subideals():
    s = corpus("sl2")
    terms, depth = ideal_closure_series(s, span(3, E1))
    assert depth is None
    assert terms[-1] == s.full_space()


def test_diagonal_sl2_in_sl2sl2_is_not_a_subideal():
    # semisimple subideals are ideals; the diagonal is semisimple and not an
    # ideal, so the closure series must stall at the whole algebra
    ss = corpus("sl2sl2")
    diag = span(6, (1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1))
    assert is_subalgebra(ss, diag)
    assert not is_ideal(ss, diag)
    _, depth = ideal_closure_series(ss, diag)
    assert depth is None
    factor = span(6, E1 + (0, 0, 0), E2 + (0, 0, 0), E3 + (0, 0, 0))
    assert is_ideal(ss, factor)
    _, depth = ideal_closure_series(ss, factor)
    assert depth == 1


def test_corpus_wide_core_invariants():
    for name, alg in suite_corpus():
        assert validate(alg).ok, name
        ders = derivation_algebra(alg)
        for i in range(alg.dim):
            assert ders.contains_vector(
                ad_matrix(alg, alg.basis_vector(i)).flatten()), name
        z = center(alg)
        assert is_characteristic(alg, z), name
        assert stable_lower_central_term(alg).contains(
            stable_derived_term(alg)), name


def test_perfect_ideals_are_characteristic():
    # [J,J] = J for an ideal J forces invariance under all derivations
    for expr in ("sl2sl2", "direct(sl2,abelian(2))", "direct(sl2,heis3)"):
        alg = corpus_expr(expr)
        probes = []
        for i in range(alg.dim):
            probes.append(ideal_closure(alg, span_sum(
                Subspace.zero(alg.dim),
                Subspace.span(alg.dim, [alg.basis_vector(i)]))))
        for ideal in probes:
            if bracket_spaces(alg, ideal, ideal) == ideal and not ideal.is_zero():
                assert is_characteristic(alg, ideal), expr


def test_projected_derived_series_matches_quotient_series():
    for name in ("heis3", "ut(3)"):
        alg = corpus_expr(name)
        ideal = center(alg)
        if ideal.is_zero():
            continue
        q = quotient(alg, ideal)
        pushed = [q.push(t) for t in derived_series(alg).terms]
        quotient_terms = list(derived_series(q.quotient).terms)
        for k, term in enumerate(quotient_terms):
            assert pushed[min(k, len(pushed) - 1)] == term, name


def test_structure_tensor_of_the_wrong_shape_is_rejected():
    z = [0, 0]
    with pytest.raises(ValueError, match="structure tensor is not dim x dim"):
        LieAlgebra(2, ["a", "b"], [[z, z]])
    with pytest.raises(ValueError, match="structure tensor is not dim x dim"):
        LieAlgebra(2, ["a", "b"], [[z], [z, z]])
    with pytest.raises(ValueError, match="bracket coordinate vector has wrong length"):
        LieAlgebra(2, ["a", "b"], [[z, [0]], [z, z]])


def all_pairs_restriction(alg: LieAlgebra, space: Subspace):
    """The restriction with every ordered pair bracketed and reduced."""
    m = space.dim
    c = [[space.coords_of(bracket(alg, space.basis.row(i), space.basis.row(j)))
          for j in range(m)] for i in range(m)]
    return LieAlgebra(m, ["s%d" % i for i in range(m)], c), space.basis


def restriction_algebras() -> list:
    algebras = suite_corpus() + list(random_semidirect_products(25, 20260810))
    algebras += [("ut(%d)" % n, corpus("ut", n)) for n in range(2, 7)]
    assert len(algebras) == 46
    return algebras


def test_restriction_equals_the_all_pairs_copy():
    for name, alg in restriction_algebras():
        spaces = [solvable_radical(alg), nilradical(alg),
                  levi_subalgebra(alg).levi]
        spaces += derived_series(alg).terms
        for space in spaces:
            sub, basis = restrict_to_subalgebra(alg, space)
            ref, ref_basis = all_pairs_restriction(alg, space)
            assert sub.dim == ref.dim and sub.c == ref.c, name
            assert basis == ref_basis, name


def test_restricting_to_the_full_space_returns_the_algebra():
    for name, alg in suite_corpus():
        sub, basis = restrict_to_subalgebra(alg, alg.full_space())
        assert sub is alg, name
        assert basis == Matrix.identity(alg.dim), name


def test_restriction_requires_a_subalgebra():
    # span(x, y) in heis3 misses [x, y] = z
    with pytest.raises(ContractError, match="restriction requires a subalgebra"):
        restrict_to_subalgebra(corpus("heis3"), span(3, E1, E2))
    # a line has no pair to bracket, but still needs the right ambient space
    line = span(2, (1, 0))
    with pytest.raises(ValueError, match="does not match algebra dimension"):
        restrict_to_subalgebra(corpus("heis3"), line)
    with pytest.raises(ValueError, match="does not match algebra dimension"):
        bracket_spaces(corpus("heis3"), line, line)


def random_subspace(rng: random.Random, n: int) -> Subspace:
    def entry():
        if rng.random() < 0.4:
            return 0
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))

    d = rng.randint(0, n)
    return Subspace.span(n, [[entry() for _ in range(n)] for _ in range(d)])


def all_pairs_bracket_space(alg: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    return Subspace.span(alg.dim, [bracket(alg, x, y)
                                   for x in u.vectors() for y in v.vectors()])


def equal_copy(space: Subspace) -> Subspace:
    """The same subspace spanned by other vectors, as a different object."""
    copy = Subspace.span(space.ambient_dim, [[3 * x for x in vec]
                                             for vec in reversed(space.vectors())])
    assert copy == space and copy is not space
    return copy


def test_bracket_spaces_equals_the_all_pairs_span():
    rng = random.Random(8)
    algebras = suite_corpus() + list(random_semidirect_products(6, 20260810))
    algebras.append(("ut(4)", corpus("ut", 4)))
    for name, alg in algebras:
        full = alg.full_space()
        assert (bracket_spaces(alg, full, full)
                == all_pairs_bracket_space(alg, full, full)), name
        for _ in range(4):
            u = random_subspace(rng, alg.dim)
            v = random_subspace(rng, alg.dim)
            # an equal subspace from other generators, not the same object
            u2 = Subspace.span(alg.dim, [[2 * x for x in vec]
                                         for vec in reversed(u.vectors())])
            assert u2 == u and u2 is not u
            for x, y in ((u, u), (u, u2), (u, v), (v, u), (full, u)):
                assert (bracket_spaces(alg, x, y)
                        == all_pairs_bracket_space(alg, x, y)), name


def test_each_pair_is_bracketed_once(monkeypatch):
    calls = []

    def counting_bracket(algebra, u, v):
        calls.append((u, v))
        return bracket(algebra, u, v)

    alg = corpus("ut", 4)
    nil = nilradical(alg)
    m = nil.dim
    monkeypatch.setattr(liealg, "bracket", counting_bracket)
    # nilradical has already formed [N, N]: count from an empty memo
    bracket_spaces.cache_clear()
    bracket_spaces(alg, nil, nil)
    assert len(calls) == m * (m - 1) // 2
    del calls[:]
    bracket_spaces.cache_clear()
    bracket_spaces(alg, nil, alg.full_space())
    assert len(calls) == m * alg.dim
    del calls[:]
    restrict_to_subalgebra(alg, nil)
    assert len(calls) == m * (m - 1) // 2
    del calls[:]
    restrict_to_subalgebra(alg, alg.full_space())
    assert calls == []


def test_the_bracket_spaces_memo_is_transparent():
    # the products an analysis forms, among 0, L, [L, L], rad, nilrad, the
    # center and [L, rad]; each memo hit, also for equal subspaces built
    # from other generators, is the value computed afresh
    algebras = suite_corpus() + [("ut(%d)" % n, corpus("ut", n)) for n in range(3, 7)]
    algebras += list(random_semidirect_products(25, 20260810))
    assert len(algebras) == 45
    for name, alg in algebras:
        full = alg.full_space()
        rad = solvable_radical(alg)
        spaces = {alg.zero_space(), full, bracket_spaces(alg, full, full), rad,
                  nilradical(alg), center(alg), bracket_spaces(alg, full, rad)}
        for u in spaces:
            for v in spaces:
                first = bracket_spaces(alg, u, v)
                hits = bracket_spaces.cache_info().hits
                again = bracket_spaces(alg, equal_copy(u), equal_copy(v))
                assert again is first
                assert bracket_spaces.cache_info().hits == hits + 1
                assert again == bracket_spaces.__wrapped__(alg, u, v), name
                assert again == all_pairs_bracket_space(alg, u, v), name


def test_a_cold_analysis_of_ut5_brackets_at_most_2000_pairs(monkeypatch):
    # every binding of bracket, in liealg and in modules, counted from the
    # empty memo caches each test starts with (tests/conftest.py)
    calls = []

    def counting_bracket(algebra, u, v):
        calls.append(None)
        return bracket(algebra, u, v)

    monkeypatch.setattr(liealg, "bracket", counting_bracket)
    monkeypatch.setattr(modules, "bracket", counting_bracket)
    report = analyze(corpus("ut", 5), name="ut(5)")
    assert len(report["nilradical"]) == 11
    assert 0 < len(calls) <= 2000


def all_derivations_preserve(alg: LieAlgebra, ideal: Subspace) -> bool:
    """is_characteristic by applying every basis vector of Der(L)."""
    for flat in derivation_algebra(alg).vectors():
        op = matrix_from_flat(flat, alg.dim, alg.dim)
        if not all(ideal.contains_vector(op.apply(v)) for v in ideal.vectors()):
            return False
    return True


def audit_ideals(alg: LieAlgebra) -> list:
    """The ideal closures of the basis vectors and the audited radicals."""
    ideals = [ideal_closure(alg, Subspace.span(alg.dim, [alg.basis_vector(i)]))
              for i in range(alg.dim)]
    ideals += [solvable_radical(alg), nilradical(alg), center(alg),
               jacobson_ideal(alg), levi_radical(alg)]
    est = frattini_ideal(alg)
    if est.exact:
        ideals.append(est.value)
    return ideals


def test_is_characteristic_matches_the_full_derivation_basis():
    answers = []
    for name, alg in suite_corpus() + list(random_semidirect_products(25, 20260810)):
        for ideal in audit_ideals(alg):
            got = is_characteristic(alg, ideal)
            assert got == all_derivations_preserve(alg, ideal), name
            answers.append(got)
    assert True in answers and False in answers


def test_outer_derivations_complete_the_inner_ones():
    for name, alg in suite_corpus() + list(random_semidirect_products(25, 20260810)):
        n = alg.dim
        ders = derivation_algebra(alg)
        outer = outer_derivations(alg)
        inner = [ad_matrix(alg, alg.basis_vector(i)).flatten() for i in range(n)]
        assert Subspace.span(n * n, inner + list(outer)) == ders, name
        assert len(outer) == ders.dim - (n - center(alg).dim), name


def test_zero_and_the_whole_algebra_skip_the_derivations(monkeypatch):
    def no_derivations(algebra):
        raise AssertionError("Der(L) computed for 0 or L")

    def no_brackets(algebra, u, v):
        raise AssertionError("bracketed for 0 or L")

    monkeypatch.setattr(liealg, "derivation_algebra", no_derivations)
    monkeypatch.setattr(liealg, "bracket_spaces", no_brackets)
    for name, alg in suite_corpus():
        for space in (alg.zero_space(), alg.full_space()):
            assert is_subalgebra(alg, space), name
            assert is_ideal(alg, space), name
            assert is_characteristic(alg, space), name
    h = corpus("heis3")
    for check in (is_subalgebra, is_ideal, is_characteristic):
        for space in (Subspace.zero(2), Subspace.full(4)):
            with pytest.raises(ValueError, match="does not match algebra dimension"):
                check(h, space)


def all_pairs_quotient(alg: LieAlgebra, ideal: Subspace) -> LieAlgebra:
    """The quotient with every ordered pair bracketed and projected."""
    free = [j for j in range(alg.dim) if j not in ideal.pivots]

    def project(vec):
        v = ideal.reduce(vec)
        return [v[j] for j in free]

    c = [[project(bracket(alg, alg.basis_vector(i), alg.basis_vector(j)))
          for j in free] for i in free]
    return LieAlgebra(len(free), [alg.labels[j] + "~" for j in free], c)


def test_quotient_equals_the_all_pairs_copy():
    for name, alg in restriction_algebras():
        ideals = [solvable_radical(alg), nilradical(alg), center(alg),
                  alg.zero_space(), alg.full_space()]
        ideals += derived_series(alg).terms
        for ideal in ideals:
            q = quotient(alg, ideal)
            ref = all_pairs_quotient(alg, ideal)
            assert q.quotient.c == ref.c and q.quotient.labels == ref.labels, name
            for i in range(alg.dim):
                assert q.projection.column(i) == tuple(
                    ideal.reduce(alg.basis_vector(i))[j] for j in range(alg.dim)
                    if j not in ideal.pivots), name


def test_quotient_projects_each_pair_once(monkeypatch):
    alg = corpus("ut", 4)
    ideal = center(alg)
    m = alg.dim - ideal.dim
    calls = []
    real_reduce = Subspace.reduce

    def counting_reduce(self, vec):
        calls.append(vec)
        return real_reduce(self, vec)

    monkeypatch.setattr(liealg, "is_ideal", lambda algebra, space: True)
    monkeypatch.setattr(Subspace, "reduce", counting_reduce)
    quotient(alg, ideal)
    # each basis vector once, then each pair i < j of the quotient basis
    assert len(calls) == alg.dim + m * (m - 1) // 2
