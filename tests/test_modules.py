"""Envelopes, trace radicals, submodule search and splitting."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

import lierad.frattini as frattini_module
import lierad.modules as modules_module
from lierad.acceptance import random_semidirect_products
from lierad.corpus import corpus, suite_corpus
from lierad.frattini import is_frattini_free
from lierad.liealg import (
    ContractError,
    LieAlgebra,
    ad_of_basis,
    bracket_spaces,
    embed_subspace,
    is_ideal,
    restrict_to_subalgebra,
)
from lierad.linalg import (
    Matrix,
    SpanBuilder,
    Subspace,
    inverse,
    matrix_from_flat,
    nullspace_matrix,
    qq,
)
from lierad.modules import (
    Action,
    _poly_of_matrix,
    associative_envelope,
    centroid,
    commutant,
    decompose_module,
    direct_summands,
    find_proper_submodule,
    is_completely_reducible,
    minimal_polynomial,
    probe_matrices,
    restricted_ad_action,
    spin,
    split_over_abelian_ideal,
    trace_radical,
)
from lierad.polys import factor_rational_poly, poly_mul
from lierad.radicals import nilradical
from lierad.reports import analyze


def span(n, *vectors):
    return Subspace.span(n, [[qq(x) for x in v] for v in vectors])


def ad_action(algebra) -> Action:
    return Action(algebra.dim, ad_of_basis(algebra))


def diag(*entries):
    n = len(entries)
    return Matrix([[entries[i] if i == j else 0 for j in range(n)]
                   for i in range(n)])


def test_envelope_of_zero_action_is_scalars():
    env = associative_envelope(Action(2, (Matrix.zeros(2, 2),)))
    assert len(env.basis) == 1
    assert env.basis[0] == Matrix.identity(2)


def closure_with_identity_generator(action: Action) -> tuple:
    """The envelope closure with the identity among the generators.

    Reference for ``associative_envelope``, which leaves the identity out of
    the generators because its products add nothing to the span.
    """
    n = action.carrier_dim
    builder = SpanBuilder(n * n)
    mats = []
    for cand in (Matrix.identity(n),) + tuple(action.operators):
        if builder.add(cand.flatten()):
            mats.append(cand)
    gens = list(mats)
    frontier = list(mats)
    while frontier:
        m = frontier.pop()
        for g in gens:
            for prod in (m.mul(g), g.mul(m)):
                if builder.add(prod.flatten()):
                    mats.append(prod)
                    frontier.append(prod)
    return tuple(mats)


def test_envelope_basis_is_the_closure_with_identity_generator():
    algebra = dict(random_semidirect_products(25, 20260810))["sl2-natural#10"]
    change = Matrix([[1, Fraction(1, 2), 0, 0, 3],
                     [0, 1, Fraction(-2, 3), 0, 0],
                     [0, 0, 1, Fraction(5, 7), 0],
                     [0, 0, 0, 1, 1],
                     [0, 0, 0, 0, 2]])
    back = inverse(change)
    conjugated = Action(5, tuple(back.mul(op).mul(change)
                                 for op in ad_action(algebra).operators))
    assert any(type(x) is Fraction
               for op in conjugated.operators for row in op.data for x in row)
    # a single 3x3 nilpotent Jordan block: the envelope is span(I, J, J^2),
    # so a closure that skips the first generator's own products stops at 2
    jordan3 = Action(3, (Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),))
    assert len(associative_envelope(jordan3).basis) == 3
    for action in (ad_action(corpus("ut", 4)), conjugated, jordan3,
                   Action(2, (Matrix.zeros(2, 2),)), Action(0, ())):
        assert associative_envelope(action).basis == \
            closure_with_identity_generator(action)


def test_envelope_of_heis3_adjoint():
    # ad(heis3) spans two commuting square-zero matrices; all products
    # vanish, so the unital envelope is 3-dimensional and its trace radical
    # is the whole non-identity part.
    env = associative_envelope(ad_action(corpus("heis3")))
    assert len(env.basis) == 3
    radical = trace_radical(env)
    assert radical.dim == 2
    identity_coords = None
    for k, b in enumerate(env.basis):
        if b == Matrix.identity(3):
            identity_coords = k
    assert identity_coords is not None
    for coords in radical.vectors():
        assert coords[identity_coords] == 0


def test_envelope_of_natural_sl2_is_full_matrix_algebra():
    ops = (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]), diag(1, -1))
    env = associative_envelope(Action(2, ops))
    assert len(env.basis) == 4
    assert trace_radical(env).is_zero()


def test_trace_radical_nilpotency_certificate_fires(monkeypatch):
    # the candidate is the kernel of the trace form; replace it with every
    # envelope coordinate, which spans the identity and so is not nilpotent
    natural_sl2 = Action(2, (Matrix([[0, 1], [0, 0]]),
                             Matrix([[0, 0], [1, 0]]), diag(1, -1)))
    for action in (natural_sl2, ad_action(corpus("heis3"))):
        env = associative_envelope(action)
        honest = trace_radical(env)
        assert honest.dim < len(env.basis)
        with monkeypatch.context() as patch:
            patch.setattr(modules_module, "nullspace_matrix",
                          lambda m: Matrix.identity(m.cols))
            with pytest.raises(AssertionError,
                               match="trace radical failed its nilpotency certificate"):
                trace_radical(env)
        assert trace_radical(env) == honest


def test_trace_radical_of_scalars_is_zero():
    env = associative_envelope(Action(2, ()))
    assert trace_radical(env).is_zero()


def test_complete_reducibility_fixtures():
    assert is_completely_reducible(Action(2, (diag(1, 2),)))
    jordan = Matrix([[0, 1], [0, 0]])
    assert not is_completely_reducible(Action(2, (jordan,)))
    assert is_completely_reducible(Action(2, (Matrix.zeros(2, 2),)))


def test_minimal_polynomial_fixtures():
    assert minimal_polynomial(Matrix.identity(3)) == [qq(-1), qq(1)]
    assert minimal_polynomial(diag(1, 2)) == [qq(2), qq(-3), qq(1)]
    jordan = Matrix([[0, 1], [0, 0]])
    assert minimal_polynomial(jordan) == [qq(0), qq(0), qq(1)]


def test_find_proper_submodule_eigenline_with_tiebreak():
    found = find_proper_submodule(Action(2, (diag(1, 2),)))
    assert found == span(2, (1, 0))


def test_find_proper_submodule_none_for_irreducible():
    ops = (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]), diag(1, -1))
    assert find_proper_submodule(Action(2, ops)) is None


def sym_power_of_natural_sl2(k: int) -> Action:
    """sl2 = span(e, f, h) on Sym^k(Q^2), basis x^(k-a) y^a for a = 0..k."""
    n = k + 1
    e = Matrix([[a + 1 if b == a + 1 else 0 for b in range(n)] for a in range(n)])
    f = Matrix([[k - b if a == b + 1 else 0 for b in range(n)] for a in range(n)])
    return Action(n, (e, f, diag(*[k - 2 * a for a in range(n)])))


def test_full_envelope_certifies_irreducible_sym_powers():
    for k in range(1, 5):
        action = sym_power_of_natural_sl2(k)
        n = action.carrier_dim
        assert len(associative_envelope(action).basis) == n * n, k
        assert find_proper_submodule(action) is None, k


def test_envelope_one_short_of_full_still_probes():
    # the Borel subalgebra of gl2 on Q^2: its envelope is the upper
    # triangular matrices, dimension n^2 - 1, and it fixes the line e1
    borel = Action(2, (diag(1, 0), Matrix([[0, 1], [0, 0]]), diag(0, 1)))
    assert len(associative_envelope(borel).basis) == 3
    assert find_proper_submodule(borel) == span(2, (1, 0))


def test_rotation_is_irreducible_without_a_full_envelope():
    # irreducible over Q (x^2 + 1 has no rational root), envelope Q(i) of
    # dimension 2 < 4, so "none found" comes from the probe search
    rotation = Action(2, (Matrix([[0, -1], [1, 0]]),))
    assert len(associative_envelope(rotation).basis) == 2
    assert find_proper_submodule(rotation) is None


def random_actions(seed: int, count: int) -> list:
    """Seeded actions with larger commutants: direct sums of random blocks,
    a block repeated (so End holds a matrix algebra), conjugated by a random
    integral change of basis."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sizes = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            sizes.append(sizes[0])
        n = sum(sizes)
        change = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        try:
            back = inverse(change)
        except ValueError:
            continue
        ops = []
        for _ in range(rng.randint(1, 3)):
            blocks = [[[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
                      for d in sizes]
            if len(sizes) > 1 and sizes[-1] == sizes[0]:
                blocks[-1] = blocks[0]
            op = [[0] * n for _ in range(n)]
            at = 0
            for block in blocks:
                for i, row in enumerate(block):
                    op[at + i][at:at + len(row)] = row
                at += len(block)
            ops.append(back.mul(Matrix(op)).mul(change))
        out.append(Action(n, tuple(ops)))
    return out


def probe_matrices_reference(mats) -> list:
    """Every matrix, then a + b and a - b for each pair among the first 8:
    the probe set before scalar matrices and their shifts were left out."""
    probes = list(mats)
    limit = min(len(mats), 8)
    for i in range(limit):
        for j in range(i + 1, limit):
            probes += [mats[i].add(mats[j]), mats[i].sub(mats[j])]
    return probes


def searched_factors(probes):
    """Each probe whose minimal polynomial has degree at least 2, with its
    distinct irreducible factors and their multiplicities: the probes the
    searches used before scalar probes were left out."""
    for probe in probes:
        minpoly = minimal_polynomial(probe)
        if len(minpoly) > 2:
            _, factors = factor_rational_poly(minpoly)
            yield probe, Counter(map(tuple, factors))


def probe_kernels(probes) -> set:
    """The kernels of f(probe) and f^m(probe), over each probe of
    ``searched_factors`` and each factor f of multiplicity m: the seeds of
    the submodule search and the parts of the ideal split."""
    kernels = set()
    for probe, factors in searched_factors(probes):
        for f, mult in factors.items():
            for power in (f, reduce(poly_mul, [f] * mult)):
                kernel = nullspace_matrix(_poly_of_matrix(power, probe))
                kernels.add(Subspace.span(probe.rows, kernel.data))
    return kernels


def candidate_search_spinning_whole_kernels(action: Action):
    """The submodule search that also spins each whole kernel and spins a
    kernel vector again for every probe and repeated factor it turns up in,
    over every probe of ``probe_matrices_reference``, scalar ones and their
    shifts included: the reference the one-spin-per-vector search over the
    pruned probes must agree with."""
    n = action.carrier_dim
    envelope = associative_envelope(action)
    if len(envelope.basis) == n * n:
        return None
    candidates = []

    def consider(space):
        if 0 < space.dim < n:
            candidates.append(space)

    for probe in probe_matrices_reference(envelope.basis):
        minpoly = minimal_polynomial(probe)
        _, factors = factor_rational_poly(minpoly)
        if len(factors) <= 1 and len(minpoly) - 1 <= 1:
            continue
        for f in factors:
            kernel = nullspace_matrix(_poly_of_matrix(f, probe))
            if kernel.rows:
                consider(spin(action, kernel.data))
                for vec in kernel.data:
                    consider(spin(action, [vec]))
    for k in range(n):
        consider(spin(action, [Matrix.identity(n).row(k)]))
    return min(candidates, key=lambda s: s.sort_key()) if candidates else None


def nilradical_actions_of_frattini_free_benchmark_algebras() -> list:
    algebras = [alg for _, alg in suite_corpus()]
    algebras += [alg for _, alg in random_semidirect_products(25, 20260810)]
    algebras += [corpus("ut", n) for n in (4, 5, 6)]
    actions = []
    for alg in algebras:
        if is_frattini_free(alg):
            nil = nilradical(alg)
            complement = split_over_abelian_ideal(alg, nil)
            actions.append(restricted_ad_action(alg, complement.vectors(), nil))
    return actions


# In these random actions the probes' minimal polynomials keep
# polys._kronecker_factor busy for 17 s to over 3 min, in either search
WAITING_ON_FACTORIZATION = (13, 18, 25, 28, 34, 37, 39)


def submodule_search_actions() -> list:
    """The seeded random actions that factor quickly, the irreducible
    symmetric powers, small fixtures and the Frattini-free nilradical
    actions."""
    rotation = [[0, -1], [1, 0]]
    actions = [a for i, a in enumerate(random_actions(20260810, 40))
               if i not in WAITING_ON_FACTORIZATION]
    actions += [sym_power_of_natural_sl2(k) for k in range(1, 5)]
    actions += [
        Action(2, (Matrix(rotation),)),
        Action(2, (Matrix([[0, 1], [0, 0]]),)),
        Action(2, (Matrix([[2, 1], [0, 2]]),)),
        Action(3, (Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),)),
        Action(3, (Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 5]]),)),
        Action(4, (Matrix([r + [0, 0] for r in rotation]
                          + [[0, 0, 3, 1], [0, 0, 0, 3]]),)),
    ]
    frattini_free = nilradical_actions_of_frattini_free_benchmark_algebras()
    assert len(frattini_free) > 20
    return actions + frattini_free


def test_find_proper_submodule_agrees_with_spinning_whole_kernels():
    outcomes = set()
    for i, action in enumerate(submodule_search_actions()):
        expected = candidate_search_spinning_whole_kernels(action)
        assert find_proper_submodule(action) == expected, i
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_pruned_probes_find_the_kernels_of_the_full_probe_list():
    # a full envelope certifies irreducibility before any probe is formed
    left_out = 0
    for i, action in enumerate(submodule_search_actions()):
        basis = associative_envelope(action).basis
        if len(basis) == action.carrier_dim ** 2:
            continue
        pruned = probe_matrices(basis)
        assert all(len(minimal_polynomial(p)) > 2 for p in pruned), i
        reference = probe_matrices_reference(basis)
        left_out += len(reference) - len(pruned)
        assert probe_kernels(pruned) == probe_kernels(reference), i
    assert left_out > 0


def test_a_cold_analysis_forms_few_minimal_polynomials_and_envelopes(
        monkeypatch, clear_memo_caches):
    # counted through the modules bindings, every memo cache cleared before
    # each algebra; probing scalar matrices and their shifts, and forming
    # each decomposed action's envelope twice, takes 156 and 69
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("minimal_polynomial", "associative_envelope"):
        monkeypatch.setattr(modules_module, name,
                            counting(name, getattr(modules_module, name)))
    for name, algebra in suite_corpus() + random_semidirect_products(25, 20260810):
        clear_memo_caches()
        analyze(algebra, name=name)
    assert 0 < counts["minimal_polynomial"] <= 60
    assert 0 < counts["associative_envelope"] <= 50


def test_commutant_is_the_algebra_of_equivariant_maps():
    actions = random_actions(20260810, 20)
    actions += [sym_power_of_natural_sl2(k) for k in range(1, 5)]
    actions += [Action(3, ()), Action(0, ()), ad_action(corpus("heis3"))]
    assert any(commutant(a).dim > 2 for a in actions)
    for action in actions:
        n = action.carrier_dim
        end = commutant(action)
        assert end.contains_vector(Matrix.identity(n).flatten())
        mats = [matrix_from_flat(v, n, n) for v in end.vectors()]
        for t in mats:
            for op in action.operators:
                assert t.mul(op) == op.mul(t)
            for u in mats:
                assert end.contains_vector(t.mul(u).flatten())
        if n and len(associative_envelope(action).basis) == n * n:
            assert end.dim == 1


def test_commutant_of_a_repeated_block_is_a_matrix_algebra():
    # Q^2 + Q^2 with the same irreducible rotation on both: End = M_2(Q(i))
    r = [[0, -1], [1, 0]]
    op = Matrix([row + [0, 0] for row in r] + [[0, 0] + row for row in r])
    assert commutant(Action(4, (op,))).dim == 8
    assert commutant(Action(3, ())) == Subspace.full(9)


def test_probe_matrices_pairs_the_first_eight():
    # diag(0, 1) + diag(1, 0) = I is the one scalar probe, and is left out
    mats = [diag(k, 1 - k) for k in range(10)]
    probes = probe_matrices(mats)
    assert len(probes) == 10 + 2 * 28 - 1
    assert probes[:12] == mats + [mats[0].sub(mats[1]), mats[0].add(mats[2])]
    assert probes[-2:] == [mats[6].add(mats[7]), mats[6].sub(mats[7])]
    assert probe_matrices(mats[:2]) == mats[:2] + probes[10:11]


def test_probe_matrices_leave_out_scalars_and_their_shifts():
    jordan = Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 5]])
    rotation = Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    scalar, e1, e23 = diag(3, 3, 3), diag(1, 0, 0), diag(0, 1, 1)
    # the scalar comes second, and e1 + e23 = I
    mats = [jordan, scalar, e23, e1, rotation]
    pruned = probe_matrices(mats)
    kept = [jordan, e23, e1, rotation]
    assert pruned == kept + [
        jordan.add(e23), jordan.sub(e23), jordan.add(e1), jordan.sub(e1),
        jordan.add(rotation), jordan.sub(rotation), e23.sub(e1),
        e23.add(rotation), e23.sub(rotation), e1.add(rotation), e1.sub(rotation)]
    reference = probe_matrices_reference(mats)
    assert len(reference) == 5 + 2 * 10
    assert all(len(minimal_polynomial(p)) > 2 for p in pruned)
    assert probe_kernels(pruned) == probe_kernels(reference)
    # scalars alone, the zero matrix included, leave nothing to probe
    assert probe_matrices([Matrix.zeros(2, 2), diag(7, 7)]) == []
    assert probe_matrices([Matrix([], cols=0)] * 3) == []


def ideal_split_reference(algebra: LieAlgebra):
    """``_find_ideal_split`` over ``probe_matrices_reference``: the primary
    components of the first centroid probe that splits L into ideals."""
    n = algebra.dim
    cent = [matrix_from_flat(v, n, n) for v in centroid(algebra).vectors()]
    for probe, factors in searched_factors(probe_matrices_reference(cent)):
        if len(factors) < 2:
            continue
        parts = []
        for f, mult in factors.items():
            power = reduce(poly_mul, [f] * mult)
            kernel = nullspace_matrix(_poly_of_matrix(power, probe))
            parts.append(Subspace.span(n, kernel.data))
        if sum(p.dim for p in parts) == n and all(is_ideal(algebra, p) for p in parts):
            return parts
    return None


def direct_summands_reference(algebra: LieAlgebra) -> tuple:
    """``direct_summands`` with each split probing the reference list."""
    if algebra.dim == 0:
        return ()
    split = ideal_split_reference(algebra)
    if split is None:
        return (algebra.full_space(),)
    parts = []
    for part in split:
        part_alg, part_basis = restrict_to_subalgebra(algebra, part)
        parts += [embed_subspace(part_basis, p) for p in direct_summands_reference(part_alg)]
    return tuple(sorted(parts, key=lambda s: s.sort_key()))


def test_direct_summands_agree_with_a_split_over_the_reference_probes():
    algebras = [alg for _, alg in suite_corpus()]
    algebras += [corpus("ut", n) for n in range(3, 7)]
    algebras += [alg for _, alg in random_semidirect_products(25, 20260810)]
    split = 0
    for alg in algebras:
        expected = direct_summands_reference(alg)
        assert direct_summands(alg) == expected, alg
        split += len(expected) > 1
    assert split > 5


def test_both_splitters_draw_from_probe_matrices(monkeypatch):
    # both draw, one probe at a time, from the generator that
    # probe_matrices lists
    seen = []
    probes = modules_module._probes

    def spy(mats):
        seen.append(len(mats))
        return probes(mats)

    monkeypatch.setattr(modules_module, "_probes", spy)
    assert find_proper_submodule(Action(2, (diag(1, 2),))) == span(2, (1, 0))
    assert seen == [2]
    frattini_module.direct_summands.cache_clear()
    assert len(frattini_module.direct_summands(corpus("abelian", 2))) == 2
    # the centroid of abelian(2) is M_2(Q)
    assert seen[1] == 4


def test_a_cold_split_of_ut6_forms_few_matrix_sums(monkeypatch):
    # the split search forms a probe only when the ones before it did not
    # split.  ut(6) splits at the first basis element of its 7-dim centroid,
    # so the 30 sums and differences of pairs are never formed; the 3 sums
    # left are the Horner steps that evaluate its two factors.  Forming
    # every probe first took 45
    formed = Counter()

    def counting(name, fn):
        def counted(self, other):
            formed[name] += 1
            return fn(self, other)
        return counted

    for name in ("add", "sub"):
        monkeypatch.setattr(Matrix, name, counting(name, getattr(Matrix, name)))
    assert [p.dim for p in direct_summands(corpus("ut", 6))] == [1, 20]
    assert sum(formed.values()) <= 3


def test_find_proper_submodule_zero_action():
    assert find_proper_submodule(Action(2, ())) == span(2, (1, 0))


def test_find_proper_submodule_jordan_block():
    jordan = Matrix([[0, 1], [0, 0]])
    assert find_proper_submodule(Action(2, (jordan,))) == span(2, (1, 0))


def test_spin_grows_invariant_subspace():
    ops = (Matrix([[0, 1], [0, 0]]),)
    grown = spin(Action(2, ops), [(0, 1)])
    assert grown == Subspace.full(2)
    assert spin(Action(2, ops), [(1, 0)]) == span(2, (1, 0))


def test_decompose_module_fixtures():
    parts = decompose_module(Action(2, (diag(1, 2),)))
    assert parts == (span(2, (1, 0)), span(2, (0, 1)))
    ops = (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]), diag(1, -1))
    assert decompose_module(Action(2, ops)) == (Subspace.full(2),)
    lines = decompose_module(Action(3, ()))
    assert [p.dim for p in lines] == [1, 1, 1]
    total = Subspace.zero(3)
    from lierad.linalg import span_sum, span_intersect
    for i, p in enumerate(lines):
        for q in lines[i + 1:]:
            assert span_intersect(p, q).is_zero()
        total = span_sum(total, p)
    assert total.is_full()


def test_decompose_module_rejects_non_semisimple():
    jordan = Matrix([[0, 1], [0, 0]])
    with pytest.raises(ContractError):
        decompose_module(Action(2, (jordan,)))


def test_split_over_abelian_ideal_heis3_fails():
    h = corpus("heis3")
    assert split_over_abelian_ideal(h, span(3, (0, 0, 1))) is None


def test_split_over_abelian_ideal_aff1():
    a = corpus("aff1")  # basis (h, x)
    found = split_over_abelian_ideal(a, span(2, (0, 1)))
    assert found == span(2, (1, 0))


def test_split_over_abelian_ideal_sl2_v2():
    v2 = corpus("sl2_v2")
    x = span(5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    found = split_over_abelian_ideal(v2, x)
    assert found == span(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))


def test_split_certificate_fires_on_a_perturbed_solution(monkeypatch):
    # sl2 acts irreducibly on V = Q^2, so the complements of V are the
    # conjugates of sl2; moving one coordinate of the correcting map off its
    # solution gives a span of three vectors that is not closed
    v2 = corpus("sl2_v2")
    x = span(5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    real_solve = modules_module.solve

    def perturbed(rows, rhs, ncols):
        sol = real_solve(rows, rhs, ncols)
        return (sol[0] + 1,) + sol[1:]

    monkeypatch.setattr(modules_module, "solve", perturbed)
    with pytest.raises(AssertionError, match="split produced a non-subalgebra"):
        split_over_abelian_ideal(v2, x)


def test_probe_certificate_fires_when_spin_drops_an_operator(monkeypatch):
    # natural sl2 plus a trivial line: the envelope M_2(Q) + Q has dimension
    # 5 < 9, so the probes run; spun without e, the line of e_2 is proper
    # but e maps it to the line of e_1
    e = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    f = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    action = Action(3, (e, f, diag(1, -1, 0)))
    assert find_proper_submodule(action) in (span(3, (0, 0, 1)),
                                             span(3, (1, 0, 0), (0, 1, 0)))
    real_closure = modules_module.closure

    def without_first_map(dim, seeds, maps=(), flat=None):
        # spin passes vectors (no flat) and one map per operator
        return real_closure(dim, seeds, maps if flat else maps[1:], flat)

    monkeypatch.setattr(modules_module, "closure", without_first_map)
    assert spin(action, [(0, 1, 0)]) == span(3, (0, 1, 0))
    with pytest.raises(AssertionError, match="probe produced a non-invariant subspace"):
        find_proper_submodule(action)


def test_split_requires_abelian_ideal():
    h = corpus("heis3")
    with pytest.raises(ContractError):
        split_over_abelian_ideal(h, h.full_space())  # heis3 is not abelian
    s = corpus("sl2")
    with pytest.raises(ContractError):
        split_over_abelian_ideal(s, span(3, (1, 0, 0)))  # not an ideal


def test_weyl_on_levi_action():
    # the Levi part of sl2_v2 acts completely reducibly on its radical
    v2 = corpus("sl2_v2")
    levi = span(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
    radical = span(5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    action = restricted_ad_action(v2, levi.vectors(), radical)
    assert is_completely_reducible(action)
    assert decompose_module(action) == (Subspace.full(2),)


def test_restricted_ad_action_rejects_a_non_invariant_carrier():
    # the Levi part of sl2_v2 moves the line through its first basis vector
    v2 = corpus("sl2_v2")
    levi = span(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
    with pytest.raises(ContractError):
        restricted_ad_action(v2, levi.vectors(), span(5, (0, 0, 0, 1, 0)))


def test_nilpotent_action_trace_radical_is_nonidentity_part():
    for name in ("heis3", "sut(4)"):
        from lierad.corpus import corpus_expr
        alg = corpus_expr(name)
        env = associative_envelope(ad_action(alg))
        radical = trace_radical(env)
        assert radical.dim == len(env.basis) - 1
