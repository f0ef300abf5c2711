"""Envelopes, trace radicals, submodule search and splitting."""

from __future__ import annotations

from fractions import Fraction

import pytest

from lierad.acceptance import random_semidirect_products
from lierad.corpus import corpus
from lierad.liealg import ContractError, bracket_spaces
from lierad.linalg import (
    Matrix,
    SpanBuilder,
    Subspace,
    inverse,
    matrix_from_flat,
    qq,
)
from lierad.modules import (
    Action,
    ad_action,
    associative_envelope,
    decompose_module,
    find_proper_submodule,
    is_completely_reducible,
    minimal_polynomial,
    restricted_ad_action,
    spin,
    split_over_abelian_ideal,
    trace_radical,
)


def span(n, *vectors):
    return Subspace.span(n, [[qq(x) for x in v] for v in vectors])


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
    for action in (ad_action(corpus("ut", 4)), conjugated,
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


def test_split_requires_abelian_ideal():
    h = corpus("heis3")
    with pytest.raises(ContractError):
        split_over_abelian_ideal(h, h.full_space())  # heis3 is not abelian
    s = corpus("sl2")
    with pytest.raises(ContractError):
        split_over_abelian_ideal(s, span(3, (1, 0, 0)))  # not an ideal


def test_action_validates_bracket_compatibility():
    s = corpus("sl2")
    bad_ops = (Matrix.identity(2),) * 3
    with pytest.raises(ContractError):
        Action(2, bad_ops, source=s)


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
