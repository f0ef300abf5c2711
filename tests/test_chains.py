"""Subspace-family combinatorics: completions, gaps, chains, delta."""

from __future__ import annotations

import random

import pytest

from lierad import chains
from lierad.chains import (
    DEFAULT_COMPLETION_BOUND,
    FamilySizeError,
    SubspaceFamily,
    delta,
    family_join,
    family_meet,
    is_lower_finite_gap,
    is_lower_finite_gap_modulo,
    is_upper_finite_gap,
    maximal_lower_finite_gap_chain,
    p_completion,
    s_completion,
)
from lierad.linalg import Subspace, qq, span_intersect, span_sum

SEED = 20260810


def span(n, *vectors):
    return Subspace.span(n, [[qq(x) for x in v] for v in vectors])


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
P12 = lambda: span(3, E1, E2)
P23 = lambda: span(3, E2, E3)
P13 = lambda: span(3, E1, E3)


def family(ambient, *members):
    return SubspaceFamily.of(ambient, members)


def test_meet_join_conventions():
    empty = family(3)
    assert family_meet(empty) == Subspace.full(3)
    assert family_join(empty).is_zero()
    two = family(3, P12(), P23())
    assert family_meet(two) == span(3, E2)
    assert family_join(two) == Subspace.full(3)
    single = family(3, span(3, E1))
    assert family_meet(single) == family_join(single) == span(3, E1)


def test_p_completion_adds_meets_and_join():
    completed = p_completion(family(3, P12(), P23()))
    assert span(3, E2) in completed
    assert Subspace.full(3) in completed
    assert len(completed) == 4


def test_p_completion_of_chain_is_itself():
    # chain meets are members and the join is the top
    chain = family(3, span(3, E1), P12())
    assert p_completion(chain) == chain


def test_p_completion_of_empty_family_is_the_join():
    completed = p_completion(family(3))
    assert list(completed.members) == [Subspace.zero(3)]
    assert s_completion(family(3)).members == (Subspace.full(3),)


def test_completion_idempotence():
    fam = family(3, P12(), P23(), span(3, (1, 1, 1)))
    once = p_completion(fam)
    assert p_completion(once) == once
    s_once = s_completion(fam)
    assert s_completion(s_once) == s_once


def test_completion_bound_is_enforced():
    members = [span(5, tuple(1 if i == j else 0 for i in range(5)))
               for j in range(5)]
    fam = family(5, *members)
    with pytest.raises(FamilySizeError):
        p_completion(fam, bound=3)
    assert len(p_completion(fam, bound=DEFAULT_COMPLETION_BOUND)) > 0


def test_completions_make_at_most_n_times_output_combines(monkeypatch):
    # a nested flag of 16 members in Q^16 is its own p- and s-completion;
    # combining every nonempty subfamily would take 65,535 combines
    n = 16
    flag = family(n, *[span(n, *[tuple(int(i == j) for i in range(n)) for j in range(k)])
                       for k in range(1, n + 1)])
    calls = []
    for name in ("span_intersect", "span_sum"):
        monkeypatch.setattr(chains, name,
                            lambda *s, f=getattr(chains, name): calls.append(f) or f(*s))
    for completion in (p_completion, s_completion):
        calls.clear()
        assert completion(flag) == flag
        assert len(calls) <= len(flag) * len(flag)


def test_family_of_compares_members_a_linear_number_of_times(monkeypatch):
    lines = [span(2, (1, k)) for k in range(4000)]
    copies = [span(2, (1, k)) for k in range(100)]
    calls = []
    eq = Subspace.__eq__
    monkeypatch.setattr(Subspace, "__eq__", lambda a, b: calls.append(a) or eq(a, b))
    fam = SubspaceFamily.of(2, lines + copies)
    assert len(calls) <= len(lines) + len(copies)
    monkeypatch.undo()
    assert fam.members == tuple(sorted(lines, key=Subspace.sort_key))
    with pytest.raises(ValueError, match="wrong ambient dimension"):
        SubspaceFamily.of(3, lines)


def test_lower_finite_gap_fixtures():
    flag = family(4,
                  Subspace.full(4),
                  span(4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
                  span(4, (1, 0, 0, 0), (0, 1, 0, 0)),
                  span(4, (1, 0, 0, 0)),
                  Subspace.zero(4))
    assert is_lower_finite_gap(flag)
    assert is_upper_finite_gap(flag)
    wide = family(3, Subspace.full(3), Subspace.zero(3))
    assert is_lower_finite_gap(wide)
    broken = family(3, Subspace.full(3), span(3, E1), span(3, E2))
    assert not is_lower_finite_gap(broken)


def test_maximal_chain_through_plane_completion():
    planes = p_completion(family(3, P12(), P23(), P13()))
    chain = maximal_lower_finite_gap_chain(planes, Subspace.full(3))
    assert len(chain) == 4
    assert chain[0] == Subspace.full(3)
    assert chain[-1].is_zero()
    for a, b in zip(chain, chain[1:]):
        assert a.contains(b) and a != b


def test_maximal_chain_singleton():
    v = span(3, (1, 2, 0))
    fam = family(3, v)
    assert maximal_lower_finite_gap_chain(fam, v) == (v,)


def test_maximal_chain_on_heis3_report_ideals():
    # ideals showing up in the heis3 analysis
    fam = family(3, Subspace.full(3), span(3, E1, E3), span(3, E2, E3),
                 span(3, E3), Subspace.zero(3))
    chain = maximal_lower_finite_gap_chain(fam, Subspace.full(3))
    assert len(chain) == 4
    assert chain[1].dim == 2 and chain[2] == span(3, E3)
    assert chain[-1].is_zero()


def test_maximal_chain_requires_member_top():
    fam = family(3, span(3, E1))
    with pytest.raises(ValueError):
        maximal_lower_finite_gap_chain(fam, Subspace.full(3))


def test_restriction_preserves_p_completeness_on_fixtures():
    completed = p_completion(family(3, P12(), P23(), P13()))
    for w in (P12(), span(3, E2), span(3, (1, 1, 0))):
        restricted = SubspaceFamily.of(3, [span_intersect(m, w) for m in completed])
        assert p_completion(restricted) == restricted


def test_delta_fixtures():
    full_flag = p_completion(family(3, P12(), span(3, E1), Subspace.full(3),
                                    Subspace.zero(3)))
    assert delta(full_flag).is_zero()
    two_lines = p_completion(family(2, Subspace.full(2), span(2, (1, 0)),
                                    span(2, (0, 1))))
    assert delta(two_lines).is_zero()
    single = family(2, Subspace.full(2))
    assert delta(single) == Subspace.full(2)


def test_delta_requires_member_top():
    with pytest.raises(ValueError):
        delta(family(3, span(3, E1), span(3, E2)))


def test_delta_chain_independence_on_completions():
    rng = random.Random(SEED)
    for _ in range(10):
        members = []
        for _ in range(3):
            count = rng.randrange(1, 3)
            members.append(Subspace.span(
                4, [[qq(rng.randint(-2, 2)) for _ in range(4)]
                    for _ in range(count)]))
        members.append(Subspace.full(4))
        completed = p_completion(SubspaceFamily.of(4, members))
        forward = maximal_lower_finite_gap_chain(completed, Subspace.full(4))
        backward = maximal_lower_finite_gap_chain(completed, Subspace.full(4),
                                                  reverse_tiebreak=True)
        assert forward[-1] == backward[-1]
        assert delta(completed) == forward[-1]


def test_random_completions_are_lower_finite_gap():
    # positive-codimension families in Q^5: completions are lower finite-gap
    rng = random.Random(SEED + 7)
    count = 0
    for _ in range(50):
        members = []
        for _ in range(rng.randrange(1, 5)):
            vecs = [[qq(rng.randint(-2, 2)) for _ in range(5)]
                    for _ in range(rng.randrange(1, 4))]
            cand = Subspace.span(5, vecs)
            if 0 < cand.dim < 5:
                members.append(cand)
        if not members:
            continue
        completed = p_completion(SubspaceFamily.of(5, members))
        assert is_lower_finite_gap(completed)
        count += 1
    assert count >= 40


def test_lower_finite_gap_modulo_union_law():
    base = family(3, P12(), span(3, E3))
    helper = p_completion(family(3, span(3, E1), span(3, E2)))
    assert is_lower_finite_gap_modulo(base, helper)
    assert is_lower_finite_gap(helper)
    union = SubspaceFamily.of(3, list(base.members) + list(helper.members))
    assert is_lower_finite_gap(union)
