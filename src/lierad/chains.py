"""Finite families of subspaces: completions, finite-gap predicates, chains.

Families are explicit finite sets (the lattice-theoretic source families can
be infinite even at finite dimension, so this module consumes families
produced by reports or user input).  A completion makes at most n * |output|
meets or joins on n members; the input cap of 16 members can be overridden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .linalg import Subspace, _series, span_intersect, span_sum

DEFAULT_COMPLETION_BOUND = 16


class FamilySizeError(ValueError):
    """Completion requested on a family above the configured bound."""


@dataclass(frozen=True)
class SubspaceFamily:
    ambient_dim: int
    members: tuple

    @staticmethod
    def of(ambient_dim: int, members: Iterable[Subspace]) -> "SubspaceFamily":
        unique = dict.fromkeys(members)
        if any(m.ambient_dim != ambient_dim for m in unique):
            raise ValueError("family member has wrong ambient dimension")
        return SubspaceFamily(ambient_dim,
                              tuple(sorted(unique, key=Subspace.sort_key)))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, space: Subspace) -> bool:
        return space in self.members

    def __iter__(self):
        return iter(self.members)


def family_meet(family: SubspaceFamily) -> Subspace:
    """Intersection of all members; the full space on the empty family."""
    return span_intersect(Subspace.full(family.ambient_dim), *family)


def family_join(family: SubspaceFamily) -> Subspace:
    """Span of all members; zero on the empty family."""
    return span_sum(Subspace.zero(family.ambient_dim), *family)


def _completion(family: SubspaceFamily, bound: int, combine,
                extra) -> SubspaceFamily:
    """combine(*subfamily) over the nonempty subfamilies, plus extra(family).

    Proof of the one pass.  If C holds the combines of the nonempty
    subfamilies of the members before m, those of the members up to m are
    C, m and combine(m, x) for x in C, since meet and join are associative
    and commutative.  So at most n * |output| pairwise combines are made.
    Refused above ``bound`` input members.
    """
    if len(family) > bound:
        raise FamilySizeError(
            "family of %d members exceeds the completion bound %d"
            % (len(family), bound))
    found = set()
    for m in family:
        found |= {m, *(combine(m, x) for x in found)}
    return SubspaceFamily.of(family.ambient_dim, [*found, extra(family)])


def p_completion(family: SubspaceFamily,
                 bound: int = DEFAULT_COMPLETION_BOUND) -> SubspaceFamily:
    """All meets of nonempty subfamilies, plus the join."""
    return _completion(family, bound, span_intersect, family_join)


def s_completion(family: SubspaceFamily,
                 bound: int = DEFAULT_COMPLETION_BOUND) -> SubspaceFamily:
    """All joins of nonempty subfamilies, plus the meet."""
    return _completion(family, bound, span_sum, family_meet)


def is_lower_finite_gap(family: SubspaceFamily) -> bool:
    """Every member other than the meet has a member properly below it."""
    return is_lower_finite_gap_modulo(family,
                                      SubspaceFamily.of(family.ambient_dim, ()))


def is_upper_finite_gap(family: SubspaceFamily) -> bool:
    """Every member other than the join has a member properly above it."""
    return _finite_gap(family, family, family_join(family), lambda z, y: y.contains(z))


def is_lower_finite_gap_modulo(family: SubspaceFamily,
                               other: SubspaceFamily) -> bool:
    """Lower finite-gap where witnesses may come from the union family."""
    union = SubspaceFamily.of(family.ambient_dim,
                              list(family.members) + list(other.members))
    return _finite_gap(family, union, family_meet(union), Subspace.contains)


def _finite_gap(family: SubspaceFamily, witnesses: SubspaceFamily,
                extreme: Subspace, beyond) -> bool:
    """Every member z other than ``extreme`` has a witness y != z with
    beyond(z, y): y properly below z, or properly above it."""
    return all(z == extreme or any(z != y and beyond(z, y) for y in witnesses)
               for z in family)


def maximal_lower_finite_gap_chain(family: SubspaceFamily, top: Subspace,
                                   reverse_tiebreak: bool = False) -> tuple:
    """A maximal chain in the family descending from `top`.

    Greedy: repeatedly step to a maximal member strictly below the current
    one; this yields an inclusion-maximal chain among those with maximum
    `top`.  Tie-break by the canonical basis key (or its reverse).

    ``SubspaceFamily.of`` sorts the members by key, which orders by
    dimension first, so the largest key below is maximal (the reverse pick).
    Walked from the largest key down, the members below that no kept one of
    larger dimension contains are exactly the maximal ones: a non-maximal
    member lies in a maximal one, which is met first.
    """
    if top not in family:
        raise ValueError("top is not a member of the family")

    def step(current: Subspace) -> Subspace:
        below = [y for y in family if y.dim < current.dim and current.contains(y)]
        if reverse_tiebreak:
            return below[-1] if below else current
        maximal = []
        for y in reversed(below):
            if not any(z.dim > y.dim and z.contains(y) for z in maximal):
                maximal.append(y)
        return maximal[-1] if maximal else current

    return _series(top, step).terms


def delta(family: SubspaceFamily) -> Subspace:
    """Common bottom of all maximal descending chains from the top.

    Requires the join to be a member; computed as the meet of the members
    reachable by a chain from the top (every member lies under the join) and
    cross-checked against two differently tie-broken maximal chains.
    """
    top = family_join(family)
    if top not in family:
        raise ValueError("the family join is not a member")
    bottom = family_meet(family)
    forward = maximal_lower_finite_gap_chain(family, top)
    backward = maximal_lower_finite_gap_chain(family, top, reverse_tiebreak=True)
    if forward[-1] != bottom or backward[-1] != bottom:
        raise ValueError(
            "maximal chains disagree with the family meet; "
            "the family is not p-complete")
    return bottom

