"""Frattini ideal, Jacobson and Frattini indices, Frattini-free structure.

The Jacobson ideal [L, rad(L)] is exact and comes from ``radicals``; the
centroid and ideal direct summands come from ``modules``.  The Frattini
ideal is an honest estimate type: structural rules (nilpotent, Frattini-free,
ideal direct sums) give exact values, and everything else gets the interval
[L,L] cap Z(L)  <=  P  <=  [L, rad(L)]  rather than an invented exact answer.

The Frattini-free decision reduces the C + S + J structure theorem to three
machine-checkable conditions: abelian nilradical N, a subalgebra complement
to N, and complete reducibility of its action on N.  The complement needs no
reductivity test: it is isomorphic to L/N, which is reductive because
[L, rad L] lies in N.  Subsimple tags come with witnesses; ClassII is read off
that C + S + J decomposition, and ClassI isomorphism is only claimed outright
when an explicit witness verifies, else invariant screening flags the result
as unverified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Optional

from .liealg import (
    _is_homomorphism,
    ContractError,
    LieAlgebra,
    bracket_spaces,
    center,
    centralizer,
    direct_product,
    embed_subspace,
    is_ideal,
    is_killing_nondegenerate,
    is_nilpotent,
    is_subalgebra,
    killing_form,
    quotient,
    restrict_to_subalgebra,
)
from .linalg import (
    Matrix,
    Subspace,
    determinant,
    div,
    rank,
    span_intersect,
    span_sum,
)
# centroid is unused here; it stays importable from here, as direct_summands
# and jacobson_ideal do, because perfbench/layertrace.py binds it by name
from .modules import (
    NotCompletelyReducibleError,
    centroid,
    decompose_module,
    direct_summands,
    restricted_ad_action,
    split_over_abelian_ideal,
)
from .radicals import (
    _solvability_index_of,
    decompose_semisimple,
    jacobson_ideal,
    levi_subalgebra,
    nilradical,
)


class WitnessInvalidError(ContractError):
    """A supplied isomorphism witness failed verification."""


@dataclass(frozen=True)
class IdealEstimate:
    lower: Subspace
    upper: Subspace

    def __post_init__(self):
        if not self.upper.contains(self.lower):
            raise AssertionError("estimate lower bound exceeds upper bound")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> Subspace:
        if not self.exact:
            raise ValueError("estimate is an interval, not exact")
        return self.lower

    @staticmethod
    def exactly(space: Subspace) -> "IdealEstimate":
        return IdealEstimate(space, space)


@dataclass(frozen=True)
class IndexEstimate:
    low: int
    high: int

    def __post_init__(self):
        if self.low > self.high:
            raise AssertionError("index estimate low exceeds high")

    @property
    def exact(self) -> bool:
        return self.low == self.high

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("index estimate is an interval, not exact")
        return self.low

    def values(self) -> range:
        return range(self.low, self.high + 1)

    @staticmethod
    def exactly(n: int) -> "IndexEstimate":
        return IndexEstimate(n, n)


@dataclass(frozen=True)
class SubsimpleClass:
    tag: str  # OneDim | Simple | ClassI | ClassII | NotSubsimple
    witness: Optional[tuple] = None
    unverified: bool = False


@dataclass(frozen=True)
class FrattiniFreeDecomposition:
    C: Subspace
    S: Subspace
    J: Subspace
    J_summands: tuple


@dataclass(frozen=True)
class FrattiniFreeResult:
    free: bool
    decomposition: Optional[FrattiniFreeDecomposition] = None
    failed_condition: Optional[str] = None

    def __bool__(self) -> bool:
        return self.free


# ---------------------------------------------------------------------------
# Jacobson index
# ---------------------------------------------------------------------------

def jacobson_index(algebra: LieAlgebra) -> int:
    """Solvability index of the Jacobson ideal, plus one."""
    if algebra.dim == 0:
        return 0
    k = jacobson_ideal(algebra)
    i_s = _solvability_index_of(algebra, k)
    if i_s is None:
        raise AssertionError("Jacobson ideal is not solvable")
    return i_s + 1


# ---------------------------------------------------------------------------
# Frattini-free decision and decomposition
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def is_frattini_free(algebra: LieAlgebra) -> FrattiniFreeResult:
    """Decide Frattini-freeness via the three-part structure test.

    A complement to N needs no reductivity test: it is isomorphic to L/N,
    which is reductive as [L, rad L] lies in N; ``_check_decomposition``
    still certifies C + S."""
    nil = nilradical(algebra)
    if not bracket_spaces(algebra, nil, nil).is_zero():
        return FrattiniFreeResult(False, failed_condition="nilradical is not abelian")
    complement = split_over_abelian_ideal(algebra, nil)
    if complement is None:
        return FrattiniFreeResult(
            False, failed_condition="no subalgebra complement to the nilradical")
    action = restricted_ad_action(algebra, complement.vectors(), nil)
    try:
        j_summands = decompose_module(action)
    except NotCompletelyReducibleError:
        return FrattiniFreeResult(
            False,
            failed_condition="complement acts non-semisimply on the nilradical")
    # read in L: the center of the complement M is the set of elements of M
    # that centralize M, and [M, M] spans the same subspace in M's
    # coordinates as in L's
    c_part = span_intersect(complement, centralizer(algebra, complement))
    s_part = bracket_spaces(algebra, complement, complement)
    summands = tuple(embed_subspace(nil.basis, s) for s in j_summands)
    decomposition = FrattiniFreeDecomposition(C=c_part, S=s_part, J=nil,
                                              J_summands=summands)
    _check_decomposition(algebra, decomposition)
    return FrattiniFreeResult(True, decomposition=decomposition)


def _check_decomposition(algebra: LieAlgebra, d: FrattiniFreeDecomposition):
    if d.C.dim + d.S.dim + d.J.dim != algebra.dim:
        raise AssertionError("C + S + J dimensions do not add up")
    if not span_sum(d.C, d.S, d.J).is_full():
        raise AssertionError("C + S + J do not span")
    if not is_subalgebra(algebra, d.C) or not bracket_spaces(algebra, d.C, d.C).is_zero():
        raise AssertionError("C is not an abelian subalgebra")
    if not is_ideal(algebra, d.J) or not bracket_spaces(algebra, d.J, d.J).is_zero():
        raise AssertionError("J is not an abelian ideal")
    if not bracket_spaces(algebra, d.C, d.S).is_zero():
        raise AssertionError("[C, S] is not zero")
    if not is_subalgebra(algebra, d.S):
        raise AssertionError("S is not a subalgebra")
    if not d.S.is_zero():
        s_alg, _ = restrict_to_subalgebra(algebra, d.S)
        if not is_killing_nondegenerate(s_alg):
            raise AssertionError("S has a degenerate Killing form")
    if span_sum(algebra.zero_space(), *d.J_summands) != d.J:
        raise AssertionError("J summands do not sum to J")
    if sum(s.dim for s in d.J_summands) != d.J.dim:
        raise AssertionError("J summands are not independent")


def frattini_free_decomposition(algebra: LieAlgebra) -> FrattiniFreeDecomposition:
    result = is_frattini_free(algebra)
    if not result:
        raise ContractError("algebra is not Frattini-free: %s"
                            % result.failed_condition)
    return result.decomposition


# ---------------------------------------------------------------------------
# Frattini ideal and index
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def frattini_ideal(algebra: LieAlgebra) -> IdealEstimate:
    """Frattini ideal, exact when a structural rule fires, else an interval.

    The rule (``_structural_estimate``) is applied to L and, when it leaves
    the interval [[L,L] ∩ Z(L), [L, rad L]], to each leaf P of
    ``direct_summands(L)``, whose bounds add up: φ(A + B) = φ(A) + φ(B) for
    an ideal direct sum (Towers, Proc. London Math. Soc. (3) 27, 1973).
    A leaf is decided from L's own data when that is enough:
    (a) if N(L) contains P, P is nilpotent and φ(P) = [P, P];
    (b) else, if N(L) ∩ P is not abelian, P's interval is L's cut down to P;
    (c) else P is restricted and the rule is applied to it.
    Proof.  Let R be the sum of the other leaves, so L = P + R with
    [P, R] = 0.  Then N(L) = N(P) + N(R), rad L = rad P + rad R,
    Z(L) = Z(P) + Z(R) and [L, L] = [P, P] + [R, R], so [L, rad L] =
    [P, rad P] + [R, rad R].  A sum of a subspace of P and one of R meets P
    in the first, and two such sums meet in such a sum, so N(L) ∩ P = N(P),
    [L, rad L] ∩ P = [P, rad P] and [L,L] ∩ Z(L) ∩ P = [P,P] ∩ Z(P).  In
    (a), P = N(P).  In (b), P is not nilpotent, since a nilpotent ideal
    lies in N(L), and N(P) is not abelian, so P is not Frattini-free
    (``is_frattini_free`` fails its first condition): the rule gives P the
    interval [[P,P] ∩ Z(P), [P, rad P]], which is L's cut down to P."""
    estimate = _structural_estimate(algebra)
    leaves = () if estimate.exact else direct_summands(algebra)
    if len(leaves) < 2:
        return estimate
    nil = nilradical(algebra)
    lower, upper = [], []
    for leaf in leaves:
        leaf_nil = span_intersect(nil, leaf)
        if leaf_nil == leaf:
            part = IdealEstimate.exactly(bracket_spaces(algebra, leaf, leaf))
        elif not bracket_spaces(algebra, leaf_nil, leaf_nil).is_zero():
            part = IdealEstimate(span_intersect(estimate.lower, leaf),
                                 span_intersect(estimate.upper, leaf))
        else:
            leaf_alg, leaf_basis = restrict_to_subalgebra(algebra, leaf)
            own = _structural_estimate(leaf_alg)
            part = IdealEstimate(embed_subspace(leaf_basis, own.lower),
                                 embed_subspace(leaf_basis, own.upper))
        lower.append(part.lower)
        upper.append(part.upper)
    return IdealEstimate(span_sum(*lower), span_sum(*upper))


def _structural_estimate(algebra: LieAlgebra) -> IdealEstimate:
    """φ(L) = [L, L] if L is nilpotent, 0 if it is Frattini-free, else the
    interval [L,L] ∩ Z(L) <= φ(L) <= [L, rad(L)].  An abelian L is nilpotent
    with [L, L] = 0 and a semisimple L is Frattini-free, so both give 0."""
    full = algebra.full_space()
    if is_nilpotent(algebra):
        return IdealEstimate.exactly(bracket_spaces(algebra, full, full))
    if is_frattini_free(algebra):
        return IdealEstimate.exactly(algebra.zero_space())
    derived = bracket_spaces(algebra, full, full)
    return IdealEstimate(span_intersect(derived, center(algebra)),
                         jacobson_ideal(algebra))


def frattini_index(algebra: LieAlgebra) -> IndexEstimate:
    """Exact solvability-index formula when the ideal is exact, else the
    interval [i_s(N), jacobson_index]: jacobson_index - 1 = i_s([L, rad L])
    <= i_s(N), and i_s(N) >= 1 as an interval needs N != 0."""
    if algebra.dim == 0:
        return IndexEstimate.exactly(0)
    estimate = frattini_ideal(algebra)
    if estimate.exact:
        i_s = _solvability_index_of(algebra, estimate.value)
        if i_s is None:
            raise AssertionError("exact Frattini ideal is not solvable")
        return IndexEstimate.exactly(i_s + 1)
    n_i = _solvability_index_of(algebra, nilradical(algebra))
    return IndexEstimate(n_i, jacobson_index(algebra))


# ---------------------------------------------------------------------------
# Jacobson-free decision
# ---------------------------------------------------------------------------

def is_jacobson_free(algebra: LieAlgebra):
    """K_L = 0 test; on success also the verified levi + center splitting."""
    if not jacobson_ideal(algebra).is_zero():
        return False, None
    levi = levi_subalgebra(algebra).levi
    z = center(algebra)
    if levi.dim + z.dim != algebra.dim or not span_sum(levi, z).is_full():
        raise AssertionError("Jacobson-free algebra failed levi + center split")
    return True, (levi, z)


# ---------------------------------------------------------------------------
# subsimple classification
# ---------------------------------------------------------------------------

def _is_rational_square(q) -> bool:
    if q == 0:
        return True
    if q < 0:
        return False
    num, den = int(q.numerator), int(q.denominator)
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


def _killing_discriminants_compatible(a: LieAlgebra, b: LieAlgebra) -> bool:
    """Necessary condition for isomorphism: Killing dets agree up to squares."""
    ka, kb = killing_form(a), killing_form(b)
    da = determinant(ka)
    db = determinant(kb)
    if da == 0 or db == 0:
        return da == db
    return _is_rational_square(div(da, db))


def classify_subsimple(algebra: LieAlgebra,
                       iso_witness: Optional[Matrix] = None) -> SubsimpleClass:
    """OneDim / Simple / ClassI / ClassII / NotSubsimple with witnesses.

    ClassII iff L is Frattini-free with J one summand and C_L(J) = J; the
    witness is (C + S, J).  A probe that misses a submodule of a
    non-semisimple action on the nilradical thus gives NotSubsimple.
    """
    if algebra.dim == 1:
        return SubsimpleClass("OneDim")
    if is_killing_nondegenerate(algebra):
        components = decompose_semisimple(algebra)
        if len(components) == 1:
            return SubsimpleClass("Simple")
        if len(components) != 2:
            return SubsimpleClass("NotSubsimple")
        first, second = components
        alg1, _ = restrict_to_subalgebra(algebra, first)
        alg2, _ = restrict_to_subalgebra(algebra, second)
        if iso_witness is not None:
            _verify_iso_witness(alg1, alg2, iso_witness)
            return SubsimpleClass("ClassI", witness=(first, second, iso_witness))
        if alg1.dim == alg2.dim and _killing_discriminants_compatible(alg1, alg2):
            return SubsimpleClass("ClassI", witness=(first, second, None),
                                  unverified=True)
        return SubsimpleClass("NotSubsimple")
    free = is_frattini_free(algebra)
    if not free or len(free.decomposition.J_summands) != 1:
        return SubsimpleClass("NotSubsimple")
    d = free.decomposition
    if centralizer(algebra, d.J) != d.J:
        return SubsimpleClass("NotSubsimple")
    return SubsimpleClass("ClassII", witness=(span_sum(d.C, d.S), d.J))


def _verify_iso_witness(alg1: LieAlgebra, alg2: LieAlgebra, witness: Matrix):
    if witness.rows != alg2.dim or witness.cols != alg1.dim:
        raise WitnessInvalidError("witness has wrong shape")
    if alg1.dim != alg2.dim or rank(witness) != alg1.dim:
        raise WitnessInvalidError("witness is not invertible")
    if not _is_homomorphism(alg1, alg2, witness):
        raise WitnessInvalidError("witness does not preserve brackets")


# ---------------------------------------------------------------------------
# subdirect products
# ---------------------------------------------------------------------------

def subdirect_components(algebra: LieAlgebra) -> tuple:
    """Quotients onto subsimple algebras with kernels intersecting to zero.

    One quotient per irreducible nilradical summand, in the order of
    ``J_summands``, then one per simple component of S that annihilates J.
    C needs none: an element of C that centralizes J is central in L, so
    lies in N = J, and C cap J = 0.  ``subdirect_classes`` reads each
    quotient's subsimple class off its kernel.
    """
    decomposition = frattini_free_decomposition(algebra)
    c_part, s_part, j_part = decomposition.C, decomposition.S, decomposition.J
    reductive = span_sum(c_part, s_part)
    kernels = []
    js = decomposition.J_summands
    for i, summand in enumerate(js):
        annihilator = span_intersect(reductive, centralizer(algebra, summand))
        kernels.append(span_sum(*js[:i], *js[i + 1:], annihilator))
    if not s_part.is_zero():
        s_alg, s_basis = restrict_to_subalgebra(algebra, s_part)
        simple_parts = [embed_subspace(s_basis, p)
                        for p in decompose_semisimple(s_alg)]
        for i, part in enumerate(simple_parts):
            if bracket_spaces(algebra, part, j_part).is_zero():
                kernels.append(span_sum(c_part, j_part, *simple_parts[:i],
                                        *simple_parts[i + 1:]))
    components = tuple(quotient(algebra, k) for k in kernels)
    if not span_intersect(algebra.full_space(), *kernels).is_zero():
        raise AssertionError("subdirect kernels do not intersect to zero")
    return components


def subdirect_classes(decomposition: FrattiniFreeDecomposition,
                      components) -> tuple:
    """The subsimple tag of each ``subdirect_components`` quotient.

    The kernel that built a quotient fixes its class, so none is classified
    again.  A summand J_i gives M + J_i, where M = (C + S)/ann(J_i) acts
    faithfully and irreducibly.  M = 0 exactly when the quotient has
    dimension 1; J_i is then a trivial irreducible module: OneDim.
    Otherwise the quotient is ClassII.  Its nilradical maps onto a nilpotent
    ideal of the reductive M, which is central in M; by Schur a central
    element acts on J_i through a division algebra, so acting nilpotently
    it acts as 0 and, M being faithful, is 0.  So the nilradical is J_i:
    abelian, complemented by M, one summand, and C(J_i) = J_i.  A simple
    component P of S gives a quotient isomorphic to P: Simple.
    """
    n_j = len(decomposition.J_summands)
    return tuple("OneDim" if c.quotient.dim == 1 else "ClassII"
                 for c in components[:n_j]) + ("Simple",) * (len(components) - n_j)


def assemble_subdirect_embedding(components) -> tuple:
    """Stack component projections into one embedding matrix."""
    algebras = [c.quotient for c in components]
    rows = []
    for comp in components:
        rows.extend(comp.projection.data)
    return algebras, Matrix(rows)


def verify_subdirect(components, embedding: Matrix, algebra: LieAlgebra) -> bool:
    """Injective homomorphism into the product, onto every coordinate."""
    total = sum(c.dim for c in components)
    if embedding.rows != total or embedding.cols != algebra.dim:
        raise ValueError("embedding shape does not match components")
    if rank(embedding) != algebra.dim:
        return False
    if not _is_homomorphism(algebra, direct_product(list(components)), embedding):
        return False
    offset = 0
    for comp in components:
        block = Matrix(embedding.data[offset:offset + comp.dim])
        if rank(block) != comp.dim:
            return False
        offset += comp.dim
    return True


# ---------------------------------------------------------------------------
# index classes
# ---------------------------------------------------------------------------

def index_class(algebra: LieAlgebra) -> tuple:
    """Partition by Frattini/Jacobson index pattern; Undetermined on spanning
    intervals.

    r_J is already the solvability index of K_L plus one, except on the zero
    algebra (r_J = 0), which is Undetermined.
    """
    r_s = frattini_index(algebra)
    r_j = jacobson_index(algebra)
    if algebra.dim == 0:
        return "Undetermined", (r_s, r_j)
    n_i = _solvability_index_of(algebra, nilradical(algebra))

    def class_of(v: int) -> Optional[str]:
        if v == r_j == n_i + 1:
            return "C1"
        if v == r_j == n_i:
            return "C2"
        if v + 1 == r_j == n_i + 1:
            return "C3"
        return None

    tags = {class_of(v) for v in r_s.values()}
    if len(tags) == 1 and None not in tags:
        return tags.pop(), (r_s, r_j)
    return "Undetermined", (r_s, r_j)


# ---------------------------------------------------------------------------
# remaining operations
# ---------------------------------------------------------------------------

def largest_abelian_ideal_frattini_free(algebra: LieAlgebra) -> Subspace:
    """J + (C cap Z(L)) for a Frattini-free algebra."""
    decomposition = frattini_free_decomposition(algebra)
    result = span_sum(decomposition.J,
                      span_intersect(decomposition.C, center(algebra)))
    if not is_ideal(algebra, result):
        raise AssertionError("largest abelian ideal candidate is not an ideal")
    if not bracket_spaces(algebra, result, result).is_zero():
        raise AssertionError("largest abelian ideal candidate is not abelian")
    return result


def banach_radical_stubs(algebra: LieAlgebra) -> dict:
    """The four infinite-dimensional radicals, all zero at finite dimension."""
    zero = algebra.zero_space()
    return {"P_S": zero, "P_J": zero, "F": zero, "F_s": zero}

