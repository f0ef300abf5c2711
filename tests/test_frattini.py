"""Frattini/Jacobson theory: ideals, indices, freeness, classification."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import lierad.frattini as frattini_module
import lierad.liealg as liealg_module
import lierad.modules as modules_module
import lierad.radicals as radicals_module
from lierad.acceptance import random_semidirect_products
from lierad.corpus import SUITE_FRATTINI_FREE, corpus, corpus_expr, suite_corpus
from lierad.frattini import (
    IdealEstimate,
    IndexEstimate,
    WitnessInvalidError,
    _check_decomposition,
    banach_radical_stubs,
    centroid,
    classify_subsimple,
    direct_summands,
    frattini_free_decomposition,
    frattini_ideal,
    frattini_index,
    index_class,
    is_frattini_free,
    is_jacobson_free,
    jacobson_ideal,
    jacobson_index,
    largest_abelian_ideal_frattini_free,
    subdirect_classes,
    subdirect_components,
    assemble_subdirect_embedding,
    verify_subdirect,
)
from lierad.liealg import (
    ContractError,
    LieAlgebra,
    abelian,
    bracket_spaces,
    center,
    centralizer,
    change_basis,
    derived_series,
    direct_product,
    embed_subspace,
    ideal_closure,
    is_characteristic,
    is_ideal,
    is_killing_nondegenerate,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    operator_semidirect,
    restrict_to_subalgebra,
    semidirect_product,
    subalgebra_closure,
    validate,
)
from lierad.linalg import (
    Matrix,
    Subspace,
    inverse,
    nullspace_matrix,
    nullspace_sparse,
    qq,
    rank,
    span_intersect,
    span_sum,
)
from lierad.modules import (
    commutant,
    find_proper_submodule,
    part_centroids,
    restricted_ad_action,
    split_over_abelian_ideal,
)
from lierad.radicals import (
    _solvability_index_of,
    levi_radical,
    levi_subalgebra,
    nilradical,
    solvable_radical,
)
from lierad.reports import analyze

from test_modules import sym_power_of_natural_sl2 as sym_power


def span(n, *vectors):
    return Subspace.span(n, [[qq(x) for x in v] for v in vectors])


def test_jacobson_ideal_fixtures():
    assert jacobson_ideal(corpus("heis3")) == span(3, (0, 0, 1))
    assert jacobson_ideal(corpus("aff1")) == span(2, (0, 1))
    assert jacobson_ideal(corpus("sl2")).is_zero()


def test_jacobson_index_fixtures():
    assert jacobson_index(corpus("sl2")) == 1
    assert jacobson_index(corpus("aff1")) == 2
    assert jacobson_index(corpus("ut", 3)) == 3


def test_frattini_ideal_fixtures():
    est = frattini_ideal(corpus("heis3"))
    assert est.exact and est.value == span(3, (0, 0, 1))
    est = frattini_ideal(corpus("aff1"))
    assert est.exact and est.value.is_zero()
    est = frattini_ideal(corpus("sl2_v2"))
    assert est.exact and est.value.is_zero()


def test_frattini_ideal_interval_on_ut3():
    est = frattini_ideal(corpus("ut", 3))
    assert not est.exact
    assert est.lower.is_zero()
    # the upper bound is the Jacobson ideal, the strictly-upper part
    assert est.upper == jacobson_ideal(corpus("ut", 3))


def test_frattini_index_fixtures():
    assert frattini_index(corpus("heis3")) == IndexEstimate.exactly(2)
    assert frattini_index(corpus("ut", 2)) == IndexEstimate.exactly(1)
    assert frattini_index(corpus("sl2")) == IndexEstimate.exactly(1)
    interval = frattini_index(corpus("ut", 3))
    assert not interval.exact
    assert (interval.low, interval.high) == (2, 3)


def test_is_frattini_free_fixtures_and_reasons():
    res = is_frattini_free(corpus("heis3"))
    assert not res.free and "abelian" in res.failed_condition
    assert is_frattini_free(corpus("ut", 2)).free
    assert is_frattini_free(corpus("sl2sl2")).free
    assert is_frattini_free(corpus("aff1")).free
    assert not is_frattini_free(corpus("ut", 3)).free


def test_is_frattini_free_names_each_reachable_failed_condition():
    # t acting on Q^2 by a Jordan block with eigenvalue 2
    jordan = operator_semidirect([Matrix([[2, 1], [0, 2]])])
    assert is_frattini_free(jordan).failed_condition == (
        "complement acts non-semisimply on the nilradical")
    # span(t1, t2, x, y1, y2): [t1, t2] = x central, [t_i, y_i] = y_i; the
    # nilradical span(x, y1, y2) is abelian, but [t1 + a, t2 + b] always
    # has x-coordinate 1, so no complement closes under the bracket
    c = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    for i, j, k in ((0, 1, 2), (0, 3, 3), (1, 4, 4)):
        c[i][j][k], c[j][i][k] = 1, -1
    central = LieAlgebra(5, ["t1", "t2", "x", "y1", "y2"], c)
    assert validate(central).ok
    assert is_frattini_free(central).failed_condition == (
        "no subalgebra complement to the nilradical")


@pytest.fixture(scope="module")
def structure_pool():
    """Suite corpus, the 25 acceptance products, gl2 on Q^2 and triangular
    operators."""
    pool = suite_corpus() + random_semidirect_products(25, 20260810)
    units = [Matrix([[int((i, j) == (a, b)) for j in range(2)] for i in range(2)])
             for a in range(2) for b in range(2)]
    pool.append(("gl2-natural", operator_semidirect(units)))
    rng = random.Random(20261019)
    for k in range(8):
        size = rng.randrange(2, 4)
        ops = [Matrix([[rng.randint(-2, 2) if j >= i else 0 for j in range(size)]
                       for i in range(size)]) for _ in range(rng.randrange(1, 3))]
        pool.append(("triangular#%d" % k, operator_semidirect(ops)))
    return pool


def test_complement_to_an_abelian_nilradical_is_reductive(structure_pool):
    # why is_frattini_free needs no reductivity test: the complement is
    # isomorphic to L/N, and [L, rad L] lies in N
    reductive_not_semisimple = 0
    for name, alg in structure_pool:
        nil = nilradical(alg)
        if not bracket_spaces(alg, nil, nil).is_zero():
            continue
        complement = split_over_abelian_ideal(alg, nil)
        if complement is None:
            continue
        comp_alg, _ = restrict_to_subalgebra(alg, complement)
        assert solvable_radical(comp_alg) == center(comp_alg), name
        reductive_not_semisimple += not center(comp_alg).is_zero()
    assert reductive_not_semisimple >= 3


def test_frattini_free_c_meets_the_centralizer_of_j_in_zero(structure_pool):
    # why subdirect_components has no central-line components: such a line
    # would be central in L, so inside N = J, which meets C in 0
    with_c = 0
    for name, alg in structure_pool:
        free = is_frattini_free(alg)
        if not free:
            continue
        d = free.decomposition
        assert span_intersect(d.C, centralizer(alg, d.J)).is_zero(), name
        with_c += not d.C.is_zero()
    assert with_c >= 3


def test_interval_index_floor_is_the_nilradical_index(structure_pool):
    # why frattini_index needs no other floor: r_J - 1 = i_s([L, rad L]) and
    # [L, rad L] lies in N; an interval needs N != 0
    intervals = 0
    for name, alg in structure_pool:
        if frattini_ideal(alg).exact:
            continue
        intervals += 1
        n_i = _solvability_index_of(alg, nilradical(alg))
        assert frattini_index(alg).low == n_i, name
        assert n_i >= max(jacobson_index(alg) - 1, 1), name
    assert intervals >= 3


def test_levi_of_a_solvable_algebra_takes_no_quotient(monkeypatch):
    calls = []
    real = radicals_module.quotient

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(radicals_module, "quotient", counted)
    for expr in ("ut(4)", "heis3", "aff1", "abelian(2)"):
        levi_subalgebra.cache_clear()
        assert levi_subalgebra(corpus_expr(expr)).levi.is_zero(), expr
        assert calls == [], expr
    # the counter does fire when the radical is proper
    levi_subalgebra.cache_clear()
    levi_subalgebra(corpus("sl2_v2"))
    assert calls
    levi_subalgebra.cache_clear()


def test_check_decomposition_rejects_corrupted_j_summands():
    alg = corpus_expr("direct(aff1,aff1)")
    d = frattini_free_decomposition(alg)
    first, second = d.J_summands
    _check_decomposition(alg, d)
    with pytest.raises(AssertionError, match="do not sum to J"):
        _check_decomposition(alg, replace(d, J_summands=(second, second)))
    with pytest.raises(AssertionError, match="not independent"):
        _check_decomposition(alg, replace(d, J_summands=(d.J, second)))


def test_frattini_free_decomposition_sl2_v2():
    d = frattini_free_decomposition(corpus("sl2_v2"))
    assert d.C.is_zero()
    assert d.S == span(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
    assert d.J == span(5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    assert len(d.J_summands) == 1


def test_frattini_free_decomposition_d1_v2():
    d = frattini_free_decomposition(corpus("d1_v2"))
    assert d.C == span(3, (1, 0, 0))
    assert d.S.is_zero()
    assert d.J == span(3, (0, 1, 0), (0, 0, 1))
    assert len(d.J_summands) == 2


def test_frattini_free_decomposition_abelian():
    # J = nilradical = the whole algebra; C and S are trivial
    d = frattini_free_decomposition(corpus("abelian", 2))
    assert d.C.is_zero() and d.S.is_zero()
    assert d.J == Subspace.full(2)
    assert len(d.J_summands) == 2


def block_sum(blocks) -> Matrix:
    """The block-diagonal matrix of square blocks, each a list of rows."""
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(r) + [0] * (n - at - len(b)) for r in b]
        at += len(b)
    return Matrix(rows, cols=n)


def irreducible_types(kind: str, rng: random.Random) -> tuple:
    """U and two irreducible U-modules, each a list of blocks, one per basis
    element of U (the operator by which it acts)."""
    # Sym^a(Q^2) for a = 0, 1, 2; a module with Sym^3 in it waits on
    # factorization (ROADMAP item 4): on Sym^3 + Q the probes' minimal
    # polynomials keep polys._kronecker_factor busy for about 2 s
    if kind == "sl2":
        return corpus("sl2"), [[op.data for op in sym_power(a).operators]
                               for a in rng.sample(range(3), 2)]
    if kind == "sl2+Q":
        # the line Q acts on each Sym^a by a scalar c, often 0
        types = []
        for a in rng.sample(range(3), 2):
            c = rng.choice((0, 0, 1, -2))
            ops = [op.data for op in sym_power(a).operators]
            types.append(ops + [[[c if i == j else 0 for j in range(a + 1)]
                                 for i in range(a + 1)]])
        return direct_product([corpus("sl2"), abelian(1)]), types
    # abelian(k): a line with weight w, or the plane on which each basis
    # element acts as w_i times a rotation, irreducible when w != 0
    k = rng.randint(2, 3)
    types = []
    for size in rng.sample((1, 2, 2), 2):
        w = [rng.randint(-2, 2) for _ in range(k)]
        if size == 2 and not any(w):
            w[0] = 1
        types.append([[[x]] if size == 1 else [[0, -x], [x, 0]] for x in w])
    return abelian(k), types


def frattini_free_by_construction(kind: str, seed: int) -> tuple:
    """(L, N, count, repeated, dim Z_0): L = U |x V as in the test below,
    with V in a scrambled basis, N = V + Z_0 in L's coordinates, count the
    number of irreducible summands of N and repeated whether a summand of V
    was put in more than once."""
    rng = random.Random(seed)
    u, types = irreducible_types(kind, rng)
    # each type 1 to 3 times, while dim V stays at most 8
    chosen = []
    for t in types:
        for _ in range(rng.randint(1, 3)):
            if sum(len(c[0]) for c in chosen) + len(t[0]) <= 8:
                chosen.append(t)
    rho = [block_sum([t[i] for t in chosen]) for i in range(u.dim)]
    n_v = rho[0].rows
    # a unimodular change of basis: 2 n_v random elementary row operations
    t = [[int(i == j) for j in range(n_v)] for i in range(n_v)]
    for _ in range(2 * n_v):
        i, j = rng.sample(range(n_v), 2) if n_v > 1 else (0, 0)
        c = rng.choice((-2, -1, 1, 2)) * (i != j)
        t[j] = [a + c * b for a, b in zip(t[j], t[i])]
    t = Matrix(t)
    t_inv = inverse(t)
    alg = semidirect_product(u, abelian(n_v, prefix="v"),
                             [t.mul(op).mul(t_inv) for op in rho])
    # Z_0: the central elements of U that act on V by 0
    acting_by_zero = Subspace.span(u.dim, nullspace_matrix(
        Matrix([op.flatten() for op in rho]).transpose()).data)
    z0 = span_intersect(center(u), acting_by_zero)
    n = alg.dim
    nil = Subspace.span(n, [list(z) + [0] * n_v for z in z0.vectors()]
                        + [alg.basis_vector(j) for j in range(u.dim, n)])
    repeated = len({id(c) for c in chosen}) < len(chosen)
    return alg, nil, len(chosen) + z0.dim, repeated, z0.dim


def test_frattini_free_algebras_built_by_construction():
    """L = U |x V with U reductive and V a completely reducible U-module is
    Frattini-free, with J = N = V + Z_0, where Z_0 is the part of the center
    Z(U) that acts on V by 0; and J splits into as many irreducibles as
    were put in, plus dim Z_0 lines.

    Proof.  Let rho be the action and Z = Z(U).  V + Z_0 is an abelian
    ideal, since Z_0 is central in U and acts by 0, so it lies in N.  The
    image of N in L/V = U is a nilpotent ideal of a reductive algebra, so it
    lies in Z.  For z + v in N with z in Z, ad(z + v) acts on V by rho(z),
    which is nilpotent; it is also semisimple, since a central element acts
    semisimply on a completely reducible module (Jacobson, *Lie Algebras*,
    1962, ch. II).  So rho(z) = 0, z lies in Z_0 and N = V + Z_0, which is
    abelian.  [U, U] + Z', with Z' a complement of Z_0 in Z, is a subalgebra
    complementing N, and L acts on N through L/N: on V by rho, which is
    completely reducible, and on Z_0 by 0.  An abelian nilradical with a
    subalgebra complement that acts completely reducibly on it is what
    ``is_frattini_free`` tests, and it characterizes Frattini-free Lie
    algebras in characteristic 0 (Stitzinger, J. London Math. Soc. (2) 2,
    1970; Towers, Proc. London Math. Soc. (3) 27, 1973).  J is N, and its
    summands are irreducible L/N-modules; the U-submodules of V are its
    [U, U] + Z' submodules, as Z_0 acts by 0.  Any two decompositions of a
    completely reducible module into irreducibles have the same number of
    terms (Krull-Schmidt): the summands put in, plus dim Z_0 lines.  The
    modules put in are irreducible over Q: Sym^a(Q^2) under sl2, with Q
    acting by a scalar, a line, and a plane on which some basis element acts
    as a nonzero multiple of a rotation, which has no rational eigenvector.
    """
    seen = set()
    for kind in ("sl2", "sl2+Q", "abelian"):
        for seed in range(4):
            alg, nil, count, repeated, z0_dim = frattini_free_by_construction(kind, seed)
            result = is_frattini_free(alg)
            assert result, (kind, seed, result.failed_condition)
            d = result.decomposition
            assert d.J == nil, (kind, seed)
            assert len(d.J_summands) == count, (kind, seed)
            assert frattini_ideal(alg).value.is_zero(), (kind, seed)
            seen.add((kind, repeated, z0_dim > 0))
    assert {kind for kind, repeated, _ in seen if repeated} == {"sl2", "sl2+Q", "abelian"}
    assert any(z0 for _, _, z0 in seen)


def test_decomposition_rejects_non_free_input():
    with pytest.raises(ContractError):
        frattini_free_decomposition(corpus("heis3"))


def test_is_jacobson_free_fixtures():
    free, split = is_jacobson_free(corpus_expr("direct(sl2,abelian(2))"))
    assert free
    levi, z = split
    assert levi.dim == 3 and z.dim == 2
    free, split = is_jacobson_free(corpus("aff1"))
    assert not free and split is None
    free, _ = is_jacobson_free(corpus("abelian", 3))
    assert free


def test_classify_fixtures():
    assert classify_subsimple(corpus("abelian", 1)).tag == "OneDim"
    assert classify_subsimple(corpus("sl2")).tag == "Simple"
    assert classify_subsimple(corpus("aff1")).tag == "ClassII"
    for expr in ("heis3", "ut(3)", "abelian(2)"):
        assert classify_subsimple(corpus_expr(expr)).tag == "NotSubsimple", expr


def test_classify_class_one_with_witness():
    ss = corpus("sl2sl2")
    cls = classify_subsimple(ss, iso_witness=Matrix.identity(3))
    assert cls.tag == "ClassI" and not cls.unverified
    screened = classify_subsimple(ss)
    assert screened.tag == "ClassI" and screened.unverified


def test_classify_rejects_bad_witness():
    ss = corpus("sl2sl2")
    with pytest.raises(WitnessInvalidError):
        classify_subsimple(ss, iso_witness=Matrix.zeros(3, 3))
    with pytest.raises(WitnessInvalidError):
        # invertible but not bracket-preserving
        classify_subsimple(ss, iso_witness=Matrix([[0, 1, 0], [1, 0, 0],
                                                   [0, 0, 1]]))


def test_class_two_witness_contents():
    cls = classify_subsimple(corpus("aff1"))
    assert cls.tag == "ClassII"
    complement, x_part = cls.witness
    assert complement == span(2, (1, 0))
    assert x_part == span(2, (0, 1))


def class_two_by_probe(alg):
    """The ClassII derivation that probes the action itself: an abelian,
    self-centralizing nilradical X with a subalgebra complement M whose
    action on X a probe search finds irreducible.  Returns (M, X) or None."""
    x = nilradical(alg)
    if not bracket_spaces(alg, x, x).is_zero() or centralizer(alg, x) != x:
        return None
    complement = split_over_abelian_ideal(alg, x)
    if complement is None:
        return None
    action = restricted_ad_action(alg, complement.vectors(), x)
    if find_proper_submodule(action) is not None:
        return None
    return complement, x


def test_class_two_agrees_with_probing_the_action():
    algebras = suite_corpus() + list(random_semidirect_products(25, 20260810))
    quotients = []
    for name, alg in algebras:
        if is_frattini_free(alg):
            quotients += [("%s/%d" % (name, i), comp.quotient)
                          for i, comp in enumerate(subdirect_components(alg))]
    tags = set()
    for name, alg in algebras + quotients:
        if alg.dim == 1 or is_killing_nondegenerate(alg):
            continue
        cls = classify_subsimple(alg)
        tags.add(cls.tag)
        expected = class_two_by_probe(alg)
        assert cls.tag == ("NotSubsimple" if expected is None else "ClassII"), name
        assert cls.witness == expected, name
    assert tags == {"ClassII", "NotSubsimple"}


def test_class_two_reads_the_cached_decomposition(monkeypatch):
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for mod in (frattini_module, modules_module):
        for name in ("find_proper_submodule", "split_over_abelian_ideal"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    for expr in ("aff1", "sl2_v2", "d1_v2", "heis3", "ut(2)"):
        alg = corpus_expr(expr)
        is_frattini_free(alg)
        calls.clear()
        classify_subsimple(alg)
        assert calls == [], expr
    # the counters do fire when the decision is not cached
    is_frattini_free.cache_clear()
    classify_subsimple(corpus("aff1"))
    assert "split_over_abelian_ideal" in calls


def scrambled(alg, seed):
    rng = random.Random(seed)
    while True:
        t = Matrix([[rng.randint(-2, 2) for _ in range(alg.dim)]
                    for _ in range(alg.dim)])
        if rank(t) == alg.dim:
            return change_basis(alg, t)


def test_direct_summands_survive_scrambling_past_the_probe_limit():
    # centroids of dimension 10, 13 and 17, so probe pairs stop at the first 8
    for expr, cent_dim, count in (("direct(sl2,abelian(3))", 10, 4),
                                  ("direct(heis3,abelian(2))", 13, 3),
                                  ("direct(sl2,abelian(4))", 17, 5)):
        alg = corpus_expr(expr)
        assert len(direct_summands(alg)) == count, expr
        for seed in (1, 2):
            copy = scrambled(alg, seed)
            assert centroid(copy).dim == cent_dim, expr
            parts = direct_summands(copy)
            assert len(parts) == count, (expr, seed)
            assert all(is_ideal(copy, p) for p in parts), (expr, seed)


def test_direct_summands_certificate_fires(monkeypatch):
    alg = corpus("abelian", 3)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    for parts, message in (([span(3, e1, e2), span(3, e2, e3)], "not independent"),
                           ([span(3, e1), span(3, e2)], "do not span")):
        def split(a, whole, cent, parts=parts):
            # split the algebra itself; leave its parts whole.  Compressing
            # the centroid onto parts that are not direct would fail in
            # ``inverse``, so the certificate must come first
            return parts if whole.is_full() else None
        monkeypatch.setattr(modules_module, "_find_ideal_split", split)
        direct_summands.cache_clear()
        with pytest.raises(AssertionError, match=message):
            direct_summands(alg)
    direct_summands.cache_clear()


def test_a_split_tree_solves_one_centroid(monkeypatch, clear_memo_caches):
    # every part's centroid is read off its parent's, so a cold
    # direct_summands + frattini_ideal solves one commutant, that of L,
    # however deep the tree; before, each part solved its own
    solved = []

    def counted(action):
        solved.append(action.carrier_dim)
        return commutant(action)

    monkeypatch.setattr(modules_module, "commutant", counted)
    for expr in ("ut(4)", "ut(5)", "ut(6)", "sl2sl2", "direct(sl2,heis3)",
                 "direct(ut(2),d1_v2)", "direct(ut(2),direct(sl2,heis3))"):
        alg = corpus_expr(expr)
        clear_memo_caches()
        solved.clear()
        assert len(direct_summands(alg)) >= 2, expr
        frattini_ideal(alg)
        assert solved == [alg.dim], expr


def test_frattini_ideal_does_not_split_the_leaves_again(monkeypatch, clear_memo_caches):
    # the split search has already failed on every leaf of direct_summands,
    # so frattini_ideal reads the cached leaves and searches no further
    searched = []
    find = modules_module._find_ideal_split

    def recording(alg, whole, cent):
        searched.append(whole.dim)
        return find(alg, whole, cent)

    monkeypatch.setattr(modules_module, "_find_ideal_split", recording)
    for expr in ("ut(3)", "ut(4)", "ut(5)", "ut(6)", "direct(ut(3),heis3)",
                 "direct(ut(3),direct(heis3,sl2))"):
        alg = corpus_expr(expr)
        clear_memo_caches()
        assert len(direct_summands(alg)) >= 2, expr
        searched.clear()
        assert not frattini_ideal(alg).exact, expr
        assert searched == [], expr


def jordan_block_sum() -> LieAlgebra:
    """ut(3) + (t acting on Q^2 by a Jordan block with eigenvalue 2): its
    leaves have dimensions 1, 3 and 5, and the 3-dimensional one has an
    abelian nilradical on which its complement acts non-semisimply."""
    return direct_product([corpus("ut", 3),
                           operator_semidirect([Matrix([[2, 1], [0, 2]])])])


def test_frattini_ideal_restricts_only_what_l_cannot_decide(monkeypatch,
                                                          clear_memo_caches):
    # a leaf inside N(L), or one whose part of N(L) is not abelian, is
    # decided from L's memoized nilradical, [L,L] ∩ Z(L) and [L, rad L], and
    # the split tree reads each part in L's coordinates: so no summand is
    # rebuilt as an algebra, and no radical of one is computed.  The three
    # functions are wrapped wherever liealg, modules, radicals and frattini
    # bind them.
    restricted, radicals_of = [], []

    def recording(log, fn):
        def wrapped(alg, *args):
            log.append((alg, *args))
            return fn(alg, *args)
        return wrapped

    for mod in (liealg_module, modules_module, radicals_module, frattini_module):
        if hasattr(mod, "restrict_to_subalgebra"):
            monkeypatch.setattr(mod, "restrict_to_subalgebra",
                                recording(restricted, mod.restrict_to_subalgebra))
        for name in ("nilradical", "solvable_radical"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, recording(radicals_of, getattr(mod, name)))
    for expr in ("ut(4)", "ut(5)", "ut(6)", "direct(ut(3),heis3)"):
        alg = corpus_expr(expr)
        clear_memo_caches()
        restricted.clear()
        radicals_of.clear()
        assert not frattini_ideal(alg).exact, expr
        assert restricted == [], expr
        assert radicals_of and all(a is alg for (a,) in radicals_of), expr
    # the 3-dimensional leaf of the Jordan-block sum needs rule (c)
    alg = jordan_block_sum()
    clear_memo_caches()
    restricted.clear()
    frattini_ideal(alg)
    assert [(a, space.dim) for a, space in restricted] == [(alg, 3)]


def frattini_by_resplitting(alg) -> IdealEstimate:
    """The Frattini estimate by recursion over ideal direct sums, splitting
    every summand afresh: [L, L] if L is nilpotent, 0 if Frattini-free,
    else the sum over ``direct_summands(L)`` of each summand's estimate,
    else [L,L] ∩ Z(L) <= φ <= [L, rad L]."""
    full = alg.full_space()
    if is_nilpotent(alg):
        return IdealEstimate.exactly(bracket_spaces(alg, full, full))
    if is_frattini_free(alg):
        return IdealEstimate.exactly(alg.zero_space())
    summands = direct_summands(alg)
    if len(summands) < 2:
        return IdealEstimate(span_intersect(bracket_spaces(alg, full, full), center(alg)),
                             jacobson_ideal(alg))
    lower, upper = [], []
    for part in summands:
        part_alg, basis = restrict_to_subalgebra(alg, part)
        est = frattini_by_resplitting(part_alg)
        lower.append(embed_subspace(basis, est.lower))
        upper.append(embed_subspace(basis, est.upper))
    return IdealEstimate(span_sum(*lower), span_sum(*upper))


def test_frattini_ideal_equals_the_recursion_that_resplits_each_summand(
        clear_memo_caches):
    algebras = suite_corpus() + [("ut(%d)" % n, corpus("ut", n)) for n in range(3, 7)]
    algebras += random_semidirect_products(25, 20260810)
    algebras += random_semidirect_products(40, 7)
    assert len(algebras) == 85
    algebras += [("%s#%d" % (expr, seed), scrambled(corpus_expr(expr), seed))
                 for expr in ("direct(ut(3),heis3)",) for seed in (1, 2)]
    # [L,L] ∩ Z(L) and [L, rad L] add up over a direct sum, so L's interval
    # is the sum of its leaves' unless a leaf is exact and its interval is
    # not: d1_v2 is Frattini-free with [L, rad L] != 0, and sut(4) is
    # nilpotent with [L, L] not central
    algebras += [(expr, corpus_expr(expr))
                 for expr in ("direct(ut(3),d1_v2)", "direct(ut(3),sut(4))")]
    # the 3-dimensional leaf of the Jordan-block sum has an abelian
    # nilradical but is not Frattini-free, so frattini_ideal restricts it
    jordan = jordan_block_sum()
    algebras += [("jordan", jordan), ("jordan#1", scrambled(jordan, 1))]
    for name, alg in algebras:
        clear_memo_caches()
        assert frattini_ideal(alg) == frattini_by_resplitting(alg), name
    for alg in (jordan, scrambled(jordan, 1)):
        clear_memo_caches()
        assert [p.dim for p in direct_summands(alg)] == [1, 3, 5]
        estimate = frattini_ideal(alg)
        assert (estimate.lower.dim, estimate.upper.dim) == (0, 5)


def test_frattini_free_c_and_s_equal_the_restricted_complement():
    # C and S are read in L; in the complement M's own coordinates they are
    # its center and [M, M]
    for expr in SUITE_FRATTINI_FREE:
        alg = corpus_expr(expr)
        d = is_frattini_free(alg).decomposition
        complement = span_sum(d.C, d.S)
        comp_alg, basis = restrict_to_subalgebra(alg, complement)
        full = comp_alg.full_space()
        assert d.C == embed_subspace(basis, center(comp_alg)), expr
        assert d.S == embed_subspace(basis, bracket_spaces(comp_alg, full, full)), expr


def test_subdirect_components_d1_v2():
    comps = subdirect_components(corpus("d1_v2"))
    assert len(comps) == 2
    assert all(c.quotient.dim == 2 for c in comps)
    algebras, embedding = assemble_subdirect_embedding(comps)
    assert verify_subdirect(algebras, embedding, corpus("d1_v2"))


def test_subdirect_components_abelian_two_lines():
    comps = subdirect_components(corpus("abelian", 2))
    assert len(comps) == 2
    assert all(c.quotient.dim == 1 for c in comps)


def test_subdirect_components_sl2_v2_is_itself():
    comps = subdirect_components(corpus("sl2_v2"))
    assert len(comps) == 1
    assert comps[0].quotient.dim == 5
    assert classify_subsimple(comps[0].quotient).tag == "ClassII"


def test_subdirect_classes_agree_with_classifying_each_component():
    # why analyze reads the classes off the kernels: classify_subsimple of
    # each quotient, the old computation, gives the same tags
    pool = (suite_corpus() + random_semidirect_products(25, 20260810)
            + random_semidirect_products(15, 1)
            + [(e, corpus_expr(e)) for e in (
                "direct(sl2,sl2_v2)", "direct(sl2sl2,abelian(2))",
                "direct(aff1,aff1)", "direct(d1_v2,sl2)")])
    seen = set()
    for name, alg in pool:
        free = is_frattini_free(alg)
        if not free:
            continue
        comps = subdirect_components(alg)
        classes = subdirect_classes(free.decomposition, comps)
        assert classes == tuple(classify_subsimple(c.quotient).tag
                                for c in comps), name
        seen.update(classes)
    assert seen == {"OneDim", "ClassII", "Simple"}


def test_verify_subdirect_rejects_partial_projections():
    s = corpus("sl2")
    # embed sl2 into sl2 x sl2 hitting only the first factor
    rows = [[1 if j == i else 0 for j in range(3)] for i in range(3)]
    rows += [[0] * 3 for _ in range(3)]
    embedding = Matrix(rows)
    assert not verify_subdirect([s, s], embedding, s)
    # the identity into a one-factor product is fine
    assert verify_subdirect([s], Matrix.identity(3), s)


def test_verify_subdirect_rejects_a_full_rank_map_that_breaks_brackets():
    # the identity of heis3 into abelian(3) is injective and onto, but sends
    # [x, y] = z to z where the bracket of the images is 0
    assert not verify_subdirect([corpus("abelian", 3)], Matrix.identity(3),
                                corpus("heis3"))


def test_index_class_fixtures():
    assert index_class(corpus("sl2"))[0] == "C1"
    assert index_class(corpus("heis3"))[0] == "C2"
    assert index_class(corpus("sl2_v2"))[0] == "C3"
    assert index_class(corpus("aff1"))[0] == "C3"
    assert index_class(corpus("abelian", 2))[0] == "C2"
    assert index_class(corpus("ut", 3))[0] == "Undetermined"


def jacobson_ideal_index_class(alg) -> str:
    """index_class with the solvability index of K_L spelled out."""
    r_s = frattini_index(alg)
    r_j = jacobson_index(alg)
    k_i = _solvability_index_of(alg, jacobson_ideal(alg))
    n_i = _solvability_index_of(alg, nilradical(alg))

    def class_of(v):
        if v == r_j == k_i + 1 == n_i + 1:
            return "C1"
        if v == r_j == k_i + 1 == n_i:
            return "C2"
        if v + 1 == r_j == k_i + 1 == n_i + 1:
            return "C3"
        return None

    tags = {class_of(v) for v in r_s.values()}
    if len(tags) == 1 and None not in tags:
        return tags.pop()
    return "Undetermined"


def test_index_class_equals_the_jacobson_ideal_formula():
    algebras = suite_corpus() + list(random_semidirect_products(25, 20260810))
    algebras += [("ut(%d)" % n, corpus("ut", n)) for n in range(2, 6)]
    algebras.append(("zero", LieAlgebra(0, [], [])))
    for name, alg in algebras:
        assert index_class(alg)[0] == jacobson_ideal_index_class(alg), name
    # r_J = 0 on the zero algebra, not i_s(K_L) + 1
    assert index_class(LieAlgebra(0, [], [])) == (
        "Undetermined", (IndexEstimate.exactly(0), 0))


def test_largest_abelian_ideal_fixtures():
    v2 = corpus("sl2_v2")
    assert largest_abelian_ideal_frattini_free(v2) == \
        span(5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    a3 = corpus("abelian", 3)
    assert largest_abelian_ideal_frattini_free(a3) == a3.full_space()
    assert largest_abelian_ideal_frattini_free(corpus("ut", 2)) == \
        span(3, (1, 0, 1), (0, 1, 0))
    with pytest.raises(ContractError):
        largest_abelian_ideal_frattini_free(corpus("heis3"))


def test_largest_abelian_ideal_contains_probed_abelian_ideals():
    for expr in ("sl2_v2", "ut(2)", "d1_v2", "direct(sl2,abelian(2))"):
        alg = corpus_expr(expr)
        largest = largest_abelian_ideal_frattini_free(alg)
        for i in range(alg.dim):
            probe = ideal_closure(alg, Subspace.span(alg.dim,
                                                     [alg.basis_vector(i)]))
            if bracket_spaces(alg, probe, probe).is_zero():
                assert largest.contains(probe), expr


def test_banach_radical_stubs_are_zero():
    for expr in ("heis3", "sl2", "ut(4)"):
        stubs = banach_radical_stubs(corpus_expr(expr))
        assert set(stubs) == {"P_S", "P_J", "F", "F_s"}
        assert all(v.is_zero() for v in stubs.values())


def nongenerator_check(algebra, subalg, x) -> bool:
    """Whether adjoining x to a proper subalgebra still generates properly:
    x is a non-generator, and so in the Frattini ideal, iff this holds for
    every maximal subalgebra."""
    if not is_subalgebra(algebra, subalg):
        raise ContractError("nongenerator check requires a subalgebra")
    if subalg.is_full():
        raise ContractError("nongenerator check requires a proper subalgebra")
    grown = span_sum(subalg, Subspace.span(algebra.dim, [x]))
    return not subalgebra_closure(algebra, grown).is_full()


def test_nongenerator_fixtures():
    h = corpus("heis3")
    m = span(3, (1, 0, 0), (0, 0, 1))
    assert nongenerator_check(h, m, (0, 0, 1))
    assert not nongenerator_check(h, m, (0, 1, 0))
    assert nongenerator_check(h, m, (0, 0, 0))
    with pytest.raises(ContractError):
        nongenerator_check(h, h.full_space(), (0, 0, 1))


def test_exact_frattini_elements_are_nongenerators():
    # every element of an Exact Frattini ideal is a nongenerator for the
    # listed maximal subalgebras of the fixtures
    h = corpus("heis3")
    maximals = [span(3, (1, 0, 0), (0, 0, 1)), span(3, (0, 1, 0), (0, 0, 1)),
                span(3, (1, 1, 0), (0, 0, 1))]
    phi = frattini_ideal(h).value
    for m in maximals:
        for v in phi.vectors():
            assert nongenerator_check(h, m, v)


def test_fmarsh_chain_corpus_wide():
    for name, alg in suite_corpus():
        est = frattini_ideal(alg)
        k = jacobson_ideal(alg)
        nil = nilradical(alg)
        rad = solvable_radical(alg)
        assert k.contains(est.upper), name
        assert nil.contains(k), name
        assert rad.contains(nil), name
        if est.exact:
            assert k.contains(est.value), name


def test_solvable_jacobson_equals_derived():
    # for solvable algebras the Jacobson ideal is the derived subalgebra
    for name, alg in suite_corpus():
        if is_solvable(alg):
            derived = bracket_spaces(alg, alg.full_space(), alg.full_space())
            assert jacobson_ideal(alg) == derived, name


def test_named_radicals_are_characteristic_corpus_wide():
    for name, alg in suite_corpus():
        for value in (solvable_radical(alg), nilradical(alg),
                      jacobson_ideal(alg), levi_radical(alg)):
            assert is_characteristic(alg, value), name
        est = frattini_ideal(alg)
        if est.exact:
            assert is_characteristic(alg, est.value), name


def test_nilpotent_frattini_free_is_abelian():
    for name, alg in suite_corpus():
        if is_nilpotent(alg) and is_frattini_free(alg):
            assert alg == abelian(alg.dim), name


def test_solvable_jacobson_free_is_abelian():
    for name, alg in suite_corpus():
        free, _ = is_jacobson_free(alg)
        if free and is_solvable(alg):
            assert alg == abelian(alg.dim), name


def test_solvable_subsimple_is_small():
    # solvable subsimple algebras have dimension <= 2
    for name, alg in suite_corpus():
        if is_solvable(alg) and alg.dim >= 3:
            assert classify_subsimple(alg).tag == "NotSubsimple", name


def test_direct_summands_fixtures():
    ss = corpus("sl2sl2")
    assert [p.dim for p in direct_summands(ss)] == [3, 3]
    mixed = direct_product([corpus("aff1"), corpus("heis3")])
    assert [p.dim for p in direct_summands(mixed)] == [2, 3]
    assert direct_summands(corpus("heis3")) == (Subspace.full(3),)
    ut3 = corpus("ut", 3)
    parts = direct_summands(ut3)
    assert sorted(p.dim for p in parts) == [1, 5]


def test_blockwise_frattini_of_exact_pairs():
    a, b = corpus("aff1"), corpus("heis3")
    product = direct_product([a, b])
    est = frattini_ideal(product)
    assert est.exact
    assert est.value == span(5, (0, 0, 0, 0, 1))


def test_centroid_contains_identity():
    for expr in ("heis3", "sl2", "ut(2)"):
        alg = corpus_expr(expr)
        cent = centroid(alg)
        assert cent.contains_vector(Matrix.identity(alg.dim).flatten()), expr


def centroid_from_both_conditions(alg) -> Subspace:
    """Reference: T[bi,bj] = [T bi, bj] and T[bi,bj] = [bi, T bj] for i <= j,
    written out over the structure constants (T[k][m] is unknown k*n + m)."""
    n = alg.dim
    c = alg.c
    rows = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                left = {}
                right = {}
                for m in range(n):
                    if c[i][j][m]:
                        left[k * n + m] = left.get(k * n + m, 0) + c[i][j][m]
                        right[k * n + m] = right.get(k * n + m, 0) + c[i][j][m]
                    if c[m][j][k]:
                        left[m * n + i] = left.get(m * n + i, 0) - c[m][j][k]
                    if c[i][m][k]:
                        right[m * n + j] = right.get(m * n + j, 0) - c[i][m][k]
                rows += [left, right]
    return Subspace.span(n * n, nullspace_sparse(rows, n * n).data)


def test_centroid_is_the_commutant_of_the_ad_action():
    algebras = suite_corpus() + list(random_semidirect_products(25, 20260810))
    algebras += [("ut(%d)" % n, corpus("ut", n)) for n in (4, 5, 6)]
    assert len(algebras) == 44
    for name, alg in algebras:
        assert centroid(alg) == centroid_from_both_conditions(alg), name


def test_part_centroids_are_the_centroids_of_the_parts(monkeypatch, clear_memo_caches):
    # every split that analyze meets on the 85 algebras (suite corpus,
    # ut(3..6) and two seeded product sets), and on the scrambled direct
    # sums with centroids of dimension 10, 13 and 17, at every depth
    splits = []
    find = modules_module._find_ideal_split

    def recording(alg, whole, cent):
        parts = find(alg, whole, cent)
        if parts is not None:
            splits.append((alg, whole, cent, parts))
        return parts

    monkeypatch.setattr(modules_module, "_find_ideal_split", recording)
    algebras = suite_corpus() + [("ut(%d)" % n, corpus("ut", n)) for n in range(3, 7)]
    algebras += random_semidirect_products(25, 20260810)
    algebras += random_semidirect_products(40, 7)
    assert len(algebras) == 85
    for name, alg in algebras:
        clear_memo_caches()
        analyze(alg, name=name)
    from_corpus = len(splits)
    for expr in ("direct(sl2,abelian(3))", "direct(heis3,abelian(2))",
                 "direct(sl2,abelian(4))"):
        for seed in (1, 2):
            direct_summands(scrambled(corpus_expr(expr), seed))
    assert from_corpus > 5 and len(splits) > from_corpus
    monkeypatch.undo()
    for alg, whole, cent, parts in splits:
        assert cent == centroid(restrict_to_subalgebra(alg, whole)[0])
        for part, part_cent in zip(parts, part_centroids(whole, cent, parts)):
            part_alg, _ = restrict_to_subalgebra(alg, part)
            assert part_cent == centroid(part_alg)
            assert part_cent == centroid_from_both_conditions(part_alg)


def test_estimate_types_enforce_order():
    with pytest.raises(AssertionError):
        IdealEstimate(Subspace.full(2), Subspace.zero(2))
    with pytest.raises(AssertionError):
        IndexEstimate(3, 1)
    est = IdealEstimate.exactly(Subspace.zero(2))
    assert est.exact and est.value.is_zero()
