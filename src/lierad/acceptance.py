"""The acceptance criteria, as callable checks shared by pytest and the CLI.

Each criterion returns (ok, detail).  All comparisons are exact: canonical
bases compared entry-wise and integer indices compared with ==.  Randomized
sweeps draw from a seeded generator so the suite is deterministic.
"""

from __future__ import annotations

import random

from . import frattini as fr
from . import radicals as rd
from .chains import (
    SubspaceFamily,
    delta,
    family_join,
    family_meet,
    is_lower_finite_gap,
    maximal_lower_finite_gap_chain,
    p_completion,
)
from .corpus import (
    SUITE_FRATTINI_FREE,
    corpus,
    corpus_expr,
    sl2 as make_sl2,
    suite_corpus,
)
from .liealg import (
    abelian,
    ad_of_basis,
    bracket_spaces,
    center,
    change_basis,
    derived_series,
    direct_product,
    embed_subspace,
    is_ideal,
    is_killing_nondegenerate,
    is_solvable,
    is_subalgebra,
    lower_central_series_of,
    quotient,
    restrict_to_subalgebra,
    semidirect_product,
    solvability_index,
    stable_derived_term,
)
from .linalg import Matrix, Q0, Q1, Subspace, complement_codim, inverse, qq, span_sum
from .reports import _characteristic_audit

DEFAULT_SEED = 20260810


def _span(ambient: int, *vecs) -> Subspace:
    return Subspace.span(ambient, [[qq(x) for x in v] for v in vecs])


class CriterionFailure(AssertionError):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise CriterionFailure(message)


def criterion_1() -> str:
    """Heisenberg fixture: exact Frattini/Jacobson data and class C2."""
    h = corpus("heis3")
    z = _span(3, (0, 0, 1))
    est = fr.frattini_ideal(h)
    _require(est.exact and est.value == z, "frattini_ideal(heis3) != Exact span{z}")
    _require(fr.jacobson_ideal(h) == z, "jacobson_ideal(heis3) != span{z}")
    fx = fr.frattini_index(h)
    _require(fx.exact and fx.value == 2, "frattini_index(heis3) != Exact 2")
    _require(fr.jacobson_index(h) == 2, "jacobson_index(heis3) != 2")
    tag, _pair = fr.index_class(h)
    _require(tag == "C2", "index_class(heis3) != C2")
    return "heis3: frattini Exact <z>, jacobson <z>, indices (2,2), class C2"


def criterion_2() -> str:
    """Triangular-in-sl2 fixture aff1."""
    a = corpus("aff1")
    x_line = _span(2, (0, 1))
    _require(fr.jacobson_ideal(a) == x_line, "jacobson_ideal(aff1) != span{x}")
    est = fr.frattini_ideal(a)
    _require(est.exact and est.value.is_zero(),
             "frattini_ideal(aff1) != Exact {0}")
    return "aff1: jacobson = span{x}, frattini Exact {0}"


def criterion_3() -> str:
    """Upper-triangular indices, with the derived-series oracle for n >= 4."""
    _require(fr.jacobson_index(corpus("ut", 2)) == 2, "jacobson_index(ut(2)) != 2")
    fx = fr.frattini_index(corpus("ut", 2))
    _require(fx.exact and fx.value == 1, "frattini_index(ut(2)) != Exact 1")
    _require(fr.jacobson_index(corpus("ut", 3)) == 3, "jacobson_index(ut(3)) != 3")
    oracle_values = []
    for n in (4, 5, 6):
        alg = corpus("ut", n)
        oracle = solvability_index(alg)
        got = fr.jacobson_index(alg)
        _require(got == oracle,
                 "jacobson_index(ut(%d)) = %s != derived-series oracle %s"
                 % (n, got, oracle))
        oracle_values.append(oracle)
    return ("ut(2): (2, Exact 1); ut(3): 3; ut(4..6) match the oracle %s "
            "(the '= n' claim holds only for n <= 3)" % oracle_values)


def criterion_4() -> str:
    """Index inequality on every corpus algebra."""
    members = suite_corpus()
    _require(len(members) >= 12, "corpus has fewer than 12 algebras")
    for name, alg in members:
        n_i = rd._solvability_index_of(alg, rd.nilradical(alg))
        k_i = rd._solvability_index_of(alg, fr.jacobson_ideal(alg))
        r_j = fr.jacobson_index(alg)
        fx = fr.frattini_index(alg)
        _require(r_j == k_i + 1, "%s: jacobson_index != i_s(K)+1" % name)
        _require(r_j <= n_i + 1, "%s: jacobson_index > i_s(N)+1" % name)
        for value in fx.values():
            _require(n_i <= value <= r_j,
                     "%s: frattini index value %d outside [i_s(N), r_J]"
                     % (name, value))
    return "Eq-(10) inequalities hold on all %d corpus algebras" % len(members)


def criterion_5() -> str:
    """Class partition fixtures."""
    expected = {"sl2": ("C1", 1, 1), "heis3": ("C2", 2, 2), "sl2_v2": ("C3", 1, 2)}
    for name, (tag, r_s, r_j) in expected.items():
        alg = corpus(name)
        got_tag, (fx, got_rj) = fr.index_class(alg)
        _require(got_tag == tag, "%s: class %s != %s" % (name, got_tag, tag))
        _require(fx.exact and fx.value == r_s,
                 "%s: frattini index %s != Exact %d" % (name, fx, r_s))
        _require(got_rj == r_j, "%s: jacobson index %d != %d" % (name, got_rj, r_j))
    return "sl2 C1(1,1); heis3 C2(2,2); sl2_v2 C3(1,2)"


def criterion_6() -> str:
    """Subsimple classifier fixtures plus the positive-class consequences."""
    expected = {
        "abelian(1)": "OneDim",
        "sl2": "Simple",
        "aff1": "ClassII",
        "heis3": "NotSubsimple",
        "ut(3)": "NotSubsimple",
        "abelian(2)": "NotSubsimple",
    }
    positives = []
    for expr, tag in expected.items():
        alg = corpus_expr(expr)
        got = fr.classify_subsimple(alg)
        _require(got.tag == tag, "%s: classified %s, expected %s"
                 % (expr, got.tag, tag))
        if tag != "NotSubsimple":
            positives.append((expr, alg))
    ss = corpus("sl2sl2")
    got = fr.classify_subsimple(ss, iso_witness=Matrix.identity(3))
    _require(got.tag == "ClassI" and not got.unverified,
             "sl2sl2 with identity witness not certified ClassI")
    positives.append(("sl2sl2", ss))
    for expr, alg in positives:
        est = fr.frattini_ideal(alg)
        _require(est.exact and est.value.is_zero(),
                 "%s: positive classification without Exact {0} Frattini ideal"
                 % expr)
        if alg.dim >= 2:
            _require(center(alg).is_zero(),
                     "%s: positive classification with nonzero center" % expr)
    return "classifier fixtures as expected; positives have Exact {0} and center 0"


def criterion_7() -> str:
    """Frattini-free set, decomposition checks and subdirect round trips."""
    free_names = []
    for name, alg in suite_corpus():
        result = fr.is_frattini_free(alg)
        expected = name in SUITE_FRATTINI_FREE
        _require(result.free == expected,
                 "%s: is_frattini_free = %s, expected %s"
                 % (name, result.free, expected))
        if not result.free:
            continue
        free_names.append(name)
        _require(result.decomposition is not None,
                 "%s: missing Frattini-free decomposition" % name)
        comps = fr.subdirect_components(alg)
        algebras, embedding = fr.assemble_subdirect_embedding(comps)
        _require(fr.verify_subdirect(algebras, embedding, alg),
                 "%s: subdirect round trip failed" % name)
        for comp in comps:
            tag = fr.classify_subsimple(comp.quotient).tag
            _require(tag != "NotSubsimple",
                     "%s: subdirect component not subsimple" % name)
    return "Frattini-free exactly on %s; all round trips verified" % free_names


def criterion_8() -> str:
    """Radical identity suite."""
    for name, alg in suite_corpus():
        lr = rd.levi_radical(alg)
        _require(lr == stable_derived_term(alg),
                 "%s: levi_radical != stable derived term" % name)
        fix, _idx = rd.superposition_closure(rd.DERIVED_MAP, alg)
        _require(fix == lr, "%s: superposition of D != levi_radical" % name)
        pc_fix, _idx = rd.superposition_closure(
            rd.REGISTRY["lower-central-stable"], alg)
        _require(pc_fix == lr,
                 "%s: superposition of lower-central-stable != levi_radical" % name)
        _require(rd.vasilescu_radical(alg) == rd.solvable_radical(alg),
                 "%s: vasilescu != rad" % name)
    _require(rd.largest_semisimple_ideal(corpus("sl2_v2")).is_zero(),
             "largest_semisimple_ideal(sl2_v2) != {0}")
    return "levi_radical = stable derived = D-fixpoint = P_C-closure; P_V = rad"


def random_semidirect_products(count: int, seed: int) -> list:
    """Deterministic pool of valid semidirect products of corpus pieces.

    Representations are drawn from natural/adjoint/diagonal models and
    conjugated by random unimodular integer matrices, so the homomorphism
    law holds by construction (and is re-validated by the constructor).
    """
    rng = random.Random(seed)

    def elementary(n, a, b):
        return Matrix([[Q1 if (i, j) == (a, b) else Q0 for j in range(n)]
                       for i in range(n)])

    def unimodular(n):
        m = [[Q1 if i == j else Q0 for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = qq(rng.randint(-2, 2))
            for t in range(n):
                m[j][t] += c * m[i][t]
        return Matrix(m)

    pool = []
    sl2_ops = [elementary(2, 0, 1), elementary(2, 1, 0),
               Matrix([[Q1, Q0], [Q0, -Q1]])]
    heis_ops = [elementary(3, 0, 1), elementary(3, 1, 2), elementary(3, 0, 2)]
    aff_ops = [elementary(2, 0, 0), elementary(2, 0, 1)]
    pool.append(("sl2-natural", make_sl2(), sl2_ops))
    pool.append(("heis3-natural", corpus("heis3"), heis_ops))
    pool.append(("aff1-natural", corpus("aff1"), aff_ops))
    for label, alg in (("sl2", make_sl2()), ("heis3", corpus("heis3")),
                       ("aff1", corpus("aff1"))):
        pool.append(("%s-adjoint" % label, alg, ad_of_basis(alg)))
    out = []
    for k in range(count):
        choice = rng.randrange(len(pool) + 1)
        if choice == len(pool):
            size = rng.randrange(2, 4)
            op = Matrix([[qq(rng.randint(-2, 2)) for _ in range(size)]
                         for _ in range(size)])
            acting, ops, label = abelian(1), [op], "line-on-random"
        else:
            label, acting, ops = pool[choice]
        t = unimodular(ops[0].rows)
        t_inv = inverse(t)
        conjugated = [t.mul(op).mul(t_inv) for op in ops]
        product = semidirect_product(acting, abelian(ops[0].rows, prefix="v"),
                                     conjugated)
        # also scramble the whole basis so nothing stays axis-aligned
        product = change_basis(product, unimodular(product.dim))
        out.append(("%s#%d" % (label, k), product))
    return out


def criterion_9(seed: int = DEFAULT_SEED) -> str:
    """Certificate suite on the corpus plus 25 random semidirect products."""
    population = suite_corpus() + random_semidirect_products(25, seed)
    for name, alg in population:
        rad = rd.solvable_radical(alg)
        _require(is_ideal(alg, rad), "%s: rad is not an ideal" % name)
        _require(rd._solvability_index_of(alg, rad) is not None,
                 "%s: rad is not solvable" % name)
        if not rad.is_full():
            _require(is_killing_nondegenerate(quotient(alg, rad).quotient),
                     "%s: L/rad is not semisimple" % name)
        nil = rd.nilradical(alg)
        _require(is_ideal(alg, nil), "%s: nilradical is not an ideal" % name)
        _require(lower_central_series_of(alg, nil).reaches_zero(),
                 "%s: nilradical is not nilpotent" % name)
        _require(nil.contains(bracket_spaces(alg, alg.full_space(), rad)),
                 "%s: nilradical misses [L, rad]" % name)
        levi = rd.levi_subalgebra(alg)
        _require(is_subalgebra(alg, levi.levi), "%s: Levi not a subalgebra" % name)
        if not levi.levi.is_zero():
            sub, _ = restrict_to_subalgebra(alg, levi.levi)
            _require(is_killing_nondegenerate(sub),
                     "%s: Levi complement is Killing-degenerate" % name)
        _require(span_sum(levi.levi, levi.radical).is_full()
                 and levi.levi.dim + levi.radical.dim == alg.dim,
                 "%s: Levi decomposition does not span" % name)
        for rname, ok in _characteristic_audit(alg).items():
            _require(ok is True, "%s: %s output is not characteristic" % (name, rname))
    return "certificates hold on %d algebras (corpus + 25 random)" % len(population)


def criterion_10() -> str:
    """Blockwise product laws over all corpus pairs."""
    members = suite_corpus()
    checked = 0
    exact_checked = 0
    for i, (name_a, a) in enumerate(members):
        for name_b, b in members[i:]:
            product = direct_product([a, b])
            unit = Matrix.identity(product.dim).data
            a_block = Matrix(unit[:a.dim], cols=product.dim)
            b_block = Matrix(unit[a.dim:], cols=product.dim)

            def blockwise(ua: Subspace, ub: Subspace) -> Subspace:
                return span_sum(embed_subspace(a_block, ua),
                                embed_subspace(b_block, ub))

            for rname, fn in (("rad", rd.solvable_radical),
                              ("nilrad", rd.nilradical),
                              ("jacobson", fr.jacobson_ideal),
                              ("levi-radical", rd.levi_radical)):
                _require(fn(product) == blockwise(fn(a), fn(b)),
                         "%s(%s + %s) is not blockwise" % (rname, name_a, name_b))
            est_a, est_b = fr.frattini_ideal(a), fr.frattini_ideal(b)
            if est_a.exact and est_b.exact:
                est_p = fr.frattini_ideal(product)
                _require(est_p.exact,
                         "frattini(%s + %s) not Exact despite Exact factors"
                         % (name_a, name_b))
                _require(est_p.value == blockwise(est_a.value, est_b.value),
                         "frattini(%s + %s) is not blockwise" % (name_a, name_b))
                exact_checked += 1
            checked += 1
    return ("product laws hold on %d pairs (%d with Exact Frattini ideals)"
            % (checked, exact_checked))


def _random_subspace(rng: random.Random, ambient: int, max_vectors: int) -> Subspace:
    count = rng.randrange(max_vectors + 1)
    vecs = [[qq(rng.randint(-3, 3)) for _ in range(ambient)] for _ in range(count)]
    return Subspace.span(ambient, vecs)


def _chain_fixture_families() -> list:
    e = lambda n, k: tuple(Q1 if i == k else Q0 for i in range(n))
    families = []
    # coordinate planes of Q^3 and their completion
    planes3 = [_span(3, e(3, 0), e(3, 1)), _span(3, e(3, 1), e(3, 2)),
               _span(3, e(3, 0), e(3, 2))]
    families.append(SubspaceFamily.of(3, planes3))
    # a full flag in Q^4
    families.append(SubspaceFamily.of(4, [
        Subspace.full(4), _span(4, e(4, 0), e(4, 1), e(4, 2)),
        _span(4, e(4, 0), e(4, 1)), _span(4, e(4, 0)), Subspace.zero(4)]))
    # two crossing lines in Q^2
    families.append(SubspaceFamily.of(2, [_span(2, e(2, 0)), _span(2, e(2, 1))]))
    # mixed spans in Q^3
    families.append(SubspaceFamily.of(3, [
        _span(3, e(3, 0), e(3, 1)), _span(3, (0, 1, 1)), _span(3, e(3, 2))]))
    # hyperplanes of Q^4 through shifted sums
    families.append(SubspaceFamily.of(4, [
        _span(4, e(4, 0), e(4, 1), (0, 0, 1, 1)),
        _span(4, e(4, 1), e(4, 2), e(4, 3)),
        _span(4, e(4, 0), (0, 1, 0, 1), e(4, 2))]))
    # seeded random families
    rng = random.Random(DEFAULT_SEED + 11)
    for ambient in (3, 4, 5):
        for _ in range(2):
            members = [_random_subspace(rng, ambient, ambient - 1)
                       for _ in range(3)]
            members = [m for m in members if 0 < m.dim < ambient]
            if not members:
                members = [_span(ambient, e(ambient, 0))]
            families.append(SubspaceFamily.of(ambient, members))
    return families


def criterion_11(seed: int = DEFAULT_SEED) -> str:
    """Chains suite: dimension identity, T2.2, chain-independence, idempotence."""
    rng = random.Random(seed)
    for _ in range(200):
        y = _random_subspace(rng, 6, 6)
        while 6 - y.dim > 3:
            y = span_sum(y, _random_subspace(rng, 6, 2))
        z = _random_subspace(rng, 6, 6)
        _comp, codim = complement_codim(z, y)
        yz = span_sum(y, z)
        _require(codim == yz.dim - y.dim,
                 "dim(Z/(Y cap Z)) != dim((Y+Z)/Y) on a random pair")
        _require(_comp.rows == codim, "complement basis size mismatch")
    fixtures = _chain_fixture_families()
    _require(len(fixtures) >= 10, "fewer than 10 chain fixture families")
    for fam in fixtures:
        completed = p_completion(fam)
        _require(p_completion(completed) == completed,
                 "p-completion is not idempotent")
        lfg = is_lower_finite_gap(completed)
        top = family_join(completed)
        meet = family_meet(completed)
        forward = maximal_lower_finite_gap_chain(completed, top)
        backward = maximal_lower_finite_gap_chain(completed, top,
                                                  reverse_tiebreak=True)
        reaches = (forward[0] == top and forward[-1] == meet)
        _require(lfg == reaches,
                 "T2.2 equivalence failed on a fixture family")
        _require(forward[-1] == backward[-1],
                 "differently tie-broken maximal chains end differently")
        _require(delta(completed) == forward[-1],
                 "delta disagrees with the maximal chains")
    return "dimension identity on 200 pairs; T2.2 + delta on %d families" \
        % len(fixtures)


def criterion_12() -> str:
    """Solvable Frattini-free and Jacobson-free structure."""
    solvable_free = []
    jacobson_free = []
    for name, alg in suite_corpus():
        if fr.is_frattini_free(alg) and is_solvable(alg):
            series = derived_series(alg)
            second = series.terms[2] if len(series.terms) > 2 else \
                series.terms[series.stable_index]
            _require(second.is_zero(),
                     "%s: solvable Frattini-free with nonzero L_[2]" % name)
            solvable_free.append(name)
        free, split = fr.is_jacobson_free(alg)
        if free:
            levi, z = split
            _require(levi.dim + z.dim == alg.dim
                     and span_sum(levi, z).is_full(),
                     "%s: Jacobson-free but not levi + center" % name)
            _require(bracket_spaces(alg, levi, z).is_zero(),
                     "%s: levi and center do not commute" % name)
            jacobson_free.append(name)
    _require(len(solvable_free) >= 3, "too few solvable Frattini-free fixtures")
    _require(len(jacobson_free) >= 3, "too few Jacobson-free fixtures")
    return ("L_[2] = 0 on solvable Frattini-free %s; levi + center on %s"
            % (solvable_free, jacobson_free))


CRITERIA: tuple = (
    ("1 Heisenberg fixture", criterion_1),
    ("2 triangular-in-sl2 fixture", criterion_2),
    ("3 upper-triangular indices", criterion_3),
    ("4 index inequality Eq-(10)", criterion_4),
    ("5 class partition fixtures", criterion_5),
    ("6 subsimple classifier", criterion_6),
    ("7 Frattini-free structure", criterion_7),
    ("8 radical identity suite", criterion_8),
    ("9 certificate suite", criterion_9),
    ("10 product laws", criterion_10),
    ("11 chains suite", criterion_11),
    ("12 solvable/Jacobson structure", criterion_12),
)


def run_all(seed: int = DEFAULT_SEED) -> list:
    """Run every criterion; returns (name, ok, detail) records."""
    results = []
    for name, fn in CRITERIA:
        try:
            if fn in (criterion_9, criterion_11):
                detail = fn(seed)
            else:
                detail = fn()
            results.append((name, True, detail))
        except Exception as exc:  # noqa: BLE001 - report, do not abort the table
            results.append((name, False, "%s: %s" % (type(exc).__name__, exc)))
    return results
