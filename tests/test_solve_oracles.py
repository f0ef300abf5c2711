"""``solve`` and the two complement systems against the dense code they
replaced.

``solve`` reads a solution off the sparse eliminator, and the systems of
``_equivariant_complement`` and ``split_over_abelian_ideal`` are sparse
rows.  Before, each system was a list of dense rows, solved by ``rref`` on
the augmented matrix.  That code is kept here as the reference:
``dense_solve``, ``dense_equivariant_complement`` (whose "columns of P lie
in W" rows were written off W's pivots rather than through W's
annihilator) and ``dense_split``.  The answers must be equal exactly: on
seeded random systems, and on every complement and split that ``analyze``
meets on the 85 algebras and that ``decompose_module`` meets on the
submodule-search actions and on modules with repeated summands.
"""

from __future__ import annotations

import random
from fractions import Fraction

import lierad.frattini as frattini_module
import lierad.modules as modules_module
import lierad.radicals as radicals_module
from lierad.acceptance import random_semidirect_products
from lierad.corpus import corpus, corpus_expr, suite_corpus
from lierad.liealg import bracket, center
from lierad.linalg import (
    Matrix,
    Q0,
    Q1,
    Subspace,
    inverse,
    matrix_from_flat,
    nullspace_matrix,
    qq,
    rref,
    solve,
)
from lierad.modules import (
    Action,
    _commutant_equations,
    _equivariant_complement,
    decompose_module,
    is_completely_reducible,
    split_over_abelian_ideal,
)
from lierad.reports import analyze

from test_modules import diag, submodule_search_actions


def dense_solve(a: Matrix, b) -> tuple:
    """One solution of A x = b (free variables 0) read off ``rref`` of
    [A | b], or None."""
    aug = Matrix([list(row) + [qq(bb)] for row, bb in zip(a.data, b)]) \
        if a.rows else Matrix.zeros(0, a.cols + 1)
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [Q0] * a.cols
    for r, p in enumerate(pivots):
        x[p] = red.entry(r, a.cols)
    return tuple(x)


def dense_equivariant_complement(action: Action, sub: Subspace) -> Subspace:
    n = action.carrier_dim
    nn = n * n
    rows = [[eq.get(k, Q0) for k in range(nn)] for eq in _commutant_equations(action)]
    rhs = [Q0] * len(rows)
    for w in sub.vectors():
        for i in range(n):
            rows.append([Q0] * (i * n) + list(w) + [Q0] * (nn - i * n - n))
            rhs.append(w[i])
    # a column v lies in W iff it equals sum(v[p_r] * b_r) off W's pivots too
    off_pivot = [i for i in range(n) if i not in sub.pivots]
    for j in range(n):
        for i in off_pivot:
            row = [Q0] * nn
            row[i * n + j] = Q1
            for b, p in zip(sub.vectors(), sub.pivots):
                row[p * n + j] -= b[i]
            rows.append(row)
            rhs.append(Q0)
    proj = matrix_from_flat(dense_solve(Matrix(rows), rhs), n, n)
    return Subspace.span(n, nullspace_matrix(proj).data)


def dense_split(algebra, x: Subspace):
    n = algebra.dim
    if x.is_zero():
        return algebra.full_space()
    free = [j for j in range(n) if j not in x.pivots]
    m, d = len(free), x.dim
    if m == 0:
        return algebra.zero_space()
    xbasis = x.vectors()
    w = [algebra.basis_vector(j) for j in free]
    ad_on_x = [[x.coords_of(bracket(algebra, w[i], xbasis[t])) for t in range(d)]
               for i in range(m)]
    rows, rhs = [], []
    for i in range(m):
        for j in range(i + 1, m):
            br = bracket(algebra, w[i], w[j])
            rest = x.reduce(br)
            for t in range(d):
                row = [Q0] * (m * d)
                for s in range(d):
                    row[j * d + s] += ad_on_x[i][s][t]
                    row[i * d + s] -= ad_on_x[j][s][t]
                for k in range(m):
                    row[k * d + t] -= rest[free[k]]
                rows.append(row)
                rhs.append(-br[x.pivots[t]])
    if rows:
        sol = dense_solve(Matrix(rows), rhs)
        if sol is None:
            return None
    else:
        sol = (Q0,) * (m * d)
    vecs = []
    for i in range(m):
        vec = list(w[i])
        for s in range(d):
            for t in range(n):
                vec[t] += sol[i * d + s] * xbasis[s][t]
        vecs.append(vec)
    return Subspace.span(n, vecs)


def entry(rng: random.Random):
    return qq(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3))))


def random_system(rng: random.Random, kind: str) -> tuple:
    """(A, b) of the given kind: consistent, inconsistent, zero rows or
    zero columns.  Low rank half the time, so free columns show up."""
    cols = 0 if kind == "zero columns" else rng.randint(1, 7)
    count = 0 if kind == "zero rows" else rng.randint(1, 7)
    if cols and count and rng.random() < 0.5:
        rank = rng.randint(1, min(count, cols))
        left = Matrix([[entry(rng) for _ in range(rank)] for _ in range(count)])
        right = Matrix([[entry(rng) for _ in range(cols)] for _ in range(rank)])
        rows = [list(r) for r in left.mul(right).data]
    else:
        rows = [[entry(rng) if rng.random() < 0.6 else Q0 for _ in range(cols)]
                for _ in range(count)]
    if kind == "zero columns":
        return Matrix(rows, cols=0), [entry(rng) if rng.random() < 0.5 else Q0
                                      for _ in range(count)]
    x = [entry(rng) for _ in range(cols)]
    b = [sum((a * v for a, v in zip(row, x)), Q0) for row in rows]
    if kind == "inconsistent":
        # a combination of the rows, with its right-hand side moved off
        coeffs = [entry(rng) for _ in rows]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), Q0)
                     for j in range(cols)])
        b.append(sum((c * v for c, v in zip(coeffs, b)), Q0) + 1)
    return Matrix(rows, cols=cols), b


def test_solve_equals_the_dense_augmented_rref_on_random_systems():
    rng = random.Random(20261021)
    outcomes = set()
    for kind in ("consistent", "inconsistent", "zero rows", "zero columns"):
        for _ in range(60):
            a, b = random_system(rng, kind)
            ours = solve([dict(r) for r in a.support], b, a.cols)
            assert ours == dense_solve(a, b), (kind, a, b)
            if kind == "consistent":
                assert ours is not None
            if kind == "inconsistent":
                assert ours is None
            outcomes.add((kind, ours is None))
    assert ("zero columns", True) in outcomes and ("zero columns", False) in outcomes
    assert ("zero rows", False) in outcomes


def repeated_summand_actions() -> list:
    """diag(1, 1, 2, 2, 3, 3, 4, 4) and sl2 on two copies of its natural
    module, each conjugated by a seeded integer change of basis."""
    rng = random.Random(7)
    out = []
    sl2_twice = [Matrix([r + [0, 0] for r in m] + [[0, 0] + r for r in m])
                 for m in ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]])]
    for ops in ([diag(1, 1, 2, 2, 3, 3, 4, 4)], sl2_twice):
        n = ops[0].rows
        while True:
            t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            try:
                back = inverse(t)
            except ValueError:
                continue
            break
        out.append(Action(n, tuple(t.mul(op).mul(back) for op in ops)))
    return out


def test_complements_and_splits_equal_the_dense_systems(monkeypatch):
    complements, splits = [], []
    real_complement = modules_module._equivariant_complement

    def recording_complement(action, sub):
        complements.append((action, sub))
        return real_complement(action, sub)

    def recording_split(algebra, x):
        splits.append((algebra, x))
        return split_over_abelian_ideal(algebra, x)

    monkeypatch.setattr(modules_module, "_equivariant_complement", recording_complement)
    for module in (frattini_module, radicals_module):
        monkeypatch.setattr(module, "split_over_abelian_ideal", recording_split)
    algebras = suite_corpus() + [("ut(%d)" % n, corpus("ut", n)) for n in range(3, 7)]
    algebras += random_semidirect_products(25, 20260810)
    algebras += random_semidirect_products(40, 7)
    assert len(algebras) == 85
    algebras += [(expr, corpus_expr(expr)) for expr in (
        "direct(sl2,abelian(2))", "direct(sl2_v2,sl2_v2)", "direct(d1_v2,d1_v2)",
        "direct(sl2,direct(abelian(3),sl2_v2))")]
    for name, alg in algebras:
        analyze(alg, name=name)
    from_analyze = len(complements)
    for action in submodule_search_actions() + repeated_summand_actions():
        if is_completely_reducible(action):
            decompose_module(action)
    assert from_analyze > 20 and len(complements) > from_analyze
    monkeypatch.undo()
    # the center is an abelian ideal, and the splits over it that fail
    # (heis3's, for one) exercise the inconsistent systems
    splits += [(alg, center(alg)) for _, alg in algebras]
    assert sum(dense_split(*pair) is None for pair in splits) > 5
    for action, sub in complements:
        assert _equivariant_complement(action, sub) == \
            dense_equivariant_complement(action, sub)
    for algebra, x in splits:
        assert split_over_abelian_ideal(algebra, x) == dense_split(algebra, x)
