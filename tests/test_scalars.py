"""The scalar domain: an int when integral, else a Fraction, never a float.

Also the linear-algebra helpers that lean on it directly: the one division
``div``, ``trace_of_product``, ``determinant`` and ``inverse``, plus a scan
of the sources that keeps every division inside ``div``.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import lierad
from lierad.corpus import corpus
from lierad.liealg import ContractError, abelian, change_basis
from lierad.linalg import (
    Matrix,
    determinant,
    div,
    inverse,
    primitive_part,
    qq,
    rref,
)

SEED = 20260810
SOURCES = sorted(Path(lierad.__file__).parent.glob("*.py"))


def random_scalar(rng: random.Random):
    """Small ints, huge ints and proper fractions, as ints or Fractions."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return rng.choice((-1, 1)) * rng.randrange(10 ** 20)
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return Fraction(rng.randint(-3, 3))


def random_matrix(rng: random.Random, rows: int, cols: int) -> list:
    return [[random_scalar(rng) for _ in range(cols)] for _ in range(rows)]


def fraction_product(a: list, b: list) -> list:
    return [[sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(len(b))),
                 Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def fraction_matrix(rows: list) -> Matrix:
    """The same values given as Fractions, so Matrix coerces every entry."""
    return Matrix([[Fraction(x) for x in row] for row in rows])


def is_normal(x) -> bool:
    """A scalar in canonical form: int when integral, else Fraction."""
    if type(x) is int:
        return True
    return type(x) is Fraction and x.denominator != 1


def test_qq_returns_int_exactly_when_integral():
    assert type(qq(3)) is int
    assert qq(Fraction(6, 3)) == 2 and type(qq(Fraction(6, 3))) is int
    assert qq("4/2") == 2 and type(qq("4/2")) is int
    assert qq("-3/4") == Fraction(-3, 4) and type(qq("-3/4")) is Fraction
    assert qq(True) == 1 and type(qq(True)) is int


def test_div_is_exact_and_normal():
    assert div(6, 3) == 2 and type(div(6, 3)) is int
    assert div(1, 3) == Fraction(1, 3)
    assert div(-7, -1) == 7 and type(div(-7, -1)) is int
    assert div(Fraction(3, 2), Fraction(1, 2)) == 3
    assert type(div(Fraction(3, 2), Fraction(1, 2))) is int
    assert div(2, Fraction(4, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        div(1, 0)


def test_primitive_part_clears_denominators_and_content():
    assert primitive_part([Fraction(1, 2), Fraction(-1, 3), 0]) == [3, -2, 0]
    assert primitive_part([4, -6, 0, 10]) == [2, -3, 0, 5]
    assert primitive_part([-7]) == [-1]
    assert primitive_part([0, 0]) == [0, 0]
    assert primitive_part([]) == []
    assert primitive_part([Fraction(-6, 5), 3]) == [-2, 5]
    assert all(type(x) is int for x in primitive_part([Fraction(2, 3), 5]))


def test_matrix_entries_are_normalized():
    m = Matrix([[Fraction(4, 2), Fraction(1, 2)], ["6/3", 5]])
    assert [type(x) for row in m.data for x in row] == [int, Fraction, int, int]
    assert m == Matrix([[2, Fraction(1, 2)], [2, 5]])
    assert hash(m) == hash(Matrix([[Fraction(2), Fraction(1, 2)], [2, 5]]))


def test_mixed_matrix_operations_match_fraction_arithmetic():
    rng = random.Random(SEED)
    for _ in range(40):
        n, k, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = random_matrix(rng, n, k), random_matrix(rng, k, p)
        c = random_matrix(rng, n, k)
        ma, mb, mc = Matrix(a), Matrix(b), Matrix(c)
        product = ma.mul(mb)
        assert product == Matrix(fraction_product(a, b))
        assert ma.add(mc) == Matrix([[Fraction(x) + Fraction(y) for x, y in zip(r, s)]
                                     for r, s in zip(a, c)])
        assert ma.sub(mc) == Matrix([[Fraction(x) - Fraction(y) for x, y in zip(r, s)]
                                     for r, s in zip(a, c)])
        vec = [random_scalar(rng) for _ in range(k)]
        assert ma.apply(vec) == tuple(
            sum((Fraction(x) * Fraction(v) for x, v in zip(row, vec)), Fraction(0))
            for row in a)
        for m in (product, ma.add(mc), ma.scale(Fraction(2, 3)), rref(ma)[0]):
            assert all(is_normal(x) for row in m.data for x in row)
        # the cached row supports, once filled, change no result
        plain_a, plain_b = fraction_matrix(a), fraction_matrix(b)
        for m, rows in ((ma, a), (mb, b)):
            assert m.support == tuple(
                tuple((j, Fraction(x)) for j, x in enumerate(row) if x) for row in rows)
        assert ma == plain_a and hash(ma) == hash(plain_a)
        assert mb == plain_b and hash(mb) == hash(plain_b)
        assert ma.mul(mb) == product == Matrix(fraction_product(a, b))
        back = Matrix(random_matrix(rng, p, n), cols=n)
        assert ma.mul(mb).trace_of_product(back) == sum(
            (Fraction(x) * Fraction(y) for row, col in
             zip(fraction_product(a, b), zip(*back.data)) for x, y in zip(row, col)),
            Fraction(0))


def test_pivot_of_minus_one_keeps_rows_integral():
    red, pivots = rref(Matrix([[-1, 2, 3], [2, -4, 1]]))
    assert pivots == (0, 2)
    assert all(type(x) is int for row in red.data for x in row)


def test_trace_of_product_matches_the_product_trace():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        n, k = rng.randint(0, 5), rng.randint(0, 5)
        a = Matrix(random_matrix(rng, n, k), cols=k)
        b = Matrix(random_matrix(rng, k, n), cols=n)
        t = a.trace_of_product(b)
        assert t == a.mul(b).trace()
        assert is_normal(t)


def test_trace_of_product_rejects_shape_mismatch():
    a = Matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        a.trace_of_product(a)
    with pytest.raises(ValueError):
        a.trace_of_product(Matrix.identity(3))


def test_determinant_and_inverse_examples():
    m = Matrix([[2, 1], [7, 4]])
    assert determinant(m) == 1
    assert inverse(m) == Matrix([[4, -1], [-7, 2]])
    half = Matrix([[2, 0], [0, Fraction(1, 3)]])
    assert determinant(half) == Fraction(2, 3)
    assert inverse(half) == Matrix([[Fraction(1, 2), 0], [0, 3]])
    singular = Matrix([[1, 2], [2, 4]])
    assert determinant(singular) == 0
    with pytest.raises(ValueError):
        inverse(singular)
    with pytest.raises(ValueError):
        determinant(Matrix([[1, 2]]))
    assert determinant(Matrix.zeros(0, 0)) == 1
    assert inverse(Matrix.zeros(0, 0)) == Matrix.zeros(0, 0)


def test_inverse_times_matrix_is_identity():
    rng = random.Random(SEED + 2)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = Matrix(random_matrix(rng, n, n))
        if determinant(m) == 0:
            continue
        assert m.mul(inverse(m)) == Matrix.identity(n)
        assert inverse(m).mul(m) == Matrix.identity(n)


def test_change_basis_rejects_a_singular_matrix():
    h = corpus("heis3")
    with pytest.raises(ContractError):
        change_basis(h, Matrix([[1, 0, 0], [0, 1, 0], [1, 1, 0]]))
    # an abelian algebra has no bracket to expose the singularity
    with pytest.raises(ContractError):
        change_basis(abelian(2), Matrix([[1, 1], [1, 1]]))


def _division_sites(tree: ast.AST) -> list:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)]


def test_every_division_goes_through_div_and_no_float_literal():
    assert SOURCES
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "linalg.py":
            helper = [node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "div"]
            assert len(helper) == 1
            allowed = {id(node) for node in _division_sites(helper[0])}
        for node in _division_sites(tree):
            if id(node) not in allowed:
                offenders.append("%s:%d uses /" % (path.name, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offenders.append("%s:%d float literal" % (path.name, node.lineno))
    assert offenders == []
