"""Exact univariate factorization over Q."""

from __future__ import annotations

import random

import pytest

from lierad import polys
from lierad.linalg import qq
from lierad.polys import factor_rational_poly, poly_mul, poly_trim

SEED = 20260810


def coeffs(*xs):
    return [qq(x) for x in xs]


def test_difference_of_squares():
    lead, factors = factor_rational_poly(coeffs(-1, 0, 1))  # t^2 - 1
    assert lead == 1
    assert sorted(factors) == sorted([coeffs(-1, 1), coeffs(1, 1)])


def test_irreducible_quadratic():
    lead, factors = factor_rational_poly(coeffs(1, 0, 1))  # t^2 + 1
    assert lead == 1
    assert factors == [coeffs(1, 0, 1)]


def test_rational_root_cubic():
    # t^3 - 2t^2 - t + 2 = (t - 1)(t + 1)(t - 2)
    lead, factors = factor_rational_poly(coeffs(2, -1, -2, 1))
    assert lead == 1
    assert sorted(factors) == sorted(
        [coeffs(-1, 1), coeffs(1, 1), coeffs(-2, 1)])


def test_zero_polynomial_is_rejected():
    with pytest.raises(ValueError):
        factor_rational_poly([])
    with pytest.raises(ValueError):
        factor_rational_poly([0, 0])


def test_kronecker_splits_quartics():
    # (t^2 + 1)(t^2 + 2) has no rational roots
    p = poly_mul(coeffs(1, 0, 1), coeffs(2, 0, 1))
    lead, factors = factor_rational_poly(p)
    assert lead == 1
    assert sorted(factors) == sorted([coeffs(1, 0, 1), coeffs(2, 0, 1)])


def test_repeated_irreducible_factor():
    p = poly_mul(coeffs(1, 1, 1), coeffs(1, 1, 1))  # (t^2 + t + 1)^2
    lead, factors = factor_rational_poly(p)
    assert lead == 1
    assert factors == [coeffs(1, 1, 1), coeffs(1, 1, 1)]


def test_non_monic_and_fractional_input():
    # 2t^2 - 2 = 2 (t - 1)(t + 1)
    lead, factors = factor_rational_poly(coeffs(-2, 0, 2))
    assert lead == 2
    assert sorted(factors) == sorted([coeffs(-1, 1), coeffs(1, 1)])
    lead, factors = factor_rational_poly([qq("1/2"), qq("1/2")])
    assert lead == qq("1/2")
    assert factors == [coeffs(1, 1)]


def test_factorization_reconstructs_random_products():
    rng = random.Random(SEED)
    for _ in range(25):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            deg = rng.randrange(1, 3)
            part = [qq(rng.randint(-3, 3)) for _ in range(deg)] + [qq(1)]
            parts.append(part)
        product = coeffs(1)
        for part in parts:
            product = poly_mul(product, part)
        lead, factors = factor_rational_poly(product)
        rebuilt = [lead]
        for f in factors:
            rebuilt = poly_mul(rebuilt, f)
        assert poly_trim(rebuilt) == poly_trim(product)
        for f in factors:
            assert f[-1] == 1  # monic


def test_repeated_rational_roots_are_divided_out_with_multiplicity():
    # (t - 1)^3 (t + 2)^2 (t^2 + 1)
    p = coeffs(1)
    for f in [coeffs(-1, 1)] * 3 + [coeffs(2, 1)] * 2 + [coeffs(1, 0, 1)]:
        p = poly_mul(p, f)
    lead, factors = factor_rational_poly(p)
    assert lead == 1
    assert sorted(factors) == sorted(
        [coeffs(-1, 1)] * 3 + [coeffs(2, 1)] * 2 + [coeffs(1, 0, 1)])
    # t^2 (2t - 3)^2 = 4t^4 - 12t^3 + 9t^2 = 4 t^2 (t - 3/2)^2
    lead, factors = factor_rational_poly(coeffs(0, 0, 9, -12, 4))
    assert lead == 4
    assert sorted(factors) == sorted(
        [coeffs(0, 1)] * 2 + [coeffs("-3/2", 1)] * 2)


def test_rational_roots_are_enumerated_once_per_polynomial(monkeypatch):
    # t (t + 1)^2 (t^2 + 2)(t^2 + t + 1): three roots with multiplicity,
    # then a Kronecker split of the quartic that is left
    calls = []
    real = polys._rational_roots

    def counted(ints):
        calls.append(ints)
        return real(ints)

    monkeypatch.setattr(polys, "_rational_roots", counted)
    p = coeffs(1)
    for f in [coeffs(0, 1), coeffs(1, 1), coeffs(1, 1), coeffs(2, 0, 1),
              coeffs(1, 1, 1)]:
        p = poly_mul(p, f)
    lead, factors = factor_rational_poly(p)
    assert lead == 1
    assert sorted(factors) == sorted([coeffs(0, 1), coeffs(1, 1), coeffs(1, 1),
                                      coeffs(2, 0, 1), coeffs(1, 1, 1)])
    assert len(calls) == 1
