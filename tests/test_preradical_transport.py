"""Every registered preradical transports along basis changes (Hypothesis).

The algebras are ``random_semidirect_products(1, seed)`` and the basis
changes products of integer row operations, so the drawn examples stay
integral and small; dense ``Fraction`` basis changes of fixed algebras are
swept in ``test_basis_independence.py``.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lierad.acceptance import random_semidirect_products  # noqa: E402
from lierad.liealg import change_basis  # noqa: E402
from lierad.linalg import Matrix, Subspace  # noqa: E402
from lierad.radicals import REGISTRY  # noqa: E402


def unimodular(data, n: int) -> Matrix:
    """The identity after up to 2n drawn operations row_j += c * row_i."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    step = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.integers(-2, 2))
    for i, j, c in data.draw(st.lists(step, max_size=2 * n)):
        if i != j:
            rows[j] = [x + c * y for x, y in zip(rows[j], rows[i])]
    return Matrix(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.data())
def test_every_preradical_transports_under_change_of_basis(seed, data):
    [(name, original)] = random_semidirect_products(1, seed)
    t = unimodular(data, original.dim)
    twisted = change_basis(original, t)
    for key, spec in REGISTRY.items():
        moved = spec.evaluate(twisted)
        back = Subspace.span(original.dim, [t.apply(v) for v in moved.vectors()])
        assert back == spec.evaluate(original), (name, key)
