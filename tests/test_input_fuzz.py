"""Outside input gets an input error, never another exception (Hypothesis).

Algebra and family dicts are drawn over the keys the loaders read, with
arbitrary JSON values (``json.loads`` also yields NaN and infinities), and
corpus expressions are short strings over the expression alphabet.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lierad.corpus import UnknownCorpusName, corpus_expr  # noqa: E402
from lierad.formats import (  # noqa: E402
    AlgebraFileError,
    AlgebraValidationError,
    algebra_from_dict,
    family_from_dict,
)
from lierad.liealg import MAX_DIM  # noqa: E402

KEYS = ("dim", "basis", "brackets", "ambient_dim", "members")

# Small integers reach the loops.  Validating a large dimension is slow, not
# wrong, and test_formats_cli tests the bound itself, so past 6 only values
# beyond it are drawn.
INTEGERS = st.integers(-3, 6) | st.sampled_from([MAX_DIM + 1, 10 ** 30, -10 ** 30])
LEAVES = (st.none() | st.booleans() | INTEGERS | st.floats() | st.text(max_size=8)
          | st.sampled_from(["1/2", "0.5", "-3", "1e5", "1e999999", "1/0"]))
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS + ("i", "j", "c")), inner, max_size=3),
    max_leaves=12)
INPUT_DICTS = st.fixed_dictionaries(
    {}, optional={key: INTEGERS | JSON if key.endswith("dim") else JSON
                  for key in KEYS})


@settings(max_examples=200, deadline=None)
@given(INPUT_DICTS)
@example({"dim": float("inf")})
@example({"dim": 2, "brackets": [{"i": float("-inf"), "j": 1, "c": [0, 0]}]})
@example({"dim": 2, "brackets": [{"i": 0, "j": float("nan"), "c": [0, 0]}]})
def test_algebra_dicts_raise_only_input_errors(data):
    try:
        algebra_from_dict(data)
    except (AlgebraFileError, AlgebraValidationError):
        pass


@settings(max_examples=200, deadline=None)
@given(INPUT_DICTS)
@example({"ambient_dim": float("inf")})
def test_family_dicts_raise_only_input_errors(data):
    try:
        family_from_dict(data)
    except AlgebraFileError:
        pass


EXPRESSION = st.text(alphabet="directabelnsuthf_v2(),:0123456789 ", max_size=24) \
    | st.text(max_size=12)


@settings(max_examples=200, deadline=None)
@given(EXPRESSION)
def test_corpus_expressions_raise_only_unknown_corpus_name(text):
    try:
        corpus_expr(text)
    except UnknownCorpusName:
        pass
