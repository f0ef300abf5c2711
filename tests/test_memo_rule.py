"""Every memo in lierad is asked for again by one cold analysis.

The rule, stated in the ``liealg`` module docstring: a function is memoized
iff one cold ``analyze`` asks for it again and its body does more than look
up other memos.  This test checks the first half.  It analyzes the suite
corpus, ut(4..6) and ``random_semidirect_products(25, 20260810)``, each with
every memo cleared first (the memos ``conftest`` finds), sums the hits of
each memo and requires every one to be hit at least once.

A hit count cannot check the second half.  A function whose body only looks
up other memos is hit as well (``derived_series`` is a run of
``bracket_spaces`` lookups, ``levi_radical`` reads the derived series), but
a hit saves only those lookups, and the process keeps one more value per
algebra.  So such a function carries no memo, and each memo named here
skips real work when it is hit: an elimination, a trace Gram matrix or a
split.
"""

from __future__ import annotations

from conftest import MEMO_CACHES

from lierad.acceptance import random_semidirect_products
from lierad.corpus import corpus, suite_corpus
from lierad.reports import analyze

MEMOS = {
    "lierad.liealg.bracket_spaces", "lierad.liealg.center",
    "lierad.liealg.killing_form", "lierad.liealg.outer_derivations",
    "lierad.radicals.solvable_radical", "lierad.radicals.nilradical",
    "lierad.radicals.levi_subalgebra", "lierad.modules.direct_summands",
    "lierad.frattini.is_frattini_free", "lierad.frattini.frattini_ideal",
}


def cold_hits() -> dict:
    """Memo name -> its hits summed over one cold analysis per algebra."""
    algebras = (suite_corpus()
                + [("ut(%d)" % n, corpus("ut", n)) for n in (4, 5, 6)]
                + random_semidirect_products(25, 20260810))
    hits = dict.fromkeys(MEMO_CACHES, 0)
    for name, algebra in algebras:
        for cache in MEMO_CACHES:
            cache.cache_clear()
        analyze(algebra, name=name)
        for cache in MEMO_CACHES:
            hits[cache] += cache.cache_info().hits
    return {"%s.%s" % (c.__module__, c.__qualname__): n for c, n in hits.items()}


def test_every_memo_is_hit_by_a_cold_analysis():
    hits = cold_hits()
    assert {name: n for name, n in hits.items() if n == 0} == {}
    assert set(hits) == MEMOS
