"""Cold ``analyze`` JSON, byte for byte, against a recorded table.

``analyze_digests.json`` holds the sha256 of ``report_to_json(analyze(L,
name=name))`` for each algebra of ``digest_algebras()``, keyed by set and
name, each computed with every memo cache cleared.  The 85 algebras of the
first four sets are the suite corpus, ut(3..6) and two seeded sets of
random semidirect products; the last set adds direct sums whose modules
have summands of multiplicity greater than 1.  A change meant to keep every
output must leave every digest as it is, and a mismatch names the algebra.
A change meant to alter output regenerates the table and says so:

    PYTHONPATH=src python tests/test_analyze_digests.py > tests/analyze_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from conftest import MEMO_CACHES

from lierad.acceptance import random_semidirect_products
from lierad.corpus import corpus, corpus_expr, suite_corpus
from lierad.reports import analyze, report_to_json

TABLE = Path(__file__).with_name("analyze_digests.json")

PRODUCTS = ("abelian(12)", "abelian(16)", "direct(sl2_v2,sl2_v2)",
            "direct(d1_v2,d1_v2)", "direct(sl2,direct(abelian(3),sl2_v2))")


def digest_algebras() -> dict:
    """Set name -> [(name, algebra)]."""
    return {
        "suite": suite_corpus(),
        "ut": [("ut(%d)" % n, corpus("ut", n)) for n in range(3, 7)],
        "random(25, 20260810)": random_semidirect_products(25, 20260810),
        "random(40, 7)": random_semidirect_products(40, 7),
        "products": [(expr, corpus_expr(expr)) for expr in PRODUCTS],
    }


def analyze_digests() -> dict:
    """Set name -> {algebra name: sha256 of its cold ``analyze`` JSON}."""
    out = {}
    for key, algebras in digest_algebras().items():
        out[key] = {}
        for name, algebra in algebras:
            for cache in MEMO_CACHES:
                cache.cache_clear()
            text = report_to_json(analyze(algebra, name=name))
            out[key][name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_cold_analyze_json_matches_the_recorded_digests():
    recorded = json.loads(TABLE.read_text())
    assert sum(len(recorded[key]) for key in recorded if key != "products") == 85
    computed = analyze_digests()
    assert list(computed) == list(recorded)
    for key, digests in recorded.items():
        assert list(computed[key]) == list(digests), key
        changed = [name for name in digests if computed[key][name] != digests[name]]
        assert not changed, (key, changed)


if __name__ == "__main__":
    json.dump(analyze_digests(), sys.stdout, indent=1)
    sys.stdout.write("\n")
