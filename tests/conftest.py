"""Every test starts with empty memo caches.

The caches are found the way ``perfbench/harness.Caches`` finds them: every
object with ``cache_clear`` and ``cache_info`` among the globals and class
attributes of the ``lierad`` modules, so a cache added later is cleared
too.  No test is then answered by a value an earlier test cached, and a
test that patches a layer under a cache sees the patched layer run.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import lierad


def _memo_caches() -> set:
    found = set()
    for info in pkgutil.iter_modules(lierad.__path__):
        mod = importlib.import_module("lierad." + info.name)
        holders = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                 if isinstance(v, type)
                                 and v.__module__ == mod.__name__]
        found.update(value for namespace in holders for value in namespace.values()
                     if callable(getattr(value, "cache_clear", None))
                     and callable(getattr(value, "cache_info", None)))
    return found


MEMO_CACHES = _memo_caches()


@pytest.fixture
def clear_memo_caches():
    """A function that empties every memo cache, for a test that needs
    them cold more than once."""
    def clear():
        for cache in MEMO_CACHES:
            cache.cache_clear()
    return clear


@pytest.fixture(autouse=True)
def cold_caches(clear_memo_caches):
    clear_memo_caches()
