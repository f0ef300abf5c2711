"""The package imports in layer order, with every import at module level.

Each module may import only modules earlier in ``LAYERS``, so there is no
import cycle and no import needs to hide inside a function.  ``__init__``
re-exports from every layer and is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lierad"

LAYERS = ("linalg", "polys", "liealg", "modules", "radicals", "frattini",
          "chains", "formats", "corpus", "reports", "acceptance", "cli")


def modules() -> dict:
    found = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in PACKAGE.glob("*.py")}
    del found["__init__"]
    return found


def imports_inside_functions(tree: ast.AST) -> list:
    """Line numbers of the imports made inside a function body."""
    return sorted({inner.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def imported_modules(node: ast.AST) -> list:
    """The lierad modules an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("lierad.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 1:
        base = node.module
    elif node.level == 0 and (node.module or "").split(".")[0] == "lierad":
        base = node.module[len("lierad."):]
    else:
        return []
    return [base.split(".")[0]] if base else [a.name for a in node.names]


def test_every_module_has_a_layer():
    assert sorted(modules()) == sorted(LAYERS)


def test_no_import_inside_a_function():
    nested = {name: imports_inside_functions(tree)
              for name, tree in modules().items()}
    assert {name: found for name, found in nested.items() if found} == {}


def test_modules_import_only_earlier_layers():
    rank = {name: i for i, name in enumerate(LAYERS)}
    backwards = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            for target in imported_modules(node):
                if rank.get(target, len(LAYERS)) >= rank[name]:
                    backwards.append("%s.py:%d imports %s"
                                     % (name, node.lineno, target))
    assert backwards == []
