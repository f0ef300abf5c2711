"""The package imports in layer order, with every import at module level,
and keeps only code that the package or the README reaches.

Each module may import only modules earlier in ``LAYERS``, so there is no
import cycle and no import needs to hide inside a function.  ``__init__``
re-exports from every layer and is exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lierad"

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


def names_in(node: ast.AST) -> set:
    """The identifiers a node reads, imports or takes an attribute by."""
    found = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            found.add(inner.id)
        elif isinstance(inner, ast.Attribute):
            found.add(inner.attr)
        elif isinstance(inner, ast.alias):
            found.add(inner.name)
    return found


def test_every_top_level_definition_is_reached_outside_the_tests():
    """A function or class that nothing in ``src/`` names, other than its own
    definition, and that the README does not name is reached only by the
    tests: it is dead code, a test oracle, or API that needs documenting."""
    statements = [node for p in PACKAGE.glob("*.py")
                  for node in ast.parse(p.read_text(encoding="utf-8"), str(p)).body]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unreached = []
    for node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        named = any(node.name in names_in(other)
                    for other in statements if other is not node)
        if not named and not re.search(r"\b%s\b" % re.escape(node.name), readme):
            unreached.append(node.name)
    assert sorted(unreached) == []
