"""Dead-code guard: every module-level function or class of ``preflab`` has
a caller.

A name counts as used when ``src/`` refers to it outside its own
definition, when ``perfbench/`` names it (string constants included, as the
traced run wraps functions by name), or when ``preflab.__all__`` exports
it. Scoring that only tests call lives in ``tests/helpers.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import preflab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "preflab"

# name -> why it stays without a caller in src/, perfbench/ or __all__
ALLOWED = {
    "grad_check": "A3's finite-difference checker of every graph op",
}


def _names(tree, strings: bool = False) -> Counter:
    """Identifiers read in ``tree``: names, attributes and, if ``strings``,
    string constants."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _definitions():
    """(module, name, node) of every module-level function and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.stem, node.name, node


def unused_definitions(allowed) -> list:
    """``module.name`` of every module-level definition that nothing uses
    and ``allowed`` does not name."""
    used = Counter()
    for path in SRC.glob("*.py"):
        used += _names(ast.parse(path.read_text()))
    named = Counter()
    for path in (ROOT / "perfbench").glob("*.py"):
        named += _names(ast.parse(path.read_text()), strings=True)
    return [
        f"{module}.{name}"
        for module, name, node in _definitions()
        if used[name] <= _names(node)[name]
        and not named[name]
        and name not in preflab.__all__
        and name not in allowed
    ]


def test_every_definition_has_a_caller():
    assert unused_definitions(ALLOWED) == []


def test_allow_list_names_only_definitions_without_a_caller():
    # an allowed name that gains a caller leaves the list
    assert {entry.split(".")[1] for entry in unused_definitions(allowed=())} == set(ALLOWED)
