"""Dead-code guard: every module-level function or class of ``preflab``, and
every method and property of its classes, has a caller.

A name counts as used when ``src/`` refers to it outside its own
definition, when ``perfbench/`` names it (string constants included, as the
traced run wraps functions by name), or when ``preflab.__all__`` exports
it. Dunder methods are called by Python itself and are exempt. Code that
only tests call lives in ``tests/helpers.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import preflab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "preflab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# definition -> why it stays without a caller in src/, perfbench/ or __all__
# (the definitional segments are the reference stacked_ranks is tested against)
ALLOWED = {
    "composition.SegmentedPair.n_segments": "segment count of the definitional segments",
    "composition.SegmentedPair.w_bounds": "chosen-side bounds of the definitional segments",
    "composition.SegmentedPair.l_bounds": "rejected-side bounds of the definitional segments",
}


def _names(tree, strings: bool = False, bare: bool = True) -> Counter:
    """Identifiers read in ``tree``: attributes, bare names unless ``bare``
    is false, and string constants if ``strings``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif bare and isinstance(node, ast.Name):
            found[node.id] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _definitions():
    """(qualified name, node, whether it is a method) of every module-level
    function and class, and of every method and property of those classes
    but dunders."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, FUNCTIONS) and not member.name.startswith("__"):
                        yield f"{path.stem}.{node.name}.{member.name}", member, True


def unused_definitions(allowed) -> list:
    """Qualified name of every definition that nothing uses and ``allowed``
    does not name. A method or property is used only as an attribute, so a
    bare name of the same spelling (a local variable) does not count."""
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    used = {bare: sum((_names(tree, bare=bare) for tree in trees), Counter())
            for bare in (True, False)}
    named = Counter()
    for path in (ROOT / "perfbench").glob("*.py"):
        named += _names(ast.parse(path.read_text()), strings=True)
    return [
        qualified
        for qualified, node, method in _definitions()
        if used[not method][node.name] <= _names(node, bare=not method)[node.name]
        and not named[node.name]
        and node.name not in preflab.__all__
        and qualified not in allowed
    ]


def test_every_definition_has_a_caller():
    assert unused_definitions(ALLOWED) == []


def test_allow_list_names_only_definitions_without_a_caller():
    # an allowed name that gains a caller leaves the list
    assert set(unused_definitions(allowed=())) == set(ALLOWED)


def test_methods_are_scanned():
    # a method is a definition of its own, named with its class
    found = {qualified for qualified, _, _ in _definitions()}
    assert {"lm.Vocab.content_id", "trainer.DatasetPlan.log_ratios"} <= found
    assert "lm.Vocab.__post_init__" not in found
