"""Dead-code guard: every module-level function or class of ``preflab``, and
every method and property of its classes, has a caller, and every
module-level import of a module but ``__init__`` is read.

A name counts as used when ``src/`` refers to it outside its own
definition, when ``perfbench/`` names it (string constants included, as the
traced run wraps functions by name), or when ``preflab.__all__`` exports
it. Dunder methods are called by Python itself and are exempt, and so is
a method that overrides one of a base class from outside ``preflab``,
which that base's own code calls (``argparse`` calls ``error``). A draw
such as ``rng.uniform`` is numpy's, so an attribute of a name ``rng`` is
not a use. Code that only tests call lives in ``tests/helpers.py``.

An import counts as read when its module refers to the bound name, or when
``perfbench/`` names it as an attribute or a string (the traced run wraps
``trainer.pad_tokens``). ``__init__`` imports to export.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import preflab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "preflab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(tree, strings: bool = False, bare: bool = True) -> Counter:
    """Identifiers read in ``tree``: attributes but those of a name ``rng``,
    bare names unless ``bare`` is false, and string constants if ``strings``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            rng = isinstance(node.value, ast.Name) and node.value.id == "rng"
            found[node.attr] += not rng
        elif bare and isinstance(node, ast.Name):
            found[node.id] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _sources() -> dict:
    """The text of every module of ``src/preflab``, by module name."""
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _definitions(sources):
    """(qualified name, node, whether it is a method) of every module-level
    function and class, and of every method and property of those classes
    but dunders."""
    for stem, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                yield f"{stem}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, FUNCTIONS) and not member.name.startswith("__"):
                        yield f"{stem}.{node.name}.{member.name}", member, True


def _overrides_foreign(qualified: str) -> bool:
    """Whether method ``module.Class.name`` overrides a method of a base
    class defined outside ``preflab``."""
    stem, cls, name = qualified.split(".")
    bases = getattr(importlib.import_module(f"preflab.{stem}"), cls).__mro__[1:]
    return any(hasattr(b, name) for b in bases if not b.__module__.startswith("preflab"))


def _perfbench_names(bare: bool = True) -> Counter:
    """Identifiers and string constants of ``perfbench/``; bare names
    unless ``bare`` is false."""
    named = Counter()
    for path in (ROOT / "perfbench").glob("*.py"):
        named += _names(ast.parse(path.read_text()), strings=True, bare=bare)
    return named


def _imported(tree):
    """The name each module-level import of ``tree`` binds, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def unused_imports(sources=None) -> list:
    """``module.name`` of every module-level import of ``sources`` (default:
    the modules of ``src/preflab``) that its module never reads, ``__init__``
    aside. A bare name in ``perfbench/`` does not count, so perfbench's own
    ``import os`` does not excuse one in ``src``."""
    sources = sources or _sources()
    named = _perfbench_names(bare=False)
    unused = []
    for stem, text in sources.items():
        if stem == "__init__":
            continue
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{stem}.{name}" for name in _imported(tree)
                   if name not in read and not named[name]]
    return unused


def unused_definitions(sources=None) -> list:
    """Qualified name of every definition of ``sources`` (default: the
    modules of ``src/preflab``) that nothing uses. A method or property is
    used only as an attribute, so a bare name of the same spelling (a local
    variable) does not count."""
    sources = sources or _sources()
    trees = [ast.parse(text) for text in sources.values()]
    used = {bare: sum((_names(tree, bare=bare) for tree in trees), Counter())
            for bare in (True, False)}
    named = _perfbench_names()
    return [
        qualified
        for qualified, node, method in _definitions(sources)
        if used[not method][node.name] <= _names(node, bare=not method)[node.name]
        and not named[node.name]
        and node.name not in preflab.__all__
        and not (method and _overrides_foreign(qualified))
    ]


def test_every_definition_has_a_caller():
    assert unused_definitions() == []


def test_methods_are_scanned():
    # a method is a definition of its own, named with its class
    found = {qualified for qualified, _, _ in _definitions(_sources())}
    assert {"lm.Vocab.content_id", "trainer.DatasetPlan.log_ratios"} <= found
    assert "lm.Vocab.__post_init__" not in found


def test_a_draw_of_the_same_name_is_not_a_use():
    # NeuralPolicy.init draws with rng.uniform, which hid a test-only
    # NGramPolicy.uniform from the scan
    sources = _sources()
    anchor = "    @classmethod\n    def random("
    assert "rng.uniform(" in sources["lm"] and sources["lm"].count(anchor) == 1
    uniform = "    @classmethod\n    def uniform(cls, vocab, order):\n        return cls\n\n"
    sources["lm"] = sources["lm"].replace(anchor, uniform + anchor)
    assert unused_definitions(sources) == ["lm.NGramPolicy.uniform"]


def test_only_an_override_of_a_foreign_method_is_exempt():
    # the CLI's parser overrides argparse's error, which argparse calls; a
    # method of the same class that argparse does not define stays reported
    sources = _sources()
    anchor = "    def error(self, message):\n"
    assert sources["cli"].count(anchor) == 1
    extra = "    def usage_line(self):\n        return self.prog\n\n"
    sources["cli"] = sources["cli"].replace(anchor, extra + anchor)
    assert unused_definitions(sources) == ["cli._Parser.usage_line"]


def test_every_import_is_read():
    assert unused_imports() == []


def test_an_unread_import_is_reported():
    # an import that only perfbench's own code reads is still unread here
    sources = _sources()
    anchor = "from __future__ import annotations\n"
    assert sources["seeds"].count(anchor) == 1 and "import os" not in sources["seeds"]
    sources["seeds"] = sources["seeds"].replace(anchor, anchor + "import os\n")
    assert unused_imports(sources) == ["seeds.os"]
