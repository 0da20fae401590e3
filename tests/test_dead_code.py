"""Every module-level function and class of rtls is named somewhere else.

A name counts as used when it appears, as a whole word, anywhere in
``src/rtls`` beyond its own ``def``/``class`` line, in ``perfbench/`` (the
benchmark traces some names by their string) or in ``README.md``; the
first test also counts ``tests/``.  ``rtls/__init__.py`` is not searched:
a re-export there keeps nothing alive.  The second test keeps the package
to what a command, a demo or the benchmark runs: a definition that only
the tests name belongs in ``tests/`` (``tests/oracles.py`` holds the
paper-identity oracles and the seeded fixtures).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rtls"


def _searched_texts(with_tests):
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    if with_tests:
        paths += sorted((ROOT / "tests").rglob("*.py"))
    paths += sorted((ROOT / "perfbench").rglob("*.py"))
    paths.append(ROOT / "README.md")
    return [p.read_text() for p in paths]


def _unnamed_definitions(texts):
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            mentions = sum(len(word.findall(text)) for text in texts)
            if mentions <= 1:  # the def/class line itself
                unused.append(f"{module.name}:{node.lineno} {node.name}")
    return unused


def test_every_module_level_definition_is_named_elsewhere():
    assert _unnamed_definitions(_searched_texts(with_tests=True)) == []


def test_every_module_level_definition_is_named_outside_the_tests():
    assert _unnamed_definitions(_searched_texts(with_tests=False)) == []
