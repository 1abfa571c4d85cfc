"""Every public name in src/wstirling has a caller in src/wstirling.

A public module-level function or class, or a public method, whose name the
package's code never reads, as a bare name or as an attribute, is reached
from tests alone.  Mentions in docstrings, comments and strings do not count,
and neither does an import that nothing then reads.  If such a name checks a
claim of the paper, that claim belongs in wstirling.identities, whose probes
then call it; otherwise it goes.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wstirling"


def public_names(tree):
    """module-level functions and classes, and methods as Class.method"""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def names_read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def names_only_tests_reach(src=SRC):
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    read = {name for tree in trees.values() for name in names_read(tree)}
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in public_names(tree) if name.rsplit(".", 1)[-1] not in read]


def test_every_public_name_has_a_caller_in_src():
    assert names_only_tests_reach() == []


def test_mentions_are_not_callers(tmp_path):
    (tmp_path / "layer.py").write_text(
        '"""used(), unused() and Box.unused_method are named here only."""\n'
        "def used():\n    return 'unused'\n\n\n"
        "def unused():\n    # used() is not a caller\n    return used()\n\n\n"
        "class Box:\n    def unused_method(self):\n        return Box\n",
        encoding="utf-8")
    (tmp_path / "other.py").write_text("from .layer import unused_method\n", encoding="utf-8")
    assert names_only_tests_reach(tmp_path) == ["layer.unused", "layer.Box.unused_method"]
