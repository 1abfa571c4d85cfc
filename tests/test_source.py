"""Every public name in src/wstirling has a caller in src/wstirling, and
every private module-level name and every name a module imports is read
there.

A public module-level function or class whose name the package's code never
reads, as a bare name or as an attribute, is reached from tests alone; so is
a public method whose name it never reads as an attribute.  Mentions in
docstrings, comments and strings do not count, and neither does an import
that nothing then reads, or a local name that matches a method's.  If such a
name checks a claim of the paper, that claim belongs in wstirling.identities,
whose probes then call it; otherwise it goes.  An import that its module
never reads as a name is left over from code that moved, and goes too; so
does a private module-level function, class or constant that the package
never reads.

Only stirling, which owns the table cache, and cli, whose table command
keeps its rows in a table of its own, call StirlingTable(...); every other
module reads its tables through stirling, so the cache has one owner.
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


def parse(src):
    """each module's tree, the attribute names the package reads, and all names it reads"""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    return trees, attributes, attributes | {node.id for node in nodes
                                            if isinstance(node, ast.Name)
                                            and isinstance(node.ctx, ast.Load)}


def names_only_tests_reach(src=SRC):
    trees, attributes, read = parse(src)
    return [f"{module}.{name}" for module, tree in trees.items() for name in public_names(tree)
            if name.rsplit(".", 1)[-1] not in (attributes if "." in name else read)]


def private_names(tree):
    """names a module binds at its top level by def, class or assignment that
    start with "_", dunders such as __version__ aside"""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not (name.startswith("__") and name.endswith("__")))


def unread_private_names(src=SRC):
    """module.name for each private module-level function, class or constant nothing reads"""
    trees, _, read = parse(src)
    return [f"{module}.{name}" for module, tree in trees.items() for name in private_names(tree)
            if name not in read]


def test_every_public_name_has_a_caller_in_src():
    assert names_only_tests_reach() == []


def test_mentions_are_not_callers(tmp_path):
    (tmp_path / "layer.py").write_text(
        '"""used(), unused() and Box.unused_method are named here only."""\n'
        "def used():\n    return 'unused'\n\n\n"
        "def unused():\n    # used() is not a caller\n    return used()\n\n\n"
        "def _local(unused_method):\n    return unused_method\n\n\n"
        "class Box:\n    def unused_method(self):\n        return Box\n",
        encoding="utf-8")
    (tmp_path / "other.py").write_text("from .layer import unused_method\n", encoding="utf-8")
    assert names_only_tests_reach(tmp_path) == ["layer.unused", "layer.Box.unused_method"]


def test_every_private_name_is_read():
    assert unread_private_names() == []


def test_unread_private_names_are_found(tmp_path):
    (tmp_path / "layer.py").write_text(
        '"""_orphan() and _Spare are named here only."""\n'
        "def _orphan():\n    return '_Spare'  # _orphan\n\n\n"
        "def _helper():\n    return 1\n\n\n"
        "class _Spare:\n    def _unread_method(self):\n        return 0\n\n\n"
        "class _Used:\n    def _unread_method(self):\n        return 0\n",
        encoding="utf-8")
    (tmp_path / "other.py").write_text(
        "from .layer import _Spare, _Used, _helper\n\n\n"
        "def run():\n    return _helper(), _Used\n", encoding="utf-8")
    assert unread_private_names(tmp_path) == ["layer._orphan", "layer._Spare"]


def test_unread_private_constants_are_found(tmp_path):
    (tmp_path / "layer.py").write_text(
        '"""_LIMIT and _SPARE are named here only."""\n'
        "__version__ = '1'\n"
        "_LIMIT = 4  # _SPARE\n"
        "_SPARE, _PAIR = 1, '_LIMIT'\n"
        "_TYPED: int = 2\n"
        "_USED = 3\n\n\n"
        "def read():\n    return _USED\n",
        encoding="utf-8")
    (tmp_path / "other.py").write_text(
        "from .layer import _PAIR\n\nVALUE = _PAIR\n", encoding="utf-8")
    assert unread_private_names(tmp_path) == ["layer._LIMIT", "layer._SPARE", "layer._TYPED"]


def unused_imports(src=SRC):
    """module.name for each name a module imports and never reads"""
    found = []
    for path in sorted(src.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        read = {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        bound = [(alias.asname or alias.name).partition(".")[0] for node in nodes
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names]
        found += [f"{path.stem}.{name}" for name in bound if name not in read]
    return found


def test_every_import_is_read():
    assert unused_imports() == []


def test_unused_imports_are_found(tmp_path):
    (tmp_path / "layer.py").write_text(
        '"""json and escape are named here only."""\n'
        "from __future__ import annotations\n\n"
        "import json\nimport os.path\nfrom re import compile as build, escape\n"
        "from typing import Sequence\n\n\n"
        "def first(words: Sequence[str]) -> str:\n"
        "    return build(words[0]).pattern + 'escape'  # escape\n",
        encoding="utf-8")
    assert unused_imports(tmp_path) == ["layer.json", "layer.os", "layer.escape"]


def table_builders(src=SRC):
    """the modules that call StirlingTable(...), by name or as an attribute"""
    trees, _, _ = parse(src)
    return [module for module, tree in trees.items()
            if any(isinstance(node, ast.Call) and "StirlingTable" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))
                for node in ast.walk(tree))]


def test_only_stirling_and_cli_build_tables():
    assert set(table_builders()) <= {"stirling", "cli"}


def test_table_builders_are_found(tmp_path):
    (tmp_path / "layer.py").write_text(
        '"""StirlingTable(pair) is named here only."""\n'
        "from . import stirling\n\n\n"
        "def read(pair):\n    return stirling.table(pair, 'first', 0, 0)  # StirlingTable()\n",
        encoding="utf-8")
    (tmp_path / "named.py").write_text(
        "from .stirling import StirlingTable\n\n\n"
        "def build(pair):\n    return StirlingTable(pair, 'first')\n", encoding="utf-8")
    (tmp_path / "other.py").write_text(
        "from . import stirling\n\n\n"
        "def build(pair):\n    return stirling.StirlingTable(pair, 'second')\n",
        encoding="utf-8")
    assert table_builders(tmp_path) == ["named", "other"]
