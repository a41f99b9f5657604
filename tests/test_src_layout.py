"""Every definition in the package has a caller inside the package.

A function, class, method or module-level name that only tests read belongs
in the tests: the package holds what the CLI runs. The check is by name, so
a definition counts as used when its name is read anywhere in src/mdalbench
outside the definition itself (as a variable or as an attribute).

No module imports an underscore name from another module of the package: a
name another module needs is public where it is defined.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mdalbench"


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, name, node) for top-level functions, classes and
    assigned names, and for every method; dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _dunder(target.id):
                    yield target.id, target.id, node


def _names_read(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub, sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub, sub.attr


def dead_definitions(src_dir):
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(src_dir.glob("*.py"))
    }
    reads = [pair for tree in trees.values() for pair in _names_read(tree)]
    dead = []
    for filename, tree in trees.items():
        for qualname, defined, node in _definitions(tree):
            inside = {id(sub) for sub in ast.walk(node)}
            if not any(
                name == defined and id(sub) not in inside for sub, name in reads
            ):
                dead.append(f"{filename}: {qualname}")
    return dead


def test_every_src_definition_is_named_outside_itself():
    dead = dead_definitions(SRC)
    assert not dead, "named nowhere else in src/mdalbench: " + ", ".join(dead)


def test_dead_definition_check_names_an_uncalled_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = []\nLIMIT = 1\nUNREAD: int = 2\n\n"
        "def used():\n    return LIMIT\n\n"
        "def unused():\n    return used()\n\n"
        "class K:\n    def m(self):\n        return self.m\n"
        "    def __repr__(self):\n        return ''\n\n"
        "K().m()\n",
        encoding="utf-8",
    )
    assert dead_definitions(tmp_path) == ["a.py: UNREAD", "a.py: unused"]



def private_imports(src_dir):
    """(file, name) for each underscore name that a module imports from
    another module of the package; dunders aside."""
    found = []
    for path in sorted(src_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            ours = isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "mdalbench"
            )
            if ours:
                found += [
                    (path.name, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not _dunder(alias.name)
                ]
    return found


def test_no_src_module_imports_a_private_name():
    assert private_imports(SRC) == []


def test_private_import_check_names_an_underscore_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import __version__, b\nfrom .b import _hidden, shown\n"
        "from mdalbench.c import _other\nfrom os import _exit\n",
        encoding="utf-8",
    )
    assert private_imports(tmp_path) == [("a.py", "_hidden"), ("a.py", "_other")]
