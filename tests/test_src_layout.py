"""Every definition in the package has a caller inside the package.

A function, class or method that only tests call belongs in the tests: the
package holds what the CLI runs. The check is by name, so a definition
counts as used when its name is read anywhere in src/mdalbench outside the
definition itself (as a variable or as an attribute).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mdalbench"


def _definitions(tree):
    """(qualified name, node) for top-level functions and classes and for
    every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


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
        for qualname, node in _definitions(tree):
            inside = {id(sub) for sub in ast.walk(node)}
            if not any(
                name == node.name and id(sub) not in inside for sub, name in reads
            ):
                dead.append(f"{filename}: {qualname}")
    return dead


def test_every_src_definition_is_named_outside_itself():
    dead = dead_definitions(SRC)
    assert not dead, "named nowhere else in src/mdalbench: " + ", ".join(dead)


def test_dead_definition_check_names_an_uncalled_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def unused():\n    return used()\n\n"
        "class K:\n    def m(self):\n        return self.m\n"
        "    def __repr__(self):\n        return ''\n\n"
        "K().m()\n",
        encoding="utf-8",
    )
    assert dead_definitions(tmp_path) == ["a.py: unused"]

