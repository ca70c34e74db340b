"""
Every top-level definition of the package is used by the package.

References the tests alone need live in ``tests/reference.py``, not in
``src/transonic``.  A top-level function, class or constant counts as used
when its name is read outside its own definition: in its own module by name,
in another module that imports it by name, or anywhere as an attribute.  A
definition that only calls itself (a memoized recursion) is not used.
"""

import ast
from pathlib import Path

import transonic

SRC = Path(transonic.__file__).parent


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level functions, classes and constants by name (dunders aside)."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    out[t.id] = node
    return {name: node for name, node in out.items() if not name.startswith("__")}


def _reads(tree: ast.Module, skip: ast.stmt | None = None) -> tuple[set[str], set[str]]:
    """The names read and the attributes taken in ``tree``, outside ``skip``."""
    names, attrs = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs


def _imported(tree: ast.Module, module: str) -> set[str]:
    """Names ``tree`` imports from the package module ``module``."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    }


def unused_definitions(src: Path = SRC) -> list[str]:
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, node in _defined(tree).items():
            names, attrs = _reads(tree, skip=node)
            used = name in names or name in attrs or any(
                name in o_attrs or (name in o_names and name in _imported(trees[other], module))
                for other, (o_names, o_attrs) in reads.items()
                if other != module
            )
            if not used:
                unused.append(f"{module}.{name}")
    return unused


def test_every_definition_is_used_by_the_package():
    assert unused_definitions() == []


def test_guard_sees_an_unused_and_a_self_recursive_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "def used(n):\n    return n < LIMIT\n"
        "def unused():\n    return used(1)\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\nused(2)\n")
    assert unused_definitions(tmp_path) == ["a.unused", "a.recursive"]
