"""Every module-level import in ``src/repro`` is used by its module.

The scan parses each module (package ``__init__`` files are skipped:
they import to re-export) and collects the names its module-level
``import`` statements bind.  A name counts as used when the module
reads it anywhere, lists it in ``__all__``, or mentions it in a string
annotation such as ``Optional["Span"]``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def module_imports(tree):
    """(bound name, line) for each import outside functions and classes."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *[handler.body for handler in
                            getattr(node, "handlers", [])]):
                stack.extend(block)


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                used |= {name.id for name in
                         ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(name, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(tree):
    """(name, line) for each module-level import the module never uses."""
    used = used_names(tree)
    return [(name, line) for name, line in module_imports(tree)
            if name not in used]


def test_scan_names_each_unused_import():
    tree = ast.parse(
        "import os\n"
        "import sys\n"
        "from typing import Dict, Optional\n"
        "__all__ = ['sys']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    import json\n")
    assert sorted(unused_imports(tree)) == [("Dict", 3), ("os", 1)]


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused += [f"{path.relative_to(SRC.parent)}:{line}: {name}"
                   for name, line in unused_imports(tree)]
    assert not unused, "unused imports:\n" + "\n".join(sorted(unused))
