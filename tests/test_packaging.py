import ast
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "torusgas")


def third_party_imports() -> set[str]:
    """Top-level names of the non-stdlib modules the package imports."""
    names = set()
    for fname in os.listdir(PACKAGE):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "torusgas"}


def test_declared_dependencies_match_imports():
    # a dependency declared but never imported (or imported but undeclared)
    # fails here
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0] for spec in declared}
    assert third_party_imports() == names


def unused_imports(path: str) -> list[str]:
    """Names bound by a module's top-level imports that the module never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    unused = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py") and fname != "__init__.py":
            names = unused_imports(os.path.join(PACKAGE, fname))
            if names:
                unused[fname] = names
    assert unused == {}
