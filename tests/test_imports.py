"""Every name a `weightfilt` module imports is used in that module.

A name counts as used when it appears as a name in the module's code
(annotations included) or is listed in its ``__all__``.  Imports from
``__future__`` are directives, not names, and are skipped.
"""

import ast
import pkgutil
from pathlib import Path

import pytest

import weightfilt

PACKAGE_DIR = Path(weightfilt.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)]))


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree: ast.Module):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8"))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert unused == [], f"weightfilt.{name} imports unused names: {unused}"
