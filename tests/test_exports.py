"""The export lists name what the package really provides, once each."""

import ast
from pathlib import Path

import pytest

import xfvar
import xfvar.scm


@pytest.mark.parametrize("module", [xfvar, xfvar.scm], ids=lambda m: m.__name__)
def test_all_names_exist_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_all_is_what_init_imports():
    tree = ast.parse(Path(xfvar.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(xfvar.__all__) == imported


def _imported_names(tree):
    """(name, line) of each name a module's imports bind, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(xfvar.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_every_import_is_used(path):
    # no linter runs here: an imported name must be read, exported in
    # __all__, or marked on its line with "# noqa: F401"
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = [
        name for name, line in _imported_names(tree)
        if name not in read and name not in exported and "# noqa: F401" not in lines[line - 1]
    ]
    assert unused == []
