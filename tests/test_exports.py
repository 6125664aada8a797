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
