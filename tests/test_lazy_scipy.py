"""Modules that load on first use stay unloaded by commands that never use
them, and the deferred calls keep their bits.

Only two functions import scipy: `scm.gauss_quantile` (ndtri) and
`formula.sigmoid` (expit). Commands that need neither never load it.
`numpy.ma` loads only when a numpy function imports it, such as
`np.unique` on its hash path; `oracle`, and `counterfactual` over cell
tables, avoid that path.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, ndtri

from xfvar import formula, scm, sensitivity

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "xfvar"
DATA = ROOT / "tests" / "data"

# (module file, enclosing function) of every scipy import src/xfvar may hold
ALLOWED_SCIPY_IMPORTS = {("scm.py", "gauss_quantile"), ("formula.py", "sigmoid")}


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _loaded_after(argv, *modules):
    """Import xfvar.cli in a fresh interpreter and run main(argv) if argv
    is given; (exit code, which of modules are then in sys.modules)."""
    script = (
        "import sys\n"
        "from xfvar.cli import main\n"
        f"code = 0 if {argv!r} is None else main({argv!r})\n"
        f"print([m for m in {modules!r} if m in sys.modules])\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return proc.returncode, ast.literal_eval(proc.stdout.splitlines()[-1])


def test_import_cli_leaves_scipy_unloaded():
    assert _loaded_after(None, "scipy.special") == (0, [])


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--model", str(DATA / "model1.json")],
        ["venn", "--report", str(DATA / "model1_report.json"), "--ascii"],
    ],
    ids=["oracle", "venn"],
)
def test_commands_without_gaussian_or_sigmoid_leave_scipy_unloaded(argv):
    assert _loaded_after(argv, "scipy.special") == (0, [])


def test_error_exit_leaves_scipy_unloaded(tmp_path):
    code, loaded = _loaded_after(["oracle", "--model", str(tmp_path / "missing.json")], "scipy.special")
    assert code == 2 and not loaded


def _write_model(path, nodes):
    path.write_text(json.dumps({
        "variables": [n["name"] for n in nodes],
        "outcome": nodes[-1]["name"],
        "nodes": nodes,
    }))
    return path


def test_gaussian_counterfactual_loads_scipy(tmp_path):
    # positive control: the probe above does see a load when one happens
    model = _write_model(tmp_path / "gauss.json", [
        {"name": "A", "parents": [], "mechanism": {"kind": "root_gaussian"}},
        {"name": "Y", "parents": ["A"], "mechanism": {"kind": "deterministic", "expr": "2*A"}},
    ])
    argv = ["counterfactual", "--model", str(model), "--samples", "1000", "--out", str(tmp_path / "r.json")]
    assert _loaded_after(argv, "scipy.special") == (0, ["scipy.special"])


def test_oracle_leaves_numpy_ma_unloaded():
    assert _loaded_after(["oracle", "--model", str(DATA / "model1.json")], "numpy.ma") == (0, [])


def test_cell_table_counterfactual_leaves_numpy_ma_and_scipy_unloaded(tmp_path):
    model = _write_model(tmp_path / "cells.json", [
        {"name": "A", "parents": [], "mechanism": {
            "kind": "root_categorical", "values": [0.0, 1.0, 2.0], "probs": [0.25, 0.5, 0.25]}},
        {"name": "Y", "parents": ["A"], "mechanism": {
            "kind": "quantile_table", "levels": [0.25, 0.75],
            "cells": {"0": [0.0, 1.0], "1": [1.0, 2.0], "2": [2.0, 4.0]}}},
    ])
    argv = ["counterfactual", "--model", str(model), "--samples", "1000", "--out", str(tmp_path / "r.json")]
    assert _loaded_after(argv, "numpy.ma", "scipy.special") == (0, [])


def test_formula_sigmoid_bits_match_expit():
    x = np.array([-np.inf, -800.0, -3.5, -1e-300, 0.0, 0.25, 7.0, 800.0, np.inf])
    got = formula.parse_formula("sigmoid(x)", ["x"]).evaluate({"x": x})
    assert np.array_equal(_bits(got), _bits(expit(x)))


def test_constant_sigmoid_bits_match_expit():
    got = formula.parse_formula("sigmoid(2)", []).evaluate({})
    assert _bits(got) == _bits(expit(2.0))


def test_sigmoid_nn3_bits_match_expit():
    w = np.random.default_rng(3).standard_normal((257, 3)) * 40.0
    want = expit(-10.0 * (w[:, 0] + w[:, 1])) + expit(-10.0 * (w[:, 1] + w[:, 2]))
    assert np.array_equal(_bits(sensitivity._sigmoid_nn3(w)), _bits(want))


def test_gauss_quantile_bits_match_ndtri():
    e = np.array([0.0, 1e-300, 1.0 - 1e-16, 1.0, 0.5, 0.975])
    want = ndtri(np.array([1e-300, 1e-300, 1.0 - 1e-16, 1.0 - 1e-16, 0.5, 0.975]))
    assert np.array_equal(_bits(scm.gauss_quantile(e)), _bits(want))


def _scipy_imports(tree):
    """Yield (lineno, enclosing function name or None) for each scipy import."""

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Import):
                mods = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                mods = [child.module or ""]
            else:
                mods = []
            if any(m == "scipy" or m.startswith("scipy.") for m in mods):
                yield child.lineno, func
            yield from walk(child, func)

    yield from walk(tree, None)


def test_scipy_imported_only_inside_the_two_deferred_functions():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for lineno, func in _scipy_imports(ast.parse(path.read_text(), str(path))):
            where = (path.name, func)
            assert func is not None, f"{path.name}:{lineno}: module-level scipy import"
            assert where in ALLOWED_SCIPY_IMPORTS, f"{path.name}:{lineno}: scipy import in {func}()"
            found.add(where)
    assert found == ALLOWED_SCIPY_IMPORTS
