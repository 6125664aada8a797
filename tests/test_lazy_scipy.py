"""scipy.special loads on first use, and the deferred calls keep their bits.

Only two functions import scipy: `scm.gauss_quantile` (ndtri) and
`formula.sigmoid` (expit). Commands that need neither never load it.
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


def _scipy_loaded_after(argv=None):
    """Import xfvar.cli in a fresh interpreter and run main(argv) if argv
    is given; (exit code, whether scipy.special is loaded)."""
    script = (
        "import sys\n"
        "from xfvar.cli import main\n"
        f"code = 0 if {argv!r} is None else main({argv!r})\n"
        "print('scipy.special' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return proc.returncode, proc.stdout.splitlines()[-1] == "True"


def test_import_cli_leaves_scipy_unloaded():
    assert _scipy_loaded_after() == (0, False)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--model", str(DATA / "model1.json")],
        ["venn", "--report", str(DATA / "model1_report.json"), "--ascii"],
    ],
    ids=["oracle", "venn"],
)
def test_commands_without_gaussian_or_sigmoid_leave_scipy_unloaded(argv):
    assert _scipy_loaded_after(argv) == (0, False)


def test_error_exit_leaves_scipy_unloaded(tmp_path):
    code, loaded = _scipy_loaded_after(["oracle", "--model", str(tmp_path / "missing.json")])
    assert code == 2 and not loaded


def test_gaussian_counterfactual_loads_scipy(tmp_path):
    # positive control: the probe above does see a load when one happens
    model = tmp_path / "gauss.json"
    model.write_text(json.dumps({
        "variables": ["A", "Y"],
        "outcome": "Y",
        "nodes": [
            {"name": "A", "parents": [], "mechanism": {"kind": "root_gaussian"}},
            {"name": "Y", "parents": ["A"], "mechanism": {"kind": "deterministic", "expr": "2*A"}},
        ],
    }))
    argv = ["counterfactual", "--model", str(model), "--samples", "1000", "--out", str(tmp_path / "r.json")]
    assert _scipy_loaded_after(argv) == (0, True)


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
