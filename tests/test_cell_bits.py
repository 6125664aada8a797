"""Bit-level pins of the fitted cell-table path.

For each fit method, data/cell_bits.json holds the SHA-256 of the model
file `fit` writes from a small seeded CSV, and the float.hex() patterns
of a counterfactual total and of the full counterfactual measure
estimated on that model after reading it back. The CSV has one
categorical parent (G) and one binned numeric parent (X), so every cell
lookup kind is on the path: fitting groups rows by cell, and sampling
looks cells up by discrete value and by bin index.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from xfvar.fit import FitConfig, dag_from_json, fit_model, read_csv
from xfvar.mc import EstimatorConfig
from xfvar.scm import counterfactual_total, estimate_counterfactual_measure, read_model, write_model

EXPECTED = json.loads((Path(__file__).parent / "data" / "cell_bits.json").read_text())

METHODS = ("quantile_grid", "hetero_gaussian", "additive_empirical")

DAG = {
    "outcome": "Y",
    "nodes": [
        {"name": "G", "parents": []},
        {"name": "X", "parents": ["G"]},
        {"name": "Y", "parents": ["G", "X"]},
    ],
    "categorical": ["G"],
}

ROWS = 3000


def _write_csv(path):
    rs = np.random.default_rng(20240611)
    g = rs.choice(3, size=ROWS, p=[0.3, 0.45, 0.25])
    x = 0.5 * g + rs.normal(size=ROWS)
    y = 0.5 * x + np.array([0.0, 0.7, -0.4])[g] + rs.normal(size=ROWS) * (1.0 + 0.3 * np.abs(x))
    labels = ("f", "m", "x")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("G,X,Y\n")
        for i in range(ROWS):
            fh.write(f"{labels[g[i]]},{x[i]:.6f},{y[i]:.6f}\n")


def _hex_est(est):
    return [est.value.hex(), est.stderr.hex()]


def _hex_measure(m):
    return [float(x).hex() for x in m.atom_mass] + [float(x).hex() for x in m.atom_stderr]


def _observe(method, directory):
    csv_path = Path(directory) / "cells.csv"
    model_path = Path(directory) / f"{method}.json"
    _write_csv(csv_path)
    dag, outcome, categorical = dag_from_json(DAG)
    data, _ = read_csv(csv_path, categorical=categorical, used=dag.names)
    write_model(fit_model(data, dag, FitConfig(method=method), outcome), model_path)
    model = read_model(model_path)
    cfg = EstimatorConfig(samples=3000, seed=3)
    return {
        "model_sha256": hashlib.sha256(model_path.read_bytes()).hexdigest(),
        "counterfactual_total": _hex_est(counterfactual_total(model, ["X"], cfg)),
        "cf_measure": _hex_measure(estimate_counterfactual_measure(model, cfg, True)),
    }


@pytest.mark.parametrize("method", METHODS)
def test_fitted_cell_bits_are_pinned(method, tmp_path):
    got = _observe(method, tmp_path)
    want = EXPECTED[method]
    assert sorted(got) == sorted(want)
    for case, bits in want.items():
        assert got[case] == bits, case
