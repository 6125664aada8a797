"""Bit-level pins of every Monte Carlo estimator.

Each case maps (seed, samples) to the float.hex() patterns of its values
and standard errors, stored in data/mc_bits.json. Any change to the noise
stream, the hybrid order, the accumulation order or the final arithmetic
of an estimator shows up here, even when the statistical tests still pass.
"""

import json
from pathlib import Path

import pytest

from xfvar.mc import EstimatorConfig
from xfvar.scm import counterfactual_total, estimate_counterfactual_measure, model_from_json
from xfvar.sensitivity import (
    estimate_lower,
    estimate_measure,
    estimate_superset,
    estimate_upper,
    named_function,
)

EXPECTED = json.loads((Path(__file__).parent / "data" / "mc_bits.json").read_text())

SEEDS = (0, 1, 7)
SAMPLES = (1000, 3000)

# Gaussian and uniform roots, a parentless constant node (broadcast to the
# block length) and a heteroscedastic outcome over all three.
MODEL = {
    "outcome": "Y",
    "nodes": [
        {"name": "W1", "parents": [], "mechanism": {"kind": "root_gaussian", "mean": 0.5, "std": 1.5}},
        {"name": "W2", "parents": [], "mechanism": {"kind": "root_uniform", "low": -1.0, "high": 1.0}},
        {"name": "C", "parents": [], "mechanism": {"kind": "deterministic", "expr": "2.5"}},
        {
            "name": "Y",
            "parents": ["W1", "W2", "C"],
            "mechanism": {
                "kind": "hetero_gaussian",
                "mean": {"expr": "W1*W2 + C*W2^2"},
                "std": {"expr": "0.5 + abs(W2)"},
            },
        },
    ],
}


def _hex_est(est):
    return [est.value.hex(), est.stderr.hex()]


def _hex_measure(m):
    return [float(x).hex() for x in m.atom_mass] + [float(x).hex() for x in m.atom_stderr]


def _observe(seed, samples):
    cfg = EstimatorConfig(samples=samples, seed=seed)
    f, sampler, names = named_function("sigmoid_nn3")
    model = model_from_json(MODEL)
    return {
        "upper": _hex_est(estimate_upper(f, sampler, (1, 2), cfg)),
        "lower": _hex_est(estimate_lower(f, sampler, (0,), cfg)),
        "superset": _hex_est(estimate_superset(f, sampler, (0, 1), cfg)),
        "superset3": _hex_est(estimate_superset(f, sampler, (0, 1, 2), cfg)),
        "measure": _hex_measure(estimate_measure(f, sampler, cfg, names)),
        "counterfactual_total": _hex_est(counterfactual_total(model, ["W1", "C"], cfg)),
        "cf_measure": _hex_measure(estimate_counterfactual_measure(model, cfg, True)),
        "cf_measure_no_outcome": _hex_measure(estimate_counterfactual_measure(model, cfg, False)),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("samples", SAMPLES)
def test_estimator_bits_are_pinned(seed, samples):
    got = _observe(seed, samples)
    want = EXPECTED[f"{seed}/{samples}"]
    assert sorted(got) == sorted(want)
    for case, bits in want.items():
        assert got[case] == bits, case
