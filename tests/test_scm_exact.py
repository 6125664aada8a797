"""Exact references for the SCM Monte Carlo path.

Gridded wraps a mechanism so that its noise coordinate takes the
midpoint of one of k equal cells of [0, 1]: the node's noise becomes a
k-point uniform variable. Noise columns are independent, so the
counterfactual measure of the wrapped model is the Hoeffding
decomposition of outcome_values over the noise grid (Efron & Stein,
Ann. Stat. 9, 1981), and estimate_counterfactual_measure must agree with
it within its per-atom stderr.
"""

import numpy as np
import pytest

from xfvar.anova_oracle import DiscreteDomain, exact_measure, hoeffding_decompose
from xfvar.mc import EstimatorConfig
from xfvar.scm import Mechanism, ScmModel, estimate_counterfactual_measure, model_from_json

from anova_checks import check_decomposition

K = 4
CFG = EstimatorConfig(samples=50_000, seed=0)


class Gridded(Mechanism):
    """inner with its noise e moved to (floor(e*k) + 0.5) / k."""

    def __init__(self, inner, k):
        self.inner, self.k = inner, k
        self.node, self.kind, self.is_root = inner.node, inner.kind, inner.is_root
        self.parent_names = getattr(inner, "parent_names", ())

    def sample(self, e, parents):
        return self.inner.sample((np.floor(e * self.k) + 0.5) / self.k, parents)


def _node(name, parents, mechanism):
    return {"name": name, "parents": list(parents), "mechanism": mechanism}


def _gridded(nodes):
    """The model of nodes, outcome Y, with every noisy mechanism gridded."""
    model = model_from_json({"outcome": "Y", "nodes": nodes})
    mechs = tuple(Gridded(m, K) if m.uses_noise else m for m in model.mechanisms)
    return ScmModel(model.dag, mechs, model.outcome)


def _noise_grid(model):
    """Each noise column's support: k cell midpoints for a gridded node, one
    point for a deterministic node, which reads no noise."""
    mid = (np.arange(K) + 0.5) / K
    values = [mid if m.uses_noise else np.array([0.5]) for m in model.mechanisms]
    return DiscreteDomain(values, [np.full(v.size, 1.0 / v.size) for v in values])


GAUSS = {"kind": "root_gaussian", "mean": 0.5, "std": 1.5}

MODELS = {
    "hetero_gaussian": [
        _node("A", [], GAUSS),
        _node("B", ["A"], {
            "kind": "hetero_gaussian", "mean": {"expr": "0.8*A"}, "std": {"expr": "0.5 + abs(A)"}}),
        _node("Y", ["A", "B"], {"kind": "deterministic", "expr": "B + 0.5*A*B"}),
    ],
    "quantile_table": [
        _node("A", [], {"kind": "root_categorical", "values": [0.0, 1.0, 2.0], "probs": [0.3, 0.3, 0.4]}),
        _node("B", ["A"], {
            "kind": "quantile_table",
            "levels": [0.2, 0.5, 0.8],
            "cells": {"0": [-1.0, 0.0, 0.5], "1": [0.0, 0.2, 3.0], "2": [1.0, 1.0, 1.5]},
        }),
        _node("Y", ["A", "B"], {"kind": "deterministic", "expr": "A + B + A*B"}),
    ],
    "additive_noise": [
        _node("A", [], {"kind": "root_uniform", "low": -1.0, "high": 2.0}),
        _node("B", ["A"], {
            "kind": "additive_noise", "mean": {"expr": "2*A"}, "residuals": [-1.0, 0.0, 0.5, 2.0, 2.5]}),
        _node("Y", ["A", "B"], {"kind": "deterministic", "expr": "B*B - A"}),
    ],
    # A feeds B and C, which meet in D; E is a root that enters at D
    "diamond": [
        _node("A", [], GAUSS),
        _node("E", [], {"kind": "root_empirical", "values": [0.0, 1.0, 1.0, 3.0]}),
        _node("B", ["A"], {
            "kind": "hetero_gaussian", "mean": {"expr": "A"}, "std": {"expr": "1 + 0.5*abs(A)"}}),
        _node("C", ["A"], {"kind": "additive_noise", "mean": {"expr": "-A"}, "residuals": [-2.0, 0.0, 1.0]}),
        _node("D", ["B", "C", "E"], {
            "kind": "hetero_gaussian", "mean": {"expr": "B*C + E"}, "std": {"expr": "0.5"}}),
        _node("Y", ["A", "D"], {"kind": "deterministic", "expr": "D + 0.3*A*D"}),
    ],
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_counterfactual_measure_matches_noise_grid_decomposition(name):
    model = _gridded(MODELS[name])
    dec = check_decomposition(hoeffding_decompose(model.outcome_values, _noise_grid(model)))
    exact = exact_measure(dec, model.dag.names)
    mc = estimate_counterfactual_measure(model, CFG, include_outcome=True)
    assert mc.names == exact.names
    gap = np.abs(mc.atom_mass - exact.atom_mass)
    assert np.all(gap <= 3 * mc.atom_stderr + 1e-12), (gap / mc.atom_stderr).max()


def test_gridded_noise_takes_k_values():
    model = _gridded(MODELS["diamond"])
    e = np.random.default_rng(0).uniform(size=(1000, model.n_nodes))
    values = model.forward(e)
    assert len(np.unique(values["A"])) == K
    assert len(np.unique(values["B"])) == K * K
