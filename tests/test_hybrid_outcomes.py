"""Hybrid evaluators of the pick-freeze kernel against the noise-space reference.

The reference evaluator builds every hybrid in noise space and recomputes
the whole input transform or the whole DAG: y(mask) = yfn(hybrid(E, E',
members(mask))). The program's evaluators (sensitivity.independent_outcomes,
which builds hybrids in value space, and scm.HybridOutcomes, which
memoizes node values per block) must give the same float bits for every
estimator, and HybridOutcomes must evaluate each node exactly as often as
its memo key allows.
"""

import gc
import weakref

import numpy as np
import pytest

from xfvar import scm
from xfvar.algebra import Provenance, measure_from_totals, members
from xfvar.mc import (
    EstimatorConfig,
    hybrid,
    lower_estimate,
    pickfreeze_totals,
    range_tolerance,
    superset_estimate,
    upper_estimate,
)
from xfvar.scm import (
    HybridOutcomes,
    Mechanism,
    RootGaussian,
    RootRademacher,
    RootUniform,
    counterfactual_total,
    estimate_counterfactual_measure,
    model_from_json,
)
from xfvar.sensitivity import (
    IndependentSampler,
    estimate_lower,
    estimate_measure,
    estimate_superset,
    estimate_upper,
)


def noise_space(yfn):
    """The reference evaluator: yfn of each noise hybrid."""

    def open_block(e, ep):
        return lambda mask: yfn(hybrid(e, ep, members(mask)))

    return open_block


def _node(name, parents, mech):
    return {"name": name, "parents": parents, "mechanism": mech}


# A diamond A -> (L, R) -> J, a binned quantile_table T over A and the
# parentless constant C, a node O outside the outcome's ancestry, and a
# heteroscedastic outcome Y.
DAG = {
    "outcome": "Y",
    "nodes": [
        _node("A", [], {"kind": "root_gaussian", "mean": 0.3, "std": 1.2}),
        _node("B", [], {"kind": "root_uniform", "low": -1.0, "high": 1.0}),
        _node("C", [], {"kind": "deterministic", "expr": "2.5"}),
        _node("L", ["A"], {"kind": "hetero_gaussian", "mean": {"expr": "0.5*A"},
                           "std": {"expr": "0.3 + 0.1*abs(A)"}}),
        _node("R", ["A", "B"], {"kind": "additive_noise", "mean": {"expr": "A*B - 0.2*A"},
                                "residuals": [-0.5, 0.0, 0.4, 1.0]}),
        _node("J", ["L", "R"], {"kind": "deterministic", "expr": "L*R + sigmoid(L)"}),
        _node("T", ["A", "C"], {
            "kind": "quantile_table",
            "levels": [0.1, 0.5, 0.9],
            "binning": [[-0.5, 0.5], None],
            "cells": {"b0|2.5": [-2.0, -1.0, 0.0], "b1|2.5": [-0.5, 0.0, 0.5],
                      "b2|2.5": [0.0, 1.5, 2.0]},
        }),
        _node("O", ["J"], {"kind": "deterministic", "expr": "J^2"}),
        _node("Y", ["J", "T", "B"], {"kind": "hetero_gaussian", "mean": {"expr": "J + 0.5*T*B"},
                                     "std": {"expr": "0.5 + abs(B)"}}),
    ],
}

# per block with every node queried: 2**|An*(v)| for a memoized node,
# 2**9 + 1 for the outcome, nothing for O
DAG_CALLS = {"A": 2, "B": 2, "C": 2, "L": 4, "R": 8, "J": 32, "T": 8, "O": 0}

CASES = [(0, 1000), (1, 1000), (7, 9000)]  # 9000 samples span two blocks


def _hex_est(est):
    return [est.value.hex(), est.stderr.hex()]


def _hex_measure(m):
    return [float(x).hex() for x in m.atom_mass] + [float(x).hex() for x in m.atom_stderr]


def _reference_measure(model, cfg, include_outcome):
    names = [n for n in model.dag.names if include_outcome or n != model.outcome]
    cols = [model.dag.index(n) for n in names]
    table = pickfreeze_totals(noise_space(model.outcome_values), model.n_nodes, cols, cfg)
    flags = () if include_outcome else ("outcome-excluded",)
    prov = Provenance("monte_carlo", samples=cfg.samples, seed=cfg.seed, flags=flags)
    return measure_from_totals(table, tuple(names), provenance=prov, tol=range_tolerance(table))


def _scm_estimates(model, cfg, outcomes):
    """upper, lower and superset of fixed node sets through outcomes(query_mask)."""
    n = model.n_nodes
    upper = model.noise_mask(["R", "C"])
    lower = model.noise_mask(["A", "T"])
    superset = model.noise_mask(["A", "B", "T"])
    return {
        "upper": _hex_est(upper_estimate(outcomes(upper), n, upper, cfg)),
        "lower": _hex_est(lower_estimate(outcomes(((1 << n) - 1) ^ lower), n, lower, cfg)),
        "superset": _hex_est(superset_estimate(outcomes(superset), n, superset, cfg)),
    }


@pytest.mark.parametrize("seed, samples", CASES)
def test_scm_memo_matches_noise_space_bits(seed, samples):
    model = model_from_json(DAG)
    cfg = EstimatorConfig(samples=samples, seed=seed)
    got = _scm_estimates(model, cfg, lambda q: HybridOutcomes(model, q).open_block)
    want = _scm_estimates(model, cfg, lambda q: noise_space(model.outcome_values))
    assert got == want
    assert _hex_est(counterfactual_total(model, ["R", "C"], cfg)) == want["upper"]
    for include_outcome in (True, False):
        m = estimate_counterfactual_measure(model, cfg, include_outcome)
        assert _hex_measure(m) == _hex_measure(_reference_measure(model, cfg, include_outcome))


@pytest.mark.parametrize("seed, samples", CASES)
def test_outcome_declared_first_matches_noise_space_bits(seed, samples):
    # with Y first and include_outcome=False, query variable j owns noise column j + 1
    first = dict(DAG, nodes=[DAG["nodes"][-1]] + DAG["nodes"][:-1])
    model = model_from_json(first)
    assert model.dag.names[0] == "Y"
    cfg = EstimatorConfig(samples=samples, seed=seed)
    m = estimate_counterfactual_measure(model, cfg, include_outcome=False)
    assert _hex_measure(m) == _hex_measure(_reference_measure(model, cfg, False))


def _mixed_inputs(w):
    return w[:, 0] * w[:, 1] + np.exp(0.3 * w[:, 2]) * w[:, 3] + np.sin(w[:, 1] * w[:, 3])


MIXED = IndependentSampler(
    (RootGaussian("W1", 0.5, 2.0), RootUniform("W2", -1.0, 2.0), RootGaussian("W3"), RootRademacher("W4"))
)


@pytest.mark.parametrize("seed, samples", CASES)
def test_value_space_hybrids_match_noise_space_bits(seed, samples):
    f, sampler, k = _mixed_inputs, MIXED, MIXED.k
    cfg = EstimatorConfig(samples=samples, seed=seed)
    ref = noise_space(lambda u: np.asarray(f(sampler.transform(u)), dtype=float))
    assert _hex_est(estimate_upper(f, sampler, (1, 3), cfg)) == _hex_est(
        upper_estimate(ref, k, 0b1010, cfg)
    )
    assert _hex_est(estimate_lower(f, sampler, (0, 2), cfg)) == _hex_est(
        lower_estimate(ref, k, 0b0101, cfg)
    )
    assert _hex_est(estimate_superset(f, sampler, (0, 1, 3), cfg)) == _hex_est(
        superset_estimate(ref, k, 0b1011, cfg)
    )
    names = ("W1", "W2", "W3", "W4")
    table = pickfreeze_totals(ref, k, range(k), cfg)
    prov = Provenance("monte_carlo", samples=cfg.samples, seed=cfg.seed)
    want = measure_from_totals(table, names, provenance=prov, tol=range_tolerance(table))
    assert _hex_measure(estimate_measure(f, sampler, cfg, names)) == _hex_measure(want)


@pytest.fixture
def sample_calls(monkeypatch):
    """Counts Mechanism.sample calls per node, patched on each class as
    the benchmark's tracer does."""
    calls = {}
    for cls in vars(scm).values():
        if isinstance(cls, type) and issubclass(cls, Mechanism) and cls is not Mechanism:

            def counted(self, e, parents, _sample=cls.__dict__["sample"]):
                calls[self.node] = calls.get(self.node, 0) + 1
                return _sample(self, e, parents)

            monkeypatch.setattr(cls, "sample", counted)
    return calls


@pytest.mark.parametrize("include_outcome, outcome_calls", [(True, 513), (False, 257)])
def test_memoized_nodes_cost_two_to_their_queried_ancestors(sample_calls, include_outcome, outcome_calls):
    model = model_from_json(DAG)
    cfg = EstimatorConfig(samples=2 * 8192 + 5, seed=3)  # three blocks
    estimate_counterfactual_measure(model, cfg, include_outcome)
    want = {n: 3 * c for n, c in DAG_CALLS.items() if c}
    want["Y"] = 3 * outcome_calls
    assert sample_calls == want


def test_independent_roots_cost_two_evaluations(sample_calls):
    roots = [_node(f"X{i}", [], {"kind": "root_gaussian", "mean": 0.1 * i}) for i in range(4)]
    model = model_from_json({
        "outcome": "Y",
        "nodes": roots + [_node("Y", ["X0", "X1", "X2", "X3"],
                                {"kind": "deterministic", "expr": "X0*X1 + X2 - X3^2"})],
    })
    estimate_counterfactual_measure(model, EstimatorConfig(samples=1000), include_outcome=False)
    assert sample_calls == {"X0": 2, "X1": 2, "X2": 2, "X3": 2, "Y": 17}


def test_node_above_the_cap_is_evaluated_per_hybrid(sample_calls):
    # V has six queried ancestors (itself included): 2**6 entries > MEMO_ENTRIES
    assert scm.MEMO_ENTRIES < 64
    roots = [_node(f"P{i}", [], {"kind": "root_uniform"}) for i in range(5)]
    model = model_from_json({
        "outcome": "Y",
        "nodes": roots + [
            _node("V", [f"P{i}" for i in range(5)],
                  {"kind": "deterministic", "expr": "P0*P1 + P2 - P3*P4"}),
            _node("W", [], {"kind": "root_gaussian"}),
            _node("Y", ["V", "W"], {"kind": "hetero_gaussian", "mean": {"expr": "V*W"},
                                    "std": {"expr": "0.5"}}),
        ],
    })
    cfg = EstimatorConfig(samples=1000, seed=5)
    got = estimate_counterfactual_measure(model, cfg)
    assert sample_calls == {**{f"P{i}": 2 for i in range(5)}, "V": 257, "W": 2, "Y": 257}
    assert _hex_measure(got) == _hex_measure(_reference_measure(model, cfg, True))


def test_scm_thread_count_does_not_change_bits():
    model = model_from_json(DAG)
    seen = set()
    for threads in (1, 2, 5):
        cfg = EstimatorConfig(samples=20_000, seed=11, threads=threads)
        m = estimate_counterfactual_measure(model, cfg)
        t = counterfactual_total(model, ["L", "B"], cfg)
        seen.add((tuple(_hex_measure(m)), tuple(_hex_est(t))))
    assert len(seen) == 1


def test_memo_key_covers_the_resampled_ancestors():
    # resampling a column outside An*(v) must reuse v's values; one inside must not
    model = model_from_json(DAG)
    rs = np.random.default_rng(0)
    e, ep = rs.random((50, model.n_nodes)), rs.random((50, model.n_nodes))
    y = HybridOutcomes(model, (1 << model.n_nodes) - 1).open_block(e, ep)
    for cols in ([], [1], [0, 6], [3, 4, 5], [7], list(range(model.n_nodes)), [2, 8]):
        mask = sum(1 << c for c in cols)
        assert y(mask).tobytes() == model.outcome_values(hybrid(e, ep, cols)).tobytes()


def test_block_evaluator_is_freed_without_the_cycle_collector():
    # a block's memo must die with its y, not wait for gc to find a cycle
    model = model_from_json(DAG)
    rs = np.random.default_rng(1)
    e, ep = rs.random((50, model.n_nodes)), rs.random((50, model.n_nodes))
    gc.disable()
    try:
        y = HybridOutcomes(model, (1 << model.n_nodes) - 1).open_block(e, ep)
        y(0b11)
        ref = weakref.ref(y)
        del y
        assert ref() is None
    finally:
        gc.enable()
