"""Hybrid evaluators of the pick-freeze kernel against the noise-space reference.

The reference evaluator builds every hybrid in noise space and recomputes
the whole input transform or the whole DAG: y(mask) = yfn(hybrid(E, E',
members(mask))). The program's evaluators (sensitivity.independent_outcomes,
which builds hybrids in value space, and scm.HybridOutcomes, which
memoizes node values, mechanism stages and formula ops per block) must
give the same float bits for every estimator, and HybridOutcomes must
evaluate each of them exactly as often as its memo key allows.
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

# Evaluations per block with every node queried, per node: each of its
# stages and formula ops in evaluation order, then its value. A unit u
# costs 2**|anc(u) & Q| (anc: its noise ancestry; a node's own column is
# in its value's) when it is stored or read only by units evaluated once
# per key, else once per evaluation of its readers. O is outside the
# outcome's ancestry and costs nothing; "Y" is the outcome's count.
# - A, B: a root is its value.
# - C = 2.5: its check op has no ancestry; its value reads C's column.
# - L: the std ops abs(A), 0.1*., 0.3 + ., the formula's finiteness
#   check and the std >= 0 check, then 0.5*A and its check (ancestry A);
#   gauss_quantile (L); the value (A, L).
# - R: A*B, 0.2*A, the difference and its check; the residual; the value.
# - J: L*R, with 16 keys past STAGE_ENTRIES, the sum and its check run
#   once for each of J's 32 values; sigmoid(L) has 4 keys.
# - T: cell offsets (A, C), level (T), value.
# - Y: abs(B), 0.5 + ., check, std >= 0 (B); 0.5*T (A, C, T); then
#   (0.5*T)*B, the sum with J and its check once per outcome;
#   gauss_quantile, which costs two even when Y is not queried (y(E')
#   resamples it); the value once per outcome.
DAG_EVALS = {
    "A": [2],
    "B": [2],
    "C": [1, 2],
    "L": [2, 2, 2, 2, 2, 2, 2, 2, 4],
    "R": [4, 2, 4, 4, 2, 8],
    "J": [32, 4, 32, 32, 32],
    "T": [4, 2, 8],
    "Y": [2, 2, 2, 2, 8, "Y", "Y", "Y", 2, "Y"],
}

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


def block_evals(model, include_outcome, samples=2 * 8192 + 5):
    """Evaluations per block of each unit of HybridOutcomes under the full
    measure's kernel: {node: [each stage and formula op, then the value]}.
    The default samples span three blocks, so every count is 3x a block's.
    """
    names = [n for n in model.dag.names if include_outcome or n != model.outcome]
    outcomes = HybridOutcomes(model, model.noise_mask(names))
    counts = [0] * len(outcomes.fns)
    for u, fn in enumerate(outcomes.fns):
        if fn is not None:

            def counted(*args, _fn=fn, _u=u):
                counts[_u] += 1
                return _fn(*args)

            outcomes.fns[u] = counted
    cols = [model.dag.index(n) for n in names]
    pickfreeze_totals(outcomes.open_block, model.n_nodes, cols, EstimatorConfig(samples, seed=3))
    blocks = 3 if samples > 2 * 8192 else 1
    assert all(c % blocks == 0 for c in counts)
    out, first = {}, 0
    for i, unit in outcomes.node_units.items():  # in evaluation order
        out[model.dag.names[i]] = [
            counts[u] // blocks for u in range(first, unit + 1) if outcomes.fns[u] is not None
        ]
        first = unit + 1
    return out


@pytest.mark.parametrize("include_outcome, outcome_evals", [(True, 513), (False, 257)])
def test_memoized_nodes_cost_two_to_their_queried_ancestors(include_outcome, outcome_evals):
    model = model_from_json(DAG)
    want = {n: [outcome_evals if c == "Y" else c for c in cs] for n, cs in DAG_EVALS.items()}
    assert block_evals(model, include_outcome) == want


def _roots_model(expr):
    roots = [_node(f"X{i}", [], {"kind": "root_gaussian", "mean": 0.1 * i}) for i in range(4)]
    return model_from_json({
        "outcome": "Y",
        "nodes": roots + [_node("Y", ["X0", "X1", "X2", "X3"], {"kind": "deterministic", "expr": expr})],
    })


def test_independent_roots_cost_two_evaluations():
    # X0*X1 has 4 keys and X0*X1 + X2 8; X3^2 has 2; the difference and
    # its check read all four query columns, so they run for each of the
    # 2**4 + 1 outcomes, as does the outcome's value
    got = block_evals(_roots_model("X0*X1 + X2 - X3^2"), include_outcome=False)
    assert got == {"X0": [2], "X1": [2], "X2": [2], "X3": [2], "Y": [4, 8, 2, 17, 17, 17]}


def test_formula_ops_cost_two_to_the_variables_they_read():
    # ops in evaluation order: 2*X0 (one variable), X1*X2 (two), their
    # sum (three), X0*X1, X0*X1*X2, X0*X1*X2*X3 (all four: once per
    # outcome), the outer sum, the check and the value; a recursive walk
    # of the formula costs its 8 ops for each of the 17 outcomes
    got = block_evals(_roots_model("2*X0 + X1*X2 + X0*X1*X2*X3"), include_outcome=False)
    assert got["Y"] == [2, 4, 8, 4, 8, 17, 17, 17, 17]
    assert sum(got["Y"][:-1]) == 77 < 8 * 17


def test_node_above_the_cap_is_evaluated_per_hybrid():
    # V has six queried ancestors (itself included): 2**6 entries > MEMO_ENTRIES,
    # so its value runs for each of the 2**8 + 1 outcomes, and so do its
    # difference (32 keys > STAGE_ENTRIES) and check; its ops P0*P1,
    # P0*P1 + P2 and P3*P4 have 4, 8 and 4 keys. Y's constant std runs
    # once, its mean V*W and check once per outcome.
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
    assert block_evals(model, include_outcome=True) == {
        **{f"P{i}": [2] for i in range(5)},
        "V": [4, 8, 4, 257, 257, 257],
        "W": [2],
        "Y": [1, 1, 257, 257, 2, 257],
    }
    cfg = EstimatorConfig(samples=1000, seed=5)
    got = estimate_counterfactual_measure(model, cfg)
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
    # (one formed inside y's calls would keep every block's memo alive)
    model = model_from_json(DAG)
    rs = np.random.default_rng(1)
    e, ep = rs.random((50, model.n_nodes)), rs.random((50, model.n_nodes))
    gc.disable()
    try:
        y = HybridOutcomes(model, (1 << model.n_nodes) - 1).open_block(e, ep)
        y(0b11)
        y(0b101)
        stored = [v for d in y.memo for v in d.values() if isinstance(v, np.ndarray)]
        assert stored
        refs = [weakref.ref(y)] + [weakref.ref(v) for v in stored]
        del y, stored
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _memo_peak(model, include_outcome):
    """Bytes one full block's memo holds after the full measure's hybrids
    (a memo only grows, so this is its peak), and the bound the
    HybridOutcomes docstring states: 2**|anc & Q| values per stored unit,
    8 bytes a row for a node's value and 17 for a stage or op."""
    names = [n for n in model.dag.names if include_outcome or n != model.outcome]
    q = model.noise_mask(names)
    outcomes = HybridOutcomes(model, q)
    blocks = []

    def open_block(e, ep):
        blocks.append(outcomes.open_block(e, ep))
        return blocks[-1]

    rows = 8192
    cols = [model.dag.index(n) for n in names]
    pickfreeze_totals(open_block, model.n_nodes, cols, EstimatorConfig(samples=rows))
    held = {}
    for d in blocks[0].memo:
        for v in d.values():
            for a in v if isinstance(v, tuple) else (v,):
                if isinstance(a, np.ndarray):
                    held[id(a)] = a.nbytes
    bound = 0
    nodes = set(outcomes.node_units.values())
    for u, anc in enumerate(outcomes.anc):
        if outcomes.stored[u]:
            entries = 1 << (anc & q).bit_count()
            cap = scm.MEMO_ENTRIES if u in nodes else scm.STAGE_ENTRIES
            assert entries <= cap
            bound += entries * rows * (8 if u in nodes else 17)
    return sum(held.values()), bound


def _roots8_shaped():
    # eight gaussian roots; linear, adjacent-pair, three-way and sigmoid
    # terms, as in the benchmark's gsa --model workload
    w = [f"W{i}" for i in range(1, 9)]
    expr = " + ".join(
        [f"0.{i + 2}*{x}" for i, x in enumerate(w)]
        + [f"0.3*{w[i]}*{w[i + 1]}" for i in range(7)]
        + ["0.1*W2*W5*W8", "0.2*sigmoid(W3 - W6)"]
    )
    roots = [_node(x, [], {"kind": "root_gaussian", "mean": 0.1, "std": 1.5}) for x in w]
    return model_from_json({
        "outcome": "Y", "nodes": roots + [_node("Y", w, {"kind": "deterministic", "expr": expr})],
    })


def _hetero_chain6():
    nodes = [_node("A", [], {"kind": "root_gaussian"})]
    for p, c in zip("ABCDE", "BCDEF"):
        nodes.append(_node(c, [p], {
            "kind": "hetero_gaussian", "mean": {"expr": f"0.8*{p} + 0.3*sigmoid({p})"},
            "std": {"expr": f"0.5 + 0.1*abs({p})"}}))
    return model_from_json({"outcome": "F", "nodes": nodes})


# MiB one block's memo may hold on these models (measured 6.4 and 5.4).
# With these memos the benchmark's formula_mc peak RSS rose from 63.5 to
# 67.2 MB at one thread on a 2-CPU x86 host, against a 10% bound; a cap
# raised or ignored shows here before the benchmark runs
MEMO_BUDGET_MIB = {"roots8": 7.0, "chain6": 6.0}


@pytest.mark.parametrize("name, build, include_outcome", [
    ("roots8", _roots8_shaped, False),
    ("chain6", _hetero_chain6, True),
])
def test_block_memo_stays_within_its_bound(name, build, include_outcome):
    peak, bound = _memo_peak(build(), include_outcome)
    assert 0 < peak <= bound
    assert peak <= MEMO_BUDGET_MIB[name] * 2**20
