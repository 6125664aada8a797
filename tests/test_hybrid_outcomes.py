"""Hybrid evaluators of the pick-freeze kernel against the noise-space reference.

The reference evaluator builds every hybrid in noise space and recomputes
the whole input transform or the whole DAG: y(mask) = yfn(hybrid(E, E',
members(mask))). The program's evaluators (sensitivity.independent_outcomes,
which builds hybrids in value space, and scm.HybridOutcomes, which runs a
plan that computes each node value, mechanism stage and formula op once
per key of its noise ancestry) must give the same float bits for every
estimator and every order of masks, and HybridOutcomes must evaluate each
unit exactly once per key and stay within its stated memory bound.
"""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from xfvar import mc, scm
from xfvar.algebra import Provenance, measure_from_totals, members
from xfvar.errors import ModelError
from xfvar.fit import FitConfig, dag_from_json, fit_model, read_csv
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


@pytest.fixture
def one_worker(monkeypatch):
    """Run every block in this process: the counts below are taken from
    the unit functions and open_block calls this process sees."""
    monkeypatch.setattr(mc, "_max_workers", lambda: 1)


def noise_space(yfn):
    """The reference evaluator: yfn of each noise hybrid."""

    def open_block(e, ep, masks):
        for mask in masks:
            yield yfn(hybrid(e, ep, members(mask)))

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

# Evaluations per block of each unit with every node queried, as the
# per-call memo that the compiled plan replaced made them: each stage and
# formula op of a node in evaluation order, then its value; "Y" is the
# outcome's count, one per outcome. No unit may run more often now. T's
# cell lookup, one stage (4) under the memo, is now a code unit per parent
# (A, C), the fold of C's code into A's and the gather; each is bounded
# by the whole lookup's 4.
DAG_EVALS = {
    "A": [2],
    "B": [2],
    "C": [1, 2],
    "L": [2, 2, 2, 2, 2, 2, 2, 2, 4],
    "R": [4, 2, 4, 4, 2, 8],
    "J": [32, 4, 32, 32, 32],
    "T": [4, 4, 4, 4, 2, 8],
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
    got = _scm_estimates(model, cfg, lambda q: HybridOutcomes(model).open_block)
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


def _query_names(model, include_outcome):
    return [n for n in model.dag.names if include_outcome or n != model.outcome]


def _per_node(model, outcomes, per_unit):
    """per_unit's entries grouped as {node: [each stage and formula op, then the value]}."""
    out, first = {}, 0
    for i, unit in outcomes.node_units.items():  # in evaluation order
        out[model.dag.names[i]] = [
            per_unit[u] for u in range(first, unit + 1) if outcomes.fns[u] is not None
        ]
        first = unit + 1
    return out


def block_evals(model, include_outcome, samples=2 * 8192 + 5):
    """Evaluations per block of each unit of HybridOutcomes under the full
    measure's kernel, grouped by _per_node. The default samples span
    three blocks, so every count is 3x a block's.
    """
    names = _query_names(model, include_outcome)
    outcomes = HybridOutcomes(model)
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
    return _per_node(model, outcomes, [c // blocks for c in counts])


def once_per_key(model, include_outcome):
    """Evaluations per block if every unit runs once per key anc & mask of
    the full measure, whose masks are 0, every column, and each nonempty
    subset of the query columns Q: 2**|anc & Q| keys, plus the key of
    y(E') when anc has a column outside Q.
    """
    q = model.noise_mask(_query_names(model, include_outcome))
    outcomes = HybridOutcomes(model)
    keys = [(1 << (anc & q).bit_count()) + bool(anc & ~q) for anc in outcomes.anc]
    # a node's value depends on the noise of the ancestors, itself
    # included, whose mechanisms read their noise
    for i, unit in outcomes.node_units.items():
        closure = scm.ancestral_closure(model.dag, [model.dag.names[i]])
        reads = [n for n in closure if model.mechanisms[model.dag.index(n)].uses_noise]
        assert outcomes.anc[unit] == model.noise_mask(reads), model.dag.names[i]
    return _per_node(model, outcomes, keys)


def _roots_model(expr):
    roots = [_node(f"X{i}", [], {"kind": "root_gaussian", "mean": 0.1 * i}) for i in range(4)]
    return model_from_json({
        "outcome": "Y",
        "nodes": roots + [_node("Y", ["X0", "X1", "X2", "X3"], {"kind": "deterministic", "expr": expr})],
    })


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


def _product12():
    # the K = 12 worst case: W2*...*W12 has 2**11 keys, each read again
    # in both halves of the hybrids, where W1 is kept and resampled
    w = [f"W{i}" for i in range(1, 13)]
    roots = [_node(x, [], {"kind": "root_gaussian"}) for x in w]
    expr = "W1 + " + "*".join(w[1:])
    return model_from_json({
        "outcome": "Y", "nodes": roots + [_node("Y", w, {"kind": "deterministic", "expr": expr})],
    })


@pytest.mark.usefixtures("one_worker")
@pytest.mark.parametrize("include_outcome, outcome_evals", [(True, 513), (False, 257)])
def test_memoized_nodes_cost_two_to_their_queried_ancestors(include_outcome, outcome_evals):
    # the diamond: once per key, and no unit more often than under the memo
    model = model_from_json(DAG)
    got = block_evals(model, include_outcome)
    assert got == once_per_key(model, include_outcome)
    before = {n: [outcome_evals if c == "Y" else c for c in cs] for n, cs in DAG_EVALS.items()}
    assert got.keys() == before.keys()
    for n, counts in got.items():
        assert len(counts) == len(before[n]), n
        assert all(c <= b for c, b in zip(counts, before[n])), (n, counts, before[n])


@pytest.mark.usefixtures("one_worker")
@pytest.mark.parametrize("build, include_outcome", [
    (_hetero_chain6, True),
    (_roots8_shaped, False),
], ids=["chain", "formula"])
def test_each_unit_runs_once_per_key_of_its_ancestry(build, include_outcome):
    model = build()
    assert block_evals(model, include_outcome) == once_per_key(model, include_outcome)


@pytest.mark.usefixtures("one_worker")
def test_deterministic_nodes_are_keyed_on_their_parents():
    # C = A*B and Y = A + C + A*C read only the noise of A and B, so
    # C's op, check and value and Y's four ops and value run once per key
    # of {A, B}, though C and Y own query columns
    model = scm.read_model(Path(__file__).parent / "data" / "dag_model.json")
    assert block_evals(model, include_outcome=True) == {
        "A": [2], "B": [2], "C": [4, 4, 4], "Y": [4, 4, 4, 4, 4],
    }


def _fitted_income(tmp_path):
    """A quantile_grid fit of the benchmark's income shape: categorical
    sex (2 labels) and race (3), a dense education binned on both, and
    log_income on all three."""
    rs = np.random.default_rng(8)
    n = 3000
    sex, race = rs.integers(0, 2, n), rs.integers(0, 3, n)
    edu = np.round(11.0 + race + 0.5 * sex + rs.normal(0.0, 1.6, n))
    y = 9.5 + 0.1 * edu + 0.2 * sex + rs.normal(0.0, 0.5, n)
    path = tmp_path / "income.csv"
    path.write_text("sex,race,education,log_income\n" + "".join(
        f"{'FM'[a]},{'ABC'[b]},{c:.0f},{d:.5f}\n" for a, b, c, d in zip(sex, race, edu, y)))
    dag, outcome, categorical = dag_from_json({
        "outcome": "log_income",
        "categorical": ["sex", "race"],
        "nodes": [{"name": "sex"}, {"name": "race"},
                  {"name": "education", "parents": ["sex", "race"]},
                  {"name": "log_income", "parents": ["sex", "race", "education"]}],
    })
    data, _ = read_csv(path, categorical=categorical, used=dag.names)
    return fit_model(data, dag, FitConfig(min_cell=2), outcome)


@pytest.mark.usefixtures("one_worker")
def test_cell_lookups_code_each_parent_once_per_key_of_its_ancestry(tmp_path):
    # each table's units: a code per parent, a fold per parent after the
    # first, the gather, the level search and the value. sex and race
    # have 2 keys per block, education 8, and the (sex, race) fold 4, so
    # a table no longer codes a parent for the keys of the others
    model = _fitted_income(tmp_path)
    assert [m.kind for m in model.mechanisms[2:]] == ["quantile_table"] * 2
    assert model.mechanisms[3].index.binning[2] is not None  # education is binned
    got = block_evals(model, include_outcome=True)
    assert got == once_per_key(model, include_outcome=True)
    assert got == {
        "sex": [2],
        "race": [2],
        "education": [2, 2, 4, 4, 2, 8],
        "log_income": [2, 2, 8, 4, 8, 8, 2, 16],
    }
    # the whole lookup was one stage keyed on every parent: 4 and 8 runs
    for name, n_lookup, whole in (("education", 4, 4), ("log_income", 6, 8)):
        assert max(got[name][:n_lookup]) <= whole, name


def test_a_parent_no_stage_reads_still_runs_its_node_checks():
    # Y lists P as a parent but its formula reads none; the node loop
    # evaluates P, whose std goes negative, so the plan must too
    model = model_from_json({"outcome": "Y", "nodes": [
        _node("A", [], {"kind": "root_gaussian"}),
        _node("P", ["A"], {"kind": "hetero_gaussian", "mean": {"expr": "A"}, "std": {"expr": "A"}}),
        _node("Y", ["P"], {"kind": "deterministic", "expr": "2"}),
    ]})
    e = np.random.default_rng(0).random((50, 3))
    for outcomes in (model.outcome_values(e) for _ in "1"), HybridOutcomes(model).open_block(e, e, [0]):
        with pytest.raises(ModelError, match="node 'P': stddev went negative"):
            next(outcomes)


@pytest.mark.usefixtures("one_worker")
def test_independent_roots_cost_two_evaluations():
    # X0*X1 has 4 keys and X0*X1 + X2 8; X3^2 has 2; the difference, its
    # check and the value read all four query columns, so they run for
    # each of their 2**4 keys: y(E') is the hybrid that resamples all four
    got = block_evals(_roots_model("X0*X1 + X2 - X3^2"), include_outcome=False)
    assert got == {"X0": [2], "X1": [2], "X2": [2], "X3": [2], "Y": [4, 8, 2, 16, 16, 16]}


@pytest.mark.usefixtures("one_worker")
def test_formula_ops_cost_two_to_the_variables_they_read():
    # ops in evaluation order: 2*X0 (one variable), X1*X2 (two), their
    # sum (three), X0*X1, X0*X1*X2, X0*X1*X2*X3 (all four: once per
    # key), the outer sum, the check and the value; a recursive walk
    # of the formula costs its 8 ops for each of the 17 outcomes
    got = block_evals(_roots_model("2*X0 + X1*X2 + X0*X1*X2*X3"), include_outcome=False)
    assert got["Y"] == [2, 4, 8, 4, 8, 16, 16, 16, 16]
    assert sum(got["Y"][:-1]) == 74 < 8 * 17


@pytest.mark.usefixtures("one_worker")
def test_function_runs_once_per_distinct_hybrid():
    # the hybrid of the full query set is y(E'), which the kernel already
    # holds: f runs 2**K times per block, not 2**K + 1
    calls = []

    def f(w):
        calls.append(len(w))
        return _mixed_inputs(w)

    cfg = EstimatorConfig(samples=2 * 8192 + 5, seed=3)
    estimate_measure(f, MIXED, cfg, ("W1", "W2", "W3", "W4"))
    assert len(calls) == 3 * 2**MIXED.k


@pytest.mark.usefixtures("one_worker")
def test_lower_index_of_every_variable_runs_f_twice_per_block():
    # its one hybrid keeps every column, so it is y(E)
    calls = []

    def f(w):
        calls.append(len(w))
        return _mixed_inputs(w)

    cfg = EstimatorConfig(samples=2 * 8192 + 5, seed=3)
    est = estimate_lower(f, MIXED, range(MIXED.k), cfg)
    assert len(calls) == 3 * 2
    ref = noise_space(lambda u: np.asarray(_mixed_inputs(MIXED.transform(u)), dtype=float))
    assert _hex_est(est) == _hex_est(lower_estimate(ref, MIXED.k, 0b1111, cfg))


def test_no_block_asks_for_a_mask_twice():
    # at S = every column, lower's hybrid is y(E), and upper's, the last
    # of superset's and the full measure's full set are y(E'); each
    # estimate keeps the noise-space reference's bits
    model = model_from_json(DAG)
    n, every = model.n_nodes, (1 << model.n_nodes) - 1
    cfg = EstimatorConfig(samples=1000, seed=5)
    opened = []

    def recording(e, ep, masks):
        opened.append(list(masks))
        return HybridOutcomes(model).open_block(e, ep, masks)

    ref = noise_space(model.outcome_values)
    for estimator in (upper_estimate, lower_estimate, superset_estimate):
        got = estimator(recording, n, every, cfg)
        assert _hex_est(got) == _hex_est(estimator(ref, n, every, cfg)), estimator.__name__
    cols = [model.dag.index(name) for name in model.dag.names]
    got, want = pickfreeze_totals(recording, n, cols, cfg), pickfreeze_totals(ref, n, cols, cfg)
    assert got.total[every] == 1.0
    assert got.total.tobytes() == want.total.tobytes()
    assert got.stderr.tobytes() == want.stderr.tobytes()
    assert len(opened) == 4
    assert [len(set(masks)) for masks in opened] == [len(masks) for masks in opened]


def random_masks(model, rs):
    """40 random masks with repeats, the columns no unit reads, and every
    column in the middle."""
    n = model.n_nodes
    masks = [int(m) for m in rs.integers(0, 1 << n, 40)]
    masks += [masks[int(j)] for j in rs.integers(0, 40, 10)]  # repeated masks
    # O is outside the outcome's ancestry, C and J are deterministic
    masks.append(model.noise_mask(["O", "C", "J"]))
    masks.insert(len(masks) // 2, (1 << n) - 1)
    return masks


def test_memo_key_covers_the_resampled_ancestors(monkeypatch):
    # outcomes in any mask order match the noise-space reference, also at
    # one live value, where most units run again for each hybrid
    model = model_from_json(DAG)
    for seed, live_values in [(0, scm.LIVE_VALUES), (1, scm.LIVE_VALUES), (2, 1), (3, 1)]:
        monkeypatch.setattr(scm, "LIVE_VALUES", live_values)
        rs = np.random.default_rng(seed)
        e, ep = rs.random((50, model.n_nodes)), rs.random((50, model.n_nodes))
        outcomes = HybridOutcomes(model)
        for _ in range(2):  # a second mask list compiles a second plan
            masks = random_masks(model, rs)
            want = [model.outcome_values(hybrid(e, ep, members(m))).tobytes() for m in masks]
            assert [y.tobytes() for y in outcomes.open_block(e, ep, masks)] == want


def _tracked(outcomes, on_value):
    """Wrap each unit function of outcomes to pass every array it returns
    to on_value."""
    for u, fn in enumerate(outcomes.fns):
        if fn is not None:

            def tracked(*args, _fn=fn):
                v = _fn(*args)
                for a in v if isinstance(v, tuple) else (v,):
                    if isinstance(a, np.ndarray):
                        on_value(a)
                return v

            outcomes.fns[u] = tracked


def test_block_evaluator_is_freed_without_the_cycle_collector():
    # a block's slots must die with its iterator, not wait for gc to find
    # a cycle (one formed inside the plan would keep every block's values
    # alive)
    model = model_from_json(DAG)
    rs = np.random.default_rng(1)
    e, ep = rs.random((50, model.n_nodes)), rs.random((50, model.n_nodes))
    outcomes = HybridOutcomes(model)
    made = []
    _tracked(outcomes, lambda a: made.append(weakref.ref(a)))
    gc.disable()
    try:
        outs = outcomes.open_block(e, ep, [0b11, 0b101, 0b11, 0])
        ys = [next(outs), next(outs)]
        assert sum(r() is not None for r in made) > len(ys)  # held for the later hybrids
        refs = [weakref.ref(outs)] + made
        del outs, ys
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.usefixtures("one_worker")
def test_kernel_frees_each_block_before_it_opens_the_next(monkeypatch):
    # two blocks' values alive at once would raise peak memory
    model = model_from_json(DAG)
    opened = []
    open_block = HybridOutcomes.open_block

    def recording(self, e, ep, masks):
        assert [r() for r in opened] == [None] * len(opened)
        outs = open_block(self, e, ep, masks)
        opened.append(weakref.ref(outs))
        return outs

    monkeypatch.setattr(HybridOutcomes, "open_block", recording)
    gc.disable()
    try:
        estimate_counterfactual_measure(model, EstimatorConfig(samples=20_000, seed=2))
    finally:
        gc.enable()
    assert len(opened) == 3


def block_peak(model, include_outcome, rows):
    """Most bytes of unit values alive at once over one block of rows
    under the full measure's kernel, and the bound the HybridOutcomes
    docstring states for it: LIVE_VALUES values per unit of at most 17
    bytes a row, plus the outcomes the kernel holds (y(E), y(E') and one
    hybrid's)."""
    outcomes = HybridOutcomes(model)
    live, held = {}, [0, 0]  # id -> bytes of each live array; bytes now, peak

    def forget(key):
        held[0] -= live.pop(key)

    def on_value(a):
        if id(a) not in live:
            live[id(a)] = a.nbytes
            held[0] += a.nbytes
            held[1] = max(held)
            weakref.finalize(a, forget, id(a))

    _tracked(outcomes, on_value)
    cols = [model.dag.index(n) for n in _query_names(model, include_outcome)]
    pickfreeze_totals(outcomes.open_block, model.n_nodes, cols, EstimatorConfig(samples=rows))
    units = sum(fn is not None for fn in outcomes.fns)
    return held[1], (scm.LIVE_VALUES * 17 * units + 3 * 8) * rows


# MiB one block may hold on these shapes at 8192 rows (measured 5.0 and
# 2.0). The benchmark's formula_mc peak RSS moves with them.
PEAK_MIB = {"roots8": 5.5, "chain6": 2.5}


@pytest.mark.parametrize("name, build, include_outcome", [
    ("roots8", _roots8_shaped, False),
    ("chain6", _hetero_chain6, True),
])
def test_block_memo_stays_within_its_bound(name, build, include_outcome):
    peak, bound = block_peak(build(), include_outcome, rows=8192)
    assert 0 < peak <= bound
    assert peak <= PEAK_MIB[name] * 2**20


def test_worst_case_product_is_bounded_by_recomputing():
    # without LIVE_VALUES, W2*...*W12 alone would hold 2**11 values
    rows = 300
    peak, bound = block_peak(_product12(), include_outcome=False, rows=rows)
    assert 0 < peak <= bound < 2**11 * 8 * rows
