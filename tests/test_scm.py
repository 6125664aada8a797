import json

import numpy as np
import pytest

from xfvar.errors import CycleError, DomainError, ModelError, ParseError
from xfvar.formula import parse_formula
from xfvar.mc import EstimatorConfig
from xfvar.scm import (
    AdditiveNoise,
    Dag,
    Deterministic,
    ParentFn,
    QuantileTable,
    RootCategorical,
    RootEmpirical,
    RootGaussian,
    RootRademacher,
    RootUniform,
    ScmModel,
    ancestral_closure,
    canon_value,
    counterfactual_outcome,
    counterfactual_total,
    empirical_quantile,
    estimate_counterfactual_measure,
    forward_sample,
    mechanism_from_json,
    model_from_json,
    model_to_json,
    read_model,
    topo_order,
    write_model,
)

# Y = W1 + W1*W2 with Rademacher roots: xi(W1)=1, xi(W2)=1/2
def model1():
    dag = Dag(("W1", "W2", "Y"), ((), (), ("W1", "W2")))
    mechs = (
        RootRademacher("W1"),
        RootRademacher("W2"),
        Deterministic("Y", ("W1", "W2"), parse_formula("W1 + W1*W2", ("W1", "W2"))),
    )
    return ScmModel(dag, mechs, "Y")


# W2 = W1 + E2 with independent Rademacher noise: same observables as
# model1 but xi(W1)=1/2
def model2():
    dag = Dag(("W1", "W2", "Y"), ((), ("W1",), ("W2",)))
    mean = ParentFn("W2", ("W1",), formula=parse_formula("W1", ("W1",)))
    mechs = (
        RootRademacher("W1"),
        AdditiveNoise("W2", ("W1",), mean, [-1.0, 1.0]),
        Deterministic("Y", ("W2",), parse_formula("W2", ("W2",))),
    )
    return ScmModel(dag, mechs, "Y")


def test_dag_validation():
    with pytest.raises(ModelError):
        Dag(("A", "A"), ((), ()))
    with pytest.raises(ModelError):
        Dag(("A",), (("B",),))
    with pytest.raises(CycleError):
        Dag(("A",), (("A",),))


def test_topo_order_stable_tiebreak():
    dag = Dag(("C", "A", "B"), ((), (), ("C", "A")))
    # all sources come out in declaration order
    assert list(topo_order(dag)) == ["C", "A", "B"]
    dag2 = Dag(("Y", "X"), (("X",), ()))
    assert list(topo_order(dag2)) == ["X", "Y"]


def test_topo_order_cycle_reported():
    # Dag runs topo_order itself, so a cyclic Dag cannot be built
    with pytest.raises(CycleError) as exc:
        Dag(("A", "B", "C"), (("B",), ("A",), ()))
    assert "A" in str(exc.value) and "B" in str(exc.value)


def test_ancestral_closure():
    dag = Dag(("A", "B", "C", "D"), ((), ("A",), ("B",), ()))
    assert ancestral_closure(dag, ("C",)) == frozenset({"A", "B", "C"})
    assert ancestral_closure(dag, ("D",)) == frozenset({"D"})


def test_empirical_quantile_left_continuous():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    assert empirical_quantile(vals, 0.0) == 1.0
    assert empirical_quantile(vals, 0.25) == 1.0
    assert empirical_quantile(vals, 0.2500001) == 2.0
    assert empirical_quantile(vals, 0.5) == 2.0
    assert empirical_quantile(vals, 1.0) == 4.0


def test_canon_value_merges_signed_zero():
    assert canon_value(0.0) == canon_value(-0.0)
    assert canon_value(1.0) != canon_value(2.0)


def test_root_mechanisms_sample():
    e = np.array([0.01, 0.25, 0.5, 0.75, 0.99])
    g = RootGaussian("X", 1.0, 2.0).sample(e, ())
    assert g[2] == pytest.approx(1.0, abs=1e-9)
    u = RootUniform("X", -1.0, 3.0).sample(e, ())
    assert u[2] == pytest.approx(1.0, abs=1e-12)
    r = RootRademacher("X").sample(e, ())
    assert list(r) == [-1, -1, -1, 1, 1]
    c = RootCategorical("X", [10.0, 20.0, 30.0], [0.25, 0.5, 0.25]).sample(e, ())
    assert list(c) == [10.0, 10.0, 20.0, 20.0, 30.0]
    emp = RootEmpirical("X", [5.0, 6.0, 7.0, 8.0]).sample(e, ())
    assert list(emp) == [5.0, 5.0, 6.0, 7.0, 8.0]


def test_root_categorical_validation():
    with pytest.raises(ModelError):
        RootCategorical("X", [1.0, 2.0], [0.7, 0.7])
    with pytest.raises(ModelError):
        RootCategorical("X", [1.0], [0.5, 0.5])


def test_discrete_laws():
    v, p = RootEmpirical("X", [2.0, 1.0, 2.0, 2.0]).discrete_law()
    assert list(v) == [1.0, 2.0] and list(p) == [0.25, 0.75]
    v, p = RootRademacher("X").discrete_law()
    assert list(v) == [-1.0, 1.0] and list(p) == [0.5, 0.5]
    assert RootGaussian("X").discrete_law() is None


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "parents, mech",
    [
        ((), {"kind": "root_gaussian", "mean": NAN}),
        ((), {"kind": "root_gaussian", "std": INF}),
        ((), {"kind": "root_uniform", "low": -INF}),
        ((), {"kind": "root_uniform", "high": NAN}),
        ((), {"kind": "root_categorical", "values": [1.0, NAN], "probs": [0.5, 0.5]}),
        ((), {"kind": "root_categorical", "values": [1.0, 2.0], "probs": [NAN, 0.5]}),
        (("P",), {"kind": "quantile_table", "levels": [0.25, NAN], "cells": {"1": [0.0, 1.0]}}),
        (("P",), {"kind": "quantile_table", "levels": [0.25, 0.75], "cells": {"1": [NAN, 1.0]}}),
        (("P",), {"kind": "quantile_table", "levels": [0.25, 0.75], "cells": {"1": [0.0, INF]}}),
        (("P",), {"kind": "additive_noise", "mean": {"cells": {"1": INF}}, "residuals": [0.0]}),
        (("P",), {"kind": "hetero_gaussian", "mean": {"expr": "P"}, "std": {"cells": {"1": NAN}}}),
    ],
)
def test_non_finite_parameters_rejected(parents, mech):
    with pytest.raises(ModelError, match="must be finite"):
        mechanism_from_json("X", parents, mech)


def test_quantile_table_interpolates_and_clamps():
    qt = QuantileTable(
        "X",
        ("P",),
        levels=(0.25, 0.75),
        cells={canon_value(1.0): [10.0, 20.0]},
    )
    p = (np.full(5, 1.0),)
    e = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    got = qt.sample(e, p)
    assert np.allclose(got, [10.0, 10.0, 15.0, 20.0, 20.0])


def test_quantile_table_unseen_cell_raises():
    qt = QuantileTable("X", ("P",), levels=(0.5,), cells={canon_value(1.0): [3.0]})
    with pytest.raises(ModelError, match="no cell"):
        qt.sample(np.array([0.5]), (np.array([2.0]),))


def test_additive_noise_two_point():
    mean = ParentFn("X", ("P",), formula=parse_formula("2*P", ("P",)))
    mech = AdditiveNoise("X", ("P",), mean, [-1.0, 1.0])
    p = (np.array([1.0, 1.0]),)
    got = mech.sample(np.array([0.3, 0.8]), p)
    assert list(got) == [1.0, 3.0]


def test_forward_model2_hand_values():
    m = model2()
    vals = m.forward(np.array([[0.7, 0.7, 0.123]]))
    assert vals["W1"][0] == 1.0
    assert vals["W2"][0] == 2.0
    assert vals["Y"][0] == 2.0
    out = forward_sample(m, [0.7, 0.7, 0.5])
    assert out["Y"] == 2.0


def test_forward_sample_validates_vector():
    m = model2()
    with pytest.raises(ModelError):
        forward_sample(m, [0.5, 0.5])
    with pytest.raises(ModelError):
        forward_sample(m, [0.5, 0.5, 1.5])
    with pytest.raises(ModelError):
        forward_sample(m, [np.nan, 0.5, 0.5])


def test_forward_checks_noise_width():
    m = model2()
    with pytest.raises(ModelError, match=r"^noise must have shape \(m, 3\)$"):
        m.forward(np.full((4, 2), 0.5))


def test_non_finite_node_values_name_the_node():
    dag = Dag(("X", "Y"), ((), ("X",)))
    mechs = (RootGaussian("X", 0.0, 1e308), Deterministic("Y", ("X",), parse_formula("X", ("X",))))
    m = ScmModel(dag, mechs, "Y")
    with pytest.raises(ModelError, match="node 'X'.*non-finite"):
        m.forward(np.array([[0.999, 0.5]]))


def test_counterfactual_outcome_golden():
    m = model2()
    # swap W1's noise from heads to tails; W2 keeps its own noise
    y = counterfactual_outcome(m, [0.7, 0.7, 0.1], [0.2, 0.9, 0.9], ["W1"])
    assert y == 0.0
    # swapping Y's slot alone does nothing (deterministic node)
    y2 = counterfactual_outcome(m, [0.7, 0.7, 0.1], [0.2, 0.9, 0.9], ["Y"])
    assert y2 == 2.0


def test_counterfactual_outcome_rejects_noise_outside_unit_interval():
    dag = Dag(("A", "Y"), ((), ("A",)))
    y = Deterministic("Y", ("A",), parse_formula("2*A", ("A",)))
    m = ScmModel(dag, (RootUniform("A"), y), "Y")
    assert counterfactual_outcome(m, [0.5, 0.0], [0.25, 0.0], ["A"]) == 0.5
    bad = (7.0, -0.5, 1.0 + 1e-12, np.nan, np.inf)
    for v in bad:
        for e, e2 in (([v, 0.0], [0.25, 0.0]), ([0.5, 0.0], [v, 0.0]), ([0.5, 0.0], [0.25, v])):
            with pytest.raises(ModelError, match=r"^noise coordinates must lie in \[0, 1\]$"):
                counterfactual_outcome(m, e, e2, ["A"])
    with pytest.raises(ModelError, match=r"^noise vectors must have length 2$"):
        counterfactual_outcome(m, [0.5, 0.0], [0.25], ["A"])
    with pytest.raises(ModelError, match=r"^noise vector must have length 2$"):
        forward_sample(m, [0.5])


def test_counterfactual_totals_model1_vs_model2():
    cfg = EstimatorConfig(samples=60_000, seed=0)
    t1 = counterfactual_total(model1(), ["W1"], cfg)
    t2 = counterfactual_total(model2(), ["W1"], cfg)
    assert t1.value == pytest.approx(1.0, abs=3 * t1.stderr + 5e-3)
    assert t2.value == pytest.approx(0.5, abs=3 * t2.stderr + 5e-3)
    with pytest.raises(DomainError):
        counterfactual_total(model1(), [], cfg)
    with pytest.raises(ModelError):
        counterfactual_total(model1(), ["nope"], cfg)


def test_estimate_counterfactual_measure_outcome_flag():
    cfg = EstimatorConfig(samples=30_000, seed=0)
    with_y = estimate_counterfactual_measure(model1(), cfg)
    assert with_y.names == ("W1", "W2", "Y")
    without = estimate_counterfactual_measure(model1(), cfg, include_outcome=False)
    assert without.names == ("W1", "W2")
    assert "outcome-excluded" in without.provenance.flags
    # Y is deterministic: its noise slot carries no mass
    y_mass = sum(
        with_y.atom_mass[s]
        for s in range(8)
        if s >> with_y.name_index("Y") & 1
    )
    assert y_mass == pytest.approx(0.0, abs=0.02)


def test_model_json_roundtrip(tmp_path):
    for m in (model1(), model2()):
        obj = model_to_json(m)
        m2 = model_from_json(obj)
        assert model_to_json(m2) == obj
        path = tmp_path / "m.json"
        write_model(m, path)
        m3 = read_model(path)
        assert model_to_json(m3) == obj
        # serialization is stable byte-for-byte across a round trip
        write_model(m3, tmp_path / "m2.json")
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def test_model_json_rejects_bad_variables():
    obj = model_to_json(model1())
    obj["variables"] = ["W1", "W2"]
    with pytest.raises(ModelError):
        model_from_json(obj)


def test_read_model_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        read_model(p)


def test_all_mechanism_kinds_roundtrip(tmp_path):
    dag = Dag(
        ("A", "B", "C", "D", "E", "F", "G", "Y"),
        ((), (), (), (), ("A",), ("A", "B"), ("A",), ("E", "F", "G")),
    )
    mean = ParentFn("F", ("A", "B"), formula=parse_formula("A + B", ("A", "B")))
    std = ParentFn("F", ("A", "B"), formula=parse_formula("1 + abs(A)", ("A", "B")))
    mechs = (
        RootGaussian("A", 0.5, 1.5),
        RootUniform("B", -1.0, 1.0),
        RootRademacher("C"),
        RootCategorical("D", [1.0, 2.0], [0.4, 0.6], labels=("lo", "hi")),
        QuantileTable("E", ("A",), (0.5,), {canon_value(0.0): [1.0]}, binning=((0.0,),)),
        # binned key "b0"/"b1" form
        AdditiveNoise("F", ("A", "B"), mean, [-0.5, 0.0, 0.5]),
        Deterministic("G", ("A",), parse_formula("A^2", ("A",))),
        Deterministic("Y", ("E", "F", "G"), parse_formula("E + F + G", ("E", "F", "G"))),
    )
    m = ScmModel(dag, mechs, "Y")
    obj = model_to_json(m)
    m2 = model_from_json(obj)
    assert model_to_json(m2) == obj
    kinds = [mm.kind for mm in m2.mechanisms]
    assert kinds == [
        "root_gaussian",
        "root_uniform",
        "root_rademacher",
        "root_categorical",
        "quantile_table",
        "additive_noise",
        "deterministic",
        "deterministic",
    ]


def test_root_kind_rejects_parents():
    obj = model_to_json(model1())
    obj["nodes"][0]["parents"] = ["W2"]
    with pytest.raises(ModelError):
        model_from_json(obj)


def test_deterministic_constant_formula_broadcasts():
    dag = Dag(("A", "Y"), ((), ("A",)))
    mechs = (
        RootRademacher("A"),
        Deterministic("Y", ("A",), parse_formula("A + 0*A + 1", ("A",))),
    )
    m = ScmModel(dag, mechs, "Y")
    vals = m.forward(np.array([[0.7, 0.1], [0.2, 0.9]]))
    assert list(vals["Y"]) == [2.0, 0.0]


def _model_with_wrong_parents():
    dag = Dag(("A", "B", "Y"), ((), (), ("A",)))
    y = Deterministic("Y", ("B",), parse_formula("B", ("B",)))
    return ScmModel(dag, (RootRademacher("A"), RootRademacher("B"), y), "Y")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Dag(("A", "B"), ((),)), "need one parent list per node"),
        (lambda: ancestral_closure(Dag(("A",), ((),)), ("Z",)), "unknown node 'Z'"),
        (lambda: ScmModel(Dag(("A",), ((),)), (RootRademacher("A"),), "Z"),
         "outcome 'Z' is not a node"),
        (lambda: ScmModel(Dag(("A", "Y"), ((), ("A",))), (RootRademacher("A"),), "Y"),
         "need one mechanism per node"),
        (_model_with_wrong_parents, "node 'Y': mechanism parents ('B',) != ('A',)"),
    ],
    ids=["dag_parent_lists", "closure_unknown_node", "model_outcome", "model_mechanism_count",
         "model_mechanism_parents"],
)
def test_library_guards(build, message):
    # checks a model file never reaches: read_model builds these from one node list
    with pytest.raises(ModelError) as exc:
        build()
    assert type(exc.value) is ModelError and str(exc.value) == message
