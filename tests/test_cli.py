import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from xfvar import cli, rng, scm
from xfvar.algebra import measure_marginalize
from xfvar.cli import main
from xfvar.errors import ModelError, NotReducibleError
from xfvar.fit import FitConfig
from xfvar.mc import EstimatorConfig, hybrid
from xfvar.report import read_report

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as e:
        return int(e.code or 0)


@pytest.fixture
def in_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_gsa_func_json(capsys):
    code = run_cli(["gsa", "--func", "linear3", "--samples", "5000", "--seed", "1"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["variables"] == ["W1", "W2", "W3"]
    assert obj["samples"] == 5000 and obj["seed"] == 1
    assert obj["outcome"] is None
    assert abs(sum(obj["atoms"].values()) - 1.0) < 1e-9
    assert obj["config"]["function"] == "linear3"


def test_gsa_func_table(capsys):
    code = run_cli(["gsa", "--func", "multilinear3", "--samples", "4000", "--format", "table"])
    assert code == 0
    out = capsys.readouterr().out
    assert "atom" in out and "shapley" in out and "W1+W2+W3" in out


def test_gsa_unknown_func(capsys):
    code = run_cli(["gsa", "--func", "nope", "--samples", "1000"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[E02]:")
    assert "\n" not in err.rstrip("\n")


def test_gsa_func_and_model_conflict(capsys):
    code = run_cli(["gsa", "--func", "linear3", "--model", "x.json"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[E02]:")


def test_gsa_model_with_non_root_nodes(capsys, in_repo_root):
    code = run_cli(["gsa", "--model", "tests/data/model1.json", "--samples", "1000"])
    # model1's Y node is fine (outcome may be deterministic) so this runs
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["variables"] == ["W1", "W2"]


def test_gsa_model_rejects_chain(tmp_path, capsys):
    chain = {
        "variables": ["A", "B", "Y"],
        "outcome": "Y",
        "nodes": [
            {"name": "A", "parents": [], "mechanism": {"kind": "root_rademacher"}},
            {
                "name": "B",
                "parents": ["A"],
                "mechanism": {"kind": "deterministic", "expr": "A"},
            },
            {
                "name": "Y",
                "parents": ["B"],
                "mechanism": {"kind": "deterministic", "expr": "B"},
            },
        ],
    }
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(chain))
    code = run_cli(["gsa", "--model", str(p), "--samples", "1000"])
    assert code == 2
    assert "counterfactual" in capsys.readouterr().err


def test_gsa_model_names_the_kind_of_a_parentless_non_root(tmp_path, capsys):
    model = {"outcome": "Y", "nodes": [
        {"name": "A", "parents": [], "mechanism": {"kind": "root_gaussian"}},
        {"name": "K", "parents": [], "mechanism": {"kind": "deterministic", "expr": "2"}},
        {"name": "Y", "parents": ["A", "K"], "mechanism": {"kind": "deterministic", "expr": "A*K"}},
    ]}
    p = tmp_path / "k.json"
    p.write_text(json.dumps(model))
    assert run_cli(["gsa", "--model", str(p), "--samples", "1000"]) == 2
    err = capsys.readouterr().err
    assert "node 'K' has a deterministic mechanism, not a root" in err
    assert "parents" not in err and err.count("\n") == 1


def test_counterfactual_full_report(capsys, in_repo_root):
    code = run_cli(["counterfactual", "--model", "tests/data/model1.json", "--samples", "4000"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["variables"] == ["W1", "W2", "Y"]
    assert obj["outcome"] == "Y"
    assert obj["config"]["clip_atoms"] is False


def test_counterfactual_subset_line(capsys, in_repo_root):
    code = run_cli(
        ["counterfactual", "--model", "tests/data/model1.json", "--samples", "20000", "--subset", "W1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("xi(W1) = ")
    assert "+-" in out
    value = float(out.split("=")[1].split("+-")[0])
    assert abs(value - 1.0) < 0.05


def test_counterfactual_subset_disjunction(capsys, in_repo_root):
    code = run_cli(
        [
            "counterfactual",
            "--model",
            "tests/data/model1.json",
            "--samples",
            "20000",
            "--subset",
            "W2,Y",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("xi(W2 v Y) = ")


def test_counterfactual_clip_atoms(capsys, in_repo_root):
    code = run_cli(
        [
            "counterfactual",
            "--model",
            "tests/data/model1.json",
            "--samples",
            "4000",
            "--clip-atoms",
        ]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert all(v >= 0 for v in obj["atoms"].values())
    assert "clipped-renormalized" in obj["provenance"]["flags"]
    assert obj["warnings"]


def test_oracle_golden_bytes(tmp_path, in_repo_root):
    out = tmp_path / "rep.json"
    code = run_cli(["oracle", "--model", "tests/data/model1.json", "--out", str(out)])
    assert code == 0
    got = out.read_bytes()
    want = (DATA / "model1_report.json").read_bytes()
    # normalize the --out dependent config echo (model path is identical)
    assert got == want


def test_oracle_not_reducible(tmp_path, capsys):
    gauss = {
        "variables": ["X", "Y"],
        "outcome": "Y",
        "nodes": [
            {"name": "X", "parents": [], "mechanism": {"kind": "root_gaussian", "mean": 0.0, "std": 1.0}},
            {"name": "Y", "parents": ["X"], "mechanism": {"kind": "deterministic", "expr": "X"}},
        ],
    }
    p = tmp_path / "g.json"
    p.write_text(json.dumps(gauss))
    code = run_cli(["oracle", "--model", str(p)])
    assert code == 6
    assert capsys.readouterr().err.startswith("error[E06]:")


def test_oracle_evaluates_deterministic_nodes_and_bounds_counterfactual(tmp_path, capsys):
    # Rademacher A, categorical B, and deterministic nodes between them and
    # the outcome: C = A*B and Y = A + C + A*C (= A + B + A*B, since A*A = 1)
    p = DATA / "dag_model.json"
    assert run_cli(["oracle", "--model", str(p)]) == 0, capsys.readouterr().err
    rep = json.loads(capsys.readouterr().out)
    # the report variables are the discrete roots; C and Y own no noise
    assert rep["variables"] == ["A", "B"]
    assert abs(math.fsum(rep["atoms"].values()) - 1.0) <= 1e-12
    # E[B] = 1.3 and Var B = 0.61: the A atom is 2.3**2 / 6.51, B and A+B are 0.61 / 6.51
    for key, want in (("A", 0.812596), ("B", 0.093702), ("A+B", 0.093702)):
        assert abs(rep["atoms"][key] - want) <= 1e-6, key
    out = tmp_path / "cf.json"
    argv = ["counterfactual", "--model", str(p), "--samples", "200000", "--seed", "0"]
    assert run_cli(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
    m = read_report(out).measure
    for drop in ("C", "Y"):
        m = measure_marginalize(m, drop)
    assert m.names == ("A", "B")
    for mask, key in ((1, "A"), (2, "B"), (3, "A+B")):
        assert abs(m.atom_mass[mask] - rep["atoms"][key]) <= 3 * m.atom_stderr[mask], key


def test_oracle_rejects_noisy_non_root(tmp_path, capsys):
    model = json.loads((DATA / "dag_model.json").read_text())
    model["nodes"][2]["mechanism"] = {
        "kind": "hetero_gaussian", "mean": {"expr": "A*B"}, "std": {"expr": "1"}}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    assert run_cli(["oracle", "--model", str(p)]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error[E06]: node 'C' has a hetero_gaussian mechanism;")
    assert err.count("\n") == 1


def test_oracle_without_discrete_root_exits_6(tmp_path, capsys):
    model = {"outcome": "Y", "nodes": [
        {"name": "Y", "parents": [], "mechanism": {"kind": "deterministic", "expr": "2"}}]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    assert run_cli(["oracle", "--model", str(p)]) == 6
    assert capsys.readouterr().err == (
        "error[E06]: oracle needs at least one discrete root (rademacher, categorical or empirical)\n"
    )


def _rademacher_sum_model(path, k):
    names = [f"W{i}" for i in range(k)]
    nodes = [{"name": n, "parents": [], "mechanism": {"kind": "root_rademacher"}} for n in names]
    nodes.append(
        {"name": "Y", "parents": names, "mechanism": {"kind": "deterministic", "expr": " + ".join(names)}}
    )
    path.write_text(json.dumps({"variables": names + ["Y"], "outcome": "Y", "nodes": nodes}))
    return str(path)


def test_oracle_pair_budget_checked_before_decomposition(tmp_path, capsys, monkeypatch):
    import xfvar.cli

    def never(*args):
        raise AssertionError("hoeffding_decompose ran on an over-budget domain")

    monkeypatch.setattr(xfvar.cli, "hoeffding_decompose", never)
    code = run_cli(["oracle", "--model", _rademacher_sum_model(tmp_path / "k12.json", 12)])
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith("error[E06]:") and err.count("\n") == 1
    assert f"decomposition work {5**12} exceeds budget" in err


@pytest.mark.parametrize("k, reached", [(10, True), (11, False)])
def test_oracle_decomposition_budget_edge(tmp_path, capsys, monkeypatch, k, reached):
    # binary inputs cost 5^K Moebius elements: K = 10 fits the 10^7 budget, K = 11 does not
    import xfvar.cli

    def sentinel(f, domain):
        raise NotReducibleError(f"sentinel reached with {domain.k} inputs")

    monkeypatch.setattr(xfvar.cli, "hoeffding_decompose", sentinel)
    code = run_cli(["oracle", "--model", _rademacher_sum_model(tmp_path / "m.json", k)])
    assert code == 6
    err = capsys.readouterr().err
    assert ("sentinel reached" in err) == reached
    assert ("exceeds budget" in err) == (not reached)


# A law on which the retired pair-enumeration cross-check rejected Y = 1000 + A + A*B
_OFFSET_LAWS = (
    ([0.202, 0.694], [0.8343, 0.1657]),
    (
        [-1.427, -1.423, -0.77, -0.135, 0.076, 0.788, 0.844, 1.165],
        [0.1771, 0.0884, 0.2316, 0.0551, 0.0322, 0.0485, 0.3178, 0.0493],
    ),
)


def test_oracle_accepts_every_categorical_law_that_loads(tmp_path, capsys):
    # probs summing to 1 + 1e-10 load as a root_categorical, so oracle must take them too
    law = {"kind": "root_categorical", "values": [0.0, 1.0], "probs": [0.5, 0.5000000001]}
    model = {"outcome": "Y", "nodes": [
        {"name": "A", "parents": [], "mechanism": law},
        {"name": "B", "parents": [], "mechanism": {"kind": "root_rademacher"}},
        {"name": "Y", "parents": ["A", "B"], "mechanism": {"kind": "deterministic", "expr": "A*B + A"}},
    ]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    assert run_cli(["counterfactual", "--model", str(p), "--samples", "200"]) == 0
    capsys.readouterr()
    assert run_cli(["oracle", "--model", str(p)]) == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["atoms"]["A+B"] == pytest.approx(1 / 3)


def test_oracle_renormalizes_categorical_law(tmp_path, capsys):
    # probs summing to 1 + 1e-10 are divided by their sum, so the measure has mass 1
    law = {"kind": "root_categorical", "values": [0.0, 1.0], "probs": [0.5, 0.5000000001]}
    model = {"outcome": "Y", "nodes": [
        {"name": "A", "parents": [], "mechanism": law},
        {"name": "B", "parents": [], "mechanism": {"kind": "root_rademacher"}},
        {"name": "Y", "parents": ["A", "B"], "mechanism": {"kind": "deterministic", "expr": "A + B + A*B"}},
    ]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    assert run_cli(["oracle", "--model", str(p)]) == 0, capsys.readouterr().err
    rep = json.loads(capsys.readouterr().out)
    assert abs(math.fsum(rep["atoms"].values()) - 1.0) <= 1e-15
    assert abs(rep["totals"]["A+B"] - 1.0) <= 1e-15


def test_oracle_constant_offset_leaves_atoms(tmp_path, capsys):
    atoms = {}
    for offset in ("", "1000 + ", "100000000 + "):
        nodes = [
            {"name": n, "parents": [], "mechanism": {"kind": "root_categorical", "values": v, "probs": w}}
            for n, (v, w) in zip("AB", _OFFSET_LAWS)
        ]
        outcome = {"kind": "deterministic", "expr": offset + "A + A*B"}
        nodes.append({"name": "Y", "parents": ["A", "B"], "mechanism": outcome})
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"variables": ["A", "B", "Y"], "outcome": "Y", "nodes": nodes}))
        assert run_cli(["oracle", "--model", str(p)]) == 0, capsys.readouterr().err
        atoms[offset] = json.loads(capsys.readouterr().out)["atoms"]
    for offset, tol in (("1000 + ", 1e-12), ("100000000 + ", 1e-7)):
        # an offset of 1e8 leaves about eight significant digits of A + A*B
        assert max(abs(atoms[offset][s] - a) for s, a in atoms[""].items()) <= tol


def test_venn_golden_svg(tmp_path, in_repo_root):
    out = tmp_path / "v.svg"
    code = run_cli(["venn", "--report", "tests/data/model1_report.json", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / "model1_venn.svg").read_bytes()


def test_venn_ascii(capsys, in_repo_root):
    code = run_cli(["venn", "--report", "tests/data/model1_report.json", "--ascii"])
    assert code == 0
    out = capsys.readouterr().out
    assert "{W1∧W2} = 0.500" in out


def test_venn_too_many_vars(tmp_path, capsys):
    model = {
        "variables": ["A", "B", "C", "D", "Y"],
        "outcome": "Y",
        "nodes": [
            {"name": n, "parents": [], "mechanism": {"kind": "root_rademacher"}}
            for n in ("A", "B", "C", "D")
        ]
        + [
            {
                "name": "Y",
                "parents": ["A", "B", "C", "D"],
                "mechanism": {"kind": "deterministic", "expr": "A*B + C*D"},
            }
        ],
    }
    mp = tmp_path / "m.json"
    mp.write_text(json.dumps(model))
    rp = tmp_path / "r.json"
    assert run_cli(["oracle", "--model", str(mp), "--out", str(rp)]) == 0
    code = run_cli(["venn", "--report", str(rp), "--ascii"])
    assert code == 7
    assert capsys.readouterr().err.startswith("error[E07]:")


def test_missing_file_exit_2(capsys):
    code = run_cli(["counterfactual", "--model", "no-such-file.json", "--samples", "1000"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[E02]:")


def test_cycle_exit_3(tmp_path, capsys):
    cyc = {
        "variables": ["A", "B"],
        "outcome": "B",
        "nodes": [
            {"name": "A", "parents": ["B"], "mechanism": {"kind": "deterministic", "expr": "B"}},
            {"name": "B", "parents": ["A"], "mechanism": {"kind": "deterministic", "expr": "A"}},
        ],
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cyc))
    code = run_cli(["counterfactual", "--model", str(p), "--samples", "1000"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error[E03]:")


def test_zero_variance_exit_4(tmp_path, capsys):
    const = {
        "variables": ["X", "Y"],
        "outcome": "Y",
        "nodes": [
            {"name": "X", "parents": [], "mechanism": {"kind": "root_rademacher"}},
            {"name": "Y", "parents": ["X"], "mechanism": {"kind": "deterministic", "expr": "0*X"}},
        ],
    }
    p = tmp_path / "k.json"
    p.write_text(json.dumps(const))
    code = run_cli(["counterfactual", "--model", str(p), "--samples", "1000"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error[E04]:")


@pytest.mark.parametrize(
    "root, expr",
    [
        ({"kind": "root_gaussian"}, "log(X)"),  # non-finite outcome values
        ({"kind": "root_gaussian", "mean": float("nan")}, "X"),  # non-finite parameter
        ({"kind": "root_gaussian", "std": 1e308}, "X"),  # finite parameter, overflowing values
    ],
)
def test_bad_model_values_exit_2(tmp_path, capsys, root, expr):
    model = {
        "variables": ["X", "Y"],
        "outcome": "Y",
        "nodes": [
            {"name": "X", "parents": [], "mechanism": root},
            {"name": "Y", "parents": ["X"], "mechanism": {"kind": "deterministic", "expr": expr}},
        ],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(model))
    code = run_cli(["counterfactual", "--model", str(p), "--samples", "1000"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[E02]:") and err.count("\n") == 1


# V fails on rows where both rare discrete roots are 1: an unseen cell, a
# value that overflows, or (patched in) a wrong output shape.
_RARE = {"kind": "root_categorical", "values": [0.0, 1.0], "probs": [0.75, 0.25]}
_FAILING_V = {
    "unseen cell": {"kind": "quantile_table", "levels": [0.5],
                    "cells": {"0|0": [0.0], "0|1": [1.0], "1|0": [2.0]}},
    "non-finite": {"kind": "additive_noise", "mean": {"expr": "1e308*A*B"}, "residuals": [1e308]},
    "shape": {"kind": "deterministic", "expr": "A*B"},
}


@pytest.mark.parametrize("case", sorted(_FAILING_V))
def test_node_failing_only_under_hybrids_exit_2(tmp_path, capsys, monkeypatch, case):
    if case == "shape":
        combine = scm.Deterministic.combine

        def short(self, value, e):
            out = combine(self, value, e)
            return out[:-1] if self.node == "V" and (out == 1.0).any() else out

        monkeypatch.setattr(scm.Deterministic, "combine", short)
    model = {
        "outcome": "Y",
        "nodes": [
            {"name": "A", "parents": [], "mechanism": _RARE},
            {"name": "B", "parents": [], "mechanism": _RARE},
            {"name": "V", "parents": ["A", "B"], "mechanism": _FAILING_V[case]},
            {"name": "Y", "parents": ["V", "A"], "mechanism": {"kind": "deterministic", "expr": "min(V, 1) + A"}},
        ],
    }
    m = scm.model_from_json(model)

    def fails(noise):
        try:
            m.outcome_values(noise)
        except ModelError:
            return True
        return False

    # a seed whose first 20 base and resampled rows both evaluate, while a
    # hybrid that mixes them does not
    for seed in range(500):
        u = rng.uniform_block(seed, 0, 4)[:20]
        e, ep = u[:, :, 0], u[:, :, 1]
        if not fails(e) and not fails(ep) and fails(hybrid(e, ep, [0])):
            break
    else:
        pytest.fail("no seed fails only under a hybrid")
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    code = run_cli(["counterfactual", "--model", str(p), "--samples", "20", "--seed", str(seed)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[E02]: node 'V'") and err.count("\n") == 1, err


def _write_fit_inputs(tmp_path):
    import numpy as np

    rng = np.random.default_rng(0)
    n = 4000
    w1 = rng.choice([-1.0, 1.0], size=n)
    w2 = w1 + rng.choice([-1.0, 1.0], size=n)
    csv = tmp_path / "d.csv"
    with open(csv, "w") as fh:
        fh.write("W1,W2,Y\n")
        for a, b in zip(w1, w2):
            fh.write(f"{a},{b},{b}\n")
    dag = tmp_path / "dag.json"
    dag.write_text(
        json.dumps(
            {
                "outcome": "Y",
                "nodes": [
                    {"name": "W1", "parents": []},
                    {"name": "W2", "parents": ["W1"]},
                    {"name": "Y", "parents": ["W2"]},
                ],
            }
        )
    )
    return csv, dag


def test_fit_end_to_end(tmp_path, capsys):
    csv, dag = _write_fit_inputs(tmp_path)
    out = tmp_path / "model.json"
    code = run_cli(["fit", "--data", str(csv), "--dag", str(dag), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "node W2: quantile_table" in printed
    assert "wrote" in printed
    code = run_cli(
        ["counterfactual", "--model", str(out), "--samples", "20000", "--subset", "W1"]
    )
    assert code == 0
    value = float(capsys.readouterr().out.split("=")[1].split("+-")[0])
    assert abs(value - 0.5) < 0.05


def test_fit_min_cell_exit_5(tmp_path, capsys):
    csv, dag = _write_fit_inputs(tmp_path)
    code = run_cli(
        ["fit", "--data", str(csv), "--dag", str(dag), "--out", str(tmp_path / "m.json"), "--min-cell", "90000"]
    )
    assert code == 5
    assert capsys.readouterr().err.startswith("error[E05]:")


def test_fit_custom_levels(tmp_path, capsys):
    csv, dag = _write_fit_inputs(tmp_path)
    out = tmp_path / "m.json"
    code = run_cli(
        ["fit", "--data", str(csv), "--dag", str(dag), "--out", str(out), "--levels", "0.25,0.5,0.75"]
    )
    assert code == 0
    obj = json.loads(out.read_text())
    w2 = next(nd for nd in obj["nodes"] if nd["name"] == "W2")
    assert w2["mechanism"]["levels"] == [0.25, 0.5, 0.75]


def test_fit_bad_levels(tmp_path, capsys):
    csv, dag = _write_fit_inputs(tmp_path)
    code = run_cli(
        ["fit", "--data", str(csv), "--dag", str(dag), "--out", str(tmp_path / "m.json"), "--levels", "a,b"]
    )
    assert code == 2


def test_cli_sets_every_config_field(monkeypatch, tmp_path):
    # a config field that no command sets is a setting nobody can reach
    seen = {}

    def recording(cls):
        def make(**kwargs):
            seen.setdefault(cls.__name__, set()).update(kwargs)
            return cls(**kwargs)

        return make

    monkeypatch.setattr(cli, "EstimatorConfig", recording(EstimatorConfig))
    monkeypatch.setattr(cli, "FitConfig", recording(FitConfig))
    assert run_cli(["gsa", "--func", "linear3", "--samples", "1000", "--out", str(tmp_path / "r.json")]) == 0
    csv, dag = _write_fit_inputs(tmp_path)
    argv = ["fit", "--data", str(csv), "--dag", str(dag), "--out", str(tmp_path / "m.json")]
    assert run_cli(argv + ["--levels", "0.25,0.5,0.75"]) == 0
    for cls in (EstimatorConfig, FitConfig):
        assert seen[cls.__name__] == {f.name for f in dataclasses.fields(cls)}


def test_bad_samples_exit_2(capsys):
    code = run_cli(["gsa", "--func", "linear3", "--samples", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[E02]:")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "xfvar", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "xfvar" in proc.stdout
