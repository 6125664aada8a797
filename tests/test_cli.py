import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from xfvar.cli import main

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


def test_threads_env(monkeypatch, tmp_path, in_repo_root):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    monkeypatch.setenv("XFVAR_THREADS", "1")
    assert run_cli(["gsa", "--func", "linear3", "--samples", "30000", "--out", str(out1)]) == 0
    monkeypatch.setenv("XFVAR_THREADS", "3")
    assert run_cli(["gsa", "--func", "linear3", "--samples", "30000", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_threads_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("XFVAR_THREADS", "many")
    code = run_cli(["gsa", "--func", "linear3", "--samples", "1000"])
    assert code == 2
    assert "XFVAR_THREADS" in capsys.readouterr().err


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
