"""Bad input from the command line: one documented error line, no warning.

Each case must exit with its documented code and print exactly one
error[EXX] line on stderr. pytest turns a numpy RuntimeWarning into an
exception, which the CLI would report as error[E01], so an exit code of 2
here also shows that no warning was raised.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from xfvar import mc, rng
from xfvar.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as e:
        return int(e.code or 0)


def assert_one_error(capsys, code, expected, fragment):
    err = capsys.readouterr().err
    assert code == expected, err
    assert err.startswith(f"error[E{expected:02d}]:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert fragment in err


# ---------------------------------------------------------------------------
# Outcomes whose squares overflow float64

BIG_MODEL = {
    "outcome": "Y",
    "nodes": [
        {"name": "A", "parents": [], "mechanism": {"kind": "root_gaussian"}},
        {"name": "Y", "parents": ["A"], "mechanism": {"kind": "deterministic", "expr": "1e200*A"}},
    ],
}
OVERFLOW = "outcome values are too large to square in float64"


@pytest.fixture
def big_model(tmp_path):
    p = tmp_path / "big.json"
    p.write_text(json.dumps(BIG_MODEL))
    return str(p)


@pytest.mark.parametrize(
    "argv",
    [
        ["counterfactual", "--samples", "1000"],
        ["counterfactual", "--samples", "1000", "--subset", "A"],
        ["gsa", "--samples", "1000"],
    ],
    ids=["counterfactual", "counterfactual_subset", "gsa_model"],
)
def test_outcome_overflow_exits_2(big_model, capsys, argv):
    code = run_cli(argv[:1] + ["--model", big_model] + argv[1:])
    assert_one_error(capsys, code, 2, OVERFLOW)


def test_outcome_overflow_exits_2_with_threads(big_model, capsys, monkeypatch):
    # three blocks over two pool threads, which keep their own errstate
    monkeypatch.setenv("XFVAR_THREADS", "2")
    code = run_cli(["counterfactual", "--model", big_model, "--samples", "20000"])
    assert_one_error(capsys, code, 2, OVERFLOW)


def test_outcome_overflow_prints_no_warning_outside_pytest(big_model):
    proc = subprocess.run(
        [sys.executable, "-m", "xfvar", "counterfactual", "--model", big_model, "--samples", "1000"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error[E02]: {OVERFLOW}\n"


def test_large_finite_outcome_still_runs(tmp_path, capsys):
    model = copy.deepcopy(BIG_MODEL)
    model["nodes"][1]["mechanism"]["expr"] = "1e100*A"
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    assert run_cli(["counterfactual", "--model", str(p), "--samples", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["atoms"]["A"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Seeds outside the 64-bit key range


def _seed_argv(command, tmp_path):
    if command == "gsa":
        return ["gsa", "--func", "linear3", "--samples", "1000"]
    if command == "counterfactual":
        return ["counterfactual", "--model", str(DATA / "model1.json"), "--samples", "1000"]
    csv = tmp_path / "d.csv"
    csv.write_text("A,Y\n" + "".join(f"{i % 3},{i % 7}\n" for i in range(60)))
    dag = tmp_path / "dag.json"
    dag.write_text(json.dumps({"outcome": "Y", "nodes": [{"name": "A"}, {"name": "Y", "parents": ["A"]}]}))
    return ["fit", "--data", str(csv), "--dag", str(dag), "--out", str(tmp_path / "m.json")]


@pytest.mark.parametrize("command", ["gsa", "counterfactual", "fit"])
@pytest.mark.parametrize("seed", [str(1 << 64), "-1"])
def test_seed_out_of_range_exits_2(tmp_path, capsys, command, seed):
    code = run_cli(_seed_argv(command, tmp_path) + ["--seed", seed])
    assert_one_error(capsys, code, 2, f"seed must lie in [0, 2**64), got {seed}")


@pytest.mark.parametrize("command", ["gsa", "counterfactual", "fit"])
def test_largest_seed_runs(tmp_path, capsys, command):
    seed = (1 << 64) - 1
    assert run_cli(_seed_argv(command, tmp_path) + ["--seed", str(seed)]) == 0
    if command != "fit":
        assert json.loads(capsys.readouterr().out)["seed"] == seed


# ---------------------------------------------------------------------------
# Malformed report files


def _drop(*path):
    """Edit that deletes rep[path[0]][path[1]]..."""
    def edit(rep):
        target = rep
        for k in path[:-1]:
            target = target[k]
        del target[path[-1]]
        return rep
    return edit


def _put(path, value):
    """Edit that sets rep[path[0]][path[1]]... to value."""
    def edit(rep):
        target = rep
        for k in path[:-1]:
            target = target[k]
        target[path[-1]] = value
        return rep
    return edit


REPORT_CASES = {
    "not_an_object": (lambda rep: [1, 2], "report must be a JSON object"),
    "missing_atoms": (_drop("atoms"), "report is missing 'atoms'"),
    "missing_variables": (_drop("variables"), "report is missing 'variables'"),
    "missing_provenance": (_drop("provenance"), "report is missing 'provenance'"),
    "variables_not_a_list": (_put(["variables"], "W1"), "'variables' must be a list"),
    "variables_repeated": (_put(["variables"], ["W1", "W1", "W3"]), "'variables' must be unique"),
    "atoms_not_an_object": (_put(["atoms"], [0.5, 0.5]), "'atoms' must be an object"),
    "atom_stderr_not_an_object": (_put(["atom_stderr"], 3), "'atom_stderr' must be an object"),
    "atom_missing": (_drop("atoms", "W1"), "'atoms' is missing subset 'W1'"),
    "atom_not_numeric": (_put(["atoms", "W1"], "x"), "'atoms' entry 'W1' must be a finite number"),
    "atom_null": (_put(["atoms", "W2"], None), "'atoms' entry 'W2' must be a finite number"),
    "atom_bool": (_put(["atoms", "W2"], True), "'atoms' entry 'W2' must be a finite number"),
    "stderr_not_numeric": (_put(["atom_stderr", ""], "?"), "'atom_stderr' entry '' must be"),
    "provenance_not_an_object": (_put(["provenance"], "mc"), "'provenance' must be an object"),
    "provenance_bad_kind": (_put(["provenance", "kind"], "magic"), "'provenance' must be"),
    "provenance_bad_samples": (_put(["provenance", "samples"], "many"), "'provenance' must be"),
    "config_not_an_object": (_put(["config"], []), "'config' must be an object"),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_malformed_report_exits_2(tmp_path, capsys, case):
    edit, fragment = REPORT_CASES[case]
    rep = json.loads((DATA / "model1_report.json").read_text())
    rep["atom_stderr"] = {k: 0.01 for k in rep["atoms"]}
    p = tmp_path / "r.json"
    p.write_text(json.dumps(edit(rep)))
    code = run_cli(["venn", "--report", str(p), "--ascii"])
    assert_one_error(capsys, code, 2, fragment)


def test_non_finite_atom_exits_2(tmp_path, capsys):
    text = (DATA / "model1_report.json").read_text()
    rep = json.loads(text)
    p = tmp_path / "r.json"
    p.write_text(text.replace(json.dumps(rep["atoms"]["W1"]), "NaN", 1))
    code = run_cli(["venn", "--report", str(p), "--ascii"])
    assert_one_error(capsys, code, 2, "'atoms' entry 'W1' must be a finite number, got nan")


# ---------------------------------------------------------------------------
# Monte Carlo work budget

HUGE = "100000000000000"
MODEL1 = str(DATA / "model1.json")
BUDGET = "exceed the Monte Carlo budget 10000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["gsa", "--func", "linear3"],
        ["gsa", "--model", MODEL1],
        ["counterfactual", "--model", MODEL1],
        ["counterfactual", "--model", MODEL1, "--subset", "W1"],
    ],
    ids=["gsa_func", "gsa_model", "counterfactual", "counterfactual_subset"],
)
def test_monte_carlo_budget_exits_2_before_the_first_block(capsys, monkeypatch, argv):
    def no_blocks(*args):
        raise AssertionError("a noise block was drawn")

    monkeypatch.setattr(rng, "uniform_block", no_blocks)
    code = run_cli(argv + ["--samples", HUGE])
    assert_one_error(capsys, code, 2, BUDGET)


def test_monte_carlo_budget_edge(capsys, monkeypatch):
    # linear3 asks for 2**3 + 1 outcomes per pair
    argv = ["gsa", "--func", "linear3", "--samples", "1000"]
    monkeypatch.setattr(mc, "MC_BUDGET", 9000)
    assert run_cli(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(mc, "MC_BUDGET", 8999)
    code = run_cli(argv)
    assert_one_error(capsys, code, 2, "9000 outcome evaluations exceed the Monte Carlo budget 8999")


def test_monte_carlo_budget_prints_one_line_outside_pytest():
    proc = subprocess.run(
        [sys.executable, "-m", "xfvar", "gsa", "--func", "linear3", "--samples", HUGE],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error[E02]: 900000000000000 outcome evaluations {BUDGET}\n"
    assert proc.stdout == ""
