"""Bad input from the command line: one documented error line, no warning.

Each case must exit with its documented code and print exactly one
error[EXX] line on stderr. pytest turns a numpy RuntimeWarning into an
exception, which the CLI would report as error[E01], so an exit code of 2
here also shows that no warning was raised.
"""

import copy
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from xfvar import mc, rng
from xfvar.cli import main
from xfvar.errors import ModelError
from xfvar.scm import Dag, read_model

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


def test_outcome_overflow_exits_2_over_blocks(big_model, capsys):
    # 20 000 pairs span three blocks: every block overflows, one error line
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


@pytest.fixture
def big_discrete_model(tmp_path):
    # the same outcome over a Rademacher root, so oracle takes the model
    model = copy.deepcopy(BIG_MODEL)
    model["nodes"][0]["mechanism"] = {"kind": "root_rademacher"}
    p = tmp_path / "big_discrete.json"
    p.write_text(json.dumps(model))
    return str(p)


def test_oracle_outcome_overflow_exits_2(big_discrete_model, capsys):
    code = run_cli(["oracle", "--model", big_discrete_model])
    assert_one_error(capsys, code, 2, OVERFLOW)


def test_oracle_outcome_overflow_prints_no_warning_outside_pytest(big_discrete_model):
    proc = subprocess.run(
        [sys.executable, "-m", "xfvar", "oracle", "--model", big_discrete_model],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error[E02]: {OVERFLOW}\n"


# Y = 1e155 + 1e150*(A + A*B): finite outcomes whose squares overflow but
# whose differences' squares do not
SQUARE_MODEL = {
    "outcome": "Y",
    "nodes": [
        {"name": "A", "parents": [], "mechanism": {"kind": "root_gaussian"}},
        {"name": "B", "parents": [], "mechanism": {"kind": "root_uniform"}},
        {"name": "Y", "parents": ["A", "B"],
         "mechanism": {"kind": "deterministic", "expr": "1e155 + 1e150*(A + A*B)"}},
    ],
}


@pytest.mark.parametrize("cmd", ["counterfactual", "gsa"])
def test_full_measure_squares_only_differences(tmp_path, capsys, cmd):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(SQUARE_MODEL))
    assert run_cli([cmd, "--model", str(p), "--samples", "1000"]) == 0, capsys.readouterr().err
    atoms = json.loads(capsys.readouterr().out)["atoms"]
    assert all(math.isfinite(a) for a in atoms.values()) and atoms["A"] > 0.5


def test_subset_total_still_squares_outcomes(tmp_path, capsys):
    # the pooled variance behind --subset squares the raw outcomes
    p = tmp_path / "m.json"
    p.write_text(json.dumps(SQUARE_MODEL))
    code = run_cli(["counterfactual", "--model", str(p), "--samples", "1000", "--subset", "A"])
    assert_one_error(capsys, code, 2, OVERFLOW)


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
    "atom_an_int_past_float64": (_put(["atoms", "W1"], 10**400),
                                 "'atoms' entry 'W1' must be a finite number"),
    "stderr_not_numeric": (_put(["atom_stderr", ""], "?"), "'atom_stderr' entry '' must be"),
    "stderr_negative": (_put(["atom_stderr", "W1+W2"], -1e308),
                        "'atom_stderr' entry 'W1+W2' must be at least 0, got -1e+308"),
    "provenance_not_an_object": (_put(["provenance"], "mc"), "'provenance' must be an object"),
    "provenance_bad_kind": (_put(["provenance", "kind"], "magic"), "'provenance' must be"),
    "provenance_bad_samples": (_put(["provenance", "samples"], "many"), "'provenance' must be"),
    "config_not_an_object": (_put(["config"], []), "'config' must be an object"),
    "lower_not_an_object": (_put(["lower"], [0.5]), "'lower' must be an object"),
    "lower_missing": (_drop("lower", "W1+W2"), "'lower' is missing subset 'W1+W2'"),
    "lower_nan": (_put(["lower", "W2"], math.nan), "'lower' entry 'W2' must be a finite number"),
    "lower_not_numeric": (_put(["lower", "W1"], "0.5"), "'lower' entry 'W1' must be a finite number"),
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


def test_huge_stderr_draws_without_warning(tmp_path, capsys):
    # venn folds the outcome out of a counterfactual report, stderr too
    model = copy.deepcopy(BIG_MODEL)
    model["nodes"][1:] = [
        {"name": "B", "parents": [], "mechanism": {"kind": "root_uniform"}},
        {"name": "Y", "parents": ["A", "B"], "mechanism": {"kind": "deterministic", "expr": "A*B"}},
    ]
    m = tmp_path / "m.json"
    m.write_text(json.dumps(model))
    r = tmp_path / "r.json"
    assert run_cli(["counterfactual", "--model", str(m), "--samples", "200", "--out", str(r)]) == 0
    rep = json.loads(r.read_text())
    rep["atom_stderr"][""] = 1e308
    r.write_text(json.dumps(rep))
    assert run_cli(["venn", "--report", str(r), "--ascii"]) == 0
    assert capsys.readouterr().err == ""


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


# ---------------------------------------------------------------------------
# Malformed model and DAG files


def _node(name, parents, mechanism):
    return {"name": name, "parents": parents, "mechanism": mechanism}


# one node per mechanism family that reads lists, numbers or cell tables
GOOD_MODEL = {
    "variables": ["A", "B", "C", "D", "E", "Y"],
    "outcome": "Y",
    "fitted": ["fitted:quantile_grid"],
    "nodes": [
        _node("A", [], {"kind": "root_categorical", "values": [0.0, 1.0], "probs": [0.5, 0.5],
                        "labels": ["a", "b"]}),
        _node("B", [], {"kind": "root_empirical", "values": [1.0, 2.0, 3.0]}),
        _node("C", [], {"kind": "root_gaussian", "mean": 0.0, "std": 1.0}),
        _node("D", ["A"], {"kind": "quantile_table", "levels": [0.25, 0.75],
                           "cells": {"0": [0.0, 1.0], "1": [1.0, 2.0]}}),
        _node("E", ["C"], {"kind": "additive_noise", "residuals": [-1.0, 1.0],
                           "mean": {"cells": {"b0": 0.0, "b1": 1.0}, "binning": [[0.0]]}}),
        _node("Y", ["A", "B", "D", "E"], {"kind": "deterministic", "expr": "A + B + D + E"}),
    ],
}


def _mech(i, key, value):
    """Edit that sets field key of node i's mechanism."""
    return _put(["nodes", i, "mechanism", key], value)


MODEL_CASES = {
    "probs_not_a_list": (_mech(0, "probs", "ab"), "node 'A': probs must be a list of numbers"),
    "empirical_values_object": (_mech(1, "values", {"a": 1}), "node 'B': values must be a list"),
    "mean_not_a_number": (_mech(2, "mean", "x"), "node 'C': mean must be a number"),
    "categorical_without_values": (_drop("nodes", 0, "mechanism", "values"),
                                   "node 'A': root_categorical mechanism is missing 'values'"),
    "parents_not_a_list": (_put(["nodes", 3, "parents"], 5), "node 'D': parents must be a list"),
    "parents_a_string": (_put(["nodes", 5, "parents"], "ABDE"), "node 'Y': parents must be a list"),
    "cells_a_list": (_mech(3, "cells", [1, 2]), "node 'D': cells must be an object"),
    "cell_grid_a_string": (_put(["nodes", 3, "mechanism", "cells", "0"], "x"),
                           "node 'D': cell '0' grid must be a list of numbers"),
    "residuals_a_string": (_mech(4, "residuals", "ab"), "node 'E': residuals must be a list"),
    "cell_value_a_string": (_put(["nodes", 4, "mechanism", "mean", "cells", "b0"], "x"),
                            "node 'E': cell 'b0' must be a number"),
    "binning_of_strings": (_put(["nodes", 4, "mechanism", "mean", "binning"], ["x"]),
                           "node 'E': binning of parent 0 must be a list of numbers"),
    "mean_a_numeric_string": (_mech(2, "mean", "1.5"), "node 'C': mean must be a number"),
    "std_a_boolean": (_mech(2, "std", True), "node 'C': std must be a number"),
    "values_numeric_strings": (_mech(1, "values", ["1", "2"]),
                               "node 'B': values must be a list of numbers"),
    "probs_of_booleans": (_mech(0, "probs", [True, False]),
                          "node 'A': probs must be a list of numbers"),
    "cell_value_a_boolean": (_put(["nodes", 4, "mechanism", "mean", "cells", "b0"], False),
                             "node 'E': cell 'b0' must be a number"),
    "mean_an_int_past_float64": (_mech(2, "mean", 10**400), "node 'C': mean must be finite"),
    "values_an_int_past_float64": (_mech(1, "values", [1, 10**400]),
                                   "node 'B': values must be finite"),
    "labels_a_number": (_mech(0, "labels", 5), "node 'A': labels must be a list"),
    "fitted_a_number": (_put(["fitted"], 5), "model 'fitted' must be a list"),
    "name_an_object": (_put(["name"], {"a": [1, 2]}), "model 'name' must be a string"),
    "variables_a_number": (_put(["variables"], 5), "'variables' must be a list"),
}

EXCEPTION_NAME = re.compile(r"\b[A-Z]\w*(Error|Exception)\b")


def test_good_model_runs(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(GOOD_MODEL))
    assert run_cli(["counterfactual", "--model", str(p), "--samples", "200"]) == 0


def assert_one_file_error(capsys, code, fragment):
    """One error[E02] line holding fragment and no Python exception name."""
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error[E02]:") and err.count("\n") == 1, err
    assert fragment in err and not EXCEPTION_NAME.search(err), err


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
def test_malformed_model_exits_2(tmp_path, capsys, case):
    edit, fragment = MODEL_CASES[case]
    p = tmp_path / "m.json"
    p.write_text(json.dumps(edit(copy.deepcopy(GOOD_MODEL))))
    code = run_cli(["counterfactual", "--model", str(p), "--samples", "200"])
    assert_one_file_error(capsys, code, fragment)


# well-typed fields whose values a mechanism, the DAG or the file reader rejects
MODEL_VALUE_CASES = {
    "parent_listed_twice": (_put(["nodes", 5, "parents"], ["A", "A", "B", "D", "E"]),
                            "node 'Y' lists a parent twice"),
    "binning_length": (_put(["nodes", 4, "mechanism", "mean", "binning"], [[0.0], [1.0]]),
                       "node 'E': binning must hold one entry per parent"),
    "parent_fn_empty": (_mech(4, "mean", {}), "node 'E': need exactly one of expr or cells"),
    "parent_fn_expr_and_cells": (_mech(4, "mean", {"expr": "C", "cells": {"b0": 0.0, "b1": 1.0}}),
                                 "node 'E': need exactly one of expr or cells"),
    "parent_fn_expr_with_binning": (_mech(4, "mean", {"expr": "C", "binning": "junk"}),
                                    "node 'E': binning applies to cells, not to expr"),
    "std_negative": (_mech(2, "std", -1.0), "node 'C': std must be >= 0"),
    "uniform_high_below_low": (_put(["nodes", 2, "mechanism"],
                                    {"kind": "root_uniform", "low": 1.0, "high": 0.0}),
                               "node 'C': need high >= low"),
    # every draw of low + (high - low) * e would be non-finite
    "uniform_range_overflows": (_put(["nodes", 2, "mechanism"],
                                     {"kind": "root_uniform", "low": -1e308, "high": 1e308}),
                                "node 'C': high - low must be finite"),
    "categorical_empty": (_put(["nodes", 0, "mechanism"],
                               {"kind": "root_categorical", "values": [], "probs": []}),
                          "node 'A': empty categorical"),
    "empirical_empty": (_mech(1, "values", []), "node 'B': need a nonempty sample list"),
    "residuals_empty": (_mech(4, "residuals", []), "node 'E': residual pool is empty"),
    "residuals_nan": (_mech(4, "residuals", [-1.0, math.nan, 1.0]),
                      "node 'E': residuals must be finite"),
    "levels_empty": (_mech(3, "levels", []), "node 'D': need at least one quantile level"),
    "levels_outside_unit": (_mech(3, "levels", [0.0, 0.75]),
                            "node 'D': levels must lie strictly inside (0, 1)"),
    "levels_decreasing": (_mech(3, "levels", [0.75, 0.25]),
                          "node 'D': levels must be strictly increasing"),
    "quantile_table_without_parents": (_put(["nodes", 3, "parents"], []),
                                       "node 'D': quantile_table needs parents; use a root"),
    "grid_length": (_put(["nodes", 3, "mechanism", "cells", "0"], [0.0]),
                    "node 'D': cell '0' grid length 1 != 2 levels"),
    "grid_decreasing": (_put(["nodes", 3, "mechanism", "cells", "0"], [1.0, 0.0]),
                        "node 'D': cell '0' grid must be non-decreasing"),
    # b2 lies past the one cut point, so no row reads the negative cell
    "std_cell_negative": (_put(["nodes", 4, "mechanism"], {"kind": "hetero_gaussian",
                               "mean": {"expr": "C"}, "std": {"cells": {"b0": 1.0, "b1": 1.0,
                                                                        "b2": -1.0},
                                                              "binning": [[0.0]]}}),
                          "node 'E': std cells must be >= 0"),
    # a std formula that reads no parent is checked when the model loads
    "std_formula_negative": (_put(["nodes", 4, "mechanism"], {"kind": "hetero_gaussian",
                                  "mean": {"expr": "C"}, "std": {"expr": "-1"}}),
                             "node 'E': std formula must be >= 0"),
    "stddev_negative_at_sampling": (_put(["nodes", 4, "mechanism"], {"kind": "hetero_gaussian",
                                         "mean": {"expr": "C"}, "std": {"expr": "C"}}),
                                    "node 'E': stddev went negative"),
    "file_not_an_object": (lambda model: [model], "model file must hold a JSON object"),
}


@pytest.mark.parametrize("case", sorted(MODEL_VALUE_CASES))
def test_bad_model_value_exits_2(tmp_path, capsys, recwarn, case):
    edit, fragment = MODEL_VALUE_CASES[case]
    p = tmp_path / "m.json"
    p.write_text(json.dumps(edit(copy.deepcopy(GOOD_MODEL))))
    code = run_cli(["counterfactual", "--model", str(p), "--samples", "200"])
    assert_one_file_error(capsys, code, fragment)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "argv",
    [["gsa", "--samples", "1000", "--format", "table"], ["counterfactual", "--samples", "1000"]],
    ids=["gsa_table", "counterfactual"],
)
def test_fitted_flags_not_strings_exit_2(tmp_path, capsys, argv):
    model = {"outcome": "Y", "fitted": [1, None], "nodes": [
        _node("A", [], {"kind": "root_gaussian"}),
        _node("Y", [], {"kind": "root_gaussian"}),
    ]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    code = run_cli(argv[:1] + ["--model", str(p)] + argv[1:])
    assert_one_file_error(capsys, code, "model 'fitted' must be a list of strings")


GOOD_DAG = {"outcome": "Y", "nodes": [{"name": "A"}, {"name": "Y", "parents": ["A"]}],
            "categorical": ["A"]}

DAG_CASES = {
    "nodes_a_number": (_put(["nodes"], 5), "DAG 'nodes' must be a list"),
    "categorical_a_number": (_put(["categorical"], 5), "DAG 'categorical' must be a list"),
    "parents_a_string": (_put(["nodes", 1, "parents"], "A"), "node 'Y': parents must be a list"),
}


def _fit_argv(tmp_path, dag, extra=()):
    csv = tmp_path / "d.csv"
    csv.write_text("A,Y\n" + "".join(f"{'ab'[i % 2]},{i % 7}\n" for i in range(60)))
    p = tmp_path / "dag.json"
    p.write_text(json.dumps(dag))
    return ["fit", "--data", str(csv), "--dag", str(p), "--out", str(tmp_path / "m.json"), *extra]


def test_good_dag_fits(tmp_path, capsys):
    assert run_cli(_fit_argv(tmp_path, GOOD_DAG)) == 0


@pytest.mark.parametrize("case", sorted(DAG_CASES))
def test_malformed_dag_exits_2(tmp_path, capsys, case):
    edit, fragment = DAG_CASES[case]
    code = run_cli(_fit_argv(tmp_path, edit(copy.deepcopy(GOOD_DAG))))
    assert_one_file_error(capsys, code, fragment)


DAG_REFUSED_CASES = {
    "cycle": ({"outcome": "Y", "nodes": [{"name": "A", "parents": ["Y"]},
                                         {"name": "Y", "parents": ["A"]}]},
              3, "cycle detected: A -> Y -> A"),
    "categorical_non_root": ({"outcome": "Y", "categorical": ["A", "B"],
                              "nodes": [{"name": "A"}, {"name": "B", "parents": ["A"]},
                                        {"name": "Y", "parents": ["B"]}]},
                             5, "node 'B' is categorical; only roots may be categorical"),
}


@pytest.mark.parametrize("case", sorted(DAG_REFUSED_CASES))
def test_dag_error_comes_before_the_csv_error(tmp_path, capsys, case):
    # the CSV alone exits 2: it is not UTF-8
    dag, code, fragment = DAG_REFUSED_CASES[case]
    argv = _fit_argv(tmp_path, dag)
    Path(argv[argv.index("--data") + 1]).write_bytes(b"A,Y\na,\xff1\n")
    assert_one_error(capsys, run_cli(argv), code, fragment)


# ---------------------------------------------------------------------------
# Node names that would collide in report keys, which join names with "+"

# {A+B} and {A, B} share the key "A+B"; "" is the empty set's key
NAME_CASES = {"plus": "A+B", "empty": ""}


@pytest.mark.parametrize("case", sorted(NAME_CASES))
@pytest.mark.parametrize("command", [["oracle"], ["counterfactual", "--samples", "200"]])
def test_model_node_name_that_collides_exits_2(tmp_path, capsys, case, command):
    name = NAME_CASES[case]
    model = {"outcome": "Y", "nodes": [
        _node("A", [], {"kind": "root_rademacher"}),
        _node("B", [], {"kind": "root_rademacher"}),
        _node(name, [], {"kind": "root_rademacher"}),
        _node("Y", ["A", "B"], {"kind": "deterministic", "expr": "A*B"}),
    ]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    out = tmp_path / "r.json"
    code = run_cli(command[:1] + ["--model", str(p), "--out", str(out)] + command[1:])
    assert_one_file_error(capsys, code, f"node {name!r}: a node name must be non-empty and hold no '+'")
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(NAME_CASES))
def test_dag_node_name_that_collides_exits_2(tmp_path, capsys, case):
    name = NAME_CASES[case]
    dag = {"outcome": "Y", "nodes": [{"name": name}, {"name": "Y", "parents": [name]}]}
    argv = _fit_argv(tmp_path, dag)
    Path(argv[argv.index("--data") + 1]).write_text(
        f"{name},Y\n" + "".join(f"{i % 2},{i % 7}\n" for i in range(60))
    )
    code = run_cli(argv)
    assert_one_file_error(capsys, code, f"node {name!r}: a node name must be non-empty and hold no '+'")
    assert not Path(argv[argv.index("--out") + 1]).exists()


@pytest.mark.parametrize("case", sorted(NAME_CASES))
def test_dag_rejects_a_node_name_that_collides(case):
    name = NAME_CASES[case]
    with pytest.raises(ModelError, match="a node name must be non-empty and hold no"):
        Dag(("A", name), ((), ("A",)))


@pytest.mark.parametrize("case", sorted(NAME_CASES))
def test_report_variable_that_collides_exits_2(tmp_path, capsys, case):
    name = NAME_CASES[case]
    rep = json.loads((DATA / "model1_report.json").read_text())
    rep["variables"][1] = name
    p = tmp_path / "r.json"
    p.write_text(json.dumps(rep))
    out = tmp_path / "v.svg"
    code = run_cli(["venn", "--report", str(p), "--out", str(out)])
    assert_one_file_error(capsys, code, f"report variable {name!r} must be a non-empty name without '+'")
    assert not out.exists()


# ---------------------------------------------------------------------------
# Quantile levels that are not finite


@pytest.mark.parametrize("method", ["quantile_grid", "additive_empirical"])
@pytest.mark.parametrize("levels", ["0.1,nan,0.9", "nan", "0.1,inf"])
def test_non_finite_levels_exit_5(tmp_path, capsys, method, levels):
    code = run_cli(_fit_argv(tmp_path, GOOD_DAG, ["--method", method, "--levels", levels]))
    assert_one_error(capsys, code, 5, "levels must be strictly increasing inside (0, 1)")


# ---------------------------------------------------------------------------
# fit checks its arguments before it reads a file


@pytest.mark.parametrize("extra, fragment", [
    (["--min-cell", "0"], "min_cell must be >= 2"),
    (["--levels", "0.9,0.1"], "levels must be strictly increasing inside (0, 1)"),
])
def test_fit_argument_error_comes_before_the_csv_error(tmp_path, capsys, extra, fragment):
    # the CSV alone exits 2: it is not UTF-8
    argv = _fit_argv(tmp_path, GOOD_DAG, extra)
    Path(argv[argv.index("--data") + 1]).write_bytes(b"A,Y\na,\xff1\n")
    code = run_cli(argv)
    assert_one_error(capsys, code, 5, fragment)


# ---------------------------------------------------------------------------
# JSON syntax errors report a UTF-8 byte offset

# "é" is two bytes in UTF-8, so the stray comma is character 24 but byte 25
BAD_JSON = '{"name": "é", "nodes": [,]}'


def _json_argv(tmp_path, kind, data=BAD_JSON.encode("utf-8")):
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    if kind == "model":
        return ["counterfactual", "--model", str(p), "--samples", "200"]
    if kind == "report":
        return ["venn", "--report", str(p), "--ascii"]
    argv = _fit_argv(tmp_path, GOOD_DAG)
    argv[argv.index("--dag") + 1] = str(p)
    return argv


@pytest.mark.parametrize("kind", ["model", "DAG", "report"])
def test_json_syntax_error_at_byte_offset(tmp_path, capsys, kind):
    code = run_cli(_json_argv(tmp_path, kind))
    assert_one_file_error(capsys, code, f"invalid {kind} file: Expecting value (at byte offset 25)")


# json.dumps cannot write these files, so they are not rows of the
# *_CASES tables above
@pytest.mark.parametrize("kind", ["model", "DAG", "report"])
def test_json_nested_past_the_recursion_limit_exits_2(tmp_path, capsys, kind):
    code = run_cli(_json_argv(tmp_path, kind, b"[" * 100_000))
    assert_one_file_error(capsys, code, f"invalid {kind} file: nesting too deep")


@pytest.mark.parametrize("expr", [
    "(" * 3000 + "A" + ")" * 3000,
    "-" * 3000 + "A",
    "^".join(["A"] * 3000),
], ids=["parentheses", "minus", "power"])
def test_formula_nested_past_the_parser_limit_exits_2(tmp_path, capsys, expr):
    model = {"outcome": "Y", "nodes": [
        _node("A", [], {"kind": "root_rademacher"}),
        _node("Y", ["A"], {"kind": "deterministic", "expr": expr}),
    ]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    assert_one_file_error(capsys, run_cli(["oracle", "--model", str(p)]), "expression nests too deeply")


def test_json_file_not_utf8_exits_2(tmp_path, capsys):
    code = run_cli(_json_argv(tmp_path, "model", b'{"outcome": "\xff"}'))
    assert_one_file_error(capsys, code, "invalid model file: not UTF-8 (at byte offset 13)")


def test_csv_file_not_utf8_exits_2(tmp_path, capsys):
    argv = _fit_argv(tmp_path, GOOD_DAG)
    # past the first chunk of a streaming decoder, so the offset is the file's
    data = b"A,Y\n" + b"a,1\n" * 3000 + b"b,\xff2\n"
    Path(argv[argv.index("--data") + 1]).write_bytes(data)
    code = run_cli(argv)
    assert_one_file_error(capsys, code, f"invalid CSV file: not UTF-8 (at byte offset {len(data) - 3})")


@pytest.mark.parametrize("method", ["additive_empirical", "hetero_gaussian"])
def test_fit_on_values_near_float64_limit_exits_2(tmp_path, capsys, method):
    # the cell means overflow, silently; the mechanism rejects them
    argv = _fit_argv(tmp_path, GOOD_DAG, ["--method", method, "--min-cell", "2"])
    rows = "".join(f"{'ab'[i % 2]},1.7e308\n" for i in range(8))
    Path(argv[argv.index("--data") + 1]).write_text("A,Y\n" + rows)
    code = run_cli(argv)
    assert_one_file_error(capsys, code, "node 'Y': cell values must be finite")


def test_csv_field_past_size_limit_exits_2(tmp_path, capsys):
    # an unterminated quote runs to the end of the file as one field
    argv = _fit_argv(tmp_path, GOOD_DAG)
    Path(argv[argv.index("--data") + 1]).write_text('A,Y\na,"1\n' + "b,2\n" * 40000)
    code = run_cli(argv)
    assert_one_file_error(capsys, code, "invalid CSV file: field larger than field limit")


# ---------------------------------------------------------------------------
# Formula constants that divide by zero


@pytest.mark.parametrize("command", [["counterfactual", "--samples", "200"], ["oracle"]])
@pytest.mark.parametrize("expr", ["X + 1/0", "X + 0^-1"])
def test_constant_division_by_zero_exits_2(tmp_path, capsys, recwarn, command, expr):
    model = {"outcome": "Y", "nodes": [
        _node("X", [], {"kind": "root_rademacher"}),
        _node("Y", ["X"], {"kind": "deterministic", "expr": expr}),
    ]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    code = run_cli(command[:1] + ["--model", str(p)] + command[1:])
    assert_one_file_error(capsys, code, f"formula {expr!r} produced a non-finite value")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# Nodes with no noise ancestry are evaluated when the model loads


@pytest.mark.parametrize(
    "constants, node, expr",
    [
        ([_node("C", [], {"kind": "deterministic", "expr": "log(0)"})], "C", "log(0)"),
        ([_node("B", [], {"kind": "deterministic", "expr": "1e300"}),
          _node("C", ["B"], {"kind": "deterministic", "expr": "B*B"})], "C", "B*B"),
    ],
    ids=["parentless", "constant_parent"],
)
def test_non_finite_constant_node_fails_at_load(tmp_path, capsys, recwarn, constants, node, expr):
    model = {"outcome": "Y", "nodes": [
        _node("X", [], {"kind": "root_rademacher"}),
        *constants,
        _node("Y", ["X", "C"], {"kind": "deterministic", "expr": "X + C"}),
    ]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    fragment = f"node {node!r}: formula {expr!r} produced a non-finite value"
    with pytest.raises(ModelError, match=re.escape(fragment)):
        read_model(p)
    for command in (["counterfactual", "--samples", "200"], ["oracle"]):
        code = run_cli(command[:1] + ["--model", str(p)] + command[1:])
        assert_one_file_error(capsys, code, fragment)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# Mean and std formulas that read no parent are evaluated when the model loads


@pytest.mark.parametrize(
    "mechanism, expr",
    [
        ({"kind": "hetero_gaussian", "mean": {"expr": "log(0)"}, "std": {"expr": "1"}}, "log(0)"),
        ({"kind": "additive_noise", "mean": {"expr": "1/0"}, "residuals": [0.0]}, "1/0"),
        ({"kind": "hetero_gaussian", "mean": {"expr": "X"}, "std": {"expr": "log(0)"}}, "log(0)"),
    ],
    ids=["hetero_mean", "additive_mean", "hetero_std"],
)
def test_non_finite_constant_formula_fails_at_load(tmp_path, capsys, recwarn, mechanism, expr):
    model = {"outcome": "Y", "nodes": [
        _node("X", [], {"kind": "root_rademacher"}),
        _node("Y", ["X"], mechanism),
    ]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    fragment = f"node 'Y': formula {expr!r} produced a non-finite value"
    with pytest.raises(ModelError, match=re.escape(fragment)):
        read_model(p)
    code = run_cli(["counterfactual", "--model", str(p), "--samples", "200"])
    assert_one_file_error(capsys, code, fragment)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
