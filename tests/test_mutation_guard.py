"""Seeded mutation guard for bad input (Miller, Fredriksen & So, CACM 33(12), 1990).

Each family starts from inputs that run and mutates them with a seeded
random.Random: the fields of model files, the cells, rows and raw bytes
of CSV files, DAG files and the fit flags, and the bytes and fields of
report files. Whatever the mutation, a run must end with an exit code
from the README table, never 1 (internal error), print exactly one
error[EXX] line naming that code when it fails and nothing on stderr when
it succeeds, raise no RuntimeWarning, and write no NaN or infinity.
"""

import copy
import json
import math
import random
import re
import warnings
from pathlib import Path

import pytest

from xfvar import cli
from xfvar.anova_oracle import hoeffding_decompose
from xfvar.cli import main

SEED = 20240611
CASES = 100

EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}
NON_FINITE_WORD = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _node(name, parents, mechanism):
    return {"name": name, "parents": parents, "mechanism": mechanism}


# discrete roots under deterministic nodes, and one node of every other kind
MODELS = (
    json.loads((Path(__file__).parent / "data" / "dag_model.json").read_text()),
    {"outcome": "Y", "fitted": ["fitted:quantile_grid"], "nodes": [
        _node("A", [], {"kind": "root_categorical", "values": [0.0, 1.0], "probs": [0.5, 0.5],
                        "labels": ["a", "b"]}),
        _node("B", [], {"kind": "root_empirical", "values": [1.0, 2.0, 3.0]}),
        _node("C", [], {"kind": "root_gaussian", "mean": 0.0, "std": 1.0}),
        _node("U", [], {"kind": "root_uniform", "low": -1.0, "high": 2.0}),
        _node("D", ["A"], {"kind": "quantile_table", "levels": [0.25, 0.75],
                           "cells": {"0": [0.0, 1.0], "1": [1.0, 2.0]}}),
        _node("E", ["C"], {"kind": "additive_noise", "residuals": [-1.0, 1.0],
                           "mean": {"cells": {"b0": 0.0, "b1": 1.0}, "binning": [[0.0]]}}),
        _node("H", ["B", "U"], {"kind": "hetero_gaussian", "mean": {"expr": "B - U"},
                                "std": {"expr": "0.5 + abs(U)"}}),
        _node("Y", ["A", "D", "E", "H"], {"kind": "deterministic", "expr": "A + D*E + sigmoid(H)"}),
    ]},
)

DAG = {"outcome": "Y", "categorical": ["A"], "nodes": [
    {"name": "A"}, {"name": "X", "parents": ["A"]}, {"name": "Y", "parents": ["A", "X"]},
]}


def _csv_rows(rnd):
    rows = [["A", "X", "Y"]]
    for i in range(90):
        a = "pq"[i % 2]
        x = round(rnd.gauss(0.0, 1.0), 3)
        rows.append([a, str(x), str(round(x * (2 if a == "p" else -1) + rnd.gauss(0.0, 0.5), 3))])
    return rows


# JSON values a mutated field may take: wrong types, numeric strings,
# huge, tiny and non-finite numbers, ints past float64, empty containers,
# bad formulas and other mechanism kinds
VALUES = (
    None, True, False, "", "x", "1.5", "A", "Y", 0, -1, 1, 2, 0.5, -0.0, 1e308, -1e308, 5e-324,
    10**400, -(10**400), math.inf, -math.inf, math.nan, [], [0.5], [1, 2], [0.9, 0.1], ["A"],
    [[0.0]], {}, {"expr": "A"}, {"cells": {}}, "A +", "log(A)", "A/0", "sqrt(0 - 1)",
    "exp(1000)", "A^-2", "(", "root_gaussian", "deterministic", "quantile_table",
    "hetero_gaussian", "root_categorical",
)


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def mutate_json(rnd, obj):
    """obj with one to three fields replaced, deleted or duplicated."""
    obj = copy.deepcopy(obj)
    for _ in range(rnd.randint(1, 3)):
        paths = list(_paths(obj))[1:]
        if not paths:
            break
        path = rnd.choice(paths)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key, op = path[-1], rnd.random()
        if op < 0.15:
            del parent[key]
        elif op < 0.25 and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = copy.deepcopy(rnd.choice(VALUES))
    return obj


def mutate_bytes(rnd, data):
    """data with one to three bytes flipped, inserted or deleted, or cut short."""
    data = bytearray(data)
    for _ in range(rnd.randint(1, 3)):
        if not data:
            break
        i, op = rnd.randrange(len(data)), rnd.random()
        if op < 0.4:
            data[i] = rnd.randrange(256)
        elif op < 0.7:
            data.insert(i, rnd.choice(b'\x00\xff\xc3",\n\r{}[]:0-.e'))
        elif op < 0.9:
            del data[i]
        else:
            del data[i:]
    return bytes(data)


CELLS = (
    "", " ", "nan", "NaN", "inf", "-inf", "1e999", "-1e999", "1e308", "-1e308", "5e-324", "abc",
    '"', '"x', "\x00", "é", "0x10", "1_000", "٣", " 7 ", "-0", "p", "q", "r",
)


def mutate_csv(rnd, rows):
    """CSV bytes of rows with cells, rows, the header or raw bytes changed."""
    rows = [list(r) for r in rows]
    op = rnd.random()
    if op < 0.5:
        for _ in range(rnd.randint(1, 20)):
            r = rnd.randrange(1, len(rows))
            rows[r][rnd.randrange(3)] = rnd.choice(CELLS)
    elif op < 0.65:
        r = rnd.randrange(1, len(rows))
        rnd.choice((lambda: rows[r].pop(), lambda: rows[r].append("1"), lambda: rows.pop(r),
                    lambda: rows.insert(r, [])))()
    elif op < 0.75:
        rows[0][rnd.randrange(3)] = rnd.choice(("", "A", "Y", "X ", "Z"))
    elif op < 0.8:
        rows = rows[: rnd.randrange(3)]
    text = "".join(",".join(r) + "\n" for r in rows).encode("utf-8")
    return mutate_bytes(rnd, text) if op >= 0.8 or rnd.random() < 0.2 else text


FIT_FLAGS = {
    "--method": ("quantile_grid", "additive_empirical", "hetero_gaussian", "bogus", ""),
    "--levels": ("0.1,0.5,0.9", "0.5", "", ",", "0,1", "0.9,0.1", "nan", "5e-324,0.5", "0.5,0.5",
                 "a", "0.2,inf"),
    "--min-cell": ("0", "-1", "1", "5", "1000000", "x", "99999999999999999999"),
    "--seed": ("-1", "0", "7", str(2**64), "x", "1.5"),
}


class NonFinite(Exception):
    pass


def _reject(constant):
    raise NonFinite(constant)


def _has_non_finite(text):
    """True when text, as JSON, holds NaN or Infinity, or, as plain text,
    says nan or inf."""
    try:
        json.loads(text, parse_constant=_reject)
        return False
    except NonFinite:
        return True
    except ValueError:
        return bool(NON_FINITE_WORD.search(text))


class Guard:
    """Runs mutated cases in the working directory, dir, and collects every
    broken rule. Files go by bare name, so a report's config echo, and with
    it every mutation of its bytes, is the same wherever the tests run."""

    def __init__(self, tmp_path, capsys):
        self.dir, self.capsys, self.failures = tmp_path, capsys, []

    def write(self, name, data):
        (self.dir / name).write_bytes(data)
        return name

    def run(self, case, argv, outs=()):
        for name in outs:
            (self.dir / name).unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
        out, err = self.capsys.readouterr()
        broken = []
        if code not in EXIT_CODES:
            broken.append(f"exit {code}")
        if code and not re.fullmatch(rf"error\[E{code:02d}\]: [^\n]*\n", err):
            broken.append("not one error line naming the exit code")
        if not code and err:
            broken.append("stderr on success")
        if any(issubclass(w.category, RuntimeWarning) for w in caught):
            broken.append("RuntimeWarning")
        texts = [out] + [(self.dir / n).read_text("utf-8") for n in outs if (self.dir / n).exists()]
        if any(_has_non_finite(t) for t in texts):
            broken.append("non-finite output")
        if broken:
            self.failures.append((case, argv, code, broken, err.strip()))
        return code


@pytest.fixture
def guard(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return Guard(tmp_path, capsys)


def huge_outcome(model, exponent):
    """A copy of model whose outcome formula is multiplied by 10**exponent:
    past about 1e154 its values stay finite but their squares overflow."""
    model = copy.deepcopy(model)
    for node in model["nodes"]:
        if node["name"] == model["outcome"]:
            node["mechanism"]["expr"] = f"1e{exponent}*({node['mechanism']['expr']})"
    return model


def test_mutated_model_files(guard):
    rnd = random.Random(SEED)
    for case in range(CASES):
        base = rnd.choice(MODELS)
        p = guard.write("m.json", json.dumps(mutate_json(rnd, base)).encode("utf-8"))
        subset = rnd.choice(base["nodes"])["name"]
        argv = rnd.choice((
            ["counterfactual", "--model", p, "--samples", "200"],
            ["counterfactual", "--model", p, "--samples", "200", "--subset", subset],
            ["gsa", "--model", p, "--samples", "200", "--format", "table"],
            ["oracle", "--model", p, "--out", "r.json"],
        ))
        guard.run(case, argv, outs=("r.json",))
        if argv[0] == "oracle":
            # the huge-coefficient mutation alone, on either side of the overflow edge
            guard.write(p, json.dumps(huge_outcome(base, 150 + case % 10)).encode("utf-8"))
            guard.run(case, argv, outs=("r.json",))
    assert guard.failures == []


# numbers the oracle family puts in place of dag_model.json's: signed
# zeros, units, the tiny and the huge (past about 1e154 a square
# overflows float64)
NUMBERS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 0.1, 1e-8, 1e-300, 5e-324, 1e8, 1e150, 1e160,
           1e300, -1e308)
UNARY = ("exp", "log", "abs", "sigmoid", "sqrt")


def random_formula(rnd, names, depth):
    """A random formula over names and NUMBERS, depth levels deep."""
    r = rnd.random()
    if depth == 0 or r < 0.3:
        return rnd.choice(names) if rnd.random() < 0.6 else repr(rnd.choice(NUMBERS))
    a = random_formula(rnd, names, depth - 1)
    if r < 0.45:
        return f"{rnd.choice(UNARY)}({a})"
    b = random_formula(rnd, names, depth - 1)
    if r < 0.5:
        return f"{rnd.choice(('min', 'max'))}({a}, {b})"
    return f"({a} {rnd.choice('+-*/^')} {b})"


def mutate_numbers(rnd, model):
    """model, dag_model.json, with one to three of its numbers or formulas
    replaced; its nodes, parents and kinds stay, so most cases stay
    reducible and reach the decomposition."""
    model = copy.deepcopy(model)
    law = model["nodes"][1]["mechanism"]  # B: root_categorical
    for _ in range(rnd.randint(1, 3)):
        op = rnd.random()
        if op < 0.25:
            law["values"][rnd.randrange(len(law["values"]))] = rnd.choice(NUMBERS)
        elif op < 0.4:
            weights = [rnd.choice((0, 1, 2, 3, 7)) for _ in law["values"]]
            if sum(weights):
                law["probs"] = [w / sum(weights) for w in weights]
        elif op < 0.5:
            law["values"].append(rnd.choice(NUMBERS))
            law["probs"] = [p * 0.5 for p in law["probs"]] + [0.5]
        else:
            node = rnd.choice(model["nodes"][2:])  # C or Y
            node["mechanism"]["expr"] = random_formula(rnd, node["parents"], 2)
    return model


def test_mutated_oracle_numbers(guard, monkeypatch):
    decomposed = []

    def counted(f, domain):
        decomposed.append(None)
        return hoeffding_decompose(f, domain)

    monkeypatch.setattr(cli, "hoeffding_decompose", counted)
    rnd = random.Random(SEED + 4)
    for case in range(CASES):
        p = guard.write("m.json", json.dumps(mutate_numbers(rnd, MODELS[0])).encode("utf-8"))
        guard.run(case, ["oracle", "--model", p, "--out", "r.json"], outs=("r.json",))
    assert guard.failures == []
    assert len(decomposed) >= CASES // 2  # the family reaches the arithmetic


def test_mutated_csv_files(guard):
    rnd = random.Random(SEED + 1)
    dag = guard.write("dag.json", json.dumps(DAG).encode("utf-8"))
    for case in range(CASES):
        data = guard.write("d.csv", mutate_csv(rnd, _csv_rows(rnd)))
        method = rnd.choice(FIT_FLAGS["--method"][:3])
        argv = ["fit", "--data", data, "--dag", dag, "--method", method, "--min-cell", "5",
                "--out", "fm.json"]
        if guard.run(case, argv, outs=("fm.json",)) == 0:
            cf = ["counterfactual", "--model", "fm.json", "--samples", "200"]
            guard.run(case, cf)
    assert guard.failures == []


def test_mutated_dag_files_and_fit_flags(guard):
    rnd = random.Random(SEED + 2)
    data = guard.write("d.csv", "".join(",".join(r) + "\n" for r in _csv_rows(rnd)).encode("utf-8"))
    for case in range(CASES):
        dag = DAG if rnd.random() < 0.3 else mutate_json(rnd, DAG)
        p = guard.write("dag.json", json.dumps(dag).encode("utf-8"))
        argv = ["fit", "--data", data, "--dag", p, "--out", "fm.json"]
        for flag, values in FIT_FLAGS.items():
            if rnd.random() < 0.4:
                argv += [flag, rnd.choice(values)]
        guard.run(case, argv, outs=("fm.json",))
    assert guard.failures == []


def test_mutated_report_files(guard):
    rnd = random.Random(SEED + 3)
    m = guard.write("m.json", json.dumps(MODELS[0]).encode("utf-8"))
    reports = []
    for cmd in (["oracle", "--model", m], ["counterfactual", "--model", m, "--samples", "200"]):
        assert main(cmd + ["--out", "base.json"]) == 0
        reports.append((guard.dir / "base.json").read_bytes())
    for case in range(CASES):
        base = rnd.choice(reports)
        if rnd.random() < 0.5:
            data = mutate_bytes(rnd, base)
        else:
            data = json.dumps(mutate_json(rnd, json.loads(base))).encode("utf-8")
        p = guard.write("r.json", data)
        if rnd.random() < 0.5:
            guard.run(case, ["venn", "--report", p, "--ascii"])
        else:
            guard.run(case, ["venn", "--report", p, "--out", "v.svg"], outs=("v.svg",))
    assert guard.failures == []
