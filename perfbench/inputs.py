"""Seeded input files for the benchmark workloads.

Every generator is a pure function of the workload seed: the same seed
writes byte-identical files. The program under test only ever sees these
files (and command-line flags), never the generators themselves.
"""

from __future__ import annotations

import json
import os

import numpy as np

INCOME_ROWS = 200_000


def _rng(seed: int, purpose: str) -> np.random.Generator:
    # one independent stream per input file, so adding a generator never
    # shifts the draws of another
    tag = int.from_bytes(purpose.encode("utf-8"), "little")
    return np.random.default_rng(np.random.SeedSequence([tag, int(seed)]))


def _num(x: float) -> str:
    # fixed-point literal: the formula grammar has no exponent syntax
    return f"{float(x):.4f}"


def _terms(pairs) -> str:
    """Join (coefficient, factor) pairs into a formula sum."""
    out = []
    for c, factor in pairs:
        sign = "-" if c < 0 else "+"
        body = f"{_num(abs(c))}*{factor}"
        out.append(body if not out and sign == "+" else f"{sign} {body}")
    return " ".join(out)


def _node(name, parents, mechanism):
    return {"name": name, "parents": list(parents), "mechanism": mechanism}


def _model(nodes, outcome):
    return {"variables": [n["name"] for n in nodes], "outcome": outcome, "nodes": nodes}


def roots8_model(seed: int) -> dict:
    """Eight gaussian roots and a deterministic outcome with pairwise,
    three-way and sigmoid interactions (gsa --model at K=8)."""
    r = _rng(seed, "roots8")
    names = [f"W{i}" for i in range(1, 9)]
    nodes = [
        _node(n, [], {"kind": "root_gaussian", "mean": round(float(r.uniform(-1, 1)), 4),
                      "std": round(float(r.uniform(0.5, 2.0)), 4)})
        for n in names
    ]
    a = r.uniform(0.2, 1.0, 8) * r.choice([-1.0, 1.0], 8)
    b = r.uniform(0.1, 0.5, 7) * r.choice([-1.0, 1.0], 7)
    c, d = r.uniform(0.05, 0.2, 2)
    expr = " ".join([
        _terms((a[i], names[i]) for i in range(8)),
        "+", _terms((b[i], f"{names[i]}*{names[i + 1]}") for i in range(7)),
        "+", _terms([(c, "W2*W5*W8")]),
        "+", _terms([(d, "sigmoid(W3 - W6)")]),
    ])
    nodes.append(_node("Y", names, {"kind": "deterministic", "expr": expr}))
    return _model(nodes, "Y")


def chain6_model(seed: int) -> dict:
    """Six-node causal chain: a gaussian and a uniform root, three
    hetero_gaussian nodes with formula mean and std, and a deterministic
    outcome. Ancestor sets are partial (C depends on A only, B enters at D)."""
    r = _rng(seed, "chain6")
    p = r.uniform(0.3, 1.0, 12)
    lo = round(float(r.uniform(0.0, 0.5)), 4)
    nodes = [
        _node("A", [], {"kind": "root_gaussian", "mean": round(float(r.uniform(-1, 1)), 4),
                        "std": round(float(r.uniform(0.5, 1.5)), 4)}),
        _node("B", [], {"kind": "root_uniform", "low": lo, "high": lo + round(float(p[0]) + 0.5, 4)}),
        _node("C", ["A"], {"kind": "hetero_gaussian",
                           "mean": {"expr": f"{_num(p[1])}*A + {_num(p[2])}*sigmoid(A)"},
                           "std": {"expr": f"{_num(0.2 + p[3])} + {_num(p[4])}*sigmoid(A)"}}),
        _node("D", ["B", "C"], {"kind": "hetero_gaussian",
                                "mean": {"expr": f"{_num(p[5])}*C - {_num(p[6])}*B*C"},
                                "std": {"expr": f"{_num(0.1 + p[7])} + {_num(p[8])}*B"}}),
        _node("E", ["A", "D"], {"kind": "hetero_gaussian",
                                "mean": {"expr": f"{_num(p[9])}*D + 0.5000*A*D"},
                                "std": {"expr": f"0.3000 + {_num(p[10])}*abs(D)"}}),
        _node("Y", ["C", "E"], {"kind": "deterministic",
                                "expr": f"E + {_num(p[11])}*sigmoid(C*E) - 0.2000*C"}),
    ]
    return _model(nodes, "Y")


def oracle7_model(seed: int) -> dict:
    """Seven Rademacher roots and a pairwise-ring outcome
    Y = sum_i a_i W_i + sum_i b_i W_i W_{i+1 mod 7}."""
    r = _rng(seed, "oracle7")
    names = [f"W{i}" for i in range(1, 8)]
    nodes = [_node(n, [], {"kind": "root_rademacher"}) for n in names]
    a = r.uniform(0.1, 1.0, 7) * r.choice([-1.0, 1.0], 7)
    b = r.uniform(0.1, 1.0, 7) * r.choice([-1.0, 1.0], 7)
    expr = " ".join([
        _terms((a[i], names[i]) for i in range(7)),
        "+", _terms((b[i], f"{names[i]}*{names[(i + 1) % 7]}") for i in range(7)),
    ])
    nodes.append(_node("Y", names, {"kind": "deterministic", "expr": expr}))
    return _model(nodes, "Y")


INCOME_DAG = {
    "outcome": "log_income",
    "nodes": [
        {"name": "sex", "parents": []},
        {"name": "race", "parents": []},
        {"name": "education", "parents": ["sex", "race"]},
        {"name": "log_income", "parents": ["sex", "race", "education"]},
    ],
    "categorical": ["sex", "race"],
}


def write_income_csv(path, seed: int, n: int = INCOME_ROWS) -> None:
    """The income generator of acceptance criterion 13, at n rows."""
    rs = _rng(seed, "income")
    sex = rs.choice(["F", "M"], size=n, p=[0.52, 0.48])
    race = rs.choice(["A", "B", "C"], size=n, p=[0.60, 0.25, 0.15])
    edu = np.clip(
        np.round(11.0 + 1.0 * (race == "A") + 0.5 * (sex == "M") + rs.normal(0, 1.6, n)),
        8,
        18,
    )
    log_income = (
        7.5
        + 0.09 * edu
        + 0.25 * (sex == "M")
        + 0.15 * (race == "A")
        - 0.05 * (race == "C")
        + rs.normal(0, 1, n) * (0.35 + 0.015 * (edu - 8))
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sex,race,education,log_income\n")
        step = 20_000
        for s in range(0, n, step):
            fh.write("".join(
                f"{sex[i]},{race[i]},{edu[i]:.0f},{log_income[i]:.6f}\n"
                for i in range(s, min(s + step, n))
            ))


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


# file name -> writer(path, seed), per workload
_FILES = {
    "formula_mc": {
        "roots8.json": lambda p, s: _write_json(p, roots8_model(s)),
        "chain6.json": lambda p, s: _write_json(p, chain6_model(s)),
    },
    "income_fitted": {
        "income.csv": write_income_csv,
        "income_dag.json": lambda p, s: _write_json(p, INCOME_DAG),
    },
    "oracle_k7": {
        "oracle7.json": lambda p, s: _write_json(p, oracle7_model(s)),
    },
}


def write_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's input files into directory; returns name -> path."""
    out = {}
    for name, writer in _FILES[workload].items():
        path = os.path.join(directory, name)
        writer(path, seed)
        out[name] = path
    return out
