"""Seeded random SCM model files, for differential tests of the compiled plan.

random_model(rng) draws a model-file object that scm.model_from_json
loads: a DAG of 2 to 8 nodes with

- roots of every kind (gaussian, uniform, rademacher, categorical,
  empirical);
- hetero_gaussian, additive_noise and quantile_table nodes, whose parent
  functions are formulas or cell tables over discrete and binned parents;
- deterministic nodes anywhere, a parentless constant included;
- formulas over every op and function the formula lexer accepts, which
  repeat earlier subexpressions of the same node.

Nodes are declared in a shuffled order, often with the outcome first, so
a node's noise column is not its topological position. Most models run
clean at most hybrids; a few reach a node check (a negative stddev, a
non-finite formula or node value, a parent value no cell names) at some
hybrids, and the tests compare those failures too.

random_masks(rng, n) draws a mask list over n noise columns with repeats
and both baselines.
"""

import numpy as np

from xfvar.errors import FormulaEvalError
from xfvar.formula import parse_formula
from xfvar.scm import cell_key

ROOT_KINDS = ("root_gaussian", "root_uniform", "root_rademacher", "root_categorical",
              "root_empirical")
CHILD_KINDS = ("hetero_gaussian", "additive_noise", "quantile_table", "deterministic")
NUMBERS = ("2", "0.5", ".25", "3.", "1e-1", "2.5E+0", "1.5", "0")

# (template, arity): safe ones keep values finite and moderate for any
# finite argument; each raw op also appears bare, so its edge cases
# (log of a negative, 1/0, overflow) reach the node checks now and then
SAFE = (
    ("({} + {})", 2), ("({} - {})", 2), ("({} * {})", 2), ("-{}", 1),
    ("({} / (1 + abs({})))", 2), ("{}^2", 1), ("abs({})^0.5", 1), ("exp(-abs({}))", 1),
    ("log(1 + abs({}))", 1), ("sqrt(abs({}))", 1), ("sigmoid({})", 1), ("min({}, {})", 2),
    ("max({}, {})", 2), ("abs({})", 1),
)
RAW = (("({} / {})", 2), ("{}^{}", 2), ("exp({})", 1), ("log({})", 1), ("sqrt({})", 1))


def _number(rng):
    return str(rng.choice(NUMBERS))


def _formula(rng, names, depth, pool):
    """A formula over names, depth ops deep at most. pool holds the
    subexpressions of this node drawn so far, which it may repeat."""
    if pool and rng.random() < 0.2:
        return str(rng.choice(pool))
    if depth == 0 or rng.random() < 0.25:
        return str(rng.choice(names)) if names and rng.random() < 0.8 else _number(rng)
    ops = RAW if rng.random() < 0.2 else SAFE
    template, arity = ops[int(rng.integers(len(ops)))]
    text = template.format(*(_formula(rng, names, depth - 1, pool) for _ in range(arity)))
    pool.append(text)
    return text


def _constant(text):
    """The value of a formula that reads no name, or None when it is not finite."""
    try:
        return float(parse_formula(text, ()).evaluate({}))
    except FormulaEvalError:
        return None


def _root(rng, kind):
    if kind == "root_gaussian":
        std = float(rng.choice([0.0, 0.5, 1.5]))
        return {"kind": kind, "mean": float(rng.normal()), "std": std}, None
    if kind == "root_uniform":
        low = float(rng.normal())
        return {"kind": kind, "low": low, "high": low + float(rng.choice([0.0, 1.0, 3.0]))}, None
    if kind == "root_rademacher":
        return {"kind": kind}, [-1.0, 1.0]
    values = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0, 3.0], int(rng.integers(1, 4))).tolist()
    if kind == "root_empirical":
        return {"kind": kind, "values": values}, sorted(set(values))
    probs = rng.dirichlet(np.ones(len(values))).tolist()
    return {"kind": kind, "values": values, "probs": probs}, sorted(set(values))


def _cells(rng, parents, support, value):
    """(cells, binning) over parents: value() per key. A parent of known
    finite support is keyed by value, any other by bin; now and then a
    key is left out, so some parent rows find no cell."""
    binning, axes = [], []
    for p in parents:
        if support[p] is not None and rng.random() < 0.7:
            binning.append(None)
            axes.append(support[p])
        else:
            cuts = sorted(float(c) for c in rng.normal(size=int(rng.integers(0, 4))))
            binning.append(cuts)
            axes.append(range(len(cuts) + 1))
    rows = [[]]
    for axis in axes:
        rows = [r + [v] for r in rows for v in axis]
    keys = [cell_key(binning, r) for r in rows]
    if len(keys) > 1 and rng.random() < 0.15:
        keys.pop(int(rng.integers(len(keys))))
    return {k: value() for k in keys}, binning


def _parent_fn(rng, parents, support, positive, pool):
    """A parent function: a formula or cells; positive keeps a std at or
    above 0 except, now and then, a bare formula."""
    if rng.random() < 0.35:
        cells, binning = _cells(
            rng, parents, support,
            lambda: float(abs(rng.normal())) if positive else float(rng.normal()))
        return {"cells": cells, "binning": binning}
    text = _formula(rng, parents, int(rng.integers(0, 4)), pool)
    # a bare std that reads no parent could be a negative constant, which
    # the model file may not hold
    if positive and (rng.random() < 0.75 or not parse_formula(text, parents).variables):
        text = str(rng.choice(["0.25 + abs({})", "sigmoid({})", "sqrt(({})^2 + 0.1)"])).format(text)
    return {"expr": text}


def _child(rng, kind, parents, support):
    """(mechanism, support) of a node with parents; shared subexpressions
    come from one pool per node, so mean and std may repeat each other."""
    pool = []
    if kind == "hetero_gaussian":
        mean = _parent_fn(rng, parents, support, False, pool)
        return {"kind": kind, "mean": mean,
                "std": _parent_fn(rng, parents, support, True, pool)}, None
    if kind == "additive_noise":
        residuals = [float(r) for r in rng.normal(size=int(rng.integers(1, 6)))]
        return {"kind": kind, "mean": _parent_fn(rng, parents, support, False, pool),
                "residuals": residuals}, None
    if kind == "quantile_table":
        levels = sorted(set(float(v) for v in rng.choice([0.1, 0.25, 0.5, 0.75, 0.9],
                                                         int(rng.integers(1, 4)))))
        cells, binning = _cells(rng, parents, support,
                                lambda: sorted(float(v) for v in rng.normal(size=len(levels))))
        mech = {"kind": kind, "levels": levels, "cells": cells}
        if rng.random() < 0.8 or any(b is not None for b in binning):
            mech["binning"] = binning
        return mech, None
    text = _formula(rng, parents, int(rng.integers(1, 5)), pool)
    if pool and rng.random() < 0.5:  # a subexpression read twice
        text = f"{text} + 0.5*{rng.choice(pool)}"
    return {"kind": kind, "expr": text}, None


def random_model(rng, max_nodes=8):
    """A model-file object of 2 to max_nodes nodes."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"N{i}" for i in range(n)]
    nodes, support = [], {}
    for i, name in enumerate(names):
        k = min(i, int(rng.integers(0, 4)))
        parents = sorted(str(p) for p in rng.choice(names[:i], k, replace=False)) if k else []
        if parents:
            mech, support[name] = _child(rng, str(rng.choice(CHILD_KINDS)), parents, support)
        elif i and rng.random() < 0.15:  # a deterministic node with no parent
            text = _formula(rng, [], int(rng.integers(0, 3)), [])
            value = _constant(text)
            mech, support[name] = {"kind": "deterministic", "expr": text}, (
                None if value is None else [value])
        else:
            mech, support[name] = _root(rng, str(rng.choice(ROOT_KINDS)))
        nodes.append({"name": name, "parents": parents, "mechanism": mech})
    outcome = names[-1] if rng.random() < 0.8 else str(rng.choice(names))
    order = [int(j) for j in rng.permutation(n)]
    if rng.random() < 0.3:  # the outcome first
        j = names.index(outcome)
        order = [j] + [o for o in order if o != j]
    return {"outcome": outcome, "nodes": [nodes[j] for j in order]}


def random_masks(rng, n):
    """Masks over n noise columns: random ones, repeats of them, and
    both baselines, 0 and every column."""
    masks = [int(m) for m in rng.integers(0, 1 << n, int(rng.integers(1, 16)))]
    masks += [masks[int(j)] for j in rng.integers(0, len(masks), int(rng.integers(0, 6)))]
    masks += [0, (1 << n) - 1]
    return [masks[int(j)] for j in rng.permutation(len(masks))]
