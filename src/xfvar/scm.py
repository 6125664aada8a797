"""Causal DAG models driven by conditional-quantile mechanisms.

Every node is generated from its parents and one uniform noise
coordinate through a quantile transform, so the whole model is a
deterministic map from a noise vector E in [0,1]^V to node values. The
counterfactual explainability of a node set S is then an ordinary
pick-freeze functional of that map: resample the noise coordinates owned
by S and compare outcomes. Deterministic nodes ignore their coordinate
but still own the slot, which keeps subset semantics uniform and makes
the explainability of a deterministic outcome by itself exactly zero.

Noise coordinates follow node declaration order, and sampling uses the
counter-based stream of `rng`, so results depend only on (seed, samples).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import rng
from .algebra import Provenance, measure_from_totals
from .errors import CycleError, DomainError, ModelError, ParseError
from .formula import Formula, parse_formula
from .mc import Estimate, EstimatorConfig, pickfreeze_totals, range_tolerance, upper_estimate

__all__ = [
    "Dag",
    "topo_order",
    "ancestral_closure",
    "parse_formula",
    "Formula",
    "ScmModel",
    "forward_sample",
    "sample_noise",
    "counterfactual_outcome",
    "counterfactual_total",
    "estimate_counterfactual_measure",
    "read_model",
    "write_model",
    "model_from_json",
    "model_to_json",
]


# ---------------------------------------------------------------------------
# Graph


@dataclass(frozen=True)
class Dag:
    """Node names with per-node parent lists, in declaration order."""

    names: tuple
    parents: tuple

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        parents = tuple(tuple(str(p) for p in ps) for ps in self.parents)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "parents", parents)
        if len(names) != len(set(names)):
            raise ModelError("node names must be unique")
        if len(parents) != len(names):
            raise ModelError("need one parent list per node")
        known = set(names)
        for n, ps in zip(names, parents):
            if len(ps) != len(set(ps)):
                raise ModelError(f"node {n!r} lists a parent twice")
            for p in ps:
                if p not in known:
                    raise ModelError(f"node {n!r} has unknown parent {p!r}")
            if n in ps:
                raise CycleError([n])

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ModelError(f"unknown node {name!r}") from None


def topo_order(dag: Dag):
    """Topological order, breaking ties by declaration order (Kahn)."""
    idx = {n: i for i, n in enumerate(dag.names)}
    indeg = [len(ps) for ps in dag.parents]
    children = {n: [] for n in dag.names}
    for n, ps in zip(dag.names, dag.parents):
        for p in ps:
            children[p].append(n)
    ready = sorted(i for i, d in enumerate(indeg) if d == 0)
    order = []
    heapq.heapify(ready)
    while ready:
        i = heapq.heappop(ready)
        order.append(dag.names[i])
        for c in children[dag.names[i]]:
            indeg[idx[c]] -= 1
            if indeg[idx[c]] == 0:
                heapq.heappush(ready, idx[c])
    if len(order) < len(dag.names):
        # walk parent links among leftover nodes until one repeats
        left = [n for n in dag.names if n not in set(order)]
        seen, cur = [], left[0]
        while cur not in seen:
            seen.append(cur)
            cur = next(p for p in dag.parents[idx[cur]] if p in left)
        cycle = seen[seen.index(cur) :]
        raise CycleError(cycle)
    return order


def ancestral_closure(dag: Dag, nodes):
    """Smallest ancestral set containing the given nodes."""
    idx = {n: i for i, n in enumerate(dag.names)}
    todo = [str(n) for n in nodes]
    for n in todo:
        if n not in idx:
            raise ModelError(f"unknown node {n!r}")
    out = set()
    while todo:
        n = todo.pop()
        if n in out:
            continue
        out.add(n)
        todo.extend(dag.parents[idx[n]])
    return frozenset(out)


# ---------------------------------------------------------------------------
# Parent-indexed values: formulas and cell tables

_CLIP_LO = 1e-300
_CLIP_HI = 1.0 - 1e-16


def _gauss_quantile(e):
    return ndtri(np.clip(e, _CLIP_LO, _CLIP_HI))


def canon_value(v) -> str:
    """Canonical cell-key rendering of one discrete parent value."""
    return format(float(v) + 0.0, ".12g")


def _bin_index(edges, v):
    # edges are interior cut points; values beyond the ends take the
    # nearest outer bin
    return np.searchsorted(edges, v, side="right")


class CellKeyer:
    """Maps parent-value rows to canonical cell keys.

    binning holds one entry per parent: None for a discrete parent keyed
    by exact value, or an array of interior cut points for a binned
    continuous parent keyed by bin index.
    """

    def __init__(self, n_parents, binning=None):
        if binning is None:
            binning = (None,) * n_parents
        if len(binning) != n_parents:
            raise ModelError("binning length must match parent count")
        self.binning = tuple(
            None if b is None else np.asarray(b, dtype=float) for b in binning
        )

    def codes(self, parents):
        """Per-column numeric codes whose equality defines the cell."""
        cols = []
        for j, b in enumerate(self.binning):
            col = parents[:, j]
            cols.append(col if b is None else _bin_index(b, col).astype(float))
        return np.column_stack(cols) if cols else np.zeros((parents.shape[0], 0))

    def render(self, code_row):
        parts = []
        for j, b in enumerate(self.binning):
            v = code_row[j]
            parts.append(canon_value(v) if b is None else "b%d" % int(v))
        return "|".join(parts)

    def group(self, parents):
        """Group rows by cell: (code rows, inverse index per input row)."""
        codes = self.codes(parents)
        if codes.shape[1] == 0:
            return np.zeros((1, 0)), np.zeros(len(parents), dtype=np.intp)
        uniq, inv = np.unique(codes, axis=0, return_inverse=True)
        return uniq, inv.ravel()

    def to_json(self):
        if all(b is None for b in self.binning):
            return None
        return [None if b is None else [float(x) for x in b] for b in self.binning]


class ParentFn:
    """Scalar function of a node's parents: a formula or a cell table."""

    def __init__(self, node, parent_names, formula=None, cells=None, binning=None):
        self.node = node
        self.parent_names = tuple(parent_names)
        if (formula is None) == (cells is None):
            raise ModelError(f"node {node!r}: need exactly one of expr or cells")
        self.formula = formula
        self.cells = None if cells is None else {str(k): float(v) for k, v in cells.items()}
        self.keyer = None if cells is None else CellKeyer(len(self.parent_names), binning)

    def __call__(self, parents):
        if self.formula is not None:
            env = {n: parents[:, j] for j, n in enumerate(self.parent_names)}
            return self.formula.evaluate(env)
        uniq, inv = self.keyer.group(parents)
        vals = np.empty(len(uniq))
        for i, row in enumerate(uniq):
            key = self.keyer.render(row)
            if key not in self.cells:
                raise ModelError(f"node {self.node!r}: no cell for parent values {key!r}")
            vals[i] = self.cells[key]
        return vals[inv]

    def to_json(self):
        if self.formula is not None:
            return {"expr": self.formula.source}
        out = {"cells": dict(sorted(self.cells.items()))}
        b = self.keyer.to_json()
        if b is not None:
            out["binning"] = b
        return out

    @staticmethod
    def from_json(node, parent_names, obj):
        if not isinstance(obj, dict):
            raise ModelError(f"node {node!r}: parent function must be an object")
        if "expr" in obj:
            f = parse_formula(str(obj["expr"]), parent_names)
            return ParentFn(node, parent_names, formula=f)
        if "cells" in obj:
            return ParentFn(
                node, parent_names, cells=obj["cells"], binning=obj.get("binning")
            )
        raise ModelError(f"node {node!r}: parent function needs 'expr' or 'cells'")


# ---------------------------------------------------------------------------
# Mechanisms


def empirical_quantile(values, e):
    """Left-continuous inverse empirical CDF.

    Q(e) is the ceil(e*n)-th order statistic for e in (0, 1]; e = 0 maps
    to the minimum.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    idx = np.clip(np.ceil(np.asarray(e) * n).astype(np.intp) - 1, 0, n - 1)
    return values[idx]


def _check_finite(node, what, values):
    if not np.all(np.isfinite(values)):
        raise ModelError(f"node {node!r}: {what} must be finite")


class Mechanism:
    """One node's conditional-quantile transform V = Q(e | parents).

    Roots take no parents. Discrete roots also report their law as
    (values, probs) through discrete_law(); every other mechanism
    returns None there.
    """

    kind = None
    is_root = False
    uses_noise = True

    def sample(self, e, parents):
        raise NotImplementedError

    def discrete_law(self):
        return None

    def to_json(self):
        raise NotImplementedError


class RootGaussian(Mechanism):
    kind = "root_gaussian"
    is_root = True

    def __init__(self, node, mean=0.0, std=1.0):
        self.node = node
        self.mean = float(mean)
        self.std = float(std)
        _check_finite(node, "mean and std", [self.mean, self.std])
        if not (self.std >= 0.0):
            raise ModelError(f"node {node!r}: std must be >= 0")

    def sample(self, e, parents):
        return self.mean + self.std * _gauss_quantile(e)

    def to_json(self):
        return {"kind": self.kind, "mean": self.mean, "std": self.std}


class RootUniform(Mechanism):
    kind = "root_uniform"
    is_root = True

    def __init__(self, node, low=0.0, high=1.0):
        self.node = node
        self.low = float(low)
        self.high = float(high)
        _check_finite(node, "low and high", [self.low, self.high])
        if not (self.high >= self.low):
            raise ModelError(f"node {node!r}: need high >= low")

    def sample(self, e, parents):
        return self.low + (self.high - self.low) * e

    def to_json(self):
        return {"kind": self.kind, "low": self.low, "high": self.high}


class RootRademacher(Mechanism):
    kind = "root_rademacher"
    is_root = True

    def __init__(self, node):
        self.node = node

    def sample(self, e, parents):
        return np.where(e > 0.5, 1.0, -1.0)

    def discrete_law(self):
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])

    def to_json(self):
        return {"kind": self.kind}


class RootCategorical(Mechanism):
    kind = "root_categorical"
    is_root = True

    def __init__(self, node, values, probs, labels=None):
        self.node = node
        self.values = np.asarray(values, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        self.labels = None if labels is None else tuple(str(x) for x in labels)
        if self.values.ndim != 1 or self.values.shape != self.probs.shape:
            raise ModelError(f"node {node!r}: values and probs must be equal-length lists")
        if len(self.values) == 0:
            raise ModelError(f"node {node!r}: empty categorical")
        _check_finite(node, "values and probs", [self.values, self.probs])
        if np.any(self.probs < 0) or abs(self.probs.sum() - 1.0) > 1e-9:
            raise ModelError(f"node {node!r}: probs must be nonnegative and sum to 1")
        if self.labels is not None and len(self.labels) != len(self.values):
            raise ModelError(f"node {node!r}: labels length must match values")
        self._cum = np.cumsum(self.probs)
        self._cum[-1] = 1.0

    def sample(self, e, parents):
        idx = np.searchsorted(self._cum, e, side="left")
        return self.values[np.clip(idx, 0, len(self.values) - 1)]

    def discrete_law(self):
        return self.values, self.probs

    def to_json(self):
        out = {
            "kind": self.kind,
            "values": [float(v) for v in self.values],
            "probs": [float(p) for p in self.probs],
        }
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out


class RootEmpirical(Mechanism):
    kind = "root_empirical"
    is_root = True

    def __init__(self, node, values):
        self.node = node
        self.values = np.sort(np.asarray(values, dtype=float))
        if self.values.ndim != 1 or len(self.values) == 0:
            raise ModelError(f"node {node!r}: need a nonempty sample list")
        _check_finite(node, "sample values", self.values)

    def sample(self, e, parents):
        return empirical_quantile(self.values, e)

    def discrete_law(self):
        values, counts = np.unique(self.values, return_counts=True)
        return values, counts / counts.sum()

    def to_json(self):
        return {"kind": self.kind, "values": [float(v) for v in self.values]}


class QuantileTable(Mechanism):
    """Per-cell quantile grids over discrete (or binned) parent tuples.

    Between grid levels the value is linearly interpolated; outside the
    grid it is clamped flat at the end values.
    """

    kind = "quantile_table"

    def __init__(self, node, parent_names, levels, cells, binning=None):
        self.node = node
        self.parent_names = tuple(parent_names)
        self.levels = np.asarray(levels, dtype=float)
        if self.levels.ndim != 1 or len(self.levels) < 1:
            raise ModelError(f"node {node!r}: need at least one quantile level")
        _check_finite(node, "levels", self.levels)
        if np.any(self.levels <= 0) or np.any(self.levels >= 1):
            raise ModelError(f"node {node!r}: levels must lie strictly inside (0, 1)")
        if np.any(np.diff(self.levels) <= 0):
            raise ModelError(f"node {node!r}: levels must be strictly increasing")
        if not self.parent_names:
            raise ModelError(f"node {node!r}: quantile_table needs parents; use a root")
        self.keyer = CellKeyer(len(self.parent_names), binning)
        self.cells = {}
        for key, grid in cells.items():
            g = np.asarray(grid, dtype=float)
            if g.shape != self.levels.shape:
                raise ModelError(
                    f"node {node!r}: cell {key!r} grid length {g.size} != "
                    f"{self.levels.size} levels"
                )
            _check_finite(node, f"cell {key!r} grid", g)
            if np.any(np.diff(g) < 0):
                raise ModelError(f"node {node!r}: cell {key!r} grid must be non-decreasing")
            self.cells[str(key)] = g

    def sample(self, e, parents):
        uniq, inv = self.keyer.group(parents)
        out = np.empty(len(e))
        for i, row in enumerate(uniq):
            key = self.keyer.render(row)
            grid = self.cells.get(key)
            if grid is None:
                raise ModelError(f"node {self.node!r}: no cell for parent values {key!r}")
            sel = inv == i
            out[sel] = np.interp(e[sel], self.levels, grid)
        return out

    def to_json(self):
        out = {
            "kind": self.kind,
            "levels": [float(x) for x in self.levels],
            "cells": {k: [float(v) for v in g] for k, g in sorted(self.cells.items())},
        }
        b = self.keyer.to_json()
        if b is not None:
            out["binning"] = b
        return out


class AdditiveNoise(Mechanism):
    """V = mean(parents) + residual quantile of the noise coordinate."""

    kind = "additive_noise"

    def __init__(self, node, parent_names, mean: ParentFn, residuals):
        self.node = node
        self.parent_names = tuple(parent_names)
        self.mean = mean
        self.residuals = np.sort(np.asarray(residuals, dtype=float))
        if len(self.residuals) == 0:
            raise ModelError(f"node {node!r}: residual pool is empty")

    def sample(self, e, parents):
        return self.mean(parents) + empirical_quantile(self.residuals, e)

    def to_json(self):
        return {
            "kind": self.kind,
            "mean": self.mean.to_json(),
            "residuals": [float(v) for v in self.residuals],
        }


class HeteroGaussian(Mechanism):
    """V = mean(parents) + std(parents) * gaussian quantile of the noise."""

    kind = "hetero_gaussian"

    def __init__(self, node, parent_names, mean: ParentFn, std: ParentFn):
        self.node = node
        self.parent_names = tuple(parent_names)
        self.mean = mean
        self.std = std

    def sample(self, e, parents):
        s = np.asarray(self.std(parents), dtype=float)
        if np.any(s < 0):
            raise ModelError(f"node {self.node!r}: stddev went negative")
        return self.mean(parents) + s * _gauss_quantile(e)

    def to_json(self):
        return {"kind": self.kind, "mean": self.mean.to_json(), "std": self.std.to_json()}


class Deterministic(Mechanism):
    """V = formula(parents); the noise coordinate is ignored."""

    kind = "deterministic"
    uses_noise = False

    def __init__(self, node, parent_names, formula: Formula):
        self.node = node
        self.parent_names = tuple(parent_names)
        self.formula = formula

    def sample(self, e, parents):
        env = {n: parents[:, j] for j, n in enumerate(self.parent_names)}
        out = np.asarray(self.formula.evaluate(env), dtype=float)
        return np.full(len(e), float(out)) if out.ndim == 0 else out

    def to_json(self):
        return {"kind": self.kind, "expr": self.formula.source}


def mechanism_from_json(node, parent_names, obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ModelError(f"node {node!r}: mechanism must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "root_gaussian":
        return RootGaussian(node, obj.get("mean", 0.0), obj.get("std", 1.0))
    if kind == "root_uniform":
        return RootUniform(node, obj.get("low", 0.0), obj.get("high", 1.0))
    if kind == "root_rademacher":
        return RootRademacher(node)
    if kind == "root_categorical":
        return RootCategorical(node, obj["values"], obj["probs"], obj.get("labels"))
    if kind == "root_empirical":
        return RootEmpirical(node, obj["values"])
    if kind == "quantile_table":
        return QuantileTable(node, parent_names, obj["levels"], obj["cells"], obj.get("binning"))
    if kind == "additive_noise":
        mean = ParentFn.from_json(node, parent_names, obj["mean"])
        return AdditiveNoise(node, parent_names, mean, obj["residuals"])
    if kind == "hetero_gaussian":
        mean = ParentFn.from_json(node, parent_names, obj["mean"])
        std = ParentFn.from_json(node, parent_names, obj["std"])
        return HeteroGaussian(node, parent_names, mean, std)
    if kind == "deterministic":
        f = parse_formula(str(obj["expr"]), parent_names)
        return Deterministic(node, parent_names, f)
    raise ModelError(f"node {node!r}: unknown mechanism kind {kind!r}")


# ---------------------------------------------------------------------------
# Model


@dataclass(frozen=True)
class ScmModel:
    dag: Dag
    mechanisms: tuple
    outcome: str
    name: str | None = None
    fitted: tuple = field(default_factory=tuple)  # provenance flags from fitting

    def __post_init__(self):
        if self.outcome not in self.dag.names:
            raise ModelError(f"outcome {self.outcome!r} is not a node")
        if len(self.mechanisms) != len(self.dag.names):
            raise ModelError("need one mechanism per node")
        for n, ps, mech in zip(self.dag.names, self.dag.parents, self.mechanisms):
            if mech.is_root:
                if ps:
                    raise ModelError(f"node {n!r}: root mechanism cannot have parents")
            elif tuple(mech.parent_names) != ps:
                raise ModelError(f"node {n!r}: mechanism parents {mech.parent_names} != {ps}")
        order = topo_order(self.dag)  # raises CycleError on cycles
        object.__setattr__(self, "_order", tuple(order))
        anc = ancestral_closure(self.dag, [self.outcome])
        object.__setattr__(self, "_outcome_order", tuple(n for n in order if n in anc))

    @property
    def n_nodes(self) -> int:
        return len(self.dag.names)

    def node_index(self, name: str) -> int:
        return self.dag.index(name)

    def _evaluate(self, noise, node_order):
        """Evaluate the given nodes in order; noise is (m, V)."""
        values = {}
        idx = {n: i for i, n in enumerate(self.dag.names)}
        for n in node_order:
            i = idx[n]
            ps = self.dag.parents[i]
            if ps:
                parents = np.column_stack([values[p] for p in ps])
            else:
                parents = np.zeros((noise.shape[0], 0))
            v = np.asarray(self.mechanisms[i].sample(noise[:, i], parents), dtype=float)
            if v.shape != (noise.shape[0],):
                raise ModelError(f"node {n!r}: mechanism produced shape {v.shape}")
            values[n] = v
        return values

    def forward(self, noise):
        """All node values for a (m, V) noise matrix, as a name -> array map."""
        noise = np.asarray(noise, dtype=float)
        if noise.ndim != 2 or noise.shape[1] != self.n_nodes:
            raise ModelError(f"noise must have shape (m, {self.n_nodes})")
        return self._evaluate(noise, self._order)

    def outcome_values(self, noise):
        """Outcome column only; skips nodes outside the outcome's ancestry."""
        vals = self._evaluate(np.asarray(noise, dtype=float), self._outcome_order)
        return vals[self.outcome]

    def noise_columns(self, nodes):
        """Noise coordinates owned by the given node names."""
        return np.array(sorted(self.dag.index(str(n)) for n in nodes), dtype=np.intp)


def forward_sample(model: ScmModel, noise):
    """Node values for one noise vector, as a name -> float map."""
    e = np.asarray(noise, dtype=float).ravel()
    if e.size != model.n_nodes:
        raise ModelError(f"noise vector must have length {model.n_nodes}")
    if np.any(e < 0) or np.any(e > 1):
        raise ModelError("noise coordinates must lie in [0, 1]")
    vals = model.forward(e.reshape(1, -1))
    return {n: float(v[0]) for n, v in vals.items()}


def sample_noise(model: ScmModel, seed: int, replicate_index: int):
    """The noise vector the estimators would use for this base replicate."""
    if replicate_index < 0:
        raise ModelError("replicate_index must be >= 0")
    block, row = divmod(int(replicate_index), rng.BLOCK_LEN)
    u = rng.uniform_block(seed, block, model.n_nodes)
    return u[row, :, 0].copy()


def counterfactual_outcome(model: ScmModel, e, e2, nodes) -> float:
    """Outcome after resampling the noise of the given nodes.

    e supplies the base noise vector, e2 the donor coordinates for the
    nodes in the set; the empty set reproduces the factual outcome.
    """
    e = np.asarray(e, dtype=float).ravel()
    e2 = np.asarray(e2, dtype=float).ravel()
    if e.size != model.n_nodes or e2.size != model.n_nodes:
        raise ModelError(f"noise vectors must have length {model.n_nodes}")
    h = e.copy()
    cols = model.noise_columns(nodes) if nodes else np.array([], dtype=np.intp)
    h[cols] = e2[cols]
    return float(model.outcome_values(h.reshape(1, -1))[0])


def counterfactual_total(model: ScmModel, nodes, cfg: EstimatorConfig) -> Estimate:
    """Counterfactual explainability of one node set by pick-freeze MC."""
    names = [str(n) for n in nodes]
    if not names:
        raise DomainError("node set must be nonempty")
    cols = model.noise_columns(names)
    return upper_estimate(model.outcome_values, model.n_nodes, cols, cfg)


def estimate_counterfactual_measure(
    model: ScmModel, cfg: EstimatorConfig, include_outcome: bool = True
):
    """Full explanation measure over the model's nodes.

    With include_outcome the outcome variable joins the algebra and its
    own atom absorbs the mass not explained by the other nodes; without
    it that mass stays on the empty atom. Costs 2**K + 1 outcome
    evaluations per sample pair for K query variables.
    """
    query_names = [
        n for n in model.dag.names if include_outcome or n != model.outcome
    ]
    if not query_names:
        raise DomainError("no query variables: lone-outcome model without include_outcome")
    var_cols = [[model.dag.index(n)] for n in query_names]
    table = pickfreeze_totals(model.outcome_values, model.n_nodes, var_cols, cfg)
    flags = tuple(model.fitted)
    if not include_outcome:
        flags = flags + ("outcome-excluded",)
    prov = Provenance("monte_carlo", samples=cfg.samples, seed=cfg.seed, flags=flags)
    return measure_from_totals(
        table, tuple(query_names), provenance=prov, tol=range_tolerance(table)
    )


# ---------------------------------------------------------------------------
# Model files


def model_to_json(model: ScmModel) -> dict:
    nodes = []
    for n, ps, mech in zip(model.dag.names, model.dag.parents, model.mechanisms):
        nodes.append({"name": n, "parents": list(ps), "mechanism": mech.to_json()})
    out = {
        "variables": list(model.dag.names),
        "outcome": model.outcome,
        "nodes": nodes,
    }
    if model.name:
        out["name"] = model.name
    if model.fitted:
        out["fitted"] = list(model.fitted)
    return out


def model_from_json(obj) -> ScmModel:
    if not isinstance(obj, dict):
        raise ModelError("model file must hold a JSON object")
    for key in ("outcome", "nodes"):
        if key not in obj:
            raise ModelError(f"model file is missing {key!r}")
    raw_nodes = obj["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ModelError("model 'nodes' must be a nonempty list")
    names, parents, mechs = [], [], []
    for nd in raw_nodes:
        if not isinstance(nd, dict) or "name" not in nd or "mechanism" not in nd:
            raise ModelError("each node needs 'name', 'parents' and 'mechanism'")
        names.append(str(nd["name"]))
        parents.append([str(p) for p in nd.get("parents", [])])
    if "variables" in obj and [str(v) for v in obj["variables"]] != names:
        raise ModelError("'variables' must list the node names in declaration order")
    for nd, n, ps in zip(raw_nodes, names, parents):
        mechs.append(mechanism_from_json(n, tuple(ps), nd["mechanism"]))
    dag = Dag(tuple(names), tuple(tuple(p) for p in parents))
    return ScmModel(
        dag,
        tuple(mechs),
        outcome=str(obj["outcome"]),
        name=obj.get("name"),
        fitted=tuple(obj.get("fitted", ())),
    )


def read_model(path) -> ScmModel:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid model file: {e.msg}", e.pos) from None
    return model_from_json(obj)


def write_model(model: ScmModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=2, sort_keys=False)
        fh.write("\n")
