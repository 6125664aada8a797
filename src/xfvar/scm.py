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
from bisect import bisect_left
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import PROB_SUM_TOL, Provenance, measure_from_totals, members
from .anova_oracle import ENUMERATION_BUDGET, DiscreteDomain
from .errors import CycleError, DomainError, FormulaEvalError, ModelError, NotReducibleError, read_json
from .formula import Formula, parse_formula
from .mc import Estimate, EstimatorConfig, pickfreeze_totals, range_tolerance, upper_estimate

__all__ = [
    "Dag",
    "topo_order",
    "ancestral_closure",
    "parse_formula",
    "Formula",
    "ScmModel",
    "HybridOutcomes",
    "forward_sample",
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
    """Node names with per-node parent lists, in declaration order, and
    the names in topological order (topo_order); a cycle raises
    CycleError here, so every Dag is acyclic."""

    names: tuple
    parents: tuple
    order: tuple = field(init=False, repr=False, compare=False)

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
            if not n or "+" in n:
                raise ModelError(
                    f"node {n!r}: a node name must be non-empty and hold no '+', "
                    "which joins names in report keys"
                )
            if len(ps) != len(set(ps)):
                raise ModelError(f"node {n!r} lists a parent twice")
            for p in ps:
                if p not in known:
                    raise ModelError(f"node {n!r} has unknown parent {p!r}")
        object.__setattr__(self, "order", tuple(topo_order(self)))

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


def gauss_quantile(e):
    """Standard normal quantile of uniform noise, clipped off 0 and 1.

    scipy.special loads on the first call, so commands that draw no
    Gaussian noise never import it.
    """
    from scipy.special import ndtri

    return ndtri(np.clip(e, _CLIP_LO, _CLIP_HI))


def rademacher_sign(e):
    """+1 where e > 0.5, else -1: a tie at exactly 0.5 goes to -1."""
    return np.where(e > 0.5, 1.0, -1.0)


def canon_value(v) -> str:
    """Canonical cell-key rendering of one discrete parent value."""
    return format(float(v) + 0.0, ".12g")


class GuideTable:
    """np.searchsorted(points, x, side) for a fixed sorted table, by
    indexed search (Chen & Asau 1974; Devroye 1986, section III.2.4).

    points must be finite and non-decreasing. A key x goes to bucket
    floor(x*scale - offset), clamped to [0, M + 1]; the map is monotone,
    so every point in a lower bucket lies below x and every point in a
    higher one above it. start[k] counts the points in buckets below k,
    and passes, the most points any one bucket holds, runs of
    c += points[c] <= x ("right") or < x ("left") finish the count
    inside x's own bucket. The result is searchsorted's integer for
    every key, NaN (counted past every point) and +-inf included.

    M is the power of two at or above 2 * len(points), and scale the
    power of two that spreads the points' range over at most M buckets,
    so the points fill buckets 0..M and bucket M + 1, where keys above
    every point and NaN start, holds none. Cost per key: one multiply,
    one subtract, two clamps and one gather, then passes gathers and
    compares, whatever the table size.
    """

    def __init__(self, points, side):
        pts = np.asarray(points, dtype=float)
        m = 1 << max(1, (2 * len(pts) - 1).bit_length())
        lo, hi = (float(pts[0]), float(pts[-1])) if len(pts) else (0.0, 0.0)
        half = hi * 0.5 - lo * 0.5  # half the range: never overflows
        scale = 1.0
        if half > 0:
            _, exp = math.frexp(0.5 * m / half)  # 2**(exp - 1) <= m / range
            scale = math.ldexp(1.0, min(exp - 1, 1000))
        self._scale, self._offset, self._top = scale, lo * scale, float(m + 1)
        counts = np.bincount(self._buckets(pts), minlength=m + 2)
        self._start = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.intp)
        self._passes = int(counts.max())
        # a NaN pad compares false, so a count never runs past len(points)
        self._points = np.append(pts, np.nan)
        self._compare = np.less_equal if side == "right" else np.less

    def _buckets(self, x):
        t = x * self._scale
        t -= self._offset
        np.fmin(t, self._top, out=t)  # NaN goes to the top bucket
        np.fmax(t, 0.0, out=t)
        return t.astype(np.intp)

    def __call__(self, x):
        """searchsorted(points, x, side) of a 1-D float array x."""
        c = self._start.take(self._buckets(x))
        points, compare = self._points, self._compare
        for _ in range(self._passes):
            c += compare(points.take(c), x)
        return c


def cell_key(binning, row) -> str:
    """The cell key of one parent row.

    row holds the value of each discrete parent (binning entry None) and
    the bin index of each binned parent; the key joins canon_value of
    the former and b<i> of the latter with "|".
    """
    return "|".join(
        canon_value(v) if b is None else "b%d" % v for b, v in zip(binning, row)
    )


# Largest cell-id space (product of the parents' code counts) that gets a
# dense id -> position table: 2**16 intp entries are 512 KiB.
DENSE_CELL_IDS = 1 << 16


class CellIndex:
    """Compiled lookup from parent-value rows to the cells of one table.

    binning holds one entry per parent: None for a discrete parent keyed
    by exact value, or an array of interior cut points for a binned
    continuous parent keyed by bin index. A key holds one "|"-joined part
    per parent, so a table with no parents has the one key "". keys
    lists the matchable keys in id order; rows() gives each parent row's
    position in that list. Parent values arrive as a tuple of 1-D
    columns, one per parent.

    Settled at load: each parent's code function (_codes) and code count
    (_radices), the int64 bound on the id space they span, and the id of
    every key. A binned parent's code function is GuideTable(cuts,
    "right") itself, its bin index, so values past either end take the
    outer bin; a discrete parent's (_discrete_code) gives its value's
    position among the values the keys name, finite ones first in
    increasing order and then -inf, inf and nan, or one extra code when
    no key names it. Keys no parent row can produce, such as a
    non-canonical "1.0" or a bin past the last one, get no id and never
    match.

    A lookup is three kinds of part, which rows() runs in turn and the
    HybridOutcomes plan runs as units of their own: each parent's code
    function (one GuideTable search, and for a discrete parent an
    exactness check; values that are not a key value exactly are
    rendered once per distinct value); a Horner step per parent after
    the first (fold), ids * radix + code in int64, first parent most
    significant, so ids sort like the code rows do and the id of the
    leading parents depends on their values alone; and positions(),
    one gather from a dense id -> position table when the id space has
    at most DENSE_CELL_IDS cells, a binary search of the sorted ids
    otherwise.
    """

    def __init__(self, node, n_parents, binning, keys):
        if binning is None:
            binning = (None,) * n_parents
        if not isinstance(binning, (list, tuple)) or len(binning) != n_parents:
            raise ModelError(f"node {node!r}: binning must hold one entry per parent")
        self.node = node
        self.binning = tuple(
            None if b is None else _floats(node, f"binning of parent {j}", b)
            for j, b in enumerate(binning)
        )
        split = [(k, k.split("|") if n_parents or k else []) for k in keys]
        split = [(k, parts) for k, parts in split if len(parts) == n_parents]
        # per parent: the code of each key part some value maps to
        self._codes, self._radices, code_of = [], [], []
        for j, b in enumerate(self.binning):
            if b is None:
                parsed = (_named_value(parts[j]) for _, parts in split)
                # return_counts keeps np.unique off its hash path, which
                # imports numpy.ma; the sorted path merges NaNs the same way
                named = np.unique([v for v in parsed if v is not None], return_counts=True)[0]
                named = np.concatenate((named[np.isfinite(named)], named[~np.isfinite(named)]))
                code_of.append({canon_value(v): i for i, v in enumerate(named)})
                self._codes.append(_discrete_code(named, code_of[j]))
                self._radices.append(len(named) + 1)
            elif not (np.isfinite(b).all() and (np.diff(b) >= 0).all()):
                raise ModelError(
                    f"node {node!r}: binning of parent {j} must be a list of finite, "
                    "non-decreasing cut points"
                )
            else:
                code_of.append({"b%d" % i: i for i in range(len(b) + 1)})
                self._codes.append(GuideTable(b, "right"))
                self._radices.append(len(b) + 1)
        n_ids = math.prod(self._radices)
        if n_ids > np.iinfo(np.int64).max:
            raise ModelError(
                f"node {node!r}: {' x '.join(map(str, self._radices))} parent cells "
                "overflow int64 cell ids"
            )
        matchable, key_codes = [], []
        for key, parts in split:
            row = [c.get(part) for c, part in zip(code_of, parts)]
            if None not in row:
                matchable.append(key)
                key_codes.append(row)
        ids = self.ids([np.array(c, dtype=np.int64) for c in zip(*key_codes)], len(matchable))
        order = np.argsort(ids)
        self.keys = [matchable[i] for i in order]
        self._ids = np.append(ids[order], -1)  # -1: a sentinel no cell id equals
        # a small id space gets a dense id -> position table; a missing
        # cell's position is that of the -1 sentinel
        self._pos_of_id = None
        if n_ids <= DENSE_CELL_IDS:
            self._pos_of_id = np.full(n_ids, len(self.keys), dtype=np.intp)
            self._pos_of_id[self._ids[:-1]] = np.arange(len(self.keys))

    def fold(self, j, ids, code):
        """Horner step j: the ids of parents 0..j from the ids of parents
        0..j-1 and parent j's codes."""
        out = np.multiply(ids, self._radices[j], dtype=np.int64)
        out += code
        return out

    def ids(self, codes, n_rows):
        """Cell ids of n_rows rows from each parent's codes; 0 with no parents."""
        if not codes:
            return np.zeros(n_rows, dtype=np.int64)
        ids = codes[0]
        for j in range(1, len(codes)):
            ids = self.fold(j, ids, codes[j])
        return ids

    def shown(self, parents, codes):
        """What names a row in the unseen-cell message, per parent: its
        value when discrete, its bin index when binned."""
        return [p if b is None else c for b, p, c in zip(self.binning, parents, codes)]

    def positions(self, ids, *shown):
        """Position in keys of each cell id.

        Raises ModelError naming the smallest unseen cell, from shown
        (rows ordered by discrete value and bin index, parent by parent).
        """
        if self._pos_of_id is not None:
            pos = self._pos_of_id.take(ids)
            if not len(ids) or pos.max() < len(self.keys):
                return pos
        else:
            pos = np.searchsorted(self._ids[:-1], ids)
        found = self._ids[pos] == ids
        if not found.all():
            miss = ~found
            cols = [c[miss] for c in shown]
            first = np.lexsort(cols[::-1])[0] if cols else 0
            key = cell_key(self.binning, [c[first] for c in cols])
            raise ModelError(f"node {self.node!r}: no cell for parent values {key!r}")
        return pos

    def rows(self, parents, n_rows):
        """Position in keys of each of the n_rows parent rows' cells."""
        codes = [code(col) for code, col in zip(self._codes, parents)]
        return self.positions(self.ids(codes, n_rows), *self.shown(parents, codes))

    def to_json(self):
        if all(b is None for b in self.binning):
            return None
        return [None if b is None else [float(x) for x in b] for b in self.binning]


def _named_value(part):
    """The discrete value a key part names, or None when no value renders
    (canon_value) as exactly that part."""
    try:
        v = float(part)
    except ValueError:
        return None
    return v if canon_value(v) == part else None


def _discrete_code(named, code_of):
    """Code function of a discrete parent whose keys name the distinct
    values named, the finite ones first in increasing order, code_of
    mapping each one's canon_value to its position: a column's codes are
    the values' positions, len(named) for a value no key names.

    A GuideTable over the finite named values finds the position of
    every finite value that is a named value exactly; the others are
    rendered, once per distinct value, so .12g matching, the signed-zero
    merge and the non-finite values hold.
    """
    search = GuideTable(named[np.isfinite(named)], "left")
    values = np.append(named, np.nan)  # a NaN pad no value compares equal to
    other = len(named)

    def code(col):
        c = search(col)
        exact = values[c] == col
        if not exact.all():
            miss = ~exact
            uniq, inv = np.unique(col[miss], return_inverse=True)
            c[miss] = np.array(
                [code_of.get(canon_value(v), other) for v in uniq], dtype=np.intp
            )[inv]
        return c

    return code


class CellLookup(NamedTuple):
    """values[position of each parent row's cell in index.keys]: the
    parent stage of a cell table, called with a tuple of 1-D parent
    columns and the row count."""

    index: CellIndex
    values: np.ndarray

    def __call__(self, parents, n_rows):
        return self.values.take(self.index.rows(parents, n_rows))


class ParentFn:
    """Scalar function of a node's parents: a formula or a cell table,
    whose lookup is a CellLookup.

    Called with a tuple of 1-D parent columns and the row count.
    """

    def __init__(self, node, parent_names, formula=None, cells=None, binning=None):
        self.node = node
        self.parent_names = tuple(parent_names)
        if (formula is None) == (cells is None):
            raise ModelError(f"node {node!r}: need exactly one of expr or cells")
        if formula is not None and binning is not None:
            raise ModelError(f"node {node!r}: binning applies to cells, not to expr")
        if formula is not None and not formula.variables:
            try:  # a constant: log(0) fails at load, naming the node
                formula.evaluate({})
            except FormulaEvalError as err:
                raise ModelError(f"node {node!r}: {err}") from None
        self.formula = formula
        self.cells = self.index = self.lookup = None
        if cells is not None:
            if not isinstance(cells, dict):
                raise ModelError(f"node {node!r}: cells must be an object")
            self.cells = {str(k): _float(node, f"cell {k!r}", v) for k, v in cells.items()}
            _check_finite(node, "cell values", list(self.cells.values()))
            self.index = CellIndex(node, len(self.parent_names), binning, self.cells)
            values = np.array([self.cells[k] for k in self.index.keys], dtype=float)
            self.lookup = CellLookup(self.index, values)

    def __call__(self, parents, n_rows):
        if self.formula is not None:
            return self.formula.evaluate(dict(zip(self.parent_names, parents)))
        return self.lookup(parents, n_rows)

    def to_json(self):
        if self.formula is not None:
            return {"expr": self.formula.source}
        out = {"cells": dict(sorted(self.cells.items()))}
        b = self.index.to_json()
        if b is not None:
            out["binning"] = b
        return out

    @staticmethod
    def from_json(node, parent_names, obj):
        if not isinstance(obj, dict):
            raise ModelError(f"node {node!r}: parent function must be an object")
        f = parse_formula(str(obj["expr"]), parent_names) if "expr" in obj else None
        return ParentFn(
            node, parent_names, formula=f, cells=obj.get("cells"), binning=obj.get("binning")
        )


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


def _is_number(v) -> bool:
    """A JSON number or a numpy integer or float scalar; not a string or a bool."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _float(node, what, v):
    if not _is_number(v):
        raise ModelError(f"node {node!r}: {what} must be a number")
    try:
        return float(v)
    except OverflowError:  # an int past float64
        raise ModelError(f"node {node!r}: {what} must be finite") from None


def _floats(node, what, v):
    """v as a 1-D float array: a list of numbers or a 1-D numeric numpy array."""
    if isinstance(v, np.ndarray):
        ok = v.ndim == 1 and v.dtype.kind in "iuf"
    else:
        ok = isinstance(v, (list, tuple)) and all(map(_is_number, v))
    if not ok:
        raise ModelError(f"node {node!r}: {what} must be a list of numbers")
    try:
        return np.asarray(v, dtype=float)
    except OverflowError:  # an int past float64
        raise ModelError(f"node {node!r}: {what} must be finite") from None


class Stages(NamedTuple):
    """How a mechanism's sample splits into the stages HybridOutcomes
    computes apart, each once per key of its own noise ancestry:

        combine(*[post(fn(parents, len(e))) for fn, post in parents], noise(e))

    Each parent stage fn, a ParentFn or a CellLookup, maps the parent
    columns and the row count to an array, and post, when not None,
    checks or converts its value. HybridOutcomes splits each parent
    stage into units of its own: a formula op by op, a cell lookup into
    a code per parent, a Horner fold per parent after the first and a
    gather, so each part is keyed on the parents it reads. noise maps
    the noise column to what combine reads of it; None passes the column
    itself, or len(e) for a mechanism that reads no noise (uses_noise
    False), so its stages are keyed on its parents alone. Each stage
    applies the ufuncs of sample to the same operands in the same order,
    so the split changes no value's bits.
    """

    parents: tuple
    noise: object
    combine: object


class Mechanism:
    """One node's conditional-quantile transform V = Q(e | parents).

    sample(e, parents) takes the noise column e and a tuple of 1-D
    parent columns of the same length, in parent_names order; roots get
    an empty tuple. stages() returns its Stages split, or None when
    sample is one stage (every root). Discrete roots also report their
    law as (values, probs) through discrete_law(); every other mechanism
    returns None there.
    """

    kind = None
    is_root = False
    uses_noise = True

    def sample(self, e, parents):
        raise NotImplementedError

    def stages(self):
        return None

    def discrete_law(self):
        return None

    def to_json(self):
        raise NotImplementedError


class RootGaussian(Mechanism):
    kind = "root_gaussian"
    is_root = True

    def __init__(self, node, mean=0.0, std=1.0):
        self.node = node
        self.mean = _float(node, "mean", mean)
        self.std = _float(node, "std", std)
        _check_finite(node, "mean and std", [self.mean, self.std])
        if not (self.std >= 0.0):
            raise ModelError(f"node {node!r}: std must be >= 0")

    def sample(self, e, parents):
        return self.mean + self.std * gauss_quantile(e)

    def to_json(self):
        return {"kind": self.kind, "mean": self.mean, "std": self.std}


class RootUniform(Mechanism):
    kind = "root_uniform"
    is_root = True

    def __init__(self, node, low=0.0, high=1.0):
        self.node = node
        self.low = _float(node, "low", low)
        self.high = _float(node, "high", high)
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
        return rademacher_sign(e)

    def discrete_law(self):
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])

    def to_json(self):
        return {"kind": self.kind}


class RootCategorical(Mechanism):
    kind = "root_categorical"
    is_root = True

    def __init__(self, node, values, probs, labels=None):
        self.node = node
        self.values = _floats(node, "values", values)
        self.probs = _floats(node, "probs", probs)
        if labels is not None and not isinstance(labels, (list, tuple)):
            raise ModelError(f"node {node!r}: labels must be a list")
        self.labels = None if labels is None else tuple(str(x) for x in labels)
        if self.values.shape != self.probs.shape:
            raise ModelError(f"node {node!r}: values and probs must be equal-length lists")
        if len(self.values) == 0:
            raise ModelError(f"node {node!r}: empty categorical")
        _check_finite(node, "values and probs", [self.values, self.probs])
        if np.any(self.probs < 0) or abs(self.probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ModelError(f"node {node!r}: probs must be nonnegative and sum to 1")
        if self.labels is not None and len(self.labels) != len(self.values):
            raise ModelError(f"node {node!r}: labels length must match values")
        # the inner cumulative sums: the count of those below e is e's
        # category, and NaN or e past every sum takes the last
        self._search = GuideTable(np.cumsum(self.probs)[:-1], "left")

    def sample(self, e, parents):
        return self.values[self._search(e)]

    def discrete_law(self):
        # a value listed twice is one support point (numpy equality, so
        # -0.0 is 0.0) at its first position, with the summed probability;
        # summed in another order the total can round past the load check's
        # tolerance, so the merged law is divided by its total
        _, first, inverse = np.unique(self.values, return_index=True, return_inverse=True)
        if len(first) == len(self.values):
            return self.values, self.probs
        order = np.argsort(first)
        probs = np.bincount(inverse, weights=self.probs)[order]
        return self.values[first[order]], probs / probs.sum()

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
        self.values = np.sort(_floats(node, "values", values))
        if len(self.values) == 0:
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

    Cost per sampled row: the cell lookup (CellIndex: a code per
    parent, a multiply-add per parent after the first, one gather), one
    GuideTable search of the levels past the first (one pass for the
    default 50 levels) and a handful of gathers and arithmetic,
    whatever the number of levels or cells. The lookup is a parent
    stage whose values are each row's cell offset in the flat tables,
    and the search a noise stage (stages). In a block HybridOutcomes
    runs each part of the lookup once per key of its own noise
    ancestry: a parent's code and the fold of the leading parents for
    the keys of those parents alone, the last fold and the gather for
    those of every parent (8 for three queried roots); the search runs
    twice.
    """

    kind = "quantile_table"

    def __init__(self, node, parent_names, levels, cells, binning=None):
        self.node = node
        self.parent_names = tuple(parent_names)
        self.levels = _floats(node, "levels", levels)
        if len(self.levels) < 1:
            raise ModelError(f"node {node!r}: need at least one quantile level")
        _check_finite(node, "levels", self.levels)
        if np.any(self.levels <= 0) or np.any(self.levels >= 1):
            raise ModelError(f"node {node!r}: levels must lie strictly inside (0, 1)")
        if np.any(np.diff(self.levels) <= 0):
            raise ModelError(f"node {node!r}: levels must be strictly increasing")
        if not self.parent_names:
            raise ModelError(f"node {node!r}: quantile_table needs parents; use a root")
        if not isinstance(cells, dict):
            raise ModelError(f"node {node!r}: cells must be an object")
        self.cells = {}
        for key, grid in cells.items():
            g = _floats(node, f"cell {key!r} grid", grid)
            if g.shape != self.levels.shape:
                raise ModelError(
                    f"node {node!r}: cell {key!r} grid length {g.size} != "
                    f"{self.levels.size} levels"
                )
            _check_finite(node, f"cell {key!r} grid", g)
            if np.any(np.diff(g) < 0):
                raise ModelError(f"node {node!r}: cell {key!r} grid must be non-decreasing")
            self.cells[str(key)] = g
        self.index = CellIndex(node, len(self.parent_names), binning, self.cells)
        # flat (cell, level) tables; the slope of the last level is a zero pad
        grid = np.array([self.cells[k] for k in self.index.keys], dtype=float)
        grid = grid.reshape(len(self.index.keys), len(self.levels))
        with np.errstate(over="ignore"):  # an infinite slope is np.interp's too
            slope = np.diff(grid, axis=1) / np.diff(self.levels)
        self._grid = grid.ravel()
        self._slope = np.pad(slope, ((0, 0), (0, 1))).ravel()
        self._search = GuideTable(self.levels[1:], "right")
        # parent stage: the offset of each row's cell in the flat tables
        self._offsets = CellLookup(self.index, np.arange(len(self.index.keys)) * len(self.levels))

    def sample(self, e, parents):
        return self.combine(self._offsets(parents, len(e)), self._level(e))

    def stages(self):
        return Stages(((self._offsets, None),), self._level, self.combine)

    def _level(self, e):
        """Noise stage: each row's level index j (the count of levels past
        the first at or below e, so 0 below the first level and L - 1 for
        NaN), its offset d = e - levels[j] and where the value is the grid
        value g0 itself."""
        levels = self.levels
        j = self._search(e)
        d = e - levels[j]
        return j, d, (d <= 0) | (e >= levels[-1])

    def combine(self, offsets, level):
        # np.interp's arithmetic, so the bits match it: the grid value at
        # or below the first level, on a level and from the last level on;
        # slope*(e - x0) + g0 from the segment's left end (x0, g0) between
        j, d, flat = level
        at = offsets + j
        g0 = self._grid.take(at)
        out = self._slope.take(at)
        out *= d
        out += g0
        np.copyto(out, g0, where=flat)
        return out

    def to_json(self):
        out = {
            "kind": self.kind,
            "levels": [float(x) for x in self.levels],
            "cells": {k: [float(v) for v in g] for k, g in sorted(self.cells.items())},
        }
        b = self.index.to_json()
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
        self.residuals = np.sort(_floats(node, "residuals", residuals))
        if len(self.residuals) == 0:
            raise ModelError(f"node {node!r}: residual pool is empty")
        _check_finite(node, "residuals", self.residuals)

    def sample(self, e, parents):
        return self.combine(self.mean(parents, len(e)), self._residual(e))

    def stages(self):
        return Stages(((self.mean, None),), self._residual, self.combine)

    def _residual(self, e):
        return empirical_quantile(self.residuals, e)

    def combine(self, mean, residual):
        return mean + residual

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
        if std.cells is not None and any(v < 0 for v in std.cells.values()):
            raise ModelError(f"node {node!r}: std cells must be >= 0")
        if std.formula is not None and not std.formula.variables and std.formula.evaluate({}) < 0:
            raise ModelError(f"node {node!r}: std formula must be >= 0")

    def sample(self, e, parents):
        s = self._checked_std(self.std(parents, len(e)))
        return self.combine(s, self.mean(parents, len(e)), gauss_quantile(e))

    def stages(self):
        return Stages(
            ((self.std, self._checked_std), (self.mean, None)), gauss_quantile, self.combine
        )

    def _checked_std(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ModelError(f"node {self.node!r}: stddev went negative")
        return s

    def combine(self, s, mean, z):
        return mean + s * z

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
        self.value = ParentFn(node, parent_names, formula=formula)

    def sample(self, e, parents):
        return self.combine(self.value(parents, len(e)), len(e))

    def stages(self):
        return Stages(((self.value, None),), None, self.combine)

    def combine(self, out, n_rows):
        """The formula's value, a constant spread over n_rows rows."""
        out = np.asarray(out, dtype=float)
        return np.full(n_rows, float(out)) if out.ndim == 0 else out

    def to_json(self):
        return {"kind": self.kind, "expr": self.formula.source}


def mechanism_from_json(node, parent_names, obj):
    """A node's mechanism from its model-file object; ModelError names
    the node and the field that is missing or of the wrong type."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ModelError(f"node {node!r}: mechanism must be an object with a 'kind'")
    kind = obj["kind"]

    def need(key):
        if key not in obj:
            raise ModelError(f"node {node!r}: {kind} mechanism is missing {key!r}")
        return obj[key]

    if kind == "root_gaussian":
        return RootGaussian(node, obj.get("mean", 0.0), obj.get("std", 1.0))
    if kind == "root_uniform":
        return RootUniform(node, obj.get("low", 0.0), obj.get("high", 1.0))
    if kind == "root_rademacher":
        return RootRademacher(node)
    if kind == "root_categorical":
        return RootCategorical(node, need("values"), need("probs"), obj.get("labels"))
    if kind == "root_empirical":
        return RootEmpirical(node, need("values"))
    if kind == "quantile_table":
        levels, cells = need("levels"), need("cells")
        return QuantileTable(node, parent_names, levels, cells, obj.get("binning"))
    if kind == "additive_noise":
        mean = ParentFn.from_json(node, parent_names, need("mean"))
        return AdditiveNoise(node, parent_names, mean, need("residuals"))
    if kind == "hetero_gaussian":
        mean = ParentFn.from_json(node, parent_names, need("mean"))
        std = ParentFn.from_json(node, parent_names, need("std"))
        return HeteroGaussian(node, parent_names, mean, std)
    if kind == "deterministic":
        f = parse_formula(str(need("expr")), parent_names)
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
        order = self.dag.order
        anc = ancestral_closure(self.dag, [self.outcome])
        idx = {n: i for i, n in enumerate(self.dag.names)}
        # node indices: every node and the outcome's ancestry in topological
        # order, and each node's parents
        object.__setattr__(self, "_order", tuple(idx[n] for n in order))
        object.__setattr__(self, "_outcome_order", tuple(idx[n] for n in order if n in anc))
        object.__setattr__(self, "_outcome_index", idx[self.outcome])
        object.__setattr__(
            self, "_parent_idx", tuple(tuple(idx[p] for p in ps) for ps in self.dag.parents)
        )
        # a node with no noise ancestry is a constant: evaluated once here,
        # on one row, a formula such as log(0) fails at load, not at a draw
        const = {}
        for i in self._order:
            if not self.mechanisms[i].uses_noise and all(p in const for p in self._parent_idx[i]):
                try:
                    self._evaluate(np.zeros((1, self.n_nodes)), (i,), const)
                except FormulaEvalError as err:
                    raise ModelError(f"node {self.dag.names[i]!r}: {err}") from None

    @property
    def n_nodes(self) -> int:
        return len(self.dag.names)

    def _node_values(self, i, e, values):
        """Values of node i from its noise column e and values, a node
        index -> array map holding its parents. Callers silence numpy's
        floating-point warnings around it.
        """
        parents = tuple(values[p] for p in self._parent_idx[i])
        return self._checked(i, self.mechanisms[i].sample(e, parents), len(e))

    def _checked(self, i, v, n_rows):
        """v as node i's float column of n_rows values.

        Raises ModelError for a wrong output shape or a value that is not
        finite, so an overflow inside a mechanism surfaces at its node,
        not downstream. A mechanism that reads no noise is a formula of
        its parents, whose last op has checked that its value is finite.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (n_rows,):
            raise ModelError(f"node {self.dag.names[i]!r}: mechanism produced shape {v.shape}")
        if self.mechanisms[i].uses_noise and not np.isfinite(v).all():
            raise ModelError(
                f"node {self.dag.names[i]!r}: mechanism produced a non-finite value"
            )
        return v

    def _evaluate(self, noise, node_order, values):
        """Evaluate the given node indices in order into values, a node index
        -> array map holding any nodes given, not evaluated; noise is (m, V)."""
        with np.errstate(all="ignore"):
            for i in node_order:
                values[i] = self._node_values(i, noise[:, i], values)
        return values

    def forward(self, noise):
        """All node values for a (m, V) noise matrix, as a name -> array map."""
        noise = np.asarray(noise, dtype=float)
        if noise.ndim != 2 or noise.shape[1] != self.n_nodes:
            raise ModelError(f"noise must have shape (m, {self.n_nodes})")
        values = self._evaluate(noise, self._order, {})
        return {self.dag.names[i]: v for i, v in values.items()}

    def outcome_values(self, noise):
        """Outcome column only; skips nodes outside the outcome's ancestry."""
        values = self._evaluate(np.asarray(noise, dtype=float), self._outcome_order, {})
        return values[self._outcome_index]

    def oracle_domain(self):
        """(domain, f, names) for exact decomposition: the product of the
        discrete roots' laws, names, in declaration order, and f, the map
        from an (n, K) array of root values to the outcome by the node loop
        of outcome_values. Every other node, the outcome included, must be
        deterministic (it may sit anywhere); NotReducibleError names the
        first node that is neither, that no discrete root exists, or that
        the decomposition's work exceeds ENUMERATION_BUDGET.
        """
        roots, laws = [], []
        for i, (n, mech) in enumerate(zip(self.dag.names, self.mechanisms)):
            law = None if i == self._outcome_index else mech.discrete_law()
            if law is not None:
                roots.append(i)
                laws.append(law)
            elif mech.uses_noise:
                raise NotReducibleError(
                    f"node {n!r} has a {mech.kind or type(mech).__name__} mechanism; oracle needs "
                    "discrete roots (rademacher, categorical or empirical) and every other node, "
                    "the outcome included, deterministic"
                )
        if not roots:
            raise NotReducibleError(
                "oracle needs at least one discrete root (rademacher, categorical or empirical)"
            )
        # the Moebius inversion in hoeffding_decompose touches prod_j (1 + 2 d_j)
        # elements, never fewer than the domain has points
        work = math.prod(1 + 2 * len(v) for v, _ in laws)
        if work > ENUMERATION_BUDGET:
            raise NotReducibleError(f"decomposition work {work} exceeds budget {ENUMERATION_BUDGET}")
        order = tuple(i for i in self._outcome_order if i not in roots)

        def f(w):
            # deterministic nodes read only the length of their noise column
            noise = np.broadcast_to(0.0, (w.shape[0], self.n_nodes))
            start = {i: w[:, j] for j, i in enumerate(roots)}
            return self._evaluate(noise, order, start)[self._outcome_index]

        domain = DiscreteDomain([v for v, _ in laws], [p for _, p in laws])
        return domain, f, tuple(self.dag.names[i] for i in roots)

    def noise_mask(self, nodes) -> int:
        """Bitmask of the noise coordinates owned by the given node names."""
        return sum(1 << i for i in {self.dag.index(str(n)) for n in nodes})


# Most values of one unit a block keeps alive at once; a unit whose values
# would overlap more is computed again for each hybrid that reads it.
LIVE_VALUES = 32


class HybridOutcomes:
    """The outcome under hybrid noise, one replicate block at a time.

    open_block(E, E', masks) yields, in order, the outcome of the hybrid
    of each mask: the one that takes the noise columns set in mask from
    E' (the mc kernel's evaluator).

    The model compiles once into units in evaluation order. Leaves are
    the noise columns the mechanisms read, each formula constant and the
    row count; the other units are each node's mechanism stages
    (Stages), split into the ops of their formulas and the code, fold
    and gather parts of their cell lookups, and the node's value, its
    combine stage with the node checks (a root is its sample), which
    also reads each parent no stage reads, so that every node the node
    loop evaluates runs its checks. A unit's noise ancestry anc is the
    union of its arguments': a noise column's is its own bit. Its value
    under a hybrid depends only on anc & mask (the Hoeffding structure
    the measure rests on).

    Every block of an estimate asks for the same masks, so the first
    compiles them into a plan: straight-line steps (fn, argument slots,
    output slot, slots to free) that compute each (unit, anc & mask)
    once, at the first hybrid that reads it, and free each value after
    its last reader. A unit whose values would be alive more than
    LIVE_VALUES at once runs instead for each hybrid that reads it.

    Memory: a block holds at most LIVE_VALUES values of each unit at
    once, of at most 17 bytes a row each (8 for a float column and for
    a cell lookup's codes and ids; the QuantileTable level stage holds
    an index, an offset and a flag):
    4.5 MB per unit at rng.BLOCK_LEN rows, whatever the masks. The
    noise columns are views of E and E'.
    """

    def __init__(self, model: ScmModel):
        # per unit: function (None for a leaf), argument units, noise ancestry
        self.fns, self.args, self.anc = [], [], []
        self.rows = self._unit(None, ())
        self.consts = []  # (unit, value) of each formula constant
        self.noise = []  # (unit, node index) of each noise column
        self.node_units = {}  # node index -> the unit of its value
        for i in model._outcome_order:
            mech = model.mechanisms[i]
            parents = [self.node_units[p] for p in model._parent_idx[i]]
            first = len(self.fns)
            noise = self.rows  # a mechanism that reads no noise reads the row count
            if mech.uses_noise:
                noise = self._unit(None, (), 1 << i)
                self.noise.append((noise, i))
            stages = mech.stages()
            if stages is None:  # sample is one stage
                combine = lambda e, *ps, sample=mech.sample: sample(e, ps)
                args = (noise, *parents)
            else:
                args = []
                for f, post in stages.parents:
                    u = self._parent_stage(f, parents)
                    args.append(u if post is None else self._unit(post, (u,)))
                if stages.noise is not None:
                    noise = self._unit(stages.noise, (noise,))
                combine, args = stages.combine, (*args, noise)
            # a parent no stage reads is an argument all the same
            unread = sorted(set(parents).difference(args, *self.args[first:]))
            value = _checked_value(model, i, combine, len(args))
            self.node_units[i] = self._unit(value, (self.rows, *args, *unread))
        self._masks = self._plan = None

    def _unit(self, fn, args, anc=0):
        """A new unit fn(*args), or a leaf of ancestry anc when fn is None."""
        for a in args:
            anc |= self.anc[a]
        self.fns.append(fn)
        self.args.append(tuple(args))
        self.anc.append(anc)
        return len(self.fns) - 1

    def _parent_stage(self, fn, parents):
        """The unit of a parent stage fn(parent columns, n_rows), split
        into units that the plan keys apart: a ParentFn's formula gives
        one unit per op, a cell lookup (a cell-table ParentFn's or a
        CellLookup) the units of _lookup."""
        lookup = fn if isinstance(fn, CellLookup) else fn.lookup
        if lookup is not None:
            return self._lookup(lookup, parents)
        at = dict(zip(fn.parent_names, parents))
        slots = []
        for op, arg in fn.formula.program:
            if op == "var":
                slots.append(at[arg])
            elif op == "num":
                slots.append(self._unit(None, ()))
                self.consts.append((slots[-1], arg))
            else:
                slots.append(self._unit(op, [slots[a] for a in arg]))
        return slots[-1]

    def _lookup(self, lookup, parents):
        """The units of a cell lookup: one code unit per parent, which
        reads that parent's value alone; a Horner fold unit per parent
        after the first, so the ids of the leading parents are keyed on
        their ancestry alone (a table with no parents has the id 0 on
        every row); and the gather of values by id, which also reads
        what the unseen-cell message shows of each parent."""
        index = lookup.index
        codes = [self._unit(code, (p,)) for code, p in zip(index._codes, parents)]
        ids = codes[0] if codes else self._unit(lambda n: index.ids((), n), (self.rows,))
        for j in range(1, len(codes)):
            ids = self._unit(lambda ids, c, j=j: index.fold(j, ids, c), (ids, codes[j]))
        shown = index.shown(parents, codes)
        gather = lambda ids, *shown: lookup.values.take(index.positions(ids, *shown))
        return self._unit(gather, (ids, *shown))

    def _runs(self, masks):
        """runs[t]: the units the hybrid of masks[t] computes, descending.

        reads[u][key] holds the hybrids that read u's value at key. Units
        are decided from the outcome's value (the last unit) down, so
        every reader of a unit is decided before it.
        """
        fns, args, anc = self.fns, self.args, self.anc
        reads = [{} for _ in fns]
        for t, m in enumerate(masks):
            reads[-1].setdefault(anc[-1] & m, set()).add(t)
        runs = [[] for _ in masks]
        for u in range(len(fns) - 1, -1, -1):
            if fns[u] is None or not reads[u]:
                continue
            firsts = sorted(min(ts) for ts in reads[u].values())
            lasts = sorted(max(ts) for ts in reads[u].values())
            # the most values alive at once: keys first read by a hybrid
            # less those last read before it
            alive = max(n - bisect_left(lasts, t) for n, t in enumerate(firsts, 1))
            if alive <= LIVE_VALUES:
                at = firsts
            else:
                at = set().union(*reads[u].values())
            for t in at:
                runs[t].append(u)
                for a in args[u]:
                    reads[a].setdefault(anc[a] & masks[t], set()).add(t)
        return runs

    def _compile(self, masks):
        """The plan of masks, one (steps, outcome slot, slots to free after
        the outcome is read) per hybrid, and its slot count. The leaf
        slots come first: the row count, the constants, then each noise
        column of E and each of E'."""
        fns, args, anc = self.fns, self.args, self.anc
        where = {(self.rows, 0): 0}  # (unit, anc & mask) -> slot of its value
        for u, _ in self.consts:
            where[u, 0] = len(where)
        for u, _ in self.noise:
            where[u, 0] = len(where)
        for u, i in self.noise:
            where[u, 1 << i] = len(where)
        n_slots = n_leaves = len(where)
        plan, last = [], {}  # last[slot]: the free list of its last reader
        for m, run in zip(masks, self._runs(masks)):
            steps = []
            for u in reversed(run):
                slots = tuple(where[a, anc[a] & m] for a in args[u])
                steps.append((fns[u], slots, n_slots, []))
                for s in slots:
                    last[s] = steps[-1][3]
                where[u, anc[u] & m] = n_slots
                n_slots += 1
            out = where[len(fns) - 1, anc[-1] & m]
            plan.append((steps, out, []))
            last[out] = plan[-1][2]
        for s, free in last.items():
            if s >= n_leaves:
                free.append(s)
        return plan, n_slots

    def open_block(self, e, ep, masks):
        """An iterator over the outcomes of masks for one block; the
        block's values live no longer than it does. The first block of a
        mask list compiles its plan."""
        masks = tuple(masks)
        if masks != self._masks:
            self._plan, self._n_slots = self._compile(masks)
            self._masks = masks
        slots = [len(e), *(c for _, c in self.consts)]
        slots += [e[:, i] for _, i in self.noise] + [ep[:, i] for _, i in self.noise]
        slots += [None] * (self._n_slots - len(slots))
        return _outcomes(self._plan, slots)


def _outcomes(plan, slots):
    """Run a plan over one block's slots, yielding each hybrid's outcome.
    Nothing refers back to the generator, so its slots die with it."""
    for steps, out, free in plan:
        with np.errstate(all="ignore"):
            for fn, args, dst, dead in steps:
                slots[dst] = fn(*[slots[a] for a in args])
                for s in dead:
                    slots[s] = None
        yield slots[out]
        for s in free:
            slots[s] = None


def _checked_value(model, i, combine, n_stages):
    """Node i's value unit: f(n_rows, *stage values, *unread parents),
    combine's value of the n_stages stage values under the node checks."""
    checked = model._checked
    return lambda n, *stages: checked(i, combine(*stages[:n_stages]), n)


def _unit_noise(model: ScmModel, v, what):
    """v, named what in errors, as a flat float vector of n_nodes coordinates in [0, 1]."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != model.n_nodes:
        raise ModelError(f"{what} must have length {model.n_nodes}")
    if not np.all((v >= 0) & (v <= 1)):  # written so that NaN fails it
        raise ModelError("noise coordinates must lie in [0, 1]")
    return v


def forward_sample(model: ScmModel, noise):
    """Node values for one noise vector, as a name -> float map."""
    e = _unit_noise(model, noise, "noise vector")
    vals = model.forward(e.reshape(1, -1))
    return {n: float(v[0]) for n, v in vals.items()}


def counterfactual_outcome(model: ScmModel, e, e2, nodes) -> float:
    """Outcome after resampling the noise of the given nodes.

    e supplies the base noise vector, e2 the donor coordinates for the
    nodes in the set; the empty set reproduces the factual outcome.
    """
    e, e2 = _unit_noise(model, e, "noise vectors"), _unit_noise(model, e2, "noise vectors")
    h = e.copy()
    cols = members(model.noise_mask(nodes))
    h[cols] = e2[cols]
    return float(model.outcome_values(h.reshape(1, -1))[0])


def counterfactual_total(model: ScmModel, nodes, cfg: EstimatorConfig) -> Estimate:
    """Counterfactual explainability of one node set by pick-freeze MC."""
    names = [str(n) for n in nodes]
    if not names:
        raise DomainError("node set must be nonempty")
    s = model.noise_mask(names)
    return upper_estimate(HybridOutcomes(model).open_block, model.n_nodes, s, cfg)


def estimate_counterfactual_measure(
    model: ScmModel, cfg: EstimatorConfig, include_outcome: bool = True
):
    """Full explanation measure over the model's nodes.

    With include_outcome the outcome variable joins the algebra and its
    own atom absorbs the mass not explained by the other nodes; without
    it that mass stays on the empty atom. Each block of sample pairs
    asks for 2**K + 1 outcomes for K query variables; HybridOutcomes
    compiles 2**K masks, one more when the outcome is left out. It
    evaluates each node value, mechanism stage and formula op once per
    key: 2**|A| per block, A the query columns of its noise ancestry (a
    root or a noise stage two, a formula constant nothing), plus one
    when that ancestry holds the outcome's column and the outcome is
    left out. A unit whose values would stay alive past LIVE_VALUES at
    once runs instead for each hybrid that reads it. Nothing outside
    the outcome's ancestry is evaluated.
    """
    query_names = [
        n for n in model.dag.names if include_outcome or n != model.outcome
    ]
    if not query_names:
        raise DomainError("no query variables: lone-outcome model without include_outcome")
    cols = [model.dag.index(n) for n in query_names]
    outcomes = HybridOutcomes(model)
    table = pickfreeze_totals(outcomes.open_block, model.n_nodes, cols, cfg)
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


def json_list(v, what):
    """v when it is a list; ModelError naming the field what otherwise."""
    if not isinstance(v, list):
        raise ModelError(f"{what} must be a list")
    return v


def graph_from_json(obj, what, node_keys):
    """The Dag, outcome and node objects of a model or DAG file.

    what ("model" or "DAG") names the file in messages, and every node
    object needs node_keys. Raises ModelError naming the first field
    that is missing or of the wrong type.
    """
    if not isinstance(obj, dict):
        raise ModelError(f"{what} file must hold a JSON object")
    for key in ("outcome", "nodes"):
        if key not in obj:
            raise ModelError(f"{what} file is missing {key!r}")
    nodes = json_list(obj["nodes"], f"{what} 'nodes'")
    names, parents = [], []
    for nd in nodes:
        if not isinstance(nd, dict) or any(k not in nd for k in node_keys):
            raise ModelError(f"each {what} node needs {' and '.join(map(repr, node_keys))}")
        names.append(str(nd["name"]))
        parents.append(tuple(json_list(nd.get("parents", []), f"node {names[-1]!r}: parents")))
    if [str(v) for v in json_list(obj.get("variables", names), "'variables'")] != names:
        raise ModelError("'variables' must list the node names in declaration order")
    dag = Dag(tuple(names), tuple(parents))
    outcome = str(obj["outcome"])
    if outcome not in dag.names:
        raise ModelError(f"outcome {outcome!r} is not a node")
    return dag, outcome, nodes


def model_from_json(obj) -> ScmModel:
    dag, outcome, nodes = graph_from_json(obj, "model", ("name", "mechanism"))
    mechs = [
        mechanism_from_json(n, ps, nd["mechanism"])
        for n, ps, nd in zip(dag.names, dag.parents, nodes)
    ]
    fitted = json_list(obj.get("fitted", []), "model 'fitted'")
    if not all(isinstance(flag, str) for flag in fitted):
        raise ModelError("model 'fitted' must be a list of strings")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ModelError("model 'name' must be a string")
    return ScmModel(dag, tuple(mechs), outcome, name=name, fitted=tuple(fitted))


def read_model(path) -> ScmModel:
    return model_from_json(read_json(path, "model"))


def write_model(model: ScmModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=2, sort_keys=False)
        fh.write("\n")
