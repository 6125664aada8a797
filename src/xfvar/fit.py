"""Fitting conditional-quantile mechanisms from tabular data.

Three per-node estimation routes, all built on cell estimators over the
(binned) parent grid: additive location shift with empirical residuals,
heteroskedastic gaussian noise, and a full per-cell quantile grid. The
first two always cross-fit their residuals with a 2-fold split;
quantile grids are order statistics rather than residuals of a fitted
regression, so they are estimated in-sample, and being taken at strictly
increasing levels they are non-decreasing by construction (QuantileTable
checks this on load).

Parent handling: categorical parents and numeric parents with at most
BINS distinct values form exact cells; other numeric parents are
equal-frequency binned into BINS bins, and unseen values at sampling
time fall into the nearest outer bin.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

import numpy as np

from .errors import FitError, ModelError, ParseError, read_json, read_text
from .rng import aux_generator
from .scm import (
    AdditiveNoise,
    Dag,
    GuideTable,
    HeteroGaussian,
    ParentFn,
    QuantileTable,
    RootCategorical,
    RootEmpirical,
    ScmModel,
    cell_ids,
    cell_key,
    empirical_quantile,
    graph_from_json,
    json_list,
)

DEFAULT_LEVELS = tuple(round(0.01 + 0.02 * i, 2) for i in range(50))  # 0.01 .. 0.99

VARIANCE_FLOOR = 1e-12

# Equal-frequency bins per dense numeric parent.
BINS = 10

# Body rows read_csv parses per step.
CHUNK_ROWS = 2048


@dataclass
class FitConfig:
    method: str = "quantile_grid"
    levels: tuple = DEFAULT_LEVELS
    min_cell: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("additive_empirical", "hetero_gaussian", "quantile_grid"):
            raise FitError(f"unknown fit method {self.method!r}")
        lv = np.asarray(self.levels, dtype=float)
        if lv.ndim != 1 or len(lv) == 0:
            raise FitError("levels must be a nonempty list")
        # written so that NaN fails it
        if not (np.all(lv > 0) and np.all(lv < 1) and np.all(np.diff(lv) > 0)):
            raise FitError("levels must be strictly increasing inside (0, 1)")
        self.levels = tuple(float(x) for x in lv)
        if self.min_cell < 2:
            raise FitError("min_cell must be >= 2")


@dataclass
class Dataset:
    """Rectangular, fully-observed columns: float arrays or string arrays."""

    columns: dict
    n: int
    categorical: frozenset = frozenset()
    _coded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise FitError("dataset is empty after filtering")
        for name, col in self.columns.items():
            if len(col) != self.n:
                raise FitError(f"column {name!r} has {len(col)} rows, expected {self.n}")

    def column(self, name):
        if name not in self.columns:
            raise FitError(f"dataset has no column {name!r}")
        return self.columns[name]

    def coded(self, name):
        """(sorted labels, float row codes) of a categorical column, built once."""
        if name not in self._coded:
            cells = self.column(name).tolist()
            labels = sorted(set(cells))
            code = {lab: i for i, lab in enumerate(labels)}
            codes = np.fromiter(map(code.__getitem__, cells), dtype=float, count=len(cells))
            self._coded[name] = labels, codes
        return self._coded[name]

    def numeric(self, name):
        """Numeric view: categorical columns map to their sorted-label codes."""
        if name in self.categorical:
            return self.coded(name)[1]
        return self.column(name)


def read_csv(path, categorical=(), used=None):
    """Ingest a UTF-8 CSV with a header row.

    Only the columns named in `used` (default: all) are checked; a row is
    dropped when any used numeric cell fails to parse as a finite real
    number or any used cell is empty. Returns (Dataset, warnings). Bytes
    that are not UTF-8 and fields past the csv size limit are a ParseError.

    The body is read CHUNK_ROWS rows at a time, so memory holds the used
    columns plus one chunk, and each distinct categorical label is stored
    as one string that every row holding it shares.
    """
    categorical = frozenset(categorical)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header, use = _csv_header(next(reader, None), used)
            width = len(header)
            labels = {c: {} for c in use if c in categorical}
            parts = {c: [np.empty(0, dtype=object if c in labels else float)] for c in use}
            getters = [(c, itemgetter(header.index(c))) for c in parts]
            total = 0
            while chunk := list(islice(reader, CHUNK_ROWS)):
                total += len(chunk)
                whole = [row for row in chunk if len(row) == width]
                for c, cell_of in getters:
                    cells = list(map(cell_of, whole))
                    if c in labels:
                        label = labels[c].setdefault
                        cells = [label(cell, cell) for cell in map(str.strip, cells)]
                        parts[c].append(np.array(cells, dtype=object))
                    else:
                        parts[c].append(_parse_floats(cells))
    except UnicodeDecodeError:  # offsets count within a chunk; read_text raises at the file's
        read_text(path, "CSV")
        raise
    except csv.Error as e:  # a field past csv.field_size_limit()
        raise ParseError(f"invalid CSV file: {e} (line {reader.line_num})") from None

    # pop frees each column's parts before the next column is joined
    columns = {c: np.concatenate(parts.pop(c)) for c in list(parts)}
    keep = np.ones(len(columns[use[0]]) if use else 0, dtype=bool)
    for c, col in columns.items():
        keep &= col != "" if c in labels else np.isfinite(col)  # float() parses "nan" and "inf"
    n = int(keep.sum())
    if n < len(keep):
        columns = {c: v[keep] for c, v in columns.items()}
    dropped = total - n
    warnings = []
    if dropped:
        warnings.append(
            f"dropped {dropped} of {total} rows with missing, unparseable or non-finite cells"
        )
    return Dataset(columns, n, categorical & frozenset(use)), warnings


def _csv_header(header, used):
    """(stripped header, the used column names) of a CSV's first row."""
    if header is None:
        raise FitError("CSV file is empty")
    header = [h.strip() for h in header]
    if len(header) != len(set(header)):
        raise FitError("CSV header has duplicate column names")
    use = list(header) if used is None else [str(c) for c in used]
    missing = [c for c in use if c not in header]
    if missing:
        raise FitError(f"CSV is missing columns: {', '.join(sorted(missing))}")
    return header, use


def _parse_floats(cells):
    """float() of every cell, NaN where it fails (an empty cell included).

    float() skips the whitespace str.strip() removes, so a cell parses
    exactly as its stripped text does.
    """
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        out = np.empty(len(cells))
        for i, cell in enumerate(cells):
            try:
                out[i] = float(cell)
            except ValueError:
                out[i] = np.nan
        return out


# ---------------------------------------------------------------------------
# Cell plumbing


def parent_binning(data: Dataset, parents):
    """Interior cut points per parent; None only for categorical parents.

    Numeric parents always get bin keys so that lookup stays total at
    sampling time (fitted parents can emit values between the observed
    ones). With at most BINS distinct values each value gets its own
    bin, cut at midpoints, which reproduces exact discrete cells; denser
    columns are equal-frequency binned.
    """
    binning = []
    for p in parents:
        if p in data.categorical:
            binning.append(None)
            continue
        col = data.numeric(p)
        distinct = np.unique(col)
        if len(distinct) <= BINS:
            binning.append((distinct[:-1] + distinct[1:]) / 2.0)
        else:
            qs = np.quantile(col, [i / BINS for i in range(1, BINS)])
            binning.append(np.unique(qs))
    return tuple(binning)


def _cell_groups(data: Dataset, node, parents, cfg: FitConfig):
    """Shared setup: y, binning, cell keys and the rows of each cell.

    Cells are ordered by discrete value and bin index, parent by parent,
    and each cell's rows are in data order.
    """
    if node in data.categorical:
        raise FitError(f"node {node!r} is categorical; only roots may be categorical")
    y = data.numeric(node)
    binning = parent_binning(data, parents)
    codes, radices = [], []
    for p, b in zip(parents, binning):
        if b is None:
            labels, code = data.coded(p)
            codes.append(code.astype(np.intp))
            radices.append(len(labels))
        else:
            codes.append(GuideTable(b, "right")(data.numeric(p)))
            radices.append(len(b) + 1)
    ids = cell_ids(node, codes, radices, data.n)
    _, first, inv, counts = np.unique(
        ids, return_index=True, return_inverse=True, return_counts=True
    )
    # canon_value renders an integer code as it does Dataset.numeric's float code
    keys = [cell_key(binning, [c[i] for c in codes]) for i in first]
    for key, cnt in zip(keys, counts):
        if cnt < cfg.min_cell:
            raise FitError(
                f"node {node!r}: cell {key!r} has {cnt} rows (min_cell is {cfg.min_cell})"
            )
    # the smallest unsigned dtype of the cell index lets a stable argsort
    # radix-sort; a stable sort's permutation is the same in any dtype
    inv = inv.astype(np.min_scalar_type(len(counts) - 1))
    rows = np.split(np.argsort(inv, kind="stable"), np.cumsum(counts)[:-1])
    return y, binning, keys, rows


def _residuals(y, rows, seed):
    """Cross-fitted residuals: each row against the mean of the other fold
    of its cell. Folds alternate within each cell along a seeded
    permutation, so both are nonempty in any cell of >= 2 rows.

    rows holds each cell's row indices in increasing order.
    """
    rank = np.empty(len(y), dtype=np.intp)
    rank[aux_generator(seed, "folds").permutation(len(y))] = np.arange(len(y))
    resid = np.empty_like(y)
    for r in rows:
        r = r[np.argsort(rank[r], kind="stable")]
        in0, in1 = np.sort(r[0::2]), np.sort(r[1::2])  # back to data order
        resid[in0] = y[in0] - y[in1].mean()
        resid[in1] = y[in1] - y[in0].mean()
    return resid


# ---------------------------------------------------------------------------
# Per-node fits


def fit_root(data: Dataset, node):
    """Root mechanism from its column: label frequencies of a categorical
    column, else the empirical quantile of the sorted sample."""
    if node not in data.categorical:
        return RootEmpirical(node, np.asarray(data.column(node), dtype=float))
    labels, codes = data.coded(node)
    probs = np.bincount(codes.astype(np.intp), minlength=len(labels)) / data.n
    values = [float(i) for i in range(len(labels))]
    return RootCategorical(node, values=values, probs=probs.tolist(), labels=labels)


def _mean_cells(y, keys, rows):
    return {key: float(y[r].mean()) for key, r in zip(keys, rows)}


def fit_additive(data: Dataset, node, parents, cfg: FitConfig):
    """Location-shift mechanism: cell means plus one shared residual pool."""
    parents = tuple(parents)
    y, binning, keys, rows = _cell_groups(data, node, parents, cfg)
    cells = _mean_cells(y, keys, rows)
    resid = _residuals(y, rows, cfg.seed)
    return AdditiveNoise(
        node, parents, ParentFn(node, parents, cells=cells, binning=binning), resid
    )


def fit_hetero_gaussian(data: Dataset, node, parents, cfg: FitConfig):
    """Gaussian-noise mechanism with per-cell mean and standard deviation."""
    parents = tuple(parents)
    y, binning, keys, rows = _cell_groups(data, node, parents, cfg)
    cells = _mean_cells(y, keys, rows)
    sq = _residuals(y, rows, cfg.seed) ** 2
    std_cells = {
        key: float(np.sqrt(max(sq[r].mean(), VARIANCE_FLOOR))) for key, r in zip(keys, rows)
    }
    return HeteroGaussian(
        node,
        parents,
        ParentFn(node, parents, cells=cells, binning=binning),
        ParentFn(node, parents, cells=std_cells, binning=binning),
    )


def fit_quantile_grid(data: Dataset, node, parents, cfg: FitConfig):
    """Per-cell empirical quantile grids at cfg.levels: order statistics,
    non-decreasing by construction, which QuantileTable checks on load."""
    parents = tuple(parents)
    y, binning, keys, rows = _cell_groups(data, node, parents, cfg)
    cells = {key: empirical_quantile(np.sort(y[r]), cfg.levels) for key, r in zip(keys, rows)}
    return QuantileTable(node, parents, cfg.levels, cells, binning=binning)


_METHODS = {
    "additive_empirical": fit_additive,
    "hetero_gaussian": fit_hetero_gaussian,
    "quantile_grid": fit_quantile_grid,
}


def fit_model(data: Dataset, dag: Dag, cfg: FitConfig, outcome: str) -> ScmModel:
    """Fit every node of the DAG: roots from their marginals, non-roots
    via cfg.method."""
    if outcome not in dag.names:
        raise FitError(f"outcome {outcome!r} is not a DAG node")
    if outcome in data.categorical:
        raise FitError("outcome must be numeric")
    for n in dag.names:
        data.column(n)  # raises on missing columns
    mechs = []
    with np.errstate(all="ignore"):  # a mechanism rejects an overflowed parameter
        for n, ps in zip(dag.names, dag.parents):
            if not ps:
                mechs.append(fit_root(data, n))
            else:
                mechs.append(_METHODS[cfg.method](data, n, ps, cfg))
    flags = ("fitted:" + cfg.method,)
    if cfg.method != "quantile_grid":
        flags += ("cross-fitted",)
    return ScmModel(dag, tuple(mechs), outcome=outcome, fitted=flags)


# ---------------------------------------------------------------------------
# DAG files


def dag_from_json(obj):
    """Parse a DAG config: nodes, parents, outcome, categorical columns."""
    dag, outcome, _ = graph_from_json(obj, "DAG", ("name",))
    categorical = json_list(obj.get("categorical", []), "DAG 'categorical'")
    categorical = frozenset(str(c) for c in categorical)
    unknown = categorical - set(dag.names)
    if unknown:
        raise ModelError(f"categorical lists unknown columns: {', '.join(sorted(unknown))}")
    if outcome in categorical:
        raise ModelError("outcome cannot be categorical")
    return dag, outcome, categorical


def read_dag(path):
    return dag_from_json(read_json(path, "DAG"))
