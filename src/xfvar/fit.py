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
time fall into the nearest outer bin. The rows of each cell come from
one stable sort of the parents' codes.

CSV input (read_csv) takes two paths per chunk of CHUNK_ROWS lines. A
clean chunk (no quote, no NUL, every line a row of the header's width)
is parsed in C by np.loadtxt; any other goes through csv.reader and one
float() per numeric cell, and after the first quote csv.reader reads
the rest of the file. Every cell gets the same bits on both paths:
loadtxt strips the whitespace str.strip() strips and hands the rest to
PyOS_string_to_double, which is where float() ends too, and it refuses
everything float() parses differently (`_`, non-ASCII digits), sending
that chunk to csv.reader. A categorical column is coded as it is read:
its rows hold integer codes into its sorted labels, each stored once,
in the narrowest unsigned dtype that holds them (one byte per row up to
256 labels).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from itertools import chain, islice
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
    cell_key,
    empirical_quantile,
    graph_from_json,
    json_list,
)

DEFAULT_LEVELS = tuple(round(0.01 + 0.02 * i, 2) for i in range(50))  # 0.01 .. 0.99

VARIANCE_FLOOR = 1e-12

# Equal-frequency bins per dense numeric parent.
BINS = 10

# Body lines read_csv parses per step.
CHUNK_ROWS = 2048


@dataclass
class FitConfig:
    method: str = "quantile_grid"
    levels: tuple = DEFAULT_LEVELS
    min_cell: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
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
    """Rectangular, fully-observed numeric columns; a categorical column
    holds integer codes into labels[name], its sorted distinct labels, in
    the narrowest unsigned dtype that holds them."""

    columns: dict
    n: int
    labels: dict = field(default_factory=dict)

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


def read_csv(path, categorical=(), used=None):
    """Ingest a UTF-8 CSV with a header row; a leading byte-order mark is
    skipped.

    Only the columns named in `used` (default: all) are checked; a row is
    dropped when any used numeric cell fails to parse as a finite real
    number or any used cell is empty. Returns (Dataset, warnings). Bytes
    that are not UTF-8 and fields past the csv size limit are a ParseError.

    The body is read CHUNK_ROWS lines at a time, so memory holds the used
    columns plus one chunk. A clean chunk is parsed in C by np.loadtxt
    (_loadtxt_values), any other by csv.reader and float() per cell
    (_row_values); from the first chunk that holds a quote on, csv.reader
    reads the rest of the file, since a quoted field may span lines. Both
    paths give every cell the same value: loadtxt strips the whitespace
    str.strip() strips and parses what is left with PyOS_string_to_double,
    where float() ends too, and what it refuses (`_`, non-ASCII digits, an
    empty cell) sends its chunk to the row path. Categorical cells become
    label ids as each chunk is read (_label_ids), and after the row filter
    codes into the sorted labels the kept rows hold (_sorted_codes).
    """
    categorical = frozenset(categorical)
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)  # it reads no line past the header
            header, use = _csv_header(next(reader, None), used)
            ids = {c: {} for c in use if c in categorical}  # label -> id, first seen first
            parts = {c: [np.empty(0, dtype=np.uint8 if c in ids else float)] for c in use}
            total = 0
            for rows, values in _chunks(fh, reader.line_num, header, list(parts), ids):
                total += rows
                for c, v in zip(parts, values):
                    parts[c].append(_label_ids(v, ids[c]) if c in ids else v)
    except UnicodeDecodeError:  # offsets count within a chunk; read_text raises at the file's
        read_text(path, "CSV")
        raise
    except csv.Error as e:  # in the header; _chunks reports the body's
        raise ParseError(f"invalid CSV file: {e} (line {reader.line_num})") from None

    # pop frees each column's parts before the next column is joined
    columns = {c: np.concatenate(parts.pop(c)) for c in list(parts)}
    keep = np.ones(len(columns[use[0]]) if use else 0, dtype=bool)
    for c, col in columns.items():
        # an empty cell is the label ""; float() parses "nan" and "inf"
        keep &= col != ids[c].get("", -1) if c in ids else np.isfinite(col)
    n = int(keep.sum())
    if n < len(keep):
        columns = {c: v[keep] for c, v in columns.items()}
    labels = {}
    for c, label_ids in ids.items():
        columns[c], labels[c] = _sorted_codes(columns[c], list(label_ids))
    dropped = total - n
    warnings = []
    if dropped:
        warnings.append(
            f"dropped {dropped} of {total} rows with missing, unparseable or non-finite cells"
        )
    return Dataset(columns, n, labels), warnings


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


def _chunks(fh, line0, header, use, categorical):
    """(row count, one value sequence per column of use) of each chunk of
    the CSV body left in fh, after line0 lines of the file.

    A categorical column's values are its raw cells, a numeric column's
    a float array with NaN where a cell does not parse.
    """
    width = len(header)
    usecols = [header.index(c) for c in use]
    getters = list(zip(use, map(itemgetter, usecols)))
    kinds = [object if c in categorical else float for c in use]
    if width - 1 not in usecols:  # then loadtxt refuses a short row
        usecols.append(width - 1)
        kinds.append(object)
    dtype = np.dtype([(f"f{i}", k) for i, k in enumerate(kinds)])
    try:
        while lines := list(islice(fh, CHUNK_ROWS)):
            text = "".join(lines)
            if '"' in text:
                reader = csv.reader(chain(lines, fh))
                break
            values = _loadtxt_values(lines, text, width, dtype, usecols, len(use))
            if values is None:
                reader = csv.reader(lines)
                values = _row_values(reader, width, getters, categorical)
            yield len(lines), values
            line0 += len(lines)
        else:
            return
        while rows := list(islice(reader, CHUNK_ROWS)):
            yield len(rows), _row_values(rows, width, getters, categorical)
    except csv.Error as e:  # a field past csv.field_size_limit(), as from an unclosed quote
        raise ParseError(f"invalid CSV file: {e} (line {line0 + reader.line_num})") from None


def _loadtxt_values(lines, text, width, dtype, usecols, n_used):
    """The values of a chunk without quotes, parsed by np.loadtxt, or None
    when the chunk is not clean.

    Clean means no NUL (csv.reader refuses it before Python 3.11, and
    numpy's str dtype drops it at the end of a string), no line past
    csv.field_size_limit(), width - 1 commas a line on average, and
    loadtxt taking every line as a row. loadtxt reads the last column
    too, so a short row makes it raise, and a long row with no short one
    breaks the comma count; it skips blank lines, which csv.reader
    returns as rows.
    """
    limit = csv.field_size_limit()
    if (
        "\0" in text
        or text.count(",") != (width - 1) * len(lines)
        or len(text) > limit and max(map(len, lines)) > limit
    ):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data": blank lines
        try:
            table = np.loadtxt(
                lines, dtype=dtype, delimiter=",", comments=None, usecols=usecols, ndmin=1
            )
        except ValueError:
            return None
    if len(table) != len(lines):
        return None
    # a float field is copied, so that no part keeps the chunk's table alive
    fields = [table[name] for name in dtype.names[:n_used]]
    return [f.tolist() if f.dtype == object else f.copy() for f in fields]


def _row_values(rows, width, getters, categorical):
    """The values of csv rows: a row that is not `width` cells long drops
    out, categorical cells stay raw and numeric ones go through float()."""
    whole = [row for row in rows if len(row) == width]
    values = []
    for c, cell_of in getters:
        cells = list(map(cell_of, whole))
        values.append(cells if c in categorical else _parse_floats(cells))
    return values


def _label_ids(cells, ids):
    """Each stripped cell's id in ids, a label -> id dict that gives a new
    label the next id; each distinct cell is stripped once."""
    canon = {cell: ids.setdefault(cell.strip(), len(ids)) for cell in set(cells)}
    return np.fromiter(map(canon.__getitem__, cells), dtype=_code_dtype(len(ids)), count=len(cells))


def _sorted_codes(ids, names):
    """(codes, labels) of a column of ids into names: the labels the rows
    hold, sorted, and each row's position among them."""
    counts = np.bincount(ids, minlength=len(names))
    held = sorted(np.flatnonzero(counts).tolist(), key=names.__getitem__)
    rank = np.zeros(len(names), dtype=_code_dtype(len(held)))
    rank[held] = np.arange(len(held))
    return rank[ids], [names[i] for i in held]


def _code_dtype(count):
    """The narrowest unsigned dtype that holds the codes 0 .. count - 1."""
    return np.min_scalar_type(max(count - 1, 0))


def _parse_floats(cells):
    """float() of every stripped cell, NaN where it fails (an empty cell
    included).

    A cell that float() parses as it stands has the value of its stripped
    text, so only the cells it refuses are stripped and tried again: on
    ASCII text float() skips no separator \\x1c-\\x1f, str.strip() does.
    """
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        out = np.empty(len(cells))
        for i, cell in enumerate(cells):
            try:
                out[i] = float(cell.strip())
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
        if p in data.labels:
            binning.append(None)
            continue
        col = data.column(p)
        distinct = np.unique(col)
        if len(distinct) <= BINS:
            binning.append((distinct[:-1] + distinct[1:]) / 2.0)
        else:
            qs = np.quantile(col, [i / BINS for i in range(1, BINS)])
            binning.append(np.unique(qs))
    return tuple(binning)


def _cell_groups(data: Dataset, node, parents, cfg: FitConfig):
    """Shared setup: y, binning, cell keys and the rows of each cell.

    A categorical parent's codes are its column, a binned parent's its
    bin indices from GuideTable(cuts, "right"), the lookup CellIndex
    samples with, in the narrowest unsigned dtype. One stable np.lexsort of
    the codes, first parent most significant, lists the rows cell by
    cell (numpy radix-sorts 8- and 16-bit keys); a cell starts wherever
    any code changes along it, and its key is read off its first row.
    Cells are ordered by discrete value and bin index, parent by parent,
    and each cell's rows are in data order.
    """
    if node in data.labels:
        raise _categorical_non_root(node)
    y = data.column(node)
    binning = parent_binning(data, parents)
    codes = [
        data.column(p) if b is None
        else GuideTable(b, "right")(data.column(p)).astype(_code_dtype(len(b) + 1))
        for p, b in zip(parents, binning)
    ]
    order = np.lexsort(codes[::-1])
    start = np.zeros(data.n, dtype=bool)
    start[0] = True
    for c in codes:
        c = c[order]
        start[1:] |= c[1:] != c[:-1]
    first = np.flatnonzero(start)
    counts = np.diff(first, append=data.n)
    # canon_value renders a label's integer code as fit_root's float value for that label
    keys = [cell_key(binning, [c[i] for c in codes]) for i in order[first]]
    for key, cnt in zip(keys, counts):
        if cnt < cfg.min_cell:
            raise FitError(
                f"node {node!r}: cell {key!r} has {cnt} rows (min_cell is {cfg.min_cell})"
            )
    return y, binning, keys, np.split(order, first[1:])


def _residuals(y, rows, seed):
    """Cross-fitted residuals: each row against the mean of the other fold
    of its cell. Folds alternate within each cell along a seeded
    permutation, so both are nonempty in any cell of >= 2 rows.

    rows holds each cell's row indices in increasing order.
    """
    rank = np.empty(len(y), dtype=_code_dtype(len(y)))
    rank[aux_generator(seed, "folds").permutation(len(y))] = np.arange(len(y), dtype=rank.dtype)
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
    if node not in data.labels:
        return RootEmpirical(node, np.asarray(data.column(node), dtype=float))
    labels = data.labels[node]
    probs = np.bincount(data.column(node), minlength=len(labels)) / data.n
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
    if outcome in data.labels:
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
    """Parse a DAG config: nodes, parents, outcome, categorical columns.

    A cycle (CycleError, from Dag) and a categorical node with parents
    (FitError) are refused here, before any CSV is read.
    """
    dag, outcome, _ = graph_from_json(obj, "DAG", ("name",))
    categorical = json_list(obj.get("categorical", []), "DAG 'categorical'")
    categorical = frozenset(str(c) for c in categorical)
    unknown = categorical - set(dag.names)
    if unknown:
        raise ModelError(f"categorical lists unknown columns: {', '.join(sorted(unknown))}")
    if outcome in categorical:
        raise ModelError("outcome cannot be categorical")
    for n, ps in zip(dag.names, dag.parents):
        if ps and n in categorical:
            raise _categorical_non_root(n)
    return dag, outcome, categorical


def _categorical_non_root(node):
    return FitError(f"node {node!r} is categorical; only roots may be categorical")


def read_dag(path):
    return dag_from_json(read_json(path, "DAG"))
