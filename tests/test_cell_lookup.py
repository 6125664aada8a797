"""Compiled cell lookups against the reference path they replace.

The reference groups parent rows with np.unique(axis=0), renders each
distinct row's string key and runs np.interp once per cell. The compiled
path (scm.CellIndex with QuantileTable's gather, and cell-table
ParentFn) must give the same output bytes and, for an unseen cell, the
same ModelError message.
"""

import numpy as np
import pytest

from xfvar.errors import ModelError
from xfvar.scm import ParentFn, QuantileTable, canon_value


class ReferenceKeyer:
    """Maps parent-value rows to canonical cell keys by grouping rows."""

    def __init__(self, binning):
        self.binning = binning

    def codes(self, parents, n_rows):
        cols = []
        for b, col in zip(self.binning, parents):
            cols.append(col if b is None else np.searchsorted(b, col, side="right").astype(float))
        return np.column_stack(cols) if cols else np.zeros((n_rows, 0))

    def render(self, code_row):
        parts = []
        for j, b in enumerate(self.binning):
            v = code_row[j]
            parts.append(canon_value(v) if b is None else "b%d" % int(v))
        return "|".join(parts)

    def group(self, parents, n_rows):
        codes = self.codes(parents, n_rows)
        if codes.shape[1] == 0:
            return np.zeros((1, 0)), np.zeros(n_rows, dtype=np.intp)
        uniq, inv = np.unique(codes, axis=0, return_inverse=True)
        return uniq, inv.ravel()


def reference_quantile_sample(qt, e, parents):
    keyer = ReferenceKeyer(qt.index.binning)
    uniq, inv = keyer.group(parents, len(e))
    out = np.empty(len(e))
    for i, row in enumerate(uniq):
        key = keyer.render(row)
        grid = qt.cells.get(key)
        if grid is None:
            raise ModelError(f"node {qt.node!r}: no cell for parent values {key!r}")
        sel = inv == i
        out[sel] = np.interp(e[sel], qt.levels, grid)
    return out


def reference_parent_fn(fn, parents, n_rows):
    keyer = ReferenceKeyer(fn.index.binning)
    uniq, inv = keyer.group(parents, n_rows)
    vals = np.empty(len(uniq))
    for i, row in enumerate(uniq):
        key = keyer.render(row)
        if key not in fn.cells:
            raise ModelError(f"node {fn.node!r}: no cell for parent values {key!r}")
        vals[i] = fn.cells[key]
    return vals[inv]


def _outcome(call):
    try:
        return "ok", call().tobytes()
    except ModelError as err:
        return "error", str(err)


def assert_same(fast, ref):
    got, want = _outcome(fast), _outcome(ref)
    assert got == want


# a discrete parent D and a binned parent B (cut points -1, 0, 2.5)
EDGES = (-1.0, 0.0, 2.5)
LEVELS = (0.1, 0.25, 0.5, 0.75, 0.9)


def _table(cells, levels=LEVELS, binning=(None, EDGES)):
    return QuantileTable("T", ("D", "B"), levels, cells, binning=binning)


def _grid(base, flat=False):
    if flat:
        return [base, base, base + 1.0, base + 1.0, base + 1.0]
    return [base + 0.3 * i + 0.01 * i * i for i in range(len(LEVELS))]


FULL = {
    f"{canon_value(d)}|b{b}": _grid(10.0 * d + b, flat=(b == 2))
    for d in (-2.0, 0.0, 1.0, 3.5)
    for b in range(len(EDGES) + 1)
}


def _parents(d, b):
    return np.asarray(d, dtype=float), np.asarray(b, dtype=float)


def _both_tables(cells):
    qt = _table(cells)
    fn = ParentFn("T", ("D", "B"), cells={k: g[0] for k, g in cells.items()}, binning=(None, EDGES))
    return qt, fn


def _check(qt, fn, e, parents):
    assert_same(lambda: qt.sample(e, parents), lambda: reference_quantile_sample(qt, e, parents))
    n = len(e)
    assert_same(lambda: fn(parents, n), lambda: reference_parent_fn(fn, parents, n))


def test_levels_ends_and_random_draws():
    qt, fn = _both_tables(FULL)
    rs = np.random.default_rng(4)
    e = np.concatenate([LEVELS, [0.0, 0.05, 0.95, 0.999999, 1.0], rs.random(20000)])
    n = len(e)
    d = rs.choice([-2.0, 0.0, 1.0, 3.5], size=n)
    b = rs.uniform(-3.0, 4.0, size=n)
    _check(qt, fn, e, _parents(d, b))
    # every level in every cell
    for key in FULL:
        dv, bv = key.split("|")
        bval = (-2.0, -0.5, 1.0, 3.0)[int(bv[1:])]
        p = _parents(np.full(len(LEVELS), float(dv)), np.full(len(LEVELS), bval))
        _check(qt, fn, np.array(LEVELS), p)


def test_single_level_and_flat_and_signed_zero_grids():
    single = QuantileTable("S", ("D",), (0.5,), {"0": [7.0], "1": [-0.0]})
    e = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 0.5, 0.0, 1.0])
    p = (np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]),)
    assert_same(lambda: single.sample(e, p), lambda: reference_quantile_sample(single, e, p))
    zeros = QuantileTable("Z", ("D",), (0.2, 0.4, 0.6), {"0": [-0.0, -0.0, 0.0], "1": [-1.0, -0.0, -0.0]})
    e = np.array([0.0, 0.2, 0.3, 0.4, 0.5, 0.6, 0.9] * 2)
    p = (np.repeat([0.0, 1.0], 7),)
    got = zeros.sample(e, p)
    assert got.tobytes() == reference_quantile_sample(zeros, e, p).tobytes()
    assert np.signbit(got[0]) and np.signbit(got[7 + 5])


def test_binned_values_on_cut_points_and_past_the_edges():
    qt, fn = _both_tables(FULL)
    b = np.array([-1.0, 0.0, 2.5, np.nextafter(-1.0, -2), np.nextafter(2.5, 3), -1e300, 1e300, -np.inf, np.inf])
    d = np.full(len(b), 1.0)
    _check(qt, fn, np.linspace(0.0, 1.0, len(b)), _parents(d, b))


def test_signed_zero_and_near_key_discrete_values():
    qt, fn = _both_tables(FULL)
    d = np.array([-0.0, 0.0, 1.0 + 1e-14, 1.0 - 1e-14, 3.5 * (1 + 1e-13), -2.0 + 4e-15])
    b = np.zeros(len(d))
    _check(qt, fn, np.full(len(d), 0.3), _parents(d, b))
    # the values resolve to their keys' cells
    assert np.all(fn(_parents(d, b), len(d)) == [FULL[k][0] for k in ("0|b2", "0|b2", "1|b2", "1|b2", "3.5|b2", "-2|b2")])


@pytest.mark.parametrize("key", ["1.0", "-0", "b4|1", "1|b4", "1|b01", "1|B1", "1|b-1", "1", "1|b1|0", "x|b1"])
def test_unreachable_keys_never_match_and_stay_in_json(key):
    cells = {key: _grid(1.0), "2|b0": _grid(2.0)}
    qt, fn = _both_tables(cells)
    assert key in qt.to_json()["cells"] and key in fn.to_json()["cells"]
    # rows that a careless parser would send to the unreachable key
    d = np.array([1.0, 1.0, 1.0, 0.0, -0.0])
    b = np.array([5.0, 0.0, -5.0, 0.0, 0.0])
    p = _parents(d, b)
    _check(qt, fn, np.full(len(d), 0.5), p)
    with pytest.raises(ModelError, match="no cell"):
        qt.sample(np.full(len(d), 0.5), p)
    # the reachable cell still gets its own grid
    p = _parents([2.0, 2.0], [-2.0, -1.5])
    _check(qt, fn, np.array([0.3, 0.6]), p)
    assert np.all(fn(p, 2) == 2.0)


def test_unseen_cell_message_names_the_smallest_missing_row():
    partial = {k: g for k, g in FULL.items() if k not in ("1|b1", "-2|b3", "3.5|b0")}
    qt, fn = _both_tables(partial)
    rs = np.random.default_rng(9)
    d = rs.choice([-2.0, 0.0, 1.0, 3.5, 7.0, -0.0], size=400)
    b = rs.uniform(-3.0, 4.0, size=400)
    for size in (400, 60, 7, 1):
        _check(qt, fn, rs.random(size), _parents(d[:size], b[:size]))
    # missing rows beyond one another in value: 7.0 is never a key
    _check(qt, fn, np.full(3, 0.5), _parents([7.0, 1.0, 3.5], [0.0, -0.5, -2.0]))
    _check(qt, fn, np.full(3, 0.5), _parents([7.0, 1.0 + 1e-14, 3.5], [0.0, -0.5, -2.0]))


def test_cell_id_overflow_rejected_at_load():
    names = tuple(f"P{i}" for i in range(7))
    cells = {"|".join([str(i)] * 7): [float(i)] for i in range(600)}
    with pytest.raises(ModelError, match="'Q'.*overflow int64"):
        QuantileTable("Q", names, (0.5,), cells)
    with pytest.raises(ModelError, match="'Q'.*overflow int64"):
        ParentFn("Q", names, cells={k: g[0] for k, g in cells.items()})
