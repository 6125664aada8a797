"""Compiled cell lookups against the reference path they replace.

The reference groups parent rows with np.unique(axis=0), renders each
distinct row's string key and runs np.interp once per cell. The compiled
path (scm.CellIndex with QuantileTable's gather, and cell-table
ParentFn) must give the same output bytes and, for an unseen cell, the
same ModelError message.
"""

import json
import os

import numpy as np
import pytest

from xfvar import mc, rng
from xfvar.cli import main
from xfvar.errors import ModelError
from xfvar.scm import (
    DENSE_CELL_IDS,
    GuideTable,
    ParentFn,
    QuantileTable,
    RootCategorical,
    canon_value,
    model_from_json,
)


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


@pytest.mark.parametrize("cells", [{"": 1.5, "x": 9.0}, {"x": 9.0, "": 1.5}])
def test_table_with_no_parents_matches_only_the_empty_key(cells):
    fn = ParentFn("S", (), cells=cells)
    assert fn((), 3).tolist() == [1.5, 1.5, 1.5]
    assert fn.to_json() == {"cells": {"": 1.5, "x": 9.0}}


def test_table_with_no_parents_and_no_empty_key_has_no_cell(tmp_path, capsys):
    with pytest.raises(ModelError, match="'S': no cell for parent values ''"):
        ParentFn("S", (), cells={"x": 9.0})((), 3)
    model = {"outcome": "Y", "nodes": [{"name": "Y", "parents": [], "mechanism": {
        "kind": "hetero_gaussian", "mean": {"cells": {"x": 1.5}}, "std": {"expr": "1"}}}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    assert main(["counterfactual", "--model", str(path), "--samples", "200"]) == 2
    assert "node 'Y': no cell for parent values ''" in capsys.readouterr().err


# S takes 0, 1 or 2 and B's bin is b0 below 0, b1 up to 0.9999999 and b2
# above. The block_0 tables lack the cells 1|b1 and 2|b0, which block 0's
# base draws reach. The last_block tables hold every b0 and b1 cell, and
# only B = 1, set on one row of the last block, reaches a b2 cell: at two
# workers that block is in the child's share.
UNSEEN_KEYS = {
    "block_0": ("0|b0", "0|b1", "1|b0", "2|b1"),
    "last_block": tuple(f"{s}|b{b}" for s in range(3) for b in range(2)),
}


def _unseen_table(kind, keys):
    binning = [None, [0.0, 0.9999999]]
    if kind == "quantile_table":
        return {"kind": kind, "levels": [0.25, 0.75], "binning": binning,
                "cells": {k: [float(i), i + 1.0] for i, k in enumerate(keys)}}
    return {"kind": kind, "std": {"expr": "1"},
            "mean": {"cells": {k: float(i) for i, k in enumerate(keys)}, "binning": binning}}


@pytest.mark.parametrize("where", UNSEEN_KEYS)
@pytest.mark.parametrize("kind", ["quantile_table", "hetero_gaussian"])
def test_unseen_cell_in_the_plan_gives_the_node_loop_message(kind, where, tmp_path, capsys,
                                                             monkeypatch):
    obj = {"outcome": "Y", "nodes": [
        {"name": "S", "parents": [], "mechanism": {
            "kind": "root_categorical", "values": [0.0, 1.0, 2.0], "probs": [0.3, 0.3, 0.4]}},
        {"name": "B", "parents": [], "mechanism": {"kind": "root_uniform", "low": -1.0, "high": 1.0}},
        {"name": "X", "parents": ["S", "B"], "mechanism": _unseen_table(kind, UNSEEN_KEYS[where])},
        {"name": "Y", "parents": ["X", "B"], "mechanism": {"kind": "deterministic", "expr": "X + B"}},
    ]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    samples = 2 * rng.BLOCK_LEN + 100
    block = 0
    if where == "last_block":
        block, draw = 2, rng.uniform_block

        def spiked(seed, block_index, n_vars):
            out = draw(seed, block_index, n_vars)
            if block_index == block:
                out[7, 1, 0] = 1.0 - 1e-9
            return out

        monkeypatch.setattr(rng, "uniform_block", spiked)
    # the node loop on the block's base noise, which the plan's first hybrid reads
    with pytest.raises(ModelError) as info:
        noise = rng.uniform_block(4, block, 4)[: samples - block * rng.BLOCK_LEN, :, 0]
        model_from_json(obj).outcome_values(noise)
    assert "no cell for parent values" in str(info.value)
    argv = ["counterfactual", "--model", str(path), "--samples", str(samples), "--seed", "4"]
    for workers in (1, 2) if hasattr(os, "fork") else (1,):
        monkeypatch.setattr(mc, "_max_workers", lambda: workers)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error[E02]: {info.value}\n"


def test_non_canonical_key_does_not_hide_its_canonical_neighbour():
    # "1.0000000000001" renders as "1", so no value reaches it; the
    # value 1.0 still finds the key "1"
    fn = ParentFn("T", ("D",), cells={"1": 5.0, "1.0000000000001": 6.0})
    d = np.array([1.0, 1.0000000000001, 1.0 + 1e-14])
    assert fn((d,), 3).tolist() == [5.0, 5.0, 5.0]
    assert_same(lambda: fn((d,), 3), lambda: reference_parent_fn(fn, (d,), 3))


def test_cell_id_overflow_rejected_at_load():
    names = tuple(f"P{i}" for i in range(7))
    cells = {"|".join([str(i)] * 7): [float(i)] for i in range(600)}
    with pytest.raises(ModelError, match="'Q'.*overflow int64"):
        QuantileTable("Q", names, (0.5,), cells)
    with pytest.raises(ModelError, match="'Q'.*overflow int64"):
        ParentFn("Q", names, cells={k: g[0] for k, g in cells.items()})


# ---------------------------------------------------------------------------
# Guide tables against np.searchsorted, the search they replace


def _edge_keys(points, extra=()):
    """Every point, its float neighbours on both sides, and extra keys."""
    pts = np.asarray(points, dtype=float)
    return np.concatenate(
        [pts, np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf), np.asarray(extra, dtype=float)]
    )


SPECIAL = (0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324, -1e300, 1e300, -np.inf, np.inf, np.nan)

TABLES = {
    "levels": [round(0.01 + 0.02 * i, 2) for i in range(50)],
    "crowded": [0.5 + i * 1e-12 for i in range(40)] + [0.75],
    "unit_ends": [5e-324, 0.25, 1.0 - 2**-53],
    "tied_cum": [0.0, 0.0, 0.3, 0.3, 0.3, 0.7, 1.0, 1.0],
    "cut_points": [-1.0, 0.0, 2.5],
    "far_outside_unit": [-1e300, -5.0, 1e6, 1e300],
    "range_overflows": [-1.7e308, 0.0, 1.7e308],
    "subnormal_range": [0.0, 5e-324, 1e-323],
    "huge_offset": [1e15, 1e15 + 1, 1e15 + 2, 1e15 + 64],
    "all_equal": [3.0, 3.0, 3.0],
    "one": [-7.25],
    "one_level": [0.5],
    "empty": [],
    "crowded_and_wide": [0.0] + [1.0 + i * 1e-9 for i in range(30)] + [1e9],
}


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("side", ["left", "right"])
def test_guide_table_matches_searchsorted(name, side):
    points = np.array(TABLES[name], dtype=float)
    table = GuideTable(points, side)
    # key x*scale - offset = k lands on the lower edge of bucket k
    k = np.arange(len(table._start), dtype=float)
    with np.errstate(over="ignore"):
        edges = (k + table._offset) / table._scale
    rs = np.random.default_rng(11)
    lo, hi = (points[0], points[-1]) if len(points) else (-1.0, 1.0)
    spread = rs.uniform(-1.0, 1.0, 5000) * (hi / 2 - lo / 2) + (hi / 2 + lo / 2)
    keys = _edge_keys(
        points,
        np.concatenate([SPECIAL, _edge_keys(edges), spread, rs.random(5000), rs.standard_normal(2000) * 1e3]),
    )
    want = np.searchsorted(points, keys, side=side)
    got = table(keys)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _searchsorted_sample(qt, e, parents):
    """QuantileTable.sample with the level search done by np.searchsorted."""
    levels = qt.levels
    j = np.maximum(np.searchsorted(levels, e, side="right") - 1, 0)
    at = qt.run(qt._offsets, e, parents) + j
    g0 = qt._grid[at]
    d = e - levels[j]
    out = qt._slope[at] * d + g0
    np.copyto(out, g0, where=(d <= 0) | (e >= levels[-1]))
    return out


def test_noise_on_bucket_edges_and_special_values_keeps_the_bytes():
    qt, fn = _both_tables(FULL)
    search = qt._search
    edges = (np.arange(len(search._start)) + search._offset) / search._scale
    e = _edge_keys(LEVELS, np.concatenate([_edge_keys(edges), [0.0, -0.0, 1.0]]))
    e = e[(e >= 0) & (e <= 1)]
    rs = np.random.default_rng(13)
    p = _parents(rs.choice([-2.0, 0.0, 1.0, 3.5], size=len(e)), rs.uniform(-3.0, 4.0, size=len(e)))
    _check(qt, fn, e, p)
    assert qt.sample(e, p).tobytes() == _searchsorted_sample(qt, e, p).tobytes()


@pytest.mark.parametrize("levels", [(0.5,), LEVELS])
def test_nan_noise_gives_the_searchsorted_bytes(levels):
    cells = {"0": [7.0] * len(levels), "1": [-1.0 + 0.5 * i for i in range(len(levels))]}
    qt = QuantileTable("S", ("D",), levels, cells)
    e = np.array([np.nan, 0.5, np.nan, 0.0, 1.0, -np.nan])
    p = (np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0]),)
    got = qt.sample(e, p)
    assert got.tobytes() == _searchsorted_sample(qt, e, p).tobytes()
    assert np.isnan(got[[0, 2, 5]]).all()


def test_root_categorical_with_tied_cum_values():
    # zero-probability categories repeat a cum value; none may be drawn
    cat = RootCategorical("C", [10.0, 11.0, 12.0, 13.0, 14.0], [0.25, 0.0, 0.5, 0.0, 0.25])
    cum = np.cumsum(cat.probs)
    cum[-1] = 1.0
    e = _edge_keys(cum, np.concatenate([SPECIAL, np.arange(17) / 16]))
    e = np.concatenate([e[(e >= 0) & (e <= 1)], [np.nan]])
    e = np.concatenate([e, np.random.default_rng(14).random(10000)])
    want = cat.values[np.clip(np.searchsorted(cum, e, side="left"), 0, len(cum) - 1)]
    got = cat.sample(e, ())
    assert got.tobytes() == want.tobytes()
    assert not np.isin(got[np.isfinite(e)], [11.0, 13.0]).any()


def test_root_categorical_whose_probs_sum_past_one():
    # the cumulative sum overshoots 1 before the last entry is set to 1
    cat = RootCategorical("C", [0.0, 1.0, 2.0], [0.6, 0.4 + 5e-10, 0.0])
    cum = np.cumsum(cat.probs)
    cum[-1] = 1.0
    e = np.concatenate([_edge_keys(cum, [0.0, 1.0, 0.6, 0.99]), [np.nan]])
    e = e[~(e > 1)]
    want = cat.values[np.clip(np.searchsorted(cum, e, side="left"), 0, 2)]
    assert cat.sample(e, ()).tobytes() == want.tobytes()


def test_discrete_parent_named_infinite_and_nan_values():
    cells = {"-inf": 1.0, "-1": 2.0, "0": 3.0, "2.5": 4.0, "inf": 5.0, "nan": 6.0}
    fn = ParentFn("T", ("D",), cells=cells)
    d = np.array([-np.inf, -1.0, -0.0, 0.0, 2.5, np.inf, np.nan, 2.5 + 1e-14, -1.0 - 1e-14])
    assert fn((d,), len(d)).tolist() == [1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0, 4.0, 2.0]
    assert_same(lambda: fn((d,), len(d)), lambda: reference_parent_fn(fn, (d,), len(d)))


@pytest.mark.parametrize("bad", [[1.0, 0.0], [0.0, np.nan], [np.inf], [[0.0, 1.0]]])
def test_cut_points_must_be_finite_and_non_decreasing(bad):
    with pytest.raises(ModelError, match="'T': binning of parent 1"):
        ParentFn("T", ("D", "B"), cells={"0|b0": 1.0}, binning=(None, bad))


def _wide_tables(n_cuts):
    """Two-parent tables whose id space is 4 * (n_cuts + 1) cells."""
    cuts = np.arange(n_cuts, dtype=float)
    cells = {f"{d}|b{b}": float(10 * d + b) for d in (0, 1, 2) for b in (0, 1, 7, n_cuts)}
    fn = ParentFn("W", ("D", "B"), cells=cells, binning=(None, cuts))
    qt = QuantileTable("W", ("D", "B"), (0.5,), {k: [v] for k, v in cells.items()}, binning=(None, cuts))
    return fn, qt


@pytest.mark.parametrize("n_cuts, dense", [((1 << 14) - 1, True), (1 << 14, False)])
def test_dense_and_sorted_id_paths_agree(n_cuts, dense):
    fn, qt = _wide_tables(n_cuts)
    size = 4 * (n_cuts + 1)
    assert (size <= DENSE_CELL_IDS) == dense
    assert (fn.index._pos_of_id is not None) == dense
    d = np.array([0.0, 1.0, 2.0, 2.0, 0.0, 1.0])
    b = np.array([-5.0, 0.5, 6.0, 6.99, n_cuts + 3.0, 1e9])
    p = _parents(d, b)
    _check(qt, fn, np.full(len(d), 0.5), p)
    assert fn(p, len(d)).tolist() == [0.0, 11.0, 27.0, 27.0, float(n_cuts), 10.0 + n_cuts]
    # an unseen bin, and an unseen discrete value: the same message either way
    for bad in (_parents([0.0, 1.0], [3.0, 2.0]), _parents([5.0, 0.0], [0.0, 0.0])):
        _check(qt, fn, np.full(2, 0.5), bad)
        with pytest.raises(ModelError, match="no cell for parent values"):
            fn(bad, 2)


def test_counterfactual_on_cell_tables_calls_no_searchsorted(tmp_path, monkeypatch):
    model = {
        "outcome": "Y",
        "nodes": [
            {"name": "S", "parents": [], "mechanism": {
                "kind": "root_categorical", "values": [0.0, 1.0, 2.0], "probs": [0.2, 0.0, 0.8]}},
            {"name": "X", "parents": ["S"], "mechanism": {
                "kind": "quantile_table", "levels": [0.25, 0.5, 0.75],
                "cells": {"0": [0.0, 1.0, 2.0], "1": [5.0, 5.0, 5.0], "2": [1.0, 3.0, 4.0]}}},
            {"name": "Y", "parents": ["S", "X"], "mechanism": {
                "kind": "hetero_gaussian",
                "mean": {"cells": {f"{s}|b{b}": float(s + b) for s in (0, 1, 2) for b in (0, 1, 2)},
                         "binning": [None, [1.0, 2.5]]},
                "std": {"expr": "0.5"}}},
        ],
    }
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(model))
    calls = []
    real = np.searchsorted

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    # the patch sees the sorted-id search of a wide table
    wide, _ = _wide_tables(1 << 14)
    wide(_parents([0.0], [0.5]), 1)
    assert len(calls) == 1
    calls.clear()
    out = tmp_path / "r.json"
    assert main(["counterfactual", "--model", str(path), "--samples", "20000", "--out", str(out)]) == 0
    assert main(["counterfactual", "--model", str(path), "--subset", "X", "--samples", "9000",
                 "--out", str(tmp_path / "x.txt")]) == 0
    assert calls == []
    assert json.loads(out.read_text())["variables"] == ["S", "X", "Y"]
