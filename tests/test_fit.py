import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from xfvar import fit as fit_module
from xfvar.cli import main
from xfvar.errors import FitError, ModelError, ParseError
from xfvar.fit import (
    BINS,
    DEFAULT_LEVELS,
    Dataset,
    FitConfig,
    dag_from_json,
    fit_model,
    fit_quantile_grid,
    fit_root,
    parent_binning,
    read_csv,
)
from xfvar.mc import EstimatorConfig
from xfvar.scm import Dag, cell_key, counterfactual_total, empirical_quantile, write_model


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(str(x) for x in r) + "\n")


def _model2_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    w1 = rng.choice([-1.0, 1.0], size=n)
    w2 = w1 + rng.choice([-1.0, 1.0], size=n)
    return Dataset({"W1": w1, "W2": w2, "Y": w2.copy()}, n)


CHAIN = Dag(("W1", "W2", "Y"), ((), ("W1",), ("W2",)))


def test_fit_config_defaults_and_validation():
    cfg = FitConfig()
    assert cfg.levels == DEFAULT_LEVELS
    assert len(DEFAULT_LEVELS) == 50
    assert DEFAULT_LEVELS[0] == 0.01 and DEFAULT_LEVELS[-1] == 0.99
    assert cfg.min_cell == 20 and BINS == 10
    with pytest.raises(FitError):
        FitConfig(levels=(0.5, 0.5))
    with pytest.raises(FitError):
        FitConfig(levels=(0.0, 0.5))
    with pytest.raises(FitError):
        FitConfig(method="nope")
    with pytest.raises(FitError):
        FitConfig(min_cell=0)


def test_read_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["a", "b"], [[1, 2.5], [3, 4.5]])
    data, warnings = read_csv(p)
    assert data.n == 2
    assert list(data.column("a")) == [1.0, 3.0]
    assert not warnings


def test_read_csv_drops_bad_rows(tmp_path):
    p = tmp_path / "d.csv"
    with open(p, "w") as fh:
        fh.write("a,b\n1,2\n,3\nx,4\n5,6\n")
    data, warnings = read_csv(p, used=("a", "b"))
    assert data.n == 2
    assert list(data.column("a")) == [1.0, 5.0]
    assert len(warnings) == 1 and "2" in warnings[0]


def test_read_csv_drops_non_finite_rows(tmp_path):
    # float() parses these; a categorical label "nan" and an unused column stay
    p = tmp_path / "d.csv"
    with open(p, "w") as fh:
        fh.write("sex,a,b,junk\nF,1,2,nan\nM,nan,3,x\nF,4,inf,x\nnan,5,6,x\nF,-Infinity,1,x\nM,7,8,x\n")
    data, warnings = read_csv(p, categorical=("sex",), used=("sex", "a", "b"))
    assert data.n == 3
    assert list(data.column("a")) == [1.0, 5.0, 7.0]
    assert list(data.column("b")) == [2.0, 6.0, 8.0]
    assert decoded(data, "sex") == ["F", "nan", "M"]
    assert warnings == ["dropped 3 of 6 rows with missing, unparseable or non-finite cells"]


def decoded(data, name):
    """The labels of a categorical column's rows."""
    return [data.labels[name][i] for i in data.column(name).tolist()]


def reference_read_csv(path, categorical=(), used=None):
    """The row-by-row reader that read_csv's column-wise parse replaced.
    Its categorical columns hold the stripped cells, as strings."""
    categorical = frozenset(categorical)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    header = [h.strip() for h in header]
    use = list(header) if used is None else [str(c) for c in used]
    pos = {c: header.index(c) for c in use}
    kept = {c: [] for c in use}
    dropped = 0
    for row in rows:
        if len(row) != len(header):
            dropped += 1
            continue
        vals = {}
        ok = True
        for c in use:
            cell = row[pos[c]].strip()
            if cell == "":
                ok = False
                break
            if c in categorical:
                vals[c] = cell
            else:
                try:
                    vals[c] = float(cell)
                except ValueError:
                    ok = False
                    break
        if not ok:
            dropped += 1
            continue
        for c in use:
            kept[c].append(vals[c])
    n = len(next(iter(kept.values()))) if use else 0
    columns = {
        c: (np.array(kept[c], dtype=object) if c in categorical else np.array(kept[c], dtype=float))
        for c in use
    }
    numeric = [columns[c] for c in use if c not in categorical]
    if numeric:
        finite = np.logical_and.reduce([np.isfinite(v) for v in numeric])
        if not finite.all():
            columns = {c: v[finite] for c, v in columns.items()}
            n_finite = int(finite.sum())
            dropped += n - n_finite
            n = n_finite
    warnings = []
    if dropped:
        warnings.append(
            f"dropped {dropped} of {len(rows)} rows with missing, unparseable or non-finite cells"
        )
    return Dataset(columns, n), warnings


def reference_numeric_codes(col):
    """Each string's rank among the column's sorted distinct strings."""
    labels = sorted(set(col.tolist()))
    code = {lab: i for i, lab in enumerate(labels)}
    return np.array([code[v] for v in col.tolist()], dtype=np.intp)


DIRTY_CSV = (
    " sex , a ,b,junk\n"
    "F,1,2,x\n"
    "M,3\n"  # short row
    "F,4,5,x,extra\n"  # long row
    "M,,6,x\n"  # empty cell
    "F,   ,6,x\n"  # blank cell
    " ,7,8,x\n"  # blank label
    "F,abc,9,x\n"
    "M,nan,10,x\n"
    "F,11,inf,x\n"
    "M,-Infinity,12,x\n"
    "F,1e999,13,x\n"
    " M ,  3.5 ,\t14\t,junk with, commas\n"
    "F,1_0,15,x\n"
    "M,\u00a016,17\u2003,x\n"
    "F,-0,4.9e-325,x\n"
    "nan,0x10,18,x\n"
    "nan,19,0.1000000000000000055511151231257827,x\n"
    "Z,20,21,\n"
)


@pytest.mark.parametrize(
    "categorical, used",
    [(("sex",), ("sex", "a", "b")), ((), ("a", "b")), (("sex", "junk"), None), (("sex",), ("b",))],
)
def test_read_csv_matches_the_row_loop_on_a_dirty_file(tmp_path, categorical, used):
    p = tmp_path / "dirty.csv"
    p.write_text(DIRTY_CSV, encoding="utf-8")
    got, got_warn = read_csv(p, categorical=categorical, used=used)
    want, want_warn = reference_read_csv(p, categorical=categorical, used=used)
    assert len(got_warn) == 1
    assert_same_dataset(got, got_warn, want, want_warn)


def test_read_csv_matches_the_row_loop_when_every_row_drops(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1\nx,2\n,3\n", encoding="utf-8")
    with pytest.raises(FitError, match="empty after filtering"):
        reference_read_csv(p)
    with pytest.raises(FitError, match="empty after filtering"):
        read_csv(p)


def assert_same_dataset(got, got_warn, want, want_warn):
    """read_csv's dataset against the reference's: numeric columns equal
    bit for bit, and each categorical column codes the reference's
    strings as their ranks among its sorted distinct strings."""
    assert got_warn == want_warn
    categorical = {name for name, col in want.columns.items() if col.dtype == object}
    assert (got.n, set(got.labels), list(got.columns)) == (want.n, categorical, list(want.columns))
    for name, col in want.columns.items():
        if name in categorical:
            assert decoded(got, name) == col.tolist()
            dtype = np.min_scalar_type(len(got.labels[name]) - 1)
            assert got.columns[name].dtype == dtype
            assert got.columns[name].tobytes() == reference_numeric_codes(col).astype(dtype).tobytes()
        else:
            assert got.columns[name].dtype == col.dtype
            assert got.columns[name].tobytes() == col.tobytes()


@pytest.mark.parametrize("shift", [0, 1, 2])
@pytest.mark.parametrize("categorical, used", [(("sex",), ("sex", "a", "b")), (("sex", "junk"), None)])
def test_read_csv_chunk_edges_match_the_row_loop(tmp_path, monkeypatch, shift, categorical, used):
    # three-row chunks; the shifts put each ragged, blank and non-finite
    # row first, in the middle and last in its chunk
    monkeypatch.setattr(fit_module, "CHUNK_ROWS", 3)
    header, body = DIRTY_CSV.split("\n", 1)
    p = tmp_path / "dirty.csv"
    p.write_text(header + "\n" + "F,1,2,x\n" * shift + body * 4, encoding="utf-8")
    got, got_warn = read_csv(p, categorical=categorical, used=used)
    want, want_warn = reference_read_csv(p, categorical=categorical, used=used)
    assert_same_dataset(got, got_warn, want, want_warn)
    assert len(got_warn) == 1 and f"of {18 * 4 + shift} rows" in got_warn[0]


def _fit_error(tmp_path, capsys, data):
    """The one error line of `fit` on CSV bytes data with columns A
    (categorical) and Y, after checking that it exits 2."""
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(data)
    dag = tmp_path / "dag.json"
    dag.write_text(json.dumps({"outcome": "Y", "nodes": [{"name": "A"}, {"name": "Y", "parents": ["A"]}],
                               "categorical": ["A"]}))
    try:
        code = main(["fit", "--data", str(csv_path), "--dag", str(dag), "--out", str(tmp_path / "m.json")])
    except SystemExit as e:
        code = int(e.code or 0)
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1, err
    return err


def test_read_csv_bad_byte_past_the_first_chunk_exits_2(tmp_path, monkeypatch, capsys):
    # past the first row chunk and the decoder's first block alike
    monkeypatch.setattr(fit_module, "CHUNK_ROWS", 3)
    data = b"A,Y\n" + b"a,1\nb,2\n" * 1500 + b"b,\xff2\n"
    err = _fit_error(tmp_path, capsys, data)
    assert err == f"error[E02]: invalid CSV file: not UTF-8 (at byte offset {len(data) - 3})\n"


def test_read_csv_unterminated_quote_past_the_first_chunk_exits_2(tmp_path, monkeypatch, capsys):
    # the quote opens in the third chunk and runs past csv.field_size_limit()
    monkeypatch.setattr(fit_module, "CHUNK_ROWS", 3)
    data = b"A,Y\n" + b"a,1\nb,2\n" * 4 + b'a,"1\n' + b"b,2\n" * 40000
    err = _fit_error(tmp_path, capsys, data)
    assert err.startswith("error[E02]: invalid CSV file: field larger than field limit")


def _csv_error_line(data):
    """The line number a plain csv.reader over all of data reports when
    it raises csv.Error."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    with pytest.raises(csv.Error):
        for _ in reader:
            pass
    return reader.line_num


@pytest.mark.parametrize(
    "bad",
    [b'a,"1\n' + b"b,2\n" * 40000, b"a," + b"1" * 140_000 + b"\nb,2\n"],
    ids=["unterminated_quote", "long_unquoted_field"],
)
def test_read_csv_error_past_the_first_chunk_names_the_file_line(tmp_path, monkeypatch, capsys, bad):
    # the row reader starts mid-file, after three clean chunks
    monkeypatch.setattr(fit_module, "CHUNK_ROWS", 3)
    data = b"A,Y\n" + b"a,1\nb,2\n" * 4 + b"a,3\n" + bad
    err = _fit_error(tmp_path, capsys, data)
    line = _csv_error_line(data)
    assert line > 10
    assert err == f"error[E02]: invalid CSV file: field larger than field limit (131072) (line {line})\n"


def test_read_csv_error_in_the_header_names_line_1(tmp_path, capsys):
    data = b"A,Y," + b"x" * 140_000 + b"\na,1,0\n"
    err = _fit_error(tmp_path, capsys, data)
    assert err == "error[E02]: invalid CSV file: field larger than field limit (131072) (line 1)\n"


def _traced(fn, *args, **kwargs):
    """(fn's result, the peak bytes tracemalloc saw it allocate)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_csv_holds_one_chunk_and_one_string_per_label(tmp_path, monkeypatch):
    # tracing slows each read about tenfold, so the file is small and the
    # chunk shrinks with it
    monkeypatch.setattr(fit_module, "CHUNK_ROWS", 256)
    rows, labels = 10_000, (["female", "male"], ["asian", "black", "other", "white"])
    p = tmp_path / "big.csv"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("sex,race,x,y\n")
        fh.writelines(
            f"{labels[0][i % 2]},{labels[1][i % 4]},{i * 0.37:.6f},{i % 101}\n" for i in range(rows)
        )
    cat = ("sex", "race")
    (data, warnings), ours = _traced(read_csv, p, categorical=cat)
    _, rows_held = _traced(reference_read_csv, p, categorical=cat)
    assert 3 * ours <= rows_held, (ours, rows_held)
    assert data.n == rows and not warnings
    for name, names in zip(cat, labels):
        col = data.column(name)
        assert data.labels[name] == names
        assert col.dtype == np.min_scalar_type(len(names) - 1)
        assert sorted(set(col.tolist())) == list(range(len(names)))


def test_fit_model_working_set_stays_under_24_bytes_a_row(tmp_path):
    # the income DAG's shape: two categorical roots, a dense binned node on
    # both and an outcome on all three; every code is one byte
    rng = np.random.default_rng(5)
    n = 50_000
    sex, race = rng.integers(0, 2, n), rng.integers(0, 3, n)
    x = np.round(rng.normal(size=n) + race, 4)
    y = np.round(x + sex + rng.normal(size=n), 4)
    p = tmp_path / "d.csv"
    p.write_text("sex,race,x,y\n" + "".join(
        f"{'FM'[a]},{'ABC'[b]},{c},{d}\n" for a, b, c, d in zip(sex, race, x.tolist(), y.tolist())
    ), encoding="utf-8")
    dag, outcome, categorical = dag_from_json({
        "outcome": "y",
        "categorical": ["sex", "race"],
        "nodes": [{"name": "sex"}, {"name": "race"}, {"name": "x", "parents": ["sex", "race"]},
                  {"name": "y", "parents": ["sex", "race", "x"]}],
    })
    data, _ = read_csv(p, categorical=categorical, used=dag.names)
    fit_model(data, dag, FitConfig(), outcome)  # np.quantile's first call imports numpy.ma
    model, peak = _traced(fit_model, data, dag, FitConfig(), outcome)
    assert len(model.mechanisms[-1].cells) == 2 * 3 * BINS
    assert peak < 24 * n, peak / n


def reference_coded(data):
    """The reference reader's dataset with each string column coded as
    its ranks among its sorted distinct strings."""
    columns, labels = dict(data.columns), {}
    for name, col in data.columns.items():
        if col.dtype == object:
            columns[name] = reference_numeric_codes(col)
            labels[name] = sorted(set(col.tolist()))
    return Dataset(columns, data.n, labels)


def test_fitted_models_match_a_reference_coding(tmp_path):
    # S and R first appear out of sorted order; "  " is a blank label and
    # "ghost" is held only by rows whose X drops them; X is dense, K few-valued
    rng = np.random.default_rng(11)
    n = 4000
    s = ["zeta", " alpha", "mid "] + list(rng.choice(["alpha", "mid", "zeta"], n - 3))
    r = ["w", "u", "v"] + list(rng.choice(["u", "v", "w"], n - 3))
    x = rng.normal(size=n)
    k = rng.integers(0, 3, n)
    m = k + 0.5 * x + rng.normal(size=n)
    y = np.round(x + m + rng.normal(size=n), 3)
    cols = (s, r, x.tolist(), k.tolist(), m.tolist(), y.tolist())
    lines = [",".join(map(str, row)) for row in zip(*cols)]
    lines[5] = "  ,u,0.5,1,0.2,0.3"
    lines[9] = "mid,ghost,nan,1,0.2,0.3"
    lines[12] = "zeta,ghost,,2,0.1,0.4"
    p = tmp_path / "d.csv"
    p.write_text("S,R,X,K,M,Y\n" + "\n".join(lines) + "\n", encoding="utf-8")
    dag, outcome, categorical = dag_from_json({
        "outcome": "Y",
        "categorical": ["S", "R"],
        "nodes": [{"name": "S"}, {"name": "R"}, {"name": "X"}, {"name": "K"},
                  {"name": "M", "parents": ["S", "K", "X"]}, {"name": "Y", "parents": ["R", "M"]}],
    })
    got, got_warn = read_csv(p, categorical=categorical, used=dag.names)
    want, want_warn = reference_read_csv(p, categorical=categorical, used=dag.names)
    assert got.labels == {"S": ["alpha", "mid", "zeta"], "R": ["u", "v", "w"]}
    assert got_warn == want_warn == ["dropped 3 of 4000 rows with missing, unparseable or non-finite cells"]
    want = reference_coded(want)
    for method in ("additive_empirical", "hetero_gaussian", "quantile_grid"):
        cfg = FitConfig(method=method, min_cell=5)
        write_model(fit_model(got, dag, cfg, outcome), tmp_path / "got.json")
        write_model(fit_model(want, dag, cfg, outcome), tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes(), method


def test_read_csv_ignores_unused_junk_column(tmp_path):
    p = tmp_path / "d.csv"
    with open(p, "w") as fh:
        fh.write("a,b,junk\n1,2,hello\n3,4,world\n")
    data, warnings = read_csv(p, used=("a", "b"))
    assert data.n == 2 and not warnings


def test_read_csv_categorical_column(tmp_path):
    p = tmp_path / "d.csv"
    with open(p, "w") as fh:
        fh.write("sex,y\nF,1\nM,2\nF,3\n")
    data, _ = read_csv(p, categorical=("sex",), used=("sex", "y"))
    assert data.labels == {"sex": ["F", "M"]}
    codes = data.column("sex")
    assert codes.dtype == np.min_scalar_type(len(data.labels["sex"]) - 1)
    assert codes.tolist() == [0, 1, 0]


def test_read_csv_codes_past_255_labels_in_two_bytes(tmp_path):
    # 300 labels, first seen in reverse sorted order
    names = [f"L{i:03d}" for i in range(300)]
    cells = names[::-1] + names[::7]
    p = tmp_path / "d.csv"
    p.write_text("c,y\n" + "".join(f"{c},{i}\n" for i, c in enumerate(cells)), encoding="utf-8")
    data, _ = read_csv(p, categorical=("c",))
    assert data.labels == {"c": names}
    assert data.column("c").dtype == np.uint16
    assert decoded(data, "c") == cells


def test_read_csv_missing_column(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["a"], [[1]])
    with pytest.raises(FitError):
        read_csv(p, used=("a", "b"))


def test_read_csv_duplicate_header(tmp_path):
    p = tmp_path / "d.csv"
    with open(p, "w") as fh:
        fh.write("a,a\n1,2\n")
    with pytest.raises(FitError):
        read_csv(p)


def test_parent_binning_exact_for_few_values():
    data = Dataset({"p": np.array([1.0, 2.0, 1.0, 2.0, 5.0]), "y": np.zeros(5)}, 5)
    binning = parent_binning(data, ("p",))
    # midpoint cuts between the 3 distinct values
    assert np.allclose(binning[0], [1.5, 3.5])


def test_parent_binning_quantile_for_many_values():
    rng = np.random.default_rng(0)
    data = Dataset({"p": rng.normal(size=500), "y": np.zeros(500)}, 500)
    binning = parent_binning(data, ("p",))
    assert len(binning[0]) == BINS - 1  # interior cuts


def test_empirical_levels_left_continuous():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    got = empirical_quantile(np.sort(vals), (0.25, 0.5, 0.75, 0.99))
    assert list(got) == [1.0, 2.0, 3.0, 4.0]


def _unique_coded_cells(data, parents, binning):
    """(keys, rows) of each cell: categorical parents coded by np.unique
    of their codes as floats, binned parents by np.searchsorted."""
    codes, parts, radices = [], [], []
    for p, b in zip(parents, binning):
        col = np.asarray(data.column(p), dtype=float)
        if b is None:
            values, code = np.unique(col, return_inverse=True)
            codes.append(code)
            parts.append(col)
            radices.append(len(values))
        else:
            code = np.searchsorted(b, col, "right")
            codes.append(code)
            parts.append(code)
            radices.append(len(b) + 1)
    ids = np.zeros(data.n, dtype=np.int64)
    for c, r in zip(codes, radices):
        ids = ids * r + c
    cells, first = np.unique(ids, return_index=True)
    keys = [cell_key(binning, [p[i] for p in parts]) for i in first]
    return keys, [np.flatnonzero(ids == c) for c in cells]


def test_quantile_grid_cells_are_sorted_order_statistics():
    rng = np.random.default_rng(7)
    n = 3000
    # labels first appear as zeta, alpha, mid; they sort as alpha, mid, zeta
    labels = ["zeta", "alpha", "mid"] + list(rng.choice(["alpha", "mid", "zeta"], n - 3))
    codes = reference_numeric_codes(np.array(labels, dtype=object))
    x = rng.integers(0, 4, n).astype(float)  # few values: one bin each
    z = rng.normal(size=n)  # dense: equal-frequency bins
    ties = rng.choice([-0.0, 0.0, 1.0, -2.5], n // 2)
    y = np.concatenate([ties, np.round(rng.normal(size=n - n // 2), 1)])
    rng.shuffle(y)
    # W has 300 labels, so uint16 codes; each S holds 100 of them, each on
    # at least two rows, so every (W, S) cell is one W cell
    w = np.empty(n, dtype=np.uint16)
    for s in range(3):
        held = np.flatnonzero(codes == s)
        w[held] = 100 * s + rng.permutation(len(held)) % 100
    data = Dataset(
        {"S": codes, "W": w, "X": x, "Z": z, "Y": y},
        n,
        {"S": ["alpha", "mid", "zeta"], "W": [f"w{i:03d}" for i in range(300)]},
    )
    cfg = FitConfig(min_cell=2, seed=3)
    levels = np.asarray(cfg.levels)
    for parents in (("S", "X", "Z"), ("W", "S")):
        mech = fit_quantile_grid(data, "Y", parents, cfg)
        _, binning, keys, rows = fit_module._cell_groups(data, "Y", parents, cfg)
        ref_keys, ref_rows = _unique_coded_cells(data, parents, binning)
        assert keys == ref_keys and list(mech.cells) == ref_keys
        assert [r.tobytes() for r in rows] == [r.tobytes() for r in ref_rows]
        for key, r in zip(ref_keys, ref_rows):
            want = empirical_quantile(np.sort(y[r]), levels)
            assert mech.cells[key].tobytes() == want.tobytes(), key
        zeros = [g for g in mech.cells.values() if (g == 0).any()]
        assert any(np.signbit(g[g == 0]).any() for g in zeros)  # a -0.0 survives into a grid


def test_fit_root_empirical_and_categorical():
    mech = fit_root(Dataset({"X": np.array([3.0, 1.0, 2.0, 1.0])}, 4), "X")
    assert mech.kind == "root_empirical"
    assert list(mech.values) == [1.0, 1.0, 2.0, 3.0]
    data = Dataset({"S": np.array([1, 0, 1], dtype=np.intp)}, 3, {"S": ["a", "b"]})
    cat = fit_root(data, "S")
    assert cat.kind == "root_categorical"
    assert cat.labels == ("a", "b") and list(cat.probs) == [1 / 3, 2 / 3]


def test_fit_model_quantile_recovers_half(tmp_path):
    data = _model2_dataset(40_000, seed=1)
    model = fit_model(data, CHAIN, FitConfig(method="quantile_grid"), "Y")
    est = counterfactual_total(model, ["W1"], EstimatorConfig(samples=60_000, seed=0))
    assert est.value == pytest.approx(0.5, abs=0.03)
    assert "fitted:quantile_grid" in model.fitted[0] if model.fitted else True


def test_fit_model_additive_recovers_half():
    data = _model2_dataset(40_000, seed=2)
    model = fit_model(data, CHAIN, FitConfig(method="additive_empirical"), "Y")
    est = counterfactual_total(model, ["W1"], EstimatorConfig(samples=60_000, seed=0))
    assert est.value == pytest.approx(0.5, abs=0.03)


def test_fit_hetero_gaussian_recovers_scale():
    rng = np.random.default_rng(3)
    n = 30_000
    x = rng.choice([0.0, 1.0], size=n)
    y = 2.0 * x + (1.0 + 2.0 * x) * rng.normal(size=n)
    data = Dataset({"X": x, "Y": y}, n)
    dag = Dag(("X", "Y"), ((), ("X",)))
    model = fit_model(data, dag, FitConfig(method="hetero_gaussian"), "Y")
    mech = model.mechanisms[1]
    stds = sorted(float(v) for v in mech.std.cells.values())
    assert stds[0] == pytest.approx(1.0, abs=0.05)
    assert stds[1] == pytest.approx(3.0, abs=0.1)


def test_additive_bias_on_heteroskedastic_data():
    # additive_empirical pools residuals, so it misses variance that
    # changes with the parent; quantile_grid adapts per cell
    rng = np.random.default_rng(4)
    n = 40_000
    x = rng.choice([-1.0, 1.0], size=n)
    y = x + (0.25 + 2.25 * (x > 0)) * rng.normal(size=n)
    data = Dataset({"X": x, "Y": y}, n)
    dag = Dag(("X", "Y"), ((), ("X",)))
    cfg_q = FitConfig(method="quantile_grid")
    cfg_a = FitConfig(method="additive_empirical")
    mq = fit_model(data, dag, cfg_q, "Y")
    ma = fit_model(data, dag, cfg_a, "Y")
    ecfg = EstimatorConfig(samples=60_000, seed=0)
    xi_q = counterfactual_total(mq, ["X"], ecfg).value
    xi_a = counterfactual_total(ma, ["X"], ecfg).value
    # resampling X's noise moves both the mean and the noise scale of Y:
    # xi = (Var(X) + Var(sigma(X))) / (Var(X) + E[sigma(X)^2])
    s_lo, s_hi = 0.25, 2.5
    var_sigma = ((s_hi - s_lo) / 2) ** 2
    mean_sq = (s_lo**2 + s_hi**2) / 2
    true_xi = (1.0 + var_sigma) / (1.0 + mean_sq)
    assert abs(xi_q - true_xi) < abs(xi_a - true_xi)
    assert xi_a < xi_q  # pooled residuals flatten the scale response


def test_min_cell_enforced():
    data = _model2_dataset(100, seed=5)
    with pytest.raises(FitError, match="min_cell"):
        fit_model(data, CHAIN, FitConfig(min_cell=80), "Y")


def test_categorical_node_cannot_be_child():
    data = Dataset(
        {"A": np.array([0.0, 1.0] * 30), "B": np.array([0, 1] * 30, dtype=np.intp)},
        60,
        labels={"B": ["x", "y"]},
    )
    dag = Dag(("A", "B"), ((), ("A",)))
    with pytest.raises(FitError):
        fit_model(data, dag, FitConfig(), "B")


def test_dag_from_json():
    dag, outcome, cat = dag_from_json(
        {
            "outcome": "Y",
            "categorical": ["S"],
            "nodes": [
                {"name": "S", "parents": []},
                {"name": "Y", "parents": ["S"]},
            ],
        }
    )
    assert dag.names == ("S", "Y")
    assert outcome == "Y" and cat == frozenset({"S"})
    with pytest.raises(ModelError):
        dag_from_json({"outcome": "Y", "nodes": [{"name": "Y"}], "categorical": ["Y"]})
    with pytest.raises(ModelError):
        dag_from_json({"nodes": []})


def test_fold_split_is_seeded():
    data = _model2_dataset(2000, seed=6)
    m1 = fit_model(data, CHAIN, FitConfig(seed=9), "Y")
    m2 = fit_model(data, CHAIN, FitConfig(seed=9), "Y")
    from xfvar.scm import model_to_json

    assert model_to_json(m1) == model_to_json(m2)


def _categorical_chain():
    # B is categorical and has a parent: dag_from_json refuses such a DAG file
    codes = np.arange(40, dtype=np.uint8) % 2
    data = Dataset({"A": codes, "B": codes, "Y": np.arange(40.0)}, 40,
                   labels={"A": ["a", "b"], "B": ["c", "d"]})
    return fit_model(data, Dag(("A", "B", "Y"), ((), ("A",), ("B",))), FitConfig(), "Y")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FitConfig(levels=()), "levels must be a nonempty list"),
        (lambda: Dataset({"A": np.zeros(3)}, 2), "column 'A' has 3 rows, expected 2"),
        (lambda: Dataset({"A": np.zeros(2)}, 2).column("Z"), "dataset has no column 'Z'"),
        (lambda: fit_model(Dataset({"A": np.zeros(2)}, 2), Dag(("A",), ((),)), FitConfig(), "Z"),
         "outcome 'Z' is not a DAG node"),
        (_categorical_chain, "node 'B' is categorical; only roots may be categorical"),
    ],
    ids=["config_levels_empty", "dataset_column_length", "dataset_missing_column",
         "model_outcome", "categorical_non_root"],
)
def test_library_guards(build, message):
    with pytest.raises(FitError) as exc:
        build()
    assert type(exc.value) is FitError and str(exc.value) == message
