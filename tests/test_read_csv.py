"""read_csv's two parsers against the row-by-row reference.

read_csv hands a clean chunk of lines to np.loadtxt and any other chunk
to csv.reader. The random files here put chunks that must take the row
path (quotes, blank lines, NUL, ragged rows, cells loadtxt refuses) between
clean ones, at chunk sizes of 1 to 5 lines, and every result, warning and
error must equal the reference's.
"""

import csv
import io
import warnings

import numpy as np
import pytest

import test_fit
from test_fit import assert_same_dataset, reference_read_csv
from xfvar import fit as fit_module
from xfvar.errors import FitError, ParseError
from xfvar.fit import read_csv

NUMBERS = ["1", "2.5", "-0", "1e-320", "0.1000000000000000055511151231257827", " 3 ", "\t4\t", "+.5",
           "6.", "1E+5"]
# float() of the stripped cell takes the first four and loadtxt none of
# them; both take the next eight; neither takes the rest
ODD_NUMBERS = ["1_0", "\u0661\u0662", "1\u0661", "\uff11",
               "\xa016", "17\u2003", "\u30001", "\x1c7\x1f", "\x0b8\x0c", "nan", "-Infinity", "1e999",
               "", "  ", "abc", "0x10", "1\x00", "- 1", "\u22121"]
LABELS = ["F", "M", "other"]
ODD_LABELS = [" F ", " M\xa0", "\u2003F\u3000", "\x1cF\x1f", "\tother", "", " ", "nan", "F\x00",
              "\x00", "M\u2028", "1_0"]
ENDINGS = ["\n", "\n", "\r\n", "\r"]


def _cell(rng, numeric):
    pool = (NUMBERS, ODD_NUMBERS) if numeric else (LABELS, ODD_LABELS)
    return str(rng.choice(pool[rng.random() < 0.08]))


def _random_file(rng, limit):
    """(CSV text, categorical, used) of one random file; limit is the csv
    field size limit it is read with."""
    width = int(rng.integers(1, 5))
    header = [f"c{i}" if rng.random() < 0.8 else f" c{i} " for i in range(width)]
    numeric = rng.random(width) < 0.6
    categorical = tuple(f"c{i}" for i in range(width) if not numeric[i])
    if rng.random() < 0.2:  # a numeric column read as labels, or labels read as numbers
        categorical = tuple(f"c{i}" for i in range(width) if rng.random() < 0.5)
    used = None
    if rng.random() < 0.6:  # often without the last column
        k = int(rng.integers(1, width + 1))
        used = tuple(f"c{i}" for i in rng.permutation(width)[:k])
    quote_at = int(rng.integers(5, 40)) if rng.random() < 0.3 else -1
    lines = []
    for i in range(int(rng.integers(0, 40))):
        cells = [_cell(rng, numeric[j]) for j in range(width)]
        kind = rng.random()
        if i == quote_at:  # quotes open mid-file; some fields span lines
            j = int(rng.integers(width))
            cells[j] = str(rng.choice(['"a,b"', '"x""y"', '"1\n2"', '" F "', '"1.5"', '"F\r\nM"']))
        elif kind < 0.06:
            cells = []  # blank line
        elif kind < 0.09:
            cells = [str(rng.choice([" ", "\t", "\xa0"]))]
        elif kind < 0.12:  # ragged rows, often in pairs whose commas balance
            lines.append(",".join(cells[:-1]) + str(rng.choice(ENDINGS)))
            cells = cells + [_cell(rng, True)] if rng.random() < 0.7 else cells[:-1]
        elif kind < 0.13:  # a long row and a blank line that balance its commas
            lines.append(",".join((cells * 2)[:-1]) + str(rng.choice(ENDINGS)))
            cells = []
        elif kind < 0.14:  # a run of blank lines, which can fill a chunk
            lines.extend(str(rng.choice(ENDINGS)) for _ in range(int(rng.integers(1, 7))))
        elif kind < 0.16 and limit < 100:
            cells[int(rng.integers(width))] = "9" * (limit + 1)
        lines.append(",".join(cells) + str(rng.choice(ENDINGS)))
    if lines and rng.random() < 0.2:
        lines[-1] = lines[-1].rstrip("\r\n")
    return ",".join(header) + "\n" + "".join(lines), categorical, used


def _outcome(fn, path, categorical, used):
    """(dataset, warnings) of fn, or (None, (error class, message)); the
    reference's csv.Error becomes the message read_csv gives it, with
    the line number of a plain csv.reader over the whole file."""
    try:
        return fn(path, categorical=categorical, used=used), None
    except csv.Error:
        reader = csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline=""))
        try:
            for _ in reader:
                pass
        except csv.Error as e:
            return None, ("ParseError", f"invalid CSV file: {e} (line {reader.line_num})")
        raise
    except (FitError, ParseError) as e:
        return None, (type(e).__name__, str(e))


def _codes_into_sorted_labels(data):
    for name, labels in data.labels.items():
        assert data.column(name).dtype == np.min_scalar_type(len(labels) - 1), name
        assert labels == sorted(set(labels)), name


def test_read_csv_matches_the_row_loop_on_random_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(20261019)
    paths = []  # per chunk of the current file: "c" for loadtxt, "r" for csv.reader

    def spy(fn, tag):
        def run(*args):
            got = fn(*args)
            if got is not None:
                paths.append(tag)
            return got
        return run

    monkeypatch.setattr(fit_module, "_loadtxt_values", spy(fit_module._loadtxt_values, "c"))
    monkeypatch.setattr(fit_module, "_row_values", spy(fit_module._row_values, "r"))
    histories = []
    default_limit = csv.field_size_limit()
    for case in range(200):
        limit = int(rng.integers(8, 30)) if rng.random() < 0.1 else default_limit
        text, categorical, used = _random_file(rng, limit)
        plain = tmp_path / f"{case}.csv"
        plain.write_text(text, encoding="utf-8", newline="")
        path = plain
        if rng.random() < 0.2:
            path = tmp_path / f"{case}_bom.csv"
            path.write_text("\ufeff" + text, encoding="utf-8", newline="")
        monkeypatch.setattr(fit_module, "CHUNK_ROWS", int(rng.integers(1, 6)))
        csv.field_size_limit(limit)
        try:
            want, want_err = _outcome(reference_read_csv, plain, categorical, used)
            paths.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got, got_err = _outcome(read_csv, path, categorical, used)
        finally:
            csv.field_size_limit(default_limit)
        where = f"case {case}: {text!r}, categorical={categorical}, used={used}"
        assert not caught, (where, [str(w.message) for w in caught])
        assert got_err == want_err, where
        if want is not None:
            assert_same_dataset(*got, *want)
            _codes_into_sorted_labels(got[0])
        histories.append("".join(paths))
    # both parsers ran, and row-path chunks sat between clean ones
    joined = "|".join(histories)
    assert joined.count("c") > 600 and joined.count("r") > 400, joined
    assert sum("crc" in h or "crrc" in h for h in histories) > 40, joined


def _income_csv(path, rows):
    rng = np.random.default_rng(7)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sex,race,education,log_income\n")
        fh.writelines(
            f"{'FM'[rng.integers(2)]},{'ABC'[rng.integers(3)]},{rng.integers(8, 19)},"
            f"{rng.normal(8.5, 0.6):.6f}\n"
            for _ in range(rows)
        )


def test_a_clean_income_csv_never_takes_the_row_path(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a clean chunk took the row path")

    monkeypatch.setattr(fit_module, "_row_values", refuse)
    p = tmp_path / "income.csv"
    _income_csv(p, 3000)  # one full chunk and one partial one
    cat = ("sex", "race")
    got, got_warn = read_csv(p, categorical=cat)
    want, want_warn = reference_read_csv(p, categorical=cat)
    assert_same_dataset(got, got_warn, want, want_warn)
    assert got.n == 3000 and not got_warn
    _codes_into_sorted_labels(got)
    # each label stored once and a third of the reference's memory, in C
    test_fit.test_read_csv_holds_one_chunk_and_one_string_per_label(tmp_path, monkeypatch)
