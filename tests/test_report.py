import json
from pathlib import Path

import numpy as np
import pytest

from xfvar.algebra import EXACT, ExplanationMeasure, Provenance
from xfvar.errors import ParseError
from xfvar.report import (
    RunReport,
    dumps_report,
    format_table,
    read_report,
    report_from_json,
    report_to_json,
    subset_key,
    write_report,
)


def _mc_measure():
    atoms = np.array([0.0, 0.52, 0.01, 0.47])
    stderr = np.array([0.0, 0.004, 0.003, 0.005])
    prov = Provenance("monte_carlo", samples=50_000, seed=3)
    return ExplanationMeasure(("W1", "W2"), atoms, stderr, prov)


def test_subset_key():
    names = ("A", "B", "C")
    assert subset_key(names, 0) == ""
    assert subset_key(names, 0b001) == "A"
    assert subset_key(names, 0b101) == "A+C"
    assert subset_key(names, 0b111) == "A+B+C"


def test_report_json_layout():
    rep = RunReport(_mc_measure(), config={"command": "gsa"}, outcome=None)
    obj = report_to_json(rep)
    assert list(obj)[:3] == ["variables", "outcome", "atoms"]
    assert obj["variables"] == ["W1", "W2"]
    assert set(obj["atoms"]) == {"", "W1", "W2", "W1+W2"}
    assert set(obj["totals"]) == {"W1", "W2", "W1+W2"}
    assert set(obj["interactions"]) == {"W1", "W2", "W1+W2"}
    assert obj["samples"] == 50_000
    assert obj["seed"] == 3
    assert obj["provenance"]["kind"] == "monte_carlo"
    assert obj["config"] == {"command": "gsa"}
    # interactions are superset masses
    assert obj["interactions"]["W1+W2"] == pytest.approx(0.47)
    assert obj["totals"]["W1"] == pytest.approx(0.52 + 0.47)


def test_roundtrip_preserves_measure():
    rep = RunReport(_mc_measure(), config={"command": "gsa"})
    obj = json.loads(dumps_report(rep))
    back = report_from_json(obj)
    assert back.measure.names == ("W1", "W2")
    assert np.array_equal(back.measure.atom_mass, rep.measure.atom_mass)
    assert np.array_equal(back.measure.atom_stderr, rep.measure.atom_stderr)
    assert back.measure.provenance == rep.measure.provenance


def test_serialize_parse_serialize_is_byte_identical(tmp_path):
    # shortest round-trip float repr: parsing and re-serializing cannot move bytes
    atoms = np.array([0.0, 1 / 3, 2 / 7, 1 - 1 / 3 - 2 / 7])
    m = ExplanationMeasure(("A", "B"), atoms, None, EXACT)
    rep = RunReport(m, config={"command": "oracle"})
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(rep, p1)
    write_report(report_from_json(json.loads(p1.read_text())), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_oracle_report_round_trips_byte_for_byte():
    # oracle's extra "lower" table is read back, so nothing is dropped
    path = Path(__file__).parent / "data" / "model1_report.json"
    rep = read_report(path)
    assert list(rep.extra_tables) == ["lower"]
    assert dumps_report(rep) == path.read_text()


def test_read_report_requires_complete_atoms(tmp_path):
    rep = RunReport(_mc_measure(), config={})
    obj = report_to_json(rep)
    del obj["atoms"]["W1"]
    p = tmp_path / "r.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(Exception):
        read_report(p)


def test_read_report_parse_error(tmp_path):
    p = tmp_path / "r.json"
    p.write_text("{oops")
    with pytest.raises(ParseError):
        read_report(p)


def test_extra_tables_spliced_in_order():
    rep = RunReport(
        _mc_measure(),
        config={},
        extra_tables={"lower": {"W1": 0.5, "W2": 0.0, "W1+W2": 1.0}},
    )
    obj = report_to_json(rep)
    keys = list(obj)
    assert keys.index("interactions") < keys.index("lower") < keys.index("shapley")


def test_warnings_carried():
    rep = RunReport(_mc_measure(), config={}, warnings=("something happened",))
    obj = report_to_json(rep)
    assert obj["warnings"] == ["something happened"]
    assert report_from_json(obj).warnings == ("something happened",)


def test_format_table_sections():
    text = format_table(RunReport(_mc_measure(), config={}))
    assert "W1+W2" in text
    assert "atom" in text and "shapley" in text
    assert "monte carlo" in text
    assert "0.520" in text
    # aligned columns: every nonempty line fits the header width pattern
    assert not text.startswith("\n")


def test_nan_rejected():
    m = ExplanationMeasure(("A", "B"), np.array([0.0, np.nan, 0.5, 0.5]), None, EXACT)
    rep = RunReport(m, config={})
    with pytest.raises(ValueError):
        dumps_report(rep)


def test_format_table_exact_measure_with_warnings():
    m = ExplanationMeasure(("A", "B"), np.array([0.0, 0.25, 0.25, 0.5]), None, EXACT)
    text = format_table(RunReport(m, config={}, warnings=("first", "second")))
    lines = text.splitlines()
    assert lines[1] == "estimate:  exact enumeration"
    # an exact measure has no stderr column
    assert f"{'A+B':<8}  {0.5:9.3f}" in lines and "+-" not in text
    assert lines[-5:] == [f"{'B':<8}  {0.5:9.3f}", "", "warning: first", "", "warning: second"]
