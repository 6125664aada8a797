"""Run reports: the JSON artifact every CLI command writes.

A report carries the full measure (atoms plus stderr), the derived
subset tables, the sampling configuration, and any warnings. Numbers are
serialized as shortest round-trip doubles, so serialize -> parse ->
serialize is byte-identical; golden tests freeze the schema.

Writing and reading a report build its subset keys once (`subset_keys`)
and every per-subset table shares them. The interactions table is one
`math.fsum` per subset over the atoms of its supersets, the walk
`measure_interaction` uses.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    MAX_VARS,
    ExplanationMeasure,
    Provenance,
    measure_interactions,
    shapley_from_measure,
    subset_key,  # noqa: F401  (re-exported: the key of one subset)
    subset_keys,
    subset_label,
    totals_from_measure,
)
from .errors import ParseError, read_json


@dataclass
class RunReport:
    measure: ExplanationMeasure
    config: dict = field(default_factory=dict)
    warnings: tuple = ()
    outcome: str | None = None
    extra_tables: dict = field(default_factory=dict)


def subset_table(keys, values, start: int = 0) -> dict:
    """A report table: subset key -> value for the masks from start on;
    keys is `subset_keys` of the report's variables."""
    return dict(zip(keys[start:], np.asarray(values, dtype=float)[start:].tolist()))


def report_to_json(rep: RunReport) -> dict:
    m = rep.measure
    names = m.names
    keys = subset_keys(names)
    totals = totals_from_measure(m)
    sh = shapley_from_measure(m)
    prov = m.provenance
    out = {
        "variables": list(names),
        "outcome": rep.outcome,
        "atoms": subset_table(keys, m.atom_mass),
    }
    if m.atom_stderr is not None:
        out["atom_stderr"] = subset_table(keys, m.atom_stderr)
    out["totals"] = subset_table(keys, totals.total, 1)
    out["interactions"] = subset_table(keys, measure_interactions(m), 1)
    for key, table in rep.extra_tables.items():
        out[key] = table
    out["shapley"] = {n: float(v) for n, v in zip(names, sh.values)}
    out["samples"] = prov.samples
    out["seed"] = prov.seed
    out["provenance"] = prov.to_json()
    out["config"] = rep.config
    out["warnings"] = list(rep.warnings)
    return out


def report_from_json(obj) -> RunReport:
    """The report a parsed JSON object holds.

    Raises ParseError naming the first malformed field: a missing key, a
    field of the wrong type (variable names are strings, the outcome is
    null or a string), a variable name that is empty or holds '+'
    (names join with '+' in subset keys), a missing or non-finite atom or
    lower index, a negative atom stderr, or bad provenance.
    """
    if not isinstance(obj, dict):
        raise ParseError("report must be a JSON object")
    for key in ("variables", "atoms", "provenance"):
        if key not in obj:
            raise ParseError(f"report is missing {key!r}")
    if not isinstance(obj["variables"], list) or not 1 <= len(obj["variables"]) <= MAX_VARS:
        raise ParseError(f"report 'variables' must be a list of 1 to {MAX_VARS} names")
    names = tuple(obj["variables"])
    if not all(isinstance(n, str) for n in names):
        raise ParseError("report 'variables' must be strings")
    if len(set(names)) != len(names):
        raise ParseError("report 'variables' must be unique")
    for n in names:
        if not n or "+" in n:
            raise ParseError(f"report variable {n!r} must be a non-empty name without '+'")
    keys = subset_keys(names)
    atoms = _subset_table(obj, "atoms", keys)
    stderr = _subset_table(obj, "atom_stderr", keys, least=0.0) if "atom_stderr" in obj else None
    config = obj.get("config", {})
    warnings = obj.get("warnings", [])
    if not isinstance(config, dict):
        raise ParseError("report 'config' must be an object")
    if not isinstance(warnings, list):
        raise ParseError("report 'warnings' must be a list")
    outcome = obj.get("outcome")
    if outcome is not None and not isinstance(outcome, str):
        raise ParseError("report 'outcome' must be null or a string")
    # oracle's table of normalized lower indices, one per nonempty subset
    extra = {}
    if "lower" in obj:
        extra["lower"] = subset_table(keys, _subset_table(obj, "lower", keys, start=1), 1)
    measure = ExplanationMeasure(names, atoms, stderr, _provenance(obj["provenance"]))
    return RunReport(
        measure, config=dict(config), warnings=tuple(warnings), outcome=outcome,
        extra_tables=extra,
    )


def _subset_table(obj, field, keys, least=None, start=0):
    """Dense bitmask-indexed array of a per-subset table of the report,
    holding the masks from start on (keys is `subset_keys` of the
    report's variables); with least, entries below it are rejected too."""
    table = obj[field]
    if not isinstance(table, dict):
        raise ParseError(f"report {field!r} must be an object")
    out = np.zeros(len(keys))
    for s in range(start, len(out)):
        key = keys[s]
        if key not in table:
            raise ParseError(f"report {field!r} is missing subset {key!r}")
        v = table[key]
        # NaN, the infinities and ints past float64 fail the bound
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
            raise ParseError(f"report {field!r} entry {key!r} must be a finite number, got {v!r}")
        if least is not None and v < least:
            raise ParseError(f"report {field!r} entry {key!r} must be at least {least:g}, got {v!r}")
        out[s] = float(v)
    return out


def _provenance(obj):
    if not (
        isinstance(obj, dict)
        and obj.get("kind") in ("exact", "monte_carlo")
        and all(_is_count(obj.get(k)) for k in ("samples", "seed"))
        and isinstance(obj.get("flags", []), list)
    ):
        raise ParseError(
            "report 'provenance' must be an object with kind 'exact' or 'monte_carlo', "
            "integer samples and seed, and a list of flags"
        )
    return Provenance.from_json(obj)


def _is_count(v):
    """None or a nonnegative integer (not a bool)."""
    return v is None or (isinstance(v, int) and not isinstance(v, bool) and v >= 0)


def dumps_report(rep: RunReport) -> str:
    return json.dumps(report_to_json(rep), indent=2, allow_nan=False) + "\n"


def write_report(rep: RunReport, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report(rep))


def read_report(path) -> RunReport:
    return report_from_json(read_json(path, "report"))


def _fmt_pm(v, se):
    if se is None:
        return f"{v:9.3f}"
    return f"{v:9.3f} +- {se:.3f}"


def format_table(rep: RunReport) -> str:
    """Human-readable aligned rendering, rounded to 3 decimals."""
    m = rep.measure
    names = m.names
    keys = subset_keys(names)
    totals = totals_from_measure(m)
    sh = shapley_from_measure(m)
    width = max([len(key) for key in keys] + [8])
    lines = []
    lines.append("variables: " + ", ".join(names))
    prov = m.provenance
    if prov.kind == "monte_carlo":
        lines.append(f"estimate:  monte carlo, {prov.samples} pairs, seed {prov.seed}")
    else:
        lines.append("estimate:  exact enumeration")
    if prov.flags:
        lines.append("flags:     " + ", ".join(prov.flags))
    lines.append("")
    lines.append(f"{'atom':<{width}}  {'mass':>9}")
    for s in range(1 << m.var_count):
        se = None if m.atom_stderr is None else m.atom_stderr[s]
        lines.append(f"{subset_label(s, names):<{width}}  {_fmt_pm(m.atom_mass[s], se)}")
    lines.append("")
    lines.append(f"{'subset':<{width}}  {'total':>9}")
    for s in range(1, 1 << m.var_count):
        lines.append(f"{keys[s]:<{width}}  {totals.total[s]:9.3f}")
    lines.append("")
    lines.append(f"{'variable':<{width}}  {'shapley':>9}")
    for n, v in zip(names, sh.values):
        lines.append(f"{n:<{width}}  {v:9.3f}")
    for w in rep.warnings:
        lines.append("")
        lines.append("warning: " + w)
    return "\n".join(lines) + "\n"
