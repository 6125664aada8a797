"""The benchmark's workloads: CLI operations and the checks on their outputs.

Each op is one `xfvar.cli.main` call on files written by `inputs`. Paths
are relative to the work directory, because reports record the model path
and the default-seed digests must not depend on where the checkout lives.
The checks import xfvar when they run: the benchmark puts the checkout's
sources on sys.path only after this module is loaded.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# measure_validate tolerance, in units of the largest atom stderr (as in
# acceptance criterion 13)
STDERR_K = 3.0
ORACLE_MASS_TOL = 1e-12


class CheckError(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    outputs: tuple = ()  # files whose digest is pinned for the default seed
    check: object = None  # check(op_result) -> None; raises CheckError if the output is wrong
    timed: bool = True


@dataclass
class OpResult:
    name: str
    seconds: float
    code: int
    stdout: str
    stderr: str
    digests: dict = field(default_factory=dict)
    error: str = ""


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Checks (seed-independent invariants)


def _check_measure(path, names):
    from xfvar.algebra import measure_validate
    from xfvar.report import read_report

    m = read_report(path).measure
    if list(m.names) != list(names):
        raise CheckError(f"{path}: variables {list(m.names)} != {list(names)}")
    mass = math.fsum(float(x) for x in m.atom_mass)
    if abs(mass - 1.0) > 1e-9:
        raise CheckError(f"{path}: atom masses sum to {mass!r}")
    tol = STDERR_K * float(max(m.atom_stderr))
    if not (tol > 0 and measure_validate(m, tol).ok):
        raise CheckError(f"{path}: measure_validate failed at {STDERR_K:g} x stderr ({tol:.3g})")


def _measure_check(path, names):
    return lambda res: _check_measure(path, names)


def _check_fit(res):
    from inputs import INCOME_ROWS
    from xfvar.scm import read_model

    model = read_model("income_model.json")
    kinds = [m.kind for m in model.mechanisms]
    want = ["root_categorical", "root_categorical", "quantile_table", "quantile_table"]
    if kinds != want:
        raise CheckError(f"fitted mechanism kinds {kinds} != {want}")
    if f"fitted 4 nodes from {INCOME_ROWS} rows" not in res.stdout:
        raise CheckError(f"fit did not use all {INCOME_ROWS} rows: {res.stdout.strip()!r}")


_XI = re.compile(r"^xi\(education\) = ([0-9.eE+-]+) \+- ([0-9.eE+-]+)$")


def _check_subset(res):
    from xfvar.algebra import totals_from_measure
    from xfvar.report import read_report

    with open("cf_income_subset.txt", encoding="utf-8") as fh:
        text = fh.read().strip()
    hit = _XI.match(text)
    if not hit:
        raise CheckError(f"unexpected subset output {text!r}")
    value, se = float(hit.group(1)), float(hit.group(2))
    if not (0.0 < value < 1.0 and se > 0.0):
        raise CheckError(f"xi(education) = {value} +- {se} is out of range")
    # same seed and pairs as the full measure, so the two estimators must agree
    m = read_report("cf_income.json").measure
    mask = 1 << m.names.index("education")
    t = float(totals_from_measure(m).total[mask])
    t_se = float(m.atom_stderr[mask])
    if abs(value - t) > 4.0 * (se + t_se):
        raise CheckError(f"xi(education) = {value} disagrees with the full measure's {t}")


def _check_venn(res):
    with open("income_venn.svg", encoding="utf-8") as fh:
        svg = fh.read()
    if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
        raise CheckError("venn output is not a complete SVG document")
    for name in ("sex", "race", "education", "unexplained:"):
        if f">{name}" not in svg:
            raise CheckError(f"venn output lacks the label {name!r}")


def _check_oracle(res):
    from xfvar.algebra import measure_validate
    from xfvar.report import read_report

    m = read_report("oracle_k7.json").measure
    mass = math.fsum(float(x) for x in m.atom_mass)
    if abs(mass - 1.0) > ORACLE_MASS_TOL:
        raise CheckError(f"oracle masses sum to {mass!r}")
    if not measure_validate(m, 1e-9).ok:
        raise CheckError("oracle measure fails measure_validate at 1e-9")


# ---------------------------------------------------------------------------
# Workloads

ROOTS8 = [f"W{i}" for i in range(1, 9)]
CHAIN6 = ["A", "B", "C", "D", "E", "Y"]
INCOME = ["sex", "race", "education", "log_income"]


def ops_for(workload: str, seed: int) -> list:
    """The workload's ops, in the order one pass runs them."""
    s = str(seed)
    s5 = str(seed + 5)  # the income pipeline's MC seed, 5 at the default seed as in criterion 13
    if workload == "formula_mc":
        return [
            Op("gsa_k8",
               ("gsa", "--model", "roots8.json", "--samples", "50000", "--seed", s, "--out", "gsa_k8.json"),
               ("gsa_k8.json",), _measure_check("gsa_k8.json", ROOTS8)),
            Op("gsa_func3",
               ("gsa", "--func", "sigmoid_nn3", "--samples", "1000000", "--seed", s, "--out", "gsa_func3.json"),
               ("gsa_func3.json",), _measure_check("gsa_func3.json", ["W1", "W2", "W3"])),
            Op("cf_chain6",
               ("counterfactual", "--model", "chain6.json", "--samples", "100000", "--seed", s,
                "--out", "cf_chain6.json"),
               ("cf_chain6.json",), _measure_check("cf_chain6.json", CHAIN6)),
        ]
    if workload == "income_fitted":
        return [
            Op("fit_income",
               ("fit", "--data", "income.csv", "--dag", "income_dag.json", "--method", "quantile_grid",
                "--seed", s, "--out", "income_model.json"),
               ("income_model.json",), _check_fit),
            Op("cf_income",
               ("counterfactual", "--model", "income_model.json", "--samples", "200000", "--seed", s5,
                "--out", "cf_income.json"),
               ("cf_income.json",), _measure_check("cf_income.json", INCOME)),
            Op("cf_income_subset",
               ("counterfactual", "--model", "income_model.json", "--subset", "education",
                "--samples", "200000", "--seed", s5, "--out", "cf_income_subset.txt"),
               ("cf_income_subset.txt",), _check_subset),
            Op("venn_income",
               ("venn", "--report", "cf_income.json", "--out", "income_venn.svg"),
               ("income_venn.svg",), _check_venn, timed=False),
        ]
    if workload == "oracle_k7":
        return [
            Op("oracle_k7",
               ("oracle", "--model", "oracle7.json", "--out", "oracle_k7.json"),
               ("oracle_k7.json",), _check_oracle),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("formula_mc", "income_fitted", "oracle_k7")

# the op that mc.speedup_t2 times at XFVAR_THREADS=2 against 1, per workload
SPEEDUP_OP = {"formula_mc": "gsa_k8", "income_fitted": "cf_income_subset", "oracle_k7": "oracle_k7"}
