"""Blocks run in forked processes give the serial bytes, the serial errors,
and leave no process behind.

mc.per_batch_sums splits the blocks into contiguous shares of about
equal rows, one per worker, opens block 0 and reads its y(E), forks a
child for every share but the first and runs the first, which starts at
block 0, itself. The tests force the worker count through the kernel's
private mc._max_workers and compare each result with the one-worker run,
which is the serial loop. SAMPLES spans four blocks, the last one short:
two workers run two blocks each, and three run block 0, block 1, and
blocks 2 and 3.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from xfvar import mc, rng, scm
from xfvar.cli import main
from xfvar.errors import (
    CycleError,
    DomainError,
    FitError,
    ModelError,
    NotReducibleError,
    ParseError,
    ZeroVarianceError,
)
from xfvar.formula import FormulaEvalError
from xfvar.mc import EstimatorConfig

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"), reason="forks workers (Linux)"
)

DATA = Path(__file__).parent / "data"
SAMPLES = 3 * rng.BLOCK_LEN + 500
LAST = rng.n_blocks(SAMPLES) - 1
PARENT = os.getpid()

# 1/U is finite for every uniform the stream draws, but not for U = 0,
# and its square overflows for U = 1e-170; V gives the outcome a second
# input
SPIKE_MODEL = {"outcome": "Y", "nodes": [
    {"name": "V", "parents": [], "mechanism": {"kind": "root_gaussian"}},
    {"name": "U", "parents": [], "mechanism": {"kind": "root_uniform", "low": 0.0, "high": 1.0}},
    {"name": "Y", "parents": ["U", "V"], "mechanism": {"kind": "deterministic", "expr": "1/U + V"}},
]}


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(mc, "_max_workers", lambda: workers)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# The split


@pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
def test_shares_are_contiguous_nonempty_and_even_by_rows(workers):
    for m in range(rng.BLOCK_LEN + 1, 20 * rng.BLOCK_LEN, 997):
        n = rng.n_blocks(m)
        w = min(workers, n)
        shares = mc._shares(n, m, w)
        assert len(shares) == w
        assert [b for share in shares for b in share] == list(range(n))
        rows = [min(s.stop * rng.BLOCK_LEN, m) - s.start * rng.BLOCK_LEN for s in shares]
        assert min(rows) > 0
        assert all(abs(r - m / w) < rng.BLOCK_LEN for r in rows), (m, w, rows)


def test_one_block_left_runs_in_this_process():
    assert mc._shares(1, 100, 1) == [range(0, 1)]
    assert mc._shares(2, rng.BLOCK_LEN + 1, 1) == [range(0, 2)]


def test_a_live_thread_keeps_every_block_in_this_process():
    stop = threading.Event()
    t = threading.Thread(target=stop.wait)
    t.start()
    try:
        assert mc._max_workers() == 1
    finally:
        stop.set()
        t.join(timeout=10)
    assert not t.is_alive()
    assert mc._max_workers() == len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Byte-equal reports


def _fit_cell_model(tmp_path, capsys):
    rs = np.random.default_rng(5)
    g = rs.choice(2, size=2000)
    x = 0.5 * g + rs.normal(size=2000)
    y = x + g + rs.normal(size=2000)
    rows = "".join(f"{'ab'[gi]},{xi:.5f},{yi:.5f}\n" for gi, xi, yi in zip(g, x, y))
    (tmp_path / "d.csv").write_text("G,X,Y\n" + rows)
    (tmp_path / "dag.json").write_text(json.dumps({"outcome": "Y", "categorical": ["G"], "nodes": [
        {"name": "G", "parents": []}, {"name": "X", "parents": ["G"]},
        {"name": "Y", "parents": ["G", "X"]}]}))
    argv = ["fit", "--data", str(tmp_path / "d.csv"), "--dag", str(tmp_path / "dag.json"),
            "--method", "quantile_grid", "--out", str(tmp_path / "fm.json")]
    assert run(argv, capsys)[0] == 0
    return str(tmp_path / "fm.json")


COMMANDS = {
    "gsa_model": lambda d: ["gsa", "--model", str(d / "spike.json")],
    "gsa_func": lambda d: ["gsa", "--func", "sigmoid_nn3"],
    "counterfactual": lambda d: ["counterfactual", "--model", str(d / "spike.json")],
    "counterfactual_subset": lambda d: ["counterfactual", "--model", str(d / "spike.json"),
                                        "--subset", "U"],
    "counterfactual_dag": lambda d: ["counterfactual", "--model", str(DATA / "dag_model.json")],
    "fitted_cells": lambda d: ["counterfactual", "--model", str(d / "fm.json")],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_reports_are_byte_equal_for_any_worker_count(name, tmp_path, capsys, monkeypatch):
    (tmp_path / "spike.json").write_text(json.dumps(SPIKE_MODEL))
    if name == "fitted_cells":
        _fit_cell_model(tmp_path, capsys)
    argv = COMMANDS[name](tmp_path) + ["--samples", str(SAMPLES), "--seed", "11"]
    reports = []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        out = tmp_path / f"r{workers}.json"
        assert run(argv + ["--out", str(out)], capsys) == (0, "", "")
        reports.append(out.read_bytes())
    assert reports[1] == reports[0] and reports[2] == reports[0]


# ---------------------------------------------------------------------------
# Errors in a child's block


def spike_last_block(monkeypatch, u):
    """Set one draw of U (noise column 1) in the last block to u."""
    draw = rng.uniform_block

    def spiked(seed, block_index, n_vars):
        out = draw(seed, block_index, n_vars)
        if block_index == LAST:
            out[7, 1, 0] = u
        return out

    monkeypatch.setattr(rng, "uniform_block", spiked)


@pytest.mark.parametrize("u, message", [
    (0.0, "error[E02]: formula '1/U + V' produced a non-finite value\n"),
    (1e-170, "error[E02]: outcome values are too large to square in float64\n"),
], ids=["node_check", "overflow"])
@pytest.mark.parametrize("subset", [[], ["--subset", "U"]], ids=["full", "subset"])
def test_a_failing_child_block_gives_the_serial_error(u, message, subset, tmp_path, capsys,
                                                       monkeypatch):
    (tmp_path / "spike.json").write_text(json.dumps(SPIKE_MODEL))
    argv = ["counterfactual", "--model", str(tmp_path / "spike.json"),
            "--samples", str(SAMPLES)] + subset
    assert run(argv, capsys)[0] == 0  # the unspiked stream is fine
    spike_last_block(monkeypatch, u)
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        assert run(argv, capsys) == (2, "", message)


# ---------------------------------------------------------------------------
# The kernel on marked blocks


@pytest.fixture
def marked(monkeypatch):
    """Every noise value of block b is b + 0.5, so a provider can tell
    which block it opens; records the blocks opened in this process."""
    monkeypatch.setattr(rng, "uniform_block",
                        lambda seed, b, n: np.full((rng.BLOCK_LEN, n, 2), b + 0.5))
    return []


def kernel(opened, act=lambda b: None):
    def open_block(e, ep, masks):
        b = int(e[0, 0])
        if os.getpid() == PARENT:
            opened.append(b)
        for i, mask in enumerate(masks):
            if i == 1:  # past y(E), which the kernel reads of block 0 before it forks
                act(b)
            yield e[:, 0] * (1 + mask) + np.arange(len(e))

    def stat(y0, y1, outs):
        yield y0
        yield y1 * y0
        yield next(outs) ** 2

    return mc.per_batch_sums(open_block, 1, [1], stat, EstimatorConfig(SAMPLES)).tobytes()


@pytest.mark.parametrize("workers, here", [(1, [0, 1, 2, 3]), (2, [0, 1]), (3, [0])])
def test_children_run_the_later_shares(workers, here, marked, monkeypatch):
    force_workers(monkeypatch, 1)
    want = kernel([])
    force_workers(monkeypatch, workers)
    assert kernel(marked) == want
    assert marked == here


def raise_at(errors):
    def act(b):
        if b in errors:
            raise errors[b]

    return act


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("errors, first", [
    ({3: ModelError("block 3")}, 3),
    ({1: ModelError("block 1"), 3: DomainError("block 3")}, 1),
    ({2: ModelError("block 2"), 3: DomainError("block 3")}, 2),
], ids=["child", "parent_before_child", "earlier_block_first"])
def test_the_earliest_failing_block_wins(workers, errors, first, marked, monkeypatch):
    force_workers(monkeypatch, workers)
    with pytest.raises(type(errors[first]), match=f"^block {first}$"):
        kernel(marked, raise_at(errors))


# every class the kernel raises, and some whose pickled form would not
# rebuild them (ParseError keeps an offset, CycleError takes a list)
ERRORS = [
    DomainError("function must map (m, 3) inputs to (m,) outputs, got (5,)"),
    ModelError("node 'Y': formula '1/U' produced a non-finite value"),
    FormulaEvalError("unknown variable 'Z'"),
    ZeroVarianceError("outcome variance estimate is zero"),
    FitError("cell too small"),
    NotReducibleError("not reducible"),
    ParseError("unexpected token", 7),
    CycleError(["A", "B"]),
    ValueError("operands could not be broadcast together"),
    IndexError("index 3 is out of bounds for axis 0 with size 3"),
    FloatingPointError("overflow encountered in multiply"),
    MemoryError(),
]


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_every_error_class_reaches_the_caller_intact(workers, error, marked, monkeypatch):
    force_workers(monkeypatch, workers)
    with pytest.raises(type(error)) as info:
        kernel(marked, raise_at({LAST: error}))
    assert type(info.value) is type(error)
    assert str(info.value) == str(error)
    assert info.value.args == error.args and vars(info.value) == vars(error)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("death", ["exit", "kill"])
def test_a_child_that_dies_without_a_result_changes_no_bytes(workers, death, marked, monkeypatch):
    force_workers(monkeypatch, 1)
    want = kernel([])

    def die(b):
        if os.getpid() != PARENT and b == LAST:
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), 9)

    force_workers(monkeypatch, workers)
    assert kernel(marked, die) == want
    assert marked[-1] == LAST  # the parent ran the dead child's share


def test_a_failed_fork_runs_the_share_here(marked, monkeypatch):
    force_workers(monkeypatch, 1)
    want = kernel([])

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    force_workers(monkeypatch, 3)
    assert kernel(marked) == want
    assert marked == [0, 1, 2, 3]


@pytest.mark.parametrize("workers", [2, 3])
def test_keyboard_interrupt_in_the_parent_kills_the_children(workers, marked, monkeypatch):
    # raised in the last block of the parent's share: block 1 at two
    # workers, block 0 at three
    last = mc._shares(LAST + 1, SAMPLES, workers)[0][-1]

    def act(b):
        if os.getpid() == PARENT and b == last:
            raise KeyboardInterrupt
        if os.getpid() != PARENT:
            time.sleep(60)

    force_workers(monkeypatch, workers)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        kernel(marked, act)
    assert time.perf_counter() - t0 < 30


# the parent dies in its own share without running its cleanup, as on
# SIGTERM or SIGKILL; the child, 0.2 s a block, writes its pid first
ORPHAN = r"""
import os, sys, time
import numpy as np
from xfvar import mc, rng
from xfvar.mc import EstimatorConfig

mc._max_workers = lambda: 2
rng.uniform_block = lambda seed, b, n: np.full((rng.BLOCK_LEN, n, 2), b + 0.5)
parent, pidfile = os.getpid(), sys.argv[1]

def open_block(e, ep, masks):
    if os.getpid() == parent and e[0, 0] > 1:
        while not os.path.exists(pidfile):
            time.sleep(0.01)
        os._exit(0)
    if os.getpid() != parent:
        if not os.path.exists(pidfile):
            with open(pidfile + ".tmp", "w") as fh:
                fh.write(str(os.getpid()))
            os.rename(pidfile + ".tmp", pidfile)
        time.sleep(0.2)
    for mask in masks:
        yield e[:, 0]

mc.per_batch_sums(open_block, 1, [], lambda y0, y1, outs: (y0, y1),
                  EstimatorConfig(60 * rng.BLOCK_LEN))
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_a_child_whose_parent_died_stops_at_its_next_block(tmp_path):
    pidfile = tmp_path / "child.pid"
    env = {**os.environ, "PYTHONPATH": str(Path(mc.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", ORPHAN, str(pidfile)], env=env, check=True, timeout=60)
    child = int(pidfile.read_text())
    deadline = time.monotonic() + 3.0  # its share has 30 blocks, 6 s
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not _running(child)


def test_a_dead_child_leaves_the_report_bytes_unchanged(tmp_path, capsys, monkeypatch):
    (tmp_path / "spike.json").write_text(json.dumps(SPIKE_MODEL))
    argv = ["counterfactual", "--model", str(tmp_path / "spike.json"), "--samples", str(SAMPLES)]
    force_workers(monkeypatch, 1)
    assert run(argv + ["--out", str(tmp_path / "r1.json")], capsys)[0] == 0
    open_block = scm.HybridOutcomes.open_block

    def dying(self, e, ep, masks):
        if os.getpid() != PARENT:
            os._exit(3)
        return open_block(self, e, ep, masks)

    monkeypatch.setattr(scm.HybridOutcomes, "open_block", dying)
    force_workers(monkeypatch, 3)
    assert run(argv + ["--out", str(tmp_path / "r3.json")], capsys) == (0, "", "")
    assert (tmp_path / "r3.json").read_bytes() == (tmp_path / "r1.json").read_bytes()
