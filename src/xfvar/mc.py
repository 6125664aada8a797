"""Pick-freeze Monte Carlo engine shared by `sensitivity` and `scm`.

Every estimator is one call of a single streaming kernel,
per_batch_sums. Hybrids are named by int bitmasks over the noise
columns: bit c set means column c is resampled. y(mask) is the outcome
of the hybrid that takes the columns set in mask from E' and the rest
from E, so y(0) is y(E) and y(every column) is y(E'); these two
baselines belong to the kernel. Per block of replicate pairs (E, E') of
uniform noise, shape (m, n_noise) each, it calls open_block(E, E',
masks) once with the same masks, 0, every column and each hybrid that
is neither, and reads the outcomes back from the iterator it returns,
one hybrid's at a time. The providers decide how much of each hybrid
they recompute: `sensitivity` transforms E and E' once and builds
hybrids in value space, `scm` compiles the masks into a plan that
computes each op of each node's program once per key of its resampled
ancestors. The kernel sums the rows of a small
per-estimator statistic per stderr batch.

upper_estimate, lower_estimate and superset_estimate take the noise mask
S they estimate and yield the baseline moments of y(E) and y(E') as
their first four rows, for the pooled-variance and batch-stderr step
they share. pickfreeze_totals takes one noise column per query variable
and asks for the hybrids of every variable set with the first variable
toggling slowest; it squares only differences of outcomes.

Noise follows the counter-based stream contract of `rng`: a block of
rng.BLOCK_LEN pairs is a pure function of (seed, block), so blocks may
run in any process. The calling process splits the blocks into
contiguous shares of about equal rows, one per CPU it may use
(os.sched_getaffinity), opens block 0 and reads its y(E) (so a
provider's plan compile and lazy imports happen once, before anything
forks), forks a child for every share but the first and runs the
first, which starts at block 0, itself. Each child sends back its
blocks' partial sums, and the parent adds every block's partial sums in
block order, so results depend on (seed, samples) alone, bit for bit,
whatever the number of processes. Where os.fork or
os.sched_getaffinity is missing, or another Python thread is alive,
the same code runs every share in the calling process.
"""

from __future__ import annotations

import os
import pickle
import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import rng
from .algebra import TotalsTable, mobius_sign, submasks
from .errors import DomainError, ModelError, ZeroVarianceError


# Nonoverlapping batches behind every batch-means standard error.
BATCHES = 20

# Query variables of a full measure: 2**K hybrids per pair and a 4**K
# report interaction table keep this below the algebra's MAX_VARS.
MAX_QUERY_VARS = 12

# Outcomes an estimate asks for, baselines included, (hybrids + 2) * samples:
# 7-11 single-core minutes at the 40-65 ns one took on a 2-CPU x86 host,
# 12x the largest default run (K = 12, 200 000).
MC_BUDGET = 10**10


@dataclass
class EstimatorConfig:
    """Settings for pick-freeze estimation.

    samples is the number M of (E, E') pairs, split into BATCHES batches
    for standard errors; seed selects the noise stream.
    """

    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples < BATCHES:
            raise DomainError(f"samples ({self.samples}) must be >= batches ({BATCHES})")


@dataclass
class Estimate:
    """Monte Carlo point value with batch-means standard error."""

    value: float
    stderr: float
    samples: int


def _batch_starts(m: int, nb: int) -> np.ndarray:
    return np.array([(b * m) // nb for b in range(nb)] + [m], dtype=np.int64)


def _max_workers() -> int:
    """How many processes may run blocks: one per CPU this process may
    use, or 1 where a block cannot run in a forked child (no os.fork or
    os.sched_getaffinity, or another Python thread alive, which the
    child would lack)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return 1 if threading.active_count() > 1 else len(os.sched_getaffinity(0))


def _shares(n_blocks: int, m: int, workers: int) -> list:
    """Blocks 0 .. n_blocks - 1 of m replicates in `workers` (at most
    n_blocks) contiguous ranges of about m / workers rows: share w starts
    at the block boundary nearest w / workers of the rows, or at block w
    if that is later. Share 0 starts at block 0, and none is empty: only
    the last block is short, so the boundaries are a block or more apart
    unless workers == n_blocks, where each share is one block."""
    step = workers * rng.BLOCK_LEN
    starts = [max(w, (2 * w * m + step) // (2 * step)) for w in range(workers)]
    return [range(a, b) for a, b in zip(starts, starts[1:] + [n_blocks])]


def _fork_share(blocks, block_sums):
    """Fork a child that pickles [block_sums(b) for b in blocks] into a
    pipe and exits 0, or exits 1 without a result if anything fails or
    the parent is gone before a block starts (killed by a signal that
    left it no time to kill the child). Returns (pid, read end of the
    pipe), or None if no child could be forked."""
    parent = os.getpid()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the parent runs the share itself
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            sums = []
            for b in blocks:
                if os.getppid() != parent:
                    os._exit(1)
                sums.append(block_sums(b))
            with os.fdopen(w, "wb") as out:
                pickle.dump(sums, out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _read_to_end(fd) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def per_batch_sums(open_block, n_noise, hybrids, stat, cfg: EstimatorConfig):
    """The kernel: per-batch sums of the rows of a per-replicate statistic.

    open_block(E, E', masks) is called once per block, always with the
    same masks: 0, every column, then each of hybrids that is neither.
    It returns an iterator over y(mask) for those masks in that order:
    the outcome of the hybrid that takes the noise columns set in mask
    from E'. stat(y0, y1, outs) yields n_stats rows on every block,
    where y0 = y(0) is y(E), y1 = y(every column) is y(E'), and outs
    yields the outcome of each hybrid in turn when stat asks for it (y0
    or y1 for a baseline). The kernel drops the iterator before it
    opens the next block. Returns an (n_stats, BATCHES) array of sums,
    with n_stats read off block 0's sums.

    The blocks run in contiguous shares of about equal rows, one per
    process (_max_workers, at most one per block). Block 0 is drawn and
    opened, and its y(E) read, before anything is forked, so whatever a
    provider does once (HybridOutcomes compiles its plan when it opens a
    mask list the first time; scipy.special loads on the first Gaussian
    quantile) happens once, and the children inherit it; the rest of
    block 0 runs in the parent's share, which starts there. Forked
    children send their blocks' partial sums back, and the parent adds
    every block's sums in block order, so the float operations and their
    order are the serial loop's. The parent runs its own share before it
    reads any child's, and a child that fails sends nothing, so the
    parent runs that child's share itself: the earliest failing block
    raises, as in a serial run. No child outlives the call, on success
    or on any exception.

    Raises DomainError before the first block past MC_BUDGET outcomes
    asked for, and ModelError when twice a row's total is not finite:
    finite outcomes whose squares (or whose differences' squares) overflow
    float64. The ratio steps that follow add at most two totals, so they
    stay finite.
    """
    m = cfg.samples
    evals = (len(hybrids) + 2) * m
    if evals > MC_BUDGET:
        raise DomainError(f"{evals} outcome evaluations exceed the Monte Carlo budget {MC_BUDGET}")
    every = (1 << n_noise) - 1
    masks = (0, every, *(h for h in hybrids if h not in (0, every)))
    starts = _batch_starts(m, BATCHES)

    def opened(block_index):
        """open_block over the block's noise."""
        g0 = block_index * rng.BLOCK_LEN
        u = rng.uniform_block(cfg.seed, block_index, n_noise)[: m - g0]
        return open_block(u[:, :, 0], u[:, :, 1], masks)

    def block_sums(block_index, outs=None):
        """The first batch a block touches, and the (n_stats, batches
        touched) sums of the statistic's rows over the block; outs is
        the block's iterator when it is already open."""
        g0 = block_index * rng.BLOCK_LEN
        g1 = min(g0 + rng.BLOCK_LEN, m)
        b0 = bisect_right(starts, g0) - 1
        b1 = bisect_right(starts, g1 - 1) - 1
        bounds = np.maximum(starts[b0 : b1 + 1] - g0, 0)
        if outs is None:
            outs = opened(block_index)  # freed on return
        y0, y1 = next(outs), next(outs)
        ys = (y0 if h == 0 else y1 if h == every else next(outs) for h in hybrids)
        rows = stat(y0, y1, ys)
        return b0, np.array([np.add.reduceat(vals, bounds) for vals in rows])

    acc = None

    def add(b0, sums):
        nonlocal acc
        if acc is None:
            acc = np.zeros((len(sums), BATCHES))
        acc[:, b0 : b0 + sums.shape[1]] += sums

    n = rng.n_blocks(m)
    with np.errstate(over="ignore", invalid="ignore"):
        shares = _shares(n, m, min(_max_workers(), n))
        first = opened(0)
        first = chain((next(first),), first)  # y(E) of block 0, before the fork
        children = []  # (pid, pipe) per forked share; None once reaped, or if no fork
        try:
            for blocks in shares[1:]:
                children.append(_fork_share(blocks, block_sums))
            add(*block_sums(0, first))
            del first
            for b in shares[0][1:]:
                add(*block_sums(b))
            for i, blocks in enumerate(shares[1:]):
                parts = None
                if children[i] is not None:
                    pid, fd = children[i]
                    data = _read_to_end(fd)
                    status = os.waitpid(pid, 0)[1]
                    children[i] = None
                    os.close(fd)
                    if status == 0:
                        parts = pickle.loads(data)
                for part in parts if parts is not None else map(block_sums, blocks):
                    add(*part)
        finally:
            for child in children:
                if child is not None:
                    os.close(child[1])
                    os.kill(child[0], 9)  # SIGKILL
                    os.waitpid(child[0], 0)
        finite = np.isfinite(2.0 * acc.sum(axis=1)).all()
    if not finite:
        raise ModelError("outcome values are too large to square in float64")
    return acc


def hybrid(e, ep, cols):
    """Copy of e whose given columns are taken from the resampled ep."""
    h = e.copy()
    h[:, cols] = ep[:, cols]
    return h


def _moments(y0, y1):
    """Rows 0-3 of a ratio estimator's statistic: y0, y0**2, y1 and y1**2,
    the baseline moments _pooled_variance reads."""
    return y0, y0**2, y1, y1**2


def _pooled_variance(sums, counts):
    """Population variance of the pooled 2m baseline outputs per batch."""
    tot = 2.0 * counts
    mean = (sums[0] + sums[2]) / tot
    return (sums[1] + sums[3]) / tot - mean**2


def _ratio_stderr(num, den):
    """Batch-means stderr of a ratio of per-batch statistics, over the last axis."""
    if np.any(den <= 0):
        raise ZeroVarianceError(
            "a standard-error batch has non-positive variance; increase samples"
        )
    ratios = num / den
    return np.std(ratios, axis=-1, ddof=1) / np.sqrt(ratios.shape[-1])


def _pooled_ratio(acc, num, cfg: EstimatorConfig) -> Estimate:
    """A statistic over the pooled baseline variance, with its stderr.

    num(sums, count) maps kernel row sums over count replicates to the
    statistic; it is applied to the grand totals for the value and to
    the per-batch sums for the batch-means stderr.
    """
    m = float(cfg.samples)
    totals = [row.sum() for row in acc]
    vpool = _pooled_variance(totals, np.array(m))
    if vpool <= 0.0:
        raise ZeroVarianceError("outcome variance estimate is zero")
    counts = np.diff(_batch_starts(cfg.samples, BATCHES)).astype(float)
    stderr = float(_ratio_stderr(num(acc, counts), _pooled_variance(acc, counts)))
    return Estimate(float(num(totals, m) / vpool), stderr, cfg.samples)


def pickfreeze_totals(open_block, n_noise, cols, cfg: EstimatorConfig) -> TotalsTable:
    """Totals for every nonempty set of query variables from common random pairs.

    cols[j] is the noise column query variable j owns; the hybrid of a
    variable set resamples its variables' columns. The denominator is
    the all-coordinates pick-freeze numerator sum((y(E) - y(E'))^2) / (2M),
    an unbiased variance estimate built from the same pooled outputs, so
    the total of the full query set is exactly 1 whenever it resamples
    every noise coordinate. Only differences of outcomes are squared.

    Each block asks for 2**K + 1 outcomes: the two baselines plus one
    hybrid per nonempty subset, so K is capped by MAX_QUERY_VARS. What
    one outcome costs is up to the provider behind open_block, which
    evaluates y(E') once when the full set resamples every column. The
    subsets come with variable 0 toggling slowest, which shortens how
    long a provider that reuses values across hybrids keeps them; each
    subset's row sums on its own, so the order changes no bits.
    """
    k = len(cols)
    if k > MAX_QUERY_VARS:
        raise DomainError(f"{k} query variables; at most {MAX_QUERY_VARS} are supported")
    # sets[t], masks[t]: the t-th variable set and its noise mask, counting
    # with variable 0 toggling slowest: sets[t] is t bit-reversed, so the
    # kernel's row sets[s] is the set s
    sets, masks = [0], [0]
    for j in reversed(range(k)):
        sets += [s | 1 << j for s in sets]
        masks += [mask | 1 << cols[j] for mask in masks]

    def stat(y0, y1, outs):
        yield (y0 - y1) ** 2
        for ys in outs:
            yield (y0 - ys) ** 2

    acc = per_batch_sums(open_block, n_noise, masks[1:], stat, cfg)[sets]
    base = acc[0]
    denom = float(base.sum())
    if denom <= 0.0:
        raise ZeroVarianceError("outcome shows no variation across resampled noise")
    totals = acc.sum(axis=1) / denom
    stderrs = _ratio_stderr(acc, base)
    totals[0] = stderrs[0] = 0.0
    return TotalsTable(k, totals, stderrs)


def range_tolerance(table: TotalsTable) -> float:
    """How far Monte Carlo totals may stray outside [0, 1] before
    measure_from_totals rejects them."""
    return 0.05 + 10.0 * float(table.stderr.max(initial=0.0))


def upper_estimate(open_block, n_noise, s, cfg: EstimatorConfig) -> Estimate:
    """Total (upper) index of the noise mask s: half mean squared
    pick-freeze difference after resampling s, over the pooled empirical
    variance of the 2M baselines."""

    def stat(y0, y1, outs):
        yield from _moments(y0, y1)
        yield (y0 - next(outs)) ** 2

    acc = per_batch_sums(open_block, n_noise, [s], stat, cfg)
    return _pooled_ratio(acc, lambda t, c: t[4] / (2.0 * c), cfg)


def lower_estimate(open_block, n_noise, s, cfg: EstimatorConfig) -> Estimate:
    """Lower index of the noise mask s: covariance of f(W) with the hybrid
    that keeps s and resamples every other column, over the pooled
    variance."""

    def stat(y0, y1, outs):
        yield from _moments(y0, y1)
        g = next(outs)
        yield y0 * g
        yield g

    rest = ((1 << n_noise) - 1) & ~s
    acc = per_batch_sums(open_block, n_noise, [rest], stat, cfg)
    return _pooled_ratio(acc, lambda t, c: t[4] / c - (t[0] / c) * (t[5] / c), cfg)


def superset_estimate(open_block, n_noise, s, cfg: EstimatorConfig) -> Estimate:
    """Superset importance of the noise mask s from its interaction contrast.

    The contrast is the signed sum of the hybrids of every submask of s,
    enumerated by increasing mask (the empty submask is y(E) itself), and
    the estimate is Var(contrast) over 2**|s| times the pooled variance.
    """
    subs = sorted(submasks(s))
    signs = [mobius_sign(s, t) for t in subs]

    def stat(y0, y1, outs):
        yield from _moments(y0, y1)
        contrast = signs[0] * y0
        for sign, ys in zip(signs[1:], outs):
            contrast = contrast + sign * ys
        yield contrast
        yield contrast**2

    acc = per_batch_sums(open_block, n_noise, subs[1:], stat, cfg)
    scale = 2.0 ** s.bit_count()
    return _pooled_ratio(acc, lambda t, c: (t[5] / c - (t[4] / c) ** 2) / scale, cfg)
