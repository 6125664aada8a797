"""Pick-freeze Monte Carlo engine shared by `sensitivity` and `scm`.

Every estimator is one call of a single streaming kernel. Per block of
replicate pairs (E, E') of uniform noise, shape (m, n_noise) each, the
kernel opens one hybrid evaluator, open_block(E, E'), which returns
y(cols): the outcome of the hybrid that takes the noise columns cols from
E' and the rest from E. y(()) is y(E) and y(every column) is y(E'). The
providers decide how much of each hybrid they recompute: `sensitivity`
transforms E and E' once and builds hybrids in value space, `scm`
memoizes node values on the resampled ancestors. Per block the kernel
asks for y(E), y(E') and a list of hybrids, with one hybrid output alive
at a time. It sums, per stderr batch, the baseline moments of y(E) and
y(E') and the rows of a small per-estimator statistic; the ratio
estimators share one pooled-variance and batch-stderr step.

`pickfreeze_totals` and `superset_estimate` take one noise-column list per
query variable: the hybrid of a variable set resamples the union of its
variables' columns, and hybrids are enumerated by increasing bitmask.

Noise follows the counter-based stream contract of `rng`. Replicate
blocks are independent work items whose partial sums are combined in
block order, so results are bit-identical for any thread count.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .algebra import TotalsTable, members, mobius_sign
from .errors import DomainError, ModelError, ZeroVarianceError


# Nonoverlapping batches behind every batch-means standard error.
BATCHES = 20

# Query variables of a full measure: 2**K hybrids per pair and a 4**K
# report interaction table keep this below the algebra's MAX_VARS.
MAX_QUERY_VARS = 12

# Outcome evaluations per estimate: 7-11 single-core minutes at the 40-65 ns
# one took on a 2-CPU x86 host, 12x the largest default run (K = 12, 200 000).
MC_BUDGET = 10**10


@dataclass
class EstimatorConfig:
    """Settings for pick-freeze estimation.

    samples is the number M of (E, E') pairs, split into BATCHES batches
    for standard errors. threads: worker count for block processing,
    0 = auto.
    """

    samples: int
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.samples < BATCHES:
            raise DomainError(f"samples ({self.samples}) must be >= batches ({BATCHES})")
        if self.threads < 0:
            raise DomainError("threads must be >= 0 (0 = auto)")


@dataclass
class Estimate:
    """Monte Carlo point value with batch-means standard error."""

    value: float
    stderr: float
    samples: int


def _n_workers(threads: int) -> int:
    if threads == 0:
        return os.cpu_count() or 1
    return max(1, threads)


def _batch_starts(m: int, nb: int) -> np.ndarray:
    return np.array([(b * m) // nb for b in range(nb)] + [m], dtype=np.int64)


def per_batch_sums(n_noise, cfg: EstimatorConfig, fill_block, n_stats):
    """Accumulate per-replicate statistics into per-batch sums.

    fill_block(E, Ep, add_row) must compute statistic rows for one block
    of replicates and hand each to add_row(row_index, values) with values
    of shape (block length,). Returns an (n_stats, BATCHES) array of sums.
    """
    m = cfg.samples
    starts = _batch_starts(m, BATCHES)
    acc = np.zeros((n_stats, BATCHES))

    def work(block_index):
        g0 = block_index * rng.BLOCK_LEN
        g1 = min(g0 + rng.BLOCK_LEN, m)
        u = rng.uniform_block(cfg.seed, block_index, n_noise)[: g1 - g0]
        b0 = bisect_right(starts, g0) - 1
        b1 = bisect_right(starts, g1 - 1) - 1
        bounds = np.maximum(starts[b0 : b1 + 1] - g0, 0)
        part = np.zeros((n_stats, b1 - b0 + 1))

        def add_row(r, vals):
            part[r] += np.add.reduceat(vals, bounds)

        fill_block(u[:, :, 0], u[:, :, 1], add_row)
        return b0, part

    blocks = range(rng.n_blocks(m))
    workers = _n_workers(cfg.threads)
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for b0, part in pool.map(work, blocks):
                acc[:, b0 : b0 + part.shape[1]] += part
    else:
        for bi in blocks:
            b0, part = work(bi)
            acc[:, b0 : b0 + part.shape[1]] += part
    return acc


def hybrid(e, ep, cols):
    """Copy of e whose given columns are taken from the resampled ep."""
    h = e.copy()
    h[:, cols] = ep[:, cols]
    return h


def _union_cols(var_cols, mask):
    """Noise columns of the variables whose bits are set in mask."""
    return np.array([c for j in members(mask) for c in var_cols[j]], dtype=np.intp)


# Rows 0-3 of every kernel result: sums of y0, y0**2, y1 and y1**2.
_MOMENTS = 4


def _pickfreeze_sums(open_block, n_noise, hybrid_cols, stat, n_stats, cfg: EstimatorConfig):
    """The kernel: per-batch sums of the baseline moments and of stat's rows.

    open_block(E, E') is called once per block and returns y(cols), the
    outcome of the hybrid that takes cols from E'. y0 = y(E) and
    y1 = y(E'); stat(y0, y1, hybrids) must yield n_stats rows, where
    hybrids iterates y over hybrid_cols[0], hybrid_cols[1], ... in that
    order. Returns a (4 + n_stats, BATCHES) array whose first four rows
    are the moments.

    Raises DomainError before the first block past MC_BUDGET outcome
    evaluations, and ModelError when twice a row's total is not finite:
    finite outcomes whose squares overflow float64. The ratio steps that
    follow add at most two totals, so they stay finite.
    """
    evals = (len(hybrid_cols) + 2) * cfg.samples
    if evals > MC_BUDGET:
        raise DomainError(f"{evals} outcome evaluations exceed the Monte Carlo budget {MC_BUDGET}")
    none = np.zeros(0, dtype=np.intp)
    every = np.arange(n_noise, dtype=np.intp)

    def fill_block(e, ep, add_row):
        y = open_block(e, ep)
        # set here as well: pool threads do not inherit the caller's errstate
        with np.errstate(over="ignore", invalid="ignore"):
            y0 = y(none)
            y1 = y(every)
            for r, vals in enumerate((y0, y0**2, y1, y1**2)):
                add_row(r, vals)
            hybrids = (y(cols) for cols in hybrid_cols)
            for r, vals in enumerate(stat(y0, y1, hybrids), _MOMENTS):
                add_row(r, vals)

    with np.errstate(over="ignore", invalid="ignore"):
        acc = per_batch_sums(n_noise, cfg, fill_block, _MOMENTS + n_stats)
        finite = np.isfinite(2.0 * acc.sum(axis=1)).all()
    if not finite:
        raise ModelError("outcome values are too large to square in float64")
    return acc


def _pooled_variance(sums, counts):
    """Population variance of the pooled 2m baseline outputs per batch."""
    tot = 2.0 * counts
    mean = (sums[0] + sums[2]) / tot
    return (sums[1] + sums[3]) / tot - mean**2


def _ratio_stderr(num, den):
    """Batch-means stderr of a ratio of per-batch statistics."""
    if np.any(den <= 0):
        raise ZeroVarianceError(
            "a standard-error batch has non-positive variance; increase samples"
        )
    ratios = num / den
    return float(np.std(ratios, ddof=1) / np.sqrt(len(ratios)))


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
    stderr = _ratio_stderr(num(acc, counts), _pooled_variance(acc, counts))
    return Estimate(float(num(totals, m) / vpool), stderr, cfg.samples)


def pickfreeze_totals(open_block, n_noise, var_cols, cfg: EstimatorConfig) -> TotalsTable:
    """Totals for every nonempty set of query variables from common random pairs.

    var_cols[j] lists the noise columns owned by query variable j. The
    denominator is the all-coordinates pick-freeze numerator
    sum((y(E) - y(E'))^2) / (2M), an unbiased variance estimate built
    from the same pooled outputs, so the total of the full query set is
    exactly 1 whenever it resamples every noise coordinate.

    Each block asks for 2**K + 1 outcomes: the two baselines plus one
    hybrid per nonempty subset, so K is capped by MAX_QUERY_VARS. What
    one outcome costs is up to the provider behind open_block.
    """
    k = len(var_cols)
    if k > MAX_QUERY_VARS:
        raise DomainError(f"{k} query variables; at most {MAX_QUERY_VARS} are supported")
    n_masks = 1 << k

    def stat(y0, y1, hybrids):
        yield (y0 - y1) ** 2
        for ys in hybrids:
            yield (y0 - ys) ** 2

    hybrid_cols = [_union_cols(var_cols, s) for s in range(1, n_masks)]
    acc = _pickfreeze_sums(open_block, n_noise, hybrid_cols, stat, n_masks, cfg)[_MOMENTS:]
    base = acc[0]
    denom = float(base.sum())
    if denom <= 0.0:
        raise ZeroVarianceError("outcome shows no variation across resampled noise")
    totals = np.zeros(n_masks)
    stderrs = np.zeros(n_masks)
    for s in range(1, n_masks):
        totals[s] = float(acc[s].sum()) / denom
        stderrs[s] = _ratio_stderr(acc[s], base)
    return TotalsTable(k, totals, stderrs)


def range_tolerance(table: TotalsTable) -> float:
    """How far Monte Carlo totals may stray outside [0, 1] before
    measure_from_totals rejects them."""
    return 0.05 + 10.0 * float(table.stderr.max(initial=0.0))


def upper_estimate(open_block, n_noise, cols, cfg: EstimatorConfig) -> Estimate:
    """Total (upper) index of one subset: half mean squared pick-freeze
    difference over the pooled empirical variance of the 2M baselines."""

    def stat(y0, y1, hybrids):
        yield (y0 - next(hybrids)) ** 2

    acc = _pickfreeze_sums(open_block, n_noise, [cols], stat, 1, cfg)
    return _pooled_ratio(acc, lambda s, c: s[4] / (2.0 * c), cfg)


def lower_estimate(open_block, n_noise, keep_complement_cols, cfg: EstimatorConfig) -> Estimate:
    """Lower index of one subset: covariance of f(W) with the hybrid that
    keeps the subset and resamples everything else, over the pooled variance.

    keep_complement_cols lists the resampled (complement) noise columns.
    """

    def stat(y0, y1, hybrids):
        g = next(hybrids)
        yield y0 * g
        yield g

    acc = _pickfreeze_sums(open_block, n_noise, [keep_complement_cols], stat, 2, cfg)
    return _pooled_ratio(acc, lambda s, c: s[4] / c - (s[0] / c) * (s[5] / c), cfg)


def superset_estimate(open_block, n_noise, var_cols, cfg: EstimatorConfig) -> Estimate:
    """Superset importance of one variable set from its interaction contrast.

    var_cols[j] lists the noise columns owned by variable j of the set.
    The contrast is the signed sum of the hybrids of every submask (the
    empty submask is y(E) itself), and the estimate is Var(contrast)
    over 2**|S| times the pooled variance.
    """
    size = len(var_cols)
    signs = [mobius_sign((1 << size) - 1, i) for i in range(1 << size)]

    def stat(y0, y1, hybrids):
        contrast = signs[0] * y0
        for sign, ys in zip(signs[1:], hybrids):
            contrast = contrast + sign * ys
        yield contrast
        yield contrast**2

    hybrid_cols = [_union_cols(var_cols, i) for i in range(1, 1 << size)]
    acc = _pickfreeze_sums(open_block, n_noise, hybrid_cols, stat, 2, cfg)
    scale = 2.0**size
    return _pooled_ratio(acc, lambda s, c: (s[5] / c - (s[4] / c) ** 2) / scale, cfg)
