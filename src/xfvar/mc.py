"""Pick-freeze Monte Carlo engine shared by `sensitivity` and `scm`.

Every estimator is one call of a single streaming kernel,
per_batch_sums. Hybrids are named by int bitmasks over the noise
columns: bit c set means column c is resampled. Per block of replicate
pairs (E, E') of uniform noise, shape (m, n_noise) each, the kernel
opens one hybrid evaluator, open_block(E, E'), which returns y(mask):
the outcome of the hybrid that takes the columns set in mask from E' and
the rest from E. y(0) is y(E) and y(every column) is y(E'). The
providers decide how much of each hybrid they recompute: `sensitivity`
transforms E and E' once and builds hybrids in value space, `scm`
memoizes node values, mechanism stages and formula ops on the
resampled ancestors. Per block the kernel asks for y(E), y(E') and a
list of hybrid masks, with one hybrid output alive at a time, and sums
the rows of a small per-estimator statistic per stderr batch.

upper_estimate, lower_estimate and superset_estimate take the noise mask
S they estimate and yield the baseline moments of y(E) and y(E') as
their first four rows, for the pooled-variance and batch-stderr step
they share. pickfreeze_totals takes one noise column per query variable
and enumerates the hybrids of every variable set by increasing bitmask;
it squares only differences of outcomes.

Noise follows the counter-based stream contract of `rng`. Replicate
blocks of rng.BLOCK_LEN pairs run one at a time, in block order, and add
their partial sums in that order, so results depend on (seed, samples)
alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import rng
from .algebra import TotalsTable, mobius_sign, submasks
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


def per_batch_sums(open_block, n_noise, hybrids, stat, n_stats, cfg: EstimatorConfig):
    """The kernel: per-batch sums of the rows of a per-replicate statistic.

    open_block(E, E') is called once per block and returns y(mask), the
    outcome of the hybrid that takes the noise columns set in mask from
    E'. stat(y0, y1, outs) must yield n_stats rows, where y0 = y(0) is
    y(E), y1 = y(every column) is y(E'), and outs iterates y over the
    masks hybrids[0], hybrids[1], ... in that order, each evaluated when
    stat asks for it. Returns an (n_stats, BATCHES) array of sums.

    Raises DomainError before the first block past MC_BUDGET outcome
    evaluations, and ModelError when twice a row's total is not finite:
    finite outcomes whose squares (or whose differences' squares) overflow
    float64. The ratio steps that follow add at most two totals, so they
    stay finite.
    """
    m = cfg.samples
    evals = (len(hybrids) + 2) * m
    if evals > MC_BUDGET:
        raise DomainError(f"{evals} outcome evaluations exceed the Monte Carlo budget {MC_BUDGET}")
    every = (1 << n_noise) - 1
    starts = _batch_starts(m, BATCHES)

    acc = np.zeros((n_stats, BATCHES))
    with np.errstate(over="ignore", invalid="ignore"):
        for block_index in range(rng.n_blocks(m)):
            g0 = block_index * rng.BLOCK_LEN
            g1 = min(g0 + rng.BLOCK_LEN, m)
            u = rng.uniform_block(cfg.seed, block_index, n_noise)[: g1 - g0]
            b0 = bisect_right(starts, g0) - 1
            b1 = bisect_right(starts, g1 - 1) - 1
            bounds = np.maximum(starts[b0 : b1 + 1] - g0, 0)
            y = open_block(u[:, :, 0], u[:, :, 1])
            for r, vals in enumerate(stat(y(0), y(every), (y(s) for s in hybrids))):
                acc[r, b0 : b1 + 1] += np.add.reduceat(vals, bounds)
            del y  # this block's memo dies before the next block opens
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
    one outcome costs is up to the provider behind open_block.
    """
    k = len(cols)
    if k > MAX_QUERY_VARS:
        raise DomainError(f"{k} query variables; at most {MAX_QUERY_VARS} are supported")
    n_masks = 1 << k
    masks = [0]  # masks[s]: the noise mask of the variable set s
    for c in cols:
        masks += [mask | 1 << c for mask in masks]

    def stat(y0, y1, outs):
        yield (y0 - y1) ** 2
        for ys in outs:
            yield (y0 - ys) ** 2

    acc = per_batch_sums(open_block, n_noise, masks[1:], stat, n_masks, cfg)
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


def upper_estimate(open_block, n_noise, s, cfg: EstimatorConfig) -> Estimate:
    """Total (upper) index of the noise mask s: half mean squared
    pick-freeze difference after resampling s, over the pooled empirical
    variance of the 2M baselines."""

    def stat(y0, y1, outs):
        yield from _moments(y0, y1)
        yield (y0 - next(outs)) ** 2

    acc = per_batch_sums(open_block, n_noise, [s], stat, 5, cfg)
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
    acc = per_batch_sums(open_block, n_noise, [rest], stat, 6, cfg)
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

    acc = per_batch_sums(open_block, n_noise, subs[1:], stat, 6, cfg)
    scale = 2.0 ** s.bit_count()
    return _pooled_ratio(acc, lambda t, c: (t[5] / c - (t[4] / c) ** 2) / scale, cfg)
