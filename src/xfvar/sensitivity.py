"""Variance-based sensitivity analysis for functions of independent inputs.

Inputs are described by an IndependentSampler holding one root
mechanism per variable; all randomness flows through the uniform noise
stream of `rng`, so every estimator is reproducible from (samples, seed)
alone and two estimators with the same config share their sample pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mc
from .algebra import MAX_VARS, ExplanationMeasure, Provenance, measure_from_totals, members, mobius_sign
from .errors import DomainError
from .formula import sigmoid
from .mc import (
    Estimate,
    EstimatorConfig,
    lower_estimate,
    pickfreeze_totals,
    range_tolerance,
    superset_estimate,
    upper_estimate,
)
from .scm import RootGaussian


@dataclass(frozen=True)
class IndependentSampler:
    """Product distribution of independent inputs, one root mechanism
    (RootGaussian, RootUniform, ...) per variable."""

    roots: tuple

    def __post_init__(self):
        if not self.roots:
            raise DomainError("need at least one input variable")
        if len(self.roots) > MAX_VARS:
            raise DomainError(f"at most {MAX_VARS} input variables supported")

    @property
    def k(self) -> int:
        return len(self.roots)

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Map uniform noise (m, K) to input samples (m, K)."""
        cols = [np.asarray(m.sample(u[:, j], ()), dtype=float) for j, m in enumerate(self.roots)]
        return np.column_stack(cols)


def standard_normal_sampler(k: int) -> IndependentSampler:
    return IndependentSampler(tuple(RootGaussian(f"W{j + 1}") for j in range(k)))


def independent_outcomes(f, sampler: IndependentSampler):
    """Hybrid evaluator of f over the sampler's inputs, for the mc kernel.

    Variable j owns noise column j. open_block(E, E', masks) transforms
    both noise blocks once and yields f of each mask's hybrid, built in
    value space, which equals the transform of the noise hybrid because
    every quantile acts on its own column. f runs once for the mask of
    every column, y(E'), which the kernel asks for as its second outcome
    and pickfreeze_totals again as its full query set.
    """
    every = (1 << sampler.k) - 1

    def open_block(e, ep, masks):
        x, xp = sampler.transform(e), sampler.transform(ep)
        y_every = None
        for mask in masks:
            if mask == every and y_every is not None:
                yield y_every
                continue
            out = np.asarray(f(mc.hybrid(x, xp, members(mask))), dtype=float)
            if out.shape != (x.shape[0],):
                raise DomainError(
                    f"function must map (m, {sampler.k}) inputs to (m,) outputs, got {out.shape}"
                )
            if mask == every:
                y_every = out
            yield out

    return open_block


def _subset_mask(subset, k) -> int:
    s = set(int(j) for j in subset)
    if not s:
        raise DomainError("subset must be nonempty")
    if min(s) < 0 or max(s) >= k:
        raise DomainError(f"subset indices must lie in [0, {k})")
    return sum(1 << j for j in s)


def estimate_upper(f, sampler: IndependentSampler, subset, cfg: EstimatorConfig) -> Estimate:
    """Upper sensitivity (total Sobol index) of a variable subset."""
    s = _subset_mask(subset, sampler.k)
    return upper_estimate(independent_outcomes(f, sampler), sampler.k, s, cfg)


def estimate_lower(f, sampler: IndependentSampler, subset, cfg: EstimatorConfig) -> Estimate:
    """Lower sensitivity (closed Sobol index) of a variable subset."""
    s = _subset_mask(subset, sampler.k)
    return lower_estimate(independent_outcomes(f, sampler), sampler.k, s, cfg)


def estimate_superset(f, sampler: IndependentSampler, subset, cfg: EstimatorConfig) -> Estimate:
    """Superset importance of a variable subset via its interaction contrast."""
    s = _subset_mask(subset, sampler.k)
    return superset_estimate(independent_outcomes(f, sampler), sampler.k, s, cfg)


def estimate_measure(f, sampler: IndependentSampler, cfg: EstimatorConfig, names) -> ExplanationMeasure:
    """Full explanation measure over all variables of the sampler.

    Costs two input transforms and 2**K function calls per block of
    sample pairs (of 2**K + 1 outcomes, y(E') comes twice), so K is
    capped by mc.MAX_QUERY_VARS. The full-set total is exactly 1 by
    construction; the remaining totals feed the inclusion-exclusion
    inversion.
    """
    names = tuple(names)
    if len(names) != sampler.k:
        raise DomainError(f"got {len(names)} names for {sampler.k} variables")
    table = pickfreeze_totals(independent_outcomes(f, sampler), sampler.k, range(sampler.k), cfg)
    prov = Provenance("monte_carlo", samples=cfg.samples, seed=cfg.seed)
    return measure_from_totals(table, names, provenance=prov, tol=range_tolerance(table))


def interaction_contrast(f, w, w2, subset) -> float:
    """Signed hybrid-point sum whose variance scales superset importance.

    w supplies the base coordinates, w2 the donor coordinates for the
    subset; the empty subset gives f(w) itself.
    """
    w = np.asarray(w, dtype=float).ravel()
    w2 = np.asarray(w2, dtype=float).ravel()
    if w.shape != w2.shape:
        raise DomainError("w and w2 must have the same length")
    s = tuple(sorted(set(int(j) for j in subset)))
    if s and (s[0] < 0 or s[-1] >= w.size):
        raise DomainError(f"subset indices must lie in [0, {w.size})")
    rows = np.tile(w, (1 << len(s), 1))
    signs = np.empty(1 << len(s))
    for i in range(1 << len(s)):
        chosen = [s[b] for b in members(i)]
        rows[i, chosen] = w2[chosen]
        signs[i] = mobius_sign((1 << len(s)) - 1, i)
    vals = np.asarray(f(rows), dtype=float).ravel()
    return float(np.dot(signs, vals))


def _linear3(w):
    return w[:, 0] + w[:, 1] + w[:, 2]


def _quadratic3(w):
    return w[:, 0] * w[:, 1] + w[:, 0] * w[:, 2] + w[:, 1] * w[:, 2]


def _sigmoid_nn3(w):
    return sigmoid(-10.0 * (w[:, 0] + w[:, 1])) + sigmoid(-10.0 * (w[:, 1] + w[:, 2]))


def _multilinear3(w):
    return w[:, 0] * w[:, 1] * w[:, 2]


FUNCTIONS = {
    "linear3": _linear3,
    "quadratic3": _quadratic3,
    "sigmoid_nn3": _sigmoid_nn3,
    "multilinear3": _multilinear3,
}


def named_function(name: str):
    """Look up a built-in test function of three standard normals: (f, sampler, names)."""
    try:
        f = FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(FUNCTIONS))
        raise DomainError(f"unknown function {name!r}; known: {known}") from None
    return f, standard_normal_sampler(3), ("W1", "W2", "W3")
