"""Variance-based sensitivity analysis for functions of independent inputs.

Inputs are described by an IndependentSampler holding one quantile
transform per variable; all randomness flows through the uniform noise
stream of `rng`, so every estimator is reproducible from (samples, seed)
alone and two estimators with the same config share their sample pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit, ndtri

from .algebra import MAX_VARS, ExplanationMeasure, Provenance, measure_from_totals
from .errors import DomainError
from .mc import (
    Estimate,
    EstimatorConfig,
    lower_estimate,
    pickfreeze_totals,
    range_tolerance,
    superset_estimate,
    upper_estimate,
)

Quantile = Callable[[np.ndarray], np.ndarray]


def normal_quantile(mean=0.0, std=1.0) -> Quantile:
    return lambda u: mean + std * ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))


def uniform_quantile(low=0.0, high=1.0) -> Quantile:
    return lambda u: low + (high - low) * u


def rademacher_quantile() -> Quantile:
    # u > 0.5 -> +1, else -1; ties at exactly 0.5 go to -1
    return lambda u: np.where(u > 0.5, 1.0, -1.0)


@dataclass(frozen=True)
class IndependentSampler:
    """Product distribution given by one quantile transform per variable."""

    quantiles: tuple

    def __post_init__(self):
        if not self.quantiles:
            raise DomainError("need at least one input variable")
        if len(self.quantiles) > MAX_VARS:
            raise DomainError(f"at most {MAX_VARS} input variables supported")

    @property
    def k(self) -> int:
        return len(self.quantiles)

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Map uniform noise (m, K) to input samples (m, K)."""
        cols = [np.asarray(q(u[:, j]), dtype=float) for j, q in enumerate(self.quantiles)]
        return np.column_stack(cols)


def standard_normal_sampler(k: int) -> IndependentSampler:
    return IndependentSampler(tuple(normal_quantile() for _ in range(k)))


def _as_yfn(f, sampler: IndependentSampler):
    def yfn(u):
        y = np.asarray(f(sampler.transform(u)), dtype=float)
        if y.shape != (u.shape[0],):
            raise DomainError(
                f"function must map (m, {sampler.k}) inputs to (m,) outputs, got {y.shape}"
            )
        return y

    return yfn


def _check_subset(subset, k) -> tuple:
    s = tuple(sorted(set(int(j) for j in subset)))
    if not s:
        raise DomainError("subset must be nonempty")
    if s[0] < 0 or s[-1] >= k:
        raise DomainError(f"subset indices must lie in [0, {k})")
    return s


def estimate_upper(f, sampler: IndependentSampler, subset, cfg: EstimatorConfig) -> Estimate:
    """Upper sensitivity (total Sobol index) of a variable subset."""
    cols = np.array(_check_subset(subset, sampler.k), dtype=np.intp)
    return upper_estimate(_as_yfn(f, sampler), sampler.k, cols, cfg)


def estimate_lower(f, sampler: IndependentSampler, subset, cfg: EstimatorConfig) -> Estimate:
    """Lower sensitivity (closed Sobol index) of a variable subset."""
    s = _check_subset(subset, sampler.k)
    comp = np.array([j for j in range(sampler.k) if j not in s], dtype=np.intp)
    return lower_estimate(_as_yfn(f, sampler), sampler.k, comp, cfg)


def estimate_superset(f, sampler: IndependentSampler, subset, cfg: EstimatorConfig) -> Estimate:
    """Superset importance of a variable subset via its interaction contrast."""
    var_cols = [[j] for j in _check_subset(subset, sampler.k)]
    return superset_estimate(_as_yfn(f, sampler), sampler.k, var_cols, cfg)


def estimate_measure(f, sampler: IndependentSampler, cfg: EstimatorConfig, names) -> ExplanationMeasure:
    """Full explanation measure over all variables of the sampler.

    Costs (2**K + 1) function calls per sample pair, so K is capped by
    cfg.max_vars. The full-set total is exactly 1 by construction; the
    remaining totals feed the inclusion-exclusion inversion.
    """
    names = tuple(names)
    if len(names) != sampler.k:
        raise DomainError(f"got {len(names)} names for {sampler.k} variables")
    var_cols = [[j] for j in range(sampler.k)]
    table = pickfreeze_totals(_as_yfn(f, sampler), sampler.k, var_cols, cfg)
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
        chosen = [s[b] for b in range(len(s)) if i & (1 << b)]
        rows[i, chosen] = w2[chosen]
        signs[i] = (-1.0) ** (len(s) - len(chosen))
    vals = np.asarray(f(rows), dtype=float).ravel()
    return float(np.dot(signs, vals))


def _linear3(w):
    return w[:, 0] + w[:, 1] + w[:, 2]


def _quadratic3(w):
    return w[:, 0] * w[:, 1] + w[:, 0] * w[:, 2] + w[:, 1] * w[:, 2]


def _sigmoid_nn3(w):
    return expit(-10.0 * (w[:, 0] + w[:, 1])) + expit(-10.0 * (w[:, 1] + w[:, 2]))


def _multilinear3(w):
    return w[:, 0] * w[:, 1] * w[:, 2]


# name -> (function, sampler factory, variable names)
FUNCTIONS = {
    "linear3": (_linear3, lambda: standard_normal_sampler(3), ("W1", "W2", "W3")),
    "quadratic3": (_quadratic3, lambda: standard_normal_sampler(3), ("W1", "W2", "W3")),
    "sigmoid_nn3": (_sigmoid_nn3, lambda: standard_normal_sampler(3), ("W1", "W2", "W3")),
    "multilinear3": (_multilinear3, lambda: standard_normal_sampler(3), ("W1", "W2", "W3")),
}


def named_function(name: str):
    """Look up a built-in test function: (f, sampler, names)."""
    try:
        f, make_sampler, names = FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(FUNCTIONS))
        raise DomainError(f"unknown function {name!r}; known: {known}") from None
    return f, make_sampler(), names
