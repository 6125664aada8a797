"""Exact functional ANOVA on finite discrete independent domains.

Everything here is brute force by design: the product domain is
enumerated in row-major order, conditional expectations are exact
weighted sums, and interaction-contrast covariances enumerate all
(W, W') pairs. This module is the reference the Monte Carlo estimators
and the algebra constructions are verified against. Only the
decomposition runs in a command (`oracle`); the pair-enumeration closed
forms (`exact_pickfreeze`, `exact_contrast_var`, `exact_contrast_cov`)
are test references for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    EXACT,
    PROB_SUM_TOL,
    ExplanationMeasure,
    iter_subsets,
    mass_meeting,
    members,
    mobius_sign,
    submasks,
    subset_zeta,
    superset_zeta,
)
from .errors import DomainError, ZeroVarianceError

ENUMERATION_BUDGET = 10**7


@dataclass
class DiscreteDomain:
    """K mutually independent discrete variables.

    values[k] and probs[k] give the support and law of variable k; each
    probs[k] is divided by its sum, so a law that passes the tolerance
    check still has total mass 1.
    """

    values: list
    probs: list

    def __post_init__(self):
        if not self.values or len(self.values) != len(self.probs):
            raise DomainError("domain needs parallel non-empty values/probs lists")
        self.values = [np.asarray(v, dtype=float) for v in self.values]
        self.probs = [np.asarray(p, dtype=float) for p in self.probs]
        size = 1
        for k, (v, p) in enumerate(zip(self.values, self.probs)):
            if v.ndim != 1 or v.size == 0 or v.shape != p.shape:
                raise DomainError(f"variable {k}: support and probabilities must match and be non-empty")
            if len(np.unique(v)) != v.size:
                raise DomainError(f"variable {k}: support values must be unique")
            if np.any(p < 0) or abs(p.sum() - 1.0) > PROB_SUM_TOL:
                raise DomainError(f"variable {k}: probabilities must be >= 0 and sum to 1")
            self.probs[k] = p / p.sum()
            size *= v.size
        if size > ENUMERATION_BUDGET:
            raise DomainError(f"domain size {size} exceeds enumeration budget {ENUMERATION_BUDGET}")
        self.size = size

    @property
    def k(self) -> int:
        return len(self.values)

    def grid(self) -> np.ndarray:
        """All support points, shape (size, K), row-major in variable index."""
        mesh = np.meshgrid(*self.values, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def weights(self) -> np.ndarray:
        """Product probabilities aligned with grid() rows."""
        return _subset_weights(self, (1 << self.k) - 1).ravel()

    def shape(self):
        return tuple(v.size for v in self.values)


def rademacher_domain(k: int) -> DiscreteDomain:
    """K iid Rademacher variables (+-1 with probability 1/2)."""
    return DiscreteDomain([[-1.0, 1.0]] * k, [[0.5, 0.5]] * k)


@dataclass
class AnovaDecomposition:
    """Exact Hoeffding decomposition of f on a discrete domain.

    sigma2[S] (bitmask-indexed dense array) is the variance of the
    component f_S; components themselves are kept as tables over the
    S-marginal grid for the orthogonality checks and debugging.
    """

    domain: DiscreteDomain
    mean: float
    sigma2: np.ndarray
    total_variance: float
    components: dict


def _eval_on_grid(f, grid: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(grid), dtype=float)
    if vals.shape != (grid.shape[0],):
        raise DomainError(
            f"function must map (n, K) points to (n,) values, got shape {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise DomainError("function returned a non-finite value on the domain")
    return vals


def hoeffding_decompose(f, domain: DiscreteDomain) -> AnovaDecomposition:
    """Exact ANOVA components via conditional expectations.

    For each subset S the conditional mean m_S = E[f | W_S] is an exact
    weighted marginalization; components follow by Moebius inversion
    f_S = sum over T <= S of (-1)^{|S|-|T|} m_T, equivalent to the
    recursion f_S = E[f - sum of strict sub-components | W_S]. The
    inversion touches prod_j (1 + 2 d_j) table elements for supports of
    sizes d_j. Nothing is checked at run time: sigma2[S] = E[f_S^2] is
    non-negative by construction, and the tests check that every
    component has zero marginals along its own axes (so components are
    orthogonal) and that the sigma2 add up to total_variance.
    """
    k = domain.k
    shape = domain.shape()
    vals = _eval_on_grid(f, domain.grid()).reshape(shape)
    n_sub = 1 << k

    # cond[S] = E[f | W_S], stored over the S axes in ascending variable order.
    # Marginalizing in descending variable order keeps axis j at index j
    # until the moment it is contracted away.
    cond = {}
    for s in iter_subsets(k):
        out = vals
        for axis_var in reversed(members((n_sub - 1) ^ s)):
            out = np.tensordot(out, domain.probs[axis_var], axes=([axis_var], [0]))
        cond[s] = out
    mean = float(cond[0])

    components = {}
    sigma2 = np.zeros(n_sub)
    for s in iter_subsets(k):
        comp = np.zeros(tuple(shape[j] for j in members(s)))
        for t in submasks(s):
            comp = comp + mobius_sign(s, t) * _embed(cond[t], t, s)
        components[s] = comp
        if s:
            sigma2[s] = float(np.sum(_subset_weights(domain, s) * comp**2))

    total_variance = float(np.sum(domain.weights() * (vals.ravel() - mean) ** 2))
    return AnovaDecomposition(domain, mean, sigma2, total_variance, components)


def _embed(table: np.ndarray, t: int, s: int) -> np.ndarray:
    """Broadcast a T-marginal table to the S axes (T <= S)."""
    return np.asarray(table)[tuple(slice(None) if t >> j & 1 else None for j in members(s))]


def _subset_weights(domain: DiscreteDomain, s: int) -> np.ndarray:
    """Product probabilities over the S-marginal grid."""
    w = np.ones(())
    for j in members(s):
        w = np.multiply.outer(w, domain.probs[j])
    return w


@dataclass
class SensitivityIndices:
    """Lower, upper, and superset variance indices for every subset.

    Arrays are bitmask-indexed; lower_normalized divides by total_variance.
    """

    total_variance: float
    lower: np.ndarray
    upper: np.ndarray
    superset: np.ndarray

    @property
    def lower_normalized(self):
        return self.lower / self.total_variance


def indices_from_decomposition(dec: AnovaDecomposition) -> SensitivityIndices:
    """Sum variance components into the three index families.

    lower[S] sums components inside S, upper[S] sums components meeting
    S, superset[S] sums components containing S.
    """
    lower = subset_zeta(dec.sigma2)
    upper = mass_meeting(lower)
    superset = superset_zeta(dec.sigma2)
    return SensitivityIndices(dec.total_variance, lower, upper, superset)


def exact_measure(dec: AnovaDecomposition, names) -> ExplanationMeasure:
    """Atom masses are normalized variance components."""
    if dec.total_variance <= 0:
        raise ZeroVarianceError("constant function: explanation measure undefined")
    return ExplanationMeasure(tuple(names), dec.sigma2 / dec.total_variance, None, EXACT)


def _pair_hybrid_values(f, domain: DiscreteDomain, needed_masks) -> dict:
    """F[m][i, j] = f(w_i with coordinates in m replaced from w_j).

    Enumerates the (W, W') pair grid once per requested mask.
    """
    grid = domain.grid()
    n = grid.shape[0]
    if n * n > ENUMERATION_BUDGET:
        raise DomainError(f"pair enumeration {n}x{n} exceeds budget {ENUMERATION_BUDGET}")
    base = np.repeat(grid, n, axis=0)  # w_i blocks
    other = np.tile(grid, (n, 1))  # w_j within each block
    out = {}
    for m in needed_masks:
        hyb = base.copy()
        cols = members(m)
        hyb[:, cols] = other[:, cols]
        out[m] = _eval_on_grid(f, hyb).reshape(n, n)
    return out


def _contrast_matrix(f_tables: dict, s: int) -> np.ndarray:
    """I_S(w_i, w'_j) from hybrid value tables (anchor w_i, donor w'_j)."""
    out = np.zeros_like(f_tables[s])
    for t in submasks(s):
        out += mobius_sign(s, t) * f_tables[t]
    return out


def exact_contrast_cov(f, domain: DiscreteDomain, s: int, s2: int) -> float:
    """Exact Cov(I_S(W,W'), I_S2(W,W')) by enumeration of all pairs.

    S and S2 must be disjoint subsets (bitmasks); I_empty(w, w') = f(w).
    """
    if s & s2:
        raise ValueError("subsets must be disjoint")
    needed = sorted(set(submasks(s)) | set(submasks(s2)))
    tables = _pair_hybrid_values(f, domain, needed)
    a = _contrast_matrix(tables, s)
    b = _contrast_matrix(tables, s2)
    w = domain.weights()
    ww = np.multiply.outer(w, w)
    mean_a = float(np.sum(ww * a))
    mean_b = float(np.sum(ww * b))
    return float(np.sum(ww * a * b)) - mean_a * mean_b


def exact_contrast_var(f, domain: DiscreteDomain, s: int) -> float:
    """Var(I_S(W, W')) by pair enumeration (S may be any subset)."""
    tables = _pair_hybrid_values(f, domain, submasks(s))
    a = _contrast_matrix(tables, s)
    w = domain.weights()
    ww = np.multiply.outer(w, w)
    mean_a = float(np.sum(ww * a))
    return float(np.sum(ww * a * a)) - mean_a**2


def exact_pickfreeze(f, domain: DiscreteDomain, s: int):
    """Both pick-freeze closed forms by pair enumeration.

    Returns (lower, upper) where
        lower = Cov(f(W), f(W_S, W'_{-S}))
        upper = E[(f(W) - f(W'_S, W_{-S}))^2] / 2.
    """
    full = (1 << domain.k) - 1
    tables = _pair_hybrid_values(f, domain, [0, s, full ^ s])
    w = domain.weights()
    ww = np.multiply.outer(w, w)
    y0 = tables[0]  # f(w_i), constant across j
    y_keep = tables[full ^ s]  # keeps W_S from the anchor, W' elsewhere
    y_swap = tables[s]  # W'_S from the donor, W elsewhere
    mean = float(np.sum(ww * y0))
    mean_keep = float(np.sum(ww * y_keep))
    lower = float(np.sum(ww * y0 * y_keep)) - mean * mean_keep
    upper = 0.5 * float(np.sum(ww * (y0 - y_swap) ** 2))
    return lower, upper
