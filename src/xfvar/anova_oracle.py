"""Exact functional ANOVA on finite discrete independent domains.

The product domain is enumerated in row-major order and every
expectation is an exact weighted sum: nothing is sampled. This module is
the reference the Monte Carlo estimators and the algebra constructions
are verified against. Only the decomposition runs in a command
(`oracle`). It shares work across subsets (each conditional mean is one
BLAS dot of the next larger one with a law; the Moebius sums of all
subsets with the same support sizes advance together, their terms
gathered once per stack they read and added one in-place broadcast per
term) while keeping the float operations, and so every bit, of the
brute-force loop the tests keep as `reference_decompose`. The
pair-enumeration closed forms (`exact_pickfreeze`, `exact_contrast_var`,
`exact_contrast_cov`) are brute force by design and are test references
for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .algebra import (
    EXACT,
    PROB_SUM_TOL,
    ExplanationMeasure,
    mass_meeting,
    members,
    mobius_sign,
    submasks,
    subset_zeta,
    superset_zeta,
)
from .errors import DomainError, ModelError, ZeroVarianceError

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
            # return_counts keeps np.unique off its hash path, which imports numpy.ma
            if len(np.unique(v, return_counts=True)[0]) != v.size:
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
        w = np.ones(())
        for p in self.probs:
            w = np.multiply.outer(w, p)
        return w.ravel()

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

    Order contract, which keeps every output bit equal to the brute-force
    loop kept in the tests (`reference_decompose`):
    - m_S contracts the variables outside S from the highest down, each
      by one tensordot with its law; m_S is the last step of that chain,
      taken from m_{S+j} for the lowest j outside S by the one np.dot
      that tensordot makes (axis j moved last, the rest flattened into
      rows, times the law as a column), called directly.
    - f_S sums the signed m_T left to right over T from S down to 0
      (`submasks` order), starting from 0.0; subtracting m_T is adding
      -1.0 * m_T, bit for bit.
    - The weights over the S grid multiply the laws of S's members in
      ascending order, starting from 1.0; sigma2[S] and the total
      variance are np.sum of weight * value**2 over one contiguous table.
    Subsets whose members have the same support sizes are summed
    together: one row gather per stack of m_T their terms read, then one
    in-place broadcast add (or subtract) per term.

    Raises ModelError when a sigma2[S] or the total variance overflows.
    """
    k = domain.k
    shape = domain.shape()
    vals = _eval_on_grid(f, domain.grid()).reshape(shape)
    n_sub = 1 << k
    columns = [p.reshape(-1, 1) for p in domain.probs]
    with np.errstate(over="ignore", invalid="ignore"):
        cond = [vals] * n_sub
        for s in range(n_sub - 2, -1, -1):
            j = ((s + 1) & ~s).bit_length() - 1  # lowest variable outside s
            a = cond[s | 1 << j]
            # the one dot np.tensordot(a, probs[j], axes=([j], [0])) makes:
            # axis j moved last, the rest flattened into rows
            rest = (*range(j), *range(j + 1, a.ndim))
            cond[s] = np.dot(a.transpose(*rest, j).reshape(-1, shape[j]), columns[j]).reshape(
                a.shape[:j] + a.shape[j + 1:]
            )
        mean = float(cond[0])

        # subsets grouped by their members' support sizes; row[S] is the
        # position of S in its group, and so of its tables in the stacks
        weights = [np.ones(())] * n_sub
        dims = [()] * n_sub
        groups = {(): [0]}
        for s in range(1, n_sub):
            j = s.bit_length() - 1  # highest member of s
            weights[s] = np.multiply.outer(weights[s ^ 1 << j], domain.probs[j])
            dims[s] = dims[s ^ 1 << j] + (shape[j],)
            groups.setdefault(dims[s], []).append(s)
        row = np.zeros(n_sub, dtype=np.int64)
        cond_stack = {}
        for key, masks in groups.items():
            row[masks] = np.arange(len(masks))
            cond_stack[key] = np.stack([cond[s].ravel() for s in masks])
        del cond

        comps = [None] * n_sub
        sigma2 = np.zeros(n_sub)
        for key, masks in groups.items():
            totals = _mobius_sums(key, masks, row, cond_stack)
            w = np.stack([weights[s].ravel() for s in masks])
            sigma2[masks] = np.sum(w * totals.reshape(len(masks), -1) ** 2, axis=1)
            for i, s in enumerate(masks):
                comps[s] = totals[i, ...]
        sigma2[0] = 0.0  # the grand mean is no variance component
        total_variance = float(np.sum(weights[-1].ravel() * (vals.ravel() - mean) ** 2))
    if not (np.isfinite(sigma2).all() and np.isfinite(total_variance)):
        raise ModelError("outcome values are too large to square in float64")
    return AnovaDecomposition(domain, mean, sigma2, total_variance, dict(enumerate(comps)))


def _mobius_sums(dims, masks, row, cond_stack):
    """Components of the subsets `masks`, whose members all have support
    sizes `dims`, as one (len(masks), *dims) array.

    Every S in the group has m members, and `submasks(S)` visits them in
    the order it visits the submasks of m bits. So the u-th term of every
    S is m_T, T the members of S at the positions u picks, and the m_T of
    the whole group are rows of the stack of T's support sizes. Every
    term reading one stack is gathered by one row index; the sum then
    takes, in `submasks` order, a view of each term's rows and adds (or
    subtracts, for the Moebius sign -1) it in place.
    """
    m = len(dims)
    n = len(masks)
    # the submasks of m set bits count down from all of them to none
    picks = np.arange((1 << m) - 1, -1, -1)[:, None] >> np.arange(m) & 1
    # members of each S, ascending: the columns of its set bits
    in_mask = np.array(masks)[:, None] >> np.arange(masks[-1].bit_length()) & 1
    term_rows = row[picks @ (1 << np.nonzero(in_mask)[1].reshape(n, m)).T]
    shapes = np.where(picks, dims, 1).tolist()
    subtract = ((m - picks.sum(axis=1)) & 1).tolist()  # Moebius sign -1
    by_key = {}
    for u, picked in enumerate(picks.tolist()):
        by_key.setdefault(tuple(compress(dims, picked)), []).append(u)
    terms = [None] * len(shapes)
    for key, us in by_key.items():
        for u, rows in zip(us, cond_stack[key][term_rows[us]]):
            terms[u] = rows.reshape(n, *shapes[u])
    totals = np.zeros((n, *dims))
    for term, sub in zip(terms, subtract):
        (np.subtract if sub else np.add)(totals, term, out=totals)
    return totals


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
