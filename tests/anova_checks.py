"""Exact ANOVA references and consistency checks shared by the tests.

`hoeffding_decompose` checks nothing at run time; `check_decomposition`
asserts the properties every decomposition it returns must have.
`reference_decompose` is the brute-force decomposition it replaced: one
tensordot chain per subset and one embed, multiply and add per pair
T <= S. It does the same float operations in the same order, so the two
must agree bit for bit.
"""

import numpy as np

from xfvar.algebra import iter_subsets, members, mobius_sign, submasks
from xfvar.anova_oracle import AnovaDecomposition, _eval_on_grid


def reference_decompose(f, domain):
    """Brute-force Hoeffding decomposition of f on domain."""
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


def _embed(table, t, s):
    """Broadcast a T-marginal table to the S axes (T <= S)."""
    return np.asarray(table)[tuple(slice(None) if t >> j & 1 else None for j in members(s))]


def _subset_weights(domain, s):
    """Product probabilities over the S-marginal grid."""
    w = np.ones(())
    for j in members(s):
        w = np.multiply.outer(w, domain.probs[j])
    return w


def check_decomposition(dec):
    """Assert that every component has zero marginals along each of its
    own axes (so components are pairwise orthogonal), that no variance is
    negative and that the variances add up to the total variance, at
    1e-9 * max(var, 1). Returns dec."""
    dom = dec.domain
    tol = 1e-9 * max(dec.total_variance, 1.0)
    for s, comp in dec.components.items():
        axes = [j for j in range(dom.k) if s >> j & 1]
        for pos, j in enumerate(axes):
            marg = np.tensordot(comp, dom.probs[j], axes=([pos], [0]))
            gap = float(np.max(np.abs(marg), initial=0.0))
            assert gap <= tol, f"component {s:b} has marginal {gap:.3e} along variable {j}"
    assert np.all(dec.sigma2 >= 0.0)
    gap = abs(float(dec.sigma2.sum()) - dec.total_variance)
    assert gap <= tol, f"component variances miss the total variance by {gap:.3e}"
    return dec
