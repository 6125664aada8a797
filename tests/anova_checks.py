"""Consistency checks on exact ANOVA decompositions, shared by the tests.

`hoeffding_decompose` checks nothing at run time; these are the
properties every decomposition it returns must have.
"""

import numpy as np


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
