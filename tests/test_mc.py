import numpy as np
import pytest

from xfvar import mc
from xfvar.errors import DomainError, ZeroVarianceError
from xfvar.mc import Estimate, EstimatorConfig, pickfreeze_totals, upper_estimate
from xfvar.scm import RootUniform
from xfvar.sensitivity import IndependentSampler, independent_outcomes


def _of_noise(yfn, k):
    """The kernel's evaluator for yfn of the k uniform noise columns
    themselves: the independent-input provider with standard uniform roots."""
    return independent_outcomes(yfn, IndependentSampler(tuple(RootUniform(f"U{j}") for j in range(k))))


def _product_y(k):
    def yfn(e):
        return np.prod(2.0 * e - 1.0, axis=1)

    return _of_noise(yfn, k)


def test_config_validation():
    with pytest.raises(DomainError):
        EstimatorConfig(samples=0)
    with pytest.raises(DomainError):
        EstimatorConfig(samples=19)  # fewer pairs than stderr batches
    cfg = EstimatorConfig(samples=100)
    assert mc.BATCHES == 20 and cfg.seed == 0
    EstimatorConfig(samples=mc.BATCHES)


def test_estimate_fields():
    est = Estimate(0.5, 0.01, 1000)
    assert est.value == 0.5 and est.stderr == 0.01 and est.samples == 1000


def test_upper_estimate_additive():
    # y = u1 + u2 (uniform noise): resampling u1 swaps half the variance
    def yfn(e):
        return e[:, 0] + e[:, 1]

    cfg = EstimatorConfig(samples=200_000, seed=1)
    est = upper_estimate(_of_noise(yfn, 2), 2, 0b1, cfg)
    assert est.value == pytest.approx(0.5, abs=0.01)
    assert 0 < est.stderr < 0.02
    assert est.samples == 200_000


def test_zero_variance_raises():
    def yfn(e):
        return np.ones(e.shape[0])

    with pytest.raises(ZeroVarianceError):
        upper_estimate(_of_noise(yfn, 2), 2, 0b1, EstimatorConfig(samples=1000))


def test_seed_changes_draws():
    yfn = _product_y(2)
    a = upper_estimate(yfn, 2, 0b1, EstimatorConfig(samples=20_000, seed=0))
    b = upper_estimate(yfn, 2, 0b1, EstimatorConfig(samples=20_000, seed=1))
    assert a.value != b.value


def test_pickfreeze_totals_full_set_is_one():
    yfn = _product_y(3)
    cfg = EstimatorConfig(samples=30_000, seed=2)
    table = pickfreeze_totals(yfn, 3, [0, 1, 2], cfg)
    totals, stderrs = table.total, table.stderr
    # resampling every input gives an independent copy: exactly 1 by construction
    assert totals[7] == 1.0
    # everything sits in the triple interaction, so every total is 1
    for s in (1, 2, 3):
        assert totals[s] == pytest.approx(1.0, abs=3 * stderrs[s] + 1e-3)


def test_pickfreeze_totals_caps_query_variables():
    k = mc.MAX_QUERY_VARS + 1
    assert k == 13
    with pytest.raises(DomainError, match="13 query variables; at most 12 are supported"):
        pickfreeze_totals(_product_y(k), k, range(k), EstimatorConfig(samples=1000))


def test_samples_not_divisible_by_batches():
    yfn = _product_y(2)
    est = upper_estimate(yfn, 2, 0b1, EstimatorConfig(samples=10_007, seed=4))
    assert np.isfinite(est.value) and np.isfinite(est.stderr)
    assert est.samples == 10_007
