import numpy as np
import pytest
from scipy.special import expit

from xfvar.errors import DomainError
from xfvar.mc import EstimatorConfig
from xfvar.sensitivity import (
    FUNCTIONS,
    IndependentSampler,
    estimate_lower,
    estimate_measure,
    estimate_superset,
    estimate_upper,
    interaction_contrast,
    named_function,
    standard_normal_sampler,
)
from xfvar.scm import RootGaussian, RootRademacher, RootUniform

CFG = EstimatorConfig(samples=120_000, seed=0)


def _linear(w):
    return w[:, 0] + 2.0 * w[:, 1] + 3.0 * w[:, 2]


def test_quantile_transforms():
    u = np.array([0.001, 0.25, 0.5, 0.75, 0.999])
    z = RootGaussian("Z", 0.0, 1.0).sample(u, ())
    assert z[2] == pytest.approx(0.0, abs=1e-12)
    assert z[1] == pytest.approx(-z[3], abs=1e-12)
    x = RootUniform("X", -2.0, 4.0).sample(u, ())
    assert x[0] == pytest.approx(-2.0, abs=0.01)
    assert x[2] == pytest.approx(1.0, abs=1e-12)
    r = RootRademacher("R").sample(np.array([0.2, 0.5, 0.500001, 0.9]), ())
    assert list(r) == [-1.0, -1.0, 1.0, 1.0]


def test_sampler_transform_shape():
    s = standard_normal_sampler(3)
    assert s.k == 3
    u = np.random.default_rng(0).uniform(size=(100, 3))
    w = s.transform(u)
    assert w.shape == (100, 3)
    assert abs(w.mean()) < 0.3


def test_upper_lower_linear_gaussian():
    # closed form: total and first-order indices coincide, 1/14, 4/14, 9/14
    s = standard_normal_sampler(3)
    want = {0: 1 / 14, 1: 4 / 14, 2: 9 / 14}
    for i, w in want.items():
        up = estimate_upper(_linear, s, (i,), CFG)
        lo = estimate_lower(_linear, s, (i,), CFG)
        assert up.value == pytest.approx(w, abs=3 * up.stderr + 1e-3)
        assert lo.value == pytest.approx(w, abs=3 * lo.stderr + 1e-3)
        assert up.stderr < 0.02


def test_upper_of_pair_subset():
    s = standard_normal_sampler(3)
    est = estimate_upper(_linear, s, (0, 1), CFG)
    assert est.value == pytest.approx(5 / 14, abs=3 * est.stderr + 1e-3)


def test_superset_estimate_detects_interaction():
    def f(w):
        return w[:, 0] * w[:, 1] + w[:, 2]

    s = standard_normal_sampler(3)
    pair = estimate_superset(f, s, (0, 1), CFG)
    assert pair.value == pytest.approx(0.5, abs=3 * pair.stderr + 2e-3)
    absent = estimate_superset(f, s, (0, 2), CFG)
    assert absent.value == pytest.approx(0.0, abs=3 * absent.stderr + 2e-3)


def test_estimate_measure_linear():
    s = standard_normal_sampler(3)
    m = estimate_measure(_linear, s, CFG, ("W1", "W2", "W3"))
    assert m.names == ("W1", "W2", "W3")
    want = np.zeros(8)
    want[[1, 2, 4]] = np.array([1.0, 4.0, 9.0]) / 14.0
    assert np.allclose(m.atom_mass, want, atol=0.01)
    assert m.atom_mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert m.provenance.kind == "monte_carlo"
    assert m.provenance.samples == CFG.samples


def test_subset_validation():
    def f2(w):
        return w[:, 0] + w[:, 1]

    s = standard_normal_sampler(2)
    with pytest.raises(DomainError):
        estimate_upper(f2, s, (), CFG)
    with pytest.raises(DomainError):
        estimate_upper(f2, s, (2,), CFG)
    with pytest.raises(DomainError):
        estimate_upper(f2, s, (-1,), CFG)
    # duplicate indices collapse to the same subset
    cfg = EstimatorConfig(samples=20_000, seed=0)
    a = estimate_upper(f2, s, (0, 0), cfg)
    b = estimate_upper(f2, s, (0,), cfg)
    assert a.value == b.value


def test_function_output_shape_is_checked():
    s = standard_normal_sampler(2)
    want = r"function must map \(m, 2\) inputs to \(m,\) outputs, got \(\d+, 1\)"
    with pytest.raises(DomainError, match=want):
        estimate_measure(lambda w: w[:, :1], s, EstimatorConfig(samples=1000), ("W1", "W2"))


def test_max_vars_guard():
    s = standard_normal_sampler(13)
    cfg = EstimatorConfig(samples=1000)
    with pytest.raises(DomainError, match="13 query variables"):
        estimate_measure(_linear, s, cfg, tuple(f"W{j}" for j in range(13)))


def test_interaction_contrast_values():
    def f(w):
        return w[:, 0] * w[:, 1]

    w = np.array([1.0, 1.0])
    w2 = np.array([-1.0, -1.0])
    # I_{0}: f(w2_0, w_1) - f(w) = -1 - 1
    assert interaction_contrast(f, w, w2, (0,)) == pytest.approx(-2.0, abs=1e-12)
    # I_{0,1}: f(-1,-1) - f(-1,1) - f(1,-1) + f(1,1) = 1 + 1 + 1 + 1
    assert interaction_contrast(f, w, w2, (0, 1)) == pytest.approx(4.0, abs=1e-12)


def test_registry_functions_run():
    for name in sorted(FUNCTIONS):
        f, sampler, names = named_function(name)
        assert sampler.k == len(names) == 3
        m = estimate_measure(f, sampler, EstimatorConfig(samples=4000, seed=0), names)
        assert m.atom_mass.sum() == pytest.approx(1.0, abs=1e-9)


def test_named_function_unknown():
    with pytest.raises(DomainError, match="linear3"):
        named_function("nope")


def test_sigmoid_nn3_definition():
    f, _, _ = named_function("sigmoid_nn3")
    w = np.array([[0.1, -0.2, 0.4], [0.0, 0.0, 0.0]])
    want = expit(-10 * (w[:, 0] + w[:, 1])) + expit(-10 * (w[:, 1] + w[:, 2]))
    assert np.allclose(f(w), want, atol=1e-12)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IndependentSampler(()), "need at least one input variable"),
        (lambda: IndependentSampler((RootUniform("U"),) * 17),
         "at most 16 input variables supported"),
        (lambda: estimate_measure(_linear, standard_normal_sampler(2), CFG, ("W1",)),
         "got 1 names for 2 variables"),
        (lambda: interaction_contrast(_linear, [0.0, 0.0], [0.0], ()),
         "w and w2 must have the same length"),
        (lambda: interaction_contrast(_linear, [0.0, 0.0], [1.0, 1.0], (2,)),
         "subset indices must lie in [0, 2)"),
    ],
    ids=["sampler_empty", "sampler_too_wide", "measure_names", "contrast_lengths",
         "contrast_subset"],
)
def test_library_guards(build, message):
    with pytest.raises(DomainError) as exc:
        build()
    assert type(exc.value) is DomainError and str(exc.value) == message
