import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from xfvar import algebra, anova_oracle
from xfvar.anova_oracle import (
    ENUMERATION_BUDGET,
    DiscreteDomain,
    exact_contrast_cov,
    exact_contrast_var,
    exact_measure,
    exact_pickfreeze,
    hoeffding_decompose,
    indices_from_decomposition,
    rademacher_domain,
)
from xfvar.errors import DomainError, ZeroVarianceError
from xfvar.scm import model_from_json, read_model

from anova_checks import check_decomposition, reference_decompose
from test_scm_exact import MODELS as NOISE_GRID_MODELS, _gridded, _noise_grid


def _xor(w):
    return w[:, 0] * w[:, 1]


def _linear(w):
    return w[:, 0] + 2.0 * w[:, 1]


def _random_table_fn(k, seed):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(2,) * k)

    def f(w):
        idx = ((w + 1) / 2).astype(int)
        return table[tuple(idx[:, j] for j in range(k))]

    return f


def test_domain_validation():
    with pytest.raises(DomainError):
        DiscreteDomain([], [])
    with pytest.raises(DomainError):
        DiscreteDomain([[1.0, 1.0]], [[0.5, 0.5]])  # duplicate support
    with pytest.raises(DomainError):
        DiscreteDomain([[0.0, 1.0]], [[0.6, 0.6]])  # bad probabilities
    dom = rademacher_domain(3)
    assert dom.size == 8
    assert dom.grid().shape == (8, 3)
    assert dom.weights().sum() == pytest.approx(1.0, abs=1e-15)


def test_xor_decomposition():
    dec = check_decomposition(hoeffding_decompose(_xor, rademacher_domain(2)))
    assert dec.mean == pytest.approx(0.0, abs=1e-15)
    assert dec.total_variance == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(dec.sigma2, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_linear_decomposition():
    dec = check_decomposition(hoeffding_decompose(_linear, rademacher_domain(2)))
    assert np.allclose(dec.sigma2, [0.0, 1.0, 4.0, 0.0], atol=1e-13)
    idx = indices_from_decomposition(dec)
    assert idx.lower[0b01] == pytest.approx(1.0, abs=1e-13)
    assert idx.upper[0b01] == pytest.approx(1.0, abs=1e-13)
    assert idx.superset[0b11] == pytest.approx(0.0, abs=1e-13)
    assert np.allclose(idx.lower_normalized[0b11], 1.0, atol=1e-13)


def test_components_sum_to_function():
    # the decomposition must reassemble f exactly on the grid
    dom = DiscreteDomain(
        [[-1.0, 1.0], [0.0, 1.0, 2.0], [-2.0, 5.0]],
        [[0.3, 0.7], [0.2, 0.5, 0.3], [0.5, 0.5]],
    )
    f = _random_table_fn_general(dom, seed=0)
    dec = check_decomposition(hoeffding_decompose(f, dom))
    grid = dom.grid()
    # component 0 is the grand mean; the rest live on marginal grids
    recon = np.zeros(dom.size)
    shape = dom.shape()
    for s, comp in dec.components.items():
        axes = [j for j in range(dom.k) if s >> j & 1]
        expand = np.asarray(comp)
        for j in range(dom.k):
            if j not in axes:
                expand = np.expand_dims(expand, j)
        recon += np.broadcast_to(expand, shape).ravel()
    assert np.allclose(recon, f(grid), atol=1e-12)


def _random_table_fn_general(dom, seed):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=dom.shape())
    lookups = [
        {float(v): i for i, v in enumerate(vals)} for vals in dom.values
    ]

    def f(w):
        idx = tuple(
            np.array([lookups[j][float(x)] for x in w[:, j]]) for j in range(dom.k)
        )
        return table[idx]

    return f


def test_variances_are_orthogonal_sum():
    dom = rademacher_domain(3)
    f = _random_table_fn(3, seed=1)
    dec = check_decomposition(hoeffding_decompose(f, dom))
    assert dec.sigma2.sum() == pytest.approx(dec.total_variance, rel=1e-12)
    assert dec.sigma2[0] == 0.0


def test_ring_decomposition_takes_no_array_popcount(monkeypatch):
    # Moebius signs of single masks come from int.bit_count, not from a
    # numpy round trip per sign
    def no_popcount(masks):
        raise AssertionError("algebra.popcount called")

    monkeypatch.setattr(algebra, "popcount", no_popcount)
    assert not hasattr(anova_oracle, "popcount")
    a = np.linspace(0.2, 0.8, 7)
    b = np.linspace(-0.9, -0.3, 7)

    def ring(w):
        return w @ a + sum(b[i] * w[:, i] * w[:, (i + 1) % 7] for i in range(7))

    dec = check_decomposition(hoeffding_decompose(ring, rademacher_domain(7)))
    want = np.zeros(1 << 7)
    for i in range(7):
        want[1 << i] = a[i] ** 2
        want[(1 << i) | (1 << (i + 1) % 7)] = b[i] ** 2
    assert np.allclose(dec.sigma2, want, atol=1e-12)


def test_conditional_means_take_one_dot_each(monkeypatch):
    # each of the 2**K - 1 conditional means is one BLAS call, made
    # directly and not through np.tensordot's per-call argument handling
    calls = {"dot": 0, "tensordot": 0}

    def counted(name):
        fn = getattr(np, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(np, name, counted(name))
    hoeffding_decompose(_random_table_fn(7, seed=2), rademacher_domain(7))
    assert calls == {"dot": 127, "tensordot": 0}


def test_pickfreeze_identities_match_decomposition():
    dom = DiscreteDomain(
        [[-1.0, 1.0], [0.0, 3.0, 7.0], [-2.0, 5.0]],
        [[0.4, 0.6], [0.2, 0.5, 0.3], [0.25, 0.75]],
    )
    f = _random_table_fn_general(dom, seed=2)
    dec = check_decomposition(hoeffding_decompose(f, dom))
    idx = indices_from_decomposition(dec)
    for s in range(1, 8):
        lo, up = exact_pickfreeze(f, dom, s)
        assert lo == pytest.approx(idx.lower[s], abs=1e-12)
        assert up == pytest.approx(idx.upper[s], abs=1e-12)


def test_contrast_variance_is_scaled_superset_index():
    dom = rademacher_domain(3)
    f = _random_table_fn(3, seed=3)
    dec = check_decomposition(hoeffding_decompose(f, dom))
    idx = indices_from_decomposition(dec)
    for s in range(1, 8):
        size = bin(s).count("1")
        cv = exact_contrast_var(f, dom, s)
        assert cv / (1 << size) == pytest.approx(idx.superset[s], abs=1e-12)


def test_contrast_cov_identity():
    # Cov(I_S, I_S2) = (-1/2)^(|S|+|S2|) Var(I_{S union S2}), disjoint S, S2
    dom = rademacher_domain(2)
    assert exact_contrast_var(_xor, dom, 0b11) == pytest.approx(4.0, abs=1e-12)
    assert exact_contrast_cov(_xor, dom, 0b01, 0b10) == pytest.approx(1.0, abs=1e-12)
    assert exact_contrast_cov(_linear, dom, 0b01, 0b10) == pytest.approx(0.0, abs=1e-12)
    f = _random_table_fn(3, seed=9)
    dom3 = rademacher_domain(3)
    for s in range(1, 8):
        for s2 in range(8):
            if s & s2:
                continue
            want = (-0.5) ** (bin(s).count("1") + bin(s2).count("1"))
            want *= exact_contrast_var(f, dom3, s | s2)
            got = exact_contrast_cov(f, dom3, s, s2)
            assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        exact_contrast_cov(f, dom3, 0b011, 0b001)


def test_exact_measure_xor():
    dec = check_decomposition(hoeffding_decompose(_xor, rademacher_domain(2)))
    m = exact_measure(dec, ("A", "B"))
    assert np.allclose(m.atom_mass, [0.0, 0.0, 0.0, 1.0], atol=1e-14)
    assert m.provenance.kind == "exact"


def test_constant_function_rejected():
    def zero(w):
        return np.zeros(w.shape[0])

    dec = check_decomposition(hoeffding_decompose(zero, rademacher_domain(2)))
    with pytest.raises(ZeroVarianceError):
        exact_measure(dec, ("A", "B"))


def test_enumeration_budget():
    with pytest.raises(DomainError):
        DiscreteDomain([np.arange(4000.0)] * 4, [np.full(4000, 1 / 4000)] * 4)


def _node(name, parents, mechanism):
    return {"name": name, "parents": list(parents), "mechanism": mechanism}


def _ring7_model():
    """Seven Rademacher roots and Y = sum_i a_i W_i + sum_i b_i W_i W_(i+1 mod 7),
    the shape of the benchmark's oracle workload."""
    rs = np.random.default_rng(7)
    names = [f"W{i}" for i in range(1, 8)]
    coef = np.round(rs.uniform(0.1, 1.0, 14) * rs.choice([-1.0, 1.0], 14), 4)
    terms = [f"{coef[i]}*{n}" for i, n in enumerate(names)]
    terms += [f"{coef[7 + i]}*{n}*{names[(i + 1) % 7]}" for i, n in enumerate(names)]
    nodes = [_node(n, [], {"kind": "root_rademacher"}) for n in names]
    nodes.append(_node("Y", names, {"kind": "deterministic", "expr": " + ".join(terms)}))
    return model_from_json({"variables": names + ["Y"], "outcome": "Y", "nodes": nodes})


def _categorical_empirical_model():
    nodes = [
        _node("A", [], {"kind": "root_categorical", "values": [0.0, 1.0, 2.0], "probs": [0.2, 0.5, 0.3]}),
        _node("B", [], {"kind": "root_empirical", "values": [-1.5, 0.25, 0.25, 2.0, 3.0]}),
        _node("Y", ["A", "B"], {"kind": "deterministic", "expr": "A + 0.5*B + A*B + sigmoid(A - B)"}),
    ]
    return model_from_json({"variables": ["A", "B", "Y"], "outcome": "Y", "nodes": nodes})


_ORACLE_MODELS = {
    "model1": lambda: read_model(Path(__file__).parent / "data" / "model1.json"),
    "ring7": _ring7_model,
    "categorical_empirical": _categorical_empirical_model,
    # Rademacher A, categorical B, C = A*B and Y = A + C + A*C
    "dag": lambda: read_model(Path(__file__).parent / "data" / "dag_model.json"),
}


@pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
def test_oracle_domain_matches_pair_references(model):
    # the oracle command reports indices from the decomposition alone; the
    # pair-enumeration closed forms must agree with them at 1e-10 * max(1, var)
    domain, f, _ = _ORACLE_MODELS[model]().oracle_domain()
    dec = check_decomposition(hoeffding_decompose(f, domain))
    idx = indices_from_decomposition(dec)
    tol = 1e-10 * max(1.0, dec.total_variance)
    for s in range(1, 1 << domain.k):
        lower, upper = exact_pickfreeze(f, domain, s)
        assert abs(lower - idx.lower[s]) <= tol, s
        assert abs(upper - idx.upper[s]) <= tol, s
        contrast = exact_contrast_var(f, domain, s) / (1 << bin(s).count("1"))
        assert abs(contrast - idx.superset[s]) <= tol, s


def _random_domain_case(rng):
    """A random domain of 1 to 6 variables with 1 to 8 support points each,
    non-uniform laws with some zero-probability points, and a random table
    over it; the Moebius work is at most 50 000 elements."""
    while True:
        dims = rng.integers(1, 9, size=rng.integers(1, 7))
        if np.prod(1 + 2 * dims) <= 50_000:
            break
    values = [np.sort(rng.normal(size=d)) + 3.0 * np.arange(d) for d in dims]
    probs = []
    for d in dims:
        p = rng.uniform(0.0, 1.0, size=d) * (rng.uniform(size=d) > 0.2)
        p[rng.integers(d)] += 0.5  # at least one point carries mass
        probs.append(p / p.sum())
    dom = DiscreteDomain(values, probs)
    table = rng.normal(size=dom.shape()) * 10.0 ** rng.integers(-3, 4)

    def f(w):
        return table[tuple(np.searchsorted(dom.values[j], w[:, j]) for j in range(dom.k))]

    return f, dom


def _model_case(model):
    domain, f, _ = model.oracle_domain()
    return f, domain


def _noise_grid_case():
    model = _gridded(NOISE_GRID_MODELS["diamond"])
    return model.outcome_values, _noise_grid(model)


def _decompose_cases():
    rng = np.random.default_rng(20240611)
    for i in range(150):
        yield f"random{i}", _random_domain_case(rng)
    for name in ("model1", "dag", "ring7"):
        yield name, _model_case(_ORACLE_MODELS[name]())
    yield "noise_grid_diamond", _noise_grid_case()


def test_decomposition_matches_reference_bit_for_bit():
    # the grouped Moebius sums do the reference loop's float operations in
    # its order, so every output must be equal, not merely close
    for name, (f, domain) in _decompose_cases():
        got, want = hoeffding_decompose(f, domain), reference_decompose(f, domain)
        assert got.sigma2.tobytes() == want.sigma2.tobytes(), name
        assert np.float64(got.mean).tobytes() == np.float64(want.mean).tobytes(), name
        assert np.float64(got.total_variance).tobytes() == np.float64(want.total_variance).tobytes(), name
        assert list(got.components) == list(want.components), name
        for s, comp in want.components.items():
            assert np.array_equal(got.components[s], comp), (name, s)


def test_decomposition_memory_at_the_budget_edge():
    # 10 binary inputs are the most oracle accepts: the Moebius work is 5**10
    # elements, but each term is gathered once per group of subsets and
    # broadcast in place, so the peak stays far below those 5**10 floats
    assert 5**10 <= ENUMERATION_BUDGET < 5**11
    f = _random_table_fn(10, seed=4)
    domain = rademacher_domain(10)
    tracemalloc.start()
    try:
        hoeffding_decompose(f, domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DiscreteDomain([[]], [[]]),
         "variable 0: support and probabilities must match and be non-empty"),
        (lambda: hoeffding_decompose(lambda w: w, rademacher_domain(2)),
         "function must map (n, K) points to (n,) values, got shape (4, 2)"),
        (lambda: hoeffding_decompose(lambda w: w[:, 0] / 0.0, rademacher_domain(2)),
         "function returned a non-finite value on the domain"),
    ],
    ids=["empty_support", "function_shape", "function_not_finite"],
)
def test_library_guards(build, message):
    with pytest.raises(DomainError) as exc, np.errstate(divide="ignore"):
        build()
    assert type(exc.value) is DomainError and str(exc.value) == message
