"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single "criterion NN PASS/FAIL" line with the
measured numbers so a plain pytest run doubles as a sign-off record.
Monte Carlo checks pin seeds; tolerance values are part of the
contract and must not be loosened without a matching release note.
"""

import itertools
import json
import math
import pathlib
import time

import numpy as np

from xfvar import (
    AdditiveNoise,
    Dag,
    Dataset,
    Deterministic,
    DiscreteDomain,
    EstimatorConfig,
    FitConfig,
    HeteroGaussian,
    ParentFn,
    RootGaussian,
    RootRademacher,
    ScmModel,
    TotalsTable,
    counterfactual_total,
    estimate_counterfactual_measure,
    estimate_measure,
    exact_contrast_cov,
    exact_contrast_var,
    exact_measure,
    exact_pickfreeze,
    fit_model,
    hoeffding_decompose,
    indices_from_decomposition,
    measure_from_totals,
    measure_interaction,
    measure_validate,
    named_function,
    parse_formula,
    popcount,
    read_report,
    shapley_from_measure,
    superset_mobius,
    totals_from_measure,
)
from xfvar.cli import main as cli_main

from anova_checks import check_decomposition


def _line(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared builders


def _random_domain(rs, k_max=4, support_max=3):
    k = int(rs.integers(1, k_max + 1))
    values, probs = [], []
    for _ in range(k):
        size = int(rs.integers(2, support_max + 1))
        vals = np.sort(rs.normal(size=size))
        while len(np.unique(vals)) < size:
            vals = np.sort(rs.normal(size=size))
        p = np.clip(rs.dirichlet(np.full(size, 2.0)), 0.05, None)
        p = p / p.sum()
        p[-1] = 1.0 - float(p[:-1].sum())  # exact sum for the validator
        values.append(vals)
        probs.append(p)
    return DiscreteDomain(values, probs)


def _table_fn(dom, table):
    supports = [np.asarray(v, dtype=float) for v in dom.values]

    def f(w):
        w = np.asarray(w, dtype=float)
        idx = tuple(np.searchsorted(supports[j], w[:, j]) for j in range(dom.k))
        return table[idx]

    return f


def _random_model(rs, k_max=4, support_max=3):
    dom = _random_domain(rs, k_max, support_max)
    table = rs.normal(size=dom.shape())
    while float(np.ptp(table)) < 1e-6:
        table = rs.normal(size=dom.shape())
    return dom, _table_fn(dom, table)


def _subset_mobius(values):
    # inverse of the subset zeta transform, brute force over submasks
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    for s in range(len(values)):
        t = s
        while True:
            sign = -1.0 if bin(s ^ t).count("1") % 2 else 1.0
            out[s] += sign * values[t]
            if t == 0:
                break
            t = (t - 1) & s
    return out


def _two_root_product_model(outcome_formula):
    dag = Dag(("W1", "W2", "Y"), ((), (), ("W1", "W2")))
    mechs = (
        RootRademacher("W1"),
        RootRademacher("W2"),
        Deterministic("Y", ("W1", "W2"), parse_formula(outcome_formula, ("W1", "W2"))),
    )
    return ScmModel(dag, mechs, "Y")


def _identified_model():
    return _two_root_product_model("W1 + W1*W2")


def _confounded_chain_model():
    # same observable law as _identified_model but W2 = W1 + E2
    dag = Dag(("W1", "W2", "Y"), ((), ("W1",), ("W2",)))
    mean = ParentFn("W2", ("W1",), formula=parse_formula("W1", ("W1",)))
    mechs = (
        RootRademacher("W1"),
        AdditiveNoise("W2", ("W1",), mean, [-1.0, 1.0]),
        Deterministic("Y", ("W2",), parse_formula("W2", ("W2",))),
    )
    return ScmModel(dag, mechs, "Y")


def _two_layer_model(noise_std_expr):
    names = ("W11", "W12", "W13", "W21", "W22", "Y")
    parents = ((), (), (), ("W11", "W12"), ("W12", "W13"), ("W21", "W22"))
    dag = Dag(names, parents)

    def hetero(node, pars, mean_src):
        mean = ParentFn(node, pars, formula=parse_formula(mean_src, pars))
        std = ParentFn(node, pars, formula=parse_formula(noise_std_expr, pars))
        return HeteroGaussian(node, pars, mean, std)

    mechs = (
        RootGaussian("W11"),
        RootGaussian("W12"),
        RootGaussian("W13"),
        hetero("W21", ("W11", "W12"), "(W11 + W12)^2"),
        hetero("W22", ("W12", "W13"), "(0 - W12 - W13)^2"),
        Deterministic("Y", ("W21", "W22"), parse_formula("W21 + W22", ("W21", "W22"))),
    )
    return ScmModel(dag, mechs, "Y")


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_dag_direction_triples():
    # three two-variable causal layouts with identical observable outcome
    # law; the measure must separate them by noise attribution
    scenarios = (
        ("independent", "W1*W2", (1.0, 1.0, 1.0)),
        ("downstream second", "W1*W1*W2", (0.0, 1.0, 0.0)),
        ("downstream first", "W2*W2*W1", (1.0, 0.0, 0.0)),
    )
    cfg = EstimatorConfig(samples=200_000, seed=11)
    t0 = time.monotonic()
    got = []
    for _, formula, _ in scenarios:
        model = _two_root_product_model(formula)
        m = estimate_counterfactual_measure(model, cfg, include_outcome=False)
        totals = totals_from_measure(m).total
        got.append((totals[0b01], totals[0b10], measure_interaction(m, 0b11)))
    elapsed = time.monotonic() - t0
    worst = max(
        abs(g - e)
        for (_, _, expected), triple in zip(scenarios, got)
        for g, e in zip(triple, expected)
    )
    ok = worst <= 0.02 and elapsed < 10.0
    detail = (
        f"triples {[tuple(round(float(v), 3) for v in t) for t in got]}, "
        f"worst err {worst:.4f} (tol 0.02), {elapsed:.1f}s (limit 10s)"
    )
    assert _line(1, ok, detail), detail


def test_criterion_02_identification_pair_and_refit():
    cfg = EstimatorConfig(samples=200_000, seed=3)
    xi1 = counterfactual_total(_identified_model(), ["W1"], cfg)
    xi2 = counterfactual_total(_confounded_chain_model(), ["W1"], cfg)

    chain = _confounded_chain_model()
    u = np.random.default_rng(77).random((50_000, 3))
    cols = {k: np.asarray(v, dtype=float) for k, v in chain.forward(u).items()}
    data = Dataset(cols, 50_000)
    fitted = fit_model(data, chain.dag, FitConfig(method="quantile_grid", seed=0), "Y")
    xi_fit = counterfactual_total(fitted, ["W1"], cfg)

    ok = (
        abs(xi1.value - 1.0) <= 0.02
        and abs(xi2.value - 0.5) <= 0.02
        and abs(xi_fit.value - 0.5) <= 0.05
    )
    detail = (
        f"xi(W1) direct {xi1.value:.4f} (want 1.00 +-0.02), "
        f"chain {xi2.value:.4f} (want 0.50 +-0.02), "
        f"refit from 50k rows {xi_fit.value:.4f} (want 0.50 +-0.05)"
    )
    assert _line(2, ok, detail), detail


def test_criterion_03_measure_construction_equivalence():
    # the same atoms must come out of four routes: direct variance
    # components, inclusion-exclusion over totals, the superset-sum
    # inversion, and the subset-sum inversion of the lower indices
    worst = 0.0
    for seed in range(50):
        rs = np.random.default_rng(1000 + seed)
        dom, f = _random_model(rs)
        dec = check_decomposition(hoeffding_decompose(f, dom))
        idx = indices_from_decomposition(dec)
        names = tuple(f"X{i}" for i in range(dom.k))

        a = exact_measure(dec, names).atom_mass
        b = measure_from_totals(
            TotalsTable(dom.k, idx.upper / dec.total_variance), names
        ).atom_mass
        c = superset_mobius(idx.superset) / dec.total_variance
        d = _subset_mobius(idx.lower) / dec.total_variance

        worst = max(
            worst,
            float(np.max(np.abs(a - b))),
            float(np.max(np.abs(a - c))),
            float(np.max(np.abs(a - d))),
        )
    ok = worst <= 1e-10
    detail = f"50 random discrete models, four constructions, worst atom gap {worst:.2e} (tol 1e-10)"
    assert _line(3, ok, detail), detail


def test_criterion_04_contrast_covariance_identity():
    # Cov of two interaction contrasts on disjoint index sets collapses
    # to a signed variance of the merged contrast
    worst = 0.0
    for seed in range(20):
        rs = np.random.default_rng(2000 + seed)
        dom, f = _random_model(rs, k_max=3, support_max=3)
        while dom.k != 3:
            dom, f = _random_model(rs, k_max=3, support_max=3)
        scale = max(1.0, exact_contrast_var(f, dom, 0b111))
        for s in range(1, 8):
            for s2 in range(8):
                if s & s2:
                    continue
                lhs = exact_contrast_cov(f, dom, s, s2)
                sign = (-0.5) ** (int(popcount(s)) + int(popcount(s2)))
                rhs = sign * exact_contrast_var(f, dom, s | s2)
                worst = max(worst, abs(lhs - rhs) / scale)
    ok = worst <= 1e-10
    detail = f"20 random 3-variable models, all disjoint pairs, worst gap {worst:.2e} (tol 1e-10)"
    assert _line(4, ok, detail), detail


def test_criterion_05_pickfreeze_upper_expansion():
    # Var(f(W) - f(W'_S, W_-S)) enumerated directly must match the
    # alternating sum of merged-contrast variances over subsets of S
    worst = 0.0
    for seed in range(20):
        rs = np.random.default_rng(3000 + seed)
        dom, f = _random_model(rs, k_max=3, support_max=3)
        grid = dom.grid()
        w = dom.weights()
        n = dom.size
        y0 = f(grid)
        scale = max(1.0, float(np.sum(w * y0**2) - np.sum(w * y0) ** 2))
        full = (1 << dom.k) - 1
        for s in range(1, full + 1):
            swap_cols = [j for j in range(dom.k) if s & (1 << j)]
            # all (anchor, donor) pairs with the S block swapped in
            anchor = np.repeat(grid, n, axis=0)
            donor = np.tile(grid, (n, 1))
            hyb = anchor.copy()
            hyb[:, swap_cols] = donor[:, swap_cols]
            d = np.repeat(y0, n) - f(hyb)
            ww = np.multiply.outer(w, w).ravel()
            lhs = float(np.sum(ww * d * d) - np.sum(ww * d) ** 2)
            rhs = 0.0
            t = s
            while t:
                rhs += (-0.5) ** (int(popcount(t)) - 1) * exact_contrast_var(f, dom, t)
                t = (t - 1) & s
            worst = max(worst, abs(lhs - rhs) / scale)
    ok = worst <= 1e-10
    detail = f"20 random models, every subset, worst expansion gap {worst:.2e} (tol 1e-10)"
    assert _line(5, ok, detail), detail


def test_criterion_06_pickfreeze_closed_forms():
    worst = 0.0
    for seed in range(20):
        rs = np.random.default_rng(4000 + seed)
        dom, f = _random_model(rs)
        dec = check_decomposition(hoeffding_decompose(f, dom))
        idx = indices_from_decomposition(dec)
        scale = max(1.0, dec.total_variance)
        for s in range(1, 1 << dom.k):
            lower, upper = exact_pickfreeze(f, dom, s)
            worst = max(
                worst,
                abs(lower - idx.lower[s]) / scale,
                abs(upper - idx.upper[s]) / scale,
            )
    ok = worst <= 1e-10
    detail = f"20 random models, both closed forms vs oracle indices, worst gap {worst:.2e} (tol 1e-10)"
    assert _line(6, ok, detail), detail


def test_criterion_07_measure_validation_rates():
    # exact atoms must be a true probability vector; Monte Carlo atoms
    # must validate at 3 standard errors in at least 95 of 100 runs
    worst_mass = 0.0
    worst_neg = 0.0
    for seed in range(20):
        rs = np.random.default_rng(5000 + seed)
        dom, f = _random_model(rs)
        dec = check_decomposition(hoeffding_decompose(f, dom))
        m = exact_measure(dec, tuple(f"X{i}" for i in range(dom.k)))
        worst_mass = max(worst_mass, abs(float(m.atom_mass.sum()) - 1.0))
        worst_neg = max(worst_neg, -float(m.atom_mass.min()))
    exact_ok = worst_mass <= 1e-9 and worst_neg <= 1e-9

    passes = 0
    runs = 0
    for fn_name in ("linear3", "quadratic3", "sigmoid_nn3", "multilinear3"):
        f, sampler, names = named_function(fn_name)
        for seed in range(25):
            cfg = EstimatorConfig(samples=20_000, seed=seed)
            m = estimate_measure(f, sampler, cfg, names)
            tol = 3.0 * float(np.max(m.atom_stderr))
            report = measure_validate(m, tol)
            runs += 1
            passes += int(report.ok)
    mc_ok = passes >= 95
    ok = exact_ok and mc_ok
    detail = (
        f"exact: mass gap {worst_mass:.2e}, min atom -{worst_neg:.2e} (tol 1e-9); "
        f"mc: {passes}/{runs} runs validate at 3 stderr (need >=95)"
    )
    assert _line(7, ok, detail), detail


def test_criterion_08_benchmark_function_atoms():
    cfg = EstimatorConfig(samples=200_000, seed=9)

    f, sampler, names = named_function("linear3")
    m = estimate_measure(f, sampler, cfg, names)
    singles = [m.atom_mass[1 << j] for j in range(3)]
    inter = [
        measure_interaction(m, s) for s in range(1, 8) if int(popcount(s)) >= 2
    ]
    lin_ok = all(abs(v - 1 / 3) <= 0.02 for v in singles) and all(
        abs(v) <= 0.02 for v in inter
    )

    f, sampler, names = named_function("quadratic3")
    mq = estimate_measure(f, sampler, cfg, names)
    pairs = [mq.atom_mass[s] for s in (0b011, 0b101, 0b110)]
    quad_ok = all(abs(v - 1 / 3) <= 0.02 for v in pairs)

    f, sampler, names = named_function("multilinear3")
    mm = estimate_measure(f, sampler, cfg, names)
    triple = float(mm.atom_mass[0b111])
    multi_ok = abs(triple - 1.0) <= 0.03

    ok = lin_ok and quad_ok and multi_ok
    detail = (
        f"linear singles {[round(float(v), 3) for v in singles]} (want 1/3 +-0.02), "
        f"max |interaction| {max(abs(v) for v in inter):.3f} (tol 0.02); "
        f"pair atoms {[round(float(v), 3) for v in pairs]} (want 1/3 +-0.02); "
        f"triple atom {triple:.3f} (want 1.00 +-0.03)"
    )
    assert _line(8, ok, detail), detail


def test_criterion_09_chain_vs_marginalized():
    # collapsing W2 out of the chain W1 -> W2 -> Y must not move xi(W1)
    cfg_a = EstimatorConfig(samples=200_000, seed=21)
    cfg_b = EstimatorConfig(samples=200_000, seed=22)
    chain = _confounded_chain_model()

    dag = Dag(("W1", "Y"), ((), ("W1",)))
    mean = ParentFn("Y", ("W1",), formula=parse_formula("W1", ("W1",)))
    flat = ScmModel(
        dag, (RootRademacher("W1"), AdditiveNoise("Y", ("W1",), mean, [-1.0, 1.0])), "Y"
    )

    a = counterfactual_total(chain, ["W1"], cfg_a)
    b = counterfactual_total(flat, ["W1"], cfg_b)
    gap = abs(a.value - b.value)
    limit = 3.0 * math.hypot(a.stderr, b.stderr)
    ok = gap <= limit
    detail = (
        f"chain xi(W1) {a.value:.4f}+-{a.stderr:.4f}, marginalized {b.value:.4f}+-{b.stderr:.4f}, "
        f"gap {gap:.4f} <= {limit:.4f}"
    )
    assert _line(9, ok, detail), detail


def test_criterion_10_shapley_permutation_equality():
    worst = 0.0
    worst_sum = 0.0
    for seed in range(12):
        rs = np.random.default_rng(6000 + seed)
        dom, f = _random_model(rs)
        dec = check_decomposition(hoeffding_decompose(f, dom))
        names = tuple(f"X{i}" for i in range(dom.k))
        m = exact_measure(dec, names)
        phi = shapley_from_measure(m).values

        atoms = m.atom_mass

        def value(mask):
            s = 0.0
            t = mask
            while True:
                s += atoms[t]
                if t == 0:
                    break
                t = (t - 1) & mask
            return s

        brute = np.zeros(dom.k)
        perms = list(itertools.permutations(range(dom.k)))
        for perm in perms:
            mask = 0
            for j in perm:
                before = value(mask)
                mask |= 1 << j
                brute[j] += value(mask) - before
        brute /= len(perms)
        worst = max(worst, float(np.max(np.abs(phi - brute))))
        # deterministic outcome: no unexplained mass, so shares sum to 1
        worst_sum = max(worst_sum, abs(float(phi.sum()) - 1.0))
    ok = worst <= 1e-12 and worst_sum <= 1e-12
    detail = (
        f"12 exact measures, permutation-average gap {worst:.2e} (tol 1e-12), "
        f"sum-to-one gap {worst_sum:.2e}"
    )
    assert _line(10, ok, detail), detail


def test_criterion_11_efron_stein_and_monotonicity():
    worst_es = 0.0  # how far the singleton totals fall below full variance
    fails = 0
    for seed in range(100):
        rs = np.random.default_rng(7000 + seed)
        dom, f = _random_model(rs)
        dec = check_decomposition(hoeffding_decompose(f, dom))
        m = exact_measure(dec, tuple(f"X{i}" for i in range(dom.k)))
        totals = totals_from_measure(m).total
        es_gap = 1.0 - float(sum(totals[1 << j] for j in range(dom.k)))
        worst_es = max(worst_es, es_gap)
        if not measure_validate(m, 1e-9).ok:
            fails += 1
    ok = worst_es <= 1e-10 and fails == 0
    detail = (
        f"100 random exact models: singleton-total slack {worst_es:.2e} (must be <= 1e-10), "
        f"{fails} validation failures"
    )
    assert _line(11, ok, detail), detail


def test_criterion_12_second_layer_noise_scaling():
    # shrinking the second-layer noise makes the first layer matter more
    cfg = EstimatorConfig(samples=200_000, seed=17)
    base = _two_layer_model("1")
    tight = _two_layer_model("1/6")
    rows = []
    ok = True
    for node in ("W11", "W12", "W13"):
        a = counterfactual_total(base, [node], cfg)
        b = counterfactual_total(tight, [node], cfg)
        margin = 3.0 * math.hypot(a.stderr, b.stderr)
        rows.append(f"{node}: {a.value:.3f} -> {b.value:.3f} (margin {margin:.3f})")
        ok = ok and (b.value - a.value > margin)
    detail = "; ".join(rows)
    assert _line(12, ok, detail), detail


def test_criterion_13_income_pipeline(tmp_path):
    rs = np.random.default_rng(20260816)
    n = 50_000
    sex = rs.choice(["F", "M"], size=n, p=[0.52, 0.48])
    race = rs.choice(["A", "B", "C"], size=n, p=[0.60, 0.25, 0.15])
    edu = np.clip(
        np.round(11.0 + 1.0 * (race == "A") + 0.5 * (sex == "M") + rs.normal(0, 1.6, n)),
        8,
        18,
    )
    log_income = (
        7.5
        + 0.09 * edu
        + 0.25 * (sex == "M")
        + 0.15 * (race == "A")
        - 0.05 * (race == "C")
        + rs.normal(0, 1, n) * (0.35 + 0.015 * (edu - 8))
    )
    csv_path = tmp_path / "income.csv"
    with open(csv_path, "w") as fh:
        fh.write("sex,race,education,log_income\n")
        for i in range(n):
            fh.write(f"{sex[i]},{race[i]},{edu[i]:.0f},{log_income[i]:.6f}\n")

    dag_path = tmp_path / "income_dag.json"
    dag_path.write_text(
        json.dumps(
            {
                "outcome": "log_income",
                "nodes": [
                    {"name": "sex", "parents": []},
                    {"name": "race", "parents": []},
                    {"name": "education", "parents": ["sex", "race"]},
                    {
                        "name": "log_income",
                        "parents": ["sex", "race", "education"],
                    },
                ],
                "categorical": ["sex", "race"],
            }
        )
    )

    model_path = tmp_path / "income_model.json"
    report_path = tmp_path / "income_report.json"
    svg_a = tmp_path / "income_a.svg"
    svg_b = tmp_path / "income_b.svg"

    t0 = time.monotonic()
    rc_fit = cli_main(
        [
            "fit",
            "--data",
            str(csv_path),
            "--dag",
            str(dag_path),
            "--method",
            "quantile_grid",
            "--seed",
            "0",
            "--out",
            str(model_path),
        ]
    )
    rc_cf = cli_main(
        [
            "counterfactual",
            "--model",
            str(model_path),
            "--samples",
            "200000",
            "--seed",
            "5",
            "--out",
            str(report_path),
        ]
    )
    rc_v1 = cli_main(["venn", "--report", str(report_path), "--out", str(svg_a)])
    rc_v2 = cli_main(["venn", "--report", str(report_path), "--out", str(svg_b)])
    elapsed = time.monotonic() - t0

    rep = read_report(report_path)
    tol = 3.0 * float(np.max(rep.measure.atom_stderr))
    validation = measure_validate(rep.measure, tol)

    golden = (pathlib.Path(__file__).parent / "data" / "income_venn.svg").read_bytes()
    bytes_a = svg_a.read_bytes()
    bytes_b = svg_b.read_bytes()

    ok = (
        rc_fit == 0
        and rc_cf == 0
        and rc_v1 == 0
        and rc_v2 == 0
        and elapsed < 60.0
        and validation.ok
        and bytes_a == bytes_b
        and bytes_a == golden
    )
    detail = (
        f"exit codes ({rc_fit},{rc_cf},{rc_v1},{rc_v2}), {elapsed:.1f}s (limit 60s), "
        f"measure validates at 3 stderr: {validation.ok}, "
        f"svg stable: {bytes_a == bytes_b}, matches golden: {bytes_a == golden}"
    )
    assert _line(13, ok, detail), detail
