import itertools
import math

import numpy as np
import pytest

from xfvar.algebra import (
    EXACT,
    Clause,
    ExplanationMeasure,
    Provenance,
    TotalsTable,
    clause_atom,
    clause_false,
    clause_subset,
    clause_true,
    clause_var,
    clip_negative_atoms,
    iter_subsets,
    measure_from_totals,
    measure_interaction,
    measure_marginalize,
    measure_query,
    measure_query_str,
    measure_validate,
    members,
    mobius_sign,
    parse_clause,
    popcount,
    shapley_from_measure,
    submasks,
    subset_label,
    subset_zeta,
    superset_mobius,
    superset_zeta,
    totals_from_measure,
)
from xfvar.errors import ParseError

# exact measure for Y = W1 + W1*W2 with Rademacher inputs:
# totals xi(W1)=1, xi(W2)=1/2, xi(W1 or W2)=1
M1_TOTALS = {0b01: 1.0, 0b10: 0.5, 0b11: 1.0}
M1_ATOMS = [0.0, 0.5, 0.0, 0.5]


def _measure(atoms, names=None, stderr=None, provenance=EXACT):
    names = names or tuple(f"W{i+1}" for i in range(int(math.log2(len(atoms)))))
    return ExplanationMeasure(names, np.array(atoms, dtype=float), stderr, provenance)


def test_iter_subsets():
    assert list(iter_subsets(2)) == [0, 1, 2, 3]
    assert list(iter_subsets(2, nonempty=True)) == [1, 2, 3]


def test_popcount():
    assert list(popcount(np.arange(8))) == [0, 1, 1, 2, 1, 2, 2, 3]


def test_subset_label():
    names = ("A", "B", "C")
    assert subset_label(0, names) == "(none)"
    assert subset_label(0b101, names) == "A+C"


def test_zeta_transforms_match_bruteforce():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3, 4):
        n = 1 << k
        v = rng.normal(size=n)
        sub = subset_zeta(v)
        sup = superset_zeta(v)
        for s in range(n):
            assert sub[s] == pytest.approx(sum(v[t] for t in range(n) if t & s == t), rel=1e-12)
            assert sup[s] == pytest.approx(sum(v[t] for t in range(n) if t & s == s), rel=1e-12)


# The per-bit loops the lattice transforms had before they shared one pass,
# kept as bit-level references.


def _ref_subset_zeta(values):
    out = np.array(values, dtype=float, copy=True)
    idx = np.arange(len(out))
    k = 0
    while (1 << k) < len(out):
        has = (idx & (1 << k)) != 0
        out[has] += out[idx[has] ^ (1 << k)]
        k += 1
    return out


def _ref_superset_pass(values, sign):
    out = np.array(values, dtype=float, copy=True)
    idx = np.arange(len(out))
    k = 0
    while (1 << k) < len(out):
        lacks = (idx & (1 << k)) == 0
        if sign > 0:
            out[lacks] += out[idx[lacks] | (1 << k)]
        else:
            out[lacks] -= out[idx[lacks] | (1 << k)]
        k += 1
    return out


def _ref_marginalize(values, k):
    """Fold bit k out of a dense 2**K array by scattering each entry into
    its folded index with np.add.at."""
    idx = np.arange(len(values))
    low = (1 << k) - 1
    folded = (idx & low) | ((idx >> (k + 1)) << k)
    out = np.zeros(len(values) // 2)
    np.add.at(out, folded, values)
    return out


def _hex(a):
    return [float(x).hex() for x in a]


@pytest.mark.parametrize("k", range(1, 13))
def test_lattice_transforms_match_the_per_bit_loops_bit_for_bit(k):
    n = 1 << k
    full = n - 1
    rng = np.random.default_rng(100 + k)
    v = rng.normal(size=n)
    assert _hex(subset_zeta(v)) == _hex(_ref_subset_zeta(v))
    assert _hex(superset_zeta(v)) == _hex(_ref_superset_pass(v, 1))
    assert _hex(superset_mobius(v)) == _hex(_ref_superset_pass(v, -1))

    total = rng.uniform(size=n)
    total[0] = 0.0
    stderr = rng.uniform(0.0, 0.01, size=n)
    names = tuple(f"V{i}" for i in range(k))
    m = measure_from_totals(TotalsTable(k, total, stderr), names, tol=None)
    inter = _ref_subset_zeta(np.where(popcount(np.arange(n)) % 2 == 1, total, -total))
    inter[0] = 1.0
    atoms = _ref_superset_pass(inter, -1)
    atoms[0] = 1.0 - total[full]
    assert _hex(m.atom_mass) == _hex(atoms)
    want_se = np.sqrt(_ref_superset_pass(stderr**2, 1)[full ^ np.arange(n)])
    assert _hex(m.atom_stderr) == _hex(want_se)

    within = _ref_subset_zeta(m.atom_mass)
    want = within[full] - within[full ^ np.arange(n)]
    want[0] = 0.0
    assert _hex(totals_from_measure(m).total) == _hex(want)


@pytest.mark.parametrize("k", range(2, 9))
def test_marginalize_matches_the_add_at_fold_bit_for_bit(k):
    n = 1 << k
    rng = np.random.default_rng(200 + k)
    atoms = rng.normal(size=n)
    atoms[rng.choice(n, size=n // 2, replace=False)] = rng.choice([-0.0, 0.0], size=n // 2)
    stderr = rng.uniform(0.0, 0.01, size=n)
    stderr[rng.choice(n, size=n // 4, replace=False)] = 1e200
    m = _measure(atoms, tuple(f"V{i}" for i in range(k)), stderr)
    for drop in range(k):
        out = measure_marginalize(m, f"V{drop}")
        with np.errstate(over="ignore"):
            want_se = np.sqrt(_ref_marginalize(stderr**2, drop))
        assert _hex(out.atom_mass) == _hex(_ref_marginalize(atoms, drop))
        assert _hex(out.atom_stderr) == _hex(want_se)


@pytest.mark.parametrize("n", [3, 5, 6])
@pytest.mark.parametrize("transform", [subset_zeta, superset_zeta, superset_mobius])
def test_lattice_transforms_reject_a_length_that_is_not_a_power_of_two(transform, n):
    with pytest.raises(ValueError, match=f"power of two, got {n}"):
        transform(np.ones(n))


def test_submask_walk_parity_and_members_match_brute_force():
    for s in list(range(256)) + [0b1010_0110_0101, (1 << 12) - 1]:
        want = [t for t in range(s, -1, -1) if t & ~s == 0]
        assert list(submasks(s)) == want
        assert members(s) == [j for j in range(s.bit_length()) if s >> j & 1]
        for t in want:
            assert mobius_sign(s, t) == (-1.0) ** (bin(s).count("1") - bin(t).count("1"))


def test_superset_mobius_inverts_zeta():
    rng = np.random.default_rng(1)
    v = rng.normal(size=16)
    assert np.allclose(superset_mobius(superset_zeta(v)), v, atol=1e-12)
    assert np.allclose(superset_zeta(superset_mobius(v)), v, atol=1e-12)


def test_totals_table_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TotalsTable(2, np.zeros(3))
    with pytest.raises(ValueError):
        TotalsTable(2, np.array([0.5, 1, 1, 1]))  # empty-set total nonzero
    with pytest.raises(ValueError):
        TotalsTable.from_dict(2, {1: 1.0, 2: 0.5})  # missing full set


def test_measure_from_totals_model1():
    table = TotalsTable.from_dict(2, M1_TOTALS)
    m = measure_from_totals(table, ("W1", "W2"))
    assert np.allclose(m.atom_mass, M1_ATOMS, atol=1e-15)
    assert m.provenance == EXACT


def test_measure_from_totals_inclusion_exclusion():
    # random valid measure -> totals -> back, over several sizes
    rng = np.random.default_rng(2)
    for k in (1, 2, 3, 4):
        n = 1 << k
        atoms = rng.dirichlet(np.ones(n))
        m0 = _measure(atoms, tuple(f"V{i}" for i in range(k)))
        table = totals_from_measure(m0)
        m1 = measure_from_totals(table, m0.names)
        assert np.allclose(m1.atom_mass, atoms, atol=1e-12)


def test_measure_from_totals_range_check():
    bad = TotalsTable.from_dict(2, {1: 1.4, 2: 0.5, 3: 1.0})
    with pytest.raises(ValueError):
        measure_from_totals(bad, ("A", "B"), tol=1e-9)
    # tol=None skips the range check and lets downstream handle it
    measure_from_totals(bad, ("A", "B"), tol=None)


def test_empty_atom_is_one_minus_full_total():
    table = TotalsTable.from_dict(2, {1: 0.6, 2: 0.3, 3: 0.8})
    m = measure_from_totals(table, ("A", "B"), tol=0.5)
    assert m.atom_mass[0] == pytest.approx(0.2, abs=1e-15)


def test_clause_algebra():
    a = clause_var(3, 0)
    b = clause_var(3, 1)
    assert len(a.atoms) == 4
    assert (a & b).atoms == a.atoms & b.atoms
    assert (~(a | b)).atoms == (~a & ~b).atoms  # De Morgan
    assert clause_true(3).atoms == (a | ~a).atoms
    assert clause_false(3).atoms == (a & ~a).atoms
    assert clause_subset(3, 0b011).atoms == (a | b).atoms
    assert clause_atom(3, 0b101).atoms == frozenset({0b101})


def test_parse_clause():
    names = ("W1", "W2", "W3")
    assert parse_clause("W1", names).atoms == clause_var(3, 0).atoms
    got = parse_clause("~(W1 | W2) & W3", names).atoms
    want = (~(clause_var(3, 0) | clause_var(3, 1)) & clause_var(3, 2)).atoms
    assert got == want
    with pytest.raises(ParseError):
        parse_clause("W1 |", names)
    with pytest.raises(ParseError):
        parse_clause("nope", names)


@pytest.mark.parametrize("text", ["W1 | 2", "W1.5", "3", "W1 & (2)"])
def test_parse_clause_rejects_numbers(text):
    with pytest.raises(ParseError):
        parse_clause(text, ("W1", "W2", "W3"))


def test_clause_operators_need_equal_var_counts():
    a, b = clause_var(2, 0), clause_var(3, 0)
    with pytest.raises(ValueError, match="var_count mismatch: 2 vs 3"):
        a & b
    with pytest.raises(ValueError, match="var_count mismatch: 3 vs 2"):
        b | a


def test_measure_query_additivity():
    m = _measure([0.1, 0.2, 0.3, 0.4], ("A", "B"))
    a = clause_var(2, 0)
    assert measure_query(m, a) == pytest.approx(0.6, abs=1e-15)
    assert measure_query(m, ~a) == pytest.approx(0.4, abs=1e-15)
    assert measure_query(m, clause_true(2)) == pytest.approx(1.0, abs=1e-15)
    assert measure_query(m, clause_false(2)) == 0.0
    assert measure_query_str(m, "A | B") == pytest.approx(0.9, abs=1e-15)
    assert measure_query_str(m, "A & B") == pytest.approx(0.4, abs=1e-15)


def test_measure_interaction_is_superset_mass():
    m = _measure([0.1, 0.2, 0.3, 0.4], ("A", "B"))
    assert measure_interaction(m, 0) == pytest.approx(1.0, abs=1e-15)
    assert measure_interaction(m, 0b01) == pytest.approx(0.6, abs=1e-15)
    assert measure_interaction(m, 0b11) == pytest.approx(0.4, abs=1e-15)


def test_measure_interaction_matches_the_atom_scan_bits():
    # reference: the scan over every atom in increasing bitmask order
    k = 12
    n = 1 << k
    rng = np.random.default_rng(4)
    atoms = rng.normal(size=n) * 10.0 ** rng.integers(-12, 3, size=n)
    m = _measure(atoms / atoms.sum(), tuple(f"W{j}" for j in range(k)))
    for mask in [*range(0, n, 7), n - 1]:
        want = math.fsum(m.atom_mass[s] for s in range(n) if s & mask == mask)
        assert measure_interaction(m, mask).hex() == want.hex()


def test_marginalize_folds_bit():
    m = _measure([0.1, 0.2, 0.3, 0.4], ("A", "B"))
    out = measure_marginalize(m, "B")
    assert out.names == ("A",)
    assert np.allclose(out.atom_mass, [0.4, 0.6], atol=1e-15)
    with pytest.raises(ValueError):
        measure_marginalize(out, "A")


def test_marginalize_keeps_queries_consistent():
    rng = np.random.default_rng(3)
    atoms = rng.dirichlet(np.ones(8))
    m = _measure(atoms, ("A", "B", "C"))
    out = measure_marginalize(m, "C")
    for text in ("A", "B", "A & B", "A | B", "~A"):
        assert measure_query_str(out, text) == pytest.approx(
            measure_query_str(m, text), abs=1e-12
        )


def test_clip_negative_atoms():
    m = _measure([0.05, 0.55, -0.1, 0.5], ("A", "B"), provenance=Provenance("monte_carlo", 100, 0))
    out = clip_negative_atoms(m)
    assert np.all(out.atom_mass >= 0)
    assert math.fsum(out.atom_mass) == pytest.approx(1.0, abs=1e-15)
    assert "clipped-renormalized" in out.provenance.flags
    assert np.allclose(out.atom_mass, np.array([0.05, 0.55, 0.0, 0.5]) / 1.1)


def test_shapley_model1():
    m = _measure(M1_ATOMS)
    phi = shapley_from_measure(m)
    assert np.allclose(phi.values, [0.75, 0.25], atol=1e-15)


def test_shapley_matches_permutation_definition():
    # phi_k = average over orderings of the marginal gain in
    # v(S) = mass of atoms contained in S
    rng = np.random.default_rng(4)
    for k in (2, 3, 4):
        n = 1 << k
        atoms = rng.dirichlet(np.ones(n))
        m = _measure(atoms, tuple(f"V{i}" for i in range(k)))
        within = subset_zeta(m.atom_mass)
        want = np.zeros(k)
        perms = list(itertools.permutations(range(k)))
        for perm in perms:
            s = 0
            for j in perm:
                want[j] += within[s | (1 << j)] - within[s]
                s |= 1 << j
        want /= len(perms)
        got = shapley_from_measure(m).values
        assert np.allclose(got, want, atol=1e-12)
        assert math.fsum(got) == pytest.approx(1.0 - atoms[0], abs=1e-12)


def test_validate_accepts_proper_measure():
    rep = measure_validate(_measure(M1_ATOMS), tol=1e-9)
    assert rep.ok
    assert "valid" in rep.summary()


def test_validate_flags_negative_atom():
    rep = measure_validate(_measure([0.0, 0.6, -0.1, 0.5], ("A", "B")), tol=1e-9)
    assert not rep.ok
    assert rep.negative_atoms
    assert "INVALID" in rep.summary()


def test_validate_flags_bad_mass():
    rep = measure_validate(_measure([0.0, 0.5, 0.1, 0.3], ("A", "B")), tol=1e-9)
    assert not rep.ok
    assert rep.mass_error == pytest.approx(0.1, abs=1e-12)


def test_validate_catches_monotonicity_break():
    # a negative {B} atom pushes total({A,B}) below total({A}); the
    # subset-max sweep must flag every superset that dips below a subset
    atoms = np.array([0.2, 0.9, -0.15, 0.05, 0.0, 0.0, 0.0, 0.0])
    rep = measure_validate(_measure(atoms, ("A", "B", "C")), tol=1e-9)
    assert not rep.ok
    pairs = [(w, s) for w, s, _ in rep.monotonicity_violations]
    assert ("A", "A+B") in pairs
    assert any(s == "A+B+C" for _, s, _ in rep.monotonicity_violations)


def test_provenance_json_roundtrip():
    p = Provenance("monte_carlo", 4096, 7, ("clipped-renormalized",))
    assert Provenance.from_json(p.to_json()) == p
    assert Provenance.from_json(EXACT.to_json()) == EXACT


def test_clause_rejects_out_of_range_atoms():
    with pytest.raises(ValueError):
        Clause(2, frozenset({4}))


_M1 = _measure(M1_ATOMS)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TotalsTable(0, np.zeros(1)), "var_count must be in 1..16, got 0"),
        (lambda: TotalsTable(17, np.zeros(2)), "var_count must be in 1..16, got 17"),
        (lambda: clause_var(2, 2), "variable index 2 out of range for 2 variables"),
        (lambda: TotalsTable(2, np.zeros(4), np.zeros(3)), "stderr array must have shape (4,)"),
        (lambda: _measure(M1_ATOMS, names=("W", "W")), "variable names must be unique"),
        (lambda: _measure([0.0, 1.0], names=("A", "B")), "atom_mass must have shape (4,)"),
        (lambda: _measure(M1_ATOMS, stderr=np.zeros(2)), "atom_stderr must have shape (4,)"),
        (lambda: measure_from_totals(TotalsTable(2, np.zeros(4)), ("A",)),
         "names length must match totals.var_count"),
        (lambda: measure_query(_M1, clause_var(3, 0)), "clause has 3 variables, measure has 2"),
        (lambda: measure_interaction(_M1, 4), "subset mask out of range"),
        (lambda: clip_negative_atoms(_measure([0.0, -0.5, 0.0, 0.0])),
         "cannot renormalize: no positive atom mass"),
        (lambda: measure_validate(_M1, -1.0), "tol must be nonnegative"),
    ],
    ids=["var_count_zero", "var_count_past_max", "clause_index", "stderr_shape", "names_unique",
         "atom_mass_shape", "atom_stderr_shape", "totals_names", "query_width", "interaction_mask",
         "clip_no_positive_mass", "validate_tol"],
)
def test_library_guards(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert type(exc.value) is ValueError and str(exc.value) == message
