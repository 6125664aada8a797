"""Explanation algebra over input variables.

V named variables generate a finite Boolean algebra whose 2**V atoms are
the events "exactly the variables in S matter". A clause is any union of
atoms; an explanation measure assigns each atom a share of the outcome
variance, and every clause value follows by finite additivity. Totals
(the variance share touched by each variable subset) convert to a full
measure by inclusion-exclusion.

Subsets of variables are encoded as int bitmasks: bit k set means
variable k is in the subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .formula import Tokens

MAX_VARS = 16

# How far a discrete law's probabilities may sum from 1: the one check of a
# root_categorical node and of the oracle's discrete domain.
PROB_SUM_TOL = 1e-9


def _check_var_count(var_count: int) -> None:
    if not 1 <= var_count <= MAX_VARS:
        raise ValueError(f"var_count must be in 1..{MAX_VARS}, got {var_count}")


def subset_key(names, mask: int, sep: str = "+") -> str:
    """Report key for a variable subset: declaration-ordered names joined
    by sep, empty string for the empty set."""
    return sep.join(n for j, n in enumerate(names) if mask >> j & 1)


def subset_keys(names) -> list:
    """subset_key(names, s) of every mask s, in mask order: the key of
    s | 1 << j, for j above every member of s, extends the key of s."""
    keys = [""]
    for name in names:
        keys += [f"{key}+{name}" if key else name for key in keys]
    return keys


def subset_label(mask: int, names) -> str:
    """Pretty-print a subset bitmask: its report key, '(none)' if empty."""
    return subset_key(names, mask) or "(none)"


def iter_subsets(var_count: int, nonempty: bool = False):
    """All subset bitmasks of [var_count] in increasing order."""
    return range(1 if nonempty else 0, 1 << var_count)


def members(mask: int) -> list:
    """Indices of the set bits of mask, in increasing order."""
    return [j for j in range(int(mask).bit_length()) if mask >> j & 1]


def submasks(s: int):
    """Every submask of the bitmask s, from s itself down to 0."""
    t = s
    while True:
        yield t
        if t == 0:
            return
        t = (t - 1) & s


def mobius_sign(s: int, t: int) -> float:
    """(-1)**(|s| - |t|) for a submask t of s: the sign t carries in a
    Moebius sum over the submasks of s."""
    return -1.0 if int(s ^ t).bit_count() & 1 else 1.0


# ---------------------------------------------------------------------------
# Clauses


@dataclass(frozen=True)
class Clause:
    """An event in the explanation algebra: a set of atoms, each a bitmask."""

    var_count: int
    atoms: frozenset

    def __post_init__(self):
        _check_var_count(self.var_count)
        full = 1 << self.var_count
        if any(not 0 <= a < full for a in self.atoms):
            raise ValueError("atom bitmask out of range for var_count")

    def _atoms_of(self, other):
        if self.var_count != other.var_count:
            raise ValueError(f"var_count mismatch: {self.var_count} vs {other.var_count}")
        return other.atoms

    def __and__(self, other):
        return Clause(self.var_count, self.atoms & self._atoms_of(other))

    def __or__(self, other):
        return Clause(self.var_count, self.atoms | self._atoms_of(other))

    def __invert__(self):
        return Clause(self.var_count, frozenset(iter_subsets(self.var_count)) - self.atoms)


def clause_var(var_count: int, index: int) -> Clause:
    """The generator event for one variable: all atoms containing it."""
    _check_var_count(var_count)
    if not 0 <= index < var_count:
        raise ValueError(f"variable index {index} out of range for {var_count} variables")
    return clause_subset(var_count, 1 << index)


def clause_false(var_count: int) -> Clause:
    return Clause(var_count, frozenset())


def clause_true(var_count: int) -> Clause:
    return Clause(var_count, frozenset(iter_subsets(var_count)))


def clause_subset(var_count: int, mask: int) -> Clause:
    """The clause 'some variable in mask matters': union of the generator events."""
    return Clause(var_count, frozenset(m for m in iter_subsets(var_count) if m & mask))


def clause_atom(var_count: int, mask: int) -> Clause:
    """The single-atom clause 'exactly the variables in mask matter'."""
    return Clause(var_count, frozenset({mask}))


# Clause query grammar:
#   expr   := term ('|' term)*
#   term   := factor ('&' factor)*
#   factor := '~' factor | '(' expr ')' | NAME
# Whitespace-insensitive; NAME must be a declared variable name.


def parse_clause(text: str, names) -> Clause:
    """Parse a clause expression over the declared variable names.

    Raises ParseError (with byte offset) on syntax errors, unknown names,
    or empty input.
    """
    var_count = len(names)
    _check_var_count(var_count)
    index = {n: k for k, n in enumerate(names)}
    toks = Tokens(text, "|&~()")
    if toks.peek()[0] == "end":
        raise ParseError("empty clause expression", 0)

    def parse_expr():
        c = parse_term()
        while toks.accept("|"):
            c = c | parse_term()
        return c

    def parse_term():
        c = parse_factor()
        while toks.accept("&"):
            c = c & parse_factor()
        return c

    def parse_factor():  # every recursion of the grammar passes here
        toks.descend()
        if toks.accept("~"):
            c = ~parse_factor()
        elif toks.accept("("):
            c = parse_expr()
            toks.expect(")")
        else:
            tok = toks.next()
            kind, value, off = tok
            if kind != "name":
                toks.fail(tok)
            if value not in index:
                raise ParseError(f"unknown variable {value!r}", off)
            c = clause_var(var_count, index[value])
        toks.depth -= 1
        return c

    return toks.finish(parse_expr())


# ---------------------------------------------------------------------------
# Subset-lattice transforms (dense arrays indexed by bitmask)


def _halves(values: np.ndarray, k: int):
    """Views of a dense 2**K array: the entries whose masks lack bit k and
    those whose masks have it, with mask and mask | 1 << k in matching
    positions."""
    v = values.reshape(-1, 2, 1 << k)
    return v[:, 0], v[:, 1]


def _zeta(values, superset: bool, sign: float) -> np.ndarray:
    """One pass per bit, in increasing bit order: has += sign * lacks
    (subset direction) or lacks += sign * has (superset direction)."""
    out = np.array(values, dtype=float, copy=True)
    n = out.shape[0]
    if n < 1 or n & (n - 1):
        raise ValueError(f"lattice array length must be a power of two, got {n}")
    for k in range(n.bit_length() - 1):
        lacks, has = _halves(out, k)
        if superset:
            lacks += sign * has
        else:
            has += sign * lacks
    return out


def subset_zeta(values: np.ndarray) -> np.ndarray:
    """out[S] = sum over subsets T of S of values[T]."""
    return _zeta(values, False, 1.0)


def superset_zeta(values: np.ndarray) -> np.ndarray:
    """out[S] = sum over supersets T of S of values[T]."""
    return _zeta(values, True, 1.0)


def superset_mobius(values: np.ndarray) -> np.ndarray:
    """Inverse of superset_zeta: out[S] = sum_{T >= S} (-1)^{|T|-|S|} values[T]."""
    return _zeta(values, True, -1.0)


def mass_meeting(within: np.ndarray) -> np.ndarray:
    """out[S] = mass of the atoms meeting S, from within = subset_zeta of
    the atom masses: the mass inside the full set less that inside S's
    complement."""
    return within[-1] - within[::-1]


def popcount(masks) -> np.ndarray:
    """Bit counts for an array of subset masks."""
    m = np.asarray(masks, dtype=np.uint32)
    count = np.zeros_like(m)
    while m.any():
        count += m & 1
        m >>= 1
    return count.astype(np.int64)


# ---------------------------------------------------------------------------
# Measures


@dataclass(frozen=True)
class Provenance:
    """Where a measure's numbers came from.

    kind is "exact" (enumeration) or "monte_carlo"; MC provenance records
    the pair count and seed. flags carry caveats such as clipping.
    """

    kind: str
    samples: int | None = None
    seed: int | None = None
    flags: tuple = ()

    def to_json(self):
        out = {"kind": self.kind}
        if self.samples is not None:
            out["samples"] = self.samples
        if self.seed is not None:
            out["seed"] = self.seed
        if self.flags:
            out["flags"] = list(self.flags)
        return out

    @staticmethod
    def from_json(obj):
        return Provenance(
            kind=obj["kind"],
            samples=obj.get("samples"),
            seed=obj.get("seed"),
            flags=tuple(obj.get("flags", ())),
        )


EXACT = Provenance("exact")


@dataclass
class TotalsTable:
    """Total explainability per nonempty variable subset.

    total is a dense array of length 2**var_count indexed by bitmask;
    total[0] is fixed at 0 by convention. stderr, when present, has the
    same layout.
    """

    var_count: int
    total: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        _check_var_count(self.var_count)
        n = 1 << self.var_count
        self.total = np.asarray(self.total, dtype=float)
        if self.total.shape != (n,):
            raise ValueError(f"totals array must have shape ({n},)")
        if self.total[0] != 0.0:
            raise ValueError("total[empty set] must be 0")
        if self.stderr is not None:
            self.stderr = np.asarray(self.stderr, dtype=float)
            if self.stderr.shape != (n,):
                raise ValueError(f"stderr array must have shape ({n},)")

    @staticmethod
    def from_dict(var_count, totals, stderr=None):
        """Build from {mask: value} maps; all nonempty masks must be present."""
        n = 1 << var_count
        arr = np.zeros(n)
        missing = [m for m in range(1, n) if m not in totals]
        if missing:
            raise ValueError(f"totals table incomplete: {len(missing)} subsets missing")
        for m, v in totals.items():
            if m != 0:
                arr[m] = v
        err = None
        if stderr is not None:
            err = np.zeros(n)
            for m, v in stderr.items():
                if m != 0:
                    err[m] = v
        return TotalsTable(var_count, arr, err)


@dataclass
class ExplanationMeasure:
    """A probability measure on the explanation algebra.

    atom_mass[S] is the share of outcome variance carried by the atom
    "exactly the variables in S matter"; masses sum to 1. Monte Carlo
    measures may carry small negative atoms (reported raw) and an
    approximate per-atom stderr.
    """

    names: tuple
    atom_mass: np.ndarray
    atom_stderr: np.ndarray | None = None
    provenance: Provenance = EXACT

    def __post_init__(self):
        self.names = tuple(self.names)
        _check_var_count(len(self.names))
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        n = 1 << len(self.names)
        self.atom_mass = np.asarray(self.atom_mass, dtype=float)
        if self.atom_mass.shape != (n,):
            raise ValueError(f"atom_mass must have shape ({n},)")
        if self.atom_stderr is not None:
            self.atom_stderr = np.asarray(self.atom_stderr, dtype=float)
            if self.atom_stderr.shape != (n,):
                raise ValueError(f"atom_stderr must have shape ({n},)")

    @property
    def var_count(self) -> int:
        return len(self.names)

    def name_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None


@dataclass
class ShapleyValues:
    """Per-variable attribution; values align with names."""

    names: tuple
    values: np.ndarray


@dataclass
class ValidationReport:
    """Outcome of measure_validate; ok is the conjunction of all checks."""

    ok: bool
    tol: float
    mass_error: float
    negative_atoms: list = field(default_factory=list)
    monotonicity_violations: list = field(default_factory=list)

    def summary(self) -> str:
        if self.ok:
            return f"valid (mass error {self.mass_error:.2e}, tol {self.tol:g})"
        parts = [f"mass error {self.mass_error:.2e}"]
        if self.negative_atoms:
            worst = min(v for _, v in self.negative_atoms)
            parts.append(f"{len(self.negative_atoms)} atoms below -tol (worst {worst:.3g})")
        if self.monotonicity_violations:
            worst = max(d for _, _, d in self.monotonicity_violations)
            parts.append(
                f"{len(self.monotonicity_violations)} monotonicity violations (worst {worst:.3g})"
            )
        return "INVALID: " + "; ".join(parts)


def measure_from_totals(
    totals: TotalsTable,
    names,
    provenance: Provenance = EXACT,
    tol: float = 1e-9,
) -> ExplanationMeasure:
    """Convert subset totals to atom masses by inclusion-exclusion.

    Interactions are the signed subset sums
        inter[S] = sum over nonempty T <= S of (-1)^{|T|+1} total[T]
    with inter[empty] defined as 1, and atoms follow by peeling supersets
    off in descending subset size:
        atom[S] = inter[S] - sum over T > S of atom[T],
    which collapses to a Moebius inversion over the superset lattice. The
    unexplained mass lands on the empty atom: atom[empty] = 1 - total[full].

    When stderr is present a conservative per-atom stderr is propagated:
    the root-sum-square of the stderrs of every total entering the signed
    sum for that atom (the totals T with T >= complement(S)). It ignores
    the covariance induced by common random numbers and is flagged as an
    approximate upper-scale diagnostic, not a confidence radius.
    """
    names = tuple(names)
    v = totals.var_count
    if len(names) != v:
        raise ValueError("names length must match totals.var_count")
    n = 1 << v
    full = n - 1
    if tol is not None:
        lo, hi = float(np.min(totals.total[1:])), float(np.max(totals.total[1:]))
        if lo < -tol or hi > 1 + tol:
            raise ValueError(
                f"totals outside [0 - tol, 1 + tol]: range [{lo:.6g}, {hi:.6g}], tol {tol:g}"
            )

    signed = np.where(popcount(np.arange(n)) % 2 == 1, totals.total, -totals.total)
    inter = subset_zeta(signed)
    inter[0] = 1.0
    atoms = superset_mobius(inter)
    atoms[0] = 1.0 - totals.total[full]

    stderr = None
    flags = provenance.flags
    if totals.stderr is not None:
        stderr = np.sqrt(superset_zeta(totals.stderr**2)[::-1])
        if "approximate-atom-stderr" not in flags:
            flags = flags + ("approximate-atom-stderr",)
    prov = Provenance(provenance.kind, provenance.samples, provenance.seed, flags)
    return ExplanationMeasure(names, atoms, stderr, prov)


def measure_query(m: ExplanationMeasure, c: Clause) -> float:
    """Probability of a clause: the sum of its atoms' masses.

    Summation uses math.fsum over atoms in increasing bitmask order, so
    disjoint-clause additivity holds to within one rounding of the exact
    sum.
    """
    if c.var_count != m.var_count:
        raise ValueError(f"clause has {c.var_count} variables, measure has {m.var_count}")
    return math.fsum(m.atom_mass[a] for a in sorted(c.atoms))


def measure_query_str(m: ExplanationMeasure, text: str) -> float:
    """Convenience: parse a clause against the measure's names and query it."""
    return measure_query(m, parse_clause(text, m.names))


def measure_interaction(m: ExplanationMeasure, mask: int) -> float:
    """Superset importance of a subset: total mass of atoms containing it.

    mask=0 returns the measure's total mass (1 for a proper measure).
    """
    n = 1 << m.var_count
    if not 0 <= mask < n:
        raise ValueError("subset mask out of range")
    return _superset_fsum(m.atom_mass, mask, n - 1)


def measure_interactions(m: ExplanationMeasure) -> list:
    """measure_interaction of every mask, in mask order."""
    atoms = m.atom_mass.tolist()
    full = (1 << m.var_count) - 1
    return [_superset_fsum(atoms, s, full) for s in range(full + 1)]


def _superset_fsum(atoms, mask: int, full: int) -> float:
    """math.fsum of atoms[t] over the supersets t of mask in increasing
    order, the order of a scan of every atom: each bit outside mask, from
    the lowest up, doubles the list with that bit set. fsum is correctly
    rounded, and the same inputs in the same order also overflow alike."""
    supersets = [mask]
    rest = full ^ mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        supersets += [t | bit for t in supersets]
    return math.fsum(map(atoms.__getitem__, supersets))


def totals_from_measure(m: ExplanationMeasure) -> TotalsTable:
    """Reconstruct the totals table: total[S] = mass of atoms meeting S."""
    total = mass_meeting(subset_zeta(m.atom_mass))
    total[0] = 0.0
    return TotalsTable(m.var_count, total)


def measure_marginalize(m: ExplanationMeasure, drop: str) -> ExplanationMeasure:
    """Fold one variable out of the algebra.

    The dropped variable's bit is erased from every atom and masses of
    coinciding atoms add, which is the measure restricted to clauses not
    mentioning that variable. Stderr, if present, combines in quadrature
    (same approximate caveat as measure_from_totals).
    """
    k = m.name_index(drop)
    if m.var_count == 1:
        raise ValueError("cannot marginalize the only variable")
    # each sum starts from 0.0, so two -0.0 atoms fold to 0.0
    lacks, has = _halves(m.atom_mass, k)
    mass = (0.0 + lacks + has).ravel()
    stderr = None
    if m.atom_stderr is not None:
        lacks, has = _halves(m.atom_stderr, k)
        with np.errstate(over="ignore"):  # a stderr past 1e154 read from a file
            stderr = np.sqrt(0.0 + lacks**2 + has**2).ravel()
    names = m.names[:k] + m.names[k + 1 :]
    return ExplanationMeasure(names, mass, stderr, m.provenance)


def clip_negative_atoms(m: ExplanationMeasure) -> ExplanationMeasure:
    """Clip negative atom masses to 0 and renormalize to total mass 1.

    Returns a new measure flagged "clipped-renormalized"; stderr is kept
    as-is (it remains a diagnostic of the unclipped estimate).
    """
    clipped = np.maximum(m.atom_mass, 0.0)
    total = clipped.sum()
    if total <= 0:
        raise ValueError("cannot renormalize: no positive atom mass")
    flags = m.provenance.flags
    if "clipped-renormalized" not in flags:
        flags = flags + ("clipped-renormalized",)
    prov = Provenance(m.provenance.kind, m.provenance.samples, m.provenance.seed, flags)
    return ExplanationMeasure(m.names, clipped / total, m.atom_stderr, prov)


def shapley_from_measure(m: ExplanationMeasure) -> ShapleyValues:
    """Shapley attribution: each atom's mass split equally among its variables.

    phi_k = sum over atoms S containing k of atom_mass[S] / |S|, which
    equals the permutation-average definition with the lower-index value
    function v(S) = mass of atoms inside S.
    """
    v = m.var_count
    n = 1 << v
    sizes = popcount(np.arange(n))
    values = np.zeros(v)
    for k in range(v):
        contains = (np.arange(n) >> k & 1) == 1
        values[k] = float(np.sum(m.atom_mass[contains] / sizes[contains]))
    return ShapleyValues(m.names, values)


def measure_validate(m: ExplanationMeasure, tol: float) -> ValidationReport:
    """Check total mass, atom nonnegativity, and monotonicity of totals.

    Monotonicity is checked for every comparable subset pair via a
    running subset-max, so a violation between non-adjacent subsets is
    caught too. Exact measures must pass with tol = 1e-9; Monte Carlo
    callers pass a tolerance scaled to their standard errors.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    n = 1 << m.var_count
    mass_error = abs(math.fsum(m.atom_mass) - 1.0)

    negative = [
        (subset_label(s, m.names), float(m.atom_mass[s]))
        for s in range(n)
        if m.atom_mass[s] < -tol
    ]

    total = totals_from_measure(m).total
    # best[S] = max of total over subsets of S, with an argmax witness
    best = total.copy()
    witness = np.arange(n)
    for k in range(m.var_count):
        (b0, b1), (w0, w1) = _halves(best, k), _halves(witness, k)
        better = b0 > b1
        b1[better] = b0[better]
        w1[better] = w0[better]
    violations = []
    for s in range(n):
        excess = best[s] - total[s]
        if excess > tol and witness[s] != s:
            violations.append(
                (subset_label(int(witness[s]), m.names), subset_label(s, m.names), float(excess))
            )

    ok = mass_error <= tol and not negative and not violations
    return ValidationReport(ok, tol, mass_error, negative, violations)
