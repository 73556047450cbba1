"""Truncated graded characters of integrable su(N) modules, and the
branching functions read from them.

One loop serves both: ``alternant_terms`` lists an affine Weyl alternant's
translation terms, and ``straighten_products`` multiplies a Weyl-invariant
series, held as weight runs, by them and straightens each product
(Racah-Speiser) into finite-irrep coefficients.  Over the denominator series
P, cached as runs, that gives a graded character; over a character or a
restricted table, branching functions (Kac-Peterson).  The Freudenthal
recursion and ``tensor_characters`` with ``reconstitute`` are the oracles
that the tests and ``verify`` compare them with, exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import TYPE_CHECKING

from .report import Config, SelfCheckFailed
from .report import InconclusiveCutoff  # re-exported: raised here

# weyl_dimension is re-exported: perfbench/trace_runner.py traces it here
from .weights import (
    AlgebraSpec,
    Labels,
    Weight,
    all_roots,
    conformal_weight,
    finite_weight_multiplicities,
    integrable_weights,
    norm2_shifted,
    require_budget,
    shifted_v,
    straighten,
    v_vector,
    weyl_dimension,
    weyl_orbit,
)

if TYPE_CHECKING:  # type-only: `branch --maverick` runs no coset
    from .coset import CosetSector, CosetSpec

Poly = dict[Labels, int]


# --- graded characters ------------------------------------------------------

@dataclass(frozen=True)
class WeightTable:
    """Weight multiplicities per grade up to cutoff, of a module's character
    or of a product or restriction of characters; keys live in the weight
    lattice of su(rank_param)."""

    rank_param: int
    cutoff: int
    slices: tuple[Poly, ...]


MAX_CUTOFF = 40
# cost bound of a diagonal-coset branching (see ``require_alternant_budget``):
# 8.1e8 for su(5) at level 2 and cutoff 9
ALTERNANT_BUDGET = 2**30


@dataclass(frozen=True)
class Packing:
    """Integer vectors of a fixed length whose entries lie in [-radius,
    radius], each held as one int: the entries plus radius are its digits in
    base 2 * radius + 1, the first most significant.  Adding ``shift(step)``
    to a key adds step to its vector, so long as every entry stays in range."""

    length: int
    radius: int

    def encode(self, v) -> int:
        base, key = 2 * self.radius + 1, 0
        for x in v:
            key = key * base + x + self.radius
        return key

    def shift(self, step) -> int:
        """The key difference that adds step."""
        return self.encode(step) - self.encode((0,) * self.length)

    def decode(self, key: int) -> tuple[int, ...]:
        base, out = 2 * self.radius + 1, []
        for _ in range(self.length):
            key, digit = divmod(key, base)
            out.append(digit - self.radius)
        return tuple(reversed(out))


@lru_cache(maxsize=None)
def denominator_series(n: int, cutoff: int) -> dict[Labels, tuple[int, ...]]:
    """Grades 0..cutoff of P = prod_{j>=1} (1 - q^j)^-(n-1) prod_alpha
    (1 - q^j e^alpha)^-1 over the roots alpha of su(n), as weight runs: each
    weight's v-coordinates map to its flat run (d, P_d, d', P_d', ...) of
    increasing grade, the weights in order of first appearance, grade 0
    first.  P is Weyl-invariant and shared by every level and module; a
    smaller cutoff's runs are these cut at its grade.

    The entries are keyed by one packed integer while the series is divided
    out: an entry of grade g is a sum of at most g roots, whose v-coordinates
    lie in [-1, 2], so its own lie in [-2 cutoff, 2 cutoff]."""
    zero = (0,) * n
    pack = Packing(n, 2 * cutoff)
    steps = [pack.shift(v_vector(alpha)) for alpha in all_roots(n)] + [0] * (n - 1)
    series: list[dict[int, int]] = [dict() for _ in range(cutoff + 1)]
    series[0][pack.encode(zero)] = 1
    # divide in place by each factor (1 - q^j e^step), grade by grade
    for j in range(1, cutoff + 1):
        for step in steps:
            for g in range(j, cutoff + 1):
                dst = series[g]
                get = dst.get
                for key, mult in series[g - j].items():
                    key += step
                    dst[key] = get(key, 0) + mult
    # each grade's packed dict is dropped once its entries join the runs
    runs: dict[int, tuple[int, ...]] = {}
    get = runs.get
    for d in range(cutoff + 1):
        for key, mult in series.pop(0).items():
            runs[key] = get(key, ()) + (d, mult)
    return {pack.decode(key): run for key, run in runs.items()}


def _require_cutoff(cutoff: int) -> None:
    """Refuse (ValueError) a cutoff outside [0, MAX_CUTOFF]."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    require_budget(cutoff, MAX_CUTOFF, "the cutoff")


def _box_radius(lam: Labels, n: int, h: int, cutoff: int) -> int:
    """Bound r on the v-coordinates of the root-lattice vectors beta whose
    alternant term (see ``alternant_terms``) has grade at most cutoff: such a
    grade needs |beta| <= (|t| + sqrt(|t|^2 + 2*h*cutoff)) / h, and
    |beta_i| < |beta|.  Checks the cutoff first."""
    _require_cutoff(cutoff)
    top_norm = float(norm2_shifted(lam, n))
    return int((top_norm**0.5 + (top_norm + 2 * h * cutoff) ** 0.5) / h)


def require_alternant_budget(lam: Labels, n: int, h: int, cutoff: int) -> None:
    """Refuse (ValueError) an alternant whose term box of (2r + 1)^(n-1)
    points, r from ``_box_radius``, times a bound on the entries of P up to
    the cutoff, (cutoff + 1) * (2*cutoff + 1)^(n-1) (its v-coordinates lie
    in [-cutoff, cutoff]), exceeds ALTERNANT_BUDGET.  This models the
    straighten loop of a graded character, one product per term and entry
    of P; it overstates P's entries most at high rank."""
    r = _box_radius(lam, n, h, cutoff)
    cost = (2 * r + 1) ** (n - 1) * (cutoff + 1) * (2 * cutoff + 1) ** (n - 1)
    what = f"the su({n}) alternant's box points times series entries at cutoff {cutoff}"
    require_budget(cost, ALTERNANT_BUDGET, what)


def alternant_terms(lam: Labels, n: int, h: int, cutoff: int) -> list[tuple[int, Labels]]:
    """Translation terms of the affine Weyl alternant of lam + rho at shifted
    level h, as (grade, u) pairs with grade at most cutoff: the alternant is
    the sum of q^grade A(u) over them, A the finite alternant.  Here
    u = t + h*beta in v-coordinates, t = shifted_v(lam), beta runs over the
    root lattice, and the grade is (lam+rho, beta) + h*(beta,beta)/2."""
    t = shifted_v(lam)
    r = _box_radius(lam, n, h, cutoff)
    terms: list[tuple[int, Labels]] = []
    for head in itertools.product(range(-r, r + 1), repeat=n - 1):
        vb = (*head, -sum(head))
        grade = sum(a * b for a, b in zip(t, vb)) + h * sum(x * x for x in vb) // 2
        if 0 <= grade <= cutoff:
            terms.append((grade, tuple(a + h * b for a, b in zip(t, vb))))
    return terms


def straighten_products(runs, terms, cutoff: int) -> list[dict[Labels, int]]:
    """Finite-irrep coefficients, per grade up to cutoff, of a Weyl-invariant
    series S times the sum of q^grade A(u) over terms: A(u) S_d is the sum of
    S_d(nu) A(u + nu), at grade grade + d, and ``straighten`` makes each
    A(u + nu) zero or a signed A(mu + rho).  ``runs`` maps each weight nu of
    S, in v-coordinates, to its flat run (d, S_d(nu), d', ...) of increasing
    grade, as ``denominator_series`` gives P, so each u + nu is straightened
    once per term, not once per grade; grades past the cutoff are skipped."""
    irreps: list[dict[Labels, int]] = [dict() for _ in range(cutoff + 1)]
    for grade, u in terms:
        room = cutoff - grade
        for nu, run in runs.items():
            if run[0] > room:
                continue
            hit = straighten(tuple(map(add, u, nu)))
            if hit is None:
                continue
            sign, mu = hit
            steps = iter(run)
            for d, mult in zip(steps, steps):
                if d > room:
                    break
                dst = irreps[grade + d]
                dst[mu] = dst.get(mu, 0) + sign * mult
    return irreps


@lru_cache(maxsize=None)
def graded_character(spec: AlgebraSpec, w: Weight, cutoff: int) -> WeightTable:
    """Production engine: the Weyl-Kac numerator's terms times the
    Weyl-invariant series P, straightened into per-grade irrep
    coefficients, which expand into weight slices.  The alternant is held
    to ALTERNANT_BUDGET before any term or P is built."""
    n, k = spec.n, spec.k
    if w.spec != spec:
        raise ValueError("weight bound to a different spec")
    lam = w.labels
    require_alternant_budget(lam, n, k + n, cutoff)
    terms = alternant_terms(lam, n, k + n, cutoff)
    irreps = straighten_products(denominator_series(n, cutoff), terms, cutoff)

    # highest weights first (descending v), which fixes each slice's key order
    slices: list[Poly] = []
    for g, coeffs in enumerate(irreps):
        out: Poly = {}
        for mu in sorted(coeffs, key=v_vector, reverse=True):
            coeff = coeffs[mu]
            if coeff < 0:
                raise SelfCheckFailed(f"negative character multiplicity at grade {g}")
            if coeff:
                for wlab, m in finite_weight_multiplicities(mu).items():
                    out[wlab] = out.get(wlab, 0) + coeff * m
        slices.append(out)

    if slices[0] != finite_weight_multiplicities(lam):
        raise SelfCheckFailed("grade-0 slice disagrees with the finite irrep")
    return WeightTable(n, cutoff, tuple(slices))


def freudenthal_character(spec: AlgebraSpec, w: Weight, cutoff: int) -> WeightTable:
    """Oracle engine: Freudenthal recursion on the extended algebra, in
    integers.  A weight x is held by its v-coordinates, its pairing with the
    root e_a - e_b is x_a - x_b, and squared lengths are scaled by n:
    n |x + rho|^2 = n sum(t^2) - sum(t)^2 with t = x + rho."""
    _require_cutoff(cutoff)
    n, k = spec.n, spec.k
    if w.spec != spec:
        raise ValueError("weight bound to a different spec")
    lam = w.labels
    h = k + n
    rho = range(n - 1, -1, -1)

    def norm(v) -> int:
        t = list(map(add, v, rho))
        return n * sum(x * x for x in t) - sum(t) ** 2

    top = norm(v_vector(lam))
    max_norm = top + 2 * h * cutoff * n
    label_bound = math.isqrt(4 * max_norm // n) + 2
    pos_roots = [(a, b) for a in range(n) for b in range(a + 1, n)]
    roots = pos_roots + [(b, a) for a, b in pos_roots]

    # dominant candidates in lam's class mod the root lattice, whose
    # sum(i * label_i) is lam's mod n
    color = sum(i * x for i, x in enumerate(lam, start=1)) % n
    candidates = []
    for lab in itertools.product(range(label_bound + 1), repeat=n - 1):
        if sum(i * x for i, x in enumerate(lab, start=1)) % n != color:
            continue
        v = v_vector(lab)
        nrm = norm(v)
        if nrm <= max_norm:
            candidates.append((lab, v, nrm))
    candidates.sort(key=lambda c: -c[2])

    dom_mult: dict[tuple[Labels, int], int] = {}

    def lookup(x, grade: int) -> int:
        """Multiplicity at grade of the weight with v-coordinates x."""
        s = sorted(x, reverse=True)
        return dom_mult.get((tuple(map(sub, s[:-1], s[1:])), grade), 0)

    for g in range(cutoff + 1):
        bound = top + 2 * h * g * n
        for mu, v, nrm in candidates:
            if nrm > bound:
                continue
            if g == 0 and mu == lam:
                dom_mult[(mu, 0)] = 1
                continue
            den = bound - nrm
            if den <= 0:
                continue
            num = 0
            # real roots with grade part m >= 1 (all roots), m = 0 (positive);
            # (mu + j alpha, alpha) = d + 2j, and n |mu + j alpha + rho|^2
            # = nrm + 2n (j (mu + rho, alpha) + j^2)
            for a, b in pos_roots:
                d = v[a] - v[b]
                x = list(v)
                j = 1
                while nrm + 2 * n * (j * (d + b - a) + j * j) <= bound:
                    x[a] += 1
                    x[b] -= 1
                    m = lookup(x, g)
                    if m:
                        num += m * (d + 2 * j)
                    j += 1
            for mpart in range(1, g + 1):
                for a, b in roots:
                    d = v[a] - v[b]
                    x = list(v)
                    for j in range(1, g // mpart + 1):
                        x[a] += 1
                        x[b] -= 1
                        m = lookup(x, g - j * mpart)
                        if m:
                            num += m * (d + 2 * j + k * mpart)
                # imaginary roots at grade mpart, multiplicity n - 1
                for j in range(1, g // mpart + 1):
                    m = dom_mult.get((mu, g - j * mpart), 0)
                    if m:
                        num += m * k * mpart * (n - 1)
            value, rest = divmod(2 * n * num, den)
            if rest or value < 0:
                raise SelfCheckFailed(f"Freudenthal multiplicity {2 * n * num}/{den} of {mu}")
            if value:
                dom_mult[(mu, g)] = value

    slices: list[Poly] = [dict() for _ in range(cutoff + 1)]
    for (mu, g), m in dom_mult.items():
        for lab in weyl_orbit(mu):
            slices[g][lab] = m
    return WeightTable(n, cutoff, tuple(slices))


# --- products, restriction, peeling ----------------------------------------

def tensor_characters(a: WeightTable, b: WeightTable) -> WeightTable:
    """Convolve two graded tables in weight and grade (same rank), with
    each weight packed into one integer (``Packing``) while they are summed."""
    if a.rank_param != b.rank_param:
        raise ValueError("rank mismatch in tensor product")
    cutoff = min(a.cutoff, b.cutoff)
    tables = (a.slices[: cutoff + 1], b.slices[: cutoff + 1])
    radius = sum(
        max((abs(x) for sl in t for wlab in sl for x in wlab), default=0) for t in tables
    )
    pack = Packing(a.rank_param - 1, radius)
    packed_a, packed_b = (
        [[(code(wlab), m) for wlab, m in sl.items()] for sl in t]
        for code, t in zip((pack.encode, pack.shift), tables)
    )
    slices: list[dict[int, int]] = [dict() for _ in range(cutoff + 1)]
    for g1, s1 in enumerate(packed_a):
        if not s1:
            continue
        for g2 in range(cutoff + 1 - g1):
            s2 = packed_b[g2]
            if not s2:
                continue
            dst = slices[g1 + g2]
            get = dst.get
            for w1, m1 in s1:
                for w2, m2 in s2:
                    key = w1 + w2
                    dst[key] = get(key, 0) + m1 * m2
    return WeightTable(
        a.rank_param,
        cutoff,
        tuple({pack.decode(key): m for key, m in sl.items()} for sl in slices),
    )


def restrict_character(table: WeightTable, projection) -> WeightTable:
    """Push a table forward along a linear weight map, grade by grade.

    ``projection`` is a matrix given as rows over source label coordinates;
    the number of rows fixes the target rank.
    """
    rows = tuple(tuple(r) for r in projection)
    if any(len(r) != table.rank_param - 1 for r in rows):
        raise ValueError("projection row length must match source rank")
    slices: list[Poly] = []
    for sl in table.slices:
        out: Poly = {}
        for wlab, m in sl.items():
            key = tuple(sum(r[j] * wlab[j] for j in range(len(wlab))) for r in rows)
            out[key] = out.get(key, 0) + m
        slices.append(out)
    return WeightTable(len(rows) + 1, table.cutoff, tuple(slices))


def _read_branching(table: WeightTable, terms, target: AlgebraSpec, depth: int):
    """Per integrable target weight mu, the coefficients of A(mu + rho) in
    the table times the alternant of terms, grade by grade up to depth.
    Where that product is a sum of b_mu times target alternants
    (Kac-Peterson), only the identity term of each lies in the open alcove,
    so the coefficient of A(mu + rho) is b_mu exactly."""
    runs: dict[Labels, list[int]] = {}
    for d, sl in enumerate(table.slices[: depth + 1]):
        for lab, m in sl.items():
            runs.setdefault(lab, []).extend((d, m))
    irreps = straighten_products({v_vector(lab): run for lab, run in runs.items()}, terms, depth)
    out = {}
    for wt in integrable_weights(target):
        out[wt] = tuple(sl.get(wt.labels, 0) for sl in irreps)
        if min(out[wt]) < 0:
            raise SelfCheckFailed(f"negative branching coefficient for {wt}: {out[wt]}")
    return out


def peel_branching(table: WeightTable, target: AlgebraSpec) -> dict[Weight, "BranchingFunction"]:
    """Decompose a restricted table into target graded characters.

    The table times the target's affine denominator (the alternant of rho
    at level 0, shifted level N) is read as in ``diagonal_branching``.  The
    certificate: the coefficients must ``reconstitute`` the table exactly,
    else it is no nonnegative sum of target characters (SelfCheckFailed).
    Returns one coefficient sequence per integrable target weight,
    including identically zero ones.
    """
    n = target.n
    if table.rank_param != n:
        raise ValueError("table rank does not match target algebra")
    depth = table.cutoff
    terms = alternant_terms((0,) * (n - 1), n, n, depth)
    read = _read_branching(table, terms, target, depth)
    out = {t: BranchingFunction(str(t), Fraction(0), cs) for t, cs in read.items()}
    if reconstitute(out, target, depth).slices != table.slices[: depth + 1]:
        raise SelfCheckFailed(
            f"table is not a sum of {target} characters up to grade {depth}"
        )
    return out


@dataclass(frozen=True)
class BranchingFunction:
    """Coefficient sequence of a coset multiplicity space, with the exact
    rational energy offset of its grade-0 line."""

    sector: str
    offset: Fraction
    coeffs: tuple[int, ...]

    @property
    def cutoff(self) -> int:
        return len(self.coeffs) - 1

    @property
    def n_min(self) -> int | None:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    @property
    def is_zero(self) -> bool:
        return self.n_min is None

    def _first_grade(self) -> int:
        """n_min; InconclusiveCutoff where every coefficient is zero."""
        if self.is_zero:
            raise InconclusiveCutoff(
                f"branching for {self.sector} vanishes up to grade {self.cutoff}"
            )
        return self.n_min

    def energy(self) -> Fraction:
        """Lowest coset energy: offset plus the first nonzero grade."""
        return self.offset + self._first_grade()

    def multiplicity_at_min(self) -> int:
        return self.coeffs[self._first_grade()]

    def is_vacuum_like(self) -> bool:
        """Lowest energy 0 with multiplicity 1, the test by which a sector
        joins the vacuum; InconclusiveCutoff where every coefficient is zero."""
        return self.energy() == 0 and self.multiplicity_at_min() == 1

    def trace(self, beta: float) -> float:
        """Truncated trace sum(c_g e^{-beta (offset + g)}) up to the cutoff."""
        return sum(
            c * math.exp(-beta * (float(self.offset) + g)) for g, c in enumerate(self.coeffs)
        )


def reconstitute(
    branchings: dict[Weight, BranchingFunction], target: AlgebraSpec, cutoff: int
) -> WeightTable:
    """Sum of branching coefficients times target characters; inverse of
    peel_branching up to the cutoff."""
    n = target.n
    slices: list[Poly] = [dict() for _ in range(cutoff + 1)]
    for wt, bf in branchings.items():
        coeffs = bf.coeffs[: cutoff + 1]
        char = graded_character(target, wt, cutoff) if any(coeffs) else None
        for shift, c in enumerate(coeffs):
            if not c:
                continue
            for sl, out in zip(char.slices, slices[shift:]):
                for wlab, m in sl.items():
                    out[wlab] = out.get(wlab, 0) + c * m
                    if out[wlab] == 0:
                        del out[wlab]
    return WeightTable(n, cutoff, tuple(slices))


# --- diagonal-coset branching ----------------------------------------------

def diagonal_branching(
    spec: CosetSpec, num1: Weight, num2: Weight, cutoff: int
) -> dict[Weight, BranchingFunction]:
    """Branching functions of the pair (num1, num2) over every downstairs
    weight, with offsets h(num1) + h(num2) - h(den): ch(num1) times the
    numerator of num2 is the sum of b_den times the downstairs numerators
    (Kac-Peterson), read as in ``_read_branching``.  Both numerators'
    alternants are held to ALTERNANT_BUDGET before any work.  The
    numerators must be weights of the coset's first two factors."""
    s1, s2, _ = spec.factor_specs()
    if (num1.spec, num2.spec) != (s1, s2):
        raise ValueError(f"numerators of {spec.name} are weights of {s1.name} and {s2.name}")
    n = spec.n
    for w in (num1, num2):
        require_alternant_budget(w.labels, n, w.spec.k + n, cutoff)
    terms = alternant_terms(num2.labels, n, num2.spec.k + n, cutoff)
    c1 = graded_character(num1.spec, num1, cutoff)
    down = AlgebraSpec.su(n, spec.diagonal_level)
    read = _read_branching(c1, terms, down, cutoff)
    h12 = conformal_weight(num1) + conformal_weight(num2)
    return {
        wt: BranchingFunction(f"({num1},{num2};{wt})", h12 - conformal_weight(wt), cs)
        for wt, cs in read.items()
    }


def sector_branching(spec: CosetSpec, sector: CosetSector, cutoff: int) -> BranchingFunction:
    """The sector's branching function; its denominator must be a weight of
    the coset's third factor (``diagonal_branching`` checks the numerators)."""
    down = spec.factor_specs()[2]
    if sector.den.spec != down:
        raise ValueError(f"denominators of {spec.name} are weights of {down.name}")
    return diagonal_branching(spec, sector.num1, sector.num2, cutoff)[sector.den]


def coset_energy_offset(bf: BranchingFunction) -> Fraction:
    """Lowest eigenvalue of the coset energy operator for the sector."""
    return bf.energy()


def vacuum_membership(spec: CosetSpec, sector: CosetSector, cutoff: int) -> bool:
    """True iff the sector's branching attains energy 0 with multiplicity 1."""
    bf = sector_branching(spec, sector, cutoff)
    if bf.is_zero:
        raise InconclusiveCutoff(
            f"sector {sector} has zero branching up to grade {cutoff}"
        )
    return bf.is_vacuum_like()


# --- truncated trace ratio ---------------------------------------------------

DEFAULT_BETA_FLOOR = Config.beta_floor


def kw_numeric_ratio(
    b_num: BranchingFunction,
    b_den: BranchingFunction,
    beta: float,
    beta_floor: float = DEFAULT_BETA_FLOOR,
) -> float:
    """Ratio of the truncated traces (``BranchingFunction.trace``); a
    denominator that vanishes up to its cutoff raises InconclusiveCutoff.

    A truncation estimate only: it approaches the sector dimension from
    below as beta shrinks, and is meaningless below the trust floor.
    """
    if beta < beta_floor:
        raise ValueError(f"beta {beta} below trust floor {beta_floor}")
    if b_num.cutoff != b_den.cutoff:
        raise ValueError("numerator and denominator cutoffs differ")
    b_den._first_grade()  # a zero denominator is inconclusive at this cutoff
    return b_num.trace(beta) / b_den.trace(beta)
