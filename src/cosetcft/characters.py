"""Truncated graded characters of integrable su(N) modules, and the
branching functions read from them.

One loop serves both: ``alternant_terms`` lists an affine Weyl alternant's
translation terms, and ``straighten_products`` multiplies a Weyl-invariant
series by them and straightens each product (Racah-Speiser) into
finite-irrep coefficients.  Over the cached denominator series P that gives
a graded character; over a character or a restricted table, branching
functions (Kac-Peterson).  The Freudenthal recursion and
``tensor_characters`` with ``reconstitute`` are the oracles that the tests
and ``verify`` compare them with, exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import TYPE_CHECKING

from .report import Config
from .report import InconclusiveCutoff  # re-exported: raised here

# weyl_dimension is re-exported: perfbench/trace_runner.py traces it here
from .weights import (
    AlgebraSpec,
    Labels,
    Weight,
    add_labels,
    all_roots,
    conformal_weight,
    dominant_rep,
    finite_weight_multiplicities,
    inner_product,
    integrable_weights,
    norm2_shifted,
    positive_roots,
    root_coordinates,
    shifted_v,
    straighten,
    sub_labels,
    v_vector,
    weyl_dimension,
    weyl_orbit,
)

if TYPE_CHECKING:  # coset loads numpy, which no character computation needs
    from .coset import CosetSector, CosetSpec

Poly = dict[Labels, int]


class NegativeResidual(ArithmeticError):
    """A branching coefficient came out negative, or a table is not a
    nonnegative combination of integrable characters (bug or wrong projection)."""


# --- graded characters ------------------------------------------------------

@dataclass(frozen=True)
class WeightTable:
    """A grade-by-grade weight-multiplicity table without module bookkeeping;
    keys live in the weight lattice of su(rank_param)."""

    rank_param: int
    cutoff: int
    slices: tuple[Poly, ...]


@dataclass(frozen=True)
class GradedCharacter(WeightTable):
    """Weight multiplicities of an integrable module, per grade up to cutoff."""

    spec: AlgebraSpec
    top: Weight


MAX_CUTOFF = 40
# cost bound of a diagonal-coset branching (see ``require_alternant_budget``):
# 8.1e8 for su(5) at level 2 and cutoff 9
ALTERNANT_BUDGET = 2**30


@lru_cache(maxsize=None)
def denominator_series(n: int, cutoff: int) -> tuple[tuple[tuple[Labels, int], ...], ...]:
    """Grades 0..cutoff of P = prod_{j>=1} (1 - q^j)^-(n-1) prod_alpha
    (1 - q^j e^alpha)^-1 over the roots alpha of su(n), as (v-coordinates,
    multiplicity) pairs per grade.  P is Weyl-invariant and shared by every
    level and module; a smaller cutoff gives a prefix of the series."""
    zero = (0,) * n
    steps = [v_vector(alpha) for alpha in all_roots(n)] + [zero] * (n - 1)
    series: list[dict[Labels, int]] = [dict() for _ in range(cutoff + 1)]
    series[0][zero] = 1
    # divide in place by each factor (1 - q^j e^step), grade by grade
    for j in range(1, cutoff + 1):
        for step in steps:
            for g in range(j, cutoff + 1):
                dst = series[g]
                for v, mult in series[g - j].items():
                    key = tuple(map(add, v, step))
                    dst[key] = dst.get(key, 0) + mult
    return tuple(tuple(sl.items()) for sl in series)


def _box_radius(lam: Labels, n: int, h: int, cutoff: int) -> int:
    """Bound r on the v-coordinates of the root-lattice vectors beta whose
    alternant term (see ``alternant_terms``) has grade at most cutoff: such a
    grade needs |beta| <= (|t| + sqrt(|t|^2 + 2*h*cutoff)) / h, and
    |beta_i| < |beta|.  Checks the cutoff first."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} beyond configured bound {MAX_CUTOFF}")
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
    if cost > ALTERNANT_BUDGET:
        raise ValueError(
            f"an su({n}) alternant at cutoff {cutoff} is over the budget of "
            f"{ALTERNANT_BUDGET} box points times series entries"
        )


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


def straighten_products(series, terms, cutoff: int) -> list[dict[Labels, int]]:
    """Finite-irrep coefficients, per grade up to cutoff, of a Weyl-invariant
    series S times the sum of q^grade A(u) over terms: A(u) S_d is the sum of
    S_d(nu) A(u + nu), at grade grade + d, and ``straighten`` makes each
    A(u + nu) zero or a signed A(mu + rho).  ``series`` holds one sequence
    of (v-coordinates, multiplicity) pairs per grade."""
    irreps: list[dict[Labels, int]] = [dict() for _ in range(cutoff + 1)]
    for grade, u in terms:
        for g, sl in enumerate(series[: cutoff + 1 - grade], start=grade):
            dst = irreps[g]
            for nu, mult in sl:
                hit = straighten(tuple(map(add, u, nu)))
                if hit is not None:
                    sign, mu = hit
                    dst[mu] = dst.get(mu, 0) + sign * mult
    return irreps


@lru_cache(maxsize=None)
def graded_character(spec: AlgebraSpec, w: Weight, cutoff: int) -> GradedCharacter:
    """Production engine: the Weyl-Kac numerator's terms times the
    Weyl-invariant series P, straightened into per-grade irrep
    coefficients, which expand into weight slices."""
    n, k = spec.n, spec.k
    if w.spec != spec:
        raise ValueError("weight bound to a different spec")
    lam = w.labels
    terms = alternant_terms(lam, n, k + n, cutoff)
    irreps = straighten_products(denominator_series(n, cutoff), terms, cutoff)

    # highest weights first (descending v), which fixes each slice's key order
    slices: list[Poly] = []
    for g, coeffs in enumerate(irreps):
        out: Poly = {}
        for mu in sorted(coeffs, key=v_vector, reverse=True):
            coeff = coeffs[mu]
            if coeff < 0:
                raise ArithmeticError(f"negative character multiplicity at grade {g}")
            if coeff:
                for wlab, m in finite_weight_multiplicities(n, mu).items():
                    out[wlab] = out.get(wlab, 0) + coeff * m
        slices.append(out)

    if slices[0] != finite_weight_multiplicities(n, lam):
        raise ArithmeticError("grade-0 slice disagrees with the finite irrep")
    return GradedCharacter(n, cutoff, tuple(slices), spec, w)


@lru_cache(maxsize=None)
def freudenthal_character(spec: AlgebraSpec, w: Weight, cutoff: int) -> GradedCharacter:
    """Oracle engine: Freudenthal recursion on the extended algebra."""
    n, k = spec.n, spec.k
    lam = w.labels
    h = k + n
    top_norm = norm2_shifted(lam, n)
    max_norm = top_norm + 2 * h * cutoff
    label_bound = int((4 * float(max_norm)) ** 0.5) + 2
    roots = all_roots(n)
    pos_roots = positive_roots(n)

    # dominant candidates with the right root-lattice congruence
    candidates = []
    for lab in itertools.product(range(label_bound + 1), repeat=n - 1):
        diff = root_coordinates(sub_labels(lam, lab), n)
        if any(d.denominator != 1 for d in diff):
            continue
        nrm = norm2_shifted(lab, n)
        if nrm <= max_norm:
            candidates.append((lab, nrm))
    candidates.sort(key=lambda p: -p[1])

    dom_mult: dict[tuple[Labels, int], int] = {}

    def lookup(labels: Labels, grade: int) -> int:
        if grade < 0:
            return 0
        return dom_mult.get((dominant_rep(labels), grade), 0)

    for g in range(cutoff + 1):
        bound = top_norm + 2 * h * g
        for mu, nrm in candidates:
            if nrm > bound:
                continue
            if g == 0 and mu == lam:
                dom_mult[(mu, 0)] = 1
                continue
            den = top_norm - nrm + 2 * h * g
            if den <= 0:
                continue
            num = Fraction(0)
            # real roots with grade part m >= 1 (all roots), m = 0 (positive)
            for alpha in pos_roots:
                j = 1
                while True:
                    x = add_labels(mu, tuple(j * a for a in alpha))
                    if norm2_shifted(x, n) > bound:
                        break
                    m = lookup(x, g)
                    if m:
                        num += m * inner_product(x, alpha, n)
                    j += 1
            for mpart in range(1, g + 1):
                for alpha in roots:
                    for j in range(1, g // mpart + 1):
                        x = add_labels(mu, tuple(j * a for a in alpha))
                        m = lookup(x, g - j * mpart)
                        if m:
                            num += m * (inner_product(x, alpha, n) + k * mpart)
                # imaginary roots at grade mpart, multiplicity n - 1
                for j in range(1, g // mpart + 1):
                    m = lookup(mu, g - j * mpart)
                    if m:
                        num += m * k * mpart * (n - 1)
            value = 2 * num / den
            assert value.denominator == 1 and value >= 0
            if value:
                dom_mult[(mu, g)] = int(value)

    slices: list[Poly] = [dict() for _ in range(cutoff + 1)]
    for (mu, g), m in dom_mult.items():
        for lab in weyl_orbit(mu):
            slices[g][lab] = m
    return GradedCharacter(n, cutoff, tuple(slices), spec, w)


# --- products, restriction, peeling ----------------------------------------

def tensor_characters(a: WeightTable, b: WeightTable) -> WeightTable:
    """Convolve two graded tables in weight and grade (same rank)."""
    if a.rank_param != b.rank_param:
        raise ValueError("rank mismatch in tensor product")
    cutoff = min(a.cutoff, b.cutoff)
    slices: list[Poly] = [dict() for _ in range(cutoff + 1)]
    for g1 in range(cutoff + 1):
        s1 = a.slices[g1]
        if not s1:
            continue
        for g2 in range(cutoff + 1 - g1):
            s2 = b.slices[g2]
            if not s2:
                continue
            dst = slices[g1 + g2]
            for w1, m1 in s1.items():
                for w2, m2 in s2.items():
                    key = add_labels(w1, w2)
                    dst[key] = dst.get(key, 0) + m1 * m2
    return WeightTable(a.rank_param, cutoff, tuple(slices))


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
    series = [[(v_vector(lab), m) for lab, m in sl.items()] for sl in table.slices[: depth + 1]]
    irreps = straighten_products(series, terms, depth)
    out = {}
    for wt in integrable_weights(target):
        out[wt] = tuple(sl.get(wt.labels, 0) for sl in irreps)
        if min(out[wt]) < 0:
            raise NegativeResidual(f"negative branching coefficient for {wt}: {out[wt]}")
    return out


def peel_branching(table: WeightTable, target: AlgebraSpec) -> dict[Weight, "BranchingFunction"]:
    """Decompose a restricted table into target graded characters.

    The table times the target's affine denominator (the alternant of rho
    at level 0, shifted level N) is read as in ``diagonal_branching``.  The
    certificate: the coefficients must ``reconstitute`` the table exactly,
    else it is no nonnegative sum of target characters (NegativeResidual).
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
        raise NegativeResidual(
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

    def energy(self) -> Fraction:
        """Lowest coset energy: offset plus the first nonzero grade."""
        if self.is_zero:
            raise InconclusiveCutoff(
                f"branching for {self.sector} vanishes up to grade {self.cutoff}"
            )
        return self.offset + self.n_min

    def multiplicity_at_min(self) -> int:
        if self.is_zero:
            raise InconclusiveCutoff(
                f"branching for {self.sector} vanishes up to grade {self.cutoff}"
            )
        return self.coeffs[self.n_min]


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
    alternants are held to ALTERNANT_BUDGET before any work."""
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
    return bf.energy() == 0 and bf.multiplicity_at_min() == 1


# --- truncated trace ratio ---------------------------------------------------

DEFAULT_BETA_FLOOR = Config.beta_floor


def kw_numeric_ratio(
    b_num: BranchingFunction,
    b_den: BranchingFunction,
    beta: float,
    beta_floor: float = DEFAULT_BETA_FLOOR,
) -> float:
    """Ratio of truncated traces sum(c_n e^{-beta (offset+n)}).

    A truncation estimate only: it approaches the sector dimension from
    below as beta shrinks, and is meaningless below the trust floor.
    """
    if beta < beta_floor:
        raise ValueError(f"beta {beta} below trust floor {beta_floor}")
    if b_num.cutoff != b_den.cutoff:
        raise ValueError("numerator and denominator cutoffs differ")
    num = sum(
        c * math.exp(-beta * (float(b_num.offset) + g))
        for g, c in enumerate(b_num.coeffs)
    )
    den = sum(
        c * math.exp(-beta * (float(b_den.offset) + g))
        for g, c in enumerate(b_den.coeffs)
    )
    return num / den
