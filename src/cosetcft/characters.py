"""Truncated graded characters of integrable su(N) modules, and the
branching-function machinery built on them.

Two independent engines compute weight multiplicities per grade:

* the production engine multiplies the Weyl-Kac numerator's translation
  terms (grade shift at most the cutoff) by the denominator series P, which
  ``denominator_series`` computes once per (N, cutoff), and straightens
  each product term (Racah-Speiser) into a signed finite character;
* a Freudenthal recursion on the extended algebra serves as the oracle.

Both produce exact integer multiplicities; the test suite requires them to
agree entry by entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

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


class InconclusiveCutoff(RuntimeError):
    """Branching vanished up to the cutoff; no energy can be reported."""


class NegativeResidual(ArithmeticError):
    """Peeling drove a multiplicity negative: the table is not a nonnegative
    combination of integrable characters (bug or wrong projection)."""


# --- graded characters ------------------------------------------------------

@dataclass(frozen=True)
class WeightTable:
    """A grade-by-grade weight-multiplicity table without module bookkeeping;
    keys live in the weight lattice of su(rank_param)."""

    rank_param: int
    cutoff: int
    slices: tuple[Poly, ...]

    def dimension_at(self, grade: int) -> int:
        return sum(self.slices[grade].values())


@dataclass(frozen=True)
class GradedCharacter(WeightTable):
    """Weight multiplicities of an integrable module, per grade up to cutoff."""

    spec: AlgebraSpec
    top: Weight

    def weight_mult(self, labels: Labels, grade: int) -> int:
        if grade > self.cutoff:
            raise ValueError(f"grade {grade} beyond cutoff {self.cutoff}")
        return self.slices[grade].get(tuple(labels), 0)


MAX_CUTOFF = 40


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
                    key = tuple(a + b for a, b in zip(v, step))
                    dst[key] = dst.get(key, 0) + mult
    return tuple(tuple(sl.items()) for sl in series)


@lru_cache(maxsize=None)
def graded_character(spec: AlgebraSpec, w: Weight, cutoff: int) -> GradedCharacter:
    """Production engine: the Weyl-Kac numerator is a sum of finite
    alternants A(u); as P is Weyl-invariant, A(u) P = sum_nu P(nu) A(u + nu),
    and ``straighten`` makes each A(u + nu) zero or a signed finite
    character.  The per-grade irrep coefficients expand into weight slices."""
    n, k = spec.n, spec.k
    if w.spec != spec:
        raise ValueError("weight bound to a different spec")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} beyond configured bound {MAX_CUTOFF}")
    lam = w.labels
    h = k + n
    t = shifted_v(lam)

    # rho-shifted numerator terms u = t + h*beta, beta in the root lattice,
    # at grade (lam+rho, beta) + h*(beta,beta)/2
    terms: list[tuple[int, Labels]] = []
    top_norm = float(norm2_shifted(lam, n))
    reach = (top_norm**0.5 + (top_norm + 2 * h * cutoff) ** 0.5) / h
    lam_min = 2 - 2 * math.cos(math.pi / n)  # smallest Cartan eigenvalue
    cbound = int(reach / lam_min**0.5) + 2
    for c in itertools.product(range(-cbound, cbound + 1), repeat=n - 1):
        vb = [0] * n
        prev = 0
        for i, ci in enumerate(c):
            vb[i] = ci - prev
            prev = ci
        vb[n - 1] = -prev
        grade = sum(ta * vba for ta, vba in zip(t, vb))
        grade += h * sum(x * x for x in vb) // 2
        if 0 <= grade <= cutoff:
            terms.append((grade, tuple(ta + h * vba for ta, vba in zip(t, vb))))

    # finite-irrep coefficients per grade: A(u) P_d lands at grade g' + d
    denominator = denominator_series(n, cutoff)
    irreps: list[dict[Labels, int]] = [dict() for _ in range(cutoff + 1)]
    for grade, u in terms:
        for g, sl in enumerate(denominator[: cutoff + 1 - grade], start=grade):
            dst = irreps[g]
            for nu, mult in sl:
                hit = straighten(tuple(a + b for a, b in zip(u, nu)))
                if hit is not None:
                    sign, mu = hit
                    dst[mu] = dst.get(mu, 0) + sign * mult

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


def _shifted_madd(dst: list[Poly], src: tuple[Poly, ...], shift: int, coeff: int) -> None:
    """dst[shift + g] += coeff * src[g] for every grade g that dst holds;
    entries that cancel are dropped."""
    for g, sl in enumerate(src[: len(dst) - shift]):
        out = dst[shift + g]
        for wlab, m in sl.items():
            out[wlab] = out.get(wlab, 0) + coeff * m
            if out[wlab] == 0:
                del out[wlab]


def peel_branching(
    table: WeightTable, target: AlgebraSpec, cutoff: int | None = None
) -> dict[Weight, "BranchingFunction"]:
    """Decompose a restricted table into target graded characters.

    Grade by grade, every dominant weight with positive residual
    multiplicity starts that many copies of the target character at the
    current grade (highest-norm weights first); the subtraction must come
    out exactly nonnegative everywhere and exactly zero on each completed
    grade.  Returns one coefficient sequence per integrable target weight,
    including identically zero ones.
    """
    n, k = target.n, target.k
    if table.rank_param != n:
        raise ValueError("table rank does not match target algebra")
    depth = table.cutoff if cutoff is None else min(cutoff, table.cutoff)
    residual = [dict(sl) for sl in table.slices[: depth + 1]]
    targets = integrable_weights(target)
    coeffs: dict[Weight, list[int]] = {t: [0] * (depth + 1) for t in targets}
    for g in range(depth + 1):
        while True:
            positives = [
                (lab, m)
                for lab, m in residual[g].items()
                if m > 0 and all(x >= 0 for x in lab)
            ]
            if not positives:
                break
            positives.sort(key=lambda p: -norm2_shifted(p[0], n))
            lab, m = positives[0]
            if sum(lab) > k:
                raise NegativeResidual(
                    f"dominant residual {lab} at grade {g} exceeds level {k}"
                )
            wt = Weight(target, lab)
            coeffs[wt][g] += m
            char = graded_character(target, wt, depth)
            _shifted_madd(residual, char.slices, g, -m)
        if residual[g]:
            raise NegativeResidual(
                f"nonzero residual left at grade {g}: {sorted(residual[g].items())[:4]}"
            )
    return {
        t: BranchingFunction(str(t), Fraction(0), tuple(cs))
        for t, cs in coeffs.items()
    }


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
        char = None
        for g, c in enumerate(bf.coeffs[: cutoff + 1]):
            if not c:
                continue
            if char is None:
                char = graded_character(target, wt, cutoff)
            _shifted_madd(slices, char.slices, g, c)
    return WeightTable(n, cutoff, tuple(slices))


# --- diagonal-coset branching ----------------------------------------------

def diagonal_branching(
    spec: CosetSpec, num1: Weight, num2: Weight, cutoff: int
) -> dict[Weight, BranchingFunction]:
    """Branching functions of the pair (num1, num2) over every downstairs
    weight, with offsets h(num1) + h(num2) - h(den)."""
    c1 = graded_character(num1.spec, num1, cutoff)
    c2 = graded_character(num2.spec, num2, cutoff)
    product = tensor_characters(c1, c2)
    down = AlgebraSpec.su(spec.n, spec.diagonal_level)
    peeled = peel_branching(product, down, cutoff)
    h12 = conformal_weight(num1) + conformal_weight(num2)
    out = {}
    for wt, bf in peeled.items():
        out[wt] = BranchingFunction(
            f"({num1},{num2};{wt})", h12 - conformal_weight(wt), bf.coeffs
        )
    return out


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

DEFAULT_BETA_FLOOR = 0.3


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
