"""Diagonal coset of su(N) inside su(N)_m1 x su(N)_m2.

Sectors are triples of integrable weights (one per upstairs factor, one at
the combined level) passing the root-lattice selection rule; the cyclic
automorphism acts diagonally and non-trivially on every sector of a
well-behaved spec, and the sector ring lives on the orbits.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .fusion import BasedRing, FusionRing, SparseTensor, fusion_ring
from .modular import (
    asymptotic_dimension,
    product_quantum_dimension,
    quantum_dimension,
    require_dense_budget,
    s_matrix,
)
from .weights import (
    WEIGHT_BUDGET,
    AlgebraSpec,
    Weight,
    color,
    conjugate_weight,
    integrable_weights,
    sigma_apply,
)


@dataclass(frozen=True)
class CosetSpec:
    """su(n) diagonally embedded at levels (m1, m2); downstairs level m1+m2.

    Never a conformal inclusion: the coset central charge is positive for
    every m1, m2 >= 1, so no member of this family degenerates.
    """

    n: int
    m1: int
    m2: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("both levels must be >= 1")

    @property
    def diagonal_level(self) -> int:
        return self.m1 + self.m2

    def factor_specs(self) -> tuple[AlgebraSpec, AlgebraSpec, AlgebraSpec]:
        return (
            AlgebraSpec.su(self.n, self.m1),
            AlgebraSpec.su(self.n, self.m2),
            AlgebraSpec.su(self.n, self.diagonal_level),
        )

    def vacuum_sector(self) -> "CosetSector":
        s1, s2, sh = self.factor_specs()
        return CosetSector(s1.vacuum(), s2.vacuum(), sh.vacuum())


@dataclass(frozen=True)
class CosetSector:
    """Weight triple (numerator pair, denominator weight)."""

    num1: Weight
    num2: Weight
    den: Weight

    def sort_key(self):
        return (self.num1.labels, self.num2.labels, self.den.labels)

    def __str__(self):
        return f"({self.num1},{self.num2};{self.den})"


@dataclass(frozen=True)
class SectorOrbit:
    """Orbit of a sector under the diagonal cyclic action."""

    members: tuple[CosetSector, ...]

    @property
    def representative(self) -> CosetSector:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def stabilizer_order(self, n: int) -> int:
        return n // self.size

    def __str__(self):
        return f"[{self.representative}]"


class NotFaithful(ValueError):
    """The cyclic action has a fixed sector; the orbit ring is undefined."""

    def __init__(self, fixed_points):
        self.fixed_points = list(fixed_points)
        example = self.fixed_points[0][0] if self.fixed_points else None
        super().__init__(
            f"cyclic action on the sector set is not faithful; fixed sector {example}"
        )


def in_exp(spec: CosetSpec, s: CosetSector) -> bool:
    """The selection rule: num1 + num2 - den lies in the root lattice, i.e.
    color(num1) + color(num2) = color(den) mod n."""
    return (color(s.num1) + color(s.num2) - color(s.den)) % spec.n == 0


def sector_count(spec: CosetSpec) -> int:
    """Number of sectors passing the selection rule, counted from the colors
    of the factor weights without building any sector."""
    n1, n2, nh = (
        Counter(map(color, integrable_weights(f))) for f in spec.factor_specs()
    )
    return sum(
        n1[c1] * n2[c2] * nh[(c1 + c2) % spec.n] for c1 in n1 for c2 in n2
    )


def exp_set(spec: CosetSpec) -> list[CosetSector]:
    """All weight triples passing the selection rule (see ``in_exp``), in
    label order.  A count above WEIGHT_BUDGET is refused before any sector
    is built."""
    count = sector_count(spec)
    if count > WEIGHT_BUDGET:
        raise ValueError(f"{spec} has {count} sectors, over the budget of {WEIGHT_BUDGET}")
    s1, s2, sh = spec.factor_specs()
    out = []
    for w1, w2 in itertools.product(integrable_weights(s1), integrable_weights(s2)):
        c = (color(w1) + color(w2)) % spec.n
        for wh in integrable_weights(sh):
            if color(wh) == c:
                out.append(CosetSector(w1, w2, wh))
    out.sort(key=CosetSector.sort_key)
    return out


def sector_sigma(sector: CosetSector, power: int) -> CosetSector:
    """Diagonal cyclic action on a sector."""
    return CosetSector(
        sigma_apply(power, sector.num1),
        sigma_apply(power, sector.num2),
        sigma_apply(power, sector.den),
    )


def identification_orbits(
    spec: CosetSpec,
) -> tuple[list[SectorOrbit], bool, list[tuple[CosetSector, int]]]:
    """Partition the sector set into orbits of the diagonal cyclic action.

    Returns (orbits, faithful, fixed_points); fixed_points lists pairs
    (sector, power) with a nontrivial stabilizing power.  Orbits are keyed
    and sorted by their lexicographically smallest member.
    """
    sectors = exp_set(spec)
    sector_set = set(sectors)
    fixed = []
    seen = set()
    orbits = []
    for s in sectors:
        if s in seen:
            continue
        images = [sector_sigma(s, t) for t in range(spec.n)]
        if any(img not in sector_set for img in images):
            raise AssertionError("cyclic action left the sector set")
        members = sorted(set(images), key=CosetSector.sort_key)
        for m in members:
            for t in range(1, spec.n):
                if sector_sigma(m, t) == m:
                    fixed.append((m, t))
        orbits.append(SectorOrbit(tuple(members)))
        seen.update(members)
    orbits.sort(key=lambda o: o.representative.sort_key())
    # deduplicate fixed-point records
    fixed = sorted(set(fixed), key=lambda p: (p[0].sort_key(), p[1]))
    return orbits, not fixed, fixed


def factor_rings(spec: CosetSpec) -> tuple[FusionRing, FusionRing, FusionRing]:
    s1, s2, sh = spec.factor_specs()
    return fusion_ring(s1), fusion_ring(s2), fusion_ring(sh)


def coset_ring(spec: CosetSpec) -> BasedRing:
    """Orbit ring with constants summed over the cyclic group:
    C_[A][B]^[C] = sum_t N[i,j -> sigma^t(k)] * N[alpha,beta -> sigma^t(delta)].

    Computed as an index gather, one first index a at a time: with idx_f
    the factor-f basis index of each orbit representative and D_f the dense
    factor tensor, the slab C_[a]..^.. sums over the powers t the product
    over the three factors of D_f[idx_f[a]][np.ix_(idx_f, sigma_t,f[idx_f])].
    Each slab's nonzeros are read in C order and the slabs are joined in
    order of a, so the entries arrive in (a, b, c) order with no sort and
    no per-entry Python work.  Only m x m slabs are held; the m^3
    constants themselves are held to DENSE_BUDGET before any sector is
    enumerated: every orbit of the ``sector_count`` sectors has at most n
    members.

    The basis is the orbits, each with the statistical dimension of its
    representative.  Refuses with NotFaithful when any sector has a
    nontrivial stabilizer.
    """
    least = -(-sector_count(spec) // spec.n)
    require_dense_budget(least**3, f"a coset ring of at least {least} orbits")
    orbits, faithful, fixed = identification_orbits(spec)
    if not faithful:
        raise NotFaithful(fixed)
    reps = [o.representative for o in orbits]
    m = len(reps)
    gathered = []
    for ring, part in zip(factor_rings(spec), ("num1", "num2", "den")):
        idx = np.array([ring.index(getattr(r, part)) for r in reps])
        gathers = [
            np.ix_(idx, np.array(ring.sigma_permutation(t))[idx])
            for t in range(spec.n)
        ]
        gathered.append((ring.dense(), idx, gathers))
    rows: list[tuple[np.ndarray, ...]] = []
    for a in range(m):
        slab = np.zeros((m, m), dtype=np.int64)
        for t in range(spec.n):
            term = np.ones_like(slab)
            for dense, idx, gathers in gathered:
                term *= dense[idx[a]][gathers[t]]
            slab += term
        nonzero = np.nonzero(slab)
        rows.append((*nonzero, slab[nonzero]))
    b, c, v = (np.concatenate(x) for x in zip(*rows))
    a = np.repeat(np.arange(m), [len(row[0]) for row in rows])
    del rows
    constants = SparseTensor((m, m, m), a, b, c, v)
    orbit_of = {s: a for a, orb in enumerate(orbits) for s in orb.members}
    conj = tuple(
        orbit_of[CosetSector(*map(conjugate_weight, (r.num1, r.num2, r.den)))]
        for r in reps
    )
    dims = {o: coset_statistical_dimension(spec, o.representative) for o in orbits}
    return BasedRing(tuple(orbits), constants, conj, dims)


def coset_statistical_dimension(spec: CosetSpec, s: CosetSector) -> float:
    """Product of the three constituent quantum dimensions."""
    _require_in_exp(spec, s)
    return product_quantum_dimension((s.num1, s.num2, s.den))


def kw_identity_check(spec: CosetSpec, s: CosetSector) -> float:
    """Residual of the dimension identity b(sector)/b(vacuum) = d_i * d_alpha,
    with b evaluated through the closed form n * a(num1) a(num2) a(den)."""
    _require_in_exp(spec, s)
    s1, s2, sh = spec.factor_specs()
    m1, m2, mh = s_matrix(s1), s_matrix(s2), s_matrix(sh)
    b = spec.n * (
        asymptotic_dimension(m1, s.num1)
        * asymptotic_dimension(m2, s.num2)
        * asymptotic_dimension(mh, s.den)
    )
    b0 = spec.n * (
        asymptotic_dimension(m1, s1.vacuum())
        * asymptotic_dimension(m2, s2.vacuum())
        * asymptotic_dimension(mh, sh.vacuum())
    )
    d_i = quantum_dimension(m1, s.num1) * quantum_dimension(m2, s.num2)
    d_alpha = quantum_dimension(mh, s.den)
    return abs(b / b0 - d_i * d_alpha)


def class_dimension_sums(spec: CosetSpec) -> dict[int, float]:
    """sum of d_alpha^2 over downstairs weights, per congruence color class."""
    sh = AlgebraSpec.su(spec.n, spec.diagonal_level)
    mh = s_matrix(sh)
    sums: dict[int, float] = {c: 0.0 for c in range(spec.n)}
    for w in integrable_weights(sh):
        sums[color(w)] += quantum_dimension(mh, w) ** 2
    return sums


def dgh(spec: CosetSpec) -> float:
    """Square root of the vacuum-class dimension sum: the statistical
    dimension of the coset inclusion."""
    return math.sqrt(class_dimension_sums(spec)[0])


def formula_31_residual(spec: CosetSpec) -> float:
    """Worst residual of d_i * dgh^2 = sum_alpha d_(i,alpha) d_alpha over all
    upstairs sector pairs i."""
    s1, s2, sh = spec.factor_specs()
    m1, m2, mh = s_matrix(s1), s_matrix(s2), s_matrix(sh)
    d2 = dgh(spec) ** 2
    worst = 0.0
    for w1 in integrable_weights(s1):
        for w2 in integrable_weights(s2):
            d_i = quantum_dimension(m1, w1) * quantum_dimension(m2, w2)
            c = (color(w1) + color(w2)) % spec.n
            total = 0.0
            for wh in integrable_weights(sh):
                if color(wh) == c:
                    d_alpha = quantum_dimension(mh, wh)
                    total += (d_i * d_alpha) * d_alpha
            worst = max(worst, abs(d_i * d2 - total))
    return worst


def vacuum_orbit_membership(spec: CosetSpec, s: CosetSector) -> bool:
    """True iff the sector is a cyclic image of the vacuum triple."""
    vac = spec.vacuum_sector()
    return any(sector_sigma(vac, t) == s for t in range(spec.n))


def _require_in_exp(spec: CosetSpec, s: CosetSector) -> None:
    if not in_exp(spec, s):
        raise ValueError(f"sector {s} fails the selection rule")
