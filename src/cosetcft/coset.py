"""Diagonal coset of su(N) inside su(N)_m1 x su(N)_m2.

Sectors are triples of integrable weights (one per upstairs factor, one at
the combined level) passing the root-lattice selection rule; the cyclic
automorphism acts diagonally and non-trivially on every sector of a
well-behaved spec, and the sector ring lives on the orbits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from . import fusion, modular
from .report import NotFaithful, SelfCheckFailed  # NotFaithful re-exported: raised here
from .weights import (
    DENSE_BUDGET,
    WEIGHT_BUDGET,
    AlgebraSpec,
    Weight,
    color,
    integrable_weights,
    require_budget,
    require_s_matrix_budget,
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
    def name(self) -> str:  # as messages name it
        return f"the coset ({self.n},{self.m1},{self.m2})"

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
    """Orbit of a sector under the diagonal cyclic action: its members in
    power order from the representative, the orbit's smallest sector."""

    members: tuple[CosetSector, ...]

    @property
    def representative(self) -> CosetSector:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def __str__(self):
        return f"[{self.representative}]"


def in_exp(spec: CosetSpec, s: CosetSector) -> bool:
    """The selection rule: num1 + num2 - den lies in the root lattice, i.e.
    color(num1) + color(num2) = color(den) mod n.  The sector's weights
    must be of the spec's factors."""
    _require_factor_specs(spec, s)
    return (color(s.num1) + color(s.num2) - color(s.den)) % spec.n == 0


@lru_cache(maxsize=None)
def _weights_by_color(spec: AlgebraSpec) -> tuple[list[Weight], ...]:
    """The weights of each color, in lexicographic order, listed once."""
    groups: tuple[list[Weight], ...] = tuple([] for _ in range(spec.n))
    for w in integrable_weights(spec):
        groups[color(w)].append(w)
    return groups


def sector_count(spec: CosetSpec) -> int:
    """Number of sectors passing the selection rule, counted from the colors
    of the factor weights without building any sector."""
    n1, n2, nh = ([len(g) for g in _weights_by_color(f)] for f in spec.factor_specs())
    return sum(a * b * nh[(c1 + c2) % spec.n] for c1, a in enumerate(n1) for c2, b in enumerate(n2))


def exp_set(spec: CosetSpec) -> list[CosetSector]:
    """All weight triples passing the selection rule (see ``in_exp``), in
    ``CosetSector.sort_key`` order: the product of three lexicographic
    weight lists.  A count above WEIGHT_BUDGET is refused before any sector
    is built."""
    require_budget(sector_count(spec), WEIGHT_BUDGET, f"the number of sectors of {spec.name}")
    s1, s2, sh = spec.factor_specs()
    downstairs = _weights_by_color(sh)
    return [
        CosetSector(w1, w2, wh)
        for w1, w2 in itertools.product(integrable_weights(s1), integrable_weights(s2))
        for wh in downstairs[(color(w1) + color(w2)) % spec.n]
    ]


def sector_sigma(sector: CosetSector, power: int) -> CosetSector:
    """Diagonal cyclic action on a sector."""
    return CosetSector(
        sigma_apply(power, sector.num1),
        sigma_apply(power, sector.num2),
        sigma_apply(power, sector.den),
    )


def identification_orbits(
    spec: CosetSpec,
) -> tuple[list[SectorOrbit], list[tuple[CosetSector, int]]]:
    """Partition the sector set into orbits of the diagonal cyclic action.

    Returns (orbits, fixed_points); fixed_points lists pairs (sector,
    power) with a nontrivial stabilizing power, in sector order, and the
    action is faithful exactly when there is none.
    Sectors arrive in order, so each orbit is found from its smallest
    member and the orbits come out in order of it.  An orbit of size d is
    fixed exactly by the powers d, 2d, ... below n.
    """
    sectors = exp_set(spec)
    sector_set = set(sectors)
    fixed = []
    seen = set()
    orbits = []
    for s in sectors:
        if s in seen:
            continue
        members = [s]
        image = sector_sigma(s, 1)
        while image != s:
            if image not in sector_set:
                raise SelfCheckFailed("cyclic action left the sector set")
            members.append(image)
            image = sector_sigma(image, 1)
        d = len(members)
        fixed.extend((m, t) for m in members for t in range(d, spec.n, d))
        orbits.append(SectorOrbit(tuple(members)))
        seen.update(members)
    fixed.sort(key=lambda p: (p[0].sort_key(), p[1]))
    return orbits, fixed


def factor_rings(
    spec: CosetSpec,
) -> tuple[fusion.FusionRing, fusion.FusionRing, fusion.FusionRing]:
    return tuple(fusion.fusion_ring(f) for f in spec.factor_specs())


def coset_ring(spec: CosetSpec) -> fusion.BasedRing:
    """Orbit ring with constants summed over the cyclic group:
    C_[A][B]^[C] = sum_t N[i,j -> sigma^t(k)] * N[alpha,beta -> sigma^t(delta)].

    On a faithful spec orbit c is {sigma^t(rep c)}, so this is
    ``fusion.orbit_ring`` over the three factor rings, with every orbit's
    n members as weight-index triples.

    Cost model: before any sector is enumerated, the m^3 orbit products, m
    at least ceil(``sector_count`` / n), are held to DENSE_BUDGET, and each
    factor's S-matrix to its budget; no m^3 array is built.  The basis is
    the orbits, each with the statistical dimension of its representative.
    Refuses with NotFaithful when any sector has a nontrivial stabilizer.
    """
    least = -(-sector_count(spec) // spec.n)
    what = f"the number of orbit products of {spec.name}"
    require_budget(least**3, DENSE_BUDGET, what, at_least=True)
    for f in spec.factor_specs():
        require_s_matrix_budget(f)
    orbits, fixed = identification_orbits(spec)
    if fixed:
        raise NotFaithful(fixed)
    r1, r2, rh = rings = factor_rings(spec)
    members = [
        [(r1.index(s.num1), r2.index(s.num2), rh.index(s.den)) for s in o.members]
        for o in orbits
    ]
    dims = {o: coset_statistical_dimension(spec, o.representative) for o in orbits}
    return fusion.orbit_ring(rings, members, orbits, dims)


def coset_statistical_dimension(spec: CosetSpec, s: CosetSector) -> float:
    """Product of the three constituent quantum dimensions."""
    _require_in_exp(spec, s)
    return modular.product_quantum_dimension((s.num1, s.num2, s.den))


def kw_identity_check(spec: CosetSpec, s: CosetSector) -> float:
    """Residual of the dimension identity b(sector)/b(vacuum) = d_i * d_alpha,
    with b evaluated through the closed form n * a(num1) a(num2) a(den)."""
    _require_in_exp(spec, s)
    s1, s2, sh = spec.factor_specs()
    m1, m2, mh = map(modular.s_matrix, (s1, s2, sh))
    b = spec.n * (
        modular.asymptotic_dimension(m1, s.num1)
        * modular.asymptotic_dimension(m2, s.num2)
        * modular.asymptotic_dimension(mh, s.den)
    )
    b0 = spec.n * (
        modular.asymptotic_dimension(m1, s1.vacuum())
        * modular.asymptotic_dimension(m2, s2.vacuum())
        * modular.asymptotic_dimension(mh, sh.vacuum())
    )
    d_i = modular.quantum_dimension(m1, s.num1) * modular.quantum_dimension(m2, s.num2)
    d_alpha = modular.quantum_dimension(mh, s.den)
    return abs(b / b0 - d_i * d_alpha)


def class_dimension_sums(spec: CosetSpec) -> dict[int, float]:
    """sum of d_alpha^2 over downstairs weights, per congruence color class."""
    sh = AlgebraSpec.su(spec.n, spec.diagonal_level)
    mh = modular.s_matrix(sh)
    sums: dict[int, float] = {c: 0.0 for c in range(spec.n)}
    for w in integrable_weights(sh):
        sums[color(w)] += modular.quantum_dimension(mh, w) ** 2
    return sums


def dgh(spec: CosetSpec) -> float:
    """Square root of the vacuum-class dimension sum: the statistical
    dimension of the coset inclusion."""
    return math.sqrt(class_dimension_sums(spec)[0])


def formula_31_residual(spec: CosetSpec) -> float:
    """Worst residual of d_i * dgh^2 = sum_alpha d_(i,alpha) d_alpha over all
    upstairs sector pairs i."""
    s1, s2, sh = spec.factor_specs()
    m1, m2, mh = map(modular.s_matrix, (s1, s2, sh))
    d2 = dgh(spec) ** 2
    dims = [[modular.quantum_dimension(mh, w) for w in g] for g in _weights_by_color(sh)]
    worst = 0.0
    for w1, w2 in itertools.product(integrable_weights(s1), integrable_weights(s2)):
        d_i = modular.quantum_dimension(m1, w1) * modular.quantum_dimension(m2, w2)
        total = 0.0
        for d_alpha in dims[(color(w1) + color(w2)) % spec.n]:
            total += (d_i * d_alpha) * d_alpha
        worst = max(worst, abs(d_i * d2 - total))
    return worst


def vacuum_orbit_membership(spec: CosetSpec, s: CosetSector) -> bool:
    """True iff the sector is a cyclic image of the vacuum triple; its
    weights must be of the spec's factors."""
    _require_factor_specs(spec, s)
    vac = spec.vacuum_sector()
    return any(sector_sigma(vac, t) == s for t in range(spec.n))


def _require_factor_specs(spec: CosetSpec, s: CosetSector) -> None:
    s1, s2, sh = spec.factor_specs()
    if (s.num1.spec, s.num2.spec, s.den.spec) != (s1, s2, sh):
        raise ValueError(
            f"sectors of {spec.name} are weight triples of {s1.name}, {s2.name} and {sh.name}"
        )


def _require_in_exp(spec: CosetSpec, s: CosetSector) -> None:
    if not in_exp(spec, s):
        raise ValueError(f"sector {s} fails the selection rule")
