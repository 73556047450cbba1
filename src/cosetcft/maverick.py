"""The six-sector ring of the level-8 su(2) inside level-2 su(3) coset.

This coset identifies more sectors than the cyclic-current rule accounts
for, so its ring is generated here by closing the quoted relations
(x*x = 1 + x, z**3 = 1, y = x*z, with y*ybar = 1 + x as an independent
consistency constraint) rather than by the orbit construction.  The
branching check then corroborates the extra identification numerically:
three distinct sector labels all reach coset energy zero with
multiplicity one, while only two of them are cyclic images of the vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .characters import (
    BranchingFunction,
    graded_character,
    peel_branching,
    restrict_character,
)
from .weights import AlgebraSpec, Weight, conformal_weight

if TYPE_CHECKING:  # fusion loads numpy; only the ring needs it, not branching
    from .fusion import BasedRing

GOLDEN = (math.sqrt(5) + 1) / 2

# index-4 embedding of su(2) in su(3): weight labels (a, b) -> 2a + 2b,
# pinned by the defining triplet restricting to the spin-1 triplet
INDEX4_PROJECTION = ((2, 2),)

SU3_LEVEL2 = AlgebraSpec.su(3, 2)
SU2_LEVEL8 = AlgebraSpec.su(2, 8)

BASIS_NAMES = ("1", "x", "y", "ybar", "z", "zbar")
_WORDS = {"1": (0, 0), "x": (1, 0), "y": (1, 1), "ybar": (1, 2), "z": (0, 1), "zbar": (0, 2)}
_CONJUGATE = {"1": "1", "x": "x", "y": "ybar", "ybar": "y", "z": "zbar", "zbar": "z"}


class InconsistentRelations(ArithmeticError):
    """The relation set failed to close into a consistent 6-element ring."""


def _reduce(word: tuple[int, int]) -> dict[tuple[int, int], int]:
    """Rewrite x^a z^b into the 6-word basis using x^2 -> 1 + x, z^3 -> 1."""
    pending = {(word[0], word[1] % 3): 1}
    done: dict[tuple[int, int], int] = {}
    while pending:
        (a, b), c = pending.popitem()
        if a <= 1:
            done[(a, b)] = done.get((a, b), 0) + c
            continue
        for wa in ((a - 2, b), (a - 1, b)):
            pending[wa] = pending.get(wa, 0) + c
    return done


def build_maverick_ring() -> BasedRing:
    """Close the generator relations into structure constants and verify
    every independently quoted property of the result."""
    from .fusion import BasedRing, SparseTensor

    # close the span of words in the generators x and z under multiplication
    basis = {(0, 0), (1, 0), (0, 1)}
    frontier = list(basis)
    while frontier:
        w1 = frontier.pop()
        for w2 in list(basis):
            for w in _reduce((w1[0] + w2[0], w1[1] + w2[1])):
                if w not in basis:
                    if len(basis) >= 6:
                        raise InconsistentRelations(
                            f"closure produced an extra basis word {w}"
                        )
                    basis.add(w)
                    frontier.append(w)
    if basis != set(_WORDS.values()):
        raise InconsistentRelations(f"closure basis {sorted(basis)} unexpected")

    idx = {name: i for i, name in enumerate(BASIS_NAMES)}
    word_to_idx = {w: idx[name] for name, w in _WORDS.items()}
    table: dict[tuple[int, int], dict[int, int]] = {}
    for n1, w1 in _WORDS.items():
        for n2, w2 in _WORDS.items():
            prod = _reduce((w1[0] + w2[0], w1[1] + w2[1]))
            table[(idx[n1], idx[n2])] = {
                word_to_idx[w]: c for w, c in prod.items()
            }

    conj = tuple(idx[_CONJUGATE[name]] for name in BASIS_NAMES)
    dims = dict(zip(BASIS_NAMES, (1.0, GOLDEN, GOLDEN, GOLDEN, 1.0, 1.0)))
    constants = SparseTensor.from_table(table, len(BASIS_NAMES))
    ring = BasedRing(BASIS_NAMES, constants, conj, dims)
    _verify(ring)
    return ring


def _verify(ring: BasedRing) -> None:
    from .fusion import dimension_homomorphism_residual

    expect = {
        ("x", "x"): {"1": 1, "x": 1},
        ("y", "ybar"): {"1": 1, "x": 1},  # quoted independently of y = x z
        ("x", "z"): {"y": 1},
        ("z", "zbar"): {"1": 1},
    }
    for (a, b), want in expect.items():
        got = {
            ring.basis[k]: c
            for k, c in ring.table[(ring.index(a), ring.index(b))].items()
        }
        if got != want:
            raise InconsistentRelations(f"{a}*{b} = {got}, expected {want}")
    # z has order three
    zz = ring.table[(ring.index("z"), ring.index("z"))]
    if zz != {ring.index("zbar"): 1}:
        raise InconsistentRelations("z*z is not zbar")
    # conjugation pairing via the unit channel
    conj = ring.conj
    m = len(ring.basis)
    for i in range(m):
        for j in range(m):
            unit_coeff = ring.table[(i, j)].get(0, 0)
            if unit_coeff != (1 if conj[i] == j else 0):
                raise InconsistentRelations("unit channel disagrees with conjugation")
    residual = dimension_homomorphism_residual(ring)
    if residual > 1e-6:
        raise InconsistentRelations(f"dimensions fail by {residual:.3e}")


def maverick_dims() -> dict[str, float]:
    return dict(build_maverick_ring().dims)


def _su3_weight(pq: tuple[int, int]) -> Weight:
    return Weight(SU3_LEVEL2, tuple(pq))


def maverick_branching(pq: tuple[int, int], cutoff: int) -> dict[int, BranchingFunction]:
    """Branching of one level-2 su(3) module through the index-4 embedding,
    keyed by the level-8 su(2) label, with exact energy offsets."""
    char = graded_character(SU3_LEVEL2, _su3_weight(pq), cutoff)
    restricted = restrict_character(char, INDEX4_PROJECTION)
    peeled = peel_branching(restricted, SU2_LEVEL8, cutoff)
    h_up = conformal_weight(_su3_weight(pq))
    out = {}
    for wt, bf in peeled.items():
        (l,) = wt.labels
        out[l] = BranchingFunction(
            f"({pq[0]}{pq[1]},{l})", h_up - conformal_weight(wt), bf.coeffs
        )
    return out


@dataclass(frozen=True)
class MaverickBranchingReport:
    cutoff: int
    energies: dict[tuple[tuple[int, int], int], Fraction]
    multiplicities: dict[tuple[tuple[int, int], int], int]
    orbit_predicted: tuple[tuple[tuple[int, int], int], ...]
    vacuum_energy_sectors: tuple[tuple[tuple[int, int], int], ...]
    violates_orbit_rule: bool

    @property
    def passed(self) -> bool:
        want = {((0, 0), 0), ((0, 0), 8), ((1, 1), 4)}
        hit = {
            s
            for s in self.vacuum_energy_sectors
            if self.multiplicities[s] == 1
        }
        return want <= hit and self.violates_orbit_rule


def maverick_branching_check(cutoff: int) -> MaverickBranchingReport:
    """Confirm the three-fold vacuum identification against the branching
    ground truth, and that the cyclic orbit rule misses one of the three."""
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4 for a conclusive check")
    sectors = [((0, 0), 0), ((0, 0), 8), ((1, 1), 4)]
    energies = {}
    mults = {}
    cache: dict[tuple[int, int], dict[int, BranchingFunction]] = {}
    for pq, l in sectors:
        if pq not in cache:
            cache[pq] = maverick_branching(pq, cutoff)
        bf = cache[pq][l]
        energies[(pq, l)] = bf.energy()
        mults[(pq, l)] = bf.multiplicity_at_min()
    vacuum_sectors = tuple(s for s in sectors if energies[s] == 0)
    # cyclic-rule predictor: the order-2 diagram flip of level-8 su(2),
    # paired with the trivial su(3) current
    orbit = (((0, 0), 0), ((0, 0), 8))
    violates = any(s not in orbit for s in vacuum_sectors)
    return MaverickBranchingReport(
        cutoff, energies, mults, orbit, vacuum_sectors, violates
    )
