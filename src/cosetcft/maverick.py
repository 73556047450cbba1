"""The six-sector ring of the level-8 su(2) inside level-2 su(3) coset.

This coset identifies more sectors than the cyclic-current rule accounts
for, so its ring is generated here by reducing with the quoted relations
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

# the quoted relations that generate the ring, as `verify maverick` lists them
RELATIONS = ("x*x = 1 + x", "y*ybar = 1 + x", "z**3 = 1", "y = x*z")

# index-4 embedding of su(2) in su(3): weight labels (a, b) -> 2a + 2b,
# pinned by the defining triplet restricting to the spin-1 triplet
INDEX4_PROJECTION = ((2, 2),)

SU3_LEVEL2 = AlgebraSpec.su(3, 2)
SU2_LEVEL8 = AlgebraSpec.su(2, 8)

# each basis element as the word x^a z^b, in basis order
_WORDS = {"1": (0, 0), "x": (1, 0), "y": (1, 1), "ybar": (1, 2), "z": (0, 1), "zbar": (0, 2)}
BASIS_NAMES = tuple(_WORDS)
_CONJUGATE = {"1": "1", "x": "x", "y": "ybar", "ybar": "y", "z": "zbar", "zbar": "z"}


class InconsistentRelations(ArithmeticError):
    """The relations failed to reduce into a consistent 6-element ring."""


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
    """Reduce every product of two basis words into structure constants and
    verify every independently quoted property of the result."""
    import numpy as np

    from .fusion import BasedRing, SparseTensor

    index = {w: i for i, w in enumerate(_WORDS.values())}
    entries = []
    for i, (a1, b1) in enumerate(_WORDS.values()):
        for j, (a2, b2) in enumerate(_WORDS.values()):
            prod = _reduce((a1 + a2, b1 + b2))
            if not prod.keys() <= index.keys():
                raise InconsistentRelations(
                    f"{BASIS_NAMES[i]}*{BASIS_NAMES[j]} = {prod} leaves the six words"
                )
            entries.extend((i, j, index[w], c) for w, c in prod.items())

    conj = tuple(BASIS_NAMES.index(_CONJUGATE[name]) for name in BASIS_NAMES)
    dims = dict(zip(BASIS_NAMES, (1.0, GOLDEN, GOLDEN, GOLDEN, 1.0, 1.0)))
    constants = SparseTensor.from_entries(len(BASIS_NAMES), *np.array(entries).T)
    ring = BasedRing(BASIS_NAMES, constants, conj, dims)
    _verify(ring)
    return ring


def _verify(ring: BasedRing) -> None:
    """The quoted products, the based-ring axioms and the dimensions."""
    from .fusion import dimension_homomorphism_residual

    expect = {
        ("x", "x"): {"1": 1, "x": 1},
        ("y", "ybar"): {"1": 1, "x": 1},  # quoted independently of y = x z
        ("x", "z"): {"y": 1},
        ("z", "z"): {"zbar": 1},  # z has order three
        ("z", "zbar"): {"1": 1},
    }
    for (a, b), want in expect.items():
        got = {
            ring.basis[k]: c
            for k, c in ring.table[(ring.index(a), ring.index(b))].items()
        }
        if got != want:
            raise InconsistentRelations(f"{a}*{b} = {got}, expected {want}")
    failures = ring.axiom_failures()
    if failures:
        raise InconsistentRelations("; ".join(failures))
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
    peeled = peel_branching(restricted, SU2_LEVEL8)
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
