"""The six-sector ring of the level-8 su(2) inside level-2 su(3) coset.

This coset identifies more sectors than the cyclic-current rule accounts
for, so its ring is not the ring on its cyclic orbits.  The quoted
relations x*x = 1 + x, z**3 = 1 and y = x*z define the product of the
Fibonacci ring and the group ring of Z3: the ring is built by that product
construction, one basis element per word x^a z^b, and then checked against
the quoted products, y*ybar = 1 + x among them as an independent
consistency constraint.  The branching check corroborates the extra
identification numerically: three distinct sector labels all reach coset
energy zero with multiplicity one, while only two of them, the vacuum and
its image under the order-2 diagram flip of level-8 su(2), are cyclic
images of the vacuum.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .characters import (
    BranchingFunction,
    graded_character,
    peel_branching,
    restrict_character,
)
from .report import SelfCheckFailed
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

# the identification line: the sectors (su(3) label, su(2) label) that the
# check expects at coset energy zero with multiplicity one, like the vacuum
VACUUM_LINE = (((0, 0), 0), ((0, 0), 8), ((1, 1), 4))

# each basis element as the word x^a z^b, in basis order
_WORDS = {"1": (0, 0), "x": (1, 0), "y": (1, 1), "ybar": (1, 2), "z": (0, 1), "zbar": (0, 2)}
BASIS_NAMES = tuple(_WORDS)


def build_maverick_ring() -> BasedRing:
    """The product of the Fibonacci ring on (1, x) and the group ring of Z3
    on the powers 0, 1, 2 of z, with word x^a z^b the pair (a, b), and every
    independently quoted property of the result verified (SelfCheckFailed)."""
    import numpy as np

    from .fusion import BasedRing, SparseTensor, orbit_ring

    # N_ab^c as [a][b][c]: 1 x = x 1 = x and x x = 1 + x; z^a z^b = z^(a + b mod 3)
    fib_table = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 1]]], dtype=np.int8)
    fib_constants = SparseTensor.from_blocks(2, [fib_table])
    fib = BasedRing(("1", "x"), fib_constants, (0, 1), {"1": 1.0, "x": GOLDEN})
    z3_table = np.eye(3, dtype=np.int8)[np.add.outer(range(3), range(3)) % 3]
    z3_constants = SparseTensor.from_blocks(3, [z3_table])
    z3 = BasedRing((0, 1, 2), z3_constants, (0, 2, 1), dict.fromkeys(range(3), 1.0))
    dims = dict(zip(BASIS_NAMES, (1.0, GOLDEN, GOLDEN, GOLDEN, 1.0, 1.0)))
    ring = orbit_ring([fib, z3], [[w] for w in _WORDS.values()], BASIS_NAMES, dims)
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
            raise SelfCheckFailed(f"{a}*{b} = {got}, expected {want}")
    failures = ring.axiom_failures()
    if failures:
        raise SelfCheckFailed("; ".join(failures))
    residual = dimension_homomorphism_residual(ring)
    if not residual <= 1e-6:  # a NaN fails
        raise SelfCheckFailed(f"dimensions fail by {residual:.3e}")


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


def maverick_branching_check(cutoff: int) -> list[str]:
    """The sectors of VACUUM_LINE whose branching is not vacuum-like at the
    cutoff, each with its lowest energy and multiplicity: empty exactly when
    the three-fold vacuum identification holds."""
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4 for a conclusive check")
    modules = dict.fromkeys(pq for pq, _ in VACUUM_LINE)
    tables = {pq: maverick_branching(pq, cutoff) for pq in modules}
    found = (tables[pq][l] for pq, l in VACUUM_LINE)
    return [
        f"{bf.sector}: lowest energy {bf.energy()}, multiplicity {bf.multiplicity_at_min()}"
        for bf in found
        if not bf.is_vacuum_like()
    ]
