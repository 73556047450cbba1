"""Cartan-torus coset of su(l) at level m (parafermion sectors).

Torus sectors pair an integrable su(l) weight with an equivalence class of
integer charge vectors: n ~ n + m*v for any integer vector v whose entry sum
is divisible by l.  Classes compose additively under fusion and each carries
statistical dimension 1, so sector dimensions come entirely from the weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fusion import BasedRing, SparseTensor, fusion_ring, orbit_ring
from .modular import asymptotic_dimension, quantum_dimension, s_matrix
from .weights import DENSE_BUDGET, AlgebraSpec, Weight, color, integrable_weights
from .weights import require_budget, weight_count


@dataclass(frozen=True)
class TorusClass:
    """Charge-vector class, stored by its canonical representative.

    The representative is the lexicographic minimum of the orbit after
    entrywise reduction into [0, l*m).
    """

    l: int
    m: int
    rep: tuple[int, ...]


def torus_class(l: int, m: int, n) -> TorusClass:
    """Canonicalize an arbitrary integer charge vector: the first l-2
    entries reduce mod m, each carrying its multiple of m into the last
    entry (a shift by m*(e_i - e_last)), which is then fixed mod l*m."""
    if len(n) != l - 1:
        raise ValueError(f"charge vector must have length {l - 1}")
    head = tuple(x % m for x in n[:-1])
    carried = sum(x - r for x, r in zip(n[:-1], head))
    return TorusClass(l, m, head + ((n[-1] + carried) % (l * m),))


def class_add(a: TorusClass, b: TorusClass) -> TorusClass:
    return torus_class(a.l, a.m, tuple(x + y for x, y in zip(a.rep, b.rep)))


def class_neg(a: TorusClass) -> TorusClass:
    return torus_class(a.l, a.m, tuple(-x for x in a.rep))


def torus_classes(l: int, m: int) -> list[TorusClass]:
    """All l * m^(l-1) classes in order of their canonical representatives:
    the first l-2 entries in [0, m) and the last in [0, l*m)."""
    if l < 2 or m < 1:
        raise ValueError("need l >= 2 and m >= 1")
    ranges = [range(m)] * (l - 2) + [range(l * m)]
    return [TorusClass(l, m, rep) for rep in itertools.product(*ranges)]


@dataclass(frozen=True)
class TorusSector:
    """Compatible pair of an su(l) weight and a charge class: the charge sum
    must match the weight's color mod l."""

    weight: Weight
    cls: TorusClass

    def __post_init__(self):
        n, k = self.weight.spec.n, self.weight.spec.k
        if (n, k) != (self.cls.l, self.cls.m):
            raise ValueError("weight and class belong to different cosets")
        if (sum(self.cls.rep) - color(self.weight)) % n != 0:
            raise ValueError(
                f"charge sum mismatch: {self.cls.rep} vs color {color(self.weight)}"
            )

    def __str__(self):
        return f"({self.weight},[{','.join(map(str, self.cls.rep))}])"


def torus_exp(l: int, m: int) -> list[TorusSector]:
    """All sectors: pairs with sum(n) = color(weight) mod l, ordered by
    weight labels, then by class representative."""
    spec = AlgebraSpec.su(l, m)
    classes = torus_classes(l, m)
    out = []
    for w in integrable_weights(spec):
        c = color(w)
        for cls in classes:
            if (sum(cls.rep) - c) % l == 0:
                out.append(TorusSector(w, cls))
    return out


def _class_ring(l: int, m: int) -> BasedRing:
    """Group ring of the charge classes: [n] x [n'] = [n + n'], each class
    of dimension 1."""
    classes = torus_classes(l, m)
    index = {c: i for i, c in enumerate(classes)}
    one_hot = np.eye(len(classes), dtype=np.int8)
    rows = (one_hot[[index[class_add(a, b)] for b in classes]][None] for a in classes)
    constants = SparseTensor.from_blocks(len(classes), rows)
    conj = tuple(index[class_neg(c)] for c in classes)
    return BasedRing(tuple(classes), constants, conj, dict.fromkeys(classes, 1.0))


def torus_ring(l: int, m: int) -> BasedRing:
    """(w,[n]) x (w',[n']) = sum over fusion channels of (w'', [n + n']):
    ``orbit_ring`` over the su(l)_m fusion ring and the charge classes'
    group ring, every sector its own orbit.  Color additivity keeps every
    product in the sector set.

    A sector's dimension is its weight's: every charge class has dimension 1.
    Cost model: the (sector count)^3 orbit products, each weight with
    m^(l-1) classes, are held to DENSE_BUDGET before any class or sector is
    listed.  Classes never outnumber sectors, so this also bounds the dense
    class ring that ``orbit_ring`` gathers from.
    """
    count = weight_count(AlgebraSpec.su(l, m)) * m ** (l - 1)
    what = f"the number of orbit products of the torus ring of su({l})_{m}"
    require_budget(count**3, DENSE_BUDGET, what)
    classes = _class_ring(l, m)
    sectors = torus_exp(l, m)
    weights = fusion_ring(AlgebraSpec.su(l, m))
    orbits = [[(weights.index(s.weight), classes.index(s.cls))] for s in sectors]
    dims = {s: weights.dims[s.weight] for s in sectors}
    return orbit_ring([weights, classes], orbits, sectors, dims)


def torus_kw_residual(l: int, m: int) -> float:
    """Worst mismatch between a sector's dimension and the vacuum-row ratio
    a(weight)/a(vacuum); the charge class contributes a factor 1."""
    spec = AlgebraSpec.su(l, m)
    sm = s_matrix(spec)
    a0 = asymptotic_dimension(sm, spec.vacuum())
    worst = 0.0
    for s in torus_exp(l, m):
        d = quantum_dimension(sm, s.weight)
        ratio = asymptotic_dimension(sm, s.weight) / a0
        worst = max(worst, abs(d - ratio))
    return worst
