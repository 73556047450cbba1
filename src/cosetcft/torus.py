"""Cartan-torus coset of su(l) at level m (parafermion sectors).

Torus sectors pair an integrable su(l) weight with an equivalence class of
integer charge vectors: n ~ n + m*v for any integer vector v whose entry sum
is divisible by l.  Classes compose additively under fusion and each carries
statistical dimension 1, so sector dimensions come entirely from the weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fusion import BasedRing, SparseTensor, fusion_ring
from .modular import asymptotic_dimension, quantum_dimension, s_matrix
from .weights import AlgebraSpec, Weight, color, conjugate_weight, integrable_weights


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
    """All classes, canonically represented; there are l * m^(l-1) of them."""
    if l < 2 or m < 1:
        raise ValueError("need l >= 2 and m >= 1")
    seen = {}
    for n in itertools.product(range(l * m), repeat=l - 1):
        c = torus_class(l, m, n)
        seen.setdefault(c.rep, c)
    out = [seen[rep] for rep in sorted(seen)]
    assert len(out) == l * m ** (l - 1)
    return out


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

    def sort_key(self):
        return (self.weight.labels, self.cls.rep)

    def __str__(self):
        return f"({self.weight},[{','.join(map(str, self.cls.rep))}])"


def torus_exp(l: int, m: int) -> list[TorusSector]:
    """All sectors: pairs with sum(n) = color(weight) mod l."""
    spec = AlgebraSpec.su(l, m)
    classes = torus_classes(l, m)
    out = []
    for w in integrable_weights(spec):
        c = color(w)
        for cls in classes:
            if (sum(cls.rep) - c) % l == 0:
                out.append(TorusSector(w, cls))
    out.sort(key=TorusSector.sort_key)
    return out


def torus_ring(l: int, m: int) -> BasedRing:
    """(w,[n]) x (w',[n']) = sum over fusion channels of (w'', [n + n']).

    A sector's dimension is its weight's: every charge class has dimension 1.
    """
    sectors = torus_exp(l, m)
    ring = fusion_ring(AlgebraSpec.su(l, m))
    index = {s: i for i, s in enumerate(sectors)}
    table: dict[tuple[int, int], dict[int, int]] = {}
    for a, sa in enumerate(sectors):
        ia = ring.index(sa.weight)
        for b, sb in enumerate(sectors):
            ib = ring.index(sb.weight)
            cls = class_add(sa.cls, sb.cls)
            row: dict[int, int] = {}
            for k, c in ring.table.get((ia, ib), {}).items():
                target = TorusSector(ring.basis[k], cls)
                if target not in index:
                    raise AssertionError(
                        f"fusion left the sector set at {sa} x {sb} -> {target}"
                    )
                row[index[target]] = c
            if row:
                table[(a, b)] = row
    conj = tuple(
        index[TorusSector(conjugate_weight(s.weight), class_neg(s.cls))]
        for s in sectors
    )
    dims = {s: ring.dims[s.weight] for s in sectors}
    constants = SparseTensor.from_table(table, len(sectors))
    return BasedRing(tuple(sectors), constants, conj, dims)


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
