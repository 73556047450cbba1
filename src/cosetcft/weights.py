"""Integrable weights of affine su(N) at a fixed level, and the finite su(N)
invariant form, Weyl group, roots, weight systems and Weyl dimensions.

Weights are handled in unshifted Dynkin labels ``Lambda_i >= 0`` with
``sum(Lambda_i) <= k``.  The rho-shifted coordinates ``lambda_i = Lambda_i + 1``
(all >= 1, sum < k + N) are used internally where the cyclic diagram
automorphism and the Weyl-group bookkeeping are more natural.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

# size budget for one weight basis, checked before enumerating it
WEIGHT_BUDGET = 100_000


@dataclass(frozen=True)
class AlgebraSpec:
    """An ordered product of su(N) factors, each at its own level.

    ``factors`` is a tuple of ``(N, k)`` pairs with N >= 2 and k >= 1.
    The shifted level h = k + N is always derived, never stored.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("spec needs at least one su(N) factor")
        for n, k in self.factors:
            if n < 2:
                raise ValueError(f"rank parameter N must be >= 2, got {n}")
            if k < 1:
                raise ValueError(f"level must be >= 1, got {k}")

    @classmethod
    def su(cls, n: int, k: int) -> "AlgebraSpec":
        """Single su(n) factor at level k."""
        return cls(((n, k),))

    @property
    def is_single(self) -> bool:
        return len(self.factors) == 1

    def single(self) -> tuple[int, int]:
        """The (N, k) of a one-factor spec; rejects products."""
        if not self.is_single:
            raise ValueError("operation needs a single su(N) factor")
        return self.factors[0]

    def vacuum(self) -> "Weight":
        return Weight(self, tuple(tuple([0] * (n - 1)) for n, _ in self.factors))


@dataclass(frozen=True)
class Weight:
    """An integrable highest weight, one Dynkin label vector per factor."""

    spec: AlgebraSpec
    labels: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.labels) != len(self.spec.factors):
            raise ValueError("one label vector per factor required")
        for (n, k), lab in zip(self.spec.factors, self.labels):
            if len(lab) != n - 1:
                raise ValueError(f"su({n}) labels must have length {n - 1}")
            if any(x < 0 for x in lab):
                raise ValueError(f"labels must be nonnegative, got {lab}")
            if sum(lab) > k:
                raise ValueError(f"label sum {sum(lab)} exceeds level {k}")

    @property
    def single_labels(self) -> tuple[int, ...]:
        self.spec.single()
        return self.labels[0]

    def factor(self, i: int) -> "Weight":
        """Project a product weight onto its i-th factor."""
        return Weight(AlgebraSpec((self.spec.factors[i],)), (self.labels[i],))

    def __sub__(self, other: "Weight") -> "WeightDelta":
        # levels may differ: the difference lives in the bare weight lattice
        if self.spec.single()[0] != other.spec.single()[0]:
            raise ValueError("weights live in different weight lattices")
        return WeightDelta(tuple(a - b for a, b in zip(self.labels[0], other.labels[0])))

    def __str__(self):
        if self.spec.is_single:
            return "(" + ",".join(map(str, self.labels[0])) + ")"
        return "x".join("(" + ",".join(map(str, lab)) + ")" for lab in self.labels)


@dataclass(frozen=True)
class WeightDelta:
    """A formal difference of weights, living in the weight lattice."""

    entries: tuple[int, ...]


def integrable_weights(spec: AlgebraSpec) -> list[Weight]:
    """All integrable weights of a single su(N) factor at level k, in
    lexicographic label order.  The count is C(k+N-1, N-1); a count above
    WEIGHT_BUDGET is refused before any enumeration."""
    n, k = spec.single()
    count = comb(k + n - 1, n - 1)
    if count > WEIGHT_BUDGET:
        raise ValueError(
            f"su({n}) at level {k} has {count} integrable weights, "
            f"over the budget of {WEIGHT_BUDGET}"
        )
    return [Weight(spec, (lab,)) for lab in _bounded_labels(n - 1, k)]


def _bounded_labels(length: int, bound: int):
    """Nonnegative tuples of the given length with sum <= bound, in
    lexicographic order."""
    if length == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _bounded_labels(length - 1, bound - first):
            yield (first,) + rest


def color(w: Weight) -> int:
    """Congruence class sum(i * Lambda_i) mod N of a single-factor weight."""
    n, _ = w.spec.single()
    return sum(i * x for i, x in enumerate(w.labels[0], start=1)) % n


def in_root_lattice(d: WeightDelta, n: int) -> bool:
    """True iff the lattice vector lies in the su(n) root lattice."""
    if len(d.entries) != n - 1:
        raise ValueError(f"delta has length {len(d.entries)}, expected {n - 1}")
    return sum(i * x for i, x in enumerate(d.entries, start=1)) % n == 0


def sigma_apply(power: int, w: Weight) -> Weight:
    """Apply the order-N cyclic diagram automorphism ``power`` times.

    In unshifted labels one step maps (L_1,...,L_{N-1}) to
    (k - sum(L), L_1,...,L_{N-2}); for N = 2 this is L -> k - L.
    """
    n, k = w.spec.single()
    lab = w.labels[0]
    for _ in range(power % n):
        lab = (k - sum(lab),) + lab[:-1]
    return Weight(w.spec, (lab,))


def conjugate_weight(w: Weight) -> Weight:
    """Charge conjugation of su(N): reverse the label vector (per factor)."""
    return Weight(w.spec, tuple(tuple(reversed(lab)) for lab in w.labels))


def conformal_weight(w: Weight) -> Fraction:
    """Sugawara conformal weight (L, L + 2*rho) / (2*(k+N)), exact."""
    n, k = w.spec.single()
    lab = w.labels[0]
    rho2 = tuple(x + 2 for x in lab)  # L + 2*rho in labels
    return inner_product(lab, rho2, n) / (2 * (k + n))


# --- su(N) weight-space geometry -----------------------------------------
#
# The quadratic form is normalized so long roots have squared length 2; the
# Gram matrix of the fundamental weights is F_ij = min(i,j) - i*j/N.

Labels = tuple[int, ...]


def gram_matrix(n: int) -> list[list[Fraction]]:
    return [
        [Fraction(min(i, j)) - Fraction(i * j, n) for j in range(1, n)]
        for i in range(1, n)
    ]


def inner_product(a, b, n: int) -> Fraction:
    """Exact invariant form of two weights given by Dynkin labels."""
    total = Fraction(0)
    for i, ai in enumerate(a, start=1):
        if ai == 0:
            continue
        for j, bj in enumerate(b, start=1):
            if bj:
                total += ai * bj * (Fraction(min(i, j)) - Fraction(i * j, n))
    return total


def v_vector(lab) -> tuple[int, ...]:
    """Partial-sum coordinates (length N) on which the Weyl group permutes.

    v_j = sum(lab[j-1:]) with v_N = 0; Dynkin labels are the successive
    differences, and adding a constant to all coordinates is immaterial.
    """
    out = [0] * (len(lab) + 1)
    acc = 0
    for j in range(len(lab) - 1, -1, -1):
        acc += lab[j]
        out[j] = acc
    return tuple(out)


def labels_from_v(v) -> tuple[int, ...]:
    return tuple(v[i] - v[i + 1] for i in range(len(v) - 1))


def shifted_v(lab) -> tuple[int, ...]:
    """v-coordinates of lab + rho: strictly decreasing, last entry 0."""
    return v_vector(tuple(x + 1 for x in lab))


def root_coordinates(entries, n: int) -> tuple[Fraction, ...]:
    """Coefficients of a weight-lattice vector on the simple roots."""
    gram = gram_matrix(n)
    return tuple(
        sum(gram[i][j] * entries[j] for j in range(n - 1)) for i in range(n - 1)
    )


def add_labels(a: Labels, b: Labels) -> Labels:
    return tuple(x + y for x, y in zip(a, b))


def sub_labels(a: Labels, b: Labels) -> Labels:
    return tuple(x - y for x, y in zip(a, b))


def norm2_shifted(labels: Labels, n: int) -> Fraction:
    """Squared length of labels + rho."""
    shifted = tuple(x + 1 for x in labels)
    return inner_product(shifted, shifted, n)


# --- finite su(N) Weyl group, roots and irreducible characters -----------
#
# The Weyl group S_N permutes the v-coordinates of a weight.

@lru_cache(maxsize=None)
def perms_with_sign(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of range(n) with its sign."""
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        out.append((perm, -1 if inversions % 2 else 1))
    return tuple(out)


def root(n: int, a: int, b: int) -> Labels:
    """Label vector of the su(n) root e_a - e_b."""
    return labels_from_v(tuple(int(j == a) - int(j == b) for j in range(n)))


@lru_cache(maxsize=None)
def positive_roots(n: int) -> tuple[Labels, ...]:
    """Label vectors of the positive roots e_a - e_b (a < b) of su(n)."""
    return tuple(root(n, a, b) for a in range(n) for b in range(a + 1, n))


@lru_cache(maxsize=None)
def all_roots(n: int) -> tuple[Labels, ...]:
    """Label vectors of every root of su(n): the positive roots, then their
    negatives."""
    positive = positive_roots(n)
    return positive + tuple(tuple(-x for x in alpha) for alpha in positive)


def dominant_rep(labels: Labels) -> Labels:
    """The dominant weight in the Weyl orbit of labels."""
    return labels_from_v(tuple(sorted(v_vector(labels), reverse=True)))


def weyl_orbit(labels: Labels) -> set[Labels]:
    """Every weight in the Weyl orbit of labels."""
    return {labels_from_v(v) for v in itertools.permutations(v_vector(labels))}


def add_alternant(poly: dict[Labels, int], v, coeff: int) -> None:
    """Add coeff times the alternant sum_w sign(w) e^(w v) to poly in place,
    with v in v-coordinates; entries that cancel are dropped."""
    for perm, sign in perms_with_sign(len(v)):
        mono = labels_from_v(tuple(v[p] for p in perm))
        poly[mono] = poly.get(mono, 0) + coeff * sign
        if poly[mono] == 0:
            del poly[mono]


@lru_cache(maxsize=None)
def finite_weight_multiplicities(n: int, lam: Labels) -> dict[Labels, int]:
    """Full weight system of the finite su(n) irrep with highest weight lam,
    by the Freudenthal recursion over dominant weights."""
    simple = [root(n, i, i + 1) for i in range(n - 1)]
    # dominant support: lam - sum(c_i alpha_i) with c in a box and labels >= 0
    cmax = root_coordinates(add_labels(lam, tuple(reversed(lam))), n)
    assert all(c.denominator == 1 for c in cmax)
    dominants = []
    for c in itertools.product(*(range(int(x) + 1) for x in cmax)):
        mu = lam
        for ci, row in zip(c, simple):
            if ci:
                mu = tuple(m - ci * r for m, r in zip(mu, row))
        if all(x >= 0 for x in mu):
            dominants.append(mu)
    dominants = sorted(set(dominants), key=lambda m: -norm2_shifted(m, n))
    support = set(dominants)
    top_norm = norm2_shifted(lam, n)
    mult: dict[Labels, int] = {}
    for mu in dominants:
        if mu == lam:
            mult[mu] = 1
            continue
        den = top_norm - norm2_shifted(mu, n)
        num = Fraction(0)
        for alpha in positive_roots(n):
            j = 1
            while True:
                x = add_labels(mu, tuple(j * a for a in alpha))
                dom = dominant_rep(x)
                if dom not in support:
                    break
                m = mult.get(dom, 0)
                if m:
                    num += m * inner_product(x, alpha, n)
                j += 1
        value = 2 * num / den
        assert value.denominator == 1 and value >= 0
        mult[mu] = int(value)
    table: dict[Labels, int] = {}
    for mu, m in mult.items():
        if m:
            for w in weyl_orbit(mu):
                table[w] = m
    return table


def weyl_dimension(n: int, lam: Labels) -> int:
    """Weyl dimension formula, exact."""
    rho = tuple(1 for _ in lam)
    dim = Fraction(1)
    for alpha in positive_roots(n):
        dim *= inner_product(add_labels(lam, rho), alpha, n) / inner_product(
            rho, alpha, n
        )
    assert dim.denominator == 1
    return int(dim)
