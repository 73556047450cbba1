"""Integrable weights of affine su(N) at a fixed level and their quantum
dimensions, the finite su(N) invariant form, Weyl group, roots, weight
systems and Weyl dimensions, and the package's size budgets.  Pure Python:
no numpy.

Weights are handled in unshifted Dynkin labels ``Lambda_i >= 0`` with
``sum(Lambda_i) <= k``.  The rho-shifted coordinates ``lambda_i = Lambda_i + 1``
(all >= 1, sum < k + N) are used internally where the cyclic diagram
automorphism and the Weyl-group bookkeeping are more natural.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# size budget for one weight basis, checked before enumerating it
WEIGHT_BUDGET = 100_000
# elements of the largest dense array built (256 MiB as complex128)
DENSE_BUDGET = 2**24


def require_dense_budget(elements: int, what: str) -> None:
    """Refuse, before any work, a dense array of more than DENSE_BUDGET
    elements, or a computation that sweeps that many, such as the S-matrix
    phases and the Verlinde sums, which are built a few rows at a time."""
    if elements > DENSE_BUDGET:
        raise ValueError(
            f"{what} needs a dense array of {elements} elements, "
            f"over the budget of {DENSE_BUDGET}"
        )


@dataclass(frozen=True)
class AlgebraSpec:
    """su(N) at level k, with N >= 2 and k >= 1.

    The shifted level h = k + N is always derived, never stored.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"rank parameter N must be >= 2, got {self.n}")
        if self.k < 1:
            raise ValueError(f"level must be >= 1, got {self.k}")

    @classmethod
    def su(cls, n: int, k: int) -> "AlgebraSpec":
        """su(n) at level k."""
        return cls(n, k)

    def vacuum(self) -> "Weight":
        return Weight(self, (0,) * (self.n - 1))


@dataclass(frozen=True)
class Weight:
    """An integrable highest weight, given by its Dynkin labels."""

    spec: AlgebraSpec
    labels: tuple[int, ...]

    def __post_init__(self):
        n, k = self.spec.n, self.spec.k
        if len(self.labels) != n - 1:
            raise ValueError(f"su({n}) labels must have length {n - 1}")
        if any(x < 0 for x in self.labels):
            raise ValueError(f"labels must be nonnegative, got {self.labels}")
        if sum(self.labels) > k:
            raise ValueError(f"label sum {sum(self.labels)} exceeds level {k}")

    def __str__(self):
        return "(" + ",".join(map(str, self.labels)) + ")"


def integrable_weights(spec: AlgebraSpec) -> list[Weight]:
    """All integrable weights of su(N) at level k, in lexicographic label
    order.  A count above WEIGHT_BUDGET is refused before any enumeration."""
    _weight_count(spec)
    return [Weight(spec, lab) for lab in _bounded_labels(spec.n - 1, spec.k)]


def _weight_count(spec: AlgebraSpec) -> int:
    """The number C(k+N-1, r) of integrable weights, r = min(k, N-1),
    refused above WEIGHT_BUDGET."""
    n, k = spec.n, spec.k
    # the partial counts C(k+N-1-r+i, i) only grow: refuse at the first one
    # over the budget, before a binomial of 600,000 digits at N = k = 10^6
    r = min(k, n - 1)
    count = 1
    for i in range(1, r + 1):
        count = count * (k + n - 1 - r + i) // i
        if count > WEIGHT_BUDGET:
            raise ValueError(
                f"su({n}) at level {k} has more than {WEIGHT_BUDGET} "
                "integrable weights, over the budget"
            )
    return count


def require_s_matrix_budget(spec: AlgebraSpec) -> None:
    """Refuse, from the weight count alone, a spec whose m^2 N^2 S-matrix
    phases would exceed DENSE_BUDGET."""
    n, k = spec.n, spec.k
    require_dense_budget(_weight_count(spec) ** 2 * n * n, f"the S-matrix of su({n})_{k}")


def _bounded_labels(length: int, bound: int):
    """Nonnegative tuples of the given length with sum <= bound, in
    lexicographic order: stars and bars, each tuple the gaps between
    consecutive bars, counting a bar at -1."""
    for bars in itertools.combinations(range(bound + length), length):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars))


def vacuum_row(spec: AlgebraSpec) -> list[float]:
    """The S-matrix's vacuum row S_0L, in ``integrable_weights`` order, from
    its closed sine product and without numpy: the norm, times
    2 sin(pi (t_a - t_b) / h) for each a < b, with t the rho-shifted
    v-coordinates of L.  Dividing by the vacuum's value gives the quantum
    dimensions; dropping the norm first would change some last bits.  The
    spec is held to the S-matrix's budget, so the row is served for exactly
    the specs whose S-matrix can be built."""
    n, k = spec.n, spec.k
    h = k + n
    require_s_matrix_budget(spec)
    norm = (n * h ** (n - 1)) ** -0.5
    row = []
    for labels in _bounded_labels(n - 1, k):
        t = shifted_v(labels)
        value = norm
        for a in range(n):
            for b in range(a + 1, n):
                value *= 2.0 * math.sin(math.pi * (t[a] - t[b]) / h)
        row.append(value)
    return row


def quantum_dimensions(spec: AlgebraSpec) -> dict[Weight, float]:
    """Quantum dimension S_0L / S_00 of every integrable weight, in
    ``integrable_weights`` order: the vacuum row divided by its first
    entry, as ``modular.quantum_dimension`` divides the S-matrix's."""
    row = vacuum_row(spec)
    return {w: value / row[0] for w, value in zip(integrable_weights(spec), row)}


def color(w: Weight) -> int:
    """Congruence class sum(i * Lambda_i) mod N of a weight."""
    return sum(i * x for i, x in enumerate(w.labels, start=1)) % w.spec.n


def sigma_apply(power: int, w: Weight) -> Weight:
    """Apply the order-N cyclic diagram automorphism ``power`` times.

    In unshifted labels one step maps (L_1,...,L_{N-1}) to
    (k - sum(L), L_1,...,L_{N-2}); for N = 2 this is L -> k - L.
    """
    n, k = w.spec.n, w.spec.k
    lab = w.labels
    for _ in range(power % n):
        lab = (k - sum(lab),) + lab[:-1]
    return Weight(w.spec, lab)


def conjugate_weight(w: Weight) -> Weight:
    """Charge conjugation of su(N): reverse the label vector."""
    return Weight(w.spec, w.labels[::-1])


def conformal_weight(w: Weight) -> Fraction:
    """Sugawara conformal weight (L, L + 2*rho) / (2*(k+N)), exact."""
    n, k = w.spec.n, w.spec.k
    rho2 = tuple(x + 2 for x in w.labels)  # L + 2*rho in labels
    return inner_product(w.labels, rho2, n) / (2 * (k + n))


# --- su(N) weight-space geometry -----------------------------------------
#
# The quadratic form is normalized so long roots have squared length 2.  A
# weight with v-coordinates v (see ``v_vector``) is sum_j v_j e_j projected
# off the all-ones vector, so (a, b) = sum_j v_j w_j - sum(v) sum(w) / N.

Labels = tuple[int, ...]


def inner_product(a, b, n: int) -> Fraction:
    """Exact invariant form of two weights given by Dynkin labels."""
    va, vb = v_vector(a), v_vector(b)
    return Fraction(n * sum(x * y for x, y in zip(va, vb)) - sum(va) * sum(vb), n)


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
    """Coefficients of a weight-lattice vector on the simple roots: the
    partial sums of its v-coordinates minus i * sum(v) / n."""
    v = v_vector(entries)
    total = sum(v)
    partial = itertools.accumulate(v[:-1])
    return tuple(
        Fraction(n * p - i * total, n) for i, p in enumerate(partial, start=1)
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
    return {labels_from_v(v) for v in set(itertools.permutations(v_vector(labels)))}


def straighten(v) -> tuple[int, Labels] | None:
    """Racah-Speiser: the alternant sum_w sign(w) e^(w v) of v-coordinates v
    is None (zero) when two coordinates coincide, else sign times the
    alternant of mu + rho, the sorted v, returned as (sign, mu)."""
    inversions = 0
    for a in range(len(v)):
        for b in range(a + 1, len(v)):
            if v[a] == v[b]:
                return None
            if v[a] < v[b]:
                inversions += 1
    ordered = sorted(v, reverse=True)
    mu = tuple(ordered[i] - ordered[i + 1] - 1 for i in range(len(v) - 1))
    return (-1 if inversions % 2 else 1), mu


@lru_cache(maxsize=None)
def finite_weight_multiplicities(n: int, lam: Labels) -> dict[Labels, int]:
    """Full weight system of the finite su(n) irrep with highest weight lam:
    the Weyl orbit of each dominant weight, with its multiplicity."""
    table: dict[Labels, int] = {}
    for mu, m in _dominant_weights(v_vector(lam)).items():
        for w in weyl_orbit(labels_from_v(mu)):
            table[w] = m
    return table


@lru_cache(maxsize=None)
def _dominant_weights(row: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Dominant weights, in v-coordinates, of the irrep with partition row,
    and their multiplicities: the Gelfand-Tsetlin patterns of each weight
    (Gelfand and Tsetlin, Dokl. Akad. Nauk SSSR 71 (1950)), counted one
    row at a time.  A row below interlaces row, and the weight's last
    coordinate is the difference of their sums; the weight is dominant
    exactly when the rest is a dominant weight of the row below whose last
    coordinate is at least that difference."""
    if len(row) == 1:
        return {row: 1}
    out: dict[tuple[int, ...], int] = {}
    ranges = (range(row[i + 1], row[i] + 1) for i in range(len(row) - 1))
    for below in itertools.product(*ranges):
        last = sum(row) - sum(below)
        for w, m in _dominant_weights(below).items():
            if w[-1] >= last:
                key = (*w, last)
                out[key] = out.get(key, 0) + m
    return out


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
