"""Integrable weights of affine su(N) at a fixed level and their quantum
dimensions, the finite su(N) invariant form, Weyl group, roots, weight
systems and Weyl dimensions, exact fusion of two weights by Kac-Walton, and
the package's size budgets.  Pure Python: no numpy.

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
from operator import sub

from .report import SelfCheckFailed  # re-exported: raised here

# size budget for one weight basis, checked before enumerating it
WEIGHT_BUDGET = 100_000
# budget for m^3-sized work or dense arrays (256 MiB as complex128)
DENSE_BUDGET = 2**24


def require_budget(count: int, budget: int, what: str, at_least: bool = False) -> None:
    """The package's one size refusal: ValueError for a count over its
    budget, before the work or allocation counted.  ``what`` names what is
    counted; ``at_least`` marks a count that stopped early, a lower bound."""
    if count > budget:
        bound = "at least " if at_least else ""
        raise ValueError(f"{what} is {bound}{count}, over the budget of {budget}")


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

    @property
    def name(self) -> str:  # as messages name it
        return f"su({self.n})_{self.k}"


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
    weight_count(spec)
    return [Weight(spec, lab) for lab in _bounded_labels(spec.n - 1, spec.k)]


def weight_count(spec: AlgebraSpec) -> int:
    """The number C(k+N-1, r) of integrable weights, r = min(k, N-1),
    refused above WEIGHT_BUDGET."""
    n, k = spec.n, spec.k
    # the partial counts C(k+N-1-r+i, i) only grow: stop at the first one
    # over the budget, before a binomial of 600,000 digits at N = k = 10^6
    r = min(k, n - 1)
    count = 1
    for i in range(1, r + 1):
        count = count * (k + n - 1 - r + i) // i
        if count > WEIGHT_BUDGET:
            break
    what = f"the number of integrable weights of su({n}) at level {k}"
    require_budget(count, WEIGHT_BUDGET, what, at_least=i < r)
    return count


def require_s_matrix_budget(spec: AlgebraSpec) -> None:
    """Refuse, from the weight count alone, a spec whose m^2 N^2 S-matrix
    phases, work that ``modular.s_matrix`` batches, exceed DENSE_BUDGET."""
    n, k = spec.n, spec.k
    what = f"the S-matrix of su({n})_{k} phase count"
    require_budget(weight_count(spec) ** 2 * n * n, DENSE_BUDGET, what)


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
    return tuple(map(sub, v, v[1:]))


def shifted_v(lab) -> tuple[int, ...]:
    """v-coordinates of lab + rho: strictly decreasing, last entry 0."""
    return v_vector(tuple(x + 1 for x in lab))


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


def positive_roots(n: int) -> tuple[Labels, ...]:
    """Label vectors of the positive roots e_a - e_b (a < b) of su(n)."""
    return tuple(root(n, a, b) for a in range(n) for b in range(a + 1, n))


@lru_cache(maxsize=None)
def all_roots(n: int) -> tuple[Labels, ...]:
    """Label vectors of every root of su(n): the positive roots, then their
    negatives."""
    positive = positive_roots(n)
    return positive + tuple(tuple(-x for x in alpha) for alpha in positive)


def weyl_orbit(labels: Labels) -> set[Labels]:
    """Every weight in the Weyl orbit of labels."""
    return {labels_from_v(v) for v in distinct_permutations(v_vector(labels))}


def distinct_permutations(v):
    """Each distinct permutation of the entries of v once, in increasing
    lexicographic order: the successor of a permutation swaps the last
    ascent's left entry with the last entry that exceeds it and reverses the
    tail."""
    a = sorted(v)
    last = len(a) - 1
    while True:
        yield tuple(a)
        i = last - 1
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[: i : -1]


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
def finite_weight_multiplicities(lam: Labels) -> dict[Labels, int]:
    """Full weight system of the finite su(n) irrep with highest weight lam,
    n = len(lam) + 1: the Weyl orbit of each dominant weight, with its
    multiplicity."""
    table: dict[Labels, int] = {}
    for mu, m in _dominant_weights(v_vector(lam)).items():
        table.update(dict.fromkeys(map(labels_from_v, distinct_permutations(mu)), m))
    return table


# each row's dominant weights and multiplicities, shared by every irrep: a
# dict rather than an lru_cache, because the walk asks which rows it holds
_pattern_counts: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}


def _dominant_weights(row: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Dominant weights, in v-coordinates, of the irrep with partition row,
    and their multiplicities: the Gelfand-Tsetlin patterns of each weight
    (Gelfand and Tsetlin, Dokl. Akad. Nauk SSSR 71 (1950)), counted one
    row at a time.  A row below interlaces row, and the weight's last
    coordinate is the difference of their sums; the weight is dominant
    exactly when the rest is a dominant weight of the row below whose last
    coordinate is at least that difference.  A constant row, such as a
    single entry, has one pattern.

    The walk does not recurse: it lists the rows not yet in the memo one
    length at a time, from row down, then counts them shortest first, so
    each row's rows below are in the memo when it is counted."""
    levels = [] if row in _pattern_counts else [[row]]
    while levels:
        below = dict.fromkeys(
            b
            for r in levels[-1]
            if r[0] != r[-1]
            for b in _rows_below(r)
            if b not in _pattern_counts
        )
        if not below:
            break
        levels.append(below)
    for level in reversed(levels):
        for r in level:
            if r[0] == r[-1]:
                _pattern_counts[r] = {r: 1}
                continue
            out: dict[tuple[int, ...], int] = {}
            total = sum(r)
            for b in _rows_below(r):
                last = total - sum(b)
                for w, m in _pattern_counts[b].items():
                    if w[-1] >= last:
                        key = (*w, last)
                        out[key] = out.get(key, 0) + m
            _pattern_counts[r] = out
    return _pattern_counts[row]


def _rows_below(row: tuple[int, ...]):
    """The rows that interlace row from below, in lexicographic order."""
    return itertools.product(*map(range, row[1:], (x + 1 for x in row)))


def weyl_dimension(lam: Labels) -> int:
    """Weyl dimension formula for the su(len(lam) + 1) irrep lam, exact: the
    product over a < b of (t_a - t_b) / (b - a), t = shifted_v(lam)."""
    return _dimension_within(lam, None)


def _dimension_within(lam: Labels, cap: int | None) -> int | None:
    """The Weyl dimension of lam, or None once it exceeds cap.  A pair a < b
    whose coordinates v_a, v_b of lam are equal (no nonzero label between
    them) gives the factor 1, and every other factor exceeds 1, so only
    those pairs are walked and the partial products only grow."""
    t = shifted_v(lam)
    n = len(t)
    num = den = 1
    start = n  # the first b past a nonzero label at or after a
    for a in range(n - 2, -1, -1):
        if lam[a]:
            start = a + 1
        for b in range(start, n):
            num *= t[a] - t[b]
            den *= b - a
            if cap is not None and num > cap * den:
                return None
    dim, rest = divmod(num, den)
    if rest:
        raise SelfCheckFailed(f"the Weyl dimension of {lam} is not an integer")
    return None if cap is not None and dim > cap else dim


def kac_walton(i: Weight, j: Weight) -> list[tuple[Weight, int]]:
    """Nonzero fusion channels of i x j with their multiplicities, in label
    order, as ``fusion.fuse`` lists them, exact by the Kac-Walton formula
    (Walton, Nucl. Phys. B340 (1990); Kac, 3rd ed., Exercise 13.35).

    One of the two irreps, the one of smaller Weyl dimension, is walked
    weight by weight: each weight x, with its multiplicity, contributes
    sign(w) to N_ij^nu when the affine Weyl element w at shifted level
    h = k + N takes x + (the other) + rho to nu + rho in the open alcove.
    In v-coordinates u, write each u_a = q_a h + r_a with 0 <= r_a < h; a
    repeated residue puts u on a wall, and it contributes nothing.  Else
    the residues, sorted decreasing with the permutation's sign, lie in the
    alcove, but they differ from u by h times a vector of sum -sum(q), which
    must vanish mod N: lowering the t = (-sum(q)) mod N largest residues by
    h and moving them to the end, with the sign (-1)^(t(N-1)), does that.
    The result's labels are the sorted residues' affine labels (k - sum,
    then the labels) read cyclically from position t + 1.

    Cost model: the walked irrep's dimension is held to WEIGHT_BUDGET, and
    it times N^2, the coordinate comparisons of ``straighten``, to
    DENSE_BUDGET, before any weight is built."""
    spec = i.spec
    if j.spec != spec:
        raise ValueError("weights bound to different specs")
    n, k = spec.n, spec.k
    h = k + n
    cap = min(WEIGHT_BUDGET, DENSE_BUDGET // (n * n))
    dims = [_dimension_within(w.labels, cap) for w in (i, j)]
    walked, other = i, j
    if dims[1] is not None and (dims[0] is None or dims[1] < dims[0]):
        walked, other = j, i
    least = min((d for d in dims if d is not None), default=cap + 1)
    what = f"the number of weights walked to fuse {i} x {j} in su({n})_{k}"
    require_budget(least, cap, what, at_least=True)
    base = shifted_v(other.labels)
    out: dict[Labels, int] = {}
    for x, mult in finite_weight_multiplicities(walked.labels).items():
        quotients, residues = zip(*(divmod(a + b, h) for a, b in zip(base, v_vector(x))))
        hit = straighten(residues)
        if hit is None:
            continue
        sign, mu = hit
        t = -sum(quotients) % n
        if t:
            affine = (k - sum(mu), *mu)
            mu = affine[t + 1 :] + affine[:t]
            if t * (n - 1) % 2:
                sign = -sign
        out[mu] = out.get(mu, 0) + sign * mult
    return [(Weight(spec, mu), c) for mu, c in sorted(out.items()) if c]
