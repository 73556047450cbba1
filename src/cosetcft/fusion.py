"""Fusion rings from the Verlinde formula, and products of based rings.

The structure constants are stored sparsely, as runs over the (i, j)
pairs of their nonzero targets and values (``SparseTensor``).
``verlinde_constants`` sums the Verlinde formula exactly, in a prime field:
no constant is rounded from a float.  ``fusion_ring`` builds one ring per
spec.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .modular import PHASE_BATCH, SMatrix, quantum_dimension, s_matrix
from .weights import (
    DENSE_BUDGET,
    AlgebraSpec,
    conjugate_weight,
    require_budget,
    require_s_matrix_budget,
    shifted_v,
    sigma_apply,
)

KRYLOV_PRIME = 33_554_393  # below 2^25: residue products stay below 2^50
ENTRY_CHUNK = 1 << 14  # entries per step of a pass over the whole tensor
VALUE_DTYPES = tuple(map(np.dtype, (np.int8, np.int16, np.int32, np.int64)))  # narrowest first
POSITION_DTYPES = tuple(map(np.dtype, (np.uint8, np.uint16)))  # narrowest first


@dataclass(frozen=True)
class BasedRing:
    """Based ring over an ordered basis with integer structure constants.

    ``constants`` holds the nonzero N_ij^k as a ``SparseTensor``; ``conj``
    lists the basis index of each element's conjugate, and ``dims`` maps
    each basis element to its dimension.  Each constructor fills ``conj``
    and ``dims`` by its own rule.
    """

    basis: tuple
    constants: SparseTensor
    conj: tuple[int, ...]
    dims: dict
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {b: i for i, b in enumerate(self.basis)})

    @cached_property
    def table(self) -> dict[tuple[int, int], dict[int, int]]:
        """The constants as {(i, j): {k: N_ij^k}}, in (i, j, k) order: a
        view built from ``constants`` on first use, which must not be
        mutated."""
        return self.constants.to_table()

    def index(self, b) -> int:
        try:
            return self._index[b]
        except KeyError:
            raise KeyError(f"{b} not in the ring basis") from None

    def coeff(self, i: int, j: int, k: int) -> int:
        t = self.constants
        run = t.run(i, j)
        if not 0 <= k < t.shape[0]:
            raise IndexError(f"target {k} outside a ring of {t.shape[0]} basis elements")
        at = run.start + int(np.searchsorted(t.k[run], k))
        return int(t.v[at]) if at < run.stop and t.k[at] == k else 0

    def axiom_failures(self) -> list[str]:
        """Based-ring axiom failures of this ring's constants, as
        ``ring_axiom_failures`` describes them; empty when all hold."""
        return ring_axiom_failures(self.constants, self.conj)


@dataclass(frozen=True)
class FusionRing(BasedRing):
    """Verlinde ring over the integrable weights of su(N) at level k."""

    spec: AlgebraSpec

    def sigma_permutation(self, power: int) -> list[int]:
        """Basis permutation of the cyclic automorphism."""
        return [self.index(sigma_apply(power, w)) for w in self.basis]


@dataclass(frozen=True, eq=False)
class SparseTensor:
    """The nonzero entries of an m x m x m integer tensor, as runs over the
    (i, j) pairs: pair p = i * m + j holds entries ``pair_ptr[p]`` to
    ``pair_ptr[p + 1]`` (int32, m^2 + 1 offsets), whose targets ``k`` are
    distinct and increasing and whose values are ``v``.  The entries are
    therefore in increasing (i, j, k) order, and the positions i and j of
    an entry are implied by its run: ``positions`` gives them for a range
    of entries.  ``k`` is stored in the narrowest unsigned type that holds
    m - 1 (uint8 or uint16: past 2^16 elements the constructors refuse, as
    the int32 pair indices would wrap), and ``v`` in the narrowest signed
    type that holds the values; both constructors store these dtypes
    whatever they are given.  Every builder holds m^3 <= DENSE_BUDGET =
    2^24, so m <= 256 and ``k`` is uint8; fusion multiplicities are small
    (at most 14 on su(5)_5 and 4 on the coset (3,3,2)), so values are int8
    and a nonzero takes 2 bytes beside the 4 (m^2 + 1) bytes of offsets.  Code doing arithmetic on
    ``k`` or ``v`` widens it first (``j * m + k``, ``perm[k]``, int64 or
    float64 values): uint8 arithmetic with a Python int wraps silently.

    The offsets are int32 because nnz <= m^3 <= 2^24 < 2^31, which
    ``from_rows`` asserts."""

    shape: tuple[int, int, int]
    pair_ptr: np.ndarray
    k: np.ndarray
    v: np.ndarray

    @classmethod
    def from_entries(cls, m: int, i, j, k, v) -> "SparseTensor":
        """Drop zero values and sort the entries, refusing any position
        outside [0, m).  The sort key (i * m + j) * m + k is taken in int64:
        from m = 1291 on it passes 2^31."""
        i, j, k = (np.asarray(x, dtype=np.int64) for x in (i, j, k))
        for name, x in zip("ijk", (i, j, k)):
            if x.size and not (0 <= x.min() and x.max() < m):
                raise ValueError(f"{name} positions outside [0, {m}): {x.min()} to {x.max()}")
        v = np.asarray(v, dtype=np.int64)
        nonzero = v != 0
        if not nonzero.all():
            i, j, k, v = i[nonzero], j[nonzero], k[nonzero], v[nonzero]
        pair = i * m + j
        key = pair * m + k
        order = np.argsort(key)
        ptr = np.searchsorted(pair[order], np.arange(m * m + 1)).astype(np.int32)
        k = k[order].astype(_position_dtype(m))
        return cls((m, m, m), ptr, k, v[order].astype(_value_dtype(v)))

    @classmethod
    def from_rows(cls, rows: list[tuple[np.ndarray, ...]]) -> "SparseTensor":
        """Join the rows i = 0, 1, ... of an m x m x m tensor, row i given
        as its m pair counts (entries of each pair (i, j), j = 0, 1, ...)
        and its k and v arrays in (j, k) order: the entries arrive in
        (i, j, k) order with no sort, and one cumulative sum of the counts
        gives the run offsets.  The values are joined in the widest of the
        rows' narrowest dtypes, so rows already narrowed by their builder
        are never widened.  The list is emptied, and each field is joined
        and its row arrays dropped before the next, so the rows and the
        joined tensor are not held in full at once."""
        m = len(rows)
        fields = [list(x) for x in zip(*rows)]
        rows.clear()
        ptr = np.zeros(m * m + 1, dtype=np.int32)
        np.cumsum(np.concatenate(fields.pop(0)), out=ptr[1:])
        # unchecked: a row of a block (rows, m, m) has its targets below m
        k = np.concatenate(fields.pop(0), dtype=_position_dtype(m), casting="unsafe")
        value_dtype = max(map(_value_dtype, fields[0]), key=lambda d: d.itemsize)
        v = np.concatenate(fields.pop(0), dtype=value_dtype)
        assert int(ptr[-1]) == v.size < 2**31, "run offsets are int32"
        return cls((m, m, m), ptr, k, v)

    def positions(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The int32 positions i and j of entries ``start`` to ``stop``: each
        pair's run, clipped to the range, repeats its pair index."""
        if start >= stop:
            return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
        ptr = self.pair_ptr
        entry = ptr.dtype.type  # searching for a Python int costs ~8x more
        first = int(ptr.searchsorted(entry(start), "right")) - 1  # holds entry start
        end = int(ptr.searchsorted(entry(stop)))  # one past the pair holding entry stop - 1
        bounds = ptr[first : end + 1].copy()
        bounds[0], bounds[-1] = start, stop  # only the end runs reach past the range
        pair = np.arange(first, end, dtype=np.int32).repeat(bounds[1:] - bounds[:-1])
        return np.divmod(pair, np.int32(self.shape[0]))

    def pair_steps(self):
        """(p, q) for each step of a pass over the tensor: the pairs p to q,
        whose whole runs hold at least one entry, cut at the first run
        starting at or after each multiple of ENTRY_CHUNK."""
        ptr = self.pair_ptr
        cuts = ptr.searchsorted(np.arange(0, self.v.size, ENTRY_CHUNK)).tolist()
        for p, q in zip(cuts, cuts[1:] + [len(ptr) - 1]):
            if ptr[p] < ptr[q]:
                yield p, q

    def chunks(self):
        """(entries, i, j) for each of the ``pair_steps``: the slice of its
        entries and their positions."""
        for p, q in self.pair_steps():
            start, stop = int(self.pair_ptr[p]), int(self.pair_ptr[q])
            yield (slice(start, stop), *self.positions(start, stop))

    def run(self, i: int, j: int) -> slice:
        """The entries of pair (i, j), ordered by k."""
        m = self.shape[0]
        if not (0 <= i < m and 0 <= j < m):
            raise IndexError(f"pair ({i}, {j}) outside a tensor of {m} basis elements")
        p = i * m + j
        return slice(int(self.pair_ptr[p]), int(self.pair_ptr[p + 1]))

    def to_table(self) -> dict[tuple[int, int], dict[int, int]]:
        """The entries as {(i, j): {k: value}}, in (i, j, k) order."""
        m = self.shape[0]
        ptr = self.pair_ptr.tolist()
        k, v = self.k.tolist(), self.v.tolist()
        return {
            divmod(p, m): dict(zip(k[ptr[p] : ptr[p + 1]], v[ptr[p] : ptr[p + 1]]))
            for p in np.flatnonzero(np.diff(self.pair_ptr)).tolist()
        }

    def dense(self) -> np.ndarray:
        """The m x m x m array, held to DENSE_BUDGET before it is allocated."""
        m = self.shape[0]
        what = f"the size of the dense array of a ring of {m} basis elements"
        require_budget(m**3, DENSE_BUDGET, what)
        t = np.zeros(self.shape, dtype=np.int64)
        for run, i, j in self.chunks():
            t[i, j, self.k[run]] = self.v[run]
        return t

    # rings holding equal constants compare equal
    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        mine = (self.pair_ptr, self.k, self.v)
        theirs = (other.pair_ptr, other.k, other.v)
        return self.shape == other.shape and all(map(np.array_equal, mine, theirs))


def _entry_pairs(tensor: SparseTensor, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions i and j of the entries at the increasing indices ``entries``."""
    pair = np.searchsorted(tensor.pair_ptr, entries, side="right") - 1
    return np.divmod(pair, tensor.shape[0])


def _row_nonzeros(block: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """``SparseTensor.from_rows`` rows of a block (rows, m, m): int32 pair
    counts, k in the narrowest unsigned dtype and the values in theirs."""
    m = block.shape[1]
    nonzero = block != 0
    counts = nonzero.sum(axis=2, dtype=np.int32)
    flat = np.flatnonzero(nonzero)
    del nonzero
    values = block.reshape(-1)[flat]
    k = (flat % m).astype(_position_dtype(m))
    values = values.astype(_value_dtype(values))
    ends = [0, *np.cumsum(counts.sum(axis=1)).tolist()]
    return [
        (counts[r], k[a:b], values[a:b]) for r, (a, b) in enumerate(zip(ends, ends[1:]))
    ]


def _position_dtype(m: int) -> np.dtype:
    """The narrowest unsigned integer dtype holding every index below m.
    Past 2^16 elements none is offered: the int32 pair indices i * m + j
    wrap from m = 46341 on."""
    for dtype in POSITION_DTYPES:
        if m - 1 <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"a tensor of {m} basis elements: its pair indices pass int32")


def _value_dtype(values: np.ndarray) -> np.dtype:
    """The narrowest signed integer dtype holding every value (int8 when there are none)."""
    low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
    return next(d for d in VALUE_DTYPES if np.iinfo(d).min <= low and high <= np.iinfo(d).max)


def _largest_magnitude(values: np.ndarray) -> int:
    """max |v| as a Python int: no dtype's minimum wraps, as np.abs would make it."""
    return max(-int(values.min()), int(values.max())) if values.size else 0


def verlinde_constants(basis: tuple, conj) -> SparseTensor:
    """Verlinde constants N_ij^k = sum_mu S_i,mu S_j,mu conj(S_k,mu) / S_0,mu
    over ``basis`` (one spec's weights, vacuum first), ``conj[k]`` indexing
    k's conjugate.  Summed in F_p, p = 1 mod N h, omega of exact order N h
    standing for exp(2 pi i / (N h)), zeta = omega^N: N_ij^k = sum_mu w_mu
    chi_i chi_j chi_conj(k), with chi_lam(mu) = S_lam,mu / S_0,mu, ``s_matrix``'s
    alternant ratio with its trace fix on row 0, and w = S_0,mu^2, the square
    of ``weights.vacuum_row``'s product, (2 sin(pi c / h))^2 read as
    2 - zeta^c - zeta^-c.  Row i's block is one float64 GEMM, (chi w chi_i) @ chi[conj]^T.

    Exact: the map to F_p is a ring homomorphism on the cyclotomic integers,
    and no divisor maps to 0: the alternants' denominators multiply
    zeta^-t_a - zeta^-t_b, 2 - zeta^c - zeta^-c = -zeta^-c (1 - zeta^c)^2
    with 0 < c < h, and p divides no N h^(N-1).  0 <= N_ij^k <= max d^2 < p,
    as sum_k N_ij^k d_k = d_i d_j with d_k >= 1 (ArithmeticError otherwise),
    and m <= 256, p < 2^21 keep every float64 partial sum below 2^53.  The
    m^3 sums and m^2 N^2 phases (PHASE_BATCH a batch) are held to budget."""
    spec, m = basis[0].spec, len(basis)
    n, h = spec.n, spec.k + spec.n
    require_budget(m**3, DENSE_BUDGET, f"the number of Verlinde sums of {m} weights")
    require_s_matrix_budget(spec)
    p, powers = _prime_field(n * h)
    t = np.array([shifted_v(w.labels) for w in basis])
    c = np.stack([t[:, a] - t[:, b] for a, b in itertools.combinations(range(n), 2)])
    sines = np.sin(np.pi / h * c)  # their ratios to the vacuum's multiply to d
    w = np.full(m, pow(n * h ** (n - 1), -1, p))
    for factor in 2 - powers[n * c % (n * h)] - powers[-n * c % (n * h)]:
        w = w * factor % p
    if (sines / sines[:, :1]).prod(axis=0).max() ** 2 >= p or not w.all():
        raise ArithmeticError(f"the Verlinde sums of {spec.name} are not exact mod {p}")
    s, step = t.sum(axis=1), max(1, PHASE_BATCH // (m * n * n))
    num, den = np.empty((2, m, m), dtype=np.int64)
    for start in range(0, m, step):
        lam = slice(start, start + step)
        phases = t[lam].T[:, None, :, None] * (-n * t.T)[None, :, None, :]
        phases[0] += np.outer(s[lam] - s[0], s)  # over (a, b, lam, mu)
        dets = _determinants(powers[phases % (n * h)].reshape(n, n, -1), p)
        num[lam], den[lam] = (x.reshape(-1, m) for x in dets)
    x, inverse = den * num[0] % p, 1  # inverse = x^(p - 2), by square and multiply
    for bit in bin(p - 2)[2:]:
        inverse = inverse * inverse % p * x % p if bit == "1" else inverse * inverse % p
    chi = num * den[0] % p * inverse % p
    del phases, num, den, x, inverse  # the row loop and the join hold the most
    right = chi[list(conj)].T.astype(np.float64)
    rows: list[tuple[np.ndarray, ...]] = []
    step = max(1, ENTRY_CHUNK // (m * m))  # rows a step: one, or all of a small ring's
    for start in range(0, m, step):
        left = _mod(chi * (chi[start : start + step, None, :] * w % p), p).astype(np.float64)
        rows += _row_nonzeros(_mod((left @ right).astype(np.int64), p))
    del chi, right, left  # before the join, which holds the most
    return SparseTensor.from_rows(rows)


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    x -= x // p * p  # in place: numpy divides faster than it takes remainders
    return x


def _determinants(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Determinants num / den mod p < 2^31 of mats[:, :, x], by fraction-free elimination."""
    num, den = np.ones((2, mats.shape[2]), dtype=np.int64)
    while len(mats) > 1:
        zero = np.flatnonzero(mats[0, 0] == 0)
        if zero.size:  # add the first row below with a nonzero in the pivot's column
            below = 1 + (mats[1:, 0, zero] != 0).argmax(axis=0)
            mats[0][:, zero] = (mats[0][:, zero] + mats[below, :, zero].T) % p
        pivot = mats[0, 0]
        num = num * pivot % p
        den = den * num % p  # each pivot, once per row below it
        rest = mats[1:, 1:] * pivot
        rest -= mats[1:, :1] * mats[:1, 1:]
        mats = _mod(rest, p)
    return num * mats[0, 0] % p, den


@lru_cache(maxsize=None)
def _prime_field(order: int) -> tuple[int, np.ndarray]:
    """The largest prime p < 2^21, p = 1 mod order (a gcd with the primes below
    29 screens trial division), and omega^e, e < order, omega of exact order ``order``."""
    p = (2**21 - 2) // order * order + 1
    while math.gcd(p, 223_092_870) != 1 or not (p % np.arange(3, math.isqrt(p) + 1, 2)).all():
        p -= order
    for a in itertools.count(2):
        omega = pow(a, (p - 1) // order, p)
        if all(pow(omega, order // q, p) != 1 for q in range(2, order + 1) if order % q == 0):
            return p, np.array([pow(omega, e, p) for e in range(order)])


def verlinde_tensor(s: SMatrix) -> FusionRing:
    """The exact ``verlinde_constants`` ring, conjugates and dimensions read off ``s``."""
    conj = tuple(s.index(conjugate_weight(w)) for w in s.basis)
    dims = {w: quantum_dimension(s, w) for w in s.basis}
    return FusionRing(s.basis, verlinde_constants(s.basis, conj), conj, dims, s.spec)


@lru_cache(maxsize=None)
def fusion_ring(spec: AlgebraSpec) -> FusionRing:
    """Verlinde fusion ring of su(N) at level k, memoized like ``s_matrix``,
    one ring per spec: every caller shares the returned ring, so it must not
    be mutated."""
    return verlinde_tensor(s_matrix(spec))


def fuse(ring: BasedRing, i, j) -> list[tuple]:
    """Nonzero fusion channels of the basis elements i x j with
    multiplicities."""
    t = ring.constants
    run = t.run(ring.index(i), ring.index(j))
    return [(ring.basis[k], c) for k, c in zip(t.k[run].tolist(), t.v[run].tolist())]


def product_ring(rings: list[BasedRing]) -> BasedRing:
    """Cartesian-product ring: the basis is the tuples of factor basis
    elements, the first factor varying slowest; constants, conjugates and
    dimensions multiply factorwise, as ``orbit_ring`` gives them over
    one-member orbits.  A single ring is returned as is."""
    if not rings:
        raise ValueError("need at least one ring")
    if len(rings) == 1:
        return rings[0]
    indices = itertools.product(*(range(len(ring.basis)) for ring in rings))
    basis = tuple(itertools.product(*(ring.basis for ring in rings)))
    dims = {
        b: math.prod(ring.dims[x] for ring, x in zip(rings, b)) for b in basis
    }
    return orbit_ring(rings, [[t] for t in indices], basis, dims)


def orbit_ring(factors: list[BasedRing], orbits, basis: tuple, dims: dict) -> BasedRing:
    """Ring on orbits of the product of the factor rings' bases, with
    constants summed over the target orbit:
    C_[a][b]^[c] = sum_s prod_f D_f[x_f(a), x_f(b), x_f(s)], where a and b
    are read at their representatives, s runs over the members of orbit c,
    D_f is the dense factor tensor and x_f the factor-f basis index.

    ``orbits[c]`` lists orbit c's members as tuples of factor basis indices,
    representative first, and every orbit has the same size n.  Each factor
    lists one column per (member position j, orbit c), at j*m + c.  For
    each first index a, every factor gives an m x n*m block, its rows
    x_f(a), x_f(b) gathered before its columns; the blocks' product, summed
    over j, is the slab C_[a]..^..  Each slab's nonzero count per b gives
    row a's pair counts, its nonzeros are read in C order as targets c and
    values, and the slabs are joined in order of a, so the entries arrive
    in (a, b, c) order with no sort and no per-entry Python work.  An orbit's
    conjugate is the orbit holding its representative's factorwise
    conjugate.  ``basis`` names the orbits and ``dims`` maps each name to
    its dimension.

    Every slab entry is a sum of n products, so it is at most
    n * prod_f max |D_f|; when that is below 2^31 the blocks are gathered,
    multiplied and summed in int32, else in int64.  Each slab's values are
    narrowed before the join, as ``SparseTensor`` stores them (targets
    too: uint8 below 257 orbits).
    """
    m, size = len(orbits), len(orbits[0])
    members = np.array(orbits, dtype=np.int64)  # (orbit, position, factor)
    reps = members[:, 0]
    by_position = members.transpose(1, 0, 2).reshape(m * size, len(factors))
    top = size * math.prod(_largest_magnitude(ring.constants.v) for ring in factors)
    dtype = np.int32 if top < 2**31 else np.int64
    gathers = [
        (ring.constants.dense().astype(dtype, copy=False), reps[:, f], by_position[:, f])
        for f, ring in enumerate(factors)
    ]
    rows: list[tuple[np.ndarray, ...]] = []
    for a in range(m):
        blocks = (dense[idx[a], idx][:, cols] for dense, idx, cols in gathers)
        slab = next(blocks)
        for block in blocks:
            slab *= block
        slab = slab.reshape(m, size, m).sum(axis=1, dtype=dtype)
        rows += _row_nonzeros(slab[None])
    del slab
    constants = SparseTensor.from_rows(rows)
    orbit_of = {s: o for o, orbit in enumerate(orbits) for s in orbit}
    conj = tuple(
        orbit_of[tuple(ring.conj[x] for ring, x in zip(factors, orbit[0]))]
        for orbit in orbits
    )
    return BasedRing(tuple(basis), constants, conj, dims)


@dataclass
class SimpleCurrentReport:
    passed: bool
    checked: int
    failures: list[tuple[int, int, int]]  # (power, i, i') with wrong coefficient


def simple_current_check(ring: FusionRing) -> SimpleCurrentReport:
    """Verify the translation rule: fusing conj(i) with i' hits the
    sigma-image of the vacuum exactly when i' is the sigma-image of i.

    For each power t the m x m slice N_ab^(sigma^t(0)) is read off the
    sparse entries; its rows taken at conj(i) must be the permutation
    matrix of sigma^t.  Failures are listed in (t, i, i') order."""
    c = ring.constants
    m = len(ring.basis)
    conj = np.array(ring.conj)
    failures = []
    for t in range(ring.spec.n):
        perm = ring.sigma_permutation(t)
        at = np.flatnonzero(c.k == perm[0])
        coeffs = np.zeros((m, m), dtype=np.int64)
        coeffs[_entry_pairs(c, at)] = c.v[at]
        expected = np.zeros((m, m), dtype=np.int64)
        expected[np.arange(m), perm] = 1
        wrong = np.argwhere(coeffs[conj] != expected).tolist()
        failures.extend((t, i, ip) for i, ip in wrong)
    return SimpleCurrentReport(not failures, ring.spec.n * m * m, failures)


def ring_axiom_failures(tensor: SparseTensor, conj_perm) -> list[str]:
    """Exhaustive based-ring axiom check on the structure constants, whose
    unit is basis element 0, as every ring constructor here orders it: the
    vacuum weight, the vacuum orbit, the vacuum torus sector, the Maverick
    "1", and the tuple of factor units in a product.

    Returns human-readable failure descriptions; empty means all axioms hold.

    Associativity is tested only on a commutative ring.  Write the fusion
    matrices (N_k)_xy = N_kx^y.  Commutativity gives ((b_i b_j) b_k)_l =
    (N_i N_k)_jl and (b_i (b_j b_k))_l = (N_k N_i)_jl, so the ring is
    associative exactly when every pair of fusion matrices commutes.  When
    commutativity fails the associativity step is skipped.

    A pass is certified in O(m^4) by one integer combination A = sum_i c_i N_i
    with fixed coefficients: if A commutes with every N_k and is
    nonderogatory, every N_k lies in the commutant of A, which is Q[A], so
    all N_k commute.  The certificate is exact on three counts:

    * A is scatter-added in int64; A N_k and N_k A are float64 products, one
      k at a time, whose partial sums are bounded by max c * max_x
      sum_ij |N_xi^j| * max_ij sum_l |N_ij^l|; the certificate declines
      unless that bound is below 2^53, where float64 arithmetic on integers
      is exact.
    * A is nonderogatory when the Krylov matrix with rows e_0, e_0 A, ...,
      e_0 A^(m-1) has full rank (for a unital ring, the coordinates of the
      powers of sum_i c_i b_i).  The rank is taken modulo a prime p, and a
      determinant that is nonzero mod p is nonzero over the integers.
    * Residues are below p < 2^25, so each int64 product is below 2^50 and a
      sum of m of them stays below 2^50 * m, far from overflow.

    The certificate can only confirm a pass.  When it declines, a per-row
    scan decides and names the failing row: row i passes when lhs_i[j,k,l] =
    sum_m N_ij^m N_mk^l, one float64 GEMM of the m x m slice against the
    m x m^2 flattened tensor, equals its own (j,k) transpose.  Commutativity
    makes ((b_i b_j) b_k) symmetric in (i,j); symmetry in (j,k) as well gives
    full S3 symmetry, which is associativity.  The scan costs m^5 flops and
    O(m^3) memory.  Both paths need every partial sum of ((ij)k) below 2^53:
    every entry is at most max_ij sum_m |N_ij^m| * max |N|, and when that
    bound reaches 2^53 the check reports a failure instead of contracting.

    The unit, commutativity and conjugation checks compare the nonzero
    entries as arrays, and the certificate builds one m x m fusion matrix at
    a time, so memory is O(nnz + m^2).  Only the scan makes an m x m x m
    array, held to DENSE_BUDGET.
    """
    out = []
    m = tensor.shape[0]
    ptr, k, v = tensor.pair_ptr, tensor.k, tensor.v
    negative = v.size > 0 and v.min() < 0
    if negative:
        out.append("negative structure constant")
    basis = np.arange(m)
    unit_row = slice(0, int(ptr[m]))  # the entries with i = 0
    unit_cols = tensor.positions(0, unit_row.stop)[1]
    if not _ones_exactly_at(unit_cols, k[unit_row], v[unit_row], basis, basis):
        out.append("unit row is not the identity permutation")
    pair_sizes = np.diff(ptr).reshape(m, m)
    commutative = np.array_equal(pair_sizes, pair_sizes.T)
    # equal run lengths: entry r of run (i, j) must equal entry r of (j, i),
    # compared ENTRY_CHUNK entries at a time
    for run, rows, cols in tensor.chunks() if commutative else ():
        mirror = ptr[cols * m + rows] - ptr[rows * m + cols]
        mirror += np.arange(run.start, run.stop, dtype=mirror.dtype)
        if not (np.array_equal(k[mirror], k[run]) and np.array_equal(v[mirror], v[run])):
            commutative = False
            break
    if not commutative:
        out.append("commutativity fails")
    to_unit = np.flatnonzero(k == 0)
    conj_rows = np.arange(len(conj_perm))
    if not _ones_exactly_at(*_entry_pairs(tensor, to_unit), v[to_unit], conj_rows, conj_perm):
        out.append("conjugation axiom N_ij^0 = delta(j, conj i) fails")
    if not commutative:
        return out
    # every row sum is at least the largest magnitude, so from 2^26.5 on the
    # bound fails unsummed; below it, the int64 row sums cannot wrap
    largest = _largest_magnitude(v)
    row_sums = _magnitude_row_sums(tensor) if largest**2 < 2**53 else None
    if row_sums is None or int(row_sums.max()) * largest >= 2**53:
        out.append("structure constants too large for an exact associativity check")
        return out
    if _fusion_matrices_commute(tensor, row_sums):
        return out
    row = _first_nonassociative_row(tensor)
    if row is not None:
        out.append(f"associativity fails for left factor index {row}")
    return out


def _magnitude_row_sums(tensor: SparseTensor) -> np.ndarray:
    """The m x m int64 sums sum_k |N_ij^k|, taken whole runs at a time,
    about ENTRY_CHUNK entries a step, each step's values widened to int64
    before |.|, so that no dtype's minimum wraps and no full-width copy of
    the values is made."""
    m = tensor.shape[0]
    ptr = tensor.pair_ptr
    sums = np.zeros(m * m, dtype=np.int64)
    for p, q in tensor.pair_steps():
        live = np.diff(ptr[p : q + 1]) > 0
        magnitude = np.abs(tensor.v[ptr[p] : ptr[q]], dtype=np.int64)
        sums[p:q][live] = np.add.reduceat(magnitude, ptr[p:q][live] - ptr[p])
    return sums.reshape(m, m)


def _ones_exactly_at(rows, cols, values, want_rows, want_cols) -> bool:
    """True when the entries at (rows, cols) are exactly ones at (want_rows,
    want_cols), in the same order."""
    return (
        np.array_equal(rows, want_rows)
        and np.array_equal(cols, want_cols)
        and bool((values == 1).all())
    )


def _fusion_matrices_commute(tensor: SparseTensor, row_sums: np.ndarray) -> bool:
    """True when the commuting-matrix certificate proves that all fusion
    matrices of the commutative tensor commute; False means undecided."""
    m = tensor.shape[0]
    ptr, k, v = tensor.pair_ptr, tensor.k, tensor.v
    # a linear sequence such as 1..m makes A derogatory on symmetric rings
    coeffs = np.arange(1, m + 1) ** 3 % 65521 + 1
    # Python ints: m row sums, each below 2^53, can pass 2^63 in int64
    slice_total = int(row_sums.sum(axis=1, dtype=object).max())
    if int(coeffs.max()) * slice_total * int(row_sums.max()) >= 2**53:
        return False
    a = np.zeros(m * m, dtype=np.int64)
    for run, i, j in tensor.chunks():
        np.add.at(a, j * m + k[run], np.multiply(coeffs[i], v[run], dtype=np.int64))
    a = a.reshape(m, m)
    a_float = a.astype(np.float64)
    row_starts = ptr[::m].tolist()  # row i is entries row_starts[i] on
    n_k = np.zeros((m, m))
    for start, stop in zip(row_starts[:-1], row_starts[1:]):
        n_k[:] = 0
        n_k[tensor.positions(start, stop)[1], k[start:stop]] = v[start:stop]
        if not np.array_equal(a_float @ n_k, n_k @ a_float):
            return False
    del a_float, n_k
    p = KRYLOV_PRIME
    a %= p
    krylov = np.empty((m, m), dtype=np.int64)
    vec = np.zeros(m, dtype=np.int64)
    vec[0] = 1
    for row in range(m):
        krylov[row] = vec
        vec = vec @ a % p
    del a
    return bool(_determinants(krylov[:, :, None], p)[0][0])  # full rank mod p


def _first_nonassociative_row(tensor: SparseTensor) -> int | None:
    """First row i whose ((b_i b_j) b_k) is not symmetric in (j,k), or None.
    The only axiom step that densifies the tensor."""
    m = tensor.shape[0]
    t = tensor.dense().astype(np.float64)
    flat = t.reshape(m, m * m)
    for i in range(m):
        lhs = (t[i] @ flat).reshape(m, m, m)  # sum_m N_ij^m N_mk^l
        if not np.array_equal(lhs, lhs.transpose(1, 0, 2)):
            return i
    return None


def dimension_homomorphism_residual(ring: BasedRing) -> float:
    """Worst |sum_k N_ij^k d_k - d_i d_j| over all basis pairs (i, j), with
    the dimensions d the ring carries.  Each pair's sum is added left to
    right over its run, in k order, so the result does not depend on how
    numpy would group a reduction."""
    t = ring.constants
    d = np.array([ring.dims[b] for b in ring.basis], dtype=float)
    starts = t.pair_ptr[:-1]
    sizes = np.diff(t.pair_ptr)
    totals = np.zeros(len(sizes))
    for r in range(int(sizes.max(initial=0))):
        live = np.flatnonzero(sizes > r)
        at = starts[live] + r
        totals[live] += np.multiply(t.v[at], d[t.k[at]], dtype=np.float64)
    residuals = np.abs(totals - np.outer(d, d).ravel())
    return float(residuals.max(initial=0.0))
