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
from .report import SelfCheckFailed
from .weights import (
    DENSE_BUDGET,
    AlgebraSpec,
    conjugate_weight,
    require_budget,
    require_s_matrix_budget,
    shifted_v,
    sigma_apply,
    vacuum_row,
)

ENTRY_CHUNK = 1 << 14  # a pass over the tensor steps by whole rows, cut past each multiple
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

    def axiom_failures(self) -> list[str]:
        """Based-ring axiom failures of this ring's constants, as
        ``ring_axiom_failures`` describes them; empty when all hold."""
        return ring_axiom_failures(self.constants, self.conj)


@dataclass(frozen=True)
class FusionRing(BasedRing):
    """Verlinde ring over the integrable weights of su(N) at level k."""

    spec: AlgebraSpec

    @cached_property
    def _sigma(self) -> np.ndarray:
        return np.array([self.index(sigma_apply(1, w)) for w in self.basis])

    def sigma_permutation(self, power: int) -> list[int]:
        """Basis permutation of the cyclic automorphism applied ``power``
        times: sigma's own permutation, composed power mod N times."""
        perm = np.arange(len(self.basis))
        for _ in range(power % self.spec.n):
            perm = self._sigma[perm]
        return perm.tolist()


@dataclass(frozen=True, eq=False)
class SparseTensor:
    """The nonzero entries of an m x m x m integer tensor, as runs over the
    (i, j) pairs: pair p = i * m + j holds entries ``pair_ptr[p]`` to
    ``pair_ptr[p + 1]`` (int32, m^2 + 1 offsets), whose targets ``k`` are
    distinct and increasing and whose values are ``v``.  The entries are
    therefore in increasing (i, j, k) order, and the positions i and j of
    an entry are implied by its run.  ``k`` is stored in the narrowest
    unsigned type that holds m - 1 (uint8 or uint16: past 2^16 elements
    ``from_blocks`` refuses, as the int32 pair indices would wrap), and
    ``v`` in the narrowest signed type that holds the values; ``from_blocks``,
    the one constructor every builder calls, stores these dtypes whatever
    its blocks hold.  Every ring builder
    holds m^3 <= DENSE_BUDGET = 2^24, so m <= 256 and ``k`` is uint8; fusion
    multiplicities are small (at most 14 on su(5)_5 and 4 on the coset
    (3,3,2)), so values are int8 and a nonzero takes 2 bytes beside the
    4 (m^2 + 1) bytes of offsets.  The layout is this module's own: other
    modules read the entries through ``run``, ``row``, ``dense`` and
    ``to_table``, and code here widens ``k`` or ``v`` before arithmetic
    (uint8 arithmetic with a Python int wraps silently).

    The offsets are int32 because nnz <= m^3 <= 2^24 < 2^31.  The
    constructor refuses offsets that are not m^2 + 1, starting at 0,
    non-decreasing and ending at the length of ``k`` and ``v``: the readers
    trust them."""

    shape: tuple[int, int, int]
    pair_ptr: np.ndarray
    k: np.ndarray
    v: np.ndarray

    @classmethod
    def from_blocks(cls, m: int, blocks) -> "SparseTensor":
        """The one constructor: join the dense integer blocks (rows, m, m)
        that hold rows 0, 1, ... of an m x m x m tensor, in order.  Each
        block's nonzeros, read in C order, are its entries in (i, j, k)
        order, so nothing is sorted; their targets and values are narrowed
        as each block arrives, so the blocks need not be held at once.  The
        pair counts turn into int32 offsets by one cumulative sum, the
        values are joined in the widest of the blocks' dtypes, and each
        field's parts are dropped before the next field is joined.  A block
        of another shape or of a dtype that is not integer is refused, so no
        target reaches m and no value is truncated."""
        position = _position_dtype(m)
        # an empty part of each field first, so that no blocks join to no entries
        counts, k, v = [np.zeros(0, np.int32)], [np.zeros(0, position)], [np.zeros(0, np.int8)]
        for block in blocks:
            if block.shape[1:] != (m, m):
                raise ValueError(f"a block of shape {block.shape}, not (rows, {m}, {m})")
            if block.dtype.kind not in "iu":
                raise ValueError(f"a block of dtype {block.dtype}, not integer")
            nonzero = block != 0
            counts.append(nonzero.sum(axis=2, dtype=np.int32).ravel())
            flat = np.flatnonzero(nonzero)
            del nonzero
            values = block.reshape(-1)[flat]
            k.append((flat % m).astype(position))
            low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
            v.append(values.astype(_value_dtype(low, high)))
            del block, flat, values  # before the next block is made
        ptr = np.empty(sum(map(len, counts)) + 1, dtype=np.int32)
        ptr[0] = 0
        np.cumsum(np.concatenate(counts), out=ptr[1:])
        del counts
        targets = np.concatenate(k)
        del k
        values = np.concatenate(v)  # promoted to the widest part's dtype
        del v
        return cls((m, m, m), ptr, targets, values)

    def __post_init__(self):
        m, ptr = self.shape[0], self.pair_ptr
        if len(ptr) != m * m + 1:
            raise ValueError(f"{len(ptr)} run offsets for {m} basis elements, not {m * m + 1}")
        if ptr[0] != 0:
            raise ValueError(f"the first run offset is {ptr[0]}, not 0")
        if (ptr[1:] < ptr[:-1]).any():
            raise ValueError("the run offsets decrease")
        if not ptr[-1] == len(self.k) == len(self.v):
            raise ValueError(f"the last run offset {ptr[-1]} is not the length of k and v")

    def _rows(self, a: int, b: int) -> tuple[slice, np.ndarray, np.ndarray]:
        """Rows a to b - 1: the slice of their entries and the int32
        positions i and j of each, its pair index repeated over its run."""
        m = self.shape[0]
        ptr = self.pair_ptr[a * m : b * m + 1]
        j = np.arange(a * m, b * m, dtype=np.int32).repeat(ptr[1:] - ptr[:-1])
        i = j // m  # 3x faster than np.divmod, whose remainder is slow
        j -= i * m
        return slice(int(ptr[0]), int(ptr[-1])), i, j

    def _row_cuts(self):
        """The rows a to b - 1 of each step of a pass over the tensor: whole
        rows, cut at the first row starting at or after each multiple of
        ENTRY_CHUNK, and holding at least one entry."""
        m = self.shape[0]
        row_ptr = self.pair_ptr[::m]
        cuts = row_ptr.searchsorted(np.arange(0, self.v.size, ENTRY_CHUNK)).tolist()
        for a, b in zip(cuts, cuts[1:] + [m]):
            if row_ptr[a] < row_ptr[b]:
                yield a, b

    def _blocks(self):
        """``_rows`` for each step of ``_row_cuts``."""
        return (self._rows(a, b) for a, b in self._row_cuts())

    def run(self, i: int, j: int) -> slice:
        """The entries of pair (i, j), ordered by k."""
        m = self.shape[0]
        if not (0 <= i < m and 0 <= j < m):
            raise IndexError(f"pair ({i}, {j}) outside a tensor of {m} basis elements")
        p = i * m + j
        return slice(int(self.pair_ptr[p]), int(self.pair_ptr[p + 1]))

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row i's entries as (j, k, v) in (j, k) order: int32 j, each j
        repeated over its pair's run, and int64 k and v, so that arithmetic
        with a Python int cannot wrap."""
        m = self.shape[0]
        if not 0 <= i < m:
            raise IndexError(f"row {i} outside a tensor of {m} basis elements")
        run, _, j = self._rows(i, i + 1)
        return j, self.k[run].astype(np.int64), self.v[run].astype(np.int64)

    def to_table(self) -> dict[tuple[int, int], dict[int, int]]:
        """The entries as {(i, j): {k: value}}, in (i, j, k) order."""
        table = {}
        for i in range(self.shape[0]):
            entries = zip(*(x.tolist() for x in self.row(i)))
            for j, pair in itertools.groupby(entries, key=lambda entry: entry[0]):
                table[i, j] = {k: v for _, k, v in pair}
        return table

    def dense(self) -> np.ndarray:
        """The m x m x m array, held to DENSE_BUDGET before it is allocated."""
        m = self.shape[0]
        what = f"the size of the dense array of a ring of {m} basis elements"
        require_budget(m**3, DENSE_BUDGET, what)
        t = np.zeros(self.shape, dtype=np.int64)
        for run, i, j in self._blocks():
            t[i, j, self.k[run]] = self.v[run]
        return t

    # rings holding equal constants compare equal
    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        mine = (self.pair_ptr, self.k, self.v)
        theirs = (other.pair_ptr, other.k, other.v)
        return self.shape == other.shape and all(map(np.array_equal, mine, theirs))


def _position_dtype(m: int) -> np.dtype:
    """The narrowest unsigned integer dtype holding every index below m.
    Past 2^16 elements none is offered: the int32 pair indices i * m + j
    wrap from m = 46341 on."""
    for dtype in POSITION_DTYPES:
        if m - 1 <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"a tensor of {m} basis elements: its pair indices pass int32")


def _value_dtype(low: int, high: int) -> np.dtype:
    """The narrowest signed integer dtype holding every integer from low to
    high: the one width rule for what this module stores or multiplies."""
    for dtype in VALUE_DTYPES:
        if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"values from {low} to {high}: they pass int64")


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
    2 - zeta^c - zeta^-c.  Each step of max(1, ENTRY_CHUNK // m^2) rows i is
    one float64 GEMM, (chi w chi_i) @ chi[conj]^T.

    Exact: the map to F_p is a ring homomorphism on the cyclotomic integers,
    and no divisor maps to 0: the alternants' denominators multiply
    zeta^-t_a - zeta^-t_b, 2 - zeta^c - zeta^-c = -zeta^-c (1 - zeta^c)^2
    with 0 < c < h, and p divides no N h^(N-1).  0 <= N_ij^k <= max d^2 < p,
    as sum_k N_ij^k d_k = d_i d_j with d_k >= 1 (SelfCheckFailed otherwise),
    and m <= 256, p < 2^21 keep every float64 partial sum below 2^53.  The
    m^3 sums and m^2 N^2 phases (PHASE_BATCH a batch) are held to budget."""
    spec, m = basis[0].spec, len(basis)
    n, h = spec.n, spec.k + spec.n
    require_budget(m**3, DENSE_BUDGET, f"the number of Verlinde sums of {m} weights")
    require_s_matrix_budget(spec)
    p, powers = _prime_field(n * h)
    t = np.array([shifted_v(w.labels) for w in basis])
    c = np.stack([t[:, a] - t[:, b] for a, b in itertools.combinations(range(n), 2)])
    w = np.full(m, pow(n * h ** (n - 1), -1, p))
    for factor in 2 - powers[n * c % (n * h)] - powers[-n * c % (n * h)]:
        w = w * factor % p
    row = vacuum_row(spec)
    if not (all((d / row[0]) ** 2 < p for d in row) and w.all()):  # a NaN fails
        raise SelfCheckFailed(f"the Verlinde sums of {spec.name} are not exact mod {p}")
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
    blocks = _verlinde_blocks(num * den[0] % p * inverse % p, w, conj, p)
    del phases, num, den, x, inverse  # the blocks and the join hold the most
    return SparseTensor.from_blocks(m, blocks)


def _verlinde_blocks(chi: np.ndarray, w: np.ndarray, conj, p: int):
    """The blocks (rows, m, m) of ``verlinde_constants``, one GEMM each, in
    order of i.  The generator owns chi and the GEMM factors, so they are
    freed when it ends, before the join."""
    m = len(chi)
    right = chi[list(conj)].T.astype(np.float64)
    step = max(1, ENTRY_CHUNK // (m * m))  # rows a step: one, or all of a small ring's
    for start in range(0, m, step):
        left = _mod(chi * (chi[start : start + step, None, :] * w % p), p).astype(np.float64)
        yield _mod((left @ right).astype(np.int64), p)


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
    over j, is the slab C_[a]..^.., which ``SparseTensor.from_blocks``
    joins in order of a, so the entries arrive in (a, b, c) order with no
    sort and no per-entry Python work.  An orbit's conjugate is the orbit
    holding its representative's factorwise conjugate.  ``basis`` names the
    orbits and ``dims`` maps each name to its dimension.

    Every slab entry is a sum of n products, so its magnitude is at most
    top = n * prod_f max |D_f|.  The blocks are gathered, multiplied and
    summed in ``_value_dtype(-top, top)``, the narrowest width that holds
    every product and sum (int8 on the benchmark's cosets); a top past
    int64 is refused with ValueError before any factor is gathered, where
    the products would wrap.  So are m^3 orbit products past DENSE_BUDGET:
    every ring built here has m <= 256.
    """
    if not orbits:
        raise ValueError("need at least one orbit: every ring keeps its unit at index 0")
    m = len(orbits)
    require_budget(m**3, DENSE_BUDGET, f"the number of orbit products of a ring of {m} orbits")
    slabs = _orbit_slabs(factors, np.array(orbits, dtype=np.int64))
    constants = SparseTensor.from_blocks(m, slabs)
    orbit_of = {s: o for o, orbit in enumerate(orbits) for s in orbit}
    conj = tuple(
        orbit_of[tuple(ring.conj[x] for ring, x in zip(factors, orbit[0]))]
        for orbit in orbits
    )
    return BasedRing(tuple(basis), constants, conj, dims)


def _orbit_slabs(factors: list[BasedRing], members: np.ndarray):
    """The slabs of ``orbit_ring``, as blocks (1, m, m) in order of a, from
    the orbits' members (orbit, position, factor).  The generator owns the
    dense factor tensors and their gathers, so they are freed when it ends,
    before the join."""
    m, size = members.shape[:2]
    reps = members[:, 0]
    by_position = members.transpose(1, 0, 2).reshape(m * size, len(factors))
    top = size * math.prod(_largest_magnitude(ring.constants.v) for ring in factors)
    dtype = _value_dtype(-top, top)
    gathers = [
        (ring.constants.dense().astype(dtype, copy=False), reps[:, f], by_position[:, f])
        for f, ring in enumerate(factors)
    ]
    for a in range(m):
        blocks = (dense[idx[a], idx][:, cols] for dense, idx, cols in gathers)
        slab = next(blocks)
        for block in blocks:
            slab *= block
        slab = slab.reshape(m, size, m).sum(axis=1, dtype=dtype)
        yield slab[None]


def simple_current_check(ring: FusionRing) -> list[tuple[int, int, int]]:
    """Verify the translation rule: fusing conj(i) with i' hits the
    sigma-image of the vacuum exactly when i' is the sigma-image of i.

    For each power t the m x m slice N_ab^(sigma^t(0)) is read off the
    entries whose target is sigma^t(0): only those are placed in their
    pair's run.  Its rows taken at conj(i) must be the permutation matrix
    of sigma^t.  Returns the failures, each (t, i, i') with a wrong
    coefficient, in that order; the rule holds exactly when there is none."""
    c = ring.constants
    m, n = len(ring.basis), ring.spec.n
    perms = [ring.sigma_permutation(t) for t in range(n)]
    coeffs = np.zeros((n, m, m), dtype=np.int64)
    for t, perm in enumerate(perms):
        at = np.flatnonzero(c.k == perm[0])
        # each hit's pair is the last run starting at or before it
        coeffs[t].flat[c.pair_ptr.searchsorted(at, side="right") - 1] = c.v[at]
    conj = np.array(ring.conj)
    failures = []
    for t, perm in enumerate(perms):
        wrong = np.argwhere(coeffs[t, conj] != np.eye(m, dtype=np.int64)[perm]).tolist()
        failures.extend((t, i, ip) for i, ip in wrong)
    return failures


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
    all N_k commute.  The certificate is exact on two counts:

    * A is summed by one float64 ``np.bincount`` a block of whole rows, as
      ``dimension_homomorphism_residual`` sums; A N_k and N_k A are float64
      products, one k at a time.  Every partial sum of A or the products is
      bounded by max c * max_x sum_ij |N_xi^j| * max_ij sum_l |N_ij^l|; the
      certificate declines unless that bound is below 2^53, where float64
      arithmetic on integers is exact.
    * A is nonderogatory when the Krylov matrix with rows e_0, e_0 A, ...,
      e_0 A^(m-1) has full rank (for a unital ring, the coordinates of the
      powers of sum_i c_i b_i).  The rank is taken modulo the prime p < 2^21
      of ``_prime_field(1)``, the Verlinde sums' own field, and a
      determinant that is nonzero mod p is nonzero over the integers.  Each
      int64 residue product is below 2^42, and a sum of m <= 2^16 of them
      below 2^58, so none wraps at any m the layout admits.

    The certificate can only confirm a pass.  When it declines, a per-row
    scan decides and names the failing row: row i passes when lhs_i[j,k,l] =
    sum_m N_ij^m N_mk^l, one float64 GEMM of the m x m slice against the
    m x m^2 flattened tensor, equals its own (j,k) transpose.  Commutativity
    makes ((b_i b_j) b_k) symmetric in (i,j); symmetry in (j,k) as well gives
    full S3 symmetry, which is associativity.  The scan costs m^5 flops and
    O(m^3) memory.  Both paths need every partial sum of ((ij)k) below 2^53:
    every entry is at most max_ij sum_m |N_ij^m| * max |N|, and when that
    bound reaches 2^53 the check reports a failure instead of contracting.

    The unit and conjugation axioms are read off the m^2 run starts, as a
    target 0 is always the first entry of its run: each pair (0, j) holds
    one entry, j valued 1, and each pair (i, conj i) starts with 0 valued 1,
    with exactly m runs starting at 0.  Commutativity compares the nonzero
    entries as arrays, and the certificate builds one m x m fusion matrix
    at a time, so memory is O(nnz + m^2).  Only the scan makes an m x m x m
    array, held to DENSE_BUDGET.
    """
    out = []
    m = tensor.shape[0]
    if not m:
        raise ValueError("need at least one basis element: every ring keeps its unit at index 0")
    ptr, k, v = tensor.pair_ptr, tensor.k, tensor.v
    if v.size and v.min() < 0:
        out.append("negative structure constant")
    basis = np.arange(m)
    unit = np.array_equal(ptr[: m + 1], np.arange(m + 1))  # one entry a pair (0, j)
    if not (unit and np.array_equal(k[:m], basis) and (v[:m] == 1).all()):
        out.append("unit row is not the identity permutation")
    pair_sizes = np.diff(ptr)
    own = np.arange(len(conj_perm)) * m + np.asarray(conj_perm, dtype=np.int64)
    conjugate = (
        np.array_equal(own // m, basis)  # the pairs (i, conj i), i and conj i < m
        and (pair_sizes[own] > 0).all()
        and (k[ptr[own]] == 0).all()
        and (v[ptr[own]] == 1).all()
        and np.count_nonzero(k[ptr[:-1][pair_sizes > 0]] == 0) == m
    )
    pair_sizes = pair_sizes.reshape(m, m)
    commutative = np.array_equal(pair_sizes, pair_sizes.T)
    # equal run lengths: entry r of run (i, j) must equal entry r of (j, i),
    # compared a block of whole rows at a time
    for run, rows, cols in tensor._blocks() if commutative else ():
        mirror = ptr[cols * m + rows] - ptr[rows * m + cols]
        mirror += np.arange(run.start, run.stop, dtype=mirror.dtype)
        if not (np.array_equal(k[mirror], k[run]) and np.array_equal(v[mirror], v[run])):
            commutative = False
            break
    if not commutative:
        out.append("commutativity fails")
    if not conjugate:
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


def sigma_covariant(tensor: SparseTensor, perm: np.ndarray) -> bool:
    """True when relabelling rows and targets by the basis permutation perm
    keeps the entries: the entries (perm[i], j, perm[k], v) are the entries
    (i, j, k, v).

    Row i's entries move to row perm[i], whose pair sizes must be row i's;
    then entry e of row i moves to entry e + shift[i] of row perm[i].  The
    check goes a block of whole rows at a time, as the mirror check
    does: the block's moved keys (i m + j) m + perm[k], put in increasing
    order, must be the keys (i m + j) m + k of the entries they move to,
    which the (j, k) order of each row already sorts, and the values must
    come along in the same order.  The positions are distinct, so that
    order is unique, whatever the values.  The int64 keys are one block
    long, never nnz long."""
    m = tensor.shape[0]
    ptr, k, v = tensor.pair_ptr, tensor.k, tensor.v
    sizes = np.diff(ptr).reshape(m, m)
    if not np.array_equal(sizes[perm], sizes):
        return False
    row_ptr = ptr[::m]
    shift = row_ptr[perm] - row_ptr[:-1]
    for run, i, j in tensor._blocks():
        key = i.astype(np.int64)
        key *= m
        key += j
        key *= m
        moved = perm[k[run]] + key
        order = moved.argsort()
        there = np.arange(run.start, run.stop) + shift[i]
        if not (
            np.array_equal(moved[order], k[there] + key) and np.array_equal(v[run][order], v[there])
        ):
            return False
    return True


def _magnitude_row_sums(tensor: SparseTensor) -> np.ndarray:
    """The m x m int64 sums sum_k |N_ij^k|, taken over the rows of each
    ``_row_cuts`` step at a time, which need no entry positions: each
    step's values are widened to int64 before |.|, so that no dtype's
    minimum wraps and no full-width copy of the values is made."""
    m = tensor.shape[0]
    sums = np.zeros(m * m, dtype=np.int64)
    for a, b in tensor._row_cuts():
        ptr = tensor.pair_ptr[a * m : b * m + 1]
        live = ptr[1:] > ptr[:-1]
        magnitude = np.abs(tensor.v[ptr[0] : ptr[-1]], dtype=np.int64)
        sums[a * m : b * m][live] = np.add.reduceat(magnitude, ptr[:-1][live] - ptr[0])
    return sums.reshape(m, m)


def _fusion_matrices_commute(tensor: SparseTensor, row_sums: np.ndarray) -> bool:
    """True when the commuting-matrix certificate proves that all fusion
    matrices of the commutative tensor commute; False means undecided."""
    m = tensor.shape[0]
    # a linear sequence such as 1..m makes A derogatory on symmetric rings
    coeffs = np.arange(1, m + 1) ** 3 % 65521 + 1
    # Python ints: m row sums, each below 2^53, can pass 2^63 in int64
    slice_total = int(row_sums.sum(axis=1, dtype=object).max())
    if int(coeffs.max()) * slice_total * int(row_sums.max()) >= 2**53:
        return False
    a = np.zeros(m * m)  # A_jl = sum_i c_i N_ij^l
    for run, i, j in tensor._blocks():
        a += np.bincount(j * m + tensor.k[run], coeffs[i] * tensor.v[run], minlength=m * m)
    a = a.reshape(m, m)
    # the products go to buffers made once: a fresh m x m result each GEMM
    # would be mapped and faulted in anew whenever it passes malloc's mmap threshold
    n_k, left, right = np.zeros((3, m, m))
    for i in range(m):
        j, targets, values = tensor.row(i)
        n_k[:] = 0
        n_k[j, targets] = values
        if not np.array_equal(np.matmul(a, n_k, out=left), np.matmul(n_k, a, out=right)):
            return False
    del n_k, left, right
    p = _prime_field(1)[0]
    a = a.astype(np.int64) % p
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
    numpy would group a reduction: a block of whole rows holds the pair's
    whole run, and ``np.bincount`` adds its weights in entry order."""
    t = ring.constants
    m = t.shape[0]
    d = np.array([ring.dims[b] for b in ring.basis], dtype=float)
    totals = np.zeros(m * m)
    for run, i, j in t._blocks():
        terms = t.v[run].astype(np.float64) * d[t.k[run]]
        totals += np.bincount(i * m + j, terms, minlength=m * m)
    residuals = np.abs(totals - np.outer(d, d).ravel())
    return float(residuals.max(initial=0.0))
