"""Fusion rings from the Verlinde formula, and products of based rings.

The structure constants are stored sparsely, as arrays of their nonzero
positions and values (``SparseTensor``); construction fails hard if any
pre-rounding residual exceeds the integrality tolerance, since a silently
wrong integer would corrupt every coset ring built on top.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .modular import SMatrix, quantum_dimension, s_matrix
from .report import Config
from .report import IntegralityViolation  # re-exported: raised here
from .weights import (
    AlgebraSpec,
    Weight,
    conjugate_weight,
    require_dense_budget,
    sigma_apply,
)

# the run config's default, so that `verify` (which passes the config's
# tolerance) and coset and torus rings (which pass none) share each spec's
# fusion_ring entry
INTEGRALITY_TOL = Config.tolerance_integrality
KRYLOV_PRIME = 33_554_393  # below 2^25: residue products stay below 2^50
ENTRY_CHUNK = 1 << 14  # entries per step of a pass over the whole tensor


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
    integrality_residual: float = 0.0  # worst pre-rounding distance seen

    def sigma_permutation(self, power: int) -> list[int]:
        """Basis permutation of the cyclic automorphism."""
        return [self.index(sigma_apply(power, w)) for w in self.basis]


@dataclass(frozen=True, eq=False)
class SparseTensor:
    """The nonzero entries of an m x m x m integer tensor: int32 arrays
    ``i``, ``j``, ``k`` of distinct positions and an int64 array ``v`` of
    values, 20 bytes a nonzero, in increasing (i, j, k) order.  Each (i, j)
    pair's payload is therefore one contiguous run, ordered by k.  Both
    constructors store these dtypes whatever they are given."""

    shape: tuple[int, int, int]
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    v: np.ndarray

    @classmethod
    def from_entries(cls, m: int, i, j, k, v) -> "SparseTensor":
        """Drop zero values and order the entries; the sort is skipped when
        the positions already increase.  The sort key (i * m + j) * m + k is
        taken in int64: from m = 1291 on it passes 2^31."""
        i, j, k = (np.asarray(x, dtype=np.int32) for x in (i, j, k))
        v = np.asarray(v, dtype=np.int64)
        nonzero = v != 0
        if not nonzero.all():
            i, j, k, v = i[nonzero], j[nonzero], k[nonzero], v[nonzero]
        key = i.astype(np.int64)
        key *= m
        key += j
        key *= m
        key += k
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key)
            i, j, k, v = i[order], j[order], k[order], v[order]
        return cls((m, m, m), i, j, k, v)

    @classmethod
    def from_rows(cls, rows: list[tuple[np.ndarray, ...]]) -> "SparseTensor":
        """Join the rows i = 0, 1, ... of an m x m x m tensor, row i given
        as its (j, k, v) arrays in (j, k) order: the entries arrive in
        (i, j, k) order with no sort."""
        m = len(rows)
        j, k, v = (
            np.concatenate(x, dtype=dtype)
            for x, dtype in zip(zip(*rows), (np.int32, np.int32, np.int64))
        )
        i = np.repeat(np.arange(m, dtype=np.int32), [len(row[0]) for row in rows])
        return cls((m, m, m), i, j, k, v)

    @cached_property
    def pair_ptr(self) -> np.ndarray:
        """Run offsets: pair p = i * m + j holds entries ptr[p] to ptr[p + 1]."""
        m = self.shape[0]
        pair = self.i * m + self.j  # increasing, as the entries are ordered
        return np.searchsorted(pair, np.arange(m * m + 1, dtype=pair.dtype))

    def run(self, i: int, j: int) -> slice:
        """The entries of pair (i, j), ordered by k."""
        p = i * self.shape[0] + j
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
        m = self.shape[0]
        require_dense_budget(m**3, f"a ring of {m} basis elements")
        t = np.zeros(self.shape, dtype=np.int64)
        t[self.i, self.j, self.k] = self.v
        return t

    # rings holding equal constants compare equal
    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        mine = (self.i, self.j, self.k, self.v)
        theirs = (other.i, other.j, other.k, other.v)
        return self.shape == other.shape and all(map(np.array_equal, mine, theirs))


def _round_verlinde(
    raw: np.ndarray, tol: float, prefix: tuple[int, ...] = ()
) -> tuple[np.ndarray, float]:
    """Round Verlinde sums to nonnegative int64 under the integrality guards.

    Returns the integers and the worst pre-rounding distance.  A failure
    raises IntegralityViolation naming prefix + the position in ``raw``.
    """

    def violation(value, flat_index) -> IntegralityViolation:
        at = np.unravel_index(flat_index, raw.shape)
        return IntegralityViolation(float(value), *prefix, *map(int, at))

    worst_imag = np.abs(raw.imag).max()
    if worst_imag > tol:
        raise violation(worst_imag, np.abs(raw.imag).argmax())
    rounded = np.rint(raw.real)
    resid = np.abs(raw.real - rounded)
    if resid.max() > tol:
        raise violation(resid.max(), resid.argmax())
    ints = rounded.astype(np.int64)
    if ints.min() < 0:
        raise violation(ints.min(), ints.argmin())
    return ints, float(max(resid.max(), worst_imag))


def _row_nonzeros(block: np.ndarray) -> tuple[np.ndarray, ...]:
    """The nonzeros of an m x m block over (j, k) as a row of
    ``SparseTensor.from_rows``: int32 ``j``, ``k`` and the values, in C
    order, which is (j, k) order."""
    nonzero = np.nonzero(block)
    return (*(x.astype(np.int32) for x in nonzero), block[nonzero])


def verlinde_constants(
    mat: np.ndarray, tol: float = INTEGRALITY_TOL
) -> tuple[SparseTensor, float]:
    """Verlinde constants N_ij^k = sum_m S_im S_jm conj(S_km) / S_0m of a
    unitary m x m matrix S whose row 0 is the vacuum's, as a SparseTensor,
    and the worst pre-rounding distance from an integer.

    Row i's m x m block over (j, k) is one matrix product,
    (S * (S_i / S_0)) @ S^dagger, rounded under ``_round_verlinde``'s
    guards; the first row that fails raises IntegralityViolation at its
    worst entry.  No m^3 array is held, but DENSE_BUDGET still bounds the
    m^3 sums, as work, before any is made."""
    m = len(mat)
    require_dense_budget(m**3, f"the Verlinde tensor of {m} weights")
    adjoint = mat.conj().T
    rows: list[tuple[np.ndarray, ...]] = []
    worst = 0.0
    for i in range(m):
        block = (mat * (mat[i] / mat[0])) @ adjoint
        ints, resid = _round_verlinde(block, tol, (i,))
        worst = max(worst, resid)
        rows.append(_row_nonzeros(ints))
    return SparseTensor.from_rows(rows), worst


def verlinde_tensor(s: SMatrix, tol: float = INTEGRALITY_TOL) -> FusionRing:
    """Fusion ring of the S-matrix's Verlinde constants, which
    ``verlinde_constants`` computes one row at a time."""
    constants, worst = verlinde_constants(s.entries, tol)
    conj = tuple(s.index(conjugate_weight(w)) for w in s.basis)
    dims = {w: quantum_dimension(s, w) for w in s.basis}
    return FusionRing(s.basis, constants, conj, dims, s.spec, worst)


def fusion_ring(spec: AlgebraSpec, tol: float = INTEGRALITY_TOL) -> FusionRing:
    """Verlinde fusion ring of su(N) at level k, memoized like ``s_matrix``
    on (spec, tol), whether tol is passed or left at its default: every
    caller shares the returned ring, so it must not be mutated."""
    return _verlinde_ring(spec, tol)


@lru_cache(maxsize=None)
def _verlinde_ring(spec: AlgebraSpec, tol: float) -> FusionRing:
    return verlinde_tensor(s_matrix(spec), tol)


fusion_ring.cache_clear = _verlinde_ring.cache_clear
fusion_ring.cache_info = _verlinde_ring.cache_info


def fuse(ring: BasedRing, i, j) -> list[tuple]:
    """Nonzero fusion channels of the basis elements i x j with
    multiplicities."""
    t = ring.constants
    run = t.run(ring.index(i), ring.index(j))
    return [(ring.basis[k], c) for k, c in zip(t.k[run].tolist(), t.v[run].tolist())]


def fuse_pair(
    s: SMatrix, i: Weight, j: Weight, tol: float = INTEGRALITY_TOL
) -> list[tuple[Weight, int]]:
    """Nonzero fusion channels of i x j, as ``fuse`` lists them, straight
    from the Verlinde sum: the row N_ij^k = sum_m S_im S_jm conj(S_km) / S_0m
    over every k is one length-m vector against the m x m matrix, so no ring
    is built.  The row passes the same integrality guards as
    ``verlinde_tensor``."""
    a, b = s.index(i), s.index(j)
    mat = s.entries
    raw = mat.conj() @ (mat[a] * mat[b] / mat[0])
    row, _ = _round_verlinde(raw, tol, (a, b))
    return [(s.basis[k], int(row[k])) for k in np.flatnonzero(row)]


def product_ring(rings: list[BasedRing]) -> BasedRing:
    """Cartesian-product ring: the basis is the tuples of factor basis
    elements, the first factor varying slowest; constants, conjugates and
    dimensions multiply factorwise.  A single ring is returned as is."""
    if not rings:
        raise ValueError("need at least one ring")
    if len(rings) == 1:
        return rings[0]
    t, conj = rings[0].constants, rings[0].conj
    for ring in rings[1:]:
        u, n2 = ring.constants, len(ring.basis)
        # every entry of t against every entry of u, u's varying fastest
        i, j, k = (
            (x[:, None] * n2 + y).ravel()
            for x, y in ((t.i, u.i), (t.j, u.j), (t.k, u.k))
        )
        v = np.outer(t.v, u.v).ravel()
        t = SparseTensor.from_entries(t.shape[0] * n2, i, j, k, v)
        conj = tuple(c1 * n2 + c2 for c1, c2 in itertools.product(conj, ring.conj))
    basis = tuple(itertools.product(*(ring.basis for ring in rings)))
    dims = {
        b: math.prod(ring.dims[x] for ring, x in zip(rings, b)) for b in basis
    }
    return BasedRing(basis, t, conj, dims)


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
    over j, is the slab C_[a]..^..  Each slab's nonzeros are read in C order
    and the slabs are joined in order of a, so the entries arrive in
    (a, b, c) order with no sort and no per-entry Python work.  An orbit's
    conjugate is the orbit holding its representative's factorwise
    conjugate.  ``basis`` names the orbits and ``dims`` maps each name to
    its dimension.
    """
    m, size = len(orbits), len(orbits[0])
    members = np.array(orbits, dtype=np.int64)  # (orbit, position, factor)
    reps = members[:, 0]
    by_position = members.transpose(1, 0, 2).reshape(m * size, len(factors))
    gathers = [
        (ring.constants.dense(), reps[:, f], by_position[:, f])
        for f, ring in enumerate(factors)
    ]
    rows: list[tuple[np.ndarray, ...]] = []
    for a in range(m):
        blocks = (dense[idx[a], idx][:, cols] for dense, idx, cols in gathers)
        slab = next(blocks)
        for block in blocks:
            slab *= block
        slab = slab.reshape(m, size, m).sum(axis=1)
        rows.append(_row_nonzeros(slab))
    constants = SparseTensor.from_rows(rows)
    del rows
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
        at = c.k == perm[0]
        coeffs = np.zeros((m, m), dtype=np.int64)
        coeffs[c.i[at], c.j[at]] = c.v[at]
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
    i, j, k, v = tensor.i, tensor.j, tensor.k, tensor.v
    negative = v.size > 0 and v.min() < 0
    if negative:
        out.append("negative structure constant")
    basis = np.arange(m)
    unit_row = slice(0, np.searchsorted(i, 1))  # the entries with i = 0
    if not _ones_exactly_at(j[unit_row], k[unit_row], v[unit_row], basis, basis):
        out.append("unit row is not the identity permutation")
    # the run of pair p = i * m + j is entries ptr[p] to ptr[p + 1]
    ptr = tensor.pair_ptr
    pair_sizes = np.diff(ptr).reshape(m, m)
    commutative = np.array_equal(pair_sizes, pair_sizes.T)
    # equal run lengths: entry r of run (i, j) must equal entry r of (j, i),
    # compared ENTRY_CHUNK entries at a time
    for start in range(0, v.size if commutative else 0, ENTRY_CHUNK):
        run = slice(start, start + ENTRY_CHUNK)
        rows, cols = i[run], j[run]
        mirror = ptr[cols * m + rows] - ptr[rows * m + cols]
        mirror += np.arange(start, start + len(rows))
        if not (np.array_equal(k[mirror], k[run]) and np.array_equal(v[mirror], v[run])):
            commutative = False
            break
    if not commutative:
        out.append("commutativity fails")
    to_unit = k == 0
    conj_rows = np.arange(len(conj_perm))
    if not _ones_exactly_at(i[to_unit], j[to_unit], v[to_unit], conj_rows, conj_perm):
        out.append("conjugation axiom N_ij^0 = delta(j, conj i) fails")
    if not commutative:
        return out
    magnitude = np.abs(v) if negative else v
    nonempty = pair_sizes.ravel() > 0
    row_sums = np.zeros(m * m, dtype=np.int64)
    if v.size:
        row_sums[nonempty] = np.add.reduceat(magnitude, ptr[:-1][nonempty])
    row_sums = row_sums.reshape(m, m)
    largest = int(magnitude.max()) if v.size else 0
    if int(row_sums.max()) * largest >= 2**53:
        out.append("structure constants too large for an exact associativity check")
        return out
    if _fusion_matrices_commute(tensor, row_sums):
        return out
    row = _first_nonassociative_row(tensor)
    if row is not None:
        out.append(f"associativity fails for left factor index {row}")
    return out


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
    i, j, k, v = tensor.i, tensor.j, tensor.k, tensor.v
    # a linear sequence such as 1..m makes A derogatory on symmetric rings
    coeffs = np.arange(1, m + 1) ** 3 % 65521 + 1
    # Python ints: m row sums, each below 2^53, can pass 2^63 in int64
    slice_total = int(row_sums.sum(axis=1, dtype=object).max())
    if int(coeffs.max()) * slice_total * int(row_sums.max()) >= 2**53:
        return False
    a = np.zeros(m * m, dtype=np.int64)
    for start in range(0, v.size, ENTRY_CHUNK):
        run = slice(start, start + ENTRY_CHUNK)
        np.add.at(a, j[run] * m + k[run], coeffs[i[run]] * v[run])
    a = a.reshape(m, m)
    a_float = a.astype(np.float64)
    row_starts = tensor.pair_ptr[::m]  # row i is entries row_starts[i] on
    n_k = np.zeros((m, m))
    for start, stop in zip(row_starts[:-1], row_starts[1:]):
        n_k[:] = 0
        n_k[j[start:stop], k[start:stop]] = v[start:stop]
        if not np.array_equal(a_float @ n_k, n_k @ a_float):
            return False
    p = KRYLOV_PRIME
    a_mod = a % p
    krylov = np.empty((m, m), dtype=np.int64)
    vec = np.zeros(m, dtype=np.int64)
    vec[0] = 1
    for row in range(m):
        krylov[row] = vec
        vec = vec @ a_mod % p
    return _full_rank_mod(krylov, p)


def _full_rank_mod(mat: np.ndarray, p: int) -> bool:
    """Gaussian elimination over GF(p) on a square matrix of residues."""
    mat = mat.copy()
    m = len(mat)
    for col in range(m):
        nonzero = np.flatnonzero(mat[col:, col])
        if nonzero.size == 0:
            return False
        pivot = col + int(nonzero[0])
        mat[[col, pivot]] = mat[[pivot, col]]
        multipliers = mat[col + 1 :, col] * pow(int(mat[col, col]), -1, p) % p
        mat[col + 1 :, col:] = (
            mat[col + 1 :, col:] - multipliers[:, None] * mat[col, col:]
        ) % p
    return True


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
    terms = t.v * d[t.k]
    starts = t.pair_ptr[:-1]
    sizes = np.diff(t.pair_ptr)
    totals = np.zeros(len(sizes))
    for r in range(int(sizes.max(initial=0))):
        live = np.flatnonzero(sizes > r)
        totals[live] += terms[starts[live] + r]
    residuals = np.abs(totals - np.outer(d, d).ravel())
    return float(residuals.max(initial=0.0))
