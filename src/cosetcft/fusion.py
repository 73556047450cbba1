"""Fusion rings from the Verlinde formula, and products of such rings.

The structure-constant tensor is stored sparsely, keyed by the index pair
(i, j) with a {k: multiplicity} payload; construction fails hard if any
pre-rounding residual exceeds the integrality tolerance, since a silently
wrong integer would corrupt every coset ring built on top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .modular import SMatrix, quantum_dimension, s_matrix
from .weights import AlgebraSpec, Weight, conjugate_weight, sigma_apply

INTEGRALITY_TOL = 1e-6


class IntegralityViolation(ArithmeticError):
    """A Verlinde sum failed to land on an integer within tolerance."""

    def __init__(self, residual: float, i: int, j: int, k: int):
        self.residual = residual
        self.indices = (i, j, k)
        super().__init__(
            f"fusion coefficient N[{i},{j}]^{k} off an integer by {residual:.3e}"
        )


@dataclass
class FusionRing:
    """Based ring over an ordered weight basis with integer coefficients."""

    spec: AlgebraSpec
    basis: tuple[Weight, ...]
    table: dict[tuple[int, int], dict[int, int]]
    integrality_residual: float = 0.0  # worst pre-rounding distance seen
    _index: dict[Weight, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {w: i for i, w in enumerate(self.basis)}

    def index(self, w: Weight) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise KeyError(f"weight {w} not in fusion basis") from None

    def coeff(self, i: int, j: int, k: int) -> int:
        return self.table.get((i, j), {}).get(k, 0)

    def dense(self) -> np.ndarray:
        n = len(self.basis)
        t = np.zeros((n, n, n), dtype=np.int64)
        for (i, j), payload in self.table.items():
            for k, c in payload.items():
                t[i, j, k] = c
        return t

    def conjugate_permutation(self) -> list[int]:
        return [self.index(conjugate_weight(w)) for w in self.basis]

    def sigma_permutation(self, power: int) -> list[int]:
        """Basis permutation of the cyclic automorphism acting factorwise."""
        out = []
        for w in self.basis:
            parts = [sigma_apply(power, w.factor(i)) for i in range(len(w.labels))]
            out.append(
                self.index(Weight(self.spec, tuple(p.labels[0] for p in parts)))
            )
        return out


def verlinde_tensor(s: SMatrix, tol: float = INTEGRALITY_TOL) -> FusionRing:
    """Fusion ring with N_ij^k = sum_m S_im S_jm conj(S_km) / S_0m."""
    mat = s.entries
    weights = mat.conj() / mat[0][None, :]
    raw = np.einsum("im,jm,km->ijk", mat, mat, weights, optimize=True)
    if np.abs(raw.imag).max() > tol:
        idx = np.unravel_index(np.abs(raw.imag).argmax(), raw.shape)
        raise IntegralityViolation(float(np.abs(raw.imag).max()), *map(int, idx))
    rounded = np.rint(raw.real)
    resid = np.abs(raw.real - rounded)
    if resid.max() > tol:
        idx = np.unravel_index(resid.argmax(), resid.shape)
        raise IntegralityViolation(float(resid.max()), *map(int, idx))
    tensor = rounded.astype(np.int64)
    if tensor.min() < 0:
        idx = np.unravel_index(tensor.argmin(), tensor.shape)
        raise IntegralityViolation(float(tensor.min()), *map(int, idx))
    table: dict[tuple[int, int], dict[int, int]] = {}
    for i, j, k in zip(*np.nonzero(tensor)):
        table.setdefault((int(i), int(j)), {})[int(k)] = int(tensor[i, j, k])
    worst = float(max(resid.max(), np.abs(raw.imag).max()))
    return FusionRing(s.spec, s.basis, table, worst)


def fusion_ring(spec: AlgebraSpec) -> FusionRing:
    """Fusion ring of a spec, taking factorwise Verlinde tensors."""
    rings = [verlinde_tensor(s_matrix(AlgebraSpec((f,)))) for f in spec.factors]
    return product_ring(rings)


def fuse(ring: FusionRing, i: Weight, j: Weight) -> list[tuple[Weight, int]]:
    """Nonzero fusion channels of i x j with multiplicities."""
    payload = ring.table.get((ring.index(i), ring.index(j)), {})
    return [(ring.basis[k], c) for k, c in sorted(payload.items())]


def product_ring(rings: list[FusionRing]) -> FusionRing:
    """Cartesian-product ring: bases multiply, coefficients factorwise."""
    if not rings:
        raise ValueError("need at least one ring")
    out = rings[0]
    for other in rings[1:]:
        out = _product_pair(out, other)
    return out


def _product_pair(r1: FusionRing, r2: FusionRing) -> FusionRing:
    spec = AlgebraSpec(r1.spec.factors + r2.spec.factors)
    n2 = len(r2.basis)
    basis = tuple(
        Weight(spec, w1.labels + w2.labels)
        for w1, w2 in itertools.product(r1.basis, r2.basis)
    )
    table: dict[tuple[int, int], dict[int, int]] = {}
    for (i1, j1), pay1 in r1.table.items():
        for (i2, j2), pay2 in r2.table.items():
            combined = {
                k1 * n2 + k2: c1 * c2
                for k1, c1 in pay1.items()
                for k2, c2 in pay2.items()
            }
            table[(i1 * n2 + i2, j1 * n2 + j2)] = combined
    worst = max(r1.integrality_residual, r2.integrality_residual)
    return FusionRing(spec, basis, table, worst)


@dataclass
class SimpleCurrentReport:
    passed: bool
    checked: int
    failures: list[tuple[int, int, int]]  # (power, i, i') with wrong coefficient


def simple_current_check(ring: FusionRing) -> SimpleCurrentReport:
    """Verify the translation rule: fusing conj(i) with i' hits the
    sigma-image of the vacuum exactly when i' is the sigma-image of i."""
    n, _ = ring.spec.single()
    conj = ring.conjugate_permutation()
    failures = []
    checked = 0
    m = len(ring.basis)
    for t in range(n):
        perm = ring.sigma_permutation(t)
        target = perm[0]
        for i in range(m):
            for ip in range(m):
                expected = 1 if perm[i] == ip else 0
                if ring.coeff(conj[i], ip, target) != expected:
                    failures.append((t, i, ip))
                checked += 1
    return SimpleCurrentReport(not failures, checked, failures)


def ring_axiom_failures(tensor: np.ndarray, conj_perm, unit: int = 0) -> list[str]:
    """Exhaustive based-ring axiom check on a dense coefficient tensor.

    Returns human-readable failure descriptions; empty means all axioms hold.

    Associativity is tested only on a commutative ring, through a symmetric
    criterion.  Write f(i,j,k) = ((b_i b_j) b_k).  Commutativity makes f
    symmetric in (i,j); the ring is associative exactly when f is also
    symmetric in (j,k), since the two swaps generate S3 and a fully symmetric
    f gives (b_i b_j) b_k = f(j,k,i) = (b_j b_k) b_i = b_i (b_j b_k).  So row
    i passes when lhs_i[j,k,l] = sum_m N_ij^m N_mk^l, one float64 GEMM of
    the m x m slice against the m x m^2 flattened tensor, equals its own
    (j,k) transpose; memory stays O(m^3).  When commutativity fails the
    associativity step is skipped, since the criterion assumes it.

    The GEMM is exact only while every partial sum stays below 2^53.  Every
    entry of ((ij)k) is at most max_ij sum_m |N_ij^m| * max |N|; when that
    bound reaches 2^53 the check reports a failure instead of contracting.
    """
    out = []
    m = tensor.shape[0]
    if tensor.min() < 0:
        out.append("negative structure constant")
    expected_unit = np.eye(m, dtype=np.int64)
    if not np.array_equal(tensor[unit], expected_unit):
        out.append("unit row is not the identity permutation")
    commutative = np.array_equal(tensor, tensor.transpose(1, 0, 2))
    if not commutative:
        out.append("commutativity fails")
    conj_matrix = np.zeros((m, m), dtype=np.int64)
    for i, ic in enumerate(conj_perm):
        conj_matrix[i, ic] = 1
    if not np.array_equal(tensor[:, :, unit], conj_matrix):
        out.append("conjugation axiom N_ij^0 = delta(j, conj i) fails")
    if not commutative:
        return out
    magnitude = np.abs(tensor)
    if int(magnitude.sum(axis=2).max()) * int(magnitude.max()) >= 2**53:
        out.append("structure constants too large for an exact associativity check")
        return out
    t = tensor.astype(np.float64)
    flat = t.reshape(m, m * m)
    for i in range(m):
        lhs = (t[i] @ flat).reshape(m, m, m)  # sum_m N_ij^m N_mk^l
        if not np.array_equal(lhs, lhs.transpose(1, 0, 2)):
            out.append(f"associativity fails for left factor index {i}")
            break
    return out


def dimension_homomorphism_residual(ring: FusionRing) -> float:
    """Worst |sum_k N_ij^k d_k - d_i d_j| over the ring, using factorwise
    quantum dimensions."""
    dims = np.ones(len(ring.basis))
    for idx, w in enumerate(ring.basis):
        for f in range(len(ring.spec.factors)):
            sub = w.factor(f)
            dims[idx] *= quantum_dimension(s_matrix(sub.spec), sub)
    worst = 0.0
    m = len(ring.basis)
    for i in range(m):
        for j in range(m):
            total = sum(c * dims[k] for k, c in ring.table.get((i, j), {}).items())
            worst = max(worst, abs(total - dims[i] * dims[j]))
    return worst
