"""Modular S-matrix of su(N) at level k and the dimensions derived from it.

The vacuum row is evaluated through the closed product of sines over the
positive roots; the remaining rows multiply it by the finite Weyl character
of the row weight at the group element attached to the column weight.  The
resulting matrix is unitary, symmetric, and has a strictly positive vacuum
row, which pins the normalization completely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .report import SelfCheckFailed
from .weights import (
    AlgebraSpec,
    Weight,
    integrable_weights,
    shifted_v,
    vacuum_row,
)

UNITARY_TOL = 1e-9
SYMMETRY_TOL = 1e-9
VACUUM_ROW_TOL = 1e-12
# phases per determinant batch of s_matrix: all of a small S-matrix's, whose
# per-row numpy calls would cost more than its arithmetic, or a few rows of
# a large one's
PHASE_BATCH = 2**15


@dataclass(frozen=True)
class SMatrix:
    """Modular S-matrix over the integrable weights of su(N) at level k."""

    spec: AlgebraSpec
    basis: tuple[Weight, ...]
    entries: np.ndarray  # complex, square, basis order

    def index(self, w: Weight) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise KeyError(f"weight {w} not in S-matrix basis") from None

    def __post_init__(self):
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.basis)})


@lru_cache(maxsize=None)
def s_matrix(spec: AlgebraSpec) -> SMatrix:
    """Kac-Peterson S-matrix of su(N) at level k.

    The Weyl characters are determinants of N x N phase matrices, built a
    few rows of m at a time (PHASE_BATCH), so no (m, m, N, N) array is held
    beyond that size; ``vacuum_row`` holds the phases to their budget.  The
    characters and then the entries are formed in place in the determinants'
    m x m buffer, so the matrix is built in one buffer beside the m x m
    trace fix."""
    n, k = spec.n, spec.k
    h = k + n
    s0 = np.array(vacuum_row(spec))  # refuses a spec over the budget
    basis = tuple(integrable_weights(spec))
    tvecs = np.array([shifted_v(w.labels) for w in basis])  # (m, n) ints

    # Weyl characters via the ratio of alternants: chi_lam(mu) =
    # det(x_b(mu)^{t_a(lam)}) / det(x_b(mu)^{t_a(0)}) with x_b at the
    # traceless coordinates of (mu+rho)/h; evaluating at the raw partial
    # sums instead costs one overall phase per column, restored below.
    # Row lam's phases are exp(-2 pi i t_a(lam) t_b(mu) / h) over (mu, a, b);
    # each batch takes as many rows as fit in PHASE_BATCH, at least one.
    # The exponents are integers below h^2, so each phase is read from a
    # table of exp at every such integer: the same values as exp at each
    # entry, bit for bit.
    m = len(basis)
    step = max(1, PHASE_BATCH // (m * n * n))
    table = np.exp((-2j * np.pi / h) * np.arange(int(tvecs.max()) ** 2 + 1))
    dets = np.empty((m, m), dtype=complex)  # rows lam, cols mu
    for start in range(0, m, step):
        t = tvecs[start : start + step]
        exponents = t[:, None, :, None] * tvecs[None, :, None, :]  # (lam, mu, a, b)
        dets[start : start + step] = np.linalg.det(table[exponents])
    vac = 0  # lexicographic enumeration puts the zero labels first
    sums = tvecs.sum(axis=1)
    trace_fix = (2j * np.pi / (n * h)) * np.outer(sums - sums[vac], sums)
    np.exp(trace_fix, out=trace_fix)
    # characters, then entries, formed in the one buffer
    dets /= dets[vac].copy()
    dets *= trace_fix
    del trace_fix
    dets *= s0
    entries = dets

    # each guard holds only when its comparison is true, so a NaN fails it
    if not unitarity_residual(entries) <= UNITARY_TOL:
        raise SelfCheckFailed(f"S-matrix for su({n})_{k} failed unitarity")
    if not np.abs(entries - entries.T).max() <= SYMMETRY_TOL:
        raise SelfCheckFailed(f"S-matrix for su({n})_{k} failed symmetry")
    row0 = entries[0]
    if not (np.abs(row0.imag).max() <= VACUUM_ROW_TOL and (row0.real >= VACUUM_ROW_TOL).all()):
        raise SelfCheckFailed(f"S-matrix for su({n})_{k} vacuum row not positive")
    return SMatrix(spec, basis, entries)


def unitarity_residual(entries: np.ndarray) -> float:
    """Largest entry of |S S^dagger - 1| for a square complex matrix S."""
    product = entries @ entries.conj().T
    product.flat[:: len(entries) + 1] -= 1  # the diagonal, in place
    return float(np.abs(product).max())


def asymptotic_dimension(s: SMatrix, w: Weight) -> float:
    """Vacuum-row entry a(L) = S_{0,L}, strictly positive."""
    return float(s.entries[0, s.index(w)].real)


def quantum_dimension(s: SMatrix, w: Weight) -> float:
    """Statistical dimension S_{0,L} / S_{0,0}; always >= 1."""
    return float((s.entries[0, s.index(w)] / s.entries[0, 0]).real)


def product_quantum_dimension(weights) -> float:
    """Product, from left to right, of the quantum dimensions of a sequence
    of weights, each in its own spec."""
    return math.prod(quantum_dimension(s_matrix(w.spec), w) for w in weights)
