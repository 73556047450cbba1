import math
import tracemalloc
from math import comb

import numpy as np
import pytest

from cosetcft import (
    AlgebraSpec,
    SelfCheckFailed,
    Weight,
    asymptotic_dimension,
    conjugate_weight,
    integrable_weights,
    product_quantum_dimension,
    quantum_dimension,
    s_matrix,
    sigma_apply,
)
from cosetcft import modular
from cosetcft.report import format_real
from cosetcft.weights import quantum_dimensions, shifted_v, vacuum_row

DESK = [(n, k) for n in (2, 3, 4) for k in range(1, 7)]


def su2_sine(k, a, b):
    """Independent closed form for the level-k su(2) S-matrix entry."""
    return math.sqrt(2.0 / (k + 2)) * math.sin(math.pi * (a + 1) * (b + 1) / (k + 2))


class TestSu2ClosedForm:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_matches_sine_formula(self, k):
        sm = s_matrix(AlgebraSpec.su(2, k))
        for a in range(k + 1):
            for b in range(k + 1):
                assert sm.entries[a, b].real == pytest.approx(
                    su2_sine(k, a, b), abs=1e-12
                )
                assert abs(sm.entries[a, b].imag) < 1e-12

    def test_su2_level1_values(self):
        sm = s_matrix(AlgebraSpec.su(2, 1))
        assert sm.entries[0, 0].real == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert sm.entries[1, 1].real == pytest.approx(-1 / math.sqrt(2), abs=1e-12)


class TestMatrixInvariants:
    @pytest.mark.parametrize("n,k", DESK)
    def test_unitary_symmetric_positive(self, n, k):
        sm = s_matrix(AlgebraSpec.su(n, k))
        m = sm.entries
        eye = np.eye(len(m))
        assert np.abs(m @ m.conj().T - eye).max() < 1e-9
        assert np.abs(m - m.T).max() < 1e-9
        assert (m[0].real > 1e-12).all()
        assert np.abs(m[0].imag).max() < 1e-12

    @pytest.mark.parametrize("n,k", DESK)
    def test_s_squared_is_conjugation(self, n, k):
        sm = s_matrix(AlgebraSpec.su(n, k))
        perm = np.zeros_like(sm.entries.real)
        for i, x in enumerate(sm.basis):
            perm[i, sm.index(conjugate_weight(x))] = 1.0
        assert np.abs(sm.entries @ sm.entries - perm).max() < 1e-8


def one_shot_s_matrix(spec):
    """Reference: the S-matrix entries from one (m, m, N, N) phase array and
    one batched determinant, the same formula with every row at once."""
    n, h = spec.n, spec.k + spec.n
    tvecs = np.array([shifted_v(w.labels) for w in integrable_weights(spec)])
    phases = np.exp((-2j * np.pi / h) * np.einsum("la,mb->lmab", tvecs, tvecs))
    dets = np.linalg.det(phases)
    sums = tvecs.sum(axis=1)
    trace_fix = np.exp((2j * np.pi / (n * h)) * np.outer(sums - sums[0], sums))
    chars = dets / dets[0][None, :] * trace_fix
    return np.array(vacuum_row(spec))[None, :] * chars


class TestRowByRow:
    @pytest.mark.parametrize("n,k", DESK + [(4, 8), (5, 3)])
    def test_bit_identical_to_one_shot_formula(self, n, k):
        # each N x N determinant is factored on its own either way, and the
        # phases read from a table hold the bits of exp at each exponent
        spec = AlgebraSpec.su(n, k)
        assert s_matrix(spec).entries.tobytes() == one_shot_s_matrix(spec).tobytes()

    def test_memory_below_the_phase_array(self):
        spec = AlgebraSpec.su(4, 8)
        m = len(integrable_weights(spec))  # 165
        tracemalloc.start()
        try:
            s_matrix.__wrapped__(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * spec.n**2 * 16  # the complex (m, m, N, N) phases

    def test_warm_build_holds_one_matrix_and_its_trace_fix(self):
        # 1.47 MiB with numpy 2.4: the characters and entries formed in the
        # determinants' buffer, 1 subtracted on the diagonal of S S^dagger
        # in place; 2.71 MiB with a new array per step, np.eye and the
        # difference matrix
        spec = AlgebraSpec.su(4, 8)
        s_matrix(spec)  # the weights and the vacuum row stay cached
        tracemalloc.start()
        try:
            s_matrix.__wrapped__(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * 2**20


class TestDimensions:
    def test_vacuum_asymptotic(self):
        spec = AlgebraSpec.su(2, 1)
        sm = s_matrix(spec)
        assert asymptotic_dimension(sm, spec.vacuum()) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )

    def test_su2_level2_middle(self):
        spec = AlgebraSpec.su(2, 2)
        sm = s_matrix(spec)
        mid = Weight(spec, (1,))
        assert asymptotic_dimension(sm, mid) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )
        assert quantum_dimension(sm, mid) == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_vacuum_dimension_is_one(self):
        spec = AlgebraSpec.su(3, 2)
        assert quantum_dimension(s_matrix(spec), spec.vacuum()) == pytest.approx(1.0)

    def test_su2_level8_label2(self):
        # sin(3 pi / 10) / sin(pi / 10) = golden ratio + 1
        spec = AlgebraSpec.su(2, 8)
        got = quantum_dimension(s_matrix(spec), Weight(spec, (2,)))
        golden = (math.sqrt(5) + 1) / 2
        assert got == pytest.approx(golden + 1, abs=1e-9)
        assert got == pytest.approx(
            math.sin(3 * math.pi / 10) / math.sin(math.pi / 10), abs=1e-12
        )

    def test_unknown_weight_rejected(self):
        sm = s_matrix(AlgebraSpec.su(2, 2))
        other = Weight(AlgebraSpec.su(2, 3), (1,))
        with pytest.raises(KeyError):
            quantum_dimension(sm, other)

    @pytest.mark.parametrize("n,k", DESK)
    def test_dimensions_at_least_one(self, n, k):
        spec = AlgebraSpec.su(n, k)
        sm = s_matrix(spec)
        for x in integrable_weights(spec):
            assert quantum_dimension(sm, x) >= 1 - 1e-12

    @pytest.mark.parametrize("n,k", DESK)
    def test_cyclic_and_conjugation_invariance(self, n, k):
        spec = AlgebraSpec.su(n, k)
        sm = s_matrix(spec)
        for x in integrable_weights(spec):
            d = quantum_dimension(sm, x)
            assert quantum_dimension(sm, sigma_apply(1, x)) == pytest.approx(
                d, abs=1e-9
            )
            assert quantum_dimension(sm, conjugate_weight(x)) == pytest.approx(
                d, abs=1e-9
            )


class TestProductDimensions:
    def test_all_vacuum(self):
        vac = AlgebraSpec.su(2, 1).vacuum()
        assert product_quantum_dimension((vac, vac)) == pytest.approx(1.0)

    def test_level1_pair(self):
        x = Weight(AlgebraSpec.su(2, 1), (1,))
        assert product_quantum_dimension((x, x)) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_levels(self):
        x = (Weight(AlgebraSpec.su(2, 2), (1,)), Weight(AlgebraSpec.su(2, 1), (1,)))
        assert product_quantum_dimension(x) == pytest.approx(math.sqrt(2), abs=1e-9)


# every (N, k) with N <= 6, k < 40 whose S-matrix phases, m^2 N^2, fit in 2^22
SINE_SPECS = [
    (n, k)
    for n in range(2, 7)
    for k in range(1, 40)
    if comb(k + n - 1, n - 1) ** 2 * n * n <= 2**22
]


def test_sine_product_dimensions_print_as_the_s_matrix_ones():
    """The numpy-free dimensions of the `weights` command give the same
    12-digit strings as S_0L / S_00 of the full S-matrix (the last bits of
    the floats do differ)."""
    assert len(SINE_SPECS) == 98
    for n, k in SINE_SPECS:
        spec = AlgebraSpec.su(n, k)
        sm = s_matrix(spec)
        dims = quantum_dimensions(spec)
        assert list(dims) == list(sm.basis)
        for w, d in dims.items():
            assert format_real(d) == format_real(quantum_dimension(sm, w)), (n, k, w)


def test_sine_product_dimensions_keep_the_s_matrix_budget(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dimension was computed before the budget check")

    monkeypatch.setattr(math, "sin", refuse)
    with pytest.raises(ValueError, match="budget"):
        quantum_dimensions(AlgebraSpec.su(4, 30))  # m = 5456, as s_matrix refuses


class TestGuards:
    """``s_matrix`` checks the matrix it builds, and each check holds only
    where its comparison is true, so a NaN fails it.  The uncached function
    is called, so no cached matrix is served in its place."""

    SPEC = AlgebraSpec.su(2, 1)

    def test_a_nan_unitarity_residual_fails(self, monkeypatch):
        monkeypatch.setattr(modular, "unitarity_residual", lambda entries: math.nan)
        with pytest.raises(SelfCheckFailed, match="failed unitarity"):
            s_matrix.__wrapped__(self.SPEC)

    @pytest.mark.parametrize("check", ["unitarity", "symmetry"])
    def test_a_nan_entry_fails(self, monkeypatch, check):
        # a NaN in the vacuum row fills one column of S; with the unitarity
        # residual read as 0, the symmetry check is the one that sees it
        row = vacuum_row(self.SPEC)
        monkeypatch.setattr(modular, "vacuum_row", lambda spec: [row[0], math.nan])
        if check == "symmetry":
            monkeypatch.setattr(modular, "unitarity_residual", lambda entries: 0.0)
        with pytest.raises(SelfCheckFailed, match=f"failed {check}"):
            s_matrix.__wrapped__(self.SPEC)
