import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcft import (
    AlgebraSpec,
    CosetSpec,
    SimpleCurrentReport,
    SMatrix,
    SparseTensor,
    Weight,
    conjugate_weight,
    dimension_homomorphism_residual,
    fuse,
    fusion_ring,
    integrable_weights,
    kac_walton,
    product_quantum_dimension,
    product_ring,
    quantum_dimension,
    ring_axiom_failures,
    s_matrix,
    simple_current_check,
    verlinde_tensor,
)
from cosetcft import cli, fusion, modular, verify, weights
from cosetcft.report import coset_ring_reports
from cosetcft.verify import DESK_SPECS, SUITES, Config
from cosetcft.coset import coset_ring
from cosetcft.maverick import build_maverick_ring
from cosetcft.torus import _class_ring, torus_ring

DESK = [(n, k) for n in (2, 3, 4) for k in range(1, 7)]


def su2_oracle(k, i, j, l):
    """Brute-force sine sum for level-k su(2) fusion coefficients."""
    total = 0.0
    for m in range(k + 1):
        s = lambda a: math.sqrt(2 / (k + 2)) * math.sin(
            math.pi * (a + 1) * (m + 1) / (k + 2)
        )
        total += s(i) * s(j) * s(l) / s(0)
    return round(total)


class TestAgainstOracles:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_su2_brute_force(self, k):
        spec = AlgebraSpec.su(2, k)
        ring = verlinde_tensor(s_matrix(spec))
        for i in range(k + 1):
            for j in range(k + 1):
                for l in range(k + 1):
                    assert ring.coeff(i, j, l) == su2_oracle(k, i, j, l)

    def test_su2_level1(self):
        spec = AlgebraSpec.su(2, 1)
        ring = verlinde_tensor(s_matrix(spec))
        assert ring.coeff(1, 1, 0) == 1
        assert ring.coeff(1, 1, 1) == 0

    def test_su2_level2_middle_square(self):
        spec = AlgebraSpec.su(2, 2)
        ring = verlinde_tensor(s_matrix(spec))
        w = lambda l: Weight(spec, (l,))
        assert fuse(ring, w(1), w(1)) == [(w(0), 1), (w(2), 1)]

    def test_su2_level8_spin1_square(self):
        spec = AlgebraSpec.su(2, 8)
        ring = verlinde_tensor(s_matrix(spec))
        w = lambda l: Weight(spec, (l,))
        assert fuse(ring, w(2), w(2)) == [(w(0), 1), (w(2), 1), (w(4), 1)]

    def test_su3_level2_fundamental_square(self):
        spec = AlgebraSpec.su(3, 2)
        ring = verlinde_tensor(s_matrix(spec))
        w = lambda a, b: Weight(spec, (a, b))
        assert fuse(ring, w(1, 0), w(1, 0)) == [(w(0, 1), 1), (w(2, 0), 1)]
        # the adjoint channel of 3 x 3bar survives at level 2
        assert fuse(ring, w(1, 0), w(0, 1)) == [(w(0, 0), 1), (w(1, 1), 1)]

    def test_vacuum_row_is_identity(self):
        for n, k in [(2, 3), (3, 2), (4, 1)]:
            spec = AlgebraSpec.su(n, k)
            ring = verlinde_tensor(s_matrix(spec))
            for j, x in enumerate(ring.basis):
                assert fuse(ring, spec.vacuum(), x) == [(x, 1)]


class TestRingAxioms:
    @pytest.mark.parametrize("n,k", DESK)
    def test_axioms_and_integrality(self, n, k):
        ring = verlinde_tensor(s_matrix(AlgebraSpec.su(n, k)))
        assert ring.constants.v.dtype == np.int8 and ring.constants.v.min() > 0
        assert ring.axiom_failures() == []

    @pytest.mark.parametrize("n,k", DESK)
    def test_cyclic_covariance(self, n, k):
        ring = verlinde_tensor(s_matrix(AlgebraSpec.su(n, k)))
        tensor = ring.constants.dense()
        for t in range(1, n):
            perm = np.array(ring.sigma_permutation(t))
            moved = tensor[np.ix_(perm, range(len(perm)), perm)]
            assert np.array_equal(moved, tensor)

    @pytest.mark.parametrize("n,k", DESK)
    def test_dimension_homomorphism(self, n, k):
        spec = AlgebraSpec.su(n, k)
        sm = s_matrix(spec)
        ring = verlinde_tensor(sm)
        dims = np.array([quantum_dimension(sm, x) for x in ring.basis])
        worst = 0.0
        for (i, j), payload in ring.table.items():
            total = sum(c * dims[l] for l, c in payload.items())
            worst = max(worst, abs(total - dims[i] * dims[j]))
        assert worst < 1e-6

    def test_integrality_guard_fires_on_corrupt_s(self):
        # the constants are summed exactly from the basis weights, not from
        # the S-matrix's floats, so a shifted matrix gives the true ring's
        # constants; the shift reaches only the dimensions, and the
        # dimension residual is the guard that fires on it
        sm = s_matrix(AlgebraSpec.su(2, 3))
        ring = verlinde_tensor(SMatrix(sm.spec, sm.basis, sm.entries + 0.01))
        assert ring.constants == fusion_ring(sm.spec).constants
        assert dimension_homomorphism_residual(ring) > 1e-6
        assert dimension_homomorphism_residual(fusion_ring(sm.spec)) < 1e-6

    def test_guard_names_the_first_failing_row(self):
        # su(2)_2 ordered (1, psi, sigma) with a phase on sigma's row, which
        # keeps S unitary: every pair still fuses as in the true ring
        sm = s_matrix(AlgebraSpec.su(2, 2))
        order = [0, 2, 1]
        entries = sm.entries[order][:, order]
        entries[2] *= np.exp(0.1j)
        basis = tuple(sm.basis[x] for x in order)
        phased = verlinde_tensor(SMatrix(sm.spec, basis, entries))
        assert phased.basis == basis
        for i, j in itertools.product(basis, repeat=2):
            assert fuse(phased, i, j) == fuse(fusion_ring(sm.spec), i, j)

def sparse_of(tensor):
    """The nonzero entries of a dense m x m x m tensor as a SparseTensor with
    int64 targets and values; np.nonzero lists them in C order, which is
    (i, j, k) order."""
    m = len(tensor)
    i, j, k = np.nonzero(tensor)
    ptr = np.searchsorted(i * m + j, np.arange(m * m + 1)).astype(np.int32)
    return SparseTensor(tensor.shape, ptr, k, tensor[i, j, k])


def entry_pairs(t: SparseTensor) -> tuple[np.ndarray, np.ndarray]:
    """Reference positions, independent of ``SparseTensor.positions``: each
    entry's pair index, repeated from the run lengths, split into (i, j)."""
    m = t.shape[0]
    return np.divmod(np.repeat(np.arange(m * m), np.diff(t.pair_ptr)), m)


def verlinde_rows(sm):
    """Float reference: the Verlinde sums over the S-matrix's entries, as the
    nonzero (j, k, N_ij^k) of each row i in turn, in (j, k) order.  Row i's
    m x m complex block is rounded where every sum lies within 1e-6 of a
    nonnegative integer; no m x m x m array is held."""
    mat = sm.entries
    weights = mat.conj() / mat[0][None, :]
    for i in range(len(mat)):
        raw = (mat * mat[i]) @ weights.T  # sum_mu S_i,mu S_j,mu w_k,mu over (j, k)
        block = np.rint(raw.real)
        raw.real -= block
        assert np.abs(raw).max() < 1e-6 and block.min() >= 0, f"row {i}"
        j, k = np.nonzero(block)
        yield j, k, block[j, k].astype(np.int64)


def admitted_specs():
    """Every su(N)_k whose Verlinde ring the budgets admit: m^3 Verlinde
    sums within DENSE_BUDGET and m^2 N^2 S-matrix phases within it too."""
    for n in itertools.count(2):
        k = 1
        while (m := math.comb(k + n - 1, n - 1)) ** 3 <= weights.DENSE_BUDGET and (
            (m * n) ** 2 <= weights.DENSE_BUDGET
        ):
            yield AlgebraSpec.su(n, k), m
            k += 1
        if k == 1:
            return


class TestExactField:
    def test_every_admitted_spec_has_an_exact_field(self):
        # p = 1 mod N h, omega of exact order N h, m p^2 <= 2^53 for exact
        # float64 sums, and max d^2 < p, so every N_ij^k <= max d^2 is its
        # own residue; the worst ratio is 0.0103, at su(3)_21
        worst = 0.0
        for spec, m in admitted_specs():
            order = spec.n * (spec.k + spec.n)
            p, powers = fusion._prime_field(order)
            assert p % order == 1 and (p % np.arange(2, math.isqrt(p) + 1)).all(), spec
            assert len(set(powers.tolist())) == order and powers[-1] * powers[1] % p == 1
            assert m * p**2 <= 2**53
            largest = max(weights.quantum_dimensions(spec).values())
            worst = max(worst, largest**2 / p)
        assert worst < 0.02

    def test_a_field_below_max_d_squared_is_refused(self, monkeypatch):
        # su(4)_6 in F_41, where 6 has order 40 = N h: its dimensions reach
        # about 23, so N_ij^k need not be below p
        spec = AlgebraSpec.su(4, 6)
        assert max(weights.quantum_dimensions(spec).values()) ** 2 > 41
        powers = np.array([pow(6, e, 41) for e in range(40)])
        monkeypatch.setattr(fusion, "_prime_field", lambda order: (41, powers))
        sm = s_matrix(spec)
        with pytest.raises(ArithmeticError, match="not exact mod 41"):
            fusion.verlinde_constants(sm.basis, fusion_ring(spec).conj)

    def test_determinants_match_the_leibniz_sum(self):
        # random residue matrices, some singular and some with zero leading
        # pivots, against the exact sum over permutations
        def leibniz(mat):
            n = len(mat)
            total = 0
            for perm in itertools.permutations(range(n)):
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                total += (-1) ** inversions * math.prod(mat[r][perm[r]] for r in range(n))
            return total

        p = 7_000_003
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4, 5):
            mats = rng.integers(0, p, (n, n, 40))
            mats[:, :, :10] = rng.integers(0, 2, (n, n, 10))  # zero pivots, rank drops
            if n > 1:
                mats[1, :, 10:15] = mats[0, :, 10:15]  # two equal rows
            want = [leibniz(mats[:, :, x].tolist()) % p for x in range(40)]
            num, den = fusion._determinants(mats.copy(), p)
            assert [a * pow(int(b), p - 2, p) % p for a, b in zip(num, den)] == want


class TestRowByRow:
    @pytest.mark.parametrize(
        "n,k",
        DESK_SPECS
        + [(4, 8), (3, 16), (2, 200), (5, 5), (6, 4), (7, 3), (10, 2), (16, 1)],
    )
    def test_matches_one_shot_einsum(self, n, k):
        sm = s_matrix(AlgebraSpec.su(n, k))
        ring = verlinde_tensor(sm)
        t = ring.constants
        row_ptr = t.pair_ptr[:: len(sm.basis)].tolist()
        cols = entry_pairs(t)[1]
        for i, want in enumerate(verlinde_rows(sm)):
            run = slice(row_ptr[i], row_ptr[i + 1])
            assert all(map(np.array_equal, (cols[run], t.k[run], t.v[run]), want)), i
        assert row_ptr[-1] == t.v.size
        assert ring.conj == tuple(sm.index(conjugate_weight(w)) for w in sm.basis)
        assert ring.dims == {w: quantum_dimension(sm, w) for w in sm.basis}

    def test_memory_below_the_tensor(self):
        sm = s_matrix(AlgebraSpec.su(4, 6))
        m = len(sm.basis)  # 84
        tracemalloc.start()
        try:
            verlinde_tensor(sm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m**3 * 16  # one complex m x m x m array


def ising_tensor():
    """su(2)_2 fusion: basis 1, sigma, psi."""
    ring = verlinde_tensor(s_matrix(AlgebraSpec.su(2, 2)))
    return ring.constants.dense(), ring.conj


def group_algebra(elements, multiply):
    """Structure constants N_gh^k = delta(k, gh); elements[0] is the unit."""
    index = {g: a for a, g in enumerate(elements)}
    m = len(elements)
    tensor = np.zeros((m, m, m), dtype=np.int64)
    conj = [0] * m
    for a, g in enumerate(elements):
        for b, h in enumerate(elements):
            c = index[multiply(g, h)]
            tensor[a, b, c] = 1
            if c == 0:
                conj[a] = b
    return tensor, conj


def brute_force_associative(tensor):
    lhs = np.einsum("ijm,mkl->ijkl", tensor, tensor)  # (b_i b_j) b_k
    rhs = np.einsum("jkm,iml->ijkl", tensor, tensor)  # b_i (b_j b_k)
    return np.array_equal(lhs, rhs)


@st.composite
def commutative_tensors(draw):
    m = draw(st.integers(1, 4))
    entries = draw(
        st.lists(st.integers(0, 2), min_size=m * m * m, max_size=m * m * m)
    )
    tensor = np.array(entries, dtype=np.int64).reshape(m, m, m)
    upper = np.triu(np.ones((m, m), dtype=bool))[:, :, None]
    return np.where(upper, tensor, tensor.transpose(1, 0, 2))


class TestAxiomFailureMessages:
    def test_negative_entry(self):
        tensor, conj = ising_tensor()
        tensor[1, 1, 2] = -1  # diagonal pair: stays commutative
        failures = ring_axiom_failures(sparse_of(tensor), conj)
        assert failures[0] == "negative structure constant"

    def test_unit_row(self):
        tensor, conj = ising_tensor()
        tensor[0, 2, 2] = tensor[2, 0, 2] = 2
        assert "unit row is not the identity permutation" in ring_axiom_failures(
            sparse_of(tensor), conj
        )

    def test_commutativity(self):
        tensor, conj = ising_tensor()
        tensor[1, 2, 1] = 2
        assert ring_axiom_failures(sparse_of(tensor), conj) == [
            "commutativity fails"
        ]

    def test_conjugation(self):
        tensor, _ = ising_tensor()
        assert ring_axiom_failures(sparse_of(tensor), [0, 2, 1]) == [
            "conjugation axiom N_ij^0 = delta(j, conj i) fails"
        ]

    def test_commutative_but_not_associative(self):
        # basis 1, x, y with x*x = y*y = 1 and x*y = y*x = x:
        # (x*x)*y = y but x*(x*y) = 1
        tensor = np.zeros((3, 3, 3), dtype=np.int64)
        for j in range(3):
            tensor[0, j, j] = tensor[j, 0, j] = 1
        tensor[1, 1, 0] = tensor[2, 2, 0] = 1
        tensor[1, 2, 1] = tensor[2, 1, 1] = 1
        assert not brute_force_associative(tensor)
        assert ring_axiom_failures(sparse_of(tensor), [0, 1, 2]) == [
            "associativity fails for left factor index 1"
        ]

    def test_s3_group_algebra_is_only_noncommutative(self):
        # associative but not commutative: the associativity step is skipped
        perms = list(itertools.permutations(range(3)))
        compose = lambda g, h: tuple(g[h[x]] for x in range(3))
        tensor, conj = group_algebra(perms, compose)
        assert brute_force_associative(tensor)
        assert ring_axiom_failures(sparse_of(tensor), conj) == [
            "commutativity fails"
        ]

    def test_exactness_guard(self):
        tensor, conj = ising_tensor()
        tensor[1, 1, 2] = 2**27  # row sum times max entry exceeds 2^53
        assert ring_axiom_failures(sparse_of(tensor), conj) == [
            "structure constants too large for an exact associativity check"
        ]

    @settings(max_examples=200, deadline=None)
    @given(commutative_tensors())
    def test_associativity_verdict_matches_brute_force(self, tensor):
        conj = list(range(len(tensor)))
        failures = ring_axiom_failures(sparse_of(tensor), conj)
        flagged = any(f.startswith("associativity fails") for f in failures)
        assert flagged == (not brute_force_associative(tensor))


@st.composite
def permuted_verlinde_rings(draw):
    """A small Verlinde ring relabelled by a permutation that fixes 0."""
    n, k = draw(st.sampled_from([(2, 3), (2, 6), (3, 2), (3, 4), (4, 2), (5, 1)]))
    ring = verlinde_tensor(s_matrix(AlgebraSpec.su(n, k)))
    m = len(ring.basis)
    perm = [0] + draw(st.permutations(range(1, m)))
    inverse = np.argsort(perm)
    conj = ring.conj
    tensor = ring.constants.dense()[np.ix_(perm, perm, perm)]
    return tensor, [int(inverse[conj[p]]) for p in perm]


def spy_on_scan(monkeypatch):
    """Record the tensors handed to the per-row associativity scan."""
    calls = []
    scan = fusion._first_nonassociative_row

    def spy(t):
        calls.append(t)
        return scan(t)

    monkeypatch.setattr(fusion, "_first_nonassociative_row", spy)
    return calls


def forbid_scan(monkeypatch):
    def no_scan(t):
        raise AssertionError(f"row scan ran at m={len(t)}")

    monkeypatch.setattr(fusion, "_first_nonassociative_row", no_scan)


# the coset rings the benchmark's coset-ring ops build, plus the torus and
# Maverick rings that `verify all` checks
BENCHMARK_RINGS = {
    "coset-3,3,2": lambda: coset_ring(CosetSpec(3, 3, 2)),
    "coset-4,2,1": lambda: coset_ring(CosetSpec(4, 2, 1)),
    "coset-2,5,3": lambda: coset_ring(CosetSpec(2, 5, 3)),
    "coset-2,1,1": lambda: coset_ring(CosetSpec(2, 1, 1)),
    "coset-3,2,1": lambda: coset_ring(CosetSpec(3, 2, 1)),
    "torus-2,2": lambda: torus_ring(2, 2),
    "maverick": build_maverick_ring,
}


class TestCommutingCertificate:
    @settings(max_examples=50, deadline=None)
    @given(permuted_verlinde_rings())
    def test_relabelled_verlinde_rings_pass(self, case):
        tensor, conj = case
        assert ring_axiom_failures(sparse_of(tensor), conj) == []

    @pytest.mark.parametrize("n,k", DESK_SPECS)
    def test_decides_desk_rings_without_scan(self, monkeypatch, n, k):
        forbid_scan(monkeypatch)
        ring = verlinde_tensor(s_matrix(AlgebraSpec.su(n, k)))
        assert ring.axiom_failures() == []

    @pytest.mark.parametrize("name", BENCHMARK_RINGS)
    def test_decides_benchmark_rings_without_scan(self, monkeypatch, name):
        forbid_scan(monkeypatch)
        ring = BENCHMARK_RINGS[name]()
        assert ring.axiom_failures() == []

    def test_derogatory_ring_falls_back_to_scan(self, monkeypatch):
        # Z[x,y]/(x^2, y^2, xy) on basis 1, x, y: commutative and associative,
        # but every A = a + b x + c y has (A - a)^2 = 0, so A is derogatory
        calls = spy_on_scan(monkeypatch)
        tensor = np.zeros((3, 3, 3), dtype=np.int64)
        for j in range(3):
            tensor[0, j, j] = tensor[j, 0, j] = 1
        assert brute_force_associative(tensor)
        assert ring_axiom_failures(sparse_of(tensor), [0, 1, 2]) == [
            "conjugation axiom N_ij^0 = delta(j, conj i) fails"
        ]
        assert len(calls) == 1

    def test_float_guard_falls_back_to_scan(self, monkeypatch):
        # Z[x]/(x^2 - 2^25 x) is associative; the scan's bound 2^50 is exact,
        # but A = 2 + 9x times N_x reaches 9 * 2^50 > 2^53
        calls = spy_on_scan(monkeypatch)
        tensor = np.zeros((2, 2, 2), dtype=np.int64)
        tensor[0, 0, 0] = tensor[0, 1, 1] = tensor[1, 0, 1] = 1
        tensor[1, 1, 1] = 2**25
        assert ring_axiom_failures(sparse_of(tensor), [0, 1]) == [
            "conjugation axiom N_ij^0 = delta(j, conj i) fails"
        ]
        assert len(calls) == 1

    def test_rank_mod_p(self):
        # the certificate's rank test: a determinant nonzero mod p
        def full_rank(mat):
            return fusion._determinants(np.array(mat)[:, :, None], p)[0][0] != 0

        p = fusion.KRYLOV_PRIME
        assert full_rank([[0, 1, 0], [1, 0, 0], [0, 0, p - 1]])  # a zero pivot
        assert not full_rank([[1, 2], [2, 4]])
        assert not full_rank([[0, 0], [0, 1]])

    def test_krylov_modulus_is_a_prime_below_2_25(self):
        p = fusion.KRYLOV_PRIME
        assert p < 2**25
        assert all(p % d for d in range(2, math.isqrt(p) + 1))


# su(N)_k with m <= 60 integrable weights
SMALL_SPECS = [
    (n, k) for n in range(2, 7) for k in range(1, 13) if math.comb(k + n - 1, k) <= 60
]


class TestFusePair:
    """``kac_walton`` fuses one pair exactly, from one irrep's weights, and
    lists the channels as ``fuse`` reads them from the Verlinde ring."""

    @pytest.mark.parametrize("n,k", DESK_SPECS)
    def test_every_pair_matches_the_ring(self, n, k):
        ring = fusion_ring(AlgebraSpec.su(n, k))
        for i, j in itertools.product(ring.basis, repeat=2):
            assert kac_walton(i, j) == fuse(ring, i, j)

    def test_su4_level8_pair(self):
        spec = AlgebraSpec.su(4, 8)
        i, j = Weight(spec, (1, 0, 0)), Weight(spec, (0, 0, 1))
        assert kac_walton(i, j) == fuse(verlinde_tensor(s_matrix(spec)), i, j)

    def test_tight_tolerance_names_the_pair(self):
        # a corrupt S-matrix's ring fuses every pair as kac_walton does
        spec = AlgebraSpec.su(3, 2)
        sm = s_matrix(spec)
        ring = verlinde_tensor(SMatrix(spec, sm.basis, sm.entries + 0.01))
        for i, j in itertools.product(sm.basis, repeat=2):
            assert kac_walton(i, j) == fuse(ring, i, j)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_SPECS), st.data())
    def test_random_spec_matches_the_ring(self, nk, data):
        basis = integrable_weights(AlgebraSpec.su(*nk))
        i, j = (data.draw(st.sampled_from(basis)) for _ in range(2))
        assert kac_walton(i, j) == fuse(fusion_ring(i.spec), i, j)

    def test_refused_before_any_weight(self, monkeypatch):
        def no_weights(*args):
            raise AssertionError("a weight was built before the budget check")

        for name in ("finite_weight_multiplicities", "_dominant_weights", "distinct_permutations"):
            monkeypatch.setattr(weights, name, no_weights)
        spec = AlgebraSpec.su(4, 100)
        big, bar = Weight(spec, (100, 0, 0)), Weight(spec, (0, 0, 100))
        assert weights.weyl_dimension(big.labels) == math.comb(103, 3)  # 176,851
        with pytest.raises(ValueError, match="over the budget"):
            kac_walton(big, bar)

    def test_weights_of_two_specs_are_refused(self):
        with pytest.raises(ValueError, match="different specs"):
            kac_walton(AlgebraSpec.su(3, 1).vacuum(), AlgebraSpec.su(3, 2).vacuum())

    def test_budget_counts_the_rank(self):
        # dimension 2000 is within WEIGHT_BUDGET, but 2000 * 2000^2
        # comparisons are not; the unit is walked as one weight
        spec = AlgebraSpec.su(2000, 1)
        vector = Weight(spec, (1,) + (0,) * 1998)
        with pytest.raises(ValueError, match="over the budget"):
            kac_walton(vector, Weight(spec, (0,) * 1998 + (1,)))
        assert kac_walton(spec.vacuum(), vector) == [(vector, 1)]

    def test_walks_the_smaller_irrep(self, monkeypatch):
        walked = []
        original = weights.finite_weight_multiplicities

        def recording(lam):
            walked.append(lam)
            return original(lam)

        monkeypatch.setattr(weights, "finite_weight_multiplicities", recording)
        spec = AlgebraSpec.su(3, 40)  # no channel meets the level
        big, small = Weight(spec, (20, 10)), Weight(spec, (1, 0))
        assert kac_walton(big, small) == [
            (Weight(spec, labels), 1) for labels in ((19, 11), (20, 9), (21, 10))
        ]
        assert walked == [small.labels]


class TestSharedRings:
    def test_memoized(self):
        spec = AlgebraSpec.su(3, 2)
        assert fusion_ring(spec) is fusion_ring(spec)

    def test_a_configured_tolerance_builds_no_second_ring(self, monkeypatch):
        calls = []
        original = fusion.verlinde_tensor

        def counting(*args, **kwargs):
            calls.append(args[0].spec)
            return original(*args, **kwargs)

        fusion_ring.cache_clear()
        # fusion_ring looks verlinde_tensor up in `fusion` at call time
        monkeypatch.setattr(fusion, "verlinde_tensor", counting)
        coset = CosetSpec(3, 2, 1)
        specs = list(coset.factor_specs())
        config = Config(tolerance_integrality=1e-3)
        assert verify.check_fusion(config, [(f.n, f.k) for f in specs]).passed
        coset_ring(coset)
        assert calls == specs

    def test_desk_suites_build_each_ring_once(self, monkeypatch):
        calls = []
        original = fusion.verlinde_tensor

        def counting(*args, **kwargs):
            calls.append(args[0].spec)
            return original(*args, **kwargs)

        fusion_ring.cache_clear()
        # fusion_ring looks verlinde_tensor up in `fusion` at call time
        monkeypatch.setattr(fusion, "verlinde_tensor", counting)
        for name in ("fusion", "simple-current"):
            assert SUITES[name](Config(), True).passed
        assert len(calls) == 18
        # the coset and torus suites ask for the same rings, and su(2)_1 and
        # su(2)_2 among them are desk specs: no ring is rebuilt
        for suite in SUITES.values():
            assert suite(Config(), True).passed
        assert len(calls) == len(set(calls)) == 18


def forbid(monkeypatch, *names):
    """Make numpy allocators raise, so a missing budget check fails fast."""

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the budget check")

    for name in names:
        monkeypatch.setattr(np, name, refuse)


class TestDenseBudget:
    def test_boundary(self):
        budget = weights.DENSE_BUDGET
        weights.require_budget(budget, budget, "an array")
        with pytest.raises(ValueError, match="budget"):
            weights.require_budget(budget + 1, budget, "an array")

    def test_s_matrix_phases_refused(self, monkeypatch):
        forbid(monkeypatch, "exp")
        with pytest.raises(ValueError, match="budget"):
            s_matrix(AlgebraSpec.su(4, 30))  # m = 5456

    def test_verlinde_tensor_refused(self, monkeypatch):
        sm = s_matrix(AlgebraSpec.su(2, 256))  # m = 257, m^3 just over 2^24
        forbid(monkeypatch, "rint")  # the first row's rounding
        with pytest.raises(ValueError, match="budget"):
            verlinde_tensor(sm)

    def test_dense_refused(self, monkeypatch):
        forbid(monkeypatch, "zeros")
        with pytest.raises(ValueError, match="budget"):
            tensor_of({}, 257).dense()


def tensor_of(table, m):
    """The entries of {(i, j): {k: value}}, listed in the table's order, as
    a SparseTensor of m basis elements."""
    entries = [(i, j, k, c) for (i, j), row in table.items() for k, c in row.items()]
    i, j, k, v = np.array(entries, dtype=np.int64).reshape(-1, 4).T
    return SparseTensor.from_entries(m, i, j, k, v)


def loop_dense(table, m):
    """Reference: the dense tensor filled one table entry at a time."""
    t = np.zeros((m, m, m), dtype=np.int64)
    for (i, j), payload in table.items():
        for k, c in payload.items():
            t[i, j, k] = c
    return t


@pytest.mark.parametrize(
    "build",
    [
        lambda: verlinde_tensor(s_matrix(AlgebraSpec.su(3, 4))),
        lambda: product_of((2, 2), (2, 1)),
        lambda: coset_ring(CosetSpec(3, 2, 1)),
        lambda: torus_ring(2, 2),
        build_maverick_ring,
    ],
    ids=["verlinde", "product", "coset", "torus", "maverick"],
)
def test_dense_matches_entrywise_fill(build):
    ring = build()
    m = len(ring.basis)
    assert np.array_equal(ring.constants.dense(), loop_dense(ring.table, m))


@pytest.mark.parametrize(
    "build",
    [
        lambda: verlinde_tensor(s_matrix(AlgebraSpec.su(3, 2))),
        lambda: product_of((2, 2), (3, 1)),
        lambda: coset_ring(CosetSpec(3, 2, 1)),
        lambda: torus_ring(2, 2),
        build_maverick_ring,
    ],
    ids=["verlinde", "product", "coset", "torus", "maverick"],
)
def test_dimension_residual_of_every_ring_kind(build):
    ring = build()
    assert dimension_homomorphism_residual(ring) < 1e-9
    # one wrong dimension off the unit breaks the homomorphism
    b = ring.basis[1]
    broken = dataclasses.replace(ring, dims={**ring.dims, b: ring.dims[b] + 0.5})
    assert dimension_homomorphism_residual(broken) > 1e-6


def test_dense_of_empty_table():
    assert not tensor_of({}, 3).dense().any()


def test_axiom_check_memory():
    # beyond its input, the certificate holds only m x m slices
    ring = coset_ring(CosetSpec(3, 3, 2))
    tensor, conj = ring.constants, ring.conj
    m = tensor.shape[0]
    tracemalloc.start()
    try:
        assert ring_axiom_failures(tensor, conj) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m**3


def product_of(*pairs):
    """Product ring of the Verlinde rings of su(n)_k for each (n, k)."""
    return product_ring([fusion_ring(AlgebraSpec.su(n, k)) for n, k in pairs])


class TestProducts:
    def test_single_factor_unchanged(self):
        ring = verlinde_tensor(s_matrix(AlgebraSpec.su(2, 2)))
        assert product_ring([ring]) is ring

    def test_level1_pair_conjugation(self):
        spec = AlgebraSpec.su(2, 1)
        ring = product_of((2, 1), (2, 1))
        x = Weight(spec, (1,))
        assert fuse(ring, (x, x), (x, x)) == [((spec.vacuum(), spec.vacuum()), 1)]

    def test_dims_and_conjugation_factorwise(self):
        ring = product_of((2, 2), (3, 1), (2, 1))
        for b in ring.basis:
            assert ring.dims[b] == product_quantum_dimension(b)
        assert list(ring.conj) == [
            ring.index(tuple(map(conjugate_weight, b))) for b in ring.basis
        ]

    def test_basis_size_multiplies(self):
        ring = product_of((2, 2), (2, 1))
        assert len(ring.basis) == 6

    @pytest.mark.parametrize(
        "factors",
        [
            ((2, 2), (2, 1)),
            ((3, 1), (2, 2)),
            ((2, 1), (2, 1), (2, 2)),
        ],
    )
    def test_product_axioms(self, factors):
        ring = product_of(*factors)
        assert ring.axiom_failures() == []

    def test_product_coefficients_factorize(self):
        r1 = verlinde_tensor(s_matrix(AlgebraSpec.su(2, 2)))
        r2 = verlinde_tensor(s_matrix(AlgebraSpec.su(2, 1)))
        prod = product_ring([r1, r2])
        for (i1, j1) in itertools.product(range(3), repeat=2):
            for (i2, j2) in itertools.product(range(2), repeat=2):
                for k1 in range(3):
                    for k2 in range(2):
                        assert prod.coeff(
                            i1 * 2 + i2, j1 * 2 + j2, k1 * 2 + k2
                        ) == r1.coeff(i1, j1, k1) * r2.coeff(i2, j2, k2)


# every (N, k) whose Verlinde ring has at most 60 weights, C(k+N-1, N-1)
SMALL_SPECS = [
    (n, k)
    for n in range(2, 9)
    for k in range(1, 60)
    if math.comb(k + n - 1, n - 1) <= 60
]


def weight_count(nk):
    n, k = nk
    return math.comb(k + n - 1, n - 1)


def small_specs(most=60):
    """Entries of SMALL_SPECS with at most ``most`` weights; the rank is drawn
    first, so that su(2) does not dominate."""
    fits = [nk for nk in SMALL_SPECS if weight_count(nk) <= most]
    ranks = sorted({n for n, _ in fits})
    return st.sampled_from(ranks).flatmap(
        lambda n: st.sampled_from([nk for nk in fits if nk[0] == n])
    )


@st.composite
def small_spec_pairs(draw):
    """Two small specs whose product ring has at most 60 elements."""
    first = draw(small_specs(30))
    return first, draw(small_specs(60 // weight_count(first)))


class TestRingProperties:
    @settings(deadline=None)
    @given(small_specs())
    def test_verlinde_ring_axioms_and_dimensions(self, nk):
        ring = fusion_ring(AlgebraSpec.su(*nk))
        assert ring.axiom_failures() == []
        assert dimension_homomorphism_residual(ring) < 1e-9

    @settings(deadline=None)
    @given(small_spec_pairs())
    def test_product_ring_axioms_and_dimensions(self, pair):
        ring = product_of(*pair)
        assert ring.axiom_failures() == []
        assert dimension_homomorphism_residual(ring) < 1e-9
        for b in ring.basis:
            assert ring.dims[b] == product_quantum_dimension(b)

    @settings(deadline=None)
    @given(small_spec_pairs())
    def test_product_ring_factorizes(self, pair):
        rings = [fusion_ring(AlgebraSpec.su(*nk)) for nk in pair]
        ring = product_ring(rings)
        a, b = (r.constants.dense() for r in rings)
        m = len(ring.basis)
        expected = np.einsum("ijk,lmn->iljmkn", a, b).reshape(m, m, m)
        assert np.array_equal(ring.constants.dense(), expected)
        for x in ring.basis:
            assert ring.dims[x] == product_quantum_dimension(x)
        assert list(ring.conj) == [
            ring.index(tuple(map(conjugate_weight, x))) for x in ring.basis
        ]

    @settings(deadline=None)
    @given(small_spec_pairs(), st.data())
    def test_single_member_orbits_in_any_order(self, pair, data):
        # every product tuple its own orbit, listed in a drawn order with the
        # unit tuple first, as the Maverick ring lists its words
        rings = [fusion_ring(AlgebraSpec.su(*nk)) for nk in pair]
        tuples = list(itertools.product(*(range(len(r.basis)) for r in rings)))
        order = [tuples[0], *data.draw(st.permutations(tuples[1:]))]
        ring = fusion.orbit_ring(
            rings, [[t] for t in order], tuple(order), dict.fromkeys(order, 1.0)
        )
        a, b = (r.constants.dense() for r in rings)
        m = len(order)
        flat = [tuples.index(t) for t in order]
        expected = np.einsum("ijk,lmn->iljmkn", a, b).reshape(m, m, m)
        assert np.array_equal(ring.constants.dense(), expected[np.ix_(flat, flat, flat)])
        assert list(ring.conj) == [
            order.index(tuple(r.conj[x] for r, x in zip(rings, t))) for t in order
        ]


class TestSimpleCurrents:
    @pytest.mark.parametrize("n,k", DESK)
    def test_translation_rule(self, n, k):
        ring = verlinde_tensor(s_matrix(AlgebraSpec.su(n, k)))
        report = simple_current_check(ring)
        assert report.passed, report.failures[:5]
        assert report.checked == n * len(ring.basis) ** 2

    def test_su2_level2_example(self):
        # fusing the middle weight with itself hits sigma(vacuum) = 2,
        # matching sigma(1) = 1
        ring = verlinde_tensor(s_matrix(AlgebraSpec.su(2, 2)))
        assert ring.coeff(1, 1, 2) == 1
        assert ring.sigma_permutation(1)[1] == 1

    def test_su3_level1_is_cyclic_group_ring(self):
        # every fusion is a translation: the ring is the group ring of Z_3
        spec = AlgebraSpec.su(3, 1)
        ring = verlinde_tensor(s_matrix(spec))
        tensor = ring.constants.dense()
        assert tensor.sum() == 9  # one channel per pair
        for (i, j), payload in ring.table.items():
            assert list(payload.values()) == [1]


def coeff_loop_simple_current(ring):
    """Reference: the translation rule checked one coefficient at a time."""
    m = len(ring.basis)
    failures = []
    checked = 0
    for t in range(ring.spec.n):
        perm = ring.sigma_permutation(t)
        for i in range(m):
            for ip in range(m):
                expected = 1 if perm[i] == ip else 0
                if ring.coeff(ring.conj[i], ip, perm[0]) != expected:
                    failures.append((t, i, ip))
                checked += 1
    return SimpleCurrentReport(not failures, checked, failures)


@pytest.mark.parametrize("n,k", DESK_SPECS)
def test_simple_current_check_matches_coeff_loop(n, k):
    ring = fusion_ring(AlgebraSpec.su(n, k))
    assert simple_current_check(ring) == coeff_loop_simple_current(ring)


def test_simple_current_check_of_tampered_ring():
    # su(3)_2 with one translation channel doubled and a stray channel
    # 1 x sigma(1) -> sigma(vacuum) added
    ring = fusion_ring(AlgebraSpec.su(3, 2))
    perm = ring.sigma_permutation(1)
    table = {pair: dict(payload) for pair, payload in ring.table.items()}
    table[(ring.conj[1], perm[1])][perm[0]] = 2
    table[(0, perm[1])][perm[0]] = 1
    constants = tensor_of(table, len(ring.basis))
    tampered = dataclasses.replace(ring, constants=constants)
    report = simple_current_check(tampered)
    assert not report.passed and len(report.failures) >= 2
    assert report == coeff_loop_simple_current(tampered)


def test_reports_memory():
    # neither report of a coset ring holds an m^3 array
    ring = coset_ring(CosetSpec(3, 3, 2))
    m = len(ring.basis)
    tracemalloc.start()
    try:
        reports = coset_ring_reports(ring, Config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 8 * m**3


ARRAY_CHECK_MESSAGES = (
    "negative structure constant",
    "unit row is not the identity permutation",
    "commutativity fails",
    "conjugation axiom N_ij^0 = delta(j, conj i) fails",
)


def dense_reference_messages(tensor, conj):
    """Reference for the array checks: the negativity, unit, commutativity
    and conjugation messages read off the dense tensor."""
    m = len(tensor)
    out = []
    if tensor.min() < 0:
        out.append("negative structure constant")
    if not np.array_equal(tensor[0], np.eye(m, dtype=np.int64)):
        out.append("unit row is not the identity permutation")
    if not np.array_equal(tensor, tensor.transpose(1, 0, 2)):
        out.append("commutativity fails")
    conj_matrix = np.zeros((m, m), dtype=np.int64)
    conj_matrix[np.arange(m), conj] = 1
    if not np.array_equal(tensor[:, :, 0], conj_matrix):
        out.append("conjugation axiom N_ij^0 = delta(j, conj i) fails")
    return out


@st.composite
def small_tensors(draw):
    """Tensors with m <= 4 and entries in [-1, 2], some of them repaired to
    pass the unit, commutativity or conjugation axiom."""
    m = draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(-1, 2), min_size=m**3, max_size=m**3))
    tensor = np.array(entries, dtype=np.int64).reshape(m, m, m)
    conj = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    if draw(st.booleans()):
        tensor[:, :, 0] = 0
        tensor[np.arange(m), conj, 0] = 1
    if draw(st.booleans()):
        tensor[0] = tensor[:, 0] = np.eye(m, dtype=np.int64)
    if draw(st.booleans()):
        upper = np.triu(np.ones((m, m), dtype=bool))[:, :, None]
        tensor = np.where(upper, tensor, tensor.transpose(1, 0, 2))
    return tensor, conj


class TestSparseTensor:
    @settings(max_examples=300, deadline=None)
    @given(small_tensors())
    def test_array_checks_match_dense_reference(self, case):
        tensor, conj = case
        reference = dense_reference_messages(tensor, conj)
        failures = ring_axiom_failures(sparse_of(tensor), conj)
        checked = [f for f in failures if f in ARRAY_CHECK_MESSAGES]
        assert checked == reference

    @pytest.mark.parametrize(
        "build",
        [
            lambda: verlinde_tensor(s_matrix(AlgebraSpec.su(3, 4))),
            lambda: product_of((2, 2), (3, 1)),
            lambda: coset_ring(CosetSpec(3, 2, 1)),
            lambda: torus_ring(2, 2),
            build_maverick_ring,
        ],
        ids=["verlinde", "product", "coset", "torus", "maverick"],
    )
    def test_round_trips(self, build):
        ring = build()
        m = len(ring.basis)
        sparse = ring.constants
        assert sparse.shape == (m, m, m)
        assert np.array_equal(sparse.dense(), loop_dense(ring.table, m))
        again = sparse_of(sparse.dense())
        assert again == sparse
        i, j = entry_pairs(sparse)
        key = (i.astype(np.int64) * m + j) * m + sparse.k
        assert (np.diff(key) > 0).all()
        # rings built twice hold equal constants and compare equal
        assert build() == ring

    def test_unordered_table_is_sorted_and_zeros_dropped(self):
        # a product ring's table with its pairs listed in reverse (i, j) order
        ring = product_of((2, 2), (3, 1))
        table = dict(reversed(ring.table.items()))
        assert list(table) != sorted(table)
        table = {**table, (0, 1): {**table[(0, 1)], 0: 0}}
        sparse = tensor_of(table, len(ring.basis))
        assert sparse == sparse_of(ring.constants.dense())
        assert (sparse.v != 0).all()


@st.composite
def pair_runs(draw):
    """Run offsets of up to 5 x 5 pairs, most runs empty (so whole rows and
    the first or last pair often are), and a range of entries, each end
    either a run start or anywhere from 0 to nnz."""
    m = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=m * m, max_size=m * m))
    ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int32)
    nnz = int(ptr[-1])
    end = st.one_of(st.sampled_from(ptr.tolist()), st.integers(0, nnz))
    start, stop = sorted((draw(end), draw(end)))
    tensor = SparseTensor((m, m, m), ptr, np.zeros(nnz, dtype=np.uint8), np.ones(nnz, np.int8))
    return tensor, start, stop


class TestPositions:
    @settings(max_examples=300, deadline=None)
    @given(pair_runs())
    def test_matches_the_repeated_pair_indices(self, case):
        t, start, stop = case
        m = t.shape[0]
        want_i, want_j = entry_pairs(t)
        i, j = t.positions(start, stop)
        assert i.dtype == j.dtype == np.int32
        assert np.array_equal(i, want_i[start:stop]) and np.array_equal(j, want_j[start:stop])

    @pytest.mark.parametrize(
        "sizes,start,stop",
        [
            ([0] * 9, 0, 0),  # the empty tensor
            ([0, 0, 0, 2, 1, 0, 0, 0, 0], 0, 3),  # empty first and last rows
            ([0, 2, 0, 0, 0, 0, 0, 3, 0], 1, 4),  # empty first and last pairs, cut mid-run
            ([1, 2, 1, 0, 0, 0, 0, 0, 1], 3, 3),  # start == stop
            ([1, 2, 1, 0, 0, 0, 0, 0, 1], 1, 4),  # cut at run starts
            ([1, 2, 1, 0, 0, 0, 0, 0, 1], 2, 5),  # from mid-run to the end
        ],
    )
    def test_edges(self, sizes, start, stop):
        ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int32)
        t = SparseTensor((3, 3, 3), ptr, np.zeros(ptr[-1], np.uint8), np.ones(ptr[-1], np.int8))
        pair = np.repeat(np.arange(9), sizes)[start:stop]
        i, j = t.positions(start, stop)
        assert i.tolist() == (pair // 3).tolist() and j.tolist() == (pair % 3).tolist()


    def test_chunks_are_whole_runs_covering_the_entries(self):
        t = coset_ring(CosetSpec(3, 3, 2)).constants
        m, run_starts = t.shape[0], set(t.pair_ptr.tolist())
        pair = np.repeat(np.arange(m * m), np.diff(t.pair_ptr))
        covered = 0
        for run, i, j in t.chunks():
            assert run.start == covered < run.stop and run.stop in run_starts
            assert run.stop - run.start < fusion.ENTRY_CHUNK + m
            assert np.array_equal(i * m + j, pair[run])
            covered = run.stop
        assert covered == t.v.size > 6 * fusion.ENTRY_CHUNK


class TestIndexChecks:
    """su(3)_2 has 6 weights: no index may alias another pair or target."""

    @pytest.mark.parametrize(
        "i,j,k", [(0, 6, 1), (-1, 0, 3), (5, 6, 0)], ids=["j=m", "i=-1", "past-the-end"]
    )
    def test_coeff_refuses_a_pair_outside_the_ring(self, i, j, k):
        ring = fusion_ring(AlgebraSpec.su(3, 2))
        with pytest.raises(IndexError, match=rf"pair \({i}, {j}\) outside"):
            ring.coeff(i, j, k)
        with pytest.raises(IndexError, match=rf"pair \({i}, {j}\) outside"):
            ring.constants.run(i, j)

    @pytest.mark.parametrize("k", [6, -1])
    def test_coeff_refuses_a_target_outside_the_ring(self, k):
        ring = fusion_ring(AlgebraSpec.su(3, 2))
        with pytest.raises(IndexError, match=f"target {k} outside"):
            ring.coeff(1, 1, k)

    @pytest.mark.parametrize(
        "i,j,k",
        [([0, 0], [0, 5], [0, 1]), ([0, -1], [0, 0], [0, 1]), ([0], [0], [256])],
        ids=["j=5", "i=-1", "k=256"],
    )
    def test_from_entries_refuses_a_position_outside_the_ring(self, i, j, k):
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            SparseTensor.from_entries(3, i, j, k, [1] * len(i))


def test_check_fusion_reports_broken_covariance(monkeypatch):
    # su(3)_2 with the labels of (1,1) and (2,0) swapped is the same ring,
    # so every axiom and the dimensions hold, but sigma no longer acts on it
    ring = fusion_ring(AlgebraSpec.su(3, 2))
    a, b = (ring.index(Weight(ring.spec, x)) for x in ((1, 1), (2, 0)))
    swap = list(range(len(ring.basis)))
    swap[a], swap[b] = b, a
    table = {
        (swap[i], swap[j]): {swap[k]: c for k, c in payload.items()}
        for (i, j), payload in ring.table.items()
    }
    conj = [0] * len(swap)
    for x, cx in enumerate(ring.conj):
        conj[swap[x]] = swap[cx]
    dims = {ring.basis[swap[x]]: ring.dims[w] for x, w in enumerate(ring.basis)}
    constants = tensor_of(table, len(swap))
    relabelled = dataclasses.replace(
        ring, constants=constants, conj=tuple(conj), dims=dims
    )
    assert relabelled.axiom_failures() == []
    monkeypatch.setattr(verify, "fusion_ring", lambda spec: relabelled)
    report = verify.check_fusion(Config(), [(3, 2)])
    assert not report.passed
    assert report.counterexamples == ["su(3)_2: ['cyclic covariance fails at power 1']"]


def covariance_case(values=None):
    """su(3)_2's constants with their values replaced by ``values`` (same
    positions), and the basis permutation of sigma."""
    ring = fusion_ring(AlgebraSpec.su(3, 2))
    t = ring.constants
    if values is not None:
        t = SparseTensor(t.shape, t.pair_ptr, t.k, np.asarray(values, dtype=np.int64))
    return t, np.array(ring.sigma_permutation(1), dtype=np.int32)


def test_check_fusion_reports_a_changed_value(monkeypatch):
    # one diagonal value set to 2: the positions still move onto themselves
    # under sigma and the ring stays commutative, so only the values tell
    # the moved entries from the unmoved ones
    ring = fusion_ring(AlgebraSpec.su(3, 2))
    t = ring.constants
    i, j = t.positions(0, t.v.size)
    at = int(np.flatnonzero((i == j) & (i > 0))[0])
    values = t.v.copy()
    values[at] = 2
    changed, perm = covariance_case(values)
    assert verify.sigma_covariant(covariance_case()[0], perm)
    assert not verify.sigma_covariant(changed, perm)
    tampered = dataclasses.replace(ring, constants=changed)
    assert "commutativity fails" not in tampered.axiom_failures()
    monkeypatch.setattr(verify, "fusion_ring", lambda spec: tampered)
    report = verify.check_fusion(Config(), [(3, 2)])
    assert not report.passed
    assert "cyclic covariance fails at power 1" in report.counterexamples[0]


@st.composite
def covariance_cases(draw):
    """A tensor of at most 12 basis elements with int64 values, and a basis
    permutation.  Half the draws copy each value over its position's orbit
    under the permutation, so that they are covariant, and then may change
    one value, keeping the positions covariant."""
    m = draw(st.integers(1, 12))
    perm = draw(st.permutations(range(m)))
    cells = st.tuples(*[st.integers(0, m - 1)] * 3)
    values = st.integers(-(2**63), 2**63 - 1).filter(bool)
    entries = draw(st.dictionaries(cells, values, max_size=40))
    if draw(st.booleans()):
        closed = {}
        for (i, j, k), v in entries.items():
            while (i, j, k) not in closed:
                closed[i, j, k] = v
                i, k = perm[i], perm[k]
        entries = closed
        if entries and draw(st.booleans()):
            entries[draw(st.sampled_from(sorted(entries)))] = draw(values)
    i, j, k = np.array(list(entries) or np.empty((0, 3)), dtype=np.int64).T
    v = np.array(list(entries.values()), dtype=np.int64)
    return SparseTensor.from_entries(m, i, j, k, v), np.array(perm, dtype=np.int32)


class TestCovariance:
    @settings(max_examples=300, deadline=None)
    @given(covariance_cases())
    def test_matches_the_dense_relabelling(self, case):
        t, perm = case
        dense = t.dense()
        assert verify.sigma_covariant(t, perm) == np.array_equal(
            dense[perm][:, :, perm], dense
        )


    def test_across_chunks(self):
        # su(4)_6 takes three steps of whole pair runs: every sigma power
        # keeps its entries, a swap of two weights does not, and a value
        # changed in the last step is seen
        ring = fusion_ring(AlgebraSpec.su(4, 6))
        t, m = ring.constants, len(ring.basis)
        assert len(list(t.chunks())) == 3
        swap = np.arange(m, dtype=np.int32)
        swap[[1, 2]] = swap[[2, 1]]
        sigma = [np.array(ring.sigma_permutation(p), dtype=np.int32) for p in (1, 2, 3)]
        values = t.v.copy()
        values[-1] += 1
        changed = SparseTensor(t.shape, t.pair_ptr, t.k, values)
        for tensor, perm in [(t, p) for p in sigma] + [(t, swap), (changed, sigma[0])]:
            dense = tensor.dense()
            want = np.array_equal(dense[perm][:, :, perm], dense)
            assert verify.sigma_covariant(tensor, perm) == want
            assert want == (tensor is t and perm is not swap)


class TestCovarianceGuard:
    """Values at and past the old m^3 (max v + 1) < 2^63 packing bound, and
    negative values, which once took a fallback that sorted the moved
    entries into a second tensor.  They are now compared on one path, and
    no second tensor is built."""

    M3 = 6**3  # su(3)_2 has 6 weights
    LARGEST_PACKED = (2**63 - 1) // M3 - 1

    @pytest.fixture
    def sorts(self, monkeypatch):
        calls = []
        original = SparseTensor.from_entries.__func__

        def spy(cls, *args):
            calls.append(args[0])
            return original(cls, *args)

        monkeypatch.setattr(SparseTensor, "from_entries", classmethod(spy))
        return calls

    @pytest.mark.parametrize(
        "top",
        [LARGEST_PACKED, LARGEST_PACKED + 1, 2**62],
        ids=["largest-packed", "smallest-fallback", "far-past"],
    )
    def test_both_paths_agree(self, sorts, top):
        t, perm = covariance_case()
        same = np.full(t.v.size, top)
        assert verify.sigma_covariant(covariance_case(same)[0], perm)
        one_off = same.copy()
        one_off[t.v.size // 2] = top - 1
        assert not verify.sigma_covariant(covariance_case(one_off)[0], perm)
        assert sorts == []

    def test_negative_value_falls_back(self, sorts):
        t, perm = covariance_case()
        assert verify.sigma_covariant(covariance_case(-t.v)[0], perm)
        one_off = -t.v
        one_off[t.v.size // 2] -= 1
        assert not verify.sigma_covariant(covariance_case(one_off)[0], perm)
        assert sorts == []


RING_CONSTRUCTORS = {
    "verlinde": lambda: verlinde_tensor(s_matrix(AlgebraSpec.su(3, 4))),
    "coset": lambda: coset_ring(CosetSpec(3, 2, 1)),
    "class": lambda: _class_ring(3, 2),
    "torus": lambda: torus_ring(2, 2),
    "maverick": build_maverick_ring,
    "product": lambda: product_of((2, 2), (3, 1)),
}


class TestDtypeContract:
    """Runs over the (i, j) pairs: int32 offsets, targets in the narrowest
    unsigned type that holds m - 1, and values in the narrowest signed type
    that holds them: uint8 and int8 on each ring below, 2 bytes a nonzero
    beside 4 (m^2 + 1) bytes of offsets."""

    @pytest.mark.parametrize("name", RING_CONSTRUCTORS)
    def test_int32_positions_int64_values(self, name):
        t = RING_CONSTRUCTORS[name]().constants
        m = t.shape[0]
        assert [x.dtype for x in (t.pair_ptr, t.k, t.v)] == [np.int32, np.uint8, np.int8]
        assert t.pair_ptr.shape == (m * m + 1,) and t.pair_ptr[-1] == t.v.size > 0
        assert t.k.nbytes + t.v.nbytes == 2 * t.v.size
        assert [f.name for f in dataclasses.fields(t)] == ["shape", "pair_ptr", "k", "v"]

    def test_targets_take_the_narrowest_unsigned_dtype(self):
        assert fusion._position_dtype(256) == np.uint8
        assert fusion._position_dtype(257) == fusion._position_dtype(2**16) == np.uint16
        # beyond 2^16 elements the int32 pair indices would wrap long before
        with pytest.raises(ValueError, match="pass int32"):
            fusion._position_dtype(2**16 + 1)

    def test_from_entries_sorts_on_int64_keys(self):
        # (i m + j) m + k passes 2^31 for most of these: int32 keys would wrap
        m = 2000
        entries = [
            (1999, 1999, 1999, 1), (537, 0, 0, 2), (536, 0, 5, 3),
            (1000, 5, 7, 4), (0, 1999, 1999, 5), (1000, 5, 6, 6), (537, 0, 1, 7),
        ]
        assert (537 * m) * m > 2**31 > (536 * m) * m + 5
        i, j, k, v = (np.array(x, dtype=np.int64) for x in zip(*entries))
        t = SparseTensor.from_entries(m, i, j, k, v)
        assert [x.dtype for x in (t.pair_ptr, t.k, t.v)] == [np.int32, np.uint16, np.int8]
        got = list(zip(*(x.tolist() for x in (*entry_pairs(t), t.k, t.v))))
        assert got == sorted(entries)
        assert t.to_table()[(537, 0)] == {0: 2, 1: 7}

    def test_from_rows_stores_the_contract_dtypes(self):
        counts = np.array([1, 0])
        rows = [(counts, np.array([0]), np.array([1], dtype=np.int32))] * 2
        t = SparseTensor.from_rows(rows)
        assert [x.dtype for x in (t.pair_ptr, t.k, t.v)] == [np.int32, np.uint8, np.int8]
        assert t.pair_ptr.tolist() == [0, 1, 1, 2, 2]
        # the joined values take the widest row's narrowest dtype
        rows = [
            (np.array([0, 1]), np.array([1]), np.array([-129], dtype=np.int64)),
            (np.array([0, 0]),) + (np.array([], dtype=np.int64),) * 2,
        ]
        t = SparseTensor.from_rows(rows)
        assert t.v.dtype == np.int16 and t.v.tolist() == [-129]
        assert t.to_table() == {(0, 1): {1: -129}}


# values on both sides of each width's limits, and the dtype each needs
WIDTH_BOUNDARIES = [
    (127, np.int8), (128, np.int16), (-128, np.int8), (-129, np.int16),
    (32767, np.int16), (32768, np.int32), (-32768, np.int16), (-32769, np.int32),
    (2**31 - 1, np.int32), (2**31, np.int64), (-(2**31), np.int32),
    (-(2**31) - 1, np.int64), (2**63 - 1, np.int64), (-(2**63), np.int64),
]


def narrowest_dtype(v):
    """The narrowest of int8, int16, int32 and int64 holding every value."""
    low, high = (int(v.min()), int(v.max())) if v.size else (0, 0)
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max:
            return dtype


def widened(t: SparseTensor) -> SparseTensor:
    """The same entries with their targets forced to int32 and their values
    to int64."""
    return SparseTensor(t.shape, t.pair_ptr, t.k.astype(np.int32), t.v.astype(np.int64))


def consumer_outputs(ring: fusion.BasedRing, perm, whole: bool = True) -> list:
    """What every reader of the targets and values makes of a ring's
    constants: its fusion ring's simple-current check too, when it is one.
    The JSON text and the table lines are compared by digest.  With
    ``whole`` false, as for a ring of 256 elements (2.8 million nonzeros),
    the coefficients are read only at every target of the pairs of its
    first two and last two elements, and the table is read only as its
    lines, never built as one dict."""
    t, m = ring.constants, len(ring.basis)
    edges = range(m) if whole else (0, 1, m - 2, m - 1)
    coeffs = [ring.coeff(i, j, k) for i in edges for j in edges for k in range(m)]
    digests = []
    for pieces in (cli._constants_json(t, "  "), cli._constants_lines(t)):
        digest = hashlib.sha256()
        for piece in pieces:
            digest.update(piece.encode())
        digests.append(digest.hexdigest())
    largest = fusion._largest_magnitude(t.v)
    outputs = [
        ring_axiom_failures(t, ring.conj),
        largest**2 < 2**53 and fusion._fusion_matrices_commute(t, fusion._magnitude_row_sums(t)),
        dimension_homomorphism_residual(ring),
        verify.sigma_covariant(t, np.asarray(perm, dtype=np.int32)),
        coeffs,
        *digests,
    ]
    if whole:
        outputs.append(t.to_table())
    if isinstance(ring, fusion.FusionRing):
        outputs.append(simple_current_check(ring))
    return outputs


def narrow_ring(t: SparseTensor, conj) -> fusion.BasedRing:
    """A based ring on 0, 1, ... holding ``t``, with dimensions 1 + b / 3."""
    m = t.shape[0]
    return fusion.BasedRing(tuple(range(m)), t, tuple(conj), {b: 1 + b / 3 for b in range(m)})


def widened_ring(ring: fusion.BasedRing) -> fusion.BasedRing:
    return dataclasses.replace(ring, constants=widened(ring.constants))


@st.composite
def narrow_cases(draw):
    """A ring on a tensor from the ring strategies above, stored at its
    narrowest width, and a basis permutation."""
    kind = draw(st.sampled_from(["small", "commutative", "verlinde", "covariance"]))
    if kind == "covariance":
        t, perm = draw(covariance_cases())
        m = t.shape[0]
        return narrow_ring(t, draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))), perm
    if kind == "small":
        tensor, conj = draw(small_tensors())
    elif kind == "commutative":
        tensor = draw(commutative_tensors())
        conj = list(range(len(tensor)))
    else:
        tensor, conj = draw(permuted_verlinde_rings())
    m = len(tensor)
    nonzero = np.nonzero(tensor)
    t = SparseTensor.from_entries(m, *nonzero, tensor[nonzero])
    return narrow_ring(t, conj), draw(st.permutations(range(m)))


# su(2)_255: 256 weights, the largest basis any builder admits (m^3 =
# DENSE_BUDGET), so its targets reach 255, the top of uint8
LARGEST_RING = AlgebraSpec.su(2, 255)


class TestNarrowValues:
    """A tensor stored at its narrowest width reads the same, to every
    consumer of its targets and values, as the same entries held with int32
    targets and int64 values."""

    @settings(max_examples=150, deadline=None)
    @given(narrow_cases())
    @example(case=LARGEST_RING)
    def test_every_consumer_matches_int64(self, case):
        # a spec stands for its fusion ring, permuted by sigma
        whole = not isinstance(case, AlgebraSpec)
        if not whole:
            ring = fusion_ring(case)
            case = ring, ring.sigma_permutation(1)
            assert ring.constants.k.dtype == np.uint8 and ring.constants.k.max() == 255
        ring, perm = case
        assert ring.constants.v.dtype == narrowest_dtype(ring.constants.v)
        narrow = consumer_outputs(ring, perm, whole)
        assert narrow == consumer_outputs(widened_ring(ring), perm, whole)

    @pytest.mark.parametrize(
        "value,dtype", WIDTH_BOUNDARIES, ids=[str(value) for value, _ in WIDTH_BOUNDARIES]
    )
    def test_width_boundaries(self, value, dtype):
        # su(3)_2's constants with one diagonal value and one off-diagonal
        # pair replaced, so that commutativity holds and the covariance
        # and axiom checks reach the values
        ring = fusion_ring(AlgebraSpec.su(3, 2))
        table = ring.constants.to_table()
        table[(1, 1)] = {**table[(1, 1)], 2: value}
        table[(1, 2)] = {**table[(1, 2)], 0: value}
        table[(2, 1)] = {**table[(2, 1)], 0: value}
        t = tensor_of(table, len(ring.basis))
        assert t.v.dtype == dtype
        perm = ring.sigma_permutation(1)
        changed = dataclasses.replace(ring, constants=t)
        assert consumer_outputs(changed, perm) == consumer_outputs(widened_ring(changed), perm)


def z2_ring(square, dtype=np.int64) -> SparseTensor:
    """Z2's group ring with N_11^0 = ``square`` in place of 1, its values
    stored as ``dtype``."""
    ptr, k = np.array([0, 1, 2, 3, 4], dtype=np.int32), np.array([0, 1, 1, 0], dtype=np.uint8)
    return SparseTensor((2, 2, 2), ptr, k, np.array([1, 1, 1, square], dtype=dtype))


class TestMagnitudes:
    """|N| is taken where no dtype's minimum can wrap: np.abs keeps -2^63 in
    int64, and -128 in int8, negative."""

    TOO_LARGE = [
        "negative structure constant",
        "conjugation axiom N_ij^0 = delta(j, conj i) fails",
        "structure constants too large for an exact associativity check",
    ]

    @pytest.mark.parametrize("square", [-(2**62), -(2**63)], ids=["-2^62", "-2^63"])
    def test_int64_minimum_is_too_large(self, monkeypatch, square):
        forbid_scan(monkeypatch)

        def no_certificate(tensor, row_sums):
            raise AssertionError(f"certificate ran on row sums {row_sums.tolist()}")

        monkeypatch.setattr(fusion, "_fusion_matrices_commute", no_certificate)
        assert ring_axiom_failures(z2_ring(square), [0, 1]) == self.TOO_LARGE

    def test_int8_minimum_sums_as_128(self, monkeypatch):
        seen = []
        certificate = fusion._fusion_matrices_commute

        def spy(tensor, row_sums):
            seen.append(row_sums.tolist())
            return certificate(tensor, row_sums)

        monkeypatch.setattr(fusion, "_fusion_matrices_commute", spy)
        narrow = z2_ring(-128, np.int8)
        assert ring_axiom_failures(narrow, [0, 1]) == ring_axiom_failures(
            widened(narrow), [0, 1]
        )
        assert seen == [[[1, 1], [1, 128]]] * 2

    def test_row_sums_across_chunks(self):
        # the coset (3,3,2)'s positions, more than six ENTRY_CHUNK steps,
        # with every third target's value set to -128 in int8
        t = coset_ring(CosetSpec(3, 3, 2)).constants
        m = t.shape[0]
        assert t.v.size > 6 * fusion.ENTRY_CHUNK
        v = np.where(t.k % 3 == 0, -128, t.v).astype(np.int8)
        want = np.zeros(m * m, dtype=np.int64)
        i, j = entry_pairs(t)
        np.add.at(want, i.astype(np.int64) * m + j, np.abs(v.astype(np.int64)))
        got = fusion._magnitude_row_sums(SparseTensor(t.shape, t.pair_ptr, t.k, v))
        assert np.array_equal(got, want.reshape(m, m))


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    """Traced peaks (numpy reports its allocations to tracemalloc).  The
    bounds on the rings and their checks sit about 16% over the peaks
    measured with runs over pairs (uint8 targets, int8 values) and numpy
    2.4, and below the peaks with int32 positions i, j, k noted beside
    them."""

    def test_check_fusion_desk_sweep(self):
        # 1.25 MiB; 2.24 MiB with int32 positions and int64 position keys
        # for the covariance check, 2.78 MiB with int64 values as well,
        # 6.89 MiB with int64 positions and a sorted second tensor per power
        for n, k in DESK_SPECS:
            s_matrix(AlgebraSpec.su(n, k))
        fusion_ring.cache_clear()
        report = None

        def run():
            nonlocal report
            report = verify.check_fusion(Config(), DESK_SPECS)

        assert traced_peak(run) < 1.45 * 2**20
        assert report.passed

    def test_coset_ring_and_axioms(self):
        # 1.66 MiB; 2.76 MiB with int32 positions, 3.70 MiB with int64
        # values and offsets as well, 7.6 MiB with int64 positions and
        # whole-tensor mirror indices
        for spec in CosetSpec(3, 3, 2).factor_specs():
            s_matrix(spec)
        fusion_ring.cache_clear()

        def run():
            assert coset_ring(CosetSpec(3, 3, 2)).axiom_failures() == []

        assert traced_peak(run) < 1.95 * 2**20

    def test_coset_ring_build_holds_its_constants_once(self):
        # 1.26 MiB; 2.28 MiB with int32 positions and int64 np.nonzero
        # indices per slab, 3.62 MiB with int64 values and gather blocks as
        # well, 4.70 MiB while the row arrays and the whole joined tensor
        # were held together
        spec = CosetSpec(3, 3, 2)
        coset_ring(spec)  # the factor rings stay cached
        assert traced_peak(lambda: coset_ring(spec)) < 1.46 * 2**20

    def test_commuting_certificate(self):
        # 0.85 MiB (0.94 MiB with int32 positions); 1.26 MiB while the float
        # copies lived through the Krylov step and the elimination worked
        # on a copy
        tensor = coset_ring(CosetSpec(3, 3, 2)).constants
        m = tensor.shape[0]
        row_sums = np.zeros(m * m, dtype=np.int64)
        i, j = tensor.positions(0, tensor.v.size)
        np.add.at(row_sums, i.astype(np.int64) * m + j, tensor.v)
        assert traced_peak(
            lambda: fusion._fusion_matrices_commute(tensor, row_sums.reshape(m, m))
        ) < 2**20
