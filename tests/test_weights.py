import itertools
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcft import (
    AlgebraSpec,
    Weight,
    color,
    conformal_weight,
    conjugate_weight,
    integrable_weights,
    sigma_apply,
)
from cosetcft import weights

DESK = [(n, k) for n in (2, 3, 4) for k in range(1, 7)]


def in_root_lattice(entries, n):
    """Oracle independent of ``color``: a lattice vector lies in the root
    lattice exactly when its simple-root coordinates are all integers."""
    return all(c.denominator == 1 for c in weights.root_coordinates(entries, n))


def w(n, k, *labels):
    return Weight(AlgebraSpec.su(n, k), tuple(labels))


class TestSpecValidation:
    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            AlgebraSpec.su(1, 3)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            AlgebraSpec.su(2, 0)

    def test_weight_level_bound(self):
        with pytest.raises(ValueError):
            w(2, 2, 3)


class TestEnumeration:
    def test_su2_level1(self):
        got = [x.labels for x in integrable_weights(AlgebraSpec.su(2, 1))]
        assert got == [(0,), (1,)]

    def test_su2_level8_count(self):
        assert len(integrable_weights(AlgebraSpec.su(2, 8))) == 9

    def test_su3_level2_by_hand(self):
        # all label pairs with sum <= 2, lexicographic
        got = [x.labels for x in integrable_weights(AlgebraSpec.su(3, 2))]
        assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

    @pytest.mark.parametrize("n,k", DESK)
    def test_count_formula(self, n, k):
        assert len(integrable_weights(AlgebraSpec.su(n, k))) == comb(
            k + n - 1, n - 1
        )

    def test_bounded_labels_are_the_sum_filtered_box(self):
        # stars and bars lists the box's tuples of sum <= bound, in box order
        for length in range(6):
            for bound in range(7):
                box = [
                    lab
                    for lab in itertools.product(range(bound + 1), repeat=length)
                    if sum(lab) <= bound
                ]
                assert list(weights._bounded_labels(length, bound)) == box


class TestSizeBudget:
    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(length, bound):
            raise AssertionError("enumeration started before the budget check")

        monkeypatch.setattr(weights, "_bounded_labels", refuse)

    def test_oversized_basis_refused_before_enumeration(self, no_enumeration):
        # C(59, 9), about 1.3e10 weights
        with pytest.raises(ValueError, match="budget"):
            integrable_weights(AlgebraSpec.su(10, 50))

    def test_huge_rank_and_level_refused_at_once(self, no_enumeration):
        # C(2*10^6 - 1, 10^6 - 1) has about 600,000 digits
        start = time.perf_counter()
        with pytest.raises(ValueError, match="budget"):
            integrable_weights(AlgebraSpec.su(10**6, 10**6))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "n,k",
        [(2, 99_999), (2, 100_000), (100_000, 1), (100_001, 1), (446, 2), (447, 2), (5, 36), (5, 37)],
    )
    def test_budget_matches_binomial(self, monkeypatch, n, k):
        monkeypatch.setattr(weights, "_bounded_labels", lambda length, bound: iter(()))
        if comb(k + n - 1, n - 1) > weights.WEIGHT_BUDGET:
            with pytest.raises(ValueError, match="budget"):
                integrable_weights(AlgebraSpec.su(n, k))
        else:
            assert integrable_weights(AlgebraSpec.su(n, k)) == []

    def test_s_matrix_budget_from_the_count(self, no_enumeration):
        # su(2)_k has k+1 weights: (k+1)^2 * 4 <= 2^24 up to k = 2047
        weights.require_s_matrix_budget(AlgebraSpec.su(2, 2047))
        with pytest.raises(ValueError, match=r"S-matrix of su\(2\)_2048 .* budget"):
            weights.require_s_matrix_budget(AlgebraSpec.su(2, 2048))

    def test_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(weights, "_bounded_labels", lambda length, bound: iter(()))
        assert integrable_weights(AlgebraSpec.su(2, weights.WEIGHT_BUDGET - 1)) == []
        with pytest.raises(ValueError):
            integrable_weights(AlgebraSpec.su(2, weights.WEIGHT_BUDGET))


class TestCyclicAutomorphism:
    @given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 9))
    def test_order_and_conjugation(self, n, k, t):
        spec = AlgebraSpec.su(n, k)
        basis = integrable_weights(spec)
        # order exactly N: sigma^N fixes every weight, no smaller power
        # fixes the vacuum
        assert all(sigma_apply(n, x) == x for x in basis)
        assert all(sigma_apply(s, spec.vacuum()) != spec.vacuum() for s in range(1, n))
        # conjugation inverts sigma, so the two commute only for N = 2
        for x in basis:
            assert conjugate_weight(sigma_apply(t, x)) == sigma_apply(
                -t, conjugate_weight(x)
            )
        commute = all(
            conjugate_weight(sigma_apply(1, x)) == sigma_apply(1, conjugate_weight(x))
            for x in basis
        )
        assert commute == (n == 2)


class TestColorAndRootLattice:
    def test_vacuum_color(self):
        assert color(w(3, 2, 0, 0)) == 0

    def test_su3_fundamental(self):
        assert color(w(3, 2, 1, 0)) == 1

    def test_su3_adjoint(self):
        assert color(w(3, 2, 1, 1)) == 0

    def test_root_lattice_su2(self):
        assert in_root_lattice((2,), 2)
        assert not in_root_lattice((1,), 2)

    def test_root_lattice_su3(self):
        assert in_root_lattice((1, 1), 3)

    @pytest.mark.parametrize("n,k", DESK)
    def test_color_zero_iff_in_root_lattice(self, n, k):
        for x in integrable_weights(AlgebraSpec.su(n, k)):
            assert (color(x) == 0) == in_root_lattice(x.labels, n)


class TestSigma:
    def test_su2_level2_step(self):
        assert sigma_apply(1, w(2, 2, 0)).labels == (2,)

    def test_su3_level2_step(self):
        assert sigma_apply(1, w(3, 2, 0, 0)).labels == (2, 0)

    @pytest.mark.parametrize("n,k", DESK)
    def test_order_n(self, n, k):
        for x in integrable_weights(AlgebraSpec.su(n, k)):
            assert sigma_apply(n, x) == x

    @pytest.mark.parametrize("n,k", DESK)
    def test_bijection_every_power(self, n, k):
        basis = integrable_weights(AlgebraSpec.su(n, k))
        for power in range(n):
            images = {sigma_apply(power, x) for x in basis}
            assert len(images) == len(basis)

    @pytest.mark.parametrize("n,k", DESK)
    def test_color_shift_by_level(self, n, k):
        for x in integrable_weights(AlgebraSpec.su(n, k)):
            assert color(sigma_apply(1, x)) == (color(x) + k) % n


class TestConjugation:
    def test_su2_self_conjugate(self):
        for x in integrable_weights(AlgebraSpec.su(2, 4)):
            assert conjugate_weight(x) == x

    def test_su3_reversal(self):
        assert conjugate_weight(w(3, 2, 1, 0)).labels == (0, 1)
        assert conjugate_weight(w(3, 2, 1, 1)).labels == (1, 1)

    @pytest.mark.parametrize("n,k", DESK)
    def test_involution_and_color(self, n, k):
        for x in integrable_weights(AlgebraSpec.su(n, k)):
            assert conjugate_weight(conjugate_weight(x)) == x
            assert color(conjugate_weight(x)) == (-color(x)) % n


class TestConformalWeight:
    def test_vacuum(self):
        assert conformal_weight(w(4, 3, 0, 0, 0)) == 0

    def test_su2_spin_formula(self):
        # j(j+1)/(k+2) with j = label/2
        for k in range(1, 9):
            for lab in range(k + 1):
                j = Fraction(lab, 2)
                assert conformal_weight(w(2, k, lab)) == j * (j + 1) / (k + 2)

    def test_su3_adjoint_level2(self):
        assert conformal_weight(w(3, 2, 1, 1)) == Fraction(3, 5)

    def test_su3_fundamental_level1(self):
        # (L, L+2rho) = 4/3 for the defining rep
        assert conformal_weight(w(3, 1, 1, 0)) == Fraction(4, 12)


def permutation_sign(perm):
    inversions = sum(
        1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


@st.composite
def distinct_v(draw):
    n = draw(st.integers(2, 6))
    return draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n, unique=True))


class TestStraighten:
    def test_dominant_input_is_fixed(self):
        # v of (2, 1) + rho in su(3) is (5, 2, 0)
        assert weights.straighten((5, 2, 0)) == (1, (2, 1))
        assert weights.straighten((0, 2, 5)) == (-1, (2, 1))
        assert weights.straighten((2, 2, 0)) is None

    @given(distinct_v(), st.data())
    def test_permuting_multiplies_the_sign(self, v, data):
        perm = data.draw(st.permutations(range(len(v))))
        sign, mu = weights.straighten(v)
        moved = tuple(v[p] for p in perm)
        assert weights.straighten(moved) == (sign * permutation_sign(perm), mu)
        assert all(x >= 0 for x in mu)
        # mu + rho has the sorted coordinates, up to a common shift
        ordered = sorted(v, reverse=True)
        assert weights.shifted_v(mu) == tuple(x - ordered[-1] for x in ordered)

    @given(distinct_v(), st.data())
    def test_repeated_coordinate_vanishes(self, v, data):
        i, j = data.draw(
            st.lists(st.integers(0, len(v) - 1), min_size=2, max_size=2, unique=True)
        )
        v[j] = v[i]
        assert weights.straighten(v) is None


class TestWeylOrbit:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_every_permutation(self, n):
        # the reference relabels all n! permutations, repeated ones included
        for lam in itertools.product(range(3), repeat=n - 1):
            v = weights.v_vector(lam)
            every = {weights.labels_from_v(p) for p in itertools.permutations(v)}
            assert weights.weyl_orbit(lam) == every


def box_walk_multiplicities(n, lam):
    """Reference: the dominant weights lam - sum(c_i alpha_i) found by testing
    every c in the box of root coordinates of lam + lam* for dominance, then
    the Freudenthal recursion: independent of the library's Gelfand-Tsetlin
    pattern counts."""
    cmax = weights.root_coordinates(weights.add_labels(lam, lam[::-1]), n)
    box = np.indices([int(c) + 1 for c in cmax]).reshape(n - 1, -1).T
    simple = np.array([weights.root(n, i, i + 1) for i in range(n - 1)])
    points = np.array(lam) - box @ simple
    listed = [tuple(map(int, mu)) for mu in points[(points >= 0).all(axis=1)]]
    dominants = sorted(set(listed), key=lambda m: -weights.norm2_shifted(m, n))
    support = set(dominants)
    top_norm = weights.norm2_shifted(lam, n)
    mult = {}
    for mu in dominants:
        if mu == lam:
            mult[mu] = 1
            continue
        num = Fraction(0)
        for alpha in weights.positive_roots(n):
            j = 1
            while True:
                x = weights.add_labels(mu, tuple(j * a for a in alpha))
                dom = weights.dominant_rep(x)
                if dom not in support:
                    break
                num += mult.get(dom, 0) * weights.inner_product(x, alpha, n)
                j += 1
        mult[mu] = int(2 * num / (top_norm - weights.norm2_shifted(mu, n)))
    return mult


# every irrep of su(2..6) with each Dynkin label at most the bound
IRREP_RANGES = [(2, 12), (3, 6), (4, 4), (5, 3), (6, 2)]


class TestDominantWalk:
    @pytest.mark.parametrize("n,bound", IRREP_RANGES)
    def test_matches_box_walk(self, n, bound):
        for lam in itertools.product(range(bound + 1), repeat=n - 1):
            table = weights.finite_weight_multiplicities(n, lam)
            dominant = {mu: m for mu, m in table.items() if min(mu) >= 0}
            assert dominant == box_walk_multiplicities(n, lam)


@st.composite
def small_irreps(draw):
    """su(n), n in 2..6, with each Dynkin label at most 3 (at most 2 above
    su(4))."""
    n = draw(st.integers(2, 6))
    bound = 3 if n <= 4 else 2
    return n, tuple(draw(st.lists(st.integers(0, bound), min_size=n - 1, max_size=n - 1)))


class TestGelfandTsetlin:
    @settings(max_examples=60, deadline=None)
    @given(small_irreps())
    def test_weight_system(self, irrep):
        n, lam = irrep
        table = weights.finite_weight_multiplicities(n, lam)
        assert sum(table.values()) == weights.weyl_dimension(n, lam)
        assert all(m == table[weights.dominant_rep(mu)] for mu, m in table.items())
        dominant = {mu: m for mu, m in table.items() if min(mu) >= 0}
        assert dominant == box_walk_multiplicities(n, lam)
