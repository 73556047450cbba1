import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcft import (
    AlgebraSpec,
    CosetSector,
    CosetSpec,
    InconclusiveCutoff,
    NegativeResidual,
    Weight,
    WeightTable,
    coset_energy_offset,
    diagonal_branching,
    freudenthal_character,
    graded_character,
    integrable_weights,
    kw_numeric_ratio,
    peel_branching,
    reconstitute,
    restrict_character,
    sector_branching,
    tensor_characters,
    vacuum_membership,
    vacuum_orbit_membership,
)
from cosetcft import characters
from cosetcft.characters import (
    MAX_CUTOFF,
    alternant_terms,
    denominator_series,
    finite_weight_multiplicities,
    require_alternant_budget,
    weyl_dimension,
)
from cosetcft.weights import labels_from_v, weyl_orbit

ISING = CosetSpec(2, 1, 1)


def partitions(limit):
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for s in range(part, limit + 1):
            p[s] += p[s - part]
    return p


def su2(k):
    return AlgebraSpec.su(2, k)


def w2(k, l):
    return Weight(su2(k), (l,))


class TestFiniteCharacters:
    def test_su2_string(self):
        assert finite_weight_multiplicities(2, (3,)) == {
            (3,): 1, (1,): 1, (-1,): 1, (-3,): 1
        }

    def test_su3_adjoint(self):
        table = finite_weight_multiplicities(3, (1, 1))
        assert table[(0, 0)] == 2
        assert sum(table.values()) == 8

    def test_su3_27(self):
        table = finite_weight_multiplicities(3, (2, 2))
        assert sum(table.values()) == 27
        assert table[(0, 0)] == 3

    @pytest.mark.parametrize(
        "n,lam",
        [(2, (5,)), (3, (1, 0)), (3, (2, 1)), (4, (1, 0, 1)), (4, (0, 2, 0))],
    )
    def test_total_matches_weyl_dimension(self, n, lam):
        table = finite_weight_multiplicities(n, lam)
        assert sum(table.values()) == weyl_dimension(n, lam)


class TestGradedCharacterEngine:
    def test_su2_level1_vacuum_top_grades(self):
        g = graded_character(su2(1), w2(1, 0), 2)
        assert g.slices[0] == {(0,): 1}
        assert sum(g.slices[1].values()) == 3
        assert sum(g.slices[2].values()) == 4

    @pytest.mark.parametrize("top", [0, 1])
    def test_su2_level1_free_boson_oracle(self, top):
        # lattice realization: weight 2n carries grade n^2 (vacuum) or
        # n^2 - 1/4 above the top (fundamental), times a free oscillator
        depth = 8
        g = graded_character(su2(1), w2(1, top), depth)
        p = partitions(depth)
        for grade in range(depth + 1):
            for m in range(-6, 7):
                if top == 0:
                    lab, shift = 2 * m, m * m
                else:
                    lab, shift = 2 * m + 1, m * m + m
                want = p[grade - shift] if grade >= shift else 0
                assert g.slices[grade].get((lab,), 0) == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_su2_engines_agree(self, k):
        spec = su2(k)
        for x in integrable_weights(spec):
            a = graded_character(spec, x, 8)
            b = freudenthal_character(spec, x, 8)
            assert a.slices == b.slices

    @pytest.mark.parametrize("k", [1, 2])
    def test_su3_engines_agree(self, k):
        spec = AlgebraSpec.su(3, k)
        for x in integrable_weights(spec):
            a = graded_character(spec, x, 5)
            b = freudenthal_character(spec, x, 5)
            assert a.slices == b.slices

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 4), st.data())
    def test_random_engines_agree(self, n, k, cutoff, data):
        spec = AlgebraSpec.su(n, k)
        x = data.draw(st.sampled_from(integrable_weights(spec)))
        a = graded_character(spec, x, cutoff)
        b = freudenthal_character(spec, x, cutoff)
        assert a.slices == b.slices

    def test_grade_zero_is_finite_irrep(self):
        spec = AlgebraSpec.su(3, 2)
        for x in integrable_weights(spec):
            g = graded_character(spec, x, 2)
            assert g.slices[0] == finite_weight_multiplicities(3, x.labels)
            assert sum(g.slices[0].values()) == weyl_dimension(3, x.labels)

    def test_slices_are_weyl_invariant(self):
        g = graded_character(AlgebraSpec.su(3, 1), AlgebraSpec.su(3, 1).vacuum(), 4)
        for sl in g.slices:
            for (a, b), m in sl.items():
                assert sl.get((b, a), 0) == m  # conjugation flip

    def test_multiplicities_nonnegative(self):
        g = graded_character(AlgebraSpec.su(3, 2), Weight(AlgebraSpec.su(3, 2), (1, 1)), 4)
        assert all(m > 0 for sl in g.slices for m in sl.values())

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            graded_character(su2(1), w2(1, 0), -1)
        with pytest.raises(ValueError):
            graded_character(su2(1), w2(1, 0), 10_000)

    def test_weight_mult_accessor(self):
        # a weight's multiplicity is read from its grade's slice
        g = graded_character(su2(1), w2(1, 0), 3)
        assert g.slices[1].get((2,), 0) == 1


def eta_power_coefficients(power, limit):
    """q^g coefficients of prod_j (1 - q^j)^-power for g <= limit."""
    p = [1] + [0] * limit
    for j in range(1, limit + 1):
        for _ in range(power):
            for g in range(j, limit + 1):
                p[g] += p[g - j]
    return p


class TestDenominatorSeries:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_total_is_eta_power(self, n):
        # setting e^alpha = 1 leaves prod_j (1 - q^j)^-(N^2 - 1)
        series = denominator_series(n, 6)
        want = eta_power_coefficients(n * n - 1, 6)
        assert [sum(m for _, m in sl) for sl in series] == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_slices_are_weyl_invariant(self, n):
        for sl in denominator_series(n, 6):
            table = {labels_from_v(v): m for v, m in sl}
            assert len(table) == len(sl)
            for lab, m in table.items():
                assert all(table.get(x) == m for x in weyl_orbit(lab))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_smaller_cutoff_is_a_prefix(self, n):
        assert denominator_series(n, 6)[:5] == denominator_series(n, 4)

    def test_computed_once_per_rank_and_cutoff(self):
        spec = AlgebraSpec.su(3, 4)
        denominator_series.cache_clear()
        graded_character.cache_clear()
        for x in integrable_weights(spec):
            graded_character(spec, x, 6)
        assert denominator_series.cache_info().misses == 1


class TestTensorAndRestrict:
    def test_tensor_with_point_character(self):
        g = graded_character(su2(1), w2(1, 1), 4)
        point = WeightTable(2, 0, ({(0,): 1},))
        out = tensor_characters(g, point)
        assert out.cutoff == 0
        assert out.slices[0] == g.slices[0]

    def test_vacuum_pair_grade_one_dimension(self):
        g = graded_character(su2(1), w2(1, 0), 4)
        out = tensor_characters(g, g)
        assert sum(out.slices[0].values()) == 1
        assert sum(out.slices[1].values()) == 6  # 1*3 + 3*1

    def test_tensor_preserves_reflection_symmetry(self):
        g = graded_character(su2(2), w2(2, 1), 4)
        out = tensor_characters(g, g)
        for sl in out.slices:
            for (lab,), m in sl.items():
                assert sl.get((-lab,), 0) == m

    def test_rank_mismatch(self):
        a = graded_character(su2(1), w2(1, 0), 2)
        b = graded_character(AlgebraSpec.su(3, 1), AlgebraSpec.su(3, 1).vacuum(), 2)
        with pytest.raises(ValueError):
            tensor_characters(a, b)

    def test_identity_projection(self):
        g = graded_character(su2(2), w2(2, 2), 3)
        out = restrict_character(g, ((1,),))
        assert out.slices == g.slices

    def test_index4_triplet(self):
        # defining rep of su(3) restricts to the spin-1 triplet
        spec = AlgebraSpec.su(3, 2)
        g = graded_character(spec, Weight(spec, (1, 0)), 0)
        out = restrict_character(g, ((2, 2),))
        assert out.slices[0] == {(2,): 1, (0,): 1, (-2,): 1}

    def test_projection_shape_validation(self):
        g = graded_character(su2(1), w2(1, 0), 1)
        with pytest.raises(ValueError):
            restrict_character(g, ((1, 2),))


class TestPeeling:
    def test_self_restriction_is_delta(self):
        spec = su2(2)
        for x in integrable_weights(spec):
            g = graded_character(spec, x, 5)
            out = peel_branching(g, spec)
            for y, bf in out.items():
                want = tuple(
                    1 if (y == x and grade == 0) else 0 for grade in range(6)
                )
                assert bf.coeffs == want

    def test_ising_vacuum_line(self):
        br = diagonal_branching(ISING, su2(1).vacuum(), su2(1).vacuum(), 6)
        assert br[w2(2, 0)].coeffs == (1, 0, 1, 1, 2, 2, 3)
        assert br[w2(2, 2)].coeffs == (0, 1, 1, 1, 1, 2, 2)
        assert br[w2(2, 1)].coeffs == (0,) * 7  # parity selection rule

    def test_ising_offsets(self):
        br = diagonal_branching(ISING, su2(1).vacuum(), su2(1).vacuum(), 6)
        assert br[w2(2, 0)].offset == 0
        assert br[w2(2, 2)].offset == Fraction(-1, 2)
        # epsilon: first coefficient at grade 1, so energy 1/2
        assert br[w2(2, 2)].energy() == Fraction(1, 2)

    def test_sigma_sector_offset(self):
        br = diagonal_branching(ISING, su2(1).vacuum(), w2(1, 1), 6)
        bf = br[w2(2, 1)]
        assert bf.offset == Fraction(1, 16)
        assert bf.energy() == Fraction(1, 16)
        assert bf.coeffs[:6] == (1, 1, 1, 2, 2, 3)

    @pytest.mark.parametrize("spec", [ISING, CosetSpec(3, 1, 1)], ids=str)
    def test_branching_reproduces_selection_rule(self, spec):
        from cosetcft import exp_set

        cutoff = 6
        allowed = {(s.num1, s.num2, s.den) for s in exp_set(spec)}
        s1, s2, _ = spec.factor_specs()
        for x1 in integrable_weights(s1):
            for x2 in integrable_weights(s2):
                table = diagonal_branching(spec, x1, x2, cutoff)
                for y, bf in table.items():
                    assert all(c >= 0 for c in bf.coeffs)
                    assert (not bf.is_zero) == ((x1, x2, y) in allowed)

    @pytest.mark.parametrize("spec", [ISING, CosetSpec(3, 1, 1)], ids=str)
    def test_lossless_reconstitution(self, spec):
        cutoff = 6
        s1, s2, _ = spec.factor_specs()
        down = AlgebraSpec.su(spec.n, spec.diagonal_level)
        for x1 in integrable_weights(s1):
            for x2 in integrable_weights(s2):
                table = diagonal_branching(spec, x1, x2, cutoff)
                rebuilt = reconstitute(table, down, cutoff)
                product = tensor_characters(
                    graded_character(s1, x1, cutoff),
                    graded_character(s2, x2, cutoff),
                )
                assert rebuilt.slices == product.slices

    @pytest.mark.parametrize("spec", [ISING, CosetSpec(3, 1, 1)], ids=str)
    def test_vacuum_membership_matches_orbit_criterion(self, spec):
        from cosetcft import exp_set

        for s in exp_set(spec):
            assert vacuum_membership(spec, s, 6) == vacuum_orbit_membership(spec, s)

    def test_negative_residual_on_inconsistent_table(self):
        # a bare vacuum point with empty higher grades cannot be a sum of
        # integrable characters
        table = WeightTable(2, 2, ({(0,): 1}, {}, {}))
        with pytest.raises(NegativeResidual):
            peel_branching(table, su2(2))

    def test_overlevel_residual_rejected(self):
        table = WeightTable(2, 1, ({(4,): 1, (2,): 1, (0,): 1, (-2,): 1, (-4,): 1}, {}))
        with pytest.raises(NegativeResidual):
            peel_branching(table, su2(2))


class TestAlternantBranching:
    # every (numerator pair, downstairs weight) function of these cosets
    PINNED = [(2, 1, 1, 10), (2, 3, 2, 10), (3, 1, 1, 8), (3, 2, 1, 8),
              (3, 2, 2, 6), (4, 1, 1, 5), (4, 2, 1, 4)]

    def test_pinned_coefficients(self):
        # digest taken from the tensor-product-and-peel computation
        lines = []
        for n, m1, m2, cutoff in self.PINNED:
            spec = CosetSpec(n, m1, m2)
            s1, s2, _ = spec.factor_specs()
            for x1 in integrable_weights(s1):
                for x2 in integrable_weights(s2):
                    for y, bf in diagonal_branching(spec, x1, x2, cutoff).items():
                        row = [n, m1, m2, cutoff, x1.labels, x2.labels, y.labels, bf.coeffs]
                        lines.append(json.dumps(row))
        assert len(lines) == 1818
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "28ef8b0c17d7c0a8064952fc56149455c012cc94f17d864bd45125c85c8e2d5e"

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 4), st.integers(1, 3), st.integers(1, 3), st.integers(0, 6),
        st.randoms(use_true_random=False),
    )
    def test_reconstitutes_the_tensor_product(self, n, m1, m2, cutoff, rng):
        spec = CosetSpec(n, m1, m2)
        s1, s2, down = spec.factor_specs()
        x1 = rng.choice(integrable_weights(s1))
        x2 = rng.choice(integrable_weights(s2))
        table = diagonal_branching(spec, x1, x2, cutoff)
        assert all(c >= 0 for bf in table.values() for c in bf.coeffs)
        product = tensor_characters(
            graded_character(s1, x1, cutoff), graded_character(s2, x2, cutoff)
        )
        assert reconstitute(table, down, cutoff).slices == product.slices

    def test_no_tensor_product_and_no_peel(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("diagonal_branching left the alternant read")

        monkeypatch.setattr(characters, "tensor_characters", forbidden)
        monkeypatch.setattr(characters, "peel_branching", forbidden)
        graded_character.cache_clear()
        denominator_series.cache_clear()
        br = diagonal_branching(CosetSpec(3, 1, 1), AlgebraSpec.su(3, 1).vacuum(),
                                AlgebraSpec.su(3, 1).vacuum(), 6)
        assert br[AlgebraSpec.su(3, 2).vacuum()].coeffs[:3] == (1, 0, 1)

    def test_level_zero_alternant_is_the_denominator(self):
        # su(2): the terms of rho at shifted level 2 are the Jacobi triple
        # product's, q^(c + 2c^2) e^(rho - 2c alpha)
        assert sorted(alternant_terms((0,), 2, 2, 10)) == [
            (0, (1, 0)), (1, (-1, 2)), (3, (3, -2)), (6, (-3, 4)), (10, (5, -4)),
        ]

    def test_budget_refused_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("work started before the budget check")

        monkeypatch.setattr(characters.itertools, "product", forbidden)
        graded_character.cache_clear()
        denominator_series.cache_clear()
        spec = CosetSpec(8, 1, 1)
        vac = AlgebraSpec.su(8, 1).vacuum()
        with pytest.raises(ValueError, match="over the budget"):
            diagonal_branching(spec, vac, vac, 8)
        assert denominator_series.cache_info().currsize == 0

    def test_budget_admits_the_recorded_rows(self):
        # branch --coset 3,4,4 at cutoff 30 and 5,2,2 at cutoff 9, vacuum
        for n, h, cutoff in ((3, 7, 30), (5, 7, 9)):
            require_alternant_budget((0,) * (n - 1), n, h, cutoff)

    @pytest.mark.parametrize("cutoff", [-1, MAX_CUTOFF + 1])
    def test_cutoff_out_of_range_is_refused(self, cutoff):
        vac = AlgebraSpec.su(2, 1).vacuum()
        with pytest.raises(ValueError, match="cutoff"):
            alternant_terms((0,), 2, 3, cutoff)
        with pytest.raises(ValueError, match="cutoff"):
            diagonal_branching(ISING, vac, vac, cutoff)


class TestEnergiesAndRatios:
    def test_vacuum_sector_energy(self):
        bf = sector_branching(ISING, ISING.vacuum_sector(), 4)
        assert coset_energy_offset(bf) == 0
        assert bf.multiplicity_at_min() == 1

    def test_epsilon_energy(self):
        s1, s2, sh = ISING.factor_specs()
        eps = CosetSector(s1.vacuum(), s2.vacuum(), Weight(sh, (2,)))
        bf = sector_branching(ISING, eps, 4)
        assert coset_energy_offset(bf) == Fraction(1, 2)

    def test_zero_branching_is_inconclusive(self):
        s1, s2, sh = ISING.factor_specs()
        outside = CosetSector(s1.vacuum(), s2.vacuum(), Weight(sh, (1,)))
        bf = sector_branching(ISING, outside, 4)
        with pytest.raises(InconclusiveCutoff):
            bf.energy()
        with pytest.raises(InconclusiveCutoff):
            vacuum_membership(ISING, outside, 4)

    def test_identical_ratio_is_one(self):
        bf = sector_branching(ISING, ISING.vacuum_sector(), 8)
        for beta in (0.5, 0.75, 1.5):
            assert kw_numeric_ratio(bf, bf, beta) == pytest.approx(1.0)

    def test_beta_floor_enforced(self):
        bf = sector_branching(ISING, ISING.vacuum_sector(), 6)
        with pytest.raises(ValueError):
            kw_numeric_ratio(bf, bf, 0.1)

    def test_cutoff_mismatch_rejected(self):
        a = sector_branching(ISING, ISING.vacuum_sector(), 6)
        b = sector_branching(ISING, ISING.vacuum_sector(), 8)
        with pytest.raises(ValueError):
            kw_numeric_ratio(a, b, 0.5)

    def test_ising_sigma_ratio_converges(self):
        s1, s2, sh = ISING.factor_specs()
        sig = CosetSector(s1.vacuum(), Weight(s2, (1,)), Weight(sh, (1,)))
        num = sector_branching(ISING, sig, 12)
        den = sector_branching(ISING, ISING.vacuum_sector(), 12)
        target = math.sqrt(2)
        r5 = kw_numeric_ratio(num, den, 0.5)
        r4 = kw_numeric_ratio(num, den, 0.4)
        assert abs(r4 - target) < abs(r5 - target)
        assert abs(r4 - target) / target < 0.25
