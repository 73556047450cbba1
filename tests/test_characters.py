import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcft import (
    AlgebraSpec,
    CosetSector,
    CosetSpec,
    InconclusiveCutoff,
    SelfCheckFailed,
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
    Packing,
    alternant_terms,
    denominator_series,
    finite_weight_multiplicities,
    require_alternant_budget,
    straighten_products,
    weyl_dimension,
)
from cosetcft.weights import all_roots, labels_from_v, straighten, v_vector, weyl_orbit

ISING = CosetSpec(2, 1, 1)


def partitions(limit):
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for s in range(part, limit + 1):
            p[s] += p[s - part]
    return p


def no_fraction(cls, *args, **kwargs):
    raise AssertionError("a Fraction was made")


def su2(k):
    return AlgebraSpec.su(2, k)


def w2(k, l):
    return Weight(su2(k), (l,))


class TestFiniteCharacters:
    def test_su2_string(self):
        assert finite_weight_multiplicities((3,)) == {
            (3,): 1, (1,): 1, (-1,): 1, (-3,): 1
        }

    def test_su3_adjoint(self):
        table = finite_weight_multiplicities((1, 1))
        assert table[(0, 0)] == 2
        assert sum(table.values()) == 8

    def test_su3_27(self):
        table = finite_weight_multiplicities((2, 2))
        assert sum(table.values()) == 27
        assert table[(0, 0)] == 3

    @pytest.mark.parametrize(
        "n,lam",
        [(2, (5,)), (3, (1, 0)), (3, (2, 1)), (4, (1, 0, 1)), (4, (0, 2, 0))],
    )
    def test_total_matches_weyl_dimension(self, n, lam):
        table = finite_weight_multiplicities(lam)
        assert sum(table.values()) == weyl_dimension(lam)
        assert {len(mu) for mu in table} == {n - 1}


class TestGradedCharacterEngine:
    @pytest.mark.parametrize(
        "engine", [graded_character, freudenthal_character], ids=["alternant", "freudenthal"]
    )
    @pytest.mark.parametrize(
        "spec,w",
        [
            # a weight of a higher level, which is not integrable at level 1,
            # and an integrable weight of a lower level
            (AlgebraSpec.su(2, 1), Weight(AlgebraSpec.su(2, 3), (3,))),
            (AlgebraSpec.su(3, 4), Weight(AlgebraSpec.su(3, 1), (1, 0))),
        ],
        ids=["level-above", "level-below"],
    )
    def test_weight_of_another_spec_is_refused(self, engine, spec, w):
        with pytest.raises(ValueError, match="different spec"):
            engine(spec, w, 2)

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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 5), st.data())
    def test_oracle_makes_no_fraction(self, n, k, cutoff, data):
        spec = AlgebraSpec.su(n, k)
        x = data.draw(st.sampled_from(integrable_weights(spec)))
        want = graded_character(spec, x, cutoff)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Fraction, "__new__", no_fraction)
            got = freudenthal_character(spec, x, cutoff)
        assert got.slices == want.slices

    def test_grade_zero_is_finite_irrep(self):
        spec = AlgebraSpec.su(3, 2)
        for x in integrable_weights(spec):
            g = graded_character(spec, x, 2)
            assert g.slices[0] == finite_weight_multiplicities(x.labels)
            assert sum(g.slices[0].values()) == weyl_dimension(x.labels)

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


def runs_of(series):
    """Per-grade sequences of (v-coordinates, multiplicity) pairs regrouped
    into flat weight runs (d, mult, d', ...), in order of first appearance;
    a weight repeated within a grade repeats its grade in the run."""
    runs = {}
    for d, sl in enumerate(series):
        for nu, mult in sl:
            runs.setdefault(nu, []).extend((d, mult))
    return {nu: tuple(run) for nu, run in runs.items()}


def grades_of(runs, cutoff):
    """The inverse of ``runs_of``: one list of (v, mult) pairs per grade."""
    series = [[] for _ in range(cutoff + 1)]
    for nu, run in runs.items():
        steps = iter(run)
        for d, mult in zip(steps, steps):
            series[d].append((nu, mult))
    return series


class TestDenominatorSeries:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_total_is_eta_power(self, n):
        # setting e^alpha = 1 leaves prod_j (1 - q^j)^-(N^2 - 1)
        series = grades_of(denominator_series(n, 6), 6)
        want = eta_power_coefficients(n * n - 1, 6)
        assert [sum(m for _, m in sl) for sl in series] == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_slices_are_weyl_invariant(self, n):
        for sl in grades_of(denominator_series(n, 6), 6):
            table = {labels_from_v(v): m for v, m in sl}
            assert len(table) == len(sl)
            for lab, m in table.items():
                assert all(table.get(x) == m for x in weyl_orbit(lab))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_smaller_cutoff_is_a_prefix(self, n):
        # each run cut at grade 4, weights first seen above it dropped, in order
        cut = {}
        for nu, run in denominator_series(n, 6).items():
            steps = iter(run)
            kept = tuple(x for d, mult in zip(steps, steps) if d <= 4 for x in (d, mult))
            if kept:
                cut[nu] = kept
        assert list(cut.items()) == list(denominator_series(n, 4).items())

    def test_held_in_under_100_bytes_an_entry(self):
        # the runs hold P once: su(3) to grade 20 has 9,261 (weight, grade)
        # entries, which a per-grade tuple of pairs held at about 166 bytes each
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            runs = denominator_series.__wrapped__(3, 20)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / 9261 < 100
        assert sum(len(run) // 2 for run in runs.values()) == 9261

    def test_computed_once_per_rank_and_cutoff(self):
        spec = AlgebraSpec.su(3, 4)
        denominator_series.cache_clear()
        graded_character.cache_clear()
        for x in integrable_weights(spec):
            graded_character(spec, x, 6)
        assert denominator_series.cache_info().misses == 1


def tuple_series(n, cutoff):
    """Reference: P divided out with tuple keys, the form before packing."""
    zero = (0,) * n
    steps = [v_vector(alpha) for alpha in all_roots(n)] + [zero] * (n - 1)
    series = [dict() for _ in range(cutoff + 1)]
    series[0][zero] = 1
    for j in range(1, cutoff + 1):
        for step in steps:
            for g in range(j, cutoff + 1):
                dst = series[g]
                for v, mult in series[g - j].items():
                    key = tuple(map(add, v, step))
                    dst[key] = dst.get(key, 0) + mult
    return tuple(tuple(sl.items()) for sl in series)


def tuple_tensor(a, b):
    """Reference: the convolution with tuple keys, the form before packing."""
    cutoff = min(a.cutoff, b.cutoff)
    slices = [dict() for _ in range(cutoff + 1)]
    for g1 in range(cutoff + 1):
        for g2 in range(cutoff + 1 - g1):
            dst = slices[g1 + g2]
            for w1, m1 in a.slices[g1].items():
                for w2, m2 in b.slices[g2].items():
                    key = tuple(map(add, w1, w2))
                    dst[key] = dst.get(key, 0) + m1 * m2
    return slices


@st.composite
def weight_tables(draw, rank_param, cutoff):
    labels = st.tuples(*[st.integers(-6, 6)] * (rank_param - 1))
    slices = tuple(
        draw(st.dictionaries(labels, st.integers(-3, 3), max_size=6))
        for _ in range(cutoff + 1)
    )
    return WeightTable(rank_param, cutoff, slices)


class TestPackedKeys:
    """Packed integer keys give the entries of the tuple-keyed forms, in the
    same order."""

    @pytest.mark.parametrize("n,cutoff", [(2, 12), (3, 8), (4, 5), (5, 3)])
    def test_denominator_series_matches_the_tuple_form(self, n, cutoff):
        got = denominator_series.__wrapped__(n, cutoff)
        assert list(got.items()) == list(runs_of(tuple_series(n, cutoff)).items())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 3), st.data())
    def test_tensor_matches_the_tuple_form(self, n, c1, c2, data):
        a = data.draw(weight_tables(n, c1))
        b = data.draw(weight_tables(n, c2))
        got = tensor_characters(a, b)
        assert got.cutoff == min(c1, c2)
        want = tuple_tensor(a, b)
        assert [list(sl.items()) for sl in got.slices] == [list(sl.items()) for sl in want]

    def test_tensor_of_characters_matches_the_tuple_form(self):
        for spec in (AlgebraSpec.su(3, 1), AlgebraSpec.su(3, 2)):
            for x, y in itertools.product(integrable_weights(spec), repeat=2):
                a, b = graded_character(spec, x, 4), graded_character(spec, y, 3)
                got = [list(sl.items()) for sl in tensor_characters(a, b).slices]
                assert got == [list(sl.items()) for sl in tuple_tensor(a, b)]

    @given(st.integers(0, 5), st.data())
    def test_packing_adds_vectors(self, radius, data):
        entry = st.integers(-radius, radius)
        length = data.draw(st.integers(1, 5))
        v, w = (data.draw(st.tuples(*[entry] * length)) for _ in range(2))
        pack = Packing(length, radius)
        assert pack.decode(pack.encode(v)) == v
        total = tuple(map(add, v, w))
        if all(abs(x) <= radius for x in total):
            assert pack.encode(v) + pack.shift(w) == pack.encode(total)


def straighten_each_product(series, terms, cutoff):
    """The reference loop of ``straighten_products``: one ``straighten`` per
    term, grade and series entry."""
    irreps = [dict() for _ in range(cutoff + 1)]
    for grade, u in terms:
        for g, sl in enumerate(series[: cutoff + 1 - grade], start=grade):
            dst = irreps[g]
            for nu, mult in sl:
                hit = straighten(tuple(map(add, u, nu)))
                if hit is not None:
                    sign, mu = hit
                    dst[mu] = dst.get(mu, 0) + sign * mult
    return irreps


@st.composite
def series_and_terms(draw):
    """A small series in v-coordinates, one list of (v, mult) pairs per
    grade, which may run past the cutoff, and terms with grades up to it; a
    weight may repeat within a grade."""
    n = draw(st.integers(2, 4))
    cutoff = draw(st.integers(0, 5))
    coords = st.tuples(*[st.integers(-3, 3)] * n)
    entries = st.lists(st.tuples(coords, st.integers(-3, 3)), max_size=6)
    series = draw(st.lists(entries, max_size=cutoff + 2))
    terms = draw(st.lists(st.tuples(st.integers(0, cutoff), coords), max_size=5))
    return series, terms, cutoff


class TestStraightenProducts:
    @settings(max_examples=200, deadline=None)
    @given(series_and_terms())
    def test_each_weight_once_matches_each_product(self, case):
        series, terms, cutoff = case
        assert straighten_products(runs_of(series), terms, cutoff) == straighten_each_product(
            series, terms, cutoff
        )

    @pytest.mark.parametrize("n,k,cutoff", [(2, 3, 10), (3, 2, 6), (4, 1, 4)])
    def test_characters_match_each_product(self, n, k, cutoff):
        runs = denominator_series(n, cutoff)
        series = grades_of(runs, cutoff)
        for w in integrable_weights(AlgebraSpec.su(n, k)):
            terms = alternant_terms(w.labels, n, n + k, cutoff)
            assert straighten_products(runs, terms, cutoff) == straighten_each_product(
                series, terms, cutoff
            )


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
        with pytest.raises(SelfCheckFailed):
            peel_branching(table, su2(2))

    def test_overlevel_residual_rejected(self):
        table = WeightTable(2, 1, ({(4,): 1, (2,): 1, (0,): 1, (-2,): 1, (-4,): 1}, {}))
        with pytest.raises(SelfCheckFailed):
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

    def test_graded_character_is_refused_before_p_is_built(self, monkeypatch):
        # su(6)_1's vacuum at cutoff 30: about 4.4e14, past ALTERNANT_BUDGET
        def forbidden(*args):
            raise AssertionError("P was built before the budget check")

        monkeypatch.setattr(characters, "denominator_series", forbidden)
        spec = AlgebraSpec.su(6, 1)
        with pytest.raises(ValueError, match=r"the su\(6\) alternant's .* over the budget"):
            graded_character(spec, spec.vacuum(), 30)

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
        # both character engines, before any work
        for engine in (graded_character, freudenthal_character):
            with pytest.raises(ValueError, match="cutoff"):
                engine(vac.spec, vac, cutoff)

    @pytest.mark.parametrize("num1,num2", [((3, 1), (2, 1)), ((2, 1), (2, 2))],
                             ids=["su3_1-numerator", "su2_2-numerator"])
    def test_numerators_of_other_factors_are_refused(self, num1, num2):
        # ISING's numerators are su(2)_1 weights; the branching entry points
        # refuse others before the budget check
        x1, x2 = (AlgebraSpec.su(n, k).vacuum() for n, k in (num1, num2))
        sector = CosetSector(x1, x2, AlgebraSpec.su(2, 2).vacuum())
        for call in (
            lambda: diagonal_branching(ISING, x1, x2, 4),
            lambda: sector_branching(ISING, sector, 4),
            lambda: vacuum_membership(ISING, sector, 4),
        ):
            with pytest.raises(ValueError, match="numerators") as err:
                call()
            # worded as the budget messages are, with no dataclass repr
            message = str(err.value)
            assert "the coset (2,1,1)" in message and "su(2)_1 and su(2)_1" in message
            assert "CosetSpec(" not in message and "AlgebraSpec(" not in message

    def test_denominator_of_another_factor_is_refused(self):
        # ISING's denominator is an su(2)_2 weight, not one of su(2)_3
        vac = AlgebraSpec.su(2, 1).vacuum()
        sector = CosetSector(vac, vac, AlgebraSpec.su(2, 3).vacuum())
        with pytest.raises(ValueError, match="denominators") as err:
            sector_branching(ISING, sector, 4)
        assert str(err.value) == "denominators of the coset (2,1,1) are weights of su(2)_2"


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

    def test_zero_denominator_is_inconclusive(self):
        # ((0),(0);(1)) lies outside the coset: its branching vanishes
        s1, s2, sh = ISING.factor_specs()
        outside = CosetSector(s1.vacuum(), s2.vacuum(), Weight(sh, (1,)))
        outside = sector_branching(ISING, outside, 6)
        vac = sector_branching(ISING, ISING.vacuum_sector(), 6)
        with pytest.raises(InconclusiveCutoff, match="vanishes up to grade 6"):
            kw_numeric_ratio(vac, outside, 0.5)
        assert kw_numeric_ratio(outside, vac, 0.5) == 0.0

    def test_ratio_is_the_ratio_of_traces(self):
        s1, s2, sh = ISING.factor_specs()
        sig = CosetSector(s1.vacuum(), Weight(s2, (1,)), Weight(sh, (1,)))
        sig = sector_branching(ISING, sig, 8)
        vac = sector_branching(ISING, ISING.vacuum_sector(), 8)
        for beta in (0.4, 0.5, 1.5):
            want = sum(
                c * math.exp(-beta * (float(sig.offset) + g)) for g, c in enumerate(sig.coeffs)
            )
            assert sig.trace(beta) == want
            assert kw_numeric_ratio(sig, vac, beta) == sig.trace(beta) / vac.trace(beta)

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
