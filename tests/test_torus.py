import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosetcft import (
    AlgebraSpec,
    SparseTensor,
    TorusSector,
    Weight,
    conjugate_weight,
    fusion_ring,
    quantum_dimension,
    s_matrix,
    torus_class,
    torus_classes,
    torus_exp,
    torus_kw_residual,
    torus_ring,
)
from cosetcft import torus
from cosetcft.torus import class_add, class_neg


class TestClasses:
    def test_rank_one_reduces_to_arithmetic_mod_2m(self):
        # for l = 2 the identification is n ~ n + 2m
        classes = torus_classes(2, 2)
        assert [c.rep for c in classes] == [(0,), (1,), (2,), (3,)]

    def test_l2_m1(self):
        assert len(torus_classes(2, 1)) == 2

    @pytest.mark.parametrize("l", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_count_formula(self, l, m):
        assert len(torus_classes(l, m)) == l * m ** (l - 1)

    @pytest.mark.parametrize("l", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_classes_are_the_canonicalized_box(self, l, m):
        box = {torus_class(l, m, n) for n in itertools.product(range(l * m), repeat=l - 1)}
        assert torus_classes(l, m) == sorted(box, key=lambda c: c.rep)

    @pytest.mark.parametrize("l,m", [(2, 1), (2, 4), (3, 2), (3, 3), (4, 2)])
    def test_sectors_arrive_sorted(self, l, m):
        sectors = torus_exp(l, m)
        assert sectors == sorted(sectors, key=lambda s: (s.weight.labels, s.cls.rep))

    def test_canonicalization_is_orbit_invariant(self):
        # shifting by m*v with sum(v) in l*Z keeps the class
        a = torus_class(3, 2, (1, 5))
        assert torus_class(3, 2, (1 + 2 * 1, 5 + 2 * 2)) == a
        assert torus_class(3, 2, (1 + 2 * 3, 5)) == a
        assert torus_class(3, 2, (1, 5 + 2 * 3)) == a

    def test_non_identified_shift_changes_class(self):
        assert torus_class(3, 2, (1, 5)) != torus_class(3, 2, (1 + 2, 5))

    def test_addition_and_negation(self):
        a = torus_class(2, 2, (3,))
        assert class_add(a, a) == torus_class(2, 2, (6,))
        assert class_neg(a) == torus_class(2, 2, (-3,))
        assert class_add(a, class_neg(a)).rep == (0,)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            torus_class(3, 2, (1,))


@st.composite
def class_tuples(draw, size):
    """(l, m) with l, m <= 4 and ``size`` classes from random charge vectors."""
    l, m = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    charges = st.lists(st.integers(-50, 50), min_size=l - 1, max_size=l - 1)
    return l, m, [torus_class(l, m, draw(charges)) for _ in range(size)]


class TestClassGroupProperties:
    @given(class_tuples(1))
    def test_canonical_form_is_idempotent(self, case):
        l, m, (c,) = case
        assert torus_class(l, m, c.rep) == c

    @given(class_tuples(3))
    def test_addition_commutes_and_associates(self, case):
        _, _, (a, b, c) = case
        assert class_add(a, b) == class_add(b, a)
        assert class_add(class_add(a, b), c) == class_add(a, class_add(b, c))

    @given(class_tuples(1))
    def test_negation_is_the_additive_inverse(self, case):
        l, m, (a,) = case
        assert class_add(a, class_neg(a)) == torus_class(l, m, (0,) * (l - 1))


class TestSectors:
    def test_l2_m2_six_sectors(self):
        sectors = torus_exp(2, 2)
        got = [(s.weight.labels[0], s.cls.rep[0]) for s in sectors]
        assert got == [(0, 0), (0, 2), (1, 1), (1, 3), (2, 0), (2, 2)]

    def test_l2_m1_two_sectors(self):
        assert len(torus_exp(2, 1)) == 2

    def test_vacuum_sector_present(self):
        sectors = torus_exp(3, 2)
        vac = sectors[0]
        assert vac.weight.labels == (0, 0) and vac.cls.rep == (0, 0)

    def test_charge_sum_invariant_enforced(self):
        spec = AlgebraSpec.su(2, 2)
        with pytest.raises(ValueError):
            TorusSector(Weight(spec, (1,)), torus_class(2, 2, (0,)))

    def test_mixed_coset_rejected(self):
        spec = AlgebraSpec.su(2, 3)
        with pytest.raises(ValueError):
            TorusSector(Weight(spec, (0,)), torus_class(2, 2, (0,)))


class TestRing:
    def test_unit(self):
        ring = torus_ring(2, 2)
        vac = ring.basis[0]
        for b, s in enumerate(ring.basis):
            assert ring.table[(0, b)] == {b: 1}

    def test_l2_m2_hand_table(self):
        # basis order: u=(0,[0]) a=(0,[2]) s=(1,[1]) t=(1,[3]) b=(2,[0]) c=(2,[2])
        ring = torus_ring(2, 2)
        u, a, s, t, b, c = range(6)
        expected = {
            (u, u): {u: 1}, (u, a): {a: 1}, (u, s): {s: 1},
            (u, t): {t: 1}, (u, b): {b: 1}, (u, c): {c: 1},
            (a, a): {u: 1}, (a, s): {t: 1}, (a, t): {s: 1},
            (a, b): {c: 1}, (a, c): {b: 1},
            (s, s): {a: 1, c: 1}, (s, t): {u: 1, b: 1},
            (s, b): {s: 1}, (s, c): {t: 1},
            (t, t): {a: 1, c: 1}, (t, b): {t: 1}, (t, c): {s: 1},
            (b, b): {u: 1}, (b, c): {a: 1}, (c, c): {u: 1},
        }
        for (i, j), want in expected.items():
            assert ring.table[(i, j)] == want
            assert ring.table[(j, i)] == want

    def test_l2_m2_quotient_is_ising(self):
        # collapsing by the invertible (0,[2]) recovers the three-element
        # Ising table: the six-element ring is its order-two extension
        ring = torus_ring(2, 2)
        cls = {0: 0, 1: 0, 2: 2, 3: 2, 4: 1, 5: 1}  # -> {1, eps, sigma}
        collapsed = {}
        for (i, j), payload in ring.table.items():
            key = (cls[i], cls[j])
            out = {}
            for k, v in payload.items():
                out[cls[k]] = out.get(cls[k], 0) + v
            prev = collapsed.setdefault(key, out)
            assert prev == out  # well defined on classes
        ising = {
            (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
            (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {2: 1},
            (2, 0): {2: 1}, (2, 1): {2: 1}, (2, 2): {0: 1, 1: 1},
        }
        assert collapsed == ising

    @pytest.mark.parametrize("l,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_ring_axioms(self, l, m):
        ring = torus_ring(l, m)
        assert ring.axiom_failures() == []

    @pytest.mark.parametrize("l,m", [(2, 2), (2, 3), (3, 2)])
    def test_dimension_homomorphism_with_unit_charges(self, l, m):
        ring = torus_ring(l, m)
        dims = [ring.dims[s] for s in ring.basis]
        for (a, b), payload in ring.table.items():
            total = sum(v * dims[c] for c, v in payload.items())
            assert total == pytest.approx(dims[a] * dims[b], abs=1e-6)

    @pytest.mark.parametrize("l,m", [(2, 2), (2, 3), (3, 2)])
    def test_color_additive_under_fusion(self, l, m):
        from cosetcft import color

        ring = torus_ring(l, m)
        for (a, b), payload in ring.table.items():
            ca = color(ring.basis[a].weight)
            cb = color(ring.basis[b].weight)
            for k in payload:
                assert color(ring.basis[k].weight) == (ca + cb) % l

    def test_more_than_256_classes_refused_before_listing_them(self, monkeypatch):
        def no_classes(l, m):
            raise AssertionError("classes listed before the budget check")

        monkeypatch.setattr(torus, "torus_classes", no_classes)
        with pytest.raises(ValueError, match="budget"):
            torus_ring(7, 2)  # 448 classes, 1,792 sectors

    def test_sector_budget_boundary(self, monkeypatch):
        # 240 sectors cubed fit 2^24, 272 cubed do not
        assert len(torus_ring(2, 15).basis) == 240

        def refuse(l, m):
            raise AssertionError("classes or sectors listed before the budget check")

        monkeypatch.setattr(torus, "torus_classes", refuse)
        monkeypatch.setattr(torus, "torus_exp", refuse)
        with pytest.raises(ValueError, match="over the budget"):
            torus_ring(2, 16)  # 272 sectors

    @pytest.mark.parametrize("l,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_kw_ratio_matches_dimension(self, l, m):
        assert torus_kw_residual(l, m) < 1e-9

    def test_sector_dimensions_are_weight_dimensions(self):
        ring = torus_ring(2, 2)
        sm = s_matrix(AlgebraSpec.su(2, 2))
        for s in ring.basis:
            assert ring.dims[s] == quantum_dimension(sm, s.weight)


def pair_loop_torus_ring(l, m):
    """Reference: every sector pair fused through the su(l)_m table with its
    charge classes added, one entry at a time; returns the sectors, the
    constants, conj and dims."""
    sectors = torus_exp(l, m)
    ring = fusion_ring(AlgebraSpec.su(l, m))
    index = {s: i for i, s in enumerate(sectors)}
    rows = []
    for a, sa in enumerate(sectors):
        row = np.zeros((1, len(sectors), len(sectors)), dtype=np.int64)
        for b, sb in enumerate(sectors):
            cls = class_add(sa.cls, sb.cls)
            pair = (ring.index(sa.weight), ring.index(sb.weight))
            for k, c in ring.table.get(pair, {}).items():
                row[0, b, index[TorusSector(ring.basis[k], cls)]] = c
        rows.append(row)
    constants = SparseTensor.from_blocks(len(sectors), rows)
    conj = tuple(
        index[TorusSector(conjugate_weight(s.weight), class_neg(s.cls))]
        for s in sectors
    )
    dims = {s: ring.dims[s.weight] for s in sectors}
    return tuple(sectors), constants, conj, dims


@pytest.mark.parametrize(
    "l,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (2, 12)]
)
def test_ring_matches_the_pair_loop(l, m):
    ring = torus_ring(l, m)
    basis, constants, conj, dims = pair_loop_torus_ring(l, m)
    assert ring.basis == basis
    assert ring.constants == constants
    assert ring.conj == conj
    assert list(ring.dims.items()) == list(dims.items())


def orbit_minimum(l, m, n):
    """Reference canonical form by search: the lexicographic minimum of the
    orbit under the shifts m*v, v in [0, l)^(l-1) with sum(v) divisible by
    l, after entrywise reduction mod l*m."""
    box = tuple(x % (l * m) for x in n)
    return min(
        tuple((x + m * s) % (l * m) for x, s in zip(box, v))
        for v in itertools.product(range(l), repeat=l - 1)
        if sum(v) % l == 0
    )


@st.composite
def charge_vectors(draw):
    l, m = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    n = draw(st.lists(st.integers(-60, 60), min_size=l - 1, max_size=l - 1))
    return l, m, n


class TestClosedForm:
    @given(charge_vectors())
    def test_matches_orbit_minimum(self, case):
        l, m, n = case
        assert torus_class(l, m, n).rep == orbit_minimum(l, m, n)

    @pytest.mark.parametrize("l,m", [(2, 3), (3, 2), (4, 2)])
    def test_every_box_vector(self, l, m):
        for n in itertools.product(range(l * m), repeat=l - 1):
            assert torus_class(l, m, n).rep == orbit_minimum(l, m, n)
