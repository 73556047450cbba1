import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcft import (
    CosetSector,
    CosetSpec,
    NotFaithful,
    Weight,
    class_dimension_sums,
    coset_ring,
    coset_statistical_dimension,
    dgh,
    exp_set,
    formula_31_residual,
    identification_orbits,
    integrable_weights,
    kw_identity_check,
    sector_sigma,
    vacuum_orbit_membership,
)
from cosetcft import coset
from cosetcft.coset import factor_rings, in_exp

ISING = CosetSpec(2, 1, 1)
TRICRITICAL = CosetSpec(2, 2, 1)
DESK_COSETS = [ISING, TRICRITICAL, CosetSpec(3, 1, 1), CosetSpec(3, 2, 1)]


def sector(spec, a, b, c):
    s1, s2, sh = spec.factor_specs()
    mk = lambda s, lab: Weight(s, tuple(lab))
    return CosetSector(mk(s1, a), mk(s2, b), mk(sh, c))


def defining_table(spec, representatives):
    """C_ab^c = sum_t N1 N2 Nh over the cyclic powers, one entry at a time,
    for orbits given by one member sector each; zero entries are left out."""
    r1, r2, rh = factor_rings(spec)
    n1, n2, nh = (r.constants.dense().tolist() for r in (r1, r2, rh))
    perms = [
        (r1.sigma_permutation(t), r2.sigma_permutation(t), rh.sigma_permutation(t))
        for t in range(spec.n)
    ]
    reps = [
        (r1.index(s.num1), r2.index(s.num2), rh.index(s.den))
        for s in representatives
    ]
    table = {}
    for a, (i1, i2, al) in enumerate(reps):
        for b, (j1, j2, be) in enumerate(reps):
            for c, (k1, k2, de) in enumerate(reps):
                total = sum(
                    n1[i1][j1][p1[k1]] * n2[i2][j2][p2[k2]] * nh[al][be][ph[de]]
                    for p1, p2, ph in perms
                )
                if total:
                    table.setdefault((a, b), {})[c] = total
    return table


class TestExpSet:
    def test_ising_six_triples(self):
        got = [
            (s.num1.labels[0], s.num2.labels[0], s.den.labels[0])
            for s in exp_set(ISING)
        ]
        assert got == [
            (0, 0, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 2)
        ]

    def test_vacuum_always_present(self):
        for spec in DESK_COSETS:
            assert spec.vacuum_sector() in exp_set(spec)

    @pytest.mark.parametrize(
        "spec", DESK_COSETS + [CosetSpec(2, 2, 2), CosetSpec(4, 2, 1)], ids=str
    )
    def test_sectors_arrive_sorted(self, spec):
        sectors = exp_set(spec)
        assert sectors == sorted(sectors, key=CosetSector.sort_key)

    def test_tricritical_twelve(self):
        assert len(exp_set(TRICRITICAL)) == 12

    def test_w3_critical_eighteen(self):
        # 54 raw triples, one color class in three survives
        assert len(exp_set(CosetSpec(3, 1, 1))) == 18

    def test_sector_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(coset, "WEIGHT_BUDGET", 6)
        assert len(exp_set(ISING)) == 6
        monkeypatch.setattr(coset, "WEIGHT_BUDGET", 5)
        with pytest.raises(ValueError, match="budget"):
            exp_set(ISING)

    @pytest.mark.parametrize(
        "spec,count",
        [((4, 4, 4), 50_543), ((3, 8, 8), 103_275), ((3, 10, 10), 335_412)],
    )
    def test_sector_count_builds_no_sector(self, monkeypatch, spec, count):
        def no_sector(*args):
            raise AssertionError("a sector was built")

        monkeypatch.setattr(coset, "CosetSector", no_sector)
        assert coset.sector_count(CosetSpec(*spec)) == count
        if count > coset.WEIGHT_BUDGET:
            with pytest.raises(ValueError, match="budget"):
                exp_set(CosetSpec(*spec))

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_membership_is_root_lattice_rule(self, spec):
        import itertools
        from cosetcft import integrable_weights
        from cosetcft.weights import root_coordinates

        s1, s2, sh = spec.factor_specs()
        members = set(exp_set(spec))
        for w1, w2, wh in itertools.product(
            integrable_weights(s1), integrable_weights(s2), integrable_weights(sh)
        ):
            delta = tuple(
                a + b - c for a, b, c in zip(w1.labels, w2.labels, wh.labels)
            )
            # independent oracle: integer coordinates on the simple roots
            in_root_lattice = all(
                c.denominator == 1 for c in root_coordinates(delta, spec.n)
            )
            assert in_root_lattice == (CosetSector(w1, w2, wh) in members)

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_cyclic_action_preserves_exp(self, spec):
        sectors = set(exp_set(spec))
        for s in sectors:
            for t in range(spec.n):
                assert sector_sigma(s, t) in sectors

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_selection_rule_closure_under_fusion(self, spec):
        r1, r2, rh = factor_rings(spec)
        sectors = exp_set(spec)
        in_exp = set(sectors)
        for sa in sectors:
            for sb in sectors:
                pay1 = r1.table.get((r1.index(sa.num1), r1.index(sb.num1)), {})
                pay2 = r2.table.get((r2.index(sa.num2), r2.index(sb.num2)), {})
                payh = rh.table.get((rh.index(sa.den), rh.index(sb.den)), {})
                for k1 in pay1:
                    for k2 in pay2:
                        for dl in payh:
                            out = CosetSector(
                                r1.basis[k1], r2.basis[k2], rh.basis[dl]
                            )
                            assert out in in_exp


def reference_orbits(spec):
    """Orbits as sets of sigma-images and every (member, power) fixing it,
    from the sectors enumerated as a filtered product and sigma applied at
    every power."""
    sectors = [
        s
        for s in itertools.starmap(
            CosetSector,
            itertools.product(*map(integrable_weights, spec.factor_specs())),
        )
        if in_exp(spec, s)
    ]
    orbits = {frozenset(sector_sigma(s, t) for t in range(spec.n)) for s in sectors}
    fixed = [
        (s, t) for s in sectors for t in range(1, spec.n) if sector_sigma(s, t) == s
    ]
    return orbits, fixed


class TestOrbits:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3))
    def test_matches_brute_force(self, n, m1, m2):
        spec = CosetSpec(n, m1, m2)
        orbits, faithful, fixed = identification_orbits(spec)
        want_orbits, want_fixed = reference_orbits(spec)
        assert [set(o.members) for o in orbits] == sorted(
            map(set, want_orbits), key=lambda o: min(s.sort_key() for s in o)
        )
        assert fixed == want_fixed
        assert faithful == (not want_fixed)
        for o in orbits:
            # members in power order from the smallest
            assert list(o.members) == [sector_sigma(o.representative, t) for t in range(o.size)]
            assert o.representative == min(o.members, key=CosetSector.sort_key)

    def test_ising_pairing(self):
        orbits, faithful, fixed = identification_orbits(ISING)
        assert faithful and not fixed
        got = {
            frozenset(
                (m.num1.labels[0], m.num2.labels[0], m.den.labels[0])
                for m in o.members
            )
            for o in orbits
        }
        assert got == {
            frozenset({(0, 0, 0), (1, 1, 2)}),
            frozenset({(0, 0, 2), (1, 1, 0)}),
            frozenset({(0, 1, 1), (1, 0, 1)}),
        }

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_orbit_sizes_divide_group_order(self, spec):
        orbits, _, _ = identification_orbits(spec)
        for o in orbits:
            assert spec.n % o.size == 0

    def test_fixed_point_when_both_levels_even_pattern(self):
        # all three labels sitting at the self-paired midpoint
        orbits, faithful, fixed = identification_orbits(CosetSpec(2, 2, 2))
        assert not faithful
        assert (sector(CosetSpec(2, 2, 2), (1,), (1,), (2,)), 1) in fixed

    def test_fixed_point_at_higher_even_level(self):
        _, faithful, fixed = identification_orbits(CosetSpec(2, 4, 2))
        assert not faithful
        assert (sector(CosetSpec(2, 4, 2), (2,), (1,), (3,)), 1) in fixed

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_desk_cosets_faithful(self, spec):
        _, faithful, fixed = identification_orbits(spec)
        assert faithful and not fixed


class TestCosetRing:
    def test_ising_table(self):
        ring = coset_ring(ISING)
        assert len(ring.basis) == 3
        # basis order: vacuum orbit, order-two current, golden sector
        assert ring.table == {
            (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
            (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {2: 1},
            (2, 0): {2: 1}, (2, 1): {2: 1}, (2, 2): {0: 1, 1: 1},
        }

    def test_refuses_non_faithful(self):
        with pytest.raises(NotFaithful) as err:
            coset_ring(CosetSpec(2, 2, 2))
        assert err.value.fixed_points

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_ring_axioms(self, spec):
        ring = coset_ring(spec)
        assert ring.axiom_failures() == []

    def test_w3_closes_with_nonnegative_integers(self):
        ring = coset_ring(CosetSpec(3, 1, 1))
        assert len(ring.basis) == 6
        assert all(
            v > 0 for payload in ring.table.values() for v in payload.values()
        )

    @pytest.mark.parametrize(
        "spec",
        [ISING, CosetSpec(3, 1, 1), CosetSpec(3, 2, 1), CosetSpec(4, 2, 1)],
        ids=str,
    )
    def test_matches_defining_sum(self, spec):
        ring = coset_ring(spec)
        expected = defining_table(spec, [o.representative for o in ring.basis])
        # same keys, values and insertion order, down to each payload
        assert [(k, list(v.items())) for k, v in ring.table.items()] == [
            (k, list(v.items())) for k, v in expected.items()
        ]

    def test_memory_stays_below_two_dense_tensors(self):
        # slab by slab, no m x m x m temporary is built
        tracemalloc.start()
        try:
            ring = coset_ring(CosetSpec(3, 3, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = len(ring.basis)
        assert peak < 2 * 8 * m**3

    def test_oversized_ring_refused_before_the_gather(self, monkeypatch):
        def no_gather(spec):
            raise AssertionError("factor rings built before the budget check")

        monkeypatch.setattr(coset, "factor_rings", no_gather)
        with pytest.raises(ValueError, match="budget"):
            coset_ring(CosetSpec(3, 4, 3))  # 600 orbits

    def test_oversized_ring_refused_before_enumeration(self, monkeypatch):
        def no_sectors(spec):
            raise AssertionError("sectors enumerated before the budget check")

        monkeypatch.setattr(coset, "exp_set", no_sectors)
        with pytest.raises(ValueError, match="budget"):
            coset_ring(CosetSpec(3, 8, 8))  # 103,275 sectors

    @pytest.mark.parametrize(
        "spec",
        DESK_COSETS
        + [CosetSpec(3, 3, 2), CosetSpec(4, 2, 1)]
        + [CosetSpec(2, 2, 2), CosetSpec(2, 2, 4), CosetSpec(3, 3, 3)],  # fixed points
        ids=str,
    )
    def test_budget_bound_counts_every_sector(self, spec, monkeypatch):
        # ceil(sectors / n) orbits at least, and exactly when none is fixed
        asked = []
        monkeypatch.setattr(coset, "require_dense_budget", lambda n, _: asked.append(n))
        orbits, faithful, _ = identification_orbits(spec)
        if faithful:
            coset_ring(spec)
        else:
            with pytest.raises(NotFaithful):
                coset_ring(spec)
        least = -(-len(exp_set(spec)) // spec.n)
        assert asked == [least**3]
        assert least == len(orbits) or not faithful

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_representative_independence(self, spec):
        # recompute the constants from cyclically rotated representatives
        ring = coset_ring(spec)
        rotated = [sector_sigma(o.representative, 1) for o in ring.basis]
        assert defining_table(spec, rotated) == ring.table

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_unit_row_is_delta(self, spec):
        # orthogonality of distinct orbits, realized on the vacuum row
        ring = coset_ring(spec)
        m = len(ring.basis)
        tensor = ring.constants.dense()
        assert np.array_equal(tensor[0], np.eye(m, dtype=np.int64))

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_dimension_homomorphism(self, spec):
        ring = coset_ring(spec)
        dims = [
            coset_statistical_dimension(spec, o.representative) for o in ring.basis
        ]
        for (a, b), payload in ring.table.items():
            total = sum(v * dims[c] for c, v in payload.items())
            assert total == pytest.approx(dims[a] * dims[b], abs=1e-6)


class TestDimensionsAndIdentities:
    def test_vacuum_sector_dimension(self):
        assert coset_statistical_dimension(ISING, ISING.vacuum_sector()) == 1.0

    def test_ising_golden_sector(self):
        s = sector(ISING, (0,), (1,), (1,))
        assert coset_statistical_dimension(ISING, s) == pytest.approx(
            math.sqrt(2), abs=1e-9
        )

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_constant_on_orbits(self, spec):
        for s in exp_set(spec):
            d = coset_statistical_dimension(spec, s)
            for t in range(1, spec.n):
                assert coset_statistical_dimension(
                    spec, sector_sigma(s, t)
                ) == pytest.approx(d, abs=1e-9)

    def test_rejects_sector_outside_exp(self):
        bad = sector(ISING, (0,), (0,), (1,))
        with pytest.raises(ValueError):
            coset_statistical_dimension(ISING, bad)
        with pytest.raises(ValueError):
            kw_identity_check(ISING, bad)

    def test_kw_vacuum_exact_zero(self):
        assert kw_identity_check(ISING, ISING.vacuum_sector()) == 0.0

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_kw_identity_sweep(self, spec):
        for s in exp_set(spec):
            assert kw_identity_check(spec, s) < 1e-9

    def test_ising_dgh(self):
        assert dgh(ISING) == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_tricritical_dgh(self):
        # vacuum class at the combined level 3 is {0, 2}: 1 + golden^2
        golden = (1 + math.sqrt(5)) / 2
        assert dgh(TRICRITICAL) ** 2 == pytest.approx(1 + golden**2, abs=1e-9)

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_congruence_class_sums_constant(self, spec):
        sums = class_dimension_sums(spec)
        values = list(sums.values())
        assert max(values) - min(values) < 1e-6

    @pytest.mark.parametrize("spec", DESK_COSETS, ids=str)
    def test_index_sum_rule(self, spec):
        assert formula_31_residual(spec) < 1e-6


class TestVacuumOrbit:
    def test_vacuum_is_member(self):
        assert vacuum_orbit_membership(ISING, ISING.vacuum_sector())

    def test_sigma_image_is_member(self):
        assert vacuum_orbit_membership(ISING, sector(ISING, (1,), (1,), (2,)))

    def test_energy_half_sector_is_not(self):
        assert not vacuum_orbit_membership(ISING, sector(ISING, (0,), (0,), (2,)))
