"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines as they complete.
"""

import math
import time

import pytest

import cosetcft.modular
from cosetcft import (
    AlgebraSpec,
    CosetSector,
    CosetSpec,
    NotFaithful,
    Weight,
    build_maverick_ring,
    class_dimension_sums,
    coset_ring,
    coset_statistical_dimension,
    diagonal_branching,
    exp_set,
    formula_31_residual,
    freudenthal_character,
    graded_character,
    identification_orbits,
    integrable_weights,
    kw_identity_check,
    kw_numeric_ratio,
    maverick_branching_check,
    quantum_dimension,
    reconstitute,
    s_matrix,
    sector_branching,
    simple_current_check,
    tensor_characters,
    torus_classes,
    torus_exp,
    torus_ring,
    vacuum_membership,
    vacuum_orbit_membership,
    verlinde_tensor,
)

DESK = [(n, k) for n in (2, 3, 4) for k in range(1, 7)]
COSETS = [CosetSpec(2, 1, 1), CosetSpec(2, 2, 1), CosetSpec(3, 1, 1), CosetSpec(3, 2, 1)]


def announce(number, text):
    print(f"criterion {number}: PASS - {text}")


def test_criterion_01_verlinde_integrality_and_axioms():
    cosetcft.modular.s_matrix.cache_clear()
    start = time.perf_counter()
    worst = 0.0
    for n, k in DESK:
        ring = verlinde_tensor(s_matrix(AlgebraSpec.su(n, k)))
        worst = max(worst, ring.integrality_residual)
        assert ring.integrality_residual < 1e-6, f"su({n})_{k}"
        failures = ring.axiom_failures()
        assert failures == [], f"su({n})_{k}: {failures}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    announce(1, f"18 fusion rings exact, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_simple_current_relation():
    for n, k in DESK:
        ring = verlinde_tensor(s_matrix(AlgebraSpec.su(n, k)))
        report = simple_current_check(ring)
        assert report.passed, f"su({n})_{k}: {report.failures[:3]}"
    announce(2, "translation rule holds for every weight pair and power")


def test_criterion_03_ising_coset():
    spec = CosetSpec(2, 1, 1)
    assert len(exp_set(spec)) == 6
    orbits, faithful, _ = identification_orbits(spec)
    assert faithful and len(orbits) == 3
    ring = coset_ring(spec)
    assert ring.table == {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {2: 1},
        (2, 0): {2: 1}, (2, 1): {2: 1}, (2, 2): {0: 1, 1: 1},
    }
    sigma_rep = ring.basis[2].representative
    assert abs(
        coset_statistical_dimension(spec, sigma_rep) - math.sqrt(2)
    ) < 1e-9
    announce(3, "6 triples, 3 orbits, eps^2=1, sig^2=1+eps, d(sig)=sqrt(2)")


def test_criterion_04_kw_identity():
    worst = 0.0
    for spec in COSETS:
        for sector in exp_set(spec):
            r = kw_identity_check(spec, sector)
            worst = max(worst, r)
            assert r < 1e-9, f"{spec} {sector}"
    announce(4, f"dimension identity on 4 coset families, worst {worst:.2e}")


def test_criterion_05_index_sum_rule_and_congruence():
    for spec in COSETS:
        assert formula_31_residual(spec) < 1e-6, str(spec)
        sums = class_dimension_sums(spec)
        assert max(sums.values()) - min(sums.values()) < 1e-6, str(spec)
    announce(5, "inclusion-index sum rule and class sums constant across colors")


def test_criterion_06_fixed_point_refusal():
    with pytest.raises(NotFaithful) as err:
        coset_ring(CosetSpec(2, 2, 2))
    sectors = [s for s, _ in err.value.fixed_points]
    labels = {
        (s.num1.labels[0], s.num2.labels[0], s.den.labels[0])
        for s in sectors
    }
    assert (1, 1, 2) in labels
    announce(6, "spec(2,2,2) refused, fixed sector ((1),(1);(2)) named")


def test_criterion_07_branching_cross_check():
    # engines agree exactly on the advertised ranges
    for k in (1, 2, 3):
        spec = AlgebraSpec.su(2, k)
        for w in integrable_weights(spec):
            assert (
                graded_character(spec, w, 8).slices
                == freudenthal_character(spec, w, 8).slices
            )
    for k in (1, 2):
        spec = AlgebraSpec.su(3, k)
        for w in integrable_weights(spec):
            assert (
                graded_character(spec, w, 5).slices
                == freudenthal_character(spec, w, 5).slices
            )
    # branching against the selection rule, reconstruction, vacuum criterion
    cutoff = 6
    for spec in (CosetSpec(2, 1, 1), CosetSpec(3, 1, 1)):
        allowed = {(s.num1, s.num2, s.den) for s in exp_set(spec)}
        s1, s2, _ = spec.factor_specs()
        down = AlgebraSpec.su(spec.n, spec.diagonal_level)
        for w1 in integrable_weights(s1):
            for w2 in integrable_weights(s2):
                table = diagonal_branching(spec, w1, w2, cutoff)
                for wh, bf in table.items():
                    assert all(c >= 0 for c in bf.coeffs)
                    assert (not bf.is_zero) == ((w1, w2, wh) in allowed)
                rebuilt = reconstitute(table, down, cutoff)
                product = tensor_characters(
                    graded_character(s1, w1, cutoff),
                    graded_character(s2, w2, cutoff),
                )
                assert rebuilt.slices == product.slices
        for sector in exp_set(spec):
            assert vacuum_membership(spec, sector, cutoff) == vacuum_orbit_membership(
                spec, sector
            )
    announce(7, "peel nonneg + exp reproduction + lossless + vacuum agreement")


def test_criterion_08_maverick():
    ring = build_maverick_ring()
    golden = (math.sqrt(5) + 1) / 2
    assert abs(ring.dims["x"] - golden) < 1e-9
    report = maverick_branching_check(4)
    for s in (((0, 0), 0), ((0, 0), 8), ((1, 1), 4)):
        assert report.energies[s] == 0
        assert report.multiplicities[s] == 1
    assert report.violates_orbit_rule
    announce(8, "6-element ring closed, d(x)=golden, triple vacuum identification")


def test_criterion_09_parafermion_torus():
    assert len(torus_classes(2, 2)) == 4
    sectors = torus_exp(2, 2)
    assert len(sectors) == 6
    ring = torus_ring(2, 2)
    assert ring.axiom_failures() == []
    sm = s_matrix(AlgebraSpec.su(2, 2))
    for s in ring.basis:
        assert ring.dims[s] == quantum_dimension(sm, s.weight)
    for l in (2, 3):
        for m in range(1, 5):
            assert len(torus_classes(l, m)) == l * m ** (l - 1)
    announce(9, "4 classes, 6 sectors, ring closes with weight dimensions")


def test_criterion_10_kw_trace_ratio():
    spec = CosetSpec(2, 1, 1)
    cutoff = 12
    s1, s2, sh = spec.factor_specs()
    sigma = CosetSector(
        s1.vacuum(), Weight(s2, (1,)), Weight(sh, (1,))
    )
    num = sector_branching(spec, sigma, cutoff)
    den = sector_branching(spec, spec.vacuum_sector(), cutoff)
    target = math.sqrt(2)
    r5 = kw_numeric_ratio(num, den, 0.5)
    r4 = kw_numeric_ratio(num, den, 0.4)
    assert abs(r4 - target) < abs(r5 - target), f"{r5} -> {r4}"
    assert abs(r4 - target) / target < 0.25, f"{r4}"
    announce(
        10, f"trace ratio {r5:.4f} -> {r4:.4f} toward sqrt(2) at cutoff {cutoff}"
    )
