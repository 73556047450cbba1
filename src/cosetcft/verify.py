"""Verification suites for the paper's claims.  ``SUITES`` maps each suite
name to a callable ``(config, desk)`` returning one ``VerificationReport``;
``desk`` selects the full desk-scale ranges instead of the reduced ones."""

from __future__ import annotations

import math

# Library modules are the package's lazy submodules, as in cli: each runs on
# first use, so a suite runs only the modules it calls, and numpy loads only
# in the suites that use arrays.  `from .x import name` would run x at once.
from . import characters, coset, fusion, maverick, modular, torus, weights
from .report import Config, NotFaithful, VerificationReport


# --- verification suites -----------------------------------------------------

DESK_SPECS = [(n, k) for n in (2, 3, 4) for k in range(1, 7)]
QUICK_SPECS = [(n, k) for n in (2, 3) for k in range(1, 5)]
COSET_SPECS = [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1)]


def check_unitarity(config: Config, specs) -> VerificationReport:
    import numpy as np

    report = VerificationReport("s-matrix-unitarity")
    for n, k in specs:
        m = modular.s_matrix(weights.AlgebraSpec.su(n, k)).entries
        report.judge(
            f"su({n})_{k}", config.tolerance_unitary,
            modular.unitarity_residual(m), float(np.abs(m - m.T).max()),
        )
    return report


def check_fusion(config: Config, specs) -> VerificationReport:
    import numpy as np

    report = VerificationReport("verlinde-fusion-rings")
    for n, k in specs:
        ring = fusion.fusion_ring(weights.AlgebraSpec.su(n, k))
        failures = ring.axiom_failures()
        # sigma^t is sigma applied t times, so sigma alone decides covariance
        perm = np.array(ring.sigma_permutation(1), dtype=np.int32)
        if not fusion.sigma_covariant(ring.constants, perm):
            failures.append("cyclic covariance fails at power 1")
        if failures:
            report.counterexamples.append(f"su({n})_{k}: {failures}")
        report.judge(
            f"su({n})_{k}: dimension residual", config.tolerance_integrality,
            fusion.dimension_homomorphism_residual(ring),
        )
    return report


def check_simple_current(config: Config, specs) -> VerificationReport:
    bad = []
    for n, k in specs:
        failures = fusion.simple_current_check(fusion.fusion_ring(weights.AlgebraSpec.su(n, k)))
        if failures:
            bad.append(f"su({n})_{k}: {failures[:3]}")
    return VerificationReport("simple-current-relation", 0.0, bad)


def check_kw(config: Config, coset_specs) -> VerificationReport:
    report = VerificationReport("kac-wakimoto-identity")
    for n, m1, m2 in coset_specs:
        spec = coset.CosetSpec(n, m1, m2)
        for f in spec.factor_specs():
            weights.require_s_matrix_budget(f)
        for sector in coset.exp_set(spec):
            report.judge(f"{n},{m1},{m2}:{sector}", 1e-9, coset.kw_identity_check(spec, sector))
    return report


def check_formula31(config: Config, coset_specs) -> VerificationReport:
    report = VerificationReport("index-sum-rule")
    for n, m1, m2 in coset_specs:
        spec = coset.CosetSpec(n, m1, m2)
        r = coset.formula_31_residual(spec)
        sums = coset.class_dimension_sums(spec)
        spread = max(sums.values()) - min(sums.values())
        report.judge(f"{n},{m1},{m2}", config.tolerance_integrality, r, spread)
    return report


def check_ising(config: Config) -> VerificationReport:
    spec = coset.CosetSpec(2, 1, 1)
    report = VerificationReport("ising-coset-ring")
    sectors = coset.exp_set(spec)
    if len(sectors) != 6:
        report.counterexamples.append(f"exp size {len(sectors)} != 6")
    orbits, fixed = coset.identification_orbits(spec)
    if len(orbits) != 3 or fixed:
        report.counterexamples.append("orbit structure wrong")
    ring = coset.coset_ring(spec)
    expected = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {2: 1},
        (2, 0): {2: 1}, (2, 1): {2: 1}, (2, 2): {0: 1, 1: 1},
    }
    if ring.table != expected:
        report.counterexamples.append(f"ring table {ring.table}")
    resid = abs(ring.dims[ring.basis[2]] - math.sqrt(2))
    report.judge(f"sigma dimension residual {resid}", 1e-9, resid)
    return report


def check_fixed_point_refusal(config: Config) -> VerificationReport:
    spec = coset.CosetSpec(2, 2, 2)
    try:
        coset.coset_ring(spec)
    except NotFaithful as err:
        bad = [] if err.fixed_points else ["no fixed sector reported"]
        return VerificationReport("fixed-point-refusal", 0.0, bad)
    return VerificationReport("fixed-point-refusal", 0.0, ["spec(2,2,2) did not refuse"])


def check_parafermion(config: Config) -> VerificationReport:
    report = VerificationReport("parafermion-torus-ring")
    for l in (2, 3):
        for m in range(1, 5):
            if len(torus.torus_classes(l, m)) != l * m ** (l - 1):
                report.counterexamples.append(f"class count l={l} m={m}")
    sectors = torus.torus_exp(2, 2)
    if len(sectors) != 6:
        report.counterexamples.append(f"l=2,m=2 sector count {len(sectors)}")
    ring = torus.torus_ring(2, 2)
    report.counterexamples.extend(ring.axiom_failures())
    report.judge(
        "dimension residual", config.tolerance_integrality,
        torus.torus_kw_residual(2, 2), fusion.dimension_homomorphism_residual(ring),
    )
    return report


def check_maverick(config: Config) -> VerificationReport:
    report = VerificationReport("maverick-ring")
    resid = fusion.dimension_homomorphism_residual(maverick.build_maverick_ring())
    report.judge(f"dimension residual {resid}", config.tolerance_integrality, resid)
    cutoff = max(4, config.grade_cutoff // 2)
    report.counterexamples.extend(maverick.maverick_branching_check(cutoff))
    return report


def check_branching(config: Config, quick: bool = False) -> VerificationReport:
    bad = []
    cutoff = max(6, config.grade_cutoff) if not quick else 4
    # engine cross-check
    engine_cases = [(2, 1, 8), (2, 2, 6), (2, 3, 6), (3, 1, 5), (3, 2, 4)]
    if quick:
        engine_cases = [(2, 1, 6), (3, 1, 3)]
    for n, k, depth in engine_cases:
        spec = weights.AlgebraSpec.su(n, k)
        for w in weights.integrable_weights(spec):
            a = characters.graded_character(spec, w, depth)
            b = characters.freudenthal_character(spec, w, depth)
            if a.slices != b.slices:
                bad.append(f"engines disagree su({n})_{k} {w}")
    # coset branching against the selection rule, reconstruction, vacuum
    for n, m1, m2 in ([(2, 1, 1)] if quick else [(2, 1, 1), (3, 1, 1)]):
        spec = coset.CosetSpec(n, m1, m2)
        s1, s2, _ = spec.factor_specs()
        down = weights.AlgebraSpec.su(spec.n, spec.diagonal_level)
        for w1 in weights.integrable_weights(s1):
            for w2 in weights.integrable_weights(s2):
                table = characters.diagonal_branching(spec, w1, w2, cutoff)
                for wh, bf in table.items():
                    if bf.is_zero == coset.in_exp(spec, coset.CosetSector(w1, w2, wh)):
                        bad.append(f"selection mismatch {w1},{w2};{wh}")
                    if any(c < 0 for c in bf.coeffs):
                        bad.append(f"negative coefficient {w1},{w2};{wh}")
                rebuilt = characters.reconstitute(table, down, cutoff)
                product = characters.tensor_characters(
                    characters.graded_character(s1, w1, cutoff),
                    characters.graded_character(s2, w2, cutoff),
                )
                if rebuilt.slices != product.slices[: cutoff + 1]:
                    bad.append(f"reconstitution failed {w1},{w2}")
                for wh, bf in table.items():
                    if bf.is_zero:
                        continue
                    sector = coset.CosetSector(w1, w2, wh)
                    if bf.is_vacuum_like() != coset.vacuum_orbit_membership(spec, sector):
                        bad.append(f"vacuum criterion mismatch {sector}")
    return VerificationReport("branching-functions", 0.0, bad)


def check_kw_numeric(config: Config) -> VerificationReport:
    spec = coset.CosetSpec(2, 1, 1)
    cutoff = max(10, config.grade_cutoff)
    s1, s2, sh = spec.factor_specs()
    sig = coset.CosetSector(s1.vacuum(), weights.Weight(s2, (1,)), weights.Weight(sh, (1,)))
    num = characters.sector_branching(spec, sig, cutoff)
    den = characters.sector_branching(spec, spec.vacuum_sector(), cutoff)
    target = math.sqrt(2)
    r5 = characters.kw_numeric_ratio(num, den, 0.5, config.beta_floor)
    r4 = characters.kw_numeric_ratio(num, den, 0.4, config.beta_floor)
    bad = []
    if not abs(r5 - target) > abs(r4 - target):
        bad.append(f"ratio not improving: {r5} -> {r4}")
    if abs(r4 - target) / target > 0.25:
        bad.append(f"ratio at beta=0.4 off by more than 25%: {r4}")
    return VerificationReport("kw-trace-ratio", abs(r4 - target), bad)


# keyed in the order of report.SUITE_NAMES, which the CLI offers
SUITES = {
    "unitarity": lambda cfg, desk: check_unitarity(cfg, DESK_SPECS if desk else QUICK_SPECS),
    "fusion": lambda cfg, desk: check_fusion(cfg, DESK_SPECS if desk else QUICK_SPECS),
    "simple-current": lambda cfg, desk: check_simple_current(cfg, DESK_SPECS if desk else QUICK_SPECS),
    "kw": lambda cfg, desk: check_kw(cfg, COSET_SPECS),
    "formula31": lambda cfg, desk: check_formula31(cfg, COSET_SPECS),
    "ising": lambda cfg, desk: check_ising(cfg),
    "fixed-point": lambda cfg, desk: check_fixed_point_refusal(cfg),
    "parafermion": lambda cfg, desk: check_parafermion(cfg),
    "maverick": lambda cfg, desk: check_maverick(cfg),
    "branching": lambda cfg, desk: check_branching(cfg, quick=not desk),
    "kw-numeric": lambda cfg, desk: check_kw_numeric(cfg),
}
