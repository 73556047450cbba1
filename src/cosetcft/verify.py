"""Verification suites for the paper's claims.  ``SUITES`` maps each suite
name to a callable ``(config, desk)`` returning one ``VerificationReport``;
``desk`` selects the full desk-scale ranges instead of the reduced ones."""

from __future__ import annotations

import math

import numpy as np

from . import maverick as maverick_mod
from .characters import (
    diagonal_branching,
    freudenthal_character,
    graded_character,
    kw_numeric_ratio,
    reconstitute,
    sector_branching,
    tensor_characters,
)
from .coset import (
    CosetSector,
    CosetSpec,
    NotFaithful,
    class_dimension_sums,
    coset_ring,
    exp_set,
    formula_31_residual,
    identification_orbits,
    in_exp,
    kw_identity_check,
    vacuum_orbit_membership,
)
from .fusion import (
    SparseTensor,
    dimension_homomorphism_residual,
    fusion_ring,
    simple_current_check,
)
from .modular import s_matrix, unitarity_residual
from .report import Config, VerificationReport
from .torus import torus_classes, torus_exp, torus_kw_residual, torus_ring
from .weights import AlgebraSpec, Weight, integrable_weights, require_s_matrix_budget


# --- verification suites -----------------------------------------------------

DESK_SPECS = [(n, k) for n in (2, 3, 4) for k in range(1, 7)]
QUICK_SPECS = [(n, k) for n in (2, 3) for k in range(1, 5)]
COSET_SPECS = [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1)]


def check_unitarity(config: Config, specs) -> VerificationReport:
    worst = 0.0
    bad = []
    for n, k in specs:
        m = s_matrix(AlgebraSpec.su(n, k)).entries
        resid = max(unitarity_residual(m), float(np.abs(m - m.T).max()))
        worst = max(worst, resid)
        if resid > config.tolerance_unitary:
            bad.append(f"su({n})_{k}")
    return VerificationReport("s-matrix-unitarity", not bad, worst, bad)


def sigma_covariant(tensor: SparseTensor, perm: np.ndarray) -> bool:
    """True when relabelling rows and targets by the basis permutation perm
    keeps the entries: the entries (perm[i], j, perm[k], v) are the entries
    (i, j, k, v).

    Row i's entries move to row perm[i], whose pair sizes must be row i's;
    then entry e of row i moves to entry e + shift[i] of row perm[i].  The
    check goes a step of whole pair runs at a time: the step's moved keys
    (i m + j) m + perm[k], put in increasing order, must be the keys
    (i m + j) m + k of the entries they move to, which the (j, k) order of
    each row already sorts, and the values must come along in the same
    order.  The positions are distinct, so that order is unique, whatever
    the values.  The int64 keys are one step long, never nnz long."""
    m = tensor.shape[0]
    ptr, k, v = tensor.pair_ptr, tensor.k, tensor.v
    sizes = np.diff(ptr).reshape(m, m)
    if not np.array_equal(sizes[perm], sizes):
        return False
    row_ptr = ptr[::m]
    shift = row_ptr[perm] - row_ptr[:-1]
    for run, i, j in tensor.chunks():
        key = i.astype(np.int64)
        key *= m
        key += j
        key *= m
        moved = perm[k[run]] + key
        order = moved.argsort()
        there = np.arange(run.start, run.stop) + shift[i]
        if not (
            np.array_equal(moved[order], k[there] + key) and np.array_equal(v[run][order], v[there])
        ):
            return False
    return True


def check_fusion(config: Config, specs) -> VerificationReport:
    worst = 0.0
    bad = []
    for n, k in specs:
        ring = fusion_ring(AlgebraSpec.su(n, k))
        failures = ring.axiom_failures()
        # covariance: relabelling rows and targets by sigma^t keeps the entries
        for t in range(1, n):
            perm = np.array(ring.sigma_permutation(t), dtype=np.int32)
            if not sigma_covariant(ring.constants, perm):
                failures.append(f"cyclic covariance fails at power {t}")
                break
        res = dimension_homomorphism_residual(ring)
        worst = max(worst, res)
        if failures or res > config.tolerance_integrality:
            bad.append(f"su({n})_{k}: {failures or 'dimension residual'}")
    return VerificationReport("verlinde-fusion-rings", not bad, worst, bad)


def check_simple_current(config: Config, specs) -> VerificationReport:
    bad = []
    for n, k in specs:
        report = simple_current_check(fusion_ring(AlgebraSpec.su(n, k)))
        if not report.passed:
            bad.append(f"su({n})_{k}: {report.failures[:3]}")
    return VerificationReport("simple-current-relation", not bad, 0.0, bad)


def check_kw(config: Config, coset_specs) -> VerificationReport:
    worst = 0.0
    bad = []
    for n, m1, m2 in coset_specs:
        spec = CosetSpec(n, m1, m2)
        for f in spec.factor_specs():
            require_s_matrix_budget(f)
        for sector in exp_set(spec):
            r = kw_identity_check(spec, sector)
            worst = max(worst, r)
            if r >= 1e-9:
                bad.append(f"{spec.n},{spec.m1},{spec.m2}:{sector}")
    return VerificationReport("kac-wakimoto-identity", not bad, worst, bad)


def check_formula31(config: Config, coset_specs) -> VerificationReport:
    worst = 0.0
    bad = []
    for n, m1, m2 in coset_specs:
        spec = CosetSpec(n, m1, m2)
        r = formula_31_residual(spec)
        sums = class_dimension_sums(spec)
        spread = max(sums.values()) - min(sums.values())
        worst = max(worst, r, spread)
        if r > config.tolerance_integrality or spread > config.tolerance_integrality:
            bad.append(f"{n},{m1},{m2}")
    return VerificationReport("index-sum-rule", not bad, worst, bad)


def check_ising(config: Config) -> VerificationReport:
    spec = CosetSpec(2, 1, 1)
    bad = []
    sectors = exp_set(spec)
    if len(sectors) != 6:
        bad.append(f"exp size {len(sectors)} != 6")
    orbits, faithful, _ = identification_orbits(spec)
    if len(orbits) != 3 or not faithful:
        bad.append("orbit structure wrong")
    ring = coset_ring(spec)
    expected = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {2: 1},
        (2, 0): {2: 1}, (2, 1): {2: 1}, (2, 2): {0: 1, 1: 1},
    }
    if ring.table != expected:
        bad.append(f"ring table {ring.table}")
    resid = abs(ring.dims[ring.basis[2]] - math.sqrt(2))
    if resid > 1e-9:
        bad.append(f"sigma dimension residual {resid}")
    return VerificationReport("ising-coset-ring", not bad, resid, bad)


def check_fixed_point_refusal(config: Config) -> VerificationReport:
    spec = CosetSpec(2, 2, 2)
    try:
        coset_ring(spec)
    except NotFaithful as err:
        named = bool(err.fixed_points)
        return VerificationReport(
            "fixed-point-refusal", named, 0.0,
            [] if named else ["no fixed sector reported"],
        )
    return VerificationReport(
        "fixed-point-refusal", False, 0.0, ["spec(2,2,2) did not refuse"]
    )


def check_parafermion(config: Config) -> VerificationReport:
    bad = []
    for l in (2, 3):
        for m in range(1, 5):
            if len(torus_classes(l, m)) != l * m ** (l - 1):
                bad.append(f"class count l={l} m={m}")
    sectors = torus_exp(2, 2)
    if len(sectors) != 6:
        bad.append(f"l=2,m=2 sector count {len(sectors)}")
    ring = torus_ring(2, 2)
    bad.extend(ring.axiom_failures())
    worst = max(torus_kw_residual(2, 2), dimension_homomorphism_residual(ring))
    if worst > config.tolerance_integrality:
        bad.append(f"dimension residual {worst}")
    return VerificationReport("parafermion-torus-ring", not bad, worst, bad)


def check_maverick(config: Config) -> VerificationReport:
    bad = []
    ring = maverick_mod.build_maverick_ring()
    resid = dimension_homomorphism_residual(ring)
    if resid > config.tolerance_integrality:
        bad.append(f"dimension residual {resid}")
    report = maverick_mod.maverick_branching_check(max(4, config.grade_cutoff // 2))
    if not report.passed:
        bad.append("branching identification check failed")
    return VerificationReport("maverick-ring", not bad, resid, bad)


def check_branching(config: Config, quick: bool = False) -> VerificationReport:
    bad = []
    cutoff = max(6, config.grade_cutoff) if not quick else 4
    # engine cross-check
    engine_cases = [(2, 1, 8), (2, 2, 6), (2, 3, 6), (3, 1, 5), (3, 2, 4)]
    if quick:
        engine_cases = [(2, 1, 6), (3, 1, 3)]
    for n, k, depth in engine_cases:
        spec = AlgebraSpec.su(n, k)
        for w in integrable_weights(spec):
            a = graded_character(spec, w, depth)
            b = freudenthal_character(spec, w, depth)
            if a.slices != b.slices:
                bad.append(f"engines disagree su({n})_{k} {w}")
    # coset branching against the selection rule, reconstruction, vacuum
    for n, m1, m2 in ([(2, 1, 1)] if quick else [(2, 1, 1), (3, 1, 1)]):
        spec = CosetSpec(n, m1, m2)
        s1, s2, _ = spec.factor_specs()
        down = AlgebraSpec.su(spec.n, spec.diagonal_level)
        for w1 in integrable_weights(s1):
            for w2 in integrable_weights(s2):
                table = diagonal_branching(spec, w1, w2, cutoff)
                for wh, bf in table.items():
                    if bf.is_zero == in_exp(spec, CosetSector(w1, w2, wh)):
                        bad.append(f"selection mismatch {w1},{w2};{wh}")
                    if any(c < 0 for c in bf.coeffs):
                        bad.append(f"negative coefficient {w1},{w2};{wh}")
                rebuilt = reconstitute(table, down, cutoff)
                product = tensor_characters(
                    graded_character(s1, w1, cutoff),
                    graded_character(s2, w2, cutoff),
                )
                if rebuilt.slices != product.slices[: cutoff + 1]:
                    bad.append(f"reconstitution failed {w1},{w2}")
                for wh, bf in table.items():
                    if bf.is_zero:
                        continue
                    sector = CosetSector(w1, w2, wh)
                    via_branching = bf.energy() == 0 and bf.multiplicity_at_min() == 1
                    via_orbit = vacuum_orbit_membership(spec, sector)
                    if via_branching != via_orbit:
                        bad.append(f"vacuum criterion mismatch {sector}")
    return VerificationReport("branching-functions", not bad, 0.0, bad)


def check_kw_numeric(config: Config) -> VerificationReport:
    spec = CosetSpec(2, 1, 1)
    cutoff = max(10, config.grade_cutoff)
    s1, s2, sh = spec.factor_specs()
    sig = CosetSector(s1.vacuum(), Weight(s2, (1,)), Weight(sh, (1,)))
    num = sector_branching(spec, sig, cutoff)
    den = sector_branching(spec, spec.vacuum_sector(), cutoff)
    target = math.sqrt(2)
    r5 = kw_numeric_ratio(num, den, 0.5, config.beta_floor)
    r4 = kw_numeric_ratio(num, den, 0.4, config.beta_floor)
    monotone = abs(r4 - target) < abs(r5 - target)
    close = abs(r4 - target) / target < 0.25
    bad = []
    if not monotone:
        bad.append(f"ratio not improving: {r5} -> {r4}")
    if not close:
        bad.append(f"ratio at beta=0.4 off by more than 25%: {r4}")
    return VerificationReport(
        "kw-trace-ratio", monotone and close, abs(r4 - target), bad
    )


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
