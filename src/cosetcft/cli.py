"""Command-line front end: enumerate, compute, verify, export.

Commands emit a single JSON document {"command", "config", "result",
"reports"} by default (CSV and plain tables are available where they make
sense).  Real numbers are serialized as decimal strings with 12 significant
digits so repeated runs are byte-identical; exit status is 0 when every
requested check passed, 1 on a check failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import maverick as maverick_mod
from .characters import (
    InconclusiveCutoff,
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
    dgh,
    exp_set,
    formula_31_residual,
    identification_orbits,
    kw_identity_check,
    vacuum_orbit_membership,
)
from .fusion import (
    IntegralityViolation,
    dimension_homomorphism_residual,
    fuse_pair,
    ring_axiom_failures,
    simple_current_check,
    verlinde_tensor,
)
from .modular import quantum_dimension, s_matrix
from .torus import torus_classes, torus_exp, torus_kw_residual, torus_ring
from .weights import AlgebraSpec, Weight, color, conformal_weight, integrable_weights

OUT_DIR_ENV = "COSETCFT_OUT_DIR"
CSV_COMMANDS = ("weights", "branch")  # the only results _to_csv can render


@dataclass(frozen=True)
class Config:
    tolerance_unitary: float = 1e-9
    tolerance_integrality: float = 1e-6
    grade_cutoff: int = 8
    beta_floor: float = 0.3
    output_format: str = "json"

    def __post_init__(self):
        if self.tolerance_unitary <= 0 or self.tolerance_integrality <= 0:
            raise ValueError("tolerances must be positive")
        if self.grade_cutoff < 0:
            raise ValueError("grade cutoff must be >= 0")
        if self.beta_floor <= 0:
            raise ValueError("beta floor must be positive")
        if self.output_format not in ("json", "csv", "table"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    @classmethod
    def from_file(cls, path: str) -> "Config":
        values: dict[str, object] = {}
        known = {f.name for f in fields(cls)}
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise ValueError(f"unknown config key {key!r}")
                if key == "output_format":
                    values[key] = value
                elif key == "grade_cutoff":
                    values[key] = int(value)
                else:
                    values[key] = float(value)
        return cls(**values)

    def as_dict(self) -> dict:
        return {
            "tolerance_unitary": _fmt(self.tolerance_unitary),
            "tolerance_integrality": _fmt(self.tolerance_integrality),
            "grade_cutoff": self.grade_cutoff,
            "beta_floor": _fmt(self.beta_floor),
            "output_format": self.output_format,
        }


@dataclass
class VerificationReport:
    check: str
    passed: bool
    worst_residual: float = 0.0
    counterexamples: list = field(default_factory=list)
    runtime: float | None = None  # seconds, set where the check is timed

    def as_dict(self) -> dict:
        # runtime stays out of the JSON document: identical inputs must
        # produce byte-identical output (the table view does show it)
        return {
            "check": self.check,
            "passed": self.passed,
            "worst_residual": _fmt(self.worst_residual),
            "counterexamples": [str(c) for c in self.counterexamples[:8]],
        }


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _parse_algebra(text: str) -> int:
    if not text.startswith("su") or not text[2:].isdigit():
        raise ValueError(f"algebra must look like su2, su3, ...: got {text!r}")
    n = int(text[2:])
    if n < 2:
        raise ValueError("rank parameter must be >= 2")
    return n


def _parse_labels(text: str, n: int, spec: AlgebraSpec) -> Weight:
    labels = tuple(int(x) for x in text.split(","))
    if len(labels) != n - 1:
        raise ValueError(f"expected {n - 1} labels, got {text!r}")
    return Weight(spec, (labels,))


def _weight_str(w: Weight) -> list:
    return [list(lab) for lab in w.labels]


# --- commands ---------------------------------------------------------------

def cmd_weights(args, config: Config) -> tuple[dict, list[VerificationReport]]:
    n = _parse_algebra(args.algebra)
    spec = AlgebraSpec.su(n, args.level)
    sm = s_matrix(spec)
    rows = []
    for w in integrable_weights(spec):
        rows.append(
            {
                "labels": list(w.labels[0]),
                "color": color(w),
                "conformal_weight": str(conformal_weight(w)),
                "quantum_dimension": _fmt(quantum_dimension(sm, w)),
            }
        )
    return {"algebra": f"su{n}", "level": args.level, "weights": rows}, []


def cmd_smatrix(args, config: Config) -> tuple[dict, list[VerificationReport]]:
    n = _parse_algebra(args.algebra)
    spec = AlgebraSpec.su(n, args.level)
    sm = s_matrix(spec)

    def clean(x: float) -> str:  # entries are O(1); drop fp dust
        return _fmt(0.0 if abs(x) < 1e-13 else x)

    entries = [
        [[clean(z.real), clean(z.imag)] for z in row] for row in sm.entries
    ]
    resid = float(
        np.abs(sm.entries @ sm.entries.conj().T - np.eye(len(sm.basis))).max()
    )
    report = VerificationReport(
        "s-matrix-unitarity", resid < config.tolerance_unitary, resid
    )
    return {
        "algebra": f"su{n}",
        "level": args.level,
        "basis": [_weight_str(w) for w in sm.basis],
        "entries": entries,
    }, [report]


def cmd_fuse(args, config: Config) -> tuple[dict, list[VerificationReport]]:
    n = _parse_algebra(args.algebra)
    spec = AlgebraSpec.su(n, args.level)
    wi = _parse_labels(args.i, n, spec)
    wj = _parse_labels(args.j, n, spec)
    channels = fuse_pair(s_matrix(spec), wi, wj, config.tolerance_integrality)
    return {
        "algebra": f"su{n}",
        "level": args.level,
        "i": _weight_str(wi),
        "j": _weight_str(wj),
        "channels": [
            {"weight": _weight_str(w), "multiplicity": m} for w, m in channels
        ],
    }, []


def cmd_coset_ring(args, config: Config) -> tuple[dict, list[VerificationReport]]:
    spec = CosetSpec(args.n, args.m1, args.m2)
    ring = coset_ring(spec)  # raises NotFaithful on fixed points
    orbits = [
        {
            "representative": [_weight_str(w) for w in (
                o.representative.num1, o.representative.num2, o.representative.den
            )],
            "size": o.size,
            "dimension": _fmt(ring.dims[o]),
        }
        for o in ring.basis
    ]
    constants = {
        f"{a}*{b}": {str(c): v for c, v in sorted(payload.items())}
        for (a, b), payload in sorted(ring.table.items())
    }
    failures = ring_axiom_failures(ring.dense(), ring.conjugate_permutation())
    reports = [
        VerificationReport("coset-ring-axioms", not failures, 0.0, failures)
    ]
    worst = dimension_homomorphism_residual(ring)
    reports.append(
        VerificationReport(
            "coset-dimension-homomorphism",
            worst < config.tolerance_integrality,
            worst,
        )
    )
    return {
        "coset": {"n": spec.n, "m1": spec.m1, "m2": spec.m2},
        "orbits": orbits,
        "structure_constants": constants,
        "dgh": _fmt(dgh(spec)),
    }, reports


def cmd_branch(args, config: Config) -> tuple[dict, list[VerificationReport]]:
    cutoff = args.cutoff if args.cutoff is not None else config.grade_cutoff
    if args.maverick:
        pq_text, l_text = args.sector.split(";")
        pq = tuple(int(x) for x in pq_text.split(","))
        l = int(l_text)
        table = maverick_mod.maverick_branching(pq, cutoff)
        if l not in table:
            raise ValueError(f"no level-8 su(2) label {l}")
        bf = table[l]
        result = {
            "coset": "su2_8-in-su3_2",
            "sector": {"upstairs": list(pq), "downstairs": l},
        }
    else:
        if args.coset is None:
            raise ValueError("branch needs --coset n,m1,m2 or --maverick")
        n, m1, m2 = (int(x) for x in args.coset.split(","))
        spec = CosetSpec(n, m1, m2)
        parts = args.sector.split(";")
        if len(parts) != 3:
            raise ValueError("sector must be 'num1;num2;den'")
        s1, s2, sh = spec.factor_specs()
        sector = CosetSector(
            _parse_labels(parts[0], n, s1),
            _parse_labels(parts[1], n, s2),
            _parse_labels(parts[2], n, sh),
        )
        in_exp = (color(sector.num1) + color(sector.num2) - color(sector.den)) % n == 0
        bf = sector_branching(spec, sector, cutoff)
        result = {
            "coset": {"n": n, "m1": m1, "m2": m2},
            "sector": [_weight_str(w) for w in (sector.num1, sector.num2, sector.den)],
            "in_exp": in_exp,
        }
        if not in_exp:
            result["note"] = "sector fails the selection rule; branching vanishes"
    result["offset"] = str(bf.offset)
    result["coefficients"] = list(bf.coeffs)
    if bf.is_zero:
        result["lowest_energy"] = None
    else:
        result["lowest_energy"] = str(bf.energy())
        result["lowest_multiplicity"] = bf.multiplicity_at_min()
    return result, []


# --- verification suites -----------------------------------------------------

DESK_SPECS = [(n, k) for n in (2, 3, 4) for k in range(1, 7)]
QUICK_SPECS = [(n, k) for n in (2, 3) for k in range(1, 5)]
COSET_SPECS = [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1)]


def _timed(fn):
    start = time.perf_counter()
    report = fn()
    report.runtime = time.perf_counter() - start
    return report


def check_unitarity(config: Config, specs) -> VerificationReport:
    worst = 0.0
    bad = []
    for n, k in specs:
        sm = s_matrix(AlgebraSpec.su(n, k))
        m = sm.entries
        resid = max(
            float(np.abs(m @ m.conj().T - np.eye(len(m))).max()),
            float(np.abs(m - m.T).max()),
        )
        worst = max(worst, resid)
        if resid > config.tolerance_unitary:
            bad.append(f"su({n})_{k}")
    return VerificationReport("s-matrix-unitarity", not bad, worst, bad)


def check_fusion(config: Config, specs) -> VerificationReport:
    worst = 0.0
    bad = []
    for n, k in specs:
        spec = AlgebraSpec.su(n, k)
        ring = verlinde_tensor(s_matrix(spec), config.tolerance_integrality)
        worst = max(worst, ring.integrality_residual)
        tensor = ring.dense()
        failures = ring_axiom_failures(tensor, ring.conjugate_permutation())
        # covariance under the cyclic relabeling of rows and targets
        for t in range(1, n):
            perm = np.array(ring.sigma_permutation(t))
            moved = tensor[np.ix_(perm, range(len(perm)), perm)]
            if not np.array_equal(moved, tensor):
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
        ring = verlinde_tensor(s_matrix(AlgebraSpec.su(n, k)))
        report = simple_current_check(ring)
        if not report.passed:
            bad.append(f"su({n})_{k}: {report.failures[:3]}")
    return VerificationReport("simple-current-relation", not bad, 0.0, bad)


def check_kw(config: Config, coset_specs) -> VerificationReport:
    worst = 0.0
    bad = []
    for n, m1, m2 in coset_specs:
        spec = CosetSpec(n, m1, m2)
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
    if len(torus_classes(2, 2)) != 4:
        bad.append("l=2,m=2 class count")
    sectors = torus_exp(2, 2)
    if len(sectors) != 6:
        bad.append(f"l=2,m=2 sector count {len(sectors)}")
    ring = torus_ring(2, 2)
    failures = ring_axiom_failures(ring.dense(), ring.conjugate_permutation())
    bad.extend(failures)
    worst = max(torus_kw_residual(2, 2), dimension_homomorphism_residual(ring))
    if worst > config.tolerance_integrality:
        bad.append(f"dimension residual {worst}")
    return VerificationReport("parafermion-torus-ring", not bad, worst, bad)


def check_maverick(config: Config) -> VerificationReport:
    bad = []
    ring = maverick_mod.build_maverick_ring()
    phi = maverick_mod.GOLDEN
    resid = abs(ring.dims["x"] - (math.sqrt(5) + 1) / 2)
    if resid > 1e-9:
        bad.append("x dimension")
    if abs(phi * phi - 1 - phi) > 1e-9:
        bad.append("golden identity")
    failures = ring_axiom_failures(ring.dense(), ring.conjugate_permutation())
    bad.extend(failures)
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
        in_exp = {(s.num1, s.num2, s.den) for s in exp_set(spec)}
        s1, s2, _ = spec.factor_specs()
        down = AlgebraSpec.su(spec.n, spec.diagonal_level)
        for w1 in integrable_weights(s1):
            for w2 in integrable_weights(s2):
                table = diagonal_branching(spec, w1, w2, cutoff)
                for wh, bf in table.items():
                    expected = (w1, w2, wh) in in_exp
                    if (not bf.is_zero) != expected:
                        bad.append(f"selection mismatch {w1},{w2};{wh}")
                    if any(c < 0 for c in bf.coeffs):
                        bad.append(f"negative coefficient {w1},{w2};{wh}")
                rebuilt = reconstitute(
                    {wh: bf for wh, bf in table.items()}, down, cutoff
                )
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
                    via_peel = bf.energy() == 0 and bf.multiplicity_at_min() == 1
                    via_orbit = vacuum_orbit_membership(spec, sector)
                    if via_peel != via_orbit:
                        bad.append(f"vacuum criterion mismatch {sector}")
    return VerificationReport("branching-functions", not bad, 0.0, bad)


def check_kw_numeric(config: Config) -> VerificationReport:
    spec = CosetSpec(2, 1, 1)
    cutoff = max(10, config.grade_cutoff)
    s1, s2, sh = spec.factor_specs()
    sig = CosetSector(
        s1.vacuum(), Weight(s2, ((1,),)), Weight(sh, ((1,),))
    )
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


def cmd_verify(args, config: Config) -> tuple[dict, list[VerificationReport]]:
    if args.suite == "kw" and args.n:
        reports = [
            _timed(lambda: check_kw(config, [(args.n, args.m1, args.m2)]))
        ]
    elif args.suite == "all":
        reports = [
            _timed(lambda fn=fn: fn(config, args.desk_scale))
            for fn in SUITES.values()
        ]
    elif args.suite in SUITES:
        fn = SUITES[args.suite]
        reports = [_timed(lambda: fn(config, args.desk_scale))]
    else:
        raise ValueError(f"unknown suite {args.suite!r}")
    result = {
        "suite": args.suite,
        "passed": all(r.passed for r in reports),
    }
    if args.suite == "maverick" and result["passed"]:
        result["relations"] = ["x*x = 1 + x", "y*ybar = 1 + x", "z**3 = 1", "y = x*z"]
    return result, reports


# --- output -------------------------------------------------------------------

def _emit(document: dict, runtimes: list, config: Config, args) -> None:
    fmt = args.format or config.output_format
    if fmt == "json":
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        text = _to_csv(document)
    else:
        text = _to_table(document, runtimes)
    out_path = args.out
    if out_path:
        base = os.environ.get(OUT_DIR_ENV)
        if base and not os.path.isabs(out_path):
            out_path = os.path.join(base, out_path)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(document: dict) -> str:
    result = document.get("result", {})
    lines = []
    if "weights" in result:
        lines.append("labels,color,conformal_weight,quantum_dimension")
        for row in result["weights"]:
            lab = " ".join(str(x) for x in row["labels"])
            lines.append(
                f"{lab},{row['color']},{row['conformal_weight']},{row['quantum_dimension']}"
            )
    else:
        lines.append("grade,coefficient")
        for g, c in enumerate(result["coefficients"]):
            lines.append(f"{g},{c}")
    return "\n".join(lines) + "\n"


def _to_table(document: dict, runtimes: list) -> str:
    result = document.get("result", {})
    lines = []
    if "weights" in result:
        lines.append(f"{'labels':<12}{'color':<7}{'h':<10}{'dim':<16}")
        for row in result["weights"]:
            lab = "(" + ",".join(str(x) for x in row["labels"]) + ")"
            lines.append(
                f"{lab:<12}{row['color']:<7}{row['conformal_weight']:<10}"
                f"{row['quantum_dimension']:<16}"
            )
    elif "channels" in result:
        parts = []
        for ch in result["channels"]:
            lab = ",".join(str(x) for x in ch["weight"][0])
            parts.append(lab if ch["multiplicity"] == 1 else f"{ch['multiplicity']}*({lab})")
        lines.append(" + ".join(parts) if parts else "0")
    elif "coefficients" in result:
        lines.append(f"offset {result['offset']}")
        lines.append("coefficients " + " ".join(str(c) for c in result["coefficients"]))
        lines.append(f"lowest_energy {result.get('lowest_energy')}")
    elif "structure_constants" in result:
        for key, payload in result["structure_constants"].items():
            lines.append(f"{key}: {payload}")
    else:
        lines.append(json.dumps(result, sort_keys=True))
    for rep, runtime in zip(document["reports"], runtimes):
        status = "pass" if rep["passed"] else "FAIL"
        line = f"[{status}] {rep['check']} residual={rep['worst_residual']}"
        if runtime is not None:
            line += f" runtime={runtime:.3f}s"
        if rep.get("counterexamples"):
            line += f" counterexamples={rep['counterexamples']}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--out", help="write output to this path")
    common.add_argument("--format", choices=("json", "csv", "table"))
    parser = argparse.ArgumentParser(
        prog="cosetcft",
        description="WZW and coset sector data: weights, fusion, cosets, branching",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add("weights", "list integrable weights")
    p.add_argument("--algebra", required=True, help="su2, su3, ...")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(run=cmd_weights)

    p = add("smatrix", "modular S-matrix, complex entries as [re, im]")
    p.add_argument("--algebra", required=True, help="su2, su3, ...")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(run=cmd_smatrix)

    p = add("fuse", "fusion product of two weights")
    p.add_argument("algebra")
    p.add_argument("level", type=int)
    p.add_argument("i", help="comma-joined labels, e.g. 1 or 1,0")
    p.add_argument("j")
    p.set_defaults(run=cmd_fuse)

    p = add("coset-ring", "diagonal coset sector ring")
    p.add_argument("n", type=int)
    p.add_argument("m1", type=int)
    p.add_argument("m2", type=int)
    p.set_defaults(run=cmd_coset_ring)

    p = add("branch", "branching coefficients of a sector")
    p.add_argument("--coset", help="n,m1,m2 for the diagonal family")
    p.add_argument("--maverick", action="store_true")
    p.add_argument("--sector", required=True, help="'num1;num2;den' or 'p,q;l'")
    p.add_argument("--cutoff", type=int)
    p.set_defaults(run=cmd_branch)

    p = add("verify", "run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--n", type=int)
    p.add_argument("--m1", type=int, default=1)
    p.add_argument("--m2", type=int, default=1)
    p.add_argument("--desk-scale", action="store_true")
    p.set_defaults(run=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = Config.from_file(args.config) if args.config else Config()
        if args.format:
            config = replace(config, output_format=args.format)
    except (OSError, ValueError) as err:
        parser.error(str(err))  # exits 2
    if config.output_format == "csv" and args.command not in CSV_COMMANDS:
        parser.error("csv output is supported for weights and branch only")
    try:
        result, reports = args.run(args, config)
        code = 0 if all(r.passed for r in reports) else 1
    except NotFaithful as err:
        result = {
            "error": "NotFaithful",
            "message": str(err),
            "fixed_points": [str(s) for s, _ in err.fixed_points],
        }
        reports, code = [], 1
    except IntegralityViolation as err:
        result = {
            "error": "IntegralityViolation",
            "message": str(err),
            "indices": list(err.indices),
        }
        reports, code = [], 1
    except (ValueError, KeyError, InconclusiveCutoff) as err:
        parser.error(str(err))
    document = {
        "command": args.command,
        "config": config.as_dict(),
        "result": result,
        "reports": [r.as_dict() for r in reports],
    }
    try:
        _emit(document, [r.runtime for r in reports], config, args)
    except OSError as err:
        parser.error(f"cannot write output: {err}")
    return code


if __name__ == "__main__":
    sys.exit(main())
