"""Run configuration, check reports and the errors that the CLI reports,
shared by the CLI and the verification suites.

Loading this module runs no other module of the package and imports no
numpy: ``fusion`` and ``modular`` are the package's lazy submodules, run
only when a report on a ring or an S-matrix is made.  So every command can
parse its config and list the suite names without paying for the suites."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

from . import fusion, modular

# --- errors that the CLI reports ----------------------------------------------
#
# Defined here, not beside the code that raises them, so that cli.main can
# match them without running coset, fusion or characters (and numpy); those
# modules re-export them under their old names.

class NotFaithful(ValueError):
    """The cyclic action has a fixed sector; the orbit ring is undefined."""

    def __init__(self, fixed_points):
        self.fixed_points = list(fixed_points)
        example = self.fixed_points[0][0] if self.fixed_points else None
        super().__init__(
            f"cyclic action on the sector set is not faithful; fixed sector {example}"
        )


class IntegralityViolation(ArithmeticError):
    """A Verlinde sum failed to land on an integer within tolerance."""

    def __init__(self, residual: float, i: int, j: int, k: int):
        self.residual = residual
        self.indices = (i, j, k)
        super().__init__(
            f"fusion coefficient N[{i},{j}]^{k} off an integer by {residual:.3e}"
        )


class InconclusiveCutoff(RuntimeError):
    """Branching vanished up to the cutoff; no energy can be reported."""


# the keys of verify.SUITES, in its order: the CLI's suite choices
SUITE_NAMES = (
    "unitarity", "fusion", "simple-current", "kw", "formula31", "ising",
    "fixed-point", "parafermion", "maverick", "branching", "kw-numeric",
)


def format_real(x: float) -> str:
    """Decimal string with 12 significant digits, so output is byte-stable."""
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class Config:
    """Tolerances, cutoffs and output format; every real is finite and
    positive."""

    tolerance_unitary: float = 1e-9
    tolerance_integrality: float = 1e-6
    grade_cutoff: int = 8
    beta_floor: float = 0.3
    output_format: str = "json"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # under a nan tolerance every `resid > tol` is false: all would pass
            if type(f.default) is float and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be finite and positive, got {value}")
        if self.grade_cutoff < 0:
            raise ValueError("grade cutoff must be >= 0")
        if self.output_format not in ("json", "csv", "table"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    @classmethod
    def from_file(cls, path: str) -> "Config":
        """Read key = value lines; each value is parsed by the type of its
        field's default."""
        values: dict[str, object] = {}
        parsers = {f.name: type(f.default) for f in fields(cls)}
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in parsers:
                    raise ValueError(f"unknown config key {key!r}")
                values[key] = parsers[key](value)
        return cls(**values)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = format_real(value) if type(f.default) is float else value
        return out


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
            "worst_residual": format_real(self.worst_residual),
            "counterexamples": [str(c) for c in self.counterexamples[:8]],
        }


def timed(check, *args) -> VerificationReport:
    """Run ``check(*args)`` and record its wall time in the report."""
    start = time.perf_counter()
    report = check(*args)
    report.runtime = time.perf_counter() - start
    return report


# --- reports on a single computed object -------------------------------------

def smatrix_report(sm: modular.SMatrix, config: Config) -> VerificationReport:
    resid = modular.unitarity_residual(sm.entries)
    return VerificationReport(
        "s-matrix-unitarity", resid < config.tolerance_unitary, resid
    )


def coset_ring_reports(ring: fusion.BasedRing, config: Config) -> list[VerificationReport]:
    failures = ring.axiom_failures()
    worst = fusion.dimension_homomorphism_residual(ring)
    return [
        VerificationReport("coset-ring-axioms", not failures, 0.0, failures),
        VerificationReport(
            "coset-dimension-homomorphism", worst < config.tolerance_integrality, worst
        ),
    ]
