"""Command-line front end: enumerate, compute, verify, export.

Commands emit a single JSON document {"command", "config", "result",
"reports"} by default (CSV and plain tables are available where they make
sense).  Real numbers are serialized as decimal strings with 12 significant
digits so repeated runs are byte-identical; exit status is 0 when every
requested check passed, 1 on a check failure, 2 on usage errors.  A failed
report is a check failure; so is a NotFaithful coset or a SelfCheckFailed
in the library, which end the command with an error document instead.
"""

from __future__ import annotations

import argparse
import errno
import gc
import itertools
import json
import os
import sys
from dataclasses import replace

# The BLAS libraries' own thread settings.  Every matrix here is small (m <=
# 256 under DENSE_BUDGET), where a second BLAS thread saves no wall time but
# busy-waits a core after each call, so the CLI runs one unless the user set
# any of these.  This runs before any module below can import numpy.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
if not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

# Library modules are the package's lazy submodules: each runs on first use,
# so a command loads only what it calls (weights and branch --maverick never
# load numpy).  `from .x import name` at the top would run x at once.
from . import characters, coset, fusion, maverick, modular, verify, weights
from .report import (
    SUITE_NAMES,
    Config,
    InconclusiveCutoff,
    NotFaithful,
    SelfCheckFailed,
    VerificationReport,
    coset_ring_reports,
    format_real,
    smatrix_report,
    timed,
)

OUT_DIR_ENV = "COSETCFT_OUT_DIR"
CSV_COMMANDS = ("weights", "branch")  # the only results _to_csv can render


def _parse_algebra(text: str) -> int:
    if not text.startswith("su") or not text[2:].isdigit():
        raise ValueError(f"algebra must look like su2, su3, ...: got {text!r}")
    n = int(text[2:])
    if n < 2:
        raise ValueError("rank parameter must be >= 2")
    return n


def _int_groups(text: str, sizes: tuple[int, ...], form: str) -> list[tuple[int, ...]]:
    """The ';'-separated groups of comma-joined integers in text, one group
    of each length in sizes; anything else is a usage error that names the
    expected form."""
    try:
        groups = [tuple(int(x) for x in part.split(",")) for part in text.split(";")]
    except ValueError:
        groups = None
    if groups is None or [len(g) for g in groups] != list(sizes):
        raise ValueError(f"expected {form}, got {text!r}")
    return groups


def _parse_labels(text: str, n: int, spec: weights.AlgebraSpec) -> weights.Weight:
    (labels,) = _int_groups(text, (n - 1,), f"{n - 1} comma-joined labels")
    return weights.Weight(spec, labels)


def _weight_str(w: weights.Weight) -> list:
    return [list(w.labels)]


# --- commands ---------------------------------------------------------------

def cmd_weights(args, config: Config) -> tuple[dict, list[VerificationReport]]:
    n = _parse_algebra(args.algebra)
    spec = weights.AlgebraSpec.su(n, args.level)
    rows = []
    for w, dim in weights.quantum_dimensions(spec).items():
        rows.append(
            {
                "labels": list(w.labels),
                "color": weights.color(w),
                "conformal_weight": str(weights.conformal_weight(w)),
                "quantum_dimension": format_real(dim),
            }
        )
    return {"algebra": f"su{n}", "level": args.level, "weights": rows}, []


def cmd_smatrix(args, config: Config) -> tuple[dict, list[VerificationReport]]:
    n = _parse_algebra(args.algebra)
    spec = weights.AlgebraSpec.su(n, args.level)
    sm = modular.s_matrix(spec)
    # the emitters write the entries straight from the array, as the list
    # of rows of [re, im] strings that ``_entry_rows`` gives
    return {
        "algebra": f"su{n}",
        "level": args.level,
        "basis": [_weight_str(w) for w in sm.basis],
        "entries": sm.entries,
    }, [smatrix_report(sm, config)]


def cmd_fuse(args, config: Config) -> tuple[dict, list[VerificationReport]]:
    n = _parse_algebra(args.algebra)
    spec = weights.AlgebraSpec.su(n, args.level)
    wi = _parse_labels(args.i, n, spec)
    wj = _parse_labels(args.j, n, spec)
    channels = weights.kac_walton(wi, wj)
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
    spec = coset.CosetSpec(args.n, args.m1, args.m2)
    ring = coset.coset_ring(spec)  # raises NotFaithful on fixed points
    reports = coset_ring_reports(ring, config)
    orbits = [
        {
            "representative": [_weight_str(w) for w in (
                o.representative.num1, o.representative.num2, o.representative.den
            )],
            "size": o.size,
            "dimension": format_real(ring.dims[o]),
        }
        for o in ring.basis
    ]
    # the emitters write the constants straight from the arrays, as the
    # object {"a*b": {"c": N_ab^c}} of their nonzero entries
    return {
        "coset": {"n": spec.n, "m1": spec.m1, "m2": spec.m2},
        "orbits": orbits,
        "structure_constants": ring.constants,
        "dgh": format_real(coset.dgh(spec)),
    }, reports


def cmd_branch(args, config: Config) -> tuple[dict, list[VerificationReport]]:
    cutoff = args.cutoff if args.cutoff is not None else config.grade_cutoff
    if args.maverick:
        if args.coset is not None:
            raise ValueError("--coset and --maverick each select a coset: give one")
        pq, (l,) = _int_groups(args.sector, (2, 1), "--sector 'p,q;l'")
        table = maverick.maverick_branching(pq, cutoff)
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
        ((n, m1, m2),) = _int_groups(args.coset, (3,), "--coset 'n,m1,m2'")
        spec = coset.CosetSpec(n, m1, m2)
        parts = _int_groups(
            args.sector, (n - 1,) * 3, f"--sector 'num1;num2;den' of {n - 1} labels each"
        )
        sector = coset.CosetSector(
            *(weights.Weight(s, labels) for s, labels in zip(spec.factor_specs(), parts))
        )
        selected = coset.in_exp(spec, sector)
        bf = characters.sector_branching(spec, sector, cutoff)
        result = {
            "coset": {"n": n, "m1": m1, "m2": m2},
            "sector": [_weight_str(w) for w in (sector.num1, sector.num2, sector.den)],
            "in_exp": selected,
        }
        if not selected:
            result["note"] = "sector fails the selection rule; branching vanishes"
    result["offset"] = str(bf.offset)
    result["coefficients"] = list(bf.coeffs)
    if bf.is_zero:
        result["lowest_energy"] = None
    else:
        result["lowest_energy"] = str(bf.energy())
        result["lowest_multiplicity"] = bf.multiplicity_at_min()
    return result, []


def cmd_verify(args, config: Config) -> tuple[dict, list[VerificationReport]]:
    if args.n is not None:
        if args.suite != "kw":
            raise ValueError("--n selects a coset for the kw suite only")
        m1 = 1 if args.m1 is None else args.m1
        m2 = 1 if args.m2 is None else args.m2
        reports = [timed(verify.check_kw, config, [(args.n, m1, m2)])]
    elif args.m1 is not None or args.m2 is not None:
        raise ValueError("--m1 and --m2 select a coset only together with --n")
    else:
        names = SUITE_NAMES if args.suite == "all" else [args.suite]
        reports = [timed(verify.SUITES[name], config, args.desk_scale) for name in names]
    result = {
        "suite": args.suite,
        "passed": all(r.passed for r in reports),
    }
    if args.suite == "maverick" and result["passed"]:
        result["relations"] = list(maverick.RELATIONS)
    return result, reports


# --- output -------------------------------------------------------------------

def _emit(document: dict, runtimes: list, config: Config, args) -> None:
    fmt = config.output_format
    if fmt == "json":
        texts = itertools.chain(_json_text(document), "\n")
    elif fmt == "csv":
        texts = [_to_csv(document)]
    else:
        texts = [_to_table(document, runtimes)]
    out_path = args.out
    if out_path:
        base = os.environ.get(OUT_DIR_ENV)
        if base and not os.path.isabs(out_path):
            out_path = os.path.join(base, out_path)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
        return
    out = sys.stdout
    if out is None:  # the process started with fd 1 closed
        raise OSError(errno.EBADF, "standard output is closed")
    try:
        out.writelines(texts)
        out.flush()  # an output smaller than the buffer fails here, not at exit
    except OSError:
        # the unwritten bytes stay buffered, and the interpreter's last flush
        # would fail on them again (exit 120); close drops them once its own
        # flush fails (the interpreter's stdout leaves fd 1 itself open)
        try:
            out.close()
        except OSError:
            pass
        raise


def _json_text(value, indent: str = ""):
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` on a line
    indented by ``indent``, piece by piece, with each ``SparseTensor`` written
    by ``_constants_json`` and each complex array by ``_entries_json``.  A
    value with a shape is looked at last, and against numpy's array type, so
    that no other value loads numpy and an array loads no ``fusion``."""
    if isinstance(value, (dict, list, tuple)) and value:
        inner = "\n" + indent + "  "
        if isinstance(value, dict):
            brackets = "{}"
            items = ((f"{inner}{json.dumps(k)}: ", v) for k, v in sorted(value.items()))
        else:
            brackets = "[]"
            items = ((inner, v) for v in value)
        sep = brackets[0]
        for head, item in items:
            yield sep + head
            yield from _json_text(item, indent + "  ")
            sep = ","
        yield "\n" + indent + brackets[1]
    elif hasattr(value, "shape"):
        import numpy as np  # loaded already by the commands that reach here

        write = _entries_json if isinstance(value, np.ndarray) else _constants_json
        yield from write(value, indent)
    else:
        yield json.dumps(value)


def _entry_rows(entries):
    """Each row of a complex matrix as its list of [re, im] decimal strings.
    The entries are O(1), so a part below 1e-13 is fp dust, written as 0."""
    for row in entries:
        re, im = row.real.copy(), row.imag.copy()  # not views of the cached array
        re[abs(re) < 1e-13] = 0.0
        im[abs(im) < 1e-13] = 0.0
        yield [[format_real(x), format_real(y)] for x, y in zip(re.tolist(), im.tolist())]


def _entries_json(entries, indent: str):
    """The text that ``json.dumps(indent=2)`` gives the list of
    ``_entry_rows``, on a line indented by ``indent``, one row at a time."""
    row_line = "\n" + indent + "  "
    pair_line = row_line + "  "
    part_line = pair_line + "  "
    head = "[" + row_line
    for row in _entry_rows(entries):
        pairs = (f'[{part_line}"{re}",{part_line}"{im}"{pair_line}]' for re, im in row)
        yield f"{head}[{pair_line}{(',' + pair_line).join(pairs)}{row_line}]"
        head = "," + row_line
    yield "\n" + indent + "]"


def _constants_json(t: fusion.SparseTensor, indent: str):
    """The text that ``json.dumps(indent=2, sort_keys=True)`` gives the
    object {"a*b": {"c": N_ab^c}} of the nonzero entries, on a line indented
    by ``indent``, written from the arrays one row a at a time.  JSON keys
    sort as strings, and "*" sorts before every digit, so the pairs come in
    the decimal-string order of (a, b) and each payload in that of c."""
    import numpy as np

    m = t.shape[0]
    names = [str(x) for x in range(m)]
    order = sorted(range(m), key=str)
    rank = np.empty(m, dtype=np.int64)  # each index's place in that order
    rank[order] = np.arange(m)
    pair_line = "\n" + indent + "  "
    entry_line = ",\n" + indent + "    "
    head = "{" + pair_line
    for a in order:
        j, k, v = t.row(a)
        by_name = np.argsort(rank[j] * m + rank[k])
        parts, last = [], None
        for b, c, x in zip(*(y[by_name].tolist() for y in (j, k, v))):
            if b != last:
                parts.append(f'{head}"{names[a]}*{names[b]}": {{{entry_line[1:]}')
                head, last = pair_line + "}," + pair_line, b
            else:
                parts.append(entry_line)
            parts.append(f'"{names[c]}": {x}')
        yield "".join(parts)
    # head still opens the object when no row held an entry
    yield "{}" if head[0] == "{" else pair_line + "}\n" + indent + "}"


def _constants_lines(t: fusion.SparseTensor):
    """The table lines "a*b: {'c': N, ...}" of the nonzero pairs, in numeric
    order, read one row at a time."""
    import numpy as np

    for a in range(t.shape[0]):
        j, k, v = t.row(a)
        items = [f"'{c}': {x}" for c, x in zip(k.tolist(), v.tolist())]
        pairs, starts = (x.tolist() for x in np.unique(j, return_index=True))
        for b, lo, hi in zip(pairs, starts, [*starts[1:], len(items)]):
            yield f"{a}*{b}: {{{', '.join(items[lo:hi])}}}"


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
        lines.extend(_constants_lines(result["structure_constants"]))
    else:  # the hook lists an S-matrix's entries as _entry_rows gives them
        lines.append(
            json.dumps(result, sort_keys=True, default=lambda a: list(_entry_rows(a)))
        )
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
    p.add_argument("suite", choices=sorted(SUITE_NAMES) + ["all"])
    p.add_argument("--n", type=int)
    p.add_argument("--m1", type=int, help="first level with --n (default 1)")
    p.add_argument("--m2", type=int, help="second level with --n (default 1)")
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
    # report defines the errors matched here: an error path runs no module
    # that the command did not
    except (NotFaithful, SelfCheckFailed) as err:
        result = {"error": type(err).__name__, "message": str(err)}
        if isinstance(err, NotFaithful):
            result["fixed_points"] = [str(s) for s, _ in err.fixed_points]
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


def entry() -> int:
    """The process entry of ``python -m cosetcft.cli`` and of the installed
    ``cosetcft`` command: ``main`` on ``sys.argv``, then, on every exit path,
    ``gc.freeze()``.  The interpreter's shutdown collections then skip the
    objects numpy and the command left, about 17-20 ms in each numpy
    process.  ``main`` freezes nothing, because tests and the benchmark's
    trace runner call it in process."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
