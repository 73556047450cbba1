"""Run one cosetcft CLI command in-process with a timing span around every
call into each library layer.

Usage: PYTHONPATH=src python perfbench/trace_runner.py SPAN_FD OP_ID -- ARGV...

Each traced function is rebound, in every ``cosetcft.*`` module namespace
that holds it, to a wrapper that records a span (id, parent id, name, start,
end, size).  Calls between layers, such as ``coset_ring`` calling
``verlinde_tensor``, therefore nest under their caller.  The root span is
``cli.main``.  Spans stay in memory; when the command has returned, stdout is
flushed and detached, and the spans are written as one JSON document to file
descriptor SPAN_FD.  The command's stdout bytes are exactly those of
``python -m cosetcft.cli ARGV``, and its exit code is passed through.

Per-weight and per-entry helpers (``weights.v_vector``, ``color``,
``quantum_dimension`` and the like, called up to ~10^6 times per op) are not
wrapped: their time counts in the self time of the traced caller.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _basis_of_first_arg(args, kwargs, result):
    return len(args[0].basis)


def _tensor_m(args, kwargs, result):
    return int(args[0].shape[0])


def _basis_of_result(args, kwargs, result):
    return len(result.basis)


def _cutoff(args, kwargs, result):
    return int(args[2] if len(args) > 2 else kwargs["cutoff"])


# "module.function" -> (size stat name, size of one call) or None.
TRACED = {
    "weights.integrable_weights": None,
    "modular.s_matrix": None,
    "modular.product_quantum_dimension": None,
    "fusion.verlinde_tensor": ("max_m", _basis_of_first_arg),
    "fusion.fusion_ring": None,
    "fusion.fuse": None,
    "fusion.product_ring": None,
    "fusion.simple_current_check": None,
    "fusion.ring_axiom_failures": ("max_m", _tensor_m),
    "fusion.dimension_homomorphism_residual": None,
    "coset.exp_set": None,
    "coset.identification_orbits": None,
    "coset.factor_rings": None,
    "coset.coset_ring": ("max_orbits", _basis_of_result),
    "coset.coset_statistical_dimension": None,
    "coset.kw_identity_check": None,
    "coset.class_dimension_sums": None,
    "coset.dgh": None,
    "coset.formula_31_residual": None,
    "coset.vacuum_orbit_membership": None,
    "torus.torus_classes": None,
    "torus.torus_exp": None,
    "torus.torus_ring": None,
    "torus.torus_kw_residual": None,
    "characters.finite_weight_multiplicities": None,
    "characters.weyl_dimension": None,
    "characters.graded_character": ("max_cutoff", _cutoff),
    "characters.freudenthal_character": None,
    "characters.tensor_characters": None,
    "characters.restrict_character": None,
    "characters.peel_branching": None,
    "characters.reconstitute": None,
    "characters.diagonal_branching": None,
    "characters.sector_branching": None,
    "characters.coset_energy_offset": None,
    "characters.vacuum_membership": None,
    "characters.kw_numeric_ratio": None,
    "maverick.build_maverick_ring": None,
    "maverick.maverick_dims": None,
    "maverick.maverick_branching": None,
    "maverick.maverick_branching_check": None,
}

ROOT_SPAN = "cli.main"


class Tracer:
    """Collects spans as [id, parent, name, start, end, size] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int | None] = [None]

    def wrap(self, name: str, fn, size_of=None):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [sid, self._stack[-1], name, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(sid)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if size_of is not None:
                span[5] = size_of(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> dict:
    """Rebind every traced function in all loaded cosetcft modules; return
    the original of each, keyed by traced name."""
    mods = {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == "cosetcft" or name.startswith("cosetcft."))
    }
    originals = {}
    for name, stat in TRACED.items():
        module, func = name.split(".")
        fn = getattr(mods[f"cosetcft.{module}"], func)
        originals[name] = fn
        wrapper = tracer.wrap(name, fn, stat[1] if stat else None)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
    return originals


def _cache_hits(originals: dict) -> dict:
    return {
        name: fn.cache_info().hits
        for name, fn in originals.items()
        if hasattr(fn, "cache_info")
    }


def main(argv: list[str]) -> int:
    span_fd, op_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: trace_runner.py SPAN_FD OP_ID -- ARGV...")
    import cosetcft.cli as cli

    tracer = Tracer()
    originals = install(tracer)
    hits_before = _cache_hits(originals)
    run = tracer.wrap(ROOT_SPAN, cli.main)
    try:
        code = run(cli_argv)
    except SystemExit as exc:  # argparse usage errors exit 2
        code = exc.code if isinstance(exc.code, int) else 1
    hits = {
        name: after - hits_before[name]
        for name, after in _cache_hits(originals).items()
    }
    sys.stdout.flush()
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)  # the parent reads stdout to EOF before the spans
    os.close(devnull)
    with os.fdopen(int(span_fd), "w", encoding="utf-8") as fh:
        json.dump({"op": op_id, "spans": tracer.spans, "cache_hits": hits}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
