"""Benchmark of the cosetcft CLI: whole commands end to end, and a traced run
that splits their time by library layer.

    python3 perfbench/run.py --workload rings --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py            # every workload in turn, untraced

Each op is one CLI invocation, ``python -m cosetcft.cli ARGV`` with
``PYTHONPATH=src``, run in a fresh process.  The loop is closed with a single
client: one op at a time, because the program already uses every core through
its BLAS.  A pass runs every op of the workload once, in an order shuffled by
``--seed``; passes repeat until ``--seconds`` is spent (at least one pass).
Every op's exit code and stdout sha256 are checked against the ones recorded
in ``spec.json``, traced ops as well as untraced ones, so traced stdout must
equal untraced stdout byte for byte.

``--trace 0`` reports the end-to-end metrics: median pass wall time, median
pass CPU time of the op processes (from ``os.wait4``), median of each pass's
highest op max-RSS, and the median set-up time of a fresh interpreter that
only imports ``cosetcft.cli``.  ``--trace 1`` alternates an untraced pass with
a traced one (ops run under ``trace_runner.py``) and reports the medians over
traced passes of the per-layer metrics named in ``BENCHMARK.json``, plus the
tracing overhead (median traced minus median untraced pass wall time).  A
traced run is also incorrect when a function that the layers table of
``spec.json`` names for the workload made no call in a traced pass.

Each workload's report is a header line, an ``env`` line, one line per
metric with its unit, an ``error_rate`` line (failed ops / attempted ops), and
last one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import trace_runner

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(HERE, "spec.json")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_LAUNCHES = 15
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# --- one op -----------------------------------------------------------------

@dataclass
class OpResult:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    failed: bool = False
    trace: dict | None = None


def op_failed(op: dict, code: int, stdout: bytes) -> bool:
    """An op fails on a wrong exit code, a wrong stdout digest, or a verify
    document that does not report ``"passed": true``."""
    if code != op["exit"] or hashlib.sha256(stdout).hexdigest() != op["sha256"]:
        return True
    if op["cmd"].startswith("verify "):
        try:
            return json.loads(stdout)["result"]["passed"] is not True
        except (ValueError, KeyError, TypeError):
            return True
    return False


def run_process(cmd: list[str], env: dict, timeout: float, span_pipe=None):
    """Run ``cmd`` from the repo root; return (exit code, stdout, wall time,
    rusage, span bytes).  ``span_pipe`` is an (r, w) pipe whose write end the
    process inherits; its contents are read after stdout reaches EOF.  The
    process is killed after ``timeout`` seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        pass_fds=span_pipe[1:] if span_pipe else (),
    )
    span_file = None
    if span_pipe:
        os.close(span_pipe[1])
        span_file = os.fdopen(span_pipe[0], "rb")
    timer = threading.Timer(max(timeout, 0.0), proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        spans = span_file.read() if span_file else b""
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        if span_file:
            span_file.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, wall, usage, spans


def run_op(op: dict, op_id: str, traced: bool, env: dict, timeout: float) -> OpResult:
    argv = op["cmd"].split(" ")
    span_pipe = os.pipe() if traced else None
    if traced:
        runner = os.path.join(HERE, "trace_runner.py")
        cmd = [sys.executable, runner, str(span_pipe[1]), op_id, "--", *argv]
    else:
        cmd = [sys.executable, "-m", "cosetcft.cli", *argv]
    code, stdout, wall, usage, spans = run_process(cmd, env, timeout, span_pipe)
    result = OpResult(
        code=code,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        failed=op_failed(op, code, stdout),
    )
    if traced:
        result.trace = json.loads(spans) if spans else None
        if result.trace is None or not trace_is_consistent(result.trace["spans"]):
            result.failed = True
    return result


# --- spans ------------------------------------------------------------------

def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  Spans are [id, parent, name, start, end, ...]."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, *_ in spans:
        covered, reach = 0.0, start
        for a, b in sorted(children[sid]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[sid] = end - start - covered
    return out


def trace_is_consistent(spans: list[list]) -> bool:
    """The self times of all spans must add up to the root span.  Spans come
    from a call stack and always nest, so the sum is an identity once there
    is exactly one ``cli.main`` root; what this catches is a missing or
    repeated root."""
    roots = [s for s in spans if s[1] is None]
    if len(roots) != 1 or roots[0][2] != trace_runner.ROOT_SPAN:
        return False
    total = sum(self_times(spans).values())
    return abs(total - (roots[0][4] - roots[0][3])) <= 1e-6


def layer_stats(traces: list[dict]) -> dict[str, float]:
    """Per-layer statistics of one traced pass, keyed by metric name."""
    stats: dict[str, float] = defaultdict(float)
    hits: dict[str, int] = defaultdict(int)
    for trace in traces:
        selfs = self_times(trace["spans"])
        for sid, _parent, name, _start, _end, size in trace["spans"]:
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += selfs[sid]
            stats[f"{name.split('.')[0]}.self_s"] += selfs[sid]
            size_stat = trace_runner.TRACED.get(name)
            if size_stat is not None and size is not None:
                key = f"{name}.{size_stat[0]}"
                stats[key] = max(stats[key], size)
        for name, n in trace["cache_hits"].items():
            hits[name] += n
    for name, n in hits.items():
        calls = stats[f"{name}.calls"]
        stats[f"{name}.hit_ratio"] = n / calls if calls else 0.0
    return stats


def uncovered(layers: list[dict], workload: str, stats: dict[str, float]) -> list[str]:
    """Functions that the layers table names for ``workload`` but that made no
    call in one traced pass: a wrapper that is no longer installed, or a
    table row that no longer holds."""
    names = {
        metric.rsplit(".", 1)[0]
        for row in layers if workload in row["workloads"]
        for metric in row["metrics"] if metric.count(".") == 2
    }
    return sorted(name for name in names if not stats.get(f"{name}.calls"))


# --- passes -----------------------------------------------------------------

@dataclass
class PassResult:
    ops: list[OpResult]

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.ops)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.ops)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.ops)


def run_pass(ops, order, traced, env, deadline, tag, before_op=None) -> PassResult:
    results = []
    for i in order:
        if before_op:
            before_op()
        results.append(run_op(ops[i], f"{tag}.{i}", traced, env, deadline - time.perf_counter()))
    return PassResult(results)


class SetupProbe:
    """Set-up time: wall time of a fresh interpreter that only imports
    cosetcft.cli.  Launches are spread evenly over the measured window, at
    most one between two ops, so that their median sees the same machine
    load as the passes.  A first launch, which may write bytecode caches, is
    not counted."""

    def __init__(self, env: dict, deadline: float, seconds: float):
        self.env, self.deadline, self.seconds = env, deadline, seconds
        self.times: list[float] = []
        self._launch()
        self.times.clear()
        self.start = time.perf_counter()

    def _launch(self) -> None:
        cmd = [sys.executable, "-c", "import cosetcft.cli"]
        code, _, wall, _, _ = run_process(cmd, self.env, self.deadline - time.perf_counter())
        if code != 0:
            raise SystemExit(f"perfbench: importing cosetcft.cli failed (exit {code})")
        self.times.append(wall)

    def maybe_launch(self) -> None:
        due = self.start + len(self.times) * self.seconds / SETUP_LAUNCHES
        if len(self.times) < SETUP_LAUNCHES and time.perf_counter() >= due:
            self._launch()

    def median(self) -> float:
        while len(self.times) < SETUP_LAUNCHES:
            self._launch()
        return statistics.median(self.times)


def benchmark(name: str, spec: dict, seed: int, seconds: float, traced: bool,
              metrics: list[dict]):
    """Run one benchmark; return (attempted, failed, uncovered functions,
    metric values, untraced passes)."""
    env = program_env()
    ops = spec["workloads"][name]["ops"]
    rng = random.Random(seed)
    deadline = time.perf_counter() + RUN_LIMIT_S
    probe = None if traced else SetupProbe(env, deadline, seconds)
    start = time.perf_counter()
    plain: list[PassResult] = []
    traced_passes: list[PassResult] = []
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        round_start = time.perf_counter()
        plain.append(run_pass(ops, order, False, env, deadline, f"p{len(plain)}",
                              probe and probe.maybe_launch))
        if traced:
            traced_passes.append(
                run_pass(ops, order, True, env, deadline, f"t{len(traced_passes)}")
            )
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds or any(
            r.failed for p in plain + traced_passes for r in p.ops
        ):
            break
    all_ops = [r for p in plain + traced_passes for r in p.ops]
    attempted, failed = len(all_ops), sum(r.failed for r in all_ops)
    missing: list[str] = []
    if traced:
        per_pass = [layer_stats([r.trace for r in p.ops if r.trace]) for p in traced_passes]
        missing = sorted({fn for s in per_pass for fn in uncovered(spec["layers"], name, s)})
        values = {
            m["name"]: statistics.median(s.get(m["name"], 0.0) for s in per_pass)
            for m in metrics
        }
        values["trace.overhead_s"] = statistics.median(
            p.wall for p in traced_passes
        ) - statistics.median(p.wall for p in plain)
    else:
        values = {
            "wall_s": statistics.median(p.wall for p in plain),
            "cpu_s": statistics.median(p.cpu for p in plain),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
            "setup_s": probe.median(),
        }
    return attempted, failed, missing, values, len(plain)


def report(name: str, spec: dict, args, metrics: list[dict]) -> bool:
    """Benchmark one workload, print its metrics and the result object, and
    return whether every op was correct."""
    attempted, failed, missing, values, passes = benchmark(
        name, spec, args.seed, args.seconds, bool(args.trace), metrics
    )
    if missing:
        print("perfbench: no traced calls to " + ", ".join(missing), file=sys.stderr)
    print(f"perfbench workload={name} seed={args.seed} trace={args.trace} "
          f"passes={passes} ops={attempted}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for m in metrics:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(f"error_rate {failed / attempted:.6g} ratio")
    correct = failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload of spec.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cosetcft", "cli.py")):
        print("perfbench: src/cosetcft is missing; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_json(SPEC_PATH)
    workloads = spec["workloads"]
    if args.workload != "all" and args.workload not in workloads:
        parser.error(f"--workload must be all or one of {sorted(workloads)}")
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    results = [report(name, spec, args, metrics) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
