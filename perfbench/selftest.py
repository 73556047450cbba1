"""Self-test of the benchmark harness (not part of the repo's test suite).

    python3 perfbench/selftest.py

Checks that a tampered digest counts as a failed op, that self time is
computed correctly for nested spans, and that every metric name the benchmark
prints is declared in BENCHMARK.json.  The last check runs the ``sweep``
workload once untraced and once traced (about 20 s).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import unittest

import run
import trace_runner

BENCHMARK = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
SPEC = run.load_json(run.SPEC_PATH)


class DigestGate(unittest.TestCase):
    def op(self, cmd: str, stdout: bytes, code: int = 0) -> dict:
        return {"cmd": cmd, "exit": code, "sha256": hashlib.sha256(stdout).hexdigest()}

    def test_tampered_digest_fails(self):
        out = b'{"result": {"x": 1}}\n'
        op = self.op("fuse su3 2 1,0 0,1", out)
        self.assertFalse(run.op_failed(op, 0, out))
        self.assertTrue(run.op_failed(op, 0, out.replace(b"1", b"2")))
        self.assertTrue(run.op_failed(dict(op, sha256="0" * 64), 0, out))

    def test_wrong_exit_code_fails(self):
        out = b"{}\n"
        self.assertTrue(run.op_failed(self.op("coset-ring 2 2 2", out, 1), 0, out))

    def test_verify_must_report_passed(self):
        out = json.dumps({"result": {"passed": False}}).encode()
        self.assertTrue(run.op_failed(self.op("verify all", out), 0, out))
        out = json.dumps({"result": {"passed": True}}).encode()
        self.assertFalse(run.op_failed(self.op("verify all", out), 0, out))


class SelfTime(unittest.TestCase):
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 6.5]
    SPANS = [
        [0, None, "cli.main", 0.0, 10.0, None],
        [1, 0, "fusion.verlinde_tensor", 1.0, 4.0, 3],
        [2, 1, "modular.s_matrix", 2.0, 3.0, None],
        [3, 0, "fusion.ring_axiom_failures", 5.0, 6.5, 7],
    ]

    def test_nested_self_time(self):
        selfs = run.self_times(self.SPANS)
        self.assertEqual(selfs, {0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5})
        self.assertTrue(run.trace_is_consistent(self.SPANS))

    def test_layer_stats(self):
        stats = run.layer_stats([{"spans": self.SPANS, "cache_hits": {"modular.s_matrix": 1}}])
        self.assertEqual(stats["cli.main.self_s"], 5.5)
        self.assertEqual(stats["fusion.self_s"], 3.5)
        self.assertEqual(stats["fusion.verlinde_tensor.max_m"], 3)
        self.assertEqual(stats["fusion.ring_axiom_failures.max_m"], 7)
        self.assertEqual(stats["modular.s_matrix.hit_ratio"], 1.0)

    def test_broken_nesting_is_inconsistent(self):
        spans = self.SPANS[:1] + [[1, None, "fusion.fuse", 1.0, 2.0, None]]
        self.assertFalse(run.trace_is_consistent(spans))

    def test_uncalled_layer_function_is_reported(self):
        stats = run.layer_stats([{"spans": self.SPANS, "cache_hits": {}}])
        layers = [
            {"metrics": ["fusion.verlinde_tensor.self_s", "fusion.self_s"], "workloads": ["rings"]},
            {"metrics": ["coset.coset_ring.max_orbits"], "workloads": ["rings"]},
            {"metrics": ["characters.graded_character.calls"], "workloads": ["sweep"]},
        ]
        self.assertEqual(run.uncovered(layers, "rings", stats), ["coset.coset_ring"])
        self.assertEqual(run.uncovered(layers, "sweep", stats), ["characters.graded_character"])
        self.assertEqual(run.uncovered(layers[:1], "rings", stats), [])


class Declarations(unittest.TestCase):
    def test_per_layer_names_refer_to_traced_functions(self):
        modules = {name.split(".")[0] for name in trace_runner.TRACED}
        for metric in BENCHMARK["per_layer"]:
            parts = metric["name"].split(".")
            with self.subTest(metric=metric["name"]):
                if len(parts) == 2:
                    self.assertIn(metric["name"], {"trace.overhead_s"} | {f"{m}.self_s" for m in modules})
                    continue
                fn, stat = ".".join(parts[:2]), parts[2]
                self.assertIn(fn, set(trace_runner.TRACED) | {trace_runner.ROOT_SPAN})
                size = trace_runner.TRACED.get(fn)
                self.assertIn(stat, {"calls", "self_s", "hit_ratio"} | ({size[0]} if size else set()))

    def test_layer_table_names_are_declared(self):
        declared = {m["name"] for m in BENCHMARK["per_layer"]}
        ends = {m["name"] for m in BENCHMARK["end_to_end"] + SPEC["extra_metrics"]}
        for row in SPEC["layers"]:
            self.assertLessEqual(set(row["metrics"]), declared)
            self.assertLessEqual(set(row["moves"]), ends)
            self.assertLessEqual(set(row["workloads"]), set(SPEC["workloads"]))

    def test_printed_metrics_are_declared(self):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                proc = subprocess.run(
                    [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "sweep",
                     "--seed", "1", "--seconds", "1", "--trace", trace],
                    cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
                )
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"])
                declared = [m["name"] for m in BENCHMARK[group]]
                self.assertEqual(list(result["metrics"]), declared)
                printed = [ln.split(" ")[0] for ln in lines[2:-1]]
                self.assertEqual(printed, declared + [m["name"] for m in SPEC["extra_metrics"]])
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in BENCHMARK[group]},
                )


if __name__ == "__main__":
    unittest.main()
