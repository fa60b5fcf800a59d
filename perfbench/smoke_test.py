#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, on tiny instances of every workload.

    python3 perfbench/smoke_test.py      (from the repository root)

Checks, for every workload in BENCHMARK.json, untraced and traced:
  - the run exits 0 and its last stdout line is the result object, with
    exactly the keys correct / attempted / failed / metrics, all checks
    passed;
  - the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names, each with its unit and a finite value, and
    no end-to-end value is 0;
  - another seed gives other inputs (the printed input fingerprint) but
    the same metric names;
  - the traced run writes a Chrome trace-event file.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build"))


def run(workload, seed, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace),
                             "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, CARGO_TARGET_DIR=BUILD),
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    fingerprint = next((l.split()[1] for l in lines
                        if l.startswith("input_fingerprint ")), None)
    return proc, json.loads(lines[-1]) if lines else None, fingerprint


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, seed, trace):
        proc, result, fingerprint = run(workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        specs = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in specs])
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, m["name"])
        self.assertIsNotNone(fingerprint)
        return result, fingerprint

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    a, fa = self.check_run(w["name"], 1, trace)
                    b, fb = self.check_run(w["name"], 2, trace)
                    self.assertNotEqual(fa, fb, "seed did not change inputs")
                    self.assertEqual(list(a["metrics"]), list(b["metrics"]))
                    if trace:
                        path = os.path.join(
                            BUILD, "trace-%s-2.json" % w["name"])
                        with open(path) as f:
                            events = json.load(f)["traceEvents"]
                        self.assertTrue(events)


if __name__ == "__main__":
    unittest.main(verbosity=2)
