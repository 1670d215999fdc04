#!/usr/bin/env python3
"""Tests of the benchmark itself: determinism, output contract, traced run.

Run from the repository root (builds first, like run.py):

    python3 perfbench/test_perfbench.py

Every run here uses a fixed number of batches (--batches) instead of a time
limit, so its counts do not depend on machine speed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ["inproc_estimator", "tcp_fanout", "hot_ingest"]
BINARY = None


def bench(workload, seed, trace=0, batches=16):
    """Runs one workload; returns (exit code, table rows, result, header)."""
    out = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
         "10", "--trace", str(trace), "--batches", str(batches)],
        capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    rows = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) == 3:
            rows[parts[0]] = (float(parts[1]), parts[2])
    return out.returncode, rows, json.loads(lines[-1]), lines[0]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_same_seed_repeats_counts_and_accuracy(self):
        _, first, _, head1 = bench("inproc_estimator", 7, batches=20)
        _, second, _, head2 = bench("inproc_estimator", 7, batches=20)
        for name in ["rpcs_per_query", "bytes_per_query", "mre",
                     "eps_violation_rate", "index_mb"]:
            self.assertEqual(first[name], second[name], name)
        stream = lambda head: head.split("stream ")[1].split(":")[0]
        self.assertEqual(stream(head1), stream(head2))
        _, _, _, other = bench("inproc_estimator", 8, batches=4)
        self.assertNotEqual(stream(head1), stream(other))

    def test_plain_run_prints_every_end_to_end_metric(self):
        listed = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in WORKLOADS:
            code, rows, result, _ = bench(workload, 3)
            self.assertEqual(code, 0, workload)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()}, listed)
            for name in ["error_rate", "freshness_ms"]:
                self.assertIn(name, rows)
            self.assertEqual(rows["error_rate"][0], 0.0)
            mre = result["metrics"]["mre"]["value"]
            if workload == "tcp_fanout":
                self.assertEqual(mre, 0)  # EXACT
            else:
                self.assertGreater(mre, 0)

    def test_traced_run_passes_wire_truth_and_reports_layers(self):
        listed = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in WORKLOADS:
            # hot_ingest writes every 1.5 s of timed wall; 2000 batches
            # (> 2 s at its speed) make the traced phase compact a silo.
            batches = 2000 if workload == "hot_ingest" else 16
            code, _, result, _ = bench(workload, 5, trace=1, batches=batches)
            # The traced run exits 1 when a wire-truth cross-check fails.
            self.assertEqual(code, 0, workload)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()}, listed)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            self.assertEqual(metrics["net.failed_calls"], 0)
            # Every traced run measures the TCP leg, scrape included.
            self.assertGreater(metrics["tcp.qps"], 0)
            self.assertEqual(metrics["tcp.net.failed_calls"], 0)
            self.assertGreater(metrics["obs.scrape_ms.p50"], 0)
            if workload == "hot_ingest":
                self.assertGreater(metrics["cache.exact_hit_ratio"], 0)
                self.assertGreater(metrics["silo.compactions"], 0)
            else:
                self.assertEqual(metrics["cache.exact_hit_ratio"], 0)


if __name__ == "__main__":
    unittest.main()
