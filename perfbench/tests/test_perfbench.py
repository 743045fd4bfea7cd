"""The benchmark's own tests.

Run from the repository root:

  python3 -m unittest discover -s perfbench/tests -v

The end-to-end test builds the benchmark into .bench_build/perfbench
on first use (a few minutes); after that the whole suite takes
seconds.

fixtures/recorded.json holds three untraced and three traced
iterations (the first traced one with probes) of tiny-scale seed-5
runs of llm_decode and fleet_churn, their results trimmed to the
fields metrics.py reads, and the metric values computed from them
when they were recorded.
"""

import copy
import hashlib
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import metrics  # noqa: E402
import workloads  # noqa: E402

FIXTURE = json.loads((HERE / "fixtures" / "recorded.json").read_text())


class GeneratorTest(unittest.TestCase):
    # SHA-256 of the seed-1 full-scale text of each workload. A change
    # here changes every benchmark input: regenerate deliberately.
    PINNED = {
        "fleet_steady":
            "811b34479511377d025cbd6f765c61d789d6dc666ff6406122f5472eff7a6f0f",
        "fleet_churn":
            "a627fcd0ae6cb173a7d6b064c67ce06a0ff4cf312d6b8ed6361289736c94c3b4",
        "llm_decode":
            "77dc7fa7ab63742e141d19fd4481adcec49a5b1d55222c1c4d45e3e3a9c70ce2",
    }

    def test_same_seed_gives_identical_bytes(self):
        for name in workloads.WORKLOADS:
            for scale in ("full", "tiny"):
                self.assertEqual(workloads.generate(name, 7, scale),
                                 workloads.generate(name, 7, scale))

    def test_pinned_text(self):
        for name, digest in self.PINNED.items():
            text = workloads.generate(name, 1)
            self.assertEqual(hashlib.sha256(text.encode()).hexdigest(),
                             digest, name)

    def test_seeds_give_different_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(workloads.generate(name, 1),
                                workloads.generate(name, 2))

    def test_tenant_streams_of_nearby_seeds_do_not_overlap(self):
        # Tenant i of a scenario draws from base + i (384 tenants at
        # most), so bases must be far apart.
        for name in workloads.WORKLOADS:
            bases = sorted(workloads.fleet_seed(s, name)
                           for s in range(1, 200))
            gaps = [b - a for a, b in zip(bases, bases[1:])]
            self.assertGreater(min(gaps), 1000, name)

    def test_churn_fault_lines_are_seeded(self):
        def faults(seed):
            return [line for line in
                    workloads.generate("fleet_churn", seed).splitlines()
                    if line.startswith("fault = ")]

        one, two = faults(1), faults(2)
        self.assertNotEqual(one, two)
        for lines in (one, two):
            kinds = [line.split()[2] for line in lines]
            self.assertEqual(kinds.count("board-loss"), 3)
            self.assertEqual(kinds.count("repair"), 3)
            self.assertEqual(kinds.count("core-stall"), 8)


class MetricArithmeticTest(unittest.TestCase):
    """metrics.py against a recorded tiny-scale run of each workload
    (tests/fixtures/recorded.json)."""

    def test_end_to_end_matches_recorded_values(self):
        for name, rec in FIXTURE.items():
            got = metrics.end_to_end(rec["untraced"])
            self.assertEqual(set(got), {n for n, _ in metrics.END_TO_END})
            for key, want in rec["end_to_end"].items():
                self.assertTrue(math.isclose(got[key], want, rel_tol=1e-12),
                                f"{name} {key}: {got[key]} != {want}")

    def test_per_layer_matches_recorded_values(self):
        for name, rec in FIXTURE.items():
            got, absent = metrics.per_layer(rec["untraced"], rec["traced"])
            self.assertEqual(absent, rec["absent"], name)
            self.assertEqual(set(got) | set(absent),
                             {n for n, _ in metrics.PER_LAYER})
            self.assertEqual(set(got), set(rec["per_layer"]), name)
            for key, want in rec["per_layer"].items():
                self.assertTrue(math.isclose(got[key], want, rel_tol=1e-12),
                                f"{name} {key}: {got[key]} != {want}")

    def test_end_to_end_by_hand(self):
        it = FIXTURE["llm_decode"]["untraced"][0]
        t, fleet = it["line"]["t"], it["result"]["fleet"]
        one = metrics.iteration_end_to_end(it)
        self.assertEqual(one["requests_per_wall_s"],
                         fleet["completed"] / ((t["json1"] - t["parse0"]) / 1e9))
        self.assertEqual(one["setup_s"], (t["fleet0"] - it["spawn_ns"]) / 1e9)
        self.assertEqual(one["rejected_frac"],
                         fleet["rejected"] / fleet["submitted"])
        self.assertAlmostEqual(one["p99_latency_ms"],
                               fleet["p99_cycles"] / 1.05e6, places=9)

    def test_layers_absent_where_they_do_not_run(self):
        absent = FIXTURE["llm_decode"]["absent"]
        for name in ("sim.event_queue.ns_per_event",
                     "npu.bandwidth.maxmin_ns", "compiler.compile_s",
                     "obs.trace_events"):
            self.assertIn(name, absent)
        self.assertNotIn("llm.kv_pool.ns_per_op", absent)
        churn = FIXTURE["fleet_churn"]["absent"]
        self.assertNotIn("obs.trace_export_s", churn)
        self.assertNotIn("resilience.failovers", churn)
        self.assertIn("llm.endpoint_replay_s", churn)


class CheckTest(unittest.TestCase):
    def test_recorded_iterations_pass(self):
        for name, rec in FIXTURE.items():
            for it in rec["untraced"] + rec["traced"]:
                self.assertEqual(metrics.check(it, name), [])

    def test_conservation_violation_fails(self):
        it = copy.deepcopy(FIXTURE["fleet_churn"]["untraced"][0])
        it["result"]["fleet"]["per_tenant"][0]["completed"] -= 1
        errors = metrics.check(it, "fleet_churn")
        self.assertEqual(len(errors), 1)
        self.assertIn("tenant 0", errors[0])

    def test_kv_leak_fails(self):
        it = copy.deepcopy(FIXTURE["llm_decode"]["untraced"][0])
        kv = it["result"]["fleet"]["per_tenant"][0]["llm"]
        kv["kv_free_ops"] -= 1
        kv["kv_page_high_water"] = kv["kv_pages"] + 1
        self.assertEqual(len(metrics.check(it, "llm_decode")), 2)

    def test_wrong_scenario_fails(self):
        it = FIXTURE["llm_decode"]["untraced"][0]
        self.assertEqual(len(metrics.check(it, "fleet_steady")), 1)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         list(metrics.PER_LAYER))
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(workloads.WORKLOADS))


class TinyEndToEndTest(unittest.TestCase):
    """Every workload at tiny scale, untraced and traced, through the
    benchmark's own command line."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "0.2",
             "--trace", str(trace), "--scale", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_all_workloads(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in workloads.WORKLOADS:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = self.run_bench(workload, trace)
                    self.assertEqual(set(out),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 6)
                    self.assertEqual(
                        {k: v["unit"] for k, v in out["metrics"].items()},
                        {m["name"]: m["unit"] for m in doc[table]})


if __name__ == "__main__":
    unittest.main()
