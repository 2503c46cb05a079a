#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the runner if needed, then checks the contract of BENCHMARK.json,
the correctness gate, the repeatability of traced per-layer counts, and
that each workload exercises the layers it was chosen for. Takes about a
minute.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

_passes = {}


def one_pass(workload, seed, traced):
    """Cached: several tests read the same pass."""
    key = (workload, seed, traced)
    if key not in _passes:
        _passes[key] = bench.run_pass(workload, seed, traced)
    return _passes[key]


def counts(p):
    return {k: v for k, v in p["layers"].items() if k not in bench.DERIVED}


def setUpModule():
    bench.build()


class Contract(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = bench.spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bench.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(max(m["bound"] for m in spec["end_to_end"]),
                         setup[0]["bound"])


class Gate(unittest.TestCase):
    def test_seeds_1_and_7_pass_the_checksum_gate(self):
        golden = json.loads(bench.GOLDEN.read_text())
        for workload in bench.WORKLOADS:
            for seed in (1, 7):
                with self.subTest(workload=workload, seed=seed):
                    self.assertIsNotNone(
                        bench.golden_for(golden, workload, seed))
                    attempted, failed, problems = bench.check_passes(
                        [one_pass(workload, seed, False)], workload, seed,
                        golden)
                    self.assertGreater(attempted, 0)
                    self.assertEqual(failed, 0, problems)

    def test_wrong_golden_value_fails_the_run(self):
        p = one_pass("spec_mem", 1, False)
        golden = json.loads(bench.GOLDEN.read_text())
        golden["spec_mem"]["*"]["stencil"] = -1.0
        _, failed, _ = bench.check_passes([p], "spec_mem", 1, golden)
        self.assertEqual(failed, 5)  # stencil under each of the five configs


class Tracing(unittest.TestCase):
    def test_traced_counts_repeat_and_match_untraced_outputs(self):
        golden = json.loads(bench.GOLDEN.read_text())
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                first = one_pass(workload, 1, True)
                again = bench.run_pass(workload, 1, True)
                self.assertEqual(json.dumps(counts(first), sort_keys=True),
                                 json.dumps(counts(again), sort_keys=True))
                plain = one_pass(workload, 1, False)
                self.assertEqual(first["sim_digest"], plain["sim_digest"])
                self.assertEqual(first["sim_ms"], plain["sim_ms"])
                _, failed, problems = bench.check_passes(
                    [plain, first, again], workload, 1, golden)
                self.assertEqual(failed, 0, problems)

    def test_each_workload_isolates_its_layers(self):
        layers = {w: counts(one_pass(w, 1, True)) for w in bench.WORKLOADS}
        runs = {w: len(one_pass(w, 1, True)["runs"]) for w in bench.WORKLOADS}
        self.assertGreater(layers["qmcpack_copy"]["hsa.copy_bytes"], 1e9)
        self.assertLess(layers["qmcpack_zc"]["hsa.copy_bytes"],
                        1e-3 * layers["qmcpack_copy"]["hsa.copy_bytes"])
        self.assertLessEqual(
            layers["spec_mem"]["sim.events"] / runs["spec_mem"], 10)
        self.assertGreater(
            layers["qmcpack_zc"]["sim.events"] / runs["qmcpack_zc"], 10_000)
        for w, values in layers.items():
            svc = {k: v for k, v in values.items() if k.startswith("svc.")}
            if w == "service_mix":
                self.assertTrue(all(v > 0 for k, v in svc.items()
                                    if k in ("svc.offered", "svc.completed",
                                             "svc.shed", "svc.p99_us")))
            else:
                self.assertFalse(any(svc.values()), (w, svc))


class Command(unittest.TestCase):
    def run_bench(self, trace):
        proc = subprocess.run(
            [sys.executable, str(bench.HERE / "run.py"), "--workload",
             "spec_mem", "--seed", "3", "--seconds", "1", "--trace",
             str(trace)], capture_output=True, text=True, cwd=bench.ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_metric_is_printed_and_declared(self):
        spec = bench.spec()
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = self.run_bench(trace)
            self.assertEqual(set(out), {"correct", "attempted", "failed",
                                        "metrics"})
            self.assertTrue(out["correct"])
            self.assertEqual(set(out["metrics"]),
                             {m["name"] for m in spec[kind]})
            for m in spec[kind]:
                self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])

    def test_fails_without_the_program_sources(self):
        bare = bench.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(bench.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "spec_mem",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
