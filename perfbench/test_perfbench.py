"""Self-test of the benchmark: every workload emits every metric of
BENCHMARK.json with its unit, with all output checks passing; the Spark
listener's arithmetic holds; and the benchmark refuses to run without the
program's sources.

    python3 perfbench/test_perfbench.py          # about 3 minutes on 4 cores

Each run is short (--seconds 1), so the figures themselves are not judged.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(cwd, workload, trace, seconds=1):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class MetricsEmitted(unittest.TestCase):

    def check_workload(self, workload, trace):
        proc = run(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], proc.stderr[-3000:])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in wanted))
        for m in wanted:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return res["metrics"]

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_workload(w["name"], 0)

    def test_per_layer_metrics_and_listener_arithmetic(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = {k: v["value"] for k, v in self.check_workload(w["name"], 1).items()}
                self.assertGreaterEqual(m["spark.jobs"], 1)
                self.assertGreaterEqual(m["spark.tasks"], m["spark.jobs"])
                self.assertLessEqual(m["spark.failed_tasks"], m["spark.tasks"])
                self.assertGreaterEqual(m["spark.wait_s"], 0)
                self.assertLessEqual(m["spark.job_ms_p50"], m["spark.job_ms_p90"])
                self.assertLessEqual(m["domtree.sample_us_p50"], m["domtree.sample_us_p90"])
                self.assertLessEqual(m["spread.sim_us_p50"], m["spread.sim_us_p90"])
                self.assertLessEqual(m["domtree.reached_mean"], m["domtree.reached_max"])
                self.assertGreaterEqual(m["sampling.repeat_ratio"], 1.0)


class RefusesWithoutProgram(unittest.TestCase):

    def test_fails_in_a_directory_with_only_the_benchmark(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(bare, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            res = None
            try:
                res = result_of(proc)
            except ValueError:
                pass
            self.assertNotIsInstance(res, dict)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
