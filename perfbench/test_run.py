"""Tests of the benchmark itself: metric names, the short smoke runs, the
golden-digest gate, the failure outside a full checkout, and detlint.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke runs build simbench first (into .bench_build/, like run.py).
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = run.BENCHMARK
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def setUpModule():
    if run.build(deadline=time.monotonic() + 900) is None:
        raise unittest.SkipTest("simbench does not build")


class MetricNames(unittest.TestCase):
    def test_every_name_is_well_formed_and_unique(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        for section in ("end_to_end", "per_layer"):
            for metric in BENCHMARK[section]:
                names.append(metric["name"])
                self.assertRegex(metric["unit"], UNIT)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))


class ShortRuns(unittest.TestCase):
    def test_smoke_runs_print_the_declared_metrics(self):
        declared = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = run.run_workload(workload, run.HELD_OUT_SEED, 0, trace, "short",
                                              run.GOLDEN)
                    # Traced repetitions pass only if their digest equals the
                    # untraced ones': tracing changes no count or sim_* value.
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 4)  # check + 3 measured
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"] for m in declared[trace]})
                    for m in result["metrics"].values():
                        self.assertTrue(math.isfinite(m["value"]))

    def test_wrong_golden_digest_is_a_failure(self):
        golden = json.loads(run.GOLDEN.read_text())
        digest = golden["short"]["nfv_chain"][str(run.DEFAULT_SEED)]
        golden["short"]["nfv_chain"][str(run.DEFAULT_SEED)] = digest[::-1]
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            wrong = Path(tmp) / "golden.json"
            wrong.write_text(json.dumps(golden))
            result = run.run_workload("nfv_chain", 3, 0, 0, "short", wrong)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)  # the default-seed check repetition
        self.assertGreater(result["attempted"], 1)

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "nfv_chain", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=300)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


class Determinism(unittest.TestCase):
    def test_simbench_passes_detlint_strict(self):
        subprocess.run(["cmake", "--build", str(run.build_dir()), "--target", "detlint"],
                       check=True, capture_output=True, timeout=600)
        done = subprocess.run([str(run.build_dir() / "detlint"), "--strict",
                               str(run.HERE / "simbench.cc")], capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


if __name__ == "__main__":
    unittest.main()
