"""The benchmark's own tests, at a tiny size.

Run from the repository root::

    python3 perfbench/checks.py

(The file name keeps them out of the repository's tier-1 pytest run:
each case starts fleets and runs seconds-long workloads.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.engine import AllocationRequest, execute_request  # noqa: E402
from repro.experiments import build_case  # noqa: E402

from timed import Run  # noqa: E402
from verify import canonical_unlabelled  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: counts that must repeat exactly between two runs with one seed.
EXACT = (
    "solver.iterations",
    "binding.max_chain.calls",
    "binding.chain_cache.hits",
    "binding.chain_cache.misses",
    "binding.chain_cache.evicted",
    "fleet.forwards",
) + tuple(
    m["name"] for m in SPEC["per_layer"] if m["name"].startswith("delta.count.")
)


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    """Run the benchmark at tiny scale; (exit status, stdout lines)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--scale", "tiny"]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return done.returncode, done.stdout.strip().splitlines()


def result_of(lines):
    return json.loads(lines[-1])


class EveryWorkloadEmitsEveryMetric(unittest.TestCase):
    def test_timed_and_traced(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    status, lines = bench(workload, trace)
                    result = result_of(lines)
                    self.assertEqual(status, 0, lines[-2:])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    info = json.loads(lines[-2])
                    for key in ("seed", "nproc", "python", "sizes"):
                        self.assertIn(key, info)


class CorruptedEnvelopeCountsAsFailed(unittest.TestCase):
    def test_corrupted_area_and_bytes(self):
        problem = build_case(16, 0, 0.2, base_seed=5).problem
        good = execute_request(AllocationRequest(problem, "dpalloc", label="x"))
        expected = canonical_unlabelled(good)
        corrupted = [
            replace(good, datapath=replace(good.datapath, area=good.datapath.area + 1)),
            replace(good, datapath=replace(good.datapath, makespan=good.datapath.makespan + 1)),
            replace(good, valid=False),
            replace(good, label="y"),
        ]
        run = Run()
        run.check(good, "x", expected)
        for envelope in corrupted:
            run.check(envelope, "x", expected)
        self.assertEqual(run.attempted, 1 + len(corrupted))
        self.assertEqual(len(run.faults), len(corrupted))


class SameSeedRepeatsExactCounts(unittest.TestCase):
    def test_traced_counts(self):
        for workload in ("served-mix", "refinement-heavy"):
            with self.subTest(workload=workload):
                first = result_of(bench(workload, 1)[1])["metrics"]
                second = result_of(bench(workload, 1)[1])["metrics"]
                for name in EXACT:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_area_total(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = result_of(bench(workload, 0)[1])["metrics"]
                second = result_of(bench(workload, 0)[1])["metrics"]
                self.assertEqual(first["area_total"]["value"],
                                 second["area_total"]["value"])


class BareDirectoryFails(unittest.TestCase):
    def test_without_program_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            status, lines = bench(WORKLOADS[0], 0, cwd=Path(bare))
        self.assertNotEqual(status, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
