"""Fixed-seed differential fuzz corpus: incremental vs scratch solves.

Drives the library API of ``tools/fuzz_delta.py`` on a committed seed:
the corpus must produce zero parity failures and reach both scheduling
modes.  CI additionally runs a 40-problem corpus through the tool's
CLI.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "fuzz_delta",
    Path(__file__).resolve().parent.parent / "tools" / "fuzz_delta.py",
)
fuzz_delta = importlib.util.module_from_spec(SPEC)
# Registered before exec: the module's dataclasses resolve their (PEP
# 563 stringified) field types through sys.modules at class creation.
sys.modules.setdefault("fuzz_delta", fuzz_delta)
SPEC.loader.exec_module(fuzz_delta)

CORPUS_SEED = 2001


class TestWithinSolveCorpus:
    def test_incremental_matches_scratch(self):
        report = fuzz_delta.run_within_solve_fuzz(CORPUS_SEED, 15)
        assert report.ok, report.summary()
        assert report.steps == 15
        # Both scheduling modes must appear, or the sweep lost breadth.
        assert report.strategies.get("mode=min-units", 0) >= 1
        assert report.strategies.get("mode=asap", 0) >= 1


class TestGenerators:
    def test_random_problem_is_seed_deterministic(self):
        a = fuzz_delta.random_problem(random.Random(3))
        b = fuzz_delta.random_problem(random.Random(3))
        assert a.fingerprint() == b.fingerprint()


class TestFailureMachinery:
    def test_repro_rejects_foreign_payloads(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"kind": "datapath"}))
        with pytest.raises(ValueError):
            fuzz_delta.run_repro_file(path)

    def test_mismatch_is_written_to_a_repro_file(self, tmp_path, monkeypatch):
        # Force the differential check to disagree: the harness must
        # report the failure and persist a file that replays it.
        monkeypatch.setattr(
            fuzz_delta, "_within_solve_mismatch", lambda *a: "forced"
        )
        report = fuzz_delta.run_within_solve_fuzz(
            CORPUS_SEED, 1, out_dir=tmp_path, max_ops=8
        )
        assert not report.ok
        (failure,) = report.failures
        assert failure.detail == "forced"
        payload = json.loads(Path(failure.repro_path).read_text())
        assert payload["kind"] == fuzz_delta.REPRO_KIND
        assert fuzz_delta.run_repro_file(Path(failure.repro_path)) == "forced"

    def test_within_solve_repro_round_trip(self, tmp_path):
        rng = random.Random(13)
        problem = fuzz_delta.random_problem(rng, max_ops=10)
        path = fuzz_delta.write_repro_file(
            tmp_path, "ws.json", seed=13,
            problem=problem, options={"mode": "asap", "trace": True},
        )
        assert fuzz_delta.run_repro_file(path) is None
