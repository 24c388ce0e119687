"""Tests for the CI benchmark regression gate (tools/check_bench.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    Path(__file__).resolve().parent.parent / "tools" / "check_bench.py",
)
check_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(check_bench)


def engine_report(**overrides):
    report = {
        "kind": "bench-engine",
        "cases": 9,
        "results_identical": True,
        "cache": {"hit_speedup": 1500.0},
    }
    report.update(overrides)
    return report


def solver_report(refinement_speedup=1.8, binding_speedup=2.6,
                  iterations=(50, 60), identical=True):
    return {
        "kind": "bench-solver",
        "results_identical": identical,
        "workloads": [
            {
                "name": "refinement-heavy",
                "speedup": refinement_speedup,
                "cases": [
                    {"label": "tgff-48-0", "iterations": iterations[0]},
                ],
            },
            {
                "name": "binding-heavy",
                "speedup": binding_speedup,
                "cases": [
                    {"label": "tgff-128-0", "iterations": iterations[1]},
                ],
            },
        ],
    }


def micro_report(chain_speedup=2.5, cover_speedup=30.0,
                 tracker_speedup=2.2, identical=True):
    return {
        "kind": "bench-micro",
        "results_identical": identical,
        "kernels": [
            {"name": "max_chain", "speedup": chain_speedup},
            {"name": "cover_probe", "speedup": cover_speedup},
            {"name": "tracker_ops", "speedup": tracker_speedup},
        ],
    }


def delta_report(speedup=3.5, iterations=(40, 50), identical=True,
                 parity_failures=()):
    return {
        "kind": "bench-delta",
        "results_identical": identical,
        "parity_failures": list(parity_failures),
        "workloads": [
            {
                "name": "refinement-heavy",
                "speedup": speedup,
                "cases": [
                    {"label": "tgff-48-0", "iterations": iterations[0]},
                    {"label": "tgff-64-0", "iterations": iterations[1]},
                ],
            },
        ],
    }


@pytest.fixture
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    fresh = tmp_path / "fresh"
    baseline.mkdir()
    fresh.mkdir()
    return baseline, fresh


def write(directory, name, report):
    (directory / f"BENCH_{name}.json").write_text(json.dumps(report))


def write_all(baseline, fresh, fresh_solver=None, fresh_engine=None,
              fresh_micro=None, fresh_delta=None):
    write(baseline, "engine", engine_report())
    write(baseline, "solver", solver_report())
    write(baseline, "micro", micro_report())
    write(baseline, "delta", delta_report())
    write(fresh, "engine", fresh_engine or engine_report())
    write(fresh, "solver", fresh_solver or solver_report())
    write(fresh, "micro", fresh_micro or micro_report())
    write(fresh, "delta", fresh_delta or delta_report())


def run(baseline, fresh, *extra):
    return check_bench.main([
        "--baseline-dir", str(baseline), "--fresh-dir", str(fresh), *extra,
    ])


class TestGatePasses:
    def test_identical_reports_pass(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(baseline, fresh)
        assert run(baseline, fresh) == 0
        assert "4 reports within the gate" in capsys.readouterr().out

    def test_faster_than_baseline_passes(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(
            baseline, fresh,
            fresh_solver=solver_report(refinement_speedup=3.5),
            fresh_micro=micro_report(chain_speedup=5.0),
        )
        assert run(baseline, fresh) == 0

    def test_fresh_subset_of_baseline_cases_passes(self, dirs):
        """CI smoke runs fewer samples; only shared labels are compared."""
        baseline, fresh = dirs
        big = solver_report()
        big["workloads"][0]["cases"].append(
            {"label": "tgff-96-1", "iterations": 131}
        )
        write_all(baseline, fresh)
        write(baseline, "solver", big)  # fresh lacks tgff-96-1
        assert run(*dirs) == 0

    def test_new_fresh_case_is_not_a_failure(self, dirs):
        baseline, fresh = dirs
        extra = solver_report()
        extra["workloads"][1]["cases"].append(
            {"label": "tgff-160-0", "iterations": 999}
        )
        write_all(baseline, fresh, fresh_solver=extra)
        assert run(baseline, fresh) == 0


class TestGateFails:
    def test_family_slower_than_scratch_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(
            baseline, fresh,
            fresh_solver=solver_report(refinement_speedup=0.9),
        )
        assert run(baseline, fresh) == 1
        out = capsys.readouterr()
        assert "[FAIL] solver.refinement-heavy.speedup" in out.out
        assert "REGRESSED" in out.err

    def test_family_regressing_past_tolerance_fails(self, dirs, capsys):
        baseline, fresh = dirs
        # 2.6 -> 1.2 is a >50% drop: above the 1.0 hard floor but past
        # the default 45% tolerance band.
        write_all(
            baseline, fresh,
            fresh_solver=solver_report(binding_speedup=1.2),
        )
        assert run(baseline, fresh) == 1
        assert "[FAIL] solver.binding-heavy.speedup" in capsys.readouterr().out

    def test_tolerance_flag_loosens_the_band(self, dirs):
        baseline, fresh = dirs
        write_all(
            baseline, fresh,
            fresh_solver=solver_report(binding_speedup=1.2),
        )
        assert run(baseline, fresh, "--tolerance", "0.99") == 0

    def test_iteration_drift_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(
            baseline, fresh,
            fresh_solver=solver_report(iterations=(51, 60)),
        )
        assert run(baseline, fresh) == 1
        out = capsys.readouterr().out
        assert "[FAIL] solver.iteration_parity" in out
        assert "tgff-48-0: 50 -> 51" in out

    def test_results_not_identical_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(
            baseline, fresh,
            fresh_engine=engine_report(results_identical=False),
        )
        assert run(baseline, fresh) == 1
        assert "[FAIL] engine.results_identical" in capsys.readouterr().out

    def test_cache_hit_floor_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(
            baseline, fresh,
            fresh_engine=engine_report(cache={"hit_speedup": 3.0}),
        )
        assert run(baseline, fresh) == 1
        assert "[FAIL] engine.cache_hit_speedup" in capsys.readouterr().out

    def test_missing_fresh_report_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(baseline, fresh)
        (fresh / "BENCH_solver.json").unlink()
        assert run(baseline, fresh) == 1
        assert "[FAIL] solver.reports" in capsys.readouterr().out

    def test_missing_family_fails(self, dirs, capsys):
        baseline, fresh = dirs
        small = solver_report()
        small["workloads"] = small["workloads"][:1]
        write_all(baseline, fresh, fresh_solver=small)
        assert run(baseline, fresh) == 1
        assert "[FAIL] solver.binding-heavy" in capsys.readouterr().out

    def test_wrong_kind_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(baseline, fresh)
        write(fresh, "engine", {"kind": "bench-solver"})
        assert run(baseline, fresh) == 1
        assert "[FAIL] engine.reports" in capsys.readouterr().out

    def test_zero_label_overlap_is_not_vacuous_parity(self, dirs, capsys):
        """Renaming every benchmark case must not slip past the gate
        as '0 labels compared, none drifted'."""
        baseline, fresh = dirs
        renamed = solver_report()
        for family in renamed["workloads"]:
            for case in family["cases"]:
                case["label"] = "renamed-" + case["label"]
        write_all(baseline, fresh, fresh_solver=renamed)
        assert run(baseline, fresh) == 1
        assert "[FAIL] solver.iteration_parity" in capsys.readouterr().out

    def test_new_fresh_family_still_gets_the_hard_floor(self, dirs, capsys):
        """A family added to the bench before its baseline is committed
        must not dodge the 'incremental never loses to scratch' floor."""
        baseline, fresh = dirs
        extra = solver_report()
        extra["workloads"].append({
            "name": "memory-heavy", "speedup": 0.7,
            "cases": [{"label": "tgff-256-0", "iterations": 10}],
        })
        write_all(baseline, fresh, fresh_solver=extra)
        assert run(baseline, fresh) == 1
        out = capsys.readouterr().out
        assert "[FAIL] solver.memory-heavy.speedup" in out
        assert "no committed baseline" in out
        # ... and a healthy new family passes with the same note
        extra["workloads"][-1]["speedup"] = 1.4
        write(fresh, "solver", extra)
        assert run(baseline, fresh) == 0

    def test_partial_coverage_is_noted_not_failed(self, dirs, capsys):
        baseline, fresh = dirs
        big = solver_report()
        big["workloads"][0]["cases"].append(
            {"label": "tgff-96-1", "iterations": 131}
        )
        write_all(baseline, fresh)
        write(baseline, "solver", big)
        assert run(baseline, fresh) == 0
        out = capsys.readouterr().out
        assert "1 of 3 committed case labels not in the fresh report" in out


class TestMicroGate:
    def test_kernel_slower_than_reference_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(
            baseline, fresh,
            fresh_micro=micro_report(chain_speedup=0.9),
        )
        assert run(baseline, fresh) == 1
        assert "[FAIL] micro.max_chain.speedup" in capsys.readouterr().out

    def test_kernel_regressing_past_tolerance_fails(self, dirs, capsys):
        baseline, fresh = dirs
        # 30x -> 2x is a >90% drop: above the 1.0 hard floor but far
        # past the default 45% tolerance band.
        write_all(
            baseline, fresh,
            fresh_micro=micro_report(cover_speedup=2.0),
        )
        assert run(baseline, fresh) == 1
        assert "[FAIL] micro.cover_probe.speedup" in capsys.readouterr().out

    def test_kernel_outputs_diverging_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(
            baseline, fresh,
            fresh_micro=micro_report(identical=False),
        )
        assert run(baseline, fresh) == 1
        assert "[FAIL] micro.results_identical" in capsys.readouterr().out

    def test_missing_kernel_fails(self, dirs, capsys):
        baseline, fresh = dirs
        dropped = micro_report()
        dropped["kernels"] = dropped["kernels"][:2]  # lacks tracker_ops
        write_all(baseline, fresh, fresh_micro=dropped)
        assert run(baseline, fresh) == 1
        assert "[FAIL] micro.tracker_ops" in capsys.readouterr().out

    def test_new_kernel_still_gets_the_hard_floor(self, dirs, capsys):
        baseline, fresh = dirs
        extra = micro_report()
        extra["kernels"].append({"name": "wedge_probe", "speedup": 0.8})
        write_all(baseline, fresh, fresh_micro=extra)
        assert run(baseline, fresh) == 1
        out = capsys.readouterr().out
        assert "[FAIL] micro.wedge_probe.speedup" in out
        assert "no committed baseline" in out
        # ... and a healthy new kernel passes with the same note
        extra["kernels"][-1]["speedup"] = 1.3
        write(fresh, "micro", extra)
        assert run(baseline, fresh) == 0

    def test_min_kernel_ratio_flag_raises_the_floor(self, dirs):
        baseline, fresh = dirs
        write_all(
            baseline, fresh,
            fresh_micro=micro_report(tracker_speedup=1.6),
        )
        assert run(baseline, fresh, "--min-kernel-ratio", "1.5") == 0
        assert run(baseline, fresh, "--min-kernel-ratio", "1.7") == 1


class TestDeltaGate:
    def test_parity_break_fails_with_repro_path(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(
            baseline, fresh,
            fresh_delta=delta_report(
                identical=False,
                parity_failures=[
                    {"label": "tgff-48-0",
                     "repro": "delta-parity-repro-tgff-48-0.json"},
                ],
            ),
        )
        assert run(baseline, fresh) == 1
        out = capsys.readouterr().out
        assert "[FAIL] delta.results_identical" in out
        assert "delta-parity-repro-tgff-48-0.json" in out

    def test_warm_speedup_below_hard_floor_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(
            baseline, fresh, fresh_delta=delta_report(speedup=1.5)
        )
        assert run(baseline, fresh) == 1
        assert "[FAIL] delta.refinement-heavy.speedup" in \
            capsys.readouterr().out

    def test_regression_past_tolerance_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write(baseline, "delta", delta_report(speedup=20.0))
        write(fresh, "delta", delta_report(speedup=5.0))
        assert check_bench.main([
            "--baseline-delta", str(baseline / "BENCH_delta.json"),
            "--fresh-delta", str(fresh / "BENCH_delta.json"),
        ]) == 1
        assert "[FAIL] delta.refinement-heavy.speedup" in \
            capsys.readouterr().out

    def test_iteration_drift_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(
            baseline, fresh,
            fresh_delta=delta_report(iterations=(40, 51)),
        )
        assert run(baseline, fresh) == 1
        out = capsys.readouterr().out
        assert "[FAIL] delta.iteration_parity" in out
        assert "tgff-64-0: 50 -> 51" in out

    def test_min_delta_ratio_flag_raises_the_floor(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(baseline, fresh)  # 3.5x on both sides
        assert run(baseline, fresh, "--min-delta-ratio", "4.0") == 1
        assert "[FAIL] delta.refinement-heavy.speedup" in \
            capsys.readouterr().out

    def test_missing_family_fails(self, dirs, capsys):
        baseline, fresh = dirs
        empty = delta_report()
        empty["workloads"] = []
        write_all(baseline, fresh, fresh_delta=empty)
        assert run(baseline, fresh) == 1
        assert "[FAIL] delta.refinement-heavy" in capsys.readouterr().out


class TestCliShapes:
    def test_no_paths_is_usage_error(self, capsys):
        assert check_bench.main([]) == 2
        assert "nothing to compare" in capsys.readouterr().err

    def test_explicit_paths_override_dirs(self, dirs, capsys):
        baseline, fresh = dirs
        write_all(baseline, fresh)
        bad = fresh / "bad_engine.json"
        bad.write_text(json.dumps(engine_report(results_identical=False)))
        assert check_bench.main([
            "--baseline-dir", str(baseline), "--fresh-dir", str(fresh),
            "--fresh-engine", str(bad),
        ]) == 1
        assert "[FAIL] engine.results_identical" in capsys.readouterr().out

    def test_committed_baselines_pass_against_themselves(self, capsys):
        repo = Path(__file__).resolve().parent.parent
        assert check_bench.main([
            "--baseline-dir", str(repo), "--fresh-dir", str(repo),
        ]) == 0
        assert "4 reports within the gate" in capsys.readouterr().out
