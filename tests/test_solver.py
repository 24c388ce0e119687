"""Tests for the incremental pass-pipeline solver core."""

from __future__ import annotations

import json
import re

import pytest

from repro import (
    AllocationRequest,
    DPAllocOptions,
    Engine,
    InfeasibleError,
    Problem,
    TraceEvent,
    allocate,
    run_pipeline,
    validate_datapath,
)
from repro.core.solver import (
    SOLVER_ENV,
    SOLVER_MODES,
    resolve_solver_mode,
)
from repro.core.wcg import WordlengthCompatibilityGraph
from repro.core.scheduling import list_schedule_outcome
from repro.experiments import build_case
from repro.gen.workloads import fir_filter, motivational_example
from repro.io.json_io import datapath_to_dict
from tests.conftest import make_problem


TELEMETRY_KEYS = ("pass_ms", "cache_hits", "cache_misses", "cache_evicted")


def canonical(datapath) -> str:
    payload = datapath_to_dict(datapath)
    # Telemetry rides the JSON payload (it must survive the service
    # wire) but is wall-clock noise: canonical comparisons drop it,
    # exactly like AllocationResult.canonical_json().
    for event in payload.get("trace") or ():
        for key in TELEMETRY_KEYS:
            event.pop(key, None)
    return json.dumps(payload, sort_keys=True)


class TestSolverModeResolution:
    def test_default_is_incremental(self, monkeypatch):
        monkeypatch.delenv(SOLVER_ENV, raising=False)
        assert resolve_solver_mode() == "incremental"

    def test_env_selects_scratch(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV, "scratch")
        assert resolve_solver_mode() == "scratch"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV, "scratch")
        assert resolve_solver_mode("incremental") == "incremental"

    def test_unknown_mode_rejected(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV, "warp")
        with pytest.raises(ValueError, match="warp"):
            resolve_solver_mode()
        assert set(SOLVER_MODES) == {"incremental", "scratch"}


class TestScratchIncrementalParity:
    """Byte-identical canonical results for both recomputation modes."""

    OPTION_SETS = (
        DPAllocOptions(),
        DPAllocOptions(mode="asap"),
        DPAllocOptions(constraint="eqn2"),
        DPAllocOptions(selector="name-order"),
        DPAllocOptions(blind_refinement=True),
        DPAllocOptions(grow=False, shrink=False),
        DPAllocOptions(trace=True),
    )

    def assert_parity(self, problem, options):
        try:
            incremental = run_pipeline(problem, options, mode="incremental")
        except InfeasibleError as exc:
            with pytest.raises(InfeasibleError, match=f"^{re.escape(str(exc))}$"):
                run_pipeline(problem, options, mode="scratch")
            return
        scratch = run_pipeline(problem, options, mode="scratch")
        assert canonical(incremental) == canonical(scratch)
        assert incremental.trace == scratch.trace
        assert incremental.refinements == scratch.refinements

    @pytest.mark.parametrize("relaxation", [0.0, 0.1, 0.5, 2.0])
    def test_named_workloads(self, relaxation):
        for graph in (motivational_example(), fir_filter(taps=4)):
            problem = make_problem(graph, relaxation)
            for options in self.OPTION_SETS:
                self.assert_parity(problem, options)

    @pytest.mark.parametrize("num_ops", [6, 12, 20])
    @pytest.mark.parametrize("relaxation", [0.0, 0.2])
    def test_tgff_grid(self, num_ops, relaxation):
        for sample in range(3):
            problem = build_case(num_ops, sample, relaxation).problem
            for options in self.OPTION_SETS:
                self.assert_parity(problem, options)

    def test_user_resource_constraints(self, parallel_muls_graph):
        base = make_problem(parallel_muls_graph, relaxation=4.0)
        problem = Problem(
            base.graph,
            latency_constraint=base.latency_constraint,
            resource_constraints={"mul": 2},
        )
        for options in self.OPTION_SETS:
            self.assert_parity(problem, options)

    def test_env_hatch_drives_engine_runs(self, monkeypatch):
        problem = build_case(12, 0, 0.0).problem
        request = AllocationRequest(problem, "dpalloc")
        monkeypatch.delenv(SOLVER_ENV, raising=False)
        incremental = Engine().run(request)
        monkeypatch.setenv(SOLVER_ENV, "scratch")
        scratch = Engine().run(request)
        assert incremental.canonical_json() == scratch.canonical_json()

    def test_experiment_parity_module(self):
        from repro.experiments import parity

        report = parity.run(samples=1)
        assert report["mismatches"] == []
        assert report["identical"] == report["requests"] > 0


class TestPipelineIsTheAllocator:
    def test_allocate_delegates_to_pipeline(self, diamond_graph):
        problem = make_problem(diamond_graph, relaxation=0.1)
        assert canonical(allocate(problem)) == canonical(run_pipeline(problem))

    def test_empty_graph(self):
        from repro.ir.seqgraph import SequencingGraph

        datapath = run_pipeline(Problem(SequencingGraph(), latency_constraint=1))
        assert datapath.makespan == 0 and datapath.iterations == 0

    def test_best_is_meta_mode_only(self, diamond_graph):
        problem = make_problem(diamond_graph, relaxation=0.1)
        with pytest.raises(ValueError, match="meta-mode"):
            run_pipeline(problem, DPAllocOptions(mode="best"))


class TestIterationTrace:
    def test_trace_off_by_default(self, diamond_graph):
        problem = make_problem(diamond_graph, relaxation=0.0)
        assert allocate(problem).trace == ()

    def test_trace_shape(self):
        problem = make_problem(motivational_example(), relaxation=0.0)
        datapath = allocate(problem, DPAllocOptions(trace=True))
        trace = datapath.trace
        assert len(trace) == datapath.iterations
        assert [e.iteration for e in trace] == list(range(1, len(trace) + 1))
        assert all(isinstance(e, TraceEvent) for e in trace)
        assert trace[-1].move == "accept"
        assert trace[-1].makespan == datapath.makespan
        assert trace[-1].area == pytest.approx(datapath.area)
        assert all(e.move in ("refine", "bump", "accept") for e in trace)
        refines = [e for e in trace if e.move == "refine"]
        assert [e.target for e in refines] == [
            step.operation for step in datapath.refinements
        ]
        assert all(e.scheduling_set_size >= 1 for e in trace)

    def test_trace_records_bumps(self, parallel_muls_graph):
        # Identical parallel ops under a tight constraint force unit
        # duplication (the bump move).
        g = parallel_muls_graph
        problem = make_problem(g, relaxation=0.0)
        datapath = allocate(problem, DPAllocOptions(trace=True))
        if any(e.move == "bump" for e in datapath.trace):
            bump = next(e for e in datapath.trace if e.move == "bump")
            assert bump.target in {"mul", "add"}
            assert bump.pool is None

    def test_trace_flows_through_engine(self):
        problem = make_problem(motivational_example(), relaxation=0.0)
        result = Engine().run(
            AllocationRequest(problem, "dpalloc", options={"trace": True})
        )
        assert result.ok
        assert result.trace and result.trace[-1].move == "accept"
        assert result.extras["trace_events"] == len(result.trace)

    def test_untraced_result_has_empty_trace(self):
        problem = make_problem(motivational_example(), relaxation=0.0)
        result = Engine().run(AllocationRequest(problem, "dpalloc"))
        assert result.trace == ()

    def test_trace_survives_cache_round_trip(self, tmp_path):
        problem = make_problem(motivational_example(), relaxation=0.0)
        request = AllocationRequest(problem, "dpalloc", options={"trace": True})
        engine = Engine(cache_dir=tmp_path / "cache")
        fresh = engine.run(request)
        cached = engine.run(request)
        assert cached.cached
        assert cached.trace == fresh.trace
        assert cached.canonical_json() == fresh.canonical_json()


class TestIncrementalSchedulingPrimitives:
    def test_kind_cover_decomposition_matches_union(self):
        problem = build_case(18, 1, 0.1).problem
        wcg = WordlengthCompatibilityGraph(
            problem.graph.operations,
            problem.resource_set(),
            problem.latency_model,
        )
        merged = []
        for kind in wcg.kinds():
            cover = wcg.kind_cover(kind)
            assert all(r.kind == kind for r in cover)
            merged.extend(cover)
        assert tuple(sorted(merged)) == wcg.scheduling_set()

    def test_reverse_index_tracks_refinement(self):
        problem = build_case(10, 0, 0.0).problem
        wcg = WordlengthCompatibilityGraph(
            problem.graph.operations,
            problem.resource_set(),
            problem.latency_model,
        )
        name = next(n for n in problem.graph.names if wcg.can_refine(n))
        before = {r: wcg.ops_for_resource(r) for r in wcg.resources}
        victims = wcg.refine(name)
        for resource in victims:
            assert name not in wcg.ops_for_resource(resource)
            assert name in before[resource]
        # Untouched resources keep identical (cached) neighbourhoods.
        for resource in wcg.resources:
            if resource not in victims:
                assert wcg.ops_for_resource(resource) == before[resource]

    def test_legacy_list_schedule_unchanged(self):
        problem = build_case(12, 0, 0.1).problem
        wcg = WordlengthCompatibilityGraph(
            problem.graph.operations,
            problem.resource_set(),
            problem.latency_model,
        )
        bounds = wcg.upper_bound_latencies()
        starts = list_schedule_outcome(problem.graph, wcg, bounds)
        assert starts == problem.graph.asap(bounds)


class TestSolverValidity:
    """The pipeline's datapaths stay valid in both modes."""

    @pytest.mark.parametrize("mode", ["incremental", "scratch"])
    def test_validated(self, mode):
        for num_ops, sample in ((8, 0), (16, 1), (24, 2)):
            problem = build_case(num_ops, sample, 0.1).problem
            datapath = run_pipeline(problem, mode=mode)
            validate_datapath(problem, datapath)


class TestIncrementalReuseState:
    """The bind pass's reuse machinery actually engages on real solves."""

    def _drive(self, incremental: bool):
        from repro.core.solver import PIPELINE, _REFINE, SolverState

        problem = build_case(24, 0, 0.0).problem
        state = SolverState(problem, DPAllocOptions(), incremental=incremental)
        while True:
            state.iteration += 1
            for stage in PIPELINE:
                stage.run(state)
            if state.feasible:
                state.record_accept()
                return state
            _REFINE.run(state)

    def test_chain_cache_hits_on_multi_iteration_solve(self):
        state = self._drive(incremental=True)
        assert state.iteration > 1
        assert state.chain_cache is not None
        assert state.chain_cache.hits > 0
        # Refinements move only a cone of the schedule; most chains survive.
        assert state.chain_cache.hits > state.chain_cache.evicted

    def test_scratch_state_owns_no_reuse_state(self):
        state = self._drive(incremental=False)
        assert state.chain_cache is None

    def test_blind_refinement_skips_bound_path(self, monkeypatch):
        from repro.core import refinement, solver
        from repro.core.solver import PIPELINE, _REFINE, SolverState

        calls = []

        def counting(*args):
            calls.append(args)
            return set()

        monkeypatch.setattr(refinement, "bound_critical_path", counting)
        monkeypatch.setattr(solver, "bound_critical_path", counting)
        problem = build_case(12, 0, 0.0).problem
        options = DPAllocOptions(blind_refinement=True)
        state = SolverState(problem, options, incremental=True)
        while True:
            state.iteration += 1
            for stage in PIPELINE:
                stage.run(state)
            if state.feasible:
                break
            _REFINE.run(state)
        assert state.iteration > 1
        assert calls == []


class TestTraceTelemetry:
    """Per-pass wall time and ChainCache counters ride on TraceEvent.

    Telemetry fields are ``compare=False`` and serialized only as
    payload extras: the parity contract (incremental.trace ==
    scratch.trace, byte-identical canonical JSON) must not see
    wall-clock noise, while the service wire must still carry it
    (``AllocationResult.canonical_dict()`` strips it envelope-side).
    """

    def _traced(self, mode):
        problem = make_problem(fir_filter(5))
        return run_pipeline(problem, DPAllocOptions(trace=True), mode=mode)

    def test_incremental_trace_carries_perf_and_cache_counters(self):
        datapath = self._traced("incremental")
        assert datapath.trace
        last = datapath.trace[-1]
        assert last.pass_ms is not None
        assert {"bounds", "schedule", "bind", "check"} <= set(last.pass_ms)
        assert all(ms >= 0.0 for ms in last.pass_ms.values())
        assert last.cache_hits is not None and last.cache_hits >= 0
        assert last.cache_misses is not None and last.cache_misses >= 0
        assert last.cache_evicted is not None and last.cache_evicted >= 0

    def test_scratch_trace_has_timings_but_no_cache_counters(self):
        datapath = self._traced("scratch")
        last = datapath.trace[-1]
        assert last.pass_ms is not None
        assert last.cache_hits is None  # no ChainCache in scratch mode

    def test_telemetry_is_excluded_from_equality_and_canonical_json(self):
        from dataclasses import replace

        from repro.io.json_io import trace_event_to_dict

        datapath = self._traced("incremental")
        last = datapath.trace[-1]
        stripped = replace(
            last,
            pass_ms=None,
            cache_hits=None,
            cache_misses=None,
            cache_evicted=None,
        )
        assert stripped == last  # compare=False: equality ignores telemetry
        # Serialisation keeps the telemetry (it must survive the service
        # wire) -- the canonical paths strip it instead.
        payload = trace_event_to_dict(last)
        assert "pass_ms" in payload
        assert "cache_hits" in payload
        assert canonical(datapath) == canonical(
            replace(datapath, trace=tuple(
                replace(
                    event,
                    pass_ms=None,
                    cache_hits=None,
                    cache_misses=None,
                    cache_evicted=None,
                )
                for event in datapath.trace
            ))
        )

    def test_trace_report_renders_telemetry_columns(self):
        from repro.analysis.reporting import format_trace

        datapath = self._traced("incremental")
        rendered = format_trace(datapath.trace)
        assert "cache h/m/e" in rendered
        assert "ms" in rendered
