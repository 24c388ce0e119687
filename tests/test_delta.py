"""Delta solves: the edit model, the stored bases, the strategies.

The parity contract -- every ``Engine.run_delta`` envelope is
canonical-byte identical to a cold solve of the edited problem -- is
asserted on every strategy the engine reports (``noop``, ``cache``,
``scratch``) and on its error envelopes.
"""

from __future__ import annotations

import json

import pytest

from repro.core.delta import (
    ConstraintEdit,
    DeadlineEdit,
    WordlengthEdit,
    apply_edits,
)
from repro.engine import (
    AllocationRequest,
    DeltaRequest,
    Engine,
    execute_request,
)
from repro.engine.engine import _base_key
from repro.experiments.common import build_case
from repro.io import (
    delta_request_from_dict,
    delta_request_to_dict,
    edit_from_dict,
    edit_to_dict,
)


def cold_canonical(problem, options=None):
    """Canonical bytes of an engine-free cold solve."""
    return execute_request(
        AllocationRequest(problem, "dpalloc", options=dict(options or {}))
    ).canonical_json()


def run_warm(engine, base, edits, options=None):
    """One delta that carries its base; returns (envelope, strategy)."""
    result = engine.run_delta(DeltaRequest(
        edits=tuple(edits), base_problem=base, options=dict(options or {})
    ))
    return result, (result.delta or {}).get("strategy")


# ----------------------------------------------------------------------
# the edit model
# ----------------------------------------------------------------------

class TestEditModel:
    def test_deadline_edit_applies(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        edited = apply_edits(problem, (DeadlineEdit(12),))
        assert edited.latency_constraint == 12
        assert edited.graph is problem.graph

    def test_wordlength_edit_rewrites_one_operation(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        edited = apply_edits(problem, (WordlengthEdit("a0", (8, 8)),))
        assert edited.graph.operation("a0").operand_widths == (8, 8)
        assert edited.graph.operation("m0").operand_widths == (8, 8)
        assert sorted(edited.graph.names) == sorted(problem.graph.names)
        assert list(edited.graph.edges()) == list(problem.graph.edges())

    def test_constraint_edit_sets_and_clears(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        limited = apply_edits(problem, (ConstraintEdit("mul", 2),))
        assert limited.resource_constraints == {"mul": 2}
        cleared = apply_edits(limited, (ConstraintEdit("mul", None),))
        # Empty constraints normalise to None so fingerprints don't fork.
        assert cleared.resource_constraints is None
        assert cleared.fingerprint() == problem.fingerprint()

    def test_edits_compose_in_order(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        edited = apply_edits(problem, (
            DeadlineEdit(20),
            DeadlineEdit(25),
            ConstraintEdit("add", 1),
        ))
        assert edited.latency_constraint == 25
        assert edited.resource_constraints == {"add": 1}

    def test_unknown_operation_raises_key_error(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        with pytest.raises(KeyError):
            apply_edits(problem, (WordlengthEdit("nope", (8, 8)),))

    def test_invalid_values_raise_value_error(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        with pytest.raises(ValueError):
            apply_edits(problem, (DeadlineEdit(0),))
        with pytest.raises(ValueError):
            apply_edits(problem, (WordlengthEdit("m0", (0, 8)),))
        with pytest.raises(ValueError):
            apply_edits(problem, (ConstraintEdit("mul", 0),))

    def test_non_edit_raises_type_error(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        with pytest.raises(TypeError):
            apply_edits(problem, ("latency=12",))  # type: ignore[arg-type]


class TestEditSerialization:
    @pytest.mark.parametrize("edit", [
        DeadlineEdit(17),
        WordlengthEdit("m0", (8, 12)),
        ConstraintEdit("mul", 3),
        ConstraintEdit("add", None),
    ])
    def test_round_trip(self, edit):
        assert edit_from_dict(edit_to_dict(edit)) == edit

    def test_bad_payloads_raise(self):
        with pytest.raises(ValueError):
            edit_from_dict({"kind": "datapath"})
        with pytest.raises(ValueError):
            edit_from_dict({"kind": "problem-edit", "edit": "rename"})

    def test_delta_request_round_trip(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        request = DeltaRequest(
            edits=(DeadlineEdit(12), ConstraintEdit("mul", 2)),
            base_problem=problem,
            options={"trace": True},
            label="warm",
        )
        clone = delta_request_from_dict(delta_request_to_dict(request))
        assert clone.edits == request.edits
        assert clone.options == {"trace": True}
        assert clone.label == "warm"
        assert clone.base_problem.fingerprint() == problem.fingerprint()

    def test_fingerprint_only_request_round_trip(self):
        request = DeltaRequest(
            edits=(DeadlineEdit(9),), base_fingerprint="abc123"
        )
        clone = delta_request_from_dict(delta_request_to_dict(request))
        assert clone.base_problem is None
        assert clone.base_fingerprint == "abc123"
        assert clone.fingerprint() == "abc123"

    def test_bad_delta_request_payloads_raise(self):
        with pytest.raises(ValueError):
            delta_request_from_dict({"kind": "allocation-request"})
        with pytest.raises(ValueError):
            delta_request_from_dict(
                {"kind": "delta-request", "edits": "latency=9"}
            )

    def test_request_needs_a_base(self):
        with pytest.raises(ValueError):
            DeltaRequest(edits=(DeadlineEdit(9),))


# ----------------------------------------------------------------------
# run_delta strategies, each asserted against the parity contract
# ----------------------------------------------------------------------

class TestRunDeltaStrategies:
    def test_priming_empty_edit_sequence_is_noop(self):
        problem = build_case(16, 3, 0.0).problem
        engine = Engine()
        result, strategy = run_warm(engine, problem, ())
        assert strategy == "noop"
        assert result.canonical_json() == cold_canonical(problem)

    def test_same_deadline_edit_is_noop(self):
        problem = build_case(16, 3, 0.0).problem
        engine = Engine()
        run_warm(engine, problem, ())
        result, strategy = run_warm(
            engine, problem, (DeadlineEdit(problem.latency_constraint),)
        )
        assert strategy == "noop"
        assert result.canonical_json() == cold_canonical(problem)

    @pytest.mark.parametrize("ops,sample,relax,deadline", [
        (12, 1, 0.3, 27),    # tightened; the base solve still meets it
        (16, 3, 0.2, None),  # relaxed by one step
        (16, 3, 0.0, 38),    # relaxed past a changed refinement choice
    ], ids=["tighten-to-27", "relax-by-one", "relax-to-38"])
    def test_deadline_edit_matches_cold(self, ops, sample, relax, deadline):
        problem = build_case(ops, sample, relax).problem
        if deadline is None:
            deadline = problem.latency_constraint + 1
        engine = Engine()
        run_warm(engine, problem, ())
        result, strategy = run_warm(engine, problem, (DeadlineEdit(deadline),))
        assert strategy == "scratch"
        edited = problem.with_latency_constraint(deadline)
        assert result.canonical_json() == cold_canonical(edited)

    def test_infeasible_tightening_matches_cold_error(self):
        problem = build_case(16, 3, 0.0).problem
        engine = Engine()
        run_warm(engine, problem, ())
        result, _ = run_warm(engine, problem, (DeadlineEdit(5),))
        assert result.error is not None
        assert result.error.startswith("infeasible")
        edited = problem.with_latency_constraint(5)
        assert result.canonical_json() == cold_canonical(edited)

    def test_wordlength_edit_falls_back_to_scratch(self):
        problem = build_case(16, 3, 0.0).problem
        name = problem.graph.names[0]
        arity = len(problem.graph.operation(name).operand_widths)
        edits = (WordlengthEdit(name, (6,) * arity),)
        engine = Engine()
        run_warm(engine, problem, ())
        result, strategy = run_warm(engine, problem, edits)
        assert strategy == "scratch"
        assert result.canonical_json() == cold_canonical(
            apply_edits(problem, edits)
        )

    def test_constraint_edit_falls_back_to_scratch(self):
        problem = build_case(16, 3, 0.2).problem
        edits = (ConstraintEdit("mul", 1),)
        engine = Engine()
        run_warm(engine, problem, ())
        result, strategy = run_warm(engine, problem, edits)
        assert strategy == "scratch"
        assert result.canonical_json() == cold_canonical(
            apply_edits(problem, edits)
        )

    def test_mode_best_requests_never_replay(self):
        problem = build_case(16, 3, 0.2).problem
        options = {"mode": "best"}
        engine = Engine()
        run_warm(engine, problem, (), options)
        lam = problem.latency_constraint
        result, strategy = run_warm(
            engine, problem, (DeadlineEdit(lam + 1),), options
        )
        assert strategy == "scratch"
        edited = problem.with_latency_constraint(lam + 1)
        assert result.canonical_json() == cold_canonical(edited, options)

    def test_chained_edits_name_the_edited_problem(self):
        # The engine stores a delta's *edited* problem too, so the next
        # step of a chain may name it by fingerprint alone.
        problem = build_case(16, 3, 0.2).problem
        lam = problem.latency_constraint
        engine = Engine()
        step1 = problem.with_latency_constraint(lam + 1)
        run_warm(engine, problem, (DeadlineEdit(lam + 1),))
        result = engine.run_delta(DeltaRequest(
            edits=(DeadlineEdit(lam + 2),),
            base_fingerprint=step1.fingerprint(),
        ))
        assert (result.delta or {}).get("strategy") == "scratch"
        edited = problem.with_latency_constraint(lam + 2)
        assert result.canonical_json() == cold_canonical(edited)

    def test_repeat_delta_hits_result_cache(self, tmp_path):
        problem = build_case(16, 3, 0.2).problem
        lam = problem.latency_constraint
        engine = Engine(cache_dir=tmp_path / "cache")
        run_warm(engine, problem, ())
        first, s1 = run_warm(engine, problem, (DeadlineEdit(lam + 1),))
        second, s2 = run_warm(engine, problem, (DeadlineEdit(lam + 1),))
        assert s1 == "scratch"
        assert s2 == "cache"
        assert second.cached
        assert first.canonical_json() == second.canonical_json()

    def test_missing_artifact_fingerprint_only_is_an_error(self):
        engine = Engine()
        result = engine.run_delta(DeltaRequest(
            edits=(DeadlineEdit(9),), base_fingerprint="deadbeef"
        ))
        assert (result.delta or {}).get("strategy") == "error"
        assert result.error is not None
        assert "no stored base problem deadbeef" in result.error
        assert result.datapath is None

    def test_bad_edit_is_an_error_envelope(self):
        problem = build_case(16, 3, 0.0).problem
        engine = Engine()
        result, strategy = run_warm(
            engine, problem, (WordlengthEdit("ghost", (8, 8)),)
        )
        assert strategy == "error"
        assert result.error is not None
        assert "KeyError" in result.error

    def test_delta_field_is_non_canonical_label_is_echoed(self):
        problem = build_case(16, 3, 0.2).problem
        lam = problem.latency_constraint
        engine = Engine()
        run_warm(engine, problem, ())
        result = engine.run_delta(DeltaRequest(
            edits=(DeadlineEdit(lam + 1),),
            base_problem=problem,
            label="tagged",
        ))
        assert result.label == "tagged"
        assert result.delta == {
            "base_fingerprint": problem.fingerprint(),
            "edits": 1,
            "strategy": "scratch",
        }
        payload = json.loads(result.canonical_json())
        assert "delta" not in payload
        # Labels are canonical (a cold solve carries them too): parity
        # holds against a cold request with the same label.
        edited = problem.with_latency_constraint(lam + 1)
        cold = execute_request(
            AllocationRequest(edited, "dpalloc", label="tagged")
        )
        assert result.canonical_json() == cold.canonical_json()

    def test_stored_bases_survive_engine_restart(self, tmp_path):
        problem = build_case(16, 3, 0.2).problem
        lam = problem.latency_constraint
        Engine(cache_dir=tmp_path / "cache").run_delta(
            DeltaRequest(edits=(), base_problem=problem)
        )
        fresh = Engine(cache_dir=tmp_path / "cache")
        result = fresh.run_delta(DeltaRequest(
            edits=(DeadlineEdit(lam + 1),),
            base_fingerprint=problem.fingerprint(),
        ))
        assert (result.delta or {}).get("strategy") == "scratch"
        edited = problem.with_latency_constraint(lam + 1)
        assert result.canonical_json() == cold_canonical(edited)


class TestDeltaRunsLikeAnAllocation:
    def test_executor_and_stored_bases(self, tmp_path):
        # A delta is a run of the edited problem: under the process
        # executor it solves in a killable worker process, like any
        # fresh allocation.
        problem = build_case(16, 3, 0.2).problem
        lam = problem.latency_constraint
        edited = problem.with_latency_constraint(lam + 1)
        engine = Engine(executor="process")
        run_warm(engine, problem, ())
        started = engine.executor_stats_snapshot().get("started", 0)
        # Fingerprint-only, after priming, without a cache_dir.
        result = engine.run_delta(DeltaRequest(
            edits=(DeadlineEdit(lam + 1),),
            base_fingerprint=problem.fingerprint(),
        ))
        assert engine.executor_stats_snapshot()["started"] == started + 1
        assert (result.delta or {}).get("strategy") == "scratch"
        assert result.canonical_json() == cold_canonical(edited)

        # With a cache_dir, the stored base outlives the engine.
        cache = tmp_path / "cache"
        Engine(cache_dir=cache).run_delta(
            DeltaRequest(edits=(), base_problem=problem)
        )
        restarted = Engine(cache_dir=cache, executor="process")
        again = restarted.run_delta(DeltaRequest(
            edits=(DeadlineEdit(lam + 1),),
            base_fingerprint=problem.fingerprint(),
        ))
        assert restarted.executor_stats_snapshot()["started"] == 1
        assert again.canonical_json() == cold_canonical(edited)


# ----------------------------------------------------------------------
# the stored base in the result cache: anything unusable under its key
# reads as a miss, never a crash
# ----------------------------------------------------------------------

class TestArtifactVersioning:
    def _stored(self, tmp_path):
        problem = build_case(16, 3, 0.2).problem
        engine = Engine(cache_dir=tmp_path / "cache")
        engine.run_delta(DeltaRequest(edits=(), base_problem=problem))
        key = _base_key(problem.fingerprint())
        assert engine._cache is not None
        assert engine._cache.read(key) is not None
        return problem, engine, key

    def _fingerprint_only(self, engine, problem):
        return engine.run_delta(DeltaRequest(
            edits=(DeadlineEdit(problem.latency_constraint + 1),),
            base_fingerprint=problem.fingerprint(),
        ))

    def _assert_miss_then_recovers(self, problem, tmp_path, key, poison):
        fresh = Engine(cache_dir=tmp_path / "cache")
        fresh._cache.write(key, poison, version="0.0.1")
        missed = self._fingerprint_only(fresh, problem)
        assert (missed.delta or {}).get("strategy") == "error"
        assert "no stored base problem" in missed.error
        # The unusable entry was invalidated, not left to re-parse.
        assert fresh._cache.read(key) is None
        # A delta that carries the base stores it again.
        lam = problem.latency_constraint
        run_warm(fresh, problem, (DeadlineEdit(lam + 1),))
        result = self._fingerprint_only(Engine(cache_dir=tmp_path / "cache"), problem)
        edited = problem.with_latency_constraint(lam + 1)
        assert result.canonical_json() == cold_canonical(edited)

    def test_old_schema_entry_reads_as_miss(self, tmp_path):
        # A problem payload without a field today's loader needs.
        problem, engine, key = self._stored(tmp_path)
        old = json.loads(engine._cache.read(key))
        assert old["kind"] == "problem"
        del old["latency_constraint"]
        self._assert_miss_then_recovers(problem, tmp_path, key, json.dumps(old))

    def test_wrong_kind_entry_reads_as_miss(self, tmp_path):
        problem, _, key = self._stored(tmp_path)
        self._assert_miss_then_recovers(problem, tmp_path, key, json.dumps(
            {"kind": "allocation-result", "allocator": "dpalloc"}
        ))

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        problem, _, key = self._stored(tmp_path)
        self._assert_miss_then_recovers(problem, tmp_path, key, "{not json")

    def test_old_version_manifest_entry_is_tolerated(self, tmp_path):
        # Entries written by an older package version share the
        # manifest; loading them must be a version-keyed miss, not a
        # crash, and must not disturb newer entries.
        problem, engine, _ = self._stored(tmp_path)
        engine._cache.write(
            "0" * 64, json.dumps({"kind": "problem"}), version="0.0.1"
        )
        engine._cache.flush()
        fresh = Engine(cache_dir=tmp_path / "cache")
        assert fresh._cache.read("0" * 64) == json.dumps({"kind": "problem"})
        # The good entry next to it still serves.
        result = self._fingerprint_only(fresh, problem)
        assert (result.delta or {}).get("strategy") == "scratch"
        edited = problem.with_latency_constraint(
            problem.latency_constraint + 1
        )
        assert result.canonical_json() == cold_canonical(edited)
