"""Golden solves and kernel-oracle agreement (deterministic, no timing).

* **Solver goldens** -- five TGFF cases of perfbench's workload
  families: ``refinement-heavy`` (48-96 ops at lambda_min) and
  ``binding-heavy`` (128-160 ops at 1.05 lambda_min).  Each pins the
  iteration count, the area and the sha256 of the datapath's canonical
  JSON.  The digests are the same in both ``REPRO_SOLVER`` modes, so
  running this file under ``REPRO_SOLVER=scratch`` checks incremental
  == scratch on graphs larger than the parity sweep's.
* **Delta goldens** -- the strategy and verified/resumed iteration split
  of a warm ``lambda + 1`` deadline edit, whose envelope must also be
  canonical-byte identical to a cold solve of the edited problem.
* **Reuse counts** (incremental mode only) -- the bind pass's chain
  cache hits across iterations.  A bound, not an exact count, so the
  greedy may evaluate fewer chains without breaking it.
* **Schedule work** -- ``Eqn3Tracker.admits`` calls per solve loop.
  The list schedule keeps no state across iterations, so the count is
  the same in both modes; each stays at or below its measured count.
* **Hashing bounds** -- ``ResourceType.__hash__`` calls per solve loop.
  ``H`` lives in id bitsets, so Bindselect hashes no ``ResourceType``
  in either mode, and each incremental loop stays at or below its
  measured count.
* **Oracle agreement** -- ``max_chain``, the bitset ``H``, the
  Bindselect cover probe and the ``Q_b`` sweep against the reference
  formulations in ``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.core import refinement, scheduling, solver
from repro.core.binding import BindIndex, Binding, BoundClique, max_chain
from repro.core.delta import DeadlineEdit
from repro.core.solution import Datapath
from repro.core.solver import (
    SOLVER_MODES,
    DPAllocOptions,
    ReplayRecorder,
    SolverState,
    resolve_solver_mode,
    solve_loop,
)
from repro.core.wcg import WordlengthCompatibilityGraph
from repro.engine import AllocationRequest, DeltaRequest, Engine, execute_request
from repro.experiments import build_case
from repro.io.json_io import datapath_to_dict
from repro.ir.seqgraph import SequencingGraph
from repro.resources.types import ResourceType
from tests.oracles import (
    ReferenceH,
    cheapest_covering_resource,
    reference_bound_critical_path,
    reference_max_chain,
)

# label -> (ops, relaxation over lambda_min, iterations, area, sha256)
SOLVER_CASES = {
    "tgff-48-0": (48, 0.0, 50, 2696,
                  "d6245eb355c831da2e7ff19971ce77a77725015c42269a7859a07aea5c7049a9"),
    "tgff-64-0": (64, 0.0, 80, 3189,
                  "afbe6c419450bbbdc4d414e994b361b0520f929946aae79ef554377f3648cf3e"),
    "tgff-96-0": (96, 0.0, 40, 3744,
                  "b378d5130b5808c84f4726343dc5a33df76bdf62bd23431969d860099068b191"),
    "tgff-128-0": (128, 0.05, 60, 4813,
                   "e762ed06c3133e30c26ff7cfd85bfafdd98a532eeea4e9448d887e32a69a1e3a"),
    "tgff-160-0": (160, 0.05, 126, 5687,
                   "28384c9abde18f5488ee35dc2ca4d4049ecdfd508f0beec242dfb00a4f6bd4b0"),
}

# label -> ResourceType.__hash__ calls in one incremental solve_loop,
# measured; an upper bound, so later work may only lower it.
LOOP_HASHES = {
    "tgff-48-0": 27_423,
    "tgff-64-0": 25_579,
    "tgff-96-0": 44_390,
    "tgff-128-0": 93_240,
    "tgff-160-0": 92_975,
}

# label -> Eqn3Tracker.admits calls in one solve_loop, measured and the
# same in both solver modes; an upper bound, so later work may only
# lower it.
SCHEDULE_ADMITS = {
    "tgff-48-0": 6_065,
    "tgff-64-0": 10_937,
    "tgff-96-0": 16_085,
    "tgff-128-0": 27_589,
    "tgff-160-0": 54_403,
}

# label -> (ops, sample, strategy, verified iterations, resumed iterations)
DELTA_CASES = {
    "tgff-48-0": (48, 0, "diverged", 45, 4),
    "tgff-48-1": (48, 1, "replay", 23, 0),
    "tgff-64-0": (64, 0, "resumed", 76, 1),
    "tgff-64-1": (64, 1, "resumed", 57, 1),
}

incremental_only = pytest.mark.skipif(
    resolve_solver_mode() != "incremental",
    reason="reuse counters exist only in incremental mode",
)


def canonical_digest(datapath: Datapath) -> str:
    text = json.dumps(datapath_to_dict(datapath), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def count_resource_hashes(patch: pytest.MonkeyPatch) -> Counter:
    """Count ``ResourceType.__hash__`` calls from here on.

    Calls made inside the solver's ``bindselect`` count under "bind",
    all others under "other".
    """
    calls: Counter = Counter()
    where = ["other"]
    resource_hash = ResourceType.__hash__
    bind = solver.bindselect

    def counting_hash(resource):
        calls[where[-1]] += 1
        return resource_hash(resource)

    def counting_bindselect(*args, **kwargs):
        where.append("bind")
        try:
            return bind(*args, **kwargs)
        finally:
            where.pop()

    patch.setattr(ResourceType, "__hash__", counting_hash)
    patch.setattr(solver, "bindselect", counting_bindselect)
    return calls


def count_schedule_admits(patch: pytest.MonkeyPatch) -> Counter:
    """Count ``Eqn3Tracker.admits`` calls from here on."""
    calls: Counter = Counter()
    admits = scheduling.Eqn3Tracker.admits

    def counting_admits(tracker, *args):
        calls["admits"] += 1
        return admits(tracker, *args)

    patch.setattr(scheduling.Eqn3Tracker, "admits", counting_admits)
    return calls


@dataclass
class Solved:
    label: str
    datapath: Datapath
    state: SolverState
    hashes: Counter
    admits: int


@pytest.fixture(scope="module", params=sorted(SOLVER_CASES))
def solved(request) -> Solved:
    """One untraced solve of a solver case, in the ``REPRO_SOLVER`` mode."""
    label = request.param
    num_ops, relaxation = SOLVER_CASES[label][:2]
    problem = build_case(num_ops, 0, relaxation).problem
    state = SolverState(
        problem, DPAllocOptions(),
        incremental=resolve_solver_mode() == "incremental",
    )
    with pytest.MonkeyPatch.context() as patch:
        hashes = count_resource_hashes(patch)
        admits = count_schedule_admits(patch)
        datapath = solve_loop(state)
    return Solved(label, datapath, state, hashes, admits["admits"])


class TestSolverGoldens:
    def test_iterations_area_and_bytes(self, solved):
        _, _, iterations, area, digest = SOLVER_CASES[solved.label]
        assert solved.datapath.iterations == iterations
        assert solved.datapath.area == area
        assert canonical_digest(solved.datapath) == digest

    def test_bindselect_hashes_no_resource_type(self, solved):
        assert solved.hashes["bind"] == 0

    def test_schedule_admits_stay_at_measured_count(self, solved):
        assert solved.admits <= SCHEDULE_ADMITS[solved.label]


def test_bindselect_hashes_no_resource_type_in_the_other_mode():
    """tgff-64-0 in the solver mode the ``solved`` fixture does not use."""
    problem = build_case(64, 0, 0.0).problem
    state = SolverState(
        problem, DPAllocOptions(),
        incremental=resolve_solver_mode() != "incremental",
    )
    with pytest.MonkeyPatch.context() as patch:
        hashes = count_resource_hashes(patch)
        solve_loop(state)
    assert hashes["bind"] == 0


@incremental_only
class TestReuseCounts:
    def test_chain_cache_hits(self, solved):
        cache = solved.state.chain_cache
        assert cache is not None
        assert cache.hits > 0

    def test_loop_hashes_stay_at_measured_count(self, solved):
        assert sum(solved.hashes.values()) <= LOOP_HASHES[solved.label]


@pytest.mark.parametrize("label", sorted(DELTA_CASES))
def test_delta_golden(label):
    num_ops, sample, strategy, verified, resumed = DELTA_CASES[label]
    problem = build_case(num_ops, sample, 0.0).problem
    deadline = problem.latency_constraint + 1
    engine = Engine()
    engine.run_delta(DeltaRequest(edits=(), base_problem=problem))
    warm = engine.run_delta(DeltaRequest(
        edits=(DeadlineEdit(deadline),),
        base_fingerprint=problem.fingerprint(),
    ))
    assert warm.ok, warm.error
    meta = warm.delta or {}
    assert (
        meta.get("strategy"),
        meta.get("verified_iterations"),
        meta.get("resumed_iterations"),
    ) == (strategy, verified, resumed)
    cold = execute_request(
        AllocationRequest(problem.with_latency_constraint(deadline), "dpalloc")
    )
    assert warm.canonical_json() == cold.canonical_json()


class TestOracleAgreement:
    def test_max_chain_matches_quadratic_dp(self):
        rng = random.Random(2001)
        tied = 0
        for _trial in range(400):
            names = [f"o{i:02d}" for i in range(rng.randint(0, 14))]
            rng.shuffle(names)
            # A short horizon forces shared start times (and length ties
            # between rival chains), exercising every tie-break.
            horizon = rng.randint(1, 12)
            schedule = {n: rng.randint(0, horizon) for n in names}
            latencies = {n: rng.randint(1, 4) for n in names}
            tied += len(set(schedule.values())) < len(names)
            assert max_chain(names, schedule, latencies) == reference_max_chain(
                names, schedule, latencies
            ), (schedule, latencies)
        assert tied > 200

    def test_cover_probe_matches_set_intersection_across_refinements(self):
        """The bitset ``H`` and the Eqn. 4 probe against a set model.

        Walks refinements on tgff-64-0; at every step each ``H`` query
        of the WCG must equal :class:`ReferenceH`'s, and so must the
        victims of each refinement.
        """
        problem = build_case(64, 0, 0.3).problem
        args = (
            problem.graph.operations, problem.resource_set(),
            problem.latency_model,
        )
        wcg = WordlengthCompatibilityGraph(*args)
        model = ReferenceH(*args)
        area_model = problem.area_model
        index = BindIndex(wcg, area_model)
        names = sorted(op.name for op in wcg.operations)
        rng = random.Random(2001)
        refined = 0
        probes = Counter()
        for _step in range(12):
            assert wcg.edge_count() == model.edge_count()
            for name in names:
                assert wcg.compatible_resources(name) == model.compatible_resources(name)
                assert wcg.upper_bound_latency(name) == model.upper_bound_latency(name)
                assert wcg.can_refine(name) == model.can_refine(name)
            for resource in wcg.resources:
                assert wcg.ops_for_resource(resource) == model.ops_for_resource(resource)
            covers = {kind: wcg.kind_cover(kind) for kind in wcg.kinds()}
            assert covers == {kind: model.kind_cover(kind) for kind in covers}
            members = tuple(sorted(r for cover in covers.values() for r in cover))
            for name in names:
                assert wcg.members_covering(name, members) == model.members_covering(
                    name, members
                )
            for _ in range(150):
                ops = rng.sample(names, rng.randint(1, 6))
                want = cheapest_covering_resource(ops, model, area_model)
                mask = -1
                for name in ops:
                    mask &= wcg.h_by_op[wcg.op_id[name]]
                got = wcg.resources[index.cheapest(mask)] if mask else None
                assert got == want, ops
                probes[want is None] += 1
            refinable = [n for n in names if model.can_refine(n)]
            if not refinable:
                break
            target = rng.choice(refinable)
            assert wcg.refine(target) == model.refine(target)
            refined += 1
        assert refined >= 5
        assert probes[True] and probes[False]  # covered and uncoverable

    @pytest.mark.parametrize("mode", SOLVER_MODES)
    def test_bound_critical_path_matches_reference_on_recorded_solves(
        self, mode, monkeypatch
    ):
        """Every ``Q_b`` of a recorded tgff-64-0 solve, at both call sites."""
        agreed: Counter = Counter()

        def checked(site, sweep):
            def wrapper(graph, schedule, binding, bound_latencies):
                q_b = sweep(graph, schedule, binding, bound_latencies)
                assert q_b == reference_bound_critical_path(
                    graph.names, graph.edges(), schedule, binding,
                    bound_latencies,
                )
                agreed[site] += 1
                return q_b
            return wrapper

        monkeypatch.setattr(refinement, "bound_critical_path", checked(
            "refine_once", refinement.bound_critical_path
        ))
        monkeypatch.setattr(solver, "bound_critical_path", checked(
            "recorder", solver.bound_critical_path
        ))
        problem = build_case(64, 0, 0.0).problem
        state = SolverState(
            problem, DPAllocOptions(), incremental=mode == "incremental"
        )
        recorder = ReplayRecorder()
        datapath = solve_loop(state, recorder)
        assert canonical_digest(datapath) == SOLVER_CASES["tgff-64-0"][4]
        assert agreed["refine_once"] >= datapath.iterations - 1
        assert agreed["recorder"] == datapath.iterations - 1

    def test_bound_critical_path_matches_reference_on_random_dags(self):
        """Random DAGs, valid schedules and chain bindings; broken ones raise."""
        unit = ResourceType("mul", (8, 8))

        def bind(chains):
            return Binding(tuple(BoundClique(unit, tuple(c)) for c in chains))

        rng = random.Random(2001)
        back_to_back = tied = raised = 0
        for _trial in range(300):
            names = [f"o{i:02d}" for i in range(rng.randint(1, 14))]
            rng.shuffle(names)  # topological order != name order
            graph = SequencingGraph()
            for name in names:
                graph.add(name, "mul", (8, 8))
            for j, v in enumerate(names):
                for u in names[:j]:
                    if rng.random() < 0.2:
                        graph.add_dependency(u, v)
            lat = {n: rng.randint(1, 3) for n in names}
            schedule: dict = {}
            for v in names:
                release = max(
                    (schedule[p] + lat[p] for p in graph.predecessors(v)),
                    default=0,
                )
                schedule[v] = release + rng.choice((0, 0, 1, 2))
            tied += len(set(schedule.values())) < len(names)

            # Greedy chain cover in start order; prefer back-to-back units.
            chains: list = []
            for v in sorted(names, key=lambda n: (schedule[n], n)):
                free = [
                    c for c in chains
                    if schedule[c[-1]] + lat[c[-1]] <= schedule[v]
                ]
                tight = [
                    c for c in free
                    if schedule[c[-1]] + lat[c[-1]] == schedule[v]
                ]
                if tight and rng.random() < 0.7:
                    rng.choice(tight).append(v)
                    back_to_back += 1
                elif free and rng.random() < 0.5:
                    rng.choice(free).append(v)
                else:
                    chains.append([v])
            for chain in chains:
                if rng.random() < 0.3:
                    rng.shuffle(chain)  # clique order is not start order
            args = (schedule, bind(chains), lat)
            assert refinement.bound_critical_path(graph, *args) == (
                reference_bound_critical_path(graph.names, graph.edges(), *args)
            ), args

            # Bind an op onto a unit that is still busy when it starts.
            clashes = [
                (u, v) for u in names for v in names
                if u != v and schedule[u] <= schedule[v] < schedule[u] + lat[u]
            ]
            if clashes:
                u, v = rng.choice(clashes)
                moved = [[n for n in c if n != v] for c in chains]
                next(c for c in moved if u in c).append(v)
                with pytest.raises(ValueError, match="overlap"):
                    refinement.bound_critical_path(
                        graph, schedule, bind(c for c in moved if c), lat
                    )
                raised += 1

            # Start a consumer before its producer finishes.
            edges = graph.edges()
            if edges:
                u, v = rng.choice(edges)
                broken = dict(
                    schedule, **{v: schedule[u] + lat[u] - rng.randint(1, 3)}
                )
                solo = bind([n] for n in names)
                with pytest.raises(ValueError, match="dependency"):
                    refinement.bound_critical_path(graph, broken, solo, lat)
                raised += 1
        assert back_to_back > 300 and tied > 100 and raised > 400
