"""The DPAlloc solver core: an incremental pass pipeline.

The paper's Algorithm DPAlloc is an iterative refine-and-reschedule
loop.  This module factors one outer-loop iteration into explicit
passes over a shared :class:`SolverState`::

    bounds -> schedule -> bind -> check -> refine/bump

driven by :func:`run_pipeline`.  The state tracks *dirtiness* between
iterations so each pass reuses whatever a refinement provably did not
touch:

* **bounds** -- nothing is reused here: the WCG keeps every op's
  latency upper bound ``L_o`` itself (``refine`` updates the refined
  op's), and the pass copies them out in both modes.
* **schedule** -- the scheduling set decomposes exactly into per-kind
  covers (``H`` edges never cross kinds), so only the refined
  operation's kind is re-covered.  The list schedule itself keeps no
  state across iterations: both modes rebuild it from control step 0.
* **bind / check** -- Bindselect's greedy runs every iteration, but its
  max-chain kernel is memoised in a :class:`~repro.core.binding.ChainCache`:
  chains whose candidate sets and members' ``(start, L_o)`` values did
  not move since the previous iteration are replayed verbatim.
* **refine** -- nothing is reused: the bound critical path ``Q_b`` is
  one O(V+E) sweep in schedule order
  (:func:`~repro.core.refinement.bound_critical_path`), the same in
  both modes.

Setting ``REPRO_SOLVER=scratch`` (or passing ``mode="scratch"``)
disables every reuse: all pass products are recomputed from scratch
each iteration.  Scratch and incremental solves are **byte-identical**
in canonical JSON -- the escape hatch exists precisely so that parity
can be enforced by tests and CI over the full experiment sweep.

Each iteration also emits a :class:`~repro.core.solution.TraceEvent`
(move taken, makespan, area, scheduling-set size); with
``DPAllocOptions(trace=True)`` the trace is attached to the returned
:class:`~repro.core.solution.Datapath` and flows through the engine
envelope, JSON round-trips, and the ``repro trace`` CLI summarizer.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..resources.types import ResourceType
from .binding import Binding, ChainCache, bindselect
from .problem import InfeasibleError, Problem
from .refinement import RefinementStep, refine_once
from .scheduling import list_schedule_outcome
from .solution import Datapath, TraceEvent
from .wcg import WordlengthCompatibilityGraph

__all__ = [
    "DPAllocOptions",
    "SOLVER_ENV",
    "SOLVER_MODES",
    "Pass",
    "SolverState",
    "resolve_solver_mode",
    "run_pipeline",
    "solve_loop",
]

SOLVER_ENV = "REPRO_SOLVER"
SOLVER_MODES = ("incremental", "scratch")

# The incremental-reuse protocol, checked against what the passes do
# at run time by tests/test_pass_contracts.py:
#
# * ``REUSE_CHANNELS``: a pass whose effects write the key field must
#   also write every listed dirtiness channel -- downstream passes
#   consult those channels to decide which derived products survive.
# * ``REUSE_MEMOS``: a pass that reads a memo structure must also
#   refresh it; memos are never trusted stale across iterations.
REUSE_CHANNELS: Dict[str, Tuple[str, ...]] = {
    "wcg": ("dirty_cover_kinds",),
}
REUSE_MEMOS: Tuple[str, ...] = ("chain_cache",)

_MODES = ("min-units", "asap", "best")
_CONSTRAINTS = ("eqn3", "eqn2")
_SELECTORS = ("min-edge-loss", "name-order")


def resolve_solver_mode(requested: Optional[str] = None) -> str:
    """Solver recomputation mode: argument > ``REPRO_SOLVER`` env > default.

    ``"incremental"`` (default) reuses unaffected per-iteration work;
    ``"scratch"`` recomputes every pass product each iteration.  The
    two are guaranteed byte-identical in canonical output.
    """
    value = requested or os.environ.get(SOLVER_ENV) or "incremental"
    if value not in SOLVER_MODES:
        raise ValueError(
            f"solver mode must be one of {SOLVER_MODES}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class DPAllocOptions:
    """Tunable knobs of the heuristic (defaults = the paper's algorithm).

    A frozen dataclass: option sets hash, compare, serialise
    (``dataclasses.asdict``) and derive (``dataclasses.replace``) without
    hand-copied field lists.

    Attributes:
        grow: enable Bindselect's clique-growth compensation.
        shrink: enable the final cheapest-cover wordlength selection.
        constraint: scheduling bound, ``"eqn3"`` (paper) or ``"eqn2"``
            (naive ablation).
        mode: ``"min-units"`` (paper: schedule under the minimal derived
            unit counts ``N_y = |S_y|``), ``"asap"`` (ablation: no
            derived constraints; only user-specified ``N_y`` apply), or
            ``"best"`` (extension: run both and keep the smaller-area
            feasible datapath -- the ablation study shows each reading
            wins on a sizeable fraction of instances).
        selector: refinement candidate rule, ``"min-edge-loss"`` (paper)
            or ``"name-order"`` (ablation).
        blind_refinement: ablation -- skip the bound-critical-path
            analysis and refine from the whole operation set.
        max_iterations: optional hard cap (an int >= 1) on outer-loop
            iterations (under ``mode="best"`` the cap applies to each
            sub-mode).
        trace: attach the per-iteration :class:`TraceEvent` sequence to
            the returned datapath.
    """

    grow: bool = True
    shrink: bool = True
    constraint: str = "eqn3"
    mode: str = "min-units"
    selector: str = "min-edge-loss"
    blind_refinement: bool = False
    max_iterations: Optional[int] = None
    trace: bool = False

    def __post_init__(self) -> None:
        for flag in ("grow", "shrink", "blind_refinement", "trace"):
            value = getattr(self, flag)
            if not isinstance(value, bool):
                raise ValueError(f"{flag} must be a bool, got {value!r}")
        cap = self.max_iterations
        if cap is not None and (
            isinstance(cap, bool) or not isinstance(cap, int) or cap < 1
        ):
            raise ValueError(
                f"max_iterations must be None or an int >= 1, got {cap!r}"
            )
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.constraint not in _CONSTRAINTS:
            raise ValueError(f"unknown constraint {self.constraint!r}")
        if self.selector not in _SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}")


def _bottleneck_kind(
    problem: Problem,
    schedule: Dict[str, int],
    bound_latencies: Dict[str, int],
) -> str:
    """Resource kind of the last-finishing operation (deterministic).

    Ties among equally-late finishers resolve to the lexicographically
    *smallest* operation name, matching every other deterministic
    choice in the solver.
    """
    last_finish = max(schedule[n] + bound_latencies[n] for n in schedule)
    name = min(
        n for n in schedule if schedule[n] + bound_latencies[n] == last_finish
    )
    return problem.graph.operation(name).resource_kind


class SolverState:
    """Everything one DPAlloc solve owns, shared by the passes.

    Holds the problem, the mutable WCG, the derived constraints, the
    current schedule/binding, the refinement and trace records, and the
    dirtiness bookkeeping that lets incremental runs reuse unaffected
    per-iteration work.  ``incremental=False`` (the ``REPRO_SOLVER=
    scratch`` escape hatch) makes every pass recompute from scratch.
    """

    def __init__(
        self, problem: Problem, options: DPAllocOptions, incremental: bool
    ) -> None:
        self.problem = problem
        self.options = options
        self.incremental = incremental

        graph = problem.graph
        self.graph = graph
        self.names: Tuple[str, ...] = graph.names
        self.kind_of: Dict[str, str] = {
            op.name: op.resource_kind for op in graph.operations
        }
        self.ops_per_kind: Dict[str, int] = dict(
            Counter(self.kind_of.values())
        )
        self.user_kinds: Set[str] = set(problem.resource_constraints or {})

        self.wcg = WordlengthCompatibilityGraph(
            graph.operations, problem.resource_set(), problem.latency_model
        )

        # Refinements delete >= 1 H edge each; bumps add >= 1 unit each.
        self.iteration_cap = (
            self.wcg.edge_count() - len(self.names) + 1
        ) + sum(self.ops_per_kind.values())
        if options.max_iterations is not None:
            self.iteration_cap = min(self.iteration_cap, options.max_iterations)

        self.iteration = 0
        self.bumps: Dict[str, int] = {}
        self.refinements: List[RefinementStep] = []
        self.trace: List[TraceEvent] = []

        # Pass products (None until first computed).
        self.upper_bounds: Optional[Dict[str, int]] = None
        self.kind_covers: Optional[Dict[str, Tuple[ResourceType, ...]]] = None
        self.scheduling_set: Tuple[ResourceType, ...] = ()
        self.constraints: Dict[str, int] = {}
        self.schedule: Optional[Dict[str, int]] = None
        self.binding: Optional[Binding] = None
        self.bound_latencies: Dict[str, int] = {}
        self.makespan = 0
        self.area = 0.0
        self.feasible = False

        # Dirtiness between iterations: cover kinds feed the per-kind
        # scheduling-set cache.
        self.dirty_cover_kinds: Set[str] = set()

        # Cross-iteration reuse state of the bind pass (incremental
        # runs only): memoised Bindselect max chains.
        self.chain_cache: Optional[ChainCache] = (
            ChainCache() if incremental else None
        )

    # ------------------------------------------------------------------
    def record_refinement(self, step: RefinementStep) -> None:
        """Bookkeeping for one accepted refinement move."""
        self.refinements.append(step)
        self.dirty_cover_kinds.add(self.kind_of[step.operation])
        self.trace.append(
            TraceEvent(
                iteration=self.iteration,
                move="refine",
                target=step.operation,
                pool=step.source,
                makespan=self.makespan,
                area=self.area,
                scheduling_set_size=len(self.scheduling_set),
            )
        )

    def record_bump(self, kind: str) -> None:
        """Bookkeeping for one unit-count bump move."""
        self.bumps[kind] = self.bumps.get(kind, 0) + 1
        self.trace.append(
            TraceEvent(
                iteration=self.iteration,
                move="bump",
                target=kind,
                pool=None,
                makespan=self.makespan,
                area=self.area,
                scheduling_set_size=len(self.scheduling_set),
            )
        )

    def record_accept(self) -> None:
        self.trace.append(
            TraceEvent(
                iteration=self.iteration,
                move="accept",
                target=None,
                pool=None,
                makespan=self.makespan,
                area=self.area,
                scheduling_set_size=len(self.scheduling_set),
            )
        )

    def to_datapath(self) -> Datapath:
        assert self.schedule is not None and self.binding is not None
        assert self.upper_bounds is not None
        return Datapath(
            schedule=dict(self.schedule),
            binding=self.binding,
            upper_bounds=dict(self.upper_bounds),
            bound_latencies=dict(self.bound_latencies),
            makespan=self.makespan,
            area=self.area,
            iterations=self.iteration,
            refinements=tuple(self.refinements),
            trace=tuple(self.trace) if self.options.trace else (),
        )


class Pass:
    """One stage of the DPAlloc pipeline, operating on a SolverState.

    Every concrete pass declares its effect contract: ``reads`` and
    ``writes`` are literal frozensets of the ``SolverState`` field
    names ``run`` may touch (directly or through helpers).
    ``tests/test_pass_contracts.py`` records what every pass reads and
    writes over a seeded corpus and fails on any difference, so a pass
    growing a new dependency without updating its declaration fails
    tier-1.
    """

    name = "pass"
    reads: FrozenSet[str]
    writes: FrozenSet[str]

    def run(self, state: SolverState) -> None:
        raise NotImplementedError


class BoundsPass(Pass):
    """Latency upper bounds ``L_o`` (paper Table 1).

    The WCG keeps every op's ``L_o`` current as ``H`` edges go, so both
    modes copy the same values out.
    """

    name = "bounds"
    reads = frozenset({"wcg"})
    writes = frozenset({"upper_bounds"})

    def run(self, state: SolverState) -> None:
        state.upper_bounds = state.wcg.upper_bound_latencies()


class SchedulePass(Pass):
    """Scheduling set, derived constraints, and the list schedule.

    Incremental: only the refined operation's kind is re-covered (the
    cover problem is kind-separable).  The list schedule is rebuilt
    from control step 0 in both modes.
    """

    name = "schedule"
    reads = frozenset({
        "bumps", "dirty_cover_kinds", "graph", "incremental",
        "kind_covers", "ops_per_kind", "options", "problem",
        "upper_bounds", "wcg",
    })
    writes = frozenset({
        "constraints", "dirty_cover_kinds", "kind_covers", "schedule",
        "scheduling_set",
    })

    def run(self, state: SolverState) -> None:
        opts = state.options
        wcg = state.wcg

        if state.incremental and state.kind_covers is not None:
            for kind in sorted(state.dirty_cover_kinds):
                state.kind_covers[kind] = wcg.kind_cover(kind)
        else:
            state.kind_covers = {
                kind: wcg.kind_cover(kind) for kind in wcg.kinds()
            }
        scheduling_set = tuple(
            sorted(
                member
                for cover in state.kind_covers.values()
                for member in cover
            )
        )

        if opts.mode == "min-units":
            constraints = self._derived_constraints(state)
        else:
            constraints = dict(state.problem.resource_constraints or {})

        assert state.upper_bounds is not None
        state.schedule = list_schedule_outcome(
            state.graph,
            wcg,
            state.upper_bounds,
            resource_constraints=constraints,
            constraint=opts.constraint,
            scheduling_set=scheduling_set,
        )
        state.scheduling_set = scheduling_set
        state.constraints = constraints
        state.dirty_cover_kinds = set()

    @staticmethod
    def _derived_constraints(state: SolverState) -> Dict[str, int]:
        """Effective ``N_y``: user ceilings where given, else ``|S_y| + bump``."""
        assert state.kind_covers is not None
        user = dict(state.problem.resource_constraints or {})
        constraints: Dict[str, int] = {}
        for kind, total in state.ops_per_kind.items():
            if kind in user:
                constraints[kind] = user[kind]
            else:
                derived = len(state.kind_covers.get(kind, ())) + state.bumps.get(
                    kind, 0
                )
                constraints[kind] = min(max(derived, 1), total)
        return constraints


class BindPass(Pass):
    """Combined binding and wordlength selection (Algorithm Bindselect).

    The greedy clique cover is a global decision, so the greedy loop
    itself runs every iteration in both modes -- but its dominant cost,
    the per-resource max-chain computation, is a pure function of the
    candidate tuple and its members' ``(start, L_o)`` values.
    Incremental: a persistent :class:`ChainCache` replays chains whose
    inputs did not move; ``refresh`` evicts exactly the chains touching
    operations the last refinement's schedule/bounds diff actually
    changed.  Scratch: each ``bindselect`` call starts from an empty
    cache, so no chain survives an iteration.  Both are byte-identical
    by construction.
    """

    name = "bind"
    reads = frozenset({
        "chain_cache", "options", "problem", "schedule", "upper_bounds",
        "wcg",
    })
    writes = frozenset({"binding", "chain_cache"})

    def run(self, state: SolverState) -> None:
        assert state.schedule is not None and state.upper_bounds is not None
        cache = state.chain_cache
        if cache is not None:
            cache.refresh(
                state.schedule, state.upper_bounds, state.wcg.op_names
            )
        state.binding = bindselect(
            state.wcg,
            state.schedule,
            state.upper_bounds,
            state.problem.area_model,
            grow=state.options.grow,
            shrink=state.options.shrink,
            chain_cache=cache,
        )


class CheckPass(Pass):
    """Evaluate the bound datapath against the latency constraint."""

    name = "check"
    reads = frozenset({
        "binding", "bound_latencies", "makespan", "names", "problem",
        "schedule", "wcg",
    })
    writes = frozenset({
        "area", "bound_latencies", "feasible", "makespan",
    })

    def run(self, state: SolverState) -> None:
        assert state.schedule is not None and state.binding is not None
        state.bound_latencies = state.binding.bound_latencies(state.wcg)
        state.makespan = max(
            state.schedule[n] + state.bound_latencies[n] for n in state.names
        )
        state.area = state.binding.area(state.problem.area_model)
        state.feasible = state.makespan <= state.problem.latency_constraint


class RefinePass(Pass):
    """Pick the iteration's move: refine an op or bump a unit count.

    Mirrors the paper's section 2.4 plus the two documented completions
    (unit duplication when the bound critical path is unrefinable, and
    a last-resort whole-set refinement).  Both modes run the same
    stateless ``Q_b`` sweep inside :func:`refine_once`, so nothing here
    is reused across iterations.  Raises ``InfeasibleError`` when no
    move exists or the iteration cap is hit.
    """

    name = "refine"
    reads = frozenset({
        "area", "binding", "bound_latencies", "bumps", "constraints",
        "dirty_cover_kinds", "graph", "iteration", "iteration_cap",
        "kind_of", "makespan", "ops_per_kind", "options", "problem",
        "refinements", "schedule", "scheduling_set", "trace",
        "upper_bounds", "user_kinds", "wcg",
    })
    writes = frozenset({
        "bumps", "dirty_cover_kinds", "refinements", "trace", "wcg",
    })

    def run(self, state: SolverState) -> None:
        opts = state.options
        problem = state.problem
        if state.iteration >= state.iteration_cap:
            raise InfeasibleError(
                f"DPAlloc exceeded its iteration bound ({state.iteration_cap}) "
                f"without meeting latency {problem.latency_constraint} "
                f"(best makespan {state.makespan})"
            )

        assert state.schedule is not None and state.binding is not None
        # Preferred move: refine a bound-critical operation (paper §2.4).
        primary_pools = ("any",) if opts.blind_refinement else ("W", "Qb")
        try:
            step = refine_once(
                state.wcg,
                state.graph,
                state.schedule,
                state.binding,
                problem.latency_constraint,
                pools=primary_pools,
                selector=opts.selector,
                bound_latencies=state.bound_latencies,
                upper_bounds=state.upper_bounds,
            )
            state.record_refinement(step)
            return
        except InfeasibleError:
            pass

        # The bound critical path is unrefinable.  In min-units mode the
        # principled move is to duplicate a unit of the bottleneck kind,
        # directly relieving the serialisation that limits the makespan.
        if opts.mode == "min-units":
            bumpable = sorted(
                kind
                for kind, limit in state.constraints.items()
                if kind not in state.user_kinds
                and limit < state.ops_per_kind[kind]
            )
            if bumpable:
                preferred = _bottleneck_kind(
                    problem, state.schedule, state.bound_latencies
                )
                kind = preferred if preferred in bumpable else bumpable[0]
                state.record_bump(kind)
                return

        # Last resort: refine any refinable operation (it may still grow
        # the scheduling set and unlock parallelism).
        try:
            step = refine_once(
                state.wcg,
                state.graph,
                state.schedule,
                state.binding,
                problem.latency_constraint,
                pools=("any",),
                selector=opts.selector,
                bound_latencies=state.bound_latencies,
                upper_bounds=state.upper_bounds,
            )
            state.record_refinement(step)
        except InfeasibleError:
            raise InfeasibleError(
                f"latency constraint {problem.latency_constraint} unreachable "
                f"even with fully refined wordlengths and duplicated units "
                f"(best makespan {state.makespan})"
            ) from None


PIPELINE: Tuple[Pass, ...] = (BoundsPass(), SchedulePass(), BindPass(), CheckPass())
_REFINE = RefinePass()


def _now_ms() -> float:
    """Wall clock for perf telemetry (non-canonical by construction).

    The readings land only in the ``compare=False`` telemetry fields of
    :class:`TraceEvent`, which equality ignores and the canonical JSON
    serializer never emits -- so the parity contract is untouched.
    """
    return time.perf_counter() * 1e3  # reprolint: disable=RL002(telemetry only: compare=False TraceEvent fields, never serialized canonically)


def _attach_perf(
    state: SolverState,
    pass_ms: Dict[str, float],
    cache_base: Optional[Tuple[int, int, int]],
) -> None:
    """Fold the iteration's perf telemetry into its trace event.

    ``run_pipeline`` is not a :class:`Pass`, so decorating the event it
    just appended keeps the pass effect contracts unchanged.
    """
    if not state.trace:
        return
    cache = state.chain_cache
    hits = misses = evicted = None
    if cache is not None and cache_base is not None:
        hits = cache.hits - cache_base[0]
        misses = cache.misses - cache_base[1]
        evicted = cache.evicted - cache_base[2]
    state.trace[-1] = replace(
        state.trace[-1],
        pass_ms=dict(pass_ms),
        cache_hits=hits,
        cache_misses=misses,
        cache_evicted=evicted,
    )


def solve_loop(state: SolverState) -> Datapath:
    """Drive the pass pipeline to acceptance (or infeasibility).

    The outer loop of Algorithm DPAlloc, split out of
    :func:`run_pipeline` so a caller holding the :class:`SolverState`
    can read what the solve left behind (its ``ChainCache`` counters,
    for one).
    """
    while True:
        state.iteration += 1
        pass_ms: Dict[str, float] = {}
        cache = state.chain_cache
        cache_base = (
            (cache.hits, cache.misses, cache.evicted)
            if cache is not None
            else None
        )
        for stage in PIPELINE:
            begin = _now_ms()
            stage.run(state)
            pass_ms[stage.name] = _now_ms() - begin
        if state.feasible:
            state.record_accept()
            _attach_perf(state, pass_ms, cache_base)
            return state.to_datapath()
        begin = _now_ms()
        _REFINE.run(state)
        pass_ms[_REFINE.name] = _now_ms() - begin
        _attach_perf(state, pass_ms, cache_base)


def run_pipeline(
    problem: Problem,
    options: Optional[DPAllocOptions] = None,
    mode: Optional[str] = None,
) -> Datapath:
    """Run the DPAlloc pass pipeline on a concrete scheduling mode.

    Args:
        problem: the allocation problem.
        options: heuristic knobs; ``mode="best"`` is a meta-mode handled
            by :func:`repro.core.dpalloc.allocate`, not here.
        mode: ``"incremental"`` / ``"scratch"`` recomputation mode;
            ``None`` resolves via the ``REPRO_SOLVER`` environment
            variable.  Both modes produce byte-identical canonical
            results.

    Raises:
        InfeasibleError: the latency constraint is below the fully
            refined critical path, or the resource-count constraints can
            never be satisfied.
    """
    opts = options or DPAllocOptions()
    if opts.mode == "best":
        raise ValueError(
            "mode='best' is a meta-mode; use repro.core.dpalloc.allocate"
        )
    incremental = resolve_solver_mode(mode) == "incremental"
    state = SolverState(problem, opts, incremental=incremental)
    if not state.names:
        return Datapath(
            schedule={},
            binding=Binding(()),
            upper_bounds={},
            bound_latencies={},
            makespan=0,
            area=0.0,
            iterations=0,
        )

    return solve_loop(state)
