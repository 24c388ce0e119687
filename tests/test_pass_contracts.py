"""The solver passes' declared contracts, checked by watching them run.

Every :class:`~repro.core.solver.Pass` declares the ``SolverState``
fields its ``run`` reads and writes, and ``core/solver.py`` declares
the incremental-reuse protocol (``REUSE_CHANNELS``, ``REUSE_MEMOS``).
Incremental solves stay byte-identical to ``REPRO_SOLVER=scratch``
only while those declarations are true.  This module runs the five
passes over a small seeded corpus in both solver modes and asserts:

* observed == declared, for ``reads`` and for ``writes``, per pass;
* every pass run that mutates ``wcg`` also writes each dirtiness
  channel ``REUSE_CHANNELS`` lists for it;
* every pass run that reads a ``REUSE_MEMOS`` memo refreshes it;
* every statement of every ``Pass`` method ran, so the checks above
  saw every path a pass can take.

For the duration of one ``Pass.run`` the state's class is swapped for
a subclass whose ``__getattribute__`` logs field reads and whose
``__setattr__`` logs rebinds; a pickle of every field before and after
the pass catches in-place mutation.  The recorder sees only the
effects of paths the corpus runs: the coverage check bounds that blind
spot for the ``Pass`` methods, not for the helpers they call.
"""

from __future__ import annotations

import ast
import pickle
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

from repro.core import solver
from repro.core.binding import ChainCache, bindselect
from repro.core.problem import InfeasibleError
from repro.core.solver import (
    REUSE_CHANNELS,
    REUSE_MEMOS,
    SOLVER_MODES,
    DPAllocOptions,
    SolverState,
    run_pipeline,
)
from repro.experiments import build_case

PASSES: Tuple[type, ...] = tuple(
    type(stage) for stage in (*solver.PIPELINE, solver._REFINE)
)

# Each memo's refresh method; a new REUSE_MEMOS entry must add its own.
MEMO_REFRESH = {"chain_cache": (ChainCache, "refresh")}

# Four TGFF graphs, each at lambda_min and again with one multiplier at
# lambda_min + 3, under every option the passes branch on.
GRAPH_SIZES = (8, 12, 16, 20)
OPTION_SETS = (
    DPAllocOptions(),
    DPAllocOptions(mode="asap"),
    DPAllocOptions(constraint="eqn2"),
    DPAllocOptions(selector="name-order"),
    DPAllocOptions(blind_refinement=True),
    DPAllocOptions(grow=False, shrink=False),
    DPAllocOptions(max_iterations=1),
)


def corpus_problems():
    problems = []
    for ops in GRAPH_SIZES:
        case = build_case(ops, 0, 0.0)
        problems.append(case.problem)
        problems.append(replace(
            case.problem,
            latency_constraint=case.lambda_min + 3,
            resource_constraints={"mul": 1},
        ))
    return problems


def _pass_methods():
    """``(class, method name, code object)`` of every concrete pass."""
    for cls in PASSES:
        for attr, value in vars(cls).items():
            function = getattr(value, "__func__", value)
            code = getattr(function, "__code__", None)
            if code is not None:
                yield cls, attr, code


# Taken before any test wraps a pass's ``run``.
PASS_METHODS = tuple(_pass_methods())


# ----------------------------------------------------------------------
# the recorder
# ----------------------------------------------------------------------
@dataclass
class PassRun:
    """What one ``Pass.run`` call touched."""

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    refreshed: List[object] = field(default_factory=list)


@dataclass
class Observed:
    """Everything the recorder saw over one corpus."""

    reads: Dict[str, Set[str]] = field(default_factory=dict)
    writes: Dict[str, Set[str]] = field(default_factory=dict)
    unmarked_channels: List[str] = field(default_factory=list)
    stale_memos: List[str] = field(default_factory=list)
    crashes: List[str] = field(default_factory=list)
    lines: Set[int] = field(default_factory=set)

    def add(self, name: str, record: PassRun, memos) -> None:
        self.reads.setdefault(name, set()).update(record.reads)
        self.writes.setdefault(name, set()).update(record.writes)
        for key, channels in REUSE_CHANNELS.items():
            missing = set(channels) - record.writes
            if key in record.writes and missing:
                self.unmarked_channels.append(
                    f"{name} wrote {key} without {sorted(missing)}"
                )
        for memo, instance in memos.items():
            if memo in record.reads and not any(
                seen is instance for seen in record.refreshed
            ):
                self.stale_memos.append(f"{name} read {memo} unrefreshed")


class _Recording(SolverState):
    """A ``SolverState`` logging field reads and rebinds into ``record``."""

    record: PassRun

    def __getattribute__(self, name):
        if name in object.__getattribute__(self, "__dict__"):
            _Recording.record.reads.add(name)
        return object.__getattribute__(self, name)

    def __setattr__(self, name, value):
        _Recording.record.writes.add(name)
        object.__setattr__(self, name, value)


def _snapshot(state: SolverState) -> Dict[str, bytes]:
    return {name: pickle.dumps(value) for name, value in vars(state).items()}


def _warm_graph_memos(problem) -> None:
    """Fill the graph's lazy adjacency and order memos up front.

    Otherwise the first pass that queries them appears to write
    ``graph`` and ``problem``, though no caller can see the memos.
    """
    graph = problem.graph
    graph.topological_order()
    for name in graph.names:
        graph.predecessors(name)
        graph.successors(name)


def _line_tracer(lines: Set[int]):
    """A ``sys.settrace`` function logging the lines the ``Pass``
    methods run, and tracing no other code."""
    targets = {code for _, _, code in PASS_METHODS}

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in targets else None

    return tracer


def observe(problems, options_sets=OPTION_SETS, modes=SOLVER_MODES,
            trace: bool = False) -> Observed:
    """Solve every problem under every option set and mode, recording
    each pass run (and, with ``trace``, the ``Pass`` method lines)."""
    observed = Observed()
    current: List[PassRun] = []

    def watch(cls):
        original = cls.run

        def run(self, state):
            record = PassRun()
            memos = {
                memo: getattr(state, memo)
                for memo in REUSE_MEMOS if getattr(state, memo) is not None
            }
            before = _snapshot(state)
            current.append(record)
            _Recording.record = record
            state.__class__ = _Recording
            try:
                original(self, state)
            finally:
                object.__setattr__(state, "__class__", SolverState)
                current.pop()
                after = _snapshot(state)
                record.writes.update(
                    name for name in after if before.get(name) != after[name]
                )
                observed.add(cls.name, record, memos)

        return run

    def spy(method):
        def refresh(memo, *args, **kwargs):
            if current:
                current[-1].refreshed.append(memo)
            return method(memo, *args, **kwargs)

        return refresh

    with pytest.MonkeyPatch.context() as patch:
        for cls in PASSES:
            patch.setattr(cls, "run", watch(cls))
        for owner, method in MEMO_REFRESH.values():
            patch.setattr(owner, method, spy(getattr(owner, method)))
        previous = sys.gettrace()
        if trace:
            sys.settrace(_line_tracer(observed.lines))
        try:
            for problem in problems:
                _warm_graph_memos(problem)
                for options in options_sets:
                    for mode in modes:
                        try:
                            run_pipeline(problem, options, mode=mode)
                        except InfeasibleError:
                            pass
                        except Exception as exc:  # noqa: BLE001
                            # A broken contract may crash the solve;
                            # keep going so the checks can name it.
                            observed.crashes.append(
                                f"{mode} {options}: {exc!r}"
                            )
        finally:
            sys.settrace(previous)
    return observed


def _statements() -> Dict[str, List[ast.stmt]]:
    """The statements of every ``Pass`` method (docstrings excluded),
    keyed ``Class.method``."""
    tree = ast.parse(Path(solver.__file__).read_text())
    wanted = {(cls.__name__, attr) for cls, attr, _ in PASS_METHODS}
    found: Dict[str, List[ast.stmt]] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (node.name, getattr(item, "name", None)) not in wanted:
                continue
            body = list(item.body)
            if ast.get_docstring(item) is not None:
                body = body[1:]
            found[f"{node.name}.{item.name}"] = [
                stmt for top in body for stmt in ast.walk(top)
                if isinstance(stmt, ast.stmt)
            ]
    assert set(found) == {f"{c}.{m}" for c, m in wanted}
    return found


@pytest.fixture(scope="module")
def observed() -> Observed:
    return observe(corpus_problems(), trace=True)


# ----------------------------------------------------------------------
# the contracts
# ----------------------------------------------------------------------
def test_corpus_solves_without_crashing(observed):
    assert observed.crashes == []


@pytest.mark.parametrize("direction", ("reads", "writes"))
@pytest.mark.parametrize("cls", PASSES, ids=lambda cls: cls.name)
def test_declared_effects_are_observed(observed, cls, direction):
    declared = getattr(cls, direction)
    seen = getattr(observed, direction)[cls.name]
    assert seen == declared, (
        f"{cls.__name__}.{direction}: undeclared {sorted(seen - declared)}, "
        f"never exercised {sorted(declared - seen)}"
    )


def test_wcg_writers_mark_every_dirtiness_channel(observed):
    assert "wcg" in observed.writes["refine"]
    assert observed.unmarked_channels == []


def test_memo_readers_refresh_first(observed):
    assert set(REUSE_MEMOS) == set(MEMO_REFRESH)
    assert "chain_cache" in observed.reads["bind"]
    assert observed.stale_memos == []


def test_every_pass_statement_ran(observed):
    def ran(stmt):
        last = stmt.end_lineno or stmt.lineno
        return any(
            line in observed.lines for line in range(stmt.lineno, last + 1)
        )

    missed = {
        method: [stmt.lineno for stmt in stmts if not ran(stmt)]
        for method, stmts in _statements().items()
    }
    assert {method: lines for method, lines in missed.items() if lines} == {}


# ----------------------------------------------------------------------
# the recorder catches seeded contract faults
# ----------------------------------------------------------------------
class TestSeededFaults:
    @staticmethod
    def observe_one(options=DPAllocOptions(), modes=SOLVER_MODES):
        return observe(
            [build_case(12, 0, 0.0).problem], options_sets=(options,),
            modes=modes,
        )

    def test_undeclared_read_is_caught(self, monkeypatch):
        original = solver.BindPass.run

        def run(self, state):
            state.makespan
            original(self, state)

        monkeypatch.setattr(solver.BindPass, "run", run)
        seen = self.observe_one()
        assert seen.reads["bind"] - solver.BindPass.reads == {"makespan"}

    def test_phantom_declaration_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            solver.BindPass, "reads", solver.BindPass.reads | {"area"}
        )
        seen = self.observe_one()
        assert solver.BindPass.reads - seen.reads["bind"] == {"area"}

    def test_dropped_invalidation_is_caught(self, monkeypatch):
        original = SolverState.record_refinement

        def record_refinement(self, step):
            # The channel is empty when the refine pass starts, so
            # undoing the mark equals never making it.
            original(self, step)
            self.dirty_cover_kinds.discard(self.kind_of[step.operation])

        monkeypatch.setattr(
            SolverState, "record_refinement", record_refinement
        )
        seen = self.observe_one()
        assert "dirty_cover_kinds" not in seen.writes["refine"]
        assert seen.unmarked_channels
        assert all("dirty_cover_kinds" in m for m in seen.unmarked_channels)

    def test_skipped_memo_refresh_is_caught(self, monkeypatch):
        def run(self, state):
            state.binding = bindselect(
                state.wcg, state.schedule, state.upper_bounds,
                state.problem.area_model, grow=state.options.grow,
                shrink=state.options.shrink, chain_cache=state.chain_cache,
            )

        monkeypatch.setattr(solver.BindPass, "run", run)
        # One iteration: its bind already holds a cache, and the stale
        # chains of a longer solve break its schedule before it ends.
        seen = self.observe_one(
            DPAllocOptions(max_iterations=1), modes=("incremental",)
        )
        assert seen.stale_memos
        assert all("chain_cache" in m for m in seen.stale_memos)
