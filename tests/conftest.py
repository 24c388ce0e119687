"""Shared fixtures: canonical graphs and technology models."""

from __future__ import annotations

import pytest

from repro import Problem
from repro.core.delta import ConstraintEdit, DeadlineEdit, WordlengthEdit, apply_edits
from repro.engine import AllocationRequest, DeltaRequest, Engine, execute_request
from repro.ir.seqgraph import SequencingGraph
from repro.resources.area import SonicAreaModel
from repro.resources.latency import SonicLatencyModel


@pytest.fixture
def latency_model() -> SonicLatencyModel:
    return SonicLatencyModel()


@pytest.fixture
def area_model() -> SonicAreaModel:
    return SonicAreaModel()


@pytest.fixture
def chain_graph() -> SequencingGraph:
    """mul -> add -> mul chain with distinct wordlengths."""
    g = SequencingGraph()
    g.add("m0", "mul", (8, 8))
    g.add("a0", "add", (16, 16))
    g.add("m1", "mul", (12, 10))
    g.add_dependency("m0", "a0")
    g.add_dependency("a0", "m1")
    return g


@pytest.fixture
def diamond_graph() -> SequencingGraph:
    """One producer fanning out to two multiplies joined by an add."""
    g = SequencingGraph()
    g.add("src", "mul", (6, 6))
    g.add("left", "mul", (8, 4))
    g.add("right", "mul", (10, 8))
    g.add("join", "add", (20, 20))
    g.add_dependency("src", "left")
    g.add_dependency("src", "right")
    g.add_dependency("left", "join")
    g.add_dependency("right", "join")
    return g


@pytest.fixture
def parallel_muls_graph() -> SequencingGraph:
    """Four independent multiplies of assorted wordlengths."""
    g = SequencingGraph()
    g.add("p0", "mul", (8, 8))
    g.add("p1", "mul", (10, 6))
    g.add("p2", "mul", (12, 12))
    g.add("p3", "mul", (6, 4))
    return g


def delta_parity_requests(problem: Problem):
    """Delta requests over ``problem`` for the served == offline checks.

    A no-op, each edit kind, an infeasible tightening, an invalid edit
    and an unknown base fingerprint; each is labelled by its case.
    """
    lam = problem.latency_constraint
    mul = next(op.name for op in problem.graph.operations if op.kind == "mul")
    cases = {
        "noop": (),
        "deadline": (DeadlineEdit(lam + 1),),
        "wordlength": (WordlengthEdit(mul, (6, 6)),),
        "constraint": (ConstraintEdit("mul", 1),),
        "infeasible": (DeadlineEdit(2),),
        "bad-edit": (WordlengthEdit("ghost", (8, 8)),),
    }
    requests = [
        DeltaRequest(edits=edits, base_problem=problem, label=label)
        for label, edits in cases.items()
    ]
    requests.append(DeltaRequest(
        edits=(DeadlineEdit(lam + 1),),
        base_fingerprint="0" * 64,
        label="unknown-base",
    ))
    return requests


def cold_delta_canonical(request: DeltaRequest) -> str:
    """The canonical bytes a delta envelope must have.

    A cold solve of the edited problem; where there is nothing to solve
    (an unknown base, an invalid edit), a fresh engine's error envelope.
    """
    if request.base_problem is not None:
        try:
            edited = apply_edits(request.base_problem, request.edits)
        except (KeyError, ValueError):
            pass
        else:
            return execute_request(AllocationRequest(
                edited, "dpalloc", options=dict(request.options),
                label=request.label,
            )).canonical_json()
    return Engine().run_delta(request).canonical_json()


def make_problem(graph: SequencingGraph, relaxation: float = 0.0) -> Problem:
    """Problem at a relaxed lambda_min, with default SONIC models."""
    scratch = Problem(graph, latency_constraint=1_000_000)
    lam_min = scratch.minimum_latency()
    lam = max(1, int(lam_min * (1.0 + relaxation)))
    return scratch.with_latency_constraint(lam)


@pytest.fixture
def problem_factory():
    return make_problem
