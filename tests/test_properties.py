"""Property-based tests (hypothesis) on the core invariants.

These encode the contracts every component must keep for *arbitrary*
multiple-wordlength problems: schedules respect dependencies, bindings
respect coverage and exclusivity, Eqn. 3 dominates Eqn. 2, the heuristic
never beats the exact optimum, and refinement makes monotone progress.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Problem, allocate, validate_datapath
from repro.baselines.clique_sort import allocate_clique_sort
from repro.baselines.ilp import allocate_ilp
from repro.baselines.two_stage import allocate_two_stage
from repro.core.binding import max_chain
from repro.core.wcg import WordlengthCompatibilityGraph
from repro.ir.seqgraph import SequencingGraph
from repro.resources.latency import SonicLatencyModel

LAT = SonicLatencyModel()

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

widths = st.integers(min_value=2, max_value=20)


@st.composite
def sequencing_graphs(draw, max_ops: int = 8):
    """Random DAGs: each op may depend on earlier ops only (acyclic by
    construction)."""
    n = draw(st.integers(min_value=1, max_value=max_ops))
    g = SequencingGraph()
    for i in range(n):
        kind = draw(st.sampled_from(["mul", "add"]))
        g.add(f"o{i}", kind, (draw(widths), draw(widths)))
        if i:
            parents = draw(
                st.lists(
                    st.integers(min_value=0, max_value=i - 1),
                    max_size=min(i, 3),
                    unique=True,
                )
            )
            for parent in parents:
                g.add_dependency(f"o{parent}", f"o{i}")
    return g


@st.composite
def problems(draw, max_ops: int = 8):
    g = draw(sequencing_graphs(max_ops))
    scratch = Problem(g, latency_constraint=1_000_000)
    lam_min = scratch.minimum_latency()
    slack = draw(st.integers(min_value=0, max_value=10))
    return scratch.with_latency_constraint(lam_min + slack)


common = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# DPAlloc end-to-end invariants
# ----------------------------------------------------------------------


@common
@given(problems())
def test_dpalloc_solutions_always_validate(problem):
    dp = allocate(problem)
    validate_datapath(problem, dp)


@common
@given(problems())
def test_dpalloc_is_deterministic(problem):
    a = allocate(problem)
    b = allocate(problem)
    assert a.schedule == b.schedule and a.area == b.area


@common
@given(problems())
def test_relaxing_lambda_keeps_dpalloc_feasible(problem):
    """Heuristic area is NOT guaranteed monotone in lambda (hypothesis
    found a 5-op counterexample: 35 vs 36 area units), so the guaranteed
    property is feasibility and validity; monotonicity holds for the
    exact ILP (tested in test_ilp) and as a mean trend (experiments)."""
    relaxed = problem.with_latency_constraint(problem.latency_constraint * 3)
    dp = allocate(relaxed)
    validate_datapath(relaxed, dp)
    assert dp.makespan <= relaxed.latency_constraint


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems(max_ops=6))
def test_heuristic_never_beats_ilp(problem):
    heuristic = allocate(problem)
    optimal, _ = allocate_ilp(problem)
    validate_datapath(problem, optimal)
    assert optimal.area <= heuristic.area + 1e-9


@common
@given(problems())
def test_baselines_always_validate(problem):
    two_stage, _ = allocate_two_stage(problem)
    validate_datapath(problem, two_stage)
    clique_sort = allocate_clique_sort(problem)
    validate_datapath(problem, clique_sort)
    # Stage-2 optimality dominates the constructive binding.
    assert two_stage.area <= clique_sort.area + 1e-9


# ----------------------------------------------------------------------
# substrate invariants
# ----------------------------------------------------------------------


@common
@given(sequencing_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_asap_respects_all_dependencies(graph, salt):
    import random

    rng = random.Random(salt)
    latencies = {name: rng.randint(1, 5) for name in graph.names}
    start = graph.asap(latencies)
    for producer, consumer in graph.edges():
        assert start[consumer] >= start[producer] + latencies[producer]


@common
@given(sequencing_graphs())
def test_alap_never_before_asap(graph):
    latencies = {name: 2 for name in graph.names}
    asap = graph.asap(latencies)
    alap = graph.alap(latencies, deadline=graph.critical_path_length(latencies) + 7)
    assert all(alap[n] >= asap[n] for n in graph.names)


@common
@given(sequencing_graphs())
def test_resource_extraction_covers_every_op(graph):
    problem = Problem(graph, latency_constraint=1_000_000)
    resources = problem.resource_set()
    for op in graph.operations:
        assert any(r.covers(op) for r in resources)


@common
@given(sequencing_graphs())
def test_refinement_strictly_shrinks_h(graph):
    problem = Problem(graph, latency_constraint=1_000_000)
    wcg = WordlengthCompatibilityGraph(
        graph.operations, problem.resource_set(), LAT
    )
    refinable = [op.name for op in graph.operations if wcg.can_refine(op.name)]
    for name in refinable[:3]:
        before_edges = wcg.edge_count()
        before_bound = wcg.upper_bound_latency(name)
        wcg.refine(name)
        assert wcg.edge_count() < before_edges
        assert wcg.upper_bound_latency(name) < before_bound


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    schedule = {f"o{i}": draw(st.integers(0, 12)) for i in range(n)}
    latencies = {f"o{i}": draw(st.integers(1, 4)) for i in range(n)}
    return schedule, latencies


@common
@given(interval_sets())
def test_max_chain_matches_brute_force(data):
    schedule, latencies = data
    names = list(schedule)
    got = len(max_chain(names, schedule, latencies))
    best = 0
    for k in range(len(names), 0, -1):
        for combo in itertools.combinations(names, k):
            ordered = sorted(combo, key=lambda n: schedule[n])
            if all(
                schedule[a] + latencies[a] <= schedule[b]
                for a, b in zip(ordered, ordered[1:])
            ):
                best = k
                break
        if best:
            break
    assert got == best


@common
@given(interval_sets())
def test_max_chain_is_actually_a_chain(data):
    schedule, latencies = data
    chain = max_chain(list(schedule), schedule, latencies)
    for a, b in zip(chain, chain[1:]):
        assert schedule[a] + latencies[a] <= schedule[b]


# ----------------------------------------------------------------------
# Eqn. 3 vs Eqn. 2 dominance
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequencing_graphs(max_ops=6), st.integers(min_value=1, max_value=3))
def test_eqn3_schedule_never_shorter_than_eqn2(graph, n_units):
    """Eqn. 3 is at least as strict as Eqn. 2, so under identical
    constraints its schedules can never finish earlier."""
    from repro.core.scheduling import list_schedule_outcome

    problem = Problem(graph, latency_constraint=1_000_000)
    wcg = WordlengthCompatibilityGraph(
        graph.operations, problem.resource_set(), LAT
    )
    latencies = wcg.upper_bound_latencies()
    constraints = {"mul": n_units, "add": n_units}
    s3 = list_schedule_outcome(graph, wcg, latencies, constraints, constraint="eqn3")
    s2 = list_schedule_outcome(graph, wcg, latencies, constraints, constraint="eqn2")
    makespan3 = max(s3[n] + latencies[n] for n in graph.names)
    makespan2 = max(s2[n] + latencies[n] for n in graph.names)
    assert makespan3 >= makespan2
