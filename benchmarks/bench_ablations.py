"""Ablation benches for the design choices DESIGN.md §7 calls out.

Each test isolates one mechanism of the heuristic and checks the
direction of its contribution on the standard TGFF sweep (means can be
noisy per-instance; the assertions are aggregate).
"""

from __future__ import annotations

from dataclasses import asdict

from conftest import samples

from repro.analysis.metrics import mean, percent_increase
from repro.core.dpalloc import DPAllocOptions
from repro.engine import AllocationRequest, Engine
from repro.experiments import ablations, build_case
from repro.experiments.common import require_ok

SWEEP = [
    (n, relaxation, sample)
    for n in (8, 12, 16)
    for relaxation in (0.1, 0.3)
    for sample in range(samples(6))
]


def _mean_increase(options: DPAllocOptions) -> float:
    """Mean area increase of a variant over the full heuristic, with the
    full/variant pairs batched through the engine."""
    requests = []
    for n, relaxation, sample in SWEEP:
        problem = build_case(n, sample, relaxation).problem
        requests.append(AllocationRequest(problem, "dpalloc"))
        requests.append(AllocationRequest(
            problem, "dpalloc", options=asdict(options),
        ))
    results = Engine().run_batch(requests)
    increases = [
        percent_increase(require_ok(variant).area, require_ok(full).area)
        for full, variant in zip(results[::2], results[1::2])
    ]
    return mean(increases)


def test_ablation_table(benchmark):
    result = benchmark.pedantic(
        lambda: ablations.run(
            sizes=(8, 12, 16), relaxations=(0.1, 0.3), samples=samples(6)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(ablations.render(result))
    # Every removed mechanism must at least not help on average; the
    # best-of-modes extension must never hurt (it keeps the better of
    # the two schedules per instance).
    for name, value in result.mean_increase.items():
        if name == "best-of-modes":
            assert value <= 1e-9, (name, value)
        else:
            assert value >= -2.0, (name, value)


def test_growth_ablation(benchmark):
    """Bindselect's clique growth must pay off on average."""
    value = benchmark.pedantic(
        lambda: _mean_increase(DPAllocOptions(grow=False)),
        rounds=1, iterations=1,
    )
    assert value >= 0.0


def test_shrink_ablation(benchmark):
    """The cheapest-cover wordlength selection must pay off on average."""
    value = benchmark.pedantic(
        lambda: _mean_increase(DPAllocOptions(shrink=False)),
        rounds=1, iterations=1,
    )
    assert value >= 0.0


def test_asap_mode_ablation(benchmark):
    """Scheduling under derived minimal unit counts (the paper's reading)
    vs the resource-unconstrained reading.  The mean advantage is
    size-dependent (each mode wins on a share of instances), but the
    asap reading must show catastrophic worst cases -- it cannot
    serialise independent ops, the core of the Fig. 3 effect -- while
    not being better on average."""
    from repro.analysis.metrics import percent_increase

    def measure():
        increases = []
        for n, relaxation, sample in SWEEP:
            case = build_case(n, sample, relaxation)
            full = allocate(case.problem)
            variant = allocate(case.problem, DPAllocOptions(mode="asap"))
            increases.append(percent_increase(variant.area, full.area))
        return increases

    increases = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert sum(increases) / len(increases) >= 0.0, increases
    assert max(increases) >= 15.0, max(increases)


def test_eqn3_vs_eqn2_binding_consistency(benchmark):
    """Under Eqn. 2 the schedule can need more units than N_y; count how
    often the naive constraint under-provisions on the sweep, and bench
    the Eqn. 3 scheduler."""
    from repro.core.scheduling import list_schedule_outcome
    from repro.core.binding import bindselect
    from repro.core.wcg import WordlengthCompatibilityGraph

    undercounted = 0
    checked = 0
    for n, relaxation, sample in SWEEP[: samples(6) * 2]:
        case = build_case(n, sample, relaxation)
        problem = case.problem
        wcg = WordlengthCompatibilityGraph(
            problem.graph.operations, problem.resource_set(),
            problem.latency_model,
        )
        latencies = wcg.upper_bound_latencies()
        limits = {"mul": 1, "add": 1}
        schedule = list_schedule_outcome(
            problem.graph, wcg, latencies, limits, constraint="eqn2"
        )
        binding = bindselect(
            wcg, schedule, latencies, problem.area_model
        )
        checked += 1
        usage = {}
        for clique in binding.cliques:
            usage[clique.resource.kind] = usage.get(clique.resource.kind, 0) + 1
        if any(usage.get(kind, 0) > limit for kind, limit in limits.items()):
            undercounted += 1
    assert checked > 0

    case = build_case(12, sample=0, relaxation=0.2)
    problem = case.problem
    wcg = WordlengthCompatibilityGraph(
        problem.graph.operations, problem.resource_set(), problem.latency_model
    )
    latencies = wcg.upper_bound_latencies()
    benchmark(
        lambda: list_schedule_outcome(
            problem.graph, wcg, latencies, {"mul": 1, "add": 1}
        )
    )
