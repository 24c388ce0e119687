"""Traced runs (``--trace 1``): per-layer metrics, gathered from outside.

Nothing here changes the program.  The per-layer numbers come from:

* **solver phase** -- the workload's problems solved in-process with
  ``run_pipeline``, once with ``DPAllocOptions(trace=True)`` and once
  without, alternating which goes first.  The traced solves give the
  per-pass self times (``TraceEvent.pass_ms``) and chain-cache counters;
  the pair gives ``solver.trace_overhead_frac``; the sum of pass self
  times over the traced solves' wall time is ``trace.pass_sum_frac``.
  A third solve runs with counting timers wrapped around the kernels,
  each patched where its caller looks it up; every count must be
  non-zero.
* **served phase** (``served-mix`` only) -- the seeded stream through
  ``repro fleet``, then ``/v1/stats`` of the coordinator and of each
  worker.  The offline workloads reach the fleet only in the peel.
* **peel** -- small fresh requests (16-32 ops), one at a time, each
  through the fleet, one ``ServerThread``, ``Engine(executor="process")``
  and a bare ``execute_request`` in turn.  Differences of the per-layer
  median latencies are the fleet, server and spawn self times.  Those
  plus the median pass self time of a traced solve of each request and
  its mean validation time, over the median client latency through the
  fleet, is ``trace.layer_sum_frac``.
* **delta** -- the stream's ``/v1/delta`` envelopes (``served-mix``), or
  one in-process ``Engine.run_delta`` deadline edit of each of the
  workload's first ``OFFLINE_DELTAS`` graphs.

Both span sums should lie within ``SPAN_TOLERANCE`` of 1; the info line
reports whether they did.  They are timings on a shared host, so a miss
is reported, not counted as a wrong output.  The part no span covers is
solver set-up (building the wordlength compatibility graph), loop
bookkeeping and envelope building: about 15% of a small solve, 3-6% of
a large one.

Kernel ``*.ms`` and ``pass.*.self_ms`` are totals over the solver
phase; ``engine.*_ms`` probes and ``io.*_ms`` are means per call or per
envelope; the peel's self times and ``delta.ms`` are medians.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.core.delta import DeadlineEdit
from repro.core.solver import DPAllocOptions, run_pipeline
from repro.engine import AllocationRequest, DeltaRequest, Engine, execute_request
from repro.io.json_io import allocation_result_from_dict, allocation_result_to_dict
from repro.service import ServerThread, ServiceClient

import inputs
from served import Fleet, drive
from timed import Run, verify_stream
from verify import Oracle

PASSES = ("bounds", "schedule", "bind", "check", "refine")
CLASSES = ("interactive", "normal", "bulk")
DELTA_STRATEGIES = ("replay", "resumed", "diverged", "scratch", "cache", "noop")
SPAN_TOLERANCE = 0.20

#: metric prefix -> (module[:class] where the caller looks the name up, name, timed)
KERNELS = {
    "binding.max_chain": ("repro.core.binding", "max_chain", True),
    "binding.bindselect": ("repro.core.solver", "bindselect", False),
    "scheduling.list_schedule": ("repro.core.solver", "list_schedule_outcome", True),
    "scheduling.eqn3_admits": ("repro.core.scheduling:Eqn3Tracker", "admits", False),
    "refinement.refine_once": ("repro.core.solver", "refine_once", True),
}
ENGINE_PROBES = {
    "engine.fingerprint": ("repro.core.problem:Problem", "fingerprint", True),
    "engine.cache_read": ("repro.engine.cache:ResultCache", "read", True),
    "engine.cache_write": ("repro.engine.cache:ResultCache", "write", True),
    "engine.validate": ("repro.engine.engine", "validate_datapath", True),
}

#: small fresh requests peeled through every layer, per scale.
PEEL = {"full": 12, "tiny": 3}
#: unmeasured requests sent through every layer before the peel.
PEEL_WARM_UP = 3
#: offline workloads: warm deadline edits of the workload's own graphs.
OFFLINE_DELTAS = {"binding-heavy": 1, "refinement-heavy": 3}
#: served-mix: unique stream problems re-solved in the solver phase.
SOLVER_SAMPLE = {"full": 40, "tiny": 3}


class Probe:
    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextlib.contextmanager
def probes(specs) -> Iterator[Dict[str, Probe]]:
    """Counting (and optionally timing) wrappers around named callables."""
    counted: Dict[str, Probe] = {}
    originals: List[Tuple[object, str, object]] = []
    for metric, (spec, name, timed) in specs.items():
        owner = _owner(spec)
        original = getattr(owner, name)
        probe = counted[metric] = Probe()

        def wrapper(*args, _fn=original, _probe=probe, _timed=timed, **kwargs):
            _probe.calls += 1
            if not _timed:
                return _fn(*args, **kwargs)
            began = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                _probe.seconds += time.perf_counter() - began

        originals.append((owner, name, original))
        setattr(owner, name, wrapper)
    try:
        yield counted
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


def median_ms(samples: List[float]) -> float:
    return 1e3 * statistics.median(samples)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

def solver_phase(problems, run: Run) -> Dict[str, float]:
    off = on = 0.0
    iterations = 0
    pass_ms: Dict[str, float] = dict.fromkeys(PASSES, 0.0)
    cache = Counter()
    for index, problem in enumerate(problems):
        for trace in ((False, True) if index % 2 == 0 else (True, False)):
            began = time.perf_counter()
            datapath = run_pipeline(problem, DPAllocOptions(trace=trace))
            elapsed = time.perf_counter() - began
            if not trace:
                off += elapsed
                iterations += datapath.iterations
                continue
            on += elapsed
            for event in datapath.trace:
                for name, ms in (event.pass_ms or {}).items():
                    pass_ms[name] += ms
                cache["hits"] += event.cache_hits or 0
                cache["misses"] += event.cache_misses or 0
                cache["evicted"] += event.cache_evicted or 0
    with probes(KERNELS) as kernels:
        for problem in problems:
            run_pipeline(problem, DPAllocOptions())
    for metric, probe in kernels.items():
        run.expect(probe.calls > 0, f"kernel probe {metric} counted no calls")
    lookups = cache["hits"] + cache["misses"]
    metrics = {
        "solver.iterations": iterations,
        "solver.ms_per_iteration": 1e3 * off / iterations,
        "solver.trace_overhead_frac": (on - off) / off,
        "trace.pass_sum_frac": sum(pass_ms.values()) / (1e3 * on),
        "binding.chain_cache.hits": cache["hits"],
        "binding.chain_cache.misses": cache["misses"],
        "binding.chain_cache.evicted": cache["evicted"],
        "binding.chain_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
    }
    metrics.update({f"pass.{name}.self_ms": ms for name, ms in pass_ms.items()})
    for metric, probe in kernels.items():
        metrics[f"{metric}.calls"] = probe.calls
        if KERNELS[metric][2]:
            metrics[f"{metric}.ms"] = 1e3 * probe.seconds
    return metrics


@dataclass
class Peel:
    """What the peel measured: latencies per layer, and what it read."""

    layers: Dict[str, List[float]]
    envelopes: List
    engine_probes: Dict[str, Probe]
    executor: Counter
    cache: Dict


def peel(fleet: Fleet, problems, warm_up_problems, workdir: Path,
         oracle: Oracle, run: Run) -> Peel:
    """Per-request latency through each layer, outermost first.

    Each request visits the four layers back to back, so a slow spell
    on the host lands on all four of its samples rather than on one
    layer's.
    """
    requests = [
        AllocationRequest(p, "dpalloc", label=f"peel-{i}",
                          priority=CLASSES[i % len(CLASSES)])
        for i, p in enumerate(problems)
    ]
    expected = [oracle.expected(p) for p in problems]
    warm_up = [
        AllocationRequest(p, "dpalloc", label=f"warm-up-{i}")
        for i, p in enumerate(warm_up_problems)
    ]
    layers: Dict[str, List[float]] = {
        name: [] for name in ("fleet", "server", "engine", "inproc")}
    envelopes = []
    server_engine = Engine(executor="process", cache_dir=workdir / "peel-server")
    engine = Engine(executor="process", cache_dir=workdir / "peel-engine")
    with ServerThread(engine=server_engine, max_concurrency=2) as thread, \
            probes(ENGINE_PROBES) as engine_probes:
        calls = {
            "fleet": ServiceClient(fleet.url, timeout=600.0).run,
            "server": ServiceClient(thread.url, timeout=600.0).run,
            "engine": engine.run,
            "inproc": execute_request,
        }
        for request in warm_up:  # first forks, lazy imports, negotiation
            for call in calls.values():
                call(request)
        for request, want in zip(requests, expected):
            for name, call in calls.items():
                began = time.perf_counter()
                result = call(request)
                layers[name].append(time.perf_counter() - began)
                run.check(result, request.label, want)
                envelopes.append(result)
        for request, want in zip(requests, expected):  # warm: cache reads
            run.check(engine.run(request), request.label, want)
    # The solve's own spans: pass self times of a traced solve of each.
    layers["passes"] = [
        sum(sum((event.pass_ms or {}).values())
            for event in run_pipeline(p, DPAllocOptions(trace=True)).trace) / 1e3
        for p in problems
    ]
    executor = Counter(server_engine.executor_stats_snapshot())
    executor.update(engine.executor_stats_snapshot())
    return Peel(layers, envelopes, engine_probes, executor,
                engine.cache_stats(reconcile=False) or {})


def delta_phase(problems, oracle: Oracle, run: Run) -> List:
    """One in-process warm deadline edit per problem (offline workloads).

    The base is primed first with an empty edit, so the timed envelope
    is the warm solve alone.
    """
    engine = Engine()
    envelopes = []
    for index, problem in enumerate(problems):
        engine.run_delta(DeltaRequest(edits=(), base_problem=problem))
        request = DeltaRequest(
            edits=(DeadlineEdit(problem.latency_constraint + 1),),
            base_fingerprint=problem.fingerprint(),
            label=f"delta-{index}",
        )
        result = engine.run_delta(request)
        edited = problem.with_latency_constraint(problem.latency_constraint + 1)
        run.check(result, request.label, oracle.expected(edited))
        envelopes.append(result)
    return envelopes


def io_phase(envelopes) -> Dict[str, float]:
    serialize = parse = 0.0
    for envelope in envelopes:
        began = time.perf_counter()
        text = json.dumps(allocation_result_to_dict(envelope), sort_keys=True)
        middle = time.perf_counter()
        allocation_result_from_dict(json.loads(text))
        parse += time.perf_counter() - middle
        serialize += middle - began
    return {
        "io.serialize_ms": 1e3 * serialize / len(envelopes),
        "io.parse_ms": 1e3 * parse / len(envelopes),
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------

def traced(workload: str, seed: int, seconds: float, scale: str,
           workdir: Path) -> Tuple[Run, Dict[str, float]]:
    run = Run()
    oracle = Oracle()
    small = inputs.peel_problems(seed, PEEL_WARM_UP + PEEL[scale])
    warm_up, peel_problems = small[:PEEL_WARM_UP], small[PEEL_WARM_UP:]
    envelopes: List = []
    with Fleet(workdir, "fleet") as fleet:
        if workload == "served-mix":
            posts = inputs.served_stream(seed, seconds, scale)
            outcomes, _ = drive(fleet.url, posts)
            stats = fleet.stats()
            deltas = verify_stream(run, posts, outcomes, oracle)
            envelopes = [r for o in outcomes if o is not None for r in o.results]
            solver_problems = list({
                r.problem.fingerprint(): r.problem
                for p in posts for r in p.requests
            }.values())
            unique_forwarded = len(solver_problems) + len(deltas)
            solver_problems = solver_problems[:SOLVER_SAMPLE[scale]]
        peeled = peel(fleet, peel_problems, warm_up, workdir, oracle, run)
        if workload != "served-mix":
            stats = fleet.stats()
    if workload != "served-mix":
        solver_problems = [
            r.problem for r, _ in inputs.offline_cases(workload, seed, scale)
        ]
        unique_forwarded = len(small)
        deltas = delta_phase(solver_problems[:OFFLINE_DELTAS[workload]], oracle, run)
        envelopes = list(deltas)

    metrics = _fleet_metrics(stats, unique_forwarded)
    metrics.update(_server_metrics(stats))
    for name in ("started", "killed", "crashed"):
        metrics[f"executor.{name}"] = peeled.executor.get(name, 0) + sum(
            w["executor"].get(name, 0) for w in stats["workers"])
    metrics.update(_layer_metrics(peeled.layers, peeled.engine_probes["engine.validate"]))
    for metric, probe in peeled.engine_probes.items():
        metrics[f"{metric}_ms"] = 1e3 * probe.seconds / max(probe.calls, 1)
    hits, misses = peeled.cache.get("hits", 0), peeled.cache.get("misses", 0)
    metrics["engine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics.update(_delta_metrics(deltas))
    metrics.update(io_phase(envelopes + peeled.envelopes))
    metrics.update(solver_phase(solver_problems, run))
    run.info.update(
        spans_within_tolerance={
            name: abs(metrics[name] - 1.0) <= SPAN_TOLERANCE
            for name in ("trace.pass_sum_frac", "trace.layer_sum_frac")
        },
        oracle_solves=oracle.solves,
        peel=len(peel_problems),
        solver_problems=len(solver_problems),
        sizes=sorted({len(p.graph) for p in solver_problems + peel_problems}),
    )
    return run, metrics


def _fleet_metrics(stats, unique_forwarded: int) -> Dict[str, float]:
    coordinator = stats["coordinator"]
    forwards = sum(w["forwards"] for w in coordinator["workers"])
    metrics = {
        "fleet.forwards": forwards,
        "fleet.memo_hits": coordinator["memo"]["hits"],
        "fleet.store_hits": coordinator["memo"]["store_hits"],
        "fleet.deduplicated": coordinator["deduplicated"],
        "fleet.requeues": coordinator["requeues"],
        "fleet.shed": coordinator["shed_total"],
        "fleet.forward_useful_ratio": unique_forwarded / forwards if forwards else 0.0,
    }
    for name in CLASSES:
        p50 = coordinator["classes"][name]["latency_p50_seconds"]
        metrics[f"fleet.class_p50_ms.{name}"] = 1e3 * (p50 or 0.0)
    return metrics


def _server_metrics(stats) -> Dict[str, float]:
    workers = stats["workers"]
    hits = sum((w["cache"] or {}).get("hits", 0) for w in workers)
    misses = sum((w["cache"] or {}).get("misses", 0) for w in workers)
    p50s = [w["latency_p50_seconds"] for w in workers if w["latency_p50_seconds"]]
    return {
        "server.completed": sum(w["completed"] for w in workers),
        "server.deduplicated": sum(w["deduplicated"] for w in workers),
        "server.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "server.p50_ms": 1e3 * statistics.mean(p50s) if p50s else 0.0,
    }


def _layer_metrics(layers: Dict[str, List[float]], validate: Probe
                   ) -> Dict[str, float]:
    """Layer self times as differences of per-layer median latencies.

    Medians keep one slow spell on the host from landing on one layer.
    The spans that should cover the median client latency are the fleet,
    server and spawn self times plus the solve's pass self times and its
    validation; what no span covers is solver set-up, loop bookkeeping
    and envelope building.
    """
    median = {name: median_ms(samples) for name, samples in layers.items()}
    metrics = {
        "fleet.overhead_ms": median["fleet"] - median["server"],
        "server.overhead_ms": median["server"] - median["engine"],
        "engine.spawn_ms": median["engine"] - median["inproc"],
        "peel.solve_ms": median["inproc"],
        "peel.client_ms": median["fleet"],
    }
    covered = (
        metrics["fleet.overhead_ms"] + metrics["server.overhead_ms"]
        + metrics["engine.spawn_ms"] + median["passes"]
        + 1e3 * validate.seconds / max(validate.calls, 1)
    )
    metrics["trace.layer_sum_frac"] = covered / metrics["peel.client_ms"]
    return metrics


def _delta_metrics(deltas) -> Dict[str, float]:
    strategies = Counter((d.delta or {}).get("strategy") for d in deltas)
    verified = sum((d.delta or {}).get("verified_iterations", 0) for d in deltas)
    iterations = sum(d.iterations for d in deltas)
    metrics = {f"delta.count.{s}": strategies.get(s, 0) for s in DELTA_STRATEGIES}
    metrics["delta.verified_share"] = verified / iterations if iterations else 0.0
    metrics["delta.ms"] = median_ms([d.seconds for d in deltas]) if deltas else 0.0
    return metrics
