"""Timed runs (``--trace 0``): the end-to-end metrics of each workload.

Offline workloads (``binding-heavy``, ``refinement-heavy``) solve their
seeded graph set serially in-process through ``Engine.run_batch`` with
no result cache, one request per batch call so the benchmark times each
request itself, in whole passes over the set until ``seconds`` have
passed and at least ``MIN_PASSES`` were made.  Each request's latency is
its median over the passes; throughput is the set size over the sum of
those medians.  ``served-mix`` sends its seeded stream through ``repro fleet``
with two closed-loop clients.

Set-up is repeated ``SETUP_REPEATS`` times and reported as the median:
for the offline workloads, a fresh interpreter importing the program and
building the run's inputs; for ``served-mix``, building the stream once
plus starting the fleet (coordinator and two healthy workers).
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.engine import Engine

import inputs
from served import Fleet, drive
from verify import Oracle, canonical_unlabelled, envelope_fault, problem_of_delta

SETUP_REPEATS = 3
#: offline workloads: at least this many passes over the set.
MIN_PASSES = 3


@dataclass
class Run:
    """Counts, samples and faults of one run, before they become metrics."""

    attempted: int = 0
    faults: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    completed: int = 0
    elapsed: float = 0.0
    area_total: float = 0.0
    setup: List[float] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def check(self, result, label, expected, area=None) -> None:
        """One envelope: ok, valid, labelled, and equal to its oracle."""
        fault = envelope_fault(result, label, expected)
        if fault is None and area is not None and result.datapath.area != area:
            fault = f"area {result.datapath.area} != committed {area}"
        self.expect(fault is None, f"{label}: {fault}")

    def expect(self, holds: bool, message: str) -> None:
        self.attempted += 1
        if not holds:
            self.faults.append(message)


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(run: Run) -> Dict[str, float]:
    return {
        "throughput_rps": run.completed / run.elapsed,
        "latency_p50_ms": 1e3 * percentile(run.latencies, 0.50),
        "latency_p95_ms": 1e3 * percentile(run.latencies, 0.95),
        "success_frac": (run.attempted - len(run.faults)) / run.attempted,
        "area_total": run.area_total,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(run.setup),
    }


def _cold_setup(workload: str, seed: int, scale: str) -> float:
    """Seconds for a fresh interpreter to import the program and build
    the run's inputs: what an offline user pays before the first solve."""
    here = Path(__file__).resolve().parent
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import inputs; "
        "inputs.offline_cases(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
    )
    began = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, str(here.parent / "src"), str(here),
         workload, str(seed), scale],
        check=True,
    )
    return time.perf_counter() - began


def offline(workload: str, seed: int, seconds: float, scale: str) -> Run:
    run = Run()
    for _ in range(SETUP_REPEATS):
        run.setup.append(_cold_setup(workload, seed, scale))
    cases = inputs.offline_cases(workload, seed, scale)
    requests = [request for request, _ in cases]
    run.info["sizes"] = [len(request.problem.graph) for request in requests]
    engine = Engine()
    first: Optional[List] = None
    per_request: List[List[float]] = [[] for _ in requests]
    began = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - began < seconds:
        produced = []
        for request, samples in zip(requests, per_request):
            sent = time.perf_counter()
            (result,) = engine.run_batch([request])
            samples.append(time.perf_counter() - sent)
            produced.append(result)
        passes += 1
        if first is None:
            first = produced
        for (request, ref_area), result, reference in zip(cases, produced, first):
            expected = canonical_unlabelled(reference) if reference.ok else None
            run.check(result, request.label, expected, ref_area)
    # A request's latency is its median over the passes, so one slow
    # pass (another tenant on the host) does not move the run's figures.
    run.latencies = [statistics.median(samples) for samples in per_request]
    run.completed = len(requests)
    run.elapsed = sum(run.latencies)
    assert first is not None
    run.area_total = sum(r.datapath.area for r in first if r.ok)
    run.info["passes"] = passes
    return run


def verify_stream(run: Run, posts, outcomes, oracle: Oracle) -> List:
    """Check every envelope of a served stream; returns the delta envelopes."""
    deltas = []
    areas: Dict[str, float] = {}
    for post, outcome in zip(posts, outcomes):
        if post.kind == "delta":
            labels = [post.delta.label]
            problems = [problem_of_delta(post.delta)]
        else:
            labels = [r.label for r in post.requests]
            problems = [r.problem for r in post.requests]
        expected = [oracle.expected(problem) for problem in problems]
        if outcome is None or outcome.error is not None:
            reason = "never sent" if outcome is None else outcome.error
            for label in labels:
                run.expect(False, f"{label}: {reason}")
            continue
        if len(outcome.results) != len(labels):
            for label in labels:
                run.expect(False, f"{label}: {len(outcome.results)} results")
            continue
        for label, want, problem, result in zip(
                labels, expected, problems, outcome.results):
            run.check(result, label, want)
            if result.ok:
                areas[problem.fingerprint()] = result.datapath.area
        if post.kind == "delta":
            deltas.extend(outcome.results)
    # Each distinct datapath counts once: a repeat is the same design.
    run.area_total = sum(areas.values())
    return deltas


def served(seed: int, seconds: float, scale: str, workdir: Path) -> Run:
    run = Run()
    began = time.perf_counter()
    posts = inputs.served_stream(seed, seconds, scale)
    generation = time.perf_counter() - began
    fleet = None
    for attempt in range(SETUP_REPEATS):
        if fleet is not None:
            fleet.close()
        began = time.perf_counter()
        fleet = Fleet(workdir, f"fleet-{attempt}").__enter__()
        run.setup.append(generation + time.perf_counter() - began)
    assert fleet is not None
    try:
        outcomes, run.elapsed = drive(fleet.url, posts)
    finally:
        fleet.close()
    run.latencies = [o.seconds for o in outcomes if o is not None]
    run.completed = sum(len(o.results) for o in outcomes if o is not None)
    oracle = Oracle()
    verify_stream(run, posts, outcomes, oracle)
    run.info.update(
        posts=len(posts),
        envelopes=sum(p.envelopes for p in posts),
        kinds={k: sum(p.kind == k for p in posts) for k in ("allocate", "batch", "delta")},
        sizes=sorted({len(r.problem.graph) for p in posts for r in p.requests}),
        oracle_solves=oracle.solves,
    )
    return run
