#!/usr/bin/env python3
"""Seeded differential fuzz harness: incremental vs scratch solves.

``--mode=within-solve`` (the one mode): random problems and
solver-option variants; asserts ``run_pipeline(..., mode="incremental")``
and ``mode="scratch"`` produce byte-identical canonical datapaths (and
identical ``InfeasibleError`` messages) -- the recomputation-parity
contract ``REPRO_SOLVER`` rides on.  Deterministic per seed.

Failures are written as self-contained ``delta-fuzz-repro`` JSON files;
re-run one with ``--repro FILE``.  CI runs the harness on a fixed seed
(see ``.github/workflows/ci.yml``); ``tests/test_delta_fuzz.py`` drives
the library API over the committed corpus seed.

Usage::

    PYTHONPATH=src python tools/fuzz_delta.py --mode=within-solve \\
        --seed 2001 --problems 40
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

try:
    import repro  # noqa: F401 -- probe only
except ImportError:  # pragma: no cover -- direct CLI use without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.problem import InfeasibleError, Problem
from repro.core.solver import DPAllocOptions, run_pipeline
from repro.experiments.common import relaxed_constraint
from repro.gen.tgff import random_sequencing_graph
from repro.io import datapath_to_dict, problem_from_dict, problem_to_dict

__all__ = [
    "FuzzFailure",
    "FuzzReport",
    "random_problem",
    "run_repro_file",
    "run_within_solve_fuzz",
    "write_repro_file",
]

REPRO_KIND = "delta-fuzz-repro"
MODE = "within-solve"

# Telemetry keys stripped before canonical comparison -- must match
# AllocationResult.canonical_dict (the harness compares raw datapaths,
# which have no canonical_dict of their own).
_TELEMETRY_KEYS = ("pass_ms", "cache_hits", "cache_misses", "cache_evicted")


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass
class FuzzFailure:
    """One parity violation, persisted for replay."""

    problem_index: int
    detail: str
    repro_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    mode: str
    seed: int
    problems: int
    steps: int = 0
    strategies: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        strategies = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.strategies.items())
        ) or "none"
        return (
            f"fuzz[{self.mode}] seed={self.seed}: {self.problems} problems, "
            f"{self.steps} steps, {len(self.failures)} failures "
            f"(strategies: {strategies})"
        )


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def random_problem(rng: random.Random, max_ops: int = 24) -> Problem:
    """One random multiple-wordlength problem with a relaxed deadline."""
    num_ops = rng.randrange(6, max_ops + 1)
    graph = random_sequencing_graph(num_ops, seed=rng.randrange(1 << 30))
    scratch = Problem(graph, latency_constraint=1_000_000)
    lam_min = scratch.minimum_latency()
    relaxation = rng.choice((0.0, 0.0, 0.05, 0.1, 0.2, 0.3, 0.4))
    return scratch.with_latency_constraint(
        relaxed_constraint(lam_min, relaxation)
    )


def _random_options(rng: random.Random) -> DPAllocOptions:
    """A solver-option variant for one differential run."""
    return DPAllocOptions(
        grow=rng.random() < 0.8,
        shrink=rng.random() < 0.8,
        constraint=rng.choice(("eqn3", "eqn3", "eqn2")),
        mode=rng.choice(("min-units", "min-units", "asap")),
        selector=rng.choice(("min-edge-loss", "min-edge-loss", "name-order")),
        blind_refinement=rng.random() < 0.2,
        trace=rng.random() < 0.3,
    )


# ----------------------------------------------------------------------
# repro files
# ----------------------------------------------------------------------

def write_repro_file(
    out_dir: Path,
    name: str,
    *,
    seed: int,
    problem: Problem,
    options: Optional[Mapping[str, Any]] = None,
    warm: Any = None,
    cold: Any = None,
) -> Path:
    """Persist one failure as a self-contained, replayable JSON file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    payload = {
        "kind": REPRO_KIND,
        "mode": MODE,
        "seed": seed,
        "problem": problem_to_dict(problem),
        "options": dict(options or {}),
        "warm": warm,
        "cold": cold,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_repro_file(path: Path) -> Optional[str]:
    """Re-run one repro file; return a mismatch description or ``None``."""
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != REPRO_KIND or payload.get("mode") != MODE:
        raise ValueError(f"{path}: not a {MODE} {REPRO_KIND} file")
    problem = problem_from_dict(payload["problem"])
    options = payload.get("options") or {}
    return _within_solve_mismatch(problem, DPAllocOptions(**options))


# ----------------------------------------------------------------------
# the differential check
# ----------------------------------------------------------------------

def _canonical_solve(problem: Problem, opts: DPAllocOptions, mode: str) -> str:
    """Canonical bytes of one ``run_pipeline`` call (or its error)."""
    try:
        datapath = run_pipeline(problem, opts, mode=mode)
    except InfeasibleError as exc:
        return json.dumps({"infeasible": str(exc)}, sort_keys=True)
    payload = datapath_to_dict(datapath)
    for event in payload.get("trace", ()):
        for key in _TELEMETRY_KEYS:
            event.pop(key, None)
    return json.dumps(payload, sort_keys=True)


def _within_solve_mismatch(
    problem: Problem, opts: DPAllocOptions
) -> Optional[str]:
    incremental = _canonical_solve(problem, opts, "incremental")
    scratch = _canonical_solve(problem, opts, "scratch")
    if incremental != scratch:
        return "incremental != scratch"
    return None


def run_within_solve_fuzz(
    seed: int,
    problems: int,
    out_dir: Optional[Path] = None,
    max_ops: int = 24,
) -> FuzzReport:
    """Differential fuzz of incremental vs scratch recomputation modes."""
    rng = random.Random(seed)
    report = FuzzReport(mode=MODE, seed=seed, problems=problems)
    for problem_index in range(problems):
        problem = random_problem(rng, max_ops=max_ops)
        opts = _random_options(rng)
        report.steps += 1
        key = f"mode={opts.mode}"
        report.strategies[key] = report.strategies.get(key, 0) + 1
        detail = _within_solve_mismatch(problem, opts)
        if detail is None:
            continue
        failure = FuzzFailure(problem_index=problem_index, detail=detail)
        if out_dir is not None:
            failure.repro_path = str(write_repro_file(
                out_dir,
                f"repro-within-p{problem_index}.json",
                seed=seed,
                problem=problem,
                options=asdict(opts),
                warm=json.loads(_canonical_solve(problem, opts, "incremental")),
                cold=json.loads(_canonical_solve(problem, opts, "scratch")),
            ))
        report.failures.append(failure)
    return report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="differential fuzz harness: incremental vs scratch solves"
    )
    parser.add_argument("--mode", choices=(MODE,), default=MODE)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--problems", type=int, default=40,
                        help="random problems per run")
    parser.add_argument("--max-ops", type=int, default=24,
                        help="upper bound on random problem size |O|")
    parser.add_argument("--out-dir", type=Path, default=Path("fuzz-repros"),
                        help="directory for failure repro files")
    parser.add_argument(
        "--repro", type=Path, default=None,
        help=f"re-run one {REPRO_KIND} JSON file instead of fuzzing",
    )
    args = parser.parse_args(argv)

    if args.repro is not None:
        detail = run_repro_file(args.repro)
        if detail is None:
            print(f"{args.repro}: parity holds (fixed?)")
            return 0
        print(f"{args.repro}: still failing -- {detail}")
        return 1

    report = run_within_solve_fuzz(
        args.seed, args.problems, out_dir=args.out_dir, max_ops=args.max_ops,
    )
    print(report.summary())
    for failure in report.failures:
        repro = f" repro: {failure.repro_path}" if failure.repro_path else ""
        print(f"  FAIL problem {failure.problem_index}: {failure.detail}{repro}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
