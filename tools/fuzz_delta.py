#!/usr/bin/env python3
"""Seeded differential fuzz harness for warm-start delta solves.

Two modes, both deterministic per seed and both *differential* -- every
check compares two independent computations of the same answer:

* ``--mode=delta`` (default).  Random problems, random **edit chains**
  (no-op deadlines, small compounding moves, deadline-crossing jumps,
  wordlength rewrites, resource-count edits).  Each step runs
  ``Engine.run_delta`` against the previous step's replay artifact and
  asserts the envelope is canonical-byte identical to a cold
  ``execute_request`` of the edited problem -- the parity contract of
  ``docs/architecture.md`` (Delta solves).  Because chains re-edit the
  *edited* problem of the previous step, a single run exercises every
  strategy: ``noop``, ``replay``, ``resumed``, ``diverged``,
  ``scratch`` and ``cache``.

* ``--mode=within-solve``.  Random problems and solver-option variants;
  asserts ``run_pipeline(..., mode="incremental")`` and
  ``mode="scratch"`` produce byte-identical canonical datapaths (and
  identical ``InfeasibleError`` messages) -- the recomputation-parity
  contract ``REPRO_SOLVER`` rides on.

Failures are **shrunk** (greedy edit dropping against a fresh engine)
and written as self-contained ``delta-fuzz-repro`` JSON files; re-run
one with ``--repro FILE``.  CI runs both modes on fixed seeds (see
``.github/workflows/ci.yml``); ``tests/test_delta_fuzz.py`` drives the
library API over the committed corpus seed.

Usage::

    PYTHONPATH=src python tools/fuzz_delta.py --seed 2001 \\
        --problems 50 --steps 10 --out-dir fuzz-repros
    PYTHONPATH=src python tools/fuzz_delta.py --mode=within-solve \\
        --seed 2001 --problems 40
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

try:
    import repro  # noqa: F401 -- probe only
except ImportError:  # pragma: no cover -- direct CLI use without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.delta import (
    ConstraintEdit,
    DeadlineEdit,
    Edit,
    WordlengthEdit,
    apply_edits,
)
from repro.core.problem import InfeasibleError, Problem
from repro.core.solver import DPAllocOptions, run_pipeline
from repro.engine import (
    AllocationRequest,
    DeltaRequest,
    Engine,
    execute_request,
)
from repro.experiments.common import relaxed_constraint
from repro.gen.tgff import random_sequencing_graph
from repro.io import edit_from_dict, edit_to_dict, problem_from_dict, problem_to_dict

__all__ = [
    "FuzzFailure",
    "FuzzReport",
    "random_edits",
    "random_problem",
    "run_delta_fuzz",
    "run_repro_file",
    "run_within_solve_fuzz",
    "write_repro_file",
]

REPRO_KIND = "delta-fuzz-repro"

# Telemetry keys stripped before canonical comparison -- must match
# AllocationResult.canonical_dict (within-solve mode compares raw
# datapaths, which have no canonical_dict of their own).
_TELEMETRY_KEYS = ("pass_ms", "cache_hits", "cache_misses", "cache_evicted")


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass
class FuzzFailure:
    """One parity violation, shrunk and persisted for replay."""

    mode: str
    problem_index: int
    step_index: int
    detail: str
    edits: Tuple[Edit, ...] = ()
    shrunk: bool = False
    repro_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Outcome of one fuzz run (either mode)."""

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


def _random_deadline(rng: random.Random, current: int) -> DeadlineEdit:
    roll = rng.random()
    if roll < 0.15:
        return DeadlineEdit(current)  # explicit no-op
    if roll < 0.60:
        return DeadlineEdit(max(1, current + rng.randrange(-3, 4)))
    # Deadline-crossing jump: far enough to skip past recorded accepts
    # or to tighten beyond several recorded iterations at once.
    jump = rng.choice((-1, 1)) * rng.randrange(5, 30)
    return DeadlineEdit(max(1, current + jump))


def random_edits(
    rng: random.Random, problem: Problem, max_edits: int = 3
) -> Tuple[Edit, ...]:
    """A 1..max_edits edit sequence valid against ``problem``.

    Deadline edits dominate (they exercise the verified replay walk);
    wordlength and constraint edits exercise the dirty-footprint
    scratch fallback and keep the chain's problem content moving.
    """
    names = problem.graph.names
    kinds = sorted({op.resource_kind for op in problem.graph.operations})
    edits: List[Edit] = []
    current_lam = problem.latency_constraint
    for _ in range(rng.randrange(1, max_edits + 1)):
        roll = rng.random()
        if roll < 0.6 or not names:
            edit: Edit = _random_deadline(rng, current_lam)
            current_lam = edit.latency
        elif roll < 0.8:
            name = rng.choice(names)
            arity = len(problem.graph.operation(name).operand_widths)
            edit = WordlengthEdit(
                name, tuple(rng.randrange(4, 17) for _ in range(arity))
            )
        else:
            edit = ConstraintEdit(
                rng.choice(kinds), rng.choice((None, 1, 2, 3, 4))
            )
        edits.append(edit)
    return tuple(edits)


def _random_options(rng: random.Random) -> DPAllocOptions:
    """A solver-option variant for within-solve differential runs."""
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
    mode: str,
    seed: int,
    problem: Problem,
    edits: Sequence[Edit] = (),
    options: Optional[Mapping[str, Any]] = None,
    warm: Any = None,
    cold: Any = None,
    shrunk: bool = False,
) -> Path:
    """Persist one failure as a self-contained, replayable JSON file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    payload = {
        "kind": REPRO_KIND,
        "mode": mode,
        "seed": seed,
        "problem": problem_to_dict(problem),
        "edits": [edit_to_dict(edit) for edit in edits],
        "options": dict(options or {}),
        "warm": warm,
        "cold": cold,
        "shrunk": shrunk,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_repro_file(path: Path) -> Optional[str]:
    """Re-run one repro file; return a mismatch description or ``None``."""
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != REPRO_KIND:
        raise ValueError(f"{path}: not a {REPRO_KIND} file")
    problem = problem_from_dict(payload["problem"])
    edits = tuple(edit_from_dict(e) for e in payload["edits"])
    options = payload.get("options") or None
    if payload.get("mode") == "within-solve":
        return _within_solve_mismatch(problem, DPAllocOptions(**(options or {})))
    return _delta_mismatch(problem, edits, options)


# ----------------------------------------------------------------------
# delta mode
# ----------------------------------------------------------------------

def _cold_canonical(
    problem: Problem, options: Optional[Mapping[str, Any]]
) -> str:
    """Canonical bytes of a cold, engine-free solve of ``problem``."""
    request = AllocationRequest(
        problem=problem, allocator="dpalloc", options=dict(options or {})
    )
    return execute_request(request).canonical_json()


def _delta_mismatch(
    base: Problem,
    edits: Sequence[Edit],
    options: Optional[Mapping[str, Any]],
) -> Optional[str]:
    """Self-contained check: prime a fresh engine, run one delta step.

    Returns ``None`` on parity, else a description.  Used both to
    confirm a chained failure reproduces from scratch and as the
    shrinking oracle.
    """
    engine = Engine()
    opts = dict(options or {})
    engine.run_delta(DeltaRequest(edits=(), base_problem=base, options=opts))
    warm = engine.run_delta(
        DeltaRequest(edits=tuple(edits), base_problem=base, options=opts)
    )
    try:
        edited = apply_edits(base, edits)
    except (KeyError, TypeError, ValueError) as exc:
        return f"apply_edits raised {type(exc).__name__}: {exc}"
    cold = _cold_canonical(edited, options)
    if warm.canonical_json() != cold:
        strategy = (warm.delta or {}).get("strategy")
        return f"warm ({strategy}) != cold"
    return None


def _shrink_edits(
    base: Problem,
    edits: Sequence[Edit],
    options: Optional[Mapping[str, Any]],
) -> Tuple[Tuple[Edit, ...], bool]:
    """Greedily drop edits while the self-contained failure persists."""
    if _delta_mismatch(base, edits, options) is None:
        # The failure needs the chain's accumulated artifact state and
        # does not reproduce from a fresh prime; keep the full sequence.
        return tuple(edits), False
    current = list(edits)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            if _delta_mismatch(base, candidate, options) is not None:
                current = candidate
                changed = True
                break
    return tuple(current), True


def run_delta_fuzz(
    seed: int,
    problems: int,
    steps: int,
    out_dir: Optional[Path] = None,
    options: Optional[Mapping[str, Any]] = None,
    max_ops: int = 24,
) -> FuzzReport:
    """Differential fuzz of ``Engine.run_delta`` vs cold solves.

    For each of ``problems`` random problems, runs a chain of ``steps``
    delta requests (each re-editing the previous step's edited problem,
    with the previous problem supplied as ``base_problem`` so the chain
    never starves on a missing artifact) and asserts canonical-byte
    parity with a cold solve at every step.
    """
    rng = random.Random(seed)
    report = FuzzReport(mode="delta", seed=seed, problems=problems)
    for problem_index in range(problems):
        engine = Engine()
        base = random_problem(rng, max_ops=max_ops)
        for step_index in range(steps):
            edits = random_edits(rng, base)
            warm = engine.run_delta(
                DeltaRequest(
                    edits=edits,
                    base_problem=base,
                    options=dict(options or {}),
                )
            )
            strategy = str((warm.delta or {}).get("strategy"))
            report.strategies[strategy] = report.strategies.get(strategy, 0) + 1
            if (warm.delta or {}).get("primed"):
                report.strategies["(primed)"] = (
                    report.strategies.get("(primed)", 0) + 1
                )
            report.steps += 1
            edited = apply_edits(base, edits)
            cold = _cold_canonical(edited, options)
            if warm.canonical_json() != cold:
                shrunk_edits, shrunk = _shrink_edits(base, edits, options)
                failure = FuzzFailure(
                    mode="delta",
                    problem_index=problem_index,
                    step_index=step_index,
                    detail=f"strategy {strategy}: warm != cold",
                    edits=shrunk_edits,
                    shrunk=shrunk,
                )
                if out_dir is not None:
                    check = _delta_mismatch(base, shrunk_edits, options)
                    failure.repro_path = str(write_repro_file(
                        out_dir,
                        f"repro-delta-p{problem_index}-s{step_index}.json",
                        mode="delta",
                        seed=seed,
                        problem=base,
                        edits=shrunk_edits,
                        options=options,
                        warm=json.loads(warm.canonical_json()),
                        cold=json.loads(cold),
                        shrunk=shrunk and check is not None,
                    ))
                report.failures.append(failure)
                break  # chain state is suspect; move to the next problem
            base = edited
    return report


# ----------------------------------------------------------------------
# within-solve mode
# ----------------------------------------------------------------------

def _canonical_solve(problem: Problem, opts: DPAllocOptions, mode: str) -> str:
    """Canonical bytes of one ``run_pipeline`` call (or its error)."""
    from repro.io import datapath_to_dict

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
    report = FuzzReport(mode="within-solve", seed=seed, problems=problems)
    for problem_index in range(problems):
        problem = random_problem(rng, max_ops=max_ops)
        opts = _random_options(rng)
        report.steps += 1
        key = f"mode={opts.mode}"
        report.strategies[key] = report.strategies.get(key, 0) + 1
        detail = _within_solve_mismatch(problem, opts)
        if detail is None:
            continue
        failure = FuzzFailure(
            mode="within-solve",
            problem_index=problem_index,
            step_index=0,
            detail=detail,
        )
        if out_dir is not None:
            from dataclasses import asdict

            failure.repro_path = str(write_repro_file(
                out_dir,
                f"repro-within-p{problem_index}.json",
                mode="within-solve",
                seed=seed,
                problem=problem,
                options=asdict(opts),
                warm=json.loads(_canonical_solve(problem, opts, "incremental")),
                cold=json.loads(_canonical_solve(problem, opts, "scratch")),
                shrunk=False,
            ))
        report.failures.append(failure)
    return report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="differential fuzz harness for delta solves"
    )
    parser.add_argument(
        "--mode", choices=("delta", "within-solve"), default="delta"
    )
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument(
        "--problems", type=int, default=50,
        help="random problems per run (delta mode chains steps per problem)",
    )
    parser.add_argument(
        "--steps", type=int, default=10,
        help="delta-mode chain length per problem",
    )
    parser.add_argument(
        "--max-ops", type=int, default=24,
        help="upper bound on random problem size |O|",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=Path("fuzz-repros"),
        help="directory for shrunk failure repro files",
    )
    parser.add_argument(
        "--repro", type=Path, default=None,
        help="re-run one delta-fuzz-repro JSON file instead of fuzzing",
    )
    args = parser.parse_args(argv)

    if args.repro is not None:
        detail = run_repro_file(args.repro)
        if detail is None:
            print(f"{args.repro}: parity holds (fixed?)")
            return 0
        print(f"{args.repro}: still failing -- {detail}")
        return 1

    if args.mode == "delta":
        report = run_delta_fuzz(
            args.seed, args.problems, args.steps,
            out_dir=args.out_dir, max_ops=args.max_ops,
        )
    else:
        report = run_within_solve_fuzz(
            args.seed, args.problems,
            out_dir=args.out_dir, max_ops=args.max_ops,
        )
    print(report.summary())
    for failure in report.failures:
        where = f"problem {failure.problem_index} step {failure.step_index}"
        repro = f" repro: {failure.repro_path}" if failure.repro_path else ""
        print(f"  FAIL {where}: {failure.detail}{repro}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
