#!/usr/bin/env python
"""CI regression gate over the benchmark reports (the perf trajectory).

Compares freshly-generated ``BENCH_engine.json`` / ``BENCH_solver.json``
/ ``BENCH_micro.json`` / ``BENCH_delta.json`` against the committed
baselines and fails when the trajectory regresses:

* **solver families** (``refinement-heavy``, ``binding-heavy``): the
  incremental/scratch speedup must stay >= ``--min-family-ratio``
  (default 1.2 -- incremental must actively beat scratch, not merely
  tie it; raised from 1.0 when the PR-8 kernel rewrites lifted both
  committed families well above 2.6x) *and* must not fall below
  ``baseline * (1 - tolerance)``;
* **iteration parity**: for every workload-family case label present in
  both reports, the solver's iteration count must match the baseline
  exactly (the solver is deterministic -- any drift means the search
  path changed);
* **envelope identity**: every report's ``results_identical`` flag must
  hold (parallel/cached/incremental/served results byte-identical);
* **cache hits**: the engine's warm-cache speedup must stay above an
  absolute floor (wall-clock ratios across CI hosts are too noisy for a
  relative bound; serving a hit thousands of times faster than solving
  degrades to "merely" ``--min-hit-speedup``x before the gate trips);
* **kernel speedups**: every ``bench_micro.py`` kernel (``max_chain``,
  ``cover_probe``, ``tracker_ops``) must beat its in-process reference
  implementation by at least ``--min-kernel-ratio`` (default 1.0 -- the
  optimised kernel may never lose to the formulation it replaced) *and*
  must not fall below ``baseline * (1 - tolerance)``;
* **delta warm starts** (``BENCH_delta.json``): every warm single-edit
  re-solve must be canonical-byte identical to its cold counterpart
  (a break fails the gate with the path of the replayable repro file
  ``bench_delta.py`` wrote), the warm/cold speedup must stay >=
  ``--min-delta-ratio`` (default 2.0) and >= ``baseline * (1 -
  tolerance)``, and per-case cold iteration counts must match the
  committed baseline exactly.

The served path (``repro fleet`` over its workers) is measured and
byte-checked by ``perfbench/run.py --workload served-mix``, not here.

Relative *wall-clock* comparisons between the committed baseline (dev
container) and the CI host are intentionally avoided everywhere except
the dimensionless ratios above: those are measured within one host, so
they transfer.

Run with (CI copies the committed baselines aside first)::

    python tools/check_bench.py --baseline-dir /tmp/bench-baselines --fresh-dir .

Exit status: 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPORTS = ("engine", "solver", "micro", "delta")
FILENAMES = {name: f"BENCH_{name}.json" for name in REPORTS}


class Gate:
    """Collects [ok]/[FAIL] check lines; remembers whether any failed."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.failed = False

    def check(self, ok: bool, label: str, detail: str) -> None:
        status = "ok" if ok else "FAIL"
        if not ok:
            self.failed = True
        self.lines.append(f"[{status}] {label}: {detail}")

    def note(self, text: str) -> None:
        self.lines.append(f"[--] {text}")


def load_report(path: Path, expected_kind: str) -> Dict[str, Any]:
    data = json.loads(path.read_text())
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind != expected_kind:
        raise ValueError(f"{path}: expected kind {expected_kind!r}, got {kind!r}")
    return data


def check_engine(gate: Gate, baseline: Dict, fresh: Dict, args) -> None:
    gate.check(
        fresh.get("results_identical") is True,
        "engine.results_identical",
        "serial/parallel/cached envelopes byte-identical",
    )
    gate.check(
        int(fresh.get("cases", 0)) >= 1,
        "engine.cases",
        f"{fresh.get('cases')} sweep cases ran",
    )
    hit_speedup = float(fresh.get("cache", {}).get("hit_speedup", 0.0))
    gate.check(
        hit_speedup >= args.min_hit_speedup,
        "engine.cache_hit_speedup",
        f"{hit_speedup:g}x (floor {args.min_hit_speedup:g}x; "
        f"baseline {baseline.get('cache', {}).get('hit_speedup', '?')}x)",
    )


def check_solver(gate: Gate, baseline: Dict, fresh: Dict, args) -> None:
    gate.check(
        fresh.get("results_identical") is True,
        "solver.results_identical",
        "incremental results byte-identical to scratch",
    )
    fresh_families = {w["name"]: w for w in fresh.get("workloads", [])}
    baseline_iterations: Dict[str, int] = {}
    for family in baseline.get("workloads", []):
        name = family["name"]
        for case in family.get("cases", []):
            baseline_iterations[f"{name}/{case['label']}"] = case["iterations"]
        fresh_family = fresh_families.get(name)
        if fresh_family is None:
            gate.check(
                False, f"solver.{name}", "family missing from fresh report"
            )
            continue
        ratio = float(fresh_family.get("speedup", 0.0))
        floor = max(
            args.min_family_ratio,
            float(family.get("speedup", 0.0)) * (1.0 - args.tolerance),
        )
        gate.check(
            ratio >= floor,
            f"solver.{name}.speedup",
            f"incremental/scratch {ratio:g}x "
            f"(floor {floor:g}x = max({args.min_family_ratio:g}, "
            f"baseline {family.get('speedup')}x - {args.tolerance:.0%}))",
        )

    # Families without a committed baseline (just added to the bench)
    # still get the hard floor -- "incremental may never lose to
    # scratch" must hold from a family's first CI run, not from its
    # first committed baseline.
    baseline_names = {w["name"] for w in baseline.get("workloads", [])}
    for name, fresh_family in fresh_families.items():
        if name in baseline_names:
            continue
        ratio = float(fresh_family.get("speedup", 0.0))
        gate.check(
            ratio >= args.min_family_ratio,
            f"solver.{name}.speedup",
            f"incremental/scratch {ratio:g}x "
            f"(floor {args.min_family_ratio:g}x; new family, no "
            f"committed baseline -- regenerate BENCH_solver.json)",
        )

    drifted: List[str] = []
    seen: set = set()
    for name, fresh_family in fresh_families.items():
        for case in fresh_family.get("cases", []):
            key = f"{name}/{case['label']}"
            expected = baseline_iterations.get(key)
            if expected is None:
                continue  # new case: nothing committed to drift from
            seen.add(key)
            if case["iterations"] != expected:
                drifted.append(
                    f"{key}: {expected} -> {case['iterations']}"
                )
    # A smoke run (REPRO_SAMPLES=1) legitimately covers a subset of the
    # committed grid -- but zero overlap means the gate compared
    # nothing (renamed cases / changed grid), which must not pass as
    # parity; partial coverage is surfaced, not failed.
    uncovered = len(baseline_iterations) - len(seen)
    if uncovered and baseline_iterations:
        gate.note(
            f"solver.iteration_parity: {uncovered} of "
            f"{len(baseline_iterations)} committed case labels not in "
            f"the fresh report (smaller smoke grid)"
        )
    if baseline_iterations and not seen:
        gate.check(
            False, "solver.iteration_parity",
            "no case labels in common with the committed baselines -- "
            "grid renamed? regenerate and commit BENCH_solver.json",
        )
    else:
        gate.check(
            not drifted,
            "solver.iteration_parity",
            (
                f"{len(seen)} case labels match the committed "
                f"iteration counts"
                if not drifted
                else f"iteration counts drifted: {', '.join(drifted)}"
            ),
        )


def check_micro(gate: Gate, baseline: Dict, fresh: Dict, args) -> None:
    gate.check(
        fresh.get("results_identical") is True,
        "micro.results_identical",
        "every kernel's outputs match its reference implementation",
    )
    baseline_kernels = {
        k["name"]: k for k in baseline.get("kernels", [])
    }
    fresh_kernels = {k["name"]: k for k in fresh.get("kernels", [])}
    for name in sorted(baseline_kernels.keys() | fresh_kernels.keys()):
        fresh_kernel = fresh_kernels.get(name)
        if fresh_kernel is None:
            gate.check(
                False, f"micro.{name}", "kernel missing from fresh report"
            )
            continue
        ratio = float(fresh_kernel.get("speedup", 0.0))
        committed = baseline_kernels.get(name)
        if committed is None:
            floor = args.min_kernel_ratio
            detail = (
                f"kernel/reference {ratio:g}x (floor "
                f"{floor:g}x; new kernel, no committed baseline -- "
                f"regenerate BENCH_micro.json)"
            )
        else:
            floor = max(
                args.min_kernel_ratio,
                float(committed.get("speedup", 0.0)) * (1.0 - args.tolerance),
            )
            detail = (
                f"kernel/reference {ratio:g}x "
                f"(floor {floor:g}x = max({args.min_kernel_ratio:g}, "
                f"baseline {committed.get('speedup')}x - "
                f"{args.tolerance:.0%}))"
            )
        gate.check(ratio >= floor, f"micro.{name}.speedup", detail)


def check_delta(gate: Gate, baseline: Dict, fresh: Dict, args) -> None:
    failures = fresh.get("parity_failures") or []
    gate.check(
        fresh.get("results_identical") is True and not failures,
        "delta.results_identical",
        (
            "warm re-solves byte-identical to cold solves"
            if not failures
            else "PARITY BROKEN -- replayable repro file(s): "
            + ", ".join(f["repro"] for f in failures)
        ),
    )
    baseline_families = {w["name"]: w for w in baseline.get("workloads", [])}
    fresh_families = {w["name"]: w for w in fresh.get("workloads", [])}
    for name in sorted(baseline_families.keys() | fresh_families.keys()):
        fresh_family = fresh_families.get(name)
        if fresh_family is None:
            gate.check(
                False, f"delta.{name}", "family missing from fresh report"
            )
            continue
        ratio = float(fresh_family.get("speedup", 0.0))
        committed = baseline_families.get(name)
        if committed is None:
            floor = args.min_delta_ratio
            detail = (
                f"warm/cold {ratio:g}x (floor {floor:g}x; new family, no "
                f"committed baseline -- regenerate BENCH_delta.json)"
            )
        else:
            floor = max(
                args.min_delta_ratio,
                float(committed.get("speedup", 0.0)) * (1.0 - args.tolerance),
            )
            detail = (
                f"warm/cold {ratio:g}x "
                f"(floor {floor:g}x = max({args.min_delta_ratio:g}, "
                f"baseline {committed.get('speedup')}x - "
                f"{args.tolerance:.0%}))"
            )
        gate.check(ratio >= floor, f"delta.{name}.speedup", detail)

    # Cold iteration counts are deterministic: any drift vs the
    # committed baseline means the solver's search path changed.
    baseline_iterations = {
        f"{w['name']}/{c['label']}": c["iterations"]
        for w in baseline.get("workloads", [])
        for c in w.get("cases", [])
    }
    drifted: List[str] = []
    seen: set = set()
    for name, fresh_family in fresh_families.items():
        for case in fresh_family.get("cases", []):
            key = f"{name}/{case['label']}"
            expected = baseline_iterations.get(key)
            if expected is None:
                continue
            seen.add(key)
            if case["iterations"] != expected:
                drifted.append(f"{key}: {expected} -> {case['iterations']}")
    uncovered = len(baseline_iterations) - len(seen)
    if uncovered and baseline_iterations:
        gate.note(
            f"delta.iteration_parity: {uncovered} of "
            f"{len(baseline_iterations)} committed case labels not in "
            f"the fresh report (smaller smoke grid)"
        )
    if baseline_iterations and not seen:
        gate.check(
            False, "delta.iteration_parity",
            "no case labels in common with the committed baselines -- "
            "grid renamed? regenerate and commit BENCH_delta.json",
        )
    else:
        gate.check(
            not drifted,
            "delta.iteration_parity",
            (
                f"{len(seen)} case labels match the committed "
                f"iteration counts"
                if not drifted
                else f"iteration counts drifted: {', '.join(drifted)}"
            ),
        )


CHECKERS = {
    "engine": ("bench-engine", check_engine),
    "solver": ("bench-solver", check_solver),
    "micro": ("bench-micro", check_micro),
    "delta": ("bench-delta", check_delta),
}


def resolve_pair(
    name: str, args
) -> Tuple[Optional[Path], Optional[Path]]:
    baseline = getattr(args, f"baseline_{name}")
    fresh = getattr(args, f"fresh_{name}")
    if baseline is None and args.baseline_dir is not None:
        baseline = args.baseline_dir / FILENAMES[name]
    if fresh is None and args.fresh_dir is not None:
        fresh = args.fresh_dir / FILENAMES[name]
    return baseline, fresh


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", type=Path, default=None,
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--fresh-dir", type=Path, default=None,
                        help="directory holding the freshly generated reports")
    for name in REPORTS:
        parser.add_argument(f"--baseline-{name}", type=Path, default=None,
                            help=f"explicit baseline {FILENAMES[name]}")
        parser.add_argument(f"--fresh-{name}", type=Path, default=None,
                            help=f"explicit fresh {FILENAMES[name]}")
    parser.add_argument(
        "--tolerance", type=float, default=0.45,
        help="allowed relative drop of a family's incremental/scratch "
             "speedup vs its committed baseline (default 0.45)",
    )
    parser.add_argument(
        "--min-family-ratio", type=float, default=1.2,
        help="hard floor for every family's incremental/scratch speedup "
             "(default 1.2: incremental must actively beat scratch; "
             "committed baselines sit above 2.6x)",
    )
    parser.add_argument(
        "--min-hit-speedup", type=float, default=25.0,
        help="hard floor for the engine cache's warm-hit speedup "
             "(default 25x)",
    )
    parser.add_argument(
        "--min-delta-ratio", type=float, default=2.0,
        help="hard floor for the warm/cold delta re-solve speedup on "
             "every family (default 2.0: a warm single-edit re-solve "
             "must at least halve the cold solve time)",
    )
    parser.add_argument(
        "--min-kernel-ratio", type=float, default=1.0,
        help="hard floor for every micro-bench kernel's speedup over "
             "its reference implementation (default 1.0: the optimised "
             "kernel may never lose to the formulation it replaced)",
    )
    args = parser.parse_args(argv)

    gate = Gate()
    compared = 0
    for name in REPORTS:
        baseline_path, fresh_path = resolve_pair(name, args)
        expected_kind, checker = CHECKERS[name]
        if baseline_path is None and fresh_path is None:
            gate.note(f"{name}: no paths given, skipped")
            continue
        missing = [
            str(p) for p in (baseline_path, fresh_path)
            if p is None or not p.is_file()
        ]
        if missing:
            gate.check(
                False, f"{name}.reports",
                f"missing report file(s): {', '.join(missing)}",
            )
            continue
        try:
            baseline = load_report(baseline_path, expected_kind)
            fresh = load_report(fresh_path, expected_kind)
        except (OSError, ValueError) as exc:
            gate.check(False, f"{name}.reports", str(exc))
            continue
        checker(gate, baseline, fresh, args)
        compared += 1

    if compared == 0 and not gate.failed:
        print("check_bench: nothing to compare "
              "(give --baseline-dir/--fresh-dir or explicit paths)",
              file=sys.stderr)
        return 2
    print("\n".join(gate.lines))
    if gate.failed:
        print("\ncheck_bench: perf trajectory REGRESSED", file=sys.stderr)
        return 1
    print(f"\ncheck_bench: {compared} reports within the gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
