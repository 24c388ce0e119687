"""Regenerate ``pool.json``: the candidate graphs of the offline workloads.

Solve time per TGFF graph varies several-fold at one size (a 128-op graph
at 1.05 x lambda_min takes 0.5 s or 3.5 s depending on how many
refinements it needs), so a handful of freshly drawn graphs per run
would make ``throughput_rps`` and the latency percentiles depend more on
the seed than on the code.  The offline workloads therefore draw their
graphs from a committed pool of candidates whose reference solve time
lies in a narrow band; ``--seed`` picks which candidates a run solves.

Each candidate is ``build_case(ops, 0, relaxation, base_seed=base_seed)``
and records its reference solve time (the fastest of ``--repeats``
serial ``Engine.run`` calls on the calibrating host), its exact
iteration count and its datapath area.  Only the time is
host-dependent; the run uses it to keep each seed's batch comparable,
never as a measured value.

Host speed drifts by tens of percent over seconds on a shared machine,
so the committed pool was made in three steps: one solve per candidate,
then ``--refine 0.35 --repeats 2`` to re-time every candidate within 35%
of the median twice more, then ``--refine 0.15 --repeats 2`` for the
candidates nearest the median, keeping each one's fastest reading.

Run from the repository root::

    python3 perfbench/calibrate.py [--repeats 1]
    python3 perfbench/calibrate.py --refine 0.35 --repeats 2
    python3 perfbench/calibrate.py --refine 0.15 --repeats 2
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.engine import AllocationRequest, Engine  # noqa: E402
from repro.experiments import build_case  # noqa: E402

POOL_PATH = HERE / "pool.json"

#: workload -> (graph sizes, base seeds per size, relaxation over lambda_min)
FAMILIES = {
    "binding-heavy": ((128, 136, 144, 152, 160), range(1, 37), 0.05),
    "refinement-heavy": ((48, 64, 80, 96), range(1, 61), 0.0),
}


def calibrate(name: str, repeats: int) -> dict:
    sizes, seeds, relaxation = FAMILIES[name]
    candidates = []
    for ops in sizes:
        for base_seed in seeds:
            problem = build_case(ops, 0, relaxation, base_seed=base_seed).problem
            best = float("inf")
            result = None
            for _ in range(repeats):
                began = time.perf_counter()
                result = Engine().run(AllocationRequest(problem, "dpalloc"))
                best = min(best, time.perf_counter() - began)
            assert result is not None
            if not result.ok:
                continue  # a candidate the solver cannot serve is never drawn
            candidates.append({
                "ops": ops,
                "base_seed": base_seed,
                "ref_ms": round(best * 1e3, 1),
                "iterations": result.iterations,
                "area": result.datapath.area,
            })
            print(f"{name} ops={ops} base_seed={base_seed} "
                  f"{best * 1e3:.0f} ms {result.iterations} it", flush=True)
    return {"relaxation": relaxation, "candidates": candidates}


def refine(name: str, family: dict, near: float, repeats: int) -> dict:
    """Re-time candidates near the median; keep each one's fastest time."""
    centre = statistics.median(c["ref_ms"] for c in family["candidates"])
    for candidate in family["candidates"]:
        if abs(candidate["ref_ms"] - centre) > near * centre:
            continue
        problem = build_case(candidate["ops"], 0, family["relaxation"],
                             base_seed=candidate["base_seed"]).problem
        for _ in range(repeats):
            began = time.perf_counter()
            Engine().run(AllocationRequest(problem, "dpalloc"))
            candidate["ref_ms"] = min(
                candidate["ref_ms"], round((time.perf_counter() - began) * 1e3, 1))
        print(f"{name} ops={candidate['ops']} base_seed={candidate['base_seed']} "
              f"{candidate['ref_ms']:.0f} ms", flush=True)
    return family


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--refine", type=float, default=None, metavar="NEAR",
                        help="re-time the existing pool's candidates within "
                             "NEAR of the median instead of rebuilding it")
    args = parser.parse_args(argv)
    pool = json.loads(POOL_PATH.read_text()) if POOL_PATH.exists() else {}
    for name in FAMILIES:
        if args.refine is not None:
            pool[name] = refine(name, pool[name], args.refine, args.repeats)
        else:
            pool[name] = calibrate(name, args.repeats)
    POOL_PATH.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    print(f"wrote {POOL_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
