"""The allocator's benchmark: one command, seeded workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload binding-heavy --seed 1 --seconds 10 --trace 0

Workloads (why each was chosen is in ``BENCHMARK.json`` and below):

* ``binding-heavy`` -- large TGFF graphs (128-160 ops) at 1.05 x
  lambda_min, solved offline, serially, in-process with no result
  cache.  Few but expensive iterations; the bind pass dominates, and the
  engine, service and fleet layers are idle.  A Bindselect, ``max_chain``
  or ``ChainCache`` change shows here first.
* ``refinement-heavy`` -- the same offline path over mid-size graphs
  (48-96 ops) at lambda_min: many short iterations where schedule and
  refine and the incremental-reuse machinery run every iteration.  A
  change that helps large graphs but adds per-iteration cost shows here.
* ``served-mix`` -- small graphs (16-48 ops) sent over HTTP to ``repro
  fleet`` fronting two worker processes, from two closed-loop clients:
  fresh problems, Zipf-skewed repeats and ``/v1/delta`` deadline edits,
  part of them grouped into ``/v1/batch`` posts.  The fleet, server,
  engine, io and delta layers do most of the work here.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``traced.py``).  Every envelope is checked: ok, valid, and
canonical-byte identical to its in-process oracle; a mismatch counts as
failed and makes the run incorrect (exit status 1).  The last line of
standard output is the result object; the line before it records the
seed, the host and the workload sizes.  ``--scale tiny`` shrinks every
workload to a seconds-long smoke run (used by ``checks.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("binding-heavy", "refinement-heavy", "served-mix")
WORK_DIR = ".perfbench_work"


def host_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed just now.

    Recorded before and after the measurement so a reader can tell a
    slow run from a slow host (shared machines drift by tens of percent).
    """
    began = time.perf_counter()
    sum(i * i for i in range(1_000_000))
    return time.perf_counter() - began


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def measure(args, workdir: Path):
    """Run the workload; returns the :class:`timed.Run` and its metrics."""
    import timed
    import traced

    if args.trace:
        return traced.traced(args.workload, args.seed, args.seconds,
                             args.scale, workdir)
    if args.workload == "served-mix":
        run = timed.served(args.seed, args.seconds, args.scale, workdir)
    else:
        run = timed.offline(args.workload, args.seed, args.seconds, args.scale)
    return run, timed.end_to_end(run)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    probes = [host_probe_s()]
    workdir = ROOT / WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    try:
        run, metrics = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still holds its own subdirectory
    probes.append(host_probe_s())
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         "are not exactly those BENCHMARK.json names")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "host_probe_s": probes,
        **run.info,
        "faults": run.faults[:20],
    }, sort_keys=True))
    result = {
        "correct": not run.faults,
        "attempted": run.attempted,
        "failed": len(run.faults),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
