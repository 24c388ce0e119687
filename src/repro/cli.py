"""Top-level command-line interface: ``python -m repro``.

Subcommands:

* ``list-workloads`` -- the named DSP kernels shipped with the library;
* ``allocate`` -- run one allocator on a named workload or a JSON graph
  and print the datapath report (optionally export JSON / DOT / Verilog;
  ``--trace`` records and prints the solver's per-iteration convergence
  trace, which also rides into the ``--json`` export);
* ``trace`` -- summarise the solver iteration trace stored in a
  datapath / allocation-result / allocation-batch JSON file;
* ``delta`` -- solve an *edited* problem (``--edit latency=40``,
  ``--edit width:op3=8,10``, ``--edit limit:mul=2``): the engine
  applies the edits to the base problem and solves the result like any
  other request, so the output is byte-identical to a cold solve
  (``--url`` sends the request to a running service's
  ``POST /v1/delta`` instead);
* ``compare`` -- run every registered allocator on one problem and
  tabulate areas (infeasible methods are reported per-row; the exit code
  is nonzero only when *every* method fails);
* ``batch`` -- fan several workloads x methods out over the engine
  (process pool or preemptive process-per-run), optionally against an
  on-disk result cache; ``--from-shard`` executes one shard manifest
  instead;
* ``shard`` -- partition a workloads x methods sweep into N shard
  manifests by ``Problem.fingerprint()`` (run each anywhere);
* ``merge`` -- merge per-shard result files back into one
  index-ordered batch result;
* ``cache`` -- inspect / prune / clear an engine result cache;
* ``serve`` -- run one asyncio HTTP/JSON allocation worker
  (``POST /v1/allocate``, ``/v1/batch``, ``/v1/delta``,
  ``GET /v1/healthz``, ``/v1/stats``; see ``docs/service.md``);
* ``fleet`` -- run the fleet coordinator: spawn ``--workers N`` local
  ``serve`` processes (or front externally launched ones with
  ``--worker-url``), route by ``Problem.fingerprint()``, dedup
  fleet-wide, requeue work from dead workers, and shed over-limit
  priority classes with typed 429s (see ``docs/service.md``);
* ``lint`` -- run **reprolint**, the AST-based checker for the repo's
  parity and concurrency contracts (rules RL001..RL005, inline
  suppressions with a reason; see ``docs/static-analysis.md``).

All dispatch goes through the allocator registry
(:mod:`repro.engine`): ``--method`` choices are discovered, never
hard-coded, so strategies registered by plugins appear automatically.

Examples::

    python -m repro list-workloads
    python -m repro allocate fir --relax 0.5
    python -m repro allocate fir --trace --json fir.json
    python -m repro trace fir.json
    python -m repro allocate biquad --method ilp --json out.json
    python -m repro delta fir --cache-dir .cache --edit latency=40
    python -m repro delta fir --edit width:mul2=8,10 --edit limit:mul=2
    python -m repro allocate fir --relax 1.0 --verilog fir.v
    python -m repro compare motivational --relax 1.0 --workers 4
    python -m repro batch fir biquad dct4 --workers 4 --cache-dir .cache
    python -m repro batch fir dct4 --timeout 5 --executor process

Sharded sweep workflow (each shard may run on a different host)::

    python -m repro shard fir biquad dct4 lattice --shards 3 --out-dir shards/
    python -m repro batch --from-shard shards/shard-00.json --json out-00.json
    python -m repro batch --from-shard shards/shard-01.json --json out-01.json
    python -m repro batch --from-shard shards/shard-02.json --json out-02.json
    python -m repro merge out-00.json out-01.json out-02.json --json merged.json

Cache lifecycle::

    python -m repro cache stats .cache
    python -m repro cache prune .cache --max-mb 64
    python -m repro cache clear .cache

Allocation service (worker, fleet, client)::

    python -m repro serve --port 8035 --workers 4 --cache-dir .cache
    python -m repro fleet --port 8040 --workers 4 --shared-cache-dir .store
    python -m repro batch fir biquad --url http://127.0.0.1:8040
    python -m repro allocate fir --url http://127.0.0.1:8040
    python -m repro delta fir --url http://127.0.0.1:8040 --edit latency=40

``allocate``/``batch``/``compare``/``delta`` share one service surface
(``--url``/``--http-timeout``/``--priority``), one engine surface
(``--workers``/``--timeout``/``--executor``) and one cache surface
(``--cache-dir``/``--cache-max-mb``/``--shared-cache-dir``); with
``--url`` the work runs on the remote backend, without it locally,
with byte-identical canonical envelopes either way.

Static analysis (part of the pre-PR checklist)::

    python -m repro lint src/repro
    python -m repro lint --list-rules
    python -m repro lint --explain RL001
"""

from __future__ import annotations

import argparse
import contextlib
import math
import signal
import sys
from typing import Callable, Dict, Iterator, Optional, Tuple

from . import Problem
from .analysis.reporting import format_table, format_trace
from .engine import (
    EXECUTORS,
    PRIORITY_CLASSES,
    AllocationRequest,
    Engine,
    allocator_names,
)
from .gen import workloads
from .io import (
    datapath_to_dict,
    datapath_to_dot,
    graph_from_dict,
    load_json,
    save_json,
)

__all__ = ["main", "WORKLOADS"]

# name -> (graph factory, netlist factory or None)
WORKLOADS: Dict[str, Tuple[Callable, Optional[Callable]]] = {
    "motivational": (
        workloads.motivational_example, workloads.motivational_example_netlist
    ),
    "fir": (workloads.fir_filter, workloads.fir_filter_netlist),
    "biquad": (workloads.iir_biquad, workloads.iir_biquad_netlist),
    "ycbcr": (workloads.rgb_to_ycbcr, workloads.rgb_to_ycbcr_netlist),
    "dct4": (workloads.dct4, workloads.dct4_netlist),
    "lattice": (workloads.lattice_filter, workloads.lattice_filter_netlist),
    "conv3x3": (workloads.conv3x3, workloads.conv3x3_netlist),
    "cmul": (workloads.complex_multiply, workloads.complex_multiply_netlist),
}


def _load_graph(source: str):
    if source in WORKLOADS:
        return WORKLOADS[source][0]()
    try:
        return graph_from_dict(load_json(source))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(
            f"cannot load {source!r}: not a named workload "
            f"({', '.join(sorted(WORKLOADS))}) nor a graph JSON file: {exc}",
            file=sys.stderr,
        )
        raise SystemExit(2) from None


DEFAULT_RELAX = 0.3


def _build_problem(
    workload: str, relax: Optional[float], latency: Optional[int]
) -> Problem:
    # relax=None means "not given on the command line" (so flag-conflict
    # checks can tell); it resolves to DEFAULT_RELAX here.
    if relax is None:
        relax = DEFAULT_RELAX
    graph = _load_graph(workload)
    scratch = Problem(graph, latency_constraint=1_000_000)
    lam_min = scratch.minimum_latency()
    if latency is not None:
        constraint = latency
    else:
        constraint = max(1, int(lam_min * (1.0 + relax)))
    return scratch.with_latency_constraint(constraint)


def _engine(args) -> Engine:
    cache_dir = getattr(args, "cache_dir", None)
    cache_max_mb = getattr(args, "cache_max_mb", None)
    shared_dir = getattr(args, "shared_cache_dir", None)
    if cache_max_mb is not None and cache_dir is None:
        print("--cache-max-mb requires --cache-dir", file=sys.stderr)
        raise SystemExit(2)
    if shared_dir is not None and cache_dir is None:
        print("--shared-cache-dir requires --cache-dir", file=sys.stderr)
        raise SystemExit(2)
    return Engine(
        cache_dir=cache_dir,
        cache_max_mb=cache_max_mb,
        cache_shared_dir=shared_dir,
        executor=getattr(args, "executor", None) or "pool",
    )


def _backend(args):
    """The one :class:`repro.engine.Backend` the command runs against.

    ``--url`` selects a :class:`~repro.service.ServiceClient` (worker
    or fleet coordinator -- same wire surface); otherwise the local
    :class:`Engine`.  Both satisfy ``run``/``run_delta``/``run_batch``
    with identical envelope semantics, so command handlers do not
    branch beyond this point.
    """
    url = getattr(args, "url", None)
    if url:
        from .service import ServiceClient

        return ServiceClient(
            url, timeout=getattr(args, "http_timeout", 600.0)
        )
    return _engine(args)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}"
        )
    return value


def _parse_queue_limit(spec: str):
    """One ``--queue-limit CLASS=N`` specification -> ``(class, n)``."""
    name, sep, value = spec.partition("=")
    if not sep or name not in PRIORITY_CLASSES:
        raise argparse.ArgumentTypeError(
            f"queue limit {spec!r}: expected CLASS=N with CLASS one of "
            f"{', '.join(PRIORITY_CLASSES)}"
        )
    try:
        limit = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"queue limit {spec!r}: bad count {value!r}"
        ) from None
    if limit < 1:
        raise argparse.ArgumentTypeError(
            f"queue limit {spec!r}: count must be >= 1"
        )
    return name, limit


def _cmd_list_workloads(_args) -> int:
    rows = []
    for name, (factory, _) in sorted(WORKLOADS.items()):
        graph = factory()
        muls = sum(1 for op in graph.operations if op.resource_kind == "mul")
        adds = len(graph) - muls
        lam = Problem(graph, latency_constraint=1_000_000).minimum_latency()
        rows.append([name, len(graph), muls, adds, lam])
    print(format_table(
        ["workload", "|O|", "muls", "adds", "lambda_min"], rows,
        title="Named workloads",
    ))
    return 0


def _cmd_allocate(args) -> int:
    problem = _build_problem(args.workload, args.relax, args.latency)
    options = {}
    if args.trace:
        if args.method == "dpalloc":
            options = {"trace": True}
        else:
            print(
                f"--trace: iteration traces are recorded by the dpalloc "
                f"solver only; running {args.method} untraced",
                file=sys.stderr,
            )
    result = _backend(args).run(
        AllocationRequest(
            problem, args.method, options=options,
            priority=getattr(args, "priority", None),
        )
    )
    if not result.ok:
        print(f"{args.method}: {result.error}", file=sys.stderr)
        return 1
    datapath = result.datapath
    print(
        f"workload {args.workload}: |O|={len(problem.graph)}, "
        f"lambda={problem.latency_constraint}"
    )
    print(datapath.summary())
    if result.trace:
        print()
        print(format_trace(result.trace))

    if args.json:
        save_json(datapath_to_dict(datapath), args.json)
        print(f"wrote {args.json}")
    if args.dot:
        from pathlib import Path

        Path(args.dot).write_text(datapath_to_dot(problem.graph, datapath))
        print(f"wrote {args.dot}")
    if args.verilog:
        netlist_factory = WORKLOADS.get(args.workload, (None, None))[1]
        if netlist_factory is None:
            print("--verilog needs a workload with wiring (named kernels)",
                  file=sys.stderr)
            return 1
        from pathlib import Path

        from .rtl import generate_verilog

        design = generate_verilog(netlist_factory(), datapath)
        Path(args.verilog).write_text(design.source)
        print(f"wrote {args.verilog} ({design.unit_count} units)")
    return 0


def _parse_edit(spec: str):
    """One ``--edit`` specification -> a :data:`repro.core.delta.Edit`.

    Forms: ``latency=N``, ``width:OP=W1[,W2,...]``, ``limit:KIND=N`` or
    ``limit:KIND=none`` (clear the kind's resource ceiling).
    """
    from .core.delta import ConstraintEdit, DeadlineEdit, WordlengthEdit

    head, sep, value = spec.partition("=")
    kind, colon, target = head.partition(":")
    try:
        if sep:
            if kind == "latency" and not colon:
                return DeadlineEdit(int(value))
            if kind == "width" and target:
                widths = tuple(int(w) for w in value.split(",") if w)
                if widths:
                    return WordlengthEdit(target, widths)
            if kind == "limit" and target:
                limit = None if value.lower() == "none" else int(value)
                return ConstraintEdit(target, limit)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"edit {spec!r}: bad value {value!r}"
        ) from None
    raise argparse.ArgumentTypeError(
        f"edit {spec!r} is not one of: latency=N, width:OP=W1[,W2,...], "
        f"limit:KIND=N|none"
    )


def _cmd_delta(args) -> int:
    from .core.delta import apply_edits
    from .engine import DeltaRequest

    problem = _build_problem(args.workload, args.relax, args.latency)
    request = DeltaRequest(edits=tuple(args.edit), base_problem=problem)
    result = _backend(args).run_delta(request)
    strategy = (result.delta or {}).get("strategy", "?")
    if not result.ok:
        print(f"delta ({strategy}): {result.error}", file=sys.stderr)
        return 1
    edited = apply_edits(problem, request.edits)
    print(
        f"workload {args.workload}: |O|={len(problem.graph)}, "
        f"lambda={problem.latency_constraint} -> {edited.latency_constraint} "
        f"({len(request.edits)} edit(s))"
    )
    print(result.datapath.summary())
    print(f"delta strategy: {strategy}")
    if args.json:
        from .io import allocation_result_to_dict

        save_json(allocation_result_to_dict(result), args.json)
        print(f"wrote {args.json}")
    return 0


def _result_row(name: str, result) -> list:
    if result.ok:
        dp = result.datapath
        return [name, f"{dp.area:g}", dp.makespan, dp.unit_count()]
    reason = (result.error or "failed").split(":", 1)[0]
    return [name, reason, "-", "-"]


def _cmd_compare(args) -> int:
    problem = _build_problem(args.workload, args.relax, args.latency)
    methods = allocator_names()
    results = _backend(args).run_batch(
        [
            AllocationRequest(
                problem, name, timeout=args.timeout,
                priority=getattr(args, "priority", None),
            )
            for name in methods
        ],
        workers=args.workers,
    )
    rows = [_result_row(name, result) for name, result in zip(methods, results)]
    print(format_table(
        ["method", "area", "latency", "units"], rows,
        title=(
            f"{args.workload}: |O|={len(problem.graph)}, "
            f"lambda={problem.latency_constraint}"
        ),
    ))
    for name, result in zip(methods, results):
        if not result.ok:
            print(f"{name}: {result.error}", file=sys.stderr)
    return 0 if any(result.ok for result in results) else 1


def _sweep_requests(args):
    """Build the workloads x methods request list shared by ``batch``
    and ``shard``; ``None`` after printing an error (exit code 2)."""
    methods = (
        [m.strip() for m in args.methods.split(",") if m.strip()]
        if args.methods
        else allocator_names()
    )
    unknown = [m for m in methods if m not in allocator_names()]
    if unknown:
        print(
            f"unknown methods {unknown}; registered: {allocator_names()}",
            file=sys.stderr,
        )
        return None

    requests = []
    for workload in args.workloads:
        problem = _build_problem(workload, args.relax, args.latency)
        for method in methods:
            requests.append(AllocationRequest(
                problem, method, label=workload, timeout=args.timeout,
                priority=getattr(args, "priority", None),
            ))
    return requests


def _print_results_table(results, title: str) -> None:
    rows = []
    for result in results:
        row = _result_row(result.allocator, result)
        cached = " (cached)" if result.cached else ""
        rows.append([result.label, *row, f"{result.seconds:.3f}s{cached}"])
    print(format_table(
        ["workload", "method", "area", "latency", "units", "time"], rows,
        title=title,
    ))


def _report_failures(results) -> int:
    for result in results:
        if not result.ok:
            print(f"{result.label}/{result.allocator}: {result.error}",
                  file=sys.stderr)
    return 0 if any(result.ok for result in results) else 1


def _cmd_batch(args) -> int:
    if args.from_shard:
        if getattr(args, "url", None):
            print("--from-shard executes locally; it cannot be combined "
                  "with --url", file=sys.stderr)
            return 2
        if args.workloads:
            print("--from-shard replaces the workloads arguments; "
                  "give one or the other", file=sys.stderr)
            return 2
        # The manifest fixes each request's problem, method, options
        # and timeout; refuse flags that would otherwise be silently
        # dropped (execution flags -- --workers/--executor/--cache-* --
        # still apply).
        ignored = [
            flag
            for flag, given in (
                ("--methods", args.methods is not None),
                ("--timeout", args.timeout is not None),
                ("--latency", args.latency is not None),
                ("--relax", args.relax is not None),
            )
            if given
        ]
        if ignored:
            print(
                f"{', '.join(ignored)} cannot be combined with "
                f"--from-shard: the shard manifest already fixes the "
                f"requests (re-run 'shard' to change them)",
                file=sys.stderr,
            )
            return 2
        return _run_shard_file(args)
    if not args.workloads:
        print("batch needs workloads (or --from-shard MANIFEST)",
              file=sys.stderr)
        return 2
    requests = _sweep_requests(args)
    if requests is None:
        return 2
    results = _backend(args).run_batch(requests, workers=args.workers)
    if getattr(args, "url", None):
        title_suffix = f", served by {args.url}"
    else:
        title_suffix = f", {args.workers} workers" if args.workers else ""

    methods = sorted({r.allocator for r in results})
    _print_results_table(results, title=(
        f"batch: {len(args.workloads)} workloads x {len(methods)} methods"
        + title_suffix
    ))
    if args.json:
        from .io import batch_results_to_dict

        save_json(batch_results_to_dict(results), args.json)
        print(f"wrote {args.json}")
    return _report_failures(results)


def _run_shard_file(args) -> int:
    """``batch --from-shard``: execute one shard manifest.

    The manifest's requests carry their own timeouts/options; problem
    flags (``--relax``/``--latency``/``--methods``) do not apply.  The
    ``--json`` output is a ``shard-results`` payload (it keeps original
    request indices) for ``repro merge``.
    """
    from .engine import load_shard_manifest, run_shard

    try:
        manifest = load_shard_manifest(args.from_shard)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(
            f"batch --from-shard: cannot load {args.from_shard!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    payload = run_shard(
        manifest,
        engine=_engine(args),
        workers=args.workers,
    )
    from .io import allocation_result_from_dict

    results = [
        allocation_result_from_dict(entry["result"])
        for entry in payload["results"]
    ]
    _print_results_table(results, title=(
        f"shard {manifest.shard + 1}/{manifest.num_shards}: "
        f"{len(manifest.requests)} of {manifest.total} requests"
    ))
    if args.json:
        save_json(payload, args.json)
        print(f"wrote {args.json}")
    if not results:
        return 0  # an empty shard ran vacuously fine
    return _report_failures(results)


def _cmd_shard(args) -> int:
    requests = _sweep_requests(args)
    if requests is None:
        return 2
    from .engine import write_shard_manifests

    paths = write_shard_manifests(requests, args.shards, args.out_dir)
    from .engine import load_shard_manifest

    rows = [
        [path.name, len(load_shard_manifest(path).requests)]
        for path in paths
    ]
    print(format_table(
        ["manifest", "requests"], rows,
        title=f"{len(requests)} requests over {args.shards} shards "
              f"in {args.out_dir}",
    ))
    print(
        "run each with: python -m repro batch --from-shard "
        f"{args.out_dir}/shard-NN.json --json out-NN.json"
    )
    return 0


def _cmd_merge(args) -> int:
    from .engine import merge_shard_results
    from .io import batch_results_to_dict

    try:
        results = merge_shard_results(load_json(path) for path in args.results)
    except (ValueError, OSError) as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 2
    _print_results_table(results, title=(
        f"merged {len(args.results)} shard files: {len(results)} results"
    ))
    if args.json:
        save_json(batch_results_to_dict(results), args.json)
        print(f"wrote {args.json}")
    return _report_failures(results)


def _cmd_trace(args) -> int:
    """Summarise solver iteration traces stored in a JSON artefact."""
    from .io import allocation_result_from_dict, datapath_from_dict

    try:
        data = load_json(args.file)
    except (OSError, ValueError) as exc:
        print(f"trace: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    kind = data.get("kind") if isinstance(data, dict) else None
    found = []
    try:
        if kind == "datapath":
            datapath = datapath_from_dict(data)
            found.append((datapath.method, datapath.trace))
        elif kind == "allocation-result":
            result = allocation_result_from_dict(data)
            found.append((result.label or result.allocator, result.trace))
        elif kind == "allocation-batch":
            for entry in data.get("results", []):
                result = allocation_result_from_dict(entry)
                label = f"{result.label or '-'}/{result.allocator}"
                found.append((label, result.trace))
        else:
            print(
                f"trace: {args.file} holds no datapath / allocation-result "
                f"/ allocation-batch payload (kind={kind!r})",
                file=sys.stderr,
            )
            return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"trace: malformed payload in {args.file}: {exc}", file=sys.stderr)
        return 2
    traced = [(label, events) for label, events in found if events]
    if not traced:
        print(
            "trace: no iteration traces recorded -- allocate with --trace "
            "(or engine options={'trace': True}) to capture them",
            file=sys.stderr,
        )
        return 1
    for index, (label, events) in enumerate(traced):
        if index:
            print()
        last = events[-1]
        print(format_trace(
            events,
            title=(
                f"{label}: {len(events)} iterations -> makespan "
                f"{last.makespan}, area {last.area:g}"
            ),
        ))
    return 0


@contextlib.contextmanager
def _until_stopped(stopped: str) -> Iterator[None]:
    """Run a server until Ctrl-C or SIGTERM, then let its cleanup run.

    Supervisors (systemd, k8s, a fleet's ``WorkerPool``) stop servers
    with SIGTERM, whose default action ends the process before any
    ``finally`` runs: spawned workers and in-flight solve processes
    would keep running, reparented to init (the OS does not kill
    orphans).  Inside this block SIGTERM raises ``KeyboardInterrupt``
    like Ctrl-C, the block unwinds, and ``stopped`` goes to stderr.
    """

    def _interrupt(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        yield
    except KeyboardInterrupt:
        print(stopped, file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_serve(args) -> int:
    """Run the asyncio HTTP/JSON allocation service until stopped."""
    import asyncio
    import multiprocessing

    from .service import AllocationServer

    # _engine() validates the flag combinations (e.g. --cache-max-mb
    # without --cache-dir exits 2 with a message, not a traceback).
    engine = _engine(args)

    async def _serve() -> None:
        server = AllocationServer(
            engine,
            host=args.host,
            port=args.port,
            max_concurrency=args.workers,
            default_timeout=args.default_timeout,
        )
        await server.start()
        print(
            f"repro service listening on {server.url} "
            f"(workers={args.workers}, executor={args.executor}, "
            f"cache={args.cache_dir or 'off'})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    with _until_stopped("repro service stopped"):
        try:
            asyncio.run(_serve())
        finally:
            # A solve still in flight runs in its own process, and the
            # thread waiting on it would hold the interpreter open.
            for child in multiprocessing.active_children():
                child.kill()
    return 0


def _cmd_fleet(args) -> int:
    """Run the fleet coordinator (spawning workers unless given URLs)."""
    import asyncio

    from .service import FleetCoordinator
    from .service.fleet import WorkerPool

    queue_limits = dict(args.queue_limit or [])

    async def _run(urls) -> None:
        coordinator = FleetCoordinator(
            urls,
            host=args.host,
            port=args.port,
            shared_dir=args.shared_cache_dir,
            queue_limits=queue_limits,
            max_attempts=args.max_attempts,
            worker_timeout=args.worker_timeout,
        )
        await coordinator.start()
        print(
            f"repro fleet listening on {coordinator.url} "
            f"fronting {len(urls)} worker(s) "
            f"(store={args.shared_cache_dir or 'off'})",
            flush=True,
        )
        try:
            await coordinator.serve_forever()
        finally:
            await coordinator.stop()

    with _until_stopped("repro fleet stopped"), \
            contextlib.ExitStack() as stack:
        if args.worker_url:
            urls = list(args.worker_url)
        else:
            pool = stack.enter_context(WorkerPool(
                args.workers,
                shared_dir=args.shared_cache_dir,
                executor=args.executor,
                max_concurrency=args.worker_concurrency,
                default_timeout=args.default_timeout,
            ))
            urls = pool.urls
        asyncio.run(_run(urls))
    return 0


def _cmd_lint(args) -> int:
    """Run reprolint; heavy lifting lives in repro.devtools.lint."""
    from .devtools.lint import run_from_args

    return run_from_args(args)


def _cmd_cache(args) -> int:
    import json as json_module

    engine = Engine(cache_dir=args.cache_dir)
    if args.action == "stats":
        stats = engine.cache_stats()
        print(json_module.dumps(stats, indent=2, sort_keys=True))
        if stats and stats.get("stale_dropped"):
            print(
                f"note: skipped {stats['stale_dropped']} manifest entries "
                f"whose files were deleted behind the cache's back",
                file=sys.stderr,
            )
        return 0
    if args.action == "prune":
        if args.max_mb is None:
            print("cache prune needs --max-mb", file=sys.stderr)
            return 2
        try:
            report = engine.prune_cache(args.max_mb)
        except ValueError as exc:
            print(f"cache prune: {exc}", file=sys.stderr)
            return 2
        print(
            f"evicted {report['evicted']} entries "
            f"({report['reclaimed_bytes']} bytes), "
            f"{report['remaining']} remaining"
        )
        return 0
    removed = engine.clear_cache()
    print(f"removed {removed} entries from {args.cache_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Heuristic datapath allocation for multiple wordlength systems",
        epilog="Full subcommand documentation with copy-pasteable "
               "invocations: docs/cli.md (architecture notes: "
               "docs/architecture.md; HTTP service endpoints and wire "
               "schema: docs/service.md; reprolint rule catalogue and "
               "suppression workflow: docs/static-analysis.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="list named DSP kernels")

    methods = allocator_names()

    # ------------------------------------------------------------------
    # shared flag surfaces (argparse parents): every command that can
    # execute allocation work advertises the same service, cache and
    # engine flags, defined exactly once.
    # ------------------------------------------------------------------
    service_parent = argparse.ArgumentParser(add_help=False)
    group = service_parent.add_argument_group("service")
    group.add_argument(
        "--url", default=None,
        help="run against a repro service at this base URL -- a single "
             "worker ('serve') or a fleet coordinator ('fleet') -- "
             "instead of solving locally",
    )
    group.add_argument("--http-timeout", type=_positive_float, default=600.0,
                       help="HTTP socket timeout in seconds (default 600)")
    group.add_argument(
        "--priority", choices=PRIORITY_CLASSES, default=None,
        help="admission class for fleet coordinators "
             "(default 'normal'; ignored by local runs)",
    )

    cache_parent = argparse.ArgumentParser(add_help=False)
    group = cache_parent.add_argument_group("result cache")
    group.add_argument("--cache-dir", default=None,
                       help="directory for the on-disk result cache")
    group.add_argument("--cache-max-mb", type=float, default=None,
                       help="LRU-evict the cache beyond this size "
                            "(needs --cache-dir)")
    group.add_argument(
        "--shared-cache-dir", default=None,
        help="shared backing store the cache spills to and reads "
             "through on local misses (fleet topology; needs "
             "--cache-dir)",
    )

    engine_parent = argparse.ArgumentParser(add_help=False)
    group = engine_parent.add_argument_group("engine")
    group.add_argument("--workers", type=_positive_int, default=None,
                       help="parallel width (default: serial)")
    group.add_argument("--timeout", type=_positive_float, default=None,
                       help="per-run wall-clock budget in seconds")
    group.add_argument(
        "--executor", choices=EXECUTORS, default="pool",
        help="fresh-run execution mode: 'pool' (process pool; a "
             "timeout abandons the worker) or 'process' (one "
             "killable process per run; timeout is a hard "
             "per-solve deadline)",
    )

    def add_problem_args(cmd, workload_nargs=None):
        if workload_nargs:
            cmd.add_argument(
                "workloads", nargs=workload_nargs,
                help=f"named workloads ({', '.join(sorted(WORKLOADS))}) "
                     f"or JSON graph files",
            )
        else:
            cmd.add_argument(
                "workload",
                help=f"named workload ({', '.join(sorted(WORKLOADS))}) "
                     f"or JSON graph file",
            )
        cmd.add_argument(
            "--relax", type=float, default=None,
            help=f"relaxation over lambda_min (default {DEFAULT_RELAX})",
        )
        cmd.add_argument("--latency", type=_positive_int, default=None,
                         help="absolute latency constraint (overrides --relax)")

    cmd = sub.add_parser(
        "allocate", help="allocate one workload with one method",
        parents=[cache_parent, service_parent],
    )
    add_problem_args(cmd)
    cmd.add_argument("--method", choices=methods, default="dpalloc")
    cmd.add_argument("--trace", action="store_true",
                     help="record and print the solver's per-iteration "
                          "convergence trace (dpalloc; rides into --json)")
    cmd.add_argument("--json", help="write the datapath as JSON")
    cmd.add_argument("--dot", help="write a Graphviz rendering")
    cmd.add_argument("--verilog", help="write structural Verilog")

    cmd = sub.add_parser(
        "delta",
        help="solve an edited problem (see docs/architecture.md)",
        parents=[cache_parent, service_parent],
    )
    add_problem_args(cmd)
    cmd.add_argument(
        "--edit", action="append", default=[], metavar="SPEC",
        type=_parse_edit,
        help="edit to apply, in order (repeatable): latency=N, "
             "width:OP=W1[,W2,...], or limit:KIND=N|none",
    )
    cmd.add_argument("--json", help="write the result envelope as JSON")

    cmd = sub.add_parser(
        "trace",
        help="summarise the solver iteration trace in a JSON artefact "
             "(datapath, allocation-result, or allocation-batch)",
    )
    cmd.add_argument("file", help="JSON file written by allocate/batch/merge")

    cmd = sub.add_parser(
        "compare", help="run every registered allocator",
        parents=[cache_parent, engine_parent, service_parent],
    )
    add_problem_args(cmd)

    cmd = sub.add_parser(
        "batch", help="run workloads x methods through the engine "
                      "(or a service/fleet with --url)",
        parents=[cache_parent, engine_parent, service_parent],
    )
    add_problem_args(cmd, workload_nargs="*")
    cmd.add_argument("--methods", default=None,
                     help=f"comma-separated subset of: {', '.join(methods)}")
    cmd.add_argument("--from-shard", default=None, metavar="MANIFEST",
                     help="execute one shard manifest written by 'shard' "
                          "instead of workloads; --json then emits a "
                          "shard-results payload for 'merge'")
    cmd.add_argument("--json", help="write the full result envelopes as JSON")

    cmd = sub.add_parser(
        "shard",
        help="partition a workloads x methods sweep into N shard manifests "
             "(deterministic on Problem.fingerprint())",
        parents=[cache_parent],
    )
    add_problem_args(cmd, workload_nargs="+")
    cmd.add_argument("--methods", default=None,
                     help=f"comma-separated subset of: {', '.join(methods)}")
    cmd.add_argument("--timeout", type=_positive_float, default=None,
                     help="per-run wall-clock budget baked into the manifests")
    cmd.add_argument("--shards", type=_positive_int, required=True,
                     help="number of shard manifests to write")
    cmd.add_argument("--out-dir", required=True,
                     help="directory for the shard-NN.json manifests")

    cmd = sub.add_parser(
        "merge",
        help="merge shard result files back into one batch result",
    )
    cmd.add_argument("results", nargs="+",
                     help="shard-results JSON files (from batch --from-shard)")
    cmd.add_argument("--json", help="write the merged allocation-batch JSON")

    cmd = sub.add_parser(
        "lint",
        help="run reprolint, the AST-based parity/concurrency contract "
             "checker (see docs/static-analysis.md)",
    )
    from .devtools.lint import add_lint_arguments

    add_lint_arguments(cmd)

    cmd = sub.add_parser("cache", help="inspect or manage a result cache")
    cmd.add_argument("action", choices=("stats", "prune", "clear"))
    cmd.add_argument("cache_dir", help="the cache directory")
    cmd.add_argument("--max-mb", type=float, default=None,
                     help="size budget for 'prune'")

    cmd = sub.add_parser(
        "serve",
        help="run one async HTTP/JSON allocation worker "
             "(see docs/service.md)",
        parents=[cache_parent],
    )
    cmd.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    cmd.add_argument("--port", type=int, default=8035,
                     help="TCP port (default 8035; 0 picks a free port)")
    cmd.add_argument("--workers", type=_positive_int, default=4,
                     help="max concurrent solves (default 4)")
    cmd.add_argument(
        "--executor", choices=EXECUTORS, default="process",
        help="fresh-run execution mode (default 'process': one killable "
             "worker process per solve, so hung solves cannot pile up)",
    )
    cmd.add_argument("--timeout", dest="default_timeout", type=_positive_float,
                     default=None,
                     help="per-solve budget for requests without their own")

    cmd = sub.add_parser(
        "fleet",
        help="run the fleet coordinator over N workers: fingerprint "
             "routing, fleet-wide dedup, requeue, admission control "
             "(see docs/service.md)",
    )
    cmd.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    cmd.add_argument("--port", type=int, default=8040,
                     help="TCP port (default 8040; 0 picks a free port)")
    cmd.add_argument("--workers", type=_positive_int, default=4,
                     help="local 'serve' worker processes to spawn "
                          "(default 4; ignored with --worker-url)")
    cmd.add_argument("--worker-url", action="append", default=[],
                     metavar="URL",
                     help="front an externally launched worker at URL "
                          "(repeatable; suppresses spawning)")
    cmd.add_argument("--shared-cache-dir", default=None,
                     help="shared result store every spawned worker "
                          "spills to and the coordinator reads through")
    cmd.add_argument("--queue-limit", action="append", default=[],
                     metavar="CLASS=N", type=_parse_queue_limit,
                     help="admission bound for a priority class "
                          f"({', '.join(PRIORITY_CLASSES)}; repeatable)")
    cmd.add_argument("--max-attempts", type=_positive_int, default=3,
                     help="forward attempts per request before a typed "
                          "503 (default 3)")
    cmd.add_argument("--worker-timeout", type=_positive_float, default=600.0,
                     help="per-forward socket budget in seconds "
                          "(default 600); a hung worker is cut off "
                          "here and the request requeued")
    cmd.add_argument("--worker-concurrency", type=_positive_int, default=4,
                     help="max concurrent solves per spawned worker "
                          "(default 4)")
    cmd.add_argument(
        "--executor", choices=EXECUTORS, default="process",
        help="execution mode for spawned workers (default 'process')",
    )
    cmd.add_argument("--timeout", dest="default_timeout", type=_positive_float,
                     default=None,
                     help="per-solve budget for spawned workers' "
                          "requests without their own")

    args = parser.parse_args(argv)
    handlers = {
        "list-workloads": _cmd_list_workloads,
        "allocate": _cmd_allocate,
        "delta": _cmd_delta,
        "compare": _cmd_compare,
        "batch": _cmd_batch,
        "shard": _cmd_shard,
        "merge": _cmd_merge,
        "cache": _cmd_cache,
        "lint": _cmd_lint,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "fleet": _cmd_fleet,
    }
    handler = handlers[args.command]
    if not getattr(args, "url", None):
        return handler(args)
    from .service import ServiceError

    try:
        return handler(args)
    except ServiceError as exc:
        print(f"{args.command} --url failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
