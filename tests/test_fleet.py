"""Tests for the fleet coordinator: routing, dedup, requeue, admission.

The ISSUE's failure-mode cases are covered explicitly: killing a worker
mid-batch must requeue its in-flight work onto the survivors with
byte-identical envelopes and zero lost requests, and saturating a
priority class must shed with a typed 429 and accurate shed counters.
"""

import asyncio
import json
import threading
import time

import pytest

from repro import Problem
from repro.engine import (
    AllocationRequest,
    Engine,
    get_allocator,
    register_allocator,
    unregister_allocator,
)
from repro.engine.engine import request_content_key, versioned_content_key
from repro.gen.workloads import fir_filter
from repro.service import (
    FleetCoordinator,
    FleetThread,
    ServerThread,
    ServiceClient,
    ServiceError,
)
from repro.service.fleet import DEFAULT_QUEUE_LIMITS, WorkerState, free_port


def make_problem(relax=0.5):
    graph = fir_filter()
    scratch = Problem(graph, latency_constraint=1_000_000)
    lam = scratch.minimum_latency()
    return scratch.with_latency_constraint(max(1, int(lam * (1 + relax))))


def make_request(label=None, relax=0.5, allocator="dpalloc", **kwargs):
    return AllocationRequest(
        make_problem(relax), allocator, label=label, **kwargs
    )


def routed_relax(coordinator, target_url, candidates=None):
    """A relaxation whose fingerprint ranks ``target_url`` first.

    Routing is deterministic rendezvous hashing, so searching a few
    relaxations always finds one -- this keeps the failure-injection
    tests independent of which worker the hash happens to favour.
    """
    for relax in candidates or [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]:
        fingerprint = make_problem(relax).fingerprint()
        ranked = coordinator.ranked_workers(fingerprint)
        if ranked[0].url == target_url:
            return relax
    raise AssertionError(f"no candidate relaxation routes to {target_url}")


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------

class TestRouting:
    def make_coordinator(self, urls):
        return FleetCoordinator(urls)

    def test_ranking_is_deterministic(self):
        urls = [f"http://127.0.0.1:{9000 + i}" for i in range(4)]
        coordinator = self.make_coordinator(urls)
        first = [w.url for w in coordinator.ranked_workers("some-key")]
        again = [w.url for w in coordinator.ranked_workers("some-key")]
        assert first == again
        other = [w.url for w in coordinator.ranked_workers("other-key")]
        assert set(other) == set(first)  # same pool, likely another order

    def test_dead_worker_only_remaps_its_own_keys(self):
        urls = [f"http://127.0.0.1:{9000 + i}" for i in range(4)]
        coordinator = self.make_coordinator(urls)
        keys = [f"key-{i}" for i in range(64)]
        before = {k: coordinator.ranked_workers(k)[0].url for k in keys}
        dead = urls[1]
        for worker in coordinator.workers:
            if worker.url == dead:
                worker.healthy = False
        after = {k: coordinator.ranked_workers(k)[0].url for k in keys}
        for key in keys:
            if before[key] != dead:
                # rendezvous hashing: survivors keep their keys
                assert after[key] == before[key]
            else:
                assert after[key] != dead

    def test_all_unhealthy_falls_back_to_every_worker(self):
        coordinator = self.make_coordinator(["http://127.0.0.1:9000"])
        coordinator.workers[0].healthy = False
        assert coordinator.ranked_workers("k")  # stale evidence ignored

    def test_rejects_empty_fleet_and_bad_limits(self):
        with pytest.raises(ValueError, match="at least one worker"):
            FleetCoordinator([])
        with pytest.raises(ValueError, match="max_attempts"):
            FleetCoordinator(["http://127.0.0.1:9000"], max_attempts=0)
        with pytest.raises(ValueError, match="unknown priority class"):
            FleetCoordinator(
                ["http://127.0.0.1:9000"], queue_limits={"vip": 2}
            )
        with pytest.raises(ValueError, match="must be >= 1"):
            FleetCoordinator(
                ["http://127.0.0.1:9000"], queue_limits={"bulk": 0}
            )
        with pytest.raises(ValueError, match="host and port"):
            WorkerState  # silence unused-import pedantry
            FleetCoordinator(["localhost"])


# ----------------------------------------------------------------------
# end-to-end: coordinator over in-process workers
# ----------------------------------------------------------------------

class TestFleetEndToEnd:
    def test_batch_parity_and_fleet_wide_dedup(self):
        requests = [make_request(f"r{i}") for i in range(6)]  # all identical
        offline = Engine().run_batch(requests)
        with ServerThread(max_concurrency=2) as w0, \
                ServerThread(max_concurrency=2) as w1:
            with FleetThread(worker_urls=[w0.url, w1.url]) as fleet:
                client = ServiceClient(fleet.url)
                client.wait_healthy()
                served = client.run_batch(requests)
                stats = client.stats()
        assert [r.label for r in served] == [f"r{i}" for i in range(6)]
        assert [r.canonical_json() for r in served] == \
               [r.canonical_json() for r in offline]
        # one solve, five fleet-level dedup hits (memo or single flight)
        assert stats["deduplicated"] == 5
        assert stats["completed"] == 6
        assert sum(w["forwards"] for w in stats["workers"]) == 1

    def test_memo_hit_is_relabelled_and_marked_cached(self):
        with ServerThread(max_concurrency=2) as worker:
            with FleetThread(worker_urls=[worker.url]) as fleet:
                client = ServiceClient(fleet.url)
                client.wait_healthy()
                first = client.run(make_request("first"))
                second = client.run(make_request("second"))
        assert not first.cached
        assert second.cached
        assert second.label == "second"
        assert second.canonical_json() == first.canonical_json() \
            .replace('"first"', '"second"')

    def test_shared_store_read_through_serves_prior_solves(self, tmp_path):
        """A solve cached by any worker -- even before this coordinator
        existed -- is served from the shared store without a forward."""
        store = tmp_path / "store"
        request = make_request("warm")
        primer = Engine(cache_dir=tmp_path / "local",
                        cache_shared_dir=store)
        offline = primer.run(request)
        with ServerThread(max_concurrency=1) as worker:
            with FleetThread(
                worker_urls=[worker.url], shared_dir=store
            ) as fleet:
                client = ServiceClient(fleet.url)
                client.wait_healthy()
                served = client.run(make_request("warm"))
                stats = client.stats()
        assert served.cached
        assert served.canonical_json() == offline.canonical_json()
        assert stats["memo"]["store_hits"] == 1
        assert sum(w["forwards"] for w in stats["workers"]) == 0

    def test_fleet_single_flight_collapses_concurrent_identicals(self):
        calls = {"count": 0}
        lock = threading.Lock()

        @register_allocator("test-fleet-once")
        def once(problem, **options):
            with lock:
                calls["count"] += 1
            time.sleep(0.3)
            return get_allocator("uniform")(problem)

        try:
            # executor="pool" (not the server default "process"): the
            # call counter must be visible to the test process.
            with ServerThread(engine=Engine(), max_concurrency=4) as worker:
                with FleetThread(worker_urls=[worker.url]) as fleet:
                    ServiceClient(fleet.url).wait_healthy()
                    results = [None] * 4

                    def call(slot):
                        client = ServiceClient(fleet.url)
                        results[slot] = client.run(AllocationRequest(
                            make_problem(), "test-fleet-once",
                            label=f"c{slot}",
                        ))

                    threads = [
                        threading.Thread(target=call, args=(slot,))
                        for slot in range(4)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    stats = ServiceClient(fleet.url).stats()
        finally:
            unregister_allocator("test-fleet-once")
        assert calls["count"] == 1
        assert all(r is not None and r.ok for r in results)
        assert [r.label for r in results] == ["c0", "c1", "c2", "c3"]
        assert stats["deduplicated"] == 3

    def test_delta_served_through_fleet_matches_offline(self):
        from repro.core.delta import DeadlineEdit
        from repro.engine import DeltaRequest

        problem = make_problem()
        lam = problem.latency_constraint
        offline = Engine().run(AllocationRequest(
            problem.with_latency_constraint(lam + 1), "dpalloc"
        ))
        with ServerThread(max_concurrency=2) as worker:
            with FleetThread(worker_urls=[worker.url]) as fleet:
                client = ServiceClient(fleet.url)
                client.wait_healthy()
                primed = client.run_delta(DeltaRequest(
                    edits=(), base_problem=problem, label="prime"
                ))
                warm = client.run_delta(DeltaRequest(
                    edits=(DeadlineEdit(lam + 1),),
                    base_fingerprint=problem.fingerprint(),
                ))
        assert (primed.delta or {}).get("strategy") == "noop"
        assert warm.canonical_json() == offline.canonical_json()

    def test_timeouts_are_not_memoised(self):
        @register_allocator("test-fleet-slowpoke")
        def slowpoke(problem, **options):
            time.sleep(0.5)
            return get_allocator("uniform")(problem)

        try:
            with ServerThread(max_concurrency=2) as worker:
                with FleetThread(worker_urls=[worker.url]) as fleet:
                    client = ServiceClient(fleet.url)
                    client.wait_healthy()
                    first = client.run(AllocationRequest(
                        make_problem(), "test-fleet-slowpoke",
                        timeout=0.05,
                    ))
                    assert first.error is not None
                    assert first.error.startswith("timeout")
                    # A later, patient request must re-run, not be
                    # served the memoised timeout envelope.
                    second = client.run(AllocationRequest(
                        make_problem(), "test-fleet-slowpoke",
                        timeout=30.0,
                    ))
        finally:
            unregister_allocator("test-fleet-slowpoke")
        assert second.ok
        assert not second.cached


# ----------------------------------------------------------------------
# failure modes: dead and hung workers
# ----------------------------------------------------------------------

class TestWorkerFailures:
    def test_dead_worker_requeues_byte_identical(self):
        """Kill the worker a request routes to; the coordinator must
        requeue onto the survivor and serve byte-identical envelopes --
        zero lost requests."""
        with ServerThread(max_concurrency=2) as survivor:
            victim = ServerThread(max_concurrency=2)
            victim.__enter__()
            victim_alive = True
            try:
                # Huge health interval: only the forwarding path may
                # discover the death, exercising the requeue machinery
                # rather than the background probe.
                with FleetThread(
                    worker_urls=[victim.url, survivor.url],
                    health_interval=3600.0,
                ) as fleet:
                    client = ServiceClient(fleet.url)
                    client.wait_healthy()
                    relax = routed_relax(fleet.server, victim.url)
                    requests = [
                        make_request(f"k{i}", relax=relax) for i in range(3)
                    ]
                    offline = Engine().run_batch(requests)
                    victim.__exit__(None, None, None)  # worker dies
                    victim_alive = False
                    served = client.run_batch(requests)
                    stats = client.stats()
            finally:
                if victim_alive:
                    victim.__exit__(None, None, None)
        assert [r.canonical_json() for r in served] == \
               [r.canonical_json() for r in offline]
        assert stats["requeues"] >= 1
        assert stats["failed"] == 0
        dead = [w for w in stats["workers"] if not w["healthy"]]
        assert len(dead) == 1

    def test_hung_worker_is_cut_off_and_requeued(self):
        """A worker that accepts connections but never answers must be
        cut off at worker_timeout and its request requeued."""
        hung_port = free_port()
        hung = socket_listener(hung_port)
        try:
            with ServerThread(max_concurrency=2) as survivor:
                hung_url = f"http://127.0.0.1:{hung_port}"
                with FleetThread(
                    worker_urls=[hung_url, survivor.url],
                    health_interval=3600.0,
                    worker_timeout=0.5,
                ) as fleet:
                    client = ServiceClient(fleet.url, timeout=60.0)
                    client.wait_healthy()
                    relax = routed_relax(fleet.server, hung_url)
                    request = make_request("hung", relax=relax)
                    offline = Engine().run(request)
                    began = time.perf_counter()
                    served = client.run(request)
                    elapsed = time.perf_counter() - began
                    stats = client.stats()
        finally:
            hung.close()
        assert served.canonical_json() == offline.canonical_json()
        assert stats["requeues"] >= 1
        assert elapsed < 30.0

    def test_every_worker_dead_yields_typed_503(self):
        dead = [f"http://127.0.0.1:{free_port()}" for _ in range(2)]
        with FleetThread(
            worker_urls=dead, health_interval=3600.0, max_attempts=2,
        ) as fleet:
            client = ServiceClient(fleet.url)
            client.wait_healthy()
            with pytest.raises(ServiceError) as excinfo:
                client.run(make_request("doomed"))
        assert excinfo.value.status == 503
        assert excinfo.value.error_code == "worker_exhausted"

    def test_worker_refusal_propagates_without_retry(self):
        """A worker's deterministic 400 answer is not a transport
        failure: it must reach the client unchanged, with no requeue."""
        with ServerThread(max_concurrency=1) as worker:
            with FleetThread(worker_urls=[worker.url]) as fleet:
                client = ServiceClient(fleet.url)
                client.wait_healthy()
                with pytest.raises(ServiceError) as excinfo:
                    client._request(
                        "POST", "/v1/allocate", {"kind": "allocation-request"}
                    )
                stats = client.stats()
        assert excinfo.value.status == 400
        assert stats["requeues"] == 0


def socket_listener(port):
    """A TCP listener that accepts and never answers (a 'hung' worker)."""
    import socket

    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", port))
    sock.listen(8)
    return sock


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------

class TestAdmissionControl:
    def test_default_limits_cover_every_class(self):
        assert set(DEFAULT_QUEUE_LIMITS) == {"interactive", "normal", "bulk"}

    def test_saturated_class_sheds_with_typed_429(self):
        @register_allocator("test-fleet-slow")
        def slow(problem, **options):
            time.sleep(0.6)
            return get_allocator("uniform")(problem)

        try:
            with ServerThread(max_concurrency=4) as worker:
                with FleetThread(
                    worker_urls=[worker.url], queue_limits={"bulk": 1},
                ) as fleet:
                    ServiceClient(fleet.url).wait_healthy()
                    outcomes = [None] * 3

                    def call(slot, relax):
                        client = ServiceClient(fleet.url)
                        try:
                            outcomes[slot] = client.run(AllocationRequest(
                                make_problem(relax), "test-fleet-slow",
                                priority="bulk",
                            ))
                        except ServiceError as exc:
                            outcomes[slot] = exc

                    # Distinct problems: dedup must not mask admission.
                    first = threading.Thread(target=call, args=(0, 0.4))
                    first.start()
                    time.sleep(0.2)  # let it occupy the single slot
                    rest = [
                        threading.Thread(target=call, args=(slot, relax))
                        for slot, relax in ((1, 0.6), (2, 0.8))
                    ]
                    for thread in rest:
                        thread.start()
                    for thread in [first, *rest]:
                        thread.join(timeout=60)
                    stats = ServiceClient(fleet.url).stats()
        finally:
            unregister_allocator("test-fleet-slow")

        shed = [o for o in outcomes if isinstance(o, ServiceError)]
        served = [o for o in outcomes if not isinstance(o, ServiceError)]
        assert len(shed) == 2 and len(served) == 1
        for error in shed:
            assert error.status == 429
            assert error.error_code == "shed"
        assert served[0].ok
        bulk = stats["classes"]["bulk"]
        assert bulk["shed"] == 2  # counters match what clients saw
        assert bulk["admitted"] == 1
        assert stats["shed_total"] == 2
        assert bulk["latency_p50_seconds"] is not None

    def test_batch_admission_is_all_or_nothing(self):
        with ServerThread(max_concurrency=2) as worker:
            with FleetThread(
                worker_urls=[worker.url], queue_limits={"bulk": 1},
            ) as fleet:
                client = ServiceClient(fleet.url)
                client.wait_healthy()
                with pytest.raises(ServiceError) as excinfo:
                    client.run_batch([
                        make_request("b0", relax=0.4, priority="bulk"),
                        make_request("b1", relax=0.8, priority="bulk"),
                    ])
                stats = client.stats()
        assert excinfo.value.status == 429
        assert excinfo.value.error_code == "shed"
        # the whole batch shed; nothing admitted, nothing forwarded
        assert stats["classes"]["bulk"]["shed"] == 2
        assert stats["classes"]["bulk"]["admitted"] == 0
        assert sum(w["forwards"] for w in stats["workers"]) == 0

    def test_unknown_priority_class_is_400(self):
        with ServerThread(max_concurrency=1) as worker:
            with FleetThread(worker_urls=[worker.url]) as fleet:
                client = ServiceClient(fleet.url)
                client.wait_healthy()
                payload = json.loads(json.dumps({
                    "kind": "allocation-request", "priority": "vip",
                }))
                with pytest.raises(ServiceError) as excinfo:
                    client._request("POST", "/v1/allocate", payload)
        assert excinfo.value.status == 400
        assert "priority" in str(excinfo.value)


# ----------------------------------------------------------------------
# coordinator wire surface
# ----------------------------------------------------------------------

class TestCoordinatorSurface:
    def test_healthz_reports_fleet_role_and_workers(self):
        with ServerThread(max_concurrency=1) as worker:
            with FleetThread(worker_urls=[worker.url]) as fleet:
                client = ServiceClient(fleet.url)
                health = client.wait_healthy()
        assert health["role"] == "coordinator"
        assert health["workers"]["total"] == 1
        assert 1 in health["schema_versions"]

    def test_stats_shape(self):
        with ServerThread(max_concurrency=1) as worker:
            with FleetThread(worker_urls=[worker.url]) as fleet:
                client = ServiceClient(fleet.url)
                client.wait_healthy()
                client.run(make_request("s"))
                stats = client.stats()
        assert stats["kind"] == "service-stats"
        assert stats["role"] == "coordinator"
        assert stats["requests_total"] == 1
        assert stats["memo"]["entries"] == 1
        assert set(stats["classes"]) == {"interactive", "normal", "bulk"}
        assert len(stats["workers"]) == 1
        assert stats["workers"][0]["forwards"] == 1

    def test_memo_writes_use_worker_reported_key_not_client_hint(self):
        """A lying fingerprint hint must not poison the memo for the
        honest key: writes are keyed by the worker-computed
        content_key, lookups only by the hint."""
        honest = make_request("honest", relax=0.4)
        liar_problem = make_problem(0.8)
        honest_key = versioned_content_key(request_content_key(honest))
        with ServerThread(max_concurrency=2) as worker:
            with FleetThread(worker_urls=[worker.url]) as fleet:
                coordinator = fleet.server
                client = ServiceClient(fleet.url)
                client.wait_healthy()
                # Forge a payload claiming the honest fingerprint but
                # carrying the liar's problem.
                from repro.io.service import allocate_request_payload

                forged = allocate_request_payload(
                    AllocationRequest(liar_problem, "dpalloc", label="liar"),
                )
                forged["fingerprint"] = honest.problem.fingerprint()
                client._request("POST", "/v1/allocate", forged)
                # The memo now holds the liar's envelope -- under the
                # LIAR's authoritative key, not the honest one.
                liar_key = versioned_content_key(request_content_key(
                    AllocationRequest(liar_problem, "dpalloc")
                ))
                assert liar_key in coordinator._memo
                assert honest_key not in coordinator._memo
                # and the honest request still gets its own solve
                served = client.run(honest)
        offline = Engine().run(honest)
        assert served.canonical_json() == offline.canonical_json()

    def test_forged_hint_cannot_poison_the_single_flight(self):
        """An honest request arriving while a liar's forward -- the
        liar's problem under the honest fingerprint -- is in flight
        must not be served the liar's envelope: the worker-reported
        key does not match, so it forwards its own request."""
        from repro.io.service import allocate_request_payload

        @register_allocator("test-fleet-poison")
        def slow(problem, **options):
            time.sleep(0.6)
            return get_allocator("dpalloc")(problem)

        honest = AllocationRequest(
            make_problem(0.4), "test-fleet-poison", label="honest"
        )
        forged = allocate_request_payload(AllocationRequest(
            make_problem(0.8), "test-fleet-poison", label="liar"
        ))
        forged["fingerprint"] = honest.problem.fingerprint()
        try:
            offline = Engine().run(honest)
            with ServerThread(engine=Engine(), max_concurrency=2) as worker:
                with FleetThread(worker_urls=[worker.url]) as fleet:
                    client = ServiceClient(fleet.url)
                    client.wait_healthy()
                    liar = threading.Thread(
                        target=ServiceClient(fleet.url)._request,
                        args=("POST", "/v1/allocate", forged),
                    )
                    liar.start()
                    time.sleep(0.2)  # the forged forward is in flight
                    served = client.run(honest)
                    liar.join(timeout=30)
                    assert not liar.is_alive()
                    stats = client.stats()
        finally:
            unregister_allocator("test-fleet-poison")
        assert served.canonical_json() == offline.canonical_json()
        assert stats["deduplicated"] == 0
        assert sum(w["forwards"] for w in stats["workers"]) == 2

    def test_in_process_coordinator_loop_stays_responsive(self):
        """healthz answers while a solve is in flight (no blocking IO
        on the coordinator loop)."""

        @register_allocator("test-fleet-busy")
        def busy(problem, **options):
            time.sleep(0.5)
            return get_allocator("uniform")(problem)

        try:
            with ServerThread(max_concurrency=2) as worker:
                with FleetThread(worker_urls=[worker.url]) as fleet:
                    client = ServiceClient(fleet.url)
                    client.wait_healthy()
                    thread = threading.Thread(
                        target=lambda: ServiceClient(fleet.url).run(
                            AllocationRequest(
                                make_problem(), "test-fleet-busy"
                            )
                        )
                    )
                    thread.start()
                    time.sleep(0.1)
                    began = time.perf_counter()
                    health = client.healthz()
                    latency = time.perf_counter() - began
                    thread.join(timeout=30)
        finally:
            unregister_allocator("test-fleet-busy")
        assert health["status"] == "ok"
        assert latency < 0.3


# ----------------------------------------------------------------------
# coordinator over subprocess workers (the real deployment shape)
# ----------------------------------------------------------------------

class TestSubprocessFleet:
    def test_kill_worker_mid_batch_zero_lost_requests(self, tmp_path):
        """The ISSUE's headline failure drill, against real ``repro
        serve`` subprocesses: SIGKILL a worker while a batch is in
        flight; every request must still complete, byte-identical."""
        from repro.service.fleet import WorkerPool

        store = tmp_path / "store"
        requests = [
            make_request(f"q{i}", relax=0.35 + 0.08 * i) for i in range(6)
        ]
        offline = Engine().run_batch(requests)
        with WorkerPool(
            2, shared_dir=store, executor="pool", max_concurrency=2,
        ) as pool:
            with FleetThread(
                worker_urls=pool.urls,
                shared_dir=store,
                health_interval=3600.0,
                worker_timeout=60.0,
            ) as fleet:
                client = ServiceClient(fleet.url, timeout=120.0)
                client.wait_healthy()
                served = [None] * len(requests)

                def run_batch():
                    results = client.run_batch(requests)
                    for index, result in enumerate(results):
                        served[index] = result

                thread = threading.Thread(target=run_batch)
                thread.start()
                time.sleep(0.15)  # batch in flight on both workers
                pool.kill(0)
                thread.join(timeout=120)
                assert not thread.is_alive(), "batch never completed"
                stats = client.stats()
        assert all(result is not None for result in served)
        assert [r.canonical_json() for r in served] == \
               [r.canonical_json() for r in offline]
        assert stats["failed"] == 0
        assert stats["completed"] == len(requests)

    def test_sigterm_reaps_spawned_workers(self):
        """Supervisors stop the coordinator with SIGTERM (not SIGINT);
        the ``repro fleet`` process must take its spawned ``repro
        serve`` workers down with it rather than orphan them."""
        import os
        import re
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet",
             "--port", str(free_port()), "--workers", "1",
             "--executor", "pool"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()  # blocks until startup banner
            match = re.search(r"listening on (http://\S+)", line)
            assert match, f"unexpected fleet banner: {line!r}"
            health = ServiceClient(match.group(1)).wait_healthy(30.0)
            assert health["workers"]["healthy"] == 1
            children = subprocess.run(
                ["pgrep", "-P", str(proc.pid)],
                capture_output=True, text=True,
            ).stdout.split()
            assert children, "fleet spawned no worker subprocess"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                alive = [
                    pid for pid in children
                    if subprocess.run(["kill", "-0", pid],
                                      capture_output=True).returncode == 0
                ]
                if not alive:
                    break
                time.sleep(0.2)
            assert not alive, f"workers orphaned after SIGTERM: {alive}"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
