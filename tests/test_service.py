"""Tests for the allocation service: payloads, AsyncEngine, HTTP layer.

The concurrency-edge cases the ISSUE calls out are covered explicitly:
two clients submitting the same ``Problem.fingerprint()`` concurrently
must not corrupt the shared ``ResultCache`` manifest (single-flight
collapses them), and a killed worker mid-request must come back as the
standard error envelope, never a hung connection.
"""

import asyncio
import contextlib
import json
import multiprocessing
import os
import threading
import time

import pytest

from repro import Problem
from repro.cli import main
from repro.engine import (
    AllocationRequest,
    Engine,
    get_allocator,
    register_allocator,
    unregister_allocator,
)
from repro.gen.workloads import fir_filter, motivational_example
from repro.io.json_io import allocation_result_from_dict
from repro.io.service import (
    SCHEMA_VERSION,
    allocate_request_payload,
    batch_request_from_dict,
    batch_request_to_dict,
    batch_results_from_dict,
    batch_results_to_dict,
    error_to_dict,
)
from repro.service import (
    AsyncEngine,
    FleetThread,
    ServerThread,
    ServiceClient,
    ServiceError,
)
from repro.service.fleet import free_port
from repro.service.primitives import latency_summary, nearest_rank

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="in-test registered allocators reach worker processes "
           "only under the fork start method (see registry docstring)",
)


def make_problem(relax=0.5, graph_factory=fir_filter):
    graph = graph_factory()
    scratch = Problem(graph, latency_constraint=1_000_000)
    lam = scratch.minimum_latency()
    return scratch.with_latency_constraint(max(1, int(lam * (1 + relax))))


def make_request(label=None, relax=0.5, allocator="dpalloc", timeout=None):
    return AllocationRequest(
        make_problem(relax), allocator, label=label, timeout=timeout
    )


@pytest.fixture
def canned_server():
    """A raw-socket HTTP server answering with fixed bytes; yields a starter.

    ``start(response, stall)`` returns the base URL of a listener that
    reads one request head, sends ``response``, then closes the
    connection -- or, with ``stall``, holds it open until teardown.
    """
    import socket

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    released = threading.Event()
    threads = []

    def start(response, stall=False):
        def serve():
            conn, _ = listener.accept()
            with conn:
                head = b""
                while b"\r\n\r\n" not in head:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    head += chunk
                conn.sendall(response)
                if stall:
                    released.wait(10)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)
        return f"http://127.0.0.1:{listener.getsockname()[1]}"

    yield start
    released.set()
    listener.close()
    for thread in threads:
        thread.join(10)


def raw_exchange(port, request):
    """Send raw request bytes; return the response's (status, JSON body)."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body.decode())


# ----------------------------------------------------------------------
# wire payloads
# ----------------------------------------------------------------------

class TestServicePayloads:
    def test_batch_request_round_trip(self):
        requests = [make_request("a"), make_request("b", relax=0.8)]
        payload = batch_request_to_dict(requests)
        assert payload["kind"] == "allocation-batch-request"
        # wire-safe: the payload survives actual JSON text
        restored = batch_request_from_dict(json.loads(json.dumps(payload)))
        assert [r.label for r in restored] == ["a", "b"]
        assert [r.problem.fingerprint() for r in restored] == \
               [r.problem.fingerprint() for r in requests]

    def test_batch_request_rejects_wrong_shapes(self):
        with pytest.raises(ValueError, match="allocation-batch-request"):
            batch_request_from_dict({"kind": "other"})
        with pytest.raises(ValueError, match="must be a list"):
            batch_request_from_dict(
                {"kind": "allocation-batch-request", "requests": {}}
            )
        with pytest.raises(ValueError):
            batch_request_from_dict([1, 2, 3])

    def test_batch_results_round_trip_matches_offline_shape(self):
        results = Engine().run_batch([make_request("x")])
        payload = batch_results_to_dict(results)
        # the exact shape `repro batch --json` writes
        assert payload["kind"] == "allocation-batch"
        restored = batch_results_from_dict(json.loads(json.dumps(payload)))
        assert [r.canonical_json() for r in restored] == \
               [r.canonical_json() for r in results]

    def test_batch_results_rejects_wrong_shapes(self):
        with pytest.raises(ValueError, match="allocation-batch"):
            batch_results_from_dict({"kind": "nope"})
        with pytest.raises(ValueError, match="must be a list"):
            batch_results_from_dict(
                {"kind": "allocation-batch", "results": "no"}
            )

    def test_error_payload(self):
        payload = error_to_dict(404, "missing")
        assert payload == {
            "kind": "service-error", "status": 404, "error": "missing",
        }


# ----------------------------------------------------------------------
# AsyncEngine semantics
# ----------------------------------------------------------------------

class TestAsyncEngine:
    def test_run_matches_engine_run_canonically(self):
        request = make_request("solo")
        offline = Engine().run(request)

        async def go():
            engine = AsyncEngine(Engine(), max_concurrency=2)
            try:
                return await engine.run(request)
            finally:
                engine.close()

        served = asyncio.run(go())
        assert served.canonical_json() == offline.canonical_json()

    def test_run_batch_preserves_request_order(self):
        requests = [
            make_request("r0", relax=0.4),
            make_request("r1", relax=0.6, allocator="uniform"),
            make_request("r2", relax=0.8),
        ]
        offline = Engine().run_batch(requests)

        async def go():
            engine = AsyncEngine(Engine(), max_concurrency=3)
            try:
                return await engine.run_batch(requests)
            finally:
                engine.close()

        served = asyncio.run(go())
        assert [r.label for r in served] == ["r0", "r1", "r2"]
        assert [r.canonical_json() for r in served] == \
               [r.canonical_json() for r in offline]

    def test_concurrency_is_bounded_by_semaphore(self):
        live = {"now": 0, "max": 0}
        lock = threading.Lock()

        @register_allocator("test-svc-gauge")
        def gauge(problem, **options):
            with lock:
                live["now"] += 1
                live["max"] = max(live["max"], live["now"])
            time.sleep(0.15)
            with lock:
                live["now"] -= 1
            return get_allocator("uniform")(problem)

        try:
            # Distinct relaxations so single-flight cannot collapse them.
            requests = [
                AllocationRequest(
                    make_problem(0.3 + 0.1 * i), "test-svc-gauge", label=str(i)
                )
                for i in range(5)
            ]

            async def go():
                engine = AsyncEngine(Engine(), max_concurrency=2)
                try:
                    return await engine.run_batch(requests)
                finally:
                    engine.close()

            results = asyncio.run(go())
        finally:
            unregister_allocator("test-svc-gauge")
        assert all(r.ok for r in results)
        assert live["max"] <= 2

    def test_identical_concurrent_requests_single_flight(self):
        calls = {"count": 0}
        lock = threading.Lock()

        @register_allocator("test-svc-once")
        def once(problem, **options):
            with lock:
                calls["count"] += 1
            time.sleep(0.15)  # long enough for every client to pile on
            return get_allocator("uniform")(problem)

        try:
            requests = [
                AllocationRequest(make_problem(), "test-svc-once", label=str(i))
                for i in range(4)
            ]

            async def go():
                engine = AsyncEngine(Engine(), max_concurrency=4)
                try:
                    results = await engine.run_batch(requests)
                    return results, engine.stats()
                finally:
                    engine.close()

            results, stats = asyncio.run(go())
        finally:
            unregister_allocator("test-svc-once")
        assert calls["count"] == 1
        assert [r.label for r in results] == ["0", "1", "2", "3"]
        assert len({r.canonical_json() for r in results}) == 4  # labels differ
        assert stats["deduplicated"] == 3
        assert stats["completed"] == 1

    def test_different_timeouts_do_not_share_a_flight(self):
        calls = {"count": 0}
        lock = threading.Lock()

        @register_allocator("test-svc-budget")
        def budgeted(problem, **options):
            with lock:
                calls["count"] += 1
            time.sleep(0.1)
            return get_allocator("uniform")(problem)

        try:
            requests = [
                AllocationRequest(
                    make_problem(), "test-svc-budget", timeout=timeout
                )
                for timeout in (None, 30.0)
            ]

            async def go():
                engine = AsyncEngine(Engine(), max_concurrency=2)
                try:
                    return await engine.run_batch(requests)
                finally:
                    engine.close()

            asyncio.run(go())
        finally:
            unregister_allocator("test-svc-budget")
        assert calls["count"] == 2

    def test_default_timeout_applied_to_bare_requests(self):
        engine = AsyncEngine(Engine(), default_timeout=7.5)
        try:
            bare = make_request()
            assert engine._with_default_timeout(bare).timeout == 7.5
            capped = make_request(timeout=1.0)
            assert engine._with_default_timeout(capped).timeout == 1.0
        finally:
            engine.close()

    def test_stats_shape(self):
        async def go():
            engine = AsyncEngine(Engine(), max_concurrency=3)
            try:
                await engine.run(make_request("s"))
                return engine.stats()
            finally:
                engine.close()

        stats = asyncio.run(go())
        assert stats["kind"] == "service-stats"
        assert stats["requests_total"] == 1
        assert stats["completed"] == 1
        assert stats["failed"] == 0
        assert stats["in_flight"] == 0 and stats["queued"] == 0
        assert stats["max_concurrency"] == 3
        assert stats["latency_p50_seconds"] is not None
        assert stats["latency_p95_seconds"] >= 0
        assert stats["cache"] is None  # no cache configured
        assert stats["cache_hit_rate"] is None

    def test_rejects_bad_concurrency(self):
        with pytest.raises(ValueError, match="max_concurrency"):
            AsyncEngine(Engine(), max_concurrency=0)


class TestLatencyPercentiles:
    """``/v1/stats`` percentiles are nearest-rank, not one rank high."""

    @pytest.mark.parametrize("n, fraction, expected", [
        (1, 0.50, 1), (1, 0.95, 1),
        (2, 0.50, 1), (2, 0.95, 2),
        (20, 0.50, 10), (20, 0.95, 19),
        (100, 0.50, 50), (100, 0.95, 95),
    ])
    def test_nearest_rank(self, n, fraction, expected):
        assert nearest_rank([float(i) for i in range(1, n + 1)], fraction) \
            == expected

    def test_empty_window_has_no_percentiles(self):
        assert nearest_rank([], 0.5) is None
        assert latency_summary([]) == {
            "latency_p50_seconds": None,
            "latency_p95_seconds": None,
            "latency_window": 0,
        }

    def test_summary_sorts_its_window(self):
        summary = latency_summary([0.3, 0.1, 0.2, 0.4])
        assert summary["latency_p50_seconds"] == 0.2
        assert summary["latency_p95_seconds"] == 0.4
        assert summary["latency_window"] == 4


# ----------------------------------------------------------------------
# HTTP server + client
# ----------------------------------------------------------------------

class TestHttpEndpoints:
    def test_healthz_and_stats(self):
        with ServerThread(engine=Engine(), max_concurrency=2) as st:
            client = ServiceClient(st.url)
            health = client.wait_healthy()
            assert health["status"] == "ok"
            from repro import __version__

            assert health["version"] == __version__
            stats = client.stats()
            assert stats["kind"] == "service-stats"
            assert stats["requests_total"] == 0

    def test_allocate_parity_with_offline_engine(self):
        request = make_request("wire")
        offline = Engine().run(request)
        with ServerThread(engine=Engine(), max_concurrency=2) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            served = client.run(request)
        assert served.canonical_json() == offline.canonical_json()
        assert served.label == "wire"

    def test_batch_parity_and_ordering(self):
        requests = [
            make_request("b0", relax=0.4),
            make_request("b1", relax=0.6, allocator="uniform"),
            make_request("b2", relax=0.9),
        ]
        offline = Engine().run_batch(requests)
        with ServerThread(engine=Engine(), max_concurrency=3) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            served = client.run_batch(requests)
        assert [r.label for r in served] == ["b0", "b1", "b2"]
        assert [r.canonical_json() for r in served] == \
               [r.canonical_json() for r in offline]

    def test_http_error_paths(self):
        with ServerThread(engine=Engine(), max_concurrency=1) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/nope")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/v1/allocate")
            assert excinfo.value.status == 405
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/allocate", {"kind": "garbage"})
            assert excinfo.value.status == 400
            # raw non-JSON body
            import urllib.request

            req = urllib.request.Request(
                f"{st.url}/v1/allocate", data=b"not json", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as raw:
                urllib.request.urlopen(req, timeout=10)
            assert raw.value.code == 400
            payload = json.loads(raw.value.read().decode())
            assert payload["kind"] == "service-error"
            # Framing errors are the client's: 400, never 413 or 500.
            port = st.server.port
            long_line = b"x" * (70 * 1024)
            for request in (
                b"POST /v1/allocate HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                b"GET /v1/" + long_line + b" HTTP/1.1\r\n\r\n",
                b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + long_line
                + b"\r\n\r\n",
            ):
                status, payload = raw_exchange(port, request)
                assert status == 400, (request[:40], payload)
                assert payload["kind"] == "service-error"
            # The pre-v1 unversioned paths are gone, on both daemons.
            with FleetThread(worker_urls=[st.url]) as fleet:
                for url in (st.url, fleet.url):
                    with pytest.raises(ServiceError) as excinfo:
                        ServiceClient(url)._request(
                            "POST", "/allocate",
                            allocate_request_payload(make_request()),
                        )
                    assert excinfo.value.status == 404

    def test_solver_failure_is_an_envelope_not_an_http_error(self):
        # An infeasible problem: tightest possible latency.
        graph = motivational_example()
        scratch = Problem(graph, latency_constraint=1_000_000)
        tight = scratch.with_latency_constraint(1)
        with ServerThread(engine=Engine(), max_concurrency=1) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            result = client.run(AllocationRequest(tight, "dpalloc"))
        assert not result.ok
        assert result.error is not None
        assert result.datapath is None

    def test_batch_url_unreachable_service(self, capsys):
        rc = main([
            "batch", "fir", "--methods", "uniform",
            "--url", "http://127.0.0.1:1",  # reserved port: nothing listens
        ])
        assert rc == 2
        assert "batch --url failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["allocate", "fir"],
        ["compare", "fir"],
        ["delta", "fir", "--edit", "latency=40"],
        ["batch", "fir", "--methods", "uniform"],
    ], ids=lambda command: command[0])
    def test_url_failure_exits_2_without_traceback(self, command, capsys):
        url = f"http://127.0.0.1:{free_port()}"  # released: nothing listens
        assert main([*command, "--url", url]) == 2
        err = capsys.readouterr().err
        assert f"{command[0]} --url failed: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("response, stall", [
        (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"kind\": ", False),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"kind\": ", True),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nnot json", False),
    ], ids=["truncated", "stalled", "not-json"])
    def test_broken_response_body_is_a_service_error(
        self, canned_server, response, stall
    ):
        client = ServiceClient(canned_server(response, stall), timeout=0.5)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0


# ----------------------------------------------------------------------
# concurrent-access edges (the ISSUE's satellite cases)
# ----------------------------------------------------------------------

class TestConcurrentAccess:
    def test_same_fingerprint_concurrent_clients_keep_manifest_valid(
        self, tmp_path
    ):
        calls = {"count": 0}
        lock = threading.Lock()

        @register_allocator("test-svc-slow")
        def slow(problem, **options):
            with lock:
                calls["count"] += 1
            time.sleep(0.3)  # wide overlap window for both clients
            return get_allocator("uniform")(problem)

        cache_dir = tmp_path / "cache"
        try:
            engine = Engine(cache_dir=cache_dir)
            with ServerThread(engine=engine, max_concurrency=4) as st:
                results = [None, None]

                def client_call(slot):
                    client = ServiceClient(st.url)
                    results[slot] = client.run(AllocationRequest(
                        make_problem(), "test-svc-slow", label=f"c{slot}",
                    ))

                threads = [
                    threading.Thread(target=client_call, args=(slot,))
                    for slot in range(2)
                ]
                ServiceClient(st.url).wait_healthy()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
        finally:
            unregister_allocator("test-svc-slow")

        assert all(r is not None and r.ok for r in results)
        assert results[0].label == "c0" and results[1].label == "c1"
        assert results[0].canonical_dict()["label"] == "c0"
        # single-flight: the identical concurrent request ran once ...
        assert calls["count"] == 1
        # ... and the shared manifest is valid, with exactly one entry
        manifest = json.loads((cache_dir / "manifest.json").read_text())
        assert manifest["kind"] == "cache-manifest"
        assert len(manifest["entries"]) == 1
        # the cache still serves the entry afterwards
        fresh = Engine(cache_dir=cache_dir)
        hit = fresh.run(AllocationRequest(make_problem(), "test-svc-slow"))
        assert hit.cached

    def test_distinct_concurrent_requests_all_land_in_manifest(self, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = Engine(cache_dir=cache_dir)
        requests = [
            AllocationRequest(make_problem(0.3 + 0.15 * i), "uniform",
                              label=str(i))
            for i in range(5)
        ]
        with ServerThread(engine=engine, max_concurrency=4) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            served = client.run_batch(requests)
        assert all(r.ok for r in served)
        manifest = json.loads((cache_dir / "manifest.json").read_text())
        assert manifest["kind"] == "cache-manifest"
        assert len(manifest["entries"]) == len(
            {r.problem.fingerprint() for r in requests}
        )

    @fork_only
    def test_killed_worker_yields_error_envelope_not_hung_connection(self):
        @register_allocator("test-svc-crash")
        def crash(problem, **options):
            os._exit(13)  # simulate a segfaulting native solver

        try:
            engine = Engine(executor="process")
            with ServerThread(engine=engine, max_concurrency=2) as st:
                client = ServiceClient(st.url, timeout=30.0)
                client.wait_healthy()
                began = time.perf_counter()
                result = client.run(
                    AllocationRequest(make_problem(), "test-svc-crash")
                )
                elapsed = time.perf_counter() - began
        finally:
            unregister_allocator("test-svc-crash")
        assert not result.ok
        assert result.error.startswith("error: WorkerCrashError")
        assert elapsed < 20.0

    @fork_only
    def test_hung_worker_yields_timeout_envelope_within_budget(self):
        @register_allocator("test-svc-hang")
        def hang(problem, **options):
            time.sleep(120)
            return get_allocator("uniform")(problem)

        try:
            engine = Engine(executor="process")
            with ServerThread(
                engine=engine, max_concurrency=2, default_timeout=1.0
            ) as st:
                client = ServiceClient(st.url, timeout=30.0)
                client.wait_healthy()
                began = time.perf_counter()
                result = client.run(
                    AllocationRequest(make_problem(), "test-svc-hang")
                )
                elapsed = time.perf_counter() - began
        finally:
            unregister_allocator("test-svc-hang")
        assert result.error == "timeout: no result within 1s"
        assert result.datapath is None
        assert elapsed < 15.0


class TestDeltaEndpoint:
    def test_served_delta_matches_offline_cold_solve(self):
        from repro.core.delta import DeadlineEdit
        from repro.engine import DeltaRequest

        problem = make_problem(relax=0.5)
        lam = problem.latency_constraint
        edited = problem.with_latency_constraint(lam + 1)
        offline = Engine().run(AllocationRequest(edited, "dpalloc"))
        with ServerThread(engine=Engine(), max_concurrency=2) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            primed = client.run_delta(DeltaRequest(
                edits=(), base_problem=problem, label="prime"
            ))
            warm = client.run_delta(DeltaRequest(
                edits=(DeadlineEdit(lam + 1),),
                base_fingerprint=problem.fingerprint(),
            ))
        assert (primed.delta or {}).get("strategy") == "noop"
        assert primed.label == "prime"
        meta = warm.delta or {}
        assert meta.get("strategy") in ("replay", "resumed", "diverged")
        assert warm.canonical_json() == offline.canonical_json()

    def test_served_delta_error_envelope_is_http_200(self):
        from repro.engine import DeltaRequest

        with ServerThread(engine=Engine(), max_concurrency=1) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            result = client.run_delta(DeltaRequest(
                edits=(), base_fingerprint="deadbeef"
            ))
        assert (result.delta or {}).get("strategy") == "error"
        assert "no replay artifact" in result.error

    def test_malformed_delta_body_is_http_400(self):
        with ServerThread(engine=Engine(), max_concurrency=1) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/delta", {
                    "kind": "delta-request", "edits": "latency=9",
                })
            assert excinfo.value.status == 400
            assert "bad delta-request" in str(excinfo.value)


class TestSchemaVersioning:
    """The one versioned wire surface: ``/v1`` with ``schema_version``."""

    def test_client_speaks_v1(self):
        with ServerThread(engine=Engine(), max_concurrency=1) as st:
            client = ServiceClient(st.url)
            health = client.wait_healthy()
        assert client.schema_version == SCHEMA_VERSION == 1
        assert health["schema_version"] == 1
        assert health["schema_versions"] == [1]

    def test_server_refuses_unsupported_schema_version(self):
        from repro.io import allocation_request_to_dict

        payload = allocation_request_to_dict(make_request())
        payload["schema_version"] = 99
        with ServerThread(engine=Engine(), max_concurrency=1) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/allocate", payload)
        assert excinfo.value.status == 400
        assert "schema_version" in str(excinfo.value)

    def test_v1_response_carries_authoritative_content_key(self):
        from repro.engine.engine import (
            request_content_key,
            versioned_content_key,
        )

        request = make_request("keyed")
        expected = versioned_content_key(request_content_key(request))
        with ServerThread(engine=Engine(), max_concurrency=1) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            v1 = client._request(
                "POST", "/v1/allocate", allocate_request_payload(request)
            )
        assert v1["content_key"] == expected
        assert v1["schema_version"] == 1
        # extra wire fields never reach the parsed envelope / canonical
        # bytes
        assert "content_key" not in allocation_result_from_dict(v1) \
            .canonical_json()

    def test_request_payload_carries_version_and_fingerprint_hint(self):
        request = make_request("hinted")
        payload = allocate_request_payload(request)
        assert payload["schema_version"] == 1
        assert payload["fingerprint"] == request.problem.fingerprint()


class TestBackendProtocol:
    """Satellite 2: one Backend surface for local, async and remote."""

    def test_engine_and_clients_satisfy_backend(self):
        from repro.engine import Backend

        assert isinstance(Engine(), Backend)
        async_engine = AsyncEngine(Engine())
        try:
            assert isinstance(async_engine, Backend)
        finally:
            async_engine.close()
        assert isinstance(ServiceClient("http://127.0.0.1:1"), Backend)

    def test_backend_run_batch_signature_is_interchangeable(self):
        """The same call works verbatim against Engine and the service
        (the CLI's _backend() relies on this)."""
        requests = [make_request("p0", relax=0.4), make_request("p1")]
        offline = Engine().run_batch(requests, workers=2)
        with ServerThread(engine=Engine(), max_concurrency=2) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            served = client.run_batch(requests, workers=2)
        assert [r.canonical_json() for r in served] == \
               [r.canonical_json() for r in offline]

    def test_async_engine_run_batch_ignores_workers_hint(self):
        requests = [make_request("a0", relax=0.4), make_request("a1")]

        async def go():
            engine = AsyncEngine(Engine(), max_concurrency=2)
            try:
                return await engine.run_batch(requests, workers=8)
            finally:
                engine.close()

        served = asyncio.run(go())
        offline = Engine().run_batch(requests)
        assert [r.canonical_json() for r in served] == \
               [r.canonical_json() for r in offline]


class TestServedTraceTelemetry:
    """Trace telemetry must ride the wire but never the canonical bytes."""

    TELEMETRY = ("pass_ms", "cache_hits", "cache_misses", "cache_evicted")

    def test_telemetry_survives_the_served_round_trip(self):
        request = AllocationRequest(
            make_problem(), "dpalloc", options={"trace": True}
        )
        offline = Engine().run(request)
        with ServerThread(engine=Engine(), max_concurrency=2) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            served = client.run(request)
        assert served.trace, "traced request lost its trace on the wire"
        passes = {"bind", "bounds", "check", "refine", "schedule"}
        for event in served.trace:
            # Iterations time the passes they actually ran (the first
            # iteration has no refine step).
            assert {"bind", "bounds", "check", "schedule"} <= set(event.pass_ms)
            assert set(event.pass_ms) <= passes
            assert all(ms >= 0.0 for ms in event.pass_ms.values())
        # The default incremental mode also reports chain-cache counters.
        assert any(event.cache_hits is not None for event in served.trace)
        # Telemetry is wall-clock noise; canonical parity still holds.
        assert served.canonical_json() == offline.canonical_json()

    def test_telemetry_never_leaks_into_canonical_bytes(self):
        request = AllocationRequest(
            make_problem(), "dpalloc", options={"trace": True}
        )
        with ServerThread(engine=Engine(), max_concurrency=2) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            served = client.run(request)
        canonical = json.loads(served.canonical_json())
        events = canonical["datapath"]["trace"]
        assert events, "canonical payload must keep the trace itself"
        for event in events:
            for key in self.TELEMETRY:
                assert key not in event
        for key in self.TELEMETRY:
            assert key not in served.canonical_json()

    def test_wire_payload_carries_telemetry_fields(self):
        # The raw served JSON (not the client object) must include the
        # telemetry keys, so non-Python consumers can read them too.
        from repro.io import allocation_request_to_dict

        request = AllocationRequest(
            make_problem(), "dpalloc", options={"trace": True}
        )
        with ServerThread(engine=Engine(), max_concurrency=1) as st:
            client = ServiceClient(st.url)
            client.wait_healthy()
            payload = client._request(
                "POST", "/v1/allocate", allocation_request_to_dict(request)
            )
        events = payload["datapath"]["trace"]
        assert events
        assert all("pass_ms" in event for event in events)
        assert any("cache_hits" in event for event in events)


# ----------------------------------------------------------------------
# malformed timeouts and shutdown
# ----------------------------------------------------------------------

BAD_TIMEOUTS = ["abc", [1], {"a": 1}, -1, 0, float("nan"), float("inf"), True]


@pytest.fixture(scope="module")
def fleet_over_two_workers():
    with ServerThread(engine=Engine(), max_concurrency=1) as first, \
            ServerThread(engine=Engine(), max_concurrency=1) as second:
        with FleetThread(worker_urls=[first.url, second.url]) as fleet:
            ServiceClient(fleet.url).wait_healthy()
            yield first, fleet


class TestMalformedTimeout:
    @pytest.mark.parametrize("timeout", BAD_TIMEOUTS, ids=repr)
    def test_refused_at_construction_on_the_wire_and_on_the_cli(
        self, timeout, fleet_over_two_workers, monkeypatch, capsys
    ):
        with pytest.raises(ValueError, match="timeout must be None or"):
            make_request(timeout=timeout)

        # Served by a worker or a fleet: a 400, and the fleet refuses it
        # before spending a worker forward.
        worker, fleet = fleet_over_two_workers
        entry = allocate_request_payload(make_request())
        entry["timeout"] = timeout
        batch = {**batch_request_to_dict([]), "requests": [entry]}
        for url in (worker.url, fleet.url):
            client = ServiceClient(url)
            for path, body, kind in (
                ("/v1/allocate", entry, "allocation-request"),
                ("/v1/batch", batch, "allocation-batch-request"),
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client._request("POST", path, body)
                assert excinfo.value.status == 400
                assert f"bad {kind}: timeout must be" in str(excinfo.value)
        stats = ServiceClient(fleet.url).stats()
        assert sum(w["forwards"] for w in stats["workers"]) == 0

        # Every timeout flag: exit 2 with one line, before any handler.
        import repro.cli as cli

        for handler in ("_cmd_batch", "_cmd_shard", "_cmd_serve", "_cmd_fleet"):
            monkeypatch.setattr(cli, handler, lambda args: 0)
        text = json.dumps(timeout)
        for argv in (
            ["batch", "fir", "--timeout", text],
            ["batch", "fir", "--url", "http://127.0.0.1:9",
             "--http-timeout", text],
            ["shard", "fir", "--shards", "1", "--out-dir", "x",
             "--timeout", text],
            ["serve", "--timeout", text],
            ["fleet", "--timeout", text],
            ["fleet", "--worker-timeout", text],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            err = capsys.readouterr().err
            assert "timeout" in err and "Traceback" not in err


class TestServeShutdown:
    @fork_only
    def test_sigterm_exits_zero_and_kills_in_flight_solves(self, tmp_path):
        """Supervisors (and a fleet's ``WorkerPool``) stop ``repro
        serve`` with SIGTERM; it must exit 0 and take a solve still in
        flight down with it instead of orphaning the solve process,
        and without logging the cancelled request's traceback."""
        import signal
        import subprocess
        import sys

        pid_file = tmp_path / "solve.pid"
        stderr_file = tmp_path / "serve.stderr"
        port = free_port()
        script = (
            "import os, sys, time\n"
            "from repro.cli import main\n"
            "from repro.engine import get_allocator, register_allocator\n"
            "@register_allocator('test-serve-hang')\n"
            "def hang(problem, **options):\n"
            f"    open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "    time.sleep(120)\n"
            "    return get_allocator('uniform')(problem)\n"
            f"sys.exit(main(['serve', '--port', '{port}',"
            " '--executor', 'process']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with open(stderr_file, "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
            )
        children = []
        try:
            assert "listening on" in proc.stdout.readline()
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=30)

            def solve():
                with contextlib.suppress(Exception):  # the server dies
                    client.run(make_request(allocator="test-serve-hang"))

            threading.Thread(target=solve, daemon=True).start()
            deadline = time.monotonic() + 30
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pid_file.exists(), "the hanging solve never started"
            children = subprocess.run(
                ["pgrep", "-P", str(proc.pid)],
                capture_output=True, text=True,
            ).stdout.split()
            assert pid_file.read_text() in children

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            alive = [pid for pid in children if _running(int(pid))]
            assert not alive, f"solves orphaned after SIGTERM: {alive}"
            assert "Traceback" not in stderr_file.read_text()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            for pid in children:
                if _running(int(pid)):
                    os.kill(int(pid), 9)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
