"""Tests for the top-level CLI (``python -m repro``)."""

import pytest

from repro.cli import WORKLOADS, main
from repro.engine import allocator_names
from repro.io import (
    allocation_result_from_dict,
    datapath_from_dict,
    graph_to_dict,
    load_json,
    save_json,
)


class TestListWorkloads:
    def test_lists_all(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        for name in WORKLOADS:
            assert name in out


class TestAllocate:
    def test_basic(self, capsys):
        assert main(["allocate", "fir", "--relax", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "method         : dpalloc" in out
        assert "unit 0:" in out

    @pytest.mark.parametrize("method", ["ilp", "two-stage", "clique-sort", "fds"])
    def test_methods(self, method, capsys):
        assert main(["allocate", "dct4", "--relax", "0.5", "--method", method]) == 0
        assert "unit 0:" in capsys.readouterr().out

    def test_absolute_latency(self, capsys):
        assert main(["allocate", "motivational", "--latency", "24"]) == 0
        assert "lambda=24" in capsys.readouterr().out

    def test_infeasible_reports_error(self, capsys):
        # uniform cannot reach lambda_min on the motivational kernel
        code = main([
            "allocate", "motivational", "--relax", "0.0", "--method", "uniform",
        ])
        assert code == 1
        assert "infeasible" in capsys.readouterr().err

    def test_json_export(self, tmp_path, capsys):
        out = tmp_path / "dp.json"
        assert main(["allocate", "fir", "--json", str(out)]) == 0
        clone = datapath_from_dict(load_json(out))
        assert clone.method == "dpalloc"

    def test_dot_export(self, tmp_path, capsys):
        out = tmp_path / "dp.dot"
        assert main(["allocate", "fir", "--dot", str(out)]) == 0
        assert out.read_text().startswith("digraph")

    def test_verilog_export(self, tmp_path, capsys):
        out = tmp_path / "dp.v"
        assert main(["allocate", "fir", "--relax", "1.0", "--verilog", str(out)]) == 0
        text = out.read_text()
        assert "module datapath (" in text and text.rstrip().endswith("endmodule")

    def test_json_graph_input(self, tmp_path, capsys):
        from repro.gen.workloads import dct4

        path = tmp_path / "graph.json"
        save_json(graph_to_dict(dct4()), path)
        assert main(["allocate", str(path), "--relax", "0.5"]) == 0
        assert "unit 0:" in capsys.readouterr().out

    def test_verilog_rejected_for_json_graph(self, tmp_path, capsys):
        from repro.gen.workloads import dct4

        path = tmp_path / "graph.json"
        save_json(graph_to_dict(dct4()), path)
        code = main([
            "allocate", str(path), "--relax", "0.5",
            "--verilog", str(tmp_path / "x.v"),
        ])
        assert code == 1


class TestDelta:
    @pytest.mark.parametrize("edits", [
        [],
        ["latency=12"],
        ["width:mul2=6,6"],
        ["limit:mul=2"],
        ["latency=40", "limit:mul=1"],
    ], ids=["noop", "deadline", "wordlength", "constraint", "two-edits"])
    def test_envelope_matches_cold_solve(self, edits, tmp_path, capsys):
        from repro.cli import _build_problem, _parse_edit
        from repro.core.delta import apply_edits
        from repro.engine import AllocationRequest, execute_request

        out = tmp_path / "delta.json"
        argv = ["delta", "fir", "--relax", "0.2", "--json", str(out)]
        for edit in edits:
            argv += ["--edit", edit]
        assert main(argv) == 0
        assert "delta strategy: " in capsys.readouterr().out
        served = allocation_result_from_dict(load_json(out))
        edited = apply_edits(
            _build_problem("fir", 0.2, None), [_parse_edit(e) for e in edits]
        )
        cold = execute_request(AllocationRequest(edited, "dpalloc"))
        assert served.canonical_json() == cold.canonical_json()

    def test_infeasible_edit_exits_1(self, capsys):
        assert main(["delta", "fir", "--relax", "0.2", "--edit", "latency=2"]) == 1
        assert "delta (scratch): infeasible" in capsys.readouterr().err


class TestTrace:
    def test_allocate_trace_prints_convergence_table(self, capsys):
        assert main(["allocate", "motivational", "--relax", "0.0", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "solver trace:" in out
        assert "accept" in out
        assert "makespan" in out

    def test_trace_rides_into_json_and_summarises(self, tmp_path, capsys):
        out = tmp_path / "dp.json"
        assert main([
            "allocate", "motivational", "--relax", "0.0",
            "--trace", "--json", str(out),
        ]) == 0
        payload = load_json(out)
        assert payload["trace"]
        capsys.readouterr()
        assert main(["trace", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "iterations -> makespan" in rendered
        assert "accept" in rendered

    def test_trace_on_batch_json(self, tmp_path, capsys):
        out = tmp_path / "batch.json"
        # batch has no --trace flag; traced runs come from allocate or
        # engine options -- so synthesise a batch file from one result.
        from repro.engine import AllocationRequest, Engine
        from repro.io import allocation_result_to_dict
        from repro.cli import _build_problem

        problem = _build_problem("motivational", 0.0, None)
        result = Engine().run(
            AllocationRequest(
                problem, "dpalloc", options={"trace": True}, label="motivational",
            )
        )
        save_json(
            {"kind": "allocation-batch",
             "results": [allocation_result_to_dict(result)]},
            out,
        )
        assert main(["trace", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "motivational/dpalloc" in rendered

    def test_trace_without_events_hints(self, tmp_path, capsys):
        out = tmp_path / "dp.json"
        assert main(["allocate", "motivational", "--relax", "0.5",
                     "--json", str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", str(out)]) == 1
        assert "--trace" in capsys.readouterr().err

    def test_trace_rejects_wrong_payload(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        from repro.gen.workloads import dct4

        save_json(graph_to_dict(dct4()), path)
        assert main(["trace", str(path)]) == 2
        assert "kind" in capsys.readouterr().err

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_trace_warns_for_non_dpalloc_method(self, capsys):
        assert main([
            "allocate", "motivational", "--relax", "1.0",
            "--method", "uniform", "--trace",
        ]) == 0
        captured = capsys.readouterr()
        assert "untraced" in captured.err
        assert "solver trace:" not in captured.out


class TestCompare:
    def test_table_has_all_methods(self, capsys):
        assert main(["compare", "motivational", "--relax", "1.0"]) == 0
        out = capsys.readouterr().out
        for method in allocator_names():
            assert method in out

    def test_infeasible_methods_reported_per_row(self, capsys):
        # uniform cannot reach lambda_min on the motivational kernel, but
        # the other methods can: the row says so and the command succeeds.
        assert main(["compare", "motivational", "--relax", "0.0"]) == 0
        captured = capsys.readouterr()
        assert "infeasible" in captured.out
        assert "uniform" in captured.err

    def test_nonzero_only_when_all_methods_fail(self, capsys):
        assert main(["compare", "fir", "--latency", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("infeasible") == len(allocator_names())

    def test_parallel_workers(self, capsys):
        assert main(["compare", "fir", "--relax", "0.5", "--workers", "2"]) == 0
        assert "dpalloc" in capsys.readouterr().out

    def test_timeout_and_executor_flags(self, capsys):
        # compare shares batch's engine flags: a generous hard per-solve
        # budget through the process-per-run executor changes nothing.
        assert main([
            "compare", "motivational", "--relax", "1.0",
            "--timeout", "120", "--executor", "process",
        ]) == 0
        out = capsys.readouterr().out
        for method in allocator_names():
            assert method in out
        assert "timeout" not in out

    def test_unknown_workload_fails(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "not-a-workload"])
        assert excinfo.value.code == 2
        assert "cannot load 'not-a-workload'" in capsys.readouterr().err


class TestBatch:
    def test_workloads_times_methods(self, capsys):
        assert main([
            "batch", "fir", "biquad",
            "--methods", "dpalloc,uniform", "--relax", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "fir" in out and "biquad" in out
        assert "dpalloc" in out and "uniform" in out

    def test_json_export_round_trips(self, tmp_path, capsys):
        out = tmp_path / "batch.json"
        assert main([
            "batch", "fir", "--methods", "dpalloc", "--relax", "0.5",
            "--json", str(out),
        ]) == 0
        payload = load_json(out)
        assert payload["kind"] == "allocation-batch"
        (entry,) = payload["results"]
        result = allocation_result_from_dict(entry)
        assert result.ok and result.allocator == "dpalloc"

    def test_cache_dir_reused_across_invocations(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [
            "batch", "fir", "--methods", "dpalloc", "--relax", "0.5",
            "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "(cached)" not in first
        assert main(argv) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_unknown_method_rejected(self, capsys):
        assert main(["batch", "fir", "--methods", "quantum"]) == 2
        assert "quantum" in capsys.readouterr().err

    def test_all_infeasible_exits_nonzero(self, capsys):
        assert main([
            "batch", "fir", "--methods", "uniform", "--latency", "1",
        ]) == 1
        assert "infeasible" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, "{}"])
    def test_from_shard_unloadable_file_is_a_usage_error(
        self, content, tmp_path, capsys
    ):
        path = tmp_path / "shard.json"
        if content is not None:
            path.write_text(content)
        assert main(["batch", "--from-shard", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"batch --from-shard: cannot load '{path}': ")
        assert "Traceback" not in err

    def test_process_executor_matches_pool_output(self, tmp_path, capsys):
        argv = ["batch", "fir", "--methods", "dpalloc,uniform",
                "--relax", "0.5"]
        pool_json = tmp_path / "pool.json"
        proc_json = tmp_path / "proc.json"
        assert main([*argv, "--json", str(pool_json)]) == 0
        assert main([*argv, "--executor", "process",
                     "--json", str(proc_json)]) == 0
        capsys.readouterr()
        pool = [allocation_result_from_dict(r)
                for r in load_json(pool_json)["results"]]
        proc = [allocation_result_from_dict(r)
                for r in load_json(proc_json)["results"]]
        assert [r.canonical_json() for r in pool] == \
               [r.canonical_json() for r in proc]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["allocate", "fir", "--method", "quantum"])

    @pytest.mark.parametrize("argv", [
        ["allocate", "fir", "--latency", "0"],
        ["compare", "fir", "--latency", "0"],
        ["batch", "fir", "--latency", "-2"],
        ["delta", "fir", "--latency", "0", "--edit", "latency=40"],
    ])
    def test_nonpositive_latency_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--latency: must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["allocate"], ["compare"], ["batch"], ["delta"],
        ["shard", "--shards", "2", "--out-dir"],
    ])
    def test_unloadable_workload_is_a_usage_error(
        self, command, tmp_path, capsys
    ):
        not_a_graph = tmp_path / "datapath.json"
        save_json({"kind": "datapath"}, not_a_graph)
        tail = [str(tmp_path / "shards")] if command[0] == "shard" else []
        for source, error in (
            ("nosuch", "No such file"),
            (str(not_a_graph), "not a sequencing graph payload"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([command[0], source, *command[1:], *tail])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"cannot load {source!r}" in err
            assert ", ".join(sorted(WORKLOADS)) in err and error in err
            assert "Traceback" not in err


class TestServiceFlagConsolidation:
    """One --url/--http-timeout/--priority surface across
    allocate/compare/batch/delta."""

    def make_server(self):
        from repro.engine import Engine
        from repro.service import ServerThread

        return ServerThread(engine=Engine(), max_concurrency=2)

    def test_allocate_url_round_trip(self, capsys):
        with self.make_server() as st:
            assert main([
                "allocate", "fir", "--relax", "0.5", "--url", st.url,
            ]) == 0
        out = capsys.readouterr().out
        assert "method         : dpalloc" in out

    def test_compare_url_round_trip(self, capsys):
        with self.make_server() as st:
            assert main([
                "compare", "motivational", "--relax", "1.0", "--url", st.url,
            ]) == 0
        out = capsys.readouterr().out
        for method in allocator_names():
            assert method in out

    def test_batch_url_matches_local_batch(self, tmp_path, capsys):
        local = tmp_path / "local.json"
        served = tmp_path / "served.json"
        argv = ["batch", "fir", "--methods", "dpalloc,uniform",
                "--relax", "0.5"]
        assert main([*argv, "--json", str(local)]) == 0
        with self.make_server() as st:
            assert main([
                *argv, "--url", st.url, "--json", str(served),
            ]) == 0
        out = capsys.readouterr().out
        assert "served by" in out
        local_results = [allocation_result_from_dict(r)
                         for r in load_json(local)["results"]]
        served_results = [allocation_result_from_dict(r)
                          for r in load_json(served)["results"]]
        assert [r.canonical_json() for r in served_results] == \
               [r.canonical_json() for r in local_results]

    def test_batch_from_shard_refuses_url(self, tmp_path, capsys):
        assert main([
            "batch", "--from-shard", str(tmp_path / "shard.json"),
            "--url", "http://127.0.0.1:1",
        ]) == 2
        assert "--from-shard" in capsys.readouterr().err

    def test_allocate_priority_needs_no_service(self, capsys):
        # --priority is advisory for the local engine: accepted, unused.
        assert main([
            "allocate", "fir", "--relax", "0.5", "--priority", "bulk",
        ]) == 0
        assert "unit 0:" in capsys.readouterr().out

    def test_priority_rejects_unknown_class(self):
        with pytest.raises(SystemExit):
            main(["allocate", "fir", "--priority", "vip"])

    def test_shared_cache_dir_requires_cache_dir(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "batch", "fir", "--methods", "dpalloc",
                "--shared-cache-dir", str(tmp_path / "store"),
            ])
        assert excinfo.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_batch_shared_cache_dir_spills_to_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        first_cache = tmp_path / "cache-a"
        second_cache = tmp_path / "cache-b"
        argv = ["batch", "fir", "--methods", "dpalloc", "--relax", "0.5"]
        assert main([
            *argv, "--cache-dir", str(first_cache),
            "--shared-cache-dir", str(store),
        ]) == 0
        capsys.readouterr()
        # a different local cache, same shared store: served as cached
        assert main([
            *argv, "--cache-dir", str(second_cache),
            "--shared-cache-dir", str(store),
        ]) == 0
        assert "(cached)" in capsys.readouterr().out
