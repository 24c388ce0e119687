"""Tests for the sequencing graph and its timing primitives."""

import random

import networkx as nx
import pytest

from repro.cli import WORKLOADS
from repro.gen.tgff import random_sequencing_graph
from repro.ir.ops import Operation
from repro.ir.seqgraph import CycleError, SequencingGraph


def simple_chain():
    g = SequencingGraph()
    g.add("a", "mul", (8, 8))
    g.add("b", "add", (16, 16))
    g.add("c", "mul", (4, 4))
    g.add_dependency("a", "b")
    g.add_dependency("b", "c")
    return g


class TestConstruction:
    def test_add_and_len(self):
        g = simple_chain()
        assert len(g) == 3
        assert set(g.names) == {"a", "b", "c"}

    def test_duplicate_name_rejected(self):
        g = SequencingGraph()
        g.add("a", "mul", (8, 8))
        with pytest.raises(ValueError, match="duplicate"):
            g.add("a", "add", (4, 4))

    def test_dependency_on_unknown_op(self):
        g = SequencingGraph()
        g.add("a", "mul", (8, 8))
        with pytest.raises(KeyError):
            g.add_dependency("a", "ghost")

    def test_self_dependency_rejected(self):
        g = SequencingGraph()
        g.add("a", "mul", (8, 8))
        with pytest.raises(CycleError):
            g.add_dependency("a", "a")

    def test_cycle_rejected_and_rolled_back(self):
        g = simple_chain()
        with pytest.raises(CycleError):
            g.add_dependency("c", "a")
        # The offending edge must not linger.
        assert ("c", "a") not in g.edges()
        assert g.predecessors("a") == [] and g.successors("c") == []
        assert g.topological_order() == ["a", "b", "c"]

    def test_add_operation_object(self):
        g = SequencingGraph()
        op = Operation("x", "mul", (5, 5))
        assert g.add_operation(op) is op
        assert g.operation("x") is op

    def test_contains_and_iter(self):
        g = simple_chain()
        assert "a" in g and "nope" not in g
        assert [op.name for op in g] == ["a", "b", "c"]

    def test_copy_is_independent(self):
        g = simple_chain()
        clone = g.copy()
        clone.add("d", "add", (4, 4))
        assert "d" not in g
        assert set(clone.edges()) == set(g.edges())


class TestNavigation:
    def test_predecessors_successors(self):
        g = simple_chain()
        assert g.predecessors("b") == ["a"]
        assert g.successors("b") == ["c"]
        assert g.predecessors("a") == []

    def test_sources_sinks(self):
        g = simple_chain()
        assert g.sources() == ["a"]
        assert g.sinks() == ["c"]

    def test_topological_order_is_deterministic(self):
        g = SequencingGraph()
        for name in ("z", "m", "a"):
            g.add(name, "add", (4, 4))
        assert g.topological_order() == ["a", "m", "z"]


class TestTiming:
    LAT = {"a": 2, "b": 2, "c": 3}

    def test_asap_chain(self):
        g = simple_chain()
        assert g.asap(self.LAT) == {"a": 0, "b": 2, "c": 4}

    def test_makespan(self):
        g = simple_chain()
        assert g.makespan(g.asap(self.LAT), self.LAT) == 7

    def test_alap_default_deadline(self):
        g = simple_chain()
        alap = g.alap(self.LAT)
        assert alap == {"a": 0, "b": 2, "c": 4}

    def test_alap_with_slack(self):
        g = simple_chain()
        alap = g.alap(self.LAT, deadline=10)
        assert alap == {"a": 3, "b": 5, "c": 7}

    def test_slack(self):
        g = simple_chain()
        assert g.slack(self.LAT, deadline=9) == {"a": 2, "b": 2, "c": 2}

    def test_critical_path_length(self):
        g = simple_chain()
        assert g.critical_path_length(self.LAT) == 7

    def test_critical_operations_diamond(self):
        g = SequencingGraph()
        g.add("s", "mul", (4, 4))
        g.add("fast", "add", (4, 4))
        g.add("slow", "mul", (20, 20))
        g.add("t", "add", (8, 8))
        for u, v in (("s", "fast"), ("s", "slow"), ("fast", "t"), ("slow", "t")):
            g.add_dependency(u, v)
        lat = {"s": 1, "fast": 1, "slow": 5, "t": 1}
        assert g.critical_operations(lat) == ["s", "slow", "t"]

    def test_missing_latency_raises(self):
        g = simple_chain()
        with pytest.raises(KeyError, match="latency missing"):
            g.asap({"a": 1})

    def test_nonpositive_latency_raises(self):
        g = simple_chain()
        with pytest.raises(ValueError, match=">= 1"):
            g.asap({"a": 0, "b": 1, "c": 1})

    def test_minimum_latency_uses_per_op_minimum(self):
        g = simple_chain()
        # mul 8x8 -> ceil(16/8)=2; add -> 2; mul 4x4 -> ceil(8/8)=1
        assert g.minimum_latency(lambda op: {"a": 2, "b": 2, "c": 1}[op.name]) == 5

    def test_empty_graph_timing(self):
        g = SequencingGraph()
        assert g.asap({}) == {}
        assert g.makespan({}, {}) == 0

    def test_parallel_ops_share_step_zero(self):
        g = SequencingGraph()
        g.add("x", "mul", (4, 4))
        g.add("y", "mul", (6, 6))
        assert g.asap({"x": 1, "y": 2}) == {"x": 0, "y": 0}


class TestDerivedStructureCaches:
    """topological_order / neighbour caches stay correct under mutation."""

    def _chain(self):
        g = SequencingGraph()
        g.add("a", "mul", (8, 8))
        g.add("b", "add", (16, 16))
        g.add_dependency("a", "b")
        return g

    def test_topological_order_cache_invalidated_by_new_edge(self):
        g = self._chain()
        assert g.topological_order() == ["a", "b"]
        g.add("c", "add", (16, 16))
        g.add_dependency("c", "a")
        assert g.topological_order() == ["c", "a", "b"]

    def test_neighbour_caches_invalidated_by_new_edge(self):
        g = self._chain()
        assert g.predecessors("b") == ["a"]
        assert g.successors("a") == ["b"]
        g.add("c", "mul", (8, 8))
        g.add_dependency("c", "b")
        assert g.predecessors("b") == ["a", "c"]

    def test_returned_lists_are_copies(self):
        g = self._chain()
        g.predecessors("b").append("junk")
        g.topological_order().append("junk")
        assert g.predecessors("b") == ["a"]
        assert g.topological_order() == ["a", "b"]

    def test_unknown_name_still_raises(self):
        g = self._chain()
        with pytest.raises(KeyError):
            g.predecessors("ghost")
        with pytest.raises(KeyError):
            g.successors("ghost")


# ----------------------------------------------------------------------
# networkx as the oracle: the graph once wrapped an nx.DiGraph, and
# Problem.fingerprint() (so every cache key and fleet route) hashes the
# edges() order that networkx gave.
# ----------------------------------------------------------------------

class RecordedBuild:
    """Every add_operation/add_dependency call, in order, per graph."""

    def __init__(self, monkeypatch):
        self.calls = {}
        add_operation = SequencingGraph.add_operation
        add_dependency = SequencingGraph.add_dependency

        def recording_operation(graph, op):
            self.calls.setdefault(graph, []).append(("node", op.name))
            return add_operation(graph, op)

        def recording_dependency(graph, producer, consumer):
            self.calls.setdefault(graph, []).append(
                ("edge", producer, consumer)
            )
            return add_dependency(graph, producer, consumer)

        monkeypatch.setattr(SequencingGraph, "add_operation", recording_operation)
        monkeypatch.setattr(SequencingGraph, "add_dependency", recording_dependency)

    def oracle(self, graph):
        """The nx.DiGraph the old wrapper built from the same calls."""
        return replay_into_networkx(self.calls[graph])[0]


def replay_into_networkx(calls):
    """Apply add calls to an nx.DiGraph exactly as the old wrapper did.

    Returns the graph and, per edge call, whether it was rejected as a
    cycle.
    """
    oracle = nx.DiGraph()
    rejected = []
    for call in calls:
        if call[0] == "node":
            oracle.add_node(call[1])
            continue
        _, producer, consumer = call
        if producer == consumer:
            rejected.append(True)
            continue
        oracle.add_edge(producer, consumer)
        cyclic = not nx.is_directed_acyclic_graph(oracle)
        if cyclic:
            oracle.remove_edge(producer, consumer)
        rejected.append(cyclic)
    return oracle, rejected


def assert_matches_networkx(graph, oracle):
    assert graph.edges() == tuple(oracle.edges())
    assert graph.topological_order() == list(
        nx.lexicographical_topological_sort(oracle)
    )
    for name in graph.names:
        assert graph.predecessors(name) == sorted(oracle.predecessors(name))
        assert graph.successors(name) == sorted(oracle.successors(name))
    assert graph.sources() == sorted(
        n for n in oracle.nodes if oracle.in_degree(n) == 0
    )
    assert graph.sinks() == sorted(
        n for n in oracle.nodes if oracle.out_degree(n) == 0
    )


class TestNetworkxOracle:
    @pytest.mark.parametrize("num_ops", [1, 6, 12, 20, 48, 96, 160])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tgff_grid(self, num_ops, seed, monkeypatch):
        build = RecordedBuild(monkeypatch)
        graph = random_sequencing_graph(num_ops, seed=seed)
        assert_matches_networkx(graph, build.oracle(graph))
        copy = graph.copy()
        assert_matches_networkx(copy, build.oracle(copy))

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_named_workloads(self, name, monkeypatch):
        build = RecordedBuild(monkeypatch)
        graph = WORKLOADS[name][0]()
        assert_matches_networkx(graph, build.oracle(graph))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_insert_sequences(self, seed):
        """Shuffled names, duplicate, self and cycle-closing edges."""
        rng = random.Random(seed)
        names = [f"{rng.choice('abcxyz')}{i}" for i in range(rng.randint(1, 30))]
        rng.shuffle(names)
        calls = [("node", name) for name in names]
        for _ in range(rng.randint(0, 3 * len(names))):
            calls.append(("edge", rng.choice(names), rng.choice(names)))
        rng.shuffle(calls)  # edges may come before their nodes
        graph = SequencingGraph()
        applied = []
        rejected = []
        for call in calls:
            if call[0] == "node":
                graph.add(call[1], "add", (8, 8))
                applied.append(call)
                continue
            _, producer, consumer = call
            if producer not in graph or consumer not in graph:
                with pytest.raises(KeyError):
                    graph.add_dependency(producer, consumer)
                continue
            applied.append(call)
            try:
                graph.add_dependency(producer, consumer)
            except CycleError:
                rejected.append(True)
            else:
                rejected.append(False)
        oracle, expected = replay_into_networkx(applied)
        assert rejected == expected
        assert_matches_networkx(graph, oracle)
