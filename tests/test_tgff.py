"""Tests for the TGFF-style random graph generator."""

import networkx as nx
import pytest

from repro.gen.tgff import TgffConfig, random_graphs, random_sequencing_graph


class TestGeneration:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 24])
    def test_requested_size(self, n):
        assert len(random_sequencing_graph(n, seed=1)) == n

    def test_zero_ops_rejected(self):
        with pytest.raises(ValueError):
            random_sequencing_graph(0, seed=1)

    def test_is_dag(self):
        g = random_sequencing_graph(30, seed=3)
        assert nx.is_directed_acyclic_graph(nx.DiGraph(g.edges()))

    def test_determinism(self):
        a = random_sequencing_graph(15, seed=99)
        b = random_sequencing_graph(15, seed=99)
        assert a.operations == b.operations
        assert a.edges() == b.edges()

    def test_seed_changes_graph(self):
        a = random_sequencing_graph(15, seed=1)
        b = random_sequencing_graph(15, seed=2)
        assert a.operations != b.operations or a.edges() != b.edges()

    def test_widths_within_configured_range(self):
        cfg = TgffConfig(width_low=6, width_high=10)
        g = random_sequencing_graph(40, seed=5, config=cfg)
        for op in g.operations:
            assert all(6 <= w <= 10 for w in op.operand_widths)

    def test_kind_probability_extremes(self):
        all_mul = random_sequencing_graph(
            30, seed=7, config=TgffConfig(p_mul=1.0)
        )
        assert all(op.kind == "mul" for op in all_mul.operations)
        all_add = random_sequencing_graph(
            30, seed=7, config=TgffConfig(p_mul=0.0)
        )
        assert all(op.kind == "add" for op in all_add.operations)

    def test_in_degree_bounded(self):
        cfg = TgffConfig(max_in_degree=2)
        g = random_sequencing_graph(40, seed=11, config=cfg)
        assert all(len(g.predecessors(n)) <= 2 for n in g.names)

    def test_out_degree_bounded(self):
        cfg = TgffConfig(max_out_degree=2)
        g = random_sequencing_graph(40, seed=13, config=cfg)
        assert all(len(g.successors(n)) <= 2 for n in g.names)


class TestConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            TgffConfig(p_mul=1.5)

    def test_bad_widths(self):
        with pytest.raises(ValueError):
            TgffConfig(width_low=10, width_high=4)
        with pytest.raises(ValueError):
            TgffConfig(width_low=0)

    def test_bad_degrees(self):
        with pytest.raises(ValueError):
            TgffConfig(max_in_degree=0)

    def test_bad_fan_out_probability(self):
        with pytest.raises(ValueError):
            TgffConfig(p_fan_out=-0.1)


class TestBatch:
    def test_random_graphs_batch(self):
        batch = random_graphs(6, samples=5, base_seed=77)
        assert len(batch) == 5
        assert all(len(g) == 6 for g in batch)
        # Distinct seeds give (almost surely) distinct graphs.
        signatures = {tuple(str(op) for op in g.operations) for g in batch}
        assert len(signatures) > 1
