"""Sequencing graph ``P(O, S)`` -- the data-dependency DAG of the paper.

Nodes are operation names; every node carries an :class:`~repro.ir.ops.Operation`.
Directed edges are data dependencies: an edge ``(o1, o2)`` means ``o2``
consumes the result of ``o1`` and may only start once ``o1`` completes.

The class wraps a :class:`networkx.DiGraph` and offers the schedule
primitives the allocation algorithms need: ASAP / ALAP times for an
arbitrary per-operation latency assignment, critical-path length, and the
minimum feasible overall latency ``lambda_min`` used throughout the
paper's evaluation.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import networkx as nx

from .ops import Operation

__all__ = ["SequencingGraph", "CycleError"]

LatencyMap = Mapping[str, int]


class CycleError(ValueError):
    """Raised when a sequencing graph is not acyclic."""


class SequencingGraph:
    """A DAG of :class:`Operation` nodes with data-dependency edges."""

    def __init__(self) -> None:
        self._g = nx.DiGraph()
        self._ops: Dict[str, Operation] = {}
        # Derived-structure caches, invalidated on mutation.  The solver
        # pipeline asks for the topological order and sorted
        # neighbourhoods once per iteration on a graph that never
        # changes mid-solve, so these keep networkx off the hot path.
        self._topo_cache: Optional[Tuple[str, ...]] = None
        self._pred_cache: Dict[str, Tuple[str, ...]] = {}
        self._succ_cache: Dict[str, Tuple[str, ...]] = {}

    def _invalidate_caches(self) -> None:
        self._topo_cache = None
        self._pred_cache.clear()
        self._succ_cache.clear()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_operation(self, op: Operation) -> Operation:
        """Add an operation node; names must be unique."""
        if op.name in self._ops:
            raise ValueError(f"duplicate operation name {op.name!r}")
        self._ops[op.name] = op
        self._g.add_node(op.name)
        self._invalidate_caches()
        return op

    def add(self, name: str, kind: str, operand_widths: Iterable[int]) -> Operation:
        """Convenience wrapper: build and add an operation in one call."""
        return self.add_operation(Operation(name, kind, tuple(operand_widths)))

    def add_dependency(self, producer: str, consumer: str) -> None:
        """Add data-dependency edge ``producer -> consumer``."""
        for name in (producer, consumer):
            if name not in self._ops:
                raise KeyError(f"unknown operation {name!r}")
        if producer == consumer:
            raise CycleError(f"self-dependency on {producer!r}")
        self._g.add_edge(producer, consumer)
        if not nx.is_directed_acyclic_graph(self._g):
            self._g.remove_edge(producer, consumer)
            raise CycleError(f"edge {producer!r}->{consumer!r} creates a cycle")
        self._invalidate_caches()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops.values())

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """All operations, in insertion order."""
        return tuple(self._ops.values())

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._ops)

    def operation(self, name: str) -> Operation:
        return self._ops[name]

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        """Data-dependency edges as (producer, consumer) name pairs."""
        return tuple(self._g.edges())

    def predecessors(self, name: str) -> List[str]:
        cached = self._pred_cache.get(name)
        if cached is None:
            if name not in self._ops:
                raise nx.NetworkXError(
                    f"The node {name} is not in the digraph."
                )
            cached = tuple(sorted(self._g.predecessors(name)))
            self._pred_cache[name] = cached
        return list(cached)

    def successors(self, name: str) -> List[str]:
        cached = self._succ_cache.get(name)
        if cached is None:
            if name not in self._ops:
                raise nx.NetworkXError(
                    f"The node {name} is not in the digraph."
                )
            cached = tuple(sorted(self._g.successors(name)))
            self._succ_cache[name] = cached
        return list(cached)

    def sources(self) -> List[str]:
        return sorted(n for n in self._g.nodes if self._g.in_degree(n) == 0)

    def sinks(self) -> List[str]:
        return sorted(n for n in self._g.nodes if self._g.out_degree(n) == 0)

    def topological_order(self) -> List[str]:
        """Deterministic topological ordering (lexicographic tie-break)."""
        if self._topo_cache is None:
            self._topo_cache = tuple(
                nx.lexicographical_topological_sort(self._g)
            )
        return list(self._topo_cache)

    def to_networkx(self) -> nx.DiGraph:
        """A copy of the underlying dependency DiGraph."""
        return self._g.copy()

    def copy(self) -> "SequencingGraph":
        clone = SequencingGraph()
        for op in self.operations:
            clone.add_operation(op)
        for u, v in self._g.edges():
            clone.add_dependency(u, v)
        return clone

    # ------------------------------------------------------------------
    # timing primitives
    # ------------------------------------------------------------------
    def _check_latencies(self, latency: LatencyMap) -> None:
        missing = [n for n in self._ops if n not in latency]
        if missing:
            raise KeyError(f"latency missing for operations: {missing}")
        bad = [n for n in self._ops if latency[n] < 1]
        if bad:
            raise ValueError(f"latencies must be >= 1 cycle, offenders: {bad}")

    def asap(self, latency: LatencyMap) -> Dict[str, int]:
        """Earliest start step of every operation for the given latencies."""
        self._check_latencies(latency)
        start: Dict[str, int] = {}
        for name in self.topological_order():
            preds = self._g.predecessors(name)
            start[name] = max((start[p] + latency[p] for p in preds), default=0)
        return start

    def makespan(self, schedule: Mapping[str, int], latency: LatencyMap) -> int:
        """Completion time of the whole graph under ``schedule``."""
        self._check_latencies(latency)
        if not self._ops:
            return 0
        return max(schedule[n] + latency[n] for n in self._ops)

    def alap(self, latency: LatencyMap, deadline: Optional[int] = None) -> Dict[str, int]:
        """Latest start steps meeting ``deadline`` (default: ASAP makespan)."""
        self._check_latencies(latency)
        if deadline is None:
            asap = self.asap(latency)
            deadline = self.makespan(asap, latency)
        start: Dict[str, int] = {}
        for name in reversed(self.topological_order()):
            succs = list(self._g.successors(name))
            finish = min((start[s] for s in succs), default=deadline)
            start[name] = finish - latency[name]
        return start

    def slack(self, latency: LatencyMap, deadline: Optional[int] = None) -> Dict[str, int]:
        """Per-operation scheduling slack: ALAP - ASAP start times."""
        asap = self.asap(latency)
        alap = self.alap(latency, deadline)
        return {n: alap[n] - asap[n] for n in self._ops}

    def critical_path_length(self, latency: LatencyMap) -> int:
        """Length of the longest dependency chain, in cycles."""
        return self.makespan(self.asap(latency), latency)

    def critical_operations(self, latency: LatencyMap) -> List[str]:
        """Operations with zero slack w.r.t. the ASAP makespan."""
        return sorted(n for n, s in self.slack(latency).items() if s == 0)

    def minimum_latency(self, min_latency_of: Callable[[Operation], int]) -> int:
        """``lambda_min``: critical path with every op at its own minimum latency.

        This is the tightest achievable overall latency constraint (with
        unconstrained resources); the paper relaxes it by 0--30% to build
        the Fig. 3 / Table 2 sweeps.
        """
        latency = {op.name: min_latency_of(op) for op in self.operations}
        return self.critical_path_length(latency)

    def validate(self) -> None:
        """Raise if the graph is not a DAG (defensive; edges are checked on add)."""
        if not nx.is_directed_acyclic_graph(self._g):
            raise CycleError("sequencing graph contains a cycle")

    def __repr__(self) -> str:
        return (
            f"SequencingGraph(|O|={len(self._ops)}, "
            f"|S|={self._g.number_of_edges()})"
        )
