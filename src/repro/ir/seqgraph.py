"""Sequencing graph ``P(O, S)`` -- the data-dependency DAG of the paper.

Nodes are operation names; every node carries an :class:`~repro.ir.ops.Operation`.
Directed edges are data dependencies: an edge ``(o1, o2)`` means ``o2``
consumes the result of ``o1`` and may only start once ``o1`` completes.

The class holds its own adjacency and offers the schedule primitives
the allocation algorithms need: ASAP / ALAP times for an arbitrary
per-operation latency assignment, critical-path length, and the minimum
feasible overall latency ``lambda_min`` used throughout the paper's
evaluation.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .ops import Operation

__all__ = ["SequencingGraph", "CycleError"]

LatencyMap = Mapping[str, int]


class CycleError(ValueError):
    """Raised when a sequencing graph is not acyclic."""


class SequencingGraph:
    """A DAG of :class:`Operation` nodes with data-dependency edges."""

    def __init__(self) -> None:
        self._ops: Dict[str, Operation] = {}
        # Each producer's consumers in the order their edges were added.
        # edges() walks these in operation order: the order
        # Problem.fingerprint() hashes, so it must never change.
        self._out: Dict[str, List[str]] = {}
        # Sorted neighbour tuples, kept current by add_dependency.
        self._preds: Dict[str, Tuple[str, ...]] = {}
        self._succs: Dict[str, Tuple[str, ...]] = {}
        # The topological order, built on first use after a mutation:
        # the solver asks for it every iteration of a fixed graph.
        self._topo: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_operation(self, op: Operation) -> Operation:
        """Add an operation node; names must be unique."""
        if op.name in self._ops:
            raise ValueError(f"duplicate operation name {op.name!r}")
        self._ops[op.name] = op
        self._out[op.name] = []
        self._preds[op.name] = ()
        self._succs[op.name] = ()
        self._topo = None
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
        if consumer in self._succs[producer]:
            return
        if self._reaches(consumer, producer):
            raise CycleError(f"edge {producer!r}->{consumer!r} creates a cycle")
        self._out[producer].append(consumer)
        self._succs[producer] = tuple(sorted(self._succs[producer] + (consumer,)))
        self._preds[consumer] = tuple(sorted(self._preds[consumer] + (producer,)))
        self._topo = None

    def _reaches(self, source: str, target: str) -> bool:
        """True when a dependency path leads from ``source`` to ``target``."""
        stack = [source]
        seen = {source}
        while stack:
            for successor in self._succs[stack.pop()]:
                if successor == target:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return False

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
        """Data-dependency edges as (producer, consumer) name pairs.

        Producers in insertion order, each one's consumers in the order
        their edges were added.
        """
        return tuple(
            (producer, consumer)
            for producer, consumers in self._out.items()
            for consumer in consumers
        )

    def predecessors(self, name: str) -> List[str]:
        """The producers ``name`` consumes, sorted; ``KeyError`` if unknown."""
        return list(self._preds[name])

    def successors(self, name: str) -> List[str]:
        """The consumers of ``name``, sorted; ``KeyError`` if unknown."""
        return list(self._succs[name])

    def sources(self) -> List[str]:
        return sorted(n for n in self._ops if not self._preds[n])

    def sinks(self) -> List[str]:
        return sorted(n for n in self._ops if not self._succs[n])

    def topological_order(self) -> List[str]:
        """Deterministic topological ordering (lexicographic tie-break).

        Kahn's algorithm over a heap of ready names: of all topological
        orders, the lexicographically smallest.
        """
        if self._topo is None:
            waiting = {name: len(preds) for name, preds in self._preds.items()}
            ready = [name for name, count in waiting.items() if count == 0]
            heapq.heapify(ready)
            order: List[str] = []
            while ready:
                name = heapq.heappop(ready)
                order.append(name)
                for successor in self._succs[name]:
                    waiting[successor] -= 1
                    if waiting[successor] == 0:
                        heapq.heappush(ready, successor)
            self._topo = tuple(order)
        return list(self._topo)

    def copy(self) -> "SequencingGraph":
        clone = SequencingGraph()
        for op in self.operations:
            clone.add_operation(op)
        for u, v in self.edges():
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
            preds = self._preds[name]
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
            succs = self._succs[name]
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

    def __repr__(self) -> str:
        return (
            f"SequencingGraph(|O|={len(self._ops)}, "
            f"|S|={sum(len(out) for out in self._out.values())})"
        )
