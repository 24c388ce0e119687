"""Reference formulations of the solver's inner kernels (test oracles).

The shipped kernels in ``repro.core`` are array/integer-shaped rewrites
that must make exactly the same decisions as the straightforward
formulations below.  The equivalence tests (``test_goldens.py``,
``test_scheduling.py``) drive both on identical inputs and require
exact equality:

* :func:`reference_max_chain` -- the quadratic max-chain DP behind
  :func:`repro.core.binding.max_chain` (O(k log k) retire pointer);
* :class:`ReferenceH` -- ``H`` as a dict of sets, behind the
  :class:`repro.core.wcg.WordlengthCompatibilityGraph` id bitsets and
  their decoding accessors;
* :func:`cheapest_covering_resource` -- per-op set intersection plus
  ``min``, behind Bindselect's Eqn. 4 probe (an AND of the members'
  resource bitsets, then ``BindIndex.cheapest``);
* :class:`Eqn3TrackerReference` -- ``Fraction`` arithmetic behind the
  scaled-integer :class:`repro.core.scheduling.Eqn3Tracker`;
* :func:`reference_bound_critical_path` -- the augmented DAG built from
  all-pairs ``S_b`` edges and walked in lexicographic Kahn order, behind
  the schedule-order sweep of
  :func:`repro.core.refinement.bound_critical_path`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.binding import Binding
from repro.core.problem import InfeasibleError
from repro.core.wcg import WordlengthCompatibilityGraph
from repro.ir.ops import Operation
from repro.resources.area import AreaModel
from repro.resources.latency import LatencyModel
from repro.resources.types import ResourceType
from repro.utils.covering import min_cardinality_cover


def reference_max_chain(
    candidates: Sequence[str],
    schedule: Mapping[str, int],
    latencies: Mapping[str, int],
) -> List[str]:
    """Quadratic max-chain DP over ops sorted by ``(start, name)``.

    Each op's predecessor is the first earlier op (in sorted order) that
    finishes by its start and strictly improves its chain length; the
    tail is the op with the greatest ``(length, name)``.
    """
    if not candidates:
        return []
    ordered = sorted(candidates, key=lambda n: (schedule[n], n))
    best_len: Dict[str, int] = {}
    best_pred: Dict[str, Optional[str]] = {}
    for i, name in enumerate(ordered):
        best_len[name] = 1
        best_pred[name] = None
        for prev in ordered[:i]:
            if schedule[prev] + latencies[prev] <= schedule[name]:
                if best_len[prev] + 1 > best_len[name]:
                    best_len[name] = best_len[prev] + 1
                    best_pred[name] = prev
    chain: List[str] = []
    cursor: Optional[str] = max(ordered, key=lambda n: (best_len[n], n))
    while cursor is not None:
        chain.append(cursor)
        cursor = best_pred[cursor]
    chain.reverse()
    return chain


class ReferenceH:
    """The ``H`` edge set as a dict of sets, refined by deleting slowest edges.

    Starts from the coverage edges and answers the WCG's ``H`` queries
    by plain set scans and sorts.
    """

    def __init__(
        self,
        ops: Sequence[Operation],
        resources: Sequence[ResourceType],
        latency_model: LatencyModel,
    ) -> None:
        self.ops = {op.name: op for op in ops}
        self.latency = {r: latency_model.latency(r) for r in resources}
        self.h: Dict[str, Set[ResourceType]] = {
            name: {r for r in resources if r.covers(op)}
            for name, op in self.ops.items()
        }

    def compatible_resources(self, name: str) -> Tuple[ResourceType, ...]:
        return tuple(sorted(self.h[name]))

    def ops_for_resource(self, resource: ResourceType) -> Tuple[str, ...]:
        return tuple(sorted(n for n, rs in self.h.items() if resource in rs))

    def edge_count(self) -> int:
        return sum(len(rs) for rs in self.h.values())

    def upper_bound_latency(self, name: str) -> int:
        return max(self.latency[r] for r in self.h[name])

    def can_refine(self, name: str) -> bool:
        return len({self.latency[r] for r in self.h[name]}) > 1

    def refine(self, name: str) -> List[ResourceType]:
        bound = self.upper_bound_latency(name)
        victims = sorted(r for r in self.h[name] if self.latency[r] == bound)
        self.h[name] -= set(victims)
        return victims

    def kind_cover(self, kind: str) -> Tuple[ResourceType, ...]:
        universe = {n for n, op in self.ops.items() if op.resource_kind == kind}
        sets = {
            r: {n for n in universe if r in self.h[n]}
            for r in self.latency
            if r.kind == kind
        }
        return tuple(sorted(min_cardinality_cover(universe, sets)))

    def members_covering(
        self, name: str, scheduling_set: Sequence[ResourceType]
    ) -> Tuple[ResourceType, ...]:
        return tuple(sorted(s for s in scheduling_set if s in self.h[name]))


def cheapest_covering_resource(
    ops: Sequence[str],
    h: ReferenceH,
    area_model: AreaModel,
) -> Optional[ResourceType]:
    """Cheapest resource with a current H edge to every op (Eqn. 4)."""
    candidates: Optional[Set[ResourceType]] = None
    for name in ops:
        compatible = h.h[name]
        candidates = compatible if candidates is None else candidates & compatible
        if not candidates:
            return None
    assert candidates is not None
    return min(candidates, key=lambda r: (area_model.area(r), r))


class Eqn3TrackerReference:
    """``Fraction`` implementation of the Eqn. 3 tracker.

    Same interface as :class:`repro.core.scheduling.Eqn3Tracker`; every
    share, load and peak is an exact rational, summed per kind on
    demand rather than maintained as scaled integers.
    """

    def __init__(
        self,
        wcg: WordlengthCompatibilityGraph,
        constraints: Mapping[str, int],
        scheduling_set: Optional[Tuple[ResourceType, ...]] = None,
    ) -> None:
        self._constraints = dict(constraints)
        self._scheduling_set = (
            scheduling_set if scheduling_set is not None else wcg.scheduling_set()
        )
        self._members_by_kind: Dict[str, List[ResourceType]] = {}
        for s in self._scheduling_set:
            self._members_by_kind.setdefault(s.kind, []).append(s)
        # S(o) and the equal-sharing fractions of section 2.2.
        self._share: Dict[str, Fraction] = {}
        self._members_of: Dict[str, Tuple[ResourceType, ...]] = {}
        for op in wcg.operations:
            members = wcg.members_covering(op.name, self._scheduling_set)
            if not members:
                raise InfeasibleError(
                    f"operation {op.name!r} not covered by the scheduling set"
                )
            self._members_of[op.name] = members
            self._share[op.name] = Fraction(1, len(members))
        # Per member: per-step fractional load and its running peak.
        self._load: Dict[ResourceType, Dict[int, Fraction]] = {
            s: {} for s in self._scheduling_set
        }
        self._peak: Dict[ResourceType, Fraction] = {
            s: Fraction(0) for s in self._scheduling_set
        }

    @property
    def scheduling_set(self) -> Tuple[ResourceType, ...]:
        return self._scheduling_set

    def members_of(self, name: str) -> Tuple[ResourceType, ...]:
        return self._members_of[name]

    def share(self, name: str) -> Fraction:
        """The op's equal share ``1/|S(o)|``."""
        return self._share[name]

    def _limit(self, kind: str) -> Optional[int]:
        return self._constraints.get(kind)

    def _hypothetical_lhs(self, name: str, start: int, duration: int) -> Fraction:
        """LHS of Eqn. 3 for the op's kind if it were placed at ``start``."""
        kind = next(iter(self._members_of[name])).kind
        share = self._share[name]
        involved = set(self._members_of[name])
        total = Fraction(0)
        for s in self._members_by_kind.get(kind, []):
            peak = self._peak[s]
            if s in involved:
                loads = self._load[s]
                for t in range(start, start + duration):
                    peak = max(peak, loads.get(t, Fraction(0)) + share)
            total += peak
        return total

    def admits(self, name: str, start: int, duration: int) -> bool:
        """Whether placing ``name`` at ``start`` keeps Eqn. 3 satisfied."""
        kind = next(iter(self._members_of[name])).kind
        limit = self._limit(kind)
        if limit is None:
            return True
        return self._hypothetical_lhs(name, start, duration) <= limit

    def ever_admittable(self, name: str, duration: int) -> bool:
        """Fresh-step feasibility: if this fails, the op can never be placed."""
        kind = next(iter(self._members_of[name])).kind
        limit = self._limit(kind)
        if limit is None:
            return True
        share = self._share[name]
        total = Fraction(0)
        for s in self._members_by_kind.get(kind, []):
            peak = self._peak[s]
            if s in self._members_of[name]:
                peak = max(peak, share)
            total += peak
        return total <= limit

    def place(self, name: str, start: int, duration: int) -> None:
        """Commit the placement of an operation."""
        share = self._share[name]
        for s in self._members_of[name]:
            loads = self._load[s]
            for t in range(start, start + duration):
                loads[t] = loads.get(t, Fraction(0)) + share
                if loads[t] > self._peak[s]:
                    self._peak[s] = loads[t]

    def lhs(self, kind: str) -> Fraction:
        """Current LHS of Eqn. 3 for one resource kind."""
        return sum(
            (self._peak[s] for s in self._members_by_kind.get(kind, [])),
            Fraction(0),
        )


def reference_bound_critical_path(
    names: Sequence[str],
    graph_edges: Sequence[Tuple[str, str]],
    schedule: Mapping[str, int],
    binding: Binding,
    bound_latencies: Mapping[str, int],
) -> Set[str]:
    """``Q_b`` from the augmented DAG ``P(O, S ∪ S_b)``, built explicitly.

    ``S_b`` holds every ordered pair of one clique with
    ``start(o1) + l(o1) == start(o2)`` (Eqn. 7).  ASAP and ALAP run in
    lexicographic Kahn order, which raises on a cycle.
    """
    if not names:
        return set()
    edges = set(graph_edges)
    for clique in binding.cliques:
        for o1 in clique.ops:
            finish = schedule[o1] + bound_latencies[o1]
            for o2 in clique.ops:
                if o1 != o2 and finish == schedule[o2]:
                    edges.add((o1, o2))
    preds: Dict[str, Set[str]] = {n: set() for n in names}
    succs: Dict[str, Set[str]] = {n: set() for n in names}
    for u, v in edges:
        succs[u].add(v)
        preds[v].add(u)

    indegree = {n: len(preds[n]) for n in names}
    heap = [n for n in indegree if indegree[n] == 0]
    heapq.heapify(heap)
    order: List[str] = []
    while heap:
        name = heapq.heappop(heap)
        order.append(name)
        for s in succs[name]:
            indegree[s] -= 1
            if indegree[s] == 0:
                heapq.heappush(heap, s)
    if len(order) != len(indegree):
        raise ValueError("augmented sequencing graph contains a cycle")

    asap: Dict[str, int] = {}
    for name in order:
        asap[name] = max(
            (asap[p] + bound_latencies[p] for p in preds[name]), default=0
        )
    deadline = max(asap[n] + bound_latencies[n] for n in names)
    alap: Dict[str, int] = {}
    for name in reversed(order):
        finish = min((alap[s] for s in succs[name]), default=deadline)
        alap[name] = finish - bound_latencies[name]
    return {n for n in names if asap[n] == alap[n]}
