"""Refining wordlength information (paper section 2.4).

When the scheduled-and-bound datapath misses the user latency constraint,
Algorithm DPAlloc tightens the latency upper bound of exactly one
operation by deleting its ``H`` edges to its slowest compatible
resources.  The operation is picked from the **bound critical path**:

* the sequencing edge set ``S`` is augmented with ``S_b`` -- pairs of
  operations bound to the *same* resource instance back-to-back
  (``start(o1) + l(o1) == start(o2)``, ``l`` being the bound resource's
  latency, Eqn. 7);
* the bound critical path ``Q_b`` holds the zero-slack operations of the
  augmented graph (equal ASAP and ALAP times);
* the candidate subset ``W = {o in Q_b : start(o) + L_o <= lambda}``
  (as printed in the paper) is preferred; among candidates the paper
  selects the operation losing the smallest *proportion* of edges in
  ``{{o1, r} in H : exists {o, r} in H}``, breaking ties in favour of
  operations currently bound to a resource faster than their upper bound.

We add deterministic final tie-breaking (operation name) and fallbacks
(refinable members of ``Q_b``, then any refinable operation) so the outer
loop always makes progress or reports infeasibility.

**Exact incremental critical path** (see ``docs/architecture.md``): the
augmented DAG changes only where the last iteration's refinement moved
the schedule or rebound a clique, so the solver pipeline maintains a
:class:`BoundPathEngine` -- persistent ASAP/ALAP longest-path state
updated per added/deleted binding edge and per changed bound latency --
instead of rebuilding the graph from scratch each iteration.  Longest
paths on a DAG are unique, so the maintained ``Q_b`` is *exactly* the
from-scratch :func:`bound_critical_path` set; ``REPRO_SOLVER=scratch``
keeps using the from-scratch function and the CI parity sweep enforces
byte-identical results.  Both paths are pure python: networkx is no
longer needed on the solver's per-iteration hot path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..resources.types import ResourceType
from .binding import Binding
from .problem import InfeasibleError
from .wcg import WordlengthCompatibilityGraph, bit_ids

__all__ = [
    "augmented_edges",
    "bound_critical_path",
    "BoundPathEngine",
    "candidate_set",
    "choose_refinement_op",
    "RefinementStep",
    "refine_once",
]


def augmented_edges(
    graph_edges: Tuple[Tuple[str, str], ...],
    schedule: Mapping[str, int],
    binding: Binding,
    bound_latencies: Mapping[str, int],
) -> Set[Tuple[str, str]]:
    """Sequencing edges plus the binding edges ``S_b`` of Eqn. 7."""
    edges: Set[Tuple[str, str]] = set(graph_edges)
    for clique in binding.cliques:
        for o1 in clique.ops:
            finish = schedule[o1] + bound_latencies[o1]
            for o2 in clique.ops:
                if o1 != o2 and finish == schedule[o2]:
                    edges.add((o1, o2))
    return edges


def _topological_order(
    names: Iterable[str],
    preds: Mapping[str, Set[str]],
    succs: Mapping[str, Set[str]],
) -> List[str]:
    """Deterministic (lexicographic-Kahn) topological order, pure python."""
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
    return order


def bound_critical_path(
    names: Tuple[str, ...],
    graph_edges: Tuple[Tuple[str, str], ...],
    schedule: Mapping[str, int],
    binding: Binding,
    bound_latencies: Mapping[str, int],
) -> Set[str]:
    """``Q_b``: zero-slack operations of the augmented sequencing graph.

    The from-scratch reference (paper section 2.4): build the augmented
    DAG ``P(O, S ∪ S_b)``, run one forward ASAP and one backward ALAP
    longest-path pass with the *bound* latencies, and return the ops
    whose ASAP and ALAP times coincide.  Longest-path values on a DAG
    are independent of the topological order used, so this is exactly
    the set the incremental :class:`BoundPathEngine` maintains.
    """
    if not names:
        return set()
    edges = augmented_edges(graph_edges, schedule, binding, bound_latencies)
    preds: Dict[str, Set[str]] = {n: set() for n in names}
    succs: Dict[str, Set[str]] = {n: set() for n in names}
    for u, v in sorted(edges):
        succs[u].add(v)
        preds[v].add(u)
    order = _topological_order(names, preds, succs)

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


class BoundPathEngine:
    """Maintained ASAP/ALAP longest paths over the augmented DAG.

    One engine lives for one DPAlloc solve (owned by
    :class:`repro.core.solver.SolverState`).  Between iterations the
    augmented DAG ``P(O, S ∪ S_b)`` changes only by

    * **binding-edge deletions/insertions** -- rebinding moves ``S_b``
      pairs (Eqn. 7); the static sequencing edges ``S`` never change --
      and
    * **bound-latency changes** -- a refined (or rebound) operation may
      run on a different resource.

    :meth:`critical_ops` diffs both against the previous iteration and
    repairs the stored ASAP/ALAP values with worklist updates seeded
    only at the endpoints of changed edges and the successors/holders of
    changed latencies; untouched regions of the DAG are never revisited.
    When the overall deadline moved, the backward (ALAP) pass falls back
    to one full pure-python sweep -- the deadline shifts every sink's
    anchor, so no sub-linear repair exists.

    Ordering invariant: every augmented edge ``(u, v)`` satisfies
    ``start(u) + l(u) <= start(v)`` with ``l(u) >= 1`` (schedules are
    built with the latency upper bounds ``L_o >= l(o)``, and ``S_b``
    edges are back-to-back by construction), so sorting operations by
    ``(start, name)`` is a valid topological order and the worklists can
    be keyed directly on schedule start times.

    Parity: longest-path values on a DAG are unique, so the maintained
    zero-slack set equals :func:`bound_critical_path` exactly -- the
    ``REPRO_SOLVER=scratch`` byte-parity guarantee is preserved.
    """

    def __init__(
        self,
        names: Tuple[str, ...],
        graph_edges: Tuple[Tuple[str, str], ...],
    ) -> None:
        self._names = tuple(names)
        self._base_edges = frozenset(graph_edges)
        self._preds: Dict[str, Set[str]] = {n: set() for n in self._names}
        self._succs: Dict[str, Set[str]] = {n: set() for n in self._names}
        for u, v in sorted(self._base_edges):
            self._succs[u].add(v)
            self._preds[v].add(u)
        self._bind_edges: Set[Tuple[str, str]] = set()
        self._lat: Dict[str, int] = {}
        self._asap: Dict[str, int] = {}
        self._alap: Dict[str, int] = {}
        self._deadline = 0
        self._ready = False
        # Diagnostics (benchmarks/tests): how often each path ran.
        self.full_passes = 0
        self.incremental_updates = 0
        self.alap_rebuilds = 0

    # ------------------------------------------------------------------
    def critical_ops(
        self,
        schedule: Mapping[str, int],
        binding: Binding,
        bound_latencies: Mapping[str, int],
    ) -> Set[str]:
        """``Q_b`` for the current iteration, updated incrementally."""
        new_bind = self._binding_edges(schedule, binding, bound_latencies)
        added = new_bind - self._bind_edges
        removed = self._bind_edges - new_bind
        lat_changed = {
            n for n in self._names if self._lat.get(n) != bound_latencies[n]
        }
        for u, v in removed:  # reprolint: disable=RL001(commutative set updates; iteration order cannot reach results)
            self._succs[u].discard(v)
            self._preds[v].discard(u)
        for u, v in added:  # reprolint: disable=RL001(commutative set updates; iteration order cannot reach results)
            self._succs[u].add(v)
            self._preds[v].add(u)
        self._bind_edges = new_bind
        self._lat = {n: bound_latencies[n] for n in self._names}

        if not self._ready:
            self._full_asap(schedule)
            self._deadline = self._finish_time()
            self._full_alap(schedule)
            self._ready = True
            self.full_passes += 1
        else:
            self.incremental_updates += 1
            self._update_asap(schedule, added, removed, lat_changed)
            deadline = self._finish_time()
            if deadline != self._deadline:
                self._deadline = deadline
                self._full_alap(schedule)
                self.alap_rebuilds += 1
            else:
                self._update_alap(schedule, added, removed, lat_changed)

        asap, alap = self._asap, self._alap
        return {n for n in self._names if asap[n] == alap[n]}

    # ------------------------------------------------------------------
    def _binding_edges(
        self,
        schedule: Mapping[str, int],
        binding: Binding,
        bound_latencies: Mapping[str, int],
    ) -> Set[Tuple[str, str]]:
        """The ``S_b`` edges of Eqn. 7 that are not already in ``S``.

        Delegates to :func:`augmented_edges` with an empty base edge
        set (which then yields exactly ``S_b``) so the Eqn.-7
        enumeration has a single source of truth shared with the
        scratch path.
        """
        return (
            augmented_edges((), schedule, binding, bound_latencies)
            - self._base_edges
        )

    def _finish_time(self) -> int:
        return max(
            (self._asap[n] + self._lat[n] for n in self._names), default=0
        )

    def _full_asap(self, schedule: Mapping[str, int]) -> None:
        asap: Dict[str, int] = {}
        lat, preds = self._lat, self._preds
        for name in sorted(self._names, key=lambda n: (schedule[n], n)):
            asap[name] = max(
                (asap[p] + lat[p] for p in preds[name]), default=0
            )
        self._asap = asap

    def _full_alap(self, schedule: Mapping[str, int]) -> None:
        alap: Dict[str, int] = {}
        lat, succs, deadline = self._lat, self._succs, self._deadline
        for name in sorted(
            self._names, key=lambda n: (schedule[n], n), reverse=True
        ):
            finish = min((alap[s] for s in succs[name]), default=deadline)
            alap[name] = finish - lat[name]
        self._alap = alap

    def _update_asap(
        self,
        schedule: Mapping[str, int],
        added: Set[Tuple[str, str]],
        removed: Set[Tuple[str, str]],
        lat_changed: Set[str],
    ) -> None:
        """Repair ASAP values forward from everything that changed.

        Seeds: targets of changed edges, successors of latency changes.
        The worklist is a min-heap on ``(start, name)`` -- a topological
        order of the augmented DAG (see class docstring) -- so each
        operation is finalised after all of its predecessors.
        """
        seeds = {v for _, v in added} | {v for _, v in removed}
        for p in lat_changed:
            seeds.update(self._succs[p])
        asap, lat, preds, succs = self._asap, self._lat, self._preds, self._succs
        heap = [(schedule[n], n) for n in sorted(seeds)]
        heapq.heapify(heap)
        queued = set(seeds)
        while heap:
            _, name = heapq.heappop(heap)
            queued.discard(name)
            value = max(
                (asap[p] + lat[p] for p in preds[name]), default=0
            )
            if value != asap[name]:
                asap[name] = value
                for s in succs[name]:
                    if s not in queued:
                        queued.add(s)
                        heapq.heappush(heap, (schedule[s], s))

    def _update_alap(
        self,
        schedule: Mapping[str, int],
        added: Set[Tuple[str, str]],
        removed: Set[Tuple[str, str]],
        lat_changed: Set[str],
    ) -> None:
        """Repair ALAP values backward; only valid while the deadline held."""
        seeds = {u for u, _ in added} | {u for u, _ in removed}
        seeds.update(lat_changed)
        alap, lat, preds, succs = self._alap, self._lat, self._preds, self._succs
        deadline = self._deadline
        heap = [(-schedule[n], n) for n in sorted(seeds)]
        heapq.heapify(heap)
        queued = set(seeds)
        while heap:
            _, name = heapq.heappop(heap)
            queued.discard(name)
            finish = min((alap[s] for s in succs[name]), default=deadline)
            value = finish - lat[name]
            if value != alap[name]:
                alap[name] = value
                for p in preds[name]:
                    if p not in queued:
                        queued.add(p)
                        heapq.heappush(heap, (-schedule[p], p))


def candidate_set(
    q_b: Set[str],
    schedule: Mapping[str, int],
    upper_bounds: Mapping[str, int],
    latency_constraint: int,
) -> Set[str]:
    """``W``: bound-critical ops finishing before the constraint."""
    return {
        name
        for name in q_b
        if schedule[name] + upper_bounds[name] <= latency_constraint
    }


def _edge_loss_proportion(
    wcg: WordlengthCompatibilityGraph, name: str
) -> float:
    """Fraction of neighbourhood ``H`` edges a refinement of ``name`` deletes.

    Numerator: edges ``{name, r}`` with ``latency(r) == L_name`` (the ones
    the refinement deletes).  Denominator: all ``H`` edges incident to
    resources compatible with ``name`` -- the paper's
    ``{{o1, r} in H : exists {o, r} in H}``.
    """
    deleted = wcg.slowest_edges(name).bit_count()
    h_by_resource = wcg.h_by_resource
    neighbourhood = sum(
        h_by_resource[r].bit_count() for r in bit_ids(wcg.h_by_op[wcg.op_id[name]])
    )
    assert neighbourhood > 0
    return deleted / neighbourhood


def choose_refinement_op(
    wcg: WordlengthCompatibilityGraph,
    candidates: Set[str],
    binding: Optional[Binding],
    selector: str = "min-edge-loss",
    bound_faster: Optional[Mapping[str, int]] = None,
) -> Optional[str]:
    """Pick the candidate whose refinement loses the smallest edge share.

    The paper's section 2.4 selection rule.  Ties favour operations
    bound to a resource strictly faster than their latency upper bound
    (their binding never used the latency headroom, so removing it is
    free); remaining ties break on the name.  Returns ``None`` when no
    candidate is refinable.

    ``selector="name-order"`` replaces the paper's min-edge-loss rule by
    plain name order (ablation of the selection heuristic).

    ``bound_faster`` replaces the live ``binding`` in the tie-break with
    a recorded map of each operation's *bound resource latency* -- the
    delta-replay walk (:mod:`repro.core.delta`) has no binding for past
    iterations, only the recorded latencies, and the upper bounds come
    from the replayed ``wcg``.  When given, ``binding`` is ignored.
    """
    refinable = sorted(n for n in candidates if wcg.can_refine(n))
    if not refinable:
        return None
    if selector == "name-order":
        return refinable[0]
    if selector != "min-edge-loss":
        raise ValueError(f"unknown selector {selector!r}")

    def sort_key(name: str) -> Tuple[float, int, str]:
        proportion = _edge_loss_proportion(wcg, name)
        faster = 0
        if bound_faster is not None:
            latency = bound_faster.get(name)
            if latency is not None and latency < wcg.upper_bound_latency(name):
                faster = -1  # preferred
        elif binding is not None:
            try:
                resource = binding.resource_of(name)
                if wcg.latency(resource) < wcg.upper_bound_latency(name):
                    faster = -1  # preferred
            except KeyError:
                pass
        return (proportion, faster, name)

    return min(refinable, key=sort_key)


@dataclass(frozen=True)
class RefinementStep:
    """Record of one refinement: which op, which edges were deleted."""

    operation: str
    deleted: Tuple[ResourceType, ...]
    source: str  # "W", "Qb" or "any" -- which candidate pool supplied the op


def refine_once(
    wcg: WordlengthCompatibilityGraph,
    names: Tuple[str, ...],
    graph_edges: Tuple[Tuple[str, str], ...],
    schedule: Mapping[str, int],
    binding: Binding,
    latency_constraint: int,
    pools: Tuple[str, ...] = ("W", "Qb", "any"),
    selector: str = "min-edge-loss",
    bound_latencies: Optional[Mapping[str, int]] = None,
    upper_bounds: Optional[Mapping[str, int]] = None,
    q_b: Optional[Set[str]] = None,
) -> RefinementStep:
    """One full refinement step of Algorithm DPAlloc.

    Tries the paper's candidate set ``W`` first, then the rest of the
    bound critical path, then (by default) any refinable operation.
    The ``pools`` argument lets the caller stop earlier -- DPAlloc uses
    ``("W", "Qb")`` so that when the bound critical path is unrefinable
    it can duplicate a unit instead of refining an unrelated operation.
    ``bound_latencies``/``upper_bounds`` accept the caller's already
    computed values (the solver pipeline derives both every iteration),
    and ``q_b`` accepts an already computed bound critical path (the
    pipeline's :class:`BoundPathEngine` maintains it incrementally);
    omitted, each is recomputed here -- and ``Q_b`` only when a
    requested pool actually needs it.  Mutates ``wcg``.

    Raises:
        InfeasibleError: none of the requested pools contains a
            refinable operation.
    """
    if bound_latencies is None:
        bound_latencies = binding.bound_latencies(wcg)
    if upper_bounds is None:
        upper_bounds = wcg.upper_bound_latencies()
    if q_b is None and any(pool in ("W", "Qb") for pool in pools):
        q_b = bound_critical_path(
            names, graph_edges, schedule, binding, bound_latencies
        )

    for source in pools:
        if source == "any":
            candidates = set(names)
        elif source == "Qb":
            candidates = q_b if q_b is not None else set()
        elif source == "W":
            candidates = candidate_set(
                q_b if q_b is not None else set(),
                schedule,
                upper_bounds,
                latency_constraint,
            )
        else:
            raise ValueError(f"unknown candidate pool {source!r}")
        chosen = choose_refinement_op(wcg, candidates, binding, selector)
        if chosen is not None:
            deleted = tuple(wcg.refine(chosen))
            return RefinementStep(chosen, deleted, source)

    raise InfeasibleError(
        f"latency constraint {latency_constraint} unreachable: no operation "
        f"in pools {pools} has refinable wordlength information left"
    )
