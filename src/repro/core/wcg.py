"""The wordlength compatibility graph ``G(V, E)`` (paper section 2.1).

``V = O ∪ R``: operations and resource-wordlength types.
``E = C ∪ H``:

* ``H`` -- undirected edges ``{o, r}`` meaning operation ``o`` can be
  executed by resource type ``r``.  Initially these are exactly the
  coverage edges (same resource kind, sufficient wordlength); Algorithm
  DPAlloc *refines* wordlength information by deleting the edges to an
  operation's slowest compatible resources, which lowers that operation's
  latency upper bound ``L_o``.
* ``C`` -- directed edges ``(o1, o2)`` meaning ``o1`` is scheduled to
  complete before ``o2`` starts.  ``C`` is derived from a schedule (see
  :meth:`compatibility_edges`) and forms a transitive orientation of the
  subgraph ``G'(O, C)`` -- the property that lets binding find maximum
  cliques in linear time (Golumbic [11]).

This class is the only holder of ``H``.  Operations are interned to
dense ids in sorted-name order (:attr:`op_names`) and resources in
sorted order (:attr:`resources`), once per graph, and ``H`` is stored
only as bitsets: :attr:`h_by_op` holds each op's compatible resource
ids and :attr:`h_by_resource` each resource's compatible op ids.
Refinement clears bits in both.  Ascending bit order is sorted order,
so the accessors that return names or :class:`ResourceType` values
decode without sorting; Bindselect, the Eqn. 3 tracker and the
refinement selector read the bitsets directly.  The class also
computes the *scheduling set* ``S`` (minimum subset of ``R`` covering
all operations) required by the Eqn. 3 constraint.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..ir.ops import Operation
from ..resources.latency import LatencyModel
from ..resources.types import ResourceType
from ..utils.covering import min_cardinality_cover

__all__ = ["WordlengthCompatibilityGraph", "bit_ids"]


def bit_ids(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, ascending."""
    ids: List[int] = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


class WordlengthCompatibilityGraph:
    """Operations, resource types, and the mutable ``H`` edge set."""

    def __init__(
        self,
        ops: Iterable[Operation],
        resources: Iterable[ResourceType],
        latency_model: LatencyModel,
        h_edges: Optional[Mapping[str, Iterable[ResourceType]]] = None,
    ) -> None:
        self._ops: Dict[str, Operation] = {op.name: op for op in ops}
        self._resources: Tuple[ResourceType, ...] = tuple(sorted(set(resources)))
        self._latency_model = latency_model
        self.op_names: Tuple[str, ...] = tuple(sorted(self._ops))
        self.op_id: Dict[str, int] = {n: i for i, n in enumerate(self.op_names)}
        self.resource_id: Dict[ResourceType, int] = {
            r: i for i, r in enumerate(self._resources)
        }
        self._latencies: Tuple[int, ...] = tuple(
            latency_model.latency(r) for r in self._resources
        )
        # Resource-id bitset of each latency class, slowest class first.
        classes: Dict[int, int] = {}
        for rid, cycles in enumerate(self._latencies):
            classes[cycles] = classes.get(cycles, 0) | 1 << rid
        self._latency_classes = tuple(sorted(classes.items(), reverse=True))

        self.h_by_op: List[int] = [0] * len(self.op_names)
        self.h_by_resource: List[int] = [0] * len(self._resources)
        for name, op in self._ops.items():
            compatible = tuple(
                (r for r in self._resources if r.covers(op))
                if h_edges is None
                else h_edges.get(name, ())
            )
            if not compatible:
                raise ValueError(
                    f"operation {name!r} has no compatible resource type"
                )
            i = self.op_id[name]
            for r in compatible:
                rid = self.resource_id.get(r)
                if rid is None:
                    raise ValueError(
                        f"edge {{{name}, {r}}} names a resource outside "
                        f"the resource set"
                    )
                if not r.covers(op):
                    raise ValueError(f"edge {{{name}, {r}}} is not a coverage edge")
                self.h_by_op[i] |= 1 << rid
                self.h_by_resource[rid] |= 1 << i
        self._edges = sum(mask.bit_count() for mask in self.h_by_op)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def operations(self) -> Tuple[Operation, ...]:
        return tuple(self._ops.values())

    @property
    def resources(self) -> Tuple[ResourceType, ...]:
        return self._resources

    def operation(self, name: str) -> Operation:
        return self._ops[name]

    def latency(self, resource: ResourceType) -> int:
        """Cycles needed by one execution on ``resource``."""
        return self._latencies[self.resource_id[resource]]

    def compatible_resources(self, name: str) -> Tuple[ResourceType, ...]:
        """Current ``H`` neighbours of operation ``name``, sorted."""
        resources = self._resources
        return tuple(resources[r] for r in bit_ids(self.h_by_op[self.op_id[name]]))

    def ops_for_resource(self, resource: ResourceType) -> Tuple[str, ...]:
        """``O(r)``: operations with a current ``H`` edge to ``resource``."""
        rid = self.resource_id.get(resource)
        if rid is None:
            return ()
        names = self.op_names
        return tuple(names[i] for i in bit_ids(self.h_by_resource[rid]))

    def edge_count(self) -> int:
        """Total number of ``H`` edges (monotone under refinement)."""
        return self._edges

    # ------------------------------------------------------------------
    # latency bounds (Table 1: L_o and the per-resource latencies)
    # ------------------------------------------------------------------
    def _slowest(self, name: str) -> Tuple[int, int, int]:
        """``(L_o, slowest edges, all edges)``; edges as resource-id bitsets."""
        edges = self.h_by_op[self.op_id[name]]
        return next(
            (cycles, edges & members, edges)
            for cycles, members in self._latency_classes
            if edges & members
        )

    def upper_bound_latency(self, name: str) -> int:
        """``L_o``: slowest compatible resource of operation ``name``."""
        return self._slowest(name)[0]

    def slowest_edges(self, name: str) -> int:
        """Resource-id bitset of the edges :meth:`refine` would delete."""
        return self._slowest(name)[1]

    def min_latency(self, name: str) -> int:
        """Fastest compatible resource of operation ``name``."""
        edges = self.h_by_op[self.op_id[name]]
        return min(c for c, members in self._latency_classes if edges & members)

    def upper_bound_latencies(self) -> Dict[str, int]:
        """``L_o`` for every operation."""
        return {name: self.upper_bound_latency(name) for name in self._ops}

    def can_refine(self, name: str) -> bool:
        """Whether deleting the slowest edges would leave the op coverable."""
        _, slowest, edges = self._slowest(name)
        return slowest != edges

    def refine(self, name: str) -> List[ResourceType]:
        """Delete all edges ``{name, r}`` with ``latency(r) == L_name``.

        Paper section 2.4, final step.  Returns the deleted resource
        types, sorted.  Raises ``ValueError`` if the operation cannot be
        refined (all its compatible resources share one latency).
        """
        _, victims, edges = self._slowest(name)
        if victims == edges:
            raise ValueError(f"operation {name!r} cannot be refined further")
        i = self.op_id[name]
        self.h_by_op[i] = edges ^ victims
        deleted = bit_ids(victims)
        for rid in deleted:
            self.h_by_resource[rid] ^= 1 << i
        self._edges -= len(deleted)
        return [self._resources[rid] for rid in deleted]

    # ------------------------------------------------------------------
    # scheduling set (section 2.2)
    # ------------------------------------------------------------------
    def kinds(self) -> Tuple[str, ...]:
        """Resource kinds present in the operation set, sorted."""
        return tuple(sorted({op.resource_kind for op in self._ops.values()}))

    def kind_cover(self, kind: str) -> Tuple[ResourceType, ...]:
        """Minimum-cardinality cover of the operations of one kind.

        Coverage edges never cross kinds (``ResourceType.covers``
        requires kind equality, and the constructor validates every
        ``H`` edge is a coverage edge), so the scheduling-set problem
        decomposes exactly into independent per-kind covers.  This is
        the unit of incremental recomputation: refining an operation
        invalidates only its own kind's cover.
        """
        universe: Set[str] = {
            name
            for name, op in self._ops.items()
            if op.resource_kind == kind
        }
        names = self.op_names
        sets = {
            r: {names[i] for i in bit_ids(self.h_by_resource[rid])}
            for rid, r in enumerate(self._resources)
            if r.kind == kind
        }
        cover = min_cardinality_cover(universe, sets)
        return tuple(sorted(cover))

    def scheduling_set(self) -> Tuple[ResourceType, ...]:
        """Minimum-cardinality ``S ⊆ R`` with an ``H`` edge to every op.

        Computed per resource kind (:meth:`kind_cover`) and merged; the
        decomposition is exact because ``H`` edges never cross kinds.
        """
        members: List[ResourceType] = []
        for kind in self.kinds():
            members.extend(self.kind_cover(kind))
        return tuple(sorted(members))

    def members_covering(
        self, name: str, scheduling_set: Iterable[ResourceType]
    ) -> Tuple[ResourceType, ...]:
        """``S(o)``: scheduling-set members with an ``H`` edge to ``name``.

        A member the graph does not know covers nothing.
        """
        edges = self.h_by_op[self.op_id[name]]
        ids = self.resource_id
        return tuple(
            sorted(s for s in scheduling_set if s in ids and edges >> ids[s] & 1)
        )

    # ------------------------------------------------------------------
    # compatibility edges C (derived from a schedule)
    # ------------------------------------------------------------------
    def compatibility_edges(
        self, schedule: Mapping[str, int], latencies: Mapping[str, int]
    ) -> Set[Tuple[str, str]]:
        """``C``: pairs ``(o1, o2)`` with ``o1`` finishing before ``o2`` starts.

        Using the latency upper bounds here guarantees any binding derived
        from these cliques never violates the schedule (section 2.3).
        The relation is an interval order, hence transitively closed.
        """
        names = self.op_names
        edges: Set[Tuple[str, str]] = set()
        for o1 in names:
            finish = schedule[o1] + latencies[o1]
            for o2 in names:
                if o1 != o2 and finish <= schedule[o2]:
                    edges.add((o1, o2))
        return edges

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def copy(self) -> "WordlengthCompatibilityGraph":
        return WordlengthCompatibilityGraph(
            self.operations,
            self._resources,
            self._latency_model,
            h_edges={name: self.compatible_resources(name) for name in self._ops},
        )

    def __repr__(self) -> str:
        return (
            f"WordlengthCompatibilityGraph(|O|={len(self._ops)}, "
            f"|R|={len(self._resources)}, |H|={self.edge_count()})"
        )
