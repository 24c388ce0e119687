"""Combined resource binding and wordlength selection (paper section 2.3).

Given a schedule, binding partitions the operations into cliques of the
compatibility graph ``G'(O, C)``; each clique becomes one physical
resource instance whose wordlength must cover every member (Eqn. 4), and
the cost of a binding is the summed area of the cliques' resources
(Eqn. 5).  This is weighted unate covering (Eqn. 6), tackled with an
*implicit* adaptation of Chvátal's greedy heuristic [1]:

* columns (cliques) are never enumerated -- at each step only the
  maximum clique per resource type matters, because all cliques of a
  type cost the same and the greedy criterion is |clique| / cost;
* ``C`` is an interval order (derived from the schedule with latency
  upper bounds), so ``G'(O,C)`` restricted to ``O(r)`` is transitively
  oriented and a maximum clique is a maximum *chain*, found by dynamic
  programming in near-linear time (Golumbic [11]);
* after each selection the new clique is *grown* over previously selected
  cliques: if the union is still a chain and coverable by a single
  resource type, the earlier clique's unit is deleted -- the paper's
  compensation for greedy short-sightedness.

A final wordlength-selection pass implements each clique in the cheapest
resource type compatible (via current ``H`` edges) with all members;
``H`` membership guarantees the resource is never slower than the latency
upper bounds used by the scheduler, so the schedule remains valid.

**Lazy greedy** (Minoux's accelerated greedy): a chain over some of a
resource's candidates is also a chain over all of them, so as ops get
covered a resource's best ``|chain| / cost`` can only fall, and a ratio
from an earlier round bounds the current one from above.  Bindselect
keeps one heap entry per resource, seeded with its candidate count
(which no chain exceeds), recomputes stale heap tops on the current
candidates, and takes the first top that is fresh this round.  No other
resource can beat it, so the pick, tie-break included, is the one a
full scan of every resource would make, after far fewer chain
evaluations.

Bindselect works on ids: a resource's candidates are its op bitset of
the WCG AND the uncovered ops, a clique's covering resources are the
AND of its members' resource bitsets, and :func:`max_chain` runs on
ascending op ids with id-indexed start and finish lists.  Op names and
:class:`ResourceType` values are decoded only for the returned
:class:`Binding`.

**Incremental Bindselect** (see ``docs/architecture.md``): the max-chain
kernel is a pure function of the candidate ids and their ``(start,
finish)`` values, so the solver pipeline persists a :class:`ChainCache`
across iterations and replays unchanged chains verbatim, invalidating
only chains touching operations whose schedule position or latency
bound the last refinement actually moved.  ``REPRO_SOLVER=scratch``
gives every ``bindselect`` call a fresh cache, so nothing is shared
across iterations; both modes are byte-identical by construction.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..resources.area import AreaModel
from ..resources.types import ResourceType
from .wcg import WordlengthCompatibilityGraph, bit_ids

__all__ = [
    "BindIndex",
    "BoundClique",
    "Binding",
    "ChainCache",
    "max_chain",
    "bindselect",
]


@dataclass(frozen=True)
class BoundClique:
    """One physical resource instance and the operations bound to it."""

    resource: ResourceType
    ops: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class Binding:
    """A complete binding: cliques plus convenience lookups."""

    cliques: Tuple[BoundClique, ...]

    def resource_of(self, name: str) -> ResourceType:
        for clique in self.cliques:
            if name in clique.ops:
                return clique.resource
        raise KeyError(f"operation {name!r} is not bound")

    def instance_of(self, name: str) -> int:
        for index, clique in enumerate(self.cliques):
            if name in clique.ops:
                return index
        raise KeyError(f"operation {name!r} is not bound")

    def area(self, area_model: AreaModel) -> float:
        """Total implementation area (paper Eqn. 5)."""
        return sum(area_model.area(c.resource) for c in self.cliques)

    def bound_latencies(
        self, wcg: WordlengthCompatibilityGraph
    ) -> Dict[str, int]:
        """Per-op latency of the resource each op is bound to (ℓ(o))."""
        latencies: Dict[str, int] = {}
        for clique in self.cliques:
            cycles = wcg.latency(clique.resource)
            for name in clique.ops:
                latencies[name] = cycles
        return latencies

    def bound_latencies_from(
        self, latency_of: Mapping[ResourceType, int]
    ) -> Dict[str, int]:
        """Like :meth:`bound_latencies` but from a plain latency mapping."""
        latencies: Dict[str, int] = {}
        for clique in self.cliques:
            cycles = latency_of[clique.resource]
            for name in clique.ops:
                latencies[name] = cycles
        return latencies

    def __len__(self) -> int:
        return len(self.cliques)


def max_chain(
    candidates: Sequence[int],
    start: Sequence[int],
    finish: Sequence[int],
) -> List[int]:
    """Maximum chain (pairwise sequential ops) among ``candidates``.

    The inner kernel of Algorithm Bindselect (paper section 2.3): each
    greedy step needs, per resource type ``r``, a maximum clique of the
    compatibility graph ``G'(O, C)`` restricted to ``O(r)``.  The
    compatibility relation "finishes no later than the other starts" is
    an interval order, so ``G'`` is transitively oriented and a maximum
    clique is a maximum *chain* (Golumbic [11]), computed here by
    dynamic programming over ops sorted by ``(start, id)``.

    ``candidates`` are ascending op ids; ``start`` and ``finish`` are
    indexed by op id, ``finish`` being the start plus the latency bound
    ``L_o``.  Ids ascend in name order, so the chain is the one a
    name-keyed DP would find.  Deterministic: ties prefer smaller ids,
    and the result is a pure function of ``(candidates,
    start|candidates, finish|candidates)`` -- the property
    :class:`ChainCache` relies on to replay chains verbatim across
    solver iterations.
    """
    if not candidates:
        return []
    # A stable sort of ascending ids: (start, id) order.
    ordered = sorted(candidates, key=start.__getitem__)
    k = len(ordered)
    best_len = [1] * k
    best_pred = [-1] * k
    # Retire-pointer formulation of the chain DP, O(k log k): process
    # ops in (start, id) order; an earlier op becomes *retired* once its
    # finish time is <= the current start, and retired ops are exactly
    # the DP's eligible predecessors (starts are nondecreasing, so
    # retirement is monotone).  A running (max length, smallest ordered
    # index attaining it) over the retired set reproduces the quadratic
    # scan's first-strictly-greater predecessor choice, so chains -- and
    # the ChainCache entries built from them -- are identical to the
    # quadratic DP's (``tests/oracles.py``).
    retire: List[Tuple[int, int]] = []  # (finish, ordered index) min-heap
    run_max = 0
    run_arg = -1
    for i, op in enumerate(ordered):
        begin = start[op]
        while retire and retire[0][0] <= begin:
            _, j = heapq.heappop(retire)
            if best_len[j] > run_max or (best_len[j] == run_max and j < run_arg):
                run_max = best_len[j]
                run_arg = j
        if run_max:
            best_len[i] = run_max + 1
            best_pred[i] = run_arg
        heapq.heappush(retire, (finish[op], i))
    tail = 0
    for i in range(1, k):
        if (best_len[i], ordered[i]) > (best_len[tail], ordered[tail]):
            tail = i
    chain: List[int] = []
    cursor = tail
    while cursor >= 0:
        chain.append(ordered[cursor])
        cursor = best_pred[cursor]
    chain.reverse()
    return chain


class BindIndex:
    """The area-model side of Bindselect, per resource id of the WCG.

    ``areas[r]`` prices resource ``r`` for the Eqn. 4 cheapest-cover
    choice (:meth:`cheapest`).  The greedy compares on exact integer
    keys: with ``(num_r, den_r)`` the area as an exact integer ratio
    (``as_integer_ratio`` is exact for every float),
    ``len * scale[r]`` orders ``len / area_r`` and ``cost_key[r]``
    orders ``area_r``, so ties never depend on float rounding, whatever
    the area magnitudes.  Everything ``H``-dependent is read from the
    WCG's bitsets, so the index never goes stale.

    Raises:
        ValueError: a resource's area is not finite and positive.
    """

    def __init__(
        self, wcg: WordlengthCompatibilityGraph, area_model: AreaModel
    ) -> None:
        self.areas: List[float] = [area_model.area(r) for r in wcg.resources]
        for resource, area in zip(wcg.resources, self.areas):
            if not 0 < area < math.inf:
                raise ValueError(
                    f"area of {resource} must be finite and positive, "
                    f"got {area!r}"
                )
        ratios = [area.as_integer_ratio() for area in self.areas]
        nums = math.lcm(*(num for num, _ in ratios))
        dens = math.lcm(*(den for _, den in ratios))
        self.scale: List[int] = [den * (nums // num) for num, den in ratios]
        self.cost_key: List[int] = [num * (dens // den) for num, den in ratios]

    def cheapest(self, mask: int) -> int:
        """Id of the cheapest resource in a nonempty resource-id bitset.

        Ids ascend in resource order and ``min`` keeps the first of
        equal keys, so this is the first resource in ``(area,
        resource)`` order.
        """
        return min(bit_ids(mask), key=self.areas.__getitem__)


class ChainCache:
    """Memoised :func:`max_chain` results for Bindselect.

    A chain is a pure function of the candidate ids and the candidates'
    ``(start, finish)`` values, so a cached chain may be replayed
    *verbatim* whenever those inputs recur -- both across the greedy
    rounds of one ``bindselect`` call (a selected clique leaves most
    other resources' candidate sets untouched) and across outer DPAlloc
    iterations (a refinement changes one op's ``L_o``, and the chains
    whose candidates' ``(start, finish)`` values did not move stay
    valid).

    Consistency contract: :meth:`refresh` must be called with the
    current schedule and latency bounds before each ``bindselect`` call.
    It diffs the per-op ``(start, finish)`` snapshot taken at the
    previous refresh and evicts exactly the entries whose member ops
    moved; candidate-set changes need no eviction because the candidate
    bitset *is* the lookup key.  Cached chains are therefore identical
    to a from-scratch ``max_chain`` -- the ``REPRO_SOLVER=scratch``
    parity guarantee extends to incremental Bindselect unchanged.
    """

    def __init__(self) -> None:
        # Per resource id: uncovered-candidate op-id bitset -> chain of
        # op ids.  Unbounded: refresh() evicts every entry a
        # schedule/bounds change touches, which keeps each map small.
        self._chains: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        self._index: Optional[BindIndex] = None
        # Per op id: (start, finish) at the last refresh.
        self._positions: List[Tuple[int, int]] = []
        self.hits = 0
        self.misses = 0
        self.evicted = 0

    def ensure_index(
        self, wcg: WordlengthCompatibilityGraph, area_model: AreaModel
    ) -> BindIndex:
        """The solve-scoped :class:`BindIndex`, built on first use.

        The op/resource ids and the area model are fixed for the
        lifetime of one solver state (refinement only clears ``H`` bits,
        which Bindselect reads from the WCG), so the index is never
        rebuilt.
        """
        if self._index is None:
            self._index = BindIndex(wcg, area_model)
        return self._index

    def refresh(
        self,
        schedule: Mapping[str, int],
        latencies: Mapping[str, int],
        op_names: Sequence[str],
    ) -> int:
        """Evict entries whose ops' ``(start, finish)`` changed; resnapshot.

        ``op_names`` lists the ops in id order (the WCG's ``op_names``).
        Returns the number of evicted entries (for diagnostics).
        """
        positions = [
            (schedule[n], schedule[n] + latencies[n]) for n in op_names
        ]
        if len(positions) != len(self._positions):
            moved = -1  # no snapshot to diff against: every op moved
        else:
            moved = 0
            for i, (was, now) in enumerate(zip(self._positions, positions)):
                if was != now:
                    moved |= 1 << i
        dropped = 0
        if moved:
            for chains in self._chains.values():
                stale = [key for key in chains if key & moved]
                for key in stale:
                    del chains[key]
                dropped += len(stale)
        self._positions = positions
        self.evicted += dropped
        return dropped

    def chain_for_mask(
        self,
        resource: int,
        cand_mask: int,
        start: Sequence[int],
        finish: Sequence[int],
    ) -> List[int]:
        """The max chain of the candidates in ``cand_mask``, memoised.

        ``resource`` is a resource id and ``cand_mask`` an op-id bitset,
        decoded to the ascending ids :func:`max_chain` runs on; ``start``
        and ``finish`` are indexed by op id.  A hit decodes nothing.
        """
        chains = self._chains.setdefault(resource, {})
        cached = chains.get(cand_mask)
        if cached is not None:
            self.hits += 1
            return list(cached)
        self.misses += 1
        result = max_chain(bit_ids(cand_mask), start, finish)
        chains[cand_mask] = tuple(result)
        return result


def _merge_if_chain(
    left: List[int],
    right: List[int],
    start: Sequence[int],
    finish: Sequence[int],
) -> Optional[List[int]]:
    """The ``(start, id)``-sorted union of two chains; None if not a chain."""
    merged = sorted(left + right, key=lambda op: (start[op], op))
    for prev, op in zip(merged, merged[1:]):
        if finish[prev] > start[op]:
            return None
    return merged


def bindselect(
    wcg: WordlengthCompatibilityGraph,
    schedule: Mapping[str, int],
    latencies: Mapping[str, int],
    area_model: AreaModel,
    grow: bool = True,
    shrink: bool = True,
    chain_cache: Optional[ChainCache] = None,
) -> Binding:
    """Algorithm Bindselect of the paper (section 2.3).

    Implicit weighted unate covering (Eqn. 6) by Chvátal's greedy
    heuristic [1]: at each step pick the resource type whose maximum
    chain of still-uncovered operations maximises ``|clique| / cost``
    (ties to the smaller cost, then the lower resource id), grow the
    new clique over earlier selections (the paper's compensation for
    greedy short-sightedness), and finally implement each clique in the
    cheapest resource type compatible with all of its members (Eqn. 4).

    The greedy is lazy (see the module docstring): a resource's ratio
    from an earlier round bounds its current one from above, so only
    resources whose bound reaches the top of a heap are re-evaluated,
    and the pick is the one a full scan would make (``tests/oracles.py``
    keeps that scan as ``reference_bindselect``).  The rounds run on op
    ids; names are decoded only for the returned :class:`Binding`.

    Args:
        wcg: scheduled wordlength compatibility graph (current ``H``).
        schedule: start step per operation.
        latencies: the latency upper bounds ``L_o`` used for scheduling
            (cliques built with these can never violate the schedule).
        area_model: resource cost for the greedy ratio and Eqn. 5.
        grow: enable the clique-growth compensation step.
        shrink: enable the final cheapest-cover wordlength selection.
        chain_cache: optional :class:`ChainCache` supplying memoised
            max chains (the solver pipeline's incremental Bindselect).
            The caller must have ``refresh``-ed it against ``schedule``
            and ``latencies``.  ``None`` memoises within this call only;
            results are byte-identical either way.

    Returns:
        a :class:`Binding` covering every operation exactly once.
    """
    cache = chain_cache if chain_cache is not None else ChainCache()
    index = cache.ensure_index(wcg, area_model)
    names = wcg.op_names
    start = [schedule[n] for n in names]
    finish = [s + latencies[n] for s, n in zip(start, names)]
    h_by_op = wcg.h_by_op
    h_by_resource = wcg.h_by_resource
    scale = index.scale
    uncovered = (1 << len(names)) - 1
    # One entry per resource: (-|chain| * scale, cost key, id, round,
    # chain), fresh in the round that pushed it.  Heap order is the
    # greedy's (ratio descending, cost ascending, id ascending); ids are
    # unique, so the chain is never compared.
    heap: List[Tuple[int, int, int, int, List[int]]] = [
        (-ops.bit_count() * scale[r], index.cost_key[r], r, -1, [])
        for r, ops in enumerate(h_by_resource)
        if ops
    ]
    heapq.heapify(heap)
    greedy_round = 0
    # Selected cliques carry their resource id and covering-resource
    # bitset, so the grow step probes (clique, prev) pairs with one AND.
    selected: List[Tuple[int, List[int], int]] = []

    while uncovered:
        while True:
            if not heap:
                missing = [names[i] for i in bit_ids(uncovered)]
                raise RuntimeError(
                    f"operations without any compatible resource: {missing}"
                )
            _, cost_key, resource, fresh_in, clique = heap[0]
            if fresh_in == greedy_round:
                break
            cand_mask = h_by_resource[resource] & uncovered
            if not cand_mask:
                heapq.heappop(heap)
                continue
            chain = cache.chain_for_mask(resource, cand_mask, start, finish)
            heapq.heapreplace(heap, (
                -len(chain) * scale[resource], cost_key, resource,
                greedy_round, chain,
            ))
        greedy_round += 1
        # Eqn. 4 probe: the resources with an H edge to every member.
        clique_rmask = -1
        for op in clique:
            uncovered &= ~(1 << op)
            clique_rmask &= h_by_op[op]

        if grow:
            survivors: List[Tuple[int, List[int], int]] = []
            for prev in selected:
                union_rmask = clique_rmask & prev[2]
                merged = (
                    _merge_if_chain(clique, prev[1], start, finish)
                    if union_rmask
                    else None
                )
                if merged is not None:
                    clique = merged
                    clique_rmask = union_rmask
                    resource = index.cheapest(union_rmask)
                else:
                    survivors.append(prev)
            selected = survivors
        # Chains and merges are already in (start, id) order.
        selected.append((resource, clique, clique_rmask))

    if shrink:
        selected = [
            (index.cheapest(rmask), ops, rmask) for _, ops, rmask in selected
        ]
    # Cliques are disjoint, so their first ops decide the order.
    selected.sort(key=lambda item: (start[item[1][0]], item[1][0]))
    return Binding(tuple(
        BoundClique(wcg.resources[resource], tuple(names[i] for i in ops))
        for resource, ops, _ in selected
    ))
