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

Bindselect reads ``H`` from the WCG's id bitsets: a resource's candidates
are its op bitset AND the uncovered ops, and a clique's covering
resources are the AND of its members' resource bitsets.  It works on
resource ids throughout and builds :class:`ResourceType` values only for
the returned :class:`Binding`.

**Incremental Bindselect** (see ``docs/architecture.md``): the max-chain
kernel is a pure function of the candidate tuple and its members'
``(start, L_o)`` values, so the solver pipeline persists a
:class:`ChainCache` across iterations and replays unchanged chains
verbatim, invalidating only chains touching operations whose schedule
position or latency bound the last refinement actually moved.
``REPRO_SOLVER=scratch`` gives every ``bindselect`` call a fresh cache,
so nothing is shared across iterations; both modes are byte-identical
by construction.
"""

from __future__ import annotations

import heapq
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
    candidates: Sequence[str],
    schedule: Mapping[str, int],
    latencies: Mapping[str, int],
) -> List[str]:
    """Maximum chain (pairwise sequential ops) among ``candidates``.

    The inner kernel of Algorithm Bindselect (paper section 2.3): each
    greedy step needs, per resource type ``r``, a maximum clique of the
    compatibility graph ``G'(O, C)`` restricted to ``O(r)``.  The
    compatibility relation "finishes no later than the other starts" is
    an interval order, so ``G'`` is transitively oriented and a maximum
    clique is a maximum *chain* (Golumbic [11]), computed here by
    dynamic programming over ops sorted by start time.  Deterministic:
    ties prefer lexicographically smaller predecessors, and the result
    is a pure function of ``(candidates, schedule|candidates,
    latencies|candidates)`` -- the property :class:`ChainCache` relies
    on to replay chains verbatim across solver iterations.
    """
    if not candidates:
        return []
    ordered = sorted(candidates, key=lambda n: (schedule[n], n))
    k = len(ordered)
    best_len = [1] * k
    best_pred = [-1] * k
    # Retire-pointer formulation of the chain DP, O(k log k): process
    # ops in (start, name) order; an earlier op becomes *retired* once
    # its finish time is <= the current start, and retired ops are
    # exactly the DP's eligible predecessors (starts are nondecreasing,
    # so retirement is monotone).  A running (max length, smallest
    # ordered index attaining it) over the retired set reproduces the
    # quadratic scan's first-strictly-greater predecessor choice, so
    # chains -- and the ChainCache entries built from them -- are
    # byte-identical to the quadratic DP (``tests/oracles.py``).
    retire: List[Tuple[int, int]] = []  # (finish, ordered index) min-heap
    run_max = 0
    run_arg = -1
    for i, name in enumerate(ordered):
        start = schedule[name]
        while retire and retire[0][0] <= start:
            _, j = heapq.heappop(retire)
            if best_len[j] > run_max or (best_len[j] == run_max and j < run_arg):
                run_max = best_len[j]
                run_arg = j
        if run_max:
            best_len[i] = run_max + 1
            best_pred[i] = run_arg
        heapq.heappush(retire, (start + latencies[name], i))
    tail = 0
    for i in range(1, k):
        if (best_len[i], ordered[i]) > (best_len[tail], ordered[tail]):
            tail = i
    chain: List[str] = []
    cursor = tail
    while cursor >= 0:
        chain.append(ordered[cursor])
        cursor = best_pred[cursor]
    chain.reverse()
    return chain


class BindIndex:
    """The area-model side of Bindselect, per resource id of the WCG.

    ``areas[r]`` prices resource ``r`` for the Eqn. 4 cheapest-cover
    choice (:meth:`cheapest`), and ``cost_ratio[r]`` is the same area as
    an exact integer ratio ``(num, den)`` for the greedy
    ``|clique|/cost`` comparison (``float.as_integer_ratio`` is exact
    for every float, so the comparison is exact whatever the area model
    returns).  Everything ``H``-dependent is read from the WCG's
    bitsets, so the index never goes stale.
    """

    def __init__(
        self, wcg: WordlengthCompatibilityGraph, area_model: AreaModel
    ) -> None:
        self.areas: List[float] = [area_model.area(r) for r in wcg.resources]
        self.cost_ratio: List[Tuple[int, int]] = [
            area.as_integer_ratio() for area in self.areas
        ]

    def cheapest(self, mask: int) -> int:
        """Id of the cheapest resource in a nonempty resource-id bitset.

        Ids ascend in resource order and ``min`` keeps the first of
        equal keys, so this is the first resource in ``(area,
        resource)`` order.
        """
        return min(bit_ids(mask), key=self.areas.__getitem__)


class ChainCache:
    """Memoised :func:`max_chain` results for Bindselect.

    A chain is a pure function of the candidate tuple and the
    candidates' ``(start, L_o)`` values, so a cached chain may be
    replayed *verbatim* whenever those inputs recur -- both across the
    greedy rounds of one ``bindselect`` call (a selected clique leaves
    most other resources' candidate sets untouched) and across outer
    DPAlloc iterations (a refinement changes the schedule region and
    candidate sets of only the affected cone; see
    :class:`repro.core.scheduling.ScheduleWarmStart` for the scheduling
    side of that argument).

    Consistency contract: :meth:`refresh` must be called with the
    current schedule and latency bounds before each ``bindselect`` call.
    It diffs the per-op ``(start, L_o)`` snapshot taken at the previous
    refresh and evicts exactly the entries whose member ops moved;
    candidate-set changes need no eviction because the candidate bitset
    *is* the lookup key.  Cached chains are therefore byte-identical to
    a from-scratch ``max_chain`` -- the ``REPRO_SOLVER=scratch`` parity
    guarantee extends to incremental Bindselect unchanged.
    """

    def __init__(self) -> None:
        # Per resource id: uncovered-candidate op-id bitset -> chain.
        # Unbounded: refresh() evicts every entry a schedule/bounds
        # change touches, which keeps each resource's map small.
        self._chains: Dict[int, Dict[int, Tuple[str, ...]]] = {}
        self._index: Optional[BindIndex] = None
        self._op_names: Tuple[str, ...] = ()
        self._op_id: Mapping[str, int] = {}
        self._starts: Dict[str, int] = {}
        self._latencies: Dict[str, int] = {}
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
            self._op_names = wcg.op_names
            self._op_id = wcg.op_id
        return self._index

    def refresh(
        self,
        schedule: Mapping[str, int],
        latencies: Mapping[str, int],
        names: Sequence[str],
    ) -> int:
        """Evict entries whose ops' ``(start, L_o)`` changed; resnapshot.

        Returns the number of evicted entries (for diagnostics).
        """
        changed = {
            n
            for n in names
            if self._starts.get(n) != schedule[n]
            or self._latencies.get(n) != latencies[n]
        }
        dropped = 0
        if changed and self._chains:
            changed_mask = 0
            # reprolint: disable=RL001(order-insensitive: bitwise OR commutes)
            for n in changed:
                changed_mask |= 1 << self._op_id[n]
            for chains in self._chains.values():
                stale = [key for key in chains if key & changed_mask]
                for key in stale:
                    del chains[key]
                dropped += len(stale)
        self._starts = {n: schedule[n] for n in names}
        self._latencies = {n: latencies[n] for n in names}
        self.evicted += dropped
        return dropped

    def chain_for_mask(
        self,
        resource: int,
        cand_mask: int,
        schedule: Mapping[str, int],
        latencies: Mapping[str, int],
    ) -> List[str]:
        """The max chain of the candidates in ``cand_mask``, memoised.

        ``resource`` is a resource id and ``cand_mask`` an op-id bitset,
        which decodes to the sorted-name candidate list :func:`max_chain`
        is run on; a hit builds no tuple and hashes no strings.
        """
        chains = self._chains.setdefault(resource, {})
        cached = chains.get(cand_mask)
        if cached is not None:
            self.hits += 1
            return list(cached)
        self.misses += 1
        names = self._op_names
        result = max_chain(
            [names[i] for i in bit_ids(cand_mask)], schedule, latencies
        )
        chains[cand_mask] = tuple(result)
        return result


def _merge_if_chain(
    left: Sequence[str],
    right: Sequence[str],
    schedule: Mapping[str, int],
    latencies: Mapping[str, int],
) -> Optional[List[str]]:
    """Merge two ``(start, name)``-sorted chains; None if not a chain.

    Equivalent to sorting the concatenation and checking that each op
    finishes no later than the next one starts, but linear in the union
    size since both inputs are already sorted.
    """
    merged: List[str] = []
    i = j = 0
    prev: Optional[str] = None
    while i < len(left) or j < len(right):
        if j >= len(right):
            name = left[i]
            i += 1
        elif i >= len(left):
            name = right[j]
            j += 1
        elif (schedule[left[i]], left[i]) <= (schedule[right[j]], right[j]):
            name = left[i]
            i += 1
        else:
            name = right[j]
            j += 1
        if prev is not None and schedule[prev] + latencies[prev] > schedule[name]:
            return None
        merged.append(name)
        prev = name
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
    chain of still-uncovered operations maximises ``|clique| / cost``,
    grow the new clique over earlier selections (the paper's
    compensation for greedy short-sightedness), and finally implement
    each clique in the cheapest resource type compatible with all of
    its members (Eqn. 4).

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
    op_id = wcg.op_id
    h_by_op = wcg.h_by_op
    cost_ratio = index.cost_ratio
    uncovered = (1 << len(wcg.op_names)) - 1
    # Selected cliques carry their resource id and covering-resource
    # bitset, so the grow step probes (clique, prev) pairs with one AND.
    selected: List[Tuple[int, List[str], int]] = []

    while uncovered:
        # Exact greedy criterion: maximise |chain| / cost, tie-break on
        # smaller cost, first resource wins.  With cost == num/den the
        # ratio comparison cross-multiplies to integers, so ties can
        # never depend on float rounding (satisfying the parity
        # contract for any area magnitudes).
        best: Optional[Tuple[int, int, int, int, List[str]]] = None
        for resource, ops in enumerate(wcg.h_by_resource):
            cand_mask = ops & uncovered
            if not cand_mask:
                continue
            chain = cache.chain_for_mask(resource, cand_mask, schedule, latencies)
            num, den = cost_ratio[resource]
            if best is None:
                best = (len(chain), num, den, resource, chain)
                continue
            b_len, b_num, b_den = best[0], best[1], best[2]
            lhs = len(chain) * den * b_num  # ratio = len * den / num
            rhs = b_len * b_den * num
            if lhs > rhs or (lhs == rhs and num * b_den < b_num * den):
                best = (len(chain), num, den, resource, chain)
        if best is None:
            missing = [wcg.op_names[i] for i in bit_ids(uncovered)]
            raise RuntimeError(f"operations without any compatible resource: {missing}")
        _, _, _, resource, clique = best
        # Eqn. 4 probe: the resources with an H edge to every member.
        clique_rmask = -1
        for name in clique:
            uncovered &= ~(1 << op_id[name])
            clique_rmask &= h_by_op[op_id[name]]

        if grow:
            survivors: List[Tuple[int, List[str], int]] = []
            for prev_resource, prev_ops, prev_rmask in selected:
                union_rmask = clique_rmask & prev_rmask
                merged = (
                    _merge_if_chain(clique, prev_ops, schedule, latencies)
                    if union_rmask
                    else None
                )
                if merged is not None:
                    clique = merged
                    clique_rmask = union_rmask
                    resource = index.cheapest(union_rmask)
                else:
                    survivors.append((prev_resource, prev_ops, prev_rmask))
            selected = survivors
        selected.append(
            (resource, sorted(clique, key=lambda n: (schedule[n], n)), clique_rmask)
        )

    if shrink:
        selected = [
            (index.cheapest(rmask), ops, rmask) for _, ops, rmask in selected
        ]

    cliques = tuple(
        BoundClique(wcg.resources[resource], tuple(ops))
        for resource, ops, _ in sorted(
            selected, key=lambda item: (schedule[item[1][0]], item[1])
        )
    )
    return Binding(cliques)
