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

**One sweep per call** (see ``docs/architecture.md``): every augmented
edge ``(u, v)`` satisfies ``start(u) + l(u) <= start(v)`` with
``l >= 1``, so start-time order is a topological order of the augmented
DAG, and each clique is one unit's chain, so its back-to-back pairs are
consecutive in start order.  :func:`bound_critical_path` therefore
needs no graph build and no Kahn sort: one forward ASAP and one
backward ALAP pass in schedule order over the sequencing graph's
memoised adjacency, with at most one ``S_b`` predecessor and successor
per operation.  It holds no state between calls, so both solver modes
share it.  The Kahn-ordered all-pairs formulation lives on as a test
oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set, Tuple

from ..ir.seqgraph import SequencingGraph
from ..resources.types import ResourceType
from .binding import Binding
from .problem import InfeasibleError
from .wcg import WordlengthCompatibilityGraph, bit_ids

__all__ = [
    "bound_critical_path",
    "candidate_set",
    "choose_refinement_op",
    "RefinementStep",
    "refine_once",
]


def bound_critical_path(
    graph: SequencingGraph,
    schedule: Mapping[str, int],
    binding: Binding,
    bound_latencies: Mapping[str, int],
) -> Set[str]:
    """``Q_b``: zero-slack operations of the augmented sequencing graph.

    The paper's section 2.4: longest paths over ``P(O, S ∪ S_b)`` with
    the *bound* latencies ``l``, one ASAP pass in start order and one
    ALAP pass in reverse, returning the ops whose ASAP and ALAP times
    coincide.  The ``S_b`` edges of Eqn. 7 are the consecutive pairs of
    each clique with ``start(u) + l(u) == start(v)``.

    Raises:
        ValueError: an augmented edge finishes after its head starts --
            two ops of one clique overlap, or the schedule breaks a data
            dependency -- so start order is not topological.
    """
    lat = bound_latencies
    start_of = schedule.__getitem__
    bind_pred: Dict[str, str] = {}
    bind_succ: Dict[str, str] = {}
    for clique in binding.cliques:
        ops = sorted(clique.ops, key=start_of)
        for u, v in zip(ops, ops[1:]):
            finish = schedule[u] + lat[u]
            if finish == schedule[v]:
                bind_pred[v] = u
                bind_succ[u] = v
            elif finish > schedule[v]:
                raise ValueError(
                    f"ops {u!r} and {v!r} overlap on one {clique.resource}"
                )

    # Ties in start order keep graph order; no edge joins two of them.
    order = sorted(graph.names, key=start_of)
    asap: Dict[str, int] = {}
    deadline = 0
    for v in order:
        start = schedule[v]
        best = 0
        for p in graph.predecessors(v):
            if schedule[p] + lat[p] > start:
                raise ValueError(
                    f"schedule breaks the dependency {p!r} -> {v!r}"
                )
            finish = asap[p] + lat[p]
            if finish > best:
                best = finish
        u = bind_pred.get(v)
        if u is not None:
            finish = asap[u] + lat[u]
            if finish > best:
                best = finish
        asap[v] = best
        if best + lat[v] > deadline:
            deadline = best + lat[v]

    alap: Dict[str, int] = {}
    critical: Set[str] = set()
    for v in reversed(order):
        best = deadline
        for s in graph.successors(v):
            if alap[s] < best:
                best = alap[s]
        w = bind_succ.get(v)
        if w is not None and alap[w] < best:
            best = alap[w]
        best -= lat[v]
        alap[v] = best
        if best == asap[v]:
            critical.add(v)
    return critical


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
) -> Optional[str]:
    """Pick the candidate whose refinement loses the smallest edge share.

    The paper's section 2.4 selection rule.  Ties favour operations
    bound to a resource strictly faster than their latency upper bound
    (their binding never used the latency headroom, so removing it is
    free); remaining ties break on the name.  Returns ``None`` when no
    candidate is refinable.

    ``selector="name-order"`` replaces the paper's min-edge-loss rule by
    plain name order (ablation of the selection heuristic).
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
        if binding is not None:
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
    graph: SequencingGraph,
    schedule: Mapping[str, int],
    binding: Binding,
    latency_constraint: int,
    pools: Tuple[str, ...] = ("W", "Qb", "any"),
    selector: str = "min-edge-loss",
    bound_latencies: Optional[Mapping[str, int]] = None,
    upper_bounds: Optional[Mapping[str, int]] = None,
) -> RefinementStep:
    """One full refinement step of Algorithm DPAlloc.

    Tries the paper's candidate set ``W`` first, then the rest of the
    bound critical path, then (by default) any refinable operation.
    The ``pools`` argument lets the caller stop earlier -- DPAlloc uses
    ``("W", "Qb")`` so that when the bound critical path is unrefinable
    it can duplicate a unit instead of refining an unrelated operation.
    ``bound_latencies``/``upper_bounds`` accept the caller's already
    computed values (the solver pipeline derives both every iteration);
    omitted, each is recomputed here.  ``Q_b`` is computed only when a
    requested pool needs it.  Mutates ``wcg``.

    Raises:
        InfeasibleError: none of the requested pools contains a
            refinable operation.
    """
    if bound_latencies is None:
        bound_latencies = binding.bound_latencies(wcg)
    if upper_bounds is None:
        upper_bounds = wcg.upper_bound_latencies()
    q_b: Set[str] = set()
    if any(pool in ("W", "Qb") for pool in pools):
        q_b = bound_critical_path(graph, schedule, binding, bound_latencies)

    for source in pools:
        if source == "any":
            candidates = set(graph.names)
        elif source == "Qb":
            candidates = q_b
        elif source == "W":
            candidates = candidate_set(
                q_b, schedule, upper_bounds, latency_constraint
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
