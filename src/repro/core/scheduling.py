"""Scheduling with incomplete wordlength information (paper section 2.2).

The scheduler is a resource-constrained list scheduler whose per-type
constraint is the paper's Eqn. 3.  The scan of the paper loses the body
of the equation; the reconstruction implemented here (see DESIGN.md §4.2)
is, for every operation type ``y``::

    sum_{s in S∩R_y}  max_{t in T}  sum_{o in O(s)}  x_{o,t} / |S(o)|   <=  N_y

where ``S`` is the minimum-cardinality *scheduling set* covering all
operations, ``O(s)`` the ops with an ``H`` edge to ``s``, and ``S(o)``
the scheduling-set members compatible with ``o``.  Properties (each is
unit-tested):

* **At least as strict as Eqn. 2** (classic per-step counting): at any
  step the fractional shares of the executing type-``y`` ops sum to the
  number of executing ops, and a sum of per-member peaks dominates any
  single-step total.
* **Degenerates to Eqn. 2 when |S| = |Y|**: one member per type receives
  every op with share 1, so the LHS is the peak per-step concurrency.
* **Exact when |S(o)| = 1 for all o**: each member accumulates the exact
  peak demand of the ops that can only run on it.
* **Rejects the paper's Fig. 2 scenario**: two ops forced onto different
  resource-wordlengths of one type contribute two separate peaks even if
  they are serialised in time, so ``N_y = 1`` is correctly refused --
  the situation Eqn. 2 misses.

With no resource constraints (the paper's area-minimisation experiments)
the list scheduler degenerates to ASAP with the latency upper bounds,
exactly what Algorithm DPAlloc requires.

An Eqn. 2 tracker is provided for the ablation benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..ir.seqgraph import SequencingGraph
from ..resources.types import ResourceType
from .problem import InfeasibleError
from .wcg import WordlengthCompatibilityGraph, bit_ids

__all__ = [
    "Eqn2Tracker",
    "Eqn3Tracker",
    "critical_path_priorities",
    "list_schedule_outcome",
]


def critical_path_priorities(
    graph: SequencingGraph, latencies: Mapping[str, int]
) -> Dict[str, int]:
    """Longest path from each op to a sink (inclusive), the list priority."""
    priority: Dict[str, int] = {}
    for name in reversed(graph.topological_order()):
        succ = graph.successors(name)
        priority[name] = latencies[name] + max(
            (priority[s] for s in succ), default=0
        )
    return priority


class Eqn3Tracker:
    """Incremental evaluation of the Eqn. 3 resource bound (scaled integers).

    The bound is *time-monotone*: placing an operation raises each of
    its members' peaks to at least the op's share, and peaks never fall.
    So an op refused at a fresh control step (where all loads are zero)
    is refused at every later step too; the list scheduler needs no
    separate test for that, because it detects a wedge by running out
    of events with ops still unplaced.

    **Shared-denominator invariant.**  Every quantity in Eqn. 3 is a sum
    of equal shares ``1/|S(o)|``, so with ``D = lcm(|S(o)|)`` over all
    operations -- knowable at construction -- every load, peak and LHS is
    an exact multiple of ``1/D``.  The tracker therefore stores *scaled
    integers* (value times ``D``): each op's share is ``D // |S(o)|``,
    per-member load rows are flat integer vectors indexed by control
    step, per-member peaks and per-kind peak sums are maintained
    incrementally, and the constraint test compares against ``N_y * D``.
    All comparisons are exact integer comparisons -- byte-identical to
    the ``fractions.Fraction`` formulation kept as a test oracle
    (``tests/oracles.py``), which the equivalence test suite enforces.
    Python integers never overflow, so arbitrarily large denominators
    stay exact.
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
        # S as a resource-id bitset of the WCG, and each member id's rank
        # in S; a member the WCG does not know covers nothing.
        rank: Dict[int, int] = {}
        for i, s in enumerate(self._scheduling_set):
            rid = wcg.resource_id.get(s)
            if rid is not None:
                rank[rid] = i
        s_mask = sum(1 << rid for rid in rank)
        # S(o) per op as member ranks, and D = lcm over |S(o)|.
        self._member_ids_of: Dict[str, Tuple[int, ...]] = {}
        for op in wcg.operations:
            covering = wcg.h_by_op[wcg.op_id[op.name]] & s_mask
            if not covering:
                raise InfeasibleError(
                    f"operation {op.name!r} not covered by the scheduling set"
                )
            self._member_ids_of[op.name] = tuple(rank[r] for r in bit_ids(covering))
        self._denominator = math.lcm(
            *(len(m) for m in self._member_ids_of.values())
        ) if self._member_ids_of else 1
        d = self._denominator
        # Scaled equal shares (section 2.2): share(o) = D / |S(o)|, exact.
        self._share_scaled: Dict[str, int] = {
            name: d // len(members)
            for name, members in self._member_ids_of.items()
        }
        # H edges never cross kinds, so an op's members share its kind.
        self._kind_of_op: Dict[str, str] = {
            op.name: op.resource_kind for op in wcg.operations
        }
        # Per member: flat scaled-integer load vector (index = control
        # step, grown on demand) and its running peak; per kind: the
        # maintained sum of member peaks (the committed LHS of Eqn. 3).
        self._loads: List[List[int]] = [[] for _ in self._scheduling_set]
        self._peaks: List[int] = [0] * len(self._scheduling_set)
        self._kind_peak_sum: Dict[str, int] = {
            s.kind: 0 for s in self._scheduling_set
        }
        self._limit_scaled: Dict[str, int] = {
            kind: limit * d for kind, limit in self._constraints.items()
        }

    @property
    def scheduling_set(self) -> Tuple[ResourceType, ...]:
        return self._scheduling_set

    @property
    def denominator(self) -> int:
        """The shared denominator ``D = lcm(|S(o)|)`` of every share."""
        return self._denominator

    def members_of(self, name: str) -> Tuple[ResourceType, ...]:
        return tuple(self._scheduling_set[m] for m in self._member_ids_of[name])

    def share(self, name: str) -> Fraction:
        """The op's equal share ``1/|S(o)|`` (exact)."""
        return Fraction(self._share_scaled[name], self._denominator)

    def _limit(self, kind: str) -> Optional[int]:
        return self._constraints.get(kind)

    def _hypothetical_scaled(self, name: str, start: int, duration: int) -> int:
        """Scaled LHS of Eqn. 3 for the op's kind if placed at ``start``.

        Starts from the maintained per-kind peak sum and adjusts only the
        involved members' peaks by their hypothetical increase over the
        placement window; steps beyond a member's stored load vector
        carry zero load, so their hypothetical load is just the share.
        """
        share = self._share_scaled[name]
        total = self._kind_peak_sum[self._kind_of_op[name]]
        end = start + duration
        for m in self._member_ids_of[name]:
            peak = self._peaks[m]
            loads = self._loads[m]
            new_peak = peak
            for t in range(start, min(len(loads), end)):
                v = loads[t] + share
                if v > new_peak:
                    new_peak = v
            if end > len(loads) and share > new_peak:
                new_peak = share
            total += new_peak - peak
        return total

    def admits(self, name: str, start: int, duration: int) -> bool:
        """Whether placing ``name`` at ``start`` keeps Eqn. 3 satisfied."""
        limit = self._limit_scaled.get(self._kind_of_op[name])
        if limit is None:
            return True
        return self._hypothetical_scaled(name, start, duration) <= limit

    def place(self, name: str, start: int, duration: int) -> None:
        """Commit the placement of an operation."""
        share = self._share_scaled[name]
        end = start + duration
        gained = 0
        for m in self._member_ids_of[name]:
            loads = self._loads[m]
            if len(loads) < end:
                loads.extend([0] * (end - len(loads)))
            peak = self._peaks[m]
            base = peak
            for t in range(start, end):
                v = loads[t] + share
                loads[t] = v
                if v > peak:
                    peak = v
            if peak != base:
                self._peaks[m] = peak
                gained += peak - base
        if gained:
            self._kind_peak_sum[self._kind_of_op[name]] += gained

    def lhs(self, kind: str) -> Fraction:
        """Current LHS of Eqn. 3 for one resource kind (exact)."""
        return Fraction(self._kind_peak_sum.get(kind, 0), self._denominator)


class Eqn2Tracker:
    """Classic per-step resource counting (paper Eqn. 2) -- ablation only.

    Counts concurrently executing operations per resource kind; blind to
    wordlength incompatibilities, so it can accept schedules that need
    more physical units than ``N_y`` (the defect Eqn. 3 repairs).
    """

    def __init__(
        self,
        wcg: WordlengthCompatibilityGraph,
        constraints: Mapping[str, int],
    ) -> None:
        self._constraints = dict(constraints)
        self._kind_of = {op.name: op.resource_kind for op in wcg.operations}
        self._load: Dict[str, Dict[int, int]] = {}

    def admits(self, name: str, start: int, duration: int) -> bool:
        kind = self._kind_of[name]
        limit = self._constraints.get(kind)
        if limit is None:
            return True
        loads = self._load.setdefault(kind, {})
        return all(
            loads.get(t, 0) + 1 <= limit for t in range(start, start + duration)
        )

    def place(self, name: str, start: int, duration: int) -> None:
        kind = self._kind_of[name]
        loads = self._load.setdefault(kind, {})
        for t in range(start, start + duration):
            loads[t] = loads.get(t, 0) + 1


@dataclass(frozen=True)
class _Running:
    name: str
    finish: int


class _GreedyWedge(Exception):
    """Internal: the greedy list scheduler blocked itself permanently."""


def serial_schedule(
    graph: SequencingGraph,
    latencies: Mapping[str, int],
    constrained_kinds: Set[str],
) -> Dict[str, int]:
    """Fully serialised fallback schedule (one op of each kind at a time).

    Operations of the kinds in ``constrained_kinds`` are executed one
    after another (per kind); other kinds run ASAP.  Under this schedule
    at most one operation of a constrained kind is active at any step, so
    the Eqn. 3 LHS of kind ``y`` is at most ``|S_y|`` -- the schedule is
    therefore feasible whenever ``N_y >= |S_y|``, which is also a *lower
    bound* on implementable unit counts (any binding uses at least
    ``|S_y|`` distinct covering types).  This removes the wedge states a
    greedy constructive scheduler can talk itself into.
    """
    priority = critical_path_priorities(graph, latencies)
    kind_of = {op.name: op.resource_kind for op in graph.operations}
    horizon: Dict[str, int] = {}
    start: Dict[str, int] = {}
    # Incremental readiness: unplaced-predecessor counts and running
    # release times, so each pick scans only the ready frontier instead
    # of re-deriving readiness for every remaining op.
    preds_left: Dict[str, int] = {}
    release: Dict[str, int] = {}
    frontier: Set[str] = set()
    for n in graph.names:
        preds_left[n] = len(graph.predecessors(n))
        release[n] = 0
        if preds_left[n] == 0:
            frontier.add(n)
    while frontier:
        name = min(frontier, key=lambda n: (-priority[n], n))
        kind = kind_of[name]
        if kind in constrained_kinds:
            begin = max(release[name], horizon.get(kind, 0))
            horizon[kind] = begin + latencies[name]
        else:
            begin = release[name]
        start[name] = begin
        frontier.discard(name)
        finish = begin + latencies[name]
        for succ in graph.successors(name):
            preds_left[succ] -= 1
            if finish > release[succ]:
                release[succ] = finish
            if preds_left[succ] == 0:
                frontier.add(succ)
    return start


def _greedy_schedule(
    graph: SequencingGraph,
    tracker: "Eqn2Tracker | Eqn3Tracker",
    latencies: Mapping[str, int],
) -> Dict[str, int]:
    """Greedy constructive list schedule from control step 0."""
    priority = critical_path_priorities(graph, latencies)
    pending: Set[str] = set(graph.names)
    start_times: Dict[str, int] = {}
    running: List[_Running] = []
    now = 0

    # Incremental readiness: per-op unplaced-predecessor counts and the
    # running max finish of placed predecessors.  Placing an op touches
    # only its successors, so each event scans the released frontier
    # rather than re-deriving readiness for every pending op.  The
    # frontier (preds_left == 0) and release values coincide exactly
    # with the original per-event re-scan, so decision order -- and
    # hence the schedule bytes -- are unchanged.
    preds_left: Dict[str, int] = {}
    release: Dict[str, int] = {}
    frontier: Set[str] = set()
    for n in graph.names:
        preds_left[n] = len(graph.predecessors(n))
        release[n] = 0
        if preds_left[n] == 0:
            frontier.add(n)

    def _commit(name: str, start: int) -> None:
        start_times[name] = start
        finish = start + latencies[name]
        for succ in graph.successors(name):
            preds_left[succ] -= 1
            if finish > release[succ]:
                release[succ] = finish
            if preds_left[succ] == 0:
                frontier.add(succ)

    while pending:
        ready = sorted(
            (n for n in frontier if release[n] <= now),
            key=lambda n: (-priority[n], n),
        )
        for name in ready:
            if tracker.admits(name, now, latencies[name]):
                tracker.place(name, now, latencies[name])
                running.append(_Running(name, now + latencies[name]))
                pending.discard(name)
                frontier.discard(name)
                _commit(name, now)
        if not pending:
            break

        # Advance time to the next event: a running op finishing or a
        # dependency releasing a new ready op.
        events = [r.finish for r in running if r.finish > now]
        # reprolint: disable=RL001(order-insensitive: every path feeds min)
        for n in frontier:
            if release[n] > now:
                events.append(release[n])
        if events:
            now = min(events)
            running = [r for r in running if r.finish > now]
            continue

        # No future events and nothing placeable now.  With no running
        # ops the current step is fresh, so by time-monotonicity of the
        # bound the remaining ready ops are blocked permanently.
        raise _GreedyWedge(sorted(ready) or sorted(pending))

    return start_times


def list_schedule_outcome(
    graph: SequencingGraph,
    wcg: WordlengthCompatibilityGraph,
    latencies: Mapping[str, int],
    resource_constraints: Optional[Mapping[str, int]] = None,
    constraint: str = "eqn3",
    scheduling_set: Optional[Tuple[ResourceType, ...]] = None,
) -> Dict[str, int]:
    """Resource-constrained list scheduling with latency upper bounds.

    Args:
        graph: sequencing graph ``P(O, S)``.
        wcg: current wordlength compatibility graph (supplies ``S`` and
            ``O(s)`` for the Eqn. 3 tracker).
        latencies: per-op latencies -- Algorithm DPAlloc passes the upper
            bounds ``L_o`` so that later binding can never violate the
            schedule.
        resource_constraints: ``N_y`` per resource kind; ``None`` or an
            empty mapping yields a pure ASAP schedule.
        constraint: ``"eqn3"`` (paper) or ``"eqn2"`` (ablation).
        scheduling_set: precomputed scheduling set (the solver pipeline
            caches per-kind covers); ``None`` recomputes from ``wcg``.

    Returns:
        the start control step of every operation.

    Raises:
        InfeasibleError: some operation can never satisfy the resource
            bound, i.e. ``N_y`` is below the coverage lower bound
            ``|S_y|`` (or, for Eqn. 2, below 1).

    The greedy constructive pass can occasionally wedge itself: committed
    peaks may permanently exhaust the type budget for an op that a
    cleverer schedule would have accommodated.  In that case the
    scheduler falls back to :func:`serial_schedule`, which provably
    satisfies Eqn. 3 whenever ``N_y >= |S_y|``; if even the serial
    schedule fails the check the constraints are genuinely infeasible.
    """
    if not resource_constraints:
        return graph.asap(latencies)

    def make_tracker() -> "Eqn2Tracker | Eqn3Tracker":
        if constraint == "eqn3":
            return Eqn3Tracker(wcg, resource_constraints, scheduling_set)
        if constraint == "eqn2":
            return Eqn2Tracker(wcg, resource_constraints)
        raise ValueError(f"unknown constraint {constraint!r}")

    try:
        return _greedy_schedule(graph, make_tracker(), latencies)
    except _GreedyWedge:
        pass

    schedule = serial_schedule(
        graph, latencies, constrained_kinds=set(resource_constraints)
    )
    checker = make_tracker()
    order = sorted(schedule, key=lambda n: (schedule[n], n))
    for name in order:
        if not checker.admits(name, schedule[name], latencies[name]):
            raise InfeasibleError(
                f"resource constraints {dict(resource_constraints)} are "
                f"infeasible (operation {name!r} fails even under the "
                f"serialised schedule)"
            )
        checker.place(name, schedule[name], latencies[name])
    return schedule
