"""Algorithm DPAlloc -- the paper's top-level heuristic (section 2).

Pseudo-code from the paper::

    while( no feasible solution ) do
        calculate resource set covering each operation;
        find upper-bounds L_o on latency of each operation o in O;
        schedule P(O, S) using latency upper-bounds L_o;
        perform binding and wordlength selection;
        if( solution violates latency constraint )
            refine wordlength information;
        else
            record this as a feasible solution;
    end while;

The intuition (paper section 2): "using the largest possible range of
latencies at the start allows the greatest possible resource sharing".
Concretely, scheduling runs under the Eqn. 3 resource bound with the
*minimum* unit counts implied by the wordlength information: one unit per
scheduling-set member (``N_y = |S_y|``).  Initially the scheduling set has
a single member per kind -- the whole graph is scheduled "using one
multiplier", exactly the situation the paper's Fig. 2 discussion
describes -- which maximally serialises operations and thus maximises
sharing.  When the resulting makespan misses the user constraint,
wordlength refinement deletes the slowest ``H`` edges of one
bound-critical operation: ops get faster *and* the scheduling set may
grow, adding parallelism, until the constraint is met.

Two completions of the paper's under-specified corners (documented in
DESIGN.md §5):

* when no operation is refinable but the constraint is still violated,
  the derived unit count of the bottleneck kind is incremented (pure
  duplication of units -- needed e.g. for many identical parallel ops
  under a tight constraint);
* scheduling with upper bounds guarantees the later binding never
  violates the schedule, and the achieved makespan is evaluated with the
  *bound-resource* latencies (results are ready no later than the
  reserved upper bounds).

Termination: every iteration deletes an ``H`` edge or increments a unit
count, both bounded, so the loop is polynomial; if neither is possible
the problem is infeasible (lambda below the fully-refined critical path,
or user resource constraints below the coverage lower bound).

Architecture (since the pass-pipeline refactor): the loop body lives in
:mod:`repro.core.solver` as explicit passes (bounds -> schedule -> bind
-> check -> refine/bump) over a :class:`~repro.core.solver.SolverState`;
:func:`allocate` is a thin wrapper that adds the ``mode="best"``
meta-mode on top of :func:`~repro.core.solver.run_pipeline`.  The state
tracks dirtiness per operation, so by default an iteration recomputes
only what the previous refinement actually invalidated (the refined
op's upper bound, its kind's scheduling-set cover, the max chains whose
ops moved).  ``REPRO_SOLVER=scratch`` disables all reuse and is
guaranteed -- by tests and a CI parity job over the full experiment
sweep -- to produce byte-identical canonical results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from .problem import InfeasibleError, Problem
from .solution import Datapath
from .solver import DPAllocOptions, run_pipeline

__all__ = ["allocate", "DPAllocOptions"]


def allocate(problem: Problem, options: Optional[DPAllocOptions] = None) -> Datapath:
    """Run Algorithm DPAlloc on ``problem``; return the first feasible datapath.

    Raises:
        InfeasibleError: the latency constraint is below the fully
            refined critical path, or the resource-count constraints can
            never be satisfied.
    """
    opts = options or DPAllocOptions()

    if opts.mode == "best":
        # Run both concrete scheduling modes under the same option set
        # (including any max_iterations cap) and keep the smaller-area
        # feasible datapath; its recorded iterations/refinements/trace
        # are the winning variant's own.
        candidates: List[Datapath] = []
        for mode in ("min-units", "asap"):
            variant = replace(opts, mode=mode)
            try:
                candidates.append(allocate(problem, variant))
            except InfeasibleError:
                continue
        if not candidates:
            raise InfeasibleError(
                f"latency constraint {problem.latency_constraint} unreachable "
                f"under both scheduling modes"
            )
        return min(candidates, key=lambda dp: (dp.area, dp.makespan))

    return run_pipeline(problem, opts)
