"""Core allocation algorithms: the paper's primary contribution."""

from .binding import Binding, BoundClique, bindselect, max_chain
from .dpalloc import DPAllocOptions, allocate
from .problem import InfeasibleError, Problem
from .refinement import (
    RefinementStep,
    bound_critical_path,
    candidate_set,
    choose_refinement_op,
    refine_once,
)
from .scheduling import (
    Eqn2Tracker,
    Eqn3Tracker,
    critical_path_priorities,
    list_schedule_outcome,
)
from .solution import Datapath, TraceEvent
from .solver import (
    SOLVER_ENV,
    SOLVER_MODES,
    SolverState,
    resolve_solver_mode,
    run_pipeline,
)
from .wcg import WordlengthCompatibilityGraph

__all__ = [
    "Binding",
    "BoundClique",
    "Datapath",
    "DPAllocOptions",
    "Eqn2Tracker",
    "Eqn3Tracker",
    "InfeasibleError",
    "Problem",
    "RefinementStep",
    "SOLVER_ENV",
    "SOLVER_MODES",
    "SolverState",
    "TraceEvent",
    "WordlengthCompatibilityGraph",
    "allocate",
    "bindselect",
    "bound_critical_path",
    "candidate_set",
    "choose_refinement_op",
    "critical_path_priorities",
    "list_schedule_outcome",
    "max_chain",
    "refine_once",
    "resolve_solver_mode",
    "run_pipeline",
]
