"""Delta solves: the edit model.

``Engine.run_delta`` re-solves an *edited* problem: it applies an edit
sequence to a base problem (:func:`apply_edits`) and runs the edited
problem like any other request, so a delta's canonical bytes are those
of a cold solve by construction.  An edit is one of

* :class:`DeadlineEdit` -- change the latency constraint ``lambda``;
* :class:`WordlengthEdit` -- change one operation's operand widths;
* :class:`ConstraintEdit` -- set/clear one resource kind's ``N_y``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

from ..ir.ops import Operation
from ..ir.seqgraph import SequencingGraph
from .problem import Problem

__all__ = [
    "ConstraintEdit",
    "DeadlineEdit",
    "Edit",
    "WordlengthEdit",
    "apply_edits",
]


@dataclass(frozen=True)
class DeadlineEdit:
    """Change the overall latency constraint ``lambda``."""

    latency: int


@dataclass(frozen=True)
class WordlengthEdit:
    """Replace one operation's operand wordlengths."""

    operation: str
    widths: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))


@dataclass(frozen=True)
class ConstraintEdit:
    """Set (or with ``limit=None`` clear) one kind's ``N_y`` ceiling."""

    kind: str
    limit: Optional[int]


Edit = Union[DeadlineEdit, WordlengthEdit, ConstraintEdit]


def _with_operation_widths(
    graph: SequencingGraph, name: str, widths: Tuple[int, ...]
) -> SequencingGraph:
    """A copy of ``graph`` with one operation's operand widths replaced."""
    graph.operation(name)  # raises KeyError for unknown names
    edited = SequencingGraph()
    for op in graph.operations:
        if op.name == name:
            edited.add_operation(Operation(op.name, op.kind, widths))
        else:
            edited.add_operation(op)
    for producer, consumer in graph.edges():
        edited.add_dependency(producer, consumer)
    return edited


def apply_edits(problem: Problem, edits: Sequence[Edit]) -> Problem:
    """The edited problem: ``edits`` applied to ``problem`` in order.

    Raises ``KeyError`` for unknown operation names and ``ValueError``
    for invalid values (widths/latency/limits), mirroring the
    constructors' own validation.
    """
    edited = problem
    for edit in edits:
        if isinstance(edit, DeadlineEdit):
            edited = edited.with_latency_constraint(int(edit.latency))
        elif isinstance(edit, WordlengthEdit):
            edited = replace(
                edited,
                graph=_with_operation_widths(
                    edited.graph, edit.operation, edit.widths
                ),
            )
        elif isinstance(edit, ConstraintEdit):
            constraints = dict(edited.resource_constraints or {})
            if edit.limit is None:
                constraints.pop(edit.kind, None)
            else:
                constraints[edit.kind] = int(edit.limit)
            edited = replace(
                edited,
                # Normalise empty to None: both fingerprint and the
                # solver treat "no dict" and "empty dict" as
                # unconstrained, and the fingerprint must not fork.
                resource_constraints=constraints or None,
            )
        else:
            raise TypeError(f"not an edit: {edit!r}")
    return edited
