"""Envelope checks: every envelope ok, valid and byte-identical to its oracle.

The oracle of an allocation is an in-process ``execute_request`` of the
same request; the oracle of a delta is a cold ``execute_request`` of the
edited problem.  Comparison is on canonical JSON with the label taken
out (labels are per-post bookkeeping and are checked on their own), so
one oracle solve serves every repeat of a problem.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.engine import AllocationRequest, AllocationResult, execute_request


def canonical_unlabelled(result: AllocationResult) -> str:
    payload = result.canonical_dict()
    payload.pop("label", None)
    return json.dumps(payload, sort_keys=True)


def problem_of_delta(delta) -> object:
    """The edited problem a deadline-edit delta asks to solve."""
    (edit,) = delta.edits
    return delta.base_problem.with_latency_constraint(edit.latency)


class Oracle:
    """Cold in-process solves, one per distinct problem."""

    def __init__(self) -> None:
        self._expected: Dict[str, str] = {}
        self.solves = 0

    def expected(self, problem) -> str:
        key = problem.fingerprint()
        if key not in self._expected:
            self.solves += 1
            self._expected[key] = canonical_unlabelled(
                execute_request(AllocationRequest(problem, "dpalloc"))
            )
        return self._expected[key]


def envelope_fault(
    result: Optional[AllocationResult],
    label: Optional[str],
    expected: Optional[str],
) -> Optional[str]:
    """Why ``result`` is wrong, or ``None`` when it is right."""
    if result is None:
        return "no envelope"
    if not result.ok:
        return f"not ok: {result.error}"
    if result.valid is not True:
        return "not valid"
    if result.label != label:
        return f"label {result.label!r} != {label!r}"
    if expected is not None and canonical_unlabelled(result) != expected:
        return "canonical bytes differ from the oracle"
    return None
