"""Request/result envelopes shared by every allocation run.

:class:`AllocationRequest` describes one run (problem, strategy name,
strategy options, label, timeout); :class:`AllocationResult` is the
uniform envelope every run returns -- successful or not.  Consumers stop
caring which strategy produced a datapath, how its entry point shaped
its return value, or which exception it used to signal infeasibility.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.delta import Edit
from ..core.problem import Problem
from ..core.solution import Datapath, TraceEvent

__all__ = [
    "AllocationRequest",
    "AllocationResult",
    "DeltaRequest",
    "PRIORITY_CLASSES",
    "validate_timeout",
]

# Admission-control priority classes, best to worst service level.
# ``interactive`` is for a designer waiting at a prompt, ``normal``
# (the default) for ordinary tool traffic, ``bulk`` for sweeps that
# would rather be shed than delay the other two.  The fleet coordinator
# bounds a separate queue per class (see repro.service.fleet).
PRIORITY_CLASSES = ("interactive", "normal", "bulk")
DEFAULT_PRIORITY = "normal"


def validate_timeout(timeout: Any) -> None:
    """Raise ``ValueError`` unless ``timeout`` is ``None`` or a finite
    int/float number of seconds > 0 (a bool is refused)."""
    if timeout is None:
        return
    if (
        isinstance(timeout, bool)
        or not isinstance(timeout, (int, float))
        or not math.isfinite(timeout)
        or timeout <= 0
    ):
        raise ValueError(
            f"timeout must be None or a finite number of seconds > 0, "
            f"got {timeout!r}"
        )


@dataclass(frozen=True)
class AllocationRequest:
    """One unit of work for the engine.

    Attributes:
        problem: the allocation problem instance.
        allocator: registered strategy name (see
            :func:`repro.engine.allocator_names`).
        options: strategy-specific keyword options (e.g. DPAlloc knobs,
            the ILP's ``time_limit``); must be JSON-compatible for the
            result cache to key on them.
        label: free-form tag echoed into the result (batch bookkeeping).
        priority: admission-control class (one of
            :data:`PRIORITY_CLASSES`; ``None`` means the default class,
            ``"normal"``).  Ignored by the offline engine; the fleet
            coordinator uses it to pick the bounded queue the request
            is admitted to.  Never part of the content identity: two
            requests differing only in priority are the same work.
        timeout: optional wall-clock budget, a finite number of seconds
            > 0 (anything else raises ``ValueError``).  A hard
            per-solve deadline under the process-per-run executor
            (``Engine(executor="process")`` -- the worker is killed);
            enforced by abandoning the worker in pooled ``run_batch``
            execution; in serial in-process execution it is checked
            after the run completes (Python cannot safely interrupt an
            in-process solver).  Every mode yields the identical
            canonical timeout envelope.
    """

    problem: Problem
    allocator: str
    options: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None
    timeout: Optional[float] = None
    priority: Optional[str] = None

    def __post_init__(self) -> None:
        validate_timeout(self.timeout)
        if self.priority is not None and self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"priority must be one of {PRIORITY_CLASSES}, "
                f"got {self.priority!r}"
            )

    def priority_class(self) -> str:
        """The effective admission class (``None`` -> the default)."""
        return self.priority if self.priority is not None else DEFAULT_PRIORITY


@dataclass(frozen=True)
class DeltaRequest:
    """One re-solve of an edited problem: a base plus an edit sequence.

    Consumed by :meth:`repro.engine.Engine.run_delta` (and served as
    ``POST /v1/delta``).  The base is named either by its
    ``Problem.fingerprint()`` -- enough when the engine already stored
    that base -- or by the full :class:`Problem`, which the engine then
    stores for later fingerprint-only requests.

    Attributes:
        edits: the :data:`repro.core.delta.Edit` sequence, applied in
            order to the base problem.  An empty sequence is a valid
            no-op request (it solves and stores the base).
        base_problem: the base problem instance, when the caller has it.
        base_fingerprint: ``Problem.fingerprint()`` of the base; derived
            from ``base_problem`` when omitted.
        options: DPAlloc options, exactly as an
            :class:`AllocationRequest` for allocator ``"dpalloc"`` would
            carry them.
        label: free-form tag echoed into the result envelope.
    """

    edits: Tuple[Edit, ...] = ()
    base_problem: Optional[Problem] = None
    base_fingerprint: Optional[str] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.base_problem is None and self.base_fingerprint is None:
            raise ValueError(
                "DeltaRequest needs base_problem or base_fingerprint"
            )

    def fingerprint(self) -> str:
        """The base problem's fingerprint, however the base was named."""
        if self.base_fingerprint is not None:
            return self.base_fingerprint
        assert self.base_problem is not None
        return self.base_problem.fingerprint()


@dataclass(frozen=True)
class AllocationResult:
    """Uniform envelope for the outcome of one allocation run.

    Attributes:
        allocator: name of the strategy that ran.
        datapath: the solution, or ``None`` when the run failed.
        seconds: wall-clock duration of the run that produced the
            datapath.  Cache hits preserve the *original* run's
            duration (with ``cached=True``), so sweep timing statistics
            stay meaningful; the lookup itself is not timed.
        iterations: solver iterations (DPAlloc outer loop; 1 for
            one-shot baselines; 0 when no datapath was produced).
        valid: verdict of :func:`repro.analysis.validate_datapath`
            against the problem definition; ``None`` when there is no
            datapath to validate.
        error: failure reason (infeasibility, timeout, validation
            failure) instead of a raised exception; ``None`` on success.
        extras: strategy-specific statistics (ILP model sizes, binding
            optimality flags, ...), JSON-compatible.
        label: echo of the request label.
        cached: the envelope was served from the engine's result cache.
        delta: provenance of a ``run_delta`` envelope (base
            fingerprint, edit count, strategy); ``None`` for ordinary
            runs.  Non-canonical, like ``seconds`` and ``cached``: a
            delta solve's canonical bytes are identical to a cold
            solve's, which never carries this field.
    """

    allocator: str
    datapath: Optional[Datapath]
    seconds: float
    iterations: int = 0
    valid: Optional[bool] = None
    error: Optional[str] = None
    extras: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None
    cached: bool = False
    delta: Optional[Mapping[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True when a datapath was produced and passed validation."""
        return self.datapath is not None and self.error is None and bool(self.valid)

    @property
    def trace(self) -> Tuple[TraceEvent, ...]:
        """The solver's per-iteration trace, if the run recorded one.

        Non-empty only for DPAlloc runs with ``options={"trace": True}``
        -- the events ride on the datapath and survive JSON round-trips
        (batch files, the result cache, shard merges).
        """
        return self.datapath.trace if self.datapath is not None else ()

    def canonical_dict(self) -> Dict[str, Any]:
        """Content view excluding wall-clock and cache provenance.

        Two runs of the same request -- serial or parallel, fresh or
        cached -- produce identical canonical dicts; the determinism
        tests compare their JSON byte-for-byte.
        """
        from ..io.json_io import allocation_result_to_dict

        payload = allocation_result_to_dict(self)
        payload.pop("seconds", None)
        payload.pop("cached", None)
        payload.pop("delta", None)
        extras = payload.get("extras")
        if isinstance(extras, dict):
            extras.pop("solve_seconds", None)
        datapath = payload.get("datapath")
        if isinstance(datapath, dict):
            # Trace telemetry (pass timings, chain-cache counters) rides
            # the wire for observability but is wall-clock- and
            # mode-dependent; canonical bytes must not see it.
            for event in datapath.get("trace", ()):
                for key in ("pass_ms", "cache_hits", "cache_misses",
                            "cache_evicted"):
                    event.pop(key, None)
        return payload

    def canonical_json(self) -> str:
        """Deterministic JSON of :meth:`canonical_dict`."""
        return json.dumps(self.canonical_dict(), sort_keys=True)

    def summary_row(self) -> Dict[str, Any]:
        """Small flat dict for tabular reporting."""
        if self.ok:
            assert self.datapath is not None
            return {
                "allocator": self.allocator,
                "area": self.datapath.area,
                "makespan": self.datapath.makespan,
                "units": self.datapath.unit_count(),
                "seconds": self.seconds,
            }
        return {
            "allocator": self.allocator,
            "error": self.error or "unknown failure",
            "seconds": self.seconds,
        }
