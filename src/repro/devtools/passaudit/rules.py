"""RL006/RL007: the solver pipeline's effect and invalidation contracts.

Registered into the reprolint framework on import (the framework's
lazy rule loader imports this module alongside the built-in rules).
Both rules run :func:`repro.devtools.passaudit.effects.analyze_project`
over the in-scope modules and compare the *inferred* effects of every
``Pass`` subclass against what the source declares.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

from ..lint.framework import (
    Finding,
    LintRule,
    ModuleSource,
    register_rule,
)
from .effects import PassReport, ProjectEffects, analyze_project

__all__ = ["EffectContractRule", "InvalidationRule"]

# The bounded analysis follows helpers through the solver's own
# package, the IR it schedules over, and the shared utils they call
# into (``wcg.kind_cover`` -> ``utils.covering``).
EFFECT_SCOPE = ("core", "ir", "utils")


def _fmt(attrs: Set[str]) -> str:
    return ", ".join(f"state.{a}" for a in sorted(attrs))


@register_rule
class EffectContractRule(LintRule):
    """RL006 effect contracts: every ``Pass`` declares exactly what it
    touches, and the declaration is machine-checked.

    Each ``Pass`` subclass carries ``reads``/``writes`` class
    attributes -- literal ``frozenset({...})`` of ``SolverState``
    field names.  The rule infers the real effect set of ``run`` by
    following attribute loads/stores, container mutations
    (``.add``/``.append``/``[...]=``) and helper calls through the
    bounded call graph (``repro.core.*`` / ``repro.ir.*``), then
    flags, in both directions:

    * an **undeclared effect** -- ``run`` (possibly transitively)
      reads or writes a state field the contract omits;
    * a **phantom effect** -- the contract declares a field the
      inference never sees exercised (only when the summary is
      *complete*, i.e. every call resolved; an incomplete summary is
      itself reported rather than silently weakening the check).

    Memoising query methods that write private caches inside logical
    reads declare ``# passaudit: const(reason)``; a reasonless or
    dangling pragma is flagged here.  Fix by updating the contract to
    match the real effects -- or the code to match the contract; that
    choice surfacing in review is the point of the rule.
    """

    code = "RL006"
    name = "pass-effect-contract"
    contract = "solver: declared pass reads/writes match inferred effects"
    scope = EFFECT_SCOPE

    def check_project(
        self, modules: Sequence[ModuleSource]
    ) -> Iterable[Finding]:
        project = analyze_project(modules)
        findings: List[Finding] = []
        for module, line, message in project.graph.pragma_problems:
            findings.append(module.finding(self.code, line, message))
        for report in project.passes:
            findings.extend(self._check_pass(report))
        return findings

    def _check_pass(self, report: PassReport) -> Iterable[Finding]:
        module = report.cls.module
        cls_node = report.cls.node
        if report.run is None or report.state_param is None:
            return  # abstract base shapes carry no contract
        if report.declared_reads is None or report.declared_writes is None:
            missing = [
                name for name, decl in (
                    ("reads", report.declared_reads),
                    ("writes", report.declared_writes),
                ) if decl is None
            ]
            yield module.finding(
                self.code, cls_node,
                f"pass {report.name} declares no {'/'.join(missing)} "
                f"contract -- add literal frozenset class attributes "
                f"(see docs/static-analysis.md)",
            )
            return
        for direction, decl in (
            ("reads", report.declared_reads),
            ("writes", report.declared_writes),
        ):
            if not decl.literal:
                yield module.finding(
                    self.code, decl.node,
                    f"pass {report.name}.{direction} must be a literal "
                    f"frozenset of state-field strings so the contract "
                    f"is statically checkable",
                )
                return
        if not report.complete:
            yield module.finding(
                self.code, report.run.node,
                f"effect summary for {report.name}.run is incomplete "
                f"({report.incomplete_why}); the contract cannot be "
                f"verified -- make the helper resolvable or scan it",
            )
        assert report.declared_reads is not None
        assert report.declared_writes is not None
        for direction, inferred, decl in (
            ("reads", report.reads, report.declared_reads),
            ("writes", report.writes, report.declared_writes),
        ):
            undeclared = inferred - decl.attrs
            if undeclared:
                yield module.finding(
                    self.code, decl.node,
                    f"{report.name}.run {direction[:-1]}s "
                    f"{_fmt(undeclared)} but the {direction} contract "
                    f"does not declare it",
                )
            phantom = decl.attrs - inferred
            if phantom and report.complete:
                yield module.finding(
                    self.code, decl.node,
                    f"{report.name}.{direction} declares {_fmt(phantom)} "
                    f"but run never exercises it -- stale contract",
                )


@register_rule
class InvalidationRule(LintRule):
    """RL007 incremental-reuse invalidation: writers mark dirtiness,
    memo consumers refresh.

    The incremental solver reuses derived state across pipeline
    iterations; the pass module declares the reuse protocol as module
    literals:

    * ``REUSE_CHANNELS = {"field": ("channel", ...)}`` -- a pass
      whose inferred effects *write* ``state.field`` must also write
      **every** listed dirtiness channel, because downstream passes
      consult those channels to decide what derived state is still
      valid.  Dropping one invalidation (the classic incremental-bug
      shape: refining ``wcg`` without marking ``dirty_cover_kinds``)
      is flagged at the pass, with the affected downstream readers
      named.
    * ``REUSE_MEMOS = ("chain_cache", ...)`` -- a pass that *reads* a
      memo structure (the bind pass's ``ChainCache``) must also
      write/refresh it: memos are refreshed by their consumer, never
      trusted stale.

    The rule fires only where the coupling is real -- some *other*
    pass must read the written field or one of its channels.  An
    intentionally lazy consumer takes
    ``# reprolint: disable=RL007(reason)`` stating why staleness is
    sound.
    """

    code = "RL007"
    name = "reuse-invalidation"
    contract = "solver: every reuse-tracked write marks its dirtiness channels"
    scope = EFFECT_SCOPE

    def check_project(
        self, modules: Sequence[ModuleSource]
    ) -> Iterable[Finding]:
        project = analyze_project(modules)
        findings: List[Finding] = []
        for report in project.passes:
            if report.run is None or report.state_param is None:
                continue
            protocol = project.protocols.get(report.cls.module_name)
            if protocol is None:
                continue
            self._check_channels(project, report, protocol.channels,
                                 findings)
            self._check_memos(report, protocol.memos, findings)
        return findings

    def _check_channels(
        self,
        project: ProjectEffects,
        report: PassReport,
        channels: "dict[str, tuple[str, ...]]",
        findings: List[Finding],
    ) -> None:
        module = report.cls.module
        for fieldname in sorted(set(report.writes) & set(channels)):
            required = channels[fieldname]
            missing = [c for c in required if c not in report.writes]
            if not missing:
                continue
            readers = sorted({
                other.name
                for other in project.passes
                if other.cls is not report.cls
                and (
                    fieldname in other.reads
                    or any(c in other.reads for c in required)
                )
            })
            if not readers:
                continue  # no cross-pass coupling to invalidate for
            findings.append(module.finding(
                self.code, report.run.node,
                f"{report.name}.run writes state.{fieldname} without "
                f"marking dirtiness channel"
                f"{'s' if len(missing) > 1 else ''} "
                f"{', '.join('state.' + c for c in missing)} -- "
                f"{', '.join(readers)} reuse"
                f"{'s' if len(readers) == 1 else ''} derived state "
                f"keyed on it",
            ))

    def _check_memos(
        self,
        report: PassReport,
        memos: "tuple[str, ...]",
        findings: List[Finding],
    ) -> None:
        module = report.cls.module
        assert report.run is not None
        for memo in memos:
            if memo in report.reads and memo not in report.writes:
                findings.append(module.finding(
                    self.code, report.run.node,
                    f"{report.name}.run consumes memo state.{memo} "
                    f"without refreshing it -- memo structures are "
                    f"refreshed by their consumer, never trusted stale",
                ))
