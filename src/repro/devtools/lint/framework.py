"""reprolint core: modules, rules, suppressions, reports.

The framework is deliberately small and dependency-free (``ast`` +
``tokenize``):

* :class:`ModuleSource` -- one parsed file: source text, AST, the
  package-relative *module key* used for rule scoping, and the parsed
  ``# reprolint: disable=...`` suppression comments;
* :class:`LintRule` -- base class every rule subclasses; rules
  self-register with :func:`register_rule` and carry their own docs
  (``repro lint --explain RL001`` prints the class docstring);
* :func:`run_lint` -- collect files, run every rule on the modules in
  its scope, apply suppressions, and return a :class:`LintReport`.

Nothing is grandfathered: every finding is either fixed or suppressed
inline with a reason.

Suppression syntax (line-scoped)::

    risky_call()  # reprolint: disable=RL002(seed comes from the request)

A comment on its own line suppresses the next statement line.  A
suppression must name a known rule code **and give a reason**;
reasonless, unknown-code and unused suppressions are themselves
findings (code ``RL000``), so the suppression surface stays auditable.

Exit-code semantics (used by the CLI and ``tools/run_lint.py``):
``0`` no new findings, ``1`` new findings, ``2`` usage/internal error.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleSource",
    "all_rules",
    "get_rule",
    "register_rule",
    "run_lint",
]

PathLike = Union[str, Path]

REPORT_KIND = "reprolint-report"
META_CODE = "RL000"

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=(?P<body>.+)$")
_CODE_RE = re.compile(r"(?P<code>RL\d{3})\s*(?:\((?P<reason>[^()]*)\))?")


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
@dataclass
class Finding:
    """One rule violation at one source location.

    ``status`` is assigned by the runner: ``new`` (fails the run) or
    ``suppressed`` (an inline pragma with a reason matched it).
    """

    rule: str
    path: str  # root-relative posix path
    line: int
    column: int
    message: str
    snippet: str = ""
    status: str = "new"
    reason: str = ""  # suppression reason when status == "suppressed"

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column + 1}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "snippet": self.snippet,
            "status": self.status,
            "reason": self.reason,
        }


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
@dataclass
class Suppression:
    """One parsed ``# reprolint: disable=RLxxx(reason)`` entry."""

    code: str
    reason: str
    comment_line: int  # physical line holding the comment
    target_line: int  # line whose findings it suppresses
    used: bool = False


def _parse_suppressions(
    text: str, lines: Sequence[str]
) -> Tuple[List[Suppression], List[Tuple[int, str]]]:
    """Parse suppression comments from ``text``.

    Returns ``(suppressions, problems)`` where each problem is a
    ``(line, message)`` pair for malformed pragmas (no parseable rule
    code after ``disable=``).
    """
    suppressions: List[Suppression] = []
    problems: List[Tuple[int, str]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions, problems
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        row = token.start[0]
        standalone = lines[row - 1].lstrip().startswith("#")
        target = row
        if standalone:
            # A comment on its own line governs the next line that
            # holds code (skipping blanks and further comments).
            target = row + 1
            while target <= len(lines):
                stripped = lines[target - 1].strip()
                if stripped and not stripped.startswith("#"):
                    break
                target += 1
        entries = list(_CODE_RE.finditer(match.group("body")))
        if not entries:
            problems.append(
                (row, "suppression names no rule code (expected RLxxx)")
            )
            continue
        for entry in entries:
            suppressions.append(Suppression(
                code=entry.group("code"),
                reason=(entry.group("reason") or "").strip(),
                comment_line=row,
                target_line=target,
            ))
    return suppressions, problems


# ----------------------------------------------------------------------
# module sources
# ----------------------------------------------------------------------
@dataclass
class ModuleSource:
    """One parsed python file handed to the rules."""

    path: Path  # absolute
    display: str  # root-relative posix path (stable across machines)
    module_key: Tuple[str, ...]  # package-relative parts for scoping
    text: str
    lines: List[str]
    tree: ast.Module
    suppressions: List[Suppression] = field(default_factory=list)
    pragma_problems: List[Tuple[int, str]] = field(default_factory=list)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule: str, node_or_line: Union[ast.AST, int], message: str,
        column: Optional[int] = None,
    ) -> Finding:
        """Build a finding anchored at an AST node or a line number."""
        if isinstance(node_or_line, int):
            line, col = node_or_line, (column or 0)
        else:
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0)
            if column is not None:
                col = column
        return Finding(
            rule=rule,
            path=self.display,
            line=line,
            column=col,
            message=message,
            snippet=self.snippet(line),
        )


def _module_key(file_path: Path, root: Path) -> Tuple[str, ...]:
    """Package-relative parts used for rule scoping.

    Files inside a ``repro`` package directory are keyed relative to
    it (``src/repro/core/binding.py`` -> ``("core", "binding.py")``),
    so scoped rules hit the same modules whether the scan root is the
    repo, ``src`` or ``src/repro``.  Files outside any ``repro``
    package (test fixtures, scratch trees) are keyed relative to the
    scan root, which lets fixtures opt into a scope by mimicking the
    layout (``<tmp>/core/case.py``).
    """
    parts = file_path.parts
    if "repro" in parts:
        index = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        return parts[index + 1:]
    try:
        relative = file_path.relative_to(root)
    except ValueError:
        return (file_path.name,)
    return relative.parts


def load_module(path: Path, root: Path, display: str) -> ModuleSource:
    """Parse one file (raises ``SyntaxError`` / ``OSError`` upward)."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    suppressions, problems = _parse_suppressions(text, lines)
    return ModuleSource(
        path=path,
        display=display,
        module_key=_module_key(path, root),
        text=text,
        lines=lines,
        tree=tree,
        suppressions=suppressions,
        pragma_problems=problems,
    )


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
class LintRule:
    """Base class for reprolint rules.

    Class attributes:

    * ``code`` -- the stable ``RLxxx`` identifier;
    * ``name`` -- short kebab-case name for listings;
    * ``contract`` -- one line naming the repo invariant the rule
      protects (shown by ``--list-rules``);
    * ``scope`` -- top-level ``repro`` subpackages the rule applies to
      (empty tuple = every scanned module).

    Subclasses implement :meth:`check_module` and/or
    :meth:`check_project` (for cross-module properties such as RL001's
    interprocedural order taint) and document themselves in the class
    docstring, which ``repro lint --explain CODE`` prints verbatim.
    """

    code: str = ""
    name: str = ""
    contract: str = ""
    scope: Tuple[str, ...] = ()

    def applies_to(self, module: ModuleSource) -> bool:
        if not self.scope:
            return True
        return bool(module.module_key) and module.module_key[0] in self.scope

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        return ()

    def check_project(
        self, modules: Sequence[ModuleSource]
    ) -> Iterable[Finding]:
        return ()


_RULES: Dict[str, LintRule] = {}


def register_rule(cls: type) -> type:
    """Class decorator adding a rule instance to the global registry."""
    instance = cls()
    if not instance.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    existing = _RULES.get(instance.code)
    if existing is not None and type(existing) is not cls:
        raise ValueError(
            f"rule code {instance.code} already registered "
            f"({type(existing).__name__})"
        )
    _RULES[instance.code] = instance
    return cls


def all_rules() -> List[LintRule]:
    """Registered rules, sorted by code (framework RL000 included)."""
    _ensure_rules_loaded()
    return [_RULES[code] for code in sorted(_RULES)]


def get_rule(code: str) -> Optional[LintRule]:
    _ensure_rules_loaded()
    return _RULES.get(code)


def _ensure_rules_loaded() -> None:
    # The built-in rules live in a sibling module that registers on
    # import; loading lazily keeps `import repro` free of lint costs.
    from . import rules  # noqa: F401


class _SuppressionHygiene(LintRule):
    """RL000 suppression-hygiene: the pragma surface stays auditable.

    ``# reprolint: disable=RLxxx(reason)`` is the only sanctioned way
    to silence a finding, and this meta-rule keeps that escape hatch
    honest: a suppression must (a) parse, (b) name a registered rule
    code, (c) give a non-empty reason, and (d) actually match a
    finding on its target line.  Violations of any of these are RL000
    findings -- a reasonless pragma is *inert* (the underlying finding
    still fires) so CI can never be silenced without a recorded why.
    """

    code = META_CODE
    name = "suppression-hygiene"
    contract = "suppressions stay auditable: known code, reason, still needed"
    scope = ()


_RULES[META_CODE] = _SuppressionHygiene()


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Everything one lint run produced."""

    root: str
    files: int
    rules: List[str]
    findings: List[Finding] = field(default_factory=list)

    @property
    def new(self) -> List[Finding]:
        return [f for f in self.findings if f.status == "new"]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.status == "suppressed"]

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0

    def summary(self) -> str:
        return (
            f"reprolint: {self.files} files, {len(self.rules)} rules -- "
            f"{len(self.new)} new, {len(self.suppressed)} suppressed"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": REPORT_KIND,
            "version": 1,
            "root": self.root,
            "files": self.files,
            "rules": self.rules,
            "counts": {
                "new": len(self.new),
                "suppressed": len(self.suppressed),
            },
            "findings": [f.to_dict() for f in self.findings],
        }


def _collect_files(paths: Sequence[PathLike]) -> List[Tuple[Path, Path]]:
    """Expand ``paths`` into ``(root, file)`` pairs, sorted per root.

    Raises ``FileNotFoundError`` for a path that does not exist --
    a silent empty scan would read as a clean bill of health.
    """
    pairs: List[Tuple[Path, Path]] = []
    for raw in paths:
        path = Path(raw).resolve()
        if path.is_file():
            pairs.append((path.parent, path))
        elif path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if "__pycache__" in file.parts:
                    continue
                pairs.append((path, file))
        else:
            raise FileNotFoundError(f"lint path does not exist: {raw}")
    return pairs


def _display_path(file_path: Path, base: Optional[Path] = None) -> str:
    for candidate in filter(None, (base, Path.cwd())):
        try:
            return file_path.relative_to(candidate).as_posix()
        except ValueError:
            continue
    return file_path.as_posix()


def run_lint(
    paths: Sequence[PathLike],
    display_root: Optional[PathLike] = None,
) -> LintReport:
    """Lint ``paths`` with every rule and return the full report.

    Args:
        paths: files and/or directories (directories recurse ``*.py``).
        display_root: base that finding paths are reported relative to
            (default: the cwd).  The CLI pins this to the repo root so
            its output does not depend on where it is invoked from.

    Raises:
        FileNotFoundError: a given path does not exist.
    """
    selected = all_rules()
    base = Path(display_root).resolve() if display_root is not None else None
    modules: List[ModuleSource] = []
    findings: List[Finding] = []
    files = 0
    for root, file_path in _collect_files(paths):
        display = _display_path(file_path, base)
        files += 1
        try:
            modules.append(load_module(file_path, root, display))
        except SyntaxError as exc:
            findings.append(Finding(
                rule=META_CODE,
                path=display,
                line=exc.lineno or 1,
                column=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
            ))
        except OSError as exc:
            findings.append(Finding(
                rule=META_CODE, path=display, line=1, column=0,
                message=f"file is unreadable: {exc}",
            ))

    for rule in selected:
        if rule.code == META_CODE:
            continue
        in_scope = [m for m in modules if rule.applies_to(m)]
        for module in in_scope:
            findings.extend(rule.check_module(module))
        findings.extend(rule.check_project(in_scope))

    findings.extend(_apply_suppressions(modules, findings))
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))

    return LintReport(
        root=str(base if base is not None else Path.cwd()),
        files=files,
        rules=[rule.code for rule in selected],
        findings=findings,
    )


def _apply_suppressions(
    modules: Sequence[ModuleSource], findings: List[Finding]
) -> List[Finding]:
    """Mark suppressed findings in place; return the RL000 findings."""
    meta: List[Finding] = []
    by_module = {module.display: module for module in modules}
    known_codes = {rule.code for rule in all_rules()}

    for finding in findings:
        module = by_module.get(finding.path)
        if module is None:
            continue
        for suppression in module.suppressions:
            if suppression.code != finding.rule:
                continue
            if suppression.target_line != finding.line:
                continue
            suppression.used = True
            if suppression.reason:
                finding.status = "suppressed"
                finding.reason = suppression.reason
            # A reasonless match is recorded as used (so it is not
            # *also* reported as unused) but stays inert: the finding
            # remains "new" and RL000 below explains why.

    for module in modules:
        for line, message in module.pragma_problems:
            meta.append(module.finding(META_CODE, line, message))
        for suppression in module.suppressions:
            if suppression.code not in known_codes:
                meta.append(module.finding(
                    META_CODE, suppression.comment_line,
                    f"suppression names unknown rule "
                    f"{suppression.code}",
                ))
            elif not suppression.reason:
                meta.append(module.finding(
                    META_CODE, suppression.comment_line,
                    f"suppression of {suppression.code} gives no reason "
                    f"-- write disable={suppression.code}(why)",
                ))
            elif not suppression.used:
                meta.append(module.finding(
                    META_CODE, suppression.comment_line,
                    f"unused suppression of {suppression.code}: no such "
                    f"finding on line {suppression.target_line}",
                ))
    return meta


# ----------------------------------------------------------------------
# report formatting
# ----------------------------------------------------------------------
def format_text(report: LintReport, show_suppressed: bool = False) -> str:
    out: List[str] = []
    shown = list(report.new)
    if show_suppressed:
        shown.extend(report.suppressed)
    shown.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    for finding in shown:
        tag = "" if finding.status == "new" else f" [{finding.status}]"
        out.append(
            f"{finding.location()}: {finding.rule}{tag}: {finding.message}"
        )
        if finding.snippet:
            out.append(f"    {finding.snippet}")
        if finding.reason:
            out.append(f"    reason: {finding.reason}")
    out.append(report.summary())
    return "\n".join(out)
