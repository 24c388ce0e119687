"""Command-line front-end for reprolint (``repro lint``).

Also invoked by ``tools/run_lint.py`` (the CI entry) and importable as
``python -m repro.devtools.lint``.  Argument handling lives here so
:mod:`repro.cli` only registers a subparser and delegates.

Exit codes: ``0`` no new findings, ``1`` new findings, ``2`` usage or
input error (bad path, unknown rule for ``--explain``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .framework import LintReport, all_rules, format_text, get_rule, run_lint

__all__ = ["add_lint_arguments", "main", "run_from_args"]

DEFAULT_PATHS = [Path("src") / "repro"]


def _repo_root() -> Path:
    """Root that the repo-relative defaults resolve against.

    The default path (``src/repro``) and the reported finding paths are
    repo-root relative, so the command lints the same tree and prints
    the same paths from any subdirectory of the checkout.  Walk up from
    the cwd for a ``pyproject.toml`` sitting beside ``src/repro`` (any
    invocation from inside the checkout), fall back to the checkout
    holding this file, and finally to the cwd itself (installed package
    outside any checkout).
    """
    for base in (Path.cwd(), *Path.cwd().parents):
        if (
            (base / "pyproject.toml").is_file()
            and (base / "src" / "repro").is_dir()
        ):
            return base
    here = Path(__file__).resolve()
    # <root>/src/repro/devtools/lint/cli.py in a source checkout.
    if len(here.parents) > 4 and here.parents[3].name == "src":
        root = here.parents[4]
        if (root / "pyproject.toml").is_file():
            return root
    return Path.cwd()


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the ``lint`` flags on ``parser`` (shared between the
    ``repro lint`` subcommand and the standalone entry point)."""
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: src/repro under the "
             "repo root, wherever the command is invoked from)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="report format (default text; json emits the full "
             "reprolint-report payload; github emits ::error workflow "
             "annotations for new findings)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every rule with the contract it protects and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="CODE",
        help="print one rule's full documentation and exit",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="include suppressed findings (and their reasons) in text output",
    )


def _cmd_list_rules() -> int:
    rows = []
    for rule in all_rules():
        scope = "/".join(rule.scope) if rule.scope else "all modules"
        rows.append((rule.code, rule.name, scope, rule.contract))
    width_name = max(len(r[1]) for r in rows)
    width_scope = max(len(r[2]) for r in rows)
    for code, name, scope, contract in rows:
        print(f"{code}  {name:<{width_name}}  {scope:<{width_scope}}  "
              f"{contract}")
    print("\nrepro lint --explain CODE prints a rule's full documentation.")
    return 0


def _cmd_explain(code: str) -> int:
    rule = get_rule(code.strip().upper())
    if rule is None:
        known = ", ".join(r.code for r in all_rules())
        print(f"unknown rule {code!r}; known: {known}", file=sys.stderr)
        return 2
    doc = (type(rule).__doc__ or "").strip()
    print(f"{rule.code} ({rule.name})")
    print(f"contract: {rule.contract}")
    scope = "/".join(rule.scope) if rule.scope else "all scanned modules"
    print(f"scope: {scope}\n")
    print(doc)
    return 0


def _gh_escape_data(value: str) -> str:
    """Escape a workflow-command message (GitHub Actions syntax)."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _gh_escape_prop(value: str) -> str:
    """Escape a workflow-command property value."""
    return (
        _gh_escape_data(value).replace(":", "%3A").replace(",", "%2C")
    )


def format_github(report: LintReport) -> str:
    """GitHub Actions ``::error`` annotations for the new findings.

    One workflow command per new finding -- the Actions runner turns
    them into inline PR annotations -- followed by the usual summary
    line (plain text is passed through to the job log untouched).
    """
    out: List[str] = []
    for finding in report.new:
        out.append(
            f"::error file={_gh_escape_prop(finding.path)},"
            f"line={finding.line},col={finding.column + 1},"
            f"title={_gh_escape_prop('reprolint ' + finding.rule)}"
            f"::{_gh_escape_data(finding.message)}"
        )
    out.append(report.summary())
    return "\n".join(out)


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed ``lint`` invocation; returns the exit code."""
    if args.list_rules:
        return _cmd_list_rules()
    if args.explain:
        return _cmd_explain(args.explain)

    root = _repo_root()
    paths: List[Path] = (
        [Path(p) for p in args.paths]
        or [root / p for p in DEFAULT_PATHS]
    )
    try:
        report: LintReport = run_lint(paths, display_root=root)
    except FileNotFoundError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "github":
        print(format_github(report))
    else:
        print(format_text(report, show_suppressed=args.show_suppressed))
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="reprolint: AST-based checker for the repo's parity "
                    "and concurrency contracts (docs/static-analysis.md)",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
