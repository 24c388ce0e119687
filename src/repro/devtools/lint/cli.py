"""Command-line front-end for reprolint (``repro lint``).

Also invoked by ``tools/run_lint.py`` (the CI entry) and importable as
``python -m repro.devtools.lint``.  Argument handling lives here so
:mod:`repro.cli` only registers a subparser and delegates.

Exit codes: ``0`` no new findings, ``1`` new findings, ``2`` usage or
input error (bad path, unknown rule, malformed baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .framework import (
    BASELINE_KIND,
    LintReport,
    all_rules,
    format_text,
    get_rule,
    load_baseline,
    run_lint,
    save_baseline,
)

__all__ = ["add_lint_arguments", "main", "run_from_args"]

DEFAULT_BASELINE = Path("tools") / "reprolint-baseline.json"
DEFAULT_PATHS = [Path("src") / "repro"]


def _repo_root() -> Path:
    """Root that the repo-relative defaults resolve against.

    ``repro lint`` defaults (``src/repro``, the checked baseline) and
    finding paths are repo-root relative; anchoring them at the cwd
    would silently skip the baseline when invoked from a subdirectory
    and scatter ``tools/`` directories on ``--write-baseline``.  Walk
    up from the cwd for a ``pyproject.toml`` sitting beside
    ``src/repro`` (any invocation from inside the checkout), fall back
    to the checkout holding this file, and finally to the cwd itself
    (installed package outside any checkout).
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
        "--rules", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all; "
             "RL000 suppression hygiene always runs)",
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
        "--baseline", default=None, metavar="FILE",
        help=f"baseline of grandfathered findings (default "
             f"{DEFAULT_BASELINE} under the repo root, when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0 "
             "(grandfathers them; new findings after that fail)",
    )
    parser.add_argument(
        "--show-baselined", action="store_true",
        help="include baselined findings in text output",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="include suppressed findings (and their reasons) in text output",
    )
    parser.add_argument(
        "--fail-stale", action="store_true",
        help="exit 1 when the baseline holds entries no finding matches "
             "any more (CI keeps the baseline minimal)",
    )
    parser.add_argument(
        "--prune-baseline", action="store_true",
        help="rewrite the baseline file without its stale entries and "
             "exit 0",
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
    out.append(
        f"reprolint: {report.files} files, {len(report.rules)} rules -- "
        f"{len(report.new)} new, {len(report.baselined)} baselined, "
        f"{len(report.suppressed)} suppressed"
    )
    return "\n".join(out)


def _cmd_prune_baseline(
    baseline_path: Path,
    baseline: "dict[str, dict[str, object]]",
    report: LintReport,
) -> int:
    present = {f.fingerprint for f in report.findings}
    kept = {fp: entry for fp, entry in baseline.items() if fp in present}
    dropped = len(baseline) - len(kept)
    payload = {"kind": BASELINE_KIND, "version": 1, "entries": kept}
    baseline_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"lint: pruned {dropped} stale baseline entr"
          f"{'y' if dropped == 1 else 'ies'} ({len(kept)} remain)")
    return 0


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
    rule_codes = (
        [code.strip().upper() for code in args.rules.split(",") if code.strip()]
        if args.rules
        else None
    )

    baseline_path: Optional[Path] = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
        elif (root / DEFAULT_BASELINE).exists() or args.write_baseline:
            baseline_path = root / DEFAULT_BASELINE

    baseline = None
    if baseline_path is not None and baseline_path.exists():
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"lint: bad baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2

    try:
        report: LintReport = run_lint(
            paths, rule_codes, baseline, display_root=root
        )
    except FileNotFoundError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        if baseline_path is None:
            print("lint: --write-baseline conflicts with --no-baseline",
                  file=sys.stderr)
            return 2
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        count = save_baseline(baseline_path, report.findings)
        print(f"lint: wrote {count} grandfathered findings to "
              f"{baseline_path}")
        return 0

    if args.prune_baseline:
        if baseline_path is None or baseline is None:
            print("lint: --prune-baseline needs an existing baseline file",
                  file=sys.stderr)
            return 2
        return _cmd_prune_baseline(baseline_path, baseline, report)

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "github":
        print(format_github(report))
    else:
        print(format_text(
            report,
            show_baselined=args.show_baselined,
            show_suppressed=args.show_suppressed,
        ))

    exit_code = report.exit_code
    if args.fail_stale and report.stale_baseline:
        stale = report.stale_baseline
        for fingerprint in stale:
            print(f"stale baseline entry: {fingerprint}", file=sys.stderr)
        print(f"lint: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} -- drop with "
              f"'repro lint --prune-baseline'", file=sys.stderr)
        exit_code = max(exit_code, 1)
    return exit_code


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
