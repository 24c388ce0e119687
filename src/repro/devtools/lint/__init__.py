"""reprolint: the repo's AST-based invariant checker.

Public surface:

* :func:`run_lint` / :class:`LintReport` -- programmatic runs;
* :class:`LintRule` / :func:`register_rule` -- write project rules;
* :class:`Finding`, :func:`format_text`;
* :func:`main` -- the CLI (``repro lint`` / ``python -m
  repro.devtools.lint`` / ``tools/run_lint.py``).

Rule catalogue and workflow: ``docs/static-analysis.md`` or
``repro lint --list-rules`` / ``--explain CODE``.
"""

from .cli import add_lint_arguments, main, run_from_args
from .framework import (
    Finding,
    LintReport,
    LintRule,
    all_rules,
    format_text,
    get_rule,
    register_rule,
    run_lint,
)
from . import rules  # noqa: F401  (registers RL001..RL005 on import)

__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "add_lint_arguments",
    "all_rules",
    "format_text",
    "get_rule",
    "main",
    "register_rule",
    "run_from_args",
    "run_lint",
]
