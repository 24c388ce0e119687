#!/usr/bin/env python
"""CI entry for reprolint: self-lint the repo.

Runs ``repro lint src/repro`` from the repository root, so the job
fails exactly when the tree holds a finding that is not suppressed
inline with a reason.  Works without an installed package -- the
repo's ``src/`` is prepended to ``sys.path`` -- and without any
third-party package: ``import repro`` needs only the standard library.

Run with::

    python tools/run_lint.py [extra repro-lint flags ...]

Exit status: 0 clean, 1 new findings, 2 usage/internal error -- the
same semantics as ``repro lint`` (see docs/static-analysis.md).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path.insert(0, str(REPO / "src"))
    os.chdir(REPO)  # finding paths are repo-root relative
    from repro.devtools.lint import main as lint_main

    # No explicit path means the lint CLI's default: src/repro.
    return lint_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
