#!/usr/bin/env python
"""CI entry for reprolint: self-lint the repo.

Runs ``repro lint src/repro`` from the repository root, so the job
fails exactly when the tree holds a finding that is not suppressed
inline with a reason.  Works without an installed package -- the
repo's ``src/`` is prepended to ``sys.path`` -- and without the runtime
dependencies: the lint package is stdlib-only, so it is loaded through
parent-package stubs that skip ``repro/__init__`` (which would import
numpy/scipy/networkx, absent on the bare reprolint CI runner).

Run with::

    python tools/run_lint.py [extra repro-lint flags ...]

Exit status: 0 clean, 1 new findings, 2 usage/internal error -- the
same semantics as ``repro lint`` (see docs/static-analysis.md).
"""

from __future__ import annotations

import importlib
import os
import sys
import types
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _import_lint():
    """Import ``repro.devtools.lint`` without running ``repro/__init__``.

    The lint package is pure stdlib, but a plain import would first
    execute ``repro/__init__.py`` and transitively pull in numpy, scipy
    and networkx.  Pre-registering lightweight parent-package stubs (a
    bare module with only ``__path__``) lets the import system resolve
    the submodule without executing the heavyweight initialisers, so
    this entry works on a runner with no installed dependencies.  When
    ``repro`` is already imported (e.g. under pytest) the real modules
    are left untouched.
    """
    src = REPO / "src"
    for name, path in (
        ("repro", src / "repro"),
        ("repro.devtools", src / "repro" / "devtools"),
    ):
        if name not in sys.modules:
            stub = types.ModuleType(name)
            stub.__path__ = [str(path)]
            sys.modules[name] = stub
    importlib.import_module("repro.devtools.lint")
    return sys.modules["repro.devtools.lint"]


def main(argv=None) -> int:
    sys.path.insert(0, str(REPO / "src"))
    os.chdir(REPO)  # finding paths are repo-root relative
    # No explicit path means the lint CLI's default: src/repro.
    return _import_lint().main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
