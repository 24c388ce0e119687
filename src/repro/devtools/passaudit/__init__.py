"""passaudit: the interprocedural leg of reprolint's RL001.

Built on the reprolint framework (:mod:`repro.devtools.lint`):

* :mod:`.callgraph` -- a bounded intraproject call graph over the
  scanned modules, with import resolution and per-class method
  indexing;
* :mod:`.ordertaint` -- iteration-order taint summaries (does a
  helper's *return value* expose set/hash order?) that make RL001
  interprocedural.

The solver passes' ``reads``/``writes`` contracts are not checked
here: ``tests/test_pass_contracts.py`` records what each pass touches
while it runs and compares that with the declarations.

Everything here is stdlib-only (``ast``) so it runs through
``tools/run_lint.py`` on a bare interpreter.
"""

from __future__ import annotations

from .callgraph import CallGraph, ClassInfo, FunctionInfo, module_name
from .ordertaint import OrderTaint, TaintConfig

__all__ = [
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "OrderTaint",
    "TaintConfig",
    "module_name",
]
