"""Developer tooling that ships with the library.

:mod:`repro.devtools.lint` is **reprolint**, the AST-based invariant
checker behind ``repro lint`` and the CI ``reprolint`` job.  It encodes
the repo's correctness contracts -- byte-identity parity of canonical
results and thread/async safety of the service tier -- as static rules
(RL001..RL005) so that the *class* of bug is caught at diff time, not
only when a workload happens to trip the dynamic parity sweep.

:mod:`repro.devtools.passaudit` builds an intraproject call graph on
top of that framework and the interprocedural order taint behind
RL001.  The solver passes' ``reads``/``writes`` contracts are checked
dynamically, by ``tests/test_pass_contracts.py``.

See ``docs/static-analysis.md`` for the rule catalogue and the
suppression workflow.
"""

from . import lint

__all__ = ["lint"]
