"""reprolint: rule fixtures, suppressions, CLI, self-lint.

Every RL rule gets one fixture module that must trip it and one clean
near-miss that must not.  Fixtures are written under scope-mimicking
subdirectories (``<tmp>/core/...``, ``<tmp>/service/...``) because rule
scoping keys on the package-relative path.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main as repro_main
from repro.devtools.lint import run_lint
from repro.devtools.lint.framework import _parse_suppressions

REPO = Path(__file__).resolve().parent.parent


def lint_file(tmp_path: Path, relpath: str, source: str):
    """Write one fixture module and lint the tmp tree."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return run_lint([tmp_path])


def codes(report):
    return sorted(f.rule for f in report.new)


# ----------------------------------------------------------------------
# RL001 determinism: unordered iteration
# ----------------------------------------------------------------------
class TestRL001:
    def test_for_over_set_trips(self, tmp_path):
        report = lint_file(tmp_path, "core/bad.py", (
            "def emit():\n"
            "    seen = {3, 1, 2}\n"
            "    out = []\n"
            "    for v in seen:\n"
            "        out.append(v)\n"
            "    return out\n"
        ))
        assert codes(report) == ["RL001"]
        assert report.new[0].line == 4

    def test_list_conversion_and_pop_trip(self, tmp_path):
        report = lint_file(tmp_path, "ir/bad.py", (
            "def emit(names):\n"
            "    live = set(names)\n"
            "    order = list(live)\n"
            "    first = live.pop()\n"
            "    return order, first\n"
        ))
        assert codes(report) == ["RL001", "RL001"]

    def test_comprehension_and_unpacking_trip(self, tmp_path):
        report = lint_file(tmp_path, "io/bad.py", (
            "def emit(a, b):\n"
            "    joined = a | {b}\n"
            "    rows = [x for x in joined]\n"
            "    return [*joined], rows\n"
        ))
        # set-operator result consumed by a comprehension and *-unpacking
        assert codes(report) == ["RL001", "RL001"]

    def test_self_attribute_sets_trip(self, tmp_path):
        report = lint_file(tmp_path, "core/attr.py", (
            "class Tracker:\n"
            "    def __init__(self):\n"
            "        self.dirty = set()\n"
            "    def flushed(self):\n"
            "        return tuple(self.dirty)\n"
        ))
        assert codes(report) == ["RL001"]

    def test_sorted_and_order_free_consumers_clean(self, tmp_path):
        report = lint_file(tmp_path, "core/ok.py", (
            "def emit():\n"
            "    seen = {3, 1, 2}\n"
            "    mapping = {'b': 2, 'a': 1}\n"
            "    out = [v for v in sorted(seen)]\n"
            "    for key in mapping:\n"  # dicts are insertion-ordered
            "        out.append(key)\n"
            "    ready = sorted((v for v in seen if v > 1), key=lambda v: -v)\n"
            "    return out, ready, len(seen), max(seen), 2 in seen\n"
        ))
        assert report.new == []

    def test_out_of_scope_module_clean(self, tmp_path):
        # Same pattern outside core/ir/baselines/io: not this rule's beat.
        report = lint_file(tmp_path, "engine/elsewhere.py", (
            "def emit():\n"
            "    seen = {3, 1, 2}\n"
            "    return list(seen)\n"
        ))
        assert report.new == []


# ----------------------------------------------------------------------
# RL001 interprocedural: order taint through helper returns
# ----------------------------------------------------------------------
class TestRL001Interprocedural:
    def test_helper_returning_list_of_set_param_trips_caller(
        self, tmp_path
    ):
        report = lint_file(tmp_path, "core/trip.py", (
            "def order(pool):\n"
            "    return list(pool)\n"
            "\n"
            "def emit(names):\n"
            "    group = set(names)\n"
            "    out = []\n"
            "    for v in order(group):\n"
            "        out.append(v)\n"
            "    return out\n"
        ))
        assert codes(report) == ["RL001"]
        # Flagged at the consuming loop in the caller, not in the
        # helper (whose parameter is only dangerous for set arguments).
        assert report.new[0].line == 7

    def test_sorting_helper_launders_the_taint(self, tmp_path):
        report = lint_file(tmp_path, "core/clean.py", (
            "def order(pool):\n"
            "    return sorted(pool)\n"
            "\n"
            "def emit(names):\n"
            "    group = set(names)\n"
            "    out = []\n"
            "    for v in order(group):\n"
            "        out.append(v)\n"
            "    return out\n"
        ))
        assert report.new == []

    def test_taint_crosses_module_boundaries(self, tmp_path):
        for rel, source in {
            "core/helpers.py": (
                "def scan(names):\n"
                "    return set(names)\n"
            ),
            "core/consume.py": (
                "from .helpers import scan\n"
                "\n"
                "def emit(names):\n"
                "    out = []\n"
                "    for v in scan(names):\n"
                "        out.append(v)\n"
                "    return out\n"
            ),
        }.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        report = run_lint([tmp_path])
        assert codes(report) == ["RL001"]
        assert report.new[0].path.endswith("consume.py")
        assert report.new[0].line == 5

    def test_min_with_tying_key_over_set_trips(self, tmp_path):
        # FDS picking its next op by mobility alone: of tied windows,
        # min() returns the first in hash order.
        report = lint_file(tmp_path, "baselines/fds_pick.py", (
            "def pick(graph, window):\n"
            "    pending = set(graph.names)\n"
            "    name = min(pending, key=lambda n: window[n][1] - window[n][0])\n"
            "    last = max((n for n in pending), key=len)\n"
            "    return name, last\n"
        ))
        assert codes(report) == ["RL001", "RL001"]
        assert [f.line for f in report.new] == [3, 4]
        assert "tied keys" in report.new[0].message

    def test_min_with_name_tie_break_is_clean(self, tmp_path):
        report = lint_file(tmp_path, "baselines/fds_ok.py", (
            "def pick(graph, window):\n"
            "    pending = set(graph.names)\n"
            "    name = min(pending, key=lambda n: (window[n][1] - window[n][0], n))\n"
            "    first = min(pending)\n"
            "    last = max(sorted(pending), key=len)\n"
            "    return name, first, last\n"
        ))
        assert report.new == []

    def test_caller_side_sort_of_helper_result_is_clean(self, tmp_path):
        for rel, source in {
            "core/helpers.py": (
                "def scan(names):\n"
                "    return set(names)\n"
            ),
            "core/consume.py": (
                "from .helpers import scan\n"
                "\n"
                "def emit(names):\n"
                "    out = []\n"
                "    for v in sorted(scan(names)):\n"
                "        out.append(v)\n"
                "    return out\n"
            ),
        }.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        report = run_lint([tmp_path])
        assert report.new == []


# ----------------------------------------------------------------------
# RL002 determinism: nondeterministic inputs
# ----------------------------------------------------------------------
class TestRL002:
    def test_clock_random_and_id_trip(self, tmp_path):
        report = lint_file(tmp_path, "core/bad.py", (
            "import random\n"
            "import time\n"
            "def stamp(obj):\n"
            "    noise = random.random()\n"
            "    key = id(obj)\n"
            "    return time.time(), noise, key\n"
        ))
        assert codes(report) == ["RL002", "RL002", "RL002"]

    def test_seeded_rng_clean(self, tmp_path):
        report = lint_file(tmp_path, "baselines/ok.py", (
            "import random\n"
            "def jitter(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng\n"
        ))
        assert report.new == []

    def test_unseeded_rng_construction_trips(self, tmp_path):
        report = lint_file(tmp_path, "baselines/bad.py", (
            "import random\n"
            "def jitter():\n"
            "    return random.Random()\n"
        ))
        assert codes(report) == ["RL002"]

    def test_engine_scope_exempt(self, tmp_path):
        # Timing envelopes in the engine layer are deliberately out of
        # scope -- they are stripped from canonical comparisons.
        report = lint_file(tmp_path, "engine/ok.py", (
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        ))
        assert report.new == []


# ----------------------------------------------------------------------
# RL003 lock discipline
# ----------------------------------------------------------------------
LOCKED_BAD = """\
import threading

class Cache:
    def __init__(self):
        self._lock = threading.RLock()
        self.hits = 0

    def read(self, key):
        self.hits += 1
        return key

    def write(self, key):
        with self._lock:
            self.hits += 1
"""

LOCKED_OK = """\
import threading

class Cache:
    def __init__(self):
        self._lock = threading.RLock()
        self.directory = "/tmp"
        self.hits = 0

    def read(self, key):
        with self._lock:
            self.hits += 1
            return self._probe(key)

    def entry_path(self, key):
        return self.directory + key  # init-only config: unguarded

    def _probe(self, key):
        self.hits += 1  # private helper: caller holds the lock
        return key
"""


class TestRL003:
    def test_unlocked_public_mutation_trips(self, tmp_path):
        report = lint_file(tmp_path, "anywhere/bad.py", LOCKED_BAD)
        assert codes(report) == ["RL003"]
        finding = report.new[0]
        assert "read()" in finding.message
        assert "self.hits" in finding.message

    def test_locked_and_private_accesses_clean(self, tmp_path):
        report = lint_file(tmp_path, "anywhere/ok.py", LOCKED_OK)
        assert report.new == []

    def test_foreign_lock_does_not_count(self, tmp_path):
        # Holding some *other* object's _lock is not lock discipline:
        # the guarded attributes are still racy under self._lock.
        report = lint_file(tmp_path, "anywhere/foreign.py", (
            "import threading\n"
            "class Cache:\n"
            "    def __init__(self, other):\n"
            "        self._lock = threading.RLock()\n"
            "        self.other = other\n"
            "        self.hits = 0\n"
            "    def read(self, key):\n"
            "        with self.other._lock:\n"
            "            self.hits += 1\n"
            "        return key\n"
        ))
        assert codes(report) == ["RL003"]
        assert "self.hits" in report.new[0].message

    def test_class_without_lock_exempt(self, tmp_path):
        report = lint_file(tmp_path, "anywhere/nolock.py", (
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self.hits = 0\n"
            "    def read(self):\n"
            "        self.hits += 1\n"
        ))
        assert report.new == []


# ----------------------------------------------------------------------
# RL004 async hygiene
# ----------------------------------------------------------------------
class TestRL004:
    def test_blocking_calls_in_async_trip(self, tmp_path):
        report = lint_file(tmp_path, "service/bad.py", (
            "import time\n"
            "async def handle(engine, request):\n"
            "    time.sleep(0.1)\n"
            "    data = open('f').read()\n"
            "    return engine.run(request), data\n"
        ))
        assert codes(report) == ["RL004", "RL004", "RL004"]

    def test_awaited_and_offloaded_clean(self, tmp_path):
        report = lint_file(tmp_path, "service/ok.py", (
            "import asyncio\n"
            "import time\n"
            "async def handle(async_engine, request):\n"
            "    await asyncio.sleep(0)\n"
            "    result = await async_engine.run(request)\n"
            "    def blocking():\n"  # executor target: own sync scope
            "        time.sleep(0.1)\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, blocking)\n"
            "    return result\n"
        ))
        assert report.new == []

    def test_sync_delta_and_stats_calls_trip(self, tmp_path):
        report = lint_file(tmp_path, "service/engine_calls.py", (
            "class AsyncEngine:\n"
            "    async def run_delta(self, request):\n"
            "        return self.engine.run_delta(request)\n"
            "class AllocationServer:\n"
            "    async def _handle_stats(self):\n"
            "        return self.async_engine.stats()\n"
        ))
        assert codes(report) == ["RL004", "RL004"]
        assert [f.line for f in report.new] == [3, 6]

    def test_offloaded_delta_and_stats_clean(self, tmp_path):
        report = lint_file(tmp_path, "service/engine_ok.py", (
            "import asyncio\n"
            "class AllocationServer:\n"
            "    async def _handle_delta(self, request):\n"
            "        return await self.async_engine.run_delta(request)\n"
            "    async def _handle_stats(self):\n"
            "        loop = asyncio.get_running_loop()\n"
            "        return await loop.run_in_executor(\n"
            "            None, self.async_engine.stats\n"
            "        )\n"
        ))
        assert report.new == []

    def test_sync_function_in_service_clean(self, tmp_path):
        report = lint_file(tmp_path, "service/sync.py", (
            "import time\n"
            "def warm_up():\n"
            "    time.sleep(0.1)\n"
        ))
        assert report.new == []

    def test_outside_service_scope_clean(self, tmp_path):
        report = lint_file(tmp_path, "engine/loopless.py", (
            "import time\n"
            "async def tick():\n"
            "    time.sleep(1)\n"
        ))
        assert report.new == []


# ----------------------------------------------------------------------
# RL005 registry hygiene
# ----------------------------------------------------------------------
class TestRL005:
    def test_dynamic_name_trips(self, tmp_path):
        report = lint_file(tmp_path, "plugins/dyn.py", (
            "from repro.engine import register_allocator\n"
            "NAME = 'clever'\n"
            "@register_allocator(NAME)\n"
            "def strategy(problem):\n"
            "    return problem\n"
        ))
        assert codes(report) == ["RL005"]
        assert "string literal" in report.new[0].message

    def test_wrong_return_annotation_trips(self, tmp_path):
        report = lint_file(tmp_path, "plugins/anno.py", (
            "from repro.engine import register_allocator\n"
            "@register_allocator('anno')\n"
            "def strategy(problem) -> str:\n"
            "    return 'nope'\n"
        ))
        assert codes(report) == ["RL005"]

    def test_never_returns_trips(self, tmp_path):
        report = lint_file(tmp_path, "plugins/void.py", (
            "from repro.engine import register_allocator\n"
            "@register_allocator('void')\n"
            "def strategy(problem):\n"
            "    problem.solve()\n"
        ))
        assert codes(report) == ["RL005"]
        assert "never returns" in report.new[0].message

    def test_conforming_registration_clean(self, tmp_path):
        report = lint_file(tmp_path, "plugins/ok.py", (
            "from repro.core.solution import Datapath\n"
            "from repro.engine import register_allocator\n"
            "@register_allocator('fine')\n"
            "def strategy(problem) -> Datapath:\n"
            "    return problem.solve()\n"
        ))
        assert report.new == []


# ----------------------------------------------------------------------
# suppressions (RL000)
# ----------------------------------------------------------------------
SUPPRESSIBLE = (
    "import time\n"
    "def stamp():\n"
    "    return time.time(){pragma}\n"
)


class TestSuppressions:
    def test_reasoned_suppression_silences(self, tmp_path):
        report = lint_file(tmp_path, "core/s.py", SUPPRESSIBLE.format(
            pragma="  # reprolint: disable=RL002(documented telemetry)"
        ))
        assert report.new == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].reason == "documented telemetry"
        assert report.exit_code == 0

    def test_standalone_comment_suppresses_next_line(self, tmp_path):
        report = lint_file(tmp_path, "core/s2.py", (
            "import time\n"
            "def stamp():\n"
            "    # reprolint: disable=RL002(documented telemetry)\n"
            "    return time.time()\n"
        ))
        assert report.new == []
        assert len(report.suppressed) == 1

    def test_reasonless_suppression_is_inert_and_flagged(self, tmp_path):
        report = lint_file(tmp_path, "core/s3.py", SUPPRESSIBLE.format(
            pragma="  # reprolint: disable=RL002"
        ))
        # The RL002 finding still fires, plus RL000 for the bad pragma.
        assert codes(report) == ["RL000", "RL002"]

    def test_unused_suppression_flagged(self, tmp_path):
        report = lint_file(tmp_path, "core/s4.py", (
            "def clean():\n"
            "    return 1  # reprolint: disable=RL002(nothing here)\n"
        ))
        assert codes(report) == ["RL000"]
        assert "unused suppression" in report.new[0].message

    def test_unknown_code_suppression_flagged(self, tmp_path):
        report = lint_file(tmp_path, "core/s5.py", (
            "def clean():\n"
            "    return 1  # reprolint: disable=RL777(who knows)\n"
        ))
        assert codes(report) == ["RL000"]
        assert "unknown rule" in report.new[0].message

    def test_parse_suppressions_multiple_codes(self):
        text = "x = 1  # reprolint: disable=RL001(a),RL002(b)\n"
        suppressions, problems = _parse_suppressions(
            text, text.splitlines()
        )
        assert problems == []
        assert [(s.code, s.reason) for s in suppressions] == [
            ("RL001", "a"), ("RL002", "b"),
        ]


# ----------------------------------------------------------------------
# CLI integration (via the repro entry point)
# ----------------------------------------------------------------------
class TestCli:
    BAD = (
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
    )

    def test_lint_subcommand_clean_tree(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("VALUE = 1\n")
        code = repro_main(["lint", str(tmp_path)])
        assert code == 0
        assert "0 new" in capsys.readouterr().out

    def test_lint_subcommand_json_output(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "bad.py").write_text(self.BAD)
        code = repro_main(["lint", str(tmp_path), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "reprolint-report"
        assert payload["counts"]["new"] == 1
        assert payload["findings"][0]["rule"] == "RL002"

    def test_missing_path_usage_error(self, tmp_path, capsys):
        code = repro_main(["lint", str(tmp_path / "nope")])
        assert code == 2

    def test_explain_and_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        listed = capsys.readouterr().out
        for code in (
            "RL000", "RL001", "RL002", "RL003", "RL004", "RL005",
        ):
            assert code in listed
        assert repro_main(["lint", "--explain", "RL003"]) == 0
        assert "self._lock" in capsys.readouterr().out
        assert repro_main(["lint", "--explain", "RL999"]) == 2

    def test_github_format_emits_error_annotations(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "bad.py").write_text(self.BAD)
        assert repro_main([
            "lint", str(tmp_path), "--format", "github",
        ]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "line=3" in out
        assert "title=reprolint RL002" in out
        assert "-- 1 new," in out

    def test_syntax_error_is_a_finding(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        code = repro_main(["lint", str(tmp_path)])
        assert code == 1
        assert "does not parse" in capsys.readouterr().out

    def test_defaults_resolve_from_subdirectory(self, capsys, monkeypatch):
        # Invoked from a subdirectory, the default must still find the
        # repo-root src/repro, and finding paths must stay
        # root-relative.
        monkeypatch.chdir(REPO / "docs")
        assert repro_main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["root"] == str(REPO)
        for finding in payload["findings"]:
            assert finding["path"].startswith("src/repro/"), finding


# ----------------------------------------------------------------------
# the acceptance criterion: the tree itself lints clean
# ----------------------------------------------------------------------
class TestSelfLint:
    def test_src_repro_is_clean(self):
        report = run_lint([REPO / "src" / "repro"])
        assert report.new == [], "\n".join(
            f"{f.location()}: {f.rule}: {f.message}" for f in report.new
        )

    def test_suppressions_in_tree_are_reasoned(self):
        report = run_lint([REPO / "src" / "repro"])
        for finding in report.suppressed:
            assert finding.reason, finding.location()

    def test_ci_entry_runs_clean(self, capsys, monkeypatch):
        import os

        import tools.run_lint as run_lint_tool

        # The entry chdirs to the repo root; keep the test session's cwd.
        cwd = os.getcwd()
        try:
            assert run_lint_tool.main([]) == 0
        finally:
            os.chdir(cwd)

    def test_ci_entry_fails_on_an_unsuppressed_finding(
        self, tmp_path, capsys, monkeypatch
    ):
        import tools.run_lint as run_lint_tool

        # Nothing is grandfathered: a finding fails the gate until its
        # line carries a suppression with a reason.  The entry chdirs
        # to the repo root; monkeypatch restores the cwd.
        monkeypatch.chdir(REPO)
        target = tmp_path / "core" / "x.py"
        target.parent.mkdir()
        target.write_text(TestCli.BAD)
        assert run_lint_tool.main([str(tmp_path)]) == 1
        assert "RL002" in capsys.readouterr().out
        target.write_text(TestCli.BAD.replace(
            "time.time()",
            "time.time()  # reprolint: disable=RL002(telemetry, never canonical)",
        ))
        assert run_lint_tool.main([str(tmp_path)]) == 0
        assert "0 new, 1 suppressed" in capsys.readouterr().out

    def test_ci_entry_needs_no_third_party_deps(self):
        # The CI reprolint job runs on a bare interpreter, and the
        # entry imports repro.  Reproduce that runner by blocking the
        # third-party packages the repo uses elsewhere.
        import subprocess
        import sys

        blocker = (
            "import sys\n"
            "class _Block:\n"
            "    _names = {'numpy', 'scipy', 'networkx'}\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] in self._names:\n"
            "            raise ImportError('blocked for test: ' + name)\n"
            "        return None\n"
            "sys.meta_path.insert(0, _Block())\n"
            "import runpy\n"
            "sys.argv = ['run_lint.py']\n"
            "runpy.run_path('tools/run_lint.py', run_name='__main__')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", blocker],
            cwd=REPO, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, (result.stdout, result.stderr)

    def test_import_repro_loads_no_third_party_module(self):
        # Why the entry above needs no stubs: the package imports only
        # the standard library (numpy and scipy load with the ILP
        # baseline, networkx only in tests).
        import os
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import repro\n"
            "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "# multiprocessing aliases the main module as __mp_main__\n"
            "allowed = set(sys.stdlib_module_names) | {'repro', '__mp_main__'}\n"
            "print(sorted(loaded - allowed))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=REPO, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
