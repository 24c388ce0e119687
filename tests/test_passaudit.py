"""passaudit: effect inference, RL006/RL007, and the effect map.

Inference unit tests build tiny fixture trees under scope-mimicking
subdirectories (``<tmp>/core/...``) because the contract rules key on
the package-relative path, exactly like the other reprolint rules.
The seeded-mutation tests copy the *real* solver tree and delete one
invalidation line -- the class of bug the tentpole exists to catch.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.cli import main as repro_main
from repro.devtools.lint import run_lint
from repro.devtools.lint.framework import collect_modules
from repro.devtools.passaudit import analyze_project, effect_map
from repro.devtools.passaudit.rules import EFFECT_SCOPE

REPO = Path(__file__).resolve().parent.parent

PASS_BASE = (
    "class Pass:\n"
    "    def run(self, state):\n"
    "        raise NotImplementedError\n"
    "\n"
)


def write_tree(tmp_path: Path, files: dict) -> Path:
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def analyze(tmp_path: Path, files: dict):
    return analyze_project(collect_modules([write_tree(tmp_path, files)]))


def lint_tree(tmp_path: Path, files: dict, **kwargs):
    return run_lint([write_tree(tmp_path, files)], **kwargs)


def codes(report):
    return sorted(f.rule for f in report.new)


def the_pass(project, name):
    (report,) = [r for r in project.passes if r.name == name]
    return report


# ----------------------------------------------------------------------
# effect inference
# ----------------------------------------------------------------------
class TestEffectInference:
    def test_loads_stores_mutators_and_subscripts(self, tmp_path):
        project = analyze(tmp_path, {"core/solver.py": PASS_BASE + (
            "class SumPass(Pass):\n"
            "    def run(self, state):\n"
            "        state.total = sum(state.items)\n"
            "        state.counts['n'] = len(state.items)\n"
            "        state.log.append(state.total)\n"
            "        state.pending.clear()\n"
            "        state.bumps += 1\n"
        )})
        report = the_pass(project, "SumPass")
        assert report.complete
        # Receiver loads count as reads; plain stores are write-only;
        # augmented and subscript stores are read+write.
        assert report.reads == {
            "items", "total", "counts", "log", "pending", "bumps",
        }
        assert report.writes == {
            "total", "counts", "log", "pending", "bumps",
        }

    def test_transitive_write_through_helper_and_method(self, tmp_path):
        project = analyze(tmp_path, {"core/solver.py": PASS_BASE + (
            "class Graph:\n"
            "    def __init__(self):\n"
            "        self.edges = []\n"
            "    def cut(self, name):\n"
            "        self.edges.remove(name)\n"
            "\n"
            "def trim(graph, name):\n"
            "    graph.cut(name)\n"
            "\n"
            "class TrimPass(Pass):\n"
            "    def run(self, state):\n"
            "        trim(state.wcg, 'a')\n"
        )})
        report = the_pass(project, "TrimPass")
        assert report.complete
        assert report.reads == {"wcg"}
        assert report.writes == {"wcg"}

    def test_alias_mutation_attributed_to_state(self, tmp_path):
        project = analyze(tmp_path, {"core/solver.py": PASS_BASE + (
            "class AliasPass(Pass):\n"
            "    def run(self, state):\n"
            "        cache = state.memo\n"
            "        cache.clear()\n"
        )})
        report = the_pass(project, "AliasPass")
        assert report.reads == {"memo"}
        assert report.writes == {"memo"}

    def test_const_pragma_drops_memo_self_writes(self, tmp_path):
        project = analyze(tmp_path, {"core/solver.py": PASS_BASE + (
            "class Table:\n"
            "    def __init__(self):\n"
            "        self._cache = {}\n"
            "    # passaudit: const(lazy memo; logically a pure query)\n"
            "    def lookup(self, key):\n"
            "        if key not in self._cache:\n"
            "            self._cache[key] = key * 2\n"
            "        return self._cache[key]\n"
            "\n"
            "class LookupPass(Pass):\n"
            "    def run(self, state):\n"
            "        state.value = state.table.lookup(3)\n"
        )})
        report = the_pass(project, "LookupPass")
        assert report.complete
        assert report.reads == {"table"}
        assert report.writes == {"value"}
        assert project.graph.pragma_problems == []

    def test_unresolvable_call_marks_summary_incomplete(self, tmp_path):
        project = analyze(tmp_path, {"core/solver.py": PASS_BASE + (
            "class MysteryPass(Pass):\n"
            "    def run(self, state):\n"
            "        helper(state)\n"
        )})
        report = the_pass(project, "MysteryPass")
        assert not report.complete
        assert "helper" in report.incomplete_why

    def test_nested_function_calls_stay_resolved(self, tmp_path):
        # Local defs are inlined into their parent's walk; calling one
        # by name must not be treated as an unresolvable call.
        project = analyze(tmp_path, {"core/solver.py": PASS_BASE + (
            "class NestedPass(Pass):\n"
            "    def run(self, state):\n"
            "        def bump():\n"
            "            state.counter += 1\n"
            "        bump()\n"
        )})
        report = the_pass(project, "NestedPass")
        assert report.complete
        assert report.writes == {"counter"}

    def test_reasonless_and_dangling_pragmas_reported(self, tmp_path):
        project = analyze(tmp_path, {"core/solver.py": (
            "class Table:\n"
            "    # passaudit: const\n"
            "    def lookup(self, key):\n"
            "        return key\n"
            "\n"
            "# passaudit: const(attached to nothing)\n"
            "VALUE = 1\n"
        )})
        messages = [msg for _, _, msg in project.graph.pragma_problems]
        assert len(messages) == 2
        assert any("no reason" in m for m in messages)
        assert any("not attached" in m or "dangling" in m for m in messages)


# ----------------------------------------------------------------------
# RL006: declared contracts vs inferred effects
# ----------------------------------------------------------------------
class TestRL006:
    def test_missing_contract_trips(self, tmp_path):
        report = lint_tree(tmp_path, {"core/solver.py": PASS_BASE + (
            "class BarePass(Pass):\n"
            "    def run(self, state):\n"
            "        state.done = True\n"
        )}, rule_codes=["RL006"])
        assert codes(report) == ["RL006"]
        assert "declares no reads/writes contract" in report.new[0].message

    def test_matching_contract_clean(self, tmp_path):
        report = lint_tree(tmp_path, {"core/solver.py": PASS_BASE + (
            "class GoodPass(Pass):\n"
            "    reads = frozenset({'items'})\n"
            "    writes = frozenset({'done'})\n"
            "    def run(self, state):\n"
            "        state.done = bool(state.items)\n"
        )}, rule_codes=["RL006"])
        assert report.new == []

    def test_undeclared_effect_trips(self, tmp_path):
        report = lint_tree(tmp_path, {"core/solver.py": PASS_BASE + (
            "class SneakyPass(Pass):\n"
            "    reads = frozenset({'items'})\n"
            "    writes = frozenset()\n"
            "    def run(self, state):\n"
            "        state.done = bool(state.items)\n"
        )}, rule_codes=["RL006"])
        assert codes(report) == ["RL006"]
        assert "writes state.done" in report.new[0].message
        assert "does not declare" in report.new[0].message

    def test_phantom_declaration_trips(self, tmp_path):
        report = lint_tree(tmp_path, {"core/solver.py": PASS_BASE + (
            "class StalePass(Pass):\n"
            "    reads = frozenset({'items', 'ghost'})\n"
            "    writes = frozenset({'done'})\n"
            "    def run(self, state):\n"
            "        state.done = bool(state.items)\n"
        )}, rule_codes=["RL006"])
        assert codes(report) == ["RL006"]
        assert "state.ghost" in report.new[0].message
        assert "stale contract" in report.new[0].message

    def test_non_literal_contract_trips(self, tmp_path):
        report = lint_tree(tmp_path, {"core/solver.py": PASS_BASE + (
            "FIELDS = ['items']\n"
            "class DynamicPass(Pass):\n"
            "    reads = frozenset(FIELDS)\n"
            "    writes = frozenset()\n"
            "    def run(self, state):\n"
            "        state.done = bool(state.items)\n"
        )}, rule_codes=["RL006"])
        assert codes(report) == ["RL006"]
        assert "literal frozenset" in report.new[0].message

    def test_incomplete_summary_reported_not_silently_weakened(
        self, tmp_path
    ):
        report = lint_tree(tmp_path, {"core/solver.py": PASS_BASE + (
            "class FuzzyPass(Pass):\n"
            "    reads = frozenset()\n"
            "    writes = frozenset()\n"
            "    def run(self, state):\n"
            "        helper(state)\n"
        )}, rule_codes=["RL006"])
        assert "RL006" in codes(report)
        assert any("incomplete" in f.message for f in report.new)

    def test_out_of_scope_module_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {"engine/solver.py": PASS_BASE + (
            "class ElsewherePass(Pass):\n"
            "    def run(self, state):\n"
            "        state.done = True\n"
        )}, rule_codes=["RL006"])
        assert report.new == []


# ----------------------------------------------------------------------
# RL007: reuse-tracked writes must invalidate
# ----------------------------------------------------------------------
PROTOCOL = (
    "REUSE_CHANNELS = {'table': ('dirty',)}\n"
    "REUSE_MEMOS = ('memo',)\n"
    "\n"
)


class TestRL007:
    def test_write_without_channel_mark_trips(self, tmp_path):
        report = lint_tree(tmp_path, {
            "core/pipe.py": PROTOCOL + PASS_BASE + (
                "class WritePass(Pass):\n"
                "    def run(self, state):\n"
                "        state.table.pop()\n"
                "\n"
                "class ReadPass(Pass):\n"
                "    def run(self, state):\n"
                "        state.copy = state.table\n"
            ),
        }, rule_codes=["RL007"])
        assert codes(report) == ["RL007"]
        message = report.new[0].message
        assert "state.table" in message
        assert "state.dirty" in message
        assert "ReadPass" in message

    def test_write_with_channel_mark_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "core/pipe.py": PROTOCOL + PASS_BASE + (
                "class WritePass(Pass):\n"
                "    def run(self, state):\n"
                "        state.table.pop()\n"
                "        state.dirty.add('t')\n"
                "\n"
                "class ReadPass(Pass):\n"
                "    def run(self, state):\n"
                "        state.copy = state.table\n"
            ),
        }, rule_codes=["RL007"])
        assert report.new == []

    def test_no_cross_pass_reader_no_coupling(self, tmp_path):
        report = lint_tree(tmp_path, {
            "core/pipe.py": PROTOCOL + PASS_BASE + (
                "class WritePass(Pass):\n"
                "    def run(self, state):\n"
                "        state.table.pop()\n"
            ),
        }, rule_codes=["RL007"])
        assert report.new == []

    def test_memo_read_without_refresh_trips(self, tmp_path):
        report = lint_tree(tmp_path, {
            "core/pipe.py": PROTOCOL + PASS_BASE + (
                "class UsePass(Pass):\n"
                "    def run(self, state):\n"
                "        state.out = state.memo.get('k')\n"
            ),
        }, rule_codes=["RL007"])
        assert codes(report) == ["RL007"]
        assert "memo state.memo" in report.new[0].message

    def test_memo_refreshing_consumer_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "core/pipe.py": PROTOCOL + PASS_BASE + (
                "class UsePass(Pass):\n"
                "    def run(self, state):\n"
                "        state.out = state.memo.setdefault('k', 1)\n"
            ),
        }, rule_codes=["RL007"])
        assert report.new == []


# ----------------------------------------------------------------------
# the seeded mutation: delete one invalidation from the real solver
# ----------------------------------------------------------------------
MUTATION = "        self.dirty_cover_kinds.add(self.kind_of[step.operation])\n"


def copy_solver_tree(tmp_path: Path) -> Path:
    for sub in EFFECT_SCOPE:
        shutil.copytree(REPO / "src" / "repro" / sub, tmp_path / sub)
    return tmp_path


class TestSeededMutation:
    def test_unmutated_copy_is_clean(self, tmp_path):
        report = run_lint([copy_solver_tree(tmp_path)])
        assert report.new == [], "\n".join(
            f"{f.location()}: {f.rule}: {f.message}" for f in report.new
        )

    def test_dropped_invalidation_flagged_by_rl007(self, tmp_path):
        copy_solver_tree(tmp_path)
        solver = tmp_path / "core" / "solver.py"
        text = solver.read_text()
        assert MUTATION in text, "mutation target moved; update the test"
        solver.write_text(text.replace(MUTATION, ""))

        report = run_lint([tmp_path])
        rl007 = [f for f in report.new if f.rule == "RL007"]
        assert rl007, codes(report)
        assert rl007[0].path.endswith("core/solver.py")
        assert "state.wcg" in rl007[0].message
        assert "state.dirty_cover_kinds" in rl007[0].message
        # The stale declared contract is independently caught by RL006.
        assert any(f.rule == "RL006" for f in report.new)


# ----------------------------------------------------------------------
# the committed effect map
# ----------------------------------------------------------------------
class TestEffectMap:
    def regenerate(self):
        modules = [
            m for m in collect_modules(
                [REPO / "src" / "repro"], display_root=REPO
            )
            if m.module_key and m.module_key[0] in EFFECT_SCOPE
        ]
        return effect_map(analyze_project(modules))

    def test_committed_map_matches_regeneration(self):
        committed = json.loads(
            (REPO / "tools" / "pass-effects.json").read_text()
        )
        assert self.regenerate() == committed

    def test_every_solver_pass_is_complete(self):
        payload = self.regenerate()
        passes = payload["passes"]
        assert set(passes) == {
            "core.solver:BindPass",
            "core.solver:BoundsPass",
            "core.solver:CheckPass",
            "core.solver:RefinePass",
            "core.solver:SchedulePass",
        }
        for key, entry in passes.items():
            assert entry["complete"], key
        assert payload["protocol"]["channels"]["wcg"] == [
            "dirty_cover_kinds", "pending_bound_ops", "pending_refined_ops",
        ]
        assert payload["protocol"]["memos"] == ["chain_cache"]


class TestEffectsCli:
    def test_write_then_check_round_trip(self, tmp_path, capsys):
        out = tmp_path / "effects.json"
        assert repro_main([
            "lint", "--write-effects", "--effects-file", str(out),
        ]) == 0
        assert repro_main([
            "lint", "--check-effects", "--effects-file", str(out),
        ]) == 0
        assert "effect map is current" in capsys.readouterr().out
        committed = json.loads(
            (REPO / "tools" / "pass-effects.json").read_text()
        )
        assert json.loads(out.read_text()) == committed

    def test_drifted_map_fails_check_with_pass_names(
        self, tmp_path, capsys
    ):
        out = tmp_path / "effects.json"
        assert repro_main([
            "lint", "--write-effects", "--effects-file", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        payload["passes"]["core.solver:RefinePass"]["writes"].remove(
            "dirty_cover_kinds"
        )
        out.write_text(json.dumps(payload))
        assert repro_main([
            "lint", "--check-effects", "--effects-file", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert "stale" in err
        assert "core.solver:RefinePass" in err

    def test_check_effects_without_map_is_usage_error(
        self, tmp_path, capsys
    ):
        assert repro_main([
            "lint", "--check-effects",
            "--effects-file", str(tmp_path / "missing.json"),
        ]) == 2
        assert "--write-effects" in capsys.readouterr().err
