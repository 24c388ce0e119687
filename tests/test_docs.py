"""The docs tree exists and the docs smoke checker works.

Fence *execution* lives in the CI docs job (``tools/check_docs.py``);
here we keep the cheap guarantees in tier-1: the documents exist, their
fences parse, their intra-repo links resolve, and the checker itself
catches breakage.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_docs  # noqa: E402


class TestDocsTree:
    def test_documents_exist(self):
        documents = check_docs.default_documents()
        names = {d.name for d in documents}
        assert "README.md" in names
        assert "architecture.md" in names
        assert "cli.md" in names

    def test_every_document_has_runnable_fences(self):
        for document in check_docs.default_documents():
            fences = check_docs.extract_fences(document)
            assert any(f.runnable for f in fences), (
                f"{document.name} has no executable code fence"
            )

    def test_intra_repo_links_resolve(self):
        problems = []
        for document in check_docs.default_documents():
            problems.extend(check_docs.check_links(document))
        assert problems == []

    def test_readme_quotes_current_bench_workloads(self):
        import json

        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        assert names
        readme = (REPO / "README.md").read_text()
        assert [name for name in names if name not in readme] == []

    def test_ci_tests_job_installs_every_test_import(self):
        """Tier-1 collects in CI: its pip line names each third-party import.

        Distribution and module names coincide for every dependency the
        tests use, so the pip words are compared with module names.
        """
        import ast
        import re

        workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        job = re.search(r"^  tests:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S)
        assert job is not None
        installed = {
            word
            for line in re.findall(r"pip install (?!--upgrade)(.+)", job.group(1))
            for word in line.split()
        }
        imported = set()
        for path in (REPO / "tests").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    imported.add((node.module or "").split(".")[0])
        local = {
            name for name in imported
            if (REPO / name).exists() or (REPO / "src" / name).exists()
            or (REPO / "tools" / f"{name}.py").exists()
        }
        third_party = imported - set(sys.stdlib_module_names) - local
        assert sorted(third_party - installed) == []


class TestCheckerMechanics:
    def test_extracts_language_and_flags(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "# t\n\n```bash no-run\necho hi\n```\n\n```python\nprint(1)\n```\n"
        )
        fences = check_docs.extract_fences(doc)
        assert [f.language for f in fences] == ["bash", "python"]
        assert fences[0].flags == ("no-run",)
        assert not fences[0].runnable
        assert fences[1].runnable

    def test_unterminated_fence_rejected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```bash\necho hi\n")
        with pytest.raises(ValueError, match="unterminated"):
            check_docs.extract_fences(doc)

    def test_broken_link_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("see [missing](no/such/file.md) and [ok](doc.md)\n")
        problems = check_docs.check_links(doc)
        assert len(problems) == 1
        assert "no/such/file.md" in problems[0]

    def test_external_links_ignored(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("[x](https://example.com) [y](#anchor)\n")
        assert check_docs.check_links(doc) == []

    def test_failing_fence_reported(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```bash\nexit 3\n```\n")
        fence = check_docs.extract_fences(doc)[0]
        ok, _ = check_docs.run_fence(fence)
        assert not ok

    def test_passing_fence_runs_with_src_on_path(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```python\nimport repro\nprint(repro.__version__)\n```\n")
        fence = check_docs.extract_fences(doc)[0]
        ok, detail = check_docs.run_fence(fence)
        assert ok, detail


class TestCheckerHardening:
    def test_example_fence_inside_literal_block_not_executed(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "````markdown\n"
            "```bash\n"
            "exit 7\n"
            "```\n"
            "````\n\n"
            "```python\nprint('real')\n```\n"
        )
        fences = check_docs.extract_fences(doc)
        runnable = [f for f in fences if f.runnable]
        assert [f.language for f in runnable] == ["python"]
        assert "exit 7" in fences[0].body

    def test_links_inside_fences_ignored(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "```text\nsee [example](not/a/real/file.md)\n```\n"
            "[real](doc.md)\n"
        )
        assert check_docs.check_links(doc) == []

    def test_chain_cache_lru_keeps_hot_entry(self):
        from repro.core.binding import ChainCache
        from repro.core.wcg import WordlengthCompatibilityGraph
        from repro.ir.ops import Operation
        from repro.resources.area import SonicAreaModel
        from repro.resources.latency import SonicLatencyModel
        from repro.resources.types import ResourceType

        schedule = {"a": 0, "b": 2, "c": 4}
        latencies = {"a": 2, "b": 2, "c": 2}
        resource = ResourceType("mul", (8, 8))
        wcg = WordlengthCompatibilityGraph(
            [Operation(n, "mul", (8, 8)) for n in schedule], [resource],
            SonicLatencyModel(),
        )
        cache = ChainCache(max_entries_per_resource=2)
        cache.ensure_index(wcg, SonicAreaModel())
        cache.refresh(schedule, latencies, ("a", "b", "c"))

        def lookup(*names):
            mask = sum(1 << wcg.op_id[n] for n in names)
            rid = wcg.resource_id[resource]
            return cache.chain_for_mask(rid, mask, schedule, latencies)

        lookup("a", "b", "c")  # hot
        lookup("b")
        lookup("a", "b", "c")  # touch
        lookup("c")  # evicts ["b"]
        lookup("a", "b", "c")
        assert cache.hits == 2  # the hot full-candidate entry survived
