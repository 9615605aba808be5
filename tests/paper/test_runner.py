"""The paper runner: layout, resumability, and warm-plan reruns."""

import json
from pathlib import Path

import pytest

from repro.paper.runner import run_paper, write_artifacts
from repro.paper.sections import Figure, SectionArtifacts, Table
from repro.sim.plancache import PlanCache

#: A fast but representative subset: one registry-computed section, the
#: sweep grid, and the routed section (which exercises the plan cache).
SUBSET = ("table-1a", "sweep", "routed-steps")


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    # The routed tasks' "disk" plan cache lands under the working
    # directory (results/plans); keep it inside tmp_path.
    monkeypatch.chdir(tmp_path)


def _run(tmp_path, **kwargs):
    kwargs.setdefault("sections", list(SUBSET))
    kwargs.setdefault("profile", "smoke")
    kwargs.setdefault("root", tmp_path / "paper")
    kwargs.setdefault("store_root", tmp_path / "campaigns")
    return run_paper(**kwargs)


class TestRunPaper:
    def test_writes_the_documented_layout(self, tmp_path):
        result = _run(tmp_path)
        assert result.ok
        # Each profile renders into its own tree under the results root.
        root = tmp_path / "paper" / "smoke"
        assert result.root == root
        assert (root / "table-1a" / "tables" / "table-1a.json").exists()
        assert (root / "table-1a" / "tables" / "table-1a.md").exists()
        assert (root / "sweep" / "figures" / "speedup-chart.txt").exists()
        assert (root / "routed-steps" / "tables"
                / "routed-steps.json").exists()
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert manifest["sections"]["table-1a"]["tables"] == ["table-1a"]

    def test_json_and_markdown_agree_cell_for_cell(self, tmp_path):
        _run(tmp_path)
        tables = tmp_path / "paper" / "smoke" / "table-1a" / "tables"
        data = json.loads((tables / "table-1a.json").read_text())
        md = (tables / "table-1a.md").read_text()
        for row in data["rows"]:
            assert str(row["diameter"]) in md
            assert row["network"] in md

    def test_routed_table_excludes_host_timings(self, tmp_path):
        _run(tmp_path)
        data = json.loads((tmp_path / "paper" / "smoke" / "routed-steps"
                           / "tables" / "routed-steps.json").read_text())
        assert "route_seconds" not in data["columns"]
        for row in data["rows"]:
            assert "route_seconds" not in row

    def test_unknown_profile_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown paper profile"):
            _run(tmp_path, profile="gigantic")


class TestRerunIsWarm:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        first = _run(tmp_path)
        summary = first.campaign.summary
        assert summary.executed == summary.total > 0

        second = _run(tmp_path)
        assert second.ok
        resummary = second.campaign.summary
        assert resummary.executed == 0
        assert resummary.cache_hits == resummary.total == summary.total

    def test_rerun_artifacts_are_byte_identical(self, tmp_path):
        _run(tmp_path)
        table = (tmp_path / "paper" / "smoke" / "table-1a" / "tables"
                 / "table-1a.json")
        before = table.read_bytes()
        _run(tmp_path)
        assert table.read_bytes() == before

    def test_forced_rerun_replays_warm_plans(self, tmp_path):
        """--force re-executes the engine, but the routed tasks replay
        their recorded plans: no blob is written again.  A re-put would
        ``os.replace`` a new file over the blob, changing its inode."""
        def blob_ids():
            return {
                path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
                for path in PlanCache(Path("results/plans")).disk_blobs()
            }

        _run(tmp_path)
        before = blob_ids()
        assert len(before) == 3  # one plan per routed topology

        forced = _run(tmp_path, force=True)
        assert forced.ok
        assert forced.campaign.summary.executed == (
            forced.campaign.summary.total)
        assert blob_ids() == before

    def test_killed_run_resumes_from_the_store(self, tmp_path):
        # Simulate a partial run: execute one section only, then ask for
        # the full subset — the shared store serves the finished task.
        _run(tmp_path, sections=["table-1a"])
        result = _run(tmp_path)
        summary = result.campaign.summary
        assert summary.cache_hits >= 1
        assert summary.executed == summary.total - summary.cache_hits


class TestWriteArtifacts:
    def test_clears_stale_rendered_files(self, tmp_path):
        root = tmp_path / "paper"
        arts = {"s": SectionArtifacts(
            tables=(Table("old", "O", ("a",), ({"a": 1},)),))}
        write_artifacts(arts, root)
        arts = {"s": SectionArtifacts(
            tables=(Table("new", "N", ("a",), ({"a": 1},)),))}
        write_artifacts(arts, root)
        names = {p.name for p in (root / "s" / "tables").iterdir()}
        assert names == {"new.json", "new.md"}

    def test_never_touches_the_golden_tree(self, tmp_path):
        root = tmp_path / "paper"
        golden = root / "golden" / "smoke" / "s"
        golden.mkdir(parents=True)
        (golden / "t.json").write_text("{}")
        write_artifacts(
            {"s": SectionArtifacts(figures=(Figure("f", "F", "x"),))}, root)
        assert (golden / "t.json").read_text() == "{}"

    def test_reserved_section_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_artifacts({"golden": SectionArtifacts()}, tmp_path)

    def test_manifest_merges_partial_runs(self, tmp_path):
        root = tmp_path / "paper"
        write_artifacts({"a": SectionArtifacts(
            figures=(Figure("f1", "F", "x"),))}, root)
        write_artifacts({"b": SectionArtifacts(
            figures=(Figure("f2", "F", "y"),))}, root)
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert set(manifest["sections"]) == {"a", "b"}
