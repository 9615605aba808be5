"""The golden checker: exact cell diffs, missing/stale detection."""

import json

import pytest

from repro.paper.golden import (
    CellDiff,
    check_goldens,
    compare_tables,
    golden_path,
    write_goldens,
)
from repro.paper.sections import SectionArtifacts, Table


def _table(**overrides):
    base = {
        "name": "table-1a",
        "title": "T",
        "columns": ("network", "diameter"),
        "rows": ({"network": "mesh", "diameter": 126},
                 {"network": "hypercube", "diameter": 12}),
    }
    base.update(overrides)
    return Table(**base)


def _artifacts(table=None):
    return {"table-1a": SectionArtifacts(tables=(table or _table(),))}


class TestCompareTables:
    def test_identical_tables_no_diffs(self):
        assert compare_tables("s", _table(), _table()) == []

    def test_single_cell_diff_is_fully_named(self):
        got = _table(rows=({"network": "mesh", "diameter": 126},
                           {"network": "hypercube", "diameter": 13}))
        diffs = compare_tables("table-1a", _table(), got)
        assert len(diffs) == 1
        diff = diffs[0]
        assert diff == CellDiff("table-1a", "table-1a", "hypercube",
                                "diameter", 12, 13)
        text = str(diff)
        for needle in ("table-1a", "'hypercube'", "'diameter'", "12", "13"):
            assert needle in text

    def test_row_count_mismatch(self):
        got = _table(rows=({"network": "mesh", "diameter": 126},))
        diffs = compare_tables("s", _table(), got)
        assert any(d.column == "<row-count>" for d in diffs)

    def test_column_schema_mismatch_short_circuits(self):
        got = _table(columns=("network", "degree"),
                     rows=({"network": "mesh", "degree": 4},
                           {"network": "hypercube", "degree": 12}))
        diffs = compare_tables("s", _table(), got)
        assert len(diffs) == 1 and diffs[0].column == "<columns>"

    def test_float_int_equivalence_via_json(self):
        # 2.0 and 2 normalize identically through the JSON round trip
        # only if truly equal as JSON numbers; 2.0 == 2 in Python and in
        # JSON comparison after loads, so no spurious drift.
        expected = _table(rows=({"network": "mesh", "diameter": 2.0},
                                {"network": "hypercube", "diameter": 12}))
        got = _table(rows=({"network": "mesh", "diameter": 2},
                           {"network": "hypercube", "diameter": 12}))
        assert compare_tables("s", expected, got) == []


class TestCheckGoldens:
    def test_round_trip_is_clean(self, tmp_path):
        arts = _artifacts()
        write_goldens(arts, tmp_path, "smoke")
        report = check_goldens(arts, tmp_path, "smoke")
        assert report.ok and report.checked == 1
        assert "ok" in report.format()

    def test_perturbed_cell_reports_drift(self, tmp_path):
        arts = _artifacts()
        write_goldens(arts, tmp_path, "smoke")
        path = golden_path(tmp_path, "smoke", "table-1a", "table-1a")
        data = json.loads(path.read_text())
        data["rows"][1]["diameter"] = 13
        path.write_text(json.dumps(data))
        report = check_goldens(arts, tmp_path, "smoke")
        assert not report.ok
        [diff] = report.diffs
        assert (diff.row, diff.column, diff.expected, diff.got) == (
            "hypercube", "diameter", 13, 12)
        assert "DRIFT" in report.format()

    def test_missing_golden_is_distinct_from_drift(self, tmp_path):
        report = check_goldens(_artifacts(), tmp_path, "smoke")
        assert not report.ok
        assert report.missing and not report.diffs
        assert "MISSING GOLDEN" in report.format()

    def test_stale_golden_is_reported(self, tmp_path):
        arts = _artifacts()
        write_goldens(arts, tmp_path, "smoke")
        stale = golden_path(tmp_path, "smoke", "table-1a", "gone")
        stale.write_text("{}")
        report = check_goldens(arts, tmp_path, "smoke")
        assert not report.ok
        assert report.unexpected == [str(stale)]
        assert "STALE GOLDEN" in report.format()

    def test_non_golden_sections_are_ignored(self, tmp_path):
        arts = {"figures": SectionArtifacts(tables=(_table(name="f"),))}
        report = check_goldens(arts, tmp_path, "smoke")
        assert report.ok and report.checked == 0

    def test_profiles_have_separate_goldens(self, tmp_path):
        arts = _artifacts()
        write_goldens(arts, tmp_path, "smoke")
        report = check_goldens(arts, tmp_path, "full")
        assert report.missing  # full goldens were never written

    def test_explicit_golden_dir_override(self, tmp_path):
        arts = _artifacts()
        gold = tmp_path / "elsewhere"
        write_goldens(arts, tmp_path, "smoke", golden_dir=gold)
        assert (gold / "table-1a" / "table-1a.json").exists()
        assert check_goldens(arts, tmp_path, "smoke", golden_dir=gold).ok


class TestWriteGoldens:
    def test_prunes_stale_goldens_of_rewritten_sections(self, tmp_path):
        write_goldens(_artifacts(_table(name="old")), tmp_path, "smoke")
        write_goldens(_artifacts(_table(name="new")), tmp_path, "smoke")
        names = {p.name for p in
                 (tmp_path / "golden" / "smoke" / "table-1a").glob("*.json")}
        assert names == {"new.json"}

    def test_written_files_are_stable_bytes(self, tmp_path):
        arts = _artifacts()
        [first] = write_goldens(arts, tmp_path, "smoke")
        before = first.read_bytes()
        [second] = write_goldens(arts, tmp_path, "smoke")
        assert second.read_bytes() == before


class TestCommittedGoldens:
    def test_full_profile_matches_goldens(self, tmp_path, monkeypatch):
        """Every N = 4096 table of the paper, regenerated and diffed cell by
        cell against the committed full-profile goldens."""
        from pathlib import Path

        from repro.paper import run_paper

        golden = Path(__file__).resolve().parents[2] / "results" / "paper" \
            / "golden" / "full"
        monkeypatch.chdir(tmp_path)  # the routed tasks' plan cache
        result = run_paper(profile="full", root=tmp_path / "paper",
                           store_root=tmp_path / "campaigns")
        assert result.ok, result.failed_sections
        report = check_goldens(result.artifacts, tmp_path / "paper", "full",
                               golden_dir=golden)
        assert report.ok, report.format()
        assert report.checked == 15
        assert report.missing == []
