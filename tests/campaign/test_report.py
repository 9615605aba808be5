"""Metrics aggregation and BENCH-style report generation."""

import json

from repro.campaign import (
    CampaignSpec,
    TaskRecord,
    TaskSpec,
    campaign_report,
    format_status_table,
    summarize,
    write_report,
)


def _records():
    return [
        TaskRecord("1" * 16, "a", "m.x:f", {"n": 1}, "ok",
                   wall_seconds=0.5, payload={"steps": 3}),
        TaskRecord("2" * 16, "b", "m.x:f", {"n": 2}, "ok",
                   wall_seconds=0.25, cache_hit=True, payload={"steps": 4}),
        TaskRecord("3" * 16, "c", "m.x:f", {"n": 3}, "failed",
                   failure_kind="timeout", attempts=2, traceback="tb",
                   wall_seconds=1.0),
    ]


class TestSummarize:
    def test_counts(self):
        s = summarize(_records(), wall_seconds=2.0)
        assert (s.total, s.ok, s.failed) == (3, 2, 1)
        assert s.cache_hits == 1 and s.executed == 2
        assert s.retried == 1
        assert s.failures == ["c"]
        assert not s.all_ok
        # Cache hits do not contribute stored wall time to task_seconds.
        assert s.task_seconds == 1.5

    def test_empty(self):
        s = summarize([])
        assert s.total == 0 and s.all_ok


class TestReport:
    def test_bench_compatible_shape(self, tmp_path):
        spec = CampaignSpec(
            "demo", tuple(TaskSpec("m.x:f", {"n": i}) for i in (1, 2, 3))
        )
        report = campaign_report(spec, _records(), wall_seconds=2.0,
                                 extra={"grid": {"n": [1, 2, 3]}})
        assert report["benchmark"] == "repro.campaign::demo"
        assert report["spec_hash"] == spec.spec_hash
        assert report["host"]["cpus"] >= 1
        assert report["summary"]["failed"] == 1
        assert len(report["rows"]) == 3
        assert report["rows"][0]["payload"] == {"steps": 3}
        assert report["grid"] == {"n": [1, 2, 3]}

        path = write_report(report, tmp_path / "report.json")
        assert json.loads(path.read_text())["benchmark"] == "repro.campaign::demo"

    def test_status_table_lists_every_task(self):
        table = format_status_table(_records())
        assert "FAILED(timeout)" in table
        assert table.count("OK") >= 2
        assert "hit" in table and "run" in table
