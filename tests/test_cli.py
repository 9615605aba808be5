"""Smoke tests for the CLI (every subcommand runs and prints key figures)."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import CAMPAIGN_VERBS, PAPER_VERBS, build_parser, main

GOLDEN_ROOT = Path(__file__).resolve().parents[1] / "results" / "paper" / "golden"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["tables"])
        assert args.sections == ["table-1a", "table-1b", "table-2a", "table-2b"]
        assert args.profile == "full" and args.print_artifacts
        assert not args.check

    @pytest.mark.parametrize("verb", sorted(PAPER_VERBS))
    def test_each_verb_is_its_paper_alias(self, verb):
        """A verb is `paper --sections ...` that prints instead of writing:
        no option of its own, every other setting the paper default."""
        parser = build_parser()
        sections, _ = PAPER_VERBS[verb]
        alias = vars(parser.parse_args([verb]))
        paper = vars(parser.parse_args(["paper", "--sections", *sections]))
        for args in (alias, paper):
            args.pop("command")
        assert alias == {**paper, "print_artifacts": True}

    @pytest.mark.parametrize("verb", sorted(CAMPAIGN_VERBS))
    def test_each_campaign_verb_is_its_campaign_run_alias(self, verb):
        """A campaign verb is `campaign run <built-in> --force`: no option
        of its own, every other setting the `campaign run` default."""
        parser = build_parser()
        alias = vars(parser.parse_args([verb]))
        run = vars(parser.parse_args(
            ["campaign", "run", CAMPAIGN_VERBS[verb], "--force"]
        ))
        alias.pop("command")
        for key in ("command", "campaign_command"):
            run.pop(key)
        assert alias == run
        with pytest.raises(SystemExit):
            parser.parse_args([verb, "--sizes", "16"])


class TestCommands:
    """The paper verbs regenerate their sections at the full profile and
    print every table and figure."""

    @pytest.fixture(autouse=True)
    def _isolated_cwd(self, tmp_path, monkeypatch):
        # The verbs write the campaign store and the plan cache under the
        # working directory; keep every test out of the repo tree.
        monkeypatch.chdir(tmp_path)

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1A" in out and "Table 2B" in out

    def test_tables_4096_shows_published_times(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "8.00 us" in out
        assert "3.12 us" in out
        assert "300.0 ns" in out

    def test_section4(self, capsys):
        assert main(["section4"]) == 0
        out = capsys.readouterr().out
        assert "| IV-A | 26.67 | 10.4 |" in out
        assert "| IV-B 20ns lines | 13.33 | 6 |" in out

    def test_bisection(self, capsys):
        assert main(["bisection"]) == 0
        out = capsys.readouterr().out
        assert "Section V — bisection ratios" in out
        assert "| hypermesh / mesh | 160 |" in out

    def test_sweep(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "| 4096 | 26.67 | 10.4 |" in out
        assert "| 1048576 |" in out  # 4^10, the largest size
        assert "legend" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out and "Fig. 3" in out
        assert "no n x n crossbar" in out and "bit-reversal" in out

    def test_fft(self, capsys):
        assert main(["fft", "--side", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("numpy-agreement=True") == 3

    def test_fft_wrong_spectrum_exits_1(self, capsys, monkeypatch):
        import dataclasses

        from repro.fft import parallel

        real = parallel.parallel_fft

        def wrong(topology, x, **kwargs):
            result = real(topology, x, **kwargs)
            if type(topology).__name__ != "Hypercube":
                return result
            return dataclasses.replace(result, spectrum=result.spectrum + 1)

        monkeypatch.setattr(parallel, "parallel_fft", wrong)
        assert main(["fft", "--side", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("numpy-agreement=True") == 2
        assert "Hypercube   : numpy-agreement=False" in captured.out
        assert captured.err.startswith("error: SpectrumMismatch:")
        assert "Hypercube n=16" in captured.err

    def test_sort(self, capsys):
        assert main(["sort", "--side", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("sorted=True") == 3

    def test_unsorted_network_exits_1(self, capsys, monkeypatch):
        import dataclasses

        from repro.sort import bitonic

        real = bitonic.parallel_bitonic_sort

        def unsorted(topology, keys, **kwargs):
            result = real(topology, keys, **kwargs)
            if type(topology).__name__ != "Mesh2D":
                return result
            return dataclasses.replace(result, keys=result.keys[::-1])

        monkeypatch.setattr(bitonic, "parallel_bitonic_sort", unsorted)
        assert main(["sort", "--side", "4"]) == 1
        captured = capsys.readouterr()
        assert "Mesh2D      : sorted=False" in captured.out
        assert captured.out.count("sorted=True") == 2
        assert captured.err.startswith("error:") and "Mesh2D" in captured.err

    def test_omega(self, capsys):
        assert main(["omega"]) == 0
        out = capsys.readouterr().out
        assert "Omega network vs 2D hypermesh (N=64)" in out
        assert "| every FFT butterfly exchange | 1 | 1 | admissible |" in out
        assert "| bit reversal | 8 | 3 |" in out

    def test_universality(self, capsys):
        assert main(["universality"]) == 0
        out = capsys.readouterr().out
        assert "advantage" in out
        assert "measured random-permutation routing (N=256" in out

    def test_shapes(self, capsys):
        assert main(["shapes"]) == 0
        out = capsys.readouterr().out
        assert "64^2" in out and "300.0 ns" in out

    def test_verb_prints_instead_of_writing(self, tmp_path, capsys):
        """results/paper/full/ holds the committed full renders; an alias
        prints instead of rewriting them."""
        assert main(["shapes"]) == 0
        assert "wrote" not in capsys.readouterr().out
        assert not (tmp_path / "results" / "paper").exists()


class TestExperimentCommand:
    """`repro experiment <id>`: the sections claiming the id, regenerated
    at the full profile and golden-checked."""

    @pytest.fixture(autouse=True)
    def _cwd_with_goldens(self, tmp_path, monkeypatch):
        gold = tmp_path / "results" / "paper" / "golden"
        gold.parent.mkdir(parents=True)
        gold.symlink_to(GOLDEN_ROOT, target_is_directory=True)
        monkeypatch.chdir(tmp_path)

    def test_single_experiment(self, capsys):
        assert main(["experiment", "E5"]) == 0
        out = capsys.readouterr().out
        assert "| IV-A | 26.67 | 10.4 |" in out
        assert "2 tables compared, 0 drifting cells" in out

    def test_case_insensitive(self, capsys):
        assert main(["experiment", "e7"]) == 0
        assert "0 drifting cells" in capsys.readouterr().out

    def test_sectionless_id_exits_2(self, capsys):
        assert main(["experiment", "E13"]) == 2
        err = capsys.readouterr().err
        assert "E13 has no paper section" in err
        assert "docs/REPRODUCING.md" in err

    def test_drift_exits_1(self, tmp_path, capsys):
        gold = tmp_path / "results" / "paper" / "golden"
        gold.unlink()
        shutil.copytree(GOLDEN_ROOT, gold)
        path = gold / "full" / "section-4" / "section-4-speedups.json"
        data = json.loads(path.read_text())
        data["rows"][0]["hypermesh_vs_mesh"] = 27.0
        path.write_text(json.dumps(data))
        assert main(["experiment", "E5"]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out and "'hypermesh_vs_mesh'" in out

    def test_failed_task_exits_1(self, monkeypatch, capsys):
        import repro.paper.sections as sections

        def crash(params):
            raise RuntimeError("injected section crash")

        monkeypatch.setattr(sections, "run_section_task", crash)
        assert main(["experiment", "E5"]) == 1
        assert "section section-4 failed" in capsys.readouterr().err


class TestPaperCommand:
    """The `repro paper` pipeline verb (full flows live in tests/paper/)."""

    @pytest.fixture(autouse=True)
    def _isolated_cwd(self, tmp_path, monkeypatch):
        # The routed section's tasks write the disk plan cache under the
        # working directory; keep every test out of the repo tree.
        monkeypatch.chdir(tmp_path)

    def _run(self, tmp_path, *extra):
        return main([
            "paper", "--profile", "smoke", "--sections", "table-1a",
            "--root", str(tmp_path / "paper"),
            "--store", str(tmp_path / "campaigns"), *extra,
        ])

    def test_list(self, capsys):
        assert main(["paper", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table-1a" in out and "comm-avoiding" in out

    def test_run_writes_tables(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "cache hits" in out
        tables = tmp_path / "paper" / "smoke" / "table-1a" / "tables"
        assert (tables / "table-1a.json").exists()
        assert "Table 1A" in (tables / "table-1a.md").read_text()

    def test_check_without_goldens_is_distinct_error(self, tmp_path, capsys):
        assert self._run(tmp_path, "--check") == 2
        captured = capsys.readouterr()
        assert "MISSING GOLDEN" in captured.out
        assert "error: missing goldens" in captured.err

    def test_write_golden_then_check_passes(self, tmp_path, capsys):
        assert self._run(tmp_path, "--write-golden") == 0
        assert self._run(tmp_path, "--check") == 0
        assert "0 drifting cells" in capsys.readouterr().out

    def test_perturbed_golden_fails_with_named_cell(self, tmp_path, capsys):
        import json

        assert self._run(tmp_path, "--write-golden") == 0
        golden = (tmp_path / "paper" / "golden" / "smoke" / "table-1a"
                  / "table-1a.json")
        data = json.loads(golden.read_text())
        data["rows"][0]["diameter"] = 999_999
        golden.write_text(json.dumps(data))
        assert self._run(tmp_path, "--check") == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out and "'diameter'" in out and "999999" in out

    def test_unknown_section_is_usage_error(self, tmp_path, capsys):
        assert main(["paper", "--sections", "table-9z",
                     "--root", str(tmp_path / "paper"),
                     "--store", str(tmp_path / "campaigns")]) == 2
        assert "unknown paper section" in capsys.readouterr().err


class TestTraceCommand:
    def test_single_topology_writes_named_file(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        rc = main(["trace", "hypermesh2d", "--n", "16", "--out", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        from repro.obs import read_trace

        events = read_trace(out)  # strict: schema + field sets enforced
        assert events[0].type == "trace.meta"
        assert {e.type for e in events} >= {"link.util", "link.queue", "link.total"}

    def test_all_writes_one_trace_per_topology(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        rc = main(["trace", "all", "--n", "16", "--out", str(out)])
        assert rc == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [
            "run-hypercube.jsonl", "run-hypermesh2d.jsonl", "run-mesh2d.jsonl",
        ]
        assert capsys.readouterr().out.count("wrote") == 3

    def test_summary_prints_top_channels(self, tmp_path, capsys):
        rc = main(["trace", "hypermesh2d", "--n", "16",
                   "--out", str(tmp_path / "t.jsonl"), "--summary"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "channel" in out and "net:" in out

    def test_unknown_target_exits_2(self, tmp_path, capsys):
        rc = main(["trace", "moebius", "--out", str(tmp_path / "t.jsonl")])
        assert rc == 2
        assert "unknown trace target" in capsys.readouterr().err

    def test_numpy_backend_traces_identically(self, tmp_path, capsys):
        """At --n 1024 the CLI's trace must match a library run of the
        same workload under the same probe."""
        from repro.obs import (
            JsonlTraceFile, LinkUtilizationProbe, Tracer, read_trace,
        )
        from repro.sim import route_demands
        from repro.sim.task import build_topology, build_workload

        a, b = tmp_path / "cli.jsonl", tmp_path / "library.jsonl"
        assert main(["trace", "mesh2d", "--n", "1024", "--out", str(a)]) == 0
        topology = build_topology("mesh2d", 1024)
        sources, dests = build_workload("bit-reversal", 1024, 0)
        tracer = Tracer("mesh2d/bit-reversal/n=1024/seed=0", JsonlTraceFile(b))
        probe = LinkUtilizationProbe(
            topology, sources, dests=dests, tracer=tracer
        )
        route_demands(
            topology, list(zip(sources, dests)), on_step=probe, timing=True,
        )
        probe.finish()
        tracer.close()
        # Same workload, same core: both runs must emit the same step/link
        # events (host timing aside, which read_trace keeps out of the
        # typed payloads compared here).
        strip = {"seconds", "total_seconds", "mean_step_seconds"}
        events_a = [
            (e.type, {k: v for k, v in e.data.items() if k not in strip})
            for e in read_trace(a) if e.type != "trace.meta"
        ]
        events_b = [
            (e.type, {k: v for k, v in e.data.items() if k not in strip})
            for e in read_trace(b) if e.type != "trace.meta"
        ]
        assert events_a and events_a == events_b

    def test_unknown_backend_exits_2(self, tmp_path, capsys):
        """The engine picks its core itself: --backend is no option."""
        with pytest.raises(SystemExit) as exc:
            main(["trace", "mesh2d", "--n", "16", "--backend", "numpy",
                  "--out", str(tmp_path / "t.jsonl")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, tmp_path, capsys):
        rc = main(["trace", "mesh2d", "--n", "16", "--workload", "storm",
                   "--out", str(tmp_path / "t.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "storm" in err

    def test_invalid_node_count_exits_2(self, tmp_path, capsys):
        rc = main(["trace", "mesh2d", "--n", "7",
                   "--out", str(tmp_path / "t.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestProfileCommand:
    def test_list(self, capsys):
        assert main(["profile", "list"]) == 0
        out = capsys.readouterr().out
        assert "engine-hypermesh" in out and "fft" in out

    def test_profile_writes_json_report(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        rc = main(["profile", "fft", "--top", "3", "--output", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        import json

        report = json.loads(out.read_text())
        assert report["benchmark"] == "fft"
        assert len(report["top"]) == 3

    def test_unknown_benchmark_exits_2(self, capsys):
        assert main(["profile", "no-such"]) == 2
        assert "unknown profile benchmark" in capsys.readouterr().err


class TestCampaignCommands:
    def test_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.splitlines()]
        assert "engine-sweep" in names and "paper" in names
        assert "experiments" not in names

    def test_run_status_report_cycle(self, tmp_path, capsys):
        store = str(tmp_path)
        rc = main(
            ["campaign", "run", "engine-sweep-small",
             "--workers", "2", "--store", store]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "8/8 ok" in out and "8 executed" in out

        # Second run: everything served from the content-addressed store.
        assert main(["campaign", "run", "engine-sweep-small", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "8 cache hits, 0 executed" in out

        assert main(["campaign", "status", "engine-sweep-small",
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "ok: 8  failed: 0" in out and "to run on resume: 0" in out

        report_path = tmp_path / "report.json"
        assert main(["campaign", "report", "engine-sweep-small",
                     "--store", store, "--output", str(report_path)]) == 0
        import json

        report = json.loads(report_path.read_text())
        assert report["benchmark"] == "repro.campaign::engine-sweep-small"
        assert report["summary"]["ok"] == 8

    def test_run_spec_file_with_injected_failure(self, tmp_path, capsys):
        from repro.campaign import CampaignSpec, TaskSpec

        spec = CampaignSpec(
            "ci-smoke",
            (
                TaskSpec("repro.campaign.testing:echo_task", {"index": 0}),
                TaskSpec("repro.campaign.testing:failing_task",
                         {"message": "smoke-boom"}),
                TaskSpec("repro.campaign.testing:echo_task", {"index": 2}),
            ),
        )
        path = spec.save(tmp_path / "spec.json")
        rc = main(
            ["campaign", "run", str(path), "--workers", "2",
             "--retries", "0", "--store", str(tmp_path / "store")]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "2/3 ok" in captured.out
        assert "smoke-boom" in captured.err

    @pytest.mark.parametrize("flag, value, message", [
        ("--workers", "0", "workers must be >= 1"),
        ("--retries", "-1", "retries must be >= 0"),
        ("--timeout", "0", "task_timeout must be > 0 seconds"),
        ("--timeout", "-1", "task_timeout must be > 0 seconds"),
    ])
    def test_run_rejects_an_out_of_range_setting(
        self, tmp_path, capsys, flag, value, message
    ):
        rc = main(["campaign", "run", "engine-sweep-small", flag, value,
                   "--store", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "engine-sweep-small" / "manifest.jsonl").exists()

    def test_run_prints_the_spec_columns_per_task(self, tmp_path, capsys):
        from repro.campaign import CampaignSpec, TaskSpec

        spec = CampaignSpec(
            "columns",
            (
                TaskSpec("repro.sim.task:run_routing_task",
                         {"topology": "mesh2d", "n": 16,
                          "workload": "bit-reversal", "certify": True},
                         label="route"),
                TaskSpec("repro.campaign.testing:failing_task",
                         {"message": "boom"}, label="boom"),
            ),
            meta={"columns": ["steps", "bound_ratio", "absent"]},
        )
        path = spec.save(tmp_path / "spec.json")
        rc = main(["campaign", "run", str(path), "--retries", "0",
                   "--store", str(tmp_path / "store")])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        start = lines.index(next(
            l for l in lines
            if l.split() == ["task", "steps", "bound_ratio", "absent"]
        ))
        # Floats print to two decimals; a missing key or a failed task "-".
        assert [l.split() for l in lines[start + 2:start + 4]] == [
            ["route", "6", "1.00", "-"], ["boom", "-", "-", "-"]
        ]

    def test_run_unknown_campaign(self, capsys):
        assert main(["campaign", "run", "no-such-campaign"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_status_unknown_campaign(self, tmp_path, capsys):
        rc = main(["campaign", "status", "ghost", "--store", str(tmp_path)])
        assert rc == 2
        assert "no campaign" in capsys.readouterr().err


class TestPlansCommands:
    @staticmethod
    def _record_plan(root):
        from repro.networks import Mesh2D
        from repro.routing import bit_reversal
        from repro.sim import PlanCache, route_permutation

        cache = PlanCache(root)
        route_permutation(Mesh2D(4), bit_reversal(16), cache=cache)
        return cache

    def test_list_empty(self, tmp_path, capsys):
        assert main(["plans", "list", "--root", str(tmp_path)]) == 0
        assert "no plans" in capsys.readouterr().out

    def test_list_shows_recorded_plans(self, tmp_path, capsys):
        self._record_plan(tmp_path)
        assert main(["plans", "list", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 plans" in out
        assert "mesh" in out  # topology fingerprint surfaces in the key column

    def test_list_labels_a_non_object_blob_corrupt(self, tmp_path, capsys):
        [blob] = self._record_plan(tmp_path).disk_blobs()
        blob.write_text("[1, 2, 3]")
        assert main(["plans", "list", "--root", str(tmp_path)]) == 0
        assert "(corrupt blob)" in capsys.readouterr().out

    def test_clear_removes_plans(self, tmp_path, capsys):
        cache = self._record_plan(tmp_path)
        assert main(["plans", "clear", "--root", str(tmp_path)]) == 0
        assert "removed 1 plans" in capsys.readouterr().out
        assert cache.disk_blobs() == []

    def test_stats_reports_inventory_and_counters(self, tmp_path, capsys):
        self._record_plan(tmp_path)
        assert main(["plans", "stats", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "plans:" in out and "hits:" in out and "hit-rate:" in out

    def test_stats_exports_counter_events(self, tmp_path, capsys):
        from repro.obs import read_trace

        self._record_plan(tmp_path)
        trace = tmp_path / "plans.jsonl"
        rc = main(
            ["plans", "stats", "--root", str(tmp_path),
             "--trace-out", str(trace)]
        )
        assert rc == 0
        events = read_trace(trace)
        names = {e.data["name"] for e in events if e.type == "counter"}
        assert {"plancache.hits", "plancache.misses"} <= names

    @pytest.mark.parametrize("subcommand", ["list", "clear", "stats"])
    def test_root_that_is_a_file_exits_2(self, subcommand, tmp_path, capsys):
        bogus = tmp_path / "plans.json"
        bogus.write_text("{}")
        rc = main(["plans", subcommand, "--root", str(bogus)])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err


class TestFaultsCommand:
    """``repro faults`` is ``campaign run chaos-sweep --force``: the
    degraded-mode grid, with partitioned cells as data, not failures."""

    @pytest.fixture(autouse=True)
    def _isolated_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @staticmethod
    def _row(out: str, label: str) -> list[str]:
        [line] = [l for l in out.splitlines() if l.split()[:1] == [label]
                  and "OK" not in l.split()]
        return line.split(maxsplit=6)

    def test_point_to_point_sweep_prints_cliff(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "30/30 ok" in out
        # The mesh2d-n64 column is the old default `repro faults` table.
        for frac, steps in (("0.0", "13"), ("0.05", "13"), ("0.1", "13"),
                            ("0.2", "14")):
            row = self._row(out, f"mesh2d-n64-frac{frac}")
            assert row[1:3] == [steps, "64"]
        # 20 % of a 16x16 mesh's links down partitions it under the fixed
        # fault seed: the cliff is reported as data, not as a crash.
        row = self._row(out, "mesh2d-n256-frac0.2")
        assert row[1:6] == ["-", "-", "-", "-", "1"]
        assert "partition the network" in row[6]

    def test_hypermesh_sweeps_degraded_nets(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        for degraded in range(3):
            row = self._row(out, f"hypermesh2d-n64-degraded{degraded}")
            assert row[2] == "64"  # every packet delivered
        # Serializing a net costs steps.
        assert int(self._row(out, "hypermesh2d-n64-degraded1")[1]) > int(
            self._row(out, "hypermesh2d-n64-degraded0")[1]
        )

    def test_drop_prob_column_reports_retries(self, tmp_path, capsys):
        """A custom fault grid is a spec-JSON file; meta["columns"] picks
        the payload keys its table shows."""
        from repro.campaign import CampaignSpec, TaskSpec

        spec = CampaignSpec(
            "drop-sweep",
            tuple(
                TaskSpec(
                    "repro.sim.task:run_routing_task",
                    {"topology": "mesh2d", "n": 16,
                     "workload": "dense-permutation", "seed": 99,
                     "fault": {"seed": 99, "drop_prob": 0.5, **limit}},
                    label=f"drop-{i}",
                )
                for i, limit in enumerate(({}, {"retry_limit": 1}))
            ),
            meta={"columns": ["delivered", "dropped", "retried"]},
        )
        path = spec.save(tmp_path / "drop-sweep.json")
        assert main(["campaign", "run", str(path)]) == 0
        out = capsys.readouterr().out
        rows = {l.split()[0]: l.split()[1:] for l in out.splitlines()
                if l.startswith("drop-") and "OK" not in l}
        assert int(rows["drop-0"][2]) > 0  # retries happened
        assert int(rows["drop-1"][1]) > 0  # retry_limit=1 drops packets

    def test_stats_column_width_fits_fault_bypassed(self, capsys):
        assert main(["plans", "stats"]) == 0
        out = capsys.readouterr().out
        # Every counter label is padded to its own column; the longest
        # (fault_bypassed) must not run into its value.
        assert "fault_bypassed: " in out


class TestCertifyCommand:
    """``repro certify`` is ``campaign run certify --force``: 48 cells,
    each certified against its repro.bounds floor (CI's cert-gate)."""

    @pytest.fixture(autouse=True)
    def _isolated_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @staticmethod
    def _payload_rows(out: str) -> dict[str, list[str]]:
        lines = out.splitlines()
        start = lines.index(next(
            l for l in lines
            if l.split() == ["task", "steps", "bound", "bound_ratio",
                             "bound_kind"]
        ))
        return {l.split()[0]: l.split()[1:] for l in lines[start + 2:start + 50]}

    def test_small_sweep_certifies_every_cell(self, capsys):
        assert main(["certify"]) == 0
        out = capsys.readouterr().out
        assert "48/48 ok" in out
        rows = self._payload_rows(out)
        assert len(rows) == 48
        for steps, bound, ratio, kind in rows.values():
            assert int(steps) >= int(bound)
            assert float(ratio) >= 1.0 and kind != "-"
        assert rows["bit-reversal-torus2d-n16"] == ["4", "3", "1.33", "distance"]

    def test_wrong_spectrum_fails_the_cell(self, capsys, monkeypatch):
        """A wrong APE FFT spectrum is a failing cell named by its error
        and exit 1 — a raised check, which ``python -O`` keeps.  The
        campaign's workers fork, so they inherit the patch."""
        import dataclasses

        from repro.fft import ape

        real = ape.parallel_fft_ape

        def wrong(topology, samples, **kwargs):
            result = real(topology, samples, **kwargs)
            return dataclasses.replace(result, spectrum=result.spectrum + 1)

        monkeypatch.setattr(ape, "parallel_fft_ape", wrong)
        assert main(["certify"]) == 1
        captured = capsys.readouterr()
        assert "40/48 ok, 8 failed" in captured.out
        rows = self._payload_rows(captured.out)
        assert rows["ape-fft-mesh2d-n16"] == ["-", "-", "-", "-"]
        assert rows["bit-reversal-mesh2d-n16"][3] == "distance"
        assert captured.err.startswith("error:")
        assert "-- ape-fft-mesh2d-n16 [exception] --" in captured.err
        assert "SpectrumMismatch" in captured.err
        assert "mesh2d n=16" in captured.err

    def test_staged_workloads_certify(self, capsys):
        assert main(["certify"]) == 0
        rows = self._payload_rows(capsys.readouterr().out)
        staged = [row for label, row in rows.items()
                  if label.startswith(("systolic", "hyper-systolic", "ape-fft"))]
        assert len(staged) == 24
        assert {row[3] for row in staged} == {"superstep-sum"}
