"""Smoke tests for the CLI (every subcommand runs and prints key figures)."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import PAPER_VERBS, build_parser, main

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
        main(["fft", "--side", "4"])
        out = capsys.readouterr().out
        assert out.count("numpy-agreement=True") == 3

    def test_sort(self, capsys):
        main(["sort", "--side", "4"])
        out = capsys.readouterr().out
        assert out.count("sorted=True") == 3

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
    def test_point_to_point_sweep_prints_cliff(self, capsys):
        rc = main(
            ["faults", "--topology", "mesh2d", "--n", "16",
             "--fractions", "0", "0.3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "links failed" in out
        # The 0.3 row partitions this 4x4 mesh under the default fault
        # seed: the cliff is reported as data, not as a crash.
        assert "unroutable" in out
        assert "partition the network" in out

    def test_hypermesh_sweeps_degraded_nets(self, capsys):
        rc = main(
            ["faults", "--topology", "hypermesh2d", "--n", "16",
             "--max-degraded-nets", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "nets degraded" in out

    def test_drop_prob_column_reports_retries(self, capsys):
        rc = main(
            ["faults", "--topology", "mesh2d", "--n", "16",
             "--fractions", "0", "--drop-prob", "0.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "drop-prob=0.5" in out

    def test_stats_column_width_fits_fault_bypassed(self, capsys):
        assert main(["plans", "stats"]) == 0
        out = capsys.readouterr().out
        # Every counter label is padded to its own column; the longest
        # (fault_bypassed) must not run into its value.
        assert "fault_bypassed: " in out

    def test_unknown_workload_exits_2(self, capsys):
        rc = main(["faults", "--topology", "mesh2d", "--n", "16",
                   "--workload", "storm"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "storm" in err

    def test_invalid_node_count_exits_2(self, capsys):
        rc = main(["faults", "--topology", "mesh2d", "--n", "7"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_drop_prob_exits_2(self, capsys):
        rc = main(["faults", "--topology", "mesh2d", "--n", "16",
                   "--drop-prob", "1.5"])
        assert rc == 2
        assert "drop_prob" in capsys.readouterr().err

    def test_more_degraded_nets_than_the_machine_has_exits_2(self, capsys):
        # Hypermesh2D(4) has 8 nets; the sweep's last row degrades 9.
        rc = main(["faults", "--topology", "hypermesh2d", "--n", "16",
                   "--max-degraded-nets", "9"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "net 8" in err


class TestCertifyCommand:
    def test_small_sweep_certifies_every_cell(self, capsys):
        rc = main(
            ["certify", "--topologies", "mesh2d", "hypermesh2d",
             "--sizes", "16", "--workloads", "bit-reversal", "ape-fft"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "every cell holds" in out
        assert "VIOLATION" not in out
        # One row per (topology, workload) cell, each with its floor.
        assert out.count("bit-reversal") == 2
        assert out.count("ape-fft") == 2

    def test_staged_workloads_certify(self, capsys):
        rc = main(
            ["certify", "--topologies", "torus2d", "--sizes", "16",
             "--workloads", "systolic", "hyper-systolic"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "superstep-sum" in out

    def test_unknown_topology_exits_2(self, capsys):
        rc = main(["certify", "--topologies", "klein-bottle",
                   "--sizes", "16"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "klein-bottle" in err

    def test_unknown_workload_exits_2(self, capsys):
        rc = main(["certify", "--topologies", "mesh2d", "--sizes", "16",
                   "--workloads", "storm"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "storm" in err

    def test_invalid_size_exits_2(self, capsys):
        rc = main(["certify", "--topologies", "mesh2d", "--sizes", "7",
                   "--workloads", "bit-reversal"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
