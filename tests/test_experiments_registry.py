"""The experiment registry: every EXPERIMENTS.md id, mapped onto the paper
section registry (``SectionSpec.experiments``) or onto tier-1 tests
(``SECTIONLESS_EXPERIMENTS``), and reproduced through ``repro experiment``."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.paper import check_goldens, run_paper
from repro.paper.sections import PAPER_SECTIONS, SECTIONLESS_EXPERIMENTS

REPO = Path(__file__).resolve().parents[1]
GOLDEN_ROOT = REPO / "results" / "paper" / "golden"

#: The paper's own results: Tables 1-2, Sections IV-V, Figs 1-3 and the
#: Section I/IV contrasts, each reproduced end to end.
PAPER_RESULTS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
                 "E10", "E11", "E13", "E14", "E16", "E19")


def _sections_of(eid):
    return [spec for spec in PAPER_SECTIONS.values() if eid in spec.experiments]


def _figures_1_2():
    from repro.networks import Hypermesh2D
    from repro.viz import render_hypermesh_2d, render_pe_node

    hm = Hypermesh2D(64)
    assert hm.num_nets() == 128
    assert hm.node_degree == 3
    assert render_hypermesh_2d(4) and render_pe_node(2)


def _figure_3():
    from repro.fft import butterfly_flow_graph

    g = butterfly_flow_graph(64)
    assert g.num_stages == 6
    assert [g.cross_bit(s) for s in range(6)] == [5, 4, 3, 2, 1, 0]


def _fft_4096_on_hypermesh():
    from repro.fft import parallel_fft
    from repro.networks import Hypermesh2D

    x = np.random.default_rng(0).normal(size=4096)
    result = parallel_fft(Hypermesh2D(64), x)
    assert np.allclose(result.spectrum, np.fft.fft(x))
    assert result.data_transfer_steps == 15


#: Checks for the ids that no golden table pins: the figures section is
#: structural (``golden=False``) and E13 has no section.
DIRECT_CHECKS = {
    "E8": _figures_1_2,
    "E9": _figure_3,
    "E13": _fft_4096_on_hypermesh,
}


@pytest.fixture
def cwd_with_goldens(tmp_path, monkeypatch):
    gold = tmp_path / "results" / "paper" / "golden"
    gold.parent.mkdir(parents=True)
    gold.symlink_to(GOLDEN_ROOT, target_is_directory=True)
    monkeypatch.chdir(tmp_path)


class TestRegistry:
    def test_lists_all(self):
        headings = re.findall(r"^## (E\d+) ",
                              (REPO / "EXPERIMENTS.md").read_text(), re.M)
        claimed = [eid for spec in PAPER_SECTIONS.values()
                   for eid in spec.experiments]
        ids = claimed + list(SECTIONLESS_EXPERIMENTS)
        assert sorted(ids) == sorted(headings)  # each id exactly once
        assert "E1" in ids and "E19" in ids

    def test_unknown_id(self, cwd_with_goldens, monkeypatch, capsys):
        """An unknown id is rejected before any section runs."""
        import repro.paper

        def must_not_run(*args, **kwargs):
            raise AssertionError("run_paper called for an unknown id")

        monkeypatch.setattr(repro.paper, "run_paper", must_not_run)
        assert main(["experiment", "E99"]) == 2
        assert not _sections_of("E99")
        assert "E99" not in SECTIONLESS_EXPERIMENTS


@pytest.mark.parametrize("eid", PAPER_RESULTS)
def test_every_registered_experiment_reproduces(eid, cwd_with_goldens, capsys):
    specs = _sections_of(eid)
    assert specs or eid in SECTIONLESS_EXPERIMENTS
    assert any(spec.golden for spec in specs) or eid in DIRECT_CHECKS
    if specs:
        assert main(["experiment", eid]) == 0
        out = capsys.readouterr().out
        assert "0 drifting cells, 0 missing" in out
        if any(spec.golden for spec in specs):
            assert " 0 tables compared" not in out
    else:
        assert main(["experiment", eid]) == 2
    if eid in DIRECT_CHECKS:
        DIRECT_CHECKS[eid]()


class TestCampaignEntryPoint:
    """Every section runs as one paper campaign, one
    ``repro.paper.sections:run_section_task`` per task."""

    def test_run_all_through_campaign(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the routed tasks' plan cache
        result = run_paper(profile="full", root=tmp_path / "paper",
                           store_root=tmp_path / "campaigns", workers=2,
                           write=False)
        assert result.ok, result.failed_sections
        assert result.campaign.ok
        assert len(result.campaign.records) == len(result.campaign.spec.tasks)
        assert set(result.artifacts) == set(PAPER_SECTIONS)
        report = check_goldens(result.artifacts, tmp_path / "paper", "full",
                               golden_dir=GOLDEN_ROOT / "full")
        assert report.ok, report.format()


class TestCli:
    def test_all(self, cwd_with_goldens, capsys):
        assert main(["experiment", "all"]) == 0
        out = capsys.readouterr().out
        assert "15 tables compared, 0 drifting cells, 0 missing" in out
        assert "| IV-A | 26.67 | 10.4 |" in out and "300.0 ns" in out

    def test_unknown_id_exit_code(self, cwd_with_goldens, capsys):
        assert main(["experiment", "E99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'E99'" in err
        assert "REPRODUCING" not in err
