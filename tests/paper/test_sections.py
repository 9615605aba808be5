"""The section registry: shape, determinism, and campaign expansion."""

import json
import re
from pathlib import Path

import pytest

from repro.campaign import builtin_campaign
from repro.paper.sections import (
    PAPER_SECTIONS,
    PROFILES,
    Figure,
    SectionArtifacts,
    SectionSpec,
    Table,
    paper_campaign,
    run_section_task,
    section_command,
)

SMOKE = PROFILES["smoke"]
REPO = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_ids_match_keys(self):
        for key, spec in PAPER_SECTIONS.items():
            assert spec.section == key

    def test_experiment_ids_are_well_formed(self):
        for spec in PAPER_SECTIONS.values():
            for eid in spec.experiments:
                assert re.fullmatch(r"E\d+", eid), (spec.section, eid)

    def test_experiment_ids_exist_in_experiments_md(self):
        documented = set(
            re.findall(r"^## (E\d+) ", (REPO / "EXPERIMENTS.md").read_text(),
                       re.MULTILINE)
        )
        for spec in PAPER_SECTIONS.values():
            assert set(spec.experiments) <= documented, spec.section

    def test_all_core_artifacts_registered(self):
        for section in ("table-1a", "table-1b", "table-2a", "table-2b",
                        "section-4", "section-5", "figures", "sweep"):
            assert section in PAPER_SECTIONS

    def test_golden_flags(self):
        assert PAPER_SECTIONS["table-1a"].golden
        # Pure ASCII figures are never goldens.
        assert not PAPER_SECTIONS["figures"].golden

    def test_section_command_names_the_section(self):
        spec = PAPER_SECTIONS["table-2a"]
        assert "--sections table-2a" in section_command(spec)

    def test_spec_validation_rejects_half_grid(self):
        with pytest.raises(ValueError, match="together"):
            SectionSpec("x", "x", (), "x",
                        task_grid=lambda p: (), assemble=None)

    def test_spec_validation_requires_a_producer(self):
        with pytest.raises(ValueError, match="no producer"):
            SectionSpec("x", "x", (), "x")


class TestProfiles:
    def test_smoke_is_smaller_than_full(self):
        full, smoke = PROFILES["full"], PROFILES["smoke"]
        assert smoke.num_pes < full.num_pes
        assert smoke.routed_n < full.routed_n
        assert max(smoke.sweep_exponents) < max(full.sweep_exponents)

    def test_params_round_trip(self):
        for profile in PROFILES.values():
            from repro.paper.sections import PaperProfile

            assert PaperProfile.from_params(profile.to_params()) == profile

    def test_profile_params_are_in_task_hash(self):
        full = PAPER_SECTIONS["table-1a"].tasks(PROFILES["full"])[0]
        smoke = PAPER_SECTIONS["table-1a"].tasks(PROFILES["smoke"])[0]
        assert full.task_hash != smoke.task_hash


class TestArtifactsModel:
    def test_table_round_trip(self):
        table = Table("t", "Title", ("a", "b"),
                      ({"a": 1, "b": 2.5}, {"a": "x", "b": True}))
        assert Table.from_dict(json.loads(
            json.dumps(table.to_dict()))) == table

    def test_markdown_contains_title_and_cells(self):
        table = Table("t", "My Title", ("a", "b"), ({"a": 1, "b": 2.5},))
        md = table.to_markdown()
        assert "### My Title" in md
        assert "| a | b |" in md
        assert "| 1 | 2.5 |" in md

    def test_markdown_formats_booleans(self):
        md = Table("t", "T", ("ok",), ({"ok": True},)).to_markdown()
        assert "| yes |" in md

    def test_figure_render(self):
        fig = Figure("f", "A Figure", "body")
        assert fig.render() == "== A Figure ==\nbody\n"

    def test_section_artifacts_round_trip(self):
        arts = SectionArtifacts(
            tables=(Table("t", "T", ("a",), ({"a": 1},)),),
            figures=(Figure("f", "F", "x"),),
        )
        assert SectionArtifacts.from_dict(arts.to_dict()) == arts


class TestComputedSections:
    @pytest.mark.parametrize("section", [
        s.section for s in PAPER_SECTIONS.values()
        if s.compute is not None
    ])
    def test_compute_is_deterministic_and_serializable(self, section):
        params = {"section": section, "schema": 1,
                  "profile": SMOKE.to_params()}
        first = run_section_task(params)
        second = run_section_task(params)
        assert json.loads(json.dumps(first)) == json.loads(
            json.dumps(second))
        arts = SectionArtifacts.from_dict(first)
        assert arts.tables or arts.figures

    def test_table_1a_has_all_networks(self):
        payload = run_section_task({
            "section": "table-1a", "schema": 1, "profile": SMOKE.to_params()
        })
        networks = {r["network"] for r in payload["tables"][0]["rows"]}
        assert {"2D mesh", "hypercube", "2D hypermesh"} <= networks

    def test_grid_section_labels_are_unique(self):
        for spec in PAPER_SECTIONS.values():
            tasks = spec.tasks(SMOKE)
            labels = [t.label for t in tasks]
            assert len(set(labels)) == len(labels), spec.section

    def test_run_section_task_rejects_grid_sections(self):
        with pytest.raises(ValueError, match="not registry-computed"):
            run_section_task({"section": "sweep",
                              "profile": SMOKE.to_params()})


class TestCampaignExpansion:
    def test_smoke_campaign_has_no_duplicate_hashes(self):
        spec = paper_campaign("smoke")
        hashes = [t.task_hash for t in spec.tasks]
        assert len(set(hashes)) == len(hashes)
        assert spec.name == "paper-smoke"

    def test_full_campaign_name(self):
        assert paper_campaign("full").name == "paper"

    def test_builtins_delegate_to_registry(self):
        assert len(builtin_campaign("paper-smoke")) == len(
            paper_campaign("smoke"))
        assert len(builtin_campaign("paper")) == len(paper_campaign("full"))

    def test_subset_selection(self):
        spec = paper_campaign("smoke", ["table-1a", "routed-steps"])
        assert len(spec) == 1 + 3  # one registry task + three routed tasks

    def test_unknown_profile(self):
        with pytest.raises(KeyError, match="unknown paper profile"):
            paper_campaign("huge")

    def test_unknown_section(self):
        with pytest.raises(ValueError, match="unknown paper section"):
            paper_campaign("smoke", ["table-1x"])
