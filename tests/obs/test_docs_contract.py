"""Documentation is part of the contract: run the docs CI checks as tests.

Tier-1 enforces what the CI docs job enforces — broken internal links or
drift between ``docs/OBSERVABILITY.md`` and the event registry fail the
suite, not just the workflow — and the ``repro.obs`` docstring examples
are executed so the documented snippets cannot rot.
"""

import doctest
import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


class TestDocsChecks:
    def test_internal_links_resolve(self):
        assert load_check_docs().check_links() == []

    def test_observability_doc_matches_event_registry(self):
        assert load_check_docs().check_contract() == []

    def test_rendered_block_covers_every_registered_type(self):
        from repro.obs import EVENT_TYPES

        rendered = load_check_docs().render_event_types()
        for name in EVENT_TYPES:
            assert f"### `{name}`" in rendered

    def test_main_exits_zero_when_clean(self, capsys):
        assert load_check_docs().main([]) == 0
        assert "docs ok" in capsys.readouterr().out

    def test_deleted_bench_path_in_a_doc_fails(self, tmp_path, monkeypatch):
        check_docs = load_check_docs()
        doc = tmp_path / "NOTES.md"
        doc.write_text("regenerate with `benchmarks/bench_table1a.py`\n")
        monkeypatch.setattr(check_docs, "REPO", tmp_path)
        monkeypatch.setattr(check_docs, "_checked_docs", lambda: [doc])
        [error] = check_docs.check_bench_paths()
        assert "benchmarks/bench_table1a.py" in error

    def test_sectionless_experiment_needs_an_existing_test(
        self, tmp_path, monkeypatch
    ):
        check_docs = load_check_docs()
        guide = tmp_path / "REPRODUCING.md"
        text = check_docs.REPRODUCING.read_text()
        guide.write_text(text.replace(
            "`pytest tests/fft/test_blocked.py`", "`pytest tests/fft/gone.py`"
        ).replace(
            "`pytest tests/models/test_wafer.py`", "by hand"
        ))
        monkeypatch.setattr(check_docs, "REPRODUCING", guide)
        errors = check_docs.check_experiments()
        assert errors == [
            "docs/REPRODUCING.md maps E15 to tests/fft/gone.py, which does "
            "not exist",
            "docs/REPRODUCING.md maps E21 to no tier-1 test path",
        ]


@pytest.mark.parametrize(
    "module_name",
    ["repro.obs.events", "repro.obs.collectors", "repro.obs.profile"],
)
def test_docstring_examples_run(module_name):
    module = __import__(module_name, fromlist=["_"])
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0, f"{module_name} lost its doctest examples"
