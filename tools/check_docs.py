#!/usr/bin/env python
"""Documentation checks: internal links resolve, OBSERVABILITY.md matches code.

Two checks, both run by the CI docs job and by
``tests/obs/test_docs_contract.py``:

1. **Link check** — every relative markdown link in README.md, EXPERIMENTS.md
   and docs/*.md must point at a file that exists (anchors are stripped;
   external ``http(s)://`` links are ignored).

2. **Contract drift check** — every generated doc block must byte-match
   what its in-code registry renders today:

   * the "Event types" section of ``docs/OBSERVABILITY.md`` comes from
     ``repro.obs.events`` (:data:`EVENT_TYPES`);
   * the service endpoint table in ``docs/API.md`` comes from
     ``repro.service.app`` (:data:`ENDPOINTS`);
   * the paper-sections table in ``docs/API.md`` comes from
     ``repro.paper.sections`` (:data:`PAPER_SECTIONS`);
   * the bound-families table in ``docs/BOUNDS.md`` comes from
     ``repro.bounds`` (:data:`BOUND_KINDS`).

   Each block sits between ``BEGIN/END GENERATED`` markers; run
   ``python tools/check_docs.py --write`` after changing a registry to
   regenerate them all.

3. **Experiment mapping check** — every ``## E<k>`` entry of
   EXPERIMENTS.md must be claimed by exactly one paper section
   (``repro.paper.sections``), or be listed in ``SECTIONLESS_EXPERIMENTS``
   and mapped in docs/REPRODUCING.md to a tier-1 test path that exists;
   every E-id a section claims must be such a heading.  A
   ``benchmarks/*.py`` path named in any checked doc must exist.

Exit code 0 when clean, 1 with a report of every failure otherwise.
Usage::

    PYTHONPATH=src python tools/check_docs.py [--write]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OBSERVABILITY = REPO / "docs" / "OBSERVABILITY.md"
API = REPO / "docs" / "API.md"
BEGIN = "<!-- BEGIN GENERATED: event types (tools/check_docs.py --write) -->"
SERVICE_BEGIN = (
    "<!-- BEGIN GENERATED: service endpoints (tools/check_docs.py --write) -->"
)
SECTIONS_BEGIN = (
    "<!-- BEGIN GENERATED: paper sections (tools/check_docs.py --write) -->"
)
BOUNDS = REPO / "docs" / "BOUNDS.md"
BOUNDS_BEGIN = (
    "<!-- BEGIN GENERATED: bound families (tools/check_docs.py --write) -->"
)
END = "<!-- END GENERATED -->"

EXPERIMENTS = REPO / "EXPERIMENTS.md"
REPRODUCING = REPO / "docs" / "REPRODUCING.md"

_EXPERIMENT_HEADING = re.compile(r"^## (E\d+) ", re.MULTILINE)
#: One experiment row of the docs/REPRODUCING.md table: its id, the rest.
_GUIDE_ROW = re.compile(r"^\| (E\d+) \|(.*)$", re.MULTILINE)
_TEST_PATH = re.compile(r"\btests/[\w/]+\.py\b")
_BENCH_PATH = re.compile(r"\bbenchmarks/\w+\.py\b")

#: Files whose relative links are checked.
LINKED_DOCS = ("README.md", "EXPERIMENTS.md", "ROADMAP.md", "DESIGN.md")

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _checked_docs() -> list[Path]:
    files = [REPO / name for name in LINKED_DOCS]
    files += sorted((REPO / "docs").glob("*.md"))
    return [doc for doc in files if doc.exists()]


def check_links() -> list[str]:
    """Relative markdown links that do not resolve, as error strings."""
    errors = []
    for doc in _checked_docs():
        for match in _LINK.finditer(doc.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (doc.parent / path).exists():
                errors.append(f"{doc.relative_to(REPO)}: broken link -> {target}")
    return errors


def render_event_types() -> str:
    """The canonical "Event types" block, straight from the registry."""
    from repro.obs.events import EVENT_TYPES, SCHEMA_VERSION

    lines = [
        BEGIN,
        "",
        f"Schema version: **{SCHEMA_VERSION}** (the `schema` field of every "
        "trace's opening `trace.meta` event).",
        "",
    ]
    for name in sorted(EVENT_TYPES):
        spec = EVENT_TYPES[name]
        lines.append(f"### `{name}` — {spec.stability}")
        lines.append("")
        lines.append(spec.doc)
        lines.append("")
        lines.append("| field | type | meaning |")
        lines.append("|---|---|---|")
        for fname, fspec in spec.fields.items():
            ftype, _, fdoc = fspec.partition(" — ")
            lines.append(f"| `{fname}` | `{ftype}` | {fdoc} |")
        lines.append("")
    lines.append(END)
    return "\n".join(lines)


def render_service_endpoints() -> str:
    """The canonical service endpoint table, from ``repro.service.app``."""
    from repro.service.app import ENDPOINTS

    lines = [
        SERVICE_BEGIN,
        "",
        "| method | path | name | description |",
        "|---|---|---|---|",
    ]
    for method, path, name, description in ENDPOINTS:
        lines.append(f"| `{method}` | `{path}` | {name} | {description} |")
    lines += ["", END]
    return "\n".join(lines)


def render_paper_sections() -> str:
    """The canonical paper-section table, from ``repro.paper.sections``.

    One row per registered section: its experiments (the E-ids of
    EXPERIMENTS.md), whether its tables are golden-checked by
    ``repro paper --check``, and the exact command that regenerates it.
    """
    from repro.paper.sections import PAPER_SECTIONS, section_command

    lines = [
        SECTIONS_BEGIN,
        "",
        "| section | title | experiments | golden-checked | regenerate |",
        "|---|---|---|---|---|",
    ]
    for spec in PAPER_SECTIONS.values():
        experiments = ", ".join(spec.experiments) or "—"
        golden = "yes" if spec.golden else "no"
        lines.append(
            f"| `{spec.section}` | {spec.title} | {experiments} | {golden} "
            f"| `{section_command(spec)}` |"
        )
    lines += ["", END]
    return "\n".join(lines)


def render_bound_families() -> str:
    """The canonical bound-families table, from ``repro.bounds``.

    One row per family :func:`repro.bounds.step_lower_bound` combines;
    adding a family without documenting it fails this check.
    """
    from repro.bounds import BOUND_KINDS

    lines = [
        BOUNDS_BEGIN,
        "",
        "| family | floor |",
        "|---|---|",
    ]
    for kind in BOUND_KINDS:
        lines.append(f"| `{kind.name}` | {kind.summary} |")
    lines += ["", END]
    return "\n".join(lines)


#: Every generated doc block: (file, BEGIN marker, renderer, registry name).
#: ``check_contract`` diffs each against its renderer; ``--write`` rewrites.
GENERATED_BLOCKS = (
    (OBSERVABILITY, BEGIN, render_event_types, "repro.obs.events.EVENT_TYPES"),
    (API, SERVICE_BEGIN, render_service_endpoints,
     "repro.service.app.ENDPOINTS"),
    (API, SECTIONS_BEGIN, render_paper_sections,
     "repro.paper.sections.PAPER_SECTIONS"),
    (BOUNDS, BOUNDS_BEGIN, render_bound_families,
     "repro.bounds.BOUND_KINDS"),
)


def check_experiments() -> list[str]:
    """The experiment-id ↔ paper-section mapping, drift-checked both ways.

    * every E-id a registered section claims must be an ``## E<k>``
      heading in EXPERIMENTS.md (no dangling references);
    * every EXPERIMENTS.md entry is claimed by exactly one section, or is
      listed in ``SECTIONLESS_EXPERIMENTS`` and its docs/REPRODUCING.md
      row names a tier-1 test path that exists;
    * every entry has a row in docs/REPRODUCING.md.
    """
    from collections import Counter

    from repro.paper.sections import PAPER_SECTIONS, SECTIONLESS_EXPERIMENTS

    errors = []
    documented = set(_EXPERIMENT_HEADING.findall(EXPERIMENTS.read_text()))
    claims = Counter(
        eid for spec in PAPER_SECTIONS.values() for eid in spec.experiments
    )
    for spec in PAPER_SECTIONS.values():
        for eid in spec.experiments:
            if eid not in documented:
                errors.append(
                    f"paper section {spec.section!r} references {eid}, "
                    "which has no '## E<k>' heading in EXPERIMENTS.md"
                )
    if not REPRODUCING.exists():
        errors.append("docs/REPRODUCING.md is missing")
        return errors
    rows = dict(_GUIDE_ROW.findall(REPRODUCING.read_text()))
    for eid in sorted(documented | set(SECTIONLESS_EXPERIMENTS),
                      key=lambda e: int(e[1:])):
        sectionless = eid in SECTIONLESS_EXPERIMENTS
        if eid not in documented:
            errors.append(
                f"SECTIONLESS_EXPERIMENTS lists {eid}, which has no "
                "'## E<k>' heading in EXPERIMENTS.md"
            )
        elif claims[eid] > 1:
            errors.append(
                f"EXPERIMENTS.md entry {eid} is claimed by {claims[eid]} "
                "paper sections; one must claim it"
            )
        elif claims[eid] == 1 and sectionless:
            errors.append(
                f"{eid} is claimed by a paper section and also listed in "
                "SECTIONLESS_EXPERIMENTS"
            )
        elif claims[eid] == 0 and not sectionless:
            errors.append(
                f"EXPERIMENTS.md entry {eid} is claimed by no paper section "
                "and is not in SECTIONLESS_EXPERIMENTS"
            )
        if eid not in rows:
            errors.append(
                f"EXPERIMENTS.md entry {eid} is not mapped in "
                "docs/REPRODUCING.md"
            )
        elif sectionless:
            paths = _TEST_PATH.findall(rows[eid])
            if not paths:
                errors.append(
                    f"docs/REPRODUCING.md maps {eid} to no tier-1 test path"
                )
            errors += [
                f"docs/REPRODUCING.md maps {eid} to {path}, which does "
                "not exist"
                for path in paths if not (REPO / path).exists()
            ]
    return errors


def check_bench_paths() -> list[str]:
    """``benchmarks/*.py`` paths named in a checked doc that do not exist."""
    return [
        f"{doc.relative_to(REPO)}: names {path}, which does not exist"
        for doc in _checked_docs()
        for path in sorted(set(_BENCH_PATH.findall(doc.read_text())))
        if not (REPO / path).exists()
    ]


def _check_block(doc: Path, begin: str, render, source: str, write: bool
                 ) -> list[str]:
    if not doc.exists():
        return [f"{doc.relative_to(REPO)} is missing"]
    text = doc.read_text()
    if begin not in text or END not in text.split(begin, 1)[-1]:
        return [
            f"{doc.relative_to(REPO)}: generated-block markers "
            f"missing ({begin!r} ... {END!r})"
        ]
    head, rest = text.split(begin, 1)
    body, tail = rest.split(END, 1)
    current = begin + body + END
    expected = render()
    if current == expected:
        return []
    if write:
        doc.write_text(head + expected + tail)
        print(f"rewrote the generated block in {doc.relative_to(REPO)}")
        return []
    return [
        f"{doc.relative_to(REPO)}: generated block has drifted from "
        f"{source} — run "
        "'PYTHONPATH=src python tools/check_docs.py --write' and commit"
    ]


def check_contract(write: bool = False) -> list[str]:
    """Compare (or, with ``write``, rewrite) every generated doc block."""
    errors = []
    for doc, begin, render, source in GENERATED_BLOCKS:
        errors += _check_block(doc, begin, render, source, write)
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="regenerate every generated doc block in place",
    )
    args = parser.parse_args(argv)

    errors = check_links() + check_contract(write=args.write)
    errors += check_experiments() + check_bench_paths()
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if not errors:
        print("docs ok: links resolve, generated blocks match code, "
              "experiment mapping complete")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
