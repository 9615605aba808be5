"""Cell-level golden diffing for the regenerated paper tables.

A golden is the JSON form of one :class:`~repro.paper.sections.Table`,
checked in under ``results/paper/golden/<profile>/<section>/<table>.json``.
``repro paper --check`` regenerates every golden-flagged section and diffs
each table against its golden **cell by cell**: any drift is reported as a
named ``(table, row, column, expected, got)`` tuple and fails the run.
Only golden-flagged sections carry goldens: pure ASCII figures are
excluded by the registry's ``golden`` flag.

Comparison is exact over the JSON round trip: every golden-eligible value
is either closed-form arithmetic or a seeded measurement, so float noise
does not exist by construction — a mismatch is drift, not jitter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .sections import PAPER_SECTIONS, SectionArtifacts, Table

__all__ = [
    "GOLDEN_DIRNAME",
    "CellDiff",
    "GoldenReport",
    "golden_root",
    "golden_path",
    "compare_tables",
    "check_goldens",
    "write_goldens",
]

#: Subdirectory of the paper results root that holds the goldens.  It is
#: never a section id, so the runner cannot clobber it.
GOLDEN_DIRNAME = "golden"


@dataclass(frozen=True)
class CellDiff:
    """One divergent table cell, named precisely enough to act on."""

    section: str
    table: str
    row: str
    column: str
    expected: object
    got: object

    def __str__(self) -> str:
        return (
            f"{self.section}: table {self.table!r} row {self.row!r} "
            f"column {self.column!r}: expected {self.expected!r}, "
            f"got {self.got!r}"
        )


@dataclass
class GoldenReport:
    """The outcome of one ``--check`` pass."""

    profile: str
    checked: int = 0  # tables compared
    diffs: list[CellDiff] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # golden paths not found
    unexpected: list[str] = field(default_factory=list)  # goldens w/o table

    @property
    def ok(self) -> bool:
        return not (self.diffs or self.missing or self.unexpected)

    def format(self) -> str:
        lines = []
        for diff in self.diffs:
            lines.append(f"DRIFT  {diff}")
        for path in self.missing:
            lines.append(
                f"MISSING GOLDEN  {path} — run `repro paper --write-golden` "
                "after verifying the regenerated table"
            )
        for path in self.unexpected:
            lines.append(
                f"STALE GOLDEN  {path} — no regenerated table matches it"
            )
        status = "ok" if self.ok else "FAILED"
        lines.append(
            f"golden check [{self.profile}]: {self.checked} tables compared, "
            f"{len(self.diffs)} drifting cells, {len(self.missing)} missing, "
            f"{len(self.unexpected)} stale — {status}"
        )
        return "\n".join(lines)


def golden_root(root: Path | str, profile: str) -> Path:
    """The golden directory of ``profile`` under the results ``root``."""
    return Path(root) / GOLDEN_DIRNAME / profile


def golden_path(root: Path | str, profile: str, section: str,
                table: str) -> Path:
    return golden_root(root, profile) / section / f"{table}.json"


def _normalize(value: object) -> object:
    """JSON round trip, so in-memory tuples/ints compare like loaded ones."""
    return json.loads(json.dumps(value, sort_keys=True))


def _row_label(row: Mapping, columns: Sequence[str], index: int) -> str:
    """A stable human label for a row: its first-column value."""
    if columns:
        return str(row.get(columns[0], index))
    return str(index)


def compare_tables(section: str, expected: Table, got: Table) -> list[CellDiff]:
    """Every cell where ``got`` diverges from the golden ``expected``."""
    diffs: list[CellDiff] = []
    name = expected.name
    if tuple(expected.columns) != tuple(got.columns):
        diffs.append(CellDiff(
            section, name, "<header>", "<columns>",
            list(expected.columns), list(got.columns),
        ))
        return diffs  # cell-by-cell comparison is meaningless across schemas
    if len(expected.rows) != len(got.rows):
        diffs.append(CellDiff(
            section, name, "<shape>", "<row-count>",
            len(expected.rows), len(got.rows),
        ))
    for i, (erow, grow) in enumerate(zip(expected.rows, got.rows)):
        label = _row_label(erow, expected.columns, i)
        for column in expected.columns:
            evalue = _normalize(erow.get(column))
            gvalue = _normalize(grow.get(column))
            if evalue != gvalue:
                diffs.append(CellDiff(section, name, label, column,
                                      evalue, gvalue))
    return diffs


def _load_golden(path: Path) -> Table:
    return Table.from_dict(json.loads(path.read_text()))


def check_goldens(
    artifacts: Mapping[str, SectionArtifacts],
    root: Path | str,
    profile: str,
    golden_dir: Path | str | None = None,
) -> GoldenReport:
    """Diff regenerated ``artifacts`` against the goldens for ``profile``.

    Only sections whose registry entry is golden-flagged participate.  A
    table without a golden file is reported as *missing* (a distinct
    failure from drift: the fix is ``--write-golden``, not a code hunt);
    a golden file without a regenerated table is reported as *stale*.
    """
    gold = Path(golden_dir) if golden_dir is not None else golden_root(
        root, profile)
    report = GoldenReport(profile=profile)
    for section, arts in artifacts.items():
        spec = PAPER_SECTIONS.get(section)
        if spec is None or not spec.golden:
            continue
        seen: set[str] = set()
        for table in arts.tables:
            path = gold / section / f"{table.name}.json"
            seen.add(path.name)
            if not path.exists():
                report.missing.append(str(path))
                continue
            expected = _load_golden(path)
            report.checked += 1
            report.diffs.extend(compare_tables(section, expected, table))
        section_dir = gold / section
        if section_dir.is_dir():
            for path in sorted(section_dir.glob("*.json")):
                if path.name not in seen:
                    report.unexpected.append(str(path))
    return report


def write_goldens(
    artifacts: Mapping[str, SectionArtifacts],
    root: Path | str,
    profile: str,
    golden_dir: Path | str | None = None,
) -> list[Path]:
    """(Re)write the goldens for every golden-flagged section; returns the
    written paths.  Stale goldens of rewritten sections are removed so the
    directory always mirrors the registry."""
    gold = Path(golden_dir) if golden_dir is not None else golden_root(
        root, profile)
    written: list[Path] = []
    for section, arts in artifacts.items():
        spec = PAPER_SECTIONS.get(section)
        if spec is None or not spec.golden:
            continue
        section_dir = gold / section
        section_dir.mkdir(parents=True, exist_ok=True)
        keep = {f"{t.name}.json" for t in arts.tables}
        for stale in section_dir.glob("*.json"):
            if stale.name not in keep:
                stale.unlink()
        for table in arts.tables:
            path = section_dir / f"{table.name}.json"
            path.write_text(
                json.dumps(table.to_dict(), indent=2, sort_keys=True) + "\n"
            )
            written.append(path)
    return written
