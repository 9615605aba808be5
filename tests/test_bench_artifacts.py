"""Schema validation for the checked-in ``BENCH_*.json`` artifacts.

The benchmark artifacts are the repo's performance claims of record, so
their shape is enforced like code: required top-level keys per artifact,
``equivalent: true`` on every row that claims bit-identity, no null
timings anywhere, engine rows timed with repeats and a spread, and —
since the bound certifier landed — every engine/faults row carries
``certified: true`` with ``bound <= steps``.
"""

import json
import math
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
ARTIFACTS = sorted(REPO.glob("BENCH_*.json"))

#: Required top-level keys per artifact.  Every artifact must additionally
#: carry ``benchmark`` (the recorder's provenance string).
REQUIRED_KEYS = {
    "BENCH_campaign.json": {"summary", "rows", "spec_hash", "meta"},
    "BENCH_engine.json": {
        "engines", "baseline", "equivalence", "timing", "host", "sizes",
        "backends", "rows",
    },
    "BENCH_faults.json": {
        "engine", "baseline", "equivalence", "timing", "sizes", "backends",
        "rows", "unroutable_cells",
    },
    "BENCH_plancache.json": {"engine", "baseline", "equivalence", "sizes", "rows"},
    "BENCH_service.json": {
        "engine", "baseline", "job", "loads", "warm_speedup_p50",
        "coalescing", "failures",
    },
}

#: Row keys every routable row of the two engine-layer artifacts must have.
ENGINE_ROW_KEYS = {
    "topology", "n", "workload", "backend", "packets", "steps",
    "total_hops", "samples", "engine_seconds", "engine_iqr_seconds",
    "seed_engine_seconds", "seed_engine_iqr_seconds", "speedup",
    "equivalent", "bound", "bound_ratio", "bound_kind", "certified",
}
FAULTS_ROW_KEYS = {
    "topology", "n", "axis", "amount", "backend", "unroutable", "steps",
    "total_hops", "delivered", "dropped", "retried", "route_seconds",
    "speedup_vs_indexed", "equivalent", "steps_vs_fault_free",
    "hops_vs_fault_free", "bound", "bound_ratio", "bound_kind", "certified",
}


def _load(name):
    path = REPO / name
    if not path.exists():
        pytest.skip(f"{name} not present in this checkout")
    return json.loads(path.read_text())


def _timing_values(obj, path=""):
    """Yield every (json path, value) whose key looks like a timing."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            here = f"{path}.{k}" if path else k
            if isinstance(v, (dict, list)):
                yield from _timing_values(v, here)
            elif k.endswith("_seconds") or k.endswith("_ns"):
                yield here, v
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _timing_values(v, f"{path}[{i}]")


def test_every_artifact_is_tracked():
    """Each checked-in BENCH artifact has a required-keys contract here —
    a new artifact must register its schema, not ride along unchecked."""
    names = {p.name for p in ARTIFACTS}
    assert names == set(REQUIRED_KEYS), (
        "artifact set drifted from the schema registry: "
        f"{sorted(names ^ set(REQUIRED_KEYS))}"
    )


@pytest.mark.parametrize("name", sorted(REQUIRED_KEYS))
def test_required_keys_present(name):
    data = _load(name)
    assert "benchmark" in data, f"{name} lost its provenance string"
    missing = REQUIRED_KEYS[name] - set(data)
    assert not missing, f"{name} missing required keys: {sorted(missing)}"


@pytest.mark.parametrize("name", sorted(REQUIRED_KEYS))
def test_no_null_timings_outside_gpu_unavailable_rows(name):
    """Every timing is a real, finite measurement.  No row is exempt: the
    exemption for ``gpu_available: false`` rows went with the GPU
    backend."""
    data = _load(name)
    for here, value in _timing_values(data):
        assert value is not None, f"{name}: null timing at {here}"
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"{name}: non-finite timing at {here}: {value!r}"
        )


@pytest.mark.parametrize(
    "name", ["BENCH_engine.json", "BENCH_faults.json", "BENCH_plancache.json"]
)
def test_equivalence_rows_claim_and_hold(name):
    """Artifacts whose contract says 'equivalent: true' per row must have
    it on every routable row — no silently unverified cells."""
    data = _load(name)
    if name == "BENCH_plancache.json":
        return  # replay equality asserted at record time, no per-row flag
    for row in data["rows"]:
        if row.get("unroutable"):
            continue
        assert row.get("equivalent") is True, f"{name}: unverified row {row}"


def test_engine_rows_are_certified():
    data = _load("BENCH_engine.json")
    assert data["rows"], "BENCH_engine.json has no rows"
    for row in data["rows"]:
        assert set(row) == ENGINE_ROW_KEYS, f"row keys drifted: {sorted(row)}"
        assert row["samples"] > 1, f"single-sample timing: {row}"
        assert row["engine_iqr_seconds"] >= 0
        assert row["seed_engine_iqr_seconds"] >= 0
        assert row["certified"] is True
        assert 0 <= row["bound"] <= row["steps"]
        assert row["bound_ratio"] is None or row["bound_ratio"] >= 1.0


def test_faults_rows_are_certified():
    data = _load("BENCH_faults.json")
    routable = [r for r in data["rows"] if not r["unroutable"]]
    assert routable, "BENCH_faults.json has no routable rows"
    for row in routable:
        assert set(row) == FAULTS_ROW_KEYS, f"row keys drifted: {sorted(row)}"
        assert row["certified"] is True
        assert 0 <= row["bound"] <= row["steps"]
    for row in data["rows"]:
        if row["unroutable"]:
            assert "error" in row, "unroutable row must explain itself"


def test_campaign_rows_all_succeeded():
    data = _load("BENCH_campaign.json")
    for row in data["rows"]:
        assert row["status"] == "ok", f"failed campaign row: {row['task']}"
        assert row["failure_kind"] is None


#: Timings are recorded rounded to 6 decimals and ratios to 2 (from the
#: unrounded seconds), so a ratio recomputed from the recorded fields may
#: differ from the recorded one by that much and no more.
_SECONDS_ULP = 5e-7
_RATIO_ULP = 0.005


def _ratio_supported(recorded, num, den):
    """Whether ``recorded`` is ``num / den`` up to the artifact's rounding."""
    lo = (num - _SECONDS_ULP) / (den + _SECONDS_ULP)
    hi = (num + _SECONDS_ULP) / (den - _SECONDS_ULP)
    return lo - _RATIO_ULP <= recorded <= hi + _RATIO_ULP


def test_engine_ratios_follow_from_their_timings():
    """Every committed engine speedup is the seed loop's median seconds
    over the core's, and the headline ``best_speedup_at_4096`` is the
    largest N=4096 row of its core."""
    data = _load("BENCH_engine.json")
    for row in data["rows"]:
        assert _ratio_supported(
            row["speedup"], row["seed_engine_seconds"], row["engine_seconds"]
        ), f"speedup not supported by its timings: {row}"
    best = data.get("best_speedup_at_4096")
    if 4096 in data["sizes"]:
        assert set(best) == set(data["backends"])
    for backend, cell in (best or {}).items():
        rows = [
            r for r in data["rows"]
            if r["n"] == 4096 and r["backend"] == backend
        ]
        assert cell["speedup"] == max(r["speedup"] for r in rows), backend
        assert any(
            (r["topology"], r["workload"], r["speedup"])
            == (cell["topology"], cell["workload"], cell["speedup"])
            for r in rows
        ), f"best {backend} cell names no row: {cell}"


def test_fault_ratios_follow_from_their_timings():
    """Every committed ``speedup_vs_indexed`` is the indexed row's route
    seconds over this row's on the same cell, and the headline
    ``best_degraded_speedup`` is the largest speedup-size row of its
    core."""
    data = _load("BENCH_faults.json")
    routable = [r for r in data["rows"] if not r["unroutable"]]
    cell = lambda r: (r["topology"], r["n"], r["axis"], r["amount"])  # noqa: E731
    indexed = {cell(r): r for r in routable if r["backend"] == "indexed"}
    assert len(indexed) == len(
        [r for r in routable if r["backend"] == "indexed"]
    ), "two indexed rows for one fault cell"
    for row in routable:
        base = indexed[cell(row)]
        assert _ratio_supported(
            row["speedup_vs_indexed"], base["route_seconds"],
            row["route_seconds"],
        ), f"speedup_vs_indexed not supported by its timings: {row}"
    best = data.get("best_degraded_speedup")
    if data["speedup_sizes"]:
        assert set(best) == set(data["backends"])
    for backend, top in (best or {}).items():
        rows = [
            r for r in routable
            if r["backend"] == backend and r["n"] in data["speedup_sizes"]
        ]
        assert top["speedup_vs_indexed"] == max(
            r["speedup_vs_indexed"] for r in rows
        ), backend
        assert any(
            (r["n"], r["axis"], r["amount"], r["speedup_vs_indexed"])
            == (top["n"], top["axis"], top["amount"],
                top["speedup_vs_indexed"])
            for r in rows
        ), f"best {backend} cell names no row: {top}"
