"""The paper-section registry: every regenerable artifact, one entry each.

``PAPER_SECTIONS`` maps a section id (``"table-1a"``, ``"figures"``,
``"section-4"``, ...) to a :class:`SectionSpec` describing one artifact of
Szymanski (ICPP 1992) — which EXPERIMENTS.md entries it covers, which
campaign tasks produce its data, and how those task payloads render into
tables (markdown + machine-readable JSON) and figures (ASCII text).  The
registry is the single source of truth for the ``repro paper`` pipeline:

* :func:`paper_campaign` expands the selected sections into one
  :class:`~repro.campaign.spec.CampaignSpec` (shared tasks deduplicated),
  so regeneration is resumable and content-addressed like any campaign;
* :mod:`repro.paper.runner` executes that campaign and writes the rendered
  artifacts under ``results/paper/<profile>/<section>/{tables,figures}``;
* :mod:`repro.paper.golden` diffs regenerated tables cell-by-cell against
  the checked-in goldens under ``results/paper/golden/<profile>/``;
* ``tools/check_docs.py`` renders the section ↔ experiment mapping into
  docs/API.md and fails CI when it drifts.

Two :class:`PaperProfile`\\ s are registered: ``full`` regenerates the
paper's own numbers (N = 4096 and the 4^k sweep up to ~1M PEs), ``smoke``
is the small-N grid CI runs on every push.  Profile *parameters* (not just
the profile name) are part of each task's content hash, so editing a
profile re-keys its tasks instead of serving stale cached payloads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Sequence

from ..campaign.spec import TaskSpec
from ..sim.task import TOPOLOGY_BUILDERS

__all__ = [
    "SECTION_SCHEMA_VERSION",
    "PaperProfile",
    "PROFILES",
    "Table",
    "Figure",
    "SectionArtifacts",
    "SectionSpec",
    "PAPER_SECTIONS",
    "SECTIONLESS_EXPERIMENTS",
    "resolve_sections",
    "paper_campaign",
    "run_section_task",
    "section_command",
    "list_sections",
]

#: Bumping this re-keys every registry-computed section task, forcing
#: regeneration even for unchanged (section, profile) pairs — the paper
#: pipeline's analogue of ``PLAN_SCHEMA_VERSION``.
SECTION_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PaperProfile:
    """One regeneration grid: the concrete sizes each section computes at.

    ``full`` reproduces the paper's own machine (N = 4096); ``smoke`` is a
    seconds-class grid for CI and local iteration.  Every field lands in
    the campaign task parameters, so two profiles never share cached
    payloads and an edited profile never serves stale ones.
    """

    name: str
    num_pes: int  # N for the tables and Section IV/V numbers
    sweep_exponents: tuple[int, ...]  # 4^k machine sizes for the E11 sweep
    routed_n: int  # node count for the adaptively-routed contrast
    omega_ports: int  # Omega-network size for the Section I contrast
    universality_pes: int  # machine size for measured random routing
    figure_side: int  # hypermesh side for the ASCII figures

    def to_params(self) -> dict:
        return asdict(self)

    @classmethod
    def from_params(cls, params: Mapping) -> "PaperProfile":
        return cls(
            name=str(params["name"]),
            num_pes=int(params["num_pes"]),
            sweep_exponents=tuple(int(k) for k in params["sweep_exponents"]),
            routed_n=int(params["routed_n"]),
            omega_ports=int(params["omega_ports"]),
            universality_pes=int(params["universality_pes"]),
            figure_side=int(params["figure_side"]),
        )


PROFILES: dict[str, PaperProfile] = {
    "full": PaperProfile(
        name="full",
        num_pes=4096,
        sweep_exponents=tuple(range(2, 11)),
        routed_n=1024,
        omega_ports=64,
        universality_pes=256,
        figure_side=4,
    ),
    "smoke": PaperProfile(
        name="smoke",
        num_pes=256,
        sweep_exponents=tuple(range(2, 6)),
        routed_n=64,
        omega_ports=16,
        universality_pes=64,
        figure_side=4,
    ),
}


def _fmt_cell(value: object) -> str:
    """One markdown table cell: floats trimmed, booleans spelled out."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class Table:
    """One regenerated table: named columns over JSON-serializable rows.

    The JSON form (``to_dict``) is the golden-checked artifact; the
    markdown form is the human-facing rendering of exactly the same cells.
    """

    name: str
    title: str
    columns: tuple[str, ...]
    rows: tuple[Mapping, ...]

    def to_dict(self) -> dict:
        return {
            "table": self.name,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(r) for r in self.rows],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Table":
        return cls(
            name=data["table"],
            title=data.get("title", data["table"]),
            columns=tuple(data["columns"]),
            rows=tuple(dict(r) for r in data["rows"]),
        )

    def to_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "---|" * len(self.columns))
        for row in self.rows:
            lines.append(
                "| "
                + " | ".join(_fmt_cell(row.get(c, "")) for c in self.columns)
                + " |"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Figure:
    """One regenerated figure: a titled block of ASCII text."""

    name: str
    title: str
    text: str

    def to_dict(self) -> dict:
        return {"figure": self.name, "title": self.title, "text": self.text}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Figure":
        return cls(
            name=data["figure"], title=data.get("title", data["figure"]),
            text=data["text"],
        )

    def render(self) -> str:
        return f"== {self.title} ==\n{self.text}\n"


@dataclass(frozen=True)
class SectionArtifacts:
    """Everything one section regenerates."""

    tables: tuple[Table, ...] = ()
    figures: tuple[Figure, ...] = ()

    def to_dict(self) -> dict:
        return {
            "tables": [t.to_dict() for t in self.tables],
            "figures": [f.to_dict() for f in self.figures],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SectionArtifacts":
        return cls(
            tables=tuple(Table.from_dict(t) for t in data.get("tables", ())),
            figures=tuple(Figure.from_dict(f) for f in data.get("figures", ())),
        )


# ---------------------------------------------------------------------------
# Section compute functions.  Each takes a profile and returns artifacts;
# registry-computed sections run inside campaign workers via
# run_section_task, and grid sections assemble payloads of existing entry
# points (run_routing_task, sweep_task).
# ---------------------------------------------------------------------------


def _compute_table_1a(profile: PaperProfile) -> SectionArtifacts:
    from ..models.tables import table_1a

    rows = table_1a(profile.num_pes)
    return SectionArtifacts(tables=(Table(
        "table-1a",
        f"Table 1A — hardware complexity before normalization (N={profile.num_pes})",
        ("network", "crossbars", "crossbars_formula", "degree",
         "degree_formula", "diameter", "diameter_formula"),
        tuple(rows),
    ),))


def _compute_table_1b(profile: PaperProfile) -> SectionArtifacts:
    from ..models.tables import table_1b
    from ..viz.series import format_bandwidth

    rows = [dict(r) for r in table_1b(profile.num_pes)]
    for row in rows:
        row["link_bw_h"] = format_bandwidth(row["link_bw"])
    return SectionArtifacts(tables=(Table(
        "table-1b",
        f"Table 1B — after equal-bandwidth normalization (N={profile.num_pes})",
        ("network", "link_bw", "link_bw_h", "link_bw_formula", "diameter",
         "d_over_bw"),
        tuple(rows),
    ),))


def _compute_table_2a(profile: PaperProfile) -> SectionArtifacts:
    from ..models.tables import table_2a

    return SectionArtifacts(tables=(Table(
        "table-2a",
        f"Table 2A — N-point FFT step counts (N={profile.num_pes})",
        ("network", "bitrev_steps", "bitrev_formula", "dt_steps",
         "total_steps", "total_formula"),
        tuple(table_2a(profile.num_pes)),
    ),))


def _compute_table_2b(profile: PaperProfile) -> SectionArtifacts:
    from ..models.tables import table_2b
    from ..viz.series import format_time

    rows = [dict(r) for r in table_2b(profile.num_pes)]
    for row in rows:
        row["step_time_h"] = format_time(row["step_time"])
        row["comm_time_h"] = format_time(row["comm_time"])
    return SectionArtifacts(tables=(Table(
        "table-2b",
        f"Table 2B — FFT execution time after normalization (N={profile.num_pes})",
        ("network", "dt_steps", "steps_formula", "step_time_h", "comm_time_h",
         "time_formula"),
        tuple(rows),
    ),))


#: The case grid of the Section IV worked comparison (plus the [13]
#: bitonic cross-check the same section quotes).
_SECTION4_CASES = (
    ("IV-A", {}),
    ("IV-A no bit-reversal", {"include_bitrev": False}),
    ("IV-B 20ns lines", {"propagation_delay": 20e-9}),
)


def _compute_section_4(profile: PaperProfile) -> SectionArtifacts:
    from ..core.complexity import NetworkKind
    from ..models.speedup import bitonic_comparison, section4_comparison
    from ..viz.series import format_time

    networks = (NetworkKind.MESH_2D, NetworkKind.HYPERCUBE,
                NetworkKind.HYPERMESH_2D)
    n = profile.num_pes
    cases = [(case, section4_comparison(n, **kwargs))
             for case, kwargs in _SECTION4_CASES]
    cases.append(("bitonic sort [13]", bitonic_comparison(n)))

    time_rows = []
    speedup_rows = []
    for case, cmp_ in cases:
        for kind in networks:
            t = cmp_.times[kind]
            time_rows.append({
                "case": case,
                "network": kind.value,
                "steps": round(float(t.steps), 4),
                "per_step": format_time(t.step_time),
                "total": format_time(t.total),
            })
        speedup_rows.append({
            "case": case,
            "hypermesh_vs_mesh": round(cmp_.speedup_vs_mesh, 2),
            "hypermesh_vs_hypercube": round(cmp_.speedup_vs_hypercube, 2),
        })
    return SectionArtifacts(tables=(
        Table(
            "section-4-times",
            f"Section IV — communication time per network (N={n})",
            ("case", "network", "steps", "per_step", "total"),
            tuple(time_rows),
        ),
        Table(
            "section-4-speedups",
            f"Section IV — hypermesh speedups (N={n})",
            ("case", "hypermesh_vs_mesh", "hypermesh_vs_hypercube"),
            tuple(speedup_rows),
        ),
    ))


def _compute_section_5(profile: PaperProfile) -> SectionArtifacts:
    from ..core.complexity import NetworkKind
    from ..hardware.technology import GAAS_1992
    from ..models.bisection import bisection_bandwidth_formula, bisection_ratios
    from ..viz.series import format_bandwidth

    n = profile.num_pes
    rows = []
    for kind in (NetworkKind.MESH_2D, NetworkKind.HYPERCUBE,
                 NetworkKind.HYPERMESH_2D):
        bb = bisection_bandwidth_formula(kind, n, GAAS_1992,
                                         paper_convention=True)
        rows.append({
            "network": kind.value,
            "crossing_channels": round(float(bb.channels), 4),
            "per_channel": format_bandwidth(bb.per_channel),
            "bisection_bw": format_bandwidth(bb.total),
        })
    r_mesh, r_hc = bisection_ratios(n, GAAS_1992)
    ratio_rows = (
        {"ratio": "hypermesh / mesh", "value": round(r_mesh, 4),
         "growth": "O(sqrt N): 2.5*sqrt(N)"},
        {"ratio": "hypermesh / hypercube", "value": round(r_hc, 4),
         "growth": "O(log N): log2(N)"},
    )
    return SectionArtifacts(tables=(
        Table(
            "section-5-bisection",
            f"Section V — bisection bandwidth, paper convention (N={n})",
            ("network", "crossing_channels", "per_channel", "bisection_bw"),
            tuple(rows),
        ),
        Table(
            "section-5-ratios",
            f"Section V — bisection ratios (N={n})",
            ("ratio", "value", "growth"),
            ratio_rows,
        ),
    ))


def _compute_figures(profile: PaperProfile) -> SectionArtifacts:
    from ..viz.diagrams import (
        render_butterfly_graph,
        render_hypermesh_2d,
        render_pe_node,
    )

    side = profile.figure_side
    points = 1 << min(4, (side * side).bit_length() - 1)
    return SectionArtifacts(figures=(
        Figure("fig-1", f"Fig. 1 — 2D hypermesh (side {side})",
               render_hypermesh_2d(side)),
        Figure("fig-2", "Fig. 2 — PE-node (one port per dimension)",
               render_pe_node(2)),
        Figure("fig-3", f"Fig. 3 — FFT data-flow graph ({points} points)",
               render_butterfly_graph(points)),
    ))


def _compute_omega(profile: PaperProfile) -> SectionArtifacts:
    import numpy as np

    from ..networks import OmegaNetwork
    from ..routing import (
        Permutation,
        bit_reversal,
        butterfly_exchange,
        route_permutation_3step,
    )

    n = profile.omega_ports
    om = OmegaNetwork(n)
    width = n.bit_length() - 1
    admissible = all(
        om.is_admissible(butterfly_exchange(n, b)) for b in range(width)
    )
    rev = bit_reversal(n)
    rng = np.random.default_rng(0)
    random_passes = [om.passes_required(Permutation.random(n, rng))
                     for _ in range(5)]
    rows = (
        {"permutation": "every FFT butterfly exchange",
         "omega_passes": 1 if admissible else "> 1",
         "hypermesh_steps": 1,
         "note": "admissible" if admissible else "inadmissible"},
        {"permutation": "bit reversal",
         "omega_passes": om.passes_required(rev),
         "hypermesh_steps": route_permutation_3step(rev).num_steps,
         "note": "Clos/Slepian-Duguid"},
        {"permutation": "5 random permutations (seed 0)",
         "omega_passes": str(random_passes),
         "hypermesh_steps": "<= 3 each",
         "note": "rearrangeability"},
    )
    return SectionArtifacts(tables=(Table(
        "omega-contrast",
        f"Section I — Omega network vs 2D hypermesh (N={n})",
        ("permutation", "omega_passes", "hypermesh_steps", "note"),
        rows,
    ),))


def _compute_universality(profile: PaperProfile) -> SectionArtifacts:
    from ..models.universality import (
        empirical_random_routing_steps,
        slowdown_table,
    )

    rows = [
        {
            "num_pes": r.num_pes,
            "hypercube_slowdown": round(r.hypercube, 2),
            "hypermesh_slowdown": round(r.hypermesh, 2),
            "advantage": round(r.advantage, 2),
        }
        for r in slowdown_table([2**k for k in (6, 8, 10, 12, 16, 20)])
    ]
    measured = empirical_random_routing_steps(
        profile.universality_pes, trials=3, seed=0
    )
    measured_rows = ({
        "num_pes": profile.universality_pes,
        "hypercube_mean_steps": round(measured["hypercube_mean_steps"], 2),
        "hypermesh_mean_steps": round(measured["hypermesh_mean_steps"], 2),
    },)
    return SectionArtifacts(tables=(
        Table(
            "universality-slowdowns",
            "Section I — universal-simulation slowdowns ([15] vs [13])",
            ("num_pes", "hypercube_slowdown", "hypermesh_slowdown",
             "advantage"),
            tuple(rows),
        ),
        Table(
            "universality-measured",
            f"Section I — measured random-permutation routing "
            f"(N={profile.universality_pes}, 3 seeded trials)",
            ("num_pes", "hypercube_mean_steps", "hypermesh_mean_steps"),
            measured_rows,
        ),
    ))


def _hypermesh_shapes(num_pes: int) -> list[tuple[int, int]]:
    """The power-of-two (base, dims) factorizations with 2-4 dimensions —
    for 4096 exactly the paper's ``8^4, 16^3 and 64^2`` remark."""
    log_n = num_pes.bit_length() - 1
    shapes = []
    for dims in (4, 3, 2):
        if log_n % dims == 0:
            shapes.append((1 << (log_n // dims), dims))
    return shapes


def _compute_shapes(profile: PaperProfile) -> SectionArtifacts:
    from ..core import map_fft
    from ..hardware import link_bandwidth
    from ..hardware.technology import GAAS_1992
    from ..networks import Hypermesh, Hypermesh2D
    from ..viz.series import format_time

    rows = []
    for base, dims in _hypermesh_shapes(profile.num_pes):
        hm = Hypermesh2D(base) if dims == 2 else Hypermesh(base, dims)
        mapping = map_fft(hm)
        step = GAAS_1992.packet_bits / link_bandwidth(hm, GAAS_1992)
        rows.append({
            "shape": f"{base}^{dims}",
            "butterfly_steps": mapping.butterfly_steps,
            "bitrev_steps": mapping.bitrev_steps,
            "total_steps": mapping.total_steps,
            "per_step": format_time(step),
            "comm_time": format_time(mapping.total_steps * step),
        })
    return SectionArtifacts(tables=(Table(
        "hypermesh-shapes",
        f"Section IV — hypermesh shape choice ({profile.num_pes} PEs)",
        ("shape", "butterfly_steps", "bitrev_steps", "total_steps",
         "per_step", "comm_time"),
        tuple(rows),
    ),))


# -- grid sections: tasks are existing campaign entry points ----------------


_ROUTED_TOPOLOGIES = ("mesh2d", "hypercube", "hypermesh2d")


def _routed_tasks(profile: PaperProfile) -> tuple[TaskSpec, ...]:
    return tuple(
        TaskSpec(
            entry="repro.sim.task:run_routing_task",
            params={
                "topology": topology,
                "n": profile.routed_n,
                "workload": "bit-reversal",
                "seed": 99,
                "arbitration": "overtaking",
                "plan_cache": "disk",
            },
            label=f"routed-{topology}-n{profile.routed_n}",
        )
        for topology in _ROUTED_TOPOLOGIES
    )


def _routed_assemble(
    payloads: Sequence[Mapping], profile: PaperProfile
) -> SectionArtifacts:
    columns = ("topology", "n", "workload", "packets", "steps", "total_hops",
               "delivered")
    rows = tuple(
        {c: p[c] for c in columns}
        for p in sorted(payloads, key=lambda p: str(p["topology"]))
    )
    return SectionArtifacts(tables=(Table(
        "routed-steps",
        f"Adaptive routing contrast — bit reversal, measured steps "
        f"(N={profile.routed_n}, plan-cached)",
        columns,
        rows,
    ),))


def _comm_avoiding_tasks(profile: PaperProfile) -> tuple[TaskSpec, ...]:
    n = profile.routed_n
    tasks = []
    for topology in TOPOLOGY_BUILDERS:
        for method in ("systolic", "hyper-systolic"):
            tasks.append(
                TaskSpec(
                    entry="repro.algos.hypersystolic:run_commavoiding_task",
                    params={
                        "topology": topology,
                        "n": n,
                        "method": method,
                        "seed": 99,
                    },
                    label=f"{method}-{topology}-n{n}",
                )
            )
        tasks.append(
            TaskSpec(
                entry="repro.fft.ape:run_ape_fft_task",
                params={"topology": topology, "n": n, "seed": 99},
                label=f"ape-fft-{topology}-n{n}",
            )
        )
    return tuple(tasks)


def _comm_avoiding_assemble(
    payloads: Sequence[Mapping], profile: PaperProfile
) -> SectionArtifacts:
    order = {"systolic": 0, "hyper-systolic": 1, "ape-fft": 2}
    rows = tuple(
        {
            "topology": p["topology"],
            "n": p["n"],
            "workload": p["method"],
            "routed_shifts": p.get("routed_shifts", "-"),
            "steps": p["steps"],
            "bound": p["bound"],
            "ratio": round(float(p["bound_ratio"]), 2),
            "certified": bool(p["certified"]),
        }
        for p in sorted(
            payloads,
            key=lambda p: (str(p["topology"]), order[str(p["method"])]),
        )
    )
    return SectionArtifacts(tables=(Table(
        "comm-avoiding",
        f"Communication-avoiding workloads — hyper-systolic convolution "
        f"(sqrt-N taps) and the APE four-step FFT, certified against "
        f"analytic floors (N={profile.routed_n})",
        ("topology", "n", "workload", "routed_shifts", "steps", "bound",
         "ratio", "certified"),
        rows,
    ),))


def _sweep_tasks(profile: PaperProfile) -> tuple[TaskSpec, ...]:
    return tuple(
        TaskSpec(
            entry="repro.models.speedup:sweep_task",
            params={"n": 4**k},
            label=f"sweep-n{4**k}",
        )
        for k in profile.sweep_exponents
    )


def _sweep_assemble(
    payloads: Sequence[Mapping], profile: PaperProfile
) -> SectionArtifacts:
    from ..viz.series import ascii_chart

    ordered = sorted(payloads, key=lambda p: int(p["n"]))
    rows = tuple(
        {
            "n": int(p["n"]),
            "vs_mesh": round(float(p["vs_mesh"]), 2),
            "vs_hypercube": round(float(p["vs_hypercube"]), 2),
        }
        for p in ordered
    )
    chart = ascii_chart(
        [float(r["n"]) for r in rows],
        {
            "mesh speedup ~ sqrt(N)/log N": [r["vs_mesh"] for r in rows],
            "cube speedup ~ log N": [r["vs_hypercube"] for r in rows],
        },
        log_y=True,
        title="hypermesh FFT speedup vs machine size (log y; x = 4^k)",
    )
    return SectionArtifacts(
        tables=(Table(
            "speedup-sweep",
            "Hypermesh FFT speedup vs machine size (paper step convention)",
            ("n", "vs_mesh", "vs_hypercube"),
            rows,
        ),),
        figures=(Figure("speedup-chart",
                        "Speedup growth — O(sqrt N/log N) and O(log N)",
                        chart),),
    )


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionSpec:
    """One paper artifact: its experiments, producing tasks, and renderers.

    Exactly one production mode applies:

    * registry-computed (default): one ``run_section_task`` campaign task
      executes :attr:`compute` in a worker, and the payload *is* the
      rendered artifact set;
    * grid (``task_grid``/``assemble`` set): the section fans out over
      existing campaign entry points and assembles their payloads.
    """

    section: str
    title: str
    experiments: tuple[str, ...]
    description: str
    golden: bool = True
    compute: Callable[[PaperProfile], SectionArtifacts] | None = None
    task_grid: Callable[[PaperProfile], tuple[TaskSpec, ...]] | None = None
    assemble: Callable[[Sequence, PaperProfile], SectionArtifacts] | None = None

    def __post_init__(self) -> None:
        grid = self.task_grid is not None or self.assemble is not None
        if grid and (self.task_grid is None or self.assemble is None):
            raise ValueError(
                f"section {self.section!r}: task_grid and assemble "
                "must be provided together"
            )
        if not grid and self.compute is None:
            raise ValueError(f"section {self.section!r} has no producer")

    def tasks(self, profile: PaperProfile) -> tuple[TaskSpec, ...]:
        """The campaign tasks that produce this section's data."""
        if self.task_grid is not None:
            return self.task_grid(profile)
        return (TaskSpec(
            entry="repro.paper.sections:run_section_task",
            params={
                "section": self.section,
                "schema": SECTION_SCHEMA_VERSION,
                "profile": profile.to_params(),
            },
            label=f"{self.section}@{profile.name}",
        ),)

    def render(
        self, payloads: Sequence, profile: PaperProfile
    ) -> SectionArtifacts:
        """Turn the section's task payloads into tables and figures."""
        if self.assemble is not None:
            return self.assemble(payloads, profile)
        return SectionArtifacts.from_dict(payloads[0])


def _registry(*specs: SectionSpec) -> dict[str, SectionSpec]:
    out: dict[str, SectionSpec] = {}
    for spec in specs:
        if spec.section in out:
            raise ValueError(f"duplicate section id {spec.section!r}")
        out[spec.section] = spec
    return out


PAPER_SECTIONS: dict[str, SectionSpec] = _registry(
    SectionSpec(
        "table-1a", "Table 1A — hardware complexity", ("E1",),
        "crossbar counts, degrees and diameters before normalization",
        compute=_compute_table_1a,
    ),
    SectionSpec(
        "table-1b", "Table 1B — normalized links", ("E2",),
        "link bandwidth, diameter and D/BW after the equal-bandwidth "
        "normalization",
        compute=_compute_table_1b,
    ),
    SectionSpec(
        "table-2a", "Table 2A — FFT step counts", ("E3",),
        "bit-reversal, data-transfer and total step counts per network",
        compute=_compute_table_2a,
    ),
    SectionSpec(
        "table-2b", "Table 2B — FFT communication time", ("E4",),
        "step asymptotics and concrete communication times",
        compute=_compute_table_2b,
    ),
    SectionSpec(
        "section-4", "Section IV — worked comparison", ("E5", "E6", "E10"),
        "equations (2)-(4), the headline speedups, the 20 ns line-delay "
        "variant and the [13] bitonic cross-check",
        compute=_compute_section_4,
    ),
    SectionSpec(
        "section-5", "Section V — bisection bandwidth", ("E7",),
        "bisection bandwidths and the O(sqrt N)/O(log N) ratios",
        compute=_compute_section_5,
    ),
    SectionSpec(
        "figures", "Figures 1-3", ("E8", "E9"),
        "the 2D hypermesh, its PE-node, and the FFT data-flow graph as "
        "ASCII renderings",
        golden=False,  # structural figures; invariants are asserted in tests
        compute=_compute_figures,
    ),
    SectionSpec(
        "sweep", "Speedup vs machine size", ("E11",),
        "the asymptotic sweep behind the headline O(sqrt N/log N) and "
        "O(log N) claims, fanned out one machine size per campaign task",
        task_grid=_sweep_tasks,
        assemble=_sweep_assemble,
    ),
    SectionSpec(
        "omega", "Omega-network contrast", ("E14",),
        "Section I's multistage contrast: passes through a real Omega "
        "network vs hypermesh steps",
        compute=_compute_omega,
    ),
    SectionSpec(
        "universality", "Universality slowdowns", ("E16",),
        "the [15] vs [13] simulation slowdowns, charted and measured on "
        "seeded random permutations",
        compute=_compute_universality,
    ),
    SectionSpec(
        "shapes", "Hypermesh shape choice", ("E19",),
        "the 8^4 / 16^3 / 64^2 remark of Section IV, executed",
        compute=_compute_shapes,
    ),
    SectionSpec(
        "routed-steps", "Adaptive routing contrast", ("E22",),
        "measured engine steps for the bit reversal per topology, routed "
        "through the plan cache (warm on reruns)",
        task_grid=_routed_tasks,
        assemble=_routed_assemble,
    ),
    SectionSpec(
        "comm-avoiding", "Communication-avoiding workloads", ("E25",),
        "Galli's hyper-systolic convolution vs the systolic baseline and "
        "the APE four-step FFT, every measured step count certified "
        "against its repro.bounds analytic floor",
        task_grid=_comm_avoiding_tasks,
        assemble=_comm_avoiding_assemble,
    ),
)


#: EXPERIMENTS.md entries no section claims: extensions whose checks are
#: tier-1 tests, each mapped to its test module in docs/REPRODUCING.md
#: (``tools/check_docs.py`` keeps both lists complete and disjoint).
SECTIONLESS_EXPERIMENTS = (
    "E12", "E13", "E15", "E17", "E18", "E20", "E21", "E23", "E24",
)


def resolve_sections(names: Sequence[str] | None) -> list[SectionSpec]:
    """Section specs for ``names`` (registry order), or all of them.

    Raises ``ValueError`` naming the first unknown section.
    """
    if names is None:
        return list(PAPER_SECTIONS.values())
    wanted = set(names)
    for name in names:
        if name not in PAPER_SECTIONS:
            raise ValueError(
                f"unknown paper section {name!r}; known: "
                f"{sorted(PAPER_SECTIONS)}"
            )
    return [s for s in PAPER_SECTIONS.values() if s.section in wanted]


def paper_campaign(
    profile: str | PaperProfile = "full",
    sections: Sequence[str] | None = None,
):
    """The selected sections as one deduplicated, resumable campaign.

    Named ``paper`` (full profile) / ``paper-<name>`` otherwise, so reruns
    share the same content-addressed store.  Tasks shared by several
    sections appear once.
    """
    from ..campaign.spec import CampaignSpec

    if isinstance(profile, str):
        if profile not in PROFILES:
            raise KeyError(
                f"unknown paper profile {profile!r}; known: {sorted(PROFILES)}"
            )
        profile = PROFILES[profile]
    tasks: dict[str, TaskSpec] = {}
    for spec in resolve_sections(sections):
        for task in spec.tasks(profile):
            tasks.setdefault(task.task_hash, task)
    name = "paper" if profile.name == "full" else f"paper-{profile.name}"
    return CampaignSpec(
        name,
        tuple(tasks.values()),
        meta={
            "description": "regenerate every paper artifact "
            f"({profile.name} profile) for `repro paper`",
            "profile": profile.name,
        },
    )


def run_section_task(params: dict) -> dict:
    """Campaign entry point (``repro.paper.sections:run_section_task``).

    Computes one registry section at the profile *parameters* embedded in
    the task (so the content hash covers the actual sizes, not just a
    profile name) and returns the rendered artifacts as a JSON dict.
    """
    spec = PAPER_SECTIONS[params["section"]]
    if spec.compute is None:
        raise ValueError(
            f"section {spec.section!r} is not registry-computed"
        )
    profile = PaperProfile.from_params(params["profile"])
    return spec.compute(profile).to_dict()


def section_command(spec: SectionSpec) -> str:
    """The exact CLI invocation that regenerates one section."""
    return f"python -m repro paper --sections {spec.section}"


def list_sections() -> list[tuple[str, str, str]]:
    """(id, experiments, title) triples for the CLI listing."""
    return [
        (spec.section, ",".join(spec.experiments), spec.title)
        for spec in PAPER_SECTIONS.values()
    ]
