"""Unit tests for FaultModel / resolve_faults (declaration + validation)
and the pinned SplitMix64 drop draw."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.faults import FaultModel, resolve_faults
from repro.networks import Hypermesh2D, Mesh2D


class TestFaultModel:
    def test_defaults_are_disabled(self):
        model = FaultModel()
        assert not model.enabled
        assert model.fingerprint() == "none"

    def test_seed_alone_does_not_enable(self):
        assert not FaultModel(seed=123).enabled

    def test_links_are_normalized_undirected(self):
        model = FaultModel(link_failures={(3, 1), (1, 3), (2, 5)})
        assert model.link_failures == {(1, 3), (2, 5)}

    def test_self_link_rejected(self):
        with pytest.raises(ValueError, match="two distinct nodes"):
            FaultModel(link_failures={(4, 4)})

    @pytest.mark.parametrize("field,value,match", [
        ("link_fail_fraction", -0.1, r"link_fail_fraction must be in \[0, 1\]"),
        ("link_fail_fraction", 1.5, r"link_fail_fraction must be in \[0, 1\]"),
        ("drop_prob", 2.0, r"drop_prob must be in \[0, 1\]"),
        ("retry_limit", -1, "retry_limit must be >= 0 or None"),
    ])
    def test_range_validation(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            FaultModel(**{field: value})

    def test_params_round_trip(self):
        model = FaultModel(
            seed=5,
            link_failures={(0, 1)},
            node_failures={7},
            drop_prob=0.25,
            retry_limit=3,
        )
        assert FaultModel.from_params(model.to_params()) == model

    def test_from_params_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault params"):
            FaultModel.from_params({"typo": 1})

    def test_with_replaces_fields(self):
        model = FaultModel(seed=1, drop_prob=0.5)
        bumped = model.with_(seed=2)
        assert bumped.seed == 2 and bumped.drop_prob == 0.5
        assert model.seed == 1  # immutable original

    def test_transmit_ok_certain_extremes(self):
        assert FaultModel(drop_prob=0.0).transmit_ok(0, 0)
        assert not FaultModel(drop_prob=1.0).transmit_ok(0, 0)

    def test_transmit_ok_rate_tracks_drop_prob(self):
        model = FaultModel(seed=11, drop_prob=0.3)
        draws = [
            model.transmit_ok(step, pid)
            for step in range(50)
            for pid in range(20)
        ]
        rate = 1 - sum(draws) / len(draws)
        assert 0.25 < rate < 0.35  # 1000 hash draws around p=0.3


_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    """Reference SplitMix64 output step (Steele, Lea and Flood 2014)."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _reference_draw(seed: int, step: int, packet: int) -> int:
    """The documented drop draw: SplitMix64 chained over seed, step and
    packet, each reduced mod 2**64."""
    key = _splitmix64(seed & _M64)
    return _splitmix64(_splitmix64(key ^ (step & _M64)) ^ (packet & _M64))


#: (seed, step, packet) -> 64-bit draw, pinned: negative seeds, seeds at
#: and past 2**63 and 2**64, large steps and packet ids up to 2**63 - 1.
DRAW_VECTORS = [
    ((0, 0, 0), 0x238275BC38FCBE91),
    ((0, 0, 1), 0x2F32A78496C67C60),
    ((1, 2, 3), 0xD0734750FDE362B3),
    ((12345, 7, 99), 0x59329E80F6070F27),
    ((-1, 0, 5), 0x0A91F9A39330B1F3),
    ((-2**63, 3, 4), 0xEA87030C881A4868),
    ((2**63, 1, 1), 0x48E066E2F50F0BBD),
    ((2**64 - 1, 5, 6), 0xBE326251F6C98D3B),
    ((2**70 + 3, 2, 8), 0x799B0E4A3A795754),
    ((7, 10**6, 2**40), 0xF6BEB882453A316E),
    ((7, 3, 2**62 + 11), 0x117FEAA8DF14C38B),
    ((-99, 0, 2**63 - 1), 0x14DF486CB8A97B34),
]


class TestDropDraw:
    """The per-transmission drop draw is a counter-based SplitMix64 hash:
    a move transmits iff its draw is >= ceil(drop_prob * 2**64)."""

    def test_reference_is_splitmix64(self):
        # The first output of SplitMix64 seeded with 0, as published.
        assert _splitmix64(0) == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("case,draw", DRAW_VECTORS)
    def test_pinned_vectors(self, case, draw):
        assert _reference_draw(*case) == draw
        seed, step, packet = case
        for p in (0.05, 0.2, 0.5, 0.9, 1e-300):
            model = FaultModel(seed=seed, drop_prob=p)
            assert model.transmit_ok(step, packet) == (
                draw >= math.ceil(p * 2**64)
            )

    def test_pinned_bools_at_one_half(self):
        got = [
            FaultModel(seed=seed, drop_prob=0.5).transmit_ok(step, packet)
            for (seed, step, packet), _ in DRAW_VECTORS
        ]
        assert got == [False, False, True, False, False, True, False, True,
                       False, True, False, False]

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9])
    def test_batch_equals_scalar_on_the_vectors(self, p):
        by_seed_step: dict = {}
        for (seed, step, packet), _ in DRAW_VECTORS:
            by_seed_step.setdefault((seed, step), []).append(packet)
        by_seed_step[(2**63 + 5, 17)] = [0, 1, 2**31, 2**40, 2**63 - 1]
        for (seed, step), packets in by_seed_step.items():
            model = FaultModel(seed=seed, drop_prob=p)
            batch = model.transmit_ok_batch(
                step, np.asarray(packets, dtype=np.int64))
            assert batch.dtype == bool
            assert batch.tolist() == [
                model.transmit_ok(step, packet) for packet in packets
            ]

    def test_same_draws_in_another_process(self):
        script = (
            "import json, sys\n"
            "from repro.faults import FaultModel\n"
            "m = FaultModel(seed=-7, drop_prob=0.3)\n"
            "print(json.dumps([m.transmit_ok(s, p) for s in range(20)"
            " for p in (0, 1, 2**40, 2**62)]))\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345",
               "PYTHONPATH": os.pathsep.join(
                   [str(Path(repro.__file__).parents[1]),
                    os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120, check=True,
        )
        model = FaultModel(seed=-7, drop_prob=0.3)
        assert json.loads(out.stdout) == [
            model.transmit_ok(s, p) for s in range(20)
            for p in (0, 1, 2**40, 2**62)
        ]

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
    def test_binomial_drop_rate(self, p):
        model = FaultModel(seed=2024, drop_prob=p)
        packets = np.arange(2000, dtype=np.int64)
        drops = sum(
            int((~model.transmit_ok_batch(step, packets)).sum())
            for step in range(60)
        )
        trials = 60 * packets.size  # 120k draws
        mean = trials * p
        assert abs(drops - mean) <= 5 * math.sqrt(mean * (1 - p))

    def test_empty_batch(self):
        out = FaultModel(drop_prob=0.4).transmit_ok_batch(
            3, np.array([], dtype=np.int64))
        assert out.shape == (0,) and out.dtype == bool

    def test_fingerprint_covers_the_draw(self, monkeypatch):
        from repro.faults import model as fault_model

        assert fault_model.DROP_DRAW == "splitmix64"
        model = FaultModel(seed=1, drop_prob=0.2)
        before = model.fingerprint()
        monkeypatch.setattr(fault_model, "DROP_DRAW", "another-draw")
        assert model.fingerprint() != before


class TestResolveFaults:
    def test_node_outside_topology_rejected(self):
        with pytest.raises(ValueError, match=r"node 99 outside \[0, 16\)"):
            resolve_faults(FaultModel(node_failures={99}), Mesh2D(4))

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError, match="topology does not have"):
            resolve_faults(FaultModel(link_failures={(0, 15)}), Mesh2D(4))

    def test_net_faults_need_a_hypergraph(self):
        with pytest.raises(ValueError, match="net faults need a hypergraph"):
            resolve_faults(FaultModel(net_failures={0}), Mesh2D(4))

    def test_link_faults_rejected_on_hypergraph(self):
        with pytest.raises(ValueError, match="nets, not links"):
            resolve_faults(FaultModel(link_failures={(0, 1)}), Hypermesh2D(4))

    def test_net_outside_topology_rejected(self):
        hm = Hypermesh2D(4)  # 8 nets
        with pytest.raises(ValueError, match=r"net 8 outside \[0, 8\)"):
            resolve_faults(FaultModel(net_failures={8}), hm)

    def test_down_and_degraded_overlap_rejected(self):
        with pytest.raises(ValueError, match="both down and degraded"):
            resolve_faults(
                FaultModel(net_failures={1}, degraded_nets={1}),
                Hypermesh2D(4),
            )

    def test_fraction_sampling_merges_with_explicit_links(self):
        topo = Mesh2D(4)
        model = FaultModel(
            seed=3, link_failures={(0, 1)}, link_fail_fraction=0.25
        )
        resolved = resolve_faults(model, topo)
        assert (0, 1) in resolved.down_links
        # 24 undirected links; 25% sampled = 6 (the explicit one may overlap).
        assert 6 <= len(resolved.down_links) <= 7

    def test_structural_flag(self):
        topo = Mesh2D(4)
        assert not resolve_faults(FaultModel(drop_prob=0.5), topo).structural
        assert resolve_faults(FaultModel(node_failures={0}), topo).structural

    def test_summary_counts(self):
        resolved = resolve_faults(
            FaultModel(net_failures={0}, degraded_nets={1}, drop_prob=0.1),
            Hypermesh2D(4),
        )
        assert resolved.summary() == {
            "links_down": 0,
            "nodes_down": 0,
            "nets_down": 1,
            "nets_degraded": 1,
            "drop_prob": 0.1,
        }
