"""End-to-end service behavior over real HTTP: every endpoint, every
response family (200 warm/cold, 400 named fields, 404, 405, 409)."""

from __future__ import annotations

import pytest

from repro.service import ENDPOINTS
from repro.sim.plancache import PLAN_SCHEMA_VERSION

CHEAP_JOB = {"topology": "mesh2d", "n": 16, "workload": "dense-permutation"}


class TestHealthAndStats:
    def test_healthz(self, client):
        response = client.healthz()
        assert response.ok
        assert response.body["ok"] is True
        assert response.body["draining"] is False
        assert response.body["inflight"] == 0
        assert response.body["uptime"] >= 0

    def test_stats_shape(self, client):
        body = client.stats().body
        assert set(body) >= {
            "service", "pool", "plancache", "plancache_disk",
            "plans_on_disk", "uptime",
        }
        assert body["service"]["requests"] >= 1  # this very call
        assert body["pool"]["workers"] == 4

    def test_stats_counts_outcomes(self, client):
        assert client.route(CHEAP_JOB).body["source"] == "cold"
        assert client.route(CHEAP_JOB).body["source"] == "warm"
        service = client.stats().body["service"]
        assert service["routes"] == 2
        assert service["cold"] == 1
        assert service["warm"] == 1
        assert service["computations"] == 1


class TestRoute:
    def test_cold_then_warm_identical_results(self, client):
        cold = client.route(CHEAP_JOB)
        warm = client.route(CHEAP_JOB)
        assert cold.ok and warm.ok
        assert cold.body["source"] == "cold"
        assert warm.body["source"] == "warm"
        assert cold.body["digest"] == warm.body["digest"]
        # The warm replay reports the exact stats the cold run recorded.
        assert cold.body["stats"] == warm.body["stats"]
        assert cold.body["stats"]["delivered"] == 16

    def test_explicit_demands(self, client):
        response = client.route(
            {"topology": "mesh2d", "n": 16, "demands": [[0, 15], [15, 0]]}
        )
        assert response.ok
        assert response.body["packets"] == 2
        assert response.body["stats"]["delivered"] == 2

    def test_seed_changes_digest(self, client):
        a = client.route({**CHEAP_JOB, "seed": 1}).body["digest"]
        b = client.route({**CHEAP_JOB, "seed": 2}).body["digest"]
        assert a != b

    def test_unroutable_fault_is_409(self, client):
        response = client.route(
            {**CHEAP_JOB, "fault": {"seed": 7, "link_fail_fraction": 0.9}}
        )
        assert response.status == 409
        assert response.body["error"] == "unroutable"
        assert "partition" in response.body["detail"]
        assert client.stats().body["service"]["unroutable"] == 1


class TestValidation:
    def test_named_fields_all_at_once(self, client):
        response = client.route({"topology": "torus9", "n": -3, "extra": 1})
        assert response.status == 400
        assert response.body["error"] == "invalid request"
        fields = response.body["fields"]
        assert set(fields) == {"topology", "n", "extra", "workload"}
        assert "torus9" in fields["topology"]
        assert fields["extra"] == "unknown field"

    def test_workload_and_demands_are_exclusive(self, client):
        response = client.route({**CHEAP_JOB, "demands": [[0, 1]]})
        assert response.status == 400
        assert "not both" in response.body["fields"]["demands"]

    def test_demands_out_of_range(self, client):
        response = client.route(
            {"topology": "mesh2d", "n": 16, "demands": [[0, 99]]}
        )
        assert response.status == 400
        assert "out of range" in response.body["fields"]["demands"]

    def test_bad_topology_shape(self, client):
        response = client.route({**CHEAP_JOB, "n": 15})  # not a square
        assert response.status == 400
        assert "n" in response.body["fields"]

    def test_non_canonical_router_rejected(self, client):
        response = client.route({**CHEAP_JOB, "router": "custom"})
        assert response.status == 400
        assert "router" in response.body["fields"]

    def test_bad_timeout(self, client):
        response = client.route({**CHEAP_JOB, "timeout": 0})
        assert response.status == 400
        assert "timeout" in response.body["fields"]

    def test_backend_is_not_a_request_field(self, client):
        """The engine picks its core by packet count; a body that still
        names one gets the standard unknown-field 400."""
        response = client.route({**CHEAP_JOB, "backend": "numpy"})
        assert response.status == 400
        assert response.body["fields"] == {"backend": "unknown field"}

    def test_rejected_counter(self, client):
        client.route({"topology": "nope"})
        assert client.stats().body["service"]["rejected"] == 1


class TestPlans:
    def test_fetch_recorded_plan(self, client):
        digest = client.route(CHEAP_JOB).body["digest"]
        response = client.plan(digest)
        assert response.ok
        assert response.body["digest"] == digest
        assert response.body["steps"] > 0
        # One entry per recorded step, whatever the blob's array encoding.
        assert response.body["steps"] == response.body["stats"]["steps"]
        assert response.body["schema"] == PLAN_SCHEMA_VERSION
        assert response.body["bytes"] > 0
        assert response.body["key"]["topology"]
        assert response.body["stats"]["delivered"] == 16

    def test_non_object_blob_404(self, runner, client):
        digest = client.route(CHEAP_JOB).body["digest"]
        (runner.service.cache.root / f"{digest}.json").write_text("[1, 2]")
        response = client.plan(digest)
        assert response.status == 404
        assert "corrupt blob" in response.body["error"]

    def test_unknown_digest_404(self, client):
        response = client.plan("0" * 32)
        assert response.status == 404
        assert "no plan" in response.body["error"]

    def test_non_hex_digest_400(self, client):
        for digest in ("_stats", "..%2Fescape", "UPPER", "x" * 65):
            assert client.plan(digest).status == 400


class TestRoutingTable:
    def test_unknown_endpoint_lists_known_ones(self, client):
        response = client.request("GET", "/v2/nope")
        assert response.status == 404
        assert response.body["endpoints"] == [f"{m} {p}" for m, p, _, _ in ENDPOINTS]

    @pytest.mark.parametrize(
        "method,path",
        [
            ("GET", "/v1/route"),
            ("POST", "/v1/stats"),
            ("POST", "/v1/healthz"),
            ("POST", "/v1/plans/abc123"),
        ],
    )
    def test_wrong_method_405(self, client, method, path):
        response = client.request(method, path)
        assert response.status == 405
        assert "not allowed" in response.body["error"]
