"""TaskSpec / CampaignSpec: grid expansion, hashing, (de)serialization."""

import json

import pytest

from repro.campaign import CampaignSpec, TaskSpec


class TestTaskSpec:
    def test_hash_is_deterministic(self):
        a = TaskSpec("m.x:f", {"n": 64, "topology": "mesh2d"})
        b = TaskSpec("m.x:f", {"topology": "mesh2d", "n": 64})
        assert a.task_hash == b.task_hash  # key order is irrelevant

    def test_hash_changes_with_params(self):
        a = TaskSpec("m.x:f", {"n": 64})
        b = TaskSpec("m.x:f", {"n": 128})
        c = TaskSpec("m.y:f", {"n": 64})
        assert len({a.task_hash, b.task_hash, c.task_hash}) == 3

    def test_label_excluded_from_hash(self):
        a = TaskSpec("m.x:f", {"n": 64}, label="one")
        b = TaskSpec("m.x:f", {"n": 64}, label="two")
        assert a.task_hash == b.task_hash

    def test_default_label(self):
        assert TaskSpec("m.x:f", {"n": 64, "w": "p"}).label == "n=64,w=p"
        assert TaskSpec("m.x:f").label == "f"

    def test_entry_must_be_dotted_ref(self):
        with pytest.raises(ValueError, match="module.path:function"):
            TaskSpec("not-a-ref", {})

    def test_params_must_be_json(self):
        with pytest.raises(TypeError):
            TaskSpec("m.x:f", {"bad": object()})

    def test_roundtrip(self):
        task = TaskSpec("m.x:f", {"n": 64}, label="cell")
        again = TaskSpec.from_dict(json.loads(json.dumps(task.to_dict())))
        assert again == task and again.task_hash == task.task_hash


class TestCampaignSpec:
    def test_from_grid_expands_cartesian_product(self):
        spec = CampaignSpec.from_grid(
            "g", "m.x:f", {"a": [1, 2], "b": ["x", "y", "z"]}, base={"seed": 9}
        )
        assert len(spec) == 6
        assert [t.params["a"] for t in spec.tasks] == [1, 1, 1, 2, 2, 2]
        assert all(t.params["seed"] == 9 for t in spec.tasks)
        assert spec.tasks[0].label == "a=1,b=x"

    def test_grid_overrides_base(self):
        spec = CampaignSpec.from_grid("g", "m.x:f", {"n": [1]}, base={"n": 0})
        assert spec.tasks[0].params["n"] == 1

    def test_duplicate_tasks_rejected(self):
        task = TaskSpec("m.x:f", {"n": 64})
        with pytest.raises(ValueError, match="duplicate task"):
            CampaignSpec("dup", (task, TaskSpec("m.x:f", {"n": 64}, label="2")))

    def test_spec_hash_tracks_task_set(self):
        one = CampaignSpec.from_grid("g", "m.x:f", {"n": [1, 2]})
        two = CampaignSpec.from_grid("g", "m.x:f", {"n": [1, 3]})
        assert one.spec_hash != two.spec_hash

    def test_save_load_roundtrip(self, tmp_path):
        spec = CampaignSpec.from_grid(
            "g", "m.x:f", {"n": [1, 2]}, meta={"description": "demo"}
        )
        path = spec.save(tmp_path / "spec.json")
        again = CampaignSpec.load(path)
        assert again == spec and again.spec_hash == spec.spec_hash


class TestBuiltins:
    def test_engine_sweep_grid_shape(self):
        from repro.campaign import builtin_campaign

        spec = builtin_campaign("engine-sweep")
        # 3 topologies x 4 sizes x 3 workloads
        assert len(spec) == 36
        assert all(
            t.entry == "repro.sim.task:run_routing_task" for t in spec.tasks
        )
        assert not any("backend" in t.params for t in spec.tasks)

    def test_chaos_sweep_grid_shape(self):
        from repro.campaign import builtin_campaign

        spec = builtin_campaign("chaos-sweep")
        # 3 topologies x 2 sizes x 4 fractions + hypermesh 2 sizes x 3
        assert len(spec) == 30
        assert not any("backend" in t.params for t in spec.tasks)

    def test_routing_task_rejects_a_backend_param(self):
        """A spec from before the engine had one core names the core it
        wanted; the task refuses it rather than silently ignoring it."""
        from repro.sim.task import run_routing_task

        with pytest.raises(ValueError, match="'backend' is no parameter"):
            run_routing_task({"topology": "mesh2d", "n": 16,
                              "workload": "bit-reversal",
                              "backend": "indexed"})

    def test_unknown_builtin(self):
        from repro.campaign import builtin_campaign

        with pytest.raises(KeyError, match="engine-sweep"):
            builtin_campaign("nope")

    def test_listing_names_all(self):
        from repro.campaign import BUILTIN_CAMPAIGNS, list_builtin_campaigns

        assert [n for n, _ in list_builtin_campaigns()] == list(BUILTIN_CAMPAIGNS)
