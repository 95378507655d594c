"""Policy registry + ExperimentConfig: one way to build a system.

A cache is built from a :class:`~repro.core.config.SystemConfig` alone
(:func:`repro.flashcache.registry.build_cache_from_config`), and an
:class:`~repro.sim.experiment.ExperimentConfig` lowers to that
``SystemConfig`` by forwarding the fields the two classes share.  These
tests pin the lowering against a hand-built ``scaled_reference_config``
and ``CellSpec``, the shared fields' agreement, and the error surfaces
(unknown policies, typo'd ``with_`` fields, out-of-range values).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import CachePolicy, SystemConfig, scaled_reference_config
from repro.core.policies import build_database_device, build_flash_volume
from repro.errors import ConfigError
from repro.flashcache.builders import available_policies, resolve_policy
from repro.flashcache.registry import build_cache_from_config
from repro.sim.experiment import _DEFAULTS, ExperimentConfig
from repro.sim.parallel import CellSpec
from repro.sim.scenario import SteadyStateScenario
from repro.storage.volume import Volume
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import BENCH, TINY
from tests.conftest import tiny_config


class TestRegistry:
    def test_catalogue_covers_every_enum_member(self):
        assert set(available_policies()) == {p.value for p in CachePolicy}

    def test_paper_comparison_order(self):
        # hdd-only leads (the baseline), FaCE variants before the
        # competitor policies — the order every table prints in.
        names = available_policies()
        assert names.index("face") < names.index("face+gr") < names.index("face+gsc")
        assert names[0] == "hdd-only"

    def test_resolve_policy_round_trips(self):
        for policy in CachePolicy:
            assert resolve_policy(policy.value) is policy
            assert resolve_policy(policy) is policy

    def test_unknown_policy_names_the_known_set(self):
        with pytest.raises(ConfigError, match="face\\+gsc"):
            resolve_policy("face+gs")

    @pytest.mark.parametrize("policy", list(CachePolicy))
    def test_the_config_names_the_class_and_its_knobs(self, policy):
        cfg = tiny_config(
            policy, scan_depth=16, face_cache_clean=False, face_write_through=True
        )
        disk = Volume(build_database_device(cfg))
        cache = build_cache_from_config(cfg, build_flash_volume(cfg), disk)
        assert type(cache).name == cfg.display_name
        knobs = {"scan_depth": 16, "cache_clean": False, "write_through": True}
        for name, value in knobs.items():
            if hasattr(cache, name):
                assert getattr(cache, name) == value


#: A valid value of every ExperimentConfig field but ``scenario``, other
#: than both its default and its value in the read-set tests' base.
OTHER = {
    "scale": dataclasses.replace(BENCH, warehouses=2), "seed": 7, "workload": "ycsb",
    "workload_knobs": {"zipf_s": 0.7}, "policy": "lc", "cache_fraction": 0.2, "buffer_fraction": 0.01,
    "buffer_policy": "clock", "scan_depth": 16, "face_cache_clean": False,
    "face_write_through": True, "page_store": "mmap", "label": "x",
    "measure_transactions": 300, "warmup_min": 100, "warmup_max": 900,
    "checkpoint_interval": 0.5, "collect_obs": True, "crash_point": 0.3,
    "crash_max_transactions": 3000, "n_clients": 8, "think_time_ms": 2.0,
    "max_inflight": 4,
}
#: Scenario -> the fields it refuses at a non-default value.
REFUSED = {
    "steady": {"crash_point", "n_clients", "think_time_ms", "max_inflight"},
    "crash": {"n_clients", "think_time_ms", "max_inflight"},
    "service": {"crash_point"},
}
#: Accepted though the scenario does not read them: ``perf/workloads.py``
#: sets the crash budget on every cell, and its crash cells inherit the
#: measured budget.
BUDGETS = {
    ("crash", "measure_transactions"),
    ("steady", "crash_max_transactions"),
    ("service", "crash_max_transactions"),
}


class TestExperimentConfig:
    def test_system_config_matches_the_hand_built_path(self):
        # The exact lowering every pre-redesign harness performed by hand.
        experiment = ExperimentConfig(
            scale=TINY,
            policy="face+gsc",
            cache_fraction=0.08,
            scan_depth=32,
            face_cache_clean=False,
        )
        by_hand = scaled_reference_config(
            estimate_db_pages(TINY),
            cache_fraction=0.08,
            policy=CachePolicy.FACE_GSC,
            scan_depth=32,
            face_cache_clean=False,
        )
        assert experiment.system_config() == by_hand

    def test_non_default_fields_only_appear_in_describe(self):
        experiment = ExperimentConfig(policy="face+gr", scan_depth=16)
        description = experiment.describe()
        assert "policy='face+gr'" in description and "scan_depth=16" in description
        assert "cache_fraction" not in description

    def test_with_derives_without_mutating(self):
        base = ExperimentConfig()
        derived = base.with_(scan_depth=128, policy="face+gr")
        assert derived.scan_depth == 128 and derived.policy == "face+gr"
        assert base.scan_depth != 128
        assert base.system_config() != derived.system_config()

    def test_with_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="scandepth"):
            ExperimentConfig().with_(scandepth=128)

    def test_unknown_policy_fails_at_construction(self):
        with pytest.raises(ConfigError, match="face\\+gs"):
            ExperimentConfig(policy="face+gs")

    def test_out_of_range_values_fail_at_construction(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(cache_fraction=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(measure_transactions=0)

    def test_shared_fields_agree_on_default_and_annotation(self):
        # ``system_config`` forwards every field both classes declare, so a
        # shared name must mean the same knob on both sides.
        system = {f.name: f for f in dataclasses.fields(SystemConfig)}
        shared = [
            f for f in dataclasses.fields(ExperimentConfig) if f.name in system
        ]
        assert {f.name for f in shared} == {
            "buffer_policy", "scan_depth", "face_cache_clean",
            "face_write_through", "page_store", "label",
        }
        for f in shared:
            assert f.default == system[f.name].default, f.name
            assert f.type == system[f.name].type, f.name

    @pytest.mark.parametrize("knob, value", [
        ("cache_fraction", 0.2), ("scan_depth", 16), ("face_cache_clean", False),
        ("face_write_through", True),
    ])
    @pytest.mark.parametrize("policy", available_policies())
    def test_a_knob_is_read_by_its_policy_or_refused(self, policy, knob, value):
        """Every (policy, knob) pair: the policy's cache takes the value, or
        the config refuses it, naming the field and the policy."""
        face = {"face", "face+gr", "face+gsc"}
        readers = {
            "cache_fraction": face | {"lc", "tac", "exadata"},
            "scan_depth": {"face+gr", "face+gsc"},
            "face_cache_clean": face,
            "face_write_through": face,
        }[knob]
        if policy not in readers:
            with pytest.raises(ConfigError) as raised:
                ExperimentConfig(policy=policy, **{knob: value})
            assert f"{knob}={value!r} is not read by policy {policy!r}" in str(raised.value)
            # The default value is no setting at all.
            ExperimentConfig(policy=policy, **{knob: _DEFAULTS[knob]})
            return
        # At BENCH: at TINY the cache floor hides every cache_fraction.
        cfg = ExperimentConfig(scale=BENCH, policy=policy, **{knob: value}).system_config()
        disk = Volume(build_database_device(cfg))
        cache = build_cache_from_config(cfg, build_flash_volume(cfg), disk)
        if knob == "cache_fraction":
            default = ExperimentConfig(scale=BENCH, policy=policy).system_config()
            assert cache.capacity == cfg.cache_pages > default.cache_pages
            return
        attribute = {"face_cache_clean": "cache_clean", "face_write_through": "write_through"}
        assert getattr(cache, attribute.get(knob, knob)) == value

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "scenario"
    ])
    @pytest.mark.parametrize("scenario", ["steady", "crash", "service"])
    def test_a_field_is_read_by_its_scenario_or_refused(self, scenario, field):
        """Every (scenario, field) pair: a non-default value changes the
        cell, or the config refuses it, naming the field and the scenario.
        The two transaction budgets are the only fields accepted unread."""
        # At BENCH: at TINY the cache floor hides every cache_fraction.
        base = ExperimentConfig(
            scale=BENCH, scenario=scenario,
            checkpoint_interval=1.0 if scenario == "crash" else None,
        )
        if field == "workload_knobs":
            base = base.with_(workload="ycsb")
        value = OTHER[field]
        if field in REFUSED[scenario]:
            with pytest.raises(ConfigError) as raised:
                base.with_(**{field: value})
            assert f"{field}={value!r} is not read by scenario {scenario!r}" in str(
                raised.value
            )
            return
        cells = [CellSpec.from_config(("k",), e) for e in (base, base.with_(**{field: value}))]
        if (scenario, field) in BUDGETS:
            assert cells[0] == cells[1]
        else:
            assert cells[0] != cells[1], f"{field} changes nothing on {scenario}"

    def test_a_grid_over_an_inert_knob_fails_before_it_runs(self):
        base = ExperimentConfig(policy="face+gsc", scan_depth=16)
        with pytest.raises(ConfigError, match="scan_depth=16 is not read by policy 'lc'"):
            base.with_(policy="lc")

    def test_enum_policy_is_accepted(self):
        experiment = ExperimentConfig(policy=CachePolicy.LC)
        assert experiment.system_config().cache_policy is CachePolicy.LC


class TestCellSpecFromConfig:
    def test_matches_a_hand_built_spec(self):
        experiment = ExperimentConfig(
            scale=TINY, seed=7, policy="face", cache_fraction=0.08,
            measure_transactions=300, warmup_min=100, warmup_max=900,
        )
        from_config = CellSpec.from_config(("face", 0.08), experiment)
        by_hand = CellSpec(
            key=("face", 0.08),
            config=scaled_reference_config(
                estimate_db_pages(TINY), cache_fraction=0.08,
                policy=CachePolicy.FACE,
            ),
            scale=TINY,
            seed=7,
            scenario=SteadyStateScenario(
                measure_transactions=300, warmup_min=100, warmup_max=900
            ),
        )
        assert from_config == by_hand

    def test_overrides_win(self):
        experiment = ExperimentConfig(scale=TINY, seed=7)
        spec = CellSpec.from_config(("k",), experiment, seed=13)
        assert spec.seed == 13
