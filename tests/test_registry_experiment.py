"""Policy registry + ExperimentConfig: equivalence with the old call sites.

The API redesign (ISSUE 4) re-routes flash-cache construction through
:mod:`repro.flashcache.registry` and unifies the knob soup behind the
frozen :class:`repro.sim.experiment.ExperimentConfig`.  Both are pure
re-plumbing: these tests pin that claim by comparing each new path against
the pre-redesign one — ``make_policy`` against the config-driven path's
cache instances field-for-field, ``ExperimentConfig.system_config()`` against a
hand-built ``scaled_reference_config``, and ``CellSpec.from_config``
against a hand-built ``CellSpec`` — plus the new error surfaces (unknown
policies, unknown knobs, typo'd ``with_`` fields) that used to fail as
silent attribute defaults.
"""

from __future__ import annotations

import pytest

from repro.core.config import CachePolicy, SystemConfig, scaled_reference_config
from repro.core.policies import build_database_device, build_flash_volume
from repro.errors import ConfigError
from repro.flashcache.null import NullFlashCache
from repro.flashcache.registry import (
    available_policies,
    build_cache_from_config,
    get_policy_entry,
    make_policy,
    resolve_policy,
)
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec
from repro.sim.scenario import SteadyStateScenario
from repro.storage.volume import Volume
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import TINY
from tests.conftest import tiny_config


def _comparable_state(cache) -> dict:
    """A cache's configuration-bearing attributes (no device objects)."""
    return {
        name: value
        for name, value in vars(cache).items()
        if isinstance(value, (int, float, bool, str))
    }


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
            get_policy_entry("face+gs")

    @pytest.mark.parametrize("policy", list(CachePolicy))
    def test_keyword_path_matches_the_config_path(self, policy):
        cfg = tiny_config(policy)
        disk = Volume(build_database_device(cfg))
        flash = build_flash_volume(cfg)
        entry = get_policy_entry(policy.value)
        by_config = build_cache_from_config(cfg, flash, disk)
        by_keyword = make_policy(
            policy.value, flash, disk, cfg.cache_pages, **entry.config_knobs(cfg)
        )
        assert type(by_keyword) is type(by_config)
        assert _comparable_state(by_keyword) == _comparable_state(by_config)

    def test_knob_defaults_come_from_the_reference_config(self):
        # The reference scan depth is 64, so the cache must be >= 128 pages.
        cfg = tiny_config(CachePolicy.FACE_GSC, cache_pages=256)
        disk = Volume(build_database_device(cfg))
        flash = build_flash_volume(cfg)
        defaulted = make_policy("face+gsc", flash, disk, cfg.cache_pages)
        reference = SystemConfig(cache_policy=CachePolicy.FACE_GSC)
        explicit = make_policy(
            "face+gsc", flash, disk, cfg.cache_pages,
            segment_entries=reference.segment_entries,
            scan_depth=reference.scan_depth,
            cache_clean=reference.face_cache_clean,
            write_through=reference.face_write_through,
        )
        assert _comparable_state(defaulted) == _comparable_state(explicit)

    def test_unknown_knob_is_rejected_with_the_accepted_set(self):
        cfg = tiny_config(CachePolicy.LC)
        disk = Volume(build_database_device(cfg))
        flash = build_flash_volume(cfg)
        with pytest.raises(ConfigError, match="dirty_threshold"):
            make_policy("lc", flash, disk, cfg.cache_pages, scan_depth=8)

    def test_flash_policy_requires_a_flash_volume(self):
        cfg = tiny_config(CachePolicy.FACE)
        disk = Volume(build_database_device(cfg))
        with pytest.raises(ConfigError, match="flash volume"):
            make_policy("face", None, disk, cfg.cache_pages)

    def test_ssd_only_overrides_the_policy(self):
        cfg = tiny_config(CachePolicy.FACE_GSC, ssd_only=True)
        disk = Volume(build_database_device(cfg))
        assert isinstance(
            build_cache_from_config(cfg, None, disk), NullFlashCache
        )


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
        experiment = ExperimentConfig(policy="lc", scan_depth=16)
        description = experiment.describe()
        assert "policy='lc'" in description and "scan_depth=16" in description
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
