"""Workload registry: pluggable workloads behind one API.

The workload redesign (ISSUE: workload-registry tentpole) mirrors the
flash-cache policy registry's shape for *workloads*: one frozen
:class:`~repro.workload.registry.WorkloadEntry` per workload, a canonical
:class:`~repro.workload.registry.WorkloadSpec` identity, knob validation
naming the accepted set, and one driver-factory entry point
(:func:`~repro.workload.registry.make_workload`).  These tests pin the
catalogue, the spec canonicalisation (knob round-trips, presets,
default-dropping), the error surfaces, the page-estimate equivalence with
the legacy TPC-C probe, and the :class:`ExperimentConfig` integration
(config-time validation, ``describe()`` tokens, CellSpec lowering).
"""

from __future__ import annotations

import pytest

from repro.core.config import CachePolicy
from repro.core.dbms import SimulatedDBMS
from repro.errors import WorkloadError
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import TINY
from repro.workload.registry import (
    TPCC_SPEC,
    WorkloadSpec,
    available_workloads,
    estimate_workload_pages,
    get_workload_entry,
    make_workload,
    workload_spec,
)
from tests.conftest import tiny_config


class TestCatalogue:
    def test_available_workloads_order(self):
        # tpcc leads (the paper's workload); the additions follow in
        # catalogue order — this is what the CLI offers as choices.
        assert available_workloads() == ("tpcc", "tpch-scan", "ycsb")

    def test_unknown_workload_names_the_known_set(self):
        with pytest.raises(WorkloadError, match="tpcc, tpch-scan, ycsb"):
            get_workload_entry("tpch")

    def test_entries_are_complete(self):
        for name in available_workloads():
            entry = get_workload_entry(name)
            assert entry.name == name
            assert entry.description
            assert entry.tx_kinds, name
            assert entry.headline_kind == entry.tx_kinds[0]
            assert callable(entry.make_driver)
            assert callable(entry.loader)

    def test_tpcc_spec_is_the_default(self):
        assert workload_spec() == TPCC_SPEC
        assert TPCC_SPEC.name == "tpcc"
        assert TPCC_SPEC.token == "tpcc"


class TestSpecCanonicalisation:
    def test_knob_round_trip(self):
        spec = workload_spec("ycsb", {"zipf_s": 0.7, "update_fraction": 0.9})
        entry = get_workload_entry("ycsb")
        resolved = entry.config_knobs(spec)
        assert resolved["zipf_s"] == 0.7
        assert resolved["update_fraction"] == 0.9
        # Untouched knobs keep the entry defaults.
        assert resolved["ops_per_tx"] == dict(entry.knobs)["ops_per_tx"]

    def test_default_valued_knobs_are_dropped(self):
        entry = get_workload_entry("tpch-scan")
        defaults = dict(entry.knobs)
        spec = workload_spec("tpch-scan", {"scan_pages": defaults["scan_pages"]})
        assert spec == workload_spec("tpch-scan")
        assert spec.token == "tpch-scan"

    def test_knobs_sort_for_stable_identity(self):
        a = workload_spec("ycsb", {"zipf_s": 0.7, "ops_per_tx": 4})
        b = workload_spec("ycsb", {"ops_per_tx": 4, "zipf_s": 0.7})
        assert a == b
        assert hash(a) == hash(b)
        assert a.token == "ycsb[ops_per_tx=4,zipf_s=0.7]"

    def test_unknown_knob_names_the_accepted_set(self):
        with pytest.raises(WorkloadError, match="accepted"):
            workload_spec("ycsb", {"bogus": 1})

    def test_preset_applies_then_knobs_override(self):
        churn = workload_spec("ycsb", preset="write-churn")
        assert dict(churn.knobs)["update_fraction"] == 0.9
        overridden = workload_spec(
            "ycsb", {"update_fraction": 0.5}, preset="write-churn"
        )
        assert dict(overridden.knobs)["update_fraction"] == 0.5
        assert dict(overridden.knobs)["zipf_s"] == 0.7  # preset survives

    def test_unknown_preset_raises(self):
        with pytest.raises(WorkloadError, match="preset"):
            workload_spec("ycsb", preset="nope")

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        spec = workload_spec("tpch-scan", {"scan_skew": 0.5})
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert {spec: 1}[spec] == 1


class TestPageEstimates:
    def test_tpcc_matches_legacy_probe(self):
        # Config parity with every pre-registry call site: sizing a system
        # for the default workload must reproduce estimate_db_pages.
        assert estimate_workload_pages(TPCC_SPEC, TINY) == estimate_db_pages(TINY)

    def test_every_workload_estimates_positive(self):
        for name in available_workloads():
            assert estimate_workload_pages(workload_spec(name), TINY) > 0

    def test_estimates_differ_between_workloads(self):
        pages = {
            name: estimate_workload_pages(workload_spec(name), TINY)
            for name in available_workloads()
        }
        assert len(set(pages.values())) == len(pages), pages


class TestMakeWorkload:
    @pytest.mark.parametrize("name", ["tpcc", "tpch-scan", "ycsb"])
    def test_returns_loaded_driver(self, name):
        dbms = SimulatedDBMS(tiny_config(CachePolicy.NONE))
        driver = make_workload(name, dbms, scale=TINY, seed=3)
        entry = get_workload_entry(name)
        for _ in range(5):
            result = driver.run_one()
            assert result.kind in entry.tx_kinds
        assert driver.stats.executed == 5

    def test_headline_commits_counted(self):
        dbms = SimulatedDBMS(tiny_config(CachePolicy.NONE))
        driver = make_workload("tpch-scan", dbms, scale=TINY, seed=3)
        driver.run_one(kind="scan")
        assert driver.stats.neworder_commits == 1  # historic field name

    def test_knobs_reach_the_driver(self):
        dbms = SimulatedDBMS(tiny_config(CachePolicy.NONE))
        driver = make_workload(
            "ycsb", dbms, scale=TINY, seed=3, update_fraction=0.0
        )
        assert driver.update_fraction == 0.0


class TestExperimentIntegration:
    def test_config_validates_workload_at_construction(self):
        with pytest.raises(WorkloadError, match="available"):
            ExperimentConfig(workload="tpch")
        with pytest.raises(WorkloadError, match="accepted"):
            ExperimentConfig(workload="ycsb", workload_knobs={"bogus": 1})

    def test_config_canonicalises_knobs(self):
        config = ExperimentConfig(
            scale=TINY, workload="ycsb", workload_knobs={"zipf_s": 0.7}
        )
        assert config.workload_knobs == (("zipf_s", 0.7),)
        assert config.workload_spec() == workload_spec("ycsb", {"zipf_s": 0.7})
        # Default-valued overrides normalise away: equal experiments
        # compare (and hash) equal.
        entry = get_workload_entry("ycsb")
        explicit = ExperimentConfig(
            scale=TINY,
            workload="ycsb",
            workload_knobs={"zipf_s": 0.7, "ops_per_tx": dict(entry.knobs)["ops_per_tx"]},
        )
        assert explicit == config

    def test_describe_carries_the_workload_token(self):
        config = ExperimentConfig(
            scale=TINY, workload="ycsb", workload_knobs={"zipf_s": 0.7}
        )
        assert "workload='ycsb[zipf_s=0.7]'" in config.describe()
        assert "workload" not in ExperimentConfig(scale=TINY).describe()

    def test_system_config_sizes_by_workload(self):
        # Workload knobs feed the page estimate that sizes the system: a
        # much larger keyspace must grow the flash cache past the floor
        # the default-sized workloads share at TINY.
        small = ExperimentConfig(scale=TINY, workload="ycsb").system_config()
        big = ExperimentConfig(
            scale=TINY, workload="ycsb", workload_knobs={"n_keys": 500_000}
        ).system_config()
        assert big.cache_pages > small.cache_pages

    def test_cellspec_lowering_carries_workload(self):
        config = ExperimentConfig(
            scale=TINY, workload="tpch-scan", workload_knobs={"scan_skew": 0.5}
        )
        spec = CellSpec.from_config(("cell",), config)
        assert spec.workload == "tpch-scan"
        assert spec.workload_knobs == (("scan_skew", 0.5),)
        assert spec.workload_spec() == config.workload_spec()

    def test_workload_is_an_ablation_axis(self):
        from repro.sim.ablation import AXES, resolve_axis

        assert "workload" in AXES
        assert resolve_axis("workload").values == available_workloads()


class TestWorkloadSpecDefaults:
    def test_plain_construction_is_tpcc(self):
        assert WorkloadSpec() == TPCC_SPEC

    def test_resolved_knobs_merges_defaults(self):
        spec = workload_spec("tpch-scan", {"probe_fraction": 0.6})
        resolved = spec.resolved_knobs()
        assert resolved["probe_fraction"] == 0.6
        assert resolved["scan_pages"] == 96
