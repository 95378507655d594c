"""The benchmark recorder's pass table and its gates, run on the committed
records without simulating anything.

``benchmarks/record.py --check`` judges a committed record by the same
gates a fresh run must pass; these tests pin that every committed record
passes, that each gate fires on a record broken in the field it guards,
and that a smoke run can never overwrite a committed record.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "benchmarks_record", BENCHMARKS / "record.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


record = _load_recorder()


def committed(name: str) -> dict:
    return json.loads(record.PASSES[name].path.read_text())


def test_check_all_passes_on_the_committed_records(capsys):
    assert record.main(["--check", "all"]) == 0
    assert capsys.readouterr().err == ""


def test_every_pass_has_a_committed_record_and_back():
    for name, entry in record.PASSES.items():
        assert entry.name == name
        assert entry.path.exists(), f"pass {name} has no committed record"
    committed_files = {
        path for path in BENCHMARKS.glob("BENCH_*.json")
        if not path.name.endswith("_smoke.json")
    }
    assert committed_files == {entry.path for entry in record.PASSES.values()}


def _parent(latest: dict, path: str):
    """The container holding dotted ``path``'s last part, and that part."""
    *parents, leaf = path.split(".")
    target = latest
    for part in parents:
        target = target[int(part)] if isinstance(target, list) else target[part]
    return target, int(leaf) if isinstance(target, list) else leaf


def _set(path: str, value):
    def mutate(latest):
        target, leaf = _parent(latest, path)
        target[leaf] = value

    return mutate


def _drop(path: str):
    def mutate(latest):
        target, leaf = _parent(latest, path)
        del target[leaf]

    return mutate


BROKEN = [
    ("sweep", _set("fast.parity", False), "fast-path results are NOT bit-identical"),
    ("sweep", _set("deterministic", False), "parallel results are NOT bit-identical"),
    ("sweep", _set("fast.speedup_warm_vs_serial", 2.0), "below the 8x floor"),
    ("sweep", _drop("fast"), "record has no 'fast'"),
    ("sweep", _drop("cells.0.tpmc"), "has no 'tpmc'"),
    ("sweep", _set("trace.compression_ratio", 2.0), "below the 3.0x floor"),
    ("sweep", _drop("trace"), "no persisted trace found"),
    ("latency", _set("replay_parity", False), "service replay results are NOT"),
    ("latency", _set("ladders.lc.1.p95_ms", 1e9), "non-monotone percentiles"),
    ("latency", _set("knees.lc", None), "policy lc never saturated"),
    ("latency", _drop("ladders"), "record has no 'ladders'"),
    ("latency", _drop("ladders.lc.0.p99_ms"), "has no 'p99_ms'"),
    ("scan", _set("scan_resistance.htap.gsc_beats_lc", False),
     "GSC htap flash hit ratio"),
    ("scan", _set("scan_resistance.pure-scan.gsc_beats_lc", False),
     "GSC pure-scan flash hit ratio"),
    ("scan", _set("native_recorded_transactions", 5), "recorded 5 native"),
    ("scan", _set("replay_parity", False), "scan replay results are NOT"),
    ("scan", _set("workload", "ycsb"), "not 'tpch-scan'"),
    ("scan", _drop("scan_resistance"), "record has no 'scan_resistance'"),
    ("scan", _drop("scan_resistance.htap"), "scan_resistance covers"),
    ("scan", _drop("cells.0.transactions"), "has no 'transactions'"),
    ("recovery", _set("replay_parity", False), "recovery replay results are NOT"),
    ("recovery", _set("speedups.0.face_speedup_vs.lc", 1.0), "(< 1.1x floor)"),
    ("recovery", _drop("speedups.0.face_speedup_vs.hdd-only"),
     "speedups at interval 1.0 has no 'hdd-only'"),
    ("recovery", _drop("speedups"), "record has no 'speedups'"),
    ("recovery", _drop("n_cells"), "record has no 'n_cells'"),
    ("recovery", _set("speedups.0.restart_seconds.face+gsc", 0.2),
     "is not below 0.6x HDD-only's"),
    ("recovery", _set("speedups.2.restart_seconds.hdd-only", 0.1),
     "hdd-only restart does not grow with the checkpoint interval"),
    ("recovery", _set("cells.0.cache_survived", False), "flash cache did not survive"),
    ("recovery", _set("cells.0.metadata_restore_seconds", 5.0), "is not a small term"),
    ("recovery", _set("cells.2.flash_read_fraction", 0.5), "of its redo pages from flash"),
    ("recovery", _drop("cells.0.cache_survived"), "has no 'cache_survived'"),
    ("storage", _set("backends.sqlite.parity_with_memory", False),
     "NOT bit-identical to memory: sqlite"),
    ("storage", _set("backends.mmap.overhead_vs_memory", 13.0), "> 12.0x ceiling"),
    ("storage", _set("backends.sqlite.tpmc", 1.0), "disagree on tpmC"),
    ("storage", _drop("backends.mmap"), "not the registered"),
    ("storage", _drop("backends.memory.tpmc"), "backend memory has no 'tpmc'"),
    ("storage", _drop("mode"), "record has no 'mode'"),
    ("paper", _set("replay_parity", False), "paper replay results are NOT"),
    ("paper", _drop("replay_parity"), "record has no 'replay_parity'"),
    ("paper", _drop("fig6"), "paper record is malformed: KeyError 'fig6'"),
    ("paper", _drop("table3.lc"), "paper record is malformed"),
    ("paper", _set("table1.hdd_cheetah_15k.random_read_iops", 450.0),
     "is not within 2% of the calibrated"),
    ("paper", _set("table1.mlc_samsung_470.random_write_iops", 5000.0),
     "is below 95% of the calibrated"),
    ("paper", _set("table1.raid0_8_disks.random_read_iops", 3000.0), "are not 10x the array's"),
    ("paper", _set("table1.hdd_cheetah_15k.random_read_iops", 600.0), "are not 50x a disk's"),
    ("paper", _set("table2.tac.write_reduction", 0.1), "write-through tac reduces writes"),
    ("paper", _set("table2.face.write_reduction", 0.2),
     "write-back face write reduction 0.2 is not above 0.3"),
    ("paper", _set("table2.tac.metadata_writes", 10), "metadata writes 10 are not above 1000"),
    ("paper", _set("table2.exadata.tpmc", 5000.0), "does not top the best baseline's"),
    ("paper", _set("table3.face.flash_hit_rate.4", 0.3), "face hit ratio does not grow"),
    ("paper", _set("table3.lc.write_reduction.4", 0.1), "lc write reduction does not grow"),
    ("paper", _set("table3.face+gr.flash_hit_rate.2", 1.0), "face+gr hit ratios"),
    ("paper", _set("table3.lc.flash_hit_rate.1", 0.5), "LC hit ratio 0.5 is 0.02 below"),
    ("paper", _set("table3.face+gsc.flash_hit_rate.1", 0.5),
     "FaCE+GSC hit ratio 0.5 is 0.02 below"),
    ("paper", _set("table3.face.flash_hit_rate.2", 0.5), "LC leads FaCE by 0.20 or more"),
    ("paper", _set("table3.face.duplicate_fraction.0", 0.01),
     "FaCE duplicate fraction 0.01 is not above 0.02"),
    ("paper", _set("table3.lc.duplicate_fraction.0", 0.1), "LC keeps duplicates"),
    ("paper", _set("table4.face+gsc.flash_utilization.0", 1.0),
     "is not above FaCE+GSC's"),
    ("paper", _set("table4.face+gr.flash_utilization.0", 1.0), "is not above FaCE+GR's"),
    ("paper", _set("table4.lc.flash_utilization.2", 0.85),
     "LC flash utilization 0.85 is not above 0.9"),
    ("paper", _set("table4.face+gsc.flash_utilization.2", 0.85),
     "FaCE+GSC flash utilization 0.85 is not below 0.8"),
    ("paper", _set("table4.lc.flash_page_iops.4", 9000.0),
     "LC page I/O keeps growing past 12%"),
    ("paper", _set("table4.face.flash_page_iops.4", 1000.0), "FaCE page I/O does not grow"),
    ("paper", _set("table4.face+gsc.flash_page_iops.4", 14000.0),
     "is not 1.25x its 12% figure"),
    ("paper", _set("table4.face+gsc.flash_page_iops.4", 9000.0), "is not 1.3x LC's"),
    ("paper", _set("fig4.mlc.face.tpmc.3", 2000.0), "Fig 4 mlc: face tpmC does not grow"),
    ("paper", _set("fig4.slc.lc.tpmc.3", 1000.0), "does not beat HDD-only's"),
    ("paper", _set("fig4.mlc.lc.tpmc.3", 9500.0), "is not 1.15x LC's"),
    ("paper", _set("fig4.mlc.face.tpmc.3", 11000.0), "does not beat FaCE's"),
    ("paper", _set("fig4.mlc.face+gr.tpmc.3", 7000.0), "falls 5% below FaCE's"),
    ("paper", _set("fig4.mlc.face+gsc.tpmc.0", 10600.0),
     "LC gains as much from a larger cache as FaCE+GSC"),
    ("paper", _set("fig4.mlc.ssd-only.tpmc.3", 20000.0), "does not beat SSD-only's"),
    ("paper", _set("fig4.slc.lc.tpmc.3", 9800.0), "Fig 4 slc: FaCE+GSC 10670.454 is not 1.1x"),
    ("paper", _set("table5.dram.tpmc.0", 2500.0), "Table 5 step x1: more flash"),
    ("paper", _set("table5.flash.tpmc.4", 2000.0), "more flash stops paying"),
    ("paper", _set("table5.dram.tpmc.4", 1500.0), "more DRAM stops paying"),
    ("paper", _set("fig5.face+gsc.tpmc.3", 3000.0), "FaCE+GSC does not scale 1.5x"),
    ("paper", _set("fig5.hdd-only.tpmc.3", 800.0), "HDD-only does not scale 1.5x"),
    ("paper", _set("fig5.lc.tpmc.3", 4000.0), "LC keeps scaling past 8 disks"),
    ("paper", _set("fig5.lc.tpmc.2", 7000.0), "Fig 5 at 12 disks: FaCE+GSC"),
    ("paper", _set("fig5.lc.tpmc.3", 3500.0), "is not below 1.2x HDD-only's"),
    ("paper", _set("fig6.face+gsc.restart_seconds", 0.4), "Fig 6: FaCE+GSC outage"),
    ("paper", _set("fig6.hdd-only.tpmc.1", 20000.0), "first 6 windows"),
    ("paper", _set("fig6.hdd-only.tpmc.11", 9000.0), "after the ramp"),
    ("paper", _set("costmodel.read-only.exponent", 1.05), "read-only exponent 1.05"),
    ("paper", _set("costmodel.write-only.exponent", 1.1), "write-only exponent 1.1"),
    ("paper", _set("costmodel.write-only.exponent", 1.01),
     "read-only exponent is not below the write-only one"),
    ("paper", _set("costmodel.read-only.theta", 0.6), "break-even theta 0.6"),
    ("paper", _set("costmodel.write-only.roi", 1.5), "write-only flash ROI 1.5"),
    ("paper", _set("fit.lc.r_squared", 0.9), "lc log-law R^2 0.9"),
    ("paper", _set("fit.face+gsc.alpha", -0.1), "face+gsc log-law slope"),
    ("paper", _set("fit.lc.mid_predicted", 0.5), "lc log law misses the 12% hit ratio"),
    ("paper", _set("ablations.sync.face+gsc.flash_hit_rate.1", 0.5),
     "write-through changes the hit ratio"),
    ("paper", _set("ablations.sync.face+gsc.write_reduction.1", 0.3),
     "write-through write reduction 0.3"),
    ("paper", _set("ablations.sync.face+gsc.write_reduction.0", 0.3),
     "write-back write reduction 0.3"),
    ("paper", _set("ablations.sync.face+gsc.tpmc.1", 4000.0), "is not 1.2x write-through's"),
    ("paper", _set("ablations.admission.face+gsc.flash_hit_rate.1", 0.8),
     "caching clean pages buys no read hits"),
    ("paper", _set("ablations.admission.face+gsc.write_reduction.1", 0.9),
     "gives up a quarter of the write reduction"),
    ("paper", _set("ablations.admission.face+gsc.tpmc.1", 5000.0),
     "does not beat dirty-only's"),
    ("paper", _set("ablations.scan_depth.face+gsc.tpmc.0", 6000.0), "is not flat within 25%"),
    ("paper", _set("ablations.scan_depth.face+gsc.flash_hit_rate.0", 0.5),
     "hit ratios spread by 0.08 or more"),
    ("paper", _set("ablations.dram_policy.hdd-only.tpmc.1", 3500.0),
     "under clock FaCE+GSC 4508.749 is not 1.5x"),
    ("paper", _set("ablations.dram_policy.hdd-only.tpmc.1", 2500.0), "differ by 30% or more"),
    ("paper", _set("skew.face+gsc.flash_hit_rate.3", 0.3), "hit ratio does not climb 0.15"),
    ("paper", _set("skew.face+gsc.tx_per_s.3", 150.0), "speedup does not grow with skew"),
    ("paper", _set("skew.hdd-only.tx_per_s.3", 500.0), "strong-skew speedup"),
    ("paper", _set("skew.hdd-only.tx_per_s.0", 300.0), "uniform-traffic speedup"),
]


@pytest.mark.parametrize(
    "name, mutate, message", BROKEN,
    ids=[f"{case[0]}-{case[2]}" for case in BROKEN],
)
def test_check_fails_on_a_broken_copy(name, mutate, message, tmp_path,
                                      monkeypatch, capsys):
    document = copy.deepcopy(committed(name))
    mutate(document["latest"])
    broken = tmp_path / f"BENCH_{name}.json"
    broken.write_text(json.dumps(document))
    monkeypatch.setitem(
        record.PASSES, name, dataclasses.replace(record.PASSES[name], path=broken)
    )
    assert record.main(["--check", name]) == 1
    err = capsys.readouterr().err
    assert f"FAIL: {name}: " in err
    assert message in err, err


def test_smoke_gates_judge_a_smoke_shaped_scan_record():
    latest = copy.deepcopy(committed("scan")["latest"])
    assert record.scan_gates(latest) == []
    latest["mode"] = "smoke"  # a smoke run measures the full grid
    assert record.scan_gates(latest) == []
    latest["cells"].append(copy.deepcopy(latest["cells"][0]))
    latest["n_cells"] += 1
    assert any("the grid has 4" in p for p in record.scan_gates(latest))


def test_the_warm_floor_binds_only_without_obs():
    latest = copy.deepcopy(committed("sweep")["latest"])
    latest["fast"]["speedup_warm_vs_serial"] = 2.0
    assert any("8x floor" in p for p in record.sweep_gates(latest))
    for row in latest["cells"]:
        row["obs"] = {}
    assert record.sweep_gates(latest) == []


class TestOutputPath:
    def test_a_full_run_defaults_to_the_committed_record(self):
        entry = record.PASSES["sweep"]
        assert record.output_path(entry, None, smoke=False) == entry.path

    @pytest.mark.parametrize("name", sorted(record.PASSES))
    def test_a_smoke_run_never_defaults_to_a_committed_record(self, name):
        entry = record.PASSES[name]
        path = record.output_path(entry, None, smoke=True)
        assert path.name == f"BENCH_{name}_smoke.json"
        assert path not in {e.path for e in record.PASSES.values()}

    def test_a_smoke_run_refuses_any_committed_record(self, monkeypatch):
        monkeypatch.chdir(BENCHMARKS)
        sweep = record.PASSES["sweep"]
        with pytest.raises(ValueError, match="may not overwrite"):
            record.output_path(sweep, Path("BENCH_scan.json"), smoke=True)
        with pytest.raises(SystemExit):
            record.main(["--smoke", "--output", str(sweep.path)])

    def test_an_explicit_scratch_output_is_kept(self, tmp_path):
        target = tmp_path / "x.json"
        assert record.output_path(record.PASSES["scan"], target, smoke=True) == target

    def test_obs_belongs_to_the_sweep(self):
        with pytest.raises(SystemExit):
            record.main(["scan", "--obs", "--smoke"])
