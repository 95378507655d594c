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
    return target, leaf


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
    ("ablation", _set("replay_parity", False), "ablation replay results are NOT"),
    ("ablation", _set("trace.compression_ratio", 2.0), "below the 3.0x floor"),
    ("ablation", _drop("trace"), "no persisted trace found"),
    ("ablation", _drop("n_cells"), "record has no 'n_cells'"),
    ("latency", _set("replay_parity", False), "service replay results are NOT"),
    ("latency", _set("ladders.lc.1.p95_ms", 1e9), "non-monotone percentiles"),
    ("latency", _set("knees.lc", None), "policy lc never saturated"),
    ("latency", _drop("ladders"), "record has no 'ladders'"),
    ("latency", _drop("ladders.lc.0.p99_ms"), "has no 'p99_ms'"),
    ("scan", _set("scan_resistance.htap.gsc_beats_lru2", False),
     "GSC htap flash hit ratio"),
    ("scan", _set("scan_resistance.pure-scan.gsc_beats_lru2", False),
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
    ("storage", _set("backends.sqlite.parity_with_memory", False),
     "NOT bit-identical to memory: sqlite"),
    ("storage", _set("backends.mmap.overhead_vs_memory", 13.0), "> 12.0x ceiling"),
    ("storage", _set("backends.sqlite.tpmc", 1.0), "disagree on tpmC"),
    ("storage", _drop("backends.mmap"), "not the registered"),
    ("storage", _drop("backends.memory.tpmc"), "backend memory has no 'tpmc'"),
    ("storage", _drop("mode"), "record has no 'mode'"),
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
    latest["mode"] = "smoke"  # six cells is the full grid, not the smoke one
    assert any("a smoke grid has 4" in p for p in record.scan_gates(latest))


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
