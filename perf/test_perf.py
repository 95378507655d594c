"""Tests of the benchmark itself: ``pytest perf/ -q`` (not part of tier-1).

They pin the contract a later change relies on: the smoke run passes and is
quick, the metric names printed are exactly those ``BENCHMARK.json``
names, self time is computed the way ``tracing.py`` says, every wrapper comes
off again, no process outlives a run, a failing cell still yields a result line,
and ``compare.py`` calls a regression a regression.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path[:0] = [str(ROOT / "src"), str(PERF)]

import compare  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def session_members(session: int) -> list[str]:
    """Command lines of the live (not zombie) processes of one session."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()
            if int(stat[3]) == session and stat[0] != "Z":
                found.append(Path(f"/proc/{entry}/cmdline").read_text().replace("\0", " "))
        except OSError:
            continue  # ended while we looked
    return found


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` run of all four workloads, both passes, in a session
    of its own so that what it leaves running can be seen."""
    directory = tmp_path_factory.mktemp("smoke")
    out, errors = directory / "runs.json", directory / "stderr.txt"
    started = time.perf_counter()
    # Standard error goes to a file: multiprocessing's resource tracker holds
    # it open, so reading it through a pipe would wait for the tracker to end
    # and hide that it outlived the run.
    with open(errors, "w") as stderr, subprocess.Popen(
        [sys.executable, str(PERF / "bench.py"), "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=stderr, text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    elapsed = time.perf_counter() - started
    left_running = session_members(proc.pid) if os.path.isdir("/proc") else []
    assert proc.returncode == 0, (stdout[-2000:], errors.read_text()[-2000:])
    return elapsed, stdout, json.loads(out.read_text()), left_running


def test_run_leaves_no_process_behind(smoke):
    # The jobs=2 grid starts pool workers and a multiprocessing resource
    # tracker; all of them must have ended by the time the run has.
    assert smoke[3] == []


def test_smoke_is_correct_and_quick(smoke):
    elapsed, stdout, document, _ = smoke
    # About 23 s on a quiet 2-core box, which is at times half as fast.
    assert elapsed < 60, f"--smoke took {elapsed:.0f}s"
    assert list(document["workloads"]) == WORKLOADS
    for name, result in document["workloads"].items():
        assert result["correct"] and result["failed"] == 0, (name, stdout)
        assert result["attempted"] >= 1
    # The last line of a run is the last workload's result object.
    assert json.loads(stdout.strip().splitlines()[-1])["correct"] is True


def test_metric_names_match_benchmark_json(smoke):
    _, _, document, _ = smoke
    declared = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
                for m in BENCHMARK[kind]}
    assert len(declared) == len(BENCHMARK["end_to_end"]) + len(BENCHMARK["per_layer"])
    for name in declared:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for workload, result in document["workloads"].items():
        emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert emitted == declared, (workload, set(emitted) ^ set(declared))


def test_end_to_end_metrics_are_never_zero(smoke):
    _, _, document, _ = smoke
    for workload, result in document["workloads"].items():
        for metric in BENCHMARK["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, (workload, metric["name"])


def test_self_time_on_nested_spans():
    """outer [0,10] calls inner [2,5] and inner [6,9]; the second inner
    calls leaf [7,8]; the phase runs [0,12]."""
    now = [0.0]

    def advance(seconds):
        now[0] += seconds

    tracer = tracing.Tracer(clock=lambda: now[0])
    leaf = tracer.wrap("c.leaf", lambda: advance(1))

    def inner_body(with_leaf):
        advance(1)
        if with_leaf:
            leaf()
        advance(1 if with_leaf else 2)

    inner = tracer.wrap("b.inner", inner_body)

    def outer_body():
        advance(2)
        inner(False)
        advance(1)
        inner(True)
        advance(1)

    outer = tracer.wrap("a.outer", outer_body)
    with tracer.cell("cell"), tracer.phase("measure"):
        outer()
        advance(2)
    stats = tracer.layers[("cell", "measure")]
    assert stats["a.outer"] == [1, 10.0, 4.0]  # 10 - (3 + 3)
    assert stats["b.inner"] == [2, 6.0, 5.0]  # 3 + (3 - 1)
    assert stats["c.leaf"] == [1, 1.0, 1.0]
    assert stats[tracing.UNCOVERED] == [1, 12.0, 2.0]
    # Self times partition the phase: 4 + 5 + 1 + 2 == 12.
    assert sum(stat[2] for stat in stats.values()) == 12.0
    assert tracer.self_seconds("cell", "b") == 5.0
    assert tracer.calls("cell", "b.inner") == 2
    assert tracer.coverage("cell") == pytest.approx(10.0 / 12.0)
    spans = [(s["name"], s["parent"], s["start"], s["end"]) for s in tracer.spans]
    assert spans == [("cell", None, 0.0, 12.0), ("measure", "cell", 0.0, 12.0)]


def test_every_wrapper_is_restored_after_a_traced_run():
    import bench
    import layers
    from workloads import SMOKE_SIZES, WORKLOADS as BY_NAME

    before = {(id(owner), name): vars(owner)[name] for _, owner, name in tracing.targets()}
    assert len(before) > 50
    saved = tempfile.tempdir, dict(os.environ), list(sys.path)
    scratch = bench.isolate_process()
    try:
        tally = bench.Tally()
        metrics = layers.traced_pass(
            BY_NAME["tpcc_full"], 42, SMOKE_SIZES, tally, None, scratch,
        )
        assert tally.failed == 0, tally.checks
        assert metrics["trace.coverage"][0] > 0.5
        assert (scratch / "trace-tpcc_full.json").exists()
    finally:
        bench.reset_program_state()
        shutil.rmtree(scratch, ignore_errors=True)
        tempfile.tempdir, sys.path[:] = saved[0], saved[2]
        os.environ.clear()
        os.environ.update(saved[1])
    after = {(id(owner), name): vars(owner)[name] for _, owner, name in tracing.targets()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_a_cell_that_raises_still_gives_a_result_line(monkeypatch, capsys):
    """The reference cell raising is the case ``attempted`` / ``failed``
    exist for: the run must print its result object, and ``--smoke`` (the
    CI entry) must exit non-zero."""
    import bench
    import hostclock
    from repro.sim import parallel

    def broken(specs, **kwargs):
        if specs[0].key[0] == "steady":
            raise RuntimeError("injected")
        return real(specs, **kwargs)

    real = parallel.run_cells
    saved = tempfile.tempdir, dict(os.environ), list(sys.path)
    monkeypatch.setattr(parallel, "run_cells", broken)
    monkeypatch.setattr(hostclock, "SPIN_SLICE", hostclock.SPIN_SLICE)  # --smoke cuts it
    try:
        code = bench.main(["--smoke", "--workload", "tpcc_full", "--trace", "0"])
    finally:
        tempfile.tempdir, sys.path[:] = saved[0], saved[2]
        os.environ.clear()
        os.environ.update(saved[1])
    assert code == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and 1 <= line["failed"] <= line["attempted"]
    assert "setup_s" in line["metrics"] and "sim_tpm" not in line["metrics"]


def _runs(path: Path, metric: str, values: list[float]) -> str:
    path.write_text("".join(
        json.dumps({"seed": seed, "workloads": {"tpcc_full": {"metrics": {
            metric: {"value": v, "unit": "-"}}}}}) + "\n"
        for seed, v in enumerate(values)
    ))
    return str(path)


def test_compare_verdicts_on_host_metrics(tmp_path, capsys):
    host = "host_tx_per_norm_s"
    base = _runs(tmp_path / "a.json", host, [100.0, 101.0, 99.0, 100.0, 102.0])
    same = _runs(tmp_path / "b.json", host, [98.0, 100.0, 101.0, 99.0, 100.0])
    slow = _runs(tmp_path / "c.json", host, [60.0, 61.0, 59.0, 60.0, 62.0])
    wild = _runs(tmp_path / "d.json", host, [40.0, 100.0, 160.0, 70.0, 130.0])
    assert compare.main([base, same]) == 0
    assert " ok" in capsys.readouterr().out
    assert compare.main([base, slow]) == 1
    assert " worse" in capsys.readouterr().out
    assert compare.main([base, wild]) == 0
    assert " unresolved" in capsys.readouterr().out


def test_compare_wants_simulated_metrics_equal_seed_by_seed(tmp_path, capsys):
    """Same median, well inside the 0.25 bound, but seed 1 moved by 1 %."""
    base = _runs(tmp_path / "a.json", "sim_tpm", [4000.0, 5000.0, 6000.0])
    same = _runs(tmp_path / "b.json", "sim_tpm", [4000.0, 5000.0, 6000.0])
    moved = _runs(tmp_path / "c.json", "sim_tpm", [4000.0, 5050.0, 6000.0])
    assert compare.main([base, same]) == 0
    assert " ok (exact, 3 shared seeds)" in capsys.readouterr().out
    assert compare.main([base, moved]) == 1
    assert " worse" in capsys.readouterr().out
