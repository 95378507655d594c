#!/usr/bin/env python3
"""The repository's one benchmark: ``python perf/bench.py``.

Four named workloads (``workloads.py``), each measured two ways:

* the **end-to-end pass** (``--trace 0``) times the public sweep API,
  :func:`repro.sim.parallel.run_cells`, with no instrumentation, and checks
  that what it returned is correct;
* the **traced pass** (``--trace 1``, ``layers.py``) drives the reference
  cells by hand with timing wrappers around each layer's public functions
  and reports where the host time went.

The driver's contract is ``--workload W --seed N --seconds S --trace 0|1``;
the last line of standard output is then one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Left out, ``--workload`` means
all four (one JSON line each) and ``--trace`` means both passes.  README.md
in this directory is the manual.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import hostclock
from hostclock import Sample, measured

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

#: Set-up runs at least this many times per process, and (up to
#: ``SETUP_MAX_REPS``) until it has used ``Sizes.setup_min_cpu_s`` in all;
#: ``setup_s`` is the median.
SETUP_REPS = 3
SETUP_MAX_REPS = 7


@dataclass
class Tally:
    """What ran and what went wrong: the ``attempted`` / ``failed`` counts."""

    cells: int = 0
    failed_cells: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Findings printed beside the results but not counted as failures.
    warnings: list[tuple[str, str]] = field(default_factory=list)

    def warn(self, name: str, detail: str) -> None:
        self.warnings.append((name, detail))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return self.cells + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_cells + sum(1 for _, ok, _ in self.checks if not ok)


# -- process isolation --------------------------------------------------------------


def isolate_process() -> Path:
    """Private scratch directory, clean environment, ``repro`` importable.

    Everything the run writes — trace cache, page-store files, crash state —
    lands under ``perf/out/``; the scratch directory is removed on exit.
    """
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/bench.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    for name in list(os.environ):
        if name == "REPRO_OBS" or name.startswith(("REPRO_REPLAY_", "REPRO_BENCH_")):
            del os.environ[name]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    # Throwaway page-store files follow tempfile's directory, in this
    # process and (through TMPDIR) in any worker or crash victim it starts.
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    os.environ["REPRO_TRACE_CACHE"] = str(scratch / "trace-cache")
    return scratch


def stop_started_processes() -> None:
    """Stop and wait for the processes this run started and has not reaped
    (``subprocess.run`` reaps its own: set-up's interpreter, the crash victim).

    ``run_cells(jobs=2)`` publishes traces through ``multiprocessing``'s
    shared memory, which starts a resource-tracker process that otherwise
    outlives this one by a moment: it only ends once it sees this process's
    end of their pipe closed.  Registered with ``atexit`` before the program
    is imported, so it runs after the program's own exit hooks (which unlink
    shared segments and would start the tracker again).
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        tracker_module._resource_tracker._stop()  # closes the pipe, then waitpid


def reset_program_state() -> None:
    """Forget every per-process memo of the program (between workloads and
    between set-up repetitions)."""
    from repro.sim.replay import clear_recorders
    from repro.sim.warmstate import clear_snapshots

    clear_recorders()  # also clears retargeted recorders
    clear_snapshots()
    shutil.rmtree(os.environ["REPRO_TRACE_CACHE"], ignore_errors=True)
    gc.collect()


def header() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    from repro.sim.kernel import numpy_active

    return (
        f"# python {platform.python_version()} numpy {numpy_version} "
        f"numpy_active={numpy_active()} nproc={os.cpu_count()}"
    )


# -- the end-to-end pass ------------------------------------------------------------


def import_program() -> None:
    """Start a fresh interpreter and import the program plus this benchmark.

    Importing is set-up every run pays, but a process can only do it once;
    a child repeats it.  The child's CPU time reaches the caller through
    ``process_time``-style accounting of waited-for children (see
    :func:`measured`, which counts both).
    """
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(PERF_DIR)!r}]; "
        "import workloads, checks"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def executed_transactions(result, forked: bool) -> int:
    """Transactions one cell actually ran (a cell that adopted a post-warm-up
    fork reports the warm-up it skipped; that is not work done here)."""
    run = getattr(result, "transactions", None)
    if run is None:
        run = result.transactions_before_crash
    return run + (0 if forked else result.warmup_transactions)


def run_cell_list(plan, specs, tally: Tally) -> tuple[dict, int, Sample]:
    """``run_cells`` over ``specs`` one cell at a time (``jobs=1``), each
    between calibration slices.  Returns results, transactions, cost."""
    from repro.sim.parallel import run_cells
    from repro.sim.warmstate import warm_fork_stats

    results: dict = {}
    transactions = 0
    total = Sample()
    for spec in specs:
        hits = warm_fork_stats()["hits"]
        tally.cells += 1
        try:
            cell, sample = measured(lambda: run_cells([spec], jobs=1, fast=plan.fast))
        except Exception:
            traceback.print_exc()
            tally.failed_cells += 1
            continue
        results.update(cell)
        total = total + sample
        transactions += executed_transactions(
            cell[spec.key], forked=warm_fork_stats()["hits"] > hits
        )
    return results, transactions, total


def end_to_end(workload, seed: int, seconds: float, sizes, tally: Tally):
    """Set-up (repeated), timed rounds, then the checks."""
    import checks
    from workloads import forget_forks, prepare

    pass_started = time.perf_counter()
    setups = []
    plan = None
    while len(setups) < SETUP_REPS or (
        len(setups) < SETUP_MAX_REPS
        and sum(s.cpu_s for s in setups) < sizes.setup_min_cpu_s
    ):
        reset_program_state()

        def set_up():
            import_program()
            plan = workload.build(seed, sizes)
            prepare(plan)
            return plan

        plan, sample = measured(set_up)
        setups.append(sample)

    rounds: list[tuple[int, Sample]] = []
    first: dict | None = None
    started = time.perf_counter()
    while True:
        forget_forks(plan)
        results, transactions, sample = run_cell_list(plan, plan.timed, tally)
        if first is None:
            first = results
        if tally.failed_cells:
            break  # not a whole round: nothing to time, and no point repeating it
        rounds.append((transactions, sample))
        if len(rounds) > 1:
            tally.check(
                f"round {len(rounds)} repeats round 1", results == first,
                "same specs gave different simulated results",
            )
        elapsed = time.perf_counter() - started
        if elapsed + sample.wall_s / 2 >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = dict(first)
    extra, _, _ = run_cell_list(plan, plan.extra, tally)
    results.update(extra)
    checks.run_checks(workload.name, plan, results, tally, sizes)

    def rate(seconds_of: Callable[[Sample], float]) -> float:
        return statistics.median(tx / seconds_of(s) for tx, s in rounds if seconds_of(s) > 0)

    # A cell that raised is counted as failed above; the result line is still
    # printed, without the metrics that cell would have fed.
    metrics = {"setup_s": (statistics.median(s.norm_s for s in setups), "s")}
    if rounds:
        metrics["host_tx_per_norm_s"] = (rate(lambda s: s.norm_s), "1/s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    if plan.ref_steady in results:
        metrics["sim_tpm"] = (results[plan.ref_steady].tpmc, "1/min")
    info = {
        "pass_wall_s": time.perf_counter() - pass_started,
        "setup_cpu_s": statistics.median(s.cpu_s for s in setups),
        "setup_wall_s": statistics.median(s.wall_s for s in setups),
    }
    if rounds:
        info.update(
            rounds=len(rounds),
            tx_per_round=rounds[0][0],
            timed_wall_s=sum(s.wall_s for _, s in rounds),
            wall_tx_per_s=rate(lambda s: s.wall_s),
            cpu_tx_per_s=rate(lambda s: s.cpu_s),
        )
    return results, metrics, info


# -- output ---------------------------------------------------------------------------


def print_metrics(workload: str, metrics: dict, info: dict | None = None) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:20s} {name:40s} {value:16.6f} {unit}")
    for name, value in (info or {}).items():
        print(f"{workload:20s} # {name:38s} {value:16.6f}")


def print_checks(workload: str, tally: Tally) -> None:
    for name, ok, detail in tally.checks:
        if not ok:
            print(f"{workload:20s} CHECK FAILED {name}: {detail}")
    for name, detail in tally.warnings:
        print(f"{workload:20s} WARNING {name}: {detail}")
    print(
        f"{workload:20s} # {tally.cells} cells ({tally.failed_cells} raised), "
        f"{len(tally.checks)} checks ({tally.failed - tally.failed_cells} failed)"
    )


def result_line(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def run_workload(name: str, args) -> dict:
    from workloads import BENCH_SIZES, SMOKE_SIZES, WORKLOADS

    workload = WORKLOADS[name]
    sizes = SMOKE_SIZES if args.smoke else BENCH_SIZES
    seconds = min(args.seconds, 2.0) if args.smoke else args.seconds
    tally = Tally()
    metrics: dict = {}
    e2e_results = None
    if args.trace in (None, 0):
        e2e_results, e2e_metrics, info = end_to_end(workload, args.seed, seconds, sizes, tally)
        print_metrics(name, e2e_metrics, info)
        metrics.update(e2e_metrics)
    if args.trace in (None, 1):
        import layers

        reset_program_state()
        try:
            layer_metrics = layers.traced_pass(
                workload, args.seed, sizes, tally, e2e_results, OUT_DIR
            )
        except Exception as exc:
            traceback.print_exc()
            tally.check("traced pass completed", False, repr(exc))
        else:
            print_metrics(name, layer_metrics)
            metrics.update(layer_metrics)
    print_checks(name, tally)
    reset_program_state()
    return result_line(tally, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload by name (default: all four)")
    parser.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="wall seconds of timed rounds per workload (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass only; 1: traced pass only "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="TINY scale, seconds: exercises every path, measures nothing")
    parser.add_argument("--out", metavar="FILE",
                        help="append this run's results to FILE as one JSON line "
                             "(the input of perf/compare.py)")
    args = parser.parse_args(argv)

    if args.smoke:
        # Nothing is measured, so a tenth of the calibration (two slices
        # around each of ~70 cells: half the run) is enough to exercise it.
        hostclock.SPIN_SLICE //= 10
    scratch = isolate_process()
    try:
        from workloads import WORKLOADS  # pulls in the program under test

        if args.workload is not None and args.workload not in WORKLOADS:
            parser.error(
                f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})"
            )
        names = [args.workload] if args.workload else list(WORKLOADS)
        print(header())
        lines = {}
        for name in names:
            lines[name] = run_workload(name, args)
        if args.out:
            with open(args.out, "a") as fh:
                json.dump(
                    {"seed": args.seed, "smoke": args.smoke, "workloads": lines}, fh
                )
                fh.write("\n")
        for name in names:
            print(json.dumps(lines[name]))
        # A run that printed its results has done its job: whether they are
        # correct is in the results, which is where the driver reads it.
        # ``--smoke`` is the CI entry and has no reader but the exit code.
        failed = sum(line["failed"] for line in lines.values())
        return 1 if args.smoke and failed else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    # Registered before the program is imported — first in, last out — so it
    # runs after every exit hook the program registers.
    atexit.register(stop_started_processes)
    # A terminated run leaves through the same door (``finally``, ``atexit``).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
