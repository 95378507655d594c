"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      steady-state TPC-C measurement of one or more cache policies
``recover``  crash + restart comparison (Table 6 style)
``devices``  microbenchmark the simulated device models (Table 1 style)
``sweep``    cache-size sweep for one policy (Figure 4 style series)
``ablate``   replay-driven ablation grid over the paper's design knobs
             (admission, sync, scan depth, ...); prints per-axis
             sensitivity tables (also ``--json``); ``--recovery`` makes
             every cell a crash/restart measurement (Table 6 style)
``serve``    closed-loop concurrent-client measurement: N clients with
             think time over per-device FIFO queues; prints throughput and
             p50/p95/p99 latency per ``(policy, clients)`` cell
``stats``    one measured run with observability on; prints every internal
             metric plus the derived Table 3 figures (also ``--json``/``--csv``);
             ``--crash`` swaps in a crash/restart scenario and surfaces the
             ``recovery.*`` metrics; ``--clients N`` swaps in a closed-loop
             service scenario and surfaces latency columns plus the
             ``service.*`` metrics

All output is plain text / markdown; every command is deterministic for a
given ``--seed``.  ``run`` and ``sweep`` execute their independent cells in
parallel worker processes with ``--jobs N`` (``0`` = one per CPU); results
are bit-identical to ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import (
    restart_report_table,
    run_result_table,
    service_result_table,
)
from repro.analysis.tables import format_series, format_table
from repro.core.config import CachePolicy, scaled_reference_config
from repro.flashcache.registry import available_policies, get_policy_entry
from repro.sim.parallel import CellSpec, progress_printer, run_cells
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import CrashRecoveryScenario
from repro.sim.sweep import Sweep
from repro.storage.profiles import TABLE1_PROFILES
from repro.storage.registry import available_backends
from repro.tpcc.scale import BENCH, TINY, ScaleProfile
from repro.workload.registry import (
    WorkloadSpec,
    available_workloads,
    estimate_workload_pages,
)

#: CLI policy choices come from the registry, so a policy added there is
#: immediately selectable here (and in ``ablate``'s ``policy`` axis).
_POLICY_NAMES: dict[str, CachePolicy] = {
    name: get_policy_entry(name).policy for name in available_policies()
}


def _scale(name: str) -> ScaleProfile:
    try:
        return {"tiny": TINY, "bench": BENCH}[name]
    except KeyError:
        raise SystemExit(f"unknown scale {name!r} (use tiny|bench)") from None


def _workload(args) -> WorkloadSpec:
    """Resolve ``--workload``/``--workload-knob``/``--workload-preset``.

    Validation happens in the workload registry; its
    :class:`~repro.errors.WorkloadError` messages name the accepted
    workloads/knobs, so they are surfaced verbatim as the exit message.
    """
    from repro.errors import WorkloadError
    from repro.workload.registry import workload_spec

    knobs = {}
    for token in args.workload_knobs:
        name, sep, raw = token.partition("=")
        if not sep:
            raise SystemExit(
                f"--workload-knob needs NAME=VALUE, got {token!r}"
            )
        knobs[name.strip()] = _axis_value(raw)
    try:
        return workload_spec(args.workload, knobs, preset=args.workload_preset)
    except WorkloadError as exc:
        raise SystemExit(str(exc)) from None


def _build_runner(args, policy: CachePolicy, **overrides) -> ExperimentRunner:
    scale = _scale(args.scale)
    workload = _workload(args)
    config = scaled_reference_config(
        estimate_workload_pages(workload, scale),
        cache_fraction=args.cache_fraction,
        policy=policy,
        page_store=args.page_store,
        **overrides,
    )
    return ExperimentRunner(config, scale, seed=args.seed, workload=workload)


def cmd_run(args) -> int:
    scale = _scale(args.scale)
    workload = _workload(args)
    specs = [
        CellSpec(
            key=(name,),
            config=scaled_reference_config(
                estimate_workload_pages(workload, scale),
                cache_fraction=args.cache_fraction,
                policy=_POLICY_NAMES[name],
                page_store=args.page_store,
            ),
            scale=scale,
            seed=args.seed,
            workload=workload.name,
            workload_knobs=workload.knobs,
            measure_transactions=args.transactions,
            warmup_max=50_000,
        )
        for name in args.policies
    ]

    def report(key, result):
        print(f"# {result.name}: warm-up {result.warmup_transactions} tx, "
              f"measured {args.transactions} tx", file=sys.stderr)

    cells = run_cells(specs, jobs=args.jobs, on_cell=report, fast=args.fast)
    print(run_result_table(
        list(cells.values()), title=f"Steady state - {workload.token}"
    ))
    return 0


def cmd_recover(args) -> int:
    scale = _scale(args.scale)
    workload = _workload(args)
    scenario = CrashRecoveryScenario(
        checkpoint_interval=args.interval,
        crash_point=args.crash_point,
        warmup_max=50_000,
    )
    specs = [
        CellSpec(
            key=(name,),
            config=scaled_reference_config(
                estimate_workload_pages(workload, scale),
                cache_fraction=args.cache_fraction,
                policy=_POLICY_NAMES[name],
                page_store=args.page_store,
            ),
            scale=scale,
            seed=args.seed,
            workload=workload.name,
            workload_knobs=workload.knobs,
            scenario=scenario,
        )
        for name in args.policies
    ]
    cells = run_cells(specs, jobs=args.jobs, fast=args.fast)
    reports = [(crash.name, crash.report) for crash in cells.values()]
    print(restart_report_table(reports, title="Crash + restart"))
    return 0


def cmd_crash(args) -> int:
    """In-process or hard (real SIGKILL) crash + restart for one policy."""
    import json
    import tempfile

    from repro.sim import hardcrash
    from repro.storage.registry import get_backend_entry

    policy = _POLICY_NAMES[args.policy]
    workload = _workload(args)

    if args.victim:
        # Re-exec target: run the schedule on persistent storage and die
        # by SIGKILL.  Never returns.
        hardcrash.run_victim(
            state_dir=args.state_dir,
            backend=args.page_store,
            scale_name=args.scale,
            seed=args.seed,
            workload=workload,
            policy=policy,
            cache_fraction=args.cache_fraction,
            checkpoint_interval=args.interval,
            crash_point=args.crash_point,
        )
        raise AssertionError("unreachable")  # pragma: no cover

    if args.hard:
        if not get_backend_entry(args.page_store).persistent:
            raise SystemExit(
                "crash --hard needs a persistent --page-store "
                "(sqlite or mmap); 'memory' dies with the process"
            )
        state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-crash-")
        victim_argv = [
            "--scale", args.scale,
            "--seed", str(args.seed),
            "--workload", args.workload,
            *[f"--workload-knob={t}" for t in args.workload_knobs],
            *(
                ["--workload-preset", args.workload_preset]
                if args.workload_preset
                else []
            ),
            "--cache-fraction", str(args.cache_fraction),
            "--page-store", args.page_store,
            "crash",
            "--victim",
            "--policy", args.policy,
            "--interval", str(args.interval),
            "--crash-point", str(args.crash_point),
            "--state-dir", state_dir,
        ]
        print(
            f"# hard crash: victim on {args.page_store} under {state_dir}",
            file=sys.stderr,
        )
        result = hardcrash.run_hard_crash(victim_argv, state_dir)
        if args.json:
            print(json.dumps(result, indent=2))
        else:
            surv = result["survival"]
            print(f"# victim killed after {result['executed_before_crash']} tx, "
                  f"{result['checkpoints_before_crash']} checkpoint(s)")
            for role in ("disk", "flash"):
                print(f"{role}: {surv[role]['recovered']} LBAs survived "
                      f"({surv[role]['missing']} of {surv[role]['expected']} "
                      f"predicted missing)")
            print(f"restart: {result['restart_seconds']:.4f}s simulated, "
                  f"{result['flash_read_fraction']:.1%} of recovery reads "
                  f"from flash")
            if result["mismatches"]:
                print(f"soft-model mismatches: {result['mismatches']}")
            print(f"passed: {result['passed']}")
        return 0 if result["passed"] else 1

    # Soft mode: the same schedule fully in-process (the model the hard
    # path is validated against), reported in the same shape.
    runner = _build_runner(args, policy)
    scenario = CrashRecoveryScenario(
        checkpoint_interval=args.interval,
        crash_point=args.crash_point,
        warmup_max=50_000,
    )
    crash = scenario.execute(runner)
    if args.json:
        print(json.dumps(
            {
                "executed_before_crash": crash.transactions_before_crash,
                "checkpoints_before_crash": crash.checkpoints_before_crash,
                "soft": hardcrash.discrete_report(crash.report),
                "restart_seconds": crash.restart_seconds,
                "flash_read_fraction": crash.flash_read_fraction,
            },
            indent=2,
        ))
    else:
        print(restart_report_table(
            [(crash.name, crash.report)], title="Crash + restart (in-process)"
        ))
    return 0


def cmd_serve(args) -> int:
    from repro.sim.experiment import ExperimentConfig

    workload = _workload(args)
    base = ExperimentConfig(
        scale=_scale(args.scale),
        seed=args.seed,
        workload=workload.name,
        workload_knobs=workload.knobs,
        cache_fraction=args.cache_fraction,
        measure_transactions=args.transactions,
        warmup_max=50_000,
        scenario="service",
        think_time_ms=args.think_ms,
        max_inflight=args.max_inflight,
        page_store=args.page_store,
    )
    specs = [
        CellSpec.from_config((name, n), base.with_(policy=name, n_clients=n))
        for name in args.policies
        for n in args.clients
    ]
    cells = run_cells(
        specs,
        jobs=args.jobs,
        progress=progress_printer(sys.stderr),
        fast=args.fast,
    )
    print(
        service_result_table(
            list(cells.values()),
            title=f"Closed-loop service ({args.transactions} tx per cell, "
            f"think {args.think_ms:g} ms)",
        )
    )
    return 0


def cmd_devices(args) -> int:
    import random

    from repro.storage.hdd import DiskDevice
    from repro.storage.raid import Raid0Array
    from repro.storage.ssd import FlashDevice

    rng = random.Random(args.seed)
    rows = []
    for key, profile in TABLE1_PROFILES.items():
        if "SSD" in profile.name:
            device = FlashDevice(profile, 1 << 20)
        elif "RAID" in profile.name:
            device = Raid0Array(8, capacity_pages=1 << 20)
        else:
            device = DiskDevice(profile, 1 << 20)
        for _ in range(args.ops):
            device.read(rng.randrange(0, device.capacity_pages))
        read_iops = args.ops / device.busy_time
        device.reset_stats()
        for _ in range(args.ops):
            device.write(rng.randrange(0, device.capacity_pages))
        write_iops = args.ops / device.busy_time
        rows.append((key, round(read_iops), round(write_iops)))
    print(format_table("Simulated devices (4KB random)",
                       ["device", "read IOPS", "write IOPS"], rows, width=18))
    return 0


def cmd_stats(args) -> int:
    from repro.obs import OBS

    policy = _POLICY_NAMES[args.policy]
    workload = _workload(args)
    print(f"# workload: {workload.token} "
          f"(knobs: {workload.resolved_knobs() or '(none)'})",
          file=sys.stderr)
    OBS.enable()
    if args.fast:
        from repro.sim.replay import ReplayRunner, get_recorder, save_recorded_traces

        scale = _scale(args.scale)
        config = scaled_reference_config(
            estimate_workload_pages(workload, scale),
            cache_fraction=args.cache_fraction,
            policy=policy,
            page_store=args.page_store,
        )
        runner = ReplayRunner(
            config, get_recorder(scale, args.seed, workload=workload)
        )
    else:
        runner = _build_runner(args, policy)

    if args.crash:
        # Crash mode: run the Section 5.5 schedule instead of a steady
        # measurement and report the restart, not Table 3.
        scenario = CrashRecoveryScenario(
            checkpoint_interval=args.interval, warmup_max=50_000
        )
        crash = scenario.execute(runner)
        if args.fast:
            save_recorded_traces()
        snap = OBS.snapshot()
        if args.json:
            print(snap.to_json())
            return 0
        if args.csv:
            rows = snap.to_csv(args.csv)
            print(f"wrote {rows} metrics to {args.csv}", file=sys.stderr)
        print(restart_report_table([(crash.name, crash.report)],
                                   title="Crash + restart"))
        flat = snap.as_flat()
        recovery_rows = [
            (name, f"{flat[name]:g}")
            for name in sorted(flat) if name.startswith("recovery.")
        ]
        if recovery_rows:
            print(format_table(
                "Recovery metrics",
                ["metric", "value"],
                recovery_rows,
                width=44,
            ))
        print(format_table(
            "All metrics (measured region)",
            ["metric", "value"],
            [(name, f"{flat[name]:g}") for name in sorted(flat)],
            width=44,
        ))
        return 0

    if args.clients:
        # Service mode: run the closed-loop N-client scenario instead of a
        # single-stream measurement and report latency, not Table 3.
        from repro.sim.scenario import ServiceScenario

        scenario = ServiceScenario(
            n_clients=args.clients,
            think_time_ms=args.think_ms,
            measure_transactions=args.transactions,
            warmup_max=50_000,
        )
        service = scenario.execute(runner)
        if args.fast:
            save_recorded_traces()
        snap = OBS.snapshot()
        if args.json:
            print(snap.to_json())
            return 0
        if args.csv:
            rows = snap.to_csv(args.csv)
            print(f"wrote {rows} metrics to {args.csv}", file=sys.stderr)
        print(service_result_table([service]))
        flat = snap.as_flat()
        service_rows = [
            (name, f"{flat[name]:g}")
            for name in sorted(flat) if name.startswith("service.")
        ]
        if service_rows:
            print(format_table(
                "Service metrics",
                ["metric", "value"],
                service_rows,
                width=44,
            ))
        print(format_table(
            "All metrics (measured region)",
            ["metric", "value"],
            [(name, f"{flat[name]:g}") for name in sorted(flat)],
            width=44,
        ))
        return 0

    runner.warm_up(max_transactions=50_000)  # warm_up resets OBS at the boundary
    result = runner.measure(args.transactions)
    if args.fast:
        save_recorded_traces()
    snap = OBS.snapshot()

    if args.json:
        print(snap.to_json())
        return 0
    if args.csv:
        rows = snap.to_csv(args.csv)
        print(f"wrote {rows} metrics to {args.csv}", file=sys.stderr)

    prefix = runner.dbms.cache.obs_prefix
    lookups = snap.get(f"{prefix}.lookups")
    hits = snap.get(f"{prefix}.hits")
    dirty = snap.get(f"{prefix}.evictions.dirty")
    disk_writes = snap.get(f"{prefix}.disk_writes")
    obs_hit = hits / lookups if lookups else 0.0
    obs_wr = max(0.0, 1.0 - disk_writes / dirty) if dirty else 0.0
    print(f"# {result.name} / {workload.token}: {result.transactions} tx "
          f"measured, {result.tpmc:,.0f} tpmC")
    print(format_table(
        "Derived from metrics vs. RunResult",
        ["figure", "from metrics", "from RunResult"],
        [
            ("flash hit rate (Table 3a)",
             f"{obs_hit:.4f}", f"{result.flash_hit_rate:.4f}"),
            ("write reduction (Table 3b)",
             f"{obs_wr:.4f}", f"{result.write_reduction:.4f}"),
        ],
        width=28,
    ))
    flat = snap.as_flat()
    replay_rows = [
        (name, f"{flat[name]:g}") for name in sorted(flat) if name.startswith("replay.")
    ]
    if replay_rows:
        print(format_table(
            "Trace-replay fast path",
            ["metric", "value"],
            replay_rows,
            width=44,
        ))
    print(format_table(
        "All metrics (measured region)",
        ["metric", "value"],
        [(name, f"{flat[name]:g}") for name in sorted(flat)],
        width=44,
    ))
    return 0


def cmd_sweep(args) -> int:
    policy = _POLICY_NAMES[args.policy]
    scale = _scale(args.scale)
    workload = _workload(args)
    db_pages = estimate_workload_pages(workload, scale)
    # --shared-seed is its own decision; it merely *defaults* to following
    # --fast (one shared boundary stream is the layout replay amortises
    # best).  --no-shared-seed keeps statistically independent per-cell
    # workloads even in fast mode — Sweep.run() warns when that combination
    # cannot amortise the recording.
    shared_seed = args.fast if args.shared_seed is None else args.shared_seed
    sweep = Sweep(
        dimensions={"fraction": list(args.fractions)},
        config_factory=lambda fraction: scaled_reference_config(
            db_pages,
            cache_fraction=fraction,
            policy=policy,
            page_store=args.page_store,
        ),
        scale=scale,
        measure_transactions=args.transactions,
        warmup_max=50_000,
        seed=args.seed,
        shared_seed=shared_seed,
        workload=workload.name,
        workload_knobs=workload.knobs,
    )
    results = sweep.run(
        jobs=args.jobs, progress=progress_printer(sys.stderr), fast=args.fast
    )
    points = [
        (fraction * 100, results.get(fraction).tpmc) for fraction in args.fractions
    ]
    print(
        format_series(
            f"tpmC vs cache size - {policy.value}", "cache %", "tpmC", points
        )
    )
    return 0


def _axis_value(token: str):
    """Parse one ``NAME=v1,v2`` value: int, float, bool, none or string."""
    lowered = token.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "off"):
        return None
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            continue
    return token.strip()


def cmd_ablate(args) -> int:
    import json

    from repro.sim.ablation import AblationStudy, verify_parity
    from repro.sim.experiment import ExperimentConfig

    workload = _workload(args)
    base = ExperimentConfig(
        scale=_scale(args.scale),
        seed=args.seed,
        workload=workload.name,
        workload_knobs=workload.knobs,
        policy=args.policy,
        cache_fraction=args.cache_fraction,
        measure_transactions=args.transactions,
        warmup_max=50_000,
        page_store=args.page_store,
        # --recovery turns every cell into a Section 5.5 crash/restart
        # measurement; axes like checkpoint_interval / crash_point /
        # ckpt_segment_entries then vary the recovery protocol itself.
        scenario="crash" if args.recovery else "steady",
        checkpoint_interval=args.interval if args.recovery else None,
    )
    axes: dict[str, list | None] = {}
    for token in args.axes:
        name, _, raw = token.partition("=")
        axes[name] = [_axis_value(v) for v in raw.split(",")] if raw else None
    study = AblationStudy(base, axes)
    print(
        f"# ablation: {len(study)} cells over "
        f"{' x '.join(study.dimensions)} (base: {args.policy})",
        file=sys.stderr,
    )
    results = study.run(
        jobs=args.jobs,
        progress=progress_printer(sys.stderr),
        fast=not args.no_fast,
    )
    parity = None
    if args.check_parity:
        ok, mismatched = verify_parity(study, results, sample=args.check_parity)
        parity = ok
        print(
            f"# parity: {'ok' if ok else 'MISMATCH'} "
            f"({args.check_parity} cell(s) re-run under full execution"
            f"{'' if ok else ': ' + ', '.join(map(str, mismatched))})",
            file=sys.stderr,
        )
    if args.json:
        record = results.to_record()
        if parity is not None:
            record["replay_parity"] = parity
        print(json.dumps(record, indent=2))
    else:
        for axis in study.dimensions:
            print(results.sensitivity_table(axis))
            print()
    return 0 if parity in (None, True) else 1


def _scale_name(profile: ScaleProfile | None) -> str:
    """Compact display name for a profile (``tiny``/``bench``/repr)."""
    if profile == TINY:
        return "tiny"
    if profile == BENCH:
        return "bench"
    return repr(profile) if profile is not None else "?"


def cmd_trace(args) -> int:
    from repro.sim.replay import (
        list_cached_traces,
        prune_trace_cache,
        remove_cached_traces,
        trace_cache_dir,
    )

    cache_dir = trace_cache_dir()
    if cache_dir is None:
        print("trace cache disabled (REPRO_TRACE_CACHE)", file=sys.stderr)
        return 1

    if args.trace_command == "ls":
        entries = list_cached_traces()
        rows = [
            (
                entry["file"],
                _scale_name(entry["scale_profile"]),
                entry["seed"] if entry["seed"] is not None else "?",
                f"{entry['n_transactions']:,}"
                if entry["n_transactions"] is not None
                else "?",
                f"{entry['file_bytes'] / 1024:.0f}",
                f"{entry['age_seconds'] / 3600:.1f}",
            )
            for entry in entries
        ]
        print(f"# trace cache: {cache_dir} ({len(entries)} file(s))",
              file=sys.stderr)
        if rows:
            print(format_table(
                "Cached boundary traces",
                ["file", "scale", "seed", "tx", "KiB", "age h"],
                rows,
                width=16,
            ))
        return 0

    if args.trace_command == "rm":
        if not args.all and args.of_scale is None and args.of_seed is None:
            raise SystemExit(
                "trace rm needs --all or a --of-scale/--of-seed filter"
            )
        scale = _scale(args.of_scale) if args.of_scale else None
        removed = remove_cached_traces(scale=scale, seed=args.of_seed)
        print(f"removed {len(removed)} trace file(s)", file=sys.stderr)
        return 0

    # prune
    if args.max_mb is None and args.max_age_days is None:
        raise SystemExit("trace prune needs --max-mb and/or --max-age-days")
    report = prune_trace_cache(
        max_bytes=(
            int(args.max_mb * 1024 * 1024) if args.max_mb is not None else None
        ),
        max_age_seconds=(
            args.max_age_days * 86_400.0
            if args.max_age_days is not None
            else None
        ),
    )
    print(
        f"pruned {len(report['removed'])} file(s); kept {report['kept']} "
        f"({report['kept_bytes'] / 1024:.0f} KiB)",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FaCE (VLDB 2012) reproduction - simulated experiments",
    )
    parser.add_argument("--scale", default="bench", help="tiny|bench (default bench)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--workload", default="tpcc", choices=sorted(available_workloads()),
        help="workload registry name (default tpcc); see "
             "repro.workload.registry",
    )
    parser.add_argument(
        "--workload-knob", dest="workload_knobs", action="append",
        default=[], metavar="NAME=VALUE",
        help="override one workload knob (repeatable), e.g. "
             "--workload-knob zipf_s=0.7; unknown names list the "
             "accepted set",
    )
    parser.add_argument(
        "--workload-preset", dest="workload_preset", default=None,
        metavar="NAME",
        help="apply a named workload preset before knob overrides "
             "(e.g. ycsb write-churn, tpch-scan htap)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for independent cells "
             "(1 = serial, 0 = one per CPU; default 1)",
    )
    parser.add_argument(
        "--cache-fraction", dest="cache_fraction", type=float, default=0.12,
        help="flash cache as a fraction of the database (default 0.12)",
    )
    parser.add_argument(
        "--page-store", dest="page_store", default="memory",
        choices=sorted(available_backends()),
        help="page-store backend holding simulated page bytes "
             "(default memory; sqlite/mmap persist across process death "
             "and enable out-of-core scales — results are bit-identical "
             "either way)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="steady-state TPC-C measurement")
    run.add_argument("policies", nargs="+", choices=sorted(_POLICY_NAMES))
    run.add_argument("--transactions", type=int, default=2000)
    run.add_argument("--fast", action="store_true",
                     help="serve cells from the trace-replay fast path "
                          "(bit-identical results; records the boundary "
                          "trace once, then replays it per policy)")
    run.set_defaults(func=cmd_run)

    recover = sub.add_parser("recover", help="crash + restart comparison")
    recover.add_argument("policies", nargs="+", choices=sorted(_POLICY_NAMES))
    recover.add_argument("--interval", type=float, default=2.0,
                         help="checkpoint interval in simulated seconds")
    recover.add_argument("--crash-point", dest="crash_point", type=float,
                         default=0.5,
                         help="where in an interval the kill lands, as a "
                              "fraction (default 0.5, the paper's mid-point)")
    recover.add_argument("--fast", action="store_true",
                         help="run the crash schedule over the trace-replay "
                              "fast path (bit-identical restart reports)")
    recover.set_defaults(func=cmd_recover)

    crash = sub.add_parser(
        "crash",
        help="crash/restart for one policy; --hard kills a real process",
        description="Run the Section 5.5 crash schedule and the Section "
        "4.2 restart. Default: fully in-process (the crash *model*). With "
        "--hard: re-exec a victim process on a persistent --page-store, "
        "SIGKILL it at the kill point, reopen its files in a fresh "
        "process, verify every LBA the model predicts survived actually "
        "did, and require the restart's discrete report to match the "
        "model bit for bit (exit 1 otherwise).",
    )
    crash.add_argument("--policy", default="face+gsc",
                       choices=sorted(_POLICY_NAMES),
                       help="flash-cache policy under test (default face+gsc)")
    crash.add_argument("--hard", action="store_true",
                       help="kill and re-exec a real process; needs a "
                            "persistent --page-store (sqlite or mmap)")
    crash.add_argument("--interval", type=float, default=2.0,
                       help="checkpoint interval in simulated seconds")
    crash.add_argument("--crash-point", dest="crash_point", type=float,
                       default=0.5,
                       help="where in an interval the kill lands "
                            "(default 0.5)")
    crash.add_argument("--state-dir", dest="state_dir", default=None,
                       help="directory for the persistent page-store files "
                            "and crash manifest (default: a fresh temp dir)")
    crash.add_argument("--json", action="store_true",
                       help="emit the crash/restart report as JSON")
    crash.add_argument("--victim", action="store_true",
                       help=argparse.SUPPRESS)  # internal re-exec flag
    crash.set_defaults(func=cmd_crash)

    serve = sub.add_parser(
        "serve",
        help="closed-loop concurrent-client latency measurement",
        description="Measure each policy under N closed-loop clients: the "
        "recorded per-transaction resource demands are redistributed across "
        "the clients through per-device FIFO queues, and the table reports "
        "throughput plus p50/p95/p99 transaction latency per cell.",
    )
    serve.add_argument("policies", nargs="+", choices=sorted(_POLICY_NAMES))
    serve.add_argument("--clients", type=int, nargs="+", default=[1, 50, 500],
                       help="closed-loop client counts to sweep "
                            "(default: 1 50 500)")
    serve.add_argument("--think-ms", dest="think_ms", type=float, default=0.0,
                       help="per-client think time between transactions in "
                            "milliseconds (default 0)")
    serve.add_argument("--max-inflight", dest="max_inflight", type=int,
                       default=None, metavar="N",
                       help="admission-control cap on concurrently executing "
                            "transactions (default: unlimited)")
    serve.add_argument("--transactions", type=int, default=2000,
                       help="measured transactions per cell (default 2000)")
    serve.add_argument("--fast", action="store_true",
                       help="serve cells from the trace-replay fast path")
    serve.set_defaults(func=cmd_serve)

    devices = sub.add_parser("devices", help="device-model microbenchmark")
    devices.add_argument("--ops", type=int, default=2000)
    devices.set_defaults(func=cmd_devices)

    sweep = sub.add_parser("sweep", help="cache-size sweep for one policy")
    sweep.add_argument("policy", choices=sorted(_POLICY_NAMES))
    sweep.add_argument(
        "--fractions", type=float, nargs="+", default=[0.04, 0.12, 0.20, 0.28]
    )
    sweep.add_argument("--transactions", type=int, default=2000)
    sweep.add_argument("--fast", action="store_true",
                       help="serve cells from the trace-replay fast path")
    sweep.add_argument("--shared-seed", dest="shared_seed",
                       action=argparse.BooleanOptionalAction, default=None,
                       help="give every cell the same seed (one shared "
                            "boundary stream; defaults to following --fast)")
    sweep.set_defaults(func=cmd_sweep)

    ablate = sub.add_parser(
        "ablate",
        help="replay-driven ablation grid over the paper's design knobs",
        description="Run a dense knob grid over one recorded workload via "
        "the trace-replay fast path and print per-axis sensitivity tables. "
        "Axes: admission, sync, scan_depth, checkpoint, cache_fraction, "
        "policy, workload, dram — or any ExperimentConfig field. Values "
        "come from the paper unless overridden as NAME=v1,v2,...",
    )
    ablate.add_argument(
        "axes", nargs="+", metavar="AXIS[=V1,V2,...]",
        help="axis name, optionally with explicit values "
             "(e.g. 'scan_depth=16,64' or just 'admission')",
    )
    ablate.add_argument("--policy", default="face+gsc",
                        choices=sorted(_POLICY_NAMES),
                        help="base policy the grid varies around "
                             "(default face+gsc)")
    ablate.add_argument("--transactions", type=int, default=2000)
    ablate.add_argument("--json", action="store_true",
                        help="emit the full grid + sensitivities as JSON")
    ablate.add_argument("--check-parity", type=int, default=0, metavar="N",
                        help="re-run N sample cells under full execution "
                             "and require bit-identical results (exit 1 on "
                             "mismatch)")
    ablate.add_argument("--no-fast", action="store_true",
                        help="full-execute every cell instead of replaying "
                             "the shared boundary trace")
    ablate.add_argument("--recovery", action="store_true",
                        help="run every cell as a crash/restart measurement "
                             "(Table 6 style); sensitivities reduce restart "
                             "time instead of tpmC")
    ablate.add_argument("--interval", type=float, default=2.0,
                        help="base checkpoint interval for --recovery cells "
                             "in simulated seconds (default 2.0)")
    ablate.set_defaults(func=cmd_ablate)

    stats = sub.add_parser(
        "stats", help="measured run with observability; metric dump + Table 3 check"
    )
    stats.add_argument("policy", choices=sorted(_POLICY_NAMES))
    stats.add_argument("--transactions", type=int, default=2000)
    stats.add_argument("--json", action="store_true",
                       help="emit the snapshot as JSON instead of tables")
    stats.add_argument("--csv", metavar="PATH",
                       help="also write metric,value rows to PATH")
    stats.add_argument("--fast", action="store_true",
                       help="measure via the trace-replay fast path and "
                            "surface its replay.* metrics")
    stats.add_argument("--crash", action="store_true",
                       help="run a crash/restart scenario instead of a "
                            "steady measurement and surface the recovery.* "
                            "metrics")
    stats.add_argument("--interval", type=float, default=2.0,
                       help="checkpoint interval for --crash in simulated "
                            "seconds (default 2.0)")
    stats.add_argument("--clients", type=int, default=0, metavar="N",
                       help="run a closed-loop service scenario with N "
                            "clients instead of a steady measurement and "
                            "surface latency columns plus the service.* "
                            "metrics")
    stats.add_argument("--think-ms", dest="think_ms", type=float, default=0.0,
                       help="per-client think time for --clients, in "
                            "milliseconds (default 0)")
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="boundary-trace cache housekeeping (ls/rm/prune)",
        description="Inspect and manage the persistent boundary-trace cache "
        "(REPRO_TRACE_CACHE). Traces are derived state: removing one only "
        "costs a re-record on next use.",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_sub.add_parser("ls", help="list cached traces with scale/seed/age")
    trace_rm = trace_sub.add_parser("rm", help="remove cached traces")
    trace_rm.add_argument("--all", action="store_true",
                          help="remove every cached trace")
    trace_rm.add_argument("--of-scale", dest="of_scale", default=None,
                          help="only traces recorded at this scale "
                               "(tiny|bench)")
    trace_rm.add_argument("--of-seed", dest="of_seed", type=int, default=None,
                          help="only traces recorded with this seed")
    trace_prune = trace_sub.add_parser(
        "prune", help="bound the cache by size and/or age (oldest first)"
    )
    trace_prune.add_argument("--max-mb", dest="max_mb", type=float,
                             default=None,
                             help="keep the cache under this many MiB")
    trace_prune.add_argument("--max-age-days", dest="max_age_days",
                             type=float, default=None,
                             help="drop traces older than this many days")
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
