"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      a grid over any ``ExperimentConfig`` fields, given as
             ``FIELD=V1[,V2...]``: one cell per combination, one report row
             per cell (also ``--json``).  ``policy=face+gsc,hdd-only``
             compares policies, ``cache_fraction=0.04,0.12`` is a Figure 4
             series, ``scenario=crash checkpoint_interval=2`` makes every
             cell a crash/restart measurement (Table 6 style) and
             ``scenario=service n_clients=1,50`` a closed-loop latency one
``crash``    one real process death: a victim process runs the Section 5.5
             schedule on a persistent ``--page-store`` and is SIGKILLed; its
             files are reopened and the restart checked against the model
``devices``  microbenchmark the simulated device models (Table 1 style)
``stats``    one cell (the same ``FIELD=V`` tokens, one value each) with
             observability on; prints every internal metric plus the derived
             Table 3 figures, the restart report for ``scenario=crash`` or
             the latency columns for ``scenario=service`` (also
             ``--json``/``--csv``)
``trace``    boundary-trace cache housekeeping

All output is plain text / markdown; every command is deterministic for a
given ``--seed``, and every cell of a grid shares it.  This module imports
only declarations at the top: ``--help`` and a refused grid load no engine
module, and each command imports the engine it runs.  ``run`` executes its
cells in parallel worker processes with ``--jobs N`` (``0`` = one per CPU);
results are bit-identical to ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys

from repro.analysis.tables import format_table
from repro.core.config import MIN_BUFFER_PAGES, MIN_CACHE_PAGES
from repro.errors import ConfigError, WorkloadError
from repro.flashcache.builders import available_policies
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import (
    CellSpec,
    progress_printer,
    replay_mismatches,
    run_cells,
)
from repro.sim.scenario import CrashRun
from repro.storage.registry import available_backends
from repro.tpcc.scale import SCALES, ScaleProfile, scale_by_name
from repro.workload.registry import (
    WorkloadSpec,
    available_workloads,
    get_workload_entry,
)


def _workload(args) -> WorkloadSpec:
    """Resolve ``--workload``/``--workload-knob``/``--workload-preset``.

    Validation happens in the workload registry; its
    :class:`~repro.errors.WorkloadError` messages name the accepted
    workloads/knobs, and :func:`main` prints them verbatim.
    """
    from repro.workload.registry import workload_spec

    knobs = {}
    for token in args.workload_knobs:
        name, sep, raw = token.partition("=")
        if not sep:
            raise ConfigError(f"--workload-knob needs NAME=VALUE, got {token!r}")
        knobs[name.strip()] = _axis_value(raw)
    return workload_spec(args.workload, knobs, preset=args.workload_preset)


def _experiment(args) -> ExperimentConfig:
    """The base :class:`ExperimentConfig` a grid's ``FIELD=`` tokens derive.

    The global flags give the workload and the system.  Every cell warms up
    for at most 50,000 transactions.
    """
    workload = _workload(args)
    return ExperimentConfig(
        scale=scale_by_name(args.scale),
        seed=args.seed,
        workload=workload.name,
        workload_knobs=workload.knobs,
        cache_fraction=args.cache_fraction,
        page_store=args.page_store,
        warmup_max=50_000,
    )


def _print_cells(rows: list, title: str) -> None:
    """One report table per kind of result the cells hold (a grid over
    ``scenario`` holds several), in the order the kinds first appear."""
    from repro.analysis.report import (
        restart_report_table,
        run_result_table,
        service_result_table,
    )
    from repro.sim.service import ServiceResult

    for n, kind in enumerate(dict.fromkeys(map(type, rows))):
        if n:
            print()
        group = [r for r in rows if type(r) is kind]
        if kind is CrashRun:
            print(restart_report_table([(r.name, r.report) for r in group], title=title))
        elif kind is ServiceResult:
            print(service_result_table(group, title=title))
        else:
            print(run_result_table(group, title=title))


def cmd_run(args) -> int:
    import json

    if args.check_parity < 0:
        raise ConfigError("--check-parity needs N >= 0")
    if args.check_parity and not args.fast:
        raise ConfigError("--check-parity compares replay against full "
                          "execution; it needs --fast")
    axes, specs = grid_specs(_experiment(args), args.fields)
    title = f"Grid over {' x '.join(axes) or 'no axis'}"
    print(f"# {title}: {len(specs)} cell(s)", file=sys.stderr)
    cells = run_cells(
        specs, jobs=args.jobs, progress=progress_printer(sys.stderr), fast=args.fast
    )
    mismatched = []
    if args.check_parity:
        # First, last, then evenly spaced between.
        n = min(args.check_parity, len(specs))
        sample = [specs[round(i * (len(specs) - 1) / max(1, n - 1))] for i in range(n)]
        mismatched = replay_mismatches(sample, cells)
        verdict = f"MISMATCH {mismatched}" if mismatched else "ok"
        print(f"# parity: {verdict} ({len(sample)} cell(s) re-run under full "
              f"execution)", file=sys.stderr)
    if args.json:
        record = {"cells": [
            {"key": list(key), **dataclasses.asdict(result)}
            for key, result in cells.items()
        ]}
        if args.check_parity:
            record["replay_parity"] = not mismatched
        print(json.dumps(record, indent=2, default=str))
        return 1 if mismatched else 0
    _print_cells([
        dataclasses.replace(result, name=", ".join(
            f"{name}={value}" for name, value in zip(axes, key)
        ) or result.name)
        for key, result in cells.items()
    ], title)
    return 1 if mismatched else 0


def cmd_crash(args) -> int:
    """Kill a real process at the crash point; restart from its files."""
    import json
    import tempfile

    from repro.sim import hardcrash
    from repro.storage.registry import page_store_class

    # Built here too, so that a field the victim would refuse fails first.
    experiment = _experiment(args).with_(
        policy=args.policy,
        scenario="crash",
        checkpoint_interval=args.interval,
        crash_point=args.crash_point,
    )
    if args.victim:
        # Re-exec target: run the schedule on persistent storage and die
        # by SIGKILL.  Never returns.
        hardcrash.run_victim(experiment, args.state_dir)
        raise AssertionError("unreachable")  # pragma: no cover

    if not page_store_class(args.page_store).persistent:
        raise ConfigError(
            "crash needs a persistent --page-store (sqlite or mmap); "
            f"{args.page_store!r} dies with the process"
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
        print(f"# durability: {result['durability']}")
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


def cmd_devices(args) -> int:
    from repro.storage.profiles import TABLE1_PROFILES, measure_profile

    rows = []
    for key, profile in TABLE1_PROFILES.items():
        m = measure_profile(profile, args.ops)
        rows.append((key, round(m["random_read_iops"]), round(m["random_write_iops"]),
                     round(m["seq_read_mbps"], 1), round(m["seq_write_mbps"], 1)))
    print(format_table("Simulated devices (4KB random, large sequential)",
                       ["device", "read IOPS", "write IOPS", "read MB/s",
                        "write MB/s"], rows, width=18))
    return 0


def _metric_table(title: str, flat: dict, prefix: str = "") -> None:
    """Print the metrics named ``prefix*`` as a table, if there are any."""
    rows = [
        (name, f"{flat[name]:g}") for name in sorted(flat) if name.startswith(prefix)
    ]
    if rows:
        print(format_table(title, ["metric", "value"], rows, width=44))


def cmd_stats(args) -> int:
    from repro.obs import OBS
    from repro.sim.runner import ExperimentRunner
    from repro.sim.service import ServiceResult

    axes, specs = grid_specs(_experiment(args), args.fields)
    if axes:
        raise ConfigError(
            f"stats measures one cell; give {', '.join(axes)} one value"
        )
    (spec,) = specs
    workload = spec.workload
    knobs = get_workload_entry(workload.name).config_knobs(workload)
    print(f"# workload: {workload.token} (knobs: {knobs or '(none)'})",
          file=sys.stderr)
    OBS.enable()
    if args.fast:
        from repro.sim.replay import ReplayRunner, get_recorder, save_recorded_traces

        runner = ReplayRunner(
            spec.config, get_recorder(spec.scale, spec.seed, workload=workload)
        )
    else:
        runner = ExperimentRunner(
            spec.config, spec.scale, seed=spec.seed, workload=workload
        )
    # Every scenario's warm-up resets OBS at the measurement boundary.
    result = spec.scenario.execute(runner)
    if args.fast:
        save_recorded_traces()
    snap = OBS.snapshot()

    if args.json:
        print(snap.to_json())
        return 0
    if args.csv:
        rows = snap.to_csv(args.csv)
        print(f"wrote {rows} metrics to {args.csv}", file=sys.stderr)

    flat = snap.as_flat()
    if isinstance(result, CrashRun):
        _print_cells([result], "Crash + restart")
        _metric_table("Recovery metrics", flat, "recovery.")
    elif isinstance(result, ServiceResult):
        _print_cells([result], "Closed-loop service")
        _metric_table("Service metrics", flat, "service.")
    else:
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
        _metric_table("Trace-replay fast path", flat, "replay.")
    _metric_table("All metrics (measured region)", flat)
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


def _field_value(field: dataclasses.Field, raw: str):
    """One ``FIELD=`` value, checked against the field's declared type.

    ``bool`` takes only true/false, ``int`` only integers, ``float`` any
    number; ``none``/``off`` is accepted only where the type is optional.
    """
    kind, _, optional = field.type.partition(" | ")
    if kind == "str":
        return raw.strip()
    value = _axis_value(raw)
    if value is None and optional:
        return None
    if kind == "bool" and isinstance(value, bool):
        return value
    if kind == "int" and type(value) is int:
        return value
    if kind == "float" and type(value) in (int, float):
        return float(value)
    raise ConfigError(f"field {field.name!r} takes {field.type}, got {raw!r}")


def grid_specs(
    base: ExperimentConfig, tokens: list[str]
) -> tuple[list[str], list[CellSpec]]:
    """The ``run`` grid: ``(varying fields, one cell per combination)``.

    Every token is ``FIELD=V1[,V2...]`` over an :class:`ExperimentConfig`
    field.  A one-value field is a fixed override; the others vary, in
    token order, the last fastest.  A cell's key is its varying values.
    The cells share one boundary trace unless ``seed`` or ``workload``
    varies.  Two cells that lower to the same :class:`CellSpec` (say, two
    cache fractions of a database so small that both get the cache floor)
    are a ``ConfigError``: the axis would measure one system twice.
    """
    # --scale and --workload-knob own these two: neither parses as a value.
    fields = {
        f.name: f
        for f in dataclasses.fields(ExperimentConfig)
        if f.name not in ("scale", "workload_knobs")
    }
    values: dict[str, list] = {}
    for token in tokens:
        name, _, raw = token.partition("=")
        if name not in fields:
            raise ConfigError(
                f"unknown experiment field {name!r} "
                f"(known: {', '.join(sorted(fields))})"
            )
        if name in values:
            raise ConfigError(f"field {name!r} given twice")
        if not raw:
            raise ConfigError(f"field {name!r} has no values ({name}=V1[,V2...])")
        parsed = [_field_value(fields[name], v) for v in raw.split(",")]
        if len(set(parsed)) != len(parsed):
            raise ConfigError(f"field {name!r} repeats a value")
        values[name] = parsed
    if not values:
        raise ConfigError("a grid needs at least one FIELD=V1[,V2...]")
    fixed = {name: v[0] for name, v in values.items() if len(v) == 1}
    axes = {name: v for name, v in values.items() if len(v) > 1}
    specs = [
        CellSpec.from_config(key, base.with_(**fixed, **dict(zip(axes, key))))
        for key in itertools.product(*axes.values())
    ]
    seen: dict[CellSpec, tuple] = {}
    for spec in specs:
        twin = seen.setdefault(dataclasses.replace(spec, key=()), spec.key)
        if twin != spec.key:
            cells = [" ".join(f"{n}={v}" for n, v in zip(axes, k)) for k in (twin, spec.key)]
            floors = "; ".join(
                f"{field} is at its floor of {floor} pages at this scale"
                for name, (field, floor) in _FLOORS.items()
                if name in axes and getattr(spec.config, field) == floor
            )
            raise ConfigError(
                f"{cells[0]} and {cells[1]} build the same cell"
                + (f": {floors}" if floors else "")
            )
    return list(axes), specs


#: A fraction axis -> the system field it sizes and that field's floor.
_FLOORS = {
    "cache_fraction": ("cache_pages", MIN_CACHE_PAGES),
    "buffer_fraction": ("buffer_pages", MIN_BUFFER_PAGES),
}


def _scale_name(profile: ScaleProfile | None) -> str:
    """Compact display name for a profile (``tiny``/``bench``/repr)."""
    for name, known in SCALES.items():
        if profile == known:
            return name
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
        scale = scale_by_name(args.of_scale) if args.of_scale else None
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

    run = sub.add_parser(
        "run",
        help="a grid over any ExperimentConfig fields",
        description="Run one cell per combination of the given field values "
        "and print one report row per cell. Every FIELD is an "
        "ExperimentConfig field (policy, cache_fraction, scan_depth, "
        "face_cache_clean, measure_transactions, scenario, "
        "checkpoint_interval, n_clients, ...); a one-value field is a fixed "
        "override. scenario=crash makes every cell a crash/restart "
        "measurement, scenario=service a closed-loop one. Every cell shares "
        "--seed.",
    )
    run.add_argument(
        "fields", nargs="+", metavar="FIELD=V1[,V2,...]",
        help="a field and its values (e.g. 'policy=face+gsc,hdd-only' or "
             "'measure_transactions=200')",
    )
    run.add_argument("--fast", action="store_true",
                     help="serve cells from the trace-replay fast path "
                          "(bit-identical results; records the boundary "
                          "trace once, then replays it per cell)")
    run.add_argument("--json", action="store_true",
                     help="emit every cell's result as JSON")
    run.add_argument("--check-parity", type=int, default=0, metavar="N",
                     help="with --fast, re-run N cells (first, last, "
                          "evenly spaced) under full execution and require "
                          "bit-identical results (exit 1 on mismatch)")
    run.set_defaults(func=cmd_run)

    crash = sub.add_parser(
        "crash",
        help="kill a real process mid-interval and restart from its files",
        description="Re-exec a victim process on a persistent --page-store, "
        "run the Section 5.5 crash schedule in it and SIGKILL it at the kill "
        "point; then reopen its files in a fresh process, verify every LBA "
        "the model predicts survived actually did, and require the Section "
        "4.2 restart's discrete report to match the model bit for bit (exit "
        "1 otherwise). The in-process crash model is "
        "'run scenario=crash checkpoint_interval=I'.",
    )
    crash.add_argument("--policy", default="face+gsc",
                       choices=sorted(available_policies()),
                       help="flash-cache policy under test (default face+gsc)")
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

    devices = sub.add_parser("devices", help="device-model microbenchmark")
    devices.add_argument("--ops", type=int, default=2000)
    devices.set_defaults(func=cmd_devices)

    stats = sub.add_parser(
        "stats",
        help="one cell with observability; metric dump + Table 3 check",
        description="Measure one cell with observability on and print every "
        "metric. The FIELD=V tokens are run's, each with one value; "
        "scenario=crash adds the restart report, scenario=service the "
        "latency columns.",
    )
    stats.add_argument(
        "fields", nargs="+", metavar="FIELD=V",
        help="a field and its one value (e.g. 'policy=face+gsc')",
    )
    stats.add_argument("--json", action="store_true",
                       help="emit the snapshot as JSON instead of tables")
    stats.add_argument("--csv", metavar="PATH",
                       help="also write metric,value rows to PATH")
    stats.add_argument("--fast", action="store_true",
                       help="measure via the trace-replay fast path and "
                            "surface its replay.* metrics")
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
    try:
        return args.func(args)
    except (ConfigError, WorkloadError) as exc:
        # A bad knob is the user's input, not a crash: one line, exit 2
        # (argparse's status for a usage error).
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
