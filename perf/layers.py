"""The traced pass: where a workload's host time goes, layer by layer.

``run_cells`` hides the system under test, so the reference cells are
driven here by hand — the same constructor, warm-up and scenario calls the
engine makes (:func:`drive_cell` mirrors ``run_cell`` / ``run_cell_warm`` /
``replay_cell``) — with the wrappers of ``tracing.py`` installed.  Each cell
is first run through ``run_cells`` untraced; the two results must be equal,
and the ratio of their costs is the tracing overhead.

Times in this pass are wall-clock spans from a single run: read them as
shares and orders of magnitude.  The counts are simulated and repeat
exactly.  End-to-end numbers never come from here.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from contextlib import nullcontext
from importlib import import_module
from pathlib import Path

import tracing
from checks import FULL_EXECUTION, same_result
from hostclock import measured
from workloads import forget_forks, prepare

#: Transactions per ``measure()`` call in a traced steady cell; each call is
#: one sample of ``runner.chunk_ms_*``.
CHUNK = 25


def cell_id(key: tuple) -> str:
    return "/".join(str(part) for part in key)


def make_runner(spec, fast: bool):
    """The runner ``run_cells`` would build for ``spec``."""
    from repro.sim.replay import ReplayRunner, get_recorder
    from repro.sim.runner import ExperimentRunner
    from repro.sim.warmstate import fork_database

    workload = spec.workload_spec()
    if fast and spec.replay_ok:
        return ReplayRunner(spec.config, get_recorder(spec.scale, spec.seed, workload))
    loader = None
    if fast:
        def loader(dbms, scale):
            return fork_database(dbms, scale, spec.seed, workload=workload)
    return ExperimentRunner(
        spec.config, spec.scale, seed=spec.seed, loader=loader, workload=workload
    )


def drive_cell(spec, fast: bool, tracer: tracing.Tracer | None):
    """Execute one cell phase by phase; returns ``(result, facts)``.

    ``facts`` are simulated counters read off the system afterwards (the
    result records do not carry them) plus the per-chunk host times.
    """
    from repro.sim.scenario import crash_and_recover, run_until_crash_point

    service = import_module("repro.sim.service")
    scenario = spec.resolve_scenario()
    phase = tracer.phase if tracer is not None else (lambda name: nullcontext())
    facts: dict = {"chunk_ms": []}
    with tracer.cell(cell_id(spec.key)) if tracer is not None else nullcontext():
        with phase("load"):
            runner = make_runner(spec, fast)
        with phase("warmup"):
            runner.warm_up(scenario.warmup_min, scenario.warmup_max)
        dbms = runner.dbms
        forces_before = dbms.log.forces
        if scenario.kind == "steady":
            with phase("measure"):
                remaining = scenario.measure_transactions
                while remaining > 0:
                    n = min(CHUNK, remaining)
                    start = time.perf_counter()
                    result = runner.measure(
                        n, checkpoint_interval=scenario.checkpoint_interval
                    )
                    facts["chunk_ms"].append((time.perf_counter() - start) * 1000.0)
                    remaining -= n
        elif scenario.kind == "crash":
            with phase("measure"):
                executed, checkpoints = run_until_crash_point(
                    runner,
                    scenario.checkpoint_interval,
                    min_checkpoints=scenario.min_checkpoints,
                    crash_point=scenario.crash_point,
                    max_transactions=scenario.max_transactions,
                )
            with phase("restart"):
                result = crash_and_recover(runner, executed, checkpoints)
        else:  # service
            with phase("measure"):
                demands = service.record_demands(
                    runner, scenario.measure_transactions, scenario.checkpoint_interval
                )
                simulation = service.ServiceSimulation(
                    demands,
                    n_clients=scenario.n_clients,
                    think_time_seconds=scenario.think_time_ms / 1000.0,
                    max_inflight=scenario.max_inflight,
                ).run()
                result = simulation.result(
                    name=runner.config.display_name,
                    think_time_ms=scenario.think_time_ms,
                    warmup_transactions=runner.warmup_transactions,
                )
    facts.update(
        buffer_accesses=dbms.buffer.stats.accesses,
        buffer_evictions=dbms.buffer.stats.evictions,
        wal_forces=dbms.log.forces - forces_before,
        wal_pages=dbms.log.device.stats.write_pages,
        checkpoints=dbms.checkpoints,
        stores=_store_facts(dbms),
    )
    return result, facts


def _store_facts(dbms) -> dict:
    """File size, live pages and a sample of encoded sizes of the cell's
    persistent stores (empty for the memory store)."""
    from repro.storage.codec import encode_storable

    stores = [v.store for v in (dbms.disk, dbms.flash) if v is not None]
    stores = [s for s in stores if getattr(s, "persistent", False)]
    if not stores:
        return {}
    file_bytes = sum(os.path.getsize(s.path) for s in stores)
    live = sum(len(s) for s in stores)
    sample = [
        len(encode_storable(dbms.disk.store.peek(lba)))
        for _, lba in zip(range(200), dbms.disk.store.occupied())
    ]
    return {
        "backend": stores[0].backend_name,
        "file_bytes_per_live_page": file_bytes / live if live else 0.0,
        "encoded_bytes_per_page": statistics.mean(sample) if sample else 0.0,
    }


def _p(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclasses.dataclass
class Observed:
    """Everything the metric functions read: the plan, the tracer, and per
    cell key the untraced result and cost, the traced result and cost, and
    the facts :func:`drive_cell` collected."""

    plan: object
    tracer: tracing.Tracer
    plain: dict
    plain_cost: dict
    traced: dict
    traced_cost: dict
    facts: dict

    def find(self, kind: str, second=None):
        """Key of the first traced cell of ``kind`` (and policy / store)."""
        for spec in self.plan.trace:
            if spec.key[0] == kind and (second is None or spec.key[1] == second):
                return spec.key
        return None

    def self_us_per_tx(self, layer: str, key: tuple | None = None) -> float:
        """Self time of ``layer`` per measured transaction of a steady cell
        (default: the reference cell)."""
        key = key or self.plan.ref_steady
        seconds = self.tracer.self_seconds(cell_id(key), layer, ("measure",))
        return seconds / self.traced[key].transactions * 1e6

    def mean_us(self, key: tuple | None, *labels: str) -> float:
        """Mean self time per call of ``labels`` over a whole cell."""
        if key is None:
            return 0.0
        calls = sum(self.tracer.calls(cell_id(key), label) for label in labels)
        seconds = sum(self.tracer.self_seconds(cell_id(key), label) for label in labels)
        return seconds / calls * 1e6 if calls else 0.0


def replay_setup_metrics(plan) -> dict:
    """Set-up of a replayed workload, itemised (zeros when nothing replays)."""
    from repro.sim.replay import (
        clear_recorders, get_recorder, persisted_trace_stats, prepare_replay,
        save_recorded_traces,
    )

    m = {
        "replay.record_tx_per_s": (0.0, "1/s"),
        "replay.prepare_s": (0.0, "s"),
        "replay.trace_load_s": (0.0, "s"),
        "replay.trace_bytes_per_tx": (0.0, "B"),
    }
    if not plan.replays:
        prepare(plan)
        return m
    replayed = [spec for spec in plan.trace if spec.replay_ok]
    ref = replayed[0]
    m["replay.prepare_s"] = (prepare_replay(replayed)["seconds"], "s")
    recorder = get_recorder(ref.scale, ref.seed, ref.workload_spec())
    already = recorder.trace.n_transactions
    _, cost = measured(lambda: recorder.ensure(plan.trace_tx))
    m["replay.record_tx_per_s"] = ((plan.trace_tx - already) / cost.cpu_s, "1/s")
    save_recorded_traces()
    stats = persisted_trace_stats(ref.scale, ref.seed, ref.workload_spec())
    if stats:
        m["replay.trace_bytes_per_tx"] = (stats["file_bytes"] / stats["n_transactions"], "B")
    # A later process starts from the persisted trace: decode it, validate
    # it against a re-recorded prefix, serve the rest from the file.
    clear_recorders()
    _, cost = measured(lambda: prepare(plan))
    m["replay.trace_load_s"] = (cost.cpu_s, "s")
    return m


def observe(plan, tally, e2e_results) -> Observed:
    """Run ``plan.trace`` untraced through ``run_cells``, then traced by hand,
    and check that the two (and the end-to-end pass) agree."""
    from repro.sim.parallel import run_cells

    forget_forks(plan)
    plain, plain_cost = {}, {}
    for spec in plan.trace:
        tally.cells += 1
        cell, plain_cost[spec.key] = measured(
            lambda: run_cells([spec], jobs=1, fast=plan.fast)
        )
        plain.update(cell)

    forget_forks(plan)
    tracer = tracing.Tracer()
    traced, traced_cost, facts = {}, {}, {}
    patches = tracing.install(tracer)
    try:
        for spec in plan.trace:
            tally.cells += 1
            (traced[spec.key], facts[spec.key]), traced_cost[spec.key] = measured(
                lambda: drive_cell(spec, plan.fast, tracer)
            )
    finally:
        patches.restore()
    for spec in plan.trace:
        tally.check(
            f"traced == untraced on {spec.key}", same_result(traced[spec.key], plain[spec.key]),
            "driving the cell by hand changed its simulated result",
        )
        if e2e_results is not None and spec.key in e2e_results:
            tally.check(
                f"traced pass == end-to-end pass on {spec.key}",
                same_result(traced[spec.key], e2e_results[spec.key]),
                "the two passes disagree on a simulated result",
            )
    return Observed(plan, tracer, plain, plain_cost, traced, traced_cost, facts)


def layer_metrics(o: Observed) -> dict:
    """Self times and simulated counts of the layers under a transaction."""
    tracer, plan = o.tracer, o.plan
    ref, ref_id, facts = o.traced[plan.ref_steady], cell_id(plan.ref_steady), o.facts[plan.ref_steady]
    tx = ref.transactions
    measure = ("measure",)
    m = {
        "workload.self_us_per_tx": (o.self_us_per_tx("workload"), "us"),
        "workload.page_reads_per_tx": (facts["buffer_accesses"] / tx, "count"),
        "workload.updates_per_tx": (
            tracer.calls(ref_id, "core.update_slot_tx", measure) / tx, "count"),
        "workload.load_s": (tracer.phase_wall(ref_id, "load"), "s"),
        "core.self_us_per_tx": (o.self_us_per_tx("core"), "us"),
        "core.checkpoints": (facts["checkpoints"], "count"),
        "core.checkpoint_ms_p50": (
            _p(tracer.durations.get((ref_id, "core.checkpoint"), []), 0.5) * 1000.0, "ms"),
        "buffer.self_us_per_tx": (o.self_us_per_tx("buffer"), "us"),
        "buffer.hit_rate": (ref.dram_hit_rate, "ratio"),
        "buffer.evictions_per_tx": (facts["buffer_evictions"] / tx, "count"),
        "flashcache.self_us_per_tx": (o.self_us_per_tx("flashcache"), "us"),
        "flashcache.hit_rate": (ref.flash_hit_rate, "ratio"),
        "flashcache.flash_writes_per_tx": (ref.cache_stats["flash_writes"] / tx, "count"),
        "flashcache.disk_writes_per_tx": (ref.cache_stats["disk_writes"] / tx, "count"),
        "flashcache.write_reduction": (ref.write_reduction, "ratio"),
        "device.self_us_per_tx": (o.self_us_per_tx("device"), "us"),
        "device.flash_pages_per_tx": (ref.flash_page_iops * ref.wall_seconds / tx, "count"),
        "device.disk_pages_per_tx": (ref.disk_page_iops * ref.wall_seconds / tx, "count"),
        "device.disk_util": (ref.utilization.get("disk", 0.0), "ratio"),
        "device.flash_util": (ref.utilization.get("flash", 0.0), "ratio"),
        "wal.self_us_per_tx": (o.self_us_per_tx("wal"), "us"),
        "wal.bytes_per_tx": (facts["wal_pages"] * 4096 / tx, "B"),
        "wal.forces_per_tx": (facts["wal_forces"] / tx, "count"),
    }
    lc_key = o.find("steady", "lc")
    m["flashcache.lc_self_us_per_tx"] = (
        o.self_us_per_tx("flashcache", lc_key) if lc_key else 0.0, "us")

    # Page stores and codec: read cost, write cost and space, together.
    for backend in ("mmap", "sqlite"):
        key, store = o.find("steady", backend), f"store.{backend}"
        m[f"{store}.put_us"] = (o.mean_us(key, f"{store}.put", f"{store}.delete"), "us")
        m[f"{store}.get_us"] = (o.mean_us(key, f"{store}.get", f"{store}.peek"), "us")
        m[f"{store}.file_bytes_per_live_page"] = (
            o.facts[key]["stores"].get("file_bytes_per_live_page", 0.0) if key else 0.0, "B")
    puts = sum(tracer.calls(ref_id, f"store.{b}.put", measure) for b in ("mmap", "sqlite"))
    gets = sum(tracer.calls(ref_id, f"store.{b}.{op}", measure)
               for b in ("mmap", "sqlite") for op in ("get", "peek"))
    ref_wall = sum(tracer.phase_wall(ref_id, p) for p in ("load", "warmup", "measure"))

    def share(codec_function: str, *store_calls: str) -> float:
        """Share of the reference cell (everything it runs end to end:
        populate the store, warm up, measure) spent in these calls."""
        labels = [f"codec.{codec_function}"]
        labels += [f"store.{b}.{call}" for b in ("mmap", "sqlite") for call in store_calls]
        return sum(tracer.self_seconds(ref_id, label) for label in labels) / ref_wall

    m.update({
        "store.read_share": (share("decode_storable", "get", "peek"), "ratio"),
        "store.write_share": (share("encode_storable", "put", "delete"), "ratio"),
        "store.populate_share": (tracer.phase_wall(ref_id, "load") / ref_wall, "ratio"),
        "store.puts_per_tx": (puts / tx, "count"),
        "store.gets_per_tx": (gets / tx, "count"),
        "codec.encode_us_per_page": (o.mean_us(plan.ref_steady, "codec.encode_storable"), "us"),
        "codec.decode_us_per_page": (o.mean_us(plan.ref_steady, "codec.decode_storable"), "us"),
        "codec.bytes_per_page": (facts["stores"].get("encoded_bytes_per_page", 0.0), "B"),
        "codec.share_of_wall": (tracer.self_seconds(ref_id, "codec") / ref_wall, "ratio"),
    })

    crash, crash_id = o.traced[plan.ref_crash], cell_id(plan.ref_crash)
    m.update({
        "recovery.restart_host_ms": (tracer.phase_wall(crash_id, "restart") * 1000.0, "ms"),
        "recovery.sim_restart_ms": (crash.restart_seconds * 1000.0, "sim_ms"),
        "recovery.redo_applied": (crash.redo_applied, "count"),
        "recovery.flash_read_fraction": (crash.flash_read_fraction, "ratio"),
        "recovery.pre_crash_tx": (crash.transactions_before_crash, "count"),
        "flashcache.recover_host_ms": (
            sum(tracer.durations.get((crash_id, "flashcache.recover"), [])) * 1000.0, "ms"),
    })

    service_key = o.find("service")
    served = o.traced.get(service_key)
    n = served.transactions if served else 1
    sid = cell_id(service_key) if served else ""
    m.update({
        "service.demand_us_per_tx": (
            tracer.self_seconds(sid, "service.record_demands") / n * 1e6, "us"),
        "service.des_us_per_tx": (tracer.self_seconds(sid, "service.run") / n * 1e6, "us"),
        "service.sim_p95_ms": (served.p95_seconds * 1000.0 if served else 0.0, "sim_ms"),
        "service.sim_tps": (served.tps if served else 0.0, "1/s"),
    })
    return m


def replay_metrics(o: Observed, tally, e2e_results: dict) -> dict:
    """The replay machinery's own numbers (zeros when nothing replays):
    cost per cell, speed-up over full execution, and the grid with two
    worker processes."""
    from repro.sim.parallel import run_cells
    from repro.sim.trace import leaked_shared_segments
    from repro.sim.warmstate import get_snapshot

    plan = o.plan
    costs = [o.plain_cost[s.key].cpu_s for s in plan.trace if plan.replays and s.replay_ok]
    forks = [d for (_, label), ds in o.tracer.durations.items()
             if label == "warmstate.fork_dbms" for d in ds]
    m = {
        "replay.self_us_per_tx": (o.self_us_per_tx("replay"), "us"),
        "replay.cell_s_p50": (_p(costs, 0.5), "s"),
        "replay.first_cell_s": (costs[0] if costs else 0.0, "s"),
        # The crash cell shares the reference config, so it adopts the
        # post-warm-up fork the steady cell captured.
        "replay.forked_cell_s": (o.plain_cost[plan.ref_crash].cpu_s if plan.replays else 0.0, "s"),
        "warmstate.fork_dbms_ms": (_p(forks, 0.5) * 1000.0, "ms"),
    }
    speedup = dict.fromkeys(("steady", "dram_fit", "crash"), 0.0)
    walls = {1: 0.0, 2: 0.0}
    if plan.replays:
        ref = plan.spec(plan.ref_steady)
        get_snapshot(ref.scale, ref.seed, ref.workload_spec())  # the load is no cell's cost
        for kind in speedup:
            key = o.find(kind)
            if key == plan.ref_steady and FULL_EXECUTION in e2e_results:
                _, cost = e2e_results[FULL_EXECUTION]  # run and checked there
            else:
                full_spec = dataclasses.replace(plan.spec(key), replay_ok=False)
                tally.cells += 1
                cell, cost = measured(lambda: run_cells([full_spec], jobs=1, fast=True))
                tally.check(
                    f"replay == full execution on {key}", same_result(cell[key], o.plain[key]),
                    "replayed and executed results differ",
                )
            # Normalised: the two costs may be taken a minute apart.
            speedup[kind] = cost.norm_s / o.plain_cost[key].norm_s
        grids = {}
        for jobs in walls:
            forget_forks(plan)
            tally.cells += len(plan.timed)
            start = time.perf_counter()
            grids[jobs] = run_cells(list(plan.timed), jobs=jobs, fast=True)
            walls[jobs] = time.perf_counter() - start
        tally.check(
            "jobs=2 results == jobs=1 results",
            all(same_result(grids[2][key], grids[1][key]) for key in grids[1]),
            "a pool worker returned a different simulated result",
        )
        tally.check("no shared-memory trace segment leaked",
                    not leaked_shared_segments(), str(leaked_shared_segments()))
    m.update({
        "replay.speedup_vs_full": (speedup["steady"], "ratio"),
        "replay.dram_fit_speedup_vs_full": (speedup["dram_fit"], "ratio"),
        # Wall time: this pair is about parallelism, which CPU time hides.
        "parallel.jobs2_wall_s": (walls[2], "s"),
        "parallel.jobs2_speedup": (walls[1] / walls[2] if walls[2] else 0.0, "ratio"),
    })
    return m


def harness_metrics(o: Observed, tally) -> dict:
    """What measuring costs: chunk times, obs and tracing overhead, coverage."""
    from repro.sim.parallel import run_cells

    plan, ref_key = o.plan, o.plan.ref_steady
    chunks = o.facts[ref_key]["chunk_ms"]
    forget_forks(plan)
    tally.cells += 1
    observed_spec = dataclasses.replace(plan.spec(ref_key), collect_obs=True)
    observed, obs_cost = measured(lambda: run_cells([observed_spec], jobs=1, fast=plan.fast))
    tally.check(
        "collect_obs leaves the simulated result unchanged",
        same_result(observed[ref_key], o.plain[ref_key]), "obs-on and obs-off results differ",
    )
    plain_cpu = o.plain_cost[ref_key].cpu_s
    return {
        "runner.chunk_ms_p50": (_p(chunks, 0.5), "ms"),
        "runner.chunk_ms_p95": (_p(chunks, 0.95), "ms"),
        "obs.on_overhead_ratio": (obs_cost.cpu_s / plain_cpu, "ratio"),
        "trace.overhead_ratio": (o.traced_cost[ref_key].cpu_s / plain_cpu, "ratio"),
        "trace.coverage": (o.tracer.coverage(cell_id(ref_key)), "ratio"),
    }


def traced_pass(workload, seed, sizes, tally, e2e_results, out_dir: Path) -> dict:
    """Run the workload's reference cells untraced and traced; return the
    per-layer metrics as ``{name: (value, unit)}`` and write the trace."""
    from repro.sim.warmstate import snapshot_load_seconds

    plan = workload.build(seed, sizes)
    metrics = replay_setup_metrics(plan)
    metrics["warmstate.snapshot_s"] = (snapshot_load_seconds(), "s")
    o = observe(plan, tally, e2e_results)
    metrics.update(layer_metrics(o))
    metrics.update(replay_metrics(o, tally, e2e_results or {}))
    metrics.update(harness_metrics(o, tally))

    chunks = len(o.facts[plan.ref_steady]["chunk_ms"])
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{workload.name}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "chunk_ms_samples": chunks, **o.tracer.to_json()}, fh, indent=1)
    print(f"{workload.name:20s} # runner.chunk_ms_* from {chunks} samples of {CHUNK} "
          f"transactions; trace written to perf/out/trace-{workload.name}.json")
    return metrics
