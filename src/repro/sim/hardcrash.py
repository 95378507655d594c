"""Hard-crash harness: kill the process for real, restart from the files.

The in-process crash model (:meth:`repro.core.dbms.SimulatedDBMS.crash`)
*asserts* FaCE's non-volatility story: it wipes DRAM-side state and keeps
the flash/disk page stores because they are supposed to be non-volatile.
This module *tests* that story end to end with an actual process death:

1. **Victim** (``python -m repro crash`` re-execs itself with
   ``--victim``): build the system on a persistent page-store backend
   rooted at ``--state-dir``, warm up, run the Section 5.5 crash schedule
   to its kill point, compute the *soft prediction* (fork the live system,
   run the in-process crash + restart on the fork), serialise the durable
   context (WAL, schema graph, occupied-LBA manifest), then
   ``SIGKILL`` itself mid-flight.  No atexit handler, no cleanup — the
   DRAM state dies with the process.  The page stores' files stay in the
   kernel's page cache, so this is process death, not power loss
   (:data:`DURABILITY`, the :class:`~repro.storage.backing.PageStore`
   contract).
2. **Restart** (the surviving parent): reopen the same ``--state-dir``
   files through a fresh :class:`~repro.core.dbms.SimulatedDBMS`, verify
   every LBA the crash model predicted survived actually did, re-adopt the
   durable WAL, and run the real Section 4.2 restart sequence against the
   images that outlived the process.

The verdict compares the hard restart's *discrete* report fields (records
scanned, redo applied/skipped, losers, undo, FPW installs, flash/disk
fetch counts, cache survival) against the soft prediction.  Timing fields
are deliberately excluded: a freshly opened device model has pristine
head-position state, so service times differ even though every decision
the recovery makes is identical.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import signal
import subprocess
import sys
from typing import Any

from repro.core.config import CachePolicy, scaled_reference_config
from repro.core.dbms import SimulatedDBMS
from repro.errors import ConfigError, RecoveryError
from repro.recovery.restart import RecoveryManager, RestartReport
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import run_until_crash_point
from repro.sim.warmstate import fork_dbms
from repro.storage.registry import get_backend_entry
from repro.tpcc.scale import ScaleProfile, scale_by_name
from repro.workload.registry import (
    WorkloadSpec,
    estimate_workload_pages,
    workload_spec,
)

MANIFEST_NAME = "manifest.json"
CONTEXT_NAME = "context.pickle"
MANIFEST_SCHEMA = 1
#: The failure a hard crash survives: the persistent backends force no
#: write to the medium, so their files outlive the process, not a power cut.
DURABILITY = "process-death"

#: RestartReport fields that are pure decisions, not service times — the
#: hard restart must reproduce the soft model on these bit for bit.
DISCRETE_FIELDS = (
    "cache_survived",
    "log_records_scanned",
    "redo_applied",
    "redo_skipped",
    "fpw_installed",
    "pages_from_flash",
    "pages_from_disk",
    "losers",
    "undo_applied",
    "end_checkpoint_pages",
)


def discrete_report(report: RestartReport) -> dict[str, Any]:
    """The comparable (timing-free) projection of a restart report."""
    return {name: getattr(report, name) for name in DISCRETE_FIELDS}


def _build_config(
    scale: ScaleProfile,
    workload: WorkloadSpec,
    policy: CachePolicy,
    cache_fraction: float,
    backend: str,
    state_dir: str,
):
    return scaled_reference_config(
        estimate_workload_pages(workload, scale),
        cache_fraction=cache_fraction,
        policy=policy,
        page_store=backend,
        page_store_dir=state_dir,
    )


def run_victim(
    *,
    state_dir: str,
    backend: str,
    scale_name: str,
    seed: int,
    workload: WorkloadSpec,
    policy: CachePolicy,
    cache_fraction: float,
    checkpoint_interval: float,
    crash_point: float,
    warmup_max: int = 50_000,
) -> None:
    """Run the crash schedule on persistent storage, then die by SIGKILL.

    Never returns.  Everything the restart side needs is on disk first:
    the page-store files (flushed), the durable-context pickle, and the
    manifest carrying the identity of the run plus the soft prediction.
    """
    entry = get_backend_entry(backend)
    if not entry.persistent:
        raise ConfigError(
            f"hard crash needs a persistent page-store backend, not {backend!r}"
        )
    scale = scale_by_name(scale_name)
    config = _build_config(
        scale, workload, policy, cache_fraction, backend, state_dir
    )
    runner = ExperimentRunner(config, scale, seed=seed, workload=workload)
    runner.warm_up(max_transactions=warmup_max)
    executed, checkpoints = run_until_crash_point(
        runner, checkpoint_interval, crash_point=crash_point
    )
    dbms = runner.dbms

    # Soft prediction: the in-process crash model, run on a fork so the
    # victim's own state stays exactly as it will be at the kill.
    fork = fork_dbms(dbms)
    fork.crash()
    soft = RecoveryManager(fork).restart()
    del fork  # its temp store files go now; nothing runs after the SIGKILL

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "backend": backend,
        "scale": scale_name,
        "seed": seed,
        "policy": policy.value,
        "workload": workload.name,
        "workload_knobs": [list(pair) for pair in workload.knobs],
        "cache_fraction": cache_fraction,
        "checkpoint_interval": checkpoint_interval,
        "crash_point": crash_point,
        "executed": executed,
        "checkpoints": checkpoints,
        "disk_occupied": sorted(dbms.disk.store.occupied()),
        "flash_occupied": (
            sorted(dbms.flash.store.occupied()) if dbms.flash is not None else []
        ),
        "soft": discrete_report(soft),
        "next_txid": next(dbms._txid_counter),
        "head_lba": dbms.log._head_lba,
        "last_checkpoint_lsn": dbms.log.last_checkpoint_lsn,
    }
    # The schema graph and durable WAL stand in for what a real system
    # reads back from its catalog pages and log files at boot; the
    # simulator keeps them as objects, so they cross the death boundary
    # via an explicit serialisation instead.
    with open(os.path.join(state_dir, CONTEXT_NAME), "wb") as fh:
        pickle.dump(
            {
                "catalog": dbms.catalog,
                "tables": dbms.tables,
                "indexes": dbms.indexes,
                "durable": dbms.log.durable_records(),
            },
            fh,
        )
    with open(os.path.join(state_dir, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=2)
    dbms.disk.store.flush()
    if dbms.flash is not None:
        dbms.flash.store.flush()
    # Die the hard way: no atexit, no finalizers, no __del__ — the kernel
    # reaps the process and only the files remain.
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable: SIGKILL did not kill the victim")


def run_restart(state_dir: str) -> dict[str, Any]:
    """Reopen a dead victim's files, run the Section 4.2 restart, verdict.

    Returns a JSON-ready report: the durability level exercised, LBA-survival
    checks, the hard restart's report, the soft prediction, and ``passed``.
    """
    with open(os.path.join(state_dir, MANIFEST_NAME)) as fh:
        manifest = json.load(fh)
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise RecoveryError(
            f"unsupported hard-crash manifest schema {manifest.get('schema')!r}"
        )
    with open(os.path.join(state_dir, CONTEXT_NAME), "rb") as fh:
        context = pickle.load(fh)

    scale = scale_by_name(manifest["scale"])
    workload = workload_spec(
        manifest["workload"],
        {name: value for name, value in manifest["workload_knobs"]},
    )
    config = _build_config(
        scale,
        workload,
        CachePolicy(manifest["policy"]),
        manifest["cache_fraction"],
        manifest["backend"],
        state_dir,
    )
    # A fresh system: its persistent stores *reopen* the victim's files.
    dbms = SimulatedDBMS(config)

    # Non-volatility check: everything the in-process crash model says
    # survives (the occupied LBA sets at the kill) must actually be there.
    checks = {}
    for role, volume, expected in (
        ("disk", dbms.disk, manifest["disk_occupied"]),
        ("flash", dbms.flash, manifest["flash_occupied"]),
    ):
        if volume is None:
            checks[role] = {"expected": len(expected), "recovered": 0, "missing": 0}
            continue
        recovered = set(volume.store.occupied())
        missing = [lba for lba in expected if lba not in recovered]
        checks[role] = {
            "expected": len(expected),
            "recovered": len(recovered),
            "missing": len(missing),
        }

    # Re-adopt what a real DBMS reads from its own non-volatile metadata
    # at boot: schema graph and the forced WAL.  Assigned directly — not
    # via adopt_database_state, which would overwrite the reopened disk
    # store with an in-memory snapshot and defeat the whole test.
    dbms.catalog = context["catalog"]
    dbms.tables = context["tables"]
    dbms.indexes = context["indexes"]
    dbms.log.adopt_durable(
        context["durable"],
        head_lba=manifest["head_lba"],
        last_checkpoint_lsn=manifest["last_checkpoint_lsn"],
    )
    dbms._txid_counter = itertools.count(manifest["next_txid"])

    report = RecoveryManager(dbms).restart()
    hard = discrete_report(report)
    soft = manifest["soft"]
    mismatches = {
        name: {"soft": soft[name], "hard": hard[name]}
        for name in DISCRETE_FIELDS
        if hard[name] != soft[name]
    }
    survived = all(c["missing"] == 0 for c in checks.values())
    return {
        "state_dir": state_dir,
        "backend": manifest["backend"],
        "durability": DURABILITY,
        "executed_before_crash": manifest["executed"],
        "checkpoints_before_crash": manifest["checkpoints"],
        "survival": checks,
        "soft": soft,
        "hard": hard,
        "mismatches": mismatches,
        "restart_seconds": report.total_time,
        "flash_read_fraction": report.flash_read_fraction,
        "passed": survived and not mismatches,
    }


def run_hard_crash(victim_argv: list[str], state_dir: str) -> dict[str, Any]:
    """Spawn the victim, confirm it died by SIGKILL, restart from its files.

    ``victim_argv`` is the full ``python -m repro ...`` argument vector for
    the victim re-exec (the CLI builds it from its own arguments plus
    ``--victim``).
    """
    env = dict(os.environ)
    # The child must resolve the same `repro` package as this process,
    # however this process was launched.
    pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *victim_argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != -signal.SIGKILL:
        raise RecoveryError(
            "hard-crash victim did not die by SIGKILL "
            f"(exit {proc.returncode}); stderr:\n{proc.stderr}"
        )
    if not os.path.exists(os.path.join(state_dir, MANIFEST_NAME)):
        raise RecoveryError(
            f"victim died before writing {MANIFEST_NAME}; stderr:\n{proc.stderr}"
        )
    return run_restart(state_dir)
