"""Golden stdout of the CLI's ``run``, ``stats`` and ``devices`` at ``--scale tiny``.

Each case runs ``repro.cli.main`` in-process and compares its stdout, byte
for byte, with ``tests/fixtures/cli_golden/<case>.txt``.  The CLI is
deterministic for a given ``--seed``, so a refactor of how a grid builds
its cells (config lowering, seeds, scenario protocol) either keeps every
figure or shows up here as a diff.  A case is named for the experiment its
grid runs: ``recover`` is a crash/restart grid, ``serve`` a closed-loop
client grid, ``sweep_fast`` a cache-size series.  ``crash`` kills a real
process and is checked in ``tests/test_page_store.py``.  Progress lines go to stderr and
are not pinned: they carry wall-clock seconds, as does ``stats --fast``'s
``replay.events_per_sec``, so that variant is left out.

To regenerate after an intended output change, run each case's argv with
``python -m repro`` and ``REPRO_TRACE_CACHE=0`` and write its stdout to the
fixture file.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import main
from repro.obs import OBS
from repro.sim.replay import clear_recorders

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "cli_golden"

_TX = "measure_transactions=150"
_POLICIES = "policy=face+gsc,hdd-only"

#: Case name -> argv after ``--scale tiny``.
CASES = {
    "run": ["run", _POLICIES, _TX],
    "run_fast": ["run", _POLICIES, _TX, "--fast"],
    "recover": ["run", _POLICIES, "scenario=crash", "checkpoint_interval=0.05"],
    "sweep_fast": [
        "run", "policy=face+gsc", "cache_fraction=0.08,0.16", _TX, "--fast",
    ],
    "serve": ["run", _POLICIES, "scenario=service", "n_clients=1,8", _TX],
    "stats": ["stats", "policy=face+gsc", _TX],
    "stats_json": ["stats", "policy=face+gsc", _TX, "--json"],
    "stats_crash": [
        "stats", "policy=face+gsc", "scenario=crash", "checkpoint_interval=0.05",
    ],
    "stats_clients": [
        "stats", "policy=face+gsc", "scenario=service", "n_clients=4", _TX,
    ],
    "devices": ["devices"],
    "ablate": ["run", "face_cache_clean=true,false", _TX],
}


@pytest.fixture(autouse=True)
def _fresh_process_state():
    """Each case sees no persisted or in-process trace, and no live obs."""
    clear_recorders()
    was_enabled = OBS.enabled
    OBS.clear()
    OBS.disable()
    yield
    clear_recorders()
    OBS.clear()
    OBS.enabled = was_enabled


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(case, capsys):
    assert main(["--scale", "tiny", *CASES[case]]) == 0
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert capsys.readouterr().out == expected
