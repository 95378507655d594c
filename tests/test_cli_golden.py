"""Golden stdout of every simulating CLI subcommand at ``--scale tiny``.

Each case runs ``repro.cli.main`` in-process and compares its stdout, byte
for byte, with ``tests/fixtures/cli_golden/<case>.txt``.  The CLI is
deterministic for a given ``--seed``, so a refactor of how a subcommand
builds its cells (config lowering, seeds, scenario protocol) either keeps
every figure or shows up here as a diff.  Progress lines go to stderr and
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

_TX = ["--transactions", "150"]
_SWEEP = ["sweep", "face+gsc", "--fractions", "0.08", "0.16", *_TX]

#: Case name -> argv after ``--scale tiny``.
CASES = {
    "run": ["run", "face+gsc", "hdd-only", *_TX],
    "run_fast": ["run", "face+gsc", "hdd-only", *_TX, "--fast"],
    "recover": ["recover", "face+gsc", "hdd-only", "--interval", "0.05"],
    "sweep": _SWEEP,
    "sweep_fast": [*_SWEEP, "--fast"],
    "sweep_fast_no_shared_seed": [*_SWEEP, "--fast", "--no-shared-seed"],
    "sweep_shared_seed": [*_SWEEP, "--shared-seed"],
    "serve": ["serve", "face+gsc", "hdd-only", "--clients", "1", "8", *_TX],
    "stats": ["stats", "face+gsc", *_TX],
    "stats_json": ["stats", "face+gsc", *_TX, "--json"],
    "stats_crash": ["stats", "face+gsc", "--crash", "--interval", "0.05"],
    "stats_clients": ["stats", "face+gsc", "--clients", "4", *_TX],
    "crash": ["crash", "--policy", "face+gsc", "--interval", "0.05"],
    "devices": ["devices"],
    "ablate": ["ablate", "face_cache_clean=true,false", "measure_transactions=150"],
    "ablate_crash": ["ablate", "scenario=crash", "checkpoint_interval=0.05"],
}


@pytest.fixture(autouse=True)
def _fresh_process_state(monkeypatch):
    """Each case sees no persisted or in-process trace, and no live obs."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
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
