"""The ``run`` grid: expansion, input rejection, replay parity, CLI.

``python -m repro run`` is the CLI's one grid: every positional is
``FIELD=V1[,V2...]`` over an :class:`ExperimentConfig` field, each cell is
``CellSpec.from_config(key, base.with_(...))`` and the grid runs through
``run_cells``.  The contract decomposes into independently checkable
pieces:

* **expansion** — the full factorial of the multi-value fields, every cell
  derived from the base with exactly those fields changed, all sharing the
  base's ``(scale, seed)`` so one boundary trace serves the grid;
* **validation** — unknown fields, repeated fields or values and empty
  value lists fail with a :class:`ConfigError`;
* **execution parity** — a fast (replayed) grid equals a ``fast=False``
  full-execution run of it, and :func:`replay_mismatches` agrees;
* **CLI** — one report row per cell, or every cell as JSON.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import grid_specs
from repro.errors import ConfigError
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import replay_mismatches, run_cells
from repro.sim.replay import clear_recorders
from repro.sim.warmstate import clear_snapshots
from repro.tpcc.scale import TINY

#: Short but non-trivial protocol (mirrors tests/test_replay_parity.py).
BASE = ExperimentConfig(
    scale=TINY, measure_transactions=120, warmup_min=40, warmup_max=600
)


@pytest.fixture(autouse=True)
def _hermetic():
    clear_recorders()
    clear_snapshots()
    yield
    clear_recorders()
    clear_snapshots()


class TestExpansion:
    def test_full_factorial_in_axis_order(self):
        axes, specs = grid_specs(
            BASE, ["face_cache_clean=true,false", "scan_depth=16,32,64"]
        )
        assert axes == ["face_cache_clean", "scan_depth"]
        assert [spec.key for spec in specs] == [
            (True, 16), (True, 32), (True, 64),
            (False, 16), (False, 32), (False, 64),
        ]
        for spec in specs:
            clean, depth = spec.key
            assert spec.config.face_cache_clean == clean
            assert spec.config.scan_depth == depth

    def test_cells_change_exactly_the_axis_fields(self):
        _, specs = grid_specs(BASE, ["face_write_through=false,true"])
        for spec in specs:
            (write_through,) = spec.key
            expected = BASE.with_(face_write_through=write_through)
            assert spec.config == expected.system_config()
            assert spec.scenario == expected.build_scenario()

    def test_every_cell_shares_the_base_scale_and_seed(self):
        _, specs = grid_specs(
            BASE, ["face_cache_clean=true,false", "scan_depth=16,32"]
        )
        assert {(spec.scale, spec.seed) for spec in specs} == {
            (BASE.scale, BASE.seed)
        }

    def test_ad_hoc_axis_over_any_experiment_field(self):
        _, specs = grid_specs(BASE, ["seed=1,2,3"])
        assert [spec.seed for spec in specs] == [1, 2, 3]

    def test_one_value_fields_are_fixed_overrides(self):
        axes, specs = grid_specs(
            BASE, ["scenario=crash", "checkpoint_interval=0.4,0.8"]
        )
        assert axes == ["checkpoint_interval"]
        assert [spec.key for spec in specs] == [(0.4,), (0.8,)]
        assert [spec.scenario.checkpoint_interval for spec in specs] == [0.4, 0.8]

    def test_policy_axis_expands_registry_names(self):
        _, (face, lc) = grid_specs(BASE, ["policy=face,lc"])
        assert face.config.cache_policy.value == "face"
        assert lc.config.cache_policy.value == "lc"


class TestValidation:
    def test_unknown_axis_lists_the_known_ones(self):
        with pytest.raises(ConfigError, match="scan_depth"):
            grid_specs(BASE, ["scan_dpeth=16"])

    def test_no_axes_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            grid_specs(BASE, [])

    def test_empty_axis_rejected(self):
        for token in ("scan_depth", "scan_depth="):
            with pytest.raises(ConfigError, match="no values"):
                grid_specs(BASE, [token])

    def test_duplicate_value_rejected(self):
        with pytest.raises(ConfigError, match="repeats"):
            grid_specs(BASE, ["scan_depth=16,16"])

    def test_repeated_field_rejected(self):
        with pytest.raises(ConfigError, match="twice"):
            grid_specs(BASE, ["scan_depth=16", "scan_depth=32,64"])

    def test_bad_axis_value_fails_at_expansion(self):
        with pytest.raises(ConfigError):
            grid_specs(BASE, ["cache_fraction=0.08,1.5"])


class TestExecution:
    def test_fast_grid_matches_full_execution(self):
        _, specs = grid_specs(
            BASE, ["face_cache_clean=true,false", "face_write_through=false,true"]
        )
        fast = run_cells(specs, fast=True)
        clear_recorders()
        clear_snapshots()
        full = run_cells(specs, fast=False)
        strip = lambda cells: {
            key: dataclasses.replace(result, obs=None)
            for key, result in cells.items()
        }
        assert strip(fast) == strip(full)

    def test_replay_mismatches_empty_on_a_replayed_grid(self):
        _, specs = grid_specs(BASE, ["scan_depth=8,16"])
        cells = run_cells(specs, fast=True)
        assert replay_mismatches(specs, cells) == []

    def test_replay_mismatches_catches_a_tampered_cell(self):
        _, specs = grid_specs(BASE, ["scan_depth=8,16"])
        cells = run_cells(specs, fast=True)
        key = (16,)
        cells[key] = dataclasses.replace(cells[key], tpmc=cells[key].tpmc + 1.0)
        assert replay_mismatches(specs, cells) == [key]


class TestCli:
    def test_ablate_prints_one_row_per_cell(self, capsys):
        from repro.cli import main

        code = main([
            "--scale", "tiny", "run", "face_cache_clean=true,false",
            "scan_depth=8,16", "measure_transactions=120", "--fast",
            "--check-parity", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "### Grid over face_cache_clean x scan_depth" in out
        rows = [line for line in out.splitlines() if "scan_depth=" in line]
        assert len(rows) == 4
        assert rows[0].startswith("| face_cache_clean=True, scan_depth=8 |")

    def test_ablate_json_record(self, capsys):
        from repro.cli import main

        code = main([
            "--scale", "tiny", "run", "face_write_through=false,true",
            "measure_transactions=120", "--fast", "--json",
            "--check-parity", "1",
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert [cell["key"] for cell in record["cells"]] == [[False], [True]]
        assert record["cells"][1]["write_reduction"] == 0.0
        assert record["replay_parity"] is True

    def test_ablate_value_parsing(self):
        from repro.cli import _axis_value

        assert _axis_value("16") == 16
        assert _axis_value("0.12") == 0.12
        assert _axis_value("true") is True
        assert _axis_value("False") is False
        assert _axis_value("none") is None
        assert _axis_value("face+gsc") == "face+gsc"
