"""Grids of cells: ``ExperimentConfig.with_`` + ``run_cells``, and ``repro run``."""

import itertools

import pytest

from repro.cli import main
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec, derive_cell_seed, run_cells
from repro.tpcc.scale import TINY

BASE = ExperimentConfig(
    scale=TINY, seed=6, measure_transactions=150, warmup_min=50, warmup_max=1500
)
POLICIES = ("face", "lc")  # both read cache_fraction
FRACTIONS = (0.08, 0.12)


@pytest.fixture(scope="module")
def results() -> dict:
    specs = [
        CellSpec.from_config(
            key,
            BASE.with_(policy=key[0], cache_fraction=key[1]),
            seed=derive_cell_seed(BASE.seed, key),
        )
        for key in itertools.product(POLICIES, FRACTIONS)
    ]
    return run_cells(specs)


def test_full_factorial_grid(results):
    assert list(results) == list(itertools.product(POLICIES, FRACTIONS))


def test_cells_hold_run_results(results):
    cell = results[("face", 0.12)]
    assert cell.name == "FaCE"
    assert cell.transactions == 150
    assert cell.tpmc > 0


def test_progress_callback_sees_every_cell():
    seen = []
    run_cells(
        [CellSpec.from_config(("hdd-only",), BASE.with_(policy="hdd-only"))],
        progress=lambda p: seen.append(p.key),
    )
    assert seen == [("hdd-only",)]


def test_validation(capsys):
    run = ["--scale", "tiny", "run", "policy=face", "measure_transactions=50"]
    # A bad value is a usage error: one stderr line, exit 2.
    assert main([*run, "cache_fraction="]) == 2  # a grid needs one value
    assert "no values" in capsys.readouterr().err
    assert main([*run, "cache_fraction=0"]) == 2
    assert "cache_fraction" in capsys.readouterr().err
    assert main([*run, "cache_fraction=0.1,0.1"]) == 2
    assert "repeats a value" in capsys.readouterr().err
