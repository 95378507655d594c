"""Grids of cells: ``ExperimentConfig.with_`` + ``run_cells``, and ``repro sweep``."""

import itertools

import pytest

from repro.cli import main
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec, derive_cell_seed, run_cells
from repro.tpcc.scale import TINY

BASE = ExperimentConfig(
    scale=TINY, seed=6, measure_transactions=150, warmup_min=50, warmup_max=1500
)
POLICIES = ("face", "hdd-only")
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


def test_series_extraction(capsys):
    # ``repro sweep`` prints one (cache %, tpmC) point per fraction, in the
    # order given, each the tpmC of that fraction's cell.
    fractions = (0.12, 0.08)
    assert main([
        "--scale", "tiny", "--seed", "6", "sweep", "face",
        "--fractions", *map(str, fractions), "--transactions", "150",
    ]) == 0
    rows = [line.split("|") for line in capsys.readouterr().out.splitlines()[3:]]
    base = ExperimentConfig(
        scale=TINY, seed=6, policy="face", measure_transactions=150, warmup_max=50_000
    )
    cells = run_cells([
        CellSpec.from_config(
            (f,), base.with_(cache_fraction=f), seed=derive_cell_seed(6, (f,))
        )
        for f in fractions
    ])
    assert [(pct.strip(), tpmc.strip()) for pct, tpmc in rows] == [
        (f"{f * 100:,.1f}", f"{cells[(f,)].tpmc:,.1f}") for f in fractions
    ]


def test_progress_callback_sees_every_cell():
    seen = []
    run_cells(
        [CellSpec.from_config(("hdd-only",), BASE.with_(policy="hdd-only"))],
        progress=lambda p: seen.append(p.key),
    )
    assert seen == [("hdd-only",)]


def test_validation(capsys):
    sweep = ["--scale", "tiny", "sweep", "face", "--transactions", "50"]
    with pytest.raises(SystemExit):
        main([*sweep, "--fractions"])  # a sweep needs at least one value
    # A bad value is a usage error: one stderr line, exit 2.
    assert main([*sweep, "--fractions", "0"]) == 2
    assert "cache_fraction" in capsys.readouterr().err
    assert main([*sweep, "--fractions", "0.1", "0.1"]) == 2
    assert "unique" in capsys.readouterr().err


class TestFastSeedWarning:
    """``sweep --fast`` with per-cell seeds and no cached traces warns."""

    @staticmethod
    def _sweep(*flags: str) -> None:
        assert main([
            "--scale", "tiny", "--seed", "6", "sweep", "face",
            "--fractions", "0.06", "0.10", "--transactions", "50", *flags,
        ]) == 0

    @pytest.fixture(autouse=True)
    def _no_trace_cache(self, monkeypatch):
        from repro.sim.replay import clear_recorders
        from repro.sim.warmstate import clear_snapshots

        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        clear_recorders()
        clear_snapshots()
        yield
        clear_recorders()
        clear_snapshots()

    def test_per_cell_seeds_without_cached_traces_warn(self):
        with pytest.warns(UserWarning, match="--shared-seed"):
            self._sweep("--fast", "--no-shared-seed")

    def test_shared_seed_does_not_warn(self, recwarn):
        self._sweep("--fast")
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_slow_mode_does_not_warn(self, recwarn):
        self._sweep("--no-shared-seed")
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_cached_traces_suppress_the_warning(self, tmp_path, monkeypatch, recwarn):
        from repro.sim.replay import TraceRecorder, clear_recorders

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        recorder = TraceRecorder(TINY, derive_cell_seed(6, (0.06,)))
        recorder.ensure(80)
        recorder.save_cache()
        clear_recorders()
        self._sweep("--fast", "--no-shared-seed")
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]
