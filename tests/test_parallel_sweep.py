"""The parallel sweep engine: determinism, fallbacks, and the Sweep API.

The engine's contract (ISSUE: parallel sweep tentpole) is that ``jobs=N``
is an *execution detail*: every result, key order, and callback order is
bit-identical to a serial run.  These tests pin that contract, plus the
graceful degradations — unpicklable cells fail with a clear error before
any work is submitted, and an unavailable process pool falls back to
serial execution with a warning rather than failing the sweep.
"""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.core.config import CachePolicy, scaled_reference_config
from repro.errors import ConfigError
from repro.sim.parallel import (
    CellProgress,
    CellSpec,
    derive_cell_seed,
    ensure_picklable,
    resolve_jobs,
    run_cells,
)
from repro.sim.sweep import Sweep
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import TINY

DB_PAGES = estimate_db_pages(TINY)

#: Short measured region: these tests exercise orchestration, not steady
#: state, so each cell should be as cheap as a real simulation can be.
FAST = dict(measure_transactions=120, warmup_min=40, warmup_max=400)


def _spec(key: tuple, fraction: float = 0.08, **overrides) -> CellSpec:
    params = {**FAST, **overrides}
    return CellSpec(
        key=key,
        config=scaled_reference_config(
            DB_PAGES, cache_fraction=fraction, policy=CachePolicy.FACE
        ),
        scale=TINY,
        seed=derive_cell_seed(42, key),
        **params,
    )


def _grid() -> list[CellSpec]:
    return [_spec(("face", f), f) for f in (0.06, 0.10)]


# -- seed derivation ---------------------------------------------------------


def test_derive_cell_seed_is_stable_and_key_sensitive():
    # Pinned value: must never change across runs, processes, or versions —
    # recorded results depend on it.
    assert derive_cell_seed(42, ("face", 0.08)) == derive_cell_seed(
        42, ("face", 0.08)
    )
    assert derive_cell_seed(42, ("face", 0.08)) != derive_cell_seed(
        42, ("face", 0.12)
    )
    assert derive_cell_seed(42, ("face", 0.08)) != derive_cell_seed(
        43, ("face", 0.08)
    )
    # Always a valid non-negative 31-bit seed.
    for key in [(), ("x",), (1, 2.5, "y")]:
        assert 0 <= derive_cell_seed(0, key) < 2**31


# -- serial/parallel parity --------------------------------------------------


def test_parallel_results_bit_identical_to_serial():
    serial = run_cells(_grid(), jobs=1)
    parallel = run_cells(_grid(), jobs=2)
    assert list(serial) == list(parallel)  # key order preserved
    assert serial == parallel  # full RunResult equality, every field


def test_callbacks_fire_in_spec_order_in_both_modes():
    for jobs in (1, 2):
        seen: list[tuple] = []
        progresses: list[CellProgress] = []
        run_cells(
            _grid(),
            jobs=jobs,
            on_cell=lambda key, result: seen.append(key),
            progress=progresses.append,
        )
        assert seen == [("face", 0.06), ("face", 0.10)]
        assert [p.completed for p in progresses] == [1, 2]
        assert all(p.total == 2 for p in progresses)
        assert all(p.elapsed_seconds >= 0 for p in progresses)


def test_duplicate_keys_rejected():
    with pytest.raises(ConfigError, match="unique"):
        run_cells([_spec(("dup",)), _spec(("dup",), 0.10)])


def test_fully_executed_cell_frees_its_database(monkeypatch):
    """The DBMS sits in reference cycles; ``run_cell`` must not leave it to
    the collector's thresholds (the next cell would load its database beside
    this one's).  Automatic collection is off, so only ``run_cell`` frees."""
    import gc
    import weakref

    import repro.sim.parallel as parallel_mod

    born = []

    class Watched(parallel_mod.ExperimentRunner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            born.append(weakref.ref(self.dbms))

    monkeypatch.setattr(parallel_mod, "ExperimentRunner", Watched)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = parallel_mod.run_cell(_spec(("freed",)))
        assert result.transactions > 0
        assert [ref() for ref in born] == [None]
    finally:
        if was_enabled:
            gc.enable()


# -- jobs resolution ---------------------------------------------------------


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ConfigError, match="jobs"):
        resolve_jobs(-1)


# -- pickling ----------------------------------------------------------------


def test_unpicklable_cell_fails_with_clear_error():
    spec = _spec(("bad",))
    object.__setattr__(spec, "config", lambda: None)  # lambdas don't pickle
    with pytest.raises(ConfigError, match=r"\('bad',\)"):
        ensure_picklable([spec])
    # jobs=1 never pickles, so the same cell runs serially... but it isn't
    # a real config; just check the parallel path rejects it up front.
    with pytest.raises(ConfigError, match="picklable|worker"):
        run_cells([spec, _spec(("ok",))], jobs=2)


def test_cellspec_pickles_round_trip():
    spec = _spec(("rt", 0.08))
    assert pickle.loads(pickle.dumps(spec)) == spec


# -- pool-unavailable fallback -----------------------------------------------


def test_pool_unavailable_falls_back_to_serial(monkeypatch):
    import repro.sim.parallel as parallel_mod

    def broken_pool(*args, **kwargs):
        raise OSError("no semaphores in this sandbox")

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", broken_pool)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = run_cells(_grid(), jobs=2)
    assert any("pool unavailable" in str(w.message) for w in caught)
    assert fallback == run_cells(_grid(), jobs=1)


# -- the Sweep facade --------------------------------------------------------


def _sweep(jobs=1) -> Sweep:
    return Sweep(
        dimensions={"fraction": [0.06, 0.10]},
        config_factory=lambda fraction: scaled_reference_config(
            DB_PAGES, cache_fraction=fraction, policy=CachePolicy.FACE
        ),
        scale=TINY,
        measure_transactions=FAST["measure_transactions"],
        warmup_min=FAST["warmup_min"],
        warmup_max=FAST["warmup_max"],
        jobs=jobs,
    )


def test_sweep_lambda_factory_parallelises():
    # The factory is a lambda (unpicklable) but runs in the parent; only
    # the configs it *produces* cross the process boundary.
    serial = _sweep(jobs=1).run()
    parallel = _sweep(jobs=2).run()
    assert serial.cells == parallel.cells
    assert list(serial.cells) == list(parallel.cells)


def test_sweep_run_jobs_overrides_constructor():
    sweep = _sweep(jobs=1)
    assert sweep.run(jobs=2).cells == sweep.run(jobs=1).cells


def test_sweep_from_cells():
    cells = [_spec(("face", f), f) for f in (0.06, 0.10)]
    sweep = Sweep.from_cells(cells, dimensions=("policy", "fraction"))
    results = sweep.run()
    assert list(results.cells) == [("face", 0.06), ("face", 0.10)]
    direct = run_cells(cells, jobs=1)
    assert results.cells == direct
