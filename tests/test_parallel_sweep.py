"""The parallel sweep engine: determinism, fallbacks, lambda-built grids.

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
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import (
    CellProgress,
    CellSpec,
    ensure_picklable,
    resolve_jobs,
    run_cells,
)
from repro.sim.scenario import SteadyStateScenario
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import TINY

DB_PAGES = estimate_db_pages(TINY)

#: Short measured region: these tests exercise orchestration, not steady
#: state, so each cell should be as cheap as a real simulation can be.
FAST = SteadyStateScenario(measure_transactions=120, warmup_min=40, warmup_max=400)


def _spec(key: tuple, fraction: float = 0.08, **overrides) -> CellSpec:
    params = {"scenario": FAST, **overrides}
    return CellSpec(
        key=key,
        config=scaled_reference_config(
            DB_PAGES, cache_fraction=fraction, policy=CachePolicy.FACE
        ),
        scale=TINY,
        seed=42,
        **params,
    )


def _grid() -> list[CellSpec]:
    return [_spec(("face", f), f) for f in (0.06, 0.10)]


# -- serial/parallel parity --------------------------------------------------


def test_parallel_results_bit_identical_to_serial():
    serial = run_cells(_grid(), jobs=1)
    parallel = run_cells(_grid(), jobs=2)
    assert list(serial) == list(parallel)  # key order preserved
    assert serial == parallel  # full RunResult equality, every field


def test_callbacks_fire_in_spec_order_in_both_modes():
    for jobs in (1, 2):
        progresses: list[CellProgress] = []
        cells = run_cells(_grid(), jobs=jobs, progress=progresses.append)
        assert [p.key for p in progresses] == [("face", 0.06), ("face", 0.10)]
        assert [p.result for p in progresses] == list(cells.values())
        assert [p.completed for p in progresses] == [1, 2]
        assert all(p.total == 2 for p in progresses)
        assert all(p.elapsed_seconds >= 0 for p in progresses)


def test_duplicate_keys_rejected():
    with pytest.raises(ConfigError, match="unique"):
        run_cells([_spec(("dup",)), _spec(("dup",), 0.10)])


def test_fully_executed_cell_frees_its_database(monkeypatch):
    """``run_cell`` must not leave the DBMS to the collector (the next cell
    would load its database beside this one's).  Automatic collection is
    off, so only reference counting can free it."""
    import gc
    import weakref

    import repro.sim.parallel as parallel_mod
    import repro.sim.runner as runner_mod

    born = []

    class Watched(runner_mod.ExperimentRunner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            born.append(weakref.ref(self.dbms))

    # ``run_cell`` imports the runner where it builds one.
    monkeypatch.setattr(runner_mod, "ExperimentRunner", Watched)
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

    monkeypatch.setattr(parallel_mod, "_process_pool", broken_pool)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = run_cells(_grid(), jobs=2)
    assert any("pool unavailable" in str(w.message) for w in caught)
    assert fallback == run_cells(_grid(), jobs=1)


# -- lambda-built grids -----------------------------------------------------


def test_sweep_lambda_factory_parallelises():
    # The factory is a lambda (unpicklable) but runs in the parent; only
    # the specs it *produces* cross the process boundary.
    base = ExperimentConfig(
        scale=TINY, policy="face", measure_transactions=120,
        warmup_min=40, warmup_max=400,
    )
    factory = lambda fraction: CellSpec.from_config(  # noqa: E731
        (fraction,), base.with_(cache_fraction=fraction)
    )
    serial = run_cells([factory(f) for f in (0.06, 0.10)], jobs=1)
    parallel = run_cells([factory(f) for f in (0.06, 0.10)], jobs=2)
    assert serial == parallel
    assert list(serial) == list(parallel) == [(0.06,), (0.10,)]
