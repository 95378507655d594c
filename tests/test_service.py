"""Closed-loop service layer: DES mechanics, percentile math, determinism.

Three layers of pinning:

* **Hand-computed DES schedules** — tiny synthetic demand streams whose
  FIFO/think/admission timelines can be worked out on paper; the simulator
  must land on those exact numbers (floats stay exact: the inputs are
  halves and units).
* **Percentile edge cases** — empty, single-sample, merged-across-workers
  histograms, and the q=0 rank floor.
* **Engine integration** — a real 50-client cell is bit-identical across
  ``jobs=1`` vs ``jobs=2``, full execution vs trace replay, and re-runs.
"""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigError
from repro.obs import OBS
from repro.obs.registry import HistogramSnapshot
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec, run_cell, run_cells
from repro.sim.scenario import ServiceScenario
from repro.sim.service import (
    RESOURCE_ORDER,
    SERVICE_LATENCY_BUCKETS,
    ServiceResult,
    ServiceSimulation,
    TxnDemand,
    record_demands,
)
from repro.tpcc.scale import TINY


def demand(*stages, committed=True, new_order=False) -> TxnDemand:
    return TxnDemand(
        stages=tuple(stages), committed=committed, new_order_commit=new_order
    )


def simulate(demands, n_clients, think=0.0, max_inflight=None) -> ServiceResult:
    sim = ServiceSimulation(
        demands, n_clients, think_time_seconds=think, max_inflight=max_inflight
    ).run()
    return sim.result(name="synthetic")


# ---------------------------------------------------------------------------
# hand-computed DES schedules
# ---------------------------------------------------------------------------


class TestSimulationMechanics:
    def test_single_client_serialises_demands(self):
        # One client, two 1 s transactions: no queueing anywhere, so each
        # latency is its service demand and the run lasts their sum.
        r = simulate([demand(("disk", 1.0))] * 2, n_clients=1)
        assert r.transactions == 2
        assert r.sim_seconds == 2.0
        assert r.latency_mean == 1.0
        assert r.latency_max == 1.0
        assert r.tps == 1.0

    def test_two_clients_queue_fifo_on_one_resource(self):
        # Two clients, four 1 s disk-only transactions.  Worked timeline:
        # A: [0,1), resubmits -> [2,3); B: waits A -> [1,2), then [3,4).
        # Every transaction after the first waits exactly one service time.
        r = simulate([demand(("disk", 1.0))] * 4, n_clients=2)
        assert r.sim_seconds == 4.0
        assert r.latency_max == 2.0
        # latencies: 1, 2, 2, 2 (first admission is unqueued)
        assert r.latency_mean == pytest.approx(7.0 / 4.0)
        assert r.utilization == {"disk": 1.0}
        # 3 of 4 visits waited 1 s each behind the busy server.
        assert r.queue_wait_mean["disk"] == pytest.approx(3.0 / 4.0)

    def test_stages_pipeline_across_resources(self):
        # Two clients, cpu -> disk, 1 s each stage.  B's cpu stage overlaps
        # A's disk stage, so the makespan is 3 s, not 4.
        stream = [demand(("cpu", 1.0), ("disk", 1.0))] * 2
        r = simulate(stream, n_clients=2)
        assert r.sim_seconds == 3.0
        assert r.latency_max == 3.0  # B: submit 0, cpu [1,2), disk [2,3)
        assert r.latency_mean == pytest.approx((2.0 + 3.0) / 2.0)
        assert r.utilization == {"cpu": 2.0 / 3.0, "disk": 2.0 / 3.0}

    def test_think_time_idles_between_transactions(self):
        # One client, 0.5 s think between two 1 s transactions: the gap
        # stretches the run but never the per-transaction latency.
        r = simulate([demand(("disk", 1.0))] * 2, n_clients=1, think=0.5)
        assert r.sim_seconds == 2.5
        assert r.latency_mean == 1.0
        assert r.think_time_ms == 500.0
        assert r.utilization["disk"] == pytest.approx(1.0 / 1.25)

    def test_admission_control_caps_inflight(self):
        # Two clients but max_inflight=1: strictly serial execution, and
        # the gated client's wait is charged to admission, not the queue.
        r = simulate([demand(("disk", 1.0))] * 2, n_clients=2, max_inflight=1)
        assert r.sim_seconds == 2.0
        assert r.latency_max == 2.0  # B: submitted at 0, admitted at 1
        assert r.queue_wait_mean["disk"] == 0.0
        assert r.admission_wait_mean == pytest.approx(0.5)
        assert r.max_inflight == 1

    def test_admission_gate_is_fifo(self):
        # Three clients, cap 1: the gate releases in submission order, so
        # latencies are exactly 1, 2, 3 (mean 2).
        r = simulate([demand(("disk", 1.0))] * 3, n_clients=3, max_inflight=1)
        assert r.latency_mean == pytest.approx(2.0)
        assert r.latency_max == 3.0

    def test_more_clients_than_demands(self):
        # Extra clients idle out harmlessly once the stream is exhausted.
        r = simulate([demand(("cpu", 1.0))], n_clients=8)
        assert r.transactions == 1
        assert r.sim_seconds == 1.0

    def test_zero_demand_transaction_completes_instantly(self):
        r = simulate([demand(), demand(("cpu", 1.0))], n_clients=1)
        assert r.transactions == 2
        assert r.sim_seconds == 1.0

    def test_commit_and_neworder_accounting(self):
        stream = [
            demand(("cpu", 1.0), new_order=True),
            demand(("cpu", 1.0), committed=False),
            demand(("cpu", 1.0)),
        ]
        r = simulate(stream, n_clients=1)
        # tpmC counts only new-order commits: 1 in 3 simulated seconds.
        assert r.tpmc == pytest.approx(60.0 / 3.0)
        assert r.tps == pytest.approx(1.0)

    def test_throughput_saturates_and_tail_grows_with_clients(self):
        # The knee in miniature: a 10 ms bottleneck caps throughput at
        # 100 tx/s no matter the client count, while p95 keeps climbing.
        stream = [demand(("disk", 0.010))] * 200
        by_clients = {n: simulate(stream, n_clients=n) for n in (1, 4, 32)}
        assert by_clients[1].tps == pytest.approx(100.0)
        assert by_clients[32].tps == pytest.approx(100.0)
        assert (
            by_clients[1].p95_seconds
            < by_clients[4].p95_seconds
            < by_clients[32].p95_seconds
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            ServiceSimulation([demand()], n_clients=0)
        with pytest.raises(ConfigError):
            ServiceSimulation([demand()], n_clients=1, think_time_seconds=-1.0)
        with pytest.raises(ConfigError):
            ServiceSimulation([demand()], n_clients=1, max_inflight=0)
        with pytest.raises(ConfigError):
            ServiceScenario(n_clients=0)
        with pytest.raises(ConfigError):
            ServiceScenario(think_time_ms=-0.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="service", n_clients=0)

    def test_result_is_picklable(self):
        r = simulate([demand(("cpu", 1.0))] * 3, n_clients=2)
        clone = pickle.loads(pickle.dumps(r))
        assert clone == r
        assert clone.p95_seconds == r.p95_seconds


# ---------------------------------------------------------------------------
# percentile math
# ---------------------------------------------------------------------------


def snapshot(samples, bounds=(1.0, 2.0, 4.0)) -> HistogramSnapshot:
    from repro.obs.registry import Histogram

    h = Histogram("test", bounds)
    for s in samples:
        h.observe(s)
    return HistogramSnapshot(
        bounds=h.bounds, counts=tuple(h.counts), total=h.total, count=h.count
    )


class TestQuantileEdgeCases:
    def test_empty_histogram_is_zero(self):
        empty = snapshot([])
        assert empty.quantile(0.0) == 0.0
        assert empty.quantile(0.5) == 0.0
        assert empty.quantile(1.0) == 0.0

    def test_single_sample_every_quantile_is_its_bucket(self):
        one = snapshot([1.5])  # lands in the (1, 2] bucket
        for q in (0.0, 0.5, 0.95, 1.0):
            assert one.quantile(q) == 2.0

    def test_q0_skips_empty_leading_buckets(self):
        # All samples above the first bound: q=0 must report the first
        # *non-empty* bucket, not bounds[0].
        high = snapshot([3.0, 3.5])
        assert high.quantile(0.0) == 4.0

    def test_quantiles_walk_the_distribution(self):
        s = snapshot([0.5] * 50 + [1.5] * 45 + [3.0] * 5)
        assert s.quantile(0.50) == 1.0
        assert s.quantile(0.95) == 2.0
        assert s.quantile(0.99) == 4.0

    def test_overflow_bucket_is_inf(self):
        s = snapshot([10.0])
        assert s.quantile(0.99) == float("inf")

    def test_merge_across_workers_answers_combined_population(self):
        # Two "worker" snapshots; the merged quantile must equal a single
        # histogram over the concatenated samples.
        a, b = [0.5] * 90 + [1.5] * 10, [3.0] * 100
        merged = snapshot(a).merge(snapshot(b))
        combined = snapshot(a + b)
        assert merged.counts == combined.counts
        assert merged.count == 200
        for q in (0.0, 0.45, 0.5, 0.95, 1.0):
            assert merged.quantile(q) == combined.quantile(q)

    def test_out_of_range_quantile_raises(self):
        s = snapshot([0.5])
        with pytest.raises(ConfigError):
            s.quantile(-0.1)
        with pytest.raises(ConfigError):
            s.quantile(1.1)

    def test_service_buckets_cover_the_latency_range(self):
        assert SERVICE_LATENCY_BUCKETS[0] <= 50e-6  # one flash read
        assert SERVICE_LATENCY_BUCKETS[-1] >= 600.0  # deep saturation
        # Geometric spacing bounds quantile error to one bucket ratio.
        ratios = [
            b / a
            for a, b in zip(SERVICE_LATENCY_BUCKETS, SERVICE_LATENCY_BUCKETS[1:])
        ]
        assert max(ratios) <= 1.1501


# ---------------------------------------------------------------------------
# demand recording + engine integration
# ---------------------------------------------------------------------------


def service_config(**overrides) -> ExperimentConfig:
    params = dict(
        scale=TINY,
        scenario="service",
        n_clients=50,
        measure_transactions=300,
        warmup_min=50,
        warmup_max=2000,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def comparable(result):
    data = dataclasses.asdict(result)
    data.pop("obs")
    return data


class TestServiceCells:
    def test_record_demands_conserves_busy_time(self):
        from repro.sim.runner import ExperimentRunner

        config = service_config()
        runner = ExperimentRunner(config.system_config(), TINY, seed=config.seed)
        runner.warm_up(50, 2000)
        before = runner.dbms.resource_times()
        demands = record_demands(runner, 200)
        after = runner.dbms.resource_times()
        assert len(demands) == 200
        for name in RESOURCE_ORDER:
            recorded = sum(
                dict(d.stages).get(name, 0.0) for d in demands
            )
            assert recorded == pytest.approx(after[name] - before[name])
        # Stage order is canonical on every demand.
        for d in demands:
            names = [name for name, _ in d.stages]
            assert names == [n for n in RESOURCE_ORDER if n in names]

    def test_the_scenario_calls_record_demands_through_the_service_module(
        self, monkeypatch
    ):
        # ``ServiceScenario`` lives in ``repro.sim.scenario``; it must look
        # ``record_demands`` up in ``repro.sim.service`` when it runs, where
        # the traced pass of ``perf/bench.py`` wraps it.
        import repro.sim.service as service

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return record_demands(*args, **kwargs)

        monkeypatch.setattr(service, "record_demands", counted)
        run_cell(CellSpec.from_config(("face+gsc", 4), service_config(
            n_clients=4, measure_transactions=40, warmup_max=400,
        )))
        assert calls == [40]

    def test_reference_50_client_cell(self):
        # The acceptance-criteria run: 50 closed-loop clients, fixed seed,
        # deterministic p50/p95/p99 — and a sane latency ordering.
        spec = CellSpec.from_config(("face+gsc", 50), service_config())
        a = run_cell(spec)
        b = run_cell(spec)
        assert isinstance(a, ServiceResult)
        assert comparable(a) == comparable(b)
        assert a.transactions == 300
        assert 0.0 < a.p50_seconds <= a.p95_seconds <= a.p99_seconds
        assert a.bottleneck in a.utilization

    def test_jobs_parallelism_is_bit_identical(self):
        base = service_config(measure_transactions=200)
        specs = [
            CellSpec.from_config((policy, n), base.with_(policy=policy, n_clients=n))
            for policy in ("face+gsc", "lc")
            for n in (1, 16)
        ]
        serial = run_cells(specs, jobs=1)
        parallel = run_cells(specs, jobs=2)
        for key in serial:
            assert comparable(serial[key]) == comparable(parallel[key]), key
            quantiles = lambda r: (r.p50_seconds, r.p95_seconds, r.p99_seconds)
            assert quantiles(serial[key]) == quantiles(parallel[key])

    def test_fast_replay_matches_full_execution(self):
        base = service_config(measure_transactions=200)
        specs = [
            CellSpec.from_config((policy,), base.with_(policy=policy))
            for policy in ("face+gsc", "lc")
        ]
        full = {spec.key: run_cell(spec) for spec in specs}
        fast = run_cells(specs, jobs=1, fast=True)
        for key in full:
            assert comparable(full[key]) == comparable(fast[key]), key

    def test_collect_obs_snapshot_carries_service_metrics(self):
        spec = CellSpec.from_config(
            ("obs",), service_config(measure_transactions=150, collect_obs=True)
        )
        was_enabled = OBS.enabled
        result = run_cell(spec)
        assert OBS.enabled == was_enabled
        assert result.obs is not None
        flat = result.obs.as_flat()
        assert flat["service.txn.completed"] == 150
        assert flat["service.clients"] == 50
        hist = result.obs.histograms["service.txn.latency.seconds"]
        assert hist.count == 150
        # The obs-mirrored histogram is the same distribution the result
        # embeds, so both answer identical quantiles.
        assert hist.quantile(0.95) == result.p95_seconds

    def test_think_time_knob_reaches_the_simulation(self):
        eager = run_cell(CellSpec.from_config(("t0",), service_config(
            measure_transactions=150, n_clients=4)))
        lazy = run_cell(CellSpec.from_config(("t5",), service_config(
            measure_transactions=150, n_clients=4, think_time_ms=5.0)))
        assert lazy.think_time_ms == 5.0
        assert lazy.sim_seconds > eager.sim_seconds
        assert lazy.tps < eager.tps

    def test_max_inflight_knob_reaches_the_simulation(self):
        open_door = run_cell(CellSpec.from_config(("open",), service_config(
            measure_transactions=150)))
        gated = run_cell(CellSpec.from_config(("gated",), service_config(
            measure_transactions=150, max_inflight=2)))
        assert gated.max_inflight == 2
        assert gated.admission_wait_mean > 0.0
        assert open_door.admission_wait_mean == 0.0

    def test_ablation_grid_over_client_counts(self):
        base = service_config(measure_transactions=150)
        specs = [
            CellSpec.from_config((policy, n), base.with_(policy=policy, n_clients=n))
            for policy in ("face+gsc", "lc")
            for n in (1, 16)
        ]
        cells = run_cells(specs, jobs=1, fast=True)
        assert all(isinstance(r, ServiceResult) for r in cells.values())
        assert [r.n_clients for r in cells.values()] == [1, 16, 1, 16]
        # Tail latency must grow with the client count, under each policy.
        for policy in ("face+gsc", "lc"):
            assert cells[(policy, 16)].p95_seconds > cells[(policy, 1)].p95_seconds
