"""Closed-loop concurrent-client service layer: queueing on top of devices.

The paper's headline numbers come from 50 closed-loop TPC-C clients
saturating the I/O path (Section 5.1).  The bottleneck wall-clock model
(DESIGN.md §6) captures that *aggregate* — throughput is bounded by the
busiest device — but it has no notion of individual clients, queues, or
tail latency.  This module adds the missing layer as a deterministic
discrete-event simulation (DES):

1. **Demands are recorded, not modelled.**  A single measured stream runs
   through the real DBMS (full execution or trace replay — both produce
   bit-identical device charges), and each transaction's *per-resource
   service demand* is captured as the delta of
   :meth:`~repro.core.dbms.SimulatedDBMS.resource_times` across the step.
   The calibrated device models stay authoritative for service cost; the
   DES never invents a service time.
2. **Clients are closed-loop.**  ``n_clients`` simulated clients each
   submit a transaction, wait for it to complete, think for
   ``think_time_ms``, and submit the next one — the TPC-C harness shape.
   The recorded demand stream is consumed in admission order, so the same
   measured work is redistributed across N clients.
3. **Each resource is a FIFO queue.**  A transaction visits its non-zero
   demand stages in the canonical order :data:`RESOURCE_ORDER` (cpu → log
   → flash → disk); each resource is a single server serving in arrival
   order, so queueing delay emerges from contention instead of being
   assumed.  Optional admission control (``max_inflight``) caps the
   multiprogramming level, queueing excess clients FIFO at the door.
4. **Latency is captured per transaction** (submission to completion,
   admission wait included) into a fixed-bucket
   :class:`~repro.obs.registry.Histogram`, from which p50/p95/p99 are read
   via :meth:`~repro.obs.registry.HistogramSnapshot.quantile` — and, when
   the observability layer is enabled, mirrored into the global registry
   under ``service.*``.

Determinism: the event heap is keyed by ``(time, sequence)`` — ties break
by insertion order, never by hash order or host identity — and think times
are exact constants, so a :class:`ServiceResult` is bit-identical across
re-runs, across ``--jobs`` counts, and between full execution and trace
replay of the same cell.  See docs/CONCURRENCY.md for the worked model and
its guarantees.  The protocol that drives a service cell,
:class:`~repro.sim.scenario.ServiceScenario`, is declared with the other
scenario kinds in :mod:`repro.sim.scenario`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.obs import OBS
from repro.obs.registry import Histogram, HistogramSnapshot, RegistrySnapshot

#: Canonical stage order a transaction visits its resources in: CPU work
#: first (executing the transaction logic), then the commit-time log
#: force, then flash-cache traffic, then disk.  A real transaction
#: interleaves these; collapsing each resource's demand into one FIFO
#: visit is the standard single-class queueing-network abstraction, and
#: the order only redistributes *where* waiting happens — total service
#: demand per resource is exactly what the device models charged.
RESOURCE_ORDER: tuple[str, ...] = ("cpu", "log", "flash", "disk")


def _geometric_bounds(lo: float, hi: float, ratio: float) -> tuple[float, ...]:
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * ratio)
    return tuple(bounds)


#: Latency buckets for transaction latencies: geometric spacing (15 % per
#: bucket) from 20 µs — below a single flash random read — to ~10 minutes,
#: which covers thousands of queued clients behind a saturated disk.
#: Quantiles read from these buckets are exact to one bucket width (≤ 15 %),
#: which is far inside the run-to-run spread of any real latency measurement.
SERVICE_LATENCY_BUCKETS: tuple[float, ...] = _geometric_bounds(20e-6, 600.0, 1.15)


@dataclass(frozen=True)
class TxnDemand:
    """One transaction's recorded per-resource service demand.

    ``stages`` holds ``(resource, seconds)`` pairs in :data:`RESOURCE_ORDER`
    with zero-demand resources dropped; ``new_order_commit`` marks the
    transactions tpmC counts.
    """

    stages: tuple[tuple[str, float], ...]
    committed: bool = True
    new_order_commit: bool = False

    @property
    def total_seconds(self) -> float:
        """Critical-path service demand (the no-queueing latency floor)."""
        return sum(seconds for _, seconds in self.stages)


def record_demands(
    runner,
    n_transactions: int,
    checkpoint_interval: float | None = None,
) -> list[TxnDemand]:
    """Run ``n_transactions`` through a real runner, capturing demands.

    ``runner`` is anything with the scenario stepping interface
    (:class:`~repro.sim.runner.ExperimentRunner` or
    :class:`~repro.sim.replay.ReplayRunner`): each ``step()`` executes one
    transaction against the real buffer/WAL/flash/device stack, and the
    demand is the delta of the DBMS's cumulative per-resource busy times
    across the step.  With ``checkpoint_interval`` set, checkpoints fire on
    the simulated clock exactly as in :meth:`ExperimentRunner.measure`;
    a checkpoint's I/O lands in the demand of the transaction that
    triggered it (documented approximation — the flush happens *between*
    transactions either way).
    """
    if n_transactions < 1:
        raise ConfigError("record_demands needs n_transactions >= 1")
    dbms = runner.dbms
    # ExperimentRunner keeps its stats on the TPC-C driver; ReplayRunner
    # keeps an identical WorkloadStats of its own.
    stats = getattr(runner, "stats", None)
    if stats is None:
        stats = runner.driver.stats
    demands: list[TxnDemand] = []
    before = dbms.resource_times()
    last_checkpoint = 0.0
    for _ in range(n_transactions):
        committed_before = stats.committed
        neworder_before = stats.neworder_commits
        runner.step()
        if checkpoint_interval is not None:
            wall = dbms.wall_clock()
            if wall - last_checkpoint >= checkpoint_interval:
                dbms.checkpoint()
                last_checkpoint = wall
        after = dbms.resource_times()
        demands.append(
            TxnDemand(
                stages=tuple(
                    (name, after[name] - before[name])
                    for name in RESOURCE_ORDER
                    if after[name] - before[name] > 0.0
                ),
                committed=stats.committed > committed_before,
                new_order_commit=stats.neworder_commits > neworder_before,
            )
        )
        before = after
    return demands


@dataclass
class ServiceResult:
    """Steady-state measurements of one closed-loop service run (one cell).

    The service-layer sibling of :class:`~repro.sim.runner.RunResult` and
    :class:`~repro.sim.scenario.CrashRun`: a plain picklable record with
    the same ``name`` / ``warmup_transactions`` / ``obs`` envelope so it
    rides the sweep/replay/ablation plumbing unchanged.  Latency
    percentiles are properties over the embedded
    :class:`~repro.obs.registry.HistogramSnapshot`, so merged or diffed
    snapshots answer the same questions.
    """

    name: str
    n_clients: int
    think_time_ms: float
    transactions: int
    #: Simulated seconds from first submission to last completion.
    sim_seconds: float
    tpmc: float
    #: Completed transactions per simulated second (all five kinds).
    tps: float
    latency: HistogramSnapshot
    latency_mean: float
    latency_max: float
    #: Per-resource busy fraction over the run (1.0 = saturated server).
    utilization: dict[str, float] = field(default_factory=dict)
    #: Mean FIFO wait per visit, per resource (seconds).
    queue_wait_mean: dict[str, float] = field(default_factory=dict)
    #: Admission-control cap that was in force (``None`` = unlimited).
    max_inflight: int | None = None
    #: Mean wait at the admission gate per transaction (0 when unlimited).
    admission_wait_mean: float = 0.0
    warmup_transactions: int = 0
    #: Observability snapshot (populated when the cell ran ``collect_obs``).
    obs: RegistrySnapshot | None = None

    @property
    def p50_seconds(self) -> float:
        return self.latency.quantile(0.50)

    @property
    def p95_seconds(self) -> float:
        return self.latency.quantile(0.95)

    @property
    def p99_seconds(self) -> float:
        return self.latency.quantile(0.99)

    @property
    def bottleneck(self) -> str:
        """The resource with the highest utilization ('' when idle)."""
        if not self.utilization:
            return ""
        return max(self.utilization, key=self.utilization.get)


class ServiceSimulation:
    """Deterministic DES: N closed-loop clients over a recorded demand stream.

    The event heap is keyed ``(time, seq)``; ``seq`` is a global insertion
    counter, so simultaneous events process in the order they were
    scheduled — client 0 before client 1 at t=0, and a stage completion
    scheduled earlier beats one scheduled later.  Each resource is a
    single FIFO server implemented as a high-water ``free_at`` clock:
    because events are processed in non-decreasing time order, reserving
    ``start = max(now, free_at)`` *is* first-come-first-served.
    """

    def __init__(
        self,
        demands: list[TxnDemand],
        n_clients: int,
        think_time_seconds: float = 0.0,
        max_inflight: int | None = None,
    ) -> None:
        if n_clients < 1:
            raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
        if think_time_seconds < 0.0:
            raise ConfigError("think time must be >= 0")
        if max_inflight is not None and max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1 when set")
        self.demands = list(demands)
        self.n_clients = n_clients
        self.think_time = think_time_seconds
        self.max_inflight = max_inflight
        # -- outputs -------------------------------------------------------
        self.histogram = Histogram(
            "service.txn.latency.seconds", SERVICE_LATENCY_BUCKETS
        )
        self.latency_max = 0.0
        self.completion_time = 0.0
        self.completed = 0
        self.committed = 0
        self.neworder_commits = 0
        self.busy: dict[str, float] = {}
        self.wait_total: dict[str, float] = {}
        self.visits: dict[str, int] = {}
        self.admission_wait_total = 0.0

    def run(self) -> "ServiceSimulation":
        """Drive the simulation to completion; returns ``self`` (chained)."""
        obs_latency = obs_completed = None
        if OBS.enabled:
            obs_latency = OBS.histogram(
                "service.txn.latency.seconds", SERVICE_LATENCY_BUCKETS
            )
            obs_completed = OBS.counter("service.txn.completed")
            OBS.gauge("service.clients").set(self.n_clients)

        free_at: dict[str, float] = {}
        heap: list[tuple[float, int, int, object]] = []
        seq = 0
        cursor = 0  # next demand to hand out
        inflight = 0
        gate: list[tuple[float, int]] = []  # FIFO of (submit_time, client)

        # Event payloads: ("submit", client) — the client is ready to
        # submit; ("stage", txn_state) — a txn finished one resource stage.
        # txn_state = [demand, stage_index, submit_time].
        def push(time: float, kind: int, payload: object) -> None:
            nonlocal seq
            heapq.heappush(heap, (time, seq, kind, payload))
            seq += 1

        _SUBMIT, _STAGE = 0, 1

        def begin_stage(now: float, txn: list) -> None:
            demand: TxnDemand = txn[0]
            resource, seconds = demand.stages[txn[1]]
            start = max(now, free_at.get(resource, 0.0))
            free_at[resource] = start + seconds
            self.busy[resource] = self.busy.get(resource, 0.0) + seconds
            self.wait_total[resource] = (
                self.wait_total.get(resource, 0.0) + (start - now)
            )
            self.visits[resource] = self.visits.get(resource, 0) + 1
            push(start + seconds, _STAGE, txn)

        def start_txn(now: float, submit_time: float) -> None:
            nonlocal cursor, inflight
            demand = self.demands[cursor]
            cursor += 1
            inflight += 1
            self.admission_wait_total += now - submit_time
            txn = [demand, 0, submit_time]
            if demand.stages:
                begin_stage(now, txn)
            else:  # a zero-demand transaction completes instantly
                push(now, _STAGE, txn)

        for client in range(self.n_clients):
            push(0.0, _SUBMIT, client)

        while heap:
            now, _, kind, payload = heapq.heappop(heap)
            if kind == _SUBMIT:
                if cursor >= len(self.demands):
                    continue  # stream exhausted: the client idles out
                if self.max_inflight is not None and inflight >= self.max_inflight:
                    gate.append((now, payload))
                    continue
                start_txn(now, submit_time=now)
                continue
            txn = payload
            demand: TxnDemand = txn[0]
            if demand.stages and txn[1] + 1 < len(demand.stages):
                txn[1] += 1
                begin_stage(now, txn)
                continue
            # -- transaction complete -------------------------------------
            latency = now - txn[2]
            self.histogram.observe(latency)
            if obs_latency is not None:
                obs_latency.observe(latency)
                obs_completed.inc()
            if latency > self.latency_max:
                self.latency_max = latency
            if now > self.completion_time:
                self.completion_time = now
            self.completed += 1
            inflight -= 1
            if demand.committed:
                self.committed += 1
            if demand.new_order_commit:
                self.neworder_commits += 1
            push(now + self.think_time, _SUBMIT, -1)  # this client thinks
            if gate and cursor < len(self.demands):
                waited_since, _ = gate.pop(0)
                start_txn(now, submit_time=waited_since)
        return self

    def result(
        self,
        name: str = "",
        think_time_ms: float | None = None,
        warmup_transactions: int = 0,
    ) -> ServiceResult:
        """Package the finished run as a picklable :class:`ServiceResult`."""
        wall = self.completion_time
        snapshot = HistogramSnapshot(
            bounds=self.histogram.bounds,
            counts=tuple(self.histogram.counts),
            total=self.histogram.total,
            count=self.histogram.count,
        )
        if OBS.enabled:
            for resource in self.busy:
                OBS.counter(f"service.queue.{resource}.busy_seconds").inc(
                    self.busy[resource]
                )
                OBS.counter(f"service.queue.{resource}.wait_seconds").inc(
                    self.wait_total[resource]
                )
                OBS.counter(f"service.queue.{resource}.visits").inc(
                    self.visits[resource]
                )
        return ServiceResult(
            name=name,
            n_clients=self.n_clients,
            think_time_ms=(
                self.think_time * 1000.0 if think_time_ms is None else think_time_ms
            ),
            transactions=self.completed,
            sim_seconds=wall,
            tpmc=self.neworder_commits * 60.0 / wall if wall > 0 else 0.0,
            tps=self.completed / wall if wall > 0 else 0.0,
            latency=snapshot,
            latency_mean=snapshot.mean,
            latency_max=self.latency_max,
            utilization={
                resource: (busy / wall if wall > 0 else 0.0)
                for resource, busy in sorted(self.busy.items())
            },
            queue_wait_mean={
                resource: self.wait_total[resource] / self.visits[resource]
                for resource in sorted(self.wait_total)
                if self.visits.get(resource)
            },
            max_inflight=self.max_inflight,
            admission_wait_mean=(
                self.admission_wait_total / self.completed if self.completed else 0.0
            ),
            warmup_transactions=warmup_transactions,
        )
