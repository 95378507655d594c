"""One frozen description of one experiment: :class:`ExperimentConfig`.

Before this module, "what does this cell run?" was a knob soup smeared
across three layers: :class:`~repro.core.config.SystemConfig` overrides
built by ad-hoc factories, per-cell protocol fields (measure/warm-up
counts, checkpoint cadence, obs collection), and CLI flags mapping onto
both.  :class:`ExperimentConfig` unifies them into a
single frozen dataclass covering *everything* that defines an experiment —
workload (scale, seed), system (policy name, size fractions, policy knobs),
and measurement protocol — with one deriver:

    base = ExperimentConfig(scale=TINY, policy="face+gsc")
    cell = base.with_(scan_depth=128, cache_fraction=0.08)

``with_`` validates field names (a typo'd knob raises instead of silently
doing nothing) and returns a new frozen instance, so a whole ablation grid
is just ``base.with_(axis=value)`` per cell.  The lowering to the older
layers is explicit: :meth:`ExperimentConfig.system_config` builds the
:class:`SystemConfig` (resolving the policy name through
:mod:`repro.flashcache.registry`), and
:meth:`~repro.sim.parallel.CellSpec.from_config` lowers the whole thing to
a picklable sweep cell carrying :meth:`ExperimentConfig.build_scenario` as
its run protocol.  Every CLI subcommand builds one of these from its flags.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

from repro.core.config import SystemConfig, scaled_reference_config
from repro.errors import ConfigError
from repro.flashcache.registry import resolve_policy
from repro.tpcc.scale import TINY, ScaleProfile
from repro.workload.registry import (
    WorkloadSpec,
    estimate_workload_pages,
    workload_spec as _resolve_workload,
)

#: Fields forwarded verbatim as :class:`SystemConfig` overrides.
_SYSTEM_FIELDS = (
    "buffer_policy",
    "scan_depth",
    "face_cache_clean",
    "face_write_through",
    "lc_dirty_threshold",
    "tac_extent_pages",
    "tac_admit_threshold",
    "ssd_only",
    "page_store",
    "label",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines one steady-state experiment, in one place."""

    # -- workload ------------------------------------------------------------
    scale: ScaleProfile = TINY
    seed: int = 42
    #: Workload, by registry name (see
    #: :func:`repro.workload.registry.available_workloads`).
    workload: str = "tpcc"
    #: Workload knob overrides — accepted as any mapping (or ``(name,
    #: value)`` pairs) at construction, canonicalised by ``__post_init__``
    #: into the sorted non-default tuple a :class:`WorkloadSpec` carries,
    #: so equal experiments hash and compare equal.  Unknown names raise
    #: :class:`~repro.errors.WorkloadError` at config time.
    workload_knobs: tuple = ()

    # -- system under test ---------------------------------------------------
    #: Flash-cache policy, by registry name (see
    #: :func:`repro.flashcache.registry.available_policies`).
    policy: str = "face+gsc"
    cache_fraction: float = 0.12
    buffer_fraction: float = 0.004
    buffer_policy: str = "lru"
    scan_depth: int = 64
    face_cache_clean: bool = True
    face_write_through: bool = False
    lc_dirty_threshold: float = 0.9
    tac_extent_pages: int = 32
    tac_admit_threshold: int = 2
    ssd_only: bool = False
    #: Page-store backend holding the simulated bytes (see
    #: :func:`repro.storage.registry.available_backends`).  Any backend
    #: yields bit-identical results; persistent ones trade Python-side
    #: speed for out-of-core scale.
    page_store: str = "memory"
    label: str = ""

    # -- measurement protocol ------------------------------------------------
    measure_transactions: int = 2000
    warmup_min: int = 500
    warmup_max: int = 15_000
    checkpoint_interval: float | None = None
    collect_obs: bool = False

    # -- recovery protocol (scenario="crash", Section 5.5 / Table 6) ---------
    #: Which run protocol this experiment uses: ``"steady"`` measures
    #: steady-state throughput, ``"crash"`` runs the Section 5.5 crash /
    #: restart schedule (requires ``checkpoint_interval``).
    scenario: str = "steady"
    #: Where in a checkpoint interval the kill lands (paper: the mid-point).
    crash_point: float = 0.5
    #: Safety bound on the crash schedule; exhausting it raises.
    crash_max_transactions: int = 60_000
    #: Override the flash cache's metadata-checkpoint segment size
    #: (``SystemConfig.segment_entries``); ``None`` keeps the scaled
    #: default.  Smaller segments checkpoint mapping metadata more often —
    #: a recovery-side knob, hence the ``ckpt_`` prefix.
    ckpt_segment_entries: int | None = None

    # -- service protocol (scenario="service", closed-loop clients) ----------
    #: Closed-loop client count for ``scenario="service"`` (the paper's
    #: reference setup runs 50).  Ignored by steady/crash scenarios.
    n_clients: int = 50
    #: Per-client think time between transactions, in milliseconds.
    think_time_ms: float = 0.0
    #: Admission-control cap on concurrently executing transactions;
    #: ``None`` admits every client immediately.
    max_inflight: int | None = None

    def __post_init__(self) -> None:
        resolve_policy(self.policy)  # fail fast on unknown names
        knobs = self.workload_knobs
        if isinstance(knobs, Mapping):
            knobs = tuple(knobs.items())
        # Canonicalise through the registry: validates the workload name
        # and every knob (WorkloadError on either), drops default-valued
        # overrides, sorts the rest.
        spec = _resolve_workload(self.workload, dict(knobs))
        object.__setattr__(self, "workload_knobs", spec.knobs)
        if self.measure_transactions < 1:
            raise ConfigError("measure_transactions must be >= 1")
        if not 0.0 < self.cache_fraction <= 1.0:
            raise ConfigError("cache_fraction must be within (0, 1]")
        if self.scan_depth < 1:
            raise ConfigError(f"scan_depth must be >= 1, got {self.scan_depth}")
        if self.scenario not in ("steady", "crash", "service"):
            raise ConfigError(
                f"scenario must be 'steady', 'crash' or 'service', "
                f"got {self.scenario!r}"
            )
        if self.n_clients < 1:
            raise ConfigError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.think_time_ms < 0.0:
            raise ConfigError("think_time_ms must be >= 0")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1 when set")
        if self.scenario == "crash" and self.checkpoint_interval is None:
            raise ConfigError(
                "a crash experiment needs a checkpoint_interval "
                "(the Section 5.5 schedule is defined by its cadence)"
            )
        if not 0.0 < self.crash_point < 1.0:
            raise ConfigError("crash_point must be within (0, 1)")
        if self.crash_max_transactions < 1:
            raise ConfigError("crash_max_transactions must be >= 1")
        if self.ckpt_segment_entries is not None and self.ckpt_segment_entries < 1:
            raise ConfigError("ckpt_segment_entries must be >= 1 when set")

    def with_(self, **overrides) -> "ExperimentConfig":
        """Return a derived config; unknown field names raise.

        This is the grid deriver: ``base.with_(scan_depth=128)`` is one
        grid cell.  ``dataclasses.replace`` would raise a ``TypeError`` on
        unknown names; converting to :class:`ConfigError` keeps knob typos
        in the same error family as every other configuration mistake.
        """
        known = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ConfigError(
                f"unknown experiment field(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return dataclasses.replace(self, **overrides)

    def workload_spec(self) -> WorkloadSpec:
        """The canonical :class:`WorkloadSpec` this experiment drives."""
        return _resolve_workload(self.workload, dict(self.workload_knobs))

    def system_config(self) -> SystemConfig:
        """Lower to the :class:`SystemConfig` this experiment runs on."""
        config = scaled_reference_config(
            estimate_workload_pages(self.workload_spec(), self.scale),
            cache_fraction=self.cache_fraction,
            buffer_fraction=self.buffer_fraction,
            policy=resolve_policy(self.policy),
            **{name: getattr(self, name) for name in _SYSTEM_FIELDS},
        )
        if self.ckpt_segment_entries is not None:
            # ``scaled_reference_config`` already passes its scaled
            # ``segment_entries``; replace after the fact rather than
            # colliding with that keyword.
            config = dataclasses.replace(
                config, segment_entries=self.ckpt_segment_entries
            )
        return config

    def build_scenario(self):
        """The run protocol this experiment describes (see
        :mod:`repro.sim.scenario`)."""
        from repro.sim.scenario import (
            CrashRecoveryScenario,
            ServiceScenario,
            SteadyStateScenario,
        )

        if self.scenario == "crash":
            return CrashRecoveryScenario(
                checkpoint_interval=self.checkpoint_interval,
                crash_point=self.crash_point,
                max_transactions=self.crash_max_transactions,
                warmup_min=self.warmup_min,
                warmup_max=self.warmup_max,
            )
        if self.scenario == "service":
            return ServiceScenario(
                n_clients=self.n_clients,
                think_time_ms=self.think_time_ms,
                measure_transactions=self.measure_transactions,
                max_inflight=self.max_inflight,
                warmup_min=self.warmup_min,
                warmup_max=self.warmup_max,
                checkpoint_interval=self.checkpoint_interval,
            )
        return SteadyStateScenario(
            measure_transactions=self.measure_transactions,
            warmup_min=self.warmup_min,
            warmup_max=self.warmup_max,
            checkpoint_interval=self.checkpoint_interval,
        )

    def describe(self) -> str:
        """Compact non-default summary, for table captions and JSON records."""
        defaults = ExperimentConfig(scale=self.scale)
        diffs = []
        spec = self.workload_spec()
        if spec.token != defaults.workload:
            # Workload name and knobs collapse to the spec's compact token
            # (e.g. ``ycsb[update_fraction=0.9]``) instead of two raw
            # dataclass fields.
            diffs.append(f"workload={spec.token!r}")
        diffs += [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if f.name not in ("scale", "workload", "workload_knobs")
            and getattr(self, f.name) != getattr(defaults, f.name)
        ]
        return ", ".join(diffs) if diffs else "(reference configuration)"
