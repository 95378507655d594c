"""Host-time span tracer for the benchmark's traced pass.

Spans are recorded from here, around the calls *into* each layer's public
functions; nothing under ``src/`` is instrumented.  :func:`install` swaps a
timing wrapper in at class (or module) level for the duration of one traced
pass and :meth:`Patches.restore` puts every original back.

Two kinds of span:

* **cell / phase spans** — one root span per cell (id = the cell key) with
  ``load`` / ``warmup`` / ``measure`` / ``restart`` children.  Each is kept
  as a record with ``name``, ``start``, ``end`` and ``parent``.
* **call spans** — one per wrapped call.  A transaction makes a few hundred
  of them, so they are not kept individually: they are aggregated in memory
  per ``(cell, phase, label)`` as ``calls`` / ``total`` / ``self``, where a
  label is ``<layer>.<function>`` (``buffer.lookup``, ``store.mmap.put``)
  and a layer's figure is the sum over its labels.

A span's *self time* is its duration minus the part of it covered by the
spans it caused (its children); summing self times over layers therefore
partitions a phase's wall time without double counting.  The part of a
phase no call span covers is booked to the pseudo-layer :data:`UNCOVERED`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from importlib import import_module
from typing import Any, Callable, Iterator

#: Pseudo-layer holding the part of a phase outside every call span: the
#: driving loop and scenario glue in this directory and in ``repro.sim``.
UNCOVERED = "runner"

#: Labels whose individual durations are kept (they are
#: called a handful of times per cell and reported as medians).
KEEP_DURATIONS = frozenset(
    {"core.checkpoint", "warmstate.fork_dbms", "recovery.restart", "flashcache.recover"}
)


class Tracer:
    """In-memory span store; written out once, when the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Cell and phase span records, in start order.
        self.spans: list[dict[str, Any]] = []
        #: ``(cell, phase) -> {label: [calls, total_s, self_s]}``.
        self.layers: dict[tuple[str, str], dict[str, list]] = {}
        #: ``(cell, label) -> [seconds, ...]`` for :data:`KEEP_DURATIONS`.
        self.durations: dict[tuple[str, str], list[float]] = {}
        self._children: list[float] = []  # child time of each open span
        self._current: dict[str, list] | None = None
        self._cell: dict[str, Any] | None = None

    # -- cell and phase spans ---------------------------------------------

    @contextmanager
    def cell(self, key: str) -> Iterator[None]:
        """Root span of one cell; ``key`` is the span id its phases share."""
        span = {"id": key, "name": "cell", "parent": None,
                "start": self.clock(), "end": None}
        self.spans.append(span)
        self._cell = span
        try:
            yield
        finally:
            span["end"] = self.clock()
            self._cell = None

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """One phase of the open cell; call spans inside it aggregate here."""
        if self._cell is None:
            raise RuntimeError("phase() outside cell()")
        cell = self._cell["id"]
        span = {"id": cell, "name": name, "parent": "cell",
                "start": self.clock(), "end": None}
        self.spans.append(span)
        self._current = self.layers.setdefault((cell, name), {})
        self._children.append(0.0)
        try:
            yield
        finally:
            span["end"] = self.clock()
            covered = self._children.pop()
            stat = self._current.setdefault(UNCOVERED, [0, 0.0, 0.0])
            wall = span["end"] - span["start"]
            stat[0] += 1
            stat[1] += wall
            stat[2] += wall - covered
            self._current = None

    # -- call spans ---------------------------------------------------------

    def wrap(self, label: str, fn: Callable) -> Callable:
        """Return ``fn`` timed as one call span aggregated under ``label``."""
        children = self._children
        clock = self.clock
        keep = label in KEEP_DURATIONS

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = children.pop()
                if children:
                    children[-1] += elapsed
                current = self._current
                if current is not None:
                    stat = current.get(label)
                    if stat is None:
                        stat = current[label] = [0, 0.0, 0.0]
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - covered
                    if keep:
                        self.durations.setdefault(
                            (self._cell["id"], label), []
                        ).append(elapsed)

        traced.__wrapped__ = fn
        return traced

    # -- reading ------------------------------------------------------------

    def _matching(self, cell: str, prefix: str, phases: tuple[str, ...] | None):
        for (c, phase), stats in self.layers.items():
            if c != cell or (phases is not None and phase not in phases):
                continue
            for label, stat in stats.items():
                if label == prefix or label.startswith(prefix + "."):
                    yield stat

    def self_seconds(self, cell: str, prefix: str, phases: tuple[str, ...] | None = None) -> float:
        """Self time in ``cell`` of the layer (or single label) ``prefix``,
        summed over ``phases`` (default: all)."""
        return sum(stat[2] for stat in self._matching(cell, prefix, phases))

    def calls(self, cell: str, prefix: str, phases: tuple[str, ...] | None = None) -> int:
        return sum(stat[0] for stat in self._matching(cell, prefix, phases))

    def phase_wall(self, cell: str, phase: str) -> float:
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["id"] == cell and span["name"] == phase
        )

    def coverage(self, cell: str) -> float:
        """Share of the cell's phase wall time some layer span accounts for."""
        wall = covered = 0.0
        for (c, _phase), stats in self.layers.items():
            if c != cell:
                continue
            for label, (_calls, total, self_s) in stats.items():
                if label == UNCOVERED:
                    wall += total
                else:
                    covered += self_s
        return covered / wall if wall > 0 else 0.0

    def to_json(self) -> dict[str, Any]:
        """The trace file's content: phase spans plus per-layer aggregates."""
        return {
            "spans": self.spans,
            "layers": [
                {"cell": cell, "phase": phase, "label": label,
                 "calls": calls, "total_s": total, "self_s": self_s}
                for (cell, phase), stats in self.layers.items()
                for label, (calls, total, self_s) in sorted(stats.items())
            ],
        }


class Patches:
    """Attribute swaps that can all be undone."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


def targets() -> list[tuple[str, Any, str]]:
    """Every ``(layer, owner, attribute)`` the traced pass wraps.

    Methods are wrapped on each class that *defines* them (a subclass
    override would otherwise bypass the wrapper); module-level functions
    are wrapped in the namespace their callers look them up in.
    """
    from repro.buffer.pool import BufferPool
    from repro.core.dbms import SimulatedDBMS
    from repro.flashcache import registry as _policies  # noqa: F401 - loads every policy class
    from repro.flashcache.base import FlashCacheBase
    from repro.recovery.restart import RecoveryManager
    from repro.storage import persistent
    from repro.storage.device import Device
    from repro.storage.volume import Volume
    from repro.tpcc.driver import TpccDriver
    from repro.wal.log import LogManager
    from repro.workload.ycsb import YcsbDriver

    # ``repro.sim`` re-exports a function named ``replay``; ask for the
    # submodules by their full names.
    replay, runner, service = (
        import_module(f"repro.sim.{name}") for name in ("replay", "runner", "service")
    )

    methods: list[tuple[str, type, tuple[str, ...], bool]] = [
        ("workload", TpccDriver, ("run_one",), False),
        ("workload", YcsbDriver, ("run_one",), False),
        ("core", SimulatedDBMS,
         ("read_page", "update_slot_tx", "begin", "commit", "abort", "checkpoint"), False),
        ("buffer", BufferPool, ("lookup", "admit", "make_room", "pull_tail"), False),
        ("flashcache", FlashCacheBase,
         ("lookup_fetch", "on_dram_evict", "on_fetch_from_disk", "checkpoint_frame",
          "finish_checkpoint", "recover"), True),
        ("device", Volume,
         ("read_page", "write_page", "read_batch", "write_batch", "peek"), False),
        ("device", Device, ("read", "write"), True),
        ("store.mmap", persistent.MmapPageStore, ("put", "get", "peek", "delete"), False),
        ("store.sqlite", persistent.SqlitePageStore, ("put", "get", "peek", "delete"), False),
        ("wal", LogManager,
         ("log_begin", "log_update", "log_update_sized", "log_abort", "log_checkpoint",
          "commit", "force", "force_up_to"), False),
        ("recovery", RecoveryManager, ("restart",), False),
        ("replay", replay.ReplayRunner, ("warm_up", "measure", "step"), False),
        ("service", service.ServiceSimulation, ("run",), False),
    ]
    found: list[tuple[str, Any, str]] = []
    for layer, cls, names, subclasses in methods:
        for owner in _with_subclasses(cls) if subclasses else [cls]:
            found.extend(
                (layer, owner, name)
                for name in names
                if name in vars(owner)
                and not getattr(vars(owner)[name], "__isabstractmethod__", False)
            )
    found += [
        ("codec", persistent, "encode_storable"),
        ("codec", persistent, "decode_storable"),
        ("workload", runner, "load_workload"),
        ("warmstate", replay, "fork_dbms"),
        ("warmstate", replay, "fork_database"),
        ("service", service, "record_demands"),
    ]
    return found


def install(tracer: Tracer) -> Patches:
    """Wrap every target; the caller restores in a ``finally``."""
    patches = Patches()
    try:
        for layer, owner, name in targets():
            patches.set(owner, name, tracer.wrap(f"{layer}.{name}", vars(owner)[name]))
    except BaseException:
        patches.restore()
        raise
    return patches
