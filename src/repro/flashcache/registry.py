"""Policy registry: every flash-cache strategy, built from a ``SystemConfig``.

Each :class:`~repro.core.config.CachePolicy` maps to its cache class and
one builder that reads the policy's knobs off the
:class:`~repro.core.config.SystemConfig` and calls the class.  That is the
only way a cache is built: :mod:`repro.core.policies` builds the devices
and volumes, :func:`build_cache_from_config` the cache on top of them.

* :func:`available_policies` — the canonical policy names, in the paper's
  comparison order (what ``crash --policy`` offers and what a grid sweeps
  as ``ExperimentConfig.policy``);
* :func:`resolve_policy` — name -> :class:`CachePolicy`, raising
  :class:`~repro.errors.ConfigError` naming the known set;
* :func:`policy_class` — the class a policy builds (its ``name`` is the
  policy's display name);
* :func:`policy_knobs` — which of :data:`POLICY_KNOBS` its builder reads;
* :func:`build_cache_from_config` — the live cache for one system.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import CachePolicy, SystemConfig
from repro.errors import ConfigError
from repro.flashcache.base import FlashCacheBase
from repro.flashcache.exadata import ExadataStyleCache
from repro.flashcache.group import GroupReplacementCache, GroupSecondChanceCache
from repro.flashcache.lc import LazyCleaningCache, Lru2Cache
from repro.flashcache.mvfifo import MvFifoCache
from repro.flashcache.null import NullFlashCache, SsdOnlyCache
from repro.flashcache.tac import TacCache
from repro.storage.volume import Volume


def _build_null(cls, config: SystemConfig, flash, disk):
    return cls(disk)


def _build_face(cls, config: SystemConfig, flash, disk):
    return cls(
        flash, disk, config.cache_pages, config.segment_entries,
        cache_clean=config.face_cache_clean,
        write_through=config.face_write_through,
    )


def _build_group(cls, config: SystemConfig, flash, disk):
    return cls(
        flash, disk, config.cache_pages, config.segment_entries, config.scan_depth,
        cache_clean=config.face_cache_clean,
        write_through=config.face_write_through,
    )


def _build_baseline(cls, config: SystemConfig, flash, disk):
    # LC, LRU-2, TAC and Exadata run at the paper's fixed settings.
    return cls(flash, disk, config.cache_pages)


#: Policy -> (class, builder), in the paper's comparison order (Table 2).
_REGISTRY: dict[CachePolicy, tuple[type[FlashCacheBase], Callable]] = {
    CachePolicy.NONE: (NullFlashCache, _build_null),
    CachePolicy.SSD_ONLY: (SsdOnlyCache, _build_null),
    CachePolicy.FACE: (MvFifoCache, _build_face),
    CachePolicy.FACE_GR: (GroupReplacementCache, _build_group),
    CachePolicy.FACE_GSC: (GroupSecondChanceCache, _build_group),
    CachePolicy.LC: (LazyCleaningCache, _build_baseline),
    CachePolicy.LRU2: (Lru2Cache, _build_baseline),
    CachePolicy.TAC: (TacCache, _build_baseline),
    CachePolicy.EXADATA: (ExadataStyleCache, _build_baseline),
}


#: The policy knobs of an experiment: each builder reads some of them, and
#: a value set on a policy whose builder does not read it would be inert.
#: ``cache_fraction`` is read as the ``cache_pages`` it sizes.
POLICY_KNOBS = ("cache_fraction", "scan_depth", "face_cache_clean", "face_write_through")
_KNOB_OF = {"cache_pages": "cache_fraction"}


class _ReadRecorder:
    """A stand-in config that records the attributes a builder reads."""

    def __init__(self) -> None:
        self.read: set[str] = set()

    def __getattr__(self, name: str) -> None:
        self.read.add(name)


def _knobs_read(build: Callable) -> frozenset[str]:
    config = _ReadRecorder()
    build(lambda *args, **kwargs: None, config, None, None)
    read = {_KNOB_OF.get(name, name) for name in config.read}
    return frozenset(read.intersection(POLICY_KNOBS))


#: Policy -> the ``POLICY_KNOBS`` its builder reads, recorded from the
#: builder itself so the two cannot drift.
_KNOBS_READ = {policy: _knobs_read(build) for policy, (_, build) in _REGISTRY.items()}


def policy_knobs(policy: CachePolicy) -> frozenset[str]:
    """The :data:`POLICY_KNOBS` that ``policy``'s builder reads."""
    return _KNOBS_READ[policy]


def available_policies() -> tuple[str, ...]:
    """Canonical policy names, in the paper's comparison order."""
    return tuple(policy.value for policy in _REGISTRY)


def resolve_policy(name: str | CachePolicy) -> CachePolicy:
    """Name (or enum, passed through) -> :class:`CachePolicy` member."""
    if isinstance(name, CachePolicy):
        return name
    try:
        return CachePolicy(name)
    except ValueError:
        known = ", ".join(available_policies())
        raise ConfigError(
            f"unknown flash-cache policy {name!r} (available: {known})"
        ) from None


def policy_class(policy: CachePolicy) -> type[FlashCacheBase]:
    """The cache class ``policy`` builds."""
    return _REGISTRY[policy][0]


def build_cache_from_config(
    config: SystemConfig, flash: Volume | None, disk: Volume
) -> FlashCacheBase:
    """The live cache ``config`` describes, on the given volumes."""
    if config.cache_policy.uses_flash and flash is None:
        raise ConfigError(
            f"policy {config.cache_policy.value!r} requires a flash volume"
        )
    cls, build = _REGISTRY[config.cache_policy]
    return build(cls, config, flash, disk)
