"""Policy registry: one named catalogue of every flash-cache strategy.

Before this module existed, flash-cache construction was spread across the
config factory, the CLI's name->enum table and each benchmark harness's own
mapping.  The registry replaces those with a
single declarative catalogue: every policy the paper compares is one
:class:`PolicyEntry` naming its constructor, the knobs it accepts, and the
:class:`~repro.core.config.SystemConfig` field each knob reads from.

Three entry points:

* :func:`available_policies` — the canonical policy names, in the paper's
  comparison order (this is what the CLI offers as choices and what a
  grid sweeps as ``ExperimentConfig.policy``);
* :func:`make_policy` — ``make_policy(name, flash, disk, cache_pages,
  **knobs)`` builds a live cache instance, validating the knobs against the
  entry (unknown knobs raise :class:`~repro.errors.ConfigError` naming the
  accepted set);
* :func:`build_cache_from_config` — the config-driven path used by the
  DBMS factory: reads each registered knob from its ``SystemConfig`` field
  and delegates to :func:`make_policy`.  :mod:`repro.core.policies` builds
  only the devices and volumes; the cache itself always comes from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.config import CachePolicy, SystemConfig
from repro.errors import ConfigError
from repro.flashcache.base import FlashCacheBase
from repro.flashcache.exadata import ExadataStyleCache
from repro.flashcache.group import GroupReplacementCache, GroupSecondChanceCache
from repro.flashcache.lc import LazyCleaningCache, Lru2Cache
from repro.flashcache.mvfifo import MvFifoCache
from repro.flashcache.null import NullFlashCache
from repro.flashcache.tac import TacCache
from repro.storage.volume import Volume


@dataclass(frozen=True)
class PolicyEntry:
    """One registered flash-cache policy.

    ``knobs`` maps each accepted keyword of ``factory`` to the
    :class:`SystemConfig` field it defaults from, which is what lets the
    config-driven and keyword-driven construction paths stay equivalent.
    """

    name: str
    policy: CachePolicy
    factory: Callable[..., FlashCacheBase]
    knobs: Mapping[str, str]
    description: str

    def config_knobs(self, config: SystemConfig) -> dict[str, object]:
        """Read this entry's knob values out of a :class:`SystemConfig`."""
        return {knob: getattr(config, field) for knob, field in self.knobs.items()}


_FACE_KNOBS = {
    "segment_entries": "segment_entries",
    "cache_clean": "face_cache_clean",
    "write_through": "face_write_through",
}
_GROUP_KNOBS = {**_FACE_KNOBS, "scan_depth": "scan_depth"}


def _make_face(flash, disk, cache_pages, *, segment_entries, **face):
    return MvFifoCache(flash, disk, cache_pages, segment_entries, **face)


def _make_gr(flash, disk, cache_pages, *, segment_entries, scan_depth, **face):
    return GroupReplacementCache(
        flash, disk, cache_pages, segment_entries, scan_depth, **face
    )


def _make_gsc(flash, disk, cache_pages, *, segment_entries, scan_depth, **face):
    return GroupSecondChanceCache(
        flash, disk, cache_pages, segment_entries, scan_depth, **face
    )


def _make_lc(flash, disk, cache_pages, *, dirty_threshold):
    return LazyCleaningCache(flash, disk, cache_pages, dirty_threshold)


def _make_lru2(flash, disk, cache_pages):
    return Lru2Cache(flash, disk, cache_pages)


def _make_tac(flash, disk, cache_pages, *, extent_pages, admit_threshold):
    return TacCache(flash, disk, cache_pages, extent_pages, admit_threshold)


def _make_exadata(flash, disk, cache_pages):
    return ExadataStyleCache(flash, disk, cache_pages)


def _make_null(flash, disk, cache_pages):
    return NullFlashCache(disk)


#: The catalogue, in the paper's comparison order (Table 2).  Keyed by the
#: canonical name — identical to ``CachePolicy.value`` so names round-trip
#: through configs, CLI flags and grid fields.
_REGISTRY: dict[str, PolicyEntry] = {
    entry.name: entry
    for entry in (
        PolicyEntry(
            name=CachePolicy.NONE.value,
            policy=CachePolicy.NONE,
            factory=_make_null,
            knobs={},
            description="no flash cache; every miss and eviction goes to disk",
        ),
        PolicyEntry(
            name=CachePolicy.FACE.value,
            policy=CachePolicy.FACE,
            factory=_make_face,
            knobs=_FACE_KNOBS,
            description="mvFIFO flash cache with persistent metadata (§3.1)",
        ),
        PolicyEntry(
            name=CachePolicy.FACE_GR.value,
            policy=CachePolicy.FACE_GR,
            factory=_make_gr,
            knobs=_GROUP_KNOBS,
            description="FaCE with Group Replacement batching (§3.3)",
        ),
        PolicyEntry(
            name=CachePolicy.FACE_GSC.value,
            policy=CachePolicy.FACE_GSC,
            factory=_make_gsc,
            knobs=_GROUP_KNOBS,
            description="FaCE with Group Second Chance batching (§3.3)",
        ),
        PolicyEntry(
            name=CachePolicy.LC.value,
            policy=CachePolicy.LC,
            factory=_make_lc,
            knobs={"dirty_threshold": "lc_dirty_threshold"},
            description="Lazy Cleaning: LRU flash cache with a background "
            "cleaner (§5 baseline)",
        ),
        PolicyEntry(
            name=CachePolicy.LRU2.value,
            policy=CachePolicy.LRU2,
            factory=_make_lru2,
            knobs={},
            description="pure LRU-2 flash cache (LC without its lazy "
            "cleaner; §3.3 scan-resistance baseline)",
        ),
        PolicyEntry(
            name=CachePolicy.TAC.value,
            policy=CachePolicy.TAC,
            factory=_make_tac,
            knobs={
                "extent_pages": "tac_extent_pages",
                "admit_threshold": "tac_admit_threshold",
            },
            description="Temperature-Aware Caching: extent-based admission "
            "with per-entry metadata writes (§4.1 baseline)",
        ),
        PolicyEntry(
            name=CachePolicy.EXADATA.value,
            policy=CachePolicy.EXADATA,
            factory=_make_exadata,
            knobs={},
            description="Exadata-style write-through read cache (§5 baseline)",
        ),
    )
}


def available_policies() -> tuple[str, ...]:
    """Canonical policy names, in the paper's comparison order."""
    return tuple(_REGISTRY)


def get_policy_entry(name: str) -> PolicyEntry:
    """Look up one entry; raises :class:`ConfigError` for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_policies())
        raise ConfigError(
            f"unknown flash-cache policy {name!r} (available: {known})"
        ) from None


def resolve_policy(name: str | CachePolicy) -> CachePolicy:
    """Name (or enum, passed through) -> :class:`CachePolicy` member."""
    if isinstance(name, CachePolicy):
        return name
    return get_policy_entry(name).policy


def make_policy(
    name: str | CachePolicy,
    flash: Volume | None,
    disk: Volume,
    cache_pages: int,
    **knobs,
) -> FlashCacheBase:
    """Build a live flash-cache instance by registry name.

    Knobs not supplied default from a reference :class:`SystemConfig`
    (so ``make_policy("face+gsc", flash, disk, 4096)`` works out of the
    box); unknown knobs raise :class:`ConfigError` naming the accepted set.
    """
    entry = get_policy_entry(name if isinstance(name, str) else name.value)
    unknown = sorted(set(knobs) - set(entry.knobs))
    if unknown:
        accepted = ", ".join(sorted(entry.knobs)) or "(none)"
        raise ConfigError(
            f"policy {entry.name!r} does not accept knob(s) "
            f"{', '.join(unknown)} (accepted: {accepted})"
        )
    if entry.policy.uses_flash and flash is None:
        raise ConfigError(f"policy {entry.name!r} requires a flash volume")
    defaults = entry.config_knobs(SystemConfig(cache_policy=entry.policy))
    return entry.factory(flash, disk, cache_pages, **{**defaults, **knobs})


def build_cache_from_config(
    config: SystemConfig, flash: Volume | None, disk: Volume
) -> FlashCacheBase:
    """Config-driven construction: the DBMS factory's path.

    ``ssd_only`` systems run no separate flash cache regardless of the
    configured policy (the database itself lives on the SSD).
    """
    if config.ssd_only:
        return NullFlashCache(disk)
    entry = get_policy_entry(config.cache_policy.value)
    return make_policy(
        entry.name, flash, disk, config.cache_pages, **entry.config_knobs(config)
    )
