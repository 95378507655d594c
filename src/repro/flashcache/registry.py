"""Policy registry: every flash-cache strategy, built from a ``SystemConfig``.

Each :class:`~repro.core.config.CachePolicy` maps to its cache class here
and to its builder in :mod:`repro.flashcache.builders` (which also holds
the policy names and the knobs each builder reads).  That is the only way a
cache is built: :mod:`repro.core.policies` builds the devices and volumes,
:func:`build_cache_from_config` the cache on top of them.  Importing this
module loads every policy class.

* :func:`policy_class` — the class a policy builds (its ``name`` is the
  policy's display name);
* :func:`build_cache_from_config` — the live cache for one system.
"""

from __future__ import annotations

from repro.core.config import CachePolicy, SystemConfig
from repro.errors import ConfigError
from repro.flashcache.base import FlashCacheBase
from repro.flashcache.builders import BUILDERS
from repro.flashcache.exadata import ExadataStyleCache
from repro.flashcache.group import GroupReplacementCache, GroupSecondChanceCache
from repro.flashcache.lc import LazyCleaningCache
from repro.flashcache.mvfifo import MvFifoCache
from repro.flashcache.null import NullFlashCache, SsdOnlyCache
from repro.flashcache.tac import TacCache
from repro.storage.volume import Volume

#: Policy -> the class its builder is handed.
_CLASSES: dict[CachePolicy, type[FlashCacheBase]] = {
    CachePolicy.NONE: NullFlashCache,
    CachePolicy.SSD_ONLY: SsdOnlyCache,
    CachePolicy.FACE: MvFifoCache,
    CachePolicy.FACE_GR: GroupReplacementCache,
    CachePolicy.FACE_GSC: GroupSecondChanceCache,
    CachePolicy.LC: LazyCleaningCache,
    CachePolicy.TAC: TacCache,
    CachePolicy.EXADATA: ExadataStyleCache,
}


def policy_class(policy: CachePolicy) -> type[FlashCacheBase]:
    """The cache class ``policy`` builds."""
    return _CLASSES[policy]


def build_cache_from_config(
    config: SystemConfig, flash: Volume | None, disk: Volume
) -> FlashCacheBase:
    """The live cache ``config`` describes, on the given volumes."""
    if config.cache_policy.uses_flash and flash is None:
        raise ConfigError(
            f"policy {config.cache_policy.value!r} requires a flash volume"
        )
    policy = config.cache_policy
    return BUILDERS[policy](_CLASSES[policy], config, flash, disk)
