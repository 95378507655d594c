"""Flash-cache policies: FaCE (mvFIFO / GR / GSC) and all baselines.

Every policy the paper compares, behind one interface
(:class:`~repro.flashcache.base.FlashCacheBase`): the FaCE family —
multi-version FIFO (:mod:`~repro.flashcache.mvfifo`, Algorithm 1) with the
Group Replacement and Group Second Chance batching of Section 3.3
(:mod:`~repro.flashcache.group`) and persistent metadata segments for
recovery (:mod:`~repro.flashcache.metadata`, Section 4.1) — plus the
baselines: Lazy Cleaning (:mod:`~repro.flashcache.lc`), TAC
(:mod:`~repro.flashcache.tac`), an Exadata-style read cache, and the
no-cache null policy.  The DBMS never knows which one it is running.
"""

from repro.flashcache.base import CacheStats, FlashCacheBase, RecoveryTimings
from repro.flashcache.directory import FifoDirectory, SlotMeta
from repro.flashcache.exadata import ExadataStyleCache
from repro.flashcache.group import GroupReplacementCache, GroupSecondChanceCache
from repro.flashcache.lc import LazyCleaningCache
from repro.flashcache.lru2 import Lru2Policy
from repro.flashcache.metadata import (
    ENTRY_BYTES,
    CacheSlotImage,
    MetadataManager,
    build_metadata_region,
)
from repro.flashcache.mvfifo import MvFifoCache
from repro.flashcache.null import NullFlashCache
from repro.flashcache.registry import (
    available_policies,
    build_cache_from_config,
    resolve_policy,
)
from repro.flashcache.tac import TacCache

__all__ = [
    "CacheSlotImage",
    "CacheStats",
    "ENTRY_BYTES",
    "ExadataStyleCache",
    "FifoDirectory",
    "FlashCacheBase",
    "GroupReplacementCache",
    "GroupSecondChanceCache",
    "LazyCleaningCache",
    "Lru2Policy",
    "MetadataManager",
    "MvFifoCache",
    "NullFlashCache",
    "RecoveryTimings",
    "SlotMeta",
    "TacCache",
    "available_policies",
    "build_cache_from_config",
    "build_metadata_region",
    "resolve_policy",
]
