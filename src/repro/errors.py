"""Exception hierarchy for the FaCE reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class OutOfRangeError(StorageError):
    """An I/O request addressed a block outside the device's capacity."""


class PageNotFoundError(StorageError):
    """A page image was requested from a store that does not hold it."""


class BufferError_(ReproError):
    """Base class for buffer-pool failures (trailing underscore avoids
    shadowing the ``BufferError`` builtin)."""


class BufferFullError(BufferError_):
    """Every frame in the buffer pool is pinned; no victim can be chosen."""


class UnpinnedFrameError(BufferError_):
    """A frame was unpinned more often than it was pinned."""


class CacheError(ReproError):
    """Base class for flash-cache failures."""


class CacheMissError(CacheError):
    """A page was fetched from the flash cache but no valid copy exists."""


class WALError(ReproError):
    """Base class for write-ahead-log failures."""


class RecoveryError(ReproError):
    """The restart sequence could not restore a consistent database."""


class TransactionError(ReproError):
    """A transaction was used incorrectly (e.g. update after commit)."""


class CatalogError(ReproError):
    """A table lookup or page allocation in the catalog failed."""


class WorkloadError(ReproError):
    """A workload generator was configured or driven incorrectly."""


class ConfigError(ReproError):
    """A system configuration is inconsistent or out of range."""


class TraceCodecError(ReproError):
    """A compressed boundary trace is malformed, truncated or corrupt."""


class SharedTraceExhausted(ReproError):
    """A replay needed more transactions than its shared trace holds.

    Raised by the read-only shared-memory trace recorder (a published
    segment cannot extend); the sweep engine catches it and re-replays the
    cell against the parent's live recorder.
    """
