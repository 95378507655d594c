"""Policy names, builders and knobs: the half of the policy registry a grid
is declared with.

Each :class:`~repro.core.config.CachePolicy` has one builder that reads the
policy's knobs off a :class:`~repro.core.config.SystemConfig` and calls the
cache class it is handed.  The builders name no class, so this module loads
no cache code: a grid can name, resolve and validate policies without the
engine.  :mod:`repro.flashcache.registry` pairs each policy with its class
and builds the live cache.

* :func:`available_policies` — the canonical policy names, in the paper's
  comparison order (what ``crash --policy`` offers and what a grid sweeps
  as ``ExperimentConfig.policy``);
* :func:`resolve_policy` — name -> :class:`CachePolicy`, raising
  :class:`~repro.errors.ConfigError` naming the known set;
* :func:`policy_knobs` — which of :data:`POLICY_KNOBS` its builder reads.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import CachePolicy, SystemConfig
from repro.errors import ConfigError


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
    # LC, TAC and Exadata run at the paper's fixed settings.
    return cls(flash, disk, config.cache_pages)


#: Policy -> builder, in the paper's comparison order (Table 2).
BUILDERS: dict[CachePolicy, Callable] = {
    CachePolicy.NONE: _build_null,
    CachePolicy.SSD_ONLY: _build_null,
    CachePolicy.FACE: _build_face,
    CachePolicy.FACE_GR: _build_group,
    CachePolicy.FACE_GSC: _build_group,
    CachePolicy.LC: _build_baseline,
    CachePolicy.TAC: _build_baseline,
    CachePolicy.EXADATA: _build_baseline,
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
_KNOBS_READ = {policy: _knobs_read(build) for policy, build in BUILDERS.items()}


def policy_knobs(policy: CachePolicy) -> frozenset[str]:
    """The :data:`POLICY_KNOBS` that ``policy``'s builder reads."""
    return _KNOBS_READ[policy]


def available_policies() -> tuple[str, ...]:
    """Canonical policy names, in the paper's comparison order."""
    return tuple(policy.value for policy in BUILDERS)


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
