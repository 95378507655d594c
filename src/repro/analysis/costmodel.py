"""Section 2.2's cost-effectiveness analysis of a flash cache extension.

The paper models the data hit rate as ``alpha * log(BufferSize)`` (Tsuei et
al.) and derives the break-even flash size ``theta`` that matches the I/O
reduction of growing DRAM by ``delta``::

    1 + theta = (1 + delta) ** (C_disk / (C_disk - C_flash))

With contemporary devices the exponent is barely above 1 (about 1.006 for
reads with the Table 1 Seagate/Samsung pair), so a dollar of flash — ten
times cheaper per GB than DRAM — buys nearly the same hit-rate benefit as a
dollar of DRAM.  These functions reproduce the formula and the resulting
break-even/ROI numbers the ``paper`` pass of ``benchmarks/record.py`` gates.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError
from repro.storage.profiles import DeviceProfile


def access_time(profile: DeviceProfile, read_fraction: float = 1.0) -> float:
    """Average random 4 KB access time under a read/write mix."""
    if not 0.0 <= read_fraction <= 1.0:
        raise ConfigError("read_fraction must be within [0, 1]")
    return (
        read_fraction * profile.random_read_time
        + (1.0 - read_fraction) * profile.random_write_time
    )


def breakeven_exponent(
    disk: DeviceProfile, flash: DeviceProfile, read_fraction: float = 1.0
) -> float:
    """``C_disk / (C_disk - C_flash)`` — the paper's break-even exponent."""
    c_disk = access_time(disk, read_fraction)
    c_flash = access_time(flash, read_fraction)
    if c_flash >= c_disk:
        raise ConfigError(
            "flash must be faster than disk for a cache extension to pay off"
        )
    return c_disk / (c_disk - c_flash)


def breakeven_theta(
    delta: float,
    disk: DeviceProfile,
    flash: DeviceProfile,
    read_fraction: float = 1.0,
) -> float:
    """Flash fraction ``theta`` matching a DRAM growth of ``delta``.

    ``1 + theta = (1 + delta) ** exponent`` (Section 2.2).
    """
    if delta <= 0:
        raise ConfigError("delta must be positive")
    exponent = breakeven_exponent(disk, flash, read_fraction)
    return (1.0 + delta) ** exponent - 1.0


def roi_ratio(
    delta: float,
    disk: DeviceProfile,
    flash: DeviceProfile,
    dram_price_ratio: float = 10.0,
    read_fraction: float = 1.0,
) -> float:
    """How many times cheaper flash is for the same I/O-time reduction.

    The same monetary spend buys ``dram_price_ratio`` times more flash than
    DRAM; this returns (I/O reduction from that much flash) / (I/O reduction
    from the DRAM increment) under the Section 2.2 model.
    """
    c_disk = access_time(disk, read_fraction)
    c_flash = access_time(flash, read_fraction)
    theta = delta * dram_price_ratio
    dram_benefit = c_disk * math.log(1.0 + delta)
    flash_benefit = (c_disk - c_flash) * math.log(1.0 + theta)
    return flash_benefit / dram_benefit
