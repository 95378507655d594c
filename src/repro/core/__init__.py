"""Core: system configuration, policy factory, and the simulated DBMS.

The three pieces every experiment starts from:
:class:`~repro.core.config.SystemConfig` (a frozen, picklable description
of one system under test — devices, sizes, policy, CPU costs),
:mod:`~repro.core.policies` (the factory that wires a config into concrete
device models and a flash-cache policy), and
:class:`~repro.core.dbms.SimulatedDBMS` (the Figure 1 data path: buffer
manager, flash cache, WAL, checkpoints, crash hooks).
"""

from repro.core.config import CachePolicy, SystemConfig, scaled_reference_config
from repro.core.dbms import SimulatedDBMS, Transaction
from repro.core.policies import (
    build_database_device,
    build_flash_volume,
    build_log_device,
)

__all__ = [
    "CachePolicy",
    "SimulatedDBMS",
    "SystemConfig",
    "Transaction",
    "build_database_device",
    "build_flash_volume",
    "build_log_device",
    "scaled_reference_config",
]
