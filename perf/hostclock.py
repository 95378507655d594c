"""Host-time measurement on a machine whose speed drifts.

This sandbox's cores are shared: the same work takes 1-2x as long from one
minute to the next, and wall time adds stolen time on top.  So host cost is
taken as CPU seconds (of the process and of children it waited for), and
every measured block runs between two slices of a fixed calibration loop;
:attr:`Sample.norm_s` scales the block's CPU seconds by how fast the slices
ran.  README.md gives the spreads with and without.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Iterations of :func:`_spin` per calibration slice (~0.17 s), and the
#: rate that counts as one "normalised" CPU second (about a real second on
#: a quiet core of this sandbox).
SPIN_SLICE = 1_500_000
SPIN_REFERENCE_RATE = 8.0e6


def _spin(n: int) -> int:
    """The calibration loop: integer arithmetic on locals, nothing else.

    It touches no memory beyond its frame and calls nothing, so its speed
    follows the core's (frequency, a busy sibling thread, stolen time) and
    not the state the measured program left the heap or the caches in: no
    change to the program can move it.  (A loop that also probed a table
    and allocated small objects followed the workloads' cost slightly
    better, but ran 40 % slower after a workload than before one.)
    """
    acc = 0
    for i in range(n):
        acc = (acc + i * 2654435761) & 0xFFFFFFFF
    return acc


@dataclass
class Sample:
    """Host cost of one measured block, with its calibration slices."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    spin_s: float = 0.0
    spin_iterations: int = 0

    def __add__(self, other: "Sample") -> "Sample":
        return Sample(
            self.wall_s + other.wall_s,
            self.cpu_s + other.cpu_s,
            self.spin_s + other.spin_s,
            self.spin_iterations + other.spin_iterations,
        )

    @property
    def norm_s(self) -> float:
        """CPU seconds scaled to a CPU that spins at the reference rate."""
        if self.spin_s <= 0.0:
            return self.cpu_s
        return self.cpu_s * (self.spin_iterations / self.spin_s) / SPIN_REFERENCE_RATE


def _cpu_seconds() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _spin_slice(sample: Sample) -> None:
    start = time.process_time()
    _spin(SPIN_SLICE)
    sample.spin_s += time.process_time() - start
    sample.spin_iterations += SPIN_SLICE


def measured(fn: Callable[[], Any]) -> tuple[Any, Sample]:
    """Run ``fn`` between two calibration slices; returns its value too."""
    sample = Sample()
    _spin_slice(sample)
    wall, cpu = time.perf_counter(), _cpu_seconds()
    value = fn()
    sample.cpu_s = _cpu_seconds() - cpu
    sample.wall_s = time.perf_counter() - wall
    _spin_slice(sample)
    return value, sample
