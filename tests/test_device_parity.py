"""Device-model parity oracle.

``Device`` / ``FlashDevice`` / ``Raid0Array`` price every I/O in one flat
function each.  :class:`ReferenceDevice` below keeps the arithmetic the way
the model was first written — profile properties evaluated per call,
``_read_time`` / ``_write_time`` hooks, an ``Enum``-keyed ledger — and the
tests drive both through long mixed op sequences, comparing every
observable after every op with ``==``: the simulated results of a run are
only as bit-stable as these floats.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.obs import OBS, sanitize
from repro.storage.device import Device, IOKind
from repro.storage.profiles import HDD_CHEETAH_15K, MLC_SAMSUNG_470
from repro.storage.raid import Raid0Array, make_raid0_profile
from repro.storage.ssd import (
    INTERFERENCE_WINDOW,
    PAGES_PER_BLOCK,
    READ_INTERFERENCE_FACTOR,
    SERIAL_LATENCY_MULTIPLIER,
    SPREAD_WINDOW,
    FlashDevice,
)

CAPACITY = 4096
N_OPS = 2500


class ReferenceDevice:
    """The timing model, hook by hook.  ``model`` is "base", "ssd" or "raid"."""

    def __init__(self, model, profile, capacity, member_profile=None):
        self.model, self.profile, self.capacity = model, profile, capacity
        self.member_profile = member_profile
        self.ops = {kind: 0 for kind in IOKind}
        self.pages = {kind: 0 for kind in IOKind}
        self.busy_time = 0.0
        self.next_read = self.next_write = None
        self.serial_mode = False
        self.nblocks = max(1, capacity // PAGES_PER_BLOCK)
        self.random_blocks = deque(maxlen=SPREAD_WINDOW)
        self.block_counts = {}
        self.recent_ops = deque(maxlen=INTERFERENCE_WINDOW)
        self.recent_random_writes = 0

    @property
    def write_spread(self):
        return min(1.0, len(self.block_counts) / min(SPREAD_WINDOW, self.nblocks))

    @property
    def read_interference(self):
        if not self.recent_ops:
            return 1.0
        return 1.0 + READ_INTERFERENCE_FACTOR * (
            self.recent_random_writes / len(self.recent_ops)
        )

    def _note_op(self, is_random_write):
        if len(self.recent_ops) == self.recent_ops.maxlen and self.recent_ops[0]:
            self.recent_random_writes -= 1
        self.recent_ops.append(is_random_write)
        self.recent_random_writes += is_random_write

    def _note_random_write(self, lba):
        block = (lba // PAGES_PER_BLOCK) % self.nblocks
        if len(self.random_blocks) == self.random_blocks.maxlen:
            oldest = self.random_blocks[0]
            self.block_counts[oldest] -= 1
            if not self.block_counts[oldest]:
                del self.block_counts[oldest]
        self.random_blocks.append(block)
        self.block_counts[block] = self.block_counts.get(block, 0) + 1

    def _read_time(self, npages, sequential):
        bulk = sequential or npages > 1
        if self.model == "raid" and self.serial_mode and not sequential and npages == 1:
            return self.member_profile.random_read_time * Raid0Array.SERIAL_READ_LATENCY_FACTOR
        base = npages * self.profile.seq_read_time if bulk else self.profile.random_read_time
        if self.model != "ssd" or bulk:
            return base
        service = base * self.read_interference
        return service * SERIAL_LATENCY_MULTIPLIER if self.serial_mode else service

    def _write_time(self, npages, sequential):
        if sequential or npages > 1:
            return npages * self.profile.seq_write_time
        if self.model != "ssd":
            return self.profile.random_write_time
        seq = self.profile.seq_write_time
        return seq + self.write_spread * (self.profile.random_write_time - seq)

    def _record(self, kind, npages, service):
        self.ops[kind] += 1
        self.pages[kind] += npages
        self.busy_time += service
        return service

    def read(self, lba, npages=1):
        sequential = self.next_read == lba
        self.next_read = lba + npages
        service = self._read_time(npages, sequential)
        bulk = sequential or npages > 1
        self._record(IOKind.SEQ_READ if bulk else IOKind.RANDOM_READ, npages, service)
        if self.model == "ssd":
            self._note_op(False)
        return service

    def write(self, lba, npages=1):
        evidence = self.next_write is not None and self.next_write != lba and npages == 1
        sequential = self.next_write == lba
        self.next_write = lba + npages
        service = self._write_time(npages, sequential)
        bulk = sequential or npages > 1
        self._record(IOKind.SEQ_WRITE if bulk else IOKind.RANDOM_WRITE, npages, service)
        if self.model == "ssd":
            if evidence:
                self._note_random_write(lba)
            self._note_op(evidence)
        return service


def make_pair(model):
    if model == "base":
        return Device(MLC_SAMSUNG_470, CAPACITY), ReferenceDevice(
            "base", MLC_SAMSUNG_470, CAPACITY)
    if model == "ssd":
        return FlashDevice(MLC_SAMSUNG_470, CAPACITY), ReferenceDevice(
            "ssd", MLC_SAMSUNG_470, CAPACITY)
    return Raid0Array(8, HDD_CHEETAH_15K, CAPACITY), ReferenceDevice(
        "raid", make_raid0_profile(8, HDD_CHEETAH_15K), CAPACITY, HDD_CHEETAH_15K)


def mixed_ops(seed):
    """Single and batch, sequential and random, an append stream that wraps
    the device like the mvFIFO queue does, serial mode toggling — long enough
    for the SSD's spread and interference windows to roll over many times."""
    rng = random.Random(seed)
    append_at = 0
    for _ in range(N_OPS):
        roll = rng.random()
        if roll < 0.02:
            yield "serial", rng.random() < 0.5, 0
        elif roll < 0.30:  # append stream, single pages and batches
            npages = rng.choice((1, 1, 1, 8, 64))
            if append_at + npages > CAPACITY:
                append_at = 0  # the queue wraps
            yield "write", append_at, npages
            append_at += npages
        elif roll < 0.50:  # scattered or clustered random writes
            span = CAPACITY if rng.random() < 0.5 else 4 * PAGES_PER_BLOCK
            yield "write", rng.randrange(span), 1
        elif roll < 0.60:  # a short sequential read run
            start = rng.randrange(CAPACITY - 8)
            for offset in range(rng.randrange(2, 6)):
                yield "read", start + offset, 1
        elif roll < 0.70:
            npages = rng.choice((8, 64, 256))
            yield "read", rng.randrange(CAPACITY - npages), npages
        else:
            yield "read", rng.randrange(CAPACITY), 1


@pytest.mark.parametrize("obs_enabled", [False, True], ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("model", ["base", "ssd", "raid"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flat_devices_match_the_reference_model_after_every_op(model, seed, obs_enabled):
    device, reference = make_pair(model)
    was_enabled = OBS.enabled
    OBS.enabled = obs_enabled
    try:
        count = 0
        for op, lba, npages in mixed_ops(seed):
            if op == "serial":
                device.serial_mode = reference.serial_mode = lba
                continue
            count += 1
            assert getattr(device, op)(lba, npages) == getattr(reference, op)(lba, npages)
            assert device.busy_time == reference.busy_time
            for kind in IOKind:
                assert getattr(device.stats, f"{kind.value}_ops") == reference.ops[kind]
                assert getattr(device.stats, f"{kind.value}_pages") == reference.pages[kind]
            if model == "ssd":
                assert device.write_spread == reference.write_spread
                assert device.read_interference == reference.read_interference
        assert count >= 2000
        assert all(reference.ops.values())  # every I/O kind was exercised
        if obs_enabled:
            prefix = f"storage.{device._OBS_KIND}.{sanitize(device.profile.name)}"
            snapshot = OBS.snapshot()
            for kind in IOKind:
                assert snapshot.get(f"{prefix}.ops.{kind.value}") == reference.ops[kind]
                assert snapshot.get(f"{prefix}.pages.{kind.value}") == reference.pages[kind]
        else:
            assert device._obs_handles is None
    finally:
        OBS.enabled = was_enabled
        OBS.clear()
