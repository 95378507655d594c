"""The paper's flash write pattern, read off the device's own counters."""

import random

from repro.core.config import CachePolicy
from tests.conftest import kv_dbms_with, kv_write


class TestPatternClaims:
    """The paper's write-pattern claim, demonstrated on real traffic."""

    @staticmethod
    def sequential_write_fraction(policy: CachePolicy) -> float:
        """Fraction of the flash pages written during a scattered update
        workload that moved at sequential cost."""
        rng = random.Random(5)
        keys = list(range(64))
        dbms = kv_dbms_with(policy, buffer_pages=6, cache_pages=64)
        stats = dbms.flash.device.stats
        seq_before, random_before = stats.seq_write_pages, stats.random_write_pages
        for round_ in range(4):
            rng.shuffle(keys)  # scattered update order, as in real OLTP
            for k in keys:
                kv_write(dbms, k, f"r{round_}-{k}")
        sequential = stats.seq_write_pages - seq_before
        return sequential / (sequential + stats.random_write_pages - random_before)

    def test_face_flash_writes_are_mostly_sequential(self):
        assert self.sequential_write_fraction(CachePolicy.FACE) > 0.8

    def test_lc_flash_writes_are_mostly_random(self):
        assert self.sequential_write_fraction(CachePolicy.LC) < 0.4
