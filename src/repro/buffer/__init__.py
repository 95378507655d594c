"""DRAM buffer pool with FaCE's dirty/fdirty flag machinery.

The paper's Section 3.1 splits the classic dirty bit in two: ``dirty``
(newer than the *disk* copy) and ``fdirty`` (newer than the *flash* copy).
This package provides the :class:`~repro.buffer.frame.Frame` carrying those
flags, the fixed-capacity :class:`~repro.buffer.pool.BufferPool` with
pluggable LRU/CLOCK replacement (:mod:`~repro.buffer.replacement`), and the
:class:`~repro.buffer.stats.BufferStats` counters whose ``dirty_evictions``
figure is the denominator of Table 3(b)'s write-reduction metric.
"""
