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
