"""GSC pulling a page out of DRAM while a checkpoint is flushing that page.

During ``checkpoint_frame`` the frame is still resident, so the replacement
its enqueue triggers can pull *that very frame* from the DRAM LRU tail and
enqueue it — between the enqueue path's up-front invalidation and its own
directory append.  ``FifoDirectory.enqueue`` must therefore supersede the
cached version again; an enqueue path that invalidates only once leaves two
valid versions of the page, which nothing else in tier-1 notices.
"""

from __future__ import annotations

from repro.db.verify import verify_all
from tests.conftest import MISS_CELL_CACHE_PAGES, gsc_miss_cell, miss_cell_ops


class PullWatch:
    """Notes DRAM pulls that happen inside a ``checkpoint_frame`` call, and
    those among them that pulled the frame being checkpointed."""

    def __init__(self, cache) -> None:
        self.inside = 0
        self.of_checkpointed_page = 0
        self._checkpointing: list[int] = []
        checkpoint_frame, pull = cache.checkpoint_frame, cache._pull_callback

        def watched_checkpoint_frame(frame):
            self._checkpointing.append(frame.page_id)
            try:
                checkpoint_frame(frame)
            finally:
                self._checkpointing.pop()

        def watched_pull(n):
            frames = pull(n)
            if self._checkpointing and frames:
                self.inside += 1
                if any(f.page_id == self._checkpointing[-1] for f in frames):
                    self.of_checkpointed_page += 1
            return frames

        cache.checkpoint_frame = watched_checkpoint_frame
        cache.set_pull_callback(watched_pull)


def test_page_pulled_during_its_own_checkpoint_keeps_one_valid_version():
    dbms = gsc_miss_cell()
    assert dbms.db_pages >= 30 * dbms.buffer.capacity
    watch = PullWatch(dbms.cache)
    checkpoints = 0
    evicted_by_checkpoints = 0
    for step in miss_cell_ops(dbms, steps=400, seed=5):
        if step % 50 == 0:
            evictions = dbms.buffer.stats.evictions
            dbms.checkpoint()
            # A checkpoint evicts from DRAM only through GSC's tail pull.
            evicted_by_checkpoints += dbms.buffer.stats.evictions - evictions
            checkpoints += 1
            report = verify_all(dbms)
            assert report.ok, (step, report.violations)
    report = verify_all(dbms)
    assert report.ok, report.violations

    # The run proves something only if it went where the trap is.
    assert checkpoints >= 3
    assert dbms.cache.directory.front > MISS_CELL_CACHE_PAGES  # the queue wrapped
    assert evicted_by_checkpoints > 0
    assert watch.inside > 0
    assert watch.of_checkpointed_page > 0
