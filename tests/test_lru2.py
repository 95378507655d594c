"""LRU-2 replacement policy used by the Lazy Cleaning baseline."""

import random

import pytest

from repro.errors import CacheError
from repro.flashcache.lru2 import Lru2Policy


def test_victim_prefers_once_referenced_pages():
    policy = Lru2Policy()
    policy.touch("a")
    policy.touch("a")  # twice-referenced
    policy.touch("b")  # once-referenced
    assert policy.victim() == "b"


def test_victim_orders_by_second_most_recent_reference():
    policy = Lru2Policy()
    policy.touch("a")
    policy.touch("b")
    policy.touch("a")  # a's penultimate = t1
    policy.touch("b")  # b's penultimate = t2 (newer)
    assert policy.victim() == "a"


def test_once_referenced_ties_break_by_reference_time():
    policy = Lru2Policy()
    policy.touch("old")
    policy.touch("new")
    assert policy.victim() == "old"


def test_victim_removes_the_key():
    policy = Lru2Policy()
    policy.touch("a")
    policy.victim()
    assert list(policy.iter_coldest()) == []
    with pytest.raises(CacheError):
        policy.victim()


def test_retouch_invalidates_old_heap_entry():
    policy = Lru2Policy()
    policy.touch("a")
    policy.touch("b")
    policy.touch("a")  # a should now be hotter than b
    assert policy.victim() == "b"


def test_victim_on_empty_raises():
    with pytest.raises(CacheError):
        Lru2Policy().victim()


def test_keys_coldest_first_ordering():
    policy = Lru2Policy()
    policy.touch("cold")
    policy.touch("warm")
    policy.touch("hot")
    policy.touch("hot")
    policy.touch("warm")
    # 'warm' and 'hot' are twice-referenced; warm's penultimate (t2) is
    # older than hot's (t3), so warm ranks colder.
    assert list(policy.iter_coldest()) == ["cold", "warm", "hot"]


def test_matches_reference_model_under_random_workload():
    """Model-based check against a brute-force LRU-2 implementation."""

    class NaiveLru2:
        def __init__(self):
            self.hist: dict[str, list[int]] = {}
            self.clock = 0

        def touch(self, k):
            self.clock += 1
            self.hist.setdefault(k, []).append(self.clock)

        def victim(self):
            def key(k):
                times = self.hist[k]
                penultimate = times[-2] if len(times) >= 2 else -1
                return (penultimate, times[-1])

            k = min(self.hist, key=key)
            del self.hist[k]
            return k

    rng = random.Random(7)
    fast, naive = Lru2Policy(), NaiveLru2()
    keys = [f"k{i}" for i in range(20)]
    for _ in range(2000):
        action = rng.random()
        if action < 0.7 or not naive.hist:
            k = rng.choice(keys)
            fast.touch(k)
            naive.touch(k)
        else:
            assert fast.victim() == naive.victim()
    while naive.hist:
        assert fast.victim() == naive.victim()


def test_iter_coldest_partial_consumption_restores_state():
    policy = Lru2Policy()
    for key in ("cold", "warm", "hot"):
        policy.touch(key)
    policy.touch("hot")
    policy.touch("warm")

    iterator = policy.iter_coldest()
    assert next(iterator) == "cold"
    iterator.close()  # early exit, like a cleaner that flushed enough

    # Popped entries were re-pushed: the full ranking is still intact.
    assert list(policy.iter_coldest()) == ["cold", "warm", "hot"]
    assert policy.victim() == "cold"


def test_iter_coldest_drops_stale_entries_for_good():
    policy = Lru2Policy()
    policy.touch("a")
    policy.touch("b")
    policy.touch("a")  # invalidates a's first heap entry lazily
    policy.touch("b")  # and b's

    assert list(policy.iter_coldest()) == ["a", "b"]
    # The stale first entries are gone from the heap, not merely skipped:
    # only the two valid entries were re-pushed.
    assert len(policy._heap) == 2
