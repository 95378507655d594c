"""TPC-C input generation: NURand skew, ranges, determinism."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import WorkloadError
from repro.tpcc.random_gen import FastRandom, TpccRandom, _a_for_range, lastname_for_index


@pytest.fixture
def rnd() -> TpccRandom:
    return TpccRandom(seed=1, customers_per_district=300, items=10_000)


def test_a_for_range_power_of_two_minus_one():
    for span, ratio in ((3000, 1023 / 3000), (100_000, 8191 / 100_000)):
        a = _a_for_range(span, ratio)
        assert (a + 1) & a == 0  # 2^k - 1
        assert a >= int(span * ratio)


def test_standard_ranges_reproduce_spec_constants():
    assert _a_for_range(3000, 1023 / 3000) == 1023
    assert _a_for_range(100_000, 8191 / 100_000) == 8191
    assert _a_for_range(1000, 255 / 1000) == 255


def test_customer_ids_within_range(rnd):
    ids = [rnd.customer_id() for _ in range(2000)]
    assert min(ids) >= 1
    assert max(ids) <= 300


def test_item_ids_within_range(rnd):
    ids = [rnd.item_id() for _ in range(2000)]
    assert min(ids) >= 1
    assert max(ids) <= 10_000


def test_nurand_is_skewed_not_uniform(rnd):
    """NURand concentrates mass: the most popular decile must receive far
    more than 10% of draws."""
    from collections import Counter

    draws = Counter(rnd.item_id() for _ in range(20_000))
    top_decile = sum(c for _, c in draws.most_common(len(draws) // 10))
    assert top_decile / 20_000 > 0.2


def test_determinism_across_instances():
    a = TpccRandom(seed=9, customers_per_district=300, items=1000)
    b = TpccRandom(seed=9, customers_per_district=300, items=1000)
    assert [a.item_id() for _ in range(50)] == [b.item_id() for _ in range(50)]


def test_order_line_count_range(rnd):
    counts = {rnd.order_line_count() for _ in range(500)}
    assert counts <= set(range(5, 16))
    assert {5, 15} & counts  # extremes reachable


def test_rollback_rate_near_one_percent(rnd):
    rolls = sum(rnd.is_rollback() for _ in range(20_000))
    assert 100 < rolls < 320


def test_payment_by_lastname_near_sixty_percent(rnd):
    byname = sum(rnd.payment_by_lastname() for _ in range(10_000))
    assert 5500 < byname < 6500


def test_payment_remote_near_fifteen_percent(rnd):
    remote = sum(rnd.payment_remote() for _ in range(10_000))
    assert 1200 < remote < 1800


def test_uniform_bounds_and_errors(rnd):
    assert 3 <= rnd.uniform(3, 7) <= 7
    assert rnd.uniform(4, 4) == 4
    with pytest.raises(WorkloadError):
        rnd.uniform(5, 4)


def test_threshold_range(rnd):
    assert all(10 <= rnd.threshold() <= 20 for _ in range(100))


def test_lastname_composition():
    assert lastname_for_index(0) == "BARBARBAR"
    assert lastname_for_index(371) == "PRICALLYOUGHT"  # syllables 3-7-1
    assert lastname_for_index(999) == "EINGEINGEING"


def test_lastname_index_range(rnd):
    span = max(1, 300 // 3)
    indexes = [rnd.lastname_index() for _ in range(1000)]
    assert min(indexes) >= 0
    assert max(indexes) < span


# -- the one-frame draw -------------------------------------------------------

_bounds = st.integers(min_value=-(2**70), max_value=2**70)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64), a=_bounds, b=_bounds)
@example(seed=0, a=1, b=1)
@example(seed=7, a=0, b=0)
@example(seed=7, a=5, b=4)
@example(seed=3, a=1, b=3000)
@example(seed=3, a=-(2**40), b=2**40)
def test_fast_randint_is_cpython_randint(seed, a, b):
    """Same values, same error, and the same state left behind."""
    ours, theirs = FastRandom(seed), random.Random(seed)
    try:
        expected = [theirs.randint(a, b) for _ in range(8)]
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            ours.randint(a, b)
        assert str(raised.value) == str(exc)
    else:
        assert [ours.randint(a, b) for _ in range(8)] == expected
    assert ours.getstate() == theirs.getstate()


def test_fast_randint_keeps_the_rest_of_random():
    """Only ``randint`` is overridden: the methods that use ``_randbelow``
    draw the same after a run of ``randint`` calls."""
    ours, theirs = FastRandom(11), random.Random(11)
    for rng in (ours, theirs):
        rng.randint(1, 10_000)
    draw = lambda rng: (  # noqa: E731
        rng.choice(range(97)), rng.randrange(3, 999, 7), rng.sample(range(50), 5),
        rng.random(), rng.uniform(1.0, 100.0), rng.randint(0, 2**80),
    )
    assert draw(ours) == draw(theirs)
