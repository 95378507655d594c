"""Model-based property test of the log manager's durability semantics.

A reference model tracks which appended records *must* be durable given
the exact sequence of appends, forces, commits, checkpoints and crashes;
the real LogManager must agree after every step.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.storage.hdd import DiskDevice
from repro.storage.profiles import HDD_CHEETAH_15K
from repro.wal.log import LogManager

operation = st.one_of(
    st.tuples(st.just("begin"), st.integers(1, 5)),
    st.tuples(st.just("update"), st.integers(1, 5)),
    st.tuples(st.just("commit"), st.integers(1, 5)),
    st.tuples(st.just("force"), st.none()),
    st.tuples(st.just("checkpoint"), st.none()),
    st.tuples(st.just("crash"), st.none()),
)


class Model:
    """Reference semantics: durable set, volatile tail, truncation floor."""

    def __init__(self) -> None:
        self.durable: list[int] = []  # LSNs
        self.tail: list[int] = []
        self.next_lsn = 1
        self.checkpoints: list[int] = []

    def append(self) -> int:
        lsn = self.next_lsn
        self.next_lsn += 1
        self.tail.append(lsn)
        return lsn

    def force(self) -> None:
        self.durable.extend(self.tail)
        self.tail.clear()

    def checkpoint(self) -> None:
        lsn = self.append()
        self.force()
        self.checkpoints.append(lsn)
        if len(self.checkpoints) >= 2:
            floor = self.checkpoints[-2]
            self.durable = [x for x in self.durable if x >= floor]

    def crash(self) -> None:
        self.tail.clear()


@given(ops=st.lists(operation, max_size=80))
@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
def test_log_manager_matches_reference_model(ops):
    log = LogManager(DiskDevice(HDD_CHEETAH_15K, 1 << 16))
    model = Model()
    for op, arg in ops:
        if op == "begin":
            log.log_begin(arg)
            model.append()
        elif op == "update":
            log.log_update(arg, 1, 0, None, ("v",))
            model.append()
        elif op == "commit":
            log.commit(arg)
            model.append()
            model.force()
        elif op == "force":
            log.force()
            model.force()
        elif op == "checkpoint":
            log.log_checkpoint(frozenset())
            model.checkpoint()
        else:  # crash
            log.crash()
            model.crash()

        durable_lsns = [r.lsn for r in log.durable_records()]
        assert durable_lsns == model.durable
        assert len(log._tail) == len(model.tail)
        if model.durable:
            assert log.flushed_lsn == max(
                model.durable[-1],
                model.checkpoints[-1] if model.checkpoints else 0,
            )
