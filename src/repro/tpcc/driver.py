"""TPC-C driver: transaction mix and measurement loop.

Runs the standard mix (clause 5.2.3 minimum percentages, as deployed by
BenchmarkSQL which the paper used): New-Order 45 %, Payment 43 %,
Order-Status 4 %, Delivery 4 %, Stock-Level 4 %.  Think times are zero —
the paper drives 50 clients at full speed to saturate the I/O path, and the
simulation's concurrency lives in the bottleneck wall-clock model instead
of in the driver.

``tpmC`` is New-Order commits per simulated minute, per the TPC-C
definition the paper's figures use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import WorkloadError
from repro.tpcc.random_gen import TpccRandom
from repro.tpcc.transactions import TpccTransactions
from repro.workload.registry import TxResult, WorkloadStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tpcc.loader import TpccDatabase

#: Standard mix in cumulative-weight form.
_MIX = (
    ("new_order", 45),
    ("payment", 43),
    ("order_status", 4),
    ("delivery", 4),
    ("stock_level", 4),
)


class TpccDriver:
    """Drives one simulated DBMS with the standard TPC-C mix."""

    def __init__(self, database: TpccDatabase, seed: int = 7) -> None:
        self.database = database
        scale = database.scale
        self.rnd = TpccRandom(seed, scale.customers_per_district, scale.items)
        self.transactions = TpccTransactions(database, self.rnd)
        self.stats = WorkloadStats()
        self._mix_total = sum(weight for _, weight in _MIX)

    def _pick_kind(self) -> str:
        roll = self.rnd.uniform(1, self._mix_total)
        for kind, weight in _MIX:
            roll -= weight
            if roll <= 0:
                return kind
        raise WorkloadError("transaction mix weights are inconsistent")

    def run_one(self, kind: str | None = None) -> TxResult:
        """Execute one transaction (random kind unless given)."""
        kind = kind or self._pick_kind()
        result: TxResult = getattr(self.transactions, kind)()
        self.stats.record(result)
        return result

    def run(self, n_transactions: int, checkpointer=None) -> WorkloadStats:
        """Execute ``n_transactions``; optionally tick a checkpointer.

        ``checkpointer`` is any callable invoked after every transaction
        (the experiment runner passes a simulated-time-based checkpoint
        trigger); exceptions propagate.
        """
        if n_transactions < 0:
            raise WorkloadError("n_transactions must be >= 0")
        for _ in range(n_transactions):
            self.run_one()
            if checkpointer is not None:
                checkpointer()
        return self.stats

    def tpmc(self, wall_seconds: float) -> float:
        """New-Order commits per minute over ``wall_seconds`` of sim time."""
        if wall_seconds <= 0:
            return 0.0
        return self.stats.neworder_commits * 60.0 / wall_seconds
