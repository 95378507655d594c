"""Building blocks of the synthetic workloads: the KV schema and Zipf.

TPC-C fixes one access distribution; the ``ycsb`` and ``tpch-scan``
registry entries (:mod:`repro.workload.ycsb`, :mod:`repro.workload.tpch`)
let experiments vary *skew* and *read/write mix* independently, and both
draw their key popularity from here.

The key popularity follows a Zipf(s) distribution over ``n`` ranks,
sampled with the classic inverse-CDF-over-precomputed-weights method (exact,
deterministic under a seed, O(log n) per draw).
"""

from __future__ import annotations

import bisect
import itertools
import random
from functools import lru_cache

from repro.db.schema import TableSchema, int_col, str_col
from repro.errors import WorkloadError

#: Schema used by the synthetic store (wide enough for realistic pages).
KV_SCHEMA = TableSchema(
    name="synthetic_kv",
    columns=(int_col("k"), str_col("payload", 120), int_col("version")),
    primary_key=("k",),
)


@lru_cache(maxsize=2)
def _zipf_cdf(n: int, s: float) -> tuple[float, ...]:
    """The Zipf(s) CDF over ``n`` ranks, built once per ``(n, s)`` — a stream
    runs many cells — and a tuple, so no sampler can change a shared one."""
    cumulative = list(itertools.accumulate((k + 1) ** -s for k in range(n)))
    total = cumulative[-1]
    return tuple(c / total for c in cumulative)


class ZipfGenerator:
    """Exact Zipf(s) sampler over ranks ``0..n-1`` (rank 0 most popular)."""

    def __init__(self, n: int, s: float, seed: int = 0) -> None:
        if n < 1:
            raise WorkloadError("Zipf needs at least one element")
        if s < 0:
            raise WorkloadError("Zipf exponent must be non-negative")
        self.n = n
        self.s = s
        self._rng = random.Random(seed)
        self._cdf = _zipf_cdf(n, s)

    def sample(self) -> int:
        """Draw one rank."""
        return bisect.bisect_left(self._cdf, self._rng.random())

    def popularity(self, rank: int) -> float:
        """Probability mass of ``rank``."""
        previous = self._cdf[rank - 1] if rank else 0.0
        return self._cdf[rank] - previous
