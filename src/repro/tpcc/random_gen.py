"""TPC-C random input generation (specification clause 2.1).

Provides the non-uniform random (NURand) function that gives TPC-C its
characteristic skew, scaled consistently for reduced cardinalities: the
specification fixes ``A`` per field for the standard ranges (A=1023 for
customer ids over 1..3000, A=8191 for item ids over 1..100000, A=255 for
last names over 0..999); for a scaled range we pick the power-of-two-minus-
one ``A`` that preserves the specification's A/range ratio, so the access
skew — which drives the paper's 60-85 % flash hit rates — is unchanged.
"""

from __future__ import annotations

import random

from repro.errors import WorkloadError

#: Clause 4.3.2.3 syllables for generating customer last names.
_NAME_SYLLABLES = (
    "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
)

# Specification A/range ratios for the three NURand uses.
_A_RATIO_CUSTOMER = 1023 / 3000
_A_RATIO_ITEM = 8191 / 100_000
_A_RATIO_LASTNAME = 255 / 1000


def _a_for_range(span: int, ratio: float) -> int:
    """Smallest ``2^k - 1`` at least ``span * ratio`` (min 1)."""
    target = max(1, int(span * ratio))
    a = 1
    while a < target:
        a = (a << 1) | 1
    return a


class TpccRandom:
    """Deterministic TPC-C input generator for one driver."""

    def __init__(self, seed: int, customers_per_district: int, items: int) -> None:
        self._rng = random.Random(seed)
        self.customers_per_district = customers_per_district
        self.items = items
        self._a_customer = _a_for_range(customers_per_district, _A_RATIO_CUSTOMER)
        self._a_item = _a_for_range(items, _A_RATIO_ITEM)
        name_span = min(1000, max(1, customers_per_district // 3))
        self._a_lastname = _a_for_range(name_span, _A_RATIO_LASTNAME)
        self._name_span = name_span
        # Clause 2.1.6.1: C is a run-time constant chosen once per field.
        self._c_customer = self._rng.randint(0, self._a_customer)
        self._c_item = self._rng.randint(0, self._a_item)
        self._c_lastname = self._rng.randint(0, self._a_lastname)

    # -- primitives ----------------------------------------------------------

    def uniform(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        if low > high:
            raise WorkloadError(f"empty uniform range [{low}, {high}]")
        return self._rng.randint(low, high)

    def _nurand(self, a: int, c: int, low: int, high: int) -> int:
        span = high - low + 1
        return (
            ((self._rng.randint(0, a) | self._rng.randint(low, high)) + c) % span
        ) + low

    # -- TPC-C fields ----------------------------------------------------------

    def customer_id(self) -> int:
        """Skewed customer id in [1, customers_per_district]."""
        return self._nurand(
            self._a_customer, self._c_customer, 1, self.customers_per_district
        )

    def item_id(self) -> int:
        """Skewed item id in [1, items]."""
        return self._nurand(self._a_item, self._c_item, 1, self.items)

    def lastname_index(self) -> int:
        """Skewed last-name index in [0, name_span)."""
        return self._nurand(self._a_lastname, self._c_lastname, 0, self._name_span - 1)

    def order_line_count(self) -> int:
        """Clause 2.4.1.3: uniform 5..15 lines per new order."""
        return self.uniform(5, 15)

    def quantity(self) -> int:
        return self.uniform(1, 10)

    def is_remote_warehouse(self) -> bool:
        """Clause 2.4.1.5.2: 1 % of order lines are supplied remotely."""
        return self.uniform(1, 100) == 1

    def is_rollback(self) -> bool:
        """Clause 2.4.1.4: 1 % of New-Order transactions roll back."""
        return self.uniform(1, 100) == 1

    def payment_by_lastname(self) -> bool:
        """Clause 2.5.1.2: 60 % of Payments select the customer by name."""
        return self.uniform(1, 100) <= 60

    def payment_remote(self) -> bool:
        """Clause 2.5.1.2: 15 % of Payments pay through a remote district."""
        return self.uniform(1, 100) <= 15

    def threshold(self) -> int:
        """Stock-Level threshold, uniform 10..20."""
        return self.uniform(10, 20)


def lastname_for_index(index: int) -> str:
    """Clause 4.3.2.3: syllable-composed last name for an index."""
    return (
        _NAME_SYLLABLES[(index // 100) % 10]
        + _NAME_SYLLABLES[(index // 10) % 10]
        + _NAME_SYLLABLES[index % 10]
    )
