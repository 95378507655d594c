"""TPC-C scale profile.

The paper loads a standard 50 GB (500-warehouse) TPC-C database.  The
reproduction keeps the standard *per-warehouse ratios* (10 districts, 3,000
customers/district, 100,000 items, ~10 order lines per order, skewed NURand
access) but allows the cardinalities to be scaled down so a pure-Python
simulation can reach steady state in seconds.  Every experiment expresses
cache and buffer sizes as *fractions of the database*, so the scaled system
sits at the same operating point as the paper's.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class ScaleProfile:
    """Cardinalities of one TPC-C database build."""

    warehouses: int = 4
    districts_per_warehouse: int = 10
    customers_per_district: int = 300
    items: int = 10_000
    orders_per_district: int = 300
    #: Fraction of initially loaded orders that are still "new" (TPC-C loads
    #: the most recent 900 of 3,000 per district, i.e. 30 %).
    new_order_fraction: float = 0.3
    #: Growth headroom multiplier for the append-only tables.
    growth_factor: float = 3.0

    def __post_init__(self) -> None:
        if min(
            self.warehouses,
            self.districts_per_warehouse,
            self.customers_per_district,
            self.items,
            self.orders_per_district,
        ) < 1:
            raise ConfigError("all TPC-C cardinalities must be >= 1")
        if not 0.0 <= self.new_order_fraction <= 1.0:
            raise ConfigError("new_order_fraction must be within [0, 1]")

    # -- derived totals -----------------------------------------------------------

    @property
    def districts(self) -> int:
        return self.warehouses * self.districts_per_warehouse

    @property
    def customers(self) -> int:
        return self.districts * self.customers_per_district

    @property
    def stock_rows(self) -> int:
        return self.warehouses * self.items

    @property
    def initial_orders(self) -> int:
        return self.districts * self.orders_per_district

    @property
    def initial_new_orders(self) -> int:
        return int(self.initial_orders * self.new_order_fraction)

    @property
    def avg_order_lines(self) -> int:
        return 10  # TPC-C: uniform 5..15

    @property
    def initial_order_lines(self) -> int:
        return self.initial_orders * self.avg_order_lines


#: The default profile used by unit tests (tiny but structurally complete).
TINY = ScaleProfile(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=30,
    items=200,
    orders_per_district=30,
)

#: The default profile used by the benchmark harness: ~ the paper's 50 GB /
#: 500-warehouse database scaled down ~1000x with ratios preserved.
BENCH = ScaleProfile(
    warehouses=4,
    districts_per_warehouse=10,
    customers_per_district=300,
    items=10_000,
    orders_per_district=300,
)


def parse_scale(text: str) -> ScaleProfile | None:
    """Parse a ``repr(ScaleProfile(...))`` string back into a profile.

    Persisted boundary-trace headers store the scale as its dataclass repr;
    cache housekeeping (``python -m repro trace ls``) needs to read it
    back without ``eval``.  Returns ``None`` for anything that is not a
    literal ``ScaleProfile(...)`` call.
    """
    try:
        node = ast.parse(text.strip(), mode="eval").body
    except (SyntaxError, ValueError):
        return None
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ScaleProfile"
        and not node.args
    ):
        return None
    kwargs = {}
    for keyword in node.keywords:
        if keyword.arg is None or not isinstance(keyword.value, ast.Constant):
            return None
        kwargs[keyword.arg] = keyword.value.value
    try:
        return ScaleProfile(**kwargs)
    except (TypeError, ConfigError):
        return None
