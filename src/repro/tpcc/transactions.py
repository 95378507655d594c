"""The five TPC-C transactions (specification clause 2), against the
simulated DBMS.

Access paths mirror a real execution plan: primary-key probes go through
the hash indexes (charging bucket-page I/O), row reads/updates go through
the heap pages, and every write is WAL-logged by the DBMS.  New-Order rolls
back 1 % of the time (clause 2.4.1.4), exercising the undo path.

The Delivery transaction consumes the oldest undelivered order per district
from the workload-side FIFO queues that :mod:`repro.tpcc.loader` builds and
New-Order extends — the stand-in for the "oldest NEW-ORDER row" scan, with
queue pops only made visible on commit so the queues always agree with the
committed database state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tpcc import schema as S
from repro.tpcc.random_gen import TpccRandom
from repro.workload.registry import TxResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dbms import SimulatedDBMS
    from repro.tpcc.loader import TpccDatabase

# Hot column positions, derived from the schemas so they cannot drift.
_W_TAX = S.WAREHOUSE.column_index("w_tax")
_W_YTD = S.WAREHOUSE.column_index("w_ytd")
_D_TAX = S.DISTRICT.column_index("d_tax")
_D_YTD = S.DISTRICT.column_index("d_ytd")
_D_NEXT_O_ID = S.DISTRICT.column_index("d_next_o_id")
_C_CREDIT = S.CUSTOMER.column_index("c_credit")
_C_DISCOUNT = S.CUSTOMER.column_index("c_discount")
_C_BALANCE = S.CUSTOMER.column_index("c_balance")
_C_YTD_PAYMENT = S.CUSTOMER.column_index("c_ytd_payment")
_C_PAYMENT_CNT = S.CUSTOMER.column_index("c_payment_cnt")
_C_DELIVERY_CNT = S.CUSTOMER.column_index("c_delivery_cnt")
_C_DATA = S.CUSTOMER.column_index("c_data")
_S_QUANTITY = S.STOCK.column_index("s_quantity")
_S_YTD = S.STOCK.column_index("s_ytd")
_S_ORDER_CNT = S.STOCK.column_index("s_order_cnt")
_S_REMOTE_CNT = S.STOCK.column_index("s_remote_cnt")
_I_PRICE = S.ITEM.column_index("i_price")
_O_C_ID = S.ORDER.column_index("o_c_id")
_O_CARRIER = S.ORDER.column_index("o_carrier_id")
_O_OL_CNT = S.ORDER.column_index("o_ol_cnt")
_O_OL_FIRST = S.ORDER.column_index("o_ol_first_rownum")
_OL_I_ID = S.ORDER_LINE.column_index("ol_i_id")
_OL_DELIVERY_D = S.ORDER_LINE.column_index("ol_delivery_d")
_OL_AMOUNT = S.ORDER_LINE.column_index("ol_amount")


def _set(row: tuple, position: int, value) -> tuple:
    out = list(row)
    out[position] = value
    return tuple(out)


class TpccTransactions:
    """Executes the five transaction types against one database."""

    def __init__(self, database: TpccDatabase, rnd: TpccRandom) -> None:
        self.database = database
        self.rnd = rnd
        self.dbms: SimulatedDBMS = database.dbms
        self.scale = database.scale

    # -- helpers ---------------------------------------------------------------

    def _random_warehouse(self) -> int:
        return self.rnd.uniform(1, self.scale.warehouses)

    def _random_district(self) -> int:
        return self.rnd.uniform(1, self.scale.districts_per_warehouse)

    def _lookup_customer(self, w_id: int, d_id: int) -> tuple:
        """Clause 2.5.1.2 / 2.6.1.2: 60 % by last name, 40 % by id."""
        if self.rnd.payment_by_lastname():
            name_idx = self.rnd.lastname_index()
            rid = self.dbms.index_lookup("customer_last", (w_id, d_id, name_idx))
            if rid is not None:
                return rid
        c_id = self.rnd.customer_id()
        rid = self.dbms.index_lookup("customer_pk", (w_id, d_id, c_id))
        assert rid is not None, "customer_pk must cover every loaded customer"
        return rid

    # -- New-Order (clause 2.4) -----------------------------------------------

    def new_order(self) -> TxResult:
        db, rnd = self.dbms, self.rnd
        w_id = self._random_warehouse()
        d_id = self._random_district()
        c_id = rnd.customer_id()
        ol_cnt = rnd.order_line_count()
        rollback = rnd.is_rollback()

        tx = db.begin()
        w_rid = db.index_lookup("warehouse_pk", (w_id,))
        w_row = db.fetch_row("warehouse", w_rid)
        d_rid = db.index_lookup("district_pk", (w_id, d_id))
        d_row = db.fetch_row("district", d_rid)
        o_id = d_row[_D_NEXT_O_ID]
        db.update_row(tx, "district", d_rid, _set(d_row, _D_NEXT_O_ID, o_id + 1))
        c_rid = db.index_lookup("customer_pk", (w_id, d_id, c_id))
        c_row = db.fetch_row("customer", c_rid)

        total = 0.0
        lines: list[tuple[int, int, int, float]] = []
        for _ in range(ol_cnt):
            i_id = rnd.item_id()
            supply_w = w_id
            if self.scale.warehouses > 1 and rnd.is_remote_warehouse():
                while supply_w == w_id:
                    supply_w = rnd.uniform(1, self.scale.warehouses)
            i_rid = db.index_lookup("item_pk", (i_id,))
            i_row = db.fetch_row("item", i_rid)
            s_rid = db.index_lookup("stock_pk", (supply_w, i_id))
            s_row = db.fetch_row("stock", s_rid)
            quantity = rnd.quantity()
            new_qty = s_row[_S_QUANTITY] - quantity
            if new_qty < 10:
                new_qty += 91
            updated = list(s_row)
            updated[_S_QUANTITY] = new_qty
            updated[_S_YTD] = s_row[_S_YTD] + quantity
            updated[_S_ORDER_CNT] = s_row[_S_ORDER_CNT] + 1
            if supply_w != w_id:
                updated[_S_REMOTE_CNT] = s_row[_S_REMOTE_CNT] + 1
            db.update_row(tx, "stock", s_rid, tuple(updated))
            amount = quantity * i_row[_I_PRICE]
            total += amount
            lines.append((i_id, supply_w, quantity, amount))

        ol_first = db.tables["order_line"].info.row_count
        order_row = (o_id, d_id, w_id, c_id, 0, 0, ol_cnt, 1, ol_first)
        order_rid = db.insert_row(tx, "orders", order_row)
        db.index_insert(tx, "order_pk", (w_id, d_id, o_id), order_rid)
        db.index_insert(tx, "customer_last_order", (w_id, d_id, c_id), order_rid)
        no_rid = db.insert_row(tx, "new_order", (o_id, d_id, w_id))
        db.index_insert(tx, "new_order_pk", (w_id, d_id, o_id), no_rid)
        for number, (i_id, supply_w, quantity, amount) in enumerate(lines, start=1):
            line = (
                o_id, d_id, w_id, number, i_id, supply_w, 0, quantity,
                amount * (1 + w_row[_W_TAX] + d_row[_D_TAX]) * (1 - c_row[_C_DISCOUNT]),
                "dist-info",
            )
            db.insert_row(tx, "order_line", line)

        if rollback:  # clause 2.4.1.4: unused item id discovered -> rollback
            db.abort(tx)
            return TxResult("new_order", committed=False)
        db.commit(tx)
        self.database.undelivered[(w_id, d_id)].append(o_id)
        return TxResult("new_order", committed=True)

    # -- Payment (clause 2.5) -----------------------------------------------

    def payment(self) -> TxResult:
        db, rnd = self.dbms, self.rnd
        w_id = self._random_warehouse()
        d_id = self._random_district()
        # 15 % of payments come through a remote customer warehouse/district.
        c_w, c_d = w_id, d_id
        if self.scale.warehouses > 1 and rnd.payment_remote():
            while c_w == w_id:
                c_w = rnd.uniform(1, self.scale.warehouses)
            c_d = self._random_district()
        amount = rnd.uniform(100, 500_000) / 100.0

        tx = db.begin()
        w_rid = db.index_lookup("warehouse_pk", (w_id,))
        w_row = db.fetch_row("warehouse", w_rid)
        db.update_row(tx, "warehouse", w_rid, _set(w_row, _W_YTD, w_row[_W_YTD] + amount))
        d_rid = db.index_lookup("district_pk", (w_id, d_id))
        d_row = db.fetch_row("district", d_rid)
        db.update_row(tx, "district", d_rid, _set(d_row, _D_YTD, d_row[_D_YTD] + amount))

        c_rid = self._lookup_customer(c_w, c_d)
        c_row = db.fetch_row("customer", c_rid)
        updated = list(c_row)
        updated[_C_BALANCE] = c_row[_C_BALANCE] - amount
        updated[_C_YTD_PAYMENT] = c_row[_C_YTD_PAYMENT] + amount
        updated[_C_PAYMENT_CNT] = c_row[_C_PAYMENT_CNT] + 1
        if c_row[_C_CREDIT] == "BC":  # bad credit: rewrite the 500-byte c_data
            updated[_C_DATA] = (
                f"{c_row[0]}|{c_d}|{c_w}|{d_id}|{w_id}|{amount:.2f}|"
                + str(c_row[_C_DATA])
            )[:300]
        db.update_row(tx, "customer", c_rid, tuple(updated))

        history = (c_row[0], c_d, c_w, d_id, w_id, 0, amount, "payment")
        db.insert_row(tx, "history", history)
        db.commit(tx)
        return TxResult("payment", committed=True)

    # -- Order-Status (clause 2.6, read-only) -------------------------------------

    def order_status(self) -> TxResult:
        db = self.dbms
        w_id = self._random_warehouse()
        d_id = self._random_district()
        tx = db.begin()
        c_rid = self._lookup_customer(w_id, d_id)
        c_row = db.fetch_row("customer", c_rid)
        o_rid = db.index_lookup(
            "customer_last_order", (c_row[2], c_row[1], c_row[0])
        )
        if o_rid is not None:
            order = db.fetch_row("orders", o_rid)
            self._read_order_lines(order)
        db.commit(tx)
        return TxResult("order_status", committed=True)

    def _read_order_lines(self, order: tuple) -> list[tuple]:
        heap = self.dbms.tables["order_line"]
        lines = []
        for offset in range(order[_O_OL_CNT]):
            rid = heap.rid_for_rownum(order[_O_OL_FIRST] + offset)
            row = self.dbms.fetch_row("order_line", rid)
            if row is not None:
                lines.append(row)
        return lines

    # -- Delivery (clause 2.7) -----------------------------------------------

    def delivery(self) -> TxResult:
        db, rnd = self.dbms, self.rnd
        w_id = self._random_warehouse()
        carrier = rnd.uniform(1, 10)
        tx = db.begin()
        delivered: list[tuple[int, int]] = []  # (d_id, o_id) to pop on commit
        for d_id in range(1, self.scale.districts_per_warehouse + 1):
            queue = self.database.undelivered[(w_id, d_id)]
            if not queue:
                continue
            o_id = queue[0]
            no_rid = db.index_lookup("new_order_pk", (w_id, d_id, o_id))
            if no_rid is None:
                queue.popleft()  # stale queue entry (rolled-back order)
                continue
            db.update_slot_tx(tx, no_rid[0], no_rid[1], None)  # delete NEW-ORDER
            db.index_delete(tx, "new_order_pk", (w_id, d_id, o_id))
            o_rid = db.index_lookup("order_pk", (w_id, d_id, o_id))
            order = db.fetch_row("orders", o_rid)
            db.update_row(tx, "orders", o_rid, _set(order, _O_CARRIER, carrier))
            total = 0.0
            heap = db.tables["order_line"]
            for offset in range(order[_O_OL_CNT]):
                ol_rid = heap.rid_for_rownum(order[_O_OL_FIRST] + offset)
                line = db.fetch_row("order_line", ol_rid)
                if line is None:
                    continue
                total += line[_OL_AMOUNT]
                db.update_row(
                    tx, "order_line", ol_rid, _set(line, _OL_DELIVERY_D, 1)
                )
            c_rid = self.database.customer_rid(w_id, d_id, order[_O_C_ID])
            c_row = db.fetch_row("customer", c_rid)
            updated = list(c_row)
            updated[_C_BALANCE] = c_row[_C_BALANCE] + total
            updated[_C_DELIVERY_CNT] = c_row[_C_DELIVERY_CNT] + 1
            db.update_row(tx, "customer", c_rid, tuple(updated))
            delivered.append((d_id, o_id))
        db.commit(tx)
        for d_id, o_id in delivered:
            queue = self.database.undelivered[(w_id, d_id)]
            if queue and queue[0] == o_id:
                queue.popleft()
        return TxResult("delivery", committed=True)

    # -- Stock-Level (clause 2.8, read-only) -------------------------------------

    def stock_level(self) -> TxResult:
        db, rnd = self.dbms, self.rnd
        w_id = self._random_warehouse()
        d_id = self._random_district()
        threshold = rnd.threshold()
        tx = db.begin()
        d_rid = db.index_lookup("district_pk", (w_id, d_id))
        d_row = db.fetch_row("district", d_rid)
        next_o_id = d_row[_D_NEXT_O_ID]
        item_ids: set[int] = set()
        for o_id in range(max(1, next_o_id - 20), next_o_id):
            o_rid = db.index_lookup("order_pk", (w_id, d_id, o_id))
            if o_rid is None:
                continue
            order = db.fetch_row("orders", o_rid)
            if order is None:
                continue
            for line in self._read_order_lines(order):
                item_ids.add(line[_OL_I_ID])
        low = 0
        for i_id in item_ids:
            s_rid = db.index_lookup("stock_pk", (w_id, i_id))
            s_row = db.fetch_row("stock", s_rid)
            if s_row is not None and s_row[_S_QUANTITY] < threshold:
                low += 1
        db.commit(tx)
        return TxResult("stock_level", committed=True)
