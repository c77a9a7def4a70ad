"""Update translation: propagating client-state changes to the store.

Section 1.1: "An update U expressed on the object-oriented view of data
must be translated into updates on the relational view that have exactly
the effect of U and preserve database consistency."  With compiled update
views V this is purely functional: the store effect of changing the
client state from c to c′ is the row-set difference

    inserts = V(c′) ∖ V(c)        deletes = V(c) ∖ V(c′)

per table, which is what an ORM's SaveChanges emits as INSERT/DELETE (an
UPDATE being a delete+insert of rows sharing a key).  This module computes
those deltas and applies them, and classifies key-preserving pairs as
updates for readability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.edm.instances import ClientState
from repro.mapping.roundtrip import apply_update_views
from repro.mapping.views import CompiledViews
from repro.relational.instances import Row, StoreState, row_values
from repro.relational.schema import StoreSchema


@dataclass
class TableDelta:
    """Row changes for one table, with key-preserving pairs as updates."""

    table: str
    inserts: List[Row] = field(default_factory=list)
    deletes: List[Row] = field(default_factory=list)
    #: (old_row, new_row) pairs sharing the primary key
    updates: List[Tuple[Row, Row]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.inserts or self.deletes or self.updates)

    def statement_count(self) -> int:
        return len(self.inserts) + len(self.deletes) + len(self.updates)

    def __str__(self) -> str:
        return (
            f"{self.table}: +{len(self.inserts)} -{len(self.deletes)} "
            f"~{len(self.updates)}"
        )


@dataclass
class StoreDelta:
    """The complete store effect of one client-state change."""

    tables: Dict[str, TableDelta] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return all(d.empty for d in self.tables.values())

    def statement_count(self) -> int:
        return sum(d.statement_count() for d in self.tables.values())

    def __str__(self) -> str:
        parts = [str(d) for d in self.tables.values() if not d.empty]
        return "StoreDelta(" + "; ".join(parts) + ")" if parts else "StoreDelta(empty)"


def translate_update(
    views: CompiledViews,
    old_state: ClientState,
    new_state: ClientState,
    store_schema: StoreSchema,
) -> StoreDelta:
    """The store delta realising the client change old_state → new_state."""
    old_store = apply_update_views(views, old_state, store_schema)
    new_store = apply_update_views(views, new_state, store_schema)
    return diff_store_states(old_store, new_store)


def classify_rows(table, fresh, gone) -> TableDelta:
    """Classify changed rows of one table into inserts/deletes/updates.

    Rows of *fresh* and *gone* sharing a primary key become update pairs.
    Shared by :func:`diff_store_states` and the incremental write path
    (:mod:`repro.ivm.writeplan`), so both produce identically classified
    and ordered DML for the same row changes.
    """

    def key_of(row: Row) -> Tuple[object, ...]:
        return row_values(row, table.primary_key)

    gone_by_key = {key_of(r): r for r in gone}
    table_delta = TableDelta(table.name)
    # sort by repr: rows may mix None with values of any type
    for row in sorted(fresh, key=repr):
        old_row = gone_by_key.pop(key_of(row), None)
        if old_row is not None:
            table_delta.updates.append((old_row, row))
        else:
            table_delta.inserts.append(row)
    table_delta.deletes.extend(sorted(gone_by_key.values(), key=repr))
    return table_delta


def diff_store_states(old: StoreState, new: StoreState) -> StoreDelta:
    """Per-table row diff, pairing rows that share a primary key.

    Tables the two states share (:meth:`StoreState.shares_table`) are
    equal by construction and skipped, so diffing a successor that
    adopted every table outside a region costs O(region).  Tables absent
    from *new*'s schema are skipped too: a migration's DDL drops them
    with their rows, so no DML names them.
    """
    delta = StoreDelta()
    table_names = {t.name for t in old.populated_tables()} | {
        t.name for t in new.populated_tables()
    }
    for table_name in sorted(table_names):
        if old.shares_table(new, table_name) or not new.schema.has_table(
            table_name
        ):
            continue
        table = new.schema.table(table_name)
        old_rows: Set[Row] = set(old.rows(table_name))
        new_rows: Set[Row] = set(new.rows(table_name))
        table_delta = classify_rows(table, new_rows - old_rows, old_rows - new_rows)
        if not table_delta.empty:
            delta.tables[table_name] = table_delta
    return delta


def apply_delta(store_state: StoreState, delta: StoreDelta) -> StoreState:
    """A new store state with *delta* applied (deletes, updates, inserts).

    Cost is O(|delta|): tables the delta does not touch are shared by
    reference (:meth:`StoreState.adopt_table`), and each touched table
    becomes a successor that shares every chunk, map partition and index
    bucket its delta does not touch (:meth:`StoreState.carry_rows`).
    The input state is left unchanged.
    """
    result = StoreState(store_state.schema)
    touched = {name for name, td in delta.tables.items() if not td.empty}
    for table in store_state.populated_tables():
        if table.name not in touched:
            result.adopt_table(store_state, table.name)
    for table_name in sorted(touched):
        table_delta = delta.tables[table_name]
        dead: Set[Row] = set(table_delta.deletes)
        dead.update(old for old, _ in table_delta.updates)
        # surviving rows were validated when first added; only the
        # delta's new rows go through add_row's domain checks
        result.carry_rows(store_state, table_name, dead)
        for row in table_delta.inserts:
            result.add_row(table_name, row)
        for _, row in table_delta.updates:
            result.add_row(table_name, row)
    return result


def to_sql(delta: StoreDelta) -> str:
    """Render the delta as INSERT/DELETE/UPDATE statements (display only)."""
    statements: List[str] = []
    for table_name, table_delta in delta.tables.items():
        for old, new in table_delta.updates:
            sets = ", ".join(
                f"{k} = {v!r}" for k, v in new if dict(old).get(k) != v
            )
            keys = " AND ".join(f"{k} = {v!r}" for k, v in old)
            statements.append(f"UPDATE {table_name} SET {sets} WHERE {keys};")
        for row in table_delta.deletes:
            keys = " AND ".join(f"{k} = {v!r}" for k, v in row)
            statements.append(f"DELETE FROM {table_name} WHERE {keys};")
        for row in table_delta.inserts:
            columns = ", ".join(k for k, _ in row)
            values = ", ".join(repr(v) for _, v in row)
            statements.append(
                f"INSERT INTO {table_name} ({columns}) VALUES ({values});"
            )
    return "\n".join(statements)
