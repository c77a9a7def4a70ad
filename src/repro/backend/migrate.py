"""Lowering a mapping evolution to an executable store migration script.

An SMO batch produces (a) a :class:`MappingDelta` whose store-side ops
change the store schema and (b) a data migration defined semantically as
*read through the old query views, write through the new update views*
(Section 2.3: sound SMOs leave pre-existing data fixed under that
composition).  This module lowers both into one ordered script a real
database executes inside a single transaction:

1. **rebuilds** — tables whose definition changed are rebuilt SQLite
   style: create a twin under a scratch name, move the surviving columns
   across with ``INSERT ... SELECT`` (added columns arrive as NULL — the
   degenerate old-query-view∘new-update-view composition for data the
   soundness restriction proves unchanged), drop the old table (and
   with it its indexes), rename, then index the new table's keys;
2. **drops** — referrers before referees;
3. **creates** — referees before referrers, each with its key indexes;
4. **residual DML** — whatever row-level difference remains between the
   state the DDL steps produce and the true migrated state (computed
   through the views) becomes parameterized DELETE/UPDATE/INSERT steps.

The residual diff skips every table the target shares with the old
state (:meth:`~repro.relational.instances.StoreState.shares_table`):
the session's evolve adopts each table outside the SMO batch's stale
region into the target, and its undo targets the journal's
pre-migration state, which shares every table the evolve and later
writes left alone.  Either way the script, and the time to plan it,
cover only the region.

The planner is a pure function; execution (and rollback on failure) is
the backend's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.backend.ddl import (
    create_table_sql,
    creation_order,
    drop_order,
    drop_table_sql,
    key_index_sql,
)
from repro.backend.sqlgen import (
    CompiledSql,
    delete_statement,
    insert_statement,
    quote,
    script_text,
    update_statement,
)
from repro.query.dml import diff_store_states
from repro.relational.instances import StoreState, row_view
from repro.relational.schema import StoreSchema, Table

#: scratch-name prefix for table rebuilds
REBUILD_PREFIX = "__migrate__"


#: step kinds after which a table's own rows must match their parents
_FILLS = frozenset({"create", "copy", "update", "insert"})
#: step kinds that can take away the rows (or the table) others reference
_EMPTIES = frozenset({"drop", "delete", "update"})


@dataclass(frozen=True)
class MigrationStep:
    """One ordered statement of a migration script."""

    kind: str  # "create" | "drop" | "copy" | "rename" | "index" | "delete" | "update" | "insert"
    statement: CompiledSql
    #: the table the step acts on, by its name once the script is done
    table: str
    note: str = ""

    def __str__(self) -> str:
        suffix = f"  -- {self.note}" if self.note else ""
        return f"{self.statement.text}{suffix}"


@dataclass
class MigrationScript:
    """The ordered, transactional lowering of one evolution batch."""

    steps: List[MigrationStep] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.steps

    def ddl_steps(self) -> List[MigrationStep]:
        return [
            s
            for s in self.steps
            if s.kind in ("create", "drop", "copy", "rename", "index")
        ]

    def dml_steps(self) -> List[MigrationStep]:
        return [s for s in self.steps if s.kind in ("delete", "update", "insert")]

    def foreign_key_scope(self, schema: StoreSchema) -> List[str]:
        """The tables of *schema*, the schema the script leaves behind,
        whose foreign keys the script can break: each table it creates,
        rebuilds or writes rows into, and each table with a foreign key
        into one it rebuilds, drops, or deletes or updates rows of.
        Every other foreign key joins two tables the script left alone."""
        filled = {s.table for s in self.steps if s.kind in _FILLS}
        emptied = {s.table for s in self.steps if s.kind in _EMPTIES}
        return [
            table.name
            for table in schema.tables
            if table.name in filled
            or any(fk.ref_table in emptied for fk in table.foreign_keys)
        ]

    def to_sql(self) -> str:
        """The whole script as executable text (params inlined, framed by
        an explicit transaction for humans; backends bind params instead)."""
        body = script_text([s.statement for s in self.steps])
        return "BEGIN;\n" + (body + "\n" if body else "") + "COMMIT;"

    def summary(self) -> str:
        kinds: Dict[str, int] = {}
        for step in self.steps:
            kinds[step.kind] = kinds.get(step.kind, 0) + 1
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        return f"MigrationScript({len(self.steps)} steps: {rendered or 'empty'})"

    def __str__(self) -> str:
        return self.summary()


def plan_migration(
    old_schema: StoreSchema,
    new_schema: StoreSchema,
    old_store: StoreState,
    target_store: StoreState,
) -> MigrationScript:
    """Plan the script that turns (*old_schema*, *old_store*) into
    (*new_schema*, *target_store*).

    Schema changes are derived by comparing the two schemas (the net
    effect of the delta's AddTable/DropTable/ReplaceTable ops, however
    they composed inside a batch); data movement for rebuilt tables is an
    ``INSERT ... SELECT`` over the surviving columns, and any remaining
    row-level difference against *target_store* becomes parameterized
    DML.
    """
    script = MigrationScript()
    old_tables = {t.name: t for t in old_schema.tables}
    new_tables = {t.name: t for t in new_schema.tables}

    dropped = [t for name, t in old_tables.items() if name not in new_tables]
    created = [t for name, t in new_tables.items() if name not in old_tables]
    rebuilt = [
        (old_tables[name], table)
        for name, table in new_tables.items()
        if name in old_tables and old_tables[name] != table
    ]

    # 1. rebuilds (scratch twin + INSERT..SELECT + drop + rename)
    for old_table, new_table in sorted(rebuilt, key=lambda pair: pair[0].name):
        scratch = REBUILD_PREFIX + new_table.name
        script.steps.append(
            MigrationStep(
                "create",
                CompiledSql(create_table_sql(new_table, name=scratch), ()),
                new_table.name,
                note=f"rebuild {new_table.name}: new definition",
            )
        )
        shared = [
            c.name for c in new_table.columns if old_table.has_column(c.name)
        ]
        if shared:
            cols = ", ".join(quote(c) for c in shared)
            script.steps.append(
                MigrationStep(
                    "copy",
                    CompiledSql(
                        f"INSERT INTO {quote(scratch)} ({cols}) "
                        f"SELECT {cols} FROM {quote(old_table.name)}",
                        (),
                    ),
                    new_table.name,
                    note="old-query-view ∘ new-update-view on surviving columns",
                )
            )
        script.steps.append(
            MigrationStep(
                "drop",
                CompiledSql(drop_table_sql(old_table.name), ()),
                new_table.name,
                note=f"rebuild {new_table.name}: retire old definition",
            )
        )
        script.steps.append(
            MigrationStep(
                "rename",
                CompiledSql(
                    f"ALTER TABLE {quote(scratch)} RENAME TO "
                    f"{quote(new_table.name)}",
                    (),
                ),
                new_table.name,
            )
        )
        script.steps.extend(_index_steps(new_table))

    # 2. drops, referrers first
    for table in drop_order(dropped):
        script.steps.append(
            MigrationStep("drop", CompiledSql(drop_table_sql(table.name), ()), table.name)
        )

    # 3. creates, referees first
    for table in creation_order(created):
        script.steps.append(
            MigrationStep("create", CompiledSql(create_table_sql(table), ()), table.name)
        )
        script.steps.extend(_index_steps(table))

    # 4. residual DML against the state the DDL steps leave behind
    predicted = _predict_after_ddl(old_store, new_schema, dict(rebuilt_names(rebuilt)))
    residual = diff_store_states(predicted, target_store)
    for table_name in sorted(residual.tables):
        for row in residual.tables[table_name].deletes:
            script.steps.append(
                MigrationStep("delete", delete_statement(table_name, row), table_name)
            )
    for table_name in sorted(residual.tables):
        table = new_schema.table(table_name)
        for old_row, new_row in residual.tables[table_name].updates:
            script.steps.append(
                MigrationStep("update", update_statement(table, old_row, new_row), table_name)
            )
    for table_name in sorted(residual.tables):
        for row in residual.tables[table_name].inserts:
            script.steps.append(
                MigrationStep("insert", insert_statement(table_name, row), table_name)
            )
    return script


def _index_steps(table: Table) -> List[MigrationStep]:
    return [
        MigrationStep("index", CompiledSql(statement, ()), table.name)
        for statement in key_index_sql(table)
    ]


def rebuilt_names(
    rebuilt: List[Tuple[Table, Table]]
) -> List[Tuple[str, Tuple[Table, Table]]]:
    return [(new.name, (old, new)) for old, new in rebuilt]


def _predict_after_ddl(
    old_store: StoreState,
    new_schema: StoreSchema,
    rebuilt: Dict[str, Tuple[Table, Table]],
) -> StoreState:
    """The store state the DDL prefix of the script produces.

    Dropped tables vanish, created tables are empty, rebuilt tables keep
    their rows projected onto the surviving columns with NULL padding for
    added ones — exactly what the ``INSERT ... SELECT`` steps do.  Every
    other table is adopted from *old_store* by reference, so the residual
    diff skips each one the target shares with *old_store*.
    """
    predicted = StoreState(new_schema)
    for table in old_store.populated_tables():
        if not new_schema.has_table(table.name):
            continue  # dropped
        if table.name not in rebuilt:
            predicted.adopt_table(old_store, table.name)
            continue
        _, new_table = rebuilt[table.name]
        columns = sorted(new_table.column_names)
        for row in old_store.rows(table.name):
            values = row_view(row)
            predicted.add_row(
                table.name, tuple((name, values.get(name)) for name in columns)
            )
    return predicted


def migration_sql(
    old_schema: StoreSchema,
    new_schema: StoreSchema,
    old_store: Optional[StoreState] = None,
    target_store: Optional[StoreState] = None,
) -> str:
    """Convenience: plan and render in one step (empty stores by default)."""
    script = plan_migration(
        old_schema,
        new_schema,
        old_store if old_store is not None else StoreState(old_schema),
        target_store if target_store is not None else StoreState(new_schema),
    )
    return script.to_sql()
