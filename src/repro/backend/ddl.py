"""Generating relational DDL from a :class:`StoreSchema`.

Emits ``CREATE TABLE`` statements with primary keys, ``NOT NULL``
markers, ``CHECK`` constraints for finite domains (the gender-style
restricted domains of Section 3.3) and ``FOREIGN KEY`` clauses, ordered
so that referenced tables are created before their referrers.  The same
ordering logic, reversed, sequences ``DROP TABLE`` statements.

Every table is indexed on its declared keys — the primary key and each
foreign key's columns (:func:`~repro.relational.instances.declared_keys`),
the same columns the memory backend keeps indexed.  The primary key
brings its own index; :func:`key_index_sql` emits a ``CREATE INDEX`` for
each foreign key the primary key does not already lead with, so a
parent row's delete probes its referrers instead of scanning them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.backend.sqlgen import quote, _inline_literal
from repro.edm.types import Domain
from repro.relational.instances import declared_keys
from repro.relational.schema import Column, StoreSchema, Table

#: domain base -> SQLite column type
SQL_TYPES = {
    "int": "INTEGER",
    "string": "TEXT",
    "bool": "BOOLEAN",
    "decimal": "NUMERIC",
    "date": "TEXT",
}


def column_type(domain: Domain) -> str:
    return SQL_TYPES[domain.base]


def column_ddl(column: Column) -> str:
    parts = [quote(column.name), column_type(column.domain)]
    if not column.nullable:
        parts.append("NOT NULL")
    if column.domain.values is not None:
        rendered = ", ".join(
            _inline_literal(v) for v in sorted(column.domain.values, key=repr)
        )
        # NULL IN (...) is UNKNOWN, which CHECK treats as pass — so the
        # constraint only restricts non-null values, like Domain.contains.
        parts.append(f"CHECK ({quote(column.name)} IN ({rendered}))")
    return " ".join(parts)


def create_table_sql(table: Table, name: Optional[str] = None) -> str:
    """``CREATE TABLE`` for *table*; *name* overrides the table name
    (used by rebuild migrations that create a temporary twin)."""
    lines = [column_ddl(column) for column in table.columns]
    key = ", ".join(quote(c) for c in table.primary_key)
    lines.append(f"PRIMARY KEY ({key})")
    for fk in table.foreign_keys:
        cols = ", ".join(quote(c) for c in fk.columns)
        refs = ", ".join(quote(c) for c in fk.ref_columns)
        lines.append(
            f"FOREIGN KEY ({cols}) REFERENCES {quote(fk.ref_table)} ({refs})"
        )
    body = ",\n  ".join(lines)
    return f"CREATE TABLE {quote(name or table.name)} (\n  {body}\n)"


def drop_table_sql(name: str) -> str:
    return f"DROP TABLE {quote(name)}"


def secondary_keys(table: Table) -> List[Tuple[str, ...]]:
    """The declared keys of *table* that need an index of their own:
    every one but those the primary key leads with, whose index serves
    an equality probe on them already."""
    key = table.primary_key
    return sorted(
        columns
        for columns in declared_keys(table)
        if set(columns) != set(key[: len(columns)])
    )


def index_name(table_name: str, columns: Sequence[str]) -> str:
    return f"{table_name}({', '.join(columns)})"


def key_index_sql(table: Table, if_not_exists: bool = False) -> List[str]:
    """``CREATE INDEX`` for each of *table*'s :func:`secondary_keys`."""
    guard = "IF NOT EXISTS " if if_not_exists else ""
    return [
        f"CREATE INDEX {guard}{quote(index_name(table.name, columns))} "
        f"ON {quote(table.name)} ({', '.join(quote(c) for c in columns)})"
        for columns in secondary_keys(table)
    ]


def creation_order(tables: Iterable[Table]) -> List[Table]:
    """Topologically sort so referenced tables come before referrers.

    Self-references are ignored; on a reference cycle the remaining
    tables are appended in name order (SQLite resolves foreign keys by
    name at DML time, so creation order is only a nicety there).
    """
    tables = list(tables)
    by_name: Dict[str, Table] = {t.name: t for t in tables}
    deps: Dict[str, Set[str]] = {
        t.name: {
            fk.ref_table
            for fk in t.foreign_keys
            if fk.ref_table != t.name and fk.ref_table in by_name
        }
        for t in tables
    }
    ordered: List[Table] = []
    placed: Set[str] = set()
    while len(ordered) < len(tables):
        ready = sorted(
            name
            for name, wants in deps.items()
            if name not in placed and wants <= placed
        )
        if not ready:  # cycle: emit the rest deterministically
            ready = sorted(name for name in deps if name not in placed)
        for name in ready:
            ordered.append(by_name[name])
            placed.add(name)
    return ordered


def drop_order(tables: Iterable[Table]) -> List[Table]:
    """Referrers before referees — safe deletion order."""
    return list(reversed(creation_order(tables)))


def schema_ddl(schema: StoreSchema) -> List[str]:
    """All ``CREATE TABLE`` statements for *schema*, dependency-ordered,
    then every table's key indexes."""
    ordered = creation_order(schema.tables)
    return [create_table_sql(t) for t in ordered] + [
        statement for t in ordered for statement in key_index_sql(t)
    ]


def schema_ddl_text(schema: StoreSchema) -> str:
    return ";\n\n".join(schema_ddl(schema)) + ";"


def statements_text(statements: Sequence[str]) -> str:
    return ";\n".join(statements) + (";" if statements else "")
