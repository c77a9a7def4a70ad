"""The relational store schema: tables, columns, keys and foreign keys.

A relational schema is "a restricted EDM schema, with no inheritance or
associations" (Section 2).  Each table has a primary key and may have
foreign keys mapping one or more of its columns to the key of another
table; foreign-key preservation is the central validation obligation of
the incremental compiler (Sections 3.1.4 and 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Optional, Tuple

from repro.edm.types import Domain, STRING
from repro.errors import SchemaError
from repro.fingerprint import digest_leaf


@dataclass(frozen=True)
class Column:
    """A table column: name, domain, nullability."""

    name: str
    domain: Domain = field(default=STRING)
    nullable: bool = True

    def __str__(self) -> str:
        suffix = "?" if self.nullable else ""
        return f"{self.name}: {self.domain}{suffix}"


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key: columns of the owning table → key columns of a target.

    ``columns`` and ``ref_columns`` are positionally aligned.  The paper
    writes this as ``β → γ`` with the semantics ``π_β(R) ⊆ π_γ(S)`` on
    non-null values.
    """

    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise SchemaError(
                f"foreign key arity mismatch: {self.columns} vs {self.ref_columns}"
            )
        if not self.columns:
            raise SchemaError("foreign key must have at least one column")

    def __str__(self) -> str:
        return f"FK({', '.join(self.columns)}) -> {self.ref_table}({', '.join(self.ref_columns)})"


@digest_leaf
@dataclass(frozen=True)
class Table:
    """A store table with a primary key and optional foreign keys."""

    name: str
    columns: Tuple[Column, ...]
    primary_key: Tuple[str, ...]
    foreign_keys: Tuple[ForeignKey, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        if not self.primary_key:
            raise SchemaError(f"table {self.name!r} must declare a primary key")
        for key_col in self.primary_key:
            column = self._column_or_none(key_col)
            if column is None:
                raise SchemaError(f"primary key column {key_col!r} missing in {self.name!r}")
            if column.nullable:
                raise SchemaError(
                    f"primary key column {key_col!r} of {self.name!r} must not be nullable"
                )
        for foreign_key in self.foreign_keys:
            for col in foreign_key.columns:
                if self._column_or_none(col) is None:
                    raise SchemaError(
                        f"foreign key column {col!r} missing in table {self.name!r}"
                    )

    def _column_or_none(self, name: str) -> Optional[Column]:
        for column in self.columns:
            if column.name == name:
                return column
        return None

    def column(self, name: str) -> Column:
        column = self._column_or_none(name)
        if column is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return column

    def has_column(self, name: str) -> bool:
        return self._column_or_none(name) is not None

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @cached_property
    def row_check(self) -> Tuple[frozenset, Dict[str, Column]]:
        """What a row must satisfy, derived once per table: the column
        names it must assign exactly, and each column by name."""
        return frozenset(self.column_names), {c.name: c for c in self.columns}

    def __getstate__(self) -> dict:
        # the cached row check is rebuilt on first use, never pickled
        return {k: v for k, v in self.__dict__.items() if k != "row_check"}

    def __str__(self) -> str:
        cols = ", ".join(str(c) for c in self.columns)
        fks = "; ".join(str(fk) for fk in self.foreign_keys)
        key = ", ".join(self.primary_key)
        rendered = f"{self.name}({cols}) PK({key})"
        return f"{rendered} {fks}" if fks else rendered


class StoreSchema:
    """A mutable registry of tables.

    Mutable because SMOs add tables (e.g. a TPT ``AddEntity`` creates the
    new store table); :meth:`clone` supports rollback on failed validation.
    """

    def __init__(self, tables: Iterable[Table] = ()) -> None:
        self._tables: Dict[str, Table] = {}
        for table in tables:
            self.add_table(table)

    def add_table(self, table: Table) -> Table:
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        return table

    def drop_table(self, name: str) -> Table:
        if name not in self._tables:
            raise SchemaError(f"table {name!r} does not exist")
        for other in self._tables.values():
            if other.name == name:
                continue
            for foreign_key in other.foreign_keys:
                if foreign_key.ref_table == name:
                    raise SchemaError(
                        f"cannot drop {name!r}: {other.name!r} has {foreign_key}"
                    )
        return self._tables.pop(name)

    def replace_table(self, table: Table) -> Table:
        """Swap in a revised definition of an existing table (AddProperty)."""
        if table.name not in self._tables:
            raise SchemaError(f"table {table.name!r} does not exist")
        self._tables[table.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def tables(self) -> Tuple[Table, ...]:
        return tuple(self._tables.values())

    def validate(self) -> None:
        """Check referential well-formedness of all foreign keys."""
        for table in self._tables.values():
            for foreign_key in table.foreign_keys:
                if foreign_key.ref_table not in self._tables:
                    raise SchemaError(
                        f"{table.name!r}: {foreign_key} references unknown table"
                    )
                target = self._tables[foreign_key.ref_table]
                if tuple(target.primary_key) != tuple(foreign_key.ref_columns):
                    raise SchemaError(
                        f"{table.name!r}: {foreign_key} must reference the primary key "
                        f"of {target.name!r} ({target.primary_key})"
                    )

    def clone(self) -> "StoreSchema":
        other = StoreSchema()
        other._tables = dict(self._tables)
        return other

    def __str__(self) -> str:
        lines = ["StoreSchema:"]
        lines.extend(f"  {t}" for t in self._tables.values())
        return "\n".join(lines)
