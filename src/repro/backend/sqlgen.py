"""Compiling the view algebra to parameterized SQL.

The in-memory evaluator (:mod:`repro.algebra.evaluate`) defines the
reference semantics of the store-side algebra: natural joins on the
static shared columns, NULL join keys never matching, COALESCE merging of
shared non-join columns, UNION ALL padding, and a *two-valued* condition
semantics (an atom over a NULL or missing column is plainly false).  This
module compiles the same algebra to SQL that a real engine executes with
identical results:

* a condition atom under an odd number of ``NOT``s is wrapped so it
  can never yield SQL's UNKNOWN — ``ifnull(x > ?, 0)`` — where the
  evaluator's false turns true; every other atom renders plainly
  (``x > ?``), so an index can serve it.  A ``WHERE`` clause keeps a row
  only when its condition is TRUE, ``AND``/``OR`` are monotone and Kleene
  logic is regular, so an UNKNOWN atom of positive polarity rejects the
  row exactly when the evaluator's two-valued false does;
* atoms over columns the subquery does not produce fold to ``0`` at
  compile time (the evaluator's ``KeyError -> False`` rule);
* joins are emitted with explicit ``ON`` equalities and COALESCE
  projections, reproducing the evaluator's merge behaviour;
* bool columns are tracked through the tree (SQLite stores them as 0/1)
  so results decode back to Python ``True``/``False`` byte-identically.

All values travel as ``?`` parameters; identifiers are double-quoted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.conditions import (
    And,
    Comparison,
    Condition,
    FalseCond,
    IsNotNull,
    IsNull,
    IsOf,
    IsOfOnly,
    Not,
    Or,
    TrueCond,
)
from repro.algebra.queries import (
    AssociationScan,
    Const,
    FullOuterJoin,
    Join,
    LeftOuterJoin,
    Project,
    Query,
    Select,
    SetScan,
    TableScan,
    UnionAll,
)
from repro.errors import EvaluationError
from repro.relational.instances import Row
from repro.relational.schema import StoreSchema, Table


def quote(identifier: str) -> str:
    """Double-quote an SQL identifier."""
    return '"' + identifier.replace('"', '""') + '"'


@dataclass(frozen=True)
class CompiledSql:
    """One executable statement: text, positional params, result shape."""

    text: str
    params: Tuple[object, ...]
    columns: Tuple[str, ...] = ()
    #: output column -> domain base ("int", "bool", ...) where known
    typing: Tuple[Tuple[str, Optional[str]], ...] = ()

    def decoders(self) -> Dict[str, Optional[str]]:
        return dict(self.typing)

    def __str__(self) -> str:
        return f"{self.text}  -- params={list(self.params)}"


def decode_value(value: object, base: Optional[str]) -> object:
    """Undo SQLite's storage coercions (bools come back as 0/1)."""
    if base == "bool" and isinstance(value, int) and not isinstance(value, bool):
        return bool(value)
    return value


def decode_row(row: Dict[str, object], typing: Dict[str, Optional[str]]) -> Dict[str, object]:
    return {
        name: decode_value(value, typing.get(name)) for name, value in row.items()
    }


# ---------------------------------------------------------------------------
# Query compilation
# ---------------------------------------------------------------------------

@dataclass
class _Part:
    """An intermediate SELECT: full statement text + result shape."""

    sql: str
    columns: Tuple[str, ...]
    typing: Dict[str, Optional[str]]


class SqlCompiler:
    """Compiles store-side algebra queries against one :class:`StoreSchema`."""

    def __init__(self, schema: StoreSchema) -> None:
        self.schema = schema
        self._params: List[object] = []
        self._alias = 0

    # -- public entry points -------------------------------------------
    def compile(self, query: Query) -> CompiledSql:
        self._params = []
        self._alias = 0
        part = self._compile(query)
        return CompiledSql(
            part.sql,
            tuple(self._params),
            part.columns,
            tuple(part.typing.items()),
        )

    # -- helpers -------------------------------------------------------
    def _next_alias(self) -> str:
        self._alias += 1
        return f"q{self._alias}"

    def _compile(self, query: Query) -> _Part:
        if isinstance(query, TableScan):
            return self._table_scan(query)
        if isinstance(query, (SetScan, AssociationScan)):
            raise EvaluationError(
                f"cannot compile client-side scan {query} to store SQL"
            )
        if isinstance(query, Select):
            return self._select(query)
        if isinstance(query, Project):
            return self._project(query)
        if isinstance(query, Join):
            return self._join(query, "JOIN")
        if isinstance(query, LeftOuterJoin):
            return self._join(query, "LEFT JOIN")
        if isinstance(query, FullOuterJoin):
            return self._join(query, "FULL OUTER JOIN")
        if isinstance(query, UnionAll):
            return self._union(query)
        raise EvaluationError(f"unknown query node {query!r}")

    def _table_scan(self, query: TableScan) -> _Part:
        table = self.schema.table(query.table_name)
        columns = table.column_names
        typing = {c.name: c.domain.base for c in table.columns}
        select_list = ", ".join(quote(c) for c in columns)
        return _Part(
            f"SELECT {select_list} FROM {quote(table.name)}", columns, typing
        )

    def _select(self, query: Select) -> _Part:
        source = self._compile(query.source)
        alias = self._next_alias()
        condition = self._condition(query.condition, set(source.columns), alias)
        select_list = ", ".join(f"{alias}.{quote(c)}" for c in source.columns)
        sql = (
            f"SELECT {select_list} FROM ({source.sql}) AS {alias} "
            f"WHERE {condition}"
        )
        return _Part(sql, source.columns, source.typing)

    def _project(self, query: Project) -> _Part:
        source = self._compile(query.source)
        alias = self._next_alias()
        items: List[str] = []
        typing: Dict[str, Optional[str]] = {}
        for item in query.items:
            if isinstance(item.expr, Const):
                items.append(
                    f"{self._const(item.expr.value)} AS {quote(item.output)}"
                )
                typing[item.output] = _const_base(item.expr.value)
            else:
                name = item.expr.name
                if name not in source.columns:
                    raise EvaluationError(
                        f"projection references missing column {name!r} "
                        f"(subquery has {sorted(source.columns)})"
                    )
                items.append(f"{alias}.{quote(name)} AS {quote(item.output)}")
                typing[item.output] = source.typing.get(name)
        sql = f"SELECT {', '.join(items)} FROM ({source.sql}) AS {alias}"
        return _Part(sql, query.output_names, typing)

    def _join(self, query, keyword: str) -> _Part:
        left = self._compile(query.left)
        right = self._compile(query.right)
        la, ra = self._next_alias(), self._next_alias()
        shared = tuple(c for c in left.columns if c in right.columns)
        if query.on is not None:
            missing = [c for c in query.on if c not in shared]
            if missing:
                raise EvaluationError(
                    f"join columns {missing} are not shared by both inputs"
                )
            join_columns = query.on
        else:
            join_columns = shared
        coalesced = set(c for c in shared if c not in join_columns)
        full = keyword == "FULL OUTER JOIN"
        # Output columns mirror evaluate.output_columns: left + right-only.
        items: List[str] = []
        typing: Dict[str, Optional[str]] = {}
        columns: List[str] = []
        for c in left.columns:
            if c in coalesced or (full and c in join_columns):
                items.append(
                    f"COALESCE({la}.{quote(c)}, {ra}.{quote(c)}) AS {quote(c)}"
                )
            else:
                items.append(f"{la}.{quote(c)} AS {quote(c)}")
            typing[c] = left.typing.get(c) or right.typing.get(c)
            columns.append(c)
        for c in right.columns:
            if c in shared:
                continue
            items.append(f"{ra}.{quote(c)} AS {quote(c)}")
            typing[c] = right.typing.get(c)
            columns.append(c)
        if join_columns:
            on = " AND ".join(
                f"{la}.{quote(c)} = {ra}.{quote(c)}" for c in join_columns
            )
        else:
            on = "1 = 1"  # natural join with no shared columns: cross product
        sql = (
            f"SELECT {', '.join(items)} FROM ({left.sql}) AS {la} "
            f"{keyword} ({right.sql}) AS {ra} ON {on}"
        )
        return _Part(sql, tuple(columns), typing)

    def _union(self, query: UnionAll) -> _Part:
        parts = [self._compile(branch) for branch in query.branches]
        columns: List[str] = []
        typing: Dict[str, Optional[str]] = {}
        for part in parts:
            for c in part.columns:
                if c not in columns:
                    columns.append(c)
                if typing.get(c) is None:
                    typing[c] = part.typing.get(c)
        blocks = []
        for part in parts:
            alias = self._next_alias()
            items = ", ".join(
                f"{alias}.{quote(c)} AS {quote(c)}"
                if c in part.columns
                else f"NULL AS {quote(c)}"
                for c in columns
            )
            blocks.append(f"SELECT {items} FROM ({part.sql}) AS {alias}")
        return _Part(" UNION ALL ".join(blocks), tuple(columns), typing)

    # -- scalars -------------------------------------------------------
    def _const(self, value: object) -> str:
        if value is None:
            return "NULL"
        if value is True:
            return "1"
        if value is False:
            return "0"
        self._params.append(value)
        return "?"

    # -- conditions ----------------------------------------------------
    def _condition(
        self,
        condition: Condition,
        available: set,
        alias: str,
        negated: bool = False,
    ) -> str:
        """Render *condition* as an SQL boolean expression that a ``WHERE``
        clause keeps exactly when the two-valued evaluator holds.

        *negated* is the atom polarity: true under an odd number of
        ``NOT``s, where an UNKNOWN atom must read as false (``ifnull``).
        """
        if isinstance(condition, TrueCond):
            return "1"
        if isinstance(condition, FalseCond):
            return "0"
        if isinstance(condition, (IsOf, IsOfOnly)):
            raise EvaluationError(
                "IS OF atoms cannot be compiled to store SQL"
            )
        if isinstance(condition, IsNull):
            if condition.attr not in available:
                return "0"  # evaluator: missing attribute -> False
            return f"{alias}.{quote(condition.attr)} IS NULL"
        if isinstance(condition, IsNotNull):
            if condition.attr not in available:
                return "0"
            return f"{alias}.{quote(condition.attr)} IS NOT NULL"
        if isinstance(condition, Comparison):
            return self._comparison(condition, available, alias, negated)
        if isinstance(condition, (And, Or)):
            joiner = " AND " if isinstance(condition, And) else " OR "
            rendered = [
                self._condition(op, available, alias, negated)
                for op in condition.operands
            ]
            return "(" + joiner.join(rendered) + ")"
        if isinstance(condition, Not):
            operand = self._condition(
                condition.operand, available, alias, not negated
            )
            return f"NOT ({operand})"
        raise EvaluationError(f"unknown condition node {condition!r}")

    def _comparison(
        self, condition: Comparison, available: set, alias: str, negated: bool
    ) -> str:
        if condition.attr not in available:
            return "0"
        column = f"{alias}.{quote(condition.attr)}"
        if condition.const is None:
            # the evaluator compares against None with ==/!= only
            if condition.op == "=":
                return "0"
            if condition.op == "!=":
                return f"{column} IS NOT NULL"
            raise EvaluationError(
                f"cannot order-compare against NULL: {condition}"
            )
        self._params.append(condition.const)
        if negated:
            # ifnull(..., 0): a NULL column makes the atom false, so the
            # enclosing NOT turns it true, as the evaluator does
            return f"ifnull({column} {condition.op} ?, 0)"
        return f"{column} {condition.op} ?"


def compile_query(query: Query, schema: StoreSchema) -> CompiledSql:
    """Compile a store-side algebra query to one parameterized SELECT."""
    return SqlCompiler(schema).compile(query)


def _const_base(value: object) -> Optional[str]:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, str):
        return "string"
    return None


# ---------------------------------------------------------------------------
# DML statements (rows travel as parameters)
# ---------------------------------------------------------------------------

def insert_statement(table_name: str, row: Row) -> CompiledSql:
    columns = ", ".join(quote(name) for name, _ in row)
    marks = ", ".join("?" for _ in row)
    return CompiledSql(
        f"INSERT INTO {quote(table_name)} ({columns}) VALUES ({marks})",
        tuple(value for _, value in row),
    )


def delete_statement(table_name: str, row: Row) -> CompiledSql:
    """Delete exactly this row (``IS ?`` matches NULL-valued columns)."""
    clauses = " AND ".join(f"{quote(name)} IS ?" for name, _ in row)
    return CompiledSql(
        f"DELETE FROM {quote(table_name)} WHERE {clauses}",
        tuple(value for _, value in row),
    )


def update_statement(table: Table, old_row: Row, new_row: Row) -> CompiledSql:
    """Rewrite the row with *old_row*'s primary key to *new_row*'s values."""
    key = set(table.primary_key)
    old = dict(old_row)
    sets = [(name, value) for name, value in new_row if name not in key]
    assignments = ", ".join(f"{quote(name)} = ?" for name, _ in sets)
    where = " AND ".join(f"{quote(name)} = ?" for name in table.primary_key)
    params = tuple(value for _, value in sets) + tuple(
        old[name] for name in table.primary_key
    )
    return CompiledSql(
        f"UPDATE {quote(table.name)} SET {assignments} WHERE {where}", params
    )


def delta_statements(delta, schema: StoreSchema) -> List[CompiledSql]:
    """Lower a :class:`~repro.query.dml.StoreDelta` to ordered statements.

    Deletes first, then updates, then inserts — and within each verb the
    tables run in foreign-key topology order (deletes visit referrers
    before referees, inserts referees before referrers).  Foreign-key
    checking is deferred to commit anyway, but the topological order
    keeps every intermediate point of the script consistent too, so the
    same script replays safely on engines without deferred checking.
    Tables whose :class:`~repro.query.dml.TableDelta` is empty contribute
    nothing (the incremental write path records touched tables even when
    their net row change cancels out).
    """
    # late import: ddl builds on this module's quoting helpers
    from repro.backend.ddl import creation_order, drop_order

    touched = [
        schema.table(name)
        for name in sorted(delta.tables)
        if not delta.tables[name].empty
    ]
    statements: List[CompiledSql] = []
    for table in drop_order(touched):
        for row in delta.tables[table.name].deletes:
            statements.append(delete_statement(table.name, row))
    for table in creation_order(touched):
        for old_row, new_row in delta.tables[table.name].updates:
            statements.append(update_statement(table, old_row, new_row))
    for table in creation_order(touched):
        for row in delta.tables[table.name].inserts:
            statements.append(insert_statement(table.name, row))
    return statements


def grouped_delta_statements(
    delta, schema: StoreSchema
) -> List[Tuple[str, List[Tuple[object, ...]]]]:
    """Delta statements as order-preserving ``(text, [params, ...])`` groups.

    Consecutive statements with identical SQL text (the per-table delete /
    update / insert runs of :func:`delta_statements`) collapse into one
    group, so the backend can hand each group to ``executemany`` — one
    prepared statement per table per verb instead of one per row.  Groups
    are never empty: a table with no net changes emits no statements at
    all rather than an empty parameter batch.
    """
    groups: List[Tuple[str, List[Tuple[object, ...]]]] = []
    for statement in delta_statements(delta, schema):
        if groups and groups[-1][0] == statement.text:
            groups[-1][1].append(statement.params)
        else:
            groups.append((statement.text, [statement.params]))
    return [group for group in groups if group[1]]


def script_text(statements: Sequence[CompiledSql]) -> str:
    """Human-readable rendering of a statement list (params inlined)."""
    lines = []
    for statement in statements:
        text = statement.text
        for value in statement.params:
            text = text.replace("?", _inline_literal(value), 1)
        lines.append(text + ";")
    return "\n".join(lines)


def _inline_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "1"
    if value is False:
        return "0"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)
