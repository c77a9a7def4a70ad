"""The SQLite store backend: a live database behind the protocol.

Queries unfolded from the client run as generated SQL *inside the
engine* (:mod:`repro.backend.sqlgen`); SaveChanges deltas and migration
scripts execute inside a single transaction with foreign-key checking
deferred to commit, so a failed batch rolls back to exactly the prior
state; and PK/FK constraint checking is delegated to SQLite's native
enforcement — the runtime no longer re-verifies what the engine
guarantees (Section 1's division of labour between the ORM and the
DBMS).
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.algebra.evaluate import Bag, bag_of, bag_support
from repro.algebra.queries import Query
from repro.backend.base import ReadView, StoreBackend
from repro.backend.pool import ConnectionPool, PooledConnection, ReadWriteGate
from repro.backend.ddl import (
    create_table_sql,
    creation_order,
    drop_order,
    index_name,
    key_index_sql,
    secondary_keys,
)
from repro.backend.sqlgen import (
    CompiledSql,
    SqlCompiler,
    decode_value,
    grouped_delta_statements,
    quote,
)
from repro.cache import CacheStats, LruCache
from repro.errors import SchemaError, SmoError, ValidationError
from repro.query.dml import StoreDelta
from repro.query.dml import apply_delta as apply_store_delta
from repro.relational.instances import Row, StoreState
from repro.relational.schema import StoreSchema

#: FULL OUTER JOIN needs SQLite >= 3.39 (2022); guard with a clear error.
SUPPORTS_FULL_OUTER_JOIN = sqlite3.sqlite_version_info >= (3, 39, 0)

#: distinguishes shared-cache in-memory databases across backends
_MEMORY_DB_IDS = itertools.count(1)


#: live cursors one connection keeps prepared
STATEMENT_CACHE_SIZE = 128


@dataclass(frozen=True)
class StatementCacheStats(CacheStats):
    """The prepared-statement cache's counters plus the DML share of its
    traffic (SaveChanges deltas); the rest are SELECTs (query serving).
    A steady-state warm serving workload should show near-100% SELECT
    hits; DML misses are the one-time preparation of each distinct
    per-table statement text.
    """

    dml_hits: int = 0
    dml_misses: int = 0


def _close_cursor(cursor: sqlite3.Cursor) -> None:
    try:
        cursor.close()
    except sqlite3.ProgrammingError:
        pass  # connection already closed; cursor died with it


class StatementCache:
    """A bounded LRU of live cursors, keyed by SQL text.

    Each cursor keeps its most recent statement prepared, so re-executing
    a cached text skips cursor allocation and lets ``sqlite3`` reuse the
    compiled statement; SQLite transparently re-prepares after a schema
    change, and the backend clears the cache outright on migrations.
    Statements run strictly sequentially on one connection (fetchall
    before reuse), so cursor sharing per text is safe.
    """

    def __init__(self, connection: sqlite3.Connection) -> None:
        self._conn = connection
        self._cursors = LruCache(STATEMENT_CACHE_SIZE, on_evict=_close_cursor)
        self.dml_hits = 0
        self.dml_misses = 0

    def _cursor(self, text: str, kind: str) -> sqlite3.Cursor:
        cursor = self._cursors.get(text)
        if cursor is None:
            cursor = self._cursors.put(text, self._conn.cursor())
            if kind == "dml":
                self.dml_misses += 1
        elif kind == "dml":
            self.dml_hits += 1
        return cursor

    def execute(
        self, text: str, params: Sequence[object] = (), kind: str = "select"
    ) -> sqlite3.Cursor:
        cursor = self._cursor(text, kind)
        cursor.execute(text, tuple(params))
        return cursor

    def executemany(
        self, text: str, rows: Sequence[Sequence[object]], kind: str = "dml"
    ) -> sqlite3.Cursor:
        cursor = self._cursor(text, kind)
        cursor.executemany(text, rows)
        return cursor

    def clear(self) -> None:
        self._cursors.clear()

    def stats(self) -> StatementCacheStats:
        return self._cursors.stats(
            StatementCacheStats,
            dml_hits=self.dml_hits,
            dml_misses=self.dml_misses,
        )


class SqliteBackend(StoreBackend):
    """Store schema + rows held by a SQLite connection.

    Thread model: the *main* connection (the writer's) is guarded by an
    internal re-entrant lock — concurrent callers of any mutating or
    main-connection method serialize on it (``check_same_thread`` is off
    so the epoch engine's writer thread may differ from the constructing
    thread).  With ``pool_size`` > 0 the backend additionally owns a
    reader-connection pool: :meth:`read_view` leases one pooled
    connection (with its private statement cache) per request, so
    readers never touch the main connection and never share cursors.
    :meth:`exclusive` holds the pool's gate and the main connection's
    lock together, so it excludes every reader of either kind.
    Pooled in-memory databases use SQLite's shared-cache URI form so
    every connection sees the same data; the main connection anchors the
    database for its whole lifetime.
    """

    name = "sqlite"

    def __init__(
        self,
        schema: StoreSchema,
        db_path: Optional[str] = None,
        pool_size: int = 0,
    ) -> None:
        self._schema = schema
        self.db_path = db_path or ":memory:"
        self.pool_size = pool_size
        self._uri: Optional[str] = None
        if self.db_path == ":memory:" and pool_size:
            # a plain :memory: database is private per connection;
            # pooled readers need the shared-cache URI form
            self._uri = (
                f"file:repro-mem-{next(_MEMORY_DB_IDS)}"
                "?mode=memory&cache=shared"
            )
            self._conn = sqlite3.connect(
                self._uri, uri=True, check_same_thread=False
            )
        else:
            self._conn = sqlite3.connect(self.db_path, check_same_thread=False)
        self._conn.isolation_level = None  # explicit BEGIN/COMMIT below
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.execute("PRAGMA busy_timeout = 10000")
        #: serializes every use of the main connection (writers, loads)
        self._conn_lock = threading.RLock()
        #: drains in-flight pooled readers before mutations (shared-cache
        #: SQLite raises non-retryable SQLITE_LOCKED on DDL vs reader races)
        self._gate = ReadWriteGate()
        self._closed = False
        self._state_cache: Optional[StoreState] = None
        self._statements = StatementCache(self._conn)
        self._pool: Optional[ConnectionPool] = (
            ConnectionPool(
                self._make_reader, self._close_reader, max_size=pool_size
            )
            if pool_size
            else None
        )
        self._ensure_tables()

    # ------------------------------------------------------------------
    @property
    def schema(self) -> StoreSchema:
        return self._schema

    @property
    def connection(self) -> sqlite3.Connection:
        return self._conn

    # -- reader pool ---------------------------------------------------
    def _make_reader(self) -> PooledConnection:
        if self._uri is not None:
            conn = sqlite3.connect(self._uri, uri=True, check_same_thread=False)
        elif self.db_path == ":memory:":
            raise SchemaError(
                "cannot pool readers over a private :memory: database; "
                "construct the backend with pool_size > 0"
            )
        else:
            conn = sqlite3.connect(self.db_path, check_same_thread=False)
        conn.isolation_level = None
        conn.execute("PRAGMA busy_timeout = 10000")
        return PooledConnection(conn, StatementCache(conn))

    @staticmethod
    def _close_reader(leased: PooledConnection) -> None:
        leased.statements.clear()
        leased.connection.close()

    def read_view(self) -> "SqliteReadView":
        return SqliteReadView(self)

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Hold off every reader: pooled ones queue at the gate, and
        readers of the main connection at its lock.  Re-entrant on the
        holding thread."""
        with self._gate.write(), self._conn_lock:
            yield

    def _existing(self, kind: str = "table") -> set:
        cursor = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = ?", (kind,)
        )
        return {row[0] for row in cursor.fetchall()}

    def _ensure_tables(self) -> None:
        """Create any schema table or key index the database file does not
        yet hold.

        Attaching to a pre-existing database keeps its data; tables are
        matched by name (the DDL generator is deterministic, so a file
        produced by this backend always matches).  A file written before
        the backend indexed foreign keys gains those indexes here.
        """
        tables, indexes = self._existing(), self._existing("index")
        missing = [t for t in self._schema.tables if t.name not in tables]
        unindexed = [
            t
            for t in self._schema.tables
            if any(
                index_name(t.name, key) not in indexes
                for key in secondary_keys(t)
            )
        ]
        if not missing and not unindexed:
            return
        with self._transaction("initialize schema"):
            for table in creation_order(missing):
                self._conn.execute(create_table_sql(table))
            for table in unindexed:
                for statement in key_index_sql(table, if_not_exists=True):
                    self._conn.execute(statement)

    # -- transactions --------------------------------------------------
    def _transaction(self, label: str) -> "_Transaction":
        return _Transaction(self._conn, label)

    def _invalidate(self) -> None:
        self._state_cache = None

    # -- reading -------------------------------------------------------
    def rows(self, table_name: str) -> Tuple[Row, ...]:
        table = self._schema.table(table_name)
        bases = {c.name: c.domain.base for c in table.columns}
        names = table.column_names
        select_list = ", ".join(quote(c) for c in names)
        with self._conn_lock:
            cursor = self._conn.execute(
                f"SELECT {select_list} FROM {quote(table_name)}"
            )
            fetched = cursor.fetchall()
        result: List[Row] = []
        for values in fetched:
            decoded = tuple(
                sorted(
                    (name, decode_value(value, bases[name]))
                    for name, value in zip(names, values)
                )
            )
            result.append(decoded)
        return tuple(result)

    def run_query(self, query: Query) -> List[Dict[str, object]]:
        if not SUPPORTS_FULL_OUTER_JOIN and _has_full_outer(query):
            raise SchemaError(
                "this SQLite lacks FULL OUTER JOIN (needs >= 3.39); "
                "use the memory backend for partitioned views"
            )
        compiled = SqlCompiler(self._schema).compile(query)
        return bag_support(self.run_compiled(compiled, compiled.params))

    def run_compiled(
        self, compiled: CompiledSql, params: Optional[Tuple[object, ...]] = None
    ) -> Bag:
        """Execute an already-compiled SELECT (cached plans re-enter here
        with fresh parameter bindings) through the statement cache; the
        answer comes back as its bag (:func:`execute_compiled`)."""
        with self._conn_lock:
            return execute_compiled(self._statements, compiled, params)

    def run_plan(self, plan, values: Tuple[object, ...]) -> List[Bag]:
        """Run a cached plan's parameterized statements on the main
        connection: one bag per branch."""
        with self._conn_lock:
            return _run_statements(self._statements, plan, self._schema, values)

    def statement_cache_stats(self) -> StatementCacheStats:
        return self._statements.stats()

    def snapshot(self) -> Dict[str, FrozenSet[Row]]:
        """Every non-empty table as the database holds it, read through
        SQL rather than from the mirror, so a check against it sees what
        a statement did (or failed to do) to the data itself."""
        with self._conn_lock:
            tables = {t.name: self.rows(t.name) for t in self._schema.tables}
        return {name: frozenset(rows) for name, rows in tables.items() if rows}

    def to_store_state(self) -> StoreState:
        with self._conn_lock:
            if self._state_cache is None:
                state = StoreState(self._schema)
                for table in self._schema.tables:
                    for row in self.rows(table.name):
                        state.add_row(table.name, row)
                self._state_cache = state
            return self._state_cache

    # -- writing -------------------------------------------------------
    def apply_delta(self, delta: StoreDelta) -> None:
        # Identical-text runs (per-table deletes/updates/inserts) execute
        # as one prepared statement via executemany instead of per row.
        groups = grouped_delta_statements(delta, self._schema)
        with self.exclusive():
            try:
                with self._transaction("save-changes"):
                    for text, rows in groups:
                        if len(rows) == 1:
                            self._statements.execute(text, rows[0], kind="dml")
                        else:
                            self._statements.executemany(text, rows, kind="dml")
            except sqlite3.IntegrityError as exc:
                raise ValidationError(
                    f"update would violate store constraints: {exc}",
                    check="save-changes",
                ) from exc
            # maintain the state cache incrementally: an applied delta
            # touches exactly the rows it names, so the cached state can
            # absorb it without re-reading the database (the incremental
            # write path would otherwise pay a full scan per save here)
            if self._state_cache is not None:
                self._state_cache = apply_store_delta(self._state_cache, delta)

    def migrate(self, script, new_schema: StoreSchema, target: StoreState) -> None:
        with self.exclusive():
            self._migrate_locked(script, new_schema, target)

    def _migrate_locked(
        self, script, new_schema: StoreSchema, target: StoreState
    ) -> None:
        # Table rebuilds (drop parent + rename twin) defeat SQLite's
        # deferred-FK counters, so this follows SQLite's documented
        # schema-change procedure instead: FK enforcement off for the
        # transaction, an explicit ``foreign_key_check`` before COMMIT,
        # and rollback if anything dangles.  Only the tables whose foreign
        # keys the script can break are checked; every other pair of
        # tables is as consistent as enforcement left it.
        self._conn.execute("PRAGMA foreign_keys = OFF")
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                for step in script.steps:
                    self._conn.execute(
                        step.statement.text, step.statement.params
                    )
                for name in script.foreign_key_scope(new_schema):
                    dangling = self._conn.execute(
                        f"PRAGMA foreign_key_check({quote(name)})"
                    ).fetchall()
                    if dangling:
                        table, rowid, ref_table, _ = dangling[0]
                        raise sqlite3.IntegrityError(
                            f"FOREIGN KEY constraint failed "
                            f"({table} row {rowid} -> {ref_table})"
                        )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        except sqlite3.IntegrityError as exc:
            raise ValidationError(
                f"migration would violate store constraints: {exc}",
                check="migration",
            ) from exc
        except sqlite3.Error as exc:
            raise SmoError(f"migration script failed: {exc}") from exc
        finally:
            self._conn.execute("PRAGMA foreign_keys = ON")
        self._schema = new_schema
        self._statements.clear()  # prepared statements may span DDL'd tables
        # the script turned the mirror's contents into exactly *target*,
        # which shares every table the migration left alone with the
        # mirror, so the next evolve reads no table twice
        self._state_cache = target

    def replace_contents(self, state: StoreState) -> None:
        """Reset the database to exactly *state* (schema included)."""
        with self.exclusive():
            self._replace_contents_locked(state)

    def _replace_contents_locked(self, state: StoreState) -> None:
        # FK enforcement cannot be toggled mid-transaction; drops are
        # ordered instead so enforcement can stay on throughout.
        with self._transaction("reset"):
            existing = self._existing()
            known = [t for t in self._schema.tables if t.name in existing]
            for table in drop_order(known):
                self._conn.execute(f"DROP TABLE {quote(table.name)}")
                existing.discard(table.name)
            for name in sorted(existing):  # tables of an older schema
                self._conn.execute(f"DROP TABLE {quote(name)}")
            ordered = creation_order(state.schema.tables)
            for table in ordered:
                self._conn.execute(create_table_sql(table))
            for table in ordered:
                rows = state.rows(table.name)
                if not rows:
                    continue
                names = [name for name, _ in rows[0]]
                columns = ", ".join(quote(n) for n in names)
                marks = ", ".join("?" for _ in names)
                self._conn.executemany(
                    f"INSERT INTO {quote(table.name)} ({columns}) "
                    f"VALUES ({marks})",
                    [tuple(value for _, value in row) for row in rows],
                )
            # key indexes after the bulk insert: one sorted build each
            # instead of per-row upkeep
            for table in ordered:
                for statement in key_index_sql(table):
                    self._conn.execute(statement)
        self._schema = state.schema
        self._statements.clear()
        self._invalidate()

    def close(self) -> None:
        """Release the pool and the main connection; safe to call twice
        (the service tier closes backends on shutdown *and* on tenant
        eviction, whichever comes first)."""
        with self._conn_lock:
            if self._closed:
                return
            self._closed = True
            if self._pool is not None:
                self._pool.close()
            self._statements.clear()
            self._conn.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __str__(self) -> str:
        return f"SqliteBackend({self.db_path!r})"


def execute_compiled(
    statements: StatementCache,
    compiled: CompiledSql,
    params: Optional[Tuple[object, ...]] = None,
) -> Bag:
    """Run one compiled SELECT through a statement cache, decode rows
    with evaluator semantics and count them into a bag whose support is
    ``evaluate_query``'s answer (shared by the main connection and every
    pooled reader, so both decode byte-identically)."""
    cursor = statements.execute(
        compiled.text, compiled.params if params is None else params
    )
    typing = compiled.decoders()
    columns = compiled.columns
    return bag_of(
        {
            name: decode_value(value, typing.get(name))
            for name, value in zip(columns, values)
        }
        for values in cursor.fetchall()
    )


def _run_statements(
    statements: StatementCache,
    plan,
    schema: StoreSchema,
    values: Tuple[object, ...],
) -> List[Bag]:
    """Execute each branch's cached parameterized statement of *plan*
    with *values* bound: one bag per branch."""
    return [
        execute_compiled(statements, compiled, params)
        for _branch, compiled, params in plan.bound_sql(schema, values)
    ]


class _LeasedReader:
    """A reader over one leased pooled connection.

    Lives exactly as long as one request; cached plans run through
    :meth:`run_plan` on the private connection.  The schema is read from
    the owning backend *live*; the lease holds off every migration, so
    it is the schema of the data the statements read.
    """

    def __init__(self, backend: SqliteBackend, leased: PooledConnection) -> None:
        self._backend = backend
        self._leased = leased

    def run_plan(self, plan, values: Tuple[object, ...]) -> List[Bag]:
        return _run_statements(
            self._leased.statements, plan, self._backend.schema, values
        )


class SqliteReadView(ReadView):
    """Live read view over a :class:`SqliteBackend`.

    Not a snapshot: SQLite serves whatever is committed, so every view
    of one backend reads the same data.  With a pool, :meth:`acquire`
    holds the backend's gate shared and leases one pooled connection per
    request (check-in clears its statement cache, so cursors never
    migrate between worker threads); without one, readers serialize on
    the main connection under the backend's lock.  Either way no
    :meth:`SqliteBackend.exclusive` holder runs while a lease is out.
    """

    snapshot = False

    def __init__(self, backend: SqliteBackend) -> None:
        self._backend = backend

    @contextmanager
    def acquire(self) -> Iterator[object]:
        backend = self._backend
        pool = backend._pool
        if pool is None:
            with backend._conn_lock:
                yield backend
            return
        with backend._gate.read():
            leased = pool.checkout()
            try:
                yield _LeasedReader(backend, leased)
            finally:
                pool.checkin(leased)


class _Transaction:
    """``BEGIN IMMEDIATE`` + deferred FK checking; rollback on any error."""

    def __init__(self, conn: sqlite3.Connection, label: str) -> None:
        self.conn = conn
        self.label = label

    def __enter__(self) -> sqlite3.Connection:
        self.conn.execute("BEGIN IMMEDIATE")
        # re-check all foreign keys at COMMIT instead of per statement:
        # migration scripts drop+rename parent tables mid-transaction.
        self.conn.execute("PRAGMA defer_foreign_keys = ON")
        return self.conn

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            try:
                self.conn.execute("COMMIT")
            except sqlite3.Error:
                self.conn.execute("ROLLBACK")
                raise
            return False
        self.conn.execute("ROLLBACK")
        return False


def _has_full_outer(query: Query) -> bool:
    from repro.algebra.queries import FullOuterJoin

    return any(isinstance(node, FullOuterJoin) for node in query.walk())
