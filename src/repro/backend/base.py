"""The pluggable store-backend protocol.

The paper's compiled views exist precisely so an ORM can run against a
real relational DBMS (EF over SQL Server, Section 1).  A
:class:`StoreBackend` is the seam where our runtime meets a store engine:
the :class:`~repro.session.OrmSession` speaks only this protocol, so
queries (unfolded to store algebra), SaveChanges deltas, and SMO data
migrations execute identically over the in-memory interpreter
(:class:`~repro.backend.memory.MemoryBackend`) or a live SQLite database
(:class:`~repro.backend.sqlite.SqliteBackend`), and later backends
(a server DBMS, shards) only need to implement this surface.

Contract highlights:

* :meth:`run_query` takes a *store-side* algebra query (tables scans,
  σ/π/⋈/∪) and returns evaluator-identical row dicts — same columns,
  same Python values (bools stay bools), set semantics;
* :meth:`apply_delta` is transactional: on a constraint violation it
  raises :class:`~repro.errors.ValidationError` and changes nothing;
* :meth:`migrate` executes a planned :class:`MigrationScript` plus the
  store-schema swap as one transaction with the same all-or-nothing
  guarantee;
* :meth:`exclusive` holds off every live reader; the epoch engine
  publishes each epoch inside it (a no-op on snapshot engines);
* :meth:`to_store_state` materializes the contents as a
  :class:`StoreState` and may cache it — the session's ``store_state``
  property is this method, so repeated reads of an unchanged store are
  free and identity-stable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.algebra.queries import Query
from repro.errors import SchemaError
from repro.query.dml import StoreDelta
from repro.relational.instances import Row, StoreState
from repro.relational.schema import StoreSchema

#: environment variable selecting the default backend for new sessions
BACKEND_ENV = "REPRO_BACKEND"
BACKEND_NAMES = ("memory", "sqlite")


class StoreBackend:
    """Abstract store engine behind an :class:`OrmSession`."""

    #: short engine name ("memory" / "sqlite")
    name: str = "?"

    @property
    def schema(self) -> StoreSchema:
        raise NotImplementedError

    # -- reading -------------------------------------------------------
    def rows(self, table_name: str) -> Tuple[Row, ...]:
        """Canonical rows of one table."""
        raise NotImplementedError

    def run_query(self, query: Query) -> List[Dict[str, object]]:
        """Execute a store-side algebra query with evaluator semantics."""
        raise NotImplementedError

    def to_store_state(self) -> StoreState:
        """Materialize (and possibly cache) the contents as a StoreState."""
        raise NotImplementedError

    def snapshot(self) -> Dict[str, FrozenSet[Row]]:
        return self.to_store_state().snapshot()

    def row_count(self) -> int:
        return self.to_store_state().row_count()

    # -- writing -------------------------------------------------------
    def apply_delta(self, delta: StoreDelta) -> None:
        """Apply a SaveChanges delta transactionally; raise
        :class:`ValidationError` (and change nothing) on a constraint
        violation."""
        raise NotImplementedError

    def migrate(self, script, new_schema: StoreSchema, target: StoreState) -> None:
        """Execute a migration script + schema swap as one transaction."""
        raise NotImplementedError

    def replace_contents(self, state: StoreState) -> None:
        """Reset schema and data wholesale (undo, bulk load)."""
        raise NotImplementedError

    # -- concurrent reading --------------------------------------------
    def read_view(self) -> "ReadView":
        """A handle the epoch engine publishes for concurrent readers.

        A snapshot engine returns a view pinned to the data as of this
        call; a live engine returns a view whose :meth:`ReadView.acquire`
        leases the store's current data (and whatever per-reader
        resources, such as a pooled connection, one request needs).
        """
        raise NotImplementedError

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Hold the store against every live reader.

        While the calling thread holds it, no :meth:`ReadView.acquire`
        lease of a live view is granted or outstanding; it is re-entrant
        on that thread, and the mutating methods take it themselves.
        The epoch engine publishes each epoch inside it, so a live reader
        sees either the old epoch with the old data or the new epoch with
        the new data.  A snapshot engine's readers pin their own state,
        so for it this is a no-op.
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def close(self) -> None:
        """Release engine resources (no-op by default)."""


class ReadView:
    """Protocol of what :meth:`StoreBackend.read_view` returns.

    When ``snapshot`` is True the view pins immutable data and a reader
    needs no further coordination; when False the data is live, and a
    lease excludes the store's :meth:`StoreBackend.exclusive` holder, so
    the data and the current epoch cannot change while it is held.
    """

    snapshot: bool = False

    @contextmanager
    def acquire(self) -> Iterator[object]:
        """Lease a reader for one request.

        The reader's ``run_plan(plan, values)`` is the one way a
        :class:`~repro.query.plancache.CachedPlan` executes: it returns
        one :data:`~repro.algebra.evaluate.Bag` per branch.  A snapshot
        reader also has ``to_store_state()``, the state it pins.
        """
        raise NotImplementedError
        yield  # pragma: no cover


def default_backend_name() -> str:
    """The session default: ``$REPRO_BACKEND`` or ``memory``."""
    name = os.environ.get(BACKEND_ENV, "memory").strip().lower() or "memory"
    if name not in BACKEND_NAMES:
        raise SchemaError(
            f"unknown backend {name!r} in ${BACKEND_ENV}; "
            f"expected one of {BACKEND_NAMES}"
        )
    return name


def create_backend(
    name: Optional[str],
    schema: StoreSchema,
    store_state: Optional[StoreState] = None,
    db_path: Optional[str] = None,
    pool_size: int = 0,
) -> StoreBackend:
    """Build a backend by name (``None`` -> the environment default).

    *pool_size* > 0 provisions a reader-connection pool for engines with
    thread-affine connections (SQLite); the memory backend ignores it —
    its snapshot views need no pooling.
    """
    from repro.backend.memory import MemoryBackend
    from repro.backend.sqlite import SqliteBackend

    resolved = (name or default_backend_name()).strip().lower()
    if resolved == "memory":
        return MemoryBackend(store_state or StoreState(schema))
    if resolved == "sqlite":
        backend = SqliteBackend(schema, db_path=db_path, pool_size=pool_size)
        if store_state is not None and store_state.row_count():
            backend.replace_contents(store_state)
        return backend
    raise SchemaError(
        f"unknown backend {resolved!r}; expected one of {BACKEND_NAMES}"
    )
