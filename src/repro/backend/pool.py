"""A bounded connection pool for thread-affine store engines.

SQLite connections are cheap but not shareable across threads without
care: cursors belong to the connection that made them, and interleaving
two threads on one connection corrupts statement state.  The serving
tier therefore checks a :class:`PooledConnection` out *per request*:
each pooled connection carries its own prepared-statement cache, exactly
one thread uses it at a time, and check-in clears the statement cache so
no cursor ever crosses a thread boundary (a cursor created by worker A
must not be re-executed by worker B — SQLite permits it only when
``check_same_thread`` is off, and even then the fetch state would be
shared).

Ownership rules (documented in ``docs/architecture.md``):

* the **backend owns the pool**; closing the backend closes every idle
  pooled connection and marks the pool closed (idempotently);
* a **checkout leases** one connection to one worker for the duration of
  one logical request; the worker must check it back in (the engine does
  this in a ``finally``);
* connections returned to a closed pool are closed instead of pooled.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class PoolClosed(Exception):
    """Checkout attempted on a pool that has been closed."""


class ReadWriteGate:
    """A write-preferring readers/writer gate.

    Pooled readers hold the gate *shared* for the duration of one leased
    request; backend mutations hold it *exclusive*.  SQLite's shared-cache
    mode raises ``SQLITE_LOCKED`` (which ``busy_timeout`` does **not**
    retry) when DDL races an in-flight reader on another connection, so
    the writer drains readers first: once a writer announces itself, new
    readers queue behind it — writers can never starve under sustained
    read traffic.  Reads themselves never block each other.  The write
    side is re-entrant: the thread holding it may take it again, and
    readers wait for its outermost release.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        #: the thread holding (or draining readers for) the write side
        self._writer: Optional[int] = None
        self._depth = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer is not None:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                while self._writer is not None:  # one writer in the gate
                    self._cond.wait()
                self._writer = me
                while self._readers:
                    self._cond.wait()
            self._depth += 1
        try:
            yield
        finally:
            with self._cond:
                self._depth -= 1
                if not self._depth:
                    self._writer = None
                    self._cond.notify_all()


class PooledConnection:
    """One leased connection plus its private statement cache.

    ``statements`` is engine-specific (for SQLite a
    :class:`~repro.backend.sqlite.StatementCache`); the pool only
    requires it to expose ``clear()``.
    """

    __slots__ = ("connection", "statements")

    def __init__(self, connection, statements) -> None:
        self.connection = connection
        self.statements = statements


class ConnectionPool:
    """A bounded pool of :class:`PooledConnection`\\ s.

    *factory* builds a fresh :class:`PooledConnection` on demand;
    *closer* releases one for good.  At most *max_size* connections ever
    exist; when all are leased, :meth:`checkout` blocks until one is
    returned (serving traffic beyond the pool width queues instead of
    opening unbounded connections).
    """

    def __init__(
        self,
        factory: Callable[[], PooledConnection],
        closer: Callable[[PooledConnection], None],
        max_size: int = 8,
    ) -> None:
        if max_size < 1:
            raise ValueError("pool needs max_size >= 1")
        self._factory = factory
        self._closer = closer
        self.max_size = max_size
        self._idle: "queue.Queue[PooledConnection]" = queue.Queue()
        self._lock = threading.Lock()
        self._created = 0
        self._closed = False
        self.checkouts = 0
        self.waits = 0

    # ------------------------------------------------------------------
    def checkout(self, timeout: Optional[float] = None) -> PooledConnection:
        """Lease a connection, creating one if under the bound."""
        with self._lock:
            if self._closed:
                raise PoolClosed("connection pool is closed")
            self.checkouts += 1
            try:
                return self._idle.get_nowait()
            except queue.Empty:
                pass
            if self._created < self.max_size:
                self._created += 1
                make = True
            else:
                make = False
                self.waits += 1
        if make:
            try:
                return self._factory()
            except BaseException:
                with self._lock:
                    self._created -= 1
                raise
        return self._idle.get(timeout=timeout)

    def checkin(self, leased: PooledConnection) -> None:
        """Return a leased connection; its statement cache is cleared so
        cursors never survive into another worker's lease."""
        leased.statements.clear()
        with self._lock:
            if self._closed:
                self._created -= 1
                self._closer(leased)
                return
        self._idle.put(leased)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every idle connection; idempotent.  Leased connections
        are closed as they come back."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while True:
            try:
                leased = self._idle.get_nowait()
            except queue.Empty:
                break
            with self._lock:
                self._created -= 1
            self._closer(leased)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        with self._lock:
            return {
                "max_size": self.max_size,
                "created": self._created,
                "idle": self._idle.qsize(),
                "checkouts": self.checkouts,
                "waits": self.waits,
                "closed": self._closed,
            }

    def __str__(self) -> str:
        return f"ConnectionPool({self.stats()})"
