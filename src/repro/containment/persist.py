"""A persistent, cross-process L2 for the validation cache.

The in-memory :class:`~repro.containment.cache.ValidationCache` dies
with the session that built it, so every serving process in a fleet pays
a full cold compile of the same model.  This module supplies the missing
durability layer: a :class:`PersistentCacheStore` is an on-disk,
fingerprint-keyed store (one SQLite file under a cache directory,
usually named by ``REPRO_CACHE_DIR``) that several processes open
concurrently.  Entries are exactly what the in-memory cache already
holds — containment verdicts, truth vectors, whole-check memos, and the
rollback-surviving counterexample pools — pickled under their structural
fingerprints, so the *keys* carry all the invalidation semantics and a
stale value can never be served across a model mutation.

Design points:

* **SQLite as the file format.**  One file, transactional writes, and
  the engine's own file locking arbitrates concurrent writers from
  different processes — no hand-rolled lockfiles or rename dances.  A
  generous ``busy_timeout`` absorbs write bursts from a fleet sharing
  one directory.
* **Versioned.**  A ``meta`` row stores a cache-schema tag combined with
  the repro package version; opening a file with a different tag wipes
  it (stale formats are never read, never crash).
* **Fail-open.**  Every operation traps ``sqlite3`` and unpickling
  errors: a corrupted or truncated file degrades to a cold miss (and a
  counted ``errors``), never a wrong verdict or an exception on the
  validation path.  A file that cannot even be opened is recreated.
* **Fingerprint-keyed, not model-keyed.**  Two processes validating two
  different models still share the subproblems their neighborhoods have
  in common — the store is one memo table for the whole fleet.

The store never interprets values; callers (the L1 cache) decide what is
worth persisting and when (see ``CacheTransaction``: entries computed
for a *rejected* candidate model are flushed only on commit, so the
store indexes only models that actually exist).
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import repro

#: bump when the table layout, the pickling discipline or the
#: fingerprint format of the keys changes (v2: cached leaf digests)
CACHE_SCHEMA_TAG = "repro-validation-cache-v2"

DEFAULT_FILENAME = "validation_cache.sqlite"

#: environment variable naming the shared cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def cache_dir_from_env() -> Optional[str]:
    """The fleet-shared cache directory, if ``REPRO_CACHE_DIR`` is set."""
    value = os.environ.get(CACHE_DIR_ENV)
    return value or None


@dataclass
class PersistentCacheStats:
    """What the on-disk store holds and how this handle used it."""

    path: str
    tag: str
    entries: int = 0
    counterexamples: int = 0
    bytes: int = 0
    reads: int = 0
    read_hits: int = 0
    writes: int = 0
    errors: int = 0

    def __str__(self) -> str:
        return (
            f"PersistentCacheStats(entries={self.entries}, "
            f"counterexamples={self.counterexamples}, bytes={self.bytes}, "
            f"reads={self.reads}, hits={self.read_hits}, "
            f"writes={self.writes}, errors={self.errors})"
        )


class PersistentCacheStore:
    """One handle onto the shared on-disk validation cache.

    Thread-safe (one connection guarded by a lock — the L1 cache calls
    in from any validation worker thread) and multi-process-safe (SQLite
    file locking plus ``busy_timeout``).  All methods fail open: an I/O,
    database or unpickling error is counted in ``errors`` and reported
    as a miss / no-op, never raised to the validation path.
    """

    _MISS = (False, None)

    def __init__(
        self, directory: str, filename: str = DEFAULT_FILENAME
    ) -> None:
        self.directory = directory
        self.path = os.path.join(directory, filename)
        self.tag = f"{CACHE_SCHEMA_TAG}:{repro.__version__}"
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self.reads = 0
        self.read_hits = 0
        self.writes = 0
        self.errors = 0
        self._open()

    # ------------------------------------------------------------------
    # Connection and schema lifecycle
    # ------------------------------------------------------------------
    def _open(self) -> None:
        """Open (creating or wiping as needed); never raises."""
        try:
            os.makedirs(self.directory, exist_ok=True)
            self._conn = self._connect()
            if not self._tag_matches():
                # stale or foreign format: recreate the file wholesale
                self._recreate()
        except (sqlite3.Error, OSError):
            self.errors += 1
            self._recreate()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        conn.execute("PRAGMA busy_timeout = 30000")
        try:
            conn.execute("PRAGMA journal_mode = WAL")
        except sqlite3.Error:
            pass  # WAL is an optimization, not a requirement
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            " namespace TEXT NOT NULL,"
            " key TEXT NOT NULL,"
            " value BLOB NOT NULL,"
            " PRIMARY KEY (namespace, key))"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS counterexamples ("
            " key TEXT NOT NULL,"
            " seq INTEGER NOT NULL,"
            " record BLOB NOT NULL,"
            " PRIMARY KEY (key, seq))"
        )
        conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('tag', ?)",
            (self.tag,),
        )
        conn.commit()
        return conn

    def _tag_matches(self) -> bool:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'tag'"
        ).fetchone()
        return row is not None and row[0] == self.tag

    def _recreate(self) -> None:
        """Drop the file and start over; on persistent failure, disable."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        try:
            if os.path.exists(self.path):
                os.remove(self.path)
            for suffix in ("-wal", "-shm"):
                leftover = self.path + suffix
                if os.path.exists(leftover):
                    os.remove(leftover)
            self._conn = self._connect()
        except (sqlite3.Error, OSError):
            self.errors += 1
            self._conn = None  # degraded: every call is a miss / no-op

    def _reset_on_error(self) -> None:
        """A read or write blew up mid-flight: count it and reopen.

        Reopening re-runs the tag check, so a file another process
        corrupted or truncated under us is wiped rather than retried
        forever.
        """
        self.errors += 1
        with self._lock:
            self._open()

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def get(self, namespace: str, key: str) -> Tuple[bool, object]:
        """``(found, value)`` — found is False on miss *or* any error."""
        self.reads += 1
        if self._conn is None:
            return self._MISS
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT value FROM entries WHERE namespace = ? AND key = ?",
                    (namespace, key),
                ).fetchone()
            if row is None:
                return self._MISS
            value = pickle.loads(row[0])
        except (sqlite3.Error, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError, TypeError,
                ValueError, MemoryError):
            self._reset_on_error()
            return self._MISS
        self.read_hits += 1
        return True, value

    def put(self, namespace: str, key: str, value: object) -> None:
        self.put_many([(namespace, key, value)])

    def put_many(
        self, items: Iterable[Tuple[str, str, object]]
    ) -> None:
        """Write a batch of entries in one transaction (atomic for
        concurrent readers; unpicklable values are skipped, counted)."""
        if self._conn is None:
            return
        rows = []
        for namespace, key, value in items:
            try:
                rows.append((namespace, key, pickle.dumps(value)))
            except Exception:  # noqa: BLE001 - unpicklable values skipped
                self.errors += 1
        if not rows:
            return
        try:
            with self._lock:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO entries (namespace, key, value)"
                    " VALUES (?, ?, ?)",
                    rows,
                )
                self._conn.commit()
            self.writes += len(rows)
        except sqlite3.Error:
            self._reset_on_error()

    # ------------------------------------------------------------------
    # Counterexample pools
    # ------------------------------------------------------------------
    def record_counterexample(
        self,
        key: str,
        record: Tuple[Tuple[str, ...], Tuple[str, ...], object],
        per_key_bound: int,
    ) -> None:
        """Append one failing-state record, newest first, bounded per key.

        Not transaction-deferred: like the in-memory pool, a
        counterexample found while validating a rejected candidate is
        genuine evidence (replay re-verifies legality), so it persists
        immediately.
        """
        if self._conn is None:
            return
        try:
            blob = pickle.dumps(record)
        except Exception:  # noqa: BLE001
            self.errors += 1
            return
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT COALESCE(MAX(seq), 0) FROM counterexamples"
                    " WHERE key = ?",
                    (key,),
                ).fetchone()
                seq = (row[0] if row else 0) + 1
                self._conn.execute(
                    "INSERT OR REPLACE INTO counterexamples (key, seq, record)"
                    " VALUES (?, ?, ?)",
                    (key, seq, blob),
                )
                self._conn.execute(
                    "DELETE FROM counterexamples WHERE key = ? AND seq <= ?",
                    (key, seq - per_key_bound),
                )
                self._conn.commit()
            self.writes += 1
        except sqlite3.Error:
            self._reset_on_error()

    def counterexamples(self, key: str) -> List[object]:
        """Persisted failing-state records for *key*, newest first."""
        self.reads += 1
        if self._conn is None:
            return []
        try:
            with self._lock:
                rows = self._conn.execute(
                    "SELECT record FROM counterexamples WHERE key = ?"
                    " ORDER BY seq DESC",
                    (key,),
                ).fetchall()
            records = [pickle.loads(row[0]) for row in rows]
        except (sqlite3.Error, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError, TypeError,
                ValueError, MemoryError):
            self._reset_on_error()
            return []
        if records:
            self.read_hits += 1
        return records

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stats(self) -> PersistentCacheStats:
        entries = counterexamples = size = 0
        if self._conn is not None:
            try:
                with self._lock:
                    entries = self._conn.execute(
                        "SELECT COUNT(*) FROM entries"
                    ).fetchone()[0]
                    counterexamples = self._conn.execute(
                        "SELECT COUNT(*) FROM counterexamples"
                    ).fetchone()[0]
                size = os.path.getsize(self.path)
            except (sqlite3.Error, OSError):
                self.errors += 1
        return PersistentCacheStats(
            path=self.path,
            tag=self.tag,
            entries=entries,
            counterexamples=counterexamples,
            bytes=size,
            reads=self.reads,
            read_hits=self.read_hits,
            writes=self.writes,
            errors=self.errors,
        )

    def clear(self) -> None:
        """Wipe every entry and counterexample (the file stays)."""
        if self._conn is None:
            self._open()
            if self._conn is None:
                return
        try:
            with self._lock:
                self._conn.execute("DELETE FROM entries")
                self._conn.execute("DELETE FROM counterexamples")
                self._conn.commit()
        except sqlite3.Error:
            self._reset_on_error()

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    def __str__(self) -> str:
        return f"PersistentCacheStore({self.path})"
