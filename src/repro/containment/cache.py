"""Fingerprint inputs and a fingerprint-keyed validation cache.

The incremental compiler's whole premise (Section 1.2) is that most of a
mapping survives each SMO unchanged, so most validation work is
re-derivable from earlier compilations.  This module supplies the
machinery for *memoised* validation: the inputs of a check (algebra
ASTs, conditions, mapping fragments and the schema neighborhood they
read), hashed by :func:`repro.fingerprint.fingerprint`, and a
thread-safe cache keyed by those fingerprints.  A check whose complete
input fingerprint is unchanged since a previous run is a cache hit; any
mutation of a fragment, condition, view or referenced schema element
changes the fingerprint and forces a recomputation — stale results can
never be served across a mutation.

The cache is deliberately *value-based*: keys are content hashes, not
object identities, so a structurally identical subproblem posed through
freshly rebuilt condition/query objects (as every SMO re-validation does)
still hits the entry of the original.

Used for :func:`repro.containment.checker.check_containment` results,
:class:`repro.compiler.analysis.SetAnalysis` cell enumerations,
:meth:`repro.containment.spaces.ConditionSpace.truth_vectors`, and the
per-check memos of :mod:`repro.compiler.validation`.  One
:class:`ValidationCache` is held by an ORM session so that re-validation
of untouched neighborhoods across a sequence of SMOs becomes a hit.

The in-memory memo is the **L1**; an optional
:class:`~repro.containment.persist.PersistentCacheStore` plugs in as a
write-through **L2** so the memo outlives the process: a fresh session
(or a second serving process sharing the same ``REPRO_CACHE_DIR``)
starts warm instead of paying a cold compile.  L2 probes happen only on
an L1 miss; L2 writes respect :class:`CacheTransaction` bracketing —
entries computed for a *rejected* candidate model are never flushed to
disk, exactly as they are evicted from L1 on rollback.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.cache import CacheStats, LruCache

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Fingerprint inputs
# ---------------------------------------------------------------------------

def store_table_tokens(store_schema, table_name: str) -> Tuple[object, ...]:
    """Everything a per-table check reads from the store schema."""
    return ("table", store_schema.table(table_name))


def client_slice_tokens(
    schema,
    sets: Sequence[str] = (),
    assocs: Sequence[str] = (),
    types: Sequence[str] = (),
) -> Tuple[object, ...]:
    """The schema *neighborhood* a client-side check depends on.

    Covers the named entity sets (with their concrete types), the named
    associations, every association constraining a named set (canonical
    state legality depends on their multiplicity lower bounds), and every
    type reached with its whole ancestor chain — the chain's entity types
    hold the inherited attributes, the root's key and each link's
    abstractness — so any schema mutation visible to the check changes
    the fingerprint.  The sets, associations and types are model leaves,
    so the fingerprint reuses their cached digests.
    """
    set_names = sorted(set(sets))
    type_names = set(types)
    for set_name in set_names:
        type_names.update(schema.concrete_types_of_set(set_name))
    assoc_names = set(assocs)
    for association in schema.associations:
        if association.entity_set1 in set_names or association.entity_set2 in set_names:
            assoc_names.add(association.name)
    for name in sorted(assoc_names):
        association = schema.association(name)
        type_names.add(association.end1.entity_type)
        type_names.add(association.end2.entity_type)

    tokens: list = []
    for set_name in set_names:
        entity_set = schema.entity_set(set_name)
        tokens.append(("set", entity_set, schema.concrete_types_of_set(set_name)))
    for name in sorted(assoc_names):
        tokens.append(("assoc", schema.association(name)))
    for type_name in sorted(type_names):
        chain = schema.ancestors_or_self(type_name)
        tokens.append(("type", tuple(schema.entity_type(t) for t in chain)))
    return tuple(tokens)


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationCacheStats(CacheStats):
    """The L1's counters plus the optional persistent store's.

    ``l2_hits`` are L1 misses answered from disk (also counted in
    ``hits`` — the caller got a memoised value either way), ``l2_misses``
    are computes that really ran, ``l2_writes``/``l2_errors`` mirror the
    store's own write/failure counters.  All zero when no store is
    attached.
    """

    l2_hits: int = 0
    l2_misses: int = 0
    l2_writes: int = 0
    l2_errors: int = 0


class CacheTransaction:
    """Records the keys inserted while one compilation attempt runs.

    Obtained from :meth:`ValidationCache.begin_transaction`; on
    :meth:`~ValidationCache.rollback` every recorded insertion is evicted.
    Entries computed against a model that was subsequently *rejected*
    (validation abort) are fingerprinted against state that never became
    real — harmless for correctness (a conflicting later model fingerprints
    differently) but they would occupy the cache forever and could be
    served to a byte-identical retry of the rejected evolution.  Rolling
    them back keeps the cache an index over models that actually exist.

    When a persistent L2 store is attached, ``pending`` defers the
    write-through of entries computed inside the transaction: they are
    flushed to disk only on commit (merged outward under nesting), and
    simply discarded on rollback — the on-disk cache indexes only models
    that were actually accepted.
    """

    __slots__ = ("inserted", "pending")

    def __init__(self) -> None:
        self.inserted: set = set()
        self.pending: dict = {}


class ValidationCache:
    """A thread-safe, fingerprint-keyed memo for validation subproblems.

    Entries are namespaced (``"containment"``, ``"truth-vectors"``,
    ``"validation-check"``, ...) so unrelated result types never collide.
    Failed computations (raised exceptions) are never cached: a check that
    fails is always recomputed, and a mutation that *would make* a check
    fail necessarily changes its fingerprint, so a stale success can never
    mask a new failure.

    :meth:`begin_transaction` / :meth:`commit` / :meth:`rollback` bracket
    one compilation attempt: insertions made while a transaction is open
    are recorded, and a rollback (SMO aborted) evicts them, so the cache
    never retains entries fingerprinted against a rejected model.

    The memo is LRU-bounded (*max_entries*, default generous): long-lived
    sessions under sustained SMO traffic shed their least recently touched
    entries instead of growing without limit; ``evictions`` in
    :class:`CacheStats` counts what the bound discarded.
    """

    #: bound on persisted failing states per check fingerprint
    COUNTEREXAMPLES_PER_KEY = 4
    #: bound on the global most-recent pool shared across checks
    RECENT_COUNTEREXAMPLES = 8
    #: default LRU bound — generous (a full customer-scale validation is
    #: a few thousand entries) but finite, so sessions under sustained
    #: SMO traffic cannot grow without limit
    DEFAULT_MAX_ENTRIES = 16384

    def __init__(
        self, max_entries: Optional[int] = None, store=None
    ) -> None:
        self.max_entries = (
            self.DEFAULT_MAX_ENTRIES if max_entries is None else max_entries
        )
        self._l1 = LruCache(self.max_entries)
        #: the L1's lock also guards transactions, the counterexample
        #: pools and the L2 counters; never call the L1 while holding it
        self._lock = self._l1.lock
        self._transactions: list = []
        # Failing states per check fingerprint + a small global recency
        # pool.  Deliberately *not* transaction-tracked: a counterexample
        # found while validating a rejected evolution is still genuine
        # evidence (replay re-verifies legality against the live schema),
        # and surviving the rollback is what makes a retried bad SMO
        # fail-fast instead of re-enumerating.
        self._counterexamples: Dict[str, list] = {}
        self._recent_counterexamples: list = []
        #: optional persistent L2 (a PersistentCacheStore); probed on L1
        #: misses, written through on compute (deferred under transactions)
        self.store = store
        #: check fingerprints whose persisted counterexamples were loaded
        self._ce_probed: set = set()
        self.l2_hits = 0
        self.l2_misses = 0

    # The L1 counts every build as a miss; a build the L2 answered is a
    # hit to the caller, so it moves from one column to the other.  Each
    # L2 hit is counted after its L1 miss, so reading it first keeps the
    # difference non-negative under concurrent builds.
    @property
    def hits(self) -> int:
        l2_hits = self.l2_hits
        return self._l1.hits + l2_hits

    @property
    def misses(self) -> int:
        l2_hits = self.l2_hits
        return self._l1.misses - l2_hits

    def get_or_compute(
        self, namespace: str, key: str, compute: Callable[[], T]
    ) -> T:
        """Return the cached value for (namespace, key), computing on miss.

        ``compute`` runs outside the lock so concurrent workers are never
        serialised on each other's computations; on a race both compute
        and the first value stored wins (results are deterministic, so
        the values are equal).

        With a persistent store attached, an L1 miss probes the L2 before
        computing.  An L2 hit counts as a *hit* (the value was memoised,
        just not in this process) and is promoted into L1 without being
        transaction-tracked — it is already durable, so a rollback has
        nothing to undo for it.  A genuine compute is written through to
        the L2: immediately when no transaction is open, else deferred
        into the innermost transaction and flushed on commit.
        """
        full_key = (namespace, key)
        source = None

        def build():
            nonlocal source
            if self.store is not None:
                found, value = self.store.get(namespace, key)
                if found:
                    source = "l2"
                    return value
            value = compute()
            source = "compute"
            return value

        value = self._l1.get_or_build(full_key, build)
        if source is None:
            return value
        flush = False
        with self._lock:
            if source == "l2":
                self.l2_hits += 1
                return value
            for transaction in self._transactions:
                transaction.inserted.add(full_key)
            if self.store is not None:
                self.l2_misses += 1
                if self._transactions:
                    self._transactions[-1].pending[full_key] = value
                else:
                    flush = True
        if flush:
            self.store.put(namespace, key, value)
        return value

    # -- transactional bracketing -----------------------------------
    def begin_transaction(self) -> CacheTransaction:
        transaction = CacheTransaction()
        with self._lock:
            self._transactions.append(transaction)
        return transaction

    def commit(self, transaction: CacheTransaction) -> None:
        """Keep the transaction's insertions; stop recording into it.

        Deferred L2 writes flush to the store now — unless an enclosing
        transaction is still open, in which case they merge outward (the
        outer attempt could still be rolled back)."""
        flush: dict = {}
        with self._lock:
            if transaction in self._transactions:
                self._transactions.remove(transaction)
            if transaction.pending:
                if self._transactions:
                    outer = self._transactions[-1].pending
                    for full_key, value in transaction.pending.items():
                        outer.setdefault(full_key, value)
                else:
                    flush = transaction.pending
                transaction.pending = {}
        if flush and self.store is not None:
            self.store.put_many(
                (namespace, key, value)
                for (namespace, key), value in flush.items()
            )

    def rollback(self, transaction: CacheTransaction) -> None:
        """Evict every entry inserted while the transaction was open.

        Deferred L2 writes are simply dropped: the disk cache never
        learns about entries fingerprinted against a rejected model."""
        with self._lock:
            if transaction in self._transactions:
                self._transactions.remove(transaction)
            transaction.pending = {}
        for full_key in transaction.inserted:
            self._l1.discard(full_key)

    # -- counterexample persistence ----------------------------------
    def record_counterexample(
        self, key: str, sets: Sequence[str], assocs: Sequence[str], state: object
    ) -> None:
        """Persist a failing client state for the check fingerprinted *key*.

        ``sets``/``assocs`` name the sources the state populates so replay
        can re-materialise it under a possibly evolved schema.  Newest
        states sit first; per-key and global pools are bounded.

        Written through to the persistent store immediately — never
        transaction-deferred, matching the in-memory pools' deliberate
        rollback survival: a failing state is genuine evidence whichever
        candidate model surfaced it (replay re-verifies legality).
        """
        record = (tuple(sets), tuple(assocs), state)
        with self._lock:
            pool = self._counterexamples.setdefault(key, [])
            pool[:] = [r for r in pool if r[2] is not state]
            pool.insert(0, record)
            del pool[self.COUNTEREXAMPLES_PER_KEY:]
            recent = self._recent_counterexamples
            recent[:] = [r for r in recent if r[2] is not state]
            recent.insert(0, record)
            del recent[self.RECENT_COUNTEREXAMPLES:]
            self._ce_probed.add(key)  # local pool is now authoritative
        if self.store is not None:
            self.store.record_counterexample(
                key, record, self.COUNTEREXAMPLES_PER_KEY
            )

    def counterexamples(
        self, key: str, include_recent: bool = True
    ) -> List[Tuple[Tuple[str, ...], Tuple[str, ...], object]]:
        """Persisted failing states to replay for *key*, most recent first:
        the key's own states, then (with *include_recent*) the global pool
        — states from *other* checks; a schema-legal state failing one FK
        often fails several.  Checks whose failure predicate is not
        state-intrinsic (e.g. roundtrip, which needs the right views in
        scope) should pass ``include_recent=False``.

        The first probe of a key consults the persistent store as well:
        failing states recorded by *other processes* seed this session's
        pool, so a fleet member re-validating a known-broken neighborhood
        fails fast on its very first attempt."""
        probe_store = False
        with self._lock:
            if (
                self.store is not None
                and key not in self._ce_probed
            ):
                self._ce_probed.add(key)
                probe_store = True
        if probe_store:
            loaded = self.store.counterexamples(key)
            with self._lock:
                pool = self._counterexamples.setdefault(key, [])
                for record in loaded:
                    if len(pool) >= self.COUNTEREXAMPLES_PER_KEY:
                        break
                    pool.append(tuple(record))
        with self._lock:
            own = list(self._counterexamples.get(key, ()))
            if not include_recent:
                return own
            seen = {id(record[2]) for record in own}
            extra = [
                record
                for record in self._recent_counterexamples
                if id(record[2]) not in seen
            ]
        return own + extra

    def counterexample_count(self) -> int:
        with self._lock:
            return sum(len(pool) for pool in self._counterexamples.values())

    def stats(self) -> ValidationCacheStats:
        store = self.store
        l2_hits = self.l2_hits  # read first, as in ``misses``
        stats = self._l1.stats(
            ValidationCacheStats,
            l2_hits=l2_hits,
            l2_misses=self.l2_misses,
            l2_writes=store.writes if store is not None else 0,
            l2_errors=store.errors if store is not None else 0,
        )
        return replace(
            stats, hits=stats.hits + l2_hits, misses=stats.misses - l2_hits
        )

    def persistent_stats(self):
        """The attached store's :class:`PersistentCacheStats`, or None."""
        return self.store.stats() if self.store is not None else None

    def clear(self, persistent: bool = False) -> None:
        """Drop every L1 entry; with *persistent*, wipe the L2 file too."""
        self._l1.clear()
        with self._lock:
            self._ce_probed.clear()
        if persistent and self.store is not None:
            self.store.clear()

    def close(self) -> None:
        """Release the persistent store's connection (L1 stays usable)."""
        if self.store is not None:
            self.store.close()

    def __len__(self) -> int:
        return len(self._l1)

    def __str__(self) -> str:
        return f"ValidationCache({self.stats()})"
