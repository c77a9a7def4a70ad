"""One bounded, thread-safe LRU for every cache in the system.

The paper keeps compiled artifacts alive across a change unless the
change's neighborhood reaches them (Section 3).  The plan cache, the
result tier, the writeplan cache, the validation memo, SQLite's
prepared statements and the process-pool workers' contexts all apply
that rule, and they share everything except the rule itself: an LRU
order, a bound, one lock, and the hit / miss / eviction / invalidation
counters.  :class:`LruCache` is that shared part; each cache keeps only
its own policy — how it derives keys, what a delta makes stale, and what
evicting an entry must release.

The bound is on the summed *cost* of the values (one per entry unless a
``cost`` function says otherwise), so one huge entry cannot pass for a
cheap one.  A cache that serves an epoch is never changed by the writer:
:meth:`LruCache.successor` derives the next epoch's cache off to the
side, carrying the counters forward, while readers of the old epoch keep
hitting the source.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Optional

#: what :meth:`LruCache.get` returns for an entry stamped by another
#: version (the entry is dropped and counted as a miss and invalidated)
STALE = object()

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache's life so far, plus its current size.

    ``invalidated`` counts entries dropped as stale — by a delta, a
    rollback, a stamp mismatch or a clear — and ``evictions`` the ones
    the bound pushed out.  ``cost`` is the summed cost of the entries and
    ``bound`` its limit (both equal entry counts unless the cache prices
    its values).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidated: int = 0
    entries: int = 0
    cost: int = 0
    bound: int = 0


class LruCache:
    """A cost-bounded LRU map with one lock and the shared counters.

    * ``cost(value)`` prices an entry (default 1); the summed cost stays
      within ``bound``, evicting least recently used entries first.  A
      value costing more than the bound is never stored; it counts as an
      eviction.
    * ``on_evict(value)`` runs, under the lock, on every value the cache
      lets go of: bound evictions, :meth:`discard`, :meth:`invalidate`,
      stale stamps and :meth:`clear`.  It must not call back into the
      cache.
    * ``stamp(value)`` names the version a value was built for;
      :meth:`get` with an expected stamp refuses a value stamped
      otherwise.
    * ``index`` is a secondary index over the entries that the cache
      keeps in step with them under the lock:
      ``index.update(key, old, new)`` runs whenever the value under
      *key* changes — *old* is None for a value stored, *new* is None
      for a value that leaves, and both are set when a successor's
      *carry* rebuilds a value — and :meth:`successor` gives the next
      epoch ``index.successor()``, an equal index the two may then
      change apart.  Its methods must not call back into the cache.

    ``lock`` is public so an owner can keep its own counters exact under
    the same lock; it is not re-entrant, so never call the cache while
    holding it.
    """

    def __init__(
        self,
        bound: int,
        cost: Optional[Callable[[object], int]] = None,
        on_evict: Optional[Callable[[object], None]] = None,
        stamp: Optional[Callable[[object], object]] = None,
        index=None,
    ) -> None:
        self.bound = bound
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        #: insertion order is LRU order: least recently used first; a
        #: plain dict, so a successor copies it at C speed
        self._entries: Dict[Hashable, object] = {}
        #: keys deleted from ``_entries`` since it was last rebuilt: each
        #: leaves a dead slot that eviction, scanning from the front,
        #: must skip until the dict is rebuilt
        self._dead = 0
        self._cost = 0
        self._cost_of = cost
        self._on_evict = on_evict
        self._stamp_of = stamp
        self._index = index

    # -- reading -------------------------------------------------------
    def get(self, key: Hashable, stamp=None):
        """The value under *key* (a hit, now most recently used), or None
        (a miss).  With *stamp*, a value stamped otherwise is dropped — a
        miss and an invalidation — and :data:`STALE` is returned
        instead."""
        with self.lock:
            # popped and put back: a hit moves to the most recent end
            value = self._entries.pop(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            self._dead += 1
            if stamp is not None and self._stamp_of(value) != stamp:
                self._cost -= self._price(value)
                self._left(key, value)
                self.misses += 1
                self.invalidated += 1
                return STALE
            self.hits += 1
            self._entries[key] = value
            return value

    def get_or_build(self, key: Hashable, build: Callable[[], object]):
        """The value under *key*, building and storing it on a miss.

        *build* runs outside the lock, so concurrent misses on one key may
        each build; the first value stored wins and every caller gets it.
        A build that raises counts nothing.
        """
        with self.lock:
            value = self._entries.pop(key, _MISSING)
            if value is not _MISSING:
                self.hits += 1
                self._dead += 1
                self._entries[key] = value
                return value
        value = build()
        with self.lock:
            self.misses += 1
            return self._insert(key, value)

    def put(self, key: Hashable, value):
        """Store *value* unless *key* already holds one; return the value
        held (or *value* when it is too large to store).  Counts no hit
        or miss — pair it with a :meth:`get` that missed."""
        with self.lock:
            return self._insert(key, value)

    def __contains__(self, key: Hashable) -> bool:
        with self.lock:
            return key in self._entries

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)

    # -- dropping ------------------------------------------------------
    def discard(self, key: Hashable) -> None:
        """Drop *key* if present (counted as invalidated)."""
        with self.lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._remove(key, value)
                self.invalidated += 1

    def invalidate(self, predicate: Callable[[Hashable, object], bool]) -> int:
        """Drop every entry ``predicate(key, value)`` calls stale; return
        how many went."""
        with self.lock:
            stale = [(k, v) for k, v in self._entries.items() if predicate(k, v)]
            for key, value in stale:
                self._remove(key, value)
            self.invalidated += len(stale)
        return len(stale)

    def clear(self) -> int:
        """Drop every entry (counted as invalidated); return how many."""
        with self.lock:
            dropped = list(self._entries.items())
            self._entries.clear()
            self._dead = 0
            self._cost = 0
            self.invalidated += len(dropped)
            for key, value in dropped:
                self._left(key, value)
        return len(dropped)

    # -- epochs --------------------------------------------------------
    def successor(
        self,
        carry: Optional[Callable[[Hashable, object], object]] = None,
        reach: Optional[Callable[[object], Iterable[Hashable]]] = None,
    ) -> "LruCache":
        """The next epoch's cache; this one is never changed.

        The entry map is copied whole, at C speed.  Then ``carry(key,
        value)`` runs on every entry, or with *reach* only on the keys
        ``reach(index)`` names (*index* is the successor's own copy of
        the secondary index, so it names exactly the successor's
        entries), and no other entry costs a call.  *carry* returns the
        value to keep (the same one, or a rebuilt copy, which keeps its
        LRU place) or None to drop it, which counts as invalidated.
        *carry* and *reach* run outside the lock, so readers of this
        cache are not held up.  The counters carry forward, so rates
        stay observable across epochs.
        """
        with self.lock:
            entries = self._entries.copy()
            dead = self._dead
            cost = self._cost
            counters = (self.hits, self.misses, self.evictions, self.invalidated)
            index = None if self._index is None else self._index.successor()
        clone = LruCache(
            self.bound, self._cost_of, self._on_evict, self._stamp_of, index
        )
        clone.hits, clone.misses, clone.evictions, clone.invalidated = counters
        if carry is not None:
            price = self._price
            for key in list(entries) if reach is None else reach(index):
                value = entries.get(key, _MISSING)
                if value is _MISSING:
                    continue
                kept = carry(key, value)
                if kept is value:
                    continue
                cost -= price(value)
                if index is not None:
                    index.update(key, value, kept)
                if kept is None:
                    del entries[key]
                    dead += 1
                    clone.invalidated += 1
                    continue
                entries[key] = kept
                cost += price(kept)
        clone._entries, clone._dead, clone._cost = entries, dead, cost
        clone._trim()
        return clone

    def stats(self, kind: type = CacheStats, **extra) -> CacheStats:
        """A snapshot of the counters as *kind* (a :class:`CacheStats`
        subclass when the owner adds counters, passed as *extra*)."""
        with self.lock:
            return kind(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidated=self.invalidated,
                entries=len(self._entries),
                cost=self._cost,
                bound=self.bound,
                **extra,
            )

    # -- internals (lock held) -----------------------------------------
    def _price(self, value) -> int:
        return 1 if self._cost_of is None else self._cost_of(value)

    def _insert(self, key: Hashable, value):
        held = self._entries.get(key, _MISSING)
        if held is not _MISSING:
            return held
        cost = self._price(value)
        if cost > self.bound:
            self.evictions += 1  # too large to ever hold: count and skip
            return value
        self._entries[key] = value
        self._cost += cost
        if self._index is not None:
            self._index.update(key, None, value)
        self._trim()
        return value

    def _trim(self) -> None:
        """Evict least recently used entries until the cost fits.

        Once dead slots outnumber the entries, the dict is rebuilt
        first, so an eviction's scan from the front skips at most as
        many dead slots as there are entries, at O(1) amortized cost
        per deletion."""
        excess = self._cost - self.bound
        if excess <= 0:
            return
        if self._dead > len(self._entries):
            self._entries = dict(self._entries)
            self._dead = 0
        victims = []
        for key, value in self._entries.items():
            if excess <= 0:
                break
            victims.append((key, value))
            excess -= self._price(value)
        for key, value in victims:
            self.evictions += 1
            self._remove(key, value)

    def _remove(self, key: Hashable, value) -> None:
        del self._entries[key]
        self._dead += 1
        self._cost -= self._price(value)
        self._left(key, value)

    def _left(self, key: Hashable, value) -> None:
        """*value* no longer sits under *key*: tell the hooks."""
        if self._index is not None:
            self._index.update(key, value, None)
        if self._on_evict is not None:
            self._on_evict(value)
