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
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

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
    ) -> None:
        self.bound = bound
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._cost = 0
        self._cost_of = cost
        self._on_evict = on_evict
        self._stamp_of = stamp

    # -- reading -------------------------------------------------------
    def get(self, key: Hashable, stamp=None):
        """The value under *key* (a hit, now most recently used), or None
        (a miss).  With *stamp*, a value stamped otherwise is dropped — a
        miss and an invalidation — and :data:`STALE` is returned
        instead."""
        with self.lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            if stamp is not None and self._stamp_of(value) != stamp:
                self._remove(key, value)
                self.misses += 1
                self.invalidated += 1
                return STALE
            self.hits += 1
            self._entries.move_to_end(key)
            return value

    def get_or_build(self, key: Hashable, build: Callable[[], object]):
        """The value under *key*, building and storing it on a miss.

        *build* runs outside the lock, so concurrent misses on one key may
        each build; the first value stored wins and every caller gets it.
        A build that raises counts nothing.
        """
        with self.lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self.hits += 1
                self._entries.move_to_end(key)
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
            dropped = list(self._entries.values())
            self._entries.clear()
            self._cost = 0
            self.invalidated += len(dropped)
            if self._on_evict is not None:
                for value in dropped:
                    self._on_evict(value)
        return len(dropped)

    # -- epochs --------------------------------------------------------
    def successor(
        self, carry: Optional[Callable[[Hashable, object], object]] = None
    ) -> "LruCache":
        """The next epoch's cache; this one is never changed.

        Every entry passes through ``carry(key, value)`` in LRU order: it
        returns the value to keep (the same one, or a rebuilt copy) or
        None to drop it, which counts as invalidated.  *carry* runs
        outside the lock, so readers of this cache are not held up.  The
        counters carry forward, so rates stay observable across epochs.
        """
        with self.lock:
            items = list(self._entries.items())
            counters = (self.hits, self.misses, self.evictions, self.invalidated)
        clone = LruCache(self.bound, self._cost_of, self._on_evict, self._stamp_of)
        clone.hits, clone.misses, clone.evictions, clone.invalidated = counters
        for key, value in items:
            kept = value if carry is None else carry(key, value)
            if kept is None:
                clone.invalidated += 1
                continue
            clone._entries[key] = kept
            clone._cost += clone._price(kept)
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
        self._trim()
        return value

    def _trim(self) -> None:
        while self._cost > self.bound and self._entries:
            key, value = self._entries.popitem(last=False)
            self._cost -= self._price(value)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(value)

    def _remove(self, key: Hashable, value) -> None:
        del self._entries[key]
        self._cost -= self._price(value)
        if self._on_evict is not None:
            self._on_evict(value)
