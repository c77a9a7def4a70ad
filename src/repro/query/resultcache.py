"""The materialized result tier: cached answers maintained by deltas.

The plan cache (:mod:`repro.query.plancache`) amortizes *translation*;
this module amortizes *execution*.  A :class:`ResultCache` sits above the
plan cache and memoizes whole query answers — the constructed entities or
projected rows of one :class:`~repro.query.plancache.CachedPlan` bound
with one concrete parameter vector.  Entries are keyed exactly like
cached plans ((set name, model-slice fingerprint, shape fingerprint))
plus the bound parameters, so the same invalidation discipline carries
over verbatim.

What makes the tier worth having is that entries *survive writes*: on an
incremental save the signed store DML the write path already computed
(a :class:`~repro.query.dml.StoreDelta`) is propagated through each
cached plan's branch operators by the shared signed-bag core
(:mod:`repro.algebra.delta`).  This module supplies its table-scan leaf:
a scan emits the delta's own ±rows (update = −old, +new) and answers
probes from the store's key index, rewound through the delta for the
old side.

Each entry keeps a per-branch bag of store-level output rows with
multiplicity counts whose support is exactly
:func:`~repro.algebra.evaluate.evaluate_query`'s deduplicated output, so
applying the signed stream and re-filtering through the entry's bound
root predicate reconstructs the fresh answer in O(|Δ|) — probes go
through :meth:`~repro.relational.instances.StoreState.key_index`, never
a table scan.  Shapes the rules cannot maintain (full outer joins,
non-key join probes) mark the entry *unmaintainable*: it still serves
warm reads, but any write touching its tables invalidates it — always
correct, never stale.

Lifecycle, mirrored from the epoch engine's write paths:

* **populate** — a read miss executes the plan once; both executors
  count each branch's rows into a bag while they de-duplicate them
  (:meth:`~repro.query.plancache.CachedPlan.execute`).  An answer is
  admitted on its *second* miss (:class:`_Doorkeeper`): the first only
  records the key, so one-shot reads build nothing and writes maintain
  nothing for them.  The entry adopts the executed bags and rows as
  they are — no interpreter pass, no second construction, no store
  state.  Snapshot backends populate inline; live backends after the
  read lease under which one execution produced rows and bags
  together, into the tier of the epoch the read saw under it;
* **maintain** — ``save_delta`` / ``apply_script`` derive the next
  epoch's cache with :meth:`ResultCache.successor_for_delta`: entries
  whose answer the delta leaves unchanged are carried by reference,
  maintainable entries it changes are rebuilt copy-on-write in O(|Δ|),
  everything else is invalidated.  The
  source cache is never mutated, so readers pinned to an old epoch keep
  byte-identical answers;
* **invalidate** — whole-state ``save`` drops entries by written tables
  (:meth:`successor_for_tables`); an SMO batch and its ``undo`` drop by
  touched neighborhood exactly as :meth:`PlanCache.successor` does
  (:meth:`successor`), then by the tables their migration rewrote, which
  for an undo includes every table written since the evolve; and
  ``replace_contents`` clears (data is replaced wholesale, so
  table-scoped reasoning does not apply).

The cache is bounded by a cost-aware :class:`~repro.cache.LruCache`: an
entry's cost is its rows × width in cells, not its entry count, so one
huge scan cannot silently evict a hundred cheap probes while looking
like a single entry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.delta import (
    DeltaRuntime,
    Node,
    Probe,
    Signed,
    compile_delta,
    never_probe,
)
from repro.algebra.evaluate import (
    Bag,
    RowDict,
    RowKey,
    StoreContext,
    row_key,
)
from repro.algebra.queries import Query, TableScan
from repro.cache import STALE, CacheStats, LruCache
from repro.errors import EvaluationError, IvmError
from repro.query.dml import StoreDelta
from repro.query.unfold import UnfoldedBranch, construct_row
from repro.relational.instances import (
    StoreState,
    row_values,
    row_view,
)
from repro.relational.schema import StoreSchema

#: default LRU budget in cells (rows × width summed over all entries)
DEFAULT_RESULT_BUDGET = 2_000_000

#: distinct keys the doorkeeper remembers before it starts over
DOORKEEPER_BOUND = 4096


def read_runtime(delta: StoreDelta, state: StoreState) -> DeltaRuntime:
    """The runtime for one maintenance pass over the *new* store state."""
    touched = frozenset(name for name, td in delta.tables.items() if not td.empty)
    return DeltaRuntime(delta, state, StoreContext(state), touched)


class _TableNode(Node):
    __slots__ = ("table_name",)

    def __init__(self, table_name: str, columns: Tuple[str, ...]) -> None:
        self.table_name = table_name
        self.columns = columns
        self.sources = frozenset((table_name,))

    def delta(self, rt: DeltaRuntime) -> List[Signed]:
        td = rt.delta.tables.get(self.table_name)
        if td is None:
            return []
        out: List[Signed] = []
        for row in td.deletes:
            out.append((-1, row_view(row)))
        for row in td.inserts:
            out.append((+1, row_view(row)))
        for old_row, new_row in td.updates:
            out.append((-1, row_view(old_row)))
            out.append((+1, row_view(new_row)))
        return out

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        known = set(self.columns)
        if any(c not in known for c in columns):
            return never_probe
        table_name = self.table_name

        def probe(
            rt: DeltaRuntime, values: Tuple[object, ...], old: bool
        ) -> List[RowDict]:
            # key_index is built lazily once per (table, columns) and
            # carried across successor states, so the steady state is an
            # O(1) bucket lookup — the read-side analogue of the
            # delta-scoped constraint probes.
            bucket = rt.state.key_index(table_name, columns).get(values, ())
            if not old:
                return [row_view(r) for r in bucket]
            td = rt.delta.tables.get(table_name)
            if td is None or td.empty:
                return [row_view(r) for r in bucket]
            # rewind the new-side bucket to the old side: drop rows the
            # delta inserted, add back the rows it deleted — O(|Δ_table|)
            gained = set()
            back: List = []
            for row in td.inserts:
                if row_values(row, columns) == values:
                    gained.add(row)
            for row in td.deletes:
                if row_values(row, columns) == values:
                    back.append(row)
            for old_row, new_row in td.updates:
                if row_values(new_row, columns) == values:
                    gained.add(new_row)
                if row_values(old_row, columns) == values:
                    back.append(old_row)
            rows = [r for r in bucket if r not in gained]
            rows.extend(back)
            return [row_view(r) for r in rows]

        return probe


def table_leaf(scan: Query, context: StoreContext) -> Node:
    """Lower one table scan for :func:`compile_delta`."""
    if not isinstance(scan, TableScan):
        raise IvmError(f"no read-side delta rule for {type(scan).__name__}")
    return _TableNode(scan.table_name, context.scan_columns(scan))


@dataclass(eq=False, slots=True)
class _Entry:
    """One materialized answer: per-branch row bags plus the constructed
    results.  Immutable after publication — maintenance builds a copy."""

    values: Tuple[object, ...]
    projection: Optional[Tuple[str, ...]]
    branches: Tuple[UnfoldedBranch, ...]
    #: None = unmaintainable shape; serves warm reads, dies on writes
    roots: Optional[Tuple[Node, ...]]
    bags: List[Bag]
    constructed: Dict[Tuple[int, RowKey], object]
    tables: FrozenSet[str]
    fingerprint: str
    cost: int
    results: Optional[List[object]]

    @property
    def maintainable(self) -> bool:
        return self.roots is not None

    def rows_view(self) -> List[object]:
        rows = self.results
        if rows is None:
            # benign race: concurrent readers build identical lists over
            # the (immutable) constructed dict; last assignment wins
            rows = list(self.constructed.values())
            self.results = rows
        return rows


def build_entry(
    plan,
    values: Tuple[object, ...],
    schema: StoreSchema,
    fingerprint: str,
    rows: List[object],
    bags: List[Bag],
) -> _Entry:
    """Materialize one bound plan from the execution that answered it.

    *bags* are the executor's per-branch bags and *rows* the results
    constructed from their support, in the same order
    (:meth:`~repro.query.plancache.CachedPlan.execute`), so the entry
    adopts both as they are: no row is evaluated or constructed twice,
    and a pure-read workload returns lists identical to re-execution.
    The executors count exactly what a bag evaluation of the bound
    branches counts (the executed-bag oracle in the test suite holds
    both to the interpreter), which is what licenses the delta rules to
    add and subtract derivations against the counts.
    """
    bound = plan.bind(values)
    try:
        schema_context = StoreContext(StoreState(schema))
        roots: Optional[Tuple[Node, ...]] = tuple(
            compile_delta(branch.store_query, schema_context, table_leaf)
            for branch in bound.branches
        )
    except (IvmError, EvaluationError):
        roots = None
    keys = [(bi, key) for bi, bag in enumerate(bags) for key in bag]
    return _Entry(
        values=values,
        projection=plan.shape.projection,
        branches=bound.branches,
        roots=roots,
        bags=bags,
        constructed=dict(zip(keys, rows)),
        tables=plan.tables,
        fingerprint=fingerprint,
        cost=sum(len(row) for bag in bags for row, _count in bag.values()),
        results=list(rows),
    )


def _maintained_entry(entry: _Entry, rt: DeltaRuntime, fingerprint: str) -> _Entry:
    """*entry* with the delta applied: the entry itself when the delta
    reaches none of its branches, else a copy — O(|Δ|) plus the
    copy-on-write of the touched dicts.  Raises :class:`IvmError` when a
    multiplicity invariant breaks (the caller invalidates instead)."""
    if entry.roots is None:
        raise IvmError("entry shape is not maintainable")
    changes = [
        () if root.sources.isdisjoint(rt.touched) else root.delta(rt)
        for root in entry.roots
    ]
    if not any(changes):
        return entry  # the answer is unchanged: carry it by reference
    constructed = dict(entry.constructed)
    bags: List[Bag] = []
    cost = entry.cost
    projection = entry.projection
    for bi, (signed, bag, branch) in enumerate(
        zip(changes, entry.bags, entry.branches)
    ):
        if not signed:
            bags.append(bag)  # unchanged branch: share the bag
            continue
        per = dict(bag)
        for sign, row in signed:
            key = row_key(row)
            slot = per.get(key)
            count = (slot[1] if slot is not None else 0) + sign
            if count < 0:
                raise IvmError(
                    "negative multiplicity in a maintained result bag"
                )
            if count == 0:
                if slot is not None:
                    del per[key]
                    constructed.pop((bi, key), None)
                    cost -= len(slot[0])
            elif slot is None:
                per[key] = (row, count)
                constructed[(bi, key)] = construct_row(projection, branch, row)
                cost += len(row)
            else:
                per[key] = (slot[0], count)
        bags.append(per)
    return replace(
        entry,
        bags=bags,
        constructed=constructed,
        fingerprint=fingerprint,
        cost=cost,
        results=None,  # rebuilt lazily from the constructed dict
    )


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultCacheStats(CacheStats):
    """The shared counters plus the result tier's own (cumulative across
    epochs: successors carry them forward like the plan cache does)."""

    #: entries whose answer a write changed and maintenance rebuilt
    maintained: int = 0
    fallbacks: int = 0
    #: reads that found an entry stamped with a different epoch
    #: fingerprint — must stay 0; the regression gate asserts on it
    validation_failures: int = 0


class _Doorkeeper:
    """Admission on the second miss: TinyLFU's doorkeeper (Einziger,
    Friedman and Manes, ACM ToS 2017).

    It remembers the hashes of the full keys that have missed.  A miss
    on a remembered hash admits the answer; any other miss is only
    remembered, so a one-shot read never pays for an entry and no write
    maintains one for it.  A hash collision can only admit a key early:
    the entry is still built from that key's own execution, so it never
    serves a wrong answer.  It records accesses, not data, so every
    successor of a cache shares it by reference; it is emptied when it
    reaches :data:`DOORKEEPER_BOUND` hashes.
    """

    __slots__ = ("_seen", "_lock")

    def __init__(self) -> None:
        self._seen: set = set()
        self._lock = threading.Lock()

    def admit(self, full: Tuple) -> bool:
        """True when *full* missed before; otherwise remember it."""
        digest = hash(full)
        with self._lock:
            if digest in self._seen:
                return True
            if len(self._seen) >= DOORKEEPER_BOUND:
                self._seen.clear()
            self._seen.add(digest)
            return False

    def clear(self) -> None:
        with self._lock:
            self._seen.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)


def _entry_cost(entry: _Entry) -> int:
    return entry.cost


def _entry_stamp(entry: _Entry) -> str:
    return entry.fingerprint


class ResultCache:
    """Cost-bounded LRU of materialized query answers, one per epoch.

    Thread-safe for concurrent lookups and populations; the write paths
    never mutate a published cache — they derive a successor
    (:meth:`successor_for_delta` / :meth:`successor_for_tables` /
    :meth:`successor`) off to the side and publish it with the epoch
    swap, exactly like the plan cache.  An entry's cost is its cell
    count, and it is stamped with the fingerprint of the epoch it was
    built or maintained for.  Entries are admitted on their key's second
    miss; the doorkeeper that counts misses is shared by every successor.
    """

    def __init__(
        self,
        budget: int = DEFAULT_RESULT_BUDGET,
        doorkeeper: Optional[_Doorkeeper] = None,
    ) -> None:
        self._entries = LruCache(budget, cost=_entry_cost, stamp=_entry_stamp)
        self._doorkeeper = doorkeeper if doorkeeper is not None else _Doorkeeper()
        self.maintained = 0
        self.fallbacks = 0
        self.validation_failures = 0

    @property
    def enabled(self) -> bool:
        return self._entries.bound > 0

    # -- reading -------------------------------------------------------
    def lookup(
        self, key: Tuple, values: Tuple[object, ...], fingerprint: str
    ) -> Optional[List[object]]:
        """The cached answer, or None.  Every served answer is validated
        against the epoch fingerprint — a mismatch can only mean a carry
        bug, and it is surfaced as a counter, never as a stale read."""
        if not self.enabled:
            return None
        try:
            entry = self._entries.get((key, values), fingerprint)
        except TypeError:
            return None  # unhashable constants: bypass the tier
        if entry is None:
            return None
        if entry is STALE:
            with self._entries.lock:
                self.validation_failures += 1
            return None
        return list(entry.rows_view())

    def has(self, key: Tuple, values: Tuple[object, ...]) -> bool:
        try:
            return (key, values) in self._entries
        except TypeError:
            return False  # unhashable constants: never cached

    # -- population ----------------------------------------------------
    def populate(
        self,
        key: Tuple,
        values: Tuple[object, ...],
        plan,
        schema: StoreSchema,
        fingerprint: str,
        rows: List[object],
        bags: List[Bag],
    ) -> None:
        """Offer the answer a read just executed after its lookup missed
        (*rows*, constructed from the per-branch *bags*).  The key's
        first miss only records it; the second builds the entry.  A
        no-op when the tier is off.
        """
        if not self.enabled:
            return
        full = (key, values)
        try:
            if not self._doorkeeper.admit(full):
                return
        except TypeError:
            return  # unhashable constants: bypass the tier
        self._entries.put(
            full, build_entry(plan, values, schema, fingerprint, rows, bags)
        )

    # -- successors (write paths) --------------------------------------
    def _next(self, carry) -> "ResultCache":
        """The next epoch's cache: this one's entries through *carry*
        (see :meth:`LruCache.successor`), every counter carried and the
        doorkeeper shared."""
        clone = ResultCache(self._entries.bound, self._doorkeeper)
        with self._entries.lock:
            clone.maintained = self.maintained
            clone.fallbacks = self.fallbacks
            clone.validation_failures = self.validation_failures
        clone._entries = self._entries.successor(carry)
        return clone

    def empty_successor(self) -> "ResultCache":
        """A fresh cache carrying the counters: for
        ``replace_contents``, where the data moves wholesale and no
        table-scoped argument can keep any entry valid."""
        return self._next(lambda _full, _entry: None)

    def successor_for_delta(
        self, delta: StoreDelta, state: StoreState, fingerprint: str
    ) -> "ResultCache":
        """The next epoch's cache after a data-only incremental write.

        Entries whose answer the delta leaves unchanged are carried by
        reference; maintainable entries it changes are rebuilt
        copy-on-write through the delta rules and counted in
        ``maintained``; unmaintainable entries over a touched table are
        invalidated.  Every entry is still visited.  *state* must be the
        post-delta store state and *fingerprint* the (unchanged) epoch
        fingerprint.
        """
        rt = read_runtime(delta, state)
        touched = rt.touched
        maintained = fallbacks = 0

        def carry(_full, entry: _Entry) -> Optional[_Entry]:
            nonlocal maintained, fallbacks
            if not (entry.tables & touched):
                return entry
            if not entry.maintainable:
                return None
            try:
                fresh = _maintained_entry(entry, rt, fingerprint)
            except (IvmError, EvaluationError):
                fallbacks += 1
                return None
            if fresh is not entry:
                maintained += 1
            return fresh

        clone = self._next(carry)
        clone.maintained += maintained
        clone.fallbacks += fallbacks
        return clone

    def successor_for_tables(
        self, tables, fingerprint: str
    ) -> "ResultCache":
        """The next epoch's cache after a whole-state save: entries whose
        branches scan a written table are dropped, the rest carry."""
        written = frozenset(tables)

        def carry(_full, entry: _Entry) -> Optional[_Entry]:
            if entry.tables & written or entry.fingerprint != fingerprint:
                return None
            return entry

        return self._next(carry)

    def successor(self, delta, mapping, fingerprint: str) -> "ResultCache":
        """The next epoch's cache after an SMO batch or its undo:
        delta-scoped invalidation by touched sets and tables, exactly the
        :meth:`PlanCache.successor` discipline.  Survivors are restamped
        with the evolved fingerprint — their sets and tables are provably
        outside the batch's touched neighborhood, so their data and
        model slice are unchanged."""
        stale = delta.stale_region(mapping)
        schema = mapping.client_schema

        def carry(full, entry: _Entry) -> Optional[_Entry]:
            set_name = full[0][0]
            if (
                set_name in stale.sets
                or not schema.has_entity_set(set_name)
                or (entry.tables & stale.tables)
            ):
                return None
            if entry.fingerprint != fingerprint:
                entry = replace(entry, fingerprint=fingerprint)
            return entry

        return self._next(carry)

    # -- bookkeeping ---------------------------------------------------
    def clear(self) -> None:
        self._entries.clear()
        self._doorkeeper.clear()

    def stats(self) -> ResultCacheStats:
        return self._entries.stats(
            ResultCacheStats,
            maintained=self.maintained,
            fallbacks=self.fallbacks,
            validation_failures=self.validation_failures,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __str__(self) -> str:
        return f"ResultCache({self.stats()})"
