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
a table scan.  The bags are :class:`~repro.relational.instances.PartitionedMap`
instances and the constructed answer an insertion-ordered
:class:`~repro.relational.instances.ChunkedRows`, the store's own
persistent structures, so a maintained entry shares every partition and
chunk the delta leaves alone with its predecessor.  Shapes the rules
cannot maintain (full outer joins, non-key join probes) mark the entry
*unmaintainable*: it still serves warm reads, but any write touching its
tables invalidates it — always correct, never stale.

A write finds the entries it can change through a routing index instead
of visiting every entry.  An entry is routed when each of its bound
branches has a *pin* (:func:`branch_pin`): a ``(table, column, value)``
that every row the branch derives from carries, read off a top-level
``column = constant`` conjunct of a selection over one table scan.  A
write reaches a routed entry only through a deleted, inserted or
updated (either side) row carrying one of its pins; entries over joins,
unions, or predicates without such an equality stay unrouted and are
visited by every write to their tables, as before.

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
* **maintain** — ``save_delta`` and ``edit_incremental`` derive the next
  epoch's cache with :meth:`ResultCache.successor_for_delta`: it visits
  only the entries the delta reaches, carrying the rest with the copied
  entry map; visited entries whose answer the delta leaves unchanged
  are carried by reference, maintainable entries it changes are rebuilt
  copy-on-write in O(|Δ|), unmaintainable ones are invalidated.  The
  source cache is never mutated, so readers pinned to an old epoch keep
  byte-identical answers;
* **invalidate** — whole-state ``save`` drops entries by written tables
  (:meth:`successor_for_tables`); an SMO batch and its ``undo`` drop by
  touched neighborhood exactly as :meth:`PlanCache.successor` does
  (:meth:`successor`), then by the tables their migration rewrote, which
  for an undo includes every table written since the evolve; and
  assigning the session's ``store_state`` clears (data is replaced
  wholesale, so table-scoped reasoning does not apply).

The cache is bounded by a cost-aware :class:`~repro.cache.LruCache`: an
entry's cost is its rows × width in cells, not its entry count, so one
huge scan cannot silently evict a hundred cheap probes while looking
like a single entry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Tuple

from repro.algebra.conditions import And, Comparison, Condition
from repro.algebra.delta import (
    DeltaRuntime,
    Node,
    Probe,
    Signed,
    Test,
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
from repro.algebra.queries import Col, Project, Query, Select, TableScan
from repro.backend.physical import compile_predicate
from repro.cache import STALE, CacheStats, LruCache
from repro.errors import EvaluationError, IvmError
from repro.query.dml import StoreDelta, TableDelta
from repro.query.plancache import Param
from repro.query.unfold import UnfoldedBranch, UnfoldedQuery, construct_row
from repro.relational.instances import (
    ChunkedRows,
    PartitionedMap,
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


#: ``(table, column, value)``: what every row of one branch carries
Pin = Tuple[str, str, object]

def _identity(result: object) -> Tuple[int]:
    """What names a constructed result in its entry's answer: itself,
    by identity (results need not be hashable, and equal results of
    different rows are distinct)."""
    return (id(result),)


def _conjuncts(condition: Condition) -> Iterator[Condition]:
    if isinstance(condition, And):
        for operand in condition.operands:
            yield from _conjuncts(operand)
    else:
        yield condition


def branch_pin(query: Query, schema: StoreSchema) -> Optional[Pin]:
    """A ``(table, column, value)`` that every row *query* derives from
    carries, or None.

    *query* must be a chain of selections and projections over one
    table scan.  The pin comes from a top-level ``column = constant``
    conjunct of one of the selections, the constant not NULL, with the
    column traced through the renaming items of the projections beneath
    it to a column of the table.  A row whose column is NULL or another
    value fails that conjunct, so a write none of whose rows carries the
    pin leaves the branch's rows as they were.  A pin on the primary key
    is preferred, then one on a foreign key's column.
    """
    found: List[Tuple[str, object]] = []
    node = query
    while not isinstance(node, TableScan):
        if isinstance(node, Select):
            found.extend(
                (atom.attr, atom.const)
                for atom in _conjuncts(node.condition)
                if isinstance(atom, Comparison)
                and atom.op == "="
                and atom.const is not None
            )
        elif isinstance(node, Project):
            renamed = {
                item.output: item.expr.name
                for item in node.items
                if isinstance(item.expr, Col)
            }
            found = [
                (renamed[column], value) for column, value in found if column in renamed
            ]
        else:
            return None
        node = node.source
    table = schema.table(node.table_name)
    columns = set(table.column_names)
    foreign = {column for fk in table.foreign_keys for column in fk.columns}
    best: Optional[Tuple[int, str, object]] = None
    for column, value in found:
        if column not in columns:
            continue
        rank = 0 if column in table.primary_key else 1 if column in foreign else 2
        if best is None or rank < best[0]:
            best = (rank, column, value)
    return None if best is None else (table.name, best[1], best[2])


@dataclass(frozen=True)
class Lowered:
    """One plan shape's delta rules and pins, lowered once and shared by
    every entry built from the plan (:meth:`CachedPlan.lowered
    <repro.query.plancache.CachedPlan.lowered>`).  Placeholders stay in
    both: the rules read an entry's values from
    :attr:`~repro.algebra.delta.DeltaRuntime.params`, and a pin's
    :class:`~repro.query.plancache.Param` value is bound per entry."""

    #: per branch, its delta rules; None = a shape the rules cannot
    #: maintain
    roots: Optional[Tuple[Node, ...]]
    #: per branch, its pin; None = unrouted
    pins: Optional[Tuple[Pin, ...]]


def _lower_test(condition: Condition) -> Test:
    """*condition* compiled as physical plans compile it, its
    placeholders read from the runtime's parameters: store rows carry no
    type tag, so no context is needed."""
    predicate = compile_predicate(condition)
    return lambda rt, row: predicate(row, rt.params)


def lower_plan(unfolded: UnfoldedQuery, schema: StoreSchema) -> Lowered:
    """Lower the branches of one plan shape for the result tier."""
    try:
        context = StoreContext(StoreState(schema))
        roots = tuple(
            compile_delta(branch.store_query, context, table_leaf, _lower_test)
            for branch in unfolded.branches
        )
    except (IvmError, EvaluationError):
        return Lowered(None, None)
    pins = tuple(branch_pin(branch.store_query, schema) for branch in unfolded.branches)
    return Lowered(roots, None if None in pins else pins)


@dataclass(eq=False, slots=True)
class _Entry:
    """One materialized answer: per-branch row bags plus the constructed
    results.  Immutable after publication — maintenance builds a
    successor that shares every partition and chunk it does not
    change."""

    values: Tuple[object, ...]
    projection: Optional[Tuple[str, ...]]
    branches: Tuple[UnfoldedBranch, ...]
    #: None = unmaintainable shape; serves warm reads, dies on writes
    roots: Optional[Tuple[Node, ...]]
    #: per branch: row key -> (row, multiplicity, constructed result)
    bags: Tuple[PartitionedMap, ...]
    #: the constructed results in answer order
    answer: ChunkedRows
    tables: FrozenSet[str]
    fingerprint: str
    cost: int
    results: Optional[List[object]]
    #: each branch's pin; None = unrouted (some branch has none, or the
    #: shape is unmaintainable)
    pins: Optional[Tuple[Pin, ...]]

    @property
    def maintainable(self) -> bool:
        return self.roots is not None

    def rows_view(self) -> List[object]:
        rows = self.results
        if rows is None:
            # benign race: concurrent readers build identical lists over
            # the (immutable) answer; last assignment wins
            rows = self.answer.to_list()
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
    add and subtract derivations against the counts.  The entry shares
    its plan's delta rules and pins (:func:`lower_plan`, lowered once per
    plan) and binds the pins' placeholders to *values*.  A maintainable
    entry whose every branch has a pin (:func:`branch_pin`) is routed:
    only writes whose rows carry one of its pins visit it.
    """
    lowered = plan.lowered(schema)
    pins = None if lowered.pins is None else tuple(
        (table, column, values[value.index] if isinstance(value, Param) else value)
        for table, column, value in lowered.pins
    )
    results = iter(rows)
    return _Entry(
        values=values,
        projection=plan.shape.projection,
        branches=plan.unfolded.branches,
        roots=lowered.roots,
        bags=tuple(
            PartitionedMap(
                {key: (row, count, next(results)) for key, (row, count) in bag.items()}
            )
            for bag in bags
        ),
        answer=ChunkedRows.of(list(rows), key=_identity),
        tables=plan.tables,
        fingerprint=fingerprint,
        cost=sum(len(row) for bag in bags for row, _count in bag.values()),
        results=list(rows),
        pins=pins,
    )


def _maintained_entry(entry: _Entry, rt: DeltaRuntime, fingerprint: str) -> _Entry:
    """*entry* with the delta applied: the entry itself when the delta
    leaves its answer unchanged, else a successor — O(|Δ|) plus the
    copy-on-write of the partitions and chunks it touches.

    The delta rules' signed rows are netted per row before they are
    applied: a join whose two sides change at one key emits a row's
    removal in one term and its re-derivation in another, and only the
    sum is the change.  Raises :class:`IvmError` when a net count would
    go negative (the caller invalidates instead)."""
    roots = entry.roots
    if roots is None:
        raise IvmError("entry shape is not maintainable")
    touched = rt.touched
    answer: Optional[ChunkedRows] = None
    bags: Optional[List[PartitionedMap]] = None
    cost = entry.cost
    for bi, root in enumerate(roots):
        if root.sources.isdisjoint(touched):
            continue
        net: Dict[RowKey, list] = {}
        for sign, row in root.delta(rt):
            key = row_key(row)
            held = net.get(key)
            if held is None:
                net[key] = [row, sign]
            else:
                held[1] += sign
        per: Optional[PartitionedMap] = None
        for key, (row, change) in net.items():
            if not change:
                continue
            if per is None:
                if bags is None:
                    bags = list(entry.bags)
                    answer = entry.answer.successor(())
                per = bags[bi] = bags[bi].successor()
            if change < 0:
                slot = per.pop(key)
                count = -1 if slot is None else slot[1] + change
                if count < 0:
                    raise IvmError("negative multiplicity in a maintained result bag")
                if count:
                    per.insert(key, (slot[0], count, slot[2]))
                else:
                    answer.discard_item(slot[2])
                    cost -= len(slot[0])
                continue
            slot = per.get(key)
            if slot is None:
                result = construct_row(entry.projection, entry.branches[bi], row)
                per.insert(key, (row, change, result))
                answer.add(result)
                cost += len(row)
            else:
                per[key] = (slot[0], slot[1] + change, slot[2])
    if bags is None:
        return entry  # the answer is unchanged: carry it by reference
    return _Entry(
        values=entry.values,
        projection=entry.projection,
        branches=entry.branches,
        roots=roots,
        bags=tuple(bags),
        answer=answer,
        tables=entry.tables,
        fingerprint=fingerprint,
        cost=cost,
        results=None,  # rebuilt lazily from the answer
        pins=entry.pins,
    )


class _Routes:
    """The routing index: which entries a write's rows can reach.

    Each route has a bucket, a dict of entry keys: a routed entry sits in
    the bucket of each of its pins, an unrouted one in the bucket of each
    table it scans (the table's name is the route).  The
    :class:`~repro.cache.LruCache` holding the entries keeps this index
    in step with them under its lock, so it never names an entry the
    cache let go.  A successor shares every partition and bucket with
    its predecessor; after that, each side copies a bucket on its first
    write to it, as :class:`~repro.relational.instances.PartitionedMap`
    does a partition.
    """

    __slots__ = ("_buckets", "_owned", "_columns")

    def __init__(self) -> None:
        #: route -> {key: None}
        self._buckets = PartitionedMap()
        #: routes whose bucket this index may write in place
        self._owned: set = set()
        #: table -> {column: pins naming it}; replaced, never written
        self._columns: Dict[str, Dict[str, int]] = {}

    def successor(self) -> "_Routes":
        other = _Routes.__new__(_Routes)
        other._buckets = self._buckets.successor()
        other._owned = set()
        other._columns = dict(self._columns)
        self._owned = set()
        return other

    def update(
        self, key: Hashable, old: Optional[_Entry], new: Optional[_Entry]
    ) -> None:
        """The entry under *key* went from *old* to *new* (None: absent)."""
        if old is not None and new is not None and (
            old.pins == new.pins and old.tables == new.tables
        ):
            return  # a maintained entry keeps its routes
        if old is not None:
            self._discard(key, old)
        if new is not None:
            self._add(key, new)

    def _writable(self, route) -> Dict[Hashable, None]:
        bucket = self._buckets.get(route)
        if bucket is None or route not in self._owned:
            bucket = {} if bucket is None else dict(bucket)
            self._buckets[route] = bucket
            self._owned.add(route)
        return bucket

    def _count(self, pin: Pin, step: int) -> None:
        table, column, _value = pin
        counts = dict(self._columns.get(table, ()))
        counts[column] = counts.get(column, 0) + step
        if not counts[column]:
            del counts[column]
        if counts:
            self._columns[table] = counts
        else:
            del self._columns[table]

    def _add(self, key: Hashable, entry: _Entry) -> None:
        if entry.pins is None:
            for table in entry.tables:
                self._writable(table)[key] = None
            return
        for pin in dict.fromkeys(entry.pins):
            self._writable(pin)[key] = None
            self._count(pin, +1)

    def _discard(self, key: Hashable, entry: _Entry) -> None:
        routes = entry.tables if entry.pins is None else dict.fromkeys(entry.pins)
        for route in routes:
            bucket = self._buckets.get(route)
            if bucket is None or key not in bucket:
                continue
            if len(bucket) == 1:
                self._buckets.pop(route)
                self._owned.discard(route)
            else:
                del self._writable(route)[key]
            if entry.pins is not None:
                self._count(route, -1)

    def reached(
        self, delta: StoreDelta, touched: FrozenSet[str]
    ) -> Dict[Hashable, Optional[StoreDelta]]:
        """The entries *delta* can change, each with what it must see.

        A routed entry is reached through a row carrying one of its pins
        — a deleted or inserted row, or either side of an update — and
        gets the part of *delta* made of those rows: every other row
        fails the pinned conjunct of each of its branches.  An unrouted
        entry over a touched table gets None: all of *delta*.  Pins are
        found by the evaluator's ``=``, one hash probe per row and
        pinned column.
        """
        found: Dict[Hashable, Optional[StoreDelta]] = {}
        for table in touched:
            found.update(self._buckets.get(table, ()))
            columns = self._columns.get(table)
            if not columns:
                continue
            td = delta.tables[table]
            for kind, items in (
                ("deletes", td.deletes),
                ("inserts", td.inserts),
                ("updates", td.updates),
            ):
                for item in items:
                    keys: Dict[Hashable, None] = {}
                    for row in item if kind == "updates" else (item,):
                        view = row_view(row)
                        for column in columns:
                            value = view.get(column)
                            if value is not None:
                                keys.update(
                                    self._buckets.get((table, column, value), ())
                                )
                    for key in keys:
                        part = found.get(key)
                        if part is None:
                            part = found[key] = StoreDelta({})
                        slice_ = part.tables.get(table)
                        if slice_ is None:
                            slice_ = part.tables[table] = TableDelta(table, [], [], [])
                        getattr(slice_, kind).append(item)
        return found


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultCacheStats(CacheStats):
    """The shared counters plus the result tier's own (cumulative across
    epochs: successors carry them forward like the plan cache does)."""

    #: entries whose answer a write changed and maintenance rebuilt
    maintained: int = 0
    #: entries whose delta rules a write ran: those its rows reach
    #: through their pins, plus the unrouted ones over a table it touched
    visited: int = 0
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
        self._entries = LruCache(
            budget, cost=_entry_cost, stamp=_entry_stamp, index=_Routes()
        )
        self._doorkeeper = doorkeeper if doorkeeper is not None else _Doorkeeper()
        self.maintained = 0
        self.visited = 0
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
    def _next(self, carry, reach=None) -> "ResultCache":
        """The next epoch's cache: this one's entries through *carry*
        (only those *reach* names, if given; see
        :meth:`LruCache.successor`), every counter carried and the
        doorkeeper shared."""
        clone = ResultCache(self._entries.bound, self._doorkeeper)
        with self._entries.lock:
            clone.maintained = self.maintained
            clone.visited = self.visited
            clone.fallbacks = self.fallbacks
            clone.validation_failures = self.validation_failures
        clone._entries = self._entries.successor(carry, reach)
        return clone

    def empty_successor(self) -> "ResultCache":
        """A fresh cache carrying the counters: for
        ``replace_contents``, where the data moves wholesale and no
        table-scoped argument can keep any entry valid.  Every entry
        counts as invalidated; none is visited."""
        stats = self.stats()
        clone = ResultCache(self._entries.bound, self._doorkeeper)
        fresh = clone._entries
        fresh.hits, fresh.misses, fresh.evictions = (
            stats.hits, stats.misses, stats.evictions
        )
        fresh.invalidated = stats.invalidated + stats.entries
        clone.maintained = stats.maintained
        clone.visited = stats.visited
        clone.fallbacks = stats.fallbacks
        clone.validation_failures = stats.validation_failures
        return clone

    def successor_for_delta(
        self, delta: StoreDelta, state: StoreState, fingerprint: str
    ) -> "ResultCache":
        """The next epoch's cache after a data-only incremental write.

        The routing index names the entries the delta can reach: those
        pinned to a value its rows carry, and the unrouted ones over a
        table it touched.  Only those are visited (counted in
        ``visited``): a maintainable entry the delta changes is rebuilt
        copy-on-write through the delta rules and counted in
        ``maintained``, one it leaves unchanged is carried by reference,
        and an unmaintainable one is invalidated.  Every other entry is
        carried with the copied entry map at no cost of its own, so a
        write costs O(|Δ| + entries it reaches).  *state* must be the
        post-delta store state and *fingerprint* the (unchanged) epoch
        fingerprint.
        """
        rt = read_runtime(delta, state)
        maintained = visited = fallbacks = 0
        parts: Dict[Hashable, Optional[StoreDelta]] = {}

        def reach(routes: _Routes) -> List[Hashable]:
            parts.update(routes.reached(delta, rt.touched))
            return list(parts)

        def carry(full, entry: _Entry) -> Optional[_Entry]:
            nonlocal maintained, visited, fallbacks
            visited += 1
            if entry.roots is None:
                return None
            part = parts[full]
            runtime = DeltaRuntime(
                delta if part is None else part,
                state,
                rt.context,
                rt.touched if part is None else frozenset(part.tables),
                entry.values,
            )
            try:
                fresh = _maintained_entry(entry, runtime, fingerprint)
            except (IvmError, EvaluationError):
                fallbacks += 1
                return None
            if fresh is not entry:
                maintained += 1
            return fresh

        clone = self._next(carry, reach)
        clone.maintained += maintained
        clone.visited += visited
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
            visited=self.visited,
            fallbacks=self.fallbacks,
            validation_failures=self.validation_failures,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __str__(self) -> str:
        return f"ResultCache({self.stats()})"
