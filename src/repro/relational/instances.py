"""Store states: concrete table contents for a store schema.

Rows are immutable mappings from column name to value.  Update views emit
rows; constraint checking (`repro.relational.constraints`) then verifies
keys and foreign keys — the runtime counterpart of the compiler's symbolic
constraint-preservation checks.

Table storage is structurally shared, so a successor state (one store
delta applied to a predecessor) costs O(|delta|), not O(table): each
table is a :class:`ChunkedRows` — its rows in fixed-size chunks in
insertion order, plus a :class:`PartitionedMap` from each row to its
chunk — and each key index is a :class:`PartitionedMap` as well.  A
successor copies the spines (one pointer per chunk or partition) and
only the chunks, partitions and buckets its delta touches.

A successor carries only the indexes on its table's declared keys (the
primary key and each foreign key's columns), which the constraint
checks probe on every write.  An index on any other column, built for
a read, lives as long as the table object that built it, so no write
pays upkeep for it.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import chain
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import EvaluationError, SchemaError
from repro.relational.schema import StoreSchema, Table

Row = Tuple[Tuple[str, object], ...]


def make_row(**values: object) -> Row:
    """Build a canonical (sorted, hashable) row."""
    return tuple(sorted(values.items()))


def row_from_mapping(values: Mapping[str, object]) -> Row:
    return tuple(sorted(values.items()))


@lru_cache(maxsize=65536)
def _row_dict(row: Row) -> Dict[str, object]:
    """The dict view of a row, memoized by the (hashable) row itself.

    ``row_value`` sits in every evaluation and constraint-check inner
    loop; a linear scan per access made key extraction O(columns) per
    column.  Rows are immutable and repeatedly revisited (constraint
    checks touch each row once per key/FK column, diffs once per key
    column), so one cached dict per distinct row makes every subsequent
    access O(1).  Callers must never mutate the returned dict — use
    :func:`row_map` for a private copy.
    """
    return dict(row)


def row_value(row: Row, column: str) -> object:
    try:
        return _row_dict(row)[column]
    except KeyError:
        raise EvaluationError(f"row has no column {column!r}: {row}") from None


def row_values(row: Row, columns: Tuple[str, ...]) -> Tuple[object, ...]:
    """Extract several columns with a single cached-dict lookup."""
    values = _row_dict(row)
    try:
        return tuple(values[c] for c in columns)
    except KeyError as exc:
        raise EvaluationError(f"row has no column {exc.args[0]!r}: {row}") from None


def row_map(row: Row) -> Dict[str, object]:
    """A fresh, caller-owned dict of the row (safe to mutate)."""
    return _row_dict(row).copy()


def row_view(row: Row) -> Dict[str, object]:
    """The *shared*, memoized dict view of the row.

    Compiled table scans hand these straight to predicate and join
    kernels, skipping :func:`row_map`'s per-scan copy.  Callers must
    treat the result as immutable.
    """
    return _row_dict(row)


#: rows per chunk; a delete copies and scans at most one chunk
CHUNK_ROWS = 64
#: mean entries per partition above which a successor re-splits a map
PARTITION_ENTRIES = 32
#: partitions are chosen by hash bits from here up, clear of the low
#: bits each partition dict picks its own slots by
_PARTITION_SHIFT = 20

#: key indexes built in this process, one O(rows) scan each; readers
#: build concurrently, so the count moves under a lock
_index_builds = 0
_index_builds_lock = threading.Lock()


def key_index_builds() -> int:
    """How many key indexes this process has built so far."""
    return _index_builds


class PartitionedMap:
    """A hash map split into dict partitions that successors share.

    :meth:`successor` copies only the spine, one pointer per partition.
    After that, the first write to a shared partition, on either side,
    copies that partition alone, so a write costs O(partition).
    Partitions matter only once a successor shares them, so that is when
    they are sized: a successor of a map whose partitions average more
    than :data:`PARTITION_ENTRIES` entries gets twice as many (or more),
    an O(n) split at most once per doubling of the map.  A map no
    successor shares, such as a bulk load, stays as it was built.
    Iteration order follows the hash, so callers that need a stable
    order keep it elsewhere.
    """

    __slots__ = ("_parts", "_mask", "_len", "_owned")

    def __init__(self, entries: Mapping[object, object] = {}) -> None:
        self._len = len(entries)
        self._spread(entries.items())

    def _spread(self, items) -> None:
        count = 1
        while count * PARTITION_ENTRIES < self._len:
            count *= 2
        mask = count - 1
        parts: List[dict] = [{} for _ in range(count)]
        for key, value in items:
            parts[(hash(key) >> _PARTITION_SHIFT) & mask][key] = value
        self._parts = parts
        self._mask = mask
        #: partitions this map may write in place; the others are shared
        self._owned = set(range(count))

    def successor(self) -> "PartitionedMap":
        """An equal map sharing every partition with this one, or split
        afresh if the partitions are over-full; from now on neither side
        writes a shared partition in place."""
        other = PartitionedMap.__new__(PartitionedMap)
        other._len = self._len
        if self._len > PARTITION_ENTRIES * len(self._parts):
            other._spread(self.items())
            return other
        other._parts = list(self._parts)
        other._mask = self._mask
        other._owned = set()
        self._owned = set()
        return other

    def get(self, key, default=None):
        return self._parts[(hash(key) >> _PARTITION_SHIFT) & self._mask].get(
            key, default
        )

    def __contains__(self, key) -> bool:
        return key in self._parts[(hash(key) >> _PARTITION_SHIFT) & self._mask]

    def __getitem__(self, key):
        return self._parts[(hash(key) >> _PARTITION_SHIFT) & self._mask][key]

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator:
        return chain.from_iterable(self._parts)

    def items(self) -> Iterator[Tuple[object, object]]:
        return chain.from_iterable(part.items() for part in self._parts)

    def _writable(self, index: int) -> dict:
        part = self._parts[index]
        if index not in self._owned:
            part = self._parts[index] = dict(part)
            self._owned.add(index)
        return part

    def insert(self, key, value) -> bool:
        """Map *key* to *value* unless *key* is present; True if it inserted."""
        index = (hash(key) >> _PARTITION_SHIFT) & self._mask
        part = self._parts[index] if index in self._owned else self._writable(index)
        size = len(part)
        part.setdefault(key, value)
        if len(part) == size:
            return False
        self._len += 1
        return True

    def __setitem__(self, key, value) -> None:
        index = (hash(key) >> _PARTITION_SHIFT) & self._mask
        if key in self._parts[index]:
            self._writable(index)[key] = value
        else:
            self.insert(key, value)

    def pop(self, key, default=None):
        index = (hash(key) >> _PARTITION_SHIFT) & self._mask
        if key not in self._parts[index]:
            return default
        self._len -= 1
        return self._writable(index).pop(key)


class ChunkedRows:
    """One table's rows, in insertion order, structurally shared.

    Rows sit in chunks of at most :data:`CHUNK_ROWS`, appended in
    insertion order, and ``_where`` maps each row to its chunk's number.
    Iteration yields the surviving rows in the order they were added —
    never in hash order, so answers are the same in every process.  A
    delete removes the row from its chunk; once half the chunk slots
    are dead the chunks are rebuilt dense, at O(1) amortized cost per
    delete.

    With a *key* function, items need not be hashable: ``_where`` maps
    ``key(item)`` instead, and :meth:`discard_item` removes an item
    found by identity.  The result tier keeps each cached answer this
    way.

    ``indexes`` holds the key indexes: column values → the tuple of rows
    holding them, in iteration order.  A key with a NULL component has
    no entry: NULL never joins or matches a foreign key, and every
    caller skips NULL probes.  Readers build indexes on published
    tables while a writer derives successors from them, so a build
    publishes a new ``indexes`` dict and never writes into the one a
    successor may be iterating.

    :meth:`successor` shares every chunk, partition and bucket of the
    indexes it carries; each side copies what it writes.  A table held
    by two states at once (:meth:`StoreState.adopt_table`) is
    ``shared`` and never written: a state that writes to it takes a
    successor first.
    """

    __slots__ = ("_chunks", "_owned", "_where", "indexes", "shared", "_key")

    def __init__(self, key: Optional[Callable[[object], object]] = None) -> None:
        self._chunks: List[List[Row]] = []
        #: chunk numbers this table may write in place
        self._owned: set = set()
        self._where = PartitionedMap()
        self.indexes: Dict[Tuple[str, ...], PartitionedMap] = {}
        self.shared = False
        #: what names an item in ``_where``; None names it by itself
        self._key = key

    @classmethod
    def of(
        cls, items: List, key: Optional[Callable[[object], object]] = None
    ) -> "ChunkedRows":
        """A table holding *items*, distinct under *key*, in their order."""
        table = cls(key)
        table._fill(items)
        return table

    def successor(self, keys: Collection[Tuple[str, ...]]) -> "ChunkedRows":
        """An equal table sharing every chunk, partition and bucket with
        this one: O(chunks + partitions) pointer copies, no row copies
        (bar the one-time split of a row map no successor shared yet).
        It carries the indexes on the column tuples in *keys* and
        drops the others."""
        other = ChunkedRows.__new__(ChunkedRows)
        other._chunks = list(self._chunks)
        other._owned = set()
        self._owned = set()
        other._where = self._where.successor()
        other.indexes = {
            columns: index.successor()
            for columns, index in self.indexes.items()
            if columns in keys
        } if self.indexes else {}
        other.shared = False
        other._key = self._key
        return other

    def __len__(self) -> int:
        return len(self._where)

    def __iter__(self) -> Iterator[Row]:
        return chain.from_iterable(self._chunks)

    def to_list(self) -> List:
        """The items in order, as a new list: one block copy per chunk,
        several times faster than iterating item by item."""
        items: List = []
        for chunk in self._chunks:
            items += chunk
        return items

    def _writable(self, number: int) -> List[Row]:
        chunk = self._chunks[number]
        if number not in self._owned:
            chunk = self._chunks[number] = list(chunk)
            self._owned.add(number)
        return chunk

    def add(self, row: Row) -> None:
        """Append *row* unless the table already holds it."""
        chunks = self._chunks
        number = len(chunks) - 1
        if number < 0 or len(chunks[number]) >= CHUNK_ROWS:
            number += 1
        if not self._where.insert(row if self._key is None else self._key(row), number):
            return
        if number == len(chunks):
            chunks.append([row])
            self._owned.add(number)
        else:
            self._writable(number).append(row)
        for columns, index in self.indexes.items():
            values = row_values(row, columns)
            if None not in values:
                bucket = index.get(values)
                index[values] = (row,) if bucket is None else bucket + (row,)

    def discard(self, row: Row) -> None:
        """Remove *row* if the table holds it (a table without a key
        function; see :meth:`discard_item`)."""
        number = self._where.pop(row)
        if number is None:
            return
        self._writable(number).remove(row)
        for columns, index in self.indexes.items():
            values = row_values(row, columns)
            if None in values:
                continue
            bucket = index[values]
            if len(bucket) == 1:
                index.pop(values)
            else:
                index[values] = tuple(r for r in bucket if r != row)
        self._shrunk()

    def discard_item(self, item) -> None:
        """Remove *item* itself, found by identity, if the table holds
        its key (a table with a key function and no indexes, holding
        *item* whenever it holds its key)."""
        number = self._where.pop(self._key(item))
        if number is None:
            return
        chunk = self._writable(number)
        del chunk[list(map(id, chunk)).index(id(item))]
        self._shrunk()

    def _shrunk(self) -> None:
        # half the slots dead: O(table) once per O(table) deletes
        if len(self._chunks) * CHUNK_ROWS >= 2 * (len(self._where) + CHUNK_ROWS):
            self._fill(self.to_list())

    def _fill(self, rows: List) -> None:
        """Hold exactly *rows*, dense, in their order."""
        key_of = self._key
        self._chunks = [
            rows[start:start + CHUNK_ROWS] for start in range(0, len(rows), CHUNK_ROWS)
        ]
        self._owned = set(range(len(self._chunks)))
        self._where = PartitionedMap(
            {
                row if key_of is None else key_of(row): position // CHUNK_ROWS
                for position, row in enumerate(rows)
            }
        )

    def index(self, columns: Tuple[str, ...]) -> PartitionedMap:
        """The key index on *columns*, built on first use (one scan).

        Two readers racing on one build both scan; the dict published
        last wins, and an index it lost is built again on its next use.
        """
        global _index_builds
        index = self.indexes.get(columns)
        if index is None:
            groups: Dict[Tuple, List[Row]] = {}
            for row in self:
                values = row_values(row, columns)
                if None not in values:
                    groups.setdefault(values, []).append(row)
            index = PartitionedMap(
                {values: tuple(rows) for values, rows in groups.items()}
            )
            self.indexes = {**self.indexes, columns: index}
            with _index_builds_lock:
                _index_builds += 1
        return index


def declared_keys(table: Table) -> FrozenSet[Tuple[str, ...]]:
    """The column tuples a successor of *table*'s rows keeps indexed:
    its primary key and each foreign key's columns."""
    return frozenset(
        (table.primary_key, *(fk.columns for fk in table.foreign_keys))
    )


class StoreState:
    """An instance of a :class:`StoreSchema`: a bag of rows per table.

    Rows are de-duplicated (set semantics): the view language projects keys
    everywhere, so duplicates never carry information.  Each table is a
    :class:`ChunkedRows`; a successor state shares the tables a delta does
    not touch (:meth:`adopt_table`) and shares all but the touched chunks,
    partitions and buckets of the ones it does (:meth:`carry_rows`), so
    applying a delta costs O(|delta|).  A published state is never
    written again; writes to a table another state shares go to a
    successor of that table.
    """

    def __init__(self, schema: StoreSchema) -> None:
        self.schema = schema
        # populated lazily: large store schemas must not pay O(tables)
        self._rows: Dict[str, ChunkedRows] = {}

    def add_row(self, table_name: str, row: Mapping[str, object] | Row) -> Row:
        rows = self._rows.get(table_name)
        if rows is None:
            if not self.schema.has_table(table_name):
                raise SchemaError(f"unknown table {table_name!r}")
            rows = self._rows[table_name] = ChunkedRows()
        table = self.schema.table(table_name)
        if rows.shared:
            rows = self._rows[table_name] = rows.successor(declared_keys(table))
        canonical = row_from_mapping(row) if isinstance(row, Mapping) else row
        provided = {name for name, _ in canonical}
        expected = set(table.column_names)
        if provided != expected:
            raise SchemaError(
                f"row for {table_name!r} must assign exactly {sorted(expected)}, "
                f"got {sorted(provided)}"
            )
        for name, value in canonical:
            column = table.column(name)
            if value is None:
                if not column.nullable:
                    raise SchemaError(
                        f"column {name!r} of {table_name!r} is not nullable"
                    )
            elif not column.domain.contains(value):
                raise SchemaError(
                    f"value {value!r} outside domain of {table_name}.{name}"
                )
        rows.add(canonical)
        return canonical

    def adopt_table(self, other: "StoreState", table_name: str) -> None:
        """Share *other*'s storage for one table, key indexes included.

        For successor states (delta application): tables the delta does
        not touch are carried over by reference, in O(1), instead of
        being re-validated row by row.  The table is marked shared, so a
        later :meth:`add_row` into it, on either state, writes to a
        successor of the table instead of the storage both states see.
        """
        rows = other._rows.get(table_name)
        if not rows:
            return
        rows.shared = True
        self._rows[table_name] = rows

    def shares_table(self, other: "StoreState", table_name: str) -> bool:
        """Whether this state and *other* hold one table's storage in
        common (one adopted it from the other, or both from a third), so
        its rows are equal without looking at them."""
        rows = self._rows.get(table_name)
        return rows is not None and rows is other._rows.get(table_name)

    def carry_rows(self, other: "StoreState", table_name: str, dead) -> None:
        """Take *other*'s rows for one table, minus the rows in *dead*.

        The result is a successor of *other*'s table: it shares every
        chunk, map partition and declared-key index bucket except those
        holding a dead row, so this costs O(|dead|) plus one pointer per
        chunk and partition, not O(table) — except that the first successor
        of a table no successor shared yet (a bulk load) splits its
        row map into partitions, once.  The carried rows were validated
        when *other* first added them, so they skip :meth:`add_row`'s
        domain checks.  Surviving rows keep their order; rows added
        afterwards are appended after them.
        """
        if not self.schema.has_table(table_name):
            raise SchemaError(f"unknown table {table_name!r}")
        rows = other._rows.get(table_name)
        rows = (
            rows.successor(declared_keys(self.schema.table(table_name)))
            if rows is not None
            else ChunkedRows()
        )
        for row in dead:
            rows.discard(row)
        self._rows[table_name] = rows

    def key_index(self, table_name: str, columns: Tuple[str, ...]) -> PartitionedMap:
        """The table's rows grouped by their values of *columns*, as a map
        from values to the tuple of rows holding them, in scan order.

        Keys with a NULL component have no entry (NULL never joins or
        matches a foreign key).  Built lazily with one O(rows) pass.  An
        index on a declared key is then maintained with the table:
        :meth:`add_row`, :meth:`carry_rows` and :meth:`adopt_table` carry
        it to successor states in O(|delta|).  Any other index lives as
        long as this table object: :meth:`adopt_table` shares it, a
        written successor drops it.  Delta-scoped constraint checking
        (:func:`repro.relational.constraints.check_delta`), compiled
        memory plans and the result tier probe these instead of
        re-scanning tables.  Safe to call on a published state from any
        thread.  Callers must not write to the returned map.
        """
        rows = self._rows.get(table_name)
        if rows is None:
            return PartitionedMap()
        return rows.index(columns)

    def rows(self, table_name: str) -> Tuple[Row, ...]:
        if table_name not in self._rows:
            if not self.schema.has_table(table_name):
                raise SchemaError(f"unknown table {table_name!r}")
            return ()
        return tuple(self._rows[table_name])

    def populated_tables(self):
        """Tables with at least one row (lazy states: only these can
        violate constraints)."""
        return tuple(
            self.schema.table(name) for name, rows in self._rows.items() if rows
        )

    def row_count(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def snapshot(self) -> Dict[str, FrozenSet[Row]]:
        return {name: frozenset(rows) for name, rows in self._rows.items() if rows}

    def equals(self, other: "StoreState") -> bool:
        return self.snapshot() == other.snapshot()

    def __str__(self) -> str:
        lines = ["StoreState:"]
        for table_name, rows in self._rows.items():
            if rows:
                lines.append(f"  {table_name}: {[dict(r) for r in rows]}")
        return "\n".join(lines)
