"""Evaluation of queries and views over concrete states.

Query views are evaluated over a :class:`StoreState`; update views over a
:class:`ClientState`.  Evaluation is set-oriented and naive (nested-loop
joins): it is only used on the small canonical states of the containment
checker, on test instances, and by the empirical roundtrip oracle.

Semantics notes:

* Joins are natural, on the *static* shared output columns of the two
  inputs.  Join columns with NULL on either side never match (SQL).
* Left/full outer joins pad the missing side's static columns with NULL.
* UNION ALL pads all branches to the union of their static columns with
  NULL — the explicit ``CAST (NULL AS ...)`` padding of Figure 2, applied
  implicitly.
* An entity-set scan yields one tuple per entity carrying exactly the
  attributes of its concrete type, plus a hidden type tag used by
  ``IS OF`` atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.conditions import TupleContext, evaluate_condition
from repro.algebra.queries import (
    AssociationScan,
    Const,
    FullOuterJoin,
    Join,
    LeftOuterJoin,
    Project,
    Query,
    Select,
    SetScan,
    TableScan,
    UnionAll,
)
from repro.edm.instances import ClientState
from repro.edm.schema import ClientSchema
from repro.errors import EvaluationError
from repro.relational.instances import StoreState, row_map
from repro.relational.schema import StoreSchema

TYPE_TAG = "__type__"

RowDict = Dict[str, object]


class EvaluationContext:
    """Scan access + hierarchy knowledge for one side of the mapping."""

    def scan_rows(self, leaf: Query) -> List[RowDict]:
        raise NotImplementedError

    def scan_columns(self, leaf: Query) -> Tuple[str, ...]:
        raise NotImplementedError

    def is_subtype(self, concrete: str, ancestor: str) -> bool:
        raise NotImplementedError


class ClientContext(EvaluationContext):
    """Evaluates client-side queries (update-view bodies) over a ClientState."""

    def __init__(self, state: ClientState) -> None:
        self.state = state
        self.schema: ClientSchema = state.schema

    def scan_rows(self, leaf: Query) -> List[RowDict]:
        if isinstance(leaf, SetScan):
            rows = []
            for entity in self.state.entities(leaf.set_name):
                row = dict(entity.values)
                row[TYPE_TAG] = entity.concrete_type
                rows.append(row)
            return rows
        if isinstance(leaf, AssociationScan):
            association = self.schema.association(leaf.assoc_name)
            key1 = self.schema.key_of(association.end1.entity_type)
            key2 = self.schema.key_of(association.end2.entity_type)
            names = association.qualified_key_attrs(key1, key2)
            return [dict(zip(names, pair)) for pair in self.state.associations(leaf.assoc_name)]
        raise EvaluationError(f"client context cannot scan {leaf!r}")

    def scan_columns(self, leaf: Query) -> Tuple[str, ...]:
        if isinstance(leaf, SetScan):
            entity_set = self.schema.entity_set(leaf.set_name)
            columns: List[str] = []
            for type_name in self.schema.descendants_or_self(entity_set.root_type):
                for attr in self.schema.attribute_names_of(type_name):
                    if attr not in columns:
                        columns.append(attr)
            return tuple(columns)
        if isinstance(leaf, AssociationScan):
            association = self.schema.association(leaf.assoc_name)
            key1 = self.schema.key_of(association.end1.entity_type)
            key2 = self.schema.key_of(association.end2.entity_type)
            return association.qualified_key_attrs(key1, key2)
        raise EvaluationError(f"client context cannot scan {leaf!r}")

    def is_subtype(self, concrete: str, ancestor: str) -> bool:
        return ancestor in self.schema.ancestors_or_self(concrete)


class StoreContext(EvaluationContext):
    """Evaluates store-side queries (query-view bodies) over a StoreState."""

    def __init__(self, state: StoreState) -> None:
        self.state = state
        self.schema: StoreSchema = state.schema

    def scan_rows(self, leaf: Query) -> List[RowDict]:
        if isinstance(leaf, TableScan):
            # row_map reuses the memoized dict view of each row — table
            # scans sit under every view evaluation's inner loop.
            return [row_map(row) for row in self.state.rows(leaf.table_name)]
        raise EvaluationError(f"store context cannot scan {leaf!r}")

    def scan_columns(self, leaf: Query) -> Tuple[str, ...]:
        if isinstance(leaf, TableScan):
            return self.schema.table(leaf.table_name).column_names
        raise EvaluationError(f"store context cannot scan {leaf!r}")

    def is_subtype(self, concrete: str, ancestor: str) -> bool:
        raise EvaluationError("IS OF atoms cannot be evaluated on store tuples")


class _RowConditionContext(TupleContext):
    def __init__(self, row: Mapping[str, object], context: EvaluationContext) -> None:
        self._row = row
        self._context = context

    def attr_value(self, name: str) -> object:
        if name not in self._row:
            raise KeyError(name)
        return self._row[name]

    def is_of(self, type_name: str, only: bool) -> bool:
        concrete = self._row.get(TYPE_TAG)
        if concrete is None:
            raise EvaluationError("tuple has no type tag; IS OF is client-side only")
        if only:
            return concrete == type_name
        return self._context.is_subtype(str(concrete), type_name)


def output_columns(query: Query, context: EvaluationContext) -> Tuple[str, ...]:
    """Static output columns of *query* (excluding the hidden type tag)."""
    if isinstance(query, (SetScan, AssociationScan, TableScan)):
        return context.scan_columns(query)
    if isinstance(query, Select):
        return output_columns(query.source, context)
    if isinstance(query, Project):
        return query.output_names
    if isinstance(query, (Join, LeftOuterJoin, FullOuterJoin)):
        left = output_columns(query.left, context)
        right = output_columns(query.right, context)
        return left + tuple(c for c in right if c not in left)
    if isinstance(query, UnionAll):
        columns: List[str] = []
        for branch in query.branches:
            for column in output_columns(branch, context):
                if column not in columns:
                    columns.append(column)
        return tuple(columns)
    raise EvaluationError(f"unknown query node {query!r}")


def evaluate_query(query: Query, context: EvaluationContext) -> List[RowDict]:
    """Evaluate *query*, returning de-duplicated rows (set semantics)."""
    rows = _evaluate(query, context)
    seen = set()
    unique: List[RowDict] = []
    for row in rows:
        key = tuple(sorted((k, v) for k, v in row.items() if k != TYPE_TAG))
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique


def evaluate_query_bag(query: Query, context: EvaluationContext) -> List[RowDict]:
    """Bag-semantics evaluation (no dedup).

    The incremental write path (:mod:`repro.ivm`) maintains per-row
    multiplicity counts whose support must equal :func:`evaluate_query`'s
    deduplicated output; seeding them from the raw bag keeps both paths
    reading the same operator semantics.
    """
    return _evaluate(query, context)


#: the dedup identity of one output row: its (column, value) pairs
#: sorted by column, hidden type tag excluded — what
#: :func:`evaluate_query` de-duplicates on
RowKey = Tuple[Tuple[str, object], ...]

#: one query answer with multiplicities: dedup identity -> (the first row
#: seen under it, how many times the bag holds it).  The keys in
#: insertion order are exactly :func:`evaluate_query`'s output.
Bag = Dict[RowKey, Tuple[RowDict, int]]


def row_key(row: RowDict) -> RowKey:
    if TYPE_TAG not in row:  # store rows: sort the pairs at C speed
        return tuple(sorted(row.items()))
    return tuple(sorted((k, v) for k, v in row.items() if k != TYPE_TAG))


def bag_of(rows: Iterable[RowDict]) -> Bag:
    """Count *rows* into a :data:`Bag` — how the executors de-duplicate,
    keeping the multiplicities the result tier maintains instead of
    throwing the duplicates away."""
    bag: Bag = {}
    for row in rows:
        key = row_key(row)
        slot = bag.get(key)
        bag[key] = (row, 1) if slot is None else (slot[0], slot[1] + 1)
    return bag


def bag_support(bag: Bag) -> List[RowDict]:
    """The distinct rows of *bag*, first seen first."""
    return [row for row, _count in bag.values()]


def _evaluate(query: Query, context: EvaluationContext) -> List[RowDict]:
    if isinstance(query, (SetScan, AssociationScan, TableScan)):
        return context.scan_rows(query)

    if isinstance(query, Select):
        rows = _evaluate(query.source, context)
        return [
            row
            for row in rows
            if evaluate_condition(query.condition, _RowConditionContext(row, context))
        ]

    if isinstance(query, Project):
        rows = _evaluate(query.source, context)
        projected = []
        for row in rows:
            out: RowDict = {}
            for item in query.items:
                if isinstance(item.expr, Const):
                    out[item.output] = item.expr.value
                else:
                    name = item.expr.name
                    if name not in row:
                        raise EvaluationError(
                            f"projection references missing column {name!r} "
                            f"(row has {sorted(k for k in row if k != TYPE_TAG)})"
                        )
                    out[item.output] = row[name]
            projected.append(out)
        return projected

    if isinstance(query, Join):
        return _join(query, context, left_outer=False, full_outer=False)
    if isinstance(query, LeftOuterJoin):
        return _join(query, context, left_outer=True, full_outer=False)
    if isinstance(query, FullOuterJoin):
        return _join(query, context, left_outer=True, full_outer=True)

    if isinstance(query, UnionAll):
        all_columns = output_columns(query, context)
        rows: List[RowDict] = []
        for branch in query.branches:
            for row in _evaluate(branch, context):
                padded = {column: row.get(column) for column in all_columns}
                rows.append(padded)
        return rows

    raise EvaluationError(f"unknown query node {query!r}")


def _join(query, context: EvaluationContext, left_outer: bool, full_outer: bool) -> List[RowDict]:
    left_rows = _evaluate(query.left, context)
    right_rows = _evaluate(query.right, context)
    spec = join_spec(
        output_columns(query.left, context),
        output_columns(query.right, context),
        query.on,
    )
    return join_rows(
        left_rows, right_rows, spec, left_pad=left_outer, right_pad=full_outer
    )


# ---------------------------------------------------------------------------
# The join kernel, shared by the interpreter and the compiled physical
# plans (:mod:`repro.backend.physical`).  Keeping one implementation of
# the natural-join / COALESCE / NULL-padding semantics is what licenses
# the compiled path's byte-identical-answers guarantee.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JoinSpec:
    """Static column structure of one natural join, computed once."""

    left_columns: Tuple[str, ...]
    shared: Tuple[str, ...]
    join_columns: Tuple[str, ...]
    #: shared non-join columns, merged by COALESCE(left, right)
    coalesced: Tuple[str, ...]
    left_only: Tuple[str, ...]
    right_only: Tuple[str, ...]


def join_spec(
    left_columns: Tuple[str, ...],
    right_columns: Tuple[str, ...],
    on: Optional[Tuple[str, ...]],
) -> JoinSpec:
    shared = tuple(c for c in left_columns if c in right_columns)
    if on is not None:
        join_columns = on
        missing = [c for c in join_columns if c not in shared]
        if missing:
            raise EvaluationError(
                f"join columns {missing} are not shared by both inputs"
            )
    else:
        join_columns = shared
    return JoinSpec(
        left_columns=left_columns,
        shared=shared,
        join_columns=join_columns,
        coalesced=tuple(c for c in shared if c not in join_columns),
        left_only=tuple(c for c in left_columns if c not in shared),
        right_only=tuple(c for c in right_columns if c not in shared),
    )


def join_key(
    row: RowDict, join_columns: Tuple[str, ...]
) -> Optional[Tuple[object, ...]]:
    """The row's join-key tuple, or None if any component is NULL."""
    values = tuple(row.get(c) for c in join_columns)
    if any(v is None for v in values):
        return None  # NULL never joins
    return values


def build_join_index(
    rows: Sequence[RowDict], join_columns: Tuple[str, ...]
) -> Dict[Tuple[object, ...], List[RowDict]]:
    """Hash rows by join key; NULL-keyed rows are left out (never match)."""
    index: Dict[Tuple[object, ...], List[RowDict]] = {}
    for row in rows:
        key = join_key(row, join_columns)
        if key is not None:
            index.setdefault(key, []).append(row)
    return index


def joined_row(left_row: RowDict, right_row: RowDict, spec: JoinSpec) -> RowDict:
    """One matched pair's output row: the left columns, shared non-join
    columns COALESCEd from the right, then the right-only columns."""
    combined = {c: left_row.get(c) for c in spec.left_columns}
    for column in spec.coalesced:
        if combined.get(column) is None:
            combined[column] = right_row.get(column)
    for column in spec.right_only:
        combined[column] = right_row.get(column)
    return combined


def left_padded_row(left_row: RowDict, spec: JoinSpec) -> RowDict:
    """An unmatched left row, its right-only columns NULL."""
    combined = {c: left_row.get(c) for c in spec.left_columns}
    for column in spec.right_only:
        combined[column] = None
    return combined


def join_rows(
    left_rows: Sequence[RowDict],
    right_rows: Sequence[RowDict],
    spec: JoinSpec,
    left_pad: bool,
    right_pad: bool,
    index: Optional[Dict[Tuple[object, ...], List[RowDict]]] = None,
) -> List[RowDict]:
    """Join two row lists under *spec*.

    ``left_pad`` emits unmatched left rows with NULL right-only columns
    (left outer); ``right_pad`` emits unmatched right rows with NULL
    left-only columns (the full-outer tail).  A prebuilt *index* of the
    right rows by join key may be supplied (compiled plans read the
    store's key index); its ``get(key, default)`` must return what
    :func:`build_join_index` over exactly ``right_rows`` would hold.
    """
    join_columns = spec.join_columns
    if index is None:
        index = build_join_index(right_rows, join_columns)
    result: List[RowDict] = []
    matched_right: set = set()
    for left_row in left_rows:
        key = join_key(left_row, join_columns)
        matches = index.get(key, ()) if key is not None else ()
        if matches:
            for right_row in matches:
                result.append(joined_row(left_row, right_row, spec))
            matched_right.add(key)
        elif left_pad:
            result.append(left_padded_row(left_row, spec))
    if right_pad:
        for right_row in right_rows:
            key = join_key(right_row, join_columns)
            if key is not None and key in matched_right:
                continue
            combined = {c: None for c in spec.left_only}
            for column in spec.shared:
                combined[column] = right_row.get(column)
            for column in spec.right_only:
                combined[column] = right_row.get(column)
            result.append(combined)
    return result
