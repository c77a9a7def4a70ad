"""Delta propagation through compiled update views.

Every update view is ``(Q_T | τ_T)`` with ``Q_T`` built over client
scans.  Its delta rules are lowered by the shared signed-bag core
(:mod:`repro.algebra.delta`); this module supplies the client-scan
leaves — an entity-set scan emits the recorded ±entity rows, an
association scan the ±pairs, and both answer old-side probes by
rewinding the new client state through the :class:`ClientDelta`.

Because the store rows of a table are exactly the *support* of the bag
``τ_T(Q_T(c))`` (the whole-state save dedups the same construction), a
per-table multiplicity count table turns the signed stream into minimal
DML: a row whose count rises from zero is an INSERT, one whose count
falls to zero is a DELETE, and :func:`repro.query.dml.classify_rows`
pairs them into UPDATEs identically to a whole-state diff.

Everything a write derives from the model alone is derived once per
model.  A plan's selections are predicate closures whose ``IS OF`` type
sets the client schema fixed at lowering, and its row constructor
builds each canonical store row directly.  Plans are lowered once per
view slice and cached in :class:`WriteplanCache` under the same
delta-scoped invalidation discipline as the read-side
:class:`~repro.query.plancache.PlanCache`, and each model resolves every
table's plan and scanned sources once, so a write's plan lookup is a
dict lookup.  At run time the delta's active sources decide which views
and subtrees propagate, so e.g. an association-only delta skips the
entity union entirely.

Any query shape or multiplicity invariant the rules cannot maintain
raises :class:`~repro.errors.IvmError`; the engine then falls back to a
whole-state save, which is always correct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.delta import (
    DeltaRuntime,
    Node,
    Probe,
    Signed,
    compile_delta,
    matches,
    never_probe,
)
from repro.algebra.evaluate import (
    TYPE_TAG,
    ClientContext,
    RowDict,
    evaluate_query_bag,
)
from repro.algebra.queries import AssociationScan, Query, SetScan
from repro.backend.physical import compile_predicate
from repro.cache import CacheStats, LruCache
from repro.containment.cache import client_slice_tokens
from repro.edm.instances import ClientState, Entity
from repro.errors import IvmError
from repro.fingerprint import fingerprint
from repro.ivm.clientdelta import ClientDelta
from repro.query.dml import StoreDelta, classify_rows
from repro.relational.instances import Row


def _entity_row(entity: Entity) -> RowDict:
    row = dict(entity.values)
    row[TYPE_TAG] = entity.concrete_type
    return row


class _SetScanNode(Node):
    __slots__ = ("set_name", "key_attrs")

    def __init__(self, set_name: str, key_attrs: Tuple[str, ...],
                 columns: Tuple[str, ...]) -> None:
        self.set_name = set_name
        self.key_attrs = key_attrs
        self.columns = columns
        self.sources = frozenset((set_name,))

    def delta(self, rt: DeltaRuntime) -> List[Signed]:
        out: List[Signed] = []
        for old, new in rt.delta.entity_changes(self.set_name).values():
            if old is not None:
                out.append((-1, _entity_row(old)))
            if new is not None:
                out.append((+1, _entity_row(new)))
        return out

    def _old_entities(self, rt: DeltaRuntime):
        changes = rt.delta.entity_changes(self.set_name)
        for entity in rt.state.entities(self.set_name):
            if entity.key_tuple(self.key_attrs) not in changes:
                yield entity
        for old, _new in changes.values():
            if old is not None:
                yield old

    def _entity_at(self, rt: DeltaRuntime, key: Tuple[object, ...], old: bool) -> Optional[Entity]:
        if old:
            changes = rt.delta.entity_changes(self.set_name)
            if key in changes:
                return changes[key][0]
        return rt.state.entity_by_key(self.set_name, key)

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        scan_columns = set(self.columns)
        if any(c not in scan_columns for c in columns):
            return never_probe  # no row of this scan carries the column
        key_positions = {a: i for i, a in enumerate(columns)}
        if all(a in key_positions for a in self.key_attrs):
            key_attrs = self.key_attrs

            def keyed(rt: DeltaRuntime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
                key = tuple(values[key_positions[a]] for a in key_attrs)
                entity = self._entity_at(rt, key, old)
                if entity is None:
                    return []
                row = _entity_row(entity)
                return [row] if matches(row, columns, values) else []

            return keyed

        def scan(rt: DeltaRuntime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
            entities = self._old_entities(rt) if old else rt.state.entities(self.set_name)
            rows = (_entity_row(e) for e in entities)
            return [r for r in rows if matches(r, columns, values)]

        return scan


class _AssocScanNode(Node):
    __slots__ = ("assoc_name", "names", "key1_len")

    def __init__(self, assoc_name: str, names: Tuple[str, ...], key1_len: int) -> None:
        self.assoc_name = assoc_name
        self.names = names
        self.key1_len = key1_len
        self.columns = names
        self.sources = frozenset((assoc_name,))

    def _row(self, pair: Tuple[object, ...]) -> RowDict:
        return dict(zip(self.names, pair))

    def delta(self, rt: DeltaRuntime) -> List[Signed]:
        return [
            (sign, self._row(pair))
            for pair, sign in rt.delta.association_changes(self.assoc_name).items()
        ]

    def _old_pairs(self, rt: DeltaRuntime, new_pairs, end: Optional[int],
                   end_key: Tuple[object, ...]):
        """Adjust a new-side pair listing back to the old side: drop net
        inserts, add back net deletes (restricted to the probed end)."""
        changes = rt.delta.association_changes(self.assoc_name)
        pairs = [p for p in new_pairs if changes.get(p, 0) != 1]
        w = self.key1_len
        for pair, sign in changes.items():
            if sign != -1:
                continue
            if end == 0 and pair[:w] != end_key:
                continue
            if end == 1 and pair[w:] != end_key:
                continue
            pairs.append(pair)
        return pairs

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        known = set(self.names)
        if any(c not in known for c in columns):
            return never_probe
        positions = {n: i for i, n in enumerate(columns)}
        end1_names = self.names[: self.key1_len]
        end2_names = self.names[self.key1_len:]
        end: Optional[int] = None
        end_names: Tuple[str, ...] = ()
        if all(n in positions for n in end1_names):
            end, end_names = 0, end1_names
        elif all(n in positions for n in end2_names):
            end, end_names = 1, end2_names

        def probe(rt: DeltaRuntime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
            if end is None:
                new_pairs = rt.state.associations(self.assoc_name)
                end_key: Tuple[object, ...] = ()
            else:
                end_key = tuple(values[positions[n]] for n in end_names)
                new_pairs = rt.state.associations_with_end(self.assoc_name, end, end_key)
            pairs = self._old_pairs(rt, new_pairs, end, end_key) if old else new_pairs
            rows = (self._row(p) for p in pairs)
            return [r for r in rows if matches(r, columns, values)]

        return probe


def client_leaf(scan: Query, context: ClientContext) -> Node:
    """Lower one client scan for :func:`compile_delta`."""
    schema = context.schema
    if isinstance(scan, SetScan):
        entity_set = schema.entity_set(scan.set_name)
        return _SetScanNode(
            scan.set_name,
            tuple(schema.key_of(entity_set.root_type)),
            context.scan_columns(scan),
        )
    if isinstance(scan, AssociationScan):
        association = schema.association(scan.assoc_name)
        key1 = schema.key_of(association.end1.entity_type)
        return _AssocScanNode(scan.assoc_name, context.scan_columns(scan), len(key1))
    raise IvmError(f"no delta rule for {type(scan).__name__} over a client state")


@dataclass
class Writeplan:
    """One lowered update view: signed-row propagation plus the row
    constructor, producing net store-row multiplicity changes."""

    table_name: str
    root: Node
    constructor: object

    def run(self, rt: DeltaRuntime) -> Dict[Row, int]:
        net: Dict[Row, int] = {}
        construct_row = self.constructor.construct_row
        for sign, row in self.root.delta(rt):
            out = construct_row(row)
            total = net.get(out, 0) + sign
            if total:
                net[out] = total
            else:
                net.pop(out, None)
        return net


def compile_writeplan(view, schema) -> Writeplan:
    """Lower one update view's delta rules against *schema*: its
    selections become predicates whose type atoms test the schema's type
    sets, so the plan serves this schema version only."""
    context = ClientContext(ClientState(schema))  # schema-only: columns are static
    root = compile_delta(
        view.query, context, client_leaf, lambda c: compile_predicate(c, schema)
    )
    return Writeplan(view.table_name, root, view.constructor)


def _scanned_sources(view) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(entity sets, associations) the view's query scans."""
    sets: List[str] = []
    assocs: List[str] = []
    for node in view.query.walk():
        if isinstance(node, SetScan) and node.set_name not in sets:
            sets.append(node.set_name)
        elif isinstance(node, AssociationScan) and node.assoc_name not in assocs:
            assocs.append(node.assoc_name)
    return tuple(sets), tuple(assocs)


class _Resolved:
    """What one model's writes look up: each update view with the
    sources it scans, in table order, and each table's writeplan once
    resolved."""

    __slots__ = ("model", "views", "plans")

    def __init__(self, model) -> None:
        self.model = model
        #: (table, view, entity sets and associations it scans)
        self.views: Tuple[Tuple[str, object, FrozenSet[str]], ...] = tuple(
            (name, view, frozenset(sum(_scanned_sources(view), ())))
            for name, view in sorted(model.views.update_views.items())
        )
        #: table -> (its view, the view's writeplan)
        self.plans: Dict[str, Tuple[object, Writeplan]] = {}


#: lowered writeplans one engine keeps
WRITEPLAN_CACHE_SIZE = 256


class WriteplanCache:
    """LRU of lowered writeplans keyed by (table, view-slice fingerprint),
    plus the current model's resolution of them.

    The fingerprint covers the view structure *and* the client-schema
    slice its scans read (:func:`client_slice_tokens`), so any evolution
    visible to the plan changes the key; :meth:`invalidate` additionally
    evicts delta-scoped — exactly the entries whose table or scanned
    sources a :class:`MappingDelta`'s touched neighborhood reaches —
    mirroring the read-side :class:`~repro.query.plancache.PlanCache`
    discipline.  Data-only writes never invalidate writeplans.

    A model resolves each table's plan through the LRU once (so views an
    SMO left alone stay hot across it); later lookups under the same
    model are dict lookups, counted as hits.  The resolution belongs to
    one model object and goes when another model asks, or when an
    evolve or undo invalidates.
    """

    def __init__(self) -> None:
        self._plans = LruCache(WRITEPLAN_CACHE_SIZE)
        self._resolved: Optional[_Resolved] = None
        #: lookups the current model's resolution answered
        self._resolved_hits = 0

    def _for(self, model) -> _Resolved:
        resolved = self._resolved
        if resolved is None or resolved.model is not model:
            resolved = self._resolved = _Resolved(model)
        return resolved

    def views(self, model) -> Tuple[Tuple[str, object, FrozenSet[str]], ...]:
        """*model*'s update views in table order, each as (table, view,
        the entity sets and associations it scans)."""
        return self._for(model).views

    def plan_for(self, model, view) -> Writeplan:
        resolved = self._for(model)
        held = resolved.plans.get(view.table_name)
        if held is not None and held[0] is view:
            self._resolved_hits += 1
            return held[1]
        schema = model.client_schema
        sets, assocs = _scanned_sources(view)
        slice_fp = fingerprint(
            view, client_slice_tokens(schema, sets=sorted(sets), assocs=sorted(assocs))
        )
        plan = self._plans.get_or_build(
            (view.table_name, slice_fp),
            lambda: compile_writeplan(view, schema),  # may raise IvmError
        )
        resolved.plans[view.table_name] = (view, plan)
        return plan

    def invalidate(self, delta, mapping) -> int:
        """Evict exactly the writeplans a :class:`MappingDelta` can stale."""
        self._resolved = None
        stale = delta.stale_region(mapping)
        touched_sources = stale.sets | stale.assocs
        schema = mapping.client_schema

        def is_stale(_key, plan: Writeplan) -> bool:
            sources = plan.root.sources
            return (
                plan.table_name in stale.tables
                or not sources.isdisjoint(touched_sources)
                # raw names of dropped components no longer resolve
                or not all(
                    schema.has_entity_set(n) or schema.has_association(n)
                    for n in sources
                )
            )

        return self._plans.invalidate(is_stale)

    def clear(self) -> int:
        self._resolved = None
        return self._plans.clear()

    def stats(self) -> CacheStats:
        stats = self._plans.stats()
        return replace(stats, hits=stats.hits + self._resolved_hits)


class IncrementalWriteState:
    """The engine's cached object view plus per-table multiplicity counts.

    ``counts[table][row]`` is the bag multiplicity of *row* in the update
    view's output over ``client_state``; its support is exactly the
    table's store rows.  Counts are committed only after the backend
    accepted the DML, so a failed save leaves them untouched.
    """

    def __init__(self, client_state: ClientState, counts: Dict[str, Dict[Row, int]]) -> None:
        self.client_state = client_state
        self.counts = counts

    def commit(self, pending: List[Tuple[str, Dict[Row, int]]]) -> None:
        for table_name, net in pending:
            per = self.counts.setdefault(table_name, {})
            for row, d in net.items():
                total = per.get(row, 0) + d
                if total:
                    per[row] = total
                else:
                    per.pop(row, None)


def seed_counts(model, state: ClientState) -> Dict[str, Dict[Row, int]]:
    """Bag-evaluate every update view over *state* — the one O(n) pass
    that buys O(|delta|) for every subsequent incremental save."""
    context = ClientContext(state)
    counts: Dict[str, Dict[Row, int]] = {}
    for table_name, view in model.views.update_views.items():
        per: Dict[Row, int] = {}
        construct_row = view.constructor.construct_row
        for row in evaluate_query_bag(view.query, context):
            out = construct_row(row)
            per[out] = per.get(out, 0) + 1
        counts[table_name] = per
    return counts


def push_client_delta(
    model,
    delta: ClientDelta,
    inc_state: IncrementalWriteState,
    cache: WriteplanCache,
) -> Tuple[StoreDelta, List[Tuple[str, Dict[Row, int]]]]:
    """Compile *delta* into store DML via the update views.

    Returns the :class:`StoreDelta` plus the pending per-table count
    updates; the caller commits the counts (``inc_state.commit``) only
    after the backend accepted the DML.  Views scanning none of the
    delta's sources are skipped entirely — the O(|delta|) win.
    """
    state = inc_state.client_state  # the *new* client state
    rt = DeltaRuntime(delta, state, ClientContext(state), delta.sources())
    store_delta = StoreDelta()
    pending: List[Tuple[str, Dict[Row, int]]] = []
    for table_name, view, sources in cache.views(model):
        if rt.touched.isdisjoint(sources):
            continue
        plan = cache.plan_for(model, view)
        net = plan.run(rt)
        if not net:
            continue
        counts = inc_state.counts.get(table_name, {})
        fresh: List[Row] = []
        gone: List[Row] = []
        for row, d in net.items():
            before = counts.get(row, 0)
            after = before + d
            if after < 0:
                raise IvmError(
                    f"negative multiplicity for a row of {table_name!r}"
                )
            if before == 0 and after > 0:
                fresh.append(row)
            elif before > 0 and after == 0:
                gone.append(row)
        table_delta = classify_rows(model.store_schema.table(table_name), fresh, gone)
        if not table_delta.empty:
            store_delta.tables[table_name] = table_delta
        pending.append((table_name, net))
    return store_delta, pending
