"""The empirical roundtrip oracle.

A mapping roundtrips iff ``M ∘ M⁻¹ = I_C`` (Section 2.2); for compiled
views this means ``Q(V(c)) = c`` for every client state c.  The compilers
verify this *symbolically*; this module verifies it on *concrete* states,
which gives tests and benchmarks an independent ground truth:

* :func:`apply_update_views` — run V: client state → store state;
* :func:`apply_query_views` — run Q: store state → client state;
* :func:`check_roundtrip` — the composed identity check, with diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, List, Optional

from repro.algebra.evaluate import ClientContext, StoreContext, evaluate_query
from repro.edm.instances import ClientState
from repro.edm.schema import ClientSchema
from repro.errors import ReproError
from repro.mapping.views import CompiledViews
from repro.relational.constraints import ConstraintViolation, check_all
from repro.relational.instances import StoreState
from repro.relational.schema import StoreSchema


def apply_update_views(
    views: CompiledViews,
    client_state: ClientState,
    store_schema: StoreSchema,
    tables: Optional[Collection[str]] = None,
    base: Optional[StoreState] = None,
) -> StoreState:
    """Translate a client state to the store through the update views.

    With *tables*, only those tables' update views run, and every other
    table of *store_schema* that *base* holds is adopted from *base* by
    reference (:meth:`StoreState.adopt_table`, key indexes included).
    *client_state* then only needs the sets and associations those views
    scan.
    """
    store_state = StoreState(store_schema)
    if tables is not None and base is not None:
        for table in base.populated_tables():
            if table.name not in tables and store_schema.has_table(table.name):
                store_state.adopt_table(base, table.name)
    context = ClientContext(client_state)
    for update_view in views.update_views.values():
        if tables is not None and update_view.table_name not in tables:
            continue
        for row in evaluate_query(update_view.query, context):
            store_state.add_row(
                update_view.table_name, update_view.constructor.construct_row(row)
            )
    return store_state


def apply_query_views(
    views: CompiledViews,
    store_state: StoreState,
    client_schema: ClientSchema,
    names: Optional[Collection[str]] = None,
) -> ClientState:
    """Reconstruct a client state from the store through the query views.

    Each entity set is populated from the query view of its root type
    (which constructs entities of every concrete type in the hierarchy);
    association sets from their association views.  With *names*, only
    the entity sets and associations it names are read, each association
    with the two sets its pairs reference; the others stay empty.
    """
    if names is not None:
        names = set(names)
        for association in client_schema.associations:
            if association.name in names:
                names.update((association.entity_set1, association.entity_set2))
    client_state = ClientState(client_schema)
    context = StoreContext(store_state)
    for entity_set in client_schema.entity_sets:
        if names is not None and entity_set.name not in names:
            continue
        view = views.query_views.get(entity_set.root_type)
        if view is None:
            continue
        for row in evaluate_query(view.query, context):
            client_state.add_entity(entity_set.name, view.constructor.construct(row))
    for association in client_schema.associations:
        if names is not None and association.name not in names:
            continue
        view = views.association_views.get(association.name)
        if view is None:
            continue
        key1 = client_schema.key_of(association.end1.entity_type)
        key2 = client_schema.key_of(association.end2.entity_type)
        role1 = association.end1.role_name
        role2 = association.end2.role_name
        for row in evaluate_query(view.query, context):
            values = view.constructor.construct_map(row)
            client_state.add_association(
                association.name,
                tuple(values[f"{role1}.{k}"] for k in key1),
                tuple(values[f"{role2}.{k}"] for k in key2),
            )
    return client_state


@dataclass
class RoundtripReport:
    """Outcome of one empirical roundtrip check."""

    ok: bool
    error: Optional[str] = None
    store_violations: List[ConstraintViolation] = field(default_factory=list)
    store_state: Optional[StoreState] = None
    reconstructed: Optional[ClientState] = None

    def __str__(self) -> str:
        if self.ok:
            return "roundtrip OK"
        parts = [f"roundtrip FAILED: {self.error}"]
        parts.extend(f"  {v}" for v in self.store_violations)
        return "\n".join(parts)


def check_roundtrip(
    views: CompiledViews,
    client_state: ClientState,
    store_schema: StoreSchema,
    require_consistent_store: bool = True,
) -> RoundtripReport:
    """Check ``Q(V(c)) = c`` for one concrete client state.

    Also checks that the produced store state satisfies its key and
    foreign-key constraints: a mapping whose update views violate store
    constraints does not roundtrip (Section 3.1.4).
    """
    schema = client_state.schema
    try:
        store_state = apply_update_views(views, client_state, store_schema)
    except ReproError as exc:
        return RoundtripReport(ok=False, error=f"update views failed: {exc}")

    violations = check_all(store_state) if require_consistent_store else []
    if violations:
        return RoundtripReport(
            ok=False,
            error="update views produced an inconsistent store state",
            store_violations=violations,
            store_state=store_state,
        )

    try:
        reconstructed = apply_query_views(views, store_state, schema)
    except ReproError as exc:
        return RoundtripReport(
            ok=False, error=f"query views failed: {exc}", store_state=store_state
        )

    if not reconstructed.equals(client_state):
        return RoundtripReport(
            ok=False,
            error=_diff_states(client_state, reconstructed),
            store_state=store_state,
            reconstructed=reconstructed,
        )
    return RoundtripReport(ok=True, store_state=store_state, reconstructed=reconstructed)


def _diff_states(original: ClientState, reconstructed: ClientState) -> str:
    left, right = original.snapshot(), reconstructed.snapshot()
    lines = ["reconstructed state differs from original:"]
    for key in sorted(set(left) | set(right)):
        before = left.get(key, frozenset())
        after = right.get(key, frozenset())
        if before != after:
            lost = before - after
            gained = after - before
            if lost:
                lines.append(f"  {key}: lost {sorted(map(str, lost))}")
            if gained:
                lines.append(f"  {key}: gained {sorted(map(str, gained))}")
    return "\n".join(lines)
