"""Tests: update translation (client deltas → store INSERT/DELETE/UPDATE)."""

import pytest

from repro.compiler import compile_mapping
from repro.edm import ClientState, Entity
from repro.mapping import apply_update_views
from repro.query import apply_delta, diff_store_states, translate_update
from repro.query.dml import to_sql
from repro.relational import StoreSchema, StoreState
from repro.stategen import random_client_state
from repro.workloads.paper_example import mapping_stage4


@pytest.fixture(scope="module")
def setup():
    mapping = mapping_stage4()
    views = compile_mapping(mapping).views
    return mapping, views


def _base_state(schema):
    state = ClientState(schema)
    state.add_entity("Persons", Entity.of("Person", Id=1, Name="ann"))
    state.add_entity("Persons", Entity.of("Employee", Id=2, Name="bob", Department="hr"))
    state.add_entity(
        "Persons", Entity.of("Customer", Id=3, Name="cid", CredScore=5, BillAddr="x")
    )
    state.add_association("Supports", (3,), (2,))
    return state


class TestTranslateUpdate:
    def test_insert_entity(self, setup):
        mapping, views = setup
        old = _base_state(mapping.client_schema)
        new = _base_state(mapping.client_schema)
        new.add_entity("Persons", Entity.of("Person", Id=9, Name="zoe"))
        delta = translate_update(views, old, new, mapping.store_schema)
        assert delta.tables["HR"].inserts
        assert not delta.tables["HR"].deletes
        assert "Emp" not in delta.tables  # untouched table: no statements

    def test_delete_entity(self, setup):
        mapping, views = setup
        old = _base_state(mapping.client_schema)
        new = ClientState(mapping.client_schema)
        new.add_entity("Persons", Entity.of("Person", Id=1, Name="ann"))
        new.add_entity("Persons", Entity.of("Employee", Id=2, Name="bob", Department="hr"))
        delta = translate_update(views, old, new, mapping.store_schema)
        assert delta.tables["Client"].deletes

    def test_attribute_change_is_update(self, setup):
        """A renamed person is one UPDATE on HR, not delete+insert."""
        mapping, views = setup
        old = _base_state(mapping.client_schema)
        new = _base_state(mapping.client_schema)
        # rebuild with a changed name for Id=1
        new = ClientState(mapping.client_schema)
        new.add_entity("Persons", Entity.of("Person", Id=1, Name="ANN"))
        new.add_entity("Persons", Entity.of("Employee", Id=2, Name="bob", Department="hr"))
        new.add_entity(
            "Persons", Entity.of("Customer", Id=3, Name="cid", CredScore=5, BillAddr="x")
        )
        new.add_association("Supports", (3,), (2,))
        delta = translate_update(views, old, new, mapping.store_schema)
        hr = delta.tables["HR"]
        assert len(hr.updates) == 1 and not hr.inserts and not hr.deletes

    def test_association_change_touches_fk_column(self, setup):
        mapping, views = setup
        old = _base_state(mapping.client_schema)
        new = _base_state(mapping.client_schema)
        # drop the Supports link: rebuild without it
        new = ClientState(mapping.client_schema)
        new.add_entity("Persons", Entity.of("Person", Id=1, Name="ann"))
        new.add_entity("Persons", Entity.of("Employee", Id=2, Name="bob", Department="hr"))
        new.add_entity(
            "Persons", Entity.of("Customer", Id=3, Name="cid", CredScore=5, BillAddr="x")
        )
        delta = translate_update(views, old, new, mapping.store_schema)
        client = delta.tables["Client"]
        assert len(client.updates) == 1  # Eid goes to NULL
        rendered = to_sql(delta)
        assert "UPDATE Client" in rendered and "Eid" in rendered

    def test_noop_change_is_empty(self, setup):
        mapping, views = setup
        old = _base_state(mapping.client_schema)
        new = _base_state(mapping.client_schema)
        delta = translate_update(views, old, new, mapping.store_schema)
        assert delta.empty
        assert "empty" in str(delta)


class TestApplyDelta:
    def test_delta_application_reaches_target(self, setup):
        """apply_delta(V(c), Δ) == V(c′) for random state pairs."""
        mapping, views = setup
        for seed in range(6):
            old = random_client_state(mapping.client_schema, seed=seed)
            new = random_client_state(mapping.client_schema, seed=seed + 100)
            old_store = apply_update_views(views, old, mapping.store_schema)
            new_store = apply_update_views(views, new, mapping.store_schema)
            delta = diff_store_states(old_store, new_store)
            patched = apply_delta(old_store, delta)
            assert patched.equals(new_store), f"seed {seed}"

    def test_statement_count(self, setup):
        mapping, views = setup
        old = _base_state(mapping.client_schema)
        new = ClientState(mapping.client_schema)
        delta = translate_update(views, old, new, mapping.store_schema)
        assert delta.statement_count() == 4  # HR x2 deletes? see below


class TestDiffSkips:
    def test_shared_tables_are_skipped(self, setup):
        """A table one state adopted from the other is not looked at, so
        a diff over a successor costs only the tables it rewrote."""
        mapping, views = setup
        old = apply_update_views(views, _base_state(mapping.client_schema), mapping.store_schema)
        new = apply_update_views(
            views, ClientState(mapping.client_schema), mapping.store_schema,
            tables={"Emp"}, base=old,
        )
        assert new.shares_table(old, "HR") and new.shares_table(old, "Client")
        assert not new.shares_table(old, "Emp")
        delta = diff_store_states(old, new)
        assert set(delta.tables) == {"Emp"}
        assert len(delta.tables["Emp"].deletes) == len(old.rows("Emp"))

    def test_tables_the_new_schema_drops_are_skipped(self, setup):
        """A migration's DDL drops them, rows and all."""
        mapping, views = setup
        old = apply_update_views(views, _base_state(mapping.client_schema), mapping.store_schema)
        smaller = StoreSchema([t for t in mapping.store_schema.tables if t.name != "Client"])
        new = StoreState(smaller)
        assert old.rows("Client")
        assert "Client" not in diff_store_states(old, new).tables
