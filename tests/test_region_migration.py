"""Region migration against the whole-store oracle.

An evolve reads, through the old query views, only the sets and
associations the evolved update views of its stale region scan, lowers
only the region's tables and carries every other table by reference;
its undo is the same migration run backwards to the journal snapshot.
The oracle here is the whole-store composition: every set read through
the old query views, embedded into the evolved schema and lowered
through every new update view.

Each case runs on both backends.  SQLite's store is read back from the
database (``SqliteBackend.snapshot`` reads every table through SQL), so
a script that leaves the database short of the state the engine
mirrors fails here too.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from tests.test_backend_differential import SMO_KINDS, compiled
from tests.test_batch_evolution import subtype_smo
from tests.test_result_cache import chain_session, widen_entity1
from repro.backend import MemoryBackend, SqliteBackend
from repro.bench.fig10 import build_model, suite_for
from repro.edm import Entity
from repro.errors import SchemaError
from repro.incremental import CompiledModel, DropAssociation
from repro.ivm import DeltaScript, EntityOp
from repro.mapping.roundtrip import apply_query_views, apply_update_views
from repro.relational.instances import StoreState
from repro.session import OrmSession
from repro.stategen import random_client_state
from repro.workloads.chain import entity_name, set_name
from repro.workloads.paper_example import mapping_stage4

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"))
from e2e_workloads import EVOLVE_KINDS  # noqa: E402

BACKENDS = ["memory", "sqlite"]
CUSTOMER_SCALE = 0.15
CUSTOMER_SEED = 7


def whole_store_oracle(
    old: CompiledModel, evolved: CompiledModel, before: StoreState
) -> StoreState:
    """The migrated store as the whole-store path computes it."""
    client = apply_query_views(old.views, before, old.client_schema)
    return apply_update_views(
        evolved.views,
        client.embed_into(evolved.client_schema),
        evolved.store_schema,
    )


def session_on(model: CompiledModel, backend: str) -> OrmSession:
    if backend == "memory":
        engine = MemoryBackend(StoreState(model.store_schema))
    else:
        engine = SqliteBackend(model.store_schema)
    return OrmSession(model, backend=engine)


def stored_state(session: OrmSession) -> StoreState:
    """The backend's data as a store state, read from the database on
    SQLite rather than from its mirror."""
    state = StoreState(session.backend.schema)
    for table_name, rows in session.backend.snapshot().items():
        for row in rows:
            state.add_row(table_name, row)
    return state


def evolve_and_undo(session: OrmSession, smos) -> None:
    """Evolve *smos* as one batch, check the store against the oracle,
    undo, and check the store and the load against the pre-evolve ones."""
    old = session.model
    before = stored_state(session)
    loaded = session.load()
    session.evolve_many(smos)
    expected = whole_store_oracle(old, session.model, before)
    assert session.backend.snapshot() == expected.snapshot()
    entry = session.journal[-1]
    session.undo()
    assert session.backend.snapshot() == before.snapshot()
    assert entry.store_before.snapshot() == before.snapshot()
    assert session.load().equals(loaded)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "base_factory,smo_factory,pop",
    [(b, s, p) for _, b, s, p in SMO_KINDS],
    ids=[kind for kind, _, _, _ in SMO_KINDS],
)
def test_every_smo_kind_matches_the_oracle(base_factory, smo_factory, pop, backend):
    model = base_factory()
    session = session_on(model, backend)
    try:
        session.save(pop(model))
        evolve_and_undo(session, [smo_factory(model)])
    finally:
        session.backend.close()


@pytest.fixture(scope="module")
def customer():
    model = build_model(CUSTOMER_SCALE, CUSTOMER_SEED)
    data = random_client_state(model.client_schema, seed=5, entities_per_set=8)
    return model, data, dict(suite_for(CUSTOMER_SCALE, CUSTOMER_SEED))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", EVOLVE_KINDS)
def test_e2e_kinds_on_the_customer_model_match_the_oracle(customer, kind, backend):
    model, data, suite = customer
    session = session_on(model, backend)
    try:
        session.save(data)
        evolve_and_undo(session, [suite[kind](model)])
    finally:
        session.backend.close()


def stage4_model() -> CompiledModel:
    return compiled(mapping_stage4())


@pytest.mark.parametrize("backend", BACKENDS)
def test_three_smo_batch_matches_the_oracle(backend):
    model = stage4_model()
    session = session_on(model, backend)
    try:
        session.save(
            random_client_state(model.client_schema, seed=9, entities_per_set=6)
        )
        evolve_and_undo(session, [subtype_smo(model, i) for i in (1, 2, 3)])
    finally:
        session.backend.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_empty_dropped_association_aborts_and_reads_like_the_oracle(backend):
    """Holds is not scanned by any evolved update view, but the evolved
    schema cannot hold its pairs: the evolve aborts as the whole-store
    embedding does, and nothing is published."""
    model = SMO_KINDS[[k for k, *_ in SMO_KINDS].index("da")][1]()
    session = session_on(model, backend)
    try:
        session.save(
            random_client_state(model.client_schema, seed=7, entities_per_set=5)
        )
        before = session.backend.snapshot()
        fingerprint = session.model.fingerprint()
        client = apply_query_views(
            model.views, session.store_state, model.client_schema
        )
        evolved = session._compiler.compile_batch(
            model, [DropAssociation("Holds")]
        ).model
        with pytest.raises(SchemaError, match="Holds"):
            client.embed_into(evolved.client_schema)
        with pytest.raises(SchemaError, match="Holds"):
            session.evolve(DropAssociation("Holds"))
        assert session.backend.snapshot() == before
        assert session.model.fingerprint() == fingerprint
        assert not session.journal
    finally:
        session.backend.close()


# ---------------------------------------------------------------------------
# Writes between the evolve and the undo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_undo_reverts_a_save_delta_outside_the_region(backend):
    mapping_session = chain_session()
    model = mapping_session.model
    session = session_on(model, backend)
    try:
        session.save(mapping_session.load())
        before = session.backend.snapshot()
        loaded = session.load()
        widen_entity1(session)  # region: T1
        assert session.journal[-1].delta.stale_region(
            session.model.mapping
        ).tables == {"T1"}
        entity = Entity.of(
            entity_name(3), Id=4, EntityAtt2="w", EntityAtt3="b4", EntityAtt4="c1"
        )
        written = session.save_delta(
            DeltaScript((EntityOp("update", set_name(3), entity=entity),))
        )
        assert set(written.tables) == {"T3"}
        session.undo()
        assert session.backend.snapshot() == before
        assert session.load().equals(loaded)
    finally:
        session.backend.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_undo_reverts_a_save_into_a_created_table(backend):
    """An entity of the type the evolve created puts rows into the
    created table and into its parent's table; the undo drops the first
    and deletes the row from the second."""
    model = stage4_model()
    session = session_on(model, backend)
    try:
        session.save(
            random_client_state(model.client_schema, seed=4, entities_per_set=6)
        )
        before = session.backend.snapshot()
        loaded = session.load()
        session.evolve(subtype_smo(model, 1))
        state = session.load()
        state.add_entity("Persons", Entity.of("Sub1", Id=900, Name="new", A1=1))
        written = session.save(state)
        assert {"HR", "Sub1T"} <= set(written.tables)
        session.undo()
        assert session.backend.snapshot() == before
        assert not session.backend.schema.has_table("Sub1T")
        assert session.load().equals(loaded)
    finally:
        session.backend.close()


def test_untouched_tables_share_storage_through_evolve_and_undo(customer):
    """Memory: after an AA-JT evolve, whose region is the join table it
    creates, every pre-existing table is the pre-evolve table object;
    after the undo the whole state is."""
    model, data, suite = customer
    session = session_on(model, "memory")
    session.save(data)
    before = session.store_state
    populated = [t.name for t in before.populated_tables()]
    assert populated
    session.evolve(suite["AA-JT"](model))
    after = session.store_state
    assert all(after.shares_table(before, name) for name in populated)
    session.undo()
    restored = session.store_state
    assert all(restored.shares_table(before, name) for name in populated)
    assert restored is before


def test_sqlite_mirror_carries_through_a_migration():
    """SQLite's mirror after a migration is the migrated state, so the
    next evolve reads no table from the database again."""
    mapping_session = chain_session()
    session = session_on(mapping_session.model, "sqlite")
    try:
        session.save(mapping_session.load())
        before = session.store_state
        widen_entity1(session)
        after = session.store_state
        assert after.shares_table(before, "T2")
        assert not after.shares_table(before, "T1")
        entry = session.journal[-1]
        session.undo()
        assert session.store_state is entry.store_before
    finally:
        session.backend.close()
