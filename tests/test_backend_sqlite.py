"""Integration tests: an :class:`OrmSession` running on the SQLite
backend end-to-end — query, SaveChanges, batched evolution, undo — plus
the backend's transactional guarantees (a failed delta or migration
leaves the database byte-identical) and native PK/FK enforcement.
"""

import pytest

from tests.conftest import figure1_state
from repro.backend import (
    BACKEND_ENV,
    MemoryBackend,
    SqliteBackend,
    create_backend,
    default_backend_name,
)
from repro.compiler import compile_mapping
from repro.edm import Attribute, Entity, INT, STRING
from repro.errors import SchemaError, SmoError, ValidationError
from repro.incremental import AddEntity, AddProperty, CompiledModel
from repro.query import EntityQuery
from repro.query.dml import StoreDelta, TableDelta
from repro.query.dml import apply_delta as apply_store_delta
from repro.relational import ForeignKey, StoreState
from repro.relational.instances import make_row
from repro.session import OrmSession
from repro.workloads.paper_example import mapping_stage4


@pytest.fixture
def model():
    mapping = mapping_stage4()
    return CompiledModel(mapping, compile_mapping(mapping).views)


@pytest.fixture
def session(model):
    session = OrmSession.create(model, backend="sqlite")
    yield session
    session.backend.close()


def _populate(session):
    session.save(figure1_state(session.model.client_schema))


def canon(results):
    return sorted(repr(r) for r in results)


class TestSessionOnSqlite:
    def test_create_picks_sqlite(self, session):
        assert session.backend.name == "sqlite"
        assert isinstance(session.backend, SqliteBackend)

    def test_save_then_load_roundtrips(self, session, model):
        _populate(session)
        loaded = session.load()
        assert loaded.equals(figure1_state(model.client_schema))

    def test_query_matches_memory_backend(self, session, model):
        """Acceptance: identical query answers on either engine."""
        _populate(session)
        memory = OrmSession.create(model, backend="memory")
        _populate(memory)
        for condition_query in (
            EntityQuery("Persons"),
            EntityQuery("Persons", projection=("Id", "Name")),
        ):
            assert canon(session.query(condition_query)) == canon(
                memory.query(condition_query)
            )

    def test_incremental_save_is_minimal_delta(self, session):
        _populate(session)
        with session.edit() as state:
            state.add_entity("Persons", Entity.of("Person", Id=9, Name="zoe"))
        # second save: only the new person's row travels
        assert session.backend.row_count() == 6

    def test_evolve_many_and_query(self, session):
        _populate(session)
        smos = [
            AddEntity.tpt(
                session.model, "Sub1", "Person", [Attribute("A1", INT)],
                "Sub1T",
                table_foreign_keys=[ForeignKey(("Id",), "HR", ("Id",))],
            ),
            AddProperty(
                "Employee", Attribute("Title", STRING, nullable=True),
                "Emp", "Title",
            ),
        ]
        session.evolve_many(smos)
        assert session.backend.schema.has_table("Sub1T")
        assert session.backend.schema.table("Emp").has_column("Title")
        with session.edit() as state:
            state.add_entity(
                "Persons", Entity.of("Sub1", Id=7, Name="sue", A1=1)
            )
        assert len(session.query(EntityQuery("Persons"))) == 5
        assert len(session.journal) == 1

    def test_undo_restores_schema_and_data(self, session):
        _populate(session)
        baseline = session.model.fingerprint()
        snapshot = session.backend.snapshot()
        session.evolve(
            AddEntity.tpt(
                session.model, "Sub1", "Person", [Attribute("A1", INT)],
                "Sub1T",
                table_foreign_keys=[ForeignKey(("Id",), "HR", ("Id",))],
            )
        )
        assert session.backend.schema.has_table("Sub1T")
        session.undo()
        assert session.model.fingerprint() == baseline
        assert session.backend.snapshot() == snapshot
        assert not session.backend.schema.has_table("Sub1T")
        # the restored session is fully usable
        assert len(session.query(EntityQuery("Persons"))) == 4

    def test_store_state_identity_is_cached(self, session):
        _populate(session)
        assert session.store_state is session.store_state
        before = session.store_state
        with session.edit() as state:
            state.add_entity("Persons", Entity.of("Person", Id=9, Name="zoe"))
        assert session.store_state is not before  # writes invalidate


class TestTransactionality:
    def test_failed_delta_leaves_database_unchanged(self, session):
        _populate(session)
        snapshot = session.backend.snapshot()
        # a delta whose insert collides with an existing primary key
        bad = StoreDelta(
            tables={
                "HR": TableDelta(
                    "HR", inserts=[make_row(Id=1, Name="dup")]
                )
            }
        )
        with pytest.raises(ValidationError, match="store constraints"):
            session.backend.apply_delta(bad)
        assert session.backend.snapshot() == snapshot

    def test_native_fk_rejection(self, session):
        _populate(session)
        snapshot = session.backend.snapshot()
        dangling = StoreDelta(
            tables={
                "Emp": TableDelta(
                    "Emp",
                    inserts=[make_row(Id=99, Dept="ghost")],  # no HR row 99
                )
            }
        )
        with pytest.raises(ValidationError, match="store constraints"):
            session.backend.apply_delta(dangling)
        assert session.backend.snapshot() == snapshot

    def test_failed_migration_batch_leaves_store_unchanged(self, session):
        """Acceptance criterion: abort atomicity on the SQLite store."""
        _populate(session)
        baseline = session.model.fingerprint()
        snapshot = session.backend.snapshot()
        store_before = session.store_state
        smos = [
            AddEntity.tpt(
                session.model, "Sub1", "Person", [Attribute("A1", INT)],
                "Sub1T",
                table_foreign_keys=[ForeignKey(("Id",), "HR", ("Id",))],
            ),
            AddEntity.tpt(  # clashes: Sub1T already claimed
                session.model, "Clash", "Person", [Attribute("B", INT)],
                "Sub1T",
                table_foreign_keys=[ForeignKey(("Id",), "HR", ("Id",))],
            ),
        ]
        with pytest.raises(SmoError):
            session.evolve_many(smos)
        assert session.model.fingerprint() == baseline
        assert session.backend.snapshot() == snapshot
        assert session.store_state is store_before  # cache untouched too
        assert not session.journal

    def test_failed_migration_script_rolls_back(self, session, model):
        """A migration that dangles a foreign key rolls back wholesale."""
        _populate(session)
        snapshot = session.backend.snapshot()
        schema = session.backend.schema
        state = session.store_state
        # target drops an HR row that Emp still references
        target = StoreState(schema)
        for table in state.populated_tables():
            for row in state.rows(table.name):
                if table.name == "HR" and dict(row)["Id"] == 2:
                    continue
                target.add_row(table.name, row)
        from repro.backend import plan_migration

        script = plan_migration(schema, schema, state, target)
        with pytest.raises(ValidationError, match="migration"):
            session.backend.migrate(script, schema, target)
        assert session.backend.snapshot() == snapshot

    def test_migration_checks_a_referrer_it_never_touches(self, session):
        """The migration's foreign-key check covers only the tables the
        script can break, and that still includes one the script never
        touches when it deletes a row that table references."""
        _populate(session)
        backend = session.backend
        dump = list(backend.connection.iterdump())
        schema = backend.schema
        state = session.store_state
        hr = next(row for row in state.rows("HR") if dict(row)["Id"] == 2)
        target = apply_store_delta(
            state,
            StoreDelta(tables={"HR": TableDelta("HR", deletes=[hr])}),
        )
        from repro.backend import plan_migration

        script = plan_migration(schema, schema, state, target)
        assert {step.table for step in script.steps} == {"HR"}
        assert "Emp" in script.foreign_key_scope(schema)
        with pytest.raises(ValidationError, match="migration"):
            backend.migrate(script, schema, target)
        assert list(backend.connection.iterdump()) == dump

    def test_save_constraint_violation_error_matches_memory(self, session, model):
        """Same error surface on either engine for a violating delta."""
        _populate(session)
        memory = OrmSession.create(model, backend="memory")
        _populate(memory)
        bad = StoreDelta(
            tables={
                "HR": TableDelta("HR", inserts=[make_row(Id=1, Name="dup")])
            }
        )

        def violate(target_session):
            with pytest.raises(ValidationError) as excinfo:
                target_session.backend.apply_delta(bad)
            return excinfo.value

        sqlite_error = violate(session)
        memory_error = violate(memory)
        assert str(sqlite_error).startswith("update would violate store constraints")
        assert str(memory_error).startswith("update would violate store constraints")
        assert sqlite_error.check == memory_error.check == "save-changes"
        # neither applied anything
        assert session.backend.snapshot() == memory.backend.snapshot()


class TestBackendSelection:
    def test_env_default_is_memory(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert default_backend_name() == "memory"

    def test_env_selects_sqlite(self, monkeypatch, model):
        monkeypatch.setenv(BACKEND_ENV, "sqlite")
        session = OrmSession.create(model)
        try:
            assert session.backend.name == "sqlite"
        finally:
            session.backend.close()

    def test_env_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "oracle")
        with pytest.raises(SchemaError, match="unknown backend"):
            default_backend_name()

    def test_explicit_name_beats_env(self, monkeypatch, model):
        monkeypatch.setenv(BACKEND_ENV, "sqlite")
        session = OrmSession.create(model, backend="memory")
        assert isinstance(session.backend, MemoryBackend)

    def test_create_backend_seeds_initial_state(self, model):
        state = StoreState(model.store_schema)
        state.add_row("HR", make_row(Id=1, Name="ann"))
        backend = create_backend("sqlite", model.store_schema, store_state=state)
        try:
            assert backend.row_count() == 1
        finally:
            backend.close()

    def test_db_path_persists_to_disk(self, model, tmp_path):
        path = str(tmp_path / "store.db")
        session = OrmSession.create(model, backend="sqlite", db_path=path)
        _populate(session)
        session.backend.close()

        reopened = SqliteBackend(model.store_schema, db_path=path)
        try:
            assert reopened.row_count() == 5
        finally:
            reopened.close()

    def test_bare_store_state_wraps_memory_backend(self, model):
        # the historical constructor still works
        session = OrmSession(model, StoreState(model.store_schema))
        assert isinstance(session.backend, MemoryBackend)

    def test_state_and_backend_are_exclusive(self, model):
        with pytest.raises(SmoError, match="not both"):
            OrmSession(
                model,
                store_state=StoreState(model.store_schema),
                backend=MemoryBackend(StoreState(model.store_schema)),
            )
