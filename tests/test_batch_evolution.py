"""Integration tests: batched evolution, the session journal, and undo.

Covers the transactional surface the delta layer gives the session:

* ``evolve_many`` — one batch, one union-neighborhood validation, one
  journal entry; the acceptance criterion that a batch schedules
  *strictly fewer* checks than the same SMOs applied one at a time;
* ``undo`` — inverse-delta model restore plus store-state snapshot;
* abort atomicity — a failing batch leaves model, data, journal *and*
  the session's validation cache exactly as they were.
"""

import pytest

from repro.compiler import compile_mapping
from repro.edm import Attribute, Entity, INT, STRING
from repro.errors import SmoError, ValidationError
from repro.incremental import AddEntity, AddProperty, CompiledModel, DropEntity
from repro.query import EntityQuery
from repro.relational import ForeignKey
from repro.session import OrmSession
from repro.workloads.paper_example import mapping_stage3, mapping_stage4


def stage3_session():
    mapping = mapping_stage3()
    model = CompiledModel(mapping, compile_mapping(mapping).views)
    return OrmSession.create(model)


@pytest.fixture
def session():
    mapping = mapping_stage4()
    model = CompiledModel(mapping, compile_mapping(mapping).views)
    return OrmSession.create(model)


def _populate(session):
    with session.edit() as state:
        state.add_entity("Persons", Entity.of("Person", Id=1, Name="ann"))
        state.add_entity(
            "Persons", Entity.of("Employee", Id=2, Name="bob", Department="hr")
        )


def subtype_smo(model, index):
    """A TPT subtype of Person with its own attribute and fresh table."""
    return AddEntity.tpt(
        model,
        f"Sub{index}",
        "Person",
        [Attribute(f"A{index}", INT)],
        f"Sub{index}T",
        table_foreign_keys=[ForeignKey(("Id",), "HR", ("Id",))],
    )


class TestEvolveMany:
    def test_batch_applies_all_and_journals_once(self, session):
        _populate(session)
        smos = [
            subtype_smo(session.model, 1),
            AddProperty(
                "Employee", Attribute("Title", STRING, nullable=True), "Emp", "Title"
            ),
        ]
        delta = session.evolve_many(smos)
        # pre-existing data untouched (soundness): no rows appear or
        # vanish; the only physical change is NULL-padding the widened rows
        for table_delta in delta.tables.values():
            assert not table_delta.inserts
            assert not table_delta.deletes
        assert session.model.client_schema.has_entity_type("Sub1")
        assert session.model.store_schema.table("Emp").has_column("Title")
        assert len(session.query(EntityQuery("Persons"))) == 2
        # exactly one journal entry for the whole batch
        assert len(session.journal) == 1
        entry = session.journal[-1]
        assert len(entry.smos) == 2
        assert entry.scheduled_checks > 0
        assert not entry.delta.is_empty

    def test_single_evolve_is_journaled_batch_of_one(self, session):
        _populate(session)
        session.evolve(subtype_smo(session.model, 1))
        assert len(session.journal) == 1
        assert session.journal[-1].label.startswith("AE-TPT")

    def test_batch_schedules_strictly_fewer_checks_than_sequential(self):
        """The acceptance criterion: 5 non-overlapping SMOs → one batched
        neighborhood validation does strictly less scheduler work than 5
        sequential ones."""
        sequential = stage3_session()
        for index in range(1, 6):
            sequential.evolve(subtype_smo(sequential.model, index))
        sequential_checks = sum(e.scheduled_checks for e in sequential.journal)

        batched = stage3_session()
        batched.evolve_many([subtype_smo(batched.model, i) for i in range(1, 6)])
        batched_checks = batched.journal[-1].scheduled_checks

        assert len(sequential.journal) == 5
        assert batched_checks > 0
        assert batched_checks < sequential_checks
        # both roads lead to the same model
        assert (
            batched.model.fingerprint() == sequential.model.fingerprint()
        )


class TestUndo:
    def test_undo_restores_model_and_data(self, session):
        _populate(session)
        baseline = session.model.fingerprint()
        rows_before = session.store_state.row_count()

        session.evolve(subtype_smo(session.model, 1))
        with session.edit() as state:
            state.add_entity(
                "Persons", Entity.of("Sub1", Id=7, Name="sue", A1=1)
            )
        assert session.store_state.row_count() > rows_before

        entry = session.undo()
        assert entry.label.startswith("AE-TPT")
        assert session.model.fingerprint() == baseline
        assert session.store_state.row_count() == rows_before
        assert not session.journal
        # the restored session is fully usable
        assert len(session.query(EntityQuery("Persons"))) == 2

    def test_undo_unwinds_a_batch_at_once(self, session):
        _populate(session)
        baseline = session.model.fingerprint()
        session.evolve_many(
            [
                subtype_smo(session.model, 1),
                AddProperty(
                    "Employee", Attribute("Title", STRING, nullable=True),
                    "Emp", "Title",
                ),
            ]
        )
        session.undo()
        assert session.model.fingerprint() == baseline
        assert not session.model.client_schema.has_entity_type("Sub1")

    def test_undo_stack_is_lifo(self, session):
        _populate(session)
        fp0 = session.model.fingerprint()
        session.evolve(subtype_smo(session.model, 1))
        fp1 = session.model.fingerprint()
        session.evolve(subtype_smo(session.model, 2))

        session.undo()
        assert session.model.fingerprint() == fp1
        session.undo()
        assert session.model.fingerprint() == fp0

    def test_undo_empty_journal_raises(self, session):
        with pytest.raises(SmoError, match="journal is empty"):
            session.undo()


class TestAbortAtomicity:
    def test_failed_batch_leaves_session_intact(self, session):
        _populate(session)
        baseline = session.model.fingerprint()
        store_before = session.store_state
        # second SMO aborts: Sub1T is already claimed by the first
        smos = [
            subtype_smo(session.model, 1),
            AddEntity.tpt(
                session.model, "Clash", "Person", [Attribute("B", INT)],
                "Sub1T",
                table_foreign_keys=[ForeignKey(("Id",), "HR", ("Id",))],
            ),
        ]
        with pytest.raises(SmoError):
            session.evolve_many(smos)
        assert session.model.fingerprint() == baseline
        assert session.store_state is store_before
        assert not session.journal

    def test_failed_evolve_purges_candidate_cache_entries(self, session):
        """Satellite regression: a validation abort must not leave cache
        entries fingerprinted against the rejected candidate model."""
        _populate(session)
        # warm the cache against the *current* model
        session.validate()
        entries_before = len(session.validation_cache)
        misses_before = session.validation_cache.stats().misses

        def vip_smo():
            return AddEntity.tpc(
                session.model, "Vip", "Customer",
                [Attribute("Tier", STRING)], "VipT",
            )

        with pytest.raises(ValidationError):
            session.evolve(vip_smo())  # the Figure 6 violation
        # every entry inserted while compiling the rejected model is gone
        assert len(session.validation_cache) == entries_before
        misses_after_first = session.validation_cache.stats().misses
        assert misses_after_first > misses_before  # the attempt did work

        # an identical retry recomputes (nothing poisoned, nothing reused
        # from the rejected candidate) and fails the same way
        with pytest.raises(ValidationError):
            session.evolve(vip_smo())
        assert len(session.validation_cache) == entries_before
        assert session.validation_cache.stats().misses > misses_after_first

        # and the session still accepts a valid evolution afterwards
        session.evolve(subtype_smo(session.model, 9))
        assert session.model.client_schema.has_entity_type("Sub9")

    def test_failed_plan_keeps_journal_and_model(self, session):
        _populate(session)
        baseline = session.model.fingerprint()
        plan = session.plan([DropEntity("Person")])
        assert not plan.ok
        assert session.model.fingerprint() == baseline
        assert not session.journal

    def test_plan_then_evolve_many_roundtrip(self, session):
        """The documented workflow: inspect the plan, then commit it."""
        _populate(session)
        smos = [subtype_smo(session.model, 1)]
        plan = session.plan(smos)
        assert plan.ok
        assert session.model.fingerprint() != 0  # still a live model
        session.evolve_many(smos)
        assert set(session.journal[-1].check_names) == set(plan.check_names)
