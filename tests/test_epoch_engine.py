"""The epoch-based serving engine: swap protocol, pinned readers,
concurrent query/evolve/undo traffic, and plan survival across swaps.

The concurrent tests drive the acceptance scenario of the serving tier:
many reader threads hammering ``query`` while a writer churns
``evolve_many`` / ``undo`` batches, with every response required to be
consistent with exactly one published epoch fingerprint.
"""

from __future__ import annotations

import threading

import pytest

from repro.backend import create_backend
from repro.compiler import compile_mapping
from repro.edm import Attribute, Entity, STRING
from repro.incremental import AddProperty, CompiledModel
from repro.query import EntityQuery
from repro.session import OrmSession
from repro.workloads.chain import chain_mapping, entity_name, set_name

BACKENDS = ["memory", "sqlite"]
CHAIN_TYPES = 6


@pytest.fixture(scope="module")
def chain_compiled() -> CompiledModel:
    mapping = chain_mapping(CHAIN_TYPES)
    result = compile_mapping(mapping, validate=False)
    return CompiledModel(mapping, result.views)


def _chain_session(
    chain_compiled: CompiledModel, backend_name: str, pool_size: int = 0
) -> OrmSession:
    backend = create_backend(
        backend_name, chain_compiled.store_schema, pool_size=pool_size
    )
    session = OrmSession(chain_compiled, backend=backend)
    with session.edit() as state:
        for index in range(1, CHAIN_TYPES + 1):
            for row in range(3):
                state.add_entity(
                    set_name(index),
                    Entity.of(
                        entity_name(index),
                        Id=row,
                        EntityAtt2=f"a{row}",
                        EntityAtt3=f"b{row}",
                        EntityAtt4=f"c{row}",
                    ),
                )
    return session


def _churn_smo(model: CompiledModel) -> AddProperty:
    """One repeatable migration: widen Entity1's table by a nullable
    column (touched neighborhood = Entities1 only)."""
    return AddProperty(
        entity_name(1),
        Attribute("Tmp", STRING, nullable=True),
        "T1",
        "Tmp",
    )


class TestEpochSwap:
    def test_every_write_publishes_a_new_epoch(self, chain_compiled):
        session = _chain_session(chain_compiled, "memory")
        first = session.epoch
        session.evolve(_churn_smo(session.model))
        second = session.epoch
        assert second.epoch_id == first.epoch_id + 1
        assert second.fingerprint != first.fingerprint
        assert second.model is not first.model
        session.undo()
        third = session.epoch
        assert third.epoch_id == second.epoch_id + 1
        assert third.fingerprint == first.fingerprint

    def test_save_keeps_fingerprint_but_swaps_epoch(self, chain_compiled):
        session = _chain_session(chain_compiled, "memory")
        before = session.epoch
        with session.edit() as state:
            state.add_entity(
                set_name(2),
                Entity.of(
                    entity_name(2),
                    Id=99,
                    EntityAtt2="x",
                    EntityAtt3="y",
                    EntityAtt4="z",
                ),
            )
        after = session.epoch
        assert after.epoch_id > before.epoch_id
        assert after.fingerprint == before.fingerprint
        assert after.model is before.model

    def test_failed_write_leaves_old_epoch_standing(self, chain_compiled):
        from repro.errors import SmoError

        session = _chain_session(chain_compiled, "memory")
        epoch = session.epoch
        with pytest.raises(SmoError):
            session.evolve(
                AddProperty(
                    "NoSuchType",
                    Attribute("X", STRING, nullable=True),
                    "T1",
                    "X",
                )
            )
        assert session.epoch is epoch
        assert len(session.query(EntityQuery(set_name(1)))) == 3

    def test_replace_contents_resets_plan_cache(self, chain_compiled):
        session = _chain_session(chain_compiled, "memory")
        session.query(EntityQuery(set_name(1)))
        assert len(session.plan_cache) == 1
        session.store_state = session.backend.to_store_state()
        assert len(session.plan_cache) == 0


class TestPinnedReaders:
    """Snapshot readers stay on their epoch while writers move on."""

    def test_reader_pinned_on_old_epoch_during_undo(self, chain_compiled):
        session = _chain_session(chain_compiled, "memory")
        session.evolve(_churn_smo(session.model))
        pinned = session.epoch
        query = EntityQuery(set_name(1))
        before = session.query_on(pinned, query)
        assert all("Tmp" in e.value_map for e in before)

        session.undo()
        assert session.epoch.epoch_id > pinned.epoch_id
        rolled_back = session.query(query)
        assert all("Tmp" not in e.value_map for e in rolled_back)
        # the pinned epoch still answers from its own world, identically
        after = session.query_on(pinned, query)
        assert sorted(map(repr, after)) == sorted(map(repr, before))

    def test_every_epoch_in_a_chain_stays_consistent(self, chain_compiled):
        session = _chain_session(chain_compiled, "memory")
        query = EntityQuery(set_name(3))
        base = len(session.query(query))
        epochs = []
        for i in range(8):
            with session.edit() as state:
                state.add_entity(
                    set_name(3),
                    Entity.of(
                        entity_name(3),
                        Id=100 + i,
                        EntityAtt2="x",
                        EntityAtt3="y",
                        EntityAtt4="z",
                    ),
                )
            epochs.append((session.epoch, base + i + 1))
        for epoch, expected in epochs:
            assert len(session.query_on(epoch, query)) == expected


@pytest.mark.parametrize("pool_size", [0, 2])
class TestPublicationWindow:
    """A live read that misses the result tier while a writer is inside
    its publication window waits for the publish and answers on the new
    epoch: the read lease excludes the window, so no read runs one
    epoch's plan on another epoch's data."""

    def test_read_waits_for_the_publish_and_replans_once(
        self, chain_compiled, pool_size
    ):
        session = _chain_session(chain_compiled, "sqlite", pool_size=pool_size)
        query = EntityQuery(set_name(1))
        old = session.epoch
        state = session.load()
        state.add_entity(
            set_name(1),
            Entity.of(
                entity_name(1), Id=99, EntityAtt2="x", EntityAtt3="y",
                EntityAtt4="z",
            ),
        )
        # the writer pauses after its mutation, while it derives the next
        # result tier: inside the window, before the epoch swap
        in_window, publish = threading.Event(), threading.Event()
        successor = old.results.successor_for_tables

        def paused_successor(*args):
            in_window.set()
            publish.wait(10)
            return successor(*args)

        old.results.successor_for_tables = paused_successor
        # the reader announces itself as it asks for its lease
        at_lease = threading.Event()
        acquire = old.view.acquire

        def announced_acquire():
            at_lease.set()
            return acquire()

        old.view.acquire = announced_acquire
        retries = session.serving_stats().epoch.read_retries
        saved, answered = [], []
        writer = threading.Thread(
            target=lambda: saved.append(session.save(state))
        )
        reader = threading.Thread(
            target=lambda: answered.append(session.query_with_epoch(query))
        )
        writer.start()
        try:
            assert in_window.wait(10)
            reader.start()
            assert at_lease.wait(10)
            reader.join(0.2)
            assert reader.is_alive(), "the read returned inside the window"
            assert session.epoch is old
        finally:
            publish.set()
            writer.join(10)
            reader.join(10)
        assert not writer.is_alive() and not reader.is_alive()
        assert len(saved) == 1
        ((rows, epoch),) = answered
        assert epoch is session.epoch
        assert epoch.epoch_id == old.epoch_id + 1
        assert len(rows) == 4
        assert sorted(map(repr, rows)) == sorted(
            map(repr, session.query(query))
        )
        assert session.serving_stats().epoch.read_retries == retries + 1
        session.close()


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestConcurrentTraffic:
    """Readers hammer the engine while a writer churns evolve/undo."""

    CLIENTS = 8
    BATCHES = 20

    def test_queries_race_evolution_without_torn_reads(
        self, chain_compiled, backend_name
    ):
        session = _chain_session(
            chain_compiled, backend_name, pool_size=self.CLIENTS
        )
        touched = EntityQuery(set_name(1))
        untouched = EntityQuery(set_name(CHAIN_TYPES))

        # Precompute, per fingerprint, the answer a consistent response
        # must equal — structural fingerprints repeat across the churn.
        base_fp = session.epoch.fingerprint
        expected = {
            base_fp: {
                "touched": sorted(map(repr, session.query(touched))),
                "untouched": sorted(map(repr, session.query(untouched))),
            }
        }
        session.evolve(_churn_smo(session.epoch.model))
        evolved_fp = session.epoch.fingerprint
        expected[evolved_fp] = {
            "touched": sorted(map(repr, session.query(touched))),
            "untouched": sorted(map(repr, session.query(untouched))),
        }
        session.undo()
        assert session.epoch.fingerprint == base_fp
        assert expected[base_fp] != expected[evolved_fp]

        errors = []
        stop = threading.Event()

        def reader(query: EntityQuery, kind: str) -> None:
            while not stop.is_set():
                try:
                    rows, epoch = session.query_with_epoch(query)
                except Exception as exc:  # noqa: BLE001 — the assertion
                    errors.append(exc)
                    return
                want = expected.get(epoch.fingerprint)
                if want is None:
                    errors.append(
                        AssertionError(
                            f"response on unknown epoch {epoch.fingerprint}"
                        )
                    )
                    return
                if sorted(map(repr, rows)) != want[kind]:
                    errors.append(
                        AssertionError(
                            f"torn {kind} read on epoch {epoch.epoch_id}"
                        )
                    )
                    return

        threads = [
            threading.Thread(
                target=reader,
                args=(touched, "touched")
                if i % 2
                else (untouched, "untouched"),
            )
            for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(self.BATCHES):
                session.evolve_many([_churn_smo(session.epoch.model)])
                assert session.epoch.fingerprint == evolved_fp
                session.undo()
                assert session.epoch.fingerprint == base_fp
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        try:
            assert not errors, errors[0]
            stats = session.serving_stats().epoch
            assert stats.epochs_published >= 2 * self.BATCHES
            if backend_name == "memory":
                # snapshot reads never re-plan
                assert stats.read_retries == 0
        finally:
            session.close()

    def test_untouched_set_plans_survive_the_swap(
        self, chain_compiled, backend_name
    ):
        """The neighborhood principle on the serving side: evolving
        Entity1 must not evict the plan for the last chain set."""
        session = _chain_session(chain_compiled, backend_name)
        query = EntityQuery(set_name(CHAIN_TYPES), projection=("EntityAtt2",))
        session.query(query)
        misses_before = session.plan_cache.stats().misses

        session.evolve_many([_churn_smo(session.epoch.model)])
        hits_before = session.plan_cache.stats().hits
        session.query(query)
        after = session.plan_cache.stats()
        assert after.hits == hits_before + 1, (
            "the untouched set's plan should have survived the epoch swap"
        )
        assert after.misses == misses_before
        session.close()

    def test_every_read_looks_its_plan_up_once(self, chain_compiled, backend_name):
        """A read resolves its plan once, whether it misses the result
        tier (the first miss, the admitting second miss) or hits it."""
        session = _chain_session(chain_compiled, backend_name)
        query = EntityQuery(set_name(2), projection=("EntityAtt2",))
        before = session.plan_cache.stats()
        reads = 5
        for _ in range(reads):
            session.query(query)
        after = session.plan_cache.stats()
        assert (after.hits + after.misses) - (before.hits + before.misses) == reads
        results = session.serving_stats().results
        assert (results.misses, results.hits) == (2, reads - 2)
        session.close()
