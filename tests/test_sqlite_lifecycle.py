"""SQLite backend connection lifecycle: idempotent close, the reader
pool's statement-cache hygiene, and cross-thread serving."""

from __future__ import annotations

import threading

import pytest

from repro.backend.pool import ConnectionPool, PoolClosed, PooledConnection
from repro.backend.sqlite import SqliteBackend
from repro.compiler import compile_mapping
from repro.incremental import CompiledModel
from repro.query import EntityQuery
from repro.query.dml import StoreDelta
from repro.session import OrmSession
from repro.workloads.paper_example import mapping_stage1


@pytest.fixture(scope="module")
def stage1_model() -> CompiledModel:
    mapping = mapping_stage1()
    return CompiledModel(mapping, compile_mapping(mapping).views)


def _populated(model: CompiledModel, pool_size: int = 0) -> OrmSession:
    # result_cache_budget=0: these tests exercise connection lifecycle and
    # pool sharing, so every query must actually reach the backend
    session = OrmSession.create(
        model, backend="sqlite", pool_size=pool_size, result_cache_budget=0
    )
    with session.edit() as state:
        from repro.edm import Entity

        state.add_entity("Persons", Entity.of("Person", Id=1, Name="ann"))
        state.add_entity("Persons", Entity.of("Person", Id=2, Name="bob"))
    return session


class TestClose:
    def test_close_is_idempotent(self, stage1_model):
        session = _populated(stage1_model)
        backend = session.backend
        backend.close()
        assert backend.closed
        backend.close()  # second close is a no-op, not an error
        assert backend.closed

    def test_close_with_pool_closes_idle_readers(self, stage1_model):
        session = _populated(stage1_model, pool_size=2)
        backend = session.backend
        session.query(EntityQuery("Persons"))  # provisions a pooled reader
        stats = backend._pool.stats()
        assert stats["created"] >= 1
        backend.close()
        assert backend._pool.closed
        with pytest.raises(PoolClosed):
            backend._pool.checkout()
        backend.close()

    def test_leased_connection_returned_after_close_is_closed(
        self, stage1_model
    ):
        session = _populated(stage1_model, pool_size=2)
        backend = session.backend
        leased = backend._pool.checkout()
        backend.close()
        backend._pool.checkin(leased)  # comes back to a closed pool
        assert backend._pool.stats()["created"] == 0
        with pytest.raises(Exception):
            leased.connection.execute("SELECT 1")


class TestPoolHygiene:
    def test_checkin_clears_statement_cache(self, stage1_model):
        session = _populated(stage1_model, pool_size=1)
        backend = session.backend
        session.query(EntityQuery("Persons"))
        leased = backend._pool.checkout()
        # the lease that served the query was checked back in with its
        # cursor cache scrubbed — no cursor crosses into this lease
        assert leased.statements.stats().entries == 0
        backend._pool.checkin(leased)
        backend.close()

    def test_pool_bounds_connection_count(self, stage1_model):
        session = _populated(stage1_model, pool_size=2)
        backend = session.backend
        first = backend._pool.checkout()
        second = backend._pool.checkout()
        assert backend._pool.stats()["created"] == 2
        done = threading.Event()
        acquired = []

        def blocked_checkout() -> None:
            leased = backend._pool.checkout()
            acquired.append(leased)
            done.set()

        thread = threading.Thread(target=blocked_checkout)
        thread.start()
        assert not done.wait(0.1)  # pool exhausted: the third waits
        backend._pool.checkin(first)
        assert done.wait(2.0)
        thread.join()
        backend._pool.checkin(second)
        backend._pool.checkin(acquired[0])
        assert backend._pool.stats()["created"] == 2
        backend.close()

    def test_factory_failure_releases_the_slot(self):
        attempts = []

        def factory() -> PooledConnection:
            attempts.append(1)
            raise RuntimeError("boom")

        pool = ConnectionPool(factory, lambda leased: None, max_size=1)
        with pytest.raises(RuntimeError):
            pool.checkout()
        # the failed creation must not leak the only slot
        with pytest.raises(RuntimeError):
            pool.checkout()
        assert len(attempts) == 2
        pool.close()


@pytest.mark.parametrize("pool_size", [0, 2])
class TestExclusive:
    def test_reentrant_and_blocks_readers_until_the_outermost_exit(
        self, stage1_model, pool_size
    ):
        session = _populated(stage1_model, pool_size=pool_size)
        backend = session.backend
        view = backend.read_view()
        at_lease, leased = threading.Event(), threading.Event()

        def reader() -> None:
            at_lease.set()
            with view.acquire():
                leased.set()

        thread = threading.Thread(target=reader)
        with backend.exclusive():
            with backend.exclusive():
                # a mutation inside the hold takes it again on this thread
                backend.apply_delta(StoreDelta())
                thread.start()
                assert at_lease.wait(10)
                assert not leased.wait(0.1)
            assert not leased.wait(0.1), "an inner exit released the hold"
        assert leased.wait(10)
        thread.join(10)
        assert not thread.is_alive()
        backend.close()


class TestCrossThreadServing:
    def test_pooled_readers_see_committed_writes(self, stage1_model):
        session = _populated(stage1_model, pool_size=4)
        query = EntityQuery("Persons")
        assert len(session.query(query)) == 2
        with session.edit() as state:
            from repro.edm import Entity

            state.add_entity("Persons", Entity.of("Person", Id=3, Name="cid"))
        results = {}

        def read(name: str) -> None:
            results[name] = len(session.query(query))

        threads = [
            threading.Thread(target=read, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(count == 3 for count in results.values()), results
        session.engine.close()

    def test_many_threads_share_the_pool(self, stage1_model):
        session = _populated(stage1_model, pool_size=2)
        query = EntityQuery("Persons")
        errors = []

        def hammer() -> None:
            try:
                for _ in range(25):
                    assert len(session.query(query)) == 2
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        stats = session.backend._pool.stats()
        assert stats["created"] <= 2
        assert stats["checkouts"] >= 8 * 25
        session.engine.close()

    def test_private_memory_database_cannot_pool(self, stage1_model):
        from repro.errors import SchemaError

        backend = SqliteBackend(stage1_model.store_schema)
        view = backend.read_view()
        assert backend._pool is None
        with view.acquire() as reader:
            assert reader is backend  # no pool: main connection, locked
        with pytest.raises(SchemaError):
            backend._make_reader()
        backend.close()
