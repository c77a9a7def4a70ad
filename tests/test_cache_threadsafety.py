"""The shared LRU and multi-thread stress for the serving caches.

The epoch engine promises lock-free reads, which means the LruCache
every cache is built on (LRU order, cost bound, hit/miss/eviction
counters) must tolerate many threads planning, hitting and evicting at
once without corruption — and the ``successor`` snapshot taken by a
writer must be consistent while readers keep inserting.  The same holds
for the store's key indexes: readers build them on published states
while the writer derives successor states from those states.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.algebra.conditions import Comparison
from repro.backend import MemoryBackend
from repro.cache import STALE, CacheStats, LruCache
from repro.compiler import compile_mapping
from repro.containment.cache import ValidationCache
from repro.edm import Entity
from repro.incremental import CompiledModel
from repro.ivm import DeltaScript, EntityOp
from repro.query import EntityQuery
from repro.query.plancache import PlanCache
from repro.query.unfold import unfold
from repro.relational import StoreState
from repro.relational.instances import make_row
from repro.session import OrmSession
from repro.workloads.chain import chain_mapping, entity_name, set_name

THREADS = 8
ROUNDS = 50
CHAIN_TYPES = 6


@pytest.fixture(scope="module")
def chain_model() -> CompiledModel:
    mapping = chain_mapping(CHAIN_TYPES)
    return CompiledModel(mapping, compile_mapping(mapping, validate=False).views)


def _run_threads(worker) -> list:
    errors: list = []

    def wrapped(index: int) -> None:
        try:
            worker(index)
        except Exception as exc:  # noqa: BLE001 — collected for assertion
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class TestLruCache:
    def test_evicts_in_lru_order_under_a_cost_bound(self):
        cache = LruCache(10, cost=len)
        cache.put("a", "xxxx")
        cache.put("b", "xxxx")
        assert cache.get("a") == "xxxx"  # "a" is now most recently used
        cache.put("c", "xxxx")  # 12 > 10: the LRU entry "b" goes
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        stats = cache.stats()
        assert (stats.entries, stats.cost, stats.bound) == (2, 8, 10)
        assert stats.evictions == 1

    def test_oversized_put_is_skipped_and_counted_as_an_eviction(self):
        cache = LruCache(3, cost=len)
        cache.put("small", "xx")
        assert cache.put("big", "xxxx") == "xxxx"
        assert "big" not in cache and "small" in cache
        assert cache.stats().evictions == 1
        assert cache.stats().cost == 2

    def test_failed_build_counts_no_miss(self):
        cache = LruCache(4)

        def fail():
            raise ValueError("no plan")

        with pytest.raises(ValueError):
            cache.get_or_build("k", fail)
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        assert cache.get_or_build("k", lambda: 1) == 1
        assert cache.get_or_build("k", lambda: 2) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_racing_builds_all_get_the_first_inserted_object(self):
        cache = LruCache(4)
        start = threading.Barrier(THREADS)
        results: list = []

        def build():
            return object()

        def worker() -> None:
            start.wait(timeout=10)
            results.append(cache.get_or_build("key", build))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == THREADS
        assert all(value is results[0] for value in results)
        assert cache.get("key") is results[0]
        assert cache.hits + cache.misses == THREADS + 1

    def test_successor_carries_counters_and_leaves_its_source(self):
        cache = LruCache(8)
        for key in "abc":
            cache.put(key, key.upper())
        cache.get("a")
        cache.get("zz")
        successor = cache.successor(
            lambda key, value: None if key == "b" else value + "'"
        )
        assert cache.stats() == CacheStats(
            hits=1, misses=1, entries=3, cost=3, bound=8
        )
        assert [cache.get(k) for k in "abc"] == ["A", "B", "C"]
        stats = successor.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.invalidated == 1  # "b" was dropped
        assert stats.entries == 2
        assert successor.get("a") == "A'" and successor.get("b") is None

    def test_stamped_get_refuses_another_version(self):
        cache = LruCache(8, stamp=lambda value: value[0])
        cache.put("k", ("v1", "rows"))
        assert cache.get("k", "v1") == ("v1", "rows")
        assert cache.get("k", "v2") is STALE
        assert "k" not in cache
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.invalidated) == (1, 1, 1)

    def test_on_evict_runs_for_bound_evictions_and_clear(self):
        released: list = []
        cache = LruCache(2, on_evict=released.append)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # bound eviction of "a"
        assert released == [1]
        assert cache.clear() == 2
        assert sorted(released) == [1, 2, 3]
        assert cache.stats().invalidated == 2


class TestPlanCacheThreadSafety:
    def test_concurrent_plan_for_counts_every_request(self, chain_model):
        cache = PlanCache()
        queries = [
            EntityQuery(set_name(1 + (i % CHAIN_TYPES)))
            for i in range(CHAIN_TYPES)
        ]

        def worker(index: int) -> None:
            for round_number in range(ROUNDS):
                query = queries[(index + round_number) % len(queries)]
                plan, values = cache.plan_for(chain_model, query)
                assert plan is not None
                assert values == ()

        errors = _run_threads(worker)
        assert not errors, errors[0]
        stats = cache.stats()
        assert stats.hits + stats.misses == THREADS * ROUNDS
        assert stats.entries == CHAIN_TYPES
        # duplicate compilations on a miss race are tolerated, but the
        # cache must not under-count distinct shapes
        assert stats.misses >= CHAIN_TYPES

    def test_concurrent_eviction_pressure_stays_bounded(self, chain_model):
        cache = PlanCache(max_plans=2)
        conditions = [Comparison("Id", "=", value) for value in range(5)]

        def worker(index: int) -> None:
            for round_number in range(ROUNDS):
                chosen = (index + round_number) % CHAIN_TYPES
                query = EntityQuery(
                    set_name(1 + chosen),
                    conditions[round_number % len(conditions)],
                )
                cache.plan_for(chain_model, query)

        errors = _run_threads(worker)
        assert not errors, errors[0]
        stats = cache.stats()
        assert stats.entries <= 2
        assert stats.evictions > 0
        assert stats.hits + stats.misses == THREADS * ROUNDS

    def test_successor_snapshot_during_concurrent_inserts(self, chain_model):
        cache = PlanCache()
        stop = threading.Event()
        successors: list = []

        def inserter(index: int) -> None:
            if index == 0:
                # one thread repeatedly takes successor snapshots
                for _ in range(20):
                    successors.append(cache.successor())
                stop.set()
                return
            round_number = 0
            while not stop.is_set():
                query = EntityQuery(
                    set_name(1 + (round_number % CHAIN_TYPES)),
                    Comparison("Id", "=", round_number % 7),
                )
                cache.plan_for(chain_model, query)
                round_number += 1

        errors = _run_threads(inserter)
        assert not errors, errors[0]
        assert len(successors) == 20
        for successor in successors:
            # a successor is a coherent cache: counters carried over and
            # every entry resolvable
            stats = successor.stats()
            assert stats.entries == len(successor)
            assert stats.hits + stats.misses >= 0


class TestValidationCacheThreadSafety:
    def test_get_or_compute_from_many_threads(self):
        cache = ValidationCache()
        computed = []
        lock = threading.Lock()

        def compute_for(key: str):
            def compute():
                with lock:
                    computed.append(key)
                return f"value-{key}"

            return compute

        def worker(index: int) -> None:
            for round_number in range(ROUNDS):
                key = f"k{(index + round_number) % 10}"
                value = cache.get_or_compute("test", key, compute_for(key))
                assert value == f"value-{key}"

        errors = _run_threads(worker)
        assert not errors, errors[0]
        stats = cache.stats()
        assert stats.hits + stats.misses == THREADS * ROUNDS
        assert len(cache) == 10

    def test_eviction_under_concurrent_load(self):
        cache = ValidationCache(max_entries=4)

        def worker(index: int) -> None:
            for round_number in range(ROUNDS):
                key = f"k{(index * ROUNDS + round_number) % 16}"
                cache.get_or_compute("test", key, lambda k=key: f"v-{k}")

        errors = _run_threads(worker)
        assert not errors, errors[0]
        assert len(cache) <= 4
        assert cache.stats().evictions > 0

    def test_transactions_race_inserts(self):
        cache = ValidationCache()

        def worker(index: int) -> None:
            for round_number in range(ROUNDS):
                transaction = cache.begin_transaction()
                cache.get_or_compute(
                    "txn", f"{index}-{round_number}", lambda: round_number
                )
                if round_number % 2:
                    cache.commit(transaction)
                else:
                    cache.rollback(transaction)

        errors = _run_threads(worker)
        assert not errors, errors[0]
        # rolled-back insertions are gone, committed ones are present
        assert 0 < len(cache) <= THREADS * ROUNDS


def _chain_entity(index: int, row: int, tag: str) -> Entity:
    return Entity.of(
        entity_name(index),
        Id=row,
        EntityAtt2=f"a{tag}",
        EntityAtt3=f"b{row}",
        EntityAtt4=f"c{(row + len(tag)) % 5}",
    )


class TestKeyIndexThreadSafety:
    ROWS_PER_SET = 60
    READERS = 4
    WRITES = 30

    def test_index_build_publishes_a_new_dict(self, chain_model):
        """A build replaces ``ChunkedRows.indexes``: a successor iterating
        the old dict never sees it change under it."""
        state = StoreState(chain_model.store_schema)
        for row in range(10):
            state.add_row(
                "T1",
                make_row(
                    Id=row, EntityAtt2="a", EntityAtt3="b",
                    EntityAtt4=f"c{row % 3}", NextA=None, NextB=None,
                ),
            )
        table = state._rows["T1"]
        table.index(("Id",))
        published = table.indexes
        seen = []
        for columns, _index in published.items():
            # a reader's build in the middle of a successor's iteration
            table.index(("EntityAtt4",))
            seen.append(columns)
        assert seen == [("Id",)]
        assert list(published) == [("Id",)]
        assert table.indexes is not published
        assert set(table.indexes) == {("Id",), ("EntityAtt4",)}

    def test_readers_race_a_writer_on_a_fresh_load(self, chain_model):
        """Readers build key indexes on freshly loaded and freshly
        published states while the writer commits ``save_delta`` from
        the same states: no call raises, and every answer equals the
        interpreter's over the state of the epoch it was served from."""
        sets = range(1, CHAIN_TYPES + 1)
        state = StoreState(chain_model.store_schema)
        loader = OrmSession(chain_model, backend=MemoryBackend(state))
        with loader.edit() as client:
            for index in sets:
                for row in range(self.ROWS_PER_SET):
                    client.add_entity(
                        set_name(index), _chain_entity(index, row, "0")
                    )
        # a fresh session over the loaded state: no read index built yet;
        # the tier is off, so every read executes its compiled plan
        session = OrmSession(
            chain_model,
            backend=MemoryBackend(loader.store_state),
            result_cache_budget=0,
        )
        stop = threading.Event()
        served: list = []
        errors: list = []

        def reader(number: int) -> None:
            try:
                turn = 0
                while not stop.is_set() or turn < 12:
                    index = 1 + (number + turn) % CHAIN_TYPES
                    condition = (
                        Comparison("Id", "=", (number * 7 + turn) % self.ROWS_PER_SET)
                        if turn % 2
                        else Comparison("EntityAtt4", "=", f"c{turn % 5}")
                    )
                    query = EntityQuery(set_name(index), condition)
                    rows, epoch = session.engine.query_with_epoch(query)
                    served.append((query, rows, epoch))
                    turn += 1
            except Exception as exc:  # noqa: BLE001 — collected for assertion
                errors.append(exc)

        def writer() -> None:
            try:
                for write in range(self.WRITES):
                    session.save_delta(
                        DeltaScript(
                            tuple(
                                EntityOp(
                                    "update",
                                    set_name(index),
                                    entity=_chain_entity(
                                        index,
                                        (write * 11 + index) % self.ROWS_PER_SET,
                                        f"w{write}",
                                    ),
                                )
                                for index in sets
                            )
                        )
                    )
            except Exception as exc:  # noqa: BLE001 — collected for assertion
                errors.append(exc)
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(n,))
                for n in range(self.READERS)
            ]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        epochs = {id(epoch) for _query, _rows, epoch in served}
        assert len(epochs) > 1, "every read landed on one epoch"
        for query, rows, epoch in served:
            reference = unfold(
                query, epoch.model.views, epoch.model.client_schema
            ).run(epoch.view.to_store_state())
            assert sorted(map(repr, rows)) == sorted(map(repr, reference)), (
                f"{query} diverged from the interpreter on its epoch"
            )
