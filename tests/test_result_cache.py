"""Differential suite for the materialized result tier.

The acceptance bar: a session serving from the result cache must be
*observationally identical* to one that re-executes every query — the
same answers (canonicalized by sorted repr), across the full workload
matrix, on both backends, through randomized conservative delta scripts
(including inverse-pair no-ops), after every SMO kind plus its undo, and
under concurrent read/write stress.  The reference session runs with
``result_cache_budget=0`` (tier disabled), so every divergence is a
maintenance bug, never a workload artifact.

Alongside the end-to-end checks, the operator-level delta rules get
focused unit coverage for the cases the workloads hit only by luck:
left-outer-join pad transitions (a join key's right match count crossing
0 ↔ positive) and the invalidate-on-write path for unmaintainable
shapes.

Entries are seeded from the bags the executors count while answering
the read, so both executors' counts are held to the interpreter's bag
evaluation; and an answer is admitted on its second miss, so every
warm-up reads its queries twice.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter

import pytest

from tests.conftest import customer_smo, employee_smo
from tests.test_backend_differential import (
    SMO_KINDS,
    WORKLOADS,
    canon,
    compiled,
    stage1_model,
)
from tests.test_ivm_differential import clone, random_script
from repro.algebra.conditions import Comparison, IsNull, Not, and_, or_
from repro.algebra.evaluate import StoreContext, evaluate_query_bag, row_key
from repro.algebra.delta import compile_delta
from repro.algebra.queries import (
    Col,
    Const,
    FullOuterJoin,
    Join,
    LeftOuterJoin,
    ProjItem,
    Project,
    Select,
    TableScan,
    UnionAll,
)
from repro.backend import MemoryBackend, SqliteBackend, create_backend
from repro.backend.physical import compile_plan
from repro.backend.sqlgen import SqlCompiler
from repro.compiler import compile_mapping
from repro.edm import INT, STRING, Attribute, Entity
from repro.errors import IvmError
from repro.incremental import AddProperty, CompiledModel
from repro.ivm import DeltaScript, EntityOp
from repro.query.dml import StoreDelta, TableDelta
from repro.query.language import EntityQuery
from repro.query.plancache import CachedPlan
from repro.query import resultcache
from repro.query.resultcache import _Doorkeeper, read_runtime, table_leaf
from repro.relational.instances import StoreState, row_from_mapping
from repro.relational.schema import Column, ForeignKey, StoreSchema, Table
from repro.session import OrmSession
from repro.stategen import random_client_state
from repro.workloads.chain import chain_mapping, entity_name, set_name
from repro.workloads.paper_example import mapping_stage3

BACKENDS = ["memory", "sqlite"]


def cached_and_reference(model: CompiledModel, backend: str):
    """Two sessions over the same backend kind: one with the result tier
    on, one with it disabled (the re-execution oracle)."""
    def build(budget):
        if backend == "memory":
            engine = MemoryBackend(StoreState(model.store_schema))
        else:
            engine = SqliteBackend(model.store_schema)
        return OrmSession(model, backend=engine, result_cache_budget=budget)

    return build(None), build(0)


def probe_queries(schema):
    """Whole-set scans plus one conditional probe per set — the fixed
    query mix every differential round replays (fixed so the cache gets
    real hit traffic rather than one-shot shapes)."""
    queries = []
    for entity_set in schema.entity_sets:
        queries.append(EntityQuery(entity_set.name))
        key = schema.key_of(entity_set.root_type)
        if len(key) == 1:
            attribute = schema.attribute_of(entity_set.root_type, key[0])
            if attribute.domain.base in ("int", "decimal"):
                queries.append(
                    EntityQuery(entity_set.name, Comparison(key[0], ">", 0))
                )
    return queries


def assert_answers_agree(cached: OrmSession, reference: OrmSession, queries):
    for query in queries:
        assert canon(cached.query(query)) == canon(reference.query(query)), (
            f"cached answer diverges on {query.set_name}"
        )


def result_stats(session: OrmSession):
    return session.epoch.results.stats()


# ---------------------------------------------------------------------------
# Randomized scripts across the workload matrix, both backends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "factory", [f for _, f in WORKLOADS], ids=[name for name, _ in WORKLOADS]
)
class TestMaintainedAnswersAreExact:
    def test_rounds_of_random_scripts(self, factory, backend):
        """Warm the tier, then three rounds of random mutations
        (inserts/updates/deletes/links/unlinks and inverse-pair no-ops):
        every maintained answer must match the re-execution oracle, and
        nothing may be served across a fingerprint mismatch."""
        model = compiled(factory())
        cached, reference = cached_and_reference(model, backend)
        try:
            seeded = random_client_state(
                model.client_schema, seed=5, entities_per_set=6
            )
            cached.save(seeded)
            reference.save(seeded)
            queries = probe_queries(model.client_schema)
            # three passes: first miss, admitting second miss, then hit
            assert_answers_agree(cached, reference, queries)
            assert_answers_agree(cached, reference, queries)
            assert_answers_agree(cached, reference, queries)
            warm = result_stats(cached)
            assert warm.hits > 0

            rng = random.Random(17)
            next_key = [300000]
            for _ in range(3):
                scratch = clone(reference.load())
                script = random_script(
                    model.client_schema, scratch, rng, next_key, n_ops=10
                )
                reference.save(scratch)
                cached.save_delta(script)
                assert_answers_agree(cached, reference, queries)
            final = result_stats(cached)
            assert final.validation_failures == 0
            # scripts that touched cached tables either maintained the
            # entries or (on a shape the rules cannot carry) dropped them
            assert final.maintained + final.invalidated + final.fallbacks > 0
        finally:
            cached.backend.close()
            reference.backend.close()

    def test_inverse_pair_scripts_leave_answers_intact(self, factory, backend):
        """A script of inverse pairs nets to zero client change; the
        cached answers must come through untouched (and undisturbed —
        an empty store delta publishes nothing, so entries keep serving
        as plain hits)."""
        model = compiled(factory())
        cached, reference = cached_and_reference(model, backend)
        try:
            seeded = random_client_state(
                model.client_schema, seed=3, entities_per_set=4
            )
            cached.save(seeded)
            reference.save(seeded)
            queries = probe_queries(model.client_schema)
            # two passes: the second miss admits every answer
            assert_answers_agree(cached, reference, queries)
            assert_answers_agree(cached, reference, queries)
            rng = random.Random(23)
            next_key = [400000]
            scratch = clone(cached.load())
            script = random_script(
                model.client_schema, scratch, rng, next_key, n_ops=4, kinds=(5,)
            )
            delta = cached.save_delta(script)
            assert delta.empty
            assert_answers_agree(cached, reference, queries)
            assert result_stats(cached).validation_failures == 0
        finally:
            cached.backend.close()
            reference.backend.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "factory", [f for _, f in WORKLOADS], ids=[name for name, _ in WORKLOADS]
)
def test_executed_bags_equal_the_interpreters_bag_counts(factory, backend):
    """Entries are seeded from the bags the executor counted while it
    answered the read, and maintenance adds and subtracts derivations
    against those counts — so one execution's bags must equal a bag
    evaluation with the reference interpreter, branch by branch, and the
    answer must be their support."""
    model = compiled(factory())
    session, _ = cached_and_reference(model, backend)
    try:
        session.save(
            random_client_state(model.client_schema, seed=5, entities_per_set=6)
        )
        context = StoreContext(session.store_state)
        epoch = session.epoch
        branches = 0
        for query in probe_queries(model.client_schema):
            plan, values, _key = epoch.plan_cache.plan_with_key(epoch.model, query)
            with epoch.view.acquire() as reader:
                rows, bags = plan.execute(reader, values)
            bound = plan.bind(values)
            assert len(bags) == len(bound.branches)
            for branch, bag in zip(bound.branches, bags):
                expected = Counter(
                    row_key(row)
                    for row in evaluate_query_bag(branch.store_query, context)
                )
                counted = {key: count for key, (_row, count) in bag.items()}
                assert counted == expected, query.set_name
                branches += 1
            assert len(rows) == sum(len(bag) for bag in bags)
        assert branches > 0
    finally:
        session.backend.close()


def test_executors_count_duplicate_derivations():
    """The workload probes derive each row once; these queries derive
    rows several times (a projection dropping the key, a union of
    overlapping branches, a projected outer join) and hold both
    executors' counts to the interpreter's."""
    schema = StoreSchema(
        [
            Table("L", (Column("K", INT, False), Column("A", STRING)), ("K",)),
            Table("R", (Column("K", INT, False), Column("B", STRING)), ("K",)),
        ]
    )
    state = StoreState(schema)
    for key in range(6):
        state.add_row("L", row_from_mapping({"K": key, "A": f"a{key % 2}"}))
    for key in range(0, 6, 2):
        state.add_row("R", row_from_mapping({"K": key, "B": "b"}))
    projected = (ProjItem("A", Col("A")), ProjItem("B", Col("B")))
    queries = [
        Project(TableScan("L"), projected[:1]),
        UnionAll((TableScan("L"), TableScan("L"), TableScan("R"))),
        Project(LeftOuterJoin(TableScan("L"), TableScan("R"), on=("K",)), projected),
    ]
    sqlite = SqliteBackend(schema)
    try:
        sqlite.replace_contents(state)
        for query in queries:
            expected = Counter(
                row_key(row)
                for row in evaluate_query_bag(query, StoreContext(state))
            )
            assert max(expected.values()) > 1
            bags = (
                compile_plan([query], schema).execute(state, ())[0],
                sqlite.run_compiled(SqlCompiler(schema).compile(query)),
            )
            for bag in bags:
                assert {key: count for key, (_row, count) in bag.items()} == expected
    finally:
        sqlite.close()


# ---------------------------------------------------------------------------
# After every SMO kind, and after its undo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "base_factory,smo_factory,pop",
    [(b, s, p) for _, b, s, p in SMO_KINDS],
    ids=[kind for kind, _, _, _ in SMO_KINDS],
)
class TestResultsSurviveEvolution:
    def test_answers_exact_after_smo_and_undo(
        self, base_factory, smo_factory, pop, backend
    ):
        """Entries populated before an evolution must never leak stale
        answers across it: after the SMO (and again after undo) cached
        reads still match the oracle, and writes in the evolved schema
        keep maintaining correctly."""
        model = base_factory()
        cached, reference = cached_and_reference(model, backend)
        try:
            state = pop(model)
            cached.save(state)
            reference.save(state)
            queries = probe_queries(model.client_schema)
            assert_answers_agree(cached, reference, queries)
            assert_answers_agree(cached, reference, queries)  # warm hits

            smo = smo_factory(model)
            cached.evolve(smo)
            reference.evolve(smo)
            evolved_queries = probe_queries(cached.model.client_schema)
            assert_answers_agree(cached, reference, evolved_queries)

            # a post-evolution incremental save must maintain (or drop)
            # entries populated against the evolved model
            rng = random.Random(31)
            next_key = [500000]
            scratch = clone(reference.load())
            script = random_script(
                cached.model.client_schema, scratch, rng, next_key, n_ops=6
            )
            reference.save(scratch)
            cached.save_delta(script)
            assert_answers_agree(cached, reference, evolved_queries)

            cached.undo()
            reference.undo()
            restored_queries = probe_queries(cached.model.client_schema)
            assert_answers_agree(cached, reference, restored_queries)
            assert result_stats(cached).validation_failures == 0
        finally:
            cached.backend.close()
            reference.backend.close()


# ---------------------------------------------------------------------------
# Pad transitions: TPT deletes drive a LOJ right side through 0
# ---------------------------------------------------------------------------

class TestLojPadTransitions:
    def test_tpt_subtype_delete_and_reinsert(self):
        """Deleting an Employee removes its Emp row while the delta also
        removes the P row; re-inserting drives the match count 0 -> 1
        again.  Stage-3 TPT reconstruction views compile to *full* outer
        joins, which the read-side delta rules deliberately refuse to
        maintain — the tier must invalidate those entries on every write
        and keep serving byte-identical answers by re-execution."""
        model = compiled(mapping_stage3())
        cached, reference = cached_and_reference(model, "memory")
        try:
            for session in (cached, reference):
                with session.edit() as state:
                    state.add_entity(
                        "Persons", Entity.of("Person", Id=1, Name="ann")
                    )
                    state.add_entity(
                        "Persons",
                        Entity.of("Employee", Id=2, Name="bob", Department="hr"),
                    )
            queries = [
                EntityQuery("Persons"),
                EntityQuery("Persons", Comparison("Id", ">", 0)),
            ]
            assert_answers_agree(cached, reference, queries)
            assert_answers_agree(cached, reference, queries)

            # delete the Employee: Emp-side multiplicity 1 -> 0
            script = DeltaScript(
                (EntityOp("delete", "Persons", key=(2,)),)
            )
            cached.save_delta(script)
            with reference.edit() as state:
                state.remove_entity("Persons", (2,))
            assert_answers_agree(cached, reference, queries)

            # re-insert: 0 -> 1
            emp = Entity.of("Employee", Id=2, Name="bob", Department="ops")
            cached.save_delta(
                DeltaScript((EntityOp("insert", "Persons", entity=emp),))
            )
            with reference.edit() as state:
                state.add_entity("Persons", emp)
            assert_answers_agree(cached, reference, queries)
            stats = result_stats(cached)
            assert stats.validation_failures == 0
            # full-outer-join shapes are unmaintainable by design: every
            # write must drop the warm entries instead of patching them
            assert stats.invalidated > 0
        finally:
            cached.backend.close()
            reference.backend.close()

    @pytest.mark.parametrize("join", [Join, LeftOuterJoin], ids=lambda j: j.__name__)
    def test_loj_delta_rule_pad_terms_directly(self, join):
        """White-box: the compiled ⋈ / ⟕ rule over two tables must keep
        the maintained bag equal to a fresh bag evaluation — for ⟕ that
        takes the pad-transition terms — for right-side deltas crossing 0
        in both directions."""
        schema = StoreSchema(
            [
                Table("L", (Column("K", INT, False), Column("A", STRING)), ("K",)),
                Table("R", (Column("K", INT, False), Column("B", STRING)), ("K",)),
            ]
        )
        query = join(TableScan("L"), TableScan("R"), on=("K",))
        node = compile_delta(query, StoreContext(StoreState(schema)), table_leaf)

        def state_of(l_rows, r_rows):
            state = StoreState(schema)
            for row in l_rows:
                state.add_row("L", row_from_mapping(row))
            for row in r_rows:
                state.add_row("R", row_from_mapping(row))
            return state

        def bag(state):
            counts = {}
            for row in evaluate_query_bag(query, StoreContext(state)):
                key = tuple(sorted(row.items()))
                counts[key] = counts.get(key, 0) + 1
            return counts

        l_rows = [{"K": 1, "A": "x"}, {"K": 2, "A": "y"}]
        old = state_of(l_rows, [])
        new_r = [{"K": 1, "B": "p"}]
        new = state_of(l_rows, new_r)
        delta = StoreDelta(
            {"R": TableDelta("R", inserts=[row_from_mapping(new_r[0])])}
        )
        maintained = dict(bag(old))
        for sign, row in node.delta(read_runtime(delta, new)):
            key = tuple(sorted(row.items()))
            maintained[key] = maintained.get(key, 0) + sign
        maintained = {k: c for k, c in maintained.items() if c}
        assert maintained == bag(new)  # 0 -> 1: pad row for K=1 retired

        # and back: deleting the R row must resurrect the pad row
        back_delta = StoreDelta(
            {"R": TableDelta("R", deletes=[row_from_mapping(new_r[0])])}
        )
        rewound = dict(bag(new))
        for sign, row in node.delta(read_runtime(back_delta, old)):
            key = tuple(sorted(row.items()))
            rewound[key] = rewound.get(key, 0) + sign
        rewound = {k: c for k, c in rewound.items() if c}
        assert rewound == bag(old)

    def test_full_outer_join_is_not_maintainable(self):
        schema = StoreSchema(
            [
                Table("L", (Column("K", INT, False),), ("K",)),
                Table("R", (Column("K", INT, False),), ("K",)),
            ]
        )
        query = FullOuterJoin(TableScan("L"), TableScan("R"), on=("K",))
        with pytest.raises(IvmError):
            compile_delta(query, StoreContext(StoreState(schema)), table_leaf)


# ---------------------------------------------------------------------------
# Fallback, invalidation, and eviction behavior
# ---------------------------------------------------------------------------

class TestFallbackAndEviction:
    def test_disabled_tier_is_pure_reexecution(self):
        """budget=0: the tier stores nothing, serves nothing, and the
        session behaves exactly like the pre-tier engine."""
        model = compiled(mapping_stage3())
        session = OrmSession(model, result_cache_budget=0)
        session.save(
            random_client_state(model.client_schema, seed=9, entities_per_set=5)
        )
        queries = probe_queries(model.client_schema)
        first = [canon(session.query(q)) for q in queries]
        second = [canon(session.query(q)) for q in queries]
        assert first == second
        stats = result_stats(session)
        assert stats.hits == 0
        assert stats.entries == 0

    def test_unmaintainable_entry_serves_warm_then_dies_on_write(self):
        """An entry whose shape the delta rules cannot carry still serves
        reads, but any write touching its tables must invalidate it —
        never a stale answer, never an exception."""
        model = compiled(mapping_stage3())
        session = OrmSession(model)
        session.save(
            random_client_state(model.client_schema, seed=4, entities_per_set=4)
        )
        query = EntityQuery("Persons")
        session.query(query)
        session.query(query)
        cache = session.epoch.results
        assert len(cache) >= 1
        # force every entry unmaintainable (the FOJ case, white-box)
        with cache._entries.lock:
            for entry in cache._entries._entries.values():
                entry.roots = None
        before = cache.stats()
        with session.edit_incremental() as state:
            # a real mutation: rewrite the first person
            person = state.entities("Persons")[0]
            key = model.client_schema.key_of(person.concrete_type)
            rewritten = Entity.of(
                person.concrete_type,
                **{**dict(person.values), "Name": "rewritten"},
            )
            state.update_entity("Persons", rewritten)
        after = result_stats(session)
        assert after.invalidated > before.invalidated
        assert after.maintained == before.maintained
        # and the next read re-executes correctly
        reference = OrmSession(model, result_cache_budget=0)
        reference.save(session.load().embed_into(model.client_schema))
        assert canon(session.query(query)) == canon(reference.query(query))

    def test_entry_stamped_by_another_epoch_is_never_served(self):
        """A lookup that finds an entry carrying another epoch's
        fingerprint (only a carry bug can produce one) misses, drops the
        entry and counts it — it is never a hit and never a stale read."""
        model = compiled(mapping_stage3())
        session, reference = cached_and_reference(model, "memory")
        state = random_client_state(
            model.client_schema, seed=5, entities_per_set=4
        )
        session.save(state)
        reference.save(state)
        query = EntityQuery("Persons")
        session.query(query)
        session.query(query)  # the second miss admits the entry
        epoch = session.epoch
        cache = epoch.results
        _, values, key = epoch.plan_cache.plan_with_key(epoch.model, query)
        with cache._entries.lock:
            entry = cache._entries._entries[(key, values)]
            entry.fingerprint = "another epoch"
        before = cache.stats()
        assert cache.lookup(key, values, epoch.fingerprint) is None
        after = cache.stats()
        assert after.validation_failures == before.validation_failures + 1
        assert after.invalidated == before.invalidated + 1
        assert after.misses == before.misses + 1
        assert after.hits == before.hits
        assert not cache.has(key, values)
        assert canon(session.query(query)) == canon(reference.query(query))

    def test_lru_evicts_by_cost_not_entry_count(self):
        """With a budget smaller than the hot set, total cost must stay
        under the budget while cheap entries keep fitting — one huge
        entry cannot masquerade as 'just one entry'."""
        mapping = chain_mapping(4)
        model = CompiledModel(
            mapping, compile_mapping(mapping, validate=False).views
        )
        session = OrmSession(model, result_cache_budget=120)
        with session.edit() as state:
            for index in range(1, 5):
                for row in range(10):
                    state.add_entity(
                        set_name(index),
                        Entity.of(
                            f"Entity{index}",
                            Id=row,
                            EntityAtt2="a",
                            EntityAtt3="b",
                            EntityAtt4="c",
                        ),
                    )
        for index in range(1, 5):
            for _ in range(2):  # the second miss admits each answer
                session.query(EntityQuery(set_name(index)))
                # key probes are cheap (one row) and must survive pressure
                session.query(
                    EntityQuery(set_name(index), Comparison("Id", "=", 1))
                )
        stats = result_stats(session)
        assert stats.cost <= 120
        assert stats.evictions > 0
        assert stats.entries >= 1

    def test_oversized_entry_is_never_stored(self):
        mapping = chain_mapping(4)
        model = CompiledModel(
            mapping, compile_mapping(mapping, validate=False).views
        )
        session = OrmSession(model, result_cache_budget=10)
        with session.edit() as state:
            for row in range(10):
                state.add_entity(
                    set_name(1),
                    Entity.of(
                        "Entity1",
                        Id=row,
                        EntityAtt2="a",
                        EntityAtt3="b",
                        EntityAtt4="c",
                    ),
                )
        query = EntityQuery(set_name(1))
        first = canon(session.query(query))
        assert canon(session.query(query)) == first
        stats = result_stats(session)
        assert stats.entries == 0  # 10 rows x 7 cols >> 10-cell budget
        assert stats.hits == 0


# ---------------------------------------------------------------------------
# Admission on the second miss
# ---------------------------------------------------------------------------

def chain_session(rows_per_set: int = 10) -> OrmSession:
    mapping = chain_mapping(4)
    model = CompiledModel(mapping, compile_mapping(mapping, validate=False).views)
    session = OrmSession(model)
    with session.edit() as state:
        for index in range(1, 5):
            for row in range(rows_per_set):
                state.add_entity(
                    set_name(index),
                    Entity.of(
                        entity_name(index),
                        Id=row,
                        EntityAtt2=f"a{row}",
                        EntityAtt3=f"b{row}",
                        EntityAtt4=f"c{row % 3}",
                    ),
                )
    return session


def widen_entity1(session: OrmSession) -> None:
    """An SMO whose neighborhood is Entities1 only."""
    session.evolve(
        AddProperty(entity_name(1), Attribute("Tmp", STRING, nullable=True), "T1", "Tmp")
    )


class TestSecondMissAdmission:
    def test_first_miss_counts_one_miss_and_builds_nothing(self):
        session = chain_session()
        for key in range(5):  # one-shot reads
            session.query(EntityQuery(set_name(1), Comparison("Id", "=", key)))
        stats = result_stats(session)
        assert (stats.misses, stats.hits, stats.entries, stats.cost) == (5, 0, 0, 0)

    def test_second_miss_admits_and_third_read_hits(self):
        session = chain_session()
        query = EntityQuery(set_name(2), Comparison("EntityAtt4", "=", "c1"))
        first = session.query(query)
        assert result_stats(session).entries == 0
        second = session.query(query)
        stats = result_stats(session)
        assert (stats.misses, stats.hits, stats.entries) == (2, 0, 1)
        third = session.query(query)
        stats = result_stats(session)
        assert (stats.misses, stats.hits) == (2, 1)
        assert canon(first) == canon(second) == canon(third)
        assert len(third) == 3

    @pytest.mark.parametrize("write", ["save_delta", "save", "evolve", "undo"])
    def test_doorkeeper_survives_successors(self, write):
        """Misses recorded before a write still count after it: every
        successor shares the doorkeeper, so the read after the write is
        the second miss and admits."""
        session = chain_session()
        if write == "undo":
            widen_entity1(session)
        query = EntityQuery(set_name(4), Comparison("Id", "=", 3))
        session.query(query)
        doorkeeper = session.epoch.results._doorkeeper
        assert len(doorkeeper) == 1
        if write == "save_delta":
            entity = Entity.of(
                entity_name(1), Id=1, EntityAtt2="w", EntityAtt3="b1", EntityAtt4="c1"
            )
            session.save_delta(
                DeltaScript((EntityOp("update", set_name(1), entity=entity),))
            )
        elif write == "save":
            state = session.load()
            state.remove_entity(set_name(1), (0,))
            session.save(state)
        elif write == "evolve":
            widen_entity1(session)
        else:
            session.undo()
        results = session.epoch.results
        assert results._doorkeeper is doorkeeper
        assert len(results) == 0
        session.query(query)
        assert len(results) == 1
        assert result_stats(session).misses == 2

    def test_doorkeeper_keeps_every_record_under_thread_races(self, monkeypatch):
        """Readers of every epoch share one doorkeeper.  Concurrent first
        misses must all be recorded, and no race may push it past its
        bound."""
        keys_per_thread = 300
        keeper = _Doorkeeper()

        def race(tag: str) -> list:
            start = threading.Barrier(THREADS)
            admitted: list = []

            def worker(index: int) -> None:
                start.wait(timeout=10)
                keys = [(tag, index, n) for n in range(keys_per_thread)]
                first = [keeper.admit(key) for key in keys]
                admitted.append(not any(first) and all(map(keeper.admit, keys)))

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            return admitted

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert race("below the bound") == [True] * THREADS
            assert len(keeper) == THREADS * keys_per_thread
            monkeypatch.setattr(resultcache, "DOORKEEPER_BOUND", 50)
            race("resetting")
            assert 0 < len(keeper) <= 50
        finally:
            sys.setswitchinterval(interval)

    def test_doorkeeper_resets_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(resultcache, "DOORKEEPER_BOUND", 3)
        keeper = _Doorkeeper()
        assert not any(keeper.admit(("key", index)) for index in range(3))
        assert keeper.admit(("key", 0))  # remembered: admitted
        assert len(keeper) == 3
        assert not keeper.admit(("key", 3))  # full: starts over
        assert len(keeper) == 1
        assert not keeper.admit(("key", 0))  # forgotten by the reset


# ---------------------------------------------------------------------------
# Maintenance carries entries whose answer a write leaves unchanged
# ---------------------------------------------------------------------------

def test_a_write_that_misses_an_answer_carries_the_entry_itself():
    """A save_delta to a table both entries read: the whole-set scan's
    answer changes and is rebuilt (counted in ``maintained``); the
    ``Id = 3`` entry's answer does not, so the next epoch holds the very
    same entry, answer list included, and ``maintained`` skips it."""
    session = chain_session()
    point = EntityQuery(set_name(1), Comparison("Id", "=", 3))
    scan = EntityQuery(set_name(1))
    for _ in range(2):  # admitted on the second miss
        session.query(point)
        session.query(scan)

    def entries():
        epoch = session.epoch
        stored = epoch.results._entries._entries
        found = []
        for query in (point, scan):
            _plan, values, key = epoch.plan_cache.plan_with_key(epoch.model, query)
            found.append(stored[(key, values)])
        return found

    point_entry, scan_entry = entries()
    answer = point_entry.rows_view()
    before = result_stats(session).maintained
    entity = Entity.of(
        entity_name(1), Id=5, EntityAtt2="w", EntityAtt3="b5", EntityAtt4="c2"
    )
    session.save_delta(DeltaScript((EntityOp("update", set_name(1), entity=entity),)))
    carried, rebuilt = entries()
    assert carried is point_entry
    assert carried.results is answer
    assert rebuilt is not scan_entry
    assert result_stats(session).maintained == before + 1
    assert canon(session.query(point)) == canon(answer)
    assert entity in session.query(scan)


# ---------------------------------------------------------------------------
# Undo carries the tier outside the region it migrates
# ---------------------------------------------------------------------------

def chain_pair(backend: str):
    """A tier-on session and its tier-off twin over the chain data."""
    source = chain_session()
    data = source.load()
    cached, reference = cached_and_reference(source.model, backend)
    cached.save(data)
    reference.save(data)
    return cached, reference


def count_executions(monkeypatch) -> list:
    """Record every cached-plan execution from now on."""
    executed: list = []
    original = CachedPlan.execute

    def execute(plan, reader, values):
        executed.append(plan)
        return original(plan, reader, values)

    monkeypatch.setattr(CachedPlan, "execute", execute)
    return executed


@pytest.mark.parametrize("backend", BACKENDS)
class TestUndoCarriesTheTier:
    OUTSIDE = EntityQuery(set_name(3), Comparison("EntityAtt4", "=", "c1"))
    INSIDE = EntityQuery(set_name(1), Comparison("EntityAtt4", "=", "c1"))

    def test_answers_outside_the_region_hit_through_evolve_and_undo(
        self, backend, monkeypatch
    ):
        cached, _ = chain_pair(backend)
        try:
            for query in (self.OUTSIDE, self.INSIDE, self.OUTSIDE, self.INSIDE):
                cached.query(query)  # admitted on the second miss
            answer = canon(cached.query(self.OUTSIDE))
            executed = count_executions(monkeypatch)
            hits = result_stats(cached).hits
            widen_entity1(cached)  # region: T1, set 1
            assert canon(cached.query(self.OUTSIDE)) == answer
            cached.undo()
            assert canon(cached.query(self.OUTSIDE)) == answer
            assert executed == []
            assert result_stats(cached).hits == hits + 2
            misses = result_stats(cached).misses
            cached.query(self.INSIDE)
            assert len(executed) == 1
            assert result_stats(cached).misses == misses + 1
        finally:
            cached.backend.close()

    def test_undo_drops_an_answer_over_a_table_written_since_the_evolve(
        self, backend
    ):
        cached, reference = chain_pair(backend)
        try:
            for _ in range(2):
                cached.query(self.OUTSIDE)
            widen_entity1(cached)
            widen_entity1(reference)
            entity = Entity.of(
                entity_name(3), Id=4, EntityAtt2="w", EntityAtt3="b4",
                EntityAtt4="c1",
            )
            script = DeltaScript((EntityOp("update", set_name(3), entity=entity),))
            cached.save_delta(script)
            reference.save_delta(script)
            assert entity in cached.query(self.OUTSIDE)  # maintained entry
            assert len(cached.epoch.results) == 1
            cached.undo()
            reference.undo()
            assert len(cached.epoch.results) == 0
            misses = result_stats(cached).misses
            answer = cached.query(self.OUTSIDE)
            assert result_stats(cached).misses == misses + 1
            assert canon(answer) == canon(reference.query(self.OUTSIDE))
            assert entity not in answer
        finally:
            cached.backend.close()
            reference.backend.close()


# ---------------------------------------------------------------------------
# Thread safety: concurrent readers vs an incremental writer
# ---------------------------------------------------------------------------

THREADS = 8
READ_ROUNDS = 40
WRITE_ROUNDS = 12


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_reads_through_writes_stay_exact(backend):
    """Many readers hammer the tier while a writer streams save_delta
    rounds: no exceptions, no stale serves, and the final answers equal
    the re-execution oracle.  The readers' point reads are routed
    entries the writes reach, populated while successors are taken, so
    the routing index must stay in step with the entries too."""
    mapping = chain_mapping(4)
    model = CompiledModel(
        mapping, compile_mapping(mapping, validate=False).views
    )
    backend_engine = create_backend(backend, model.store_schema)
    session = OrmSession(model, backend=backend_engine)
    per_set = 30
    with session.edit() as state:
        for index in range(1, 5):
            for row in range(per_set):
                state.add_entity(
                    set_name(index),
                    Entity.of(
                        f"Entity{index}",
                        Id=row,
                        EntityAtt2=f"a{row % 3}",
                        EntityAtt3=f"b{row}",
                        EntityAtt4="c",
                    ),
                )
    sized = [(EntityQuery(set_name(index)), per_set) for index in range(1, 5)] + [
        (EntityQuery(set_name(index), Comparison("Id", "=", row)), 1)
        for index in range(1, 5)
        for row in range(0, WRITE_ROUNDS, 3)
    ]
    queries = [query for query, _size in sized]
    errors: list = []
    stop = threading.Event()

    def reader(index: int) -> None:
        try:
            for round_number in range(READ_ROUNDS):
                query, size = sized[(index + round_number) % len(sized)]
                rows = session.query(query)
                assert len(rows) == size
        except Exception as exc:  # noqa: BLE001 — collected for assertion
            errors.append(exc)

    def writer() -> None:
        try:
            for round_number in range(WRITE_ROUNDS):
                index = (round_number % 4) + 1
                row = round_number % per_set
                entity = Entity.of(
                    f"Entity{index}",
                    Id=row,
                    EntityAtt2=f"w{round_number}",
                    EntityAtt3=f"b{row}",
                    EntityAtt4="c",
                )
                session.save_delta(
                    DeltaScript(
                        (EntityOp("update", set_name(index), entity=entity),)
                    )
                )
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            stop.set()

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(THREADS)
    ]
    write_thread = threading.Thread(target=writer)
    for thread in threads:
        thread.start()
    write_thread.start()
    for thread in threads:
        thread.join()
    write_thread.join()
    try:
        assert not errors, errors[0]
        assert result_stats(session).validation_failures == 0
        reference = OrmSession(
            model,
            backend=create_backend("memory", model.store_schema),
            result_cache_budget=0,
        )
        reference.save(session.load().embed_into(model.client_schema))
        for query in queries:
            assert canon(session.query(query)) == canon(reference.query(query))
        index_agrees_with_entries(session.epoch.results)
    finally:
        session.backend.close()


def test_result_cache_successor_race_with_populations():
    """A writer taking successors while readers populate: every
    successor must be a coherent cache (cost equals the sum of its
    entries, counters monotone)."""
    mapping = chain_mapping(4)
    model = CompiledModel(
        mapping, compile_mapping(mapping, validate=False).views
    )
    session = OrmSession(model)
    with session.edit() as state:
        for index in range(1, 5):
            for row in range(5):
                state.add_entity(
                    set_name(index),
                    Entity.of(
                        f"Entity{index}",
                        Id=row,
                        EntityAtt2="a",
                        EntityAtt3="b",
                        EntityAtt4="c",
                    ),
                )
    cache = session.epoch.results
    stop = threading.Event()
    successors: list = []
    errors: list = []

    fingerprint = session.epoch.fingerprint

    def snapshotter() -> None:
        try:
            for _ in range(20):
                successors.append(
                    cache.successor_for_tables((), fingerprint)
                )
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            stop.set()

    def populator(index: int) -> None:
        try:
            round_number = 0
            while not stop.is_set() and round_number < 500:
                query = EntityQuery(
                    set_name(1 + (round_number + index) % 4),
                    Comparison("Id", "=", round_number % 5),
                )
                session.query(query)
                round_number += 1
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=snapshotter)] + [
        threading.Thread(target=populator, args=(i,)) for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[0]
    assert len(successors) == 20
    for successor in successors:
        entries = successor._entries
        with entries.lock:
            assert entries._cost == sum(
                entry.cost for entry in entries._entries.values()
            )


# ---------------------------------------------------------------------------
# Routing: a write visits only the entries its rows can reach
# ---------------------------------------------------------------------------

T1 = frozenset({"T1"})


def admit(session: OrmSession, queries) -> None:
    for _ in range(2):  # the second miss admits each answer
        for query in queries:
            session.query(query)


def entry_of(session: OrmSession, query: EntityQuery):
    epoch = session.epoch
    _plan, values, key = epoch.plan_cache.plan_with_key(epoch.model, query)
    return epoch.results._entries._entries[(key, values)]


def visited_entries(monkeypatch) -> list:
    """``(tables, bound values)`` of every entry whose delta rules a
    write runs from now on."""
    seen: list = []
    original = resultcache._maintained_entry

    def spy(entry, rt, fingerprint):
        seen.append((entry.tables, entry.values))
        return original(entry, rt, fingerprint)

    monkeypatch.setattr(resultcache, "_maintained_entry", spy)
    return seen


def write_both(cached: OrmSession, reference: OrmSession, *ops) -> None:
    script = DeltaScript(tuple(ops))
    cached.save_delta(script)
    reference.save_delta(script)


def entity1(key: int, att4: str, **extra) -> Entity:
    return Entity.of(
        entity_name(1), Id=key, EntityAtt2="w", EntityAtt3=f"b{key}",
        EntityAtt4=att4, **extra,
    )


def index_agrees_with_entries(cache) -> None:
    """The routing index names each held entry once per pin (a routed
    entry) or once per scanned table (an unrouted one), and nothing
    else; its per-column counts match."""
    routes = cache._entries._index
    with cache._entries.lock:
        held = dict(cache._entries._entries)
        buckets = list(routes._buckets.items())
        named = Counter(key for _route, bucket in buckets for key in bucket)
        columns = {table: dict(counts) for table, counts in routes._columns.items()}
    expected: Counter = Counter()
    pinned: Counter = Counter()
    for key, entry in held.items():
        if entry.pins is None:
            expected[key] += len(entry.tables)
        else:
            expected[key] += len(set(entry.pins))
            pinned.update((table, column) for table, column, _ in set(entry.pins))
    assert named == expected
    assert all(bucket for _route, bucket in buckets)
    assert {
        (table, column): count
        for table, counts in columns.items()
        for column, count in counts.items()
    } == dict(pinned)


def chain_rows(per_set: int, sets=range(1, 5), values: int = 7):
    """(table, row) pairs of chain data with no links; EntityAtt4 takes
    *values* distinct values."""
    for index in sets:
        for key in range(per_set):
            row = {
                "Id": key,
                "EntityAtt2": f"a{key}",
                "EntityAtt3": f"b{key}",
                "EntityAtt4": f"c{key % values}",
            }
            if index < 4:
                row.update(NextA=None, NextB=None)
            yield f"T{index}", row_from_mapping(row)


def loaded_pair(backend: str, rows, budget=None):
    """A tier-on session (with *budget*) and its tier-off twin over the
    chain model, both loaded with *rows*."""
    mapping = chain_mapping(4)
    model = CompiledModel(mapping, compile_mapping(mapping, validate=False).views)
    state = StoreState(model.store_schema)
    for table, row in rows:
        state.add_row(table, row)
    sessions = []
    for cells in (budget, 0):
        session = OrmSession(
            model,
            backend=create_backend(backend, model.store_schema),
            result_cache_budget=cells,
        )
        session.store_state = state
        sessions.append(session)
    return sessions


@pytest.mark.parametrize("backend", BACKENDS)
class TestDeltaRouting:
    HOT = [
        EntityQuery(set_name(index), Comparison("EntityAtt4", "=", value))
        for index in (1, 2)
        for value in ("c0", "c1", "c2")
    ]

    @staticmethod
    def points(keys, index: int = 1):
        return [EntityQuery(set_name(index), Comparison("Id", "=", key)) for key in keys]

    def test_an_update_reaches_the_entries_of_its_old_and_new_value(
        self, backend, monkeypatch
    ):
        cached, reference = chain_pair(backend)
        try:
            queries = self.HOT + self.points(range(10))
            admit(cached, queries)
            seen = visited_entries(monkeypatch)
            # Id 4 holds c1 (4 % 3); the update moves it to c0
            write_both(cached, reference, EntityOp("update", set_name(1), entity=entity1(4, "c0")))
            assert sorted(seen, key=repr) == sorted(
                [(T1, ("c1",)), (T1, ("c0",)), (T1, (4,))], key=repr
            )
            assert_answers_agree(cached, reference, queries)
        finally:
            cached.backend.close()
            reference.backend.close()

    def test_a_delete_reaches_through_its_old_row_an_insert_through_its_new(
        self, backend, monkeypatch
    ):
        cached, reference = chain_pair(backend)
        try:
            queries = self.HOT + self.points([7, 50])
            admit(cached, queries)
            seen = visited_entries(monkeypatch)
            write_both(cached, reference, EntityOp("delete", set_name(1), key=(7,)))
            assert sorted(seen, key=repr) == sorted([(T1, ("c1",)), (T1, (7,))], key=repr)
            assert_answers_agree(cached, reference, queries)
            seen.clear()
            # the Id = 50 entry was admitted empty; the insert reaches it
            write_both(
                cached, reference,
                EntityOp("insert", set_name(1), entity=entity1(50, "c2")),
            )
            assert sorted(seen, key=repr) == sorted([(T1, ("c2",)), (T1, (50,))], key=repr)
            assert_answers_agree(cached, reference, queries)
            assert entity1(50, "c2") in cached.query(self.points([50])[0])
        finally:
            cached.backend.close()
            reference.backend.close()

    def test_a_null_in_a_pinned_column_reaches_nothing(self, backend, monkeypatch):
        cached, reference = chain_pair(backend)
        try:
            widen_entity1(cached)
            widen_entity1(reference)
            tagged = EntityQuery(set_name(1), Comparison("Tmp", "=", "x"))
            point = self.points([3])[0]
            admit(cached, [tagged, point])
            assert entry_of(cached, tagged).pins == (("T1", "Tmp", "x"),)
            seen = visited_entries(monkeypatch)
            before = result_stats(cached).visited
            write_both(
                cached, reference,
                EntityOp("insert", set_name(1), entity=entity1(60, "c0", Tmp=None)),
            )
            assert seen == []
            assert result_stats(cached).visited == before
            # both sides of this update hold a NULL Tmp: only the key's
            # entry is reached
            write_both(
                cached, reference,
                EntityOp("update", set_name(1), entity=entity1(3, "c0", Tmp=None)),
            )
            assert seen == [(T1, (3,))]
            assert_answers_agree(cached, reference, [tagged, point])
            assert result_stats(cached).fallbacks == 0
        finally:
            cached.backend.close()
            reference.backend.close()

    @pytest.mark.parametrize("shape", ["!=", "OR", "IS NULL", "TPT join", "union"])
    def test_unrouted_entries_are_still_maintained(self, backend, shape):
        if shape in ("TPT join", "union"):
            evolving = OrmSession(stage1_model())
            smo = employee_smo if shape == "TPT join" else customer_smo
            evolving.evolve(smo(evolving.model))
            model = evolving.model
            cached, reference = cached_and_reference(model, backend)
            seeded = random_client_state(model.client_schema, seed=5, entities_per_set=6)
            cached.save(seeded)
            reference.save(seeded)
            keys = [entity["Id"] for entity in seeded.entities("Persons")]
            queries = [
                EntityQuery("Persons", Comparison("Id", "=", key)) for key in keys
            ]
        else:
            cached, reference = chain_pair(backend)
            model = cached.model
            condition = {
                "!=": Comparison("EntityAtt4", "!=", "c0"),
                "OR": or_(Comparison("Id", "=", 1), Comparison("Id", "=", 4)),
                "IS NULL": IsNull("EntityAtt4"),
            }[shape]
            queries = [EntityQuery(set_name(index), condition) for index in range(1, 5)]
        try:
            admit(cached, queries)
            entries = [entry_of(cached, query) for query in queries]
            assert all(entry.maintainable and entry.pins is None for entry in entries)
            before = result_stats(cached)
            rng = random.Random(41)
            next_key = [600000]
            for _ in range(3):
                scratch = clone(reference.load())
                script = random_script(
                    model.client_schema, scratch, rng, next_key, n_ops=8
                )
                reference.save(scratch)
                cached.save_delta(script)
                assert_answers_agree(cached, reference, queries)
            after = result_stats(cached)
            assert after.visited > before.visited
            assert after.fallbacks == before.fallbacks
            if shape != "IS NULL":  # no chain row has a NULL EntityAtt4
                assert after.maintained > before.maintained
        finally:
            cached.backend.close()
            reference.backend.close()

    def test_hundreds_of_routed_entries_match_the_twin_through_random_scripts(
        self, backend
    ):
        cached, reference = loaded_pair(backend, chain_rows(130))
        try:
            queries = [
                query
                for index in range(1, 5)
                for query in self.points(range(125), index)
                + [
                    EntityQuery(set_name(index), Comparison("EntityAtt4", "=", f"c{v}"))
                    for v in range(7)
                ]
            ]
            admit(cached, queries)
            assert len(cached.epoch.results) == len(queries) >= 500
            assert all(entry_of(cached, query).pins for query in queries)
            rng = random.Random(29)
            next_key = [700000]
            model = cached.model
            for _ in range(4):
                scratch = clone(reference.load())
                script = random_script(
                    model.client_schema, scratch, rng, next_key, n_ops=12
                )
                reference.save(scratch)
                cached.save_delta(script)
                assert_answers_agree(cached, reference, queries)
            stats = result_stats(cached)
            assert stats.maintained > 0
            assert stats.visited < 4 * len(queries) // 10
            assert stats.fallbacks == stats.validation_failures == 0
        finally:
            cached.backend.close()
            reference.backend.close()

    def test_the_index_forgets_every_entry_the_lru_drops(self, backend):
        cached, reference = loaded_pair(backend, chain_rows(10), budget=150)
        try:
            queries = [EntityQuery(set_name(index)) for index in (1, 2)] + [
                query for index in (1, 2, 3) for query in self.points(range(10), index)
            ]
            admit(cached, queries)
            stats = result_stats(cached)
            assert stats.evictions > 0 and stats.entries > 0
            index_agrees_with_entries(cached.epoch.results)
            # a scan entry that grows past the budget is trimmed away on
            # the successor, and so is its index entry
            admit(cached, [EntityQuery(set_name(3))])
            write_both(
                cached, reference,
                EntityOp("insert", set_name(3), entity=Entity.of(
                    entity_name(3), Id=99, EntityAtt2="n", EntityAtt3="b",
                    EntityAtt4="c0",
                )),
                EntityOp("update", set_name(3), entity=Entity.of(
                    entity_name(3), Id=2, EntityAtt2="n", EntityAtt3="b",
                    EntityAtt4="c0",
                )),
            )
            index_agrees_with_entries(cached.epoch.results)
            assert result_stats(cached).evictions > stats.evictions
            assert_answers_agree(cached, reference, queries)
            cached.epoch.results.clear()
            index_agrees_with_entries(cached.epoch.results)
        finally:
            cached.backend.close()
            reference.backend.close()

    def test_a_one_row_write_copies_only_what_it_touches(self, backend):
        cached, reference = loaded_pair(backend, chain_rows(10_000, sets=(1,)))
        try:
            scan = EntityQuery(set_name(1))
            admit(cached, [scan])
            before = entry_of(cached, scan)
            answer = list(before.rows_view())
            write_both(
                cached, reference,
                EntityOp("update", set_name(1), entity=entity1(5000, "c0")),
            )
            after = entry_of(cached, scan)
            assert after is not before
            assert before.rows_view() == answer  # the predecessor is intact

            def changed(old, new):
                return sum(a is not b for a, b in zip(old, new)) + abs(len(new) - len(old))

            old_bag, new_bag = before.bags[0], after.bags[0]
            assert len(old_bag._parts) > 100
            assert changed(old_bag._parts, new_bag._parts) <= 2
            old_rows, new_rows = before.answer, after.answer
            assert len(old_rows._chunks) > 100
            # the updated row's chunk, and the last chunk it moved to
            assert changed(old_rows._chunks, new_rows._chunks) <= 2
            assert changed(old_rows._where._parts, new_rows._where._parts) <= 2
            rows = cached.query(scan)
            assert rows[:-1] == [row for row in answer if row["Id"] != 5000]
            assert rows[-1] == entity1(5000, "c0")
            assert canon(rows) == canon(reference.query(scan))
        finally:
            cached.backend.close()
            reference.backend.close()

    def test_a_thousand_unrouted_entries_share_a_bucket_copied_once(self, backend):
        """Unrouted entries over one table share one routing bucket.  A
        write that maintains them leaves the bucket shared with the
        predecessor; the next admission copies it once, and the ones
        after write the copy in place."""
        cached, reference = loaded_pair(backend, chain_rows(1000, sets=(1,)))
        try:

            def span(low, high):
                return EntityQuery(set_name(1), and_(
                    Comparison("Id", ">=", low), Comparison("Id", "<=", high),
                ))

            queries = [span(key, key) for key in range(1000)]
            admit(cached, queries)
            before = result_stats(cached)
            assert before.entries == 1000

            def bucket():
                return cached.epoch.results._entries._index._buckets.get("T1")

            shared = bucket()
            assert len(shared) == 1000
            write_both(
                cached, reference,
                EntityOp("update", set_name(1), entity=entity1(5, "c0")),
            )
            after = result_stats(cached)
            assert after.visited - before.visited == 1000
            assert after.maintained == before.maintained + 1
            assert bucket() is shared
            admit(cached, [span(0, 1)])
            copied = bucket()
            assert copied is not shared and len(shared) == 1000
            admit(cached, [span(0, 2)])
            assert bucket() is copied and len(copied) == 1002
            index_agrees_with_entries(cached.epoch.results)
            assert_answers_agree(cached, reference, queries[:10] + [span(0, 2)])
        finally:
            cached.backend.close()
            reference.backend.close()

    def test_visited_counts_only_the_entries_a_write_reaches(self, backend):
        cached, reference = loaded_pair(backend, chain_rows(1000, sets=(1,)))
        try:
            queries = self.points(range(1000))
            admit(cached, queries)
            before = result_stats(cached)
            assert before.entries == 1000
            write_both(
                cached, reference,
                EntityOp("update", set_name(1), entity=entity1(5, "c0")),
            )
            after = result_stats(cached)
            assert after.visited - before.visited <= 1  # only the Id = 5 entry
            assert after.maintained == before.maintained + 1
            assert_answers_agree(cached, reference, queries[:10])
        finally:
            cached.backend.close()
            reference.backend.close()


def test_pins_trace_only_renaming_columns():
    """A pin names a base column: traced through ``Col`` items, never
    through a ``Const`` item, preferring the primary key, and only from
    a top-level equality with a non-NULL constant."""
    schema = StoreSchema(
        [
            Table(
                "T",
                (Column("K", INT, False), Column("V", STRING), Column("F", INT)),
                ("K",),
                (ForeignKey(("F",), "T", ("K",)),),
            )
        ]
    )
    scan = TableScan("T")
    renaming = Project(scan, (ProjItem("Key", Col("K")), ProjItem("V", Col("V"))))
    constant = Project(scan, (ProjItem("K", Const(1)), ProjItem("V", Col("V"))))
    cases = [
        (Select(renaming, Comparison("Key", "=", 3)), ("T", "K", 3)),
        (Select(constant, Comparison("K", "=", 1)), None),
        (Select(constant, and_(Comparison("K", "=", 1), Comparison("V", "=", "x"))),
         ("T", "V", "x")),
        (Select(scan, and_(Comparison("V", "=", "x"), Comparison("K", "=", 3))),
         ("T", "K", 3)),
        (Select(scan, and_(Comparison("V", "=", "x"), Comparison("F", "=", 2))),
         ("T", "F", 2)),
        (Select(Select(scan, Comparison("V", "=", "x")), Comparison("V", "!=", "y")),
         ("T", "V", "x")),
        (Select(scan, Comparison("V", "=", None)), None),
        (Select(scan, Comparison("V", "!=", "x")), None),
        (Select(scan, or_(Comparison("K", "=", 1), Comparison("K", "=", 2))), None),
        (Select(scan, Not(Comparison("K", "=", 1))), None),
        (Select(Join(scan, scan, on=("K",)), Comparison("K", "=", 1)), None),
    ]
    for query, pin in cases:
        assert resultcache.branch_pin(query, schema) == pin, query
