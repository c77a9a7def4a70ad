"""Unit tests: parameter extraction, cached plans, and the LRU plan
cache with delta-scoped invalidation (:mod:`repro.query.plancache`)."""

import pytest

from repro.algebra.conditions import TRUE, Comparison, IsNull, and_
from repro.compiler import compile_mapping
from repro.edm import INT, STRING, Attribute, ClientSchemaBuilder, Entity
from repro.incremental import AddProperty, CompiledModel
from repro.mapping import Mapping, MappingFragment
from repro.query import EntityQuery, PlanCache, Param, parameterize
from repro.query.plancache import bind_condition
from repro.relational import Column, StoreSchema, Table
from repro.session import OrmSession
from repro.workloads.paper_example import mapping_stage4


def _stage4_model() -> CompiledModel:
    mapping = mapping_stage4()
    return CompiledModel(mapping, compile_mapping(mapping).views)


def _two_set_model() -> CompiledModel:
    """Two singleton sets over disjoint tables (Lefts -> TL, Rights -> TR)."""
    schema = (
        ClientSchemaBuilder()
        .entity("Left", key=[("Id", INT)], attrs=[("Val", STRING)])
        .entity_set("Lefts", "Left")
        .entity("Right", key=[("Id", INT)], attrs=[("Val", STRING)])
        .entity_set("Rights", "Right")
        .build()
    )
    store = StoreSchema(
        [
            Table("TL", (Column("Id", INT, False), Column("Val", STRING)), ("Id",)),
            Table("TR", (Column("Id", INT, False), Column("Val", STRING)), ("Id",)),
        ]
    )
    mapping = Mapping(
        schema, store,
        [
            MappingFragment("Lefts", False, TRUE, "TL", TRUE,
                            (("Id", "Id"), ("Val", "Val"))),
            MappingFragment("Rights", False, TRUE, "TR", TRUE,
                            (("Id", "Id"), ("Val", "Val"))),
        ],
    )
    return CompiledModel(mapping, compile_mapping(mapping).views)


def _populate_two_sets(session: OrmSession, size: int = 6) -> None:
    with session.edit() as state:
        for i in range(size):
            state.add_entity("Lefts", Entity.of("Left", Id=i, Val=f"l{i}"))
            state.add_entity("Rights", Entity.of("Right", Id=i, Val=f"r{i}"))


class TestParameterize:
    def test_extracts_constants_into_vector(self):
        query = EntityQuery("Persons", Comparison("Id", ">", 5))
        shape, values = parameterize(query, frozenset())
        assert values == (5,)
        assert shape.condition == Comparison("Id", ">", Param(0))

    def test_same_shape_for_different_bindings(self):
        """Hash-consing makes the parameterized condition the *same*
        object for every binding of one shape."""
        shape5, _ = parameterize(
            EntityQuery("Persons", Comparison("Id", ">", 5)), frozenset()
        )
        shape9, _ = parameterize(
            EntityQuery("Persons", Comparison("Id", ">", 9)), frozenset()
        )
        assert shape5.condition is shape9.condition

    def test_multiple_params_keep_slot_order(self):
        query = EntityQuery(
            "Persons",
            and_(Comparison("Id", ">", 1), Comparison("Name", "=", "ann")),
        )
        shape, values = parameterize(query, frozenset())
        assert values == (1, "ann")
        params = [
            atom.const for atom in shape.condition.atoms()
            if isinstance(atom, Comparison) and isinstance(atom.const, Param)
        ]
        assert params == [Param(0), Param(1)]

    def test_none_constants_stay_inline(self):
        """NULL comparisons generate different SQL text, so None is part
        of the shape, never a parameter."""
        query = EntityQuery(
            "Persons",
            and_(Comparison("Name", "=", None), Comparison("Id", ">", 3)),
        )
        shape, values = parameterize(query, frozenset())
        assert values == (3,)
        assert Comparison("Name", "=", None) in list(shape.condition.atoms())

    def test_pinned_attrs_stay_inline(self):
        """Constants compared against view-pinned attributes fold during
        specialisation by *value*, so they key the shape."""
        query = EntityQuery(
            "Persons",
            and_(Comparison("Kind", "=", "emp"), Comparison("Id", ">", 3)),
        )
        shape, values = parameterize(query, frozenset({"Kind"}))
        assert values == (3,)
        assert Comparison("Kind", "=", "emp") in list(shape.condition.atoms())

    def test_condition_free_query_has_no_params(self):
        shape, values = parameterize(EntityQuery("Persons"), frozenset())
        assert values == ()
        assert shape.condition is TRUE

    def test_bind_condition_restores_original(self):
        original = and_(
            Comparison("Id", ">", 7), Comparison("Name", "!=", "bob"),
            IsNull("Department"),
        )
        shape, values = parameterize(
            EntityQuery("Persons", original), frozenset()
        )
        assert bind_condition(shape.condition, values) is original


class TestPlanCacheCounters:
    def test_shape_sharing_hits(self):
        model = _stage4_model()
        cache = PlanCache()
        for value in (1, 2, 3):
            plan, values = cache.plan_for(
                model, EntityQuery("Persons", Comparison("Id", ">", value))
            )
            assert values == (value,)
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.entries) == (1, 2, 1)

    def test_distinct_shapes_get_distinct_plans(self):
        model = _stage4_model()
        cache = PlanCache()
        cache.plan_for(model, EntityQuery("Persons", Comparison("Id", ">", 1)))
        cache.plan_for(model, EntityQuery("Persons", Comparison("Id", "=", 1)))
        cache.plan_for(model, EntityQuery("Persons", Comparison("Id", ">", 1), ("Id",)))
        assert cache.stats().entries == 3
        assert cache.stats().misses == 3

    def test_lru_eviction_bounds_entries(self):
        model = _stage4_model()
        cache = PlanCache(max_plans=2)
        shapes = [
            EntityQuery("Persons", Comparison("Id", ">", 0)),
            EntityQuery("Persons", Comparison("Id", "=", 0)),
            EntityQuery("Persons", Comparison("Name", "=", "x")),
        ]
        for query in shapes:
            cache.plan_for(model, query)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.evictions == 1
        # the oldest shape was evicted: asking again misses
        cache.plan_for(model, shapes[0])
        assert cache.stats().misses == 4

    def test_lru_keeps_recently_used(self):
        model = _stage4_model()
        cache = PlanCache(max_plans=2)
        first = EntityQuery("Persons", Comparison("Id", ">", 0))
        second = EntityQuery("Persons", Comparison("Id", "=", 0))
        cache.plan_for(model, first)
        cache.plan_for(model, second)
        cache.plan_for(model, first)  # refresh first
        cache.plan_for(model, EntityQuery("Persons", Comparison("Name", "=", "x")))
        hits_before = cache.stats().hits
        cache.plan_for(model, first)  # must still be cached
        assert cache.stats().hits == hits_before + 1


class TestDeltaScopedInvalidation:
    def test_touched_set_evicted_untouched_survives(self):
        model = _two_set_model()
        session = OrmSession.create(model, backend="memory")
        _populate_two_sets(session)
        left = EntityQuery("Lefts", Comparison("Id", ">", 0))
        right = EntityQuery("Rights", Comparison("Id", ">", 0))
        session.query(left)
        session.query(right)
        assert session.plan_cache.stats().entries == 2

        session.evolve(
            AddProperty(
                "Left", Attribute("Extra", STRING, nullable=True), "TL", "Extra"
            )
        )
        stats = session.plan_cache.stats()
        assert stats.invalidated == 1
        assert stats.entries == 1

        # the untouched set's plan still hits; the touched one rebuilds
        session.query(right)
        assert session.plan_cache.stats().hits == stats.hits + 1
        session.query(left)
        assert session.plan_cache.stats().misses == stats.misses + 1

    def test_rebuilt_plan_sees_new_property(self):
        model = _two_set_model()
        session = OrmSession.create(model, backend="memory")
        _populate_two_sets(session, size=3)
        query = EntityQuery("Lefts")
        session.query(query)
        session.evolve(
            AddProperty(
                "Left", Attribute("Extra", STRING, nullable=True), "TL", "Extra"
            )
        )
        rows = session.query(query)
        assert all("Extra" in repr(row) for row in rows)

    def test_undo_invalidates_as_well(self):
        model = _two_set_model()
        session = OrmSession.create(model, backend="memory")
        _populate_two_sets(session, size=3)
        query = EntityQuery("Lefts")
        session.evolve(
            AddProperty(
                "Left", Attribute("Extra", STRING, nullable=True), "TL", "Extra"
            )
        )
        with_extra = session.query(query)
        assert all("Extra" in repr(row) for row in with_extra)
        session.undo()
        rows = session.query(query)
        assert not any("Extra" in repr(row) for row in rows)

    def test_clear_resets_everything(self):
        model = _stage4_model()
        cache = PlanCache()
        cache.plan_for(model, EntityQuery("Persons", Comparison("Id", ">", 1)))
        cache.clear()
        assert len(cache) == 0
        cache.plan_for(model, EntityQuery("Persons", Comparison("Id", ">", 2)))
        assert cache.stats().misses == 2


    def test_store_state_assignment_keeps_counters_growing(self):
        """A wholesale reset drops every plan but carries the counters,
        so two stats snapshots never diff negative."""
        session = OrmSession.create(_stage4_model(), backend="memory")
        query = EntityQuery("Persons", Comparison("Id", ">", 1))
        for _ in range(3):
            session.query(query)
        before = session.plan_cache.stats()
        assert before.entries == 1
        session.store_state = session.store_state
        after = session.plan_cache.stats()
        assert after.entries == 0
        assert after.hits >= before.hits and after.misses >= before.misses
        assert after.invalidated == before.invalidated + 1


class TestSessionServing:
    @pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
    def test_explain_warms_the_cache(self, backend_name):
        model = _stage4_model()
        session = OrmSession.create(model, backend=backend_name)
        try:
            query = EntityQuery("Persons", Comparison("Id", ">", 1))
            session.explain(query)
            assert session.plan_cache.stats().entries == 1
            session.query(query)
            assert session.plan_cache.stats().hits >= 1
        finally:
            session.backend.close()

    def test_explain_sql_binds_parameters(self):
        model = _stage4_model()
        session = OrmSession.create(model, backend="sqlite")
        try:
            branches = session.explain_sql(
                EntityQuery("Persons", Comparison("Id", ">", 42))
            )
            assert branches
            for _concrete_type, text, params in branches:
                assert "SELECT" in text
                assert 42 in params
        finally:
            session.backend.close()

    def test_serving_stats_reports_both_caches_on_sqlite(self):
        model = _stage4_model()
        session = OrmSession.create(model, backend="sqlite")
        try:
            session.query(EntityQuery("Persons"))
            session.query(EntityQuery("Persons"))
            text = str(session.serving_stats())
            assert "plan cache" in text
            assert "statement cache" in text
        finally:
            session.backend.close()
