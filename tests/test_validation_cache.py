"""Unit tests: structural fingerprints and the fingerprint-keyed
validation cache (correctness, invalidation, staleness regressions)."""

import pytest

from repro.algebra import Col, Comparison, IsOf, ProjItem, Project, Select, SetScan
from repro.compiler import generate_views, validate_mapping
from repro.containment import (
    ValidationCache,
    check_containment,
    client_slice_tokens,
    fingerprint,
)
from repro.edm import ClientSchemaBuilder, INT, enum_domain
from repro.errors import ValidationError
from repro.mapping import Mapping, MappingFragment
from repro.relational import Column, StoreSchema, Table
from repro.workloads.hub_rim import hub_rim_mapping


def _schema(age_domain):
    return (
        ClientSchemaBuilder()
        .entity("P", key=[("Id", INT)], attrs=[("Age", age_domain)])
        .entity_set("Ps", "P")
        .build()
    )


class TestFingerprint:
    def test_stable_across_fresh_objects(self):
        """Structurally equal inputs built twice fingerprint identically."""
        def build():
            return (
                Project(
                    Select(SetScan("Ps"), Comparison("Age", ">=", 18)),
                    (ProjItem("Id", Col("Id")),),
                ),
                client_slice_tokens(_schema(INT), sets=["Ps"]),
            )

        q_a, slice_a = build()
        q_b, slice_b = build()
        assert q_a is not q_b
        assert fingerprint(q_a, slice_a) == fingerprint(q_b, slice_b)

    def test_condition_mutation_changes_fingerprint(self):
        q18 = Select(SetScan("Ps"), Comparison("Age", ">=", 18))
        q21 = Select(SetScan("Ps"), Comparison("Age", ">=", 21))
        assert fingerprint(q18) != fingerprint(q21)

    def test_schema_slice_sees_domain_change(self):
        """The neighborhood tokens cover attribute domains, so a domain
        mutation (which can flip containment verdicts) changes the key."""
        one = client_slice_tokens(_schema(enum_domain(1, base="int")), sets=["Ps"])
        two = client_slice_tokens(_schema(enum_domain(1, 2, base="int")), sets=["Ps"])
        assert fingerprint(one) != fingerprint(two)

    def test_slice_covers_associations_constraining_a_set(self):
        """Associations touching a scanned set constrain canonical-state
        legality (multiplicity lower bounds), so they must key the cache
        even when no query scans them."""
        mapping = hub_rim_mapping(1, 2, "TPH")
        tokens = client_slice_tokens(mapping.client_schema, sets=["Hubs"])
        flat = repr(tokens)
        assert "assoc" in flat

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            fingerprint(object())


class TestCacheReuse:
    def test_second_validation_hits_and_is_faster(self):
        mapping = hub_rim_mapping(2, 2, "TPH")
        views = generate_views(mapping)
        cache = ValidationCache()
        cold = validate_mapping(mapping, views, cache=cache)
        warm = validate_mapping(mapping, views, cache=cache)
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        assert warm.cache_hits > 0 and warm.cache_misses == 0
        assert warm.elapsed < cold.elapsed
        # memoised counters must be the true ones, not zeros
        for field in (
            "coverage_checks",
            "store_cells",
            "containment_checks",
            "roundtrip_states",
        ):
            assert getattr(warm, field) == getattr(cold, field)

    def test_cached_counters_equal_uncached(self, stage4_mapping):
        views = generate_views(stage4_mapping)
        plain = validate_mapping(stage4_mapping, views)
        cached = validate_mapping(stage4_mapping, views, cache=ValidationCache())
        assert plain.coverage_checks == cached.coverage_checks
        assert plain.store_cells == cached.store_cells
        assert plain.containment_checks == cached.containment_checks
        assert plain.roundtrip_states == cached.roundtrip_states

    def test_parallel_counters_equal_serial(self):
        mapping = hub_rim_mapping(2, 2, "TPH")
        views = generate_views(mapping)
        serial = validate_mapping(mapping, views)
        parallel = validate_mapping(mapping, views, workers=2)
        assert parallel.workers == 2
        for field in (
            "coverage_checks",
            "store_cells",
            "containment_checks",
            "roundtrip_states",
        ):
            assert getattr(parallel, field) == getattr(serial, field)


class TestNoStaleServing:
    def test_containment_failure_not_masked_by_pre_mutation_entry(self):
        """Regression: a schema mutation that flips a containment verdict
        must never be answered from the pre-mutation cache entry.

        With ``Age`` drawn from the one-value domain {1}, every entity
        satisfies ``Age = 1`` and the containment holds; widening the
        domain to {1, 2} makes it fail.  The queries are bit-identical in
        both checks — only the schema slice differs."""
        lhs = Project(SetScan("Ps"), (ProjItem("Id", Col("Id")),))
        rhs = Project(
            Select(SetScan("Ps"), Comparison("Age", "=", 1)),
            (ProjItem("Id", Col("Id")),),
        )
        cache = ValidationCache()
        before = check_containment(lhs, rhs, _schema(enum_domain(1, base="int")), cache=cache)
        assert before.holds
        after = check_containment(lhs, rhs, _schema(enum_domain(1, 2, base="int")), cache=cache)
        assert not after.holds, "stale pre-mutation entry served after schema change"

    def test_failing_check_raises_again_on_warm_cache(self):
        """Raised validation failures are never cached, so a bad mapping
        keeps failing on every validation through the same cache."""
        schema = (
            ClientSchemaBuilder()
            .entity("P", key=[("Id", INT)])
            .entity_set("Ps", "P")
            .build()
        )
        store = StoreSchema(
            [
                Table(
                    "T",
                    (Column("Id", INT, False), Column("D", enum_domain("a"), False)),
                    ("Id",),
                )
            ]
        )
        mapping = Mapping(
            schema,
            store,
            [
                MappingFragment(
                    "Ps", False, IsOf("P"), "T",
                    Comparison("D", "=", "zz"),  # outside D's domain {a}
                    (("Id", "Id"),),
                )
            ],
        )
        views = generate_views(mapping)
        cache = ValidationCache()
        for _ in range(2):
            with pytest.raises(ValidationError):
                validate_mapping(mapping, views, cache=cache)

    def test_fragment_mutation_invalidates_check_memo(self, stage4_mapping):
        """An SMO-style fragment change forces the checks that read the
        fragment to recompute, while untouched subproblems still hit."""
        views = generate_views(stage4_mapping)
        cache = ValidationCache()
        validate_mapping(stage4_mapping, views, cache=cache)

        # Structurally different but semantically equivalent mutation of
        # the HR fragment: reorder its (attr, column) pairs.
        mutated = stage4_mapping.clone()
        fragments = []
        for fragment in mutated.fragments:
            if fragment.store_table == "HR" and not fragment.is_association:
                fragment = MappingFragment(
                    fragment.client_source,
                    fragment.is_association,
                    fragment.client_condition,
                    fragment.store_table,
                    fragment.store_condition,
                    tuple(reversed(fragment.attribute_map)),
                )
            fragments.append(fragment)
        mutated.replace_fragments(fragments)
        mutated_views = generate_views(mutated)
        report = validate_mapping(mutated, mutated_views, cache=cache)
        assert report.cache_misses > 0, "mutated neighborhood must recompute"
        assert report.cache_hits > 0, "untouched subproblems should still hit"


class TestSessionCache:
    def test_session_validate_shares_one_cache(self, stage4_mapping):
        from repro.compiler import compile_mapping
        from repro.incremental import CompiledModel
        from repro.session import OrmSession

        result = compile_mapping(stage4_mapping)
        session = OrmSession.create(CompiledModel(result.mapping, result.views))
        first = session.validate()
        second = session.validate()
        assert first.cache_misses > 0
        assert second.cache_hits > 0 and second.cache_misses == 0
        assert second.elapsed < first.elapsed
        assert session.validation_cache.stats().entries > 0


class TestLruBound:
    def test_eviction_over_max_entries(self):
        cache = ValidationCache(max_entries=2)
        for i in range(3):
            cache.get_or_compute("ns", f"k{i}", lambda i=i: i)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.evictions == 1
        # the oldest entry is gone: recomputed on next ask
        calls = []
        assert cache.get_or_compute("ns", "k0", lambda: calls.append(1) or 9) == 9
        assert calls

    def test_hit_refreshes_lru_order(self):
        cache = ValidationCache(max_entries=2)
        cache.get_or_compute("ns", "a", lambda: 1)
        cache.get_or_compute("ns", "b", lambda: 2)
        cache.get_or_compute("ns", "a", lambda: -1)  # hit refreshes "a"
        cache.get_or_compute("ns", "c", lambda: 3)   # evicts "b", not "a"
        calls = []
        assert cache.get_or_compute("ns", "a", lambda: calls.append(1) or -1) == 1
        assert not calls
        cache.get_or_compute("ns", "b", lambda: calls.append(1) or 2)
        assert calls

    def test_default_bound_is_generous(self):
        cache = ValidationCache()
        assert cache.max_entries == ValidationCache.DEFAULT_MAX_ENTRIES
        for i in range(100):
            cache.get_or_compute("ns", f"k{i}", lambda i=i: i)
        assert cache.stats().evictions == 0

    def test_stats_string_mentions_evictions(self):
        cache = ValidationCache(max_entries=1)
        cache.get_or_compute("ns", "a", lambda: 1)
        cache.get_or_compute("ns", "b", lambda: 2)
        assert "evictions=1" in str(cache.stats())
