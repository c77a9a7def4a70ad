"""Unit tests: the validation scheduler and thread-safe work budgets."""

import pickle
import threading

import pytest

from repro.algebra import IsOf, IsOfOnly, TRUE
from repro.budget import CompilationBudgetExceeded, WorkBudget
from repro.compiler import (
    ValidationScheduler,
    build_validation_checks,
    generate_views,
    validate_mapping,
)
from repro.budget import ensure_budget
from repro.compiler.scheduler import build_shards, shutdown_pools
from repro.compiler.validation import run_check
from repro.containment import ValidationCache
from repro.edm import ClientSchemaBuilder, INT, STRING
from repro.errors import ValidationError
from repro.mapping import Mapping, MappingFragment
from repro.relational import Column, ForeignKey, StoreSchema, Table
from repro.workloads.hub_rim import hub_rim_mapping

COUNTERS = ("coverage_checks", "store_cells", "containment_checks", "roundtrip_states")


@pytest.fixture(scope="module")
def hub22():
    mapping = hub_rim_mapping(2, 2, "TPH")
    return mapping, generate_views(mapping)


def two_fk_violations():
    """Two TPC subtypes stored in child tables whose foreign keys point at
    the parent's table, which never receives their keys: both FK checks
    fail, the one on ``SubE`` first in declaration order."""
    schema = (
        ClientSchemaBuilder()
        .entity("P", key=[("Id", INT)], attrs=[("N", STRING)])
        .entity("E", parent="P", attrs=[("D", STRING)])
        .entity("F", parent="P", attrs=[("G", STRING)])
        .entity_set("Ps", "P")
        .build()
    )

    def child(name, column):
        return Table(
            name,
            (Column("Id", INT, False), Column(column, STRING), Column("N", STRING)),
            ("Id",),
            (ForeignKey(("Id",), "Root", ("Id",)),),
        )

    store = StoreSchema(
        [
            Table("Root", (Column("Id", INT, False), Column("N", STRING)), ("Id",)),
            child("SubE", "D"),
            child("SubF", "G"),
        ]
    )
    fragments = [
        MappingFragment("Ps", False, IsOfOnly("P"), "Root", TRUE,
                        (("Id", "Id"), ("N", "N"))),
        MappingFragment("Ps", False, IsOf("E"), "SubE", TRUE,
                        (("Id", "Id"), ("D", "D"), ("N", "N"))),
        MappingFragment("Ps", False, IsOf("F"), "SubF", TRUE,
                        (("Id", "Id"), ("G", "G"), ("N", "N"))),
    ]
    mapping = Mapping(schema, store, fragments)
    return mapping, generate_views(mapping)


class TestThreadSafeBudget:
    def test_no_ticks_lost_under_contention(self):
        """N workers ticking concurrently must account every step."""
        budget = WorkBudget()
        workers, per_worker = 8, 10_000
        barrier = threading.Barrier(workers)

        def worker():
            barrier.wait()
            for _ in range(per_worker):
                budget.tick()

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert budget.steps == workers * per_worker

    def test_trip_without_losing_steps(self):
        """When the limit trips under concurrency, the recorded total is at
        least max_steps — no worker's steps vanished on the way."""
        max_steps = 5_000
        budget = WorkBudget(max_steps=max_steps)
        workers = 8
        barrier = threading.Barrier(workers)
        tripped = []

        def worker():
            barrier.wait()
            try:
                while True:
                    budget.tick()
            except CompilationBudgetExceeded:
                tripped.append(True)

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tripped, "budget never tripped"
        assert budget.steps >= max_steps

    def test_bulk_ticks_counted_exactly(self):
        budget = WorkBudget()
        budget.tick(7)
        budget.tick(5)
        assert budget.steps == 12


class TestScheduler:
    def test_serial_runs_in_declaration_order(self, hub22):
        mapping, views = hub22
        checks = build_validation_checks(mapping)
        results = ValidationScheduler(workers=1).run(checks, mapping, views)
        assert [r.name for r in results] == [c.name for c in checks]

    def test_dependencies_respected(self, hub22):
        """Every dependency is declared before its dependent (the serial
        order) and shares its process shard (the shard's order)."""
        mapping, _ = hub22
        checks = build_validation_checks(mapping)
        order = {c.name: i for i, c in enumerate(checks)}
        assert any(c.deps for c in checks)
        for check in checks:
            assert all(order[dep] < order[check.name] for dep in check.deps)
        for shard in build_shards(checks, workers=2):
            names = {c.name for c in shard}
            for check in shard:
                assert set(check.deps) <= names

    def test_first_error_in_declaration_order(self):
        """With several failing checks, the process pool raises the error
        of the earliest-declared one — the error a serial run raises."""
        mapping, views = two_fk_violations()
        failing = []
        for check in build_validation_checks(mapping):
            try:
                run_check(check.spec, mapping, views, {}, WorkBudget())
            except ValidationError:
                failing.append(check.name)
        assert len(failing) >= 2

        with pytest.raises(ValidationError) as serial:
            validate_mapping(mapping, views)
        with pytest.raises(ValidationError) as processed:
            validate_mapping(mapping, views, workers=2)
        assert "SubE" in str(serial.value)
        assert str(processed.value) == str(serial.value)
        assert processed.value.check == serial.value.check


class TestParallelValidation:
    def test_process_counters_equal_serial(self, hub22):
        mapping, views = hub22
        serial = validate_mapping(mapping, views)
        processed = validate_mapping(mapping, views, workers=2)
        for field in COUNTERS:
            assert getattr(processed, field) == getattr(serial, field)
        assert list(processed.check_timings) == list(serial.check_timings)
        assert processed.workers == 2 and "workers=2" in str(processed)
        assert "workers" not in str(serial)

    def test_thread_counters_equal_serial(self, hub22):
        """A pool wider than the check groups (more workers than the old
        thread executor's default) reports the serial counters and timing
        keys, in declaration order."""
        mapping, views = hub22
        serial = validate_mapping(mapping, views)
        pooled = validate_mapping(mapping, views, workers=4)
        for field in COUNTERS:
            assert getattr(pooled, field) == getattr(serial, field)
        assert list(pooled.check_timings) == list(serial.check_timings)
        assert pooled.workers == 4

    def test_budget_trips_under_parallel_validation(self, hub22):
        """With a cache attached, workers build their own memory cache
        from the payload's cache spec; the budget still trips."""
        mapping, views = hub22
        with pytest.raises(CompilationBudgetExceeded):
            validate_mapping(
                mapping,
                views,
                WorkBudget(max_steps=200),
                workers=2,
                cache=ValidationCache(),
            )

    def test_parallel_budget_accounts_all_steps(self, hub22):
        """A limited budget (enforced locally in each worker) still sees
        every step the workers took.  The limit is part of the payload, so
        the workers start from a fresh context even in a warm pool."""
        mapping, views = hub22
        serial_budget = WorkBudget(max_steps=10**9)
        validate_mapping(mapping, views, serial_budget)
        parallel_budget = WorkBudget(max_steps=10**9)
        validate_mapping(mapping, views, parallel_budget, workers=2)
        assert parallel_budget.steps == serial_budget.steps

    def test_build_validation_checks_shape(self, hub22):
        mapping, _ = hub22
        checks = build_validation_checks(mapping)
        kinds = [c.kind for c in checks]
        assert kinds == sorted(kinds, key=["coverage", "store-cells", "fk-preservation", "roundtrip"].index)
        pickle.dumps([c.spec for c in checks])  # process workers need this
        names = [c.name for c in checks]
        assert len(names) == len(set(names))


class TestShards:
    @pytest.fixture(scope="class")
    def hub22_checks(self, hub22):
        return build_validation_checks(hub22[0])

    def test_every_check_lands_in_exactly_one_shard(self, hub22_checks):
        shards = build_shards(hub22_checks, workers=2)
        flat = [check for shard in shards for check in shard]
        assert sorted(c.name for c in flat) == sorted(
            c.name for c in hub22_checks
        )
        assert all(shard for shard in shards)

    def test_store_cells_colocated_with_their_coverage_sets(self, hub22_checks):
        """A store-cells check shares a shard with the coverage checks of
        the sets it reads — their SetAnalysis is built once per run, so
        process step totals match serial."""
        shards = build_shards(hub22_checks, workers=2)
        for shard in shards:
            kinds = {c.kind for c in shard}
            if "store-cells" in kinds:
                covered = {
                    c.name.split(":", 1)[1]
                    for c in shard
                    if c.kind == "coverage"
                }
                for check in shard:
                    if check.kind == "store-cells":
                        for dep in check.deps:
                            if dep.startswith("coverage:"):
                                assert dep.split(":", 1)[1] in covered

    def test_wide_pool_gives_affinity_free_groups_own_shards(self, hub22_checks):
        """Automatic sizing aims at ~4 shards per worker, so a pool at
        least as wide as the check list puts every free check alone."""
        solo = [c for c in hub22_checks if c.kind == "fk-preservation"]
        shards = build_shards(solo, workers=len(solo))
        assert all(len(shard) == 1 for shard in shards)
        assert len(shards) == len(solo)

    def test_empty_input_yields_no_shards(self):
        assert build_shards([], workers=4) == []

    def test_declaration_order_preserved_within_shards(self, hub22_checks):
        shards = build_shards(hub22_checks, workers=2)
        order = {c.name: i for i, c in enumerate(hub22_checks)}
        for shard in shards:
            indices = [order[c.name] for c in shard]
            assert indices == sorted(indices)


class TestProcessExecutor:
    def test_process_budget_totals_match_serial(self, hub22):
        """Workers report per-check step counts; the parent replays them
        into the shared budget, so process totals equal serial exactly.
        (Fresh pool: a warm pool's memoized per-set analyses would let
        workers legitimately do — and report — less work.)"""
        shutdown_pools()
        mapping, views = hub22
        serial_budget = ensure_budget(WorkBudget())
        validate_mapping(mapping, views, serial_budget)
        process_budget = ensure_budget(WorkBudget())
        validate_mapping(mapping, views, process_budget, workers=2)
        assert process_budget.steps == serial_budget.steps

    def test_process_budget_trips(self, hub22):
        mapping, views = hub22
        with pytest.raises(CompilationBudgetExceeded):
            validate_mapping(mapping, views, WorkBudget(max_steps=200), workers=2)

    def test_warm_pool_reruns_same_verdict(self, hub22):
        """Every shard carries the payload; a warm worker reuses the
        context it built for that payload's digest and reaches the serial
        verdict again."""
        mapping, views = hub22
        serial = validate_mapping(mapping, views)
        for _ in range(2):
            report = validate_mapping(mapping, views, workers=2)
            for field in COUNTERS:
                assert getattr(report, field) == getattr(serial, field)
