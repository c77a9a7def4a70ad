"""Hot-path query serving: cold vs warm plan-cache throughput.

The plan cache (:mod:`repro.query.plancache`) splits every entity query
into a constant-free *shape* plus a bound-parameter vector, and caches
the unfolded branch set (and, on SQLite, the generated parameterized SQL
+ prepared statement) per shape.  This benchmark measures what that buys
on the serving path, and that invalidation really is delta-scoped:

* **cold vs warm**: a workload of a few query shapes, each issued with
  many distinct constant bindings, against the Figure 1 model, measured
  three ways.  *Uncached* is the pre-cache serving path (direct
  :func:`unfold` + ``run_on``, statements re-prepared every time).
  *Cold* is this cache's miss path: the plan cache and SQLite's prepared
  statements are cleared before every request, so each pays shape
  extraction, keying, unfolding, SQL generation and statement
  preparation.  The memory backend's key indexes belong to its store,
  as SQLite's indexes belong to the database, so cold requests keep
  them.  *Warm* is the steady-state hit
  path: parameter binding + execution only.  All three must produce
  identical answers; the report records QPS for each and the
  warm-over-cold speedup at a translation-bound store size (where the
  fast path is the story) and an execution-bound size (where engine
  work dominates and the speedup honestly decays).

* **interleaved query/evolve**: two entity sets mapped to disjoint
  tables.  After warming plans for both, an ``AddProperty`` SMO evolves
  one of them.  The hit/miss counters must show the untouched set's plan
  *still hitting* after the evolution (delta-scoped invalidation) while
  the touched set's plan is rebuilt exactly once.

``python benchmarks/bench_query_serving.py`` writes
``BENCH_query_serving.json``; the pytest entries keep fast CI smoke
points (answer equivalence + invalidation scoping, no timing asserts).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.algebra.conditions import TRUE, Comparison, IsOf, and_
from repro.backend import create_backend
from repro.compiler import compile_mapping, optimize_views
from repro.edm import INT, STRING, Attribute, ClientSchemaBuilder, Entity
from repro.edm.instances import ClientState
from repro.incremental import AddProperty, CompiledModel
from repro.mapping import Mapping, MappingFragment
from repro.mapping.roundtrip import apply_update_views
from repro.query import EntityQuery
from repro.query.unfold import unfold
from repro.relational import Column, StoreSchema, Table
from repro.session import OrmSession
from repro.workloads.paper_example import mapping_stage4

SMOKE_SIZE = 60
#: stores to serve against: small enough that translation dominates, and
#: large enough (~10^5 store rows) that execution does — the speedup
#: story differs.  Each point fixes its own binding count: at the
#: execution-bound size a handful of bindings already takes seconds per
#: pipeline variant.
SERVING_POINTS = {
    "translation_bound": {"persons": 16, "bindings": 40},
    "execution_bound": {"persons": 75_000, "bindings": 5},
}
if os.environ.get("REPRO_FULL"):
    SERVING_POINTS["translation_bound"]["bindings"] = 200
    SERVING_POINTS["execution_bound"] = {"persons": 750_000, "bindings": 5}

BACKENDS = ("memory", "sqlite")


# ---------------------------------------------------------------------------
# Phase 1: cold vs warm serving over the Figure 1 model
# ---------------------------------------------------------------------------

def _figure1_model() -> CompiledModel:
    """The Figure 1 model with Section-6-optimized query views.

    Serving measurements use the production view shape: the optimizer's
    FOJ -> LOJ/UNION ALL rewrite is what lets SQLite drive the joins
    through primary-key indexes (the raw FULL OUTER JOIN form forces an
    O(rows^2) nested-loop scan at execution-bound sizes)."""
    mapping = mapping_stage4()
    views = compile_mapping(mapping).views
    return CompiledModel(mapping, optimize_views(mapping, views))


def _figure1_state(model: CompiledModel, size: int) -> ClientState:
    state = ClientState(model.client_schema)
    employees = []
    for i in range(size):
        kind = i % 3
        if kind == 0:
            entity = Entity.of("Person", Id=i, Name=f"p{i}")
        elif kind == 1:
            entity = Entity.of(
                "Employee", Id=i, Name=f"e{i}", Department=f"d{i % 7}"
            )
            employees.append(i)
        else:
            entity = Entity.of(
                "Customer",
                Id=i,
                Name=f"c{i}",
                CredScore=300 + (i * 37) % 550,
                BillAddr=f"addr {i}",
            )
        state.add_entity("Persons", entity)
        if kind == 2 and employees:
            state.add_association(
                "Supports", (i,), (employees[i % len(employees)],)
            )
    return state


def _figure1_store(model: CompiledModel, size: int):
    """The store state for *size* persons, built once and shared across
    backends (building a 10^5-row store dwarfs serving it)."""
    client = _figure1_state(model, size)
    return apply_update_views(model.views, client, model.store_schema)


def _figure1_session(
    model: CompiledModel, backend_name: str, size: int, store=None
) -> OrmSession:
    if store is None:
        store = _figure1_store(model, size)
    backend = create_backend(backend_name, model.store_schema, store_state=store)
    return OrmSession(model, backend=backend)


#: three shapes, each a factory from one binding value — the workload
#: reissues every shape with BINDINGS distinct constants.
SHAPES = {
    "by_id": lambda v: EntityQuery(
        "Persons", Comparison("Id", "=", v), ("Id", "Name")
    ),
    "by_name": lambda v: EntityQuery(
        "Persons", Comparison("Name", "=", f"c{v}"), ("Id", "Name")
    ),
    "customer_screen": lambda v: EntityQuery(
        "Persons",
        and_(
            IsOf("Customer"),
            Comparison("CredScore", ">=", 300 + v),
            Comparison("Id", ">", v),
            Comparison("BillAddr", "!=", f"addr {v}"),
        ),
        ("Id", "Name", "CredScore"),
    ),
}


def _drop_statements(session: OrmSession) -> None:
    """Clear SQLite's prepared statements, the one backend-side serving
    cache (the memory backend keeps none)."""
    statements = getattr(session.backend, "_statements", None)
    if statements is not None:
        statements.clear()


def _serve(session: OrmSession, bindings: int, mode: str):
    """(elapsed seconds, query count, answer digest) for one run.

    ``mode`` is ``uncached`` (the pre-cache pipeline: direct unfold +
    run_on, statements re-prepared), ``cold`` (plans and statements
    cleared before each request: the miss path), or ``warm`` (the hit
    path)."""
    model = session.model
    digest = []
    started = time.perf_counter()
    for value in range(bindings):
        for factory in SHAPES.values():
            query = factory(value)
            if mode == "uncached":
                _drop_statements(session)
                rows = unfold(
                    query, model.views, model.client_schema
                ).run_on(session.backend)
            else:
                if mode == "cold":
                    session.plan_cache.clear()
                    _drop_statements(session)
                rows = session.query(query)
            digest.append(sorted(repr(e) for e in rows))
    elapsed = time.perf_counter() - started
    return elapsed, bindings * len(SHAPES), digest


def _measure_serving(
    model: CompiledModel, backend_name: str, size: int, bindings: int, store=None
) -> dict:
    session = _figure1_session(model, backend_name, size, store=store)
    index_stats = getattr(session.backend, "index_stats", None)
    builds_before = index_stats().builds if index_stats is not None else None
    try:
        store_rows = session.backend.row_count()
        base_s, count, base_digest = _serve(session, bindings, "uncached")
        cold_s, _, cold_digest = _serve(session, bindings, "cold")
        session.plan_cache.clear()
        _drop_statements(session)
        # warm-up pass builds plans and indexes; the statement counters
        # are diffed across the timed pass so it reports pure steady
        # state, not warm-up pollution
        _serve(session, bindings, "warm")
        statements = getattr(session.backend, "statement_cache_stats", None)
        warm_before = statements() if statements is not None else None
        warm_s, _, warm_digest = _serve(session, bindings, "warm")
        assert base_digest == cold_digest == warm_digest, (
            "cached plans changed the answers"
        )
        stats = session.plan_cache.stats()
        result = {
            "store_rows": store_rows,
            "queries": count,
            "uncached_s": round(base_s, 4),
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "uncached_qps": round(count / base_s, 1) if base_s else None,
            "cold_qps": round(count / cold_s, 1) if cold_s else None,
            "warm_qps": round(count / warm_s, 1) if warm_s else None,
            "warm_over_cold": round(cold_s / warm_s, 2) if warm_s else None,
            "warm_over_uncached": round(base_s / warm_s, 2) if warm_s else None,
            "plan_cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "entries": stats.entries,
            },
        }
        if statements is not None:
            st = statements()
            hits = st.hits - warm_before.hits
            misses = st.misses - warm_before.misses
            dml_hits = st.dml_hits - warm_before.dml_hits
            dml_misses = st.dml_misses - warm_before.dml_misses
            result["statement_cache"] = {  # the timed warm pass only
                "hits": hits,
                "misses": misses,
                "entries": st.entries,
                "select": {"hits": hits - dml_hits, "misses": misses - dml_misses},
                "dml": {"hits": dml_hits, "misses": dml_misses},
            }
        if index_stats is not None:
            # key indexes built on the store during the whole run
            result["key_indexes"] = {
                "builds": index_stats().builds - builds_before
            }
        return result
    finally:
        session.backend.close()


# ---------------------------------------------------------------------------
# Phase 2: interleaved query/evolve over two disjoint entity sets
# ---------------------------------------------------------------------------

def _disjoint_mapping() -> Mapping:
    """Two singleton entity sets mapped to disjoint tables — evolving one
    must leave the other's cached plans untouched."""
    schema = (
        ClientSchemaBuilder()
        .entity("Left", key=[("Id", INT)], attrs=[("Val", STRING)])
        .entity_set("Lefts", "Left")
        .entity("Right", key=[("Id", INT)], attrs=[("Val", STRING)])
        .entity_set("Rights", "Right")
        .build()
    )
    tables = [
        Table(
            "TL",
            (Column("Id", INT, False), Column("Val", STRING, True)),
            ("Id",),
        ),
        Table(
            "TR",
            (Column("Id", INT, False), Column("Val", STRING, True)),
            ("Id",),
        ),
    ]
    fragments = [
        MappingFragment(
            client_source="Lefts",
            is_association=False,
            client_condition=TRUE,
            store_table="TL",
            store_condition=TRUE,
            attribute_map=(("Id", "Id"), ("Val", "Val")),
        ),
        MappingFragment(
            client_source="Rights",
            is_association=False,
            client_condition=TRUE,
            store_table="TR",
            store_condition=TRUE,
            attribute_map=(("Id", "Id"), ("Val", "Val")),
        ),
    ]
    return Mapping(schema, StoreSchema(tables), fragments)


def _measure_interleaved(backend_name: str, size: int = 50) -> dict:
    mapping = _disjoint_mapping()
    model = CompiledModel(mapping, compile_mapping(mapping).views)
    session = OrmSession.create(model, backend=backend_name)
    try:
        with session.edit() as state:
            for i in range(size):
                state.add_entity("Lefts", Entity.of("Left", Id=i, Val=f"l{i}"))
                state.add_entity("Rights", Entity.of("Right", Id=i, Val=f"r{i}"))

        left = lambda v: EntityQuery("Lefts", Comparison("Id", ">", v))  # noqa: E731
        right = lambda v: EntityQuery("Rights", Comparison("Id", ">", v))  # noqa: E731
        # warm one plan per set, then serve a few bindings from cache
        for v in range(4):
            session.query(left(v))
            session.query(right(v))
        before = session.plan_cache.stats()

        session.evolve(
            AddProperty(
                "Left", Attribute("Extra", STRING, nullable=True), "TL", "Extra"
            )
        )
        after_smo = session.plan_cache.stats()

        right_rows = session.query(right(0))
        after_right = session.plan_cache.stats()
        left_rows = session.query(left(0))
        after_left = session.plan_cache.stats()

        untouched_hit = (
            after_right.hits == after_smo.hits + 1
            and after_right.misses == after_smo.misses
        )
        touched_rebuilt = after_left.misses == after_right.misses + 1
        assert len(right_rows) == size - 1 and len(left_rows) == size - 1
        return {
            "backend": backend_name,
            "warm_hits_before_smo": before.hits,
            "invalidations": after_smo.invalidated,
            "entries_after_smo": after_smo.entries,
            "untouched_set_hit_after_smo": untouched_hit,
            "touched_set_rebuilt_after_smo": touched_rebuilt,
        }
    finally:
        session.backend.close()


# ---------------------------------------------------------------------------
# pytest smoke entries (CI)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend_name", BACKENDS)
def test_serving_bench_smoke(benchmark, backend_name):
    model = _figure1_model()
    benchmark.pedantic(
        lambda: _measure_serving(model, backend_name, SMOKE_SIZE, bindings=5),
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_cached_plans_answer_identically(backend_name):
    """Warm answers byte-identical to cold on a small workload, with the
    plan cache actually hitting."""
    model = _figure1_model()
    result = _measure_serving(model, backend_name, SMOKE_SIZE, bindings=5)
    assert result["plan_cache"]["hits"] > 0
    assert result["plan_cache"]["entries"] == len(SHAPES)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_untouched_set_survives_evolution(backend_name):
    result = _measure_interleaved(backend_name)
    assert result["untouched_set_hit_after_smo"]
    assert result["touched_set_rebuilt_after_smo"]
    assert result["invalidations"] >= 1


# ---------------------------------------------------------------------------
# JSON driver
# ---------------------------------------------------------------------------

def main() -> None:
    model = _figure1_model()
    serving = {}
    for label, config in SERVING_POINTS.items():
        size, bindings = config["persons"], config["bindings"]
        store = _figure1_store(model, size)
        point = {
            "persons": size,
            "bindings_per_shape": bindings,
            "store_rows": store.row_count(),
        }
        for backend_name in BACKENDS:
            point[backend_name] = _measure_serving(
                model, backend_name, size, bindings, store=store
            )
        serving[label] = point
    result = {
        "claim": "parameterized plan cache + compiled physical plans "
        "(memory) / prepared statements (sqlite): warm (hit-path) "
        "repeated-shape serving vs cold (miss-path) and vs the uncached "
        "pipeline, identical answers; delta-scoped invalidation keeps "
        "untouched sets hot",
        "serving": {
            "shapes": len(SHAPES),
            **serving,
        },
        "interleaved": [
            _measure_interleaved(backend_name) for backend_name in BACKENDS
        ],
    }
    out = os.path.join(
        os.path.dirname(__file__), "..", "BENCH_query_serving.json"
    )
    with open(os.path.abspath(out), "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
