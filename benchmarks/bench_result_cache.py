"""Materialized result tier: warm reads that survive writes.

The result cache (:mod:`repro.query.resultcache`) exists so that a hot
query set keeps paying O(1) per read *between* writes and O(|delta|)
per write, instead of re-executing the reconstruction view every time.
This benchmark drives the interleaved workload the tier is built for: a
fixed set of hot entity queries served over and over while
``save_delta`` rounds mutate the store underneath.  One session runs
with the tier on, a twin session runs with ``result_cache_budget=0``
(every read re-executes), and the benchmark *verifies as it measures*:
after every write round the two sessions' answers are compared
row-for-row, so a stale read is a hard failure, not a footnote.

Interleaved with the hot reads, every round also issues one-shot reads:
``Id = k`` lookups whose keys never repeat.  The tier admits an answer
only on its second miss, so these must cost what re-execution costs and
leave no entry behind for later writes to maintain.  The first one-shot
read of each table after a write is also reported on its own
(``first_read_ms``): it is the read that would pay for any index the
write left behind, and the median over all one-shot reads hides it.

Each size also reports ``upkeep_ms_per_delta``: the median time the
tier-on session spends inside
:meth:`~repro.query.resultcache.ResultCache.successor_for_delta` per
write, timed by wrapping that method (as the end-to-end tracer in
``benchmarks/e2e/e2e_trace.py`` does).  The ``admitted_points`` block
times the same upkeep at 10^4 rows with 100 and with 1,000 admitted
``Id = k`` entries under the same update batch: a write must pay for the
entries its rows reach, not for every entry the tier holds.

``python benchmarks/bench_result_cache.py`` writes
``BENCH_result_cache.json`` for both backends;
``scripts/check_serving_regression.py`` gates on a >= 3x maintained-read
speedup at the 10^5-row tier, on one-shot reads costing at most 1.5x
their re-execution and leaving no entry, on the first read after a
write and on the per-write upkeep each growing at most 2x from 10^4 to
10^5 rows on every backend, on the upkeep growing at most 2x from 100
to 1,000 admitted entries, and on zero stale reads in CI.
The pytest entries run a 10^4-row smoke version (equivalence
assertions, no timing asserts).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import List

import pytest

from repro.algebra.conditions import Comparison
from repro.backend import create_backend
from repro.compiler import compile_mapping
from repro.edm import Entity
from repro.incremental import CompiledModel
from repro.ivm import DeltaScript, EntityOp
from repro.query.language import EntityQuery
from repro.query.resultcache import ResultCache
from repro.session import OrmSession
from repro.workloads.chain import chain_mapping, entity_name, set_name

BACKENDS = ("memory", "sqlite")
CHAIN_TYPES = 4

SIZES = (10_000, 100_000)
if os.environ.get("REPRO_FULL"):
    SIZES = (10_000, 100_000, 1_000_000)

ROUNDS = 5
OPS_PER_SAVE = 16
QUERIES_PER_ROUND = 40
#: distinct-key reads per round, spread evenly over the entity sets
ONE_SHOT_PER_ROUND = 32
#: cells of result-cache budget per store row — sized so the whole hot
#: query set stays resident at every tier (the benchmark measures
#: maintenance, not eviction churn; eviction has its own tests)
BUDGET_CELLS_PER_ROW = 40
SMOKE = {"size": 10_000, "rounds": 2, "queries_per_round": 8, "one_shot_per_round": 8}
#: the admitted-entries curve: rows, and the Id = k entries admitted
ADMITTED_ROWS = 10_000
ADMITTED_ENTRIES = (100, 1_000)


def _model() -> CompiledModel:
    mapping = chain_mapping(CHAIN_TYPES)
    return CompiledModel(mapping, compile_mapping(mapping, validate=False).views)


def _entity(index: int, row: int, tag: str) -> Entity:
    return Entity.of(
        entity_name(index),
        Id=row,
        EntityAtt2=f"a{tag}",
        EntityAtt3=f"b{row}",
        EntityAtt4=f"c{row % 97}",
    )


def _session(model: CompiledModel, backend_name: str, rows: int, budget: int) -> OrmSession:
    backend = create_backend(backend_name, model.store_schema)
    session = OrmSession(model, backend=backend, result_cache_budget=budget)
    per_set = rows // CHAIN_TYPES
    with session.edit() as state:
        for index in range(1, CHAIN_TYPES + 1):
            for row in range(per_set):
                state.add_entity(set_name(index), _entity(index, row, str(row % 5)))
    return session


def _hot_queries():
    """The fixed hot set: one whole-set scan and one selective filter
    per entity set — the shapes the chain workload keeps warm."""
    queries = []
    for index in range(1, CHAIN_TYPES + 1):
        queries.append(EntityQuery(set_name(index)))
        queries.append(
            EntityQuery(set_name(index), Comparison("EntityAtt4", "=", "c7"))
        )
    return queries


def _one_shot_queries(per_set: int, round_no: int, count: int):
    """*count* ``Id = k`` reads whose keys no other round repeats; the
    first :data:`CHAIN_TYPES` read one table each."""
    return [
        EntityQuery(
            set_name(read % CHAIN_TYPES + 1),
            Comparison("Id", "=", (round_no * count + read) % per_set),
        )
        for read in range(count)
    ]


def _timed_read(session: OrmSession, query: EntityQuery):
    """(seconds, rows) of one read."""
    started = time.perf_counter()
    rows = session.query(query)
    return time.perf_counter() - started, rows


def _update_batch(per_set: int, round_no: int, ops: int):
    batch = []
    for op in range(ops):
        index = (op % CHAIN_TYPES) + 1
        row = (round_no * 7919 + op * 104729) % per_set
        batch.append((index, _entity(index, row, f"r{round_no}.{op}")))
    return batch


def _canon(rows):
    return sorted(repr(r) for r in rows)


@contextmanager
def _timed_upkeep(samples: List[float]):
    """Record the milliseconds of every
    :meth:`ResultCache.successor_for_delta` call made inside the block,
    by wrapping the method."""
    original = ResultCache.__dict__["successor_for_delta"]

    @functools.wraps(original)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append((time.perf_counter() - started) * 1000.0)

    ResultCache.successor_for_delta = timed
    try:
        yield
    finally:
        ResultCache.successor_for_delta = original


def _update_script(per_set: int, round_no: int) -> DeltaScript:
    return DeltaScript(
        tuple(
            EntityOp("update", set_name(index), entity=entity)
            for index, entity in _update_batch(per_set, round_no, OPS_PER_SAVE)
        )
    )


def _measure(
    backend_name: str,
    rows: int,
    rounds: int = ROUNDS,
    queries_per_round: int = QUERIES_PER_ROUND,
    one_shot_per_round: int = ONE_SHOT_PER_ROUND,
) -> dict:
    model = _model()
    budget = BUDGET_CELLS_PER_ROW * rows
    cached = _session(model, backend_name, rows, budget)
    baseline = _session(model, backend_name, rows, 0)
    per_set = rows // CHAIN_TYPES
    queries = _hot_queries()
    try:
        # warm the tier: an answer is admitted on its second miss, so
        # every hot shape is read twice
        for _ in range(2):
            for query in queries:
                cached.query(query)
                baseline.query(query)

        maintain_ms, baseline_save_ms, upkeep_ms = [], [], []
        one_shot_s, one_shot_baseline_s = [], []
        first_read_s, first_read_baseline_s = [], []
        one_shot = []
        cached_read_s = baseline_read_s = 0.0
        reads = 0
        stale_reads = 0
        for round_no in range(rounds):
            script = _update_script(per_set, round_no)

            started = time.perf_counter()
            with _timed_upkeep(upkeep_ms):
                cached.save_delta(script)
            maintain_ms.append((time.perf_counter() - started) * 1000.0)

            started = time.perf_counter()
            baseline.save_delta(script)
            baseline_save_ms.append((time.perf_counter() - started) * 1000.0)

            started = time.perf_counter()
            for read in range(queries_per_round):
                cached.query(queries[read % len(queries)])
            cached_read_s += time.perf_counter() - started

            started = time.perf_counter()
            for read in range(queries_per_round):
                baseline.query(queries[read % len(queries)])
            baseline_read_s += time.perf_counter() - started
            reads += queries_per_round

            # one-shot reads: distinct keys, each read exactly once; the
            # twins read each key back to back, so drift hits both alike
            lookups = _one_shot_queries(per_set, round_no, one_shot_per_round)
            one_shot.extend(lookups)
            for read, query in enumerate(lookups):
                # the hot reads above probe no Id index, so the first
                # CHAIN_TYPES lookups are each table's first since the write
                first = read < CHAIN_TYPES
                seconds, got = _timed_read(cached, query)
                one_shot_s.append(seconds)
                if first:
                    first_read_s.append(seconds)
                seconds, expected = _timed_read(baseline, query)
                one_shot_baseline_s.append(seconds)
                if first:
                    first_read_baseline_s.append(seconds)
                stale_reads += _canon(got) != _canon(expected)

            # verify as we measure: every hot answer must match the
            # re-executing twin exactly after every write round
            for query in queries:
                if _canon(cached.query(query)) != _canon(baseline.query(query)):
                    stale_reads += 1

        stats = cached.serving_stats().results
        epoch = cached.epoch
        one_shot_entries = 0
        for query in one_shot:
            _plan, values, key = epoch.plan_cache.plan_with_key(epoch.model, query)
            one_shot_entries += epoch.results.has(key, values)
        one_shot_ms = statistics.median(one_shot_s) * 1000.0
        one_shot_baseline_ms = statistics.median(one_shot_baseline_s) * 1000.0
        maintained_qps = reads / cached_read_s if cached_read_s else None
        reexec_qps = reads / baseline_read_s if baseline_read_s else None
        return {
            "rows": rows,
            "ops_per_save": OPS_PER_SAVE,
            "queries_per_round": queries_per_round,
            "rounds": rounds,
            "maintained_read_qps": round(maintained_qps, 1) if maintained_qps else None,
            "reexec_read_qps": round(reexec_qps, 1) if reexec_qps else None,
            "read_speedup": (
                round(maintained_qps / reexec_qps, 2)
                if maintained_qps and reexec_qps
                else None
            ),
            "maintain_ms_per_delta": round(statistics.median(maintain_ms), 3),
            "upkeep_ms_per_delta": round(statistics.median(upkeep_ms), 3),
            "baseline_save_ms_per_delta": round(
                statistics.median(baseline_save_ms), 3
            ),
            "maintenance_overhead_ms": round(
                statistics.median(maintain_ms)
                - statistics.median(baseline_save_ms),
                3,
            ),
            "one_shot": {
                "reads": len(one_shot),
                "read_ms": round(one_shot_ms, 4),
                "reexec_read_ms": round(one_shot_baseline_ms, 4),
                "cost_ratio": round(one_shot_ms / one_shot_baseline_ms, 3),
                "first_read_ms": round(statistics.median(first_read_s) * 1000.0, 4),
                "reexec_first_read_ms": round(
                    statistics.median(first_read_baseline_s) * 1000.0, 4
                ),
                "entries_left": one_shot_entries,
            },
            "stale_reads": stale_reads,
            "result_cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "maintained": stats.maintained,
                "visited": stats.visited,
                "invalidated": stats.invalidated,
                "fallbacks": stats.fallbacks,
                "evictions": stats.evictions,
                "validation_failures": stats.validation_failures,
                "entries": stats.entries,
                "cost": stats.cost,
                "budget": stats.bound,
            },
        }
    finally:
        cached.backend.close()
        baseline.backend.close()


def _admitted_points(backend_name: str, entries: int, rounds: int = ROUNDS) -> dict:
    """Per-write upkeep with *entries* admitted ``Id = k`` answers at
    :data:`ADMITTED_ROWS` rows, spread over the entity sets, under the
    update batch."""
    rows = ADMITTED_ROWS
    session = _session(_model(), backend_name, rows, BUDGET_CELLS_PER_ROW * rows)
    per_set = rows // CHAIN_TYPES
    try:
        points = [
            EntityQuery(
                set_name(read % CHAIN_TYPES + 1),
                Comparison("Id", "=", read // CHAIN_TYPES % per_set),
            )
            for read in range(entries)
        ]
        for _ in range(2):  # admitted on the second miss
            for query in points:
                session.query(query)
        upkeep_ms: List[float] = []
        for round_no in range(rounds):
            with _timed_upkeep(upkeep_ms):
                session.save_delta(_update_script(per_set, round_no))
        stats = session.serving_stats().results
        return {
            "entries": stats.entries,
            "upkeep_ms_per_delta": round(statistics.median(upkeep_ms), 3),
            "visited": stats.visited,
            "maintained": stats.maintained,
            "fallbacks": stats.fallbacks,
        }
    finally:
        session.backend.close()


# ---------------------------------------------------------------------------
# pytest smoke entries (CI)
# ---------------------------------------------------------------------------

def _smoke_sizes() -> dict:
    return {key: value for key, value in SMOKE.items() if key != "size"}


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_result_cache_smoke(benchmark, backend_name):
    benchmark.pedantic(
        lambda: _measure(backend_name, SMOKE["size"], **_smoke_sizes()),
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_maintained_reads_are_exact(backend_name):
    result = _measure(backend_name, SMOKE["size"], **_smoke_sizes())
    assert result["stale_reads"] == 0
    # one-shot reads are never admitted, so nothing is left to maintain
    assert result["one_shot"]["entries_left"] == 0
    stats = result["result_cache"]
    assert stats["validation_failures"] == 0
    # chain shapes are all maintainable: deltas patch entries in place
    assert stats["maintained"] > 0
    assert stats["fallbacks"] == 0
    # warm reads actually come out of the tier
    assert stats["hits"] > 0


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_admitted_points_are_routed(backend_name):
    """100 admitted Id = k entries: a 16-update write visits only the
    entries whose key it updates, never all of them."""
    result = _admitted_points(backend_name, 100, rounds=2)
    assert result["entries"] == 100
    assert result["visited"] <= 2 * OPS_PER_SAVE
    assert result["fallbacks"] == 0


# ---------------------------------------------------------------------------
# JSON driver
# ---------------------------------------------------------------------------

def main() -> None:
    result = {
        "claim": "the materialized result tier serves a hot query set "
        "from maintained entries at >= 3x the re-execution read rate at "
        "the 10^5-row tier while save_delta rounds mutate the store, "
        "with zero stale reads and O(|delta|) maintenance per write; "
        "one-shot reads cost at most 1.5x re-execution and leave no entry; "
        "on every backend the first read of a table after a write costs "
        "at most 2x more at 10^5 rows than at 10^4; the tier's per-write "
        "upkeep grows at most 2x from 10^4 to 10^5 rows and from 100 to "
        "1,000 admitted Id = k entries",
        "config": {
            "chain_types": CHAIN_TYPES,
            "ops_per_save": OPS_PER_SAVE,
            "queries_per_round": QUERIES_PER_ROUND,
            "one_shot_per_round": ONE_SHOT_PER_ROUND,
            "rounds": ROUNDS,
            "budget_cells_per_row": BUDGET_CELLS_PER_ROW,
            "sizes": list(SIZES),
            "admitted_rows": ADMITTED_ROWS,
            "admitted_entries": list(ADMITTED_ENTRIES),
        },
        "backends": {
            backend_name: {
                "sizes": {str(rows): _measure(backend_name, rows) for rows in SIZES},
                "admitted_points": {
                    str(entries): _admitted_points(backend_name, entries)
                    for entries in ADMITTED_ENTRIES
                },
            }
            for backend_name in BACKENDS
        },
    }
    out = os.path.join(
        os.path.dirname(__file__), "..", "BENCH_result_cache.json"
    )
    with open(os.path.abspath(out), "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
