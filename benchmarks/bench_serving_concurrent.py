"""Concurrent serving under schema-evolution churn.

The epoch engine (:mod:`repro.engine`) promises that ``query`` stays
safe — and on snapshot backends lock-free — while ``evolve_many`` /
``undo`` publish new epochs under live traffic.  This benchmark measures
what that costs and *proves the consistency claim as it measures*:

* **single_warm** — one thread, warm plan cache, no writer: the
  per-query baseline (p50/p99 latency, QPS).
* **query_only** — CLIENTS reader threads, no writer: what concurrency
  alone does to latency (on CPython this is GIL-bound, so per-request
  p99 inflates roughly with the thread count even though QPS holds).
* **churn** — the same CLIENTS readers while the writer applies
  BATCHES ``evolve_many`` + ``undo`` pairs (an ``AddProperty`` on one
  chain table and its rollback).  Every response is checked against the
  answer precomputed for the epoch fingerprint it claims consistency
  with — a mismatch is a **torn read** and counts in ``torn_reads``,
  which must be 0.  The plan-cache counters prove untouched-set plans
  survive every swap (delta-scoped successor carry-over).

``python benchmarks/bench_serving_concurrent.py`` writes
``BENCH_serving_concurrent.json`` for both backends;
``scripts/check_serving_regression.py`` gates on it in CI.  The pytest
entries run a scaled-down smoke version (consistency assertions, no
timing asserts).
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.backend import create_backend
from repro.compiler import compile_mapping
from repro.edm import STRING, Attribute, Entity
from repro.incremental import AddProperty, CompiledModel
from repro.query import EntityQuery
from repro.session import OrmSession
from repro.workloads.chain import chain_mapping, entity_name, set_name

BACKENDS = ("memory", "sqlite")
CHAIN_TYPES = 6
ROWS_PER_SET = 40

CLIENTS = 8
BATCHES = 20
QUERY_ONLY_SECONDS = 1.5
SMOKE = {"clients": 4, "batches": 4, "query_only_seconds": 0.3}
if os.environ.get("REPRO_FULL"):
    CLIENTS, BATCHES, QUERY_ONLY_SECONDS = 16, 60, 4.0


def _chain_model() -> CompiledModel:
    mapping = chain_mapping(CHAIN_TYPES)
    return CompiledModel(
        mapping, compile_mapping(mapping, validate=False).views
    )


def _session(model: CompiledModel, backend_name: str, clients: int) -> OrmSession:
    backend = create_backend(
        backend_name, model.store_schema, pool_size=clients
    )
    session = OrmSession(model, backend=backend)
    with session.edit() as state:
        for index in range(1, CHAIN_TYPES + 1):
            for row in range(ROWS_PER_SET):
                state.add_entity(
                    set_name(index),
                    Entity.of(
                        entity_name(index),
                        Id=row,
                        EntityAtt2=f"a{row % 5}",
                        EntityAtt3=f"b{row}",
                        EntityAtt4=f"c{row}",
                    ),
                )
    return session


def _churn_smo() -> AddProperty:
    """The repeated migration: widen Entity1's table by a nullable column
    (touched neighborhood = Entities1; every other set is untouched)."""
    return AddProperty(
        entity_name(1), Attribute("Tmp", STRING, nullable=True), "T1", "Tmp"
    )


#: the reader workload: one query on the churned set, one on an
#: untouched set — both parameterized so the plan cache serves hits.
def _touched_query(value: int) -> EntityQuery:
    return EntityQuery(
        set_name(1), projection=("Id", "EntityAtt2")
    ) if value % 2 else EntityQuery(set_name(1))


def _untouched_query(value: int) -> EntityQuery:
    return EntityQuery(
        set_name(CHAIN_TYPES), projection=("Id", "EntityAtt2")
    ) if value % 2 else EntityQuery(set_name(CHAIN_TYPES))


def _digest(rows) -> str:
    return repr(sorted(repr(r) for r in rows))


def _percentile(latencies, fraction: float) -> float:
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[index]


def _latency_summary(latencies, elapsed: float) -> dict:
    return {
        "queries": len(latencies),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000.0, 4),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000.0, 4),
        "qps": round(len(latencies) / elapsed, 1) if elapsed else None,
    }


def _expected_answers(session: OrmSession) -> dict:
    """fingerprint -> {query kind+parity -> answer digest}, precomputed
    for both epochs the churn alternates between."""

    def snapshot() -> dict:
        return {
            ("touched", parity): _digest(session.query(_touched_query(parity)))
            for parity in (0, 1)
        } | {
            ("untouched", parity): _digest(
                session.query(_untouched_query(parity))
            )
            for parity in (0, 1)
        }

    base_fp = session.epoch.fingerprint
    expected = {base_fp: snapshot()}
    session.evolve(_churn_smo())
    evolved_fp = session.epoch.fingerprint
    expected[evolved_fp] = snapshot()
    session.undo()
    assert session.epoch.fingerprint == base_fp
    assert expected[base_fp][("touched", 0)] != expected[evolved_fp][
        ("touched", 0)
    ]
    return expected


class _ReaderPool:
    """CLIENTS threads issuing the mixed workload until stopped, each
    validating every response against the expected-answer table."""

    def __init__(self, session: OrmSession, expected: dict, clients: int):
        self.session = session
        self.expected = expected
        self.clients = clients
        self.latencies: list = []
        self.torn: list = []
        self.errors: list = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: list = []

    def _reader(self, index: int) -> None:
        session = self.session
        local_latencies = []
        value = index
        try:
            while not self._stop.is_set():
                kind = "touched" if value % 3 == 0 else "untouched"
                query = (
                    _touched_query(value % 2)
                    if kind == "touched"
                    else _untouched_query(value % 2)
                )
                started = time.perf_counter()
                rows, epoch = session.query_with_epoch(query)
                local_latencies.append(time.perf_counter() - started)
                want = self.expected.get(epoch.fingerprint)
                if want is None or _digest(rows) != want[(kind, value % 2)]:
                    with self._lock:
                        self.torn.append(
                            f"{kind} response inconsistent with epoch "
                            f"{epoch.epoch_id}"
                        )
                value += 1
        except Exception as exc:  # noqa: BLE001 — reported in results
            with self._lock:
                self.errors.append(repr(exc))
        finally:
            with self._lock:
                self.latencies.extend(local_latencies)

    def __enter__(self) -> "_ReaderPool":
        self._started = time.perf_counter()
        self._threads = [
            threading.Thread(target=self._reader, args=(i,))
            for i in range(self.clients)
        ]
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self.elapsed = time.perf_counter() - self._started


def _measure_single_warm(session: OrmSession, queries: int = 200) -> dict:
    # warm every shape the workload uses
    for parity in (0, 1):
        session.query(_touched_query(parity))
        session.query(_untouched_query(parity))
    latencies = []
    started = time.perf_counter()
    for value in range(queries):
        kind_touched = value % 3 == 0
        query = (
            _touched_query(value % 2)
            if kind_touched
            else _untouched_query(value % 2)
        )
        t0 = time.perf_counter()
        session.query(query)
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - started
    return _latency_summary(latencies, elapsed)


def _measure_backend(
    backend_name: str,
    clients: int = CLIENTS,
    batches: int = BATCHES,
    query_only_seconds: float = QUERY_ONLY_SECONDS,
) -> dict:
    model = _chain_model()
    session = _session(model, backend_name, clients)
    try:
        expected = _expected_answers(session)
        single = _measure_single_warm(session)

        with _ReaderPool(session, expected, clients) as pool:
            time.sleep(query_only_seconds)
        query_only = _latency_summary(pool.latencies, pool.elapsed)
        assert not pool.errors, pool.errors[0]
        torn_query_only = len(pool.torn)

        plans_before = session.plan_cache.stats()
        with _ReaderPool(session, expected, clients) as pool:
            for _ in range(batches):
                session.evolve_many([_churn_smo()])
                session.undo()
        churn = _latency_summary(pool.latencies, pool.elapsed)
        assert not pool.errors, pool.errors[0]
        plans_after = session.plan_cache.stats()

        # untouched-set plans must keep *hitting* across every swap: the
        # successor cache carries them over, so churn adds hits, and the
        # only misses are the touched set's rebuilds (bounded by epochs).
        survived = (
            plans_after.hits > plans_before.hits
            and plans_after.misses - plans_before.misses <= 4 * batches
        )
        stats = session.serving_stats().epoch
        return {
            "clients": clients,
            "batches": batches,
            "single_warm": single,
            "query_only": query_only,
            "churn": churn,
            "churn_over_single_p99": (
                round(churn["p99_ms"] / single["p99_ms"], 2)
                if single["p99_ms"]
                else None
            ),
            "torn_reads": torn_query_only + len(pool.torn),
            "epochs_published": stats.epochs_published,
            "read_retries": stats.read_retries,
            "plan_cache": {
                "hits": plans_after.hits,
                "misses": plans_after.misses,
                "invalidations": plans_after.invalidated,
                "hits_during_churn": plans_after.hits - plans_before.hits,
                "misses_during_churn": plans_after.misses
                - plans_before.misses,
                "untouched_plans_survived": survived,
            },
        }
    finally:
        session.close()


# ---------------------------------------------------------------------------
# pytest smoke entries (CI)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend_name", BACKENDS)
def test_concurrent_serving_smoke(benchmark, backend_name):
    benchmark.pedantic(
        lambda: _measure_backend(backend_name, **SMOKE),
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_no_torn_reads_under_churn(backend_name):
    result = _measure_backend(backend_name, **SMOKE)
    assert result["torn_reads"] == 0
    assert result["epochs_published"] >= 2 * SMOKE["batches"]
    assert result["plan_cache"]["untouched_plans_survived"]


# ---------------------------------------------------------------------------
# JSON driver
# ---------------------------------------------------------------------------

def main() -> None:
    result = {
        "claim": "epoch-based serving engine: concurrent readers keep "
        "answering (lock-free on memory snapshots, under a read lease that "
        "excludes each publication window on SQLite) while evolve_many/undo "
        "batches publish new epochs by atomic swap; every response is consistent with exactly one "
        "epoch fingerprint (torn_reads must be 0) and untouched-set "
        "plans survive every swap",
        "config": {
            "chain_types": CHAIN_TYPES,
            "rows_per_set": ROWS_PER_SET,
            "clients": CLIENTS,
            "batches": BATCHES,
            "workload": "2/3 untouched-set queries, 1/3 touched-set, "
            "two projections each",
        },
        "backends": {
            backend_name: _measure_backend(backend_name)
            for backend_name in BACKENDS
        },
    }
    out = os.path.join(
        os.path.dirname(__file__), "..", "BENCH_serving_concurrent.json"
    )
    with open(os.path.abspath(out), "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
