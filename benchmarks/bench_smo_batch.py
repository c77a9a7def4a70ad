"""Batched vs sequential SMO application: scheduler work and wall time.

The delta layer's acceptance claim: compiling N non-overlapping SMOs as
one :meth:`~repro.incremental.smo.IncrementalCompiler.compile_batch`
validates the *union* neighborhood of the composed delta once, so the
scheduler runs strictly fewer checks than N sequential
:meth:`~repro.session.OrmSession.evolve` calls (each of which validates
its own neighborhood).

Two workloads, both evolved by a batch of K fresh TPT subtypes of the
workload's root type:

* **hub_rim** — the Figure 4 stress model (TPT style so the base compile
  stays cheap while the schema is wide);
* **customer** — the Figure 10 realistic customer-like model.

The report also records a ``fingerprint`` block on the customer model:
the first fingerprint of a freshly built model (cold: every leaf is
digested), the fingerprint after one SMO and the one after its undo
(only the leaves the SMO rebuilt are digested).
``scripts/check_serving_regression.py`` fails when either of the last
two costs more than a tenth of the cold one.

A ``migration`` block gives the data migration a size axis: on the
scale-0.25 customer model, each of the six SMO kinds of the end-to-end
``evolve`` workload is evolved and undone with 50 and with 500
entities per set, on the memory and the SQLite backend.  An evolve
migrates only its stale region and an undo migrates that region back,
so the gate script fails when the summed evolve time, or the summed
undo time, at 500 entities per set exceeds twice its value at 50.

``python benchmarks/bench_smo_batch.py`` writes ``BENCH_smo_batch.json``;
the pytest entries below keep a fast smoke point for CI.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time

import pytest

from repro.bench.fig10 import build_model as build_customer_model
from repro.bench.fig10 import suite_for
from repro.compiler import compile_mapping
from repro.edm import Attribute, INT
from repro.fingerprint import digest_stats
from repro.incremental import AddEntity, CompiledModel, IncrementalCompiler
from repro.session import OrmSession
from repro.stategen import random_client_state
from repro.workloads.customer import customer_mapping
from repro.workloads.hub_rim import hub_rim_mapping

SMOKE = ("hub_rim", {"n": 1, "m": 2}, 3)
SWEEP = [
    ("hub_rim", {"n": 2, "m": 2}, 5),
    ("customer", {"scale": 0.15, "seed": 7}, 5),
]
#: the fingerprint block: the e2e customer model and one SMO kind
FINGERPRINT_MODEL = {"scale": 0.25, "seed": 7}
FINGERPRINT_SMO = "AE-TPT"
#: freshly built models per block; the report holds the medians
FINGERPRINT_REPEATS = 3
#: the migration block: the e2e customer model, its SMO kinds, two data
#: sizes (entities per set) and timed evolve-and-undo cycles per kind
MIGRATION_MODEL = {"scale": 0.25, "seed": 7}
MIGRATION_KINDS = (
    "AE-TPT", "AA-FK", "AA-JT", "AEP-1p-TPT", "AEP-2p-TPT", "AEP-3p-TPT",
)
MIGRATION_SIZES = (50, 500)
MIGRATION_REPEATS = 5
MIGRATION_DATA_SEED = 3
BACKENDS = ("memory", "sqlite")


def _base_model(workload: str, params: dict) -> CompiledModel:
    if workload == "hub_rim":
        mapping = hub_rim_mapping(params["n"], params["m"], "TPT")
    else:
        mapping = customer_mapping(params["scale"], seed=params["seed"])
    return CompiledModel(mapping, compile_mapping(mapping).views)


def _subtype_smos(model: CompiledModel, count: int):
    """K non-overlapping SMOs: fresh TPT subtypes of the first root type."""
    root = model.client_schema.entity_sets[0].root_type
    return [
        AddEntity.tpt(
            model,
            f"BatchSub{index}",
            root,
            [Attribute(f"X{index}", INT)],
            f"BatchSub{index}T",
        )
        for index in range(count)
    ]


def _run_sequential(model: CompiledModel, count: int) -> dict:
    session = OrmSession.create(model)
    started = time.perf_counter()
    for index in range(count):
        session.evolve(_subtype_smos(session.model, index + 1)[index])
    elapsed = time.perf_counter() - started
    return {
        "evolutions": len(session.journal),
        "scheduled_checks": sum(e.scheduled_checks for e in session.journal),
        "elapsed_s": round(elapsed, 4),
        "fingerprint": session.model.fingerprint(),
    }


def _run_batched(model: CompiledModel, count: int) -> dict:
    session = OrmSession.create(model)
    started = time.perf_counter()
    session.evolve_many(_subtype_smos(session.model, count))
    elapsed = time.perf_counter() - started
    entry = session.journal[-1]
    return {
        "evolutions": len(session.journal),
        "scheduled_checks": entry.scheduled_checks,
        "elapsed_s": round(elapsed, 4),
        "fingerprint": session.model.fingerprint(),
    }


def _compare(workload: str, params: dict, count: int) -> dict:
    model = _base_model(workload, params)
    sequential = _run_sequential(model, count)
    batched = _run_batched(model, count)
    assert batched["fingerprint"] == sequential["fingerprint"]
    assert batched["scheduled_checks"] < sequential["scheduled_checks"], (
        f"{workload}: batch must schedule strictly fewer checks "
        f"({batched['scheduled_checks']} vs {sequential['scheduled_checks']})"
    )
    for row in (sequential, batched):
        row.pop("fingerprint")
    return {
        "workload": workload,
        "params": params,
        "smos": count,
        "sequential": sequential,
        "batched": batched,
        "check_reduction": round(
            1 - batched["scheduled_checks"] / sequential["scheduled_checks"], 3
        ),
        "speedup": round(
            sequential["elapsed_s"] / batched["elapsed_s"], 2
        ) if batched["elapsed_s"] else None,
    }


def _timed_fingerprint(model: CompiledModel) -> tuple:
    """(milliseconds, leaf digests computed) of one model fingerprint."""
    computed = digest_stats().computed
    started = time.perf_counter()
    model.fingerprint()
    elapsed_ms = (time.perf_counter() - started) * 1000
    return elapsed_ms, digest_stats().computed - computed


def _fingerprint_costs(scale: float, seed: int, repeats: int) -> dict:
    """A model fingerprint cold, after one SMO and after its undo.

    Each repeat builds a fresh model, so its first fingerprint digests
    every leaf.  The SMO compiles without a validation cache, so the
    fingerprint after it digests every leaf it rebuilt; the undo
    replays the inverse delta the way ``undo`` does."""
    runs = []
    for _ in range(repeats):
        model = build_customer_model(scale, seed)
        cold = _timed_fingerprint(model)
        smo = dict(suite_for(scale, seed))[FINGERPRINT_SMO](model)
        batch = IncrementalCompiler().compile_batch(model, [smo])
        after_smo = _timed_fingerprint(batch.model)
        after_undo = _timed_fingerprint(batch.model.apply(batch.delta.inverse()))
        runs.append((cold, after_smo, after_undo))
    phases = ("cold", "after_smo", "after_undo")
    block = {
        "model": "customer",
        "scale": scale,
        "seed": seed,
        "smo": FINGERPRINT_SMO,
        "repeats": repeats,
        "leaves": runs[0][0][1],
    }
    for index, phase in enumerate(phases):
        block[f"{phase}_ms"] = round(
            statistics.median(run[index][0] for run in runs), 3
        )
    block["digests_computed"] = {
        phase: runs[-1][index][1] for index, phase in enumerate(phases)
    }
    return block


def _timed_ms(step, *args) -> float:
    """Milliseconds of one call, after collecting the garbage earlier
    steps left, so no collection of theirs lands inside this one."""
    gc.collect()
    started = time.perf_counter()
    step(*args)
    return (time.perf_counter() - started) * 1000


def _migration_point(
    scale: float, seed: int, per_set: int, backend: str, repeats: int
) -> dict:
    """Median evolve and undo milliseconds of each kind at one size.

    Each kind runs one untimed evolve-and-undo cycle first, so the
    timed cycles pay no first-use cost, like every cycle after the
    first of a serving session."""
    model = build_customer_model(scale, seed)
    suite = dict(suite_for(scale, seed))
    session = OrmSession.create(model, backend=backend, pool_size=0)
    session.save(
        random_client_state(
            model.client_schema, seed=MIGRATION_DATA_SEED, entities_per_set=per_set
        )
    )
    point = {"rows": session.store_state.row_count(), "evolve_ms": {}, "undo_ms": {}}
    for kind in MIGRATION_KINDS:
        evolves, undos = [], []
        for attempt in range(repeats + 1):
            evolve_ms = _timed_ms(session.evolve, suite[kind](session.model))
            undo_ms = _timed_ms(session.undo)
            if attempt:
                evolves.append(evolve_ms)
                undos.append(undo_ms)
        point["evolve_ms"][kind] = round(statistics.median(evolves), 3)
        point["undo_ms"][kind] = round(statistics.median(undos), 3)
    session.close()
    for phase in ("evolve", "undo"):
        point[f"{phase}_total_ms"] = round(sum(point[f"{phase}_ms"].values()), 3)
    return point


def _migration_costs(
    scale: float, seed: int, sizes=MIGRATION_SIZES, repeats: int = MIGRATION_REPEATS
) -> dict:
    """The ``migration`` block: evolve and undo per kind, per size, per
    backend."""
    return {
        "model": "customer",
        "scale": scale,
        "seed": seed,
        "kinds": list(MIGRATION_KINDS),
        "repeats": repeats,
        "sizes": list(sizes),
        "backends": {
            backend: {
                str(per_set): _migration_point(scale, seed, per_set, backend, repeats)
                for per_set in sizes
            }
            for backend in BACKENDS
        },
    }


# ---------------------------------------------------------------------------
# pytest smoke entries (CI)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["sequential", "batched"])
def test_smo_batch_smoke(benchmark, mode):
    workload, params, count = SMOKE
    model = _base_model(workload, params)
    run = _run_sequential if mode == "sequential" else _run_batched
    benchmark.pedantic(lambda: run(model, count), rounds=1, iterations=1)


def test_batch_schedules_fewer_checks():
    workload, params, count = SMOKE
    result = _compare(workload, params, count)
    assert result["check_reduction"] > 0


def test_fingerprint_block_digests_only_rebuilt_leaves():
    block = _fingerprint_costs(0.15, 7, repeats=1)
    computed = block["digests_computed"]
    assert computed["cold"] == block["leaves"] > 0
    assert computed["after_smo"] < block["leaves"]
    assert computed["after_undo"] == 0  # undo restores the base leaves


def test_migration_block_feeds_the_slope_gate():
    """A small migration block has the shape the gate script reads: a
    timing for every kind, and one slope per backend and phase."""
    block = _migration_costs(0.15, 7, sizes=(5, 10), repeats=1)
    for backend in BACKENDS:
        for point in block["backends"][backend].values():
            assert set(point["evolve_ms"]) == set(MIGRATION_KINDS)
            assert point["evolve_total_ms"] > 0 and point["undo_total_ms"] > 0
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
    from check_serving_regression import migration_slopes

    slopes = migration_slopes(block)
    assert {(backend, phase) for backend, phase, _ in slopes} == {
        (backend, phase) for backend in BACKENDS for phase in ("evolve", "undo")
    }


# ---------------------------------------------------------------------------
# JSON driver
# ---------------------------------------------------------------------------

def main() -> None:
    result = {
        "claim": "one batched neighborhood validation schedules strictly "
        "fewer checks than per-SMO validation",
        "points": [
            _compare(workload, params, count)
            for workload, params, count in SWEEP
        ],
        "fingerprint": _fingerprint_costs(
            FINGERPRINT_MODEL["scale"],
            FINGERPRINT_MODEL["seed"],
            FINGERPRINT_REPEATS,
        ),
        "migration": _migration_costs(
            MIGRATION_MODEL["scale"], MIGRATION_MODEL["seed"]
        ),
    }
    out = os.path.join(os.path.dirname(__file__), "..", "BENCH_smo_batch.json")
    with open(os.path.abspath(out), "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
