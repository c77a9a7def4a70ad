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

``python benchmarks/bench_smo_batch.py`` writes ``BENCH_smo_batch.json``;
the pytest entries below keep a fast smoke point for CI.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import pytest

from repro.bench.fig10 import build_model as build_customer_model
from repro.bench.fig10 import suite_for
from repro.compiler import compile_mapping
from repro.edm import Attribute, INT
from repro.fingerprint import digest_stats
from repro.incremental import AddEntity, CompiledModel, IncrementalCompiler
from repro.session import OrmSession
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
    }
    out = os.path.join(os.path.dirname(__file__), "..", "BENCH_smo_batch.json")
    with open(os.path.abspath(out), "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
