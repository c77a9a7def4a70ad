"""Incremental writes (IVM) vs whole-state SaveChanges.

The incremental write path (:mod:`repro.ivm`) exists for one reason:
``save_delta`` must cost O(|delta|), while the whole-state save it
replaces re-lowers the *entire* client state through the update views
and diffs the full store — O(|state|) per save, no matter how small the
edit.  This benchmark measures both paths on the same session at
10^4–10^6 store rows (the top size behind ``REPRO_FULL``), with the
same small mixed batch per save, and *verifies as it measures*: after
the timed incremental rounds, the store is checked byte-for-byte
against a whole-state lowering of the mirrored client state.

Each batch has the end-to-end benchmark's mix of 16 ops: 10 updates,
2 inserts and 2 deletes of unreferenced entities in sets other tables
reference, and one ``A{i}a`` association insert and one delete.  Each
delete of a referenced table's row makes SQLite check the referrers'
foreign keys, so the 10^4 to 10^5 slope also times those probes.

Each size also reports ``layers_ms``: the median per-write self time of
the six layers of ``save_delta`` — replay (``DeltaScript.apply_to``),
writeplan lookup (``WriteplanCache.plan_for``), push
(``push_client_delta``), store apply (the backend's ``apply_delta``),
constraint check (``check_delta``; SQLite checks its foreign keys inside
the store apply, so it reads 0 there) and result maintenance
(``ResultCache.successor_for_delta``).  They are timed by wrapping the
entry points ``benchmarks/e2e/e2e_trace.py`` patches; a layer's self
time excludes the wrapped layers it calls.

``python benchmarks/bench_incremental_writes.py`` writes
``BENCH_incremental_writes.json`` for both backends;
``scripts/check_serving_regression.py`` gates on a >= 5x speedup at the
10^5-row tier in CI.  The pytest entries run a 10^4-row smoke version
(equivalence assertions, no timing asserts).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

import pytest

from repro.backend import create_backend
from repro.compiler import compile_mapping
from repro.edm import Entity
from repro.incremental import CompiledModel
from repro.ivm import AssociationOp, DeltaScript, EntityOp
from repro.mapping.roundtrip import apply_update_views
from repro.session import OrmSession
from repro.workloads.chain import chain_mapping, entity_name, first_assoc, set_name

BACKENDS = ("memory", "sqlite")
CHAIN_TYPES = 4

SIZES = (10_000, 100_000)
if os.environ.get("REPRO_FULL"):
    SIZES = (10_000, 100_000, 1_000_000)

ROUNDS_WHOLE = 3
ROUNDS_INCREMENTAL = 7
#: the incremental rounds are numbered from here, after the whole ones
INCREMENTAL_FIRST_ROUND = 100
UPDATES_PER_SAVE = 10
OPS_PER_SAVE = UPDATES_PER_SAVE + 6
#: ``A{i}a`` links seeded per association: round r deletes link (r, r)
#: and inserts (LINK_SLOTS + r, LINK_SLOTS + r), so no round reuses one
LINK_SLOTS = 128
SMOKE = {"sizes": (10_000,), "rounds_whole": 2, "rounds_incremental": 3}

#: (module, attribute path, layer): the entry points of save_delta's
#: layers, as ``benchmarks/e2e/e2e_trace.py`` patches them (the engine
#: looks ``push_client_delta`` up in its own module globals)
LAYER_ENTRY_POINTS = (
    ("repro.ivm.clientdelta", "DeltaScript.apply_to", "replay"),
    ("repro.ivm.writeplan", "WriteplanCache.plan_for", "writeplan_lookup"),
    ("repro.engine", "push_client_delta", "push"),
    ("repro.backend.memory", "MemoryBackend.apply_delta", "store_apply"),
    ("repro.backend.sqlite", "SqliteBackend.apply_delta", "store_apply"),
    ("repro.backend.memory", "check_delta", "constraint_check"),
    (
        "repro.query.resultcache",
        "ResultCache.successor_for_delta",
        "result_maintenance",
    ),
)
#: the layers every size reports, in request order
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in LAYER_ENTRY_POINTS))


@contextmanager
def _layer_split(seconds: Dict[str, float]):
    """Add each wrapped layer's self time inside the block to
    *seconds*: its duration minus the wrapped layers it calls."""
    stack: List[List[float]] = []

    def wrap(fn, layer):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]  # seconds spent in wrapped callees
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                seconds[layer] += elapsed - frame[0]

        return timed

    undo = []
    try:
        for module_name, path, layer in LAYER_ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, wrap(original, layer))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


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


def _populated_session(model: CompiledModel, backend_name: str, rows: int) -> OrmSession:
    backend = create_backend(backend_name, model.store_schema)
    session = OrmSession(model, backend=backend)
    per_set = rows // CHAIN_TYPES
    with session.edit() as state:
        for index in range(1, CHAIN_TYPES + 1):
            for row in range(per_set):
                state.add_entity(set_name(index), _entity(index, row, str(row % 5)))
        for index in range(1, CHAIN_TYPES):
            for slot in range(LINK_SLOTS):
                state.add_association(first_assoc(index), (slot,), (slot,))
    return session


def _batch(per_set: int, round_no: int) -> DeltaScript:
    """Round *round_no*'s deterministic batch of OPS_PER_SAVE ops; the
    same batch drives both the whole-state and incremental measurements
    so the per-save work is identical.

    Deletes take keys from the top 2 * LINK_SLOTS of a set, which no
    update and no link touches, and the inserts that replace them take
    fresh keys above ``per_set``, so set sizes stay fixed.
    """
    assert round_no < LINK_SLOTS
    ops = []
    for op in range(UPDATES_PER_SAVE):
        index = (op % CHAIN_TYPES) + 1
        row = (round_no * 7919 + op * 104729) % (per_set - 2 * LINK_SLOTS)
        entity = _entity(index, row, f"r{round_no}.{op}")
        ops.append(EntityOp("update", set_name(index), entity=entity))
    for k in range(2):
        # sets 2..CHAIN_TYPES are the ones whose rows others reference
        index = (2 * round_no + k) % (CHAIN_TYPES - 1) + 2
        fresh = per_set + 2 * round_no + k
        ops.append(
            EntityOp("insert", set_name(index), entity=_entity(index, fresh, "n"))
        )
        gone = per_set - 1 - (2 * round_no + k)
        ops.append(EntityOp("delete", set_name(index), key=(gone,)))
    linked = LINK_SLOTS + round_no
    index = round_no % (CHAIN_TYPES - 1) + 1
    ops.append(AssociationOp("insert", first_assoc(index), (linked,), (linked,)))
    index = (round_no + 1) % (CHAIN_TYPES - 1) + 1
    ops.append(
        AssociationOp("delete", first_assoc(index), (round_no,), (round_no,))
    )
    return DeltaScript(tuple(ops))


def _measure(
    backend_name: str,
    rows: int,
    rounds_whole: int = ROUNDS_WHOLE,
    rounds_incremental: int = ROUNDS_INCREMENTAL,
) -> dict:
    model = _model()
    session = _populated_session(model, backend_name, rows)
    per_set = rows // CHAIN_TYPES
    try:
        # -- whole-state path: each save re-lowers and diffs everything
        scratch = session.load().embed_into(model.client_schema)
        whole_latencies = []
        for round_no in range(rounds_whole):
            _batch(per_set, round_no).apply_to(scratch)
            started = time.perf_counter()
            session.save(scratch)
            whole_latencies.append(time.perf_counter() - started)

        # -- incremental path: the same batch shape through save_delta
        mirror = session.load().embed_into(model.client_schema)
        incremental_latencies = []
        layer_samples: Dict[str, List[float]] = defaultdict(list)
        first = INCREMENTAL_FIRST_ROUND
        for round_no in range(first, first + rounds_incremental):
            script = _batch(per_set, round_no)
            script.apply_to(mirror)
            started = time.perf_counter()
            session.save_delta(script)
            incremental_latencies.append(time.perf_counter() - started)
        # the layer split, from a second pass of the same batch shape, so
        # the wrappers' own cost stays out of the latencies above
        for round_no in range(
            first + rounds_incremental, first + 2 * rounds_incremental
        ):
            script = _batch(per_set, round_no)
            script.apply_to(mirror)
            seconds: Dict[str, float] = defaultdict(float)
            with _layer_split(seconds):
                session.save_delta(script)
            for layer in LAYERS:
                layer_samples[layer].append(seconds[layer])

        # verify as we measure: the incrementally-maintained store must
        # equal a from-scratch lowering of the mirrored client state
        target = apply_update_views(model.views, mirror, model.store_schema)
        equivalent = session.backend.snapshot() == target.snapshot()
        assert equivalent, "incremental store diverged from whole-state lowering"

        whole_ms = statistics.median(whole_latencies) * 1000.0
        incremental_ms = statistics.median(incremental_latencies) * 1000.0
        writeplans = session.writeplans.stats()
        return {
            "rows": rows,
            "ops_per_save": OPS_PER_SAVE,
            "whole_state_ms": round(whole_ms, 3),
            "incremental_ms": round(incremental_ms, 3),
            "speedup": round(whole_ms / incremental_ms, 2) if incremental_ms else None,
            "layers_ms": {
                layer: round(statistics.median(layer_samples[layer]) * 1000.0, 4)
                for layer in LAYERS
            },
            "equivalent": equivalent,
            "writeplans": {
                "hits": writeplans.hits,
                "misses": writeplans.misses,
                "compiled": writeplans.misses,
                "entries": writeplans.entries,
            },
            "ivm_fallbacks": session.serving_stats().epoch.ivm_fallbacks,
        }
    finally:
        session.backend.close()


# ---------------------------------------------------------------------------
# pytest smoke entries (CI)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend_name", BACKENDS)
def test_incremental_write_smoke(benchmark, backend_name):
    benchmark.pedantic(
        lambda: _measure(
            backend_name,
            SMOKE["sizes"][0],
            rounds_whole=SMOKE["rounds_whole"],
            rounds_incremental=SMOKE["rounds_incremental"],
        ),
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_incremental_matches_whole_state(backend_name):
    result = _measure(
        backend_name,
        SMOKE["sizes"][0],
        rounds_whole=SMOKE["rounds_whole"],
        rounds_incremental=SMOKE["rounds_incremental"],
    )
    assert result["equivalent"]
    assert result["ivm_fallbacks"] == 0
    assert set(result["layers_ms"]) == set(LAYERS)
    assert result["layers_ms"]["push"] > 0
    assert result["writeplans"]["compiled"] >= 1
    # later rounds reuse the writeplan compiled in round one
    assert result["writeplans"]["hits"] >= result["writeplans"]["compiled"]


# ---------------------------------------------------------------------------
# JSON driver
# ---------------------------------------------------------------------------

def main() -> None:
    result = {
        "claim": "incremental SaveChanges through compiled update views "
        "costs O(|delta|): a small mixed batch (updates, inserts, deletes "
        "of referenced rows, association edits) saved via save_delta "
        "must beat the whole-state save (re-lower + full diff) by >= 5x "
        "at the 10^5-row tier, while producing a byte-identical store",
        "config": {
            "chain_types": CHAIN_TYPES,
            "ops_per_save": OPS_PER_SAVE,
            "batch": "10 updates, 2 inserts + 2 deletes of unreferenced "
            "entities in referenced sets, 1 A{i}a insert + 1 delete",
            "rounds_whole": ROUNDS_WHOLE,
            "rounds_incremental": ROUNDS_INCREMENTAL,
            "sizes": list(SIZES),
        },
        "backends": {
            backend_name: {
                "sizes": {str(rows): _measure(backend_name, rows) for rows in SIZES}
            }
            for backend_name in BACKENDS
        },
    }
    out = os.path.join(
        os.path.dirname(__file__), "..", "BENCH_incremental_writes.json"
    )
    with open(os.path.abspath(out), "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
