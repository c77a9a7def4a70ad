"""The end-to-end benchmark's tracer still reaches the program.

``benchmarks/e2e/e2e_trace.py`` patches each layer's entry points from
outside, by module and attribute name.  A session verb that moves out of
the class body ``repro.session.OrmSession`` names, or a helper the
session stops looking up through the ``repro.engine`` globals, leaves a
patch that never fires: the traced run then reports 0 for that layer
while every answer stays right.  These tests resolve every patch target
the way :meth:`Tracer.install` does and run a small session under the
installed tracer, so such a move fails here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.compiler import compile_mapping
from repro.edm import STRING, Attribute, Entity
from repro.incremental import AddProperty, CompiledModel
from repro.ivm import DeltaScript, EntityOp
from repro.query import EntityQuery
from repro.session import OrmSession
from repro.workloads.chain import chain_mapping, entity_name, set_name

TRACE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "e2e_trace.py"

#: the spans the session's own module-level lookups feed
ENGINE_LAYERS = (
    "ivm.push",
    "ivm.seed_counts",
    "mapping.query_views",
    "mapping.update_views",
    "dml.diff",
    "migrate.plan",
)


def _load_trace():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = _load_trace()


@pytest.mark.parametrize(
    "patch", TRACE.PATCHES, ids=[f"{p[0]}:{p[1]}" for p in TRACE.PATCHES]
)
def test_patch_target_resolves(patch):
    module_name, path, _layer, *_counting = patch
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{module_name}.{path} is not defined there"


def _entity(index: int, key: int, att2: str) -> Entity:
    return Entity.of(
        entity_name(index), Id=key, EntityAtt2=att2, EntityAtt3=f"b{key}",
        EntityAtt4=f"c{key}",
    )


def test_traced_session_records_every_engine_span():
    mapping = chain_mapping(2)
    model = CompiledModel(mapping, compile_mapping(mapping, validate=False).views)
    session = OrmSession.create(model, backend="memory", pool_size=0)
    with session.edit() as state:
        for index in (1, 2):
            for key in range(3):
                state.add_entity(set_name(index), _entity(index, key, f"a{key}"))
    original_query = OrmSession.__dict__["query"]
    tracer = TRACE.Tracer()
    tracer.install()
    try:
        session.save_delta(DeltaScript(()))  # seeds the view-row counts
        session.save_delta(
            DeltaScript(
                (EntityOp("update", set_name(1), entity=_entity(1, 0, "x")),)
            )
        )
        rows = session.query(EntityQuery(set_name(1)))
        session.evolve(
            AddProperty(
                entity_name(2), Attribute("Tmp", STRING, nullable=True), "T2", "Tmp"
            )
        )
        session.undo()
    finally:
        tracer.uninstall()
    assert OrmSession.__dict__["query"] is original_query
    assert sorted(e.value_map["EntityAtt2"] for e in rows) == ["a1", "a2", "x"]
    recorded = {span[4] for span in tracer.spans}
    missing = [layer for layer in ENGINE_LAYERS if layer not in recorded]
    assert not missing, f"no spans recorded for {missing}"
    for verb in ("query", "save_delta", "evolve", "undo"):
        assert f"engine.{verb}" in recorded
    session.close()
