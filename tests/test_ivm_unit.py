"""Unit coverage for the incremental write path's moving parts.

The differential suite (:mod:`tests.test_ivm_differential`) proves the
end-to-end equivalence property; these tests pin the individual
mechanisms — delta recording and collapsing, script replay, the wire
codec, the writeplan cache counters and invalidation, the service verb,
FK-ordered grouped DML, structural sharing of store states, and the
IvmError whole-state fallback.
"""

from __future__ import annotations

import pytest

from tests.test_backend_differential import compiled, holds_model
from tests.test_compiled_plans import _fk_schema
from repro.backend import SqliteBackend
from repro.backend.sqlgen import delta_statements, grouped_delta_statements
from repro.edm.instances import ClientState, Entity
from repro.errors import IvmError, SchemaError
from repro.ivm import AssociationOp, ClientDelta, DeltaScript, EntityOp
from repro.query.dml import StoreDelta, TableDelta, apply_delta
from repro.relational.instances import StoreState, make_row
from repro.service import SessionService
from repro.service import wire
from repro.session import OrmSession
from repro.workloads.paper_example import mapping_stage1


def stage1_session(backend=None) -> OrmSession:
    model = compiled(mapping_stage1())
    if backend == "sqlite":
        return OrmSession(model, backend=SqliteBackend(model.store_schema))
    return OrmSession(model)


def ann_state(schema) -> ClientState:
    state = ClientState(schema)
    state.add_entity("Persons", Entity.of("Person", Id=1, Name="ann"))
    state.add_entity("Persons", Entity.of("Person", Id=2, Name="bob"))
    return state


def _numbered_state(count: int) -> StoreState:
    state = StoreState(_fk_schema())
    for k in range(count):
        state.add_row("T", make_row(K=k, V=f"v{k}"))
    return state


# ---------------------------------------------------------------------------
# ClientDelta recording semantics
# ---------------------------------------------------------------------------

class TestClientDelta:
    def test_inverse_entity_pair_collapses(self):
        delta = ClientDelta()
        e = Entity.of("Person", Id=1, Name="ann")
        delta.record_entity("Persons", (1,), None, e)
        delta.record_entity("Persons", (1,), e, None)
        assert delta.empty
        assert delta.op_count() == 0

    def test_update_chain_keeps_endpoints(self):
        delta = ClientDelta()
        v1 = Entity.of("Person", Id=1, Name="a")
        v2 = Entity.of("Person", Id=1, Name="b")
        v3 = Entity.of("Person", Id=1, Name="c")
        delta.record_entity("Persons", (1,), v1, v2)
        delta.record_entity("Persons", (1,), v2, v3)
        assert delta.entity_changes("Persons")[(1,)] == [v1, v3]

    def test_update_back_to_original_is_noop(self):
        delta = ClientDelta()
        v1 = Entity.of("Person", Id=1, Name="a")
        v2 = Entity.of("Person", Id=1, Name="b")
        delta.record_entity("Persons", (1,), v1, v2)
        delta.record_entity("Persons", (1,), v2, v1)
        assert delta.empty

    def test_association_signs_net_out(self):
        delta = ClientDelta()
        delta.record_association("Holds", (1, 10), +1)
        delta.record_association("Holds", (1, 10), -1)
        assert delta.empty
        delta.record_association("Holds", (2, 10), -1)
        assert delta.association_changes("Holds") == {(2, 10): -1}
        assert delta.sources() == frozenset({"Holds"})

    def test_recording_hooks_on_client_state(self):
        schema = mapping_stage1().client_schema
        state = ann_state(schema)
        delta = ClientDelta()
        state.record_into(delta)
        state.update_entity("Persons", Entity.of("Person", Id=1, Name="ann2"))
        removed = state.remove_entity("Persons", (2,))
        assert removed.value_map["Name"] == "bob"
        state.stop_recording()
        # post-stop mutations are not recorded
        state.add_entity("Persons", Entity.of("Person", Id=9, Name="zed"))
        changes = delta.entity_changes("Persons")
        assert changes[(1,)][0].value_map["Name"] == "ann"
        assert changes[(1,)][1].value_map["Name"] == "ann2"
        assert changes[(2,)] == [removed, None]
        assert (9,) not in changes


class TestDeltaScript:
    def test_replay_dispatches_every_op(self):
        schema = holds_model().mapping.client_schema
        state = ClientState(schema)
        script = DeltaScript(
            (
                EntityOp("insert", "P2s", entity=Entity.of("Person2", Id=1, Name="a")),
                EntityOp(
                    "insert", "Passports",
                    entity=Entity.of("Passport", Pno=10, Country="fr"),
                ),
                AssociationOp("insert", "Holds", key1=(1,), key2=(10,)),
                EntityOp("update", "P2s", entity=Entity.of("Person2", Id=1, Name="b")),
                AssociationOp("delete", "Holds", key1=(1,), key2=(10,)),
                EntityOp("delete", "Passports", key=(10,)),
            )
        )
        script.apply_to(state)
        assert state.entities("P2s")[0].value_map["Name"] == "b"
        assert state.entities("Passports") == ()
        assert state.associations("Holds") == ()

    def test_unknown_op_raises(self):
        state = ClientState(mapping_stage1().client_schema)
        with pytest.raises(SchemaError):
            DeltaScript((EntityOp("upsert", "Persons"),)).apply_to(state)

    def test_wire_roundtrip(self):
        script = DeltaScript(
            (
                EntityOp("insert", "Persons", entity=Entity.of("Person", Id=3, Name="c")),
                EntityOp("delete", "Persons", key=(1,)),
                AssociationOp("insert", "Holds", key1=(1,), key2=(10,)),
            )
        )
        assert wire.delta_script_from_json(wire.delta_script_to_json(script)) == script

    def test_malformed_wire_payloads(self):
        with pytest.raises(SchemaError):
            wire.delta_script_from_json({"not-ops": []})
        with pytest.raises(SchemaError):
            wire.delta_script_from_json({"ops": [{"op": "insert"}]})


# ---------------------------------------------------------------------------
# Writeplan cache behaviour through the session
# ---------------------------------------------------------------------------

class TestWriteplanCache:
    def test_counters_hit_on_repeated_shape(self):
        session = stage1_session()
        session.save(ann_state(session.model.client_schema))
        for name in ("x", "y", "z"):
            session.save_delta(
                DeltaScript(
                    (
                        EntityOp(
                            "update", "Persons",
                            entity=Entity.of("Person", Id=1, Name=name),
                        ),
                    )
                )
            )
        stats = session.serving_stats().writeplans
        assert stats.misses >= 1
        assert stats.hits >= stats.misses  # later rounds reuse the plan
        assert stats.entries >= 1

    def test_one_plan_serves_every_delta_shape(self):
        """The ``Pass`` view scans ``Passports`` and ``Holds``: a
        Passports-only delta and a Holds-only one share one lowered plan,
        the runtime delta deciding which subtrees propagate."""
        model = holds_model()
        session = OrmSession(model)
        state = ClientState(model.client_schema)
        state.add_entity("P2s", Entity.of("Person2", Id=1, Name="ann"))
        state.add_entity("Passports", Entity.of("Passport", Pno=10, Country="fr"))
        session.save(state)
        session.save_delta(
            DeltaScript(
                (
                    EntityOp(
                        "update", "Passports",
                        entity=Entity.of("Passport", Pno=10, Country="de"),
                    ),
                )
            )
        )
        session.save_delta(
            DeltaScript((AssociationOp("insert", "Holds", key1=(1,), key2=(10,)),))
        )
        stats = session.serving_stats().writeplans
        assert stats.misses == 1
        assert stats.hits == 1
        assert session.serving_stats().epoch.ivm_fallbacks == 0
        assert session.store_state.rows("Pass") == (
            make_row(Pno=10, Country="de", OwnerId=1),
        )

    def test_evolution_invalidates_touched_writeplans(self):
        from tests.conftest import employee_smo

        session = stage1_session()
        session.save(ann_state(session.model.client_schema))
        session.save_delta(
            DeltaScript(
                (
                    EntityOp(
                        "update", "Persons",
                        entity=Entity.of("Person", Id=1, Name="x"),
                    ),
                )
            )
        )
        assert session.serving_stats().writeplans.entries >= 1
        session.evolve(employee_smo(session.model))
        stats = session.serving_stats().writeplans
        assert stats.invalidated >= 1

    def test_stats_verb_reports_writeplans(self):
        mapping = mapping_stage1()
        from repro.msl import save_model
        from repro.compiler import compile_mapping
        from repro.incremental import CompiledModel

        model = CompiledModel(mapping, compile_mapping(mapping).views)
        service = SessionService()
        service.create_tenant("t", save_model(model))
        service.save_delta(
            "t",
            {
                "ops": [
                    {
                        "op": "insert",
                        "set": "Persons",
                        "entity": {"type": "Person", "values": {"Id": 1, "Name": "a"}},
                    }
                ]
            },
        )
        stats = service.stats("t")
        assert stats["writeplans"]["misses"] >= 1
        assert stats["writeplans"]["entries"] >= 1
        service.close()


# ---------------------------------------------------------------------------
# The service verb (in-process and over HTTP)
# ---------------------------------------------------------------------------

class TestSaveDeltaVerb:
    def test_in_process_save_delta(self):
        from repro.msl import save_model
        from repro.compiler import compile_mapping
        from repro.incremental import CompiledModel

        mapping = mapping_stage1()
        model = CompiledModel(mapping, compile_mapping(mapping).views)
        service = SessionService()
        service.create_tenant("t", save_model(model))
        result = service.save_delta(
            "t",
            {
                "ops": [
                    {
                        "op": "insert",
                        "set": "Persons",
                        "entity": {"type": "Person", "values": {"Id": 1, "Name": "a"}},
                    },
                    {
                        "op": "update",
                        "set": "Persons",
                        "entity": {"type": "Person", "values": {"Id": 1, "Name": "b"}},
                    },
                ]
            },
        )
        assert result["ops"] == 2
        assert result["applied"] == 1  # collapsed to one INSERT
        rows = service.query("t", {"set": "Persons"})
        assert rows["rows"] == [{"type": "Person", "values": {"Id": 1, "Name": "b"}}]
        assert rows["fingerprint"] == result["fingerprint"]
        service.close()

    def test_save_delta_over_http(self):
        import json
        import threading
        import urllib.request

        from repro.msl import save_model
        from repro.compiler import compile_mapping
        from repro.incremental import CompiledModel
        from repro.service.http import make_server

        mapping = mapping_stage1()
        model = CompiledModel(mapping, compile_mapping(mapping).views)
        service = SessionService()
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]

        def call(method, path, payload=None):
            data = json.dumps(payload).encode() if payload is not None else None
            request = urllib.request.Request(
                f"http://{host}:{port}{path}", data=data, method=method
            )
            request.add_header("Content-Type", "application/json")
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())

        try:
            status, _ = call("PUT", "/tenants/t", {"model": save_model(model)})
            assert status == 200
            status, result = call(
                "POST",
                "/tenants/t/save_delta",
                {
                    "ops": [
                        {
                            "op": "insert",
                            "set": "Persons",
                            "entity": {
                                "type": "Person",
                                "values": {"Id": 7, "Name": "g"},
                            },
                        }
                    ]
                },
            )
            assert status == 200 and result["applied"] == 1
            status, rows = call(
                "POST", "/tenants/t/query", {"set": "Persons", "where": "Id=7"}
            )
            assert status == 200 and rows["count"] == 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()


# ---------------------------------------------------------------------------
# FK-topology ordering of grouped DML (satellite: grouped_delta_statements)
# ---------------------------------------------------------------------------

class TestGroupedDmlOrdering:
    def _delta(self, schema):
        delta = StoreDelta()
        delta.tables["P2"] = TableDelta(
            "P2",
            inserts=[make_row(Id=5, Name="new")],
            deletes=[make_row(Id=1, Name="old")],
        )
        delta.tables["Pass"] = TableDelta(
            "Pass",
            inserts=[make_row(Pno=50, Country="de", OwnerId=5)],
            deletes=[make_row(Pno=10, Country="fr", OwnerId=1)],
        )
        # a touched-but-net-empty table must contribute nothing
        delta.tables["__empty__"] = TableDelta("P2")
        return delta

    def test_deletes_run_referrer_first_inserts_referee_first(self):
        schema = holds_model().mapping.store_schema
        delta = self._delta(schema)
        texts = [s.text for s in delta_statements(delta, schema)]
        # Pass has an FK to P2: its delete precedes P2's, its insert follows
        assert texts.index('DELETE FROM "Pass" WHERE "Country" IS ? AND "OwnerId" IS ? AND "Pno" IS ?') < texts.index(
            'DELETE FROM "P2" WHERE "Id" IS ? AND "Name" IS ?'
        )
        insert_p2 = next(i for i, t in enumerate(texts) if t.startswith('INSERT INTO "P2"'))
        insert_pass = next(
            i for i, t in enumerate(texts) if t.startswith('INSERT INTO "Pass"')
        )
        assert insert_p2 < insert_pass

    def test_groups_are_never_empty(self):
        schema = holds_model().mapping.store_schema
        groups = grouped_delta_statements(self._delta(schema), schema)
        assert groups  # something to execute
        for _text, params in groups:
            assert params  # no empty executemany batches

    def test_empty_delta_lowers_to_no_statements(self):
        schema = holds_model().mapping.store_schema
        delta = StoreDelta()
        delta.tables["P2"] = TableDelta("P2")
        assert delta_statements(delta, schema) == []
        assert grouped_delta_statements(delta, schema) == []


# ---------------------------------------------------------------------------
# Structural sharing of store states (satellite: delta-aware caches)
# ---------------------------------------------------------------------------

class TestStructuralSharing:
    def test_apply_delta_adopts_untouched_tables(self):
        schema = holds_model().mapping.store_schema
        base = StoreState(schema)
        base.add_row("P2", make_row(Id=1, Name="a"))
        base.add_row("Pass", make_row(Pno=10, Country="fr", OwnerId=1))
        delta = StoreDelta()
        delta.tables["Pass"] = TableDelta(
            "Pass", inserts=[make_row(Pno=11, Country="de", OwnerId=1)]
        )
        result = apply_delta(base, delta)
        # untouched table: same storage object; touched table: rebuilt
        assert result._rows["P2"] is base._rows["P2"]
        assert result._rows["Pass"] is not base._rows["Pass"]
        assert len(result.rows("Pass")) == 2
        assert len(base.rows("Pass")) == 1

    def test_predecessor_unchanged_and_scan_order_kept(self):
        base = _numbered_state(200)
        before_rows = base.rows("T")
        before_snapshot = base.snapshot()
        dead = {make_row(K=k, V=f"v{k}") for k in (3, 70, 150)}
        successor = StoreState(base.schema)
        successor.carry_rows(base, "T", dead)
        successor.add_row("T", make_row(K=1000, V="new"))
        successor.add_row("T", make_row(K=1001, V="newer"))
        # the predecessor reads exactly as before ...
        assert base.rows("T") == before_rows
        assert base.snapshot() == before_snapshot
        # ... and the successor scans survivors in their old order, then
        # new rows in insertion order
        assert successor.rows("T") == tuple(
            r for r in before_rows if r not in dead
        ) + (make_row(K=1000, V="new"), make_row(K=1001, V="newer"))

    def test_writes_to_a_shared_table_leave_the_other_state_alone(self):
        base = _numbered_state(10)
        successor = StoreState(base.schema)
        successor.adopt_table(base, "T")
        assert successor._rows["T"] is base._rows["T"]
        successor.add_row("T", make_row(K=99, V="x"))
        base.add_row("T", make_row(K=98, V="y"))
        assert make_row(K=99, V="x") not in base.rows("T")
        assert make_row(K=98, V="y") not in successor.rows("T")
        assert len(base.rows("T")) == len(successor.rows("T")) == 11

    def test_key_index_has_no_null_keyed_entry(self):
        schema = _fk_schema()
        state = StoreState(schema)
        state.add_row("T", make_row(K=1, V="a"))
        state.add_row("R", make_row(K2=10, Ref=1))
        state.add_row("R", make_row(K2=11, Ref=None))
        index = state.key_index("R", ("Ref",))
        assert list(index) == [(1,)]
        assert (None,) not in index
        # maintained writes keep NULL keys out as well
        successor = StoreState(schema)
        successor.carry_rows(state, "R", {make_row(K2=10, Ref=1)})
        successor.add_row("R", make_row(K2=12, Ref=None))
        assert len(successor.key_index("R", ("Ref",))) == 0
        assert len(state.key_index("R", ("Ref",))) == 1

    def test_map_growth_and_compaction_keep_contents_and_order(self):
        from repro.relational import instances

        state = _numbered_state(5 * instances.CHUNK_ROWS)
        rows = list(state.rows("T"))
        table = state._rows["T"]
        # a map no successor shares stays one partition ...
        assert len(table._where._parts) == 1
        grown = StoreState(state.schema)
        grown.carry_rows(state, "T", set())
        grown_table = grown._rows["T"]
        # ... and the first successor splits it to fit
        assert len(grown_table._where._parts) > 1
        assert dict(grown_table._where.items()) == dict(table._where.items())
        assert grown.rows("T") == tuple(rows)
        assert len(grown.key_index("T", ("K",))._parts) > 1
        # kill well over half the slots: the chunks are rebuilt dense
        dead = set(rows[: 4 * instances.CHUNK_ROWS])
        successor = StoreState(state.schema)
        successor.carry_rows(grown, "T", dead)
        survivors = [r for r in rows if r not in dead]
        carried = successor._rows["T"]
        assert len(carried._chunks) < len(grown_table._chunks)
        assert successor.rows("T") == tuple(survivors)
        assert all(r in carried._chunks[carried._where[r]] for r in survivors)
        assert set(successor.key_index("T", ("K",))) == {
            (row[0][1],) for row in survivors
        }
        assert state.rows("T") == grown.rows("T") == tuple(rows)

    def test_carrying_one_dead_row_shares_all_but_a_few_objects(self):
        """O(|delta|) by identity: after dropping one row from a 10^4-row
        table, every chunk and partition but a constant few is still the
        predecessor's own object."""
        bulk = _numbered_state(10_000)
        state = StoreState(bulk.schema)
        state.carry_rows(bulk, "T", set())  # splits the bulk load's map
        state.key_index("T", ("K",))
        old = state._rows["T"]
        successor = StoreState(state.schema)
        successor.carry_rows(state, "T", {make_row(K=5000, V="v5000")})
        new = successor._rows["T"]

        def fresh(before, after):
            assert len(before) == len(after)
            return sum(a is not b for a, b in zip(before, after))

        assert len(old._chunks) > 100
        assert fresh(old._chunks, new._chunks) == 1
        assert len(old._where._parts) > 100
        assert fresh(old._where._parts, new._where._parts) == 1
        assert fresh(old.indexes[("K",)]._parts, new.indexes[("K",)]._parts) == 1

    def test_sqlite_state_cache_absorbs_incremental_saves(self):
        session = stage1_session("sqlite")
        try:
            session.save(ann_state(session.model.client_schema))
            session.backend.to_store_state()  # warm the cache
            session.save_delta(
                DeltaScript(
                    (
                        EntityOp(
                            "update", "Persons",
                            entity=Entity.of("Person", Id=1, Name="ann2"),
                        ),
                    )
                )
            )
            # the cache survived the write (absorbed, not invalidated) ...
            assert session.backend._state_cache is not None
            absorbed = session.backend.to_store_state().snapshot()
            # ... and agrees with a forced re-read from the database
            session.backend._invalidate()
            assert session.backend.to_store_state().snapshot() == absorbed
        finally:
            session.backend.close()


# ---------------------------------------------------------------------------
# The IvmError whole-state fallback
# ---------------------------------------------------------------------------

class TestFallback:
    def test_forced_ivm_error_falls_back_to_whole_state_save(self, monkeypatch):
        import repro.engine as engine_mod

        def refuse(*_args, **_kwargs):
            raise IvmError("forced for the test")

        monkeypatch.setattr(engine_mod, "push_client_delta", refuse)
        inc = stage1_session()
        ref = stage1_session()
        inc.save(ann_state(inc.model.client_schema))
        ref.save(ann_state(ref.model.client_schema))
        delta = inc.save_delta(
            DeltaScript(
                (
                    EntityOp(
                        "update", "Persons",
                        entity=Entity.of("Person", Id=1, Name="via-fallback"),
                    ),
                )
            )
        )
        with ref.edit() as state:
            state.update_entity(
                "Persons", Entity.of("Person", Id=1, Name="via-fallback")
            )
        assert not delta.empty
        assert inc.backend.snapshot() == ref.backend.snapshot()
        assert inc.serving_stats().epoch.ivm_fallbacks == 1
        # the fallback reseeded the counts: later saves work incrementally
        monkeypatch.undo()
        inc.save_delta(
            DeltaScript(
                (
                    EntityOp(
                        "update", "Persons",
                        entity=Entity.of("Person", Id=2, Name="bob2"),
                    ),
                )
            )
        )
        with ref.edit() as state:
            state.update_entity("Persons", Entity.of("Person", Id=2, Name="bob2"))
        assert inc.backend.snapshot() == ref.backend.snapshot()
        assert inc.serving_stats().epoch.ivm_fallbacks == 1
