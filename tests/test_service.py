"""The multi-tenant session service and its HTTP facade.

In-process tests drive :class:`SessionService` directly; the HTTP tests
run a real ``ThreadingHTTPServer`` on an ephemeral port and exercise the
wire protocol end to end, including concurrent queries racing an online
evolution.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.compiler import compile_mapping
from repro.incremental import CompiledModel
from repro.msl import client_schema_to_json, save_model
from repro.service import SessionService, UnknownTenant
from repro.service.http import make_server
from repro.workloads.paper_example import mapping_stage1, mapping_stage2


@pytest.fixture(scope="module")
def stage1_document():
    mapping = mapping_stage1()
    model = CompiledModel(mapping, compile_mapping(mapping).views)
    return save_model(model)


@pytest.fixture(scope="module")
def stage2_target():
    return {
        "clientSchema": client_schema_to_json(
            mapping_stage2().client_schema
        )
    }


def _ann():
    return {
        "merge": True,
        "state": {
            "entities": {
                "Persons": [
                    {"type": "Person", "values": {"Id": 1, "Name": "ann"}}
                ]
            }
        },
    }


class TestSessionService:
    def test_tenant_lifecycle(self, stage1_document):
        service = SessionService(default_backend="memory")
        assert service.tenants() == []
        created = service.create_tenant("acme", stage1_document)
        assert created["backend"] == "memory"
        assert service.tenants() == ["acme"]
        dropped = service.drop_tenant("acme")
        assert dropped["dropped"] is True
        with pytest.raises(UnknownTenant):
            service.query("acme", {"set": "Persons"})
        service.close()

    def test_tenants_are_isolated(self, stage1_document, stage2_target):
        service = SessionService()
        service.create_tenant("a", stage1_document)
        service.create_tenant("b", stage1_document)
        service.save("a", _ann())
        evolved = service.evolve("b", {"target": stage2_target})
        assert evolved["applied"]

        a = service.query("a", {"set": "Persons"})
        b = service.query("b", {"set": "Persons"})
        assert a["count"] == 1
        assert b["count"] == 0
        # tenant B moved to a different model; A's fingerprint is intact
        assert a["fingerprint"] != b["fingerprint"]
        stats_a = service.stats("a")
        assert stats_a["epoch"]["epochs_published"] == 2  # create + save
        service.close()

    def test_save_query_evolve_undo_roundtrip(
        self, stage1_document, stage2_target
    ):
        service = SessionService()
        service.create_tenant("t", stage1_document)
        base_fp = service.save("t", _ann())["fingerprint"]

        evolved = service.evolve("t", {"target": stage2_target})
        assert evolved["fingerprint"] != base_fp
        assert evolved["delta_ops"] > 0
        rows = service.query("t", {"set": "Persons", "where": "Id=1"})
        assert rows["rows"] == [
            {"type": "Person", "values": {"Id": 1, "Name": "ann"}}
        ]
        assert rows["fingerprint"] == evolved["fingerprint"]

        undone = service.undo("t")
        assert undone["fingerprint"] == base_fp
        assert service.query("t", {"set": "Persons"})["count"] == 1
        service.close()

    def test_load_returns_wire_state(self, stage1_document):
        service = SessionService()
        service.create_tenant("t", stage1_document)
        service.save("t", _ann())
        loaded = service.load("t")
        assert loaded["state"]["entities"]["Persons"] == [
            {"type": "Person", "values": {"Id": 1, "Name": "ann"}}
        ]
        service.close()

    def test_sqlite_tenant_with_pool(self, stage1_document):
        service = SessionService(default_backend="sqlite", pool_size=2)
        created = service.create_tenant("t", stage1_document)
        assert created["backend"] == "sqlite"
        service.save("t", _ann())
        rows = service.query("t", {"set": "Persons", "project": ["Name"]})
        assert rows["rows"] == [{"Name": "ann"}]
        stats = service.stats("t")
        assert stats["backend"] == "sqlite"
        assert stats["statements"] is not None
        service.close()

    def test_db_dir_creates_per_tenant_files(self, stage1_document, tmp_path):
        from repro.errors import SchemaError

        db_dir = tmp_path / "dbs"  # does not exist yet
        service = SessionService(
            default_backend="sqlite", db_dir=str(db_dir), pool_size=2
        )
        service.create_tenant("acme", stage1_document)
        service.save("acme", _ann())
        assert (db_dir / "acme.db").exists()
        assert service.query("acme", {"set": "Persons"})["count"] == 1
        with pytest.raises(SchemaError):
            service.create_tenant("../evil", stage1_document)
        service.close()

    def test_replacing_a_tenant_closes_the_old_session(self, stage1_document):
        service = SessionService(default_backend="sqlite")
        service.create_tenant("t", stage1_document)
        old_backend = service.session("t").backend
        service.create_tenant("t", stage1_document)
        assert old_backend.closed
        assert not service.session("t").backend.closed
        service.close()


class _Client:
    def __init__(self, host: str, port: int) -> None:
        self.base = f"http://{host}:{port}"

    def call(self, method: str, path: str, payload=None):
        data = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else None
        )
        request = urllib.request.Request(
            self.base + path, data=data, method=method
        )
        request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


@pytest.fixture
def http_service():
    service = SessionService()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield service, _Client(host, port)
    finally:
        server.shutdown()
        server.server_close()
        service.close()


class TestHttpFacade:
    def test_health_and_routing(self, http_service, stage1_document):
        _, client = http_service
        status, body = client.call("GET", "/health")
        assert status == 200 and body["ok"] is True
        status, _ = client.call("GET", "/nope")
        assert status == 404
        status, _ = client.call("POST", "/tenants/ghost/query", {"set": "X"})
        assert status == 404

    def test_full_roundtrip_over_http(
        self, http_service, stage1_document, stage2_target
    ):
        _, client = http_service
        status, created = client.call(
            "PUT", "/tenants/acme", {"model": stage1_document}
        )
        assert status == 200
        client.call("POST", "/tenants/acme/save", _ann())
        status, rows = client.call(
            "POST", "/tenants/acme/query", {"set": "Persons", "where": "Id=1"}
        )
        assert status == 200 and rows["count"] == 1
        status, evolved = client.call(
            "POST", "/tenants/acme/evolve", {"target": stage2_target}
        )
        assert status == 200
        assert evolved["fingerprint"] != created["fingerprint"]
        status, undone = client.call("POST", "/tenants/acme/undo")
        assert status == 200
        assert undone["fingerprint"] == created["fingerprint"]
        status, stats = client.call("GET", "/tenants/acme/stats")
        assert status == 200
        status, dropped = client.call("DELETE", "/tenants/acme")
        assert status == 200 and dropped["dropped"] is True

    def test_malformed_payloads_are_400(self, http_service, stage1_document):
        _, client = http_service
        client.call("PUT", "/tenants/t", {"model": stage1_document})
        status, body = client.call("POST", "/tenants/t/query", {})
        assert status == 400 and "set" in body["error"]
        status, body = client.call(
            "POST", "/tenants/t/query", {"set": "Persons", "where": "???"}
        )
        assert status == 400
        status, body = client.call("POST", "/tenants/t/save", {})
        assert status == 400
        status, body = client.call("POST", "/tenants/t/evolve", {})
        assert status == 400

    def test_concurrent_http_queries_during_evolution(
        self, http_service, stage1_document, stage2_target
    ):
        """Acceptance slice: HTTP readers race an online evolve/undo loop;
        every response must be consistent with a published fingerprint."""
        service, client = http_service
        client.call("PUT", "/tenants/t", {"model": stage1_document})
        client.call("POST", "/tenants/t/save", _ann())
        fingerprints = set()
        status, first = client.call("POST", "/tenants/t/query", {"set": "Persons"})
        fingerprints.add(first["fingerprint"])

        errors = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                status, body = client.call(
                    "POST", "/tenants/t/query", {"set": "Persons"}
                )
                if status != 200 or body["count"] != 1:
                    errors.append((status, body))
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(5):
                status, evolved = client.call(
                    "POST", "/tenants/t/evolve", {"target": stage2_target}
                )
                assert status == 200
                fingerprints.add(evolved["fingerprint"])
                status, _ = client.call("POST", "/tenants/t/undo")
                assert status == 200
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors[0]
        assert len(fingerprints) == 2
