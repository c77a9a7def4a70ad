"""Integration tests: the command-line interface."""

import json
import re

import pytest

from repro.cli import main
from repro.msl import FORMAT_VERSION, client_schema_to_json, save_model, store_schema_to_json
from repro.workloads.paper_example import client_schema_stage4, store_schema


@pytest.fixture
def mapping_document(tmp_path):
    """A not-yet-compiled document with Figure-5-syntax fragments."""
    document = {
        "format": FORMAT_VERSION,
        "clientSchema": client_schema_to_json(client_schema_stage4()),
        "storeSchema": store_schema_to_json(store_schema(4)),
        "fragments": """
            SELECT p.Id, p.Name
            FROM Persons p
            WHERE p IS OF (ONLY Person) OR p IS OF Employee
            =
            SELECT Id, Name
            FROM HR

            SELECT e.Id, e.Department
            FROM Persons e
            WHERE e IS OF Employee
            =
            SELECT Id, Dept
            FROM Emp

            SELECT c.Id, c.Name, c.CredScore, c.BillAddr
            FROM Persons c
            WHERE c IS OF Customer
            =
            SELECT Cid, Name, Score, Addr
            FROM Client

            SELECT s.Customer.Id, s.Employee.Id
            FROM Supports s
            =
            SELECT Cid, Eid
            FROM Client
            WHERE Eid IS NOT NULL
        """,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    return path


def test_compile_command(mapping_document, tmp_path, capsys):
    out = tmp_path / "compiled.json"
    assert main(["compile", str(mapping_document), "-o", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["views"]["queryViews"]


def test_compile_then_validate(mapping_document, tmp_path):
    out = tmp_path / "compiled.json"
    main(["compile", str(mapping_document), "-o", str(out)])
    assert main(["validate", str(out)]) == 0


def test_validate_stats(mapping_document, tmp_path, capsys):
    out = tmp_path / "compiled.json"
    main(["compile", str(mapping_document), "-o", str(out)])
    assert main(["validate", str(out), "--stats"]) == 0
    printed = capsys.readouterr().out
    assert "containment fast path:" in printed
    assert "symbolic discharged" in printed
    assert "slowest checks:" in printed


def test_validate_no_symbolic(mapping_document, tmp_path, capsys):
    out = tmp_path / "compiled.json"
    main(["compile", str(mapping_document), "-o", str(out)])
    assert main(["validate", str(out), "--no-symbolic", "--stats"]) == 0
    printed = capsys.readouterr().out
    assert "symbolic discharged : 0/" in printed


def test_validate_workers_matches_serial(tmp_path, capsys):
    """`--workers 2` runs the checks on the process pool and reports the
    serial run's counters."""
    from repro.compiler import generate_views
    from repro.incremental import CompiledModel
    from repro.workloads.hub_rim import hub_rim_mapping

    mapping = hub_rim_mapping(2, 2, "TPH")
    path = tmp_path / "hub.json"
    model = CompiledModel(mapping, generate_views(mapping))
    path.write_text(json.dumps(save_model(model)))

    def validate(workers):
        capsys.readouterr()
        assert main(["validate", str(path), "--workers", workers]) == 0
        printed = capsys.readouterr().out
        counters = re.search(
            r"coverage=\d+, cells=\d+, containments=\d+, roundtrip_states=\d+",
            printed,
        )
        assert counters is not None, printed
        return counters.group(0), printed

    serial, _ = validate("1")
    parallel, printed = validate("2")
    assert parallel == serial
    assert "workers=2" in printed


def test_views_command(mapping_document, tmp_path, capsys):
    out = tmp_path / "compiled.json"
    main(["compile", str(mapping_document), "-o", str(out)])
    capsys.readouterr()
    assert main(["views", str(out), "Person"]) == 0
    text = capsys.readouterr().out
    assert "QueryView[Person]" in text
    assert main(["views", str(out), "Nope"]) == 1


def test_views_all(mapping_document, tmp_path, capsys):
    out = tmp_path / "compiled.json"
    main(["compile", str(mapping_document), "-o", str(out)])
    capsys.readouterr()
    assert main(["views", str(out)]) == 0
    text = capsys.readouterr().out
    assert "UpdateView[Client]" in text


def test_evolve_command(tmp_path, stage1_compiled):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(save_model(stage1_compiled)))
    target_path = tmp_path / "target.json"
    target_path.write_text(
        json.dumps({"clientSchema": client_schema_to_json(client_schema_stage4())})
    )
    out = tmp_path / "evolved.json"
    code = main(
        [
            "evolve", str(model_path), str(target_path),
            "-o", str(out), "--style", "Customer=TPC",
        ]
    )
    assert code == 0
    document = json.loads(out.read_text())
    names = {t["name"] for t in document["clientSchema"]["entityTypes"]}
    assert {"Person", "Employee", "Customer"} <= names


def test_missing_file_reports_error(capsys):
    assert main(["validate", "/no/such/file.json"]) == 2


def test_uncompiled_document_rejected_by_views(mapping_document):
    assert main(["views", str(mapping_document)]) == 2


# ---------------------------------------------------------------------------
# Backend-aware verbs: query, ddl, evolve --db
# ---------------------------------------------------------------------------

@pytest.fixture
def compiled_model_path(mapping_document, tmp_path):
    out = tmp_path / "compiled.json"
    main(["compile", str(mapping_document), "-o", str(out)])
    return out


def _populated_db(compiled_model_path, tmp_path):
    """A SQLite file holding the Figure 1 data for the compiled model."""
    from tests.conftest import figure1_state
    from repro.msl import load_model
    from repro.session import OrmSession

    model = load_model(json.loads(compiled_model_path.read_text()))
    db_path = str(tmp_path / "app.db")
    session = OrmSession.create(model, backend="sqlite", db_path=db_path)
    session.save(figure1_state(model.client_schema))
    session.backend.close()
    return db_path


def test_ddl_prints_schema_script(compiled_model_path, capsys):
    assert main(["ddl", str(compiled_model_path)]) == 0
    text = capsys.readouterr().out
    assert text.count("CREATE TABLE") >= 3
    assert '"HR"' in text
    assert "PRIMARY KEY" in text


def test_ddl_with_target_prints_migration_script(tmp_path, stage1_compiled, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(save_model(stage1_compiled)))
    target_path = tmp_path / "target.json"
    target_path.write_text(
        json.dumps({"clientSchema": client_schema_to_json(client_schema_stage4())})
    )
    code = main(
        [
            "ddl", str(model_path), "--target", str(target_path),
            "--style", "Customer=TPC",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("BEGIN;")
    assert "CREATE TABLE" in text
    assert text.rstrip().endswith("COMMIT;")


def test_query_runs_on_sqlite_db(compiled_model_path, tmp_path, capsys):
    db_path = _populated_db(compiled_model_path, tmp_path)
    capsys.readouterr()
    code = main(
        [
            "query", str(compiled_model_path), "Persons",
            "--where", "Id>1", "--db", db_path,
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "3 result(s)" in captured.err
    assert "Employee" in captured.out


def test_query_projection_and_string_literal(compiled_model_path, tmp_path, capsys):
    db_path = _populated_db(compiled_model_path, tmp_path)
    capsys.readouterr()
    code = main(
        [
            "query", str(compiled_model_path), "Persons",
            "--where", "Name='ann'", "--project", "Id,Name",
            "--db", db_path,
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "1 result(s)" in captured.err
    assert "'ann'" in captured.out


def test_query_explain_prints_generated_sql(compiled_model_path, capsys):
    code = main(
        [
            "query", str(compiled_model_path), "Persons",
            "--explain", "--backend", "sqlite",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "SELECT" in text
    assert "-- constructs" in text


def test_query_explain_memory_prints_entity_sql(compiled_model_path, capsys):
    code = main(
        [
            "query", str(compiled_model_path), "Persons",
            "--explain", "--backend", "memory",
        ]
    )
    assert code == 0
    assert "UNION ALL" in capsys.readouterr().out


def test_query_bad_where_reports_error(compiled_model_path, capsys):
    code = main(
        ["query", str(compiled_model_path), "Persons", "--where", "!!!"]
    )
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err


def test_db_without_sqlite_backend_rejected(compiled_model_path, capsys):
    code = main(
        [
            "query", str(compiled_model_path), "Persons",
            "--backend", "memory", "--db", "x.db",
        ]
    )
    assert code == 2
    assert "--db requires" in capsys.readouterr().err


def test_evolve_migrates_sqlite_data(tmp_path, stage1_compiled, capsys):
    from repro.edm import Entity
    from repro.session import OrmSession

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(save_model(stage1_compiled)))
    db_path = str(tmp_path / "app.db")
    session = OrmSession.create(stage1_compiled, backend="sqlite", db_path=db_path)
    with session.edit() as state:
        state.add_entity("Persons", Entity.of("Person", Id=1, Name="ann"))
        state.add_entity("Persons", Entity.of("Person", Id=2, Name="bob"))
    session.backend.close()

    target_path = tmp_path / "target.json"
    target_path.write_text(
        json.dumps({"clientSchema": client_schema_to_json(client_schema_stage4())})
    )
    out = tmp_path / "evolved.json"
    code = main(
        [
            "evolve", str(model_path), str(target_path),
            "-o", str(out), "--style", "Customer=TPC",
            "--batch", "--db", db_path,
        ]
    )
    assert code == 0
    assert "migrated store" in capsys.readouterr().err
    # the data survived the schema evolution inside the database file
    capsys.readouterr()
    assert main(["query", str(out), "Persons", "--db", db_path]) == 0
    captured = capsys.readouterr()
    assert "2 result(s)" in captured.err


def test_plan_with_backend_previews_migration(tmp_path, stage1_compiled, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(save_model(stage1_compiled)))
    target_path = tmp_path / "target.json"
    target_path.write_text(
        json.dumps({"clientSchema": client_schema_to_json(client_schema_stage4())})
    )
    code = main(
        [
            "plan", str(model_path), str(target_path),
            "--style", "Customer=TPC", "--backend", "sqlite",
        ]
    )
    assert code == 0
    assert "MigrationScript" in capsys.readouterr().out


def test_query_repeat_and_stats(compiled_model_path, tmp_path, capsys):
    db_path = _populated_db(compiled_model_path, tmp_path)
    capsys.readouterr()
    code = main(
        [
            "query", str(compiled_model_path), "Persons",
            "--where", "Id>1", "--repeat", "5", "--stats", "--db", db_path,
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "3 result(s) x 5 repeat(s)" in captured.err
    sections = {
        line.split(":")[0].strip(): line
        for line in captured.err.splitlines()
        if line.startswith("  ")
    }
    # one plan lookup per read; the answer is admitted on its second miss
    assert "hits=4 misses=1 " in sections["plan cache"]
    assert "hits=3 misses=2 " in sections["result cache"]
    assert "statement cache" in sections


def test_stats_verb_prints_cache_counters(compiled_model_path, tmp_path, capsys):
    db_path = _populated_db(compiled_model_path, tmp_path)
    capsys.readouterr()
    assert main(["stats", str(compiled_model_path), "--db", db_path]) == 0
    printed = capsys.readouterr().out
    assert "plan cache" in printed
    assert "statement cache" in printed
    assert "validation cache" in printed
    assert "leaf digests" in printed


def test_stats_verb_on_memory_backend(compiled_model_path, capsys):
    assert main(["stats", str(compiled_model_path), "--backend", "memory"]) == 0
    printed = capsys.readouterr().out
    assert "serving on memory" in printed
    assert "statement cache" not in printed


def test_cache_warm_stats_clear_roundtrip(compiled_model_path, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(
        ["cache", "warm", str(compiled_model_path), "--cache-dir", cache_dir]
    ) == 0
    captured = capsys.readouterr()
    assert "warmed:" in captured.out

    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    printed = capsys.readouterr().out
    assert "PersistentCacheStats" in printed
    assert "entries=0" not in printed  # warm populated the store

    # a fresh validate through the same directory is served from disk
    assert main(
        ["validate", str(compiled_model_path), "--cache-dir", cache_dir]
    ) == 0
    assert "l2=" in capsys.readouterr().out

    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "entries=0" in capsys.readouterr().out


def test_cache_warm_requires_model(tmp_path, capsys):
    code = main(["cache", "warm", "--cache-dir", str(tmp_path / "c")])
    assert code == 2
    assert "MODEL" in capsys.readouterr().err


def test_cache_requires_a_directory(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    code = main(["cache", "stats"])
    assert code == 2
    assert "cache directory" in capsys.readouterr().err
