"""Toy-size smoke test of the end-to-end benchmark.

Each workload runs at 10^3 rows for 3 rounds (the customer model at
scale 0.15 for 2 SMO pairs) and must pass its oracle and emit every
metric BENCHMARK.json names.  Run with
``PYTHONPATH=src python -m pytest benchmarks/e2e``; tier-1's testpaths
do not include it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import e2e_trace  # noqa: E402
import e2e_workloads  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
#: rounds never stop on time at toy size; the round caps end them
NO_DEADLINE = 600.0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_emits_every_end_to_end_metric(name):
    record = e2e_workloads.run_workload(name, seed=1, seconds=NO_DEADLINE, toy=True)
    assert record.failed == 0 and record.final_ok, record.errors
    assert len(record.setup_times) == e2e_workloads.SETUPS
    metrics = run.end_to_end_metrics(record)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert dict(run.END_TO_END) == expected
    assert set(metrics) == set(expected)
    assert all(value > 0 for value in metrics.values()), metrics


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(name):
    from repro.session import OrmSession

    original_query = OrmSession.__dict__["query"]
    tracer = e2e_trace.Tracer()
    record = e2e_workloads.run_workload(
        name, seed=1, seconds=NO_DEADLINE, tracer=tracer, toy=True
    )
    assert record.failed == 0 and record.final_ok, record.errors
    # the patches are gone once the run ends
    assert OrmSession.__dict__["query"] is original_query
    metrics = run.per_layer_metrics(record, tracer)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: unit for n, (_v, unit) in metrics.items()} == expected
    assert metrics["engine.query.self_ms"][0] > 0
    if name == "evolve":
        assert metrics["smo.compile_batch.self_ms"][0] > 0
        assert metrics["validation.scheduled_checks"][0] > 0
    else:
        # set sizes stay fixed and every write touches all four tables,
        # so each write carries exactly the whole 10^3-row store
        assert metrics["relational.carry_rows.rows_copied"][0] == 1000
    # every span's parent was recorded, and spans of one op share its id
    ids = {span[0]: span for span in tracer.spans}
    for span in tracer.spans:
        if span[1] is not None:
            assert ids[span[1]][2] == span[2]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "hot_reads",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
