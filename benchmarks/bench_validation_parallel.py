"""Validation pipeline scaling: workers and the cache hierarchy.

Two axes over the hub-and-rim workload (fan-out M >= 3, so validation
decomposes into many independent per-FK containment checks):

* **workers** — the check scheduler at 1, 2, 4 and 8 workers.  One worker
  is the byte-identical serial path; more run on the persistent process
  pool with work-stealing shards.  On a single-core container the sweep
  documents the overhead floor rather than a speedup — the JSON records
  ``cpu_count`` so readers can interpret the numbers.
* **cache** — cold vs warm-memory (one :class:`ValidationCache`, the
  intra-session re-validation scenario) vs warm-disk (a *fresh* cache
  over a shared :class:`PersistentCacheStore` — the fleet scenario), and
  finally **cross-process**: a real subprocess, sharing nothing with the
  parent but the cache directory, re-validating the same model.  The
  acceptance bar is the subprocess running >= 10x faster than the
  parent's cold compile.

``python benchmarks/bench_validation_parallel.py`` writes
``BENCH_validation.json`` with the full sweep.  ``REPRO_FULL=1`` adds
the scale tier — a 1002-type chain and a hub-and-rim at ~10x the
12-type Figure-4 point — which takes tens of minutes.  The pytest entry
points below track representative points (kept at (2, 2) so CI smoke
stays fast).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import pytest

from repro.bench.harness import full_scale
from repro.compiler import generate_views, validate_mapping
from repro.containment import ValidationCache
from repro.containment.persist import PersistentCacheStore
from repro.workloads.chain import chain_mapping
from repro.workloads.hub_rim import hub_rim_mapping, type_count

# (N, M): N hub levels, M rims per hub.  M >= 3 gives each mapped table
# several foreign keys, i.e. real fan-out for the scheduler.
SMOKE_POINT = (2, 2)
SWEEP_POINT = (3, 3)
WORKER_COUNTS = (1, 2, 4, 8)

# the scale tier (REPRO_FULL=1): the paper's 1002-type incremental
# target as a chain, plus a hub-and-rim with ~10x the types of the
# 12-type Figure-4 (3, 3) point.
FULL_CHAIN_TYPES = 1002
FULL_HUB_RIM = (3, 39, "TPT")  # 3 levels x 39 rims = 120 types


def _fixture(n: int, m: int, style: str = "TPH"):
    mapping = hub_rim_mapping(n, m, style)
    return mapping, generate_views(mapping)


@pytest.fixture(scope="module")
def smoke():
    return _fixture(*SMOKE_POINT)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_validation_worker_sweep(benchmark, smoke, workers):
    mapping, views = smoke
    benchmark.pedantic(
        lambda: validate_mapping(mapping, views, workers=workers),
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("cached", [False, True], ids=["cold", "warm"])
def test_validation_cache_ablation(benchmark, smoke, cached):
    mapping, views = smoke
    cache = ValidationCache()
    if cached:
        validate_mapping(mapping, views, cache=cache)  # warm it

    def run():
        report = validate_mapping(mapping, views, cache=cache)
        if cached:
            assert report.cache_hits > 0 and report.cache_misses == 0
        return report

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_validation_warm_disk(benchmark, smoke, tmp_path):
    """A fresh in-memory cache over a shared store: the fleet scenario."""
    mapping, views = smoke
    warmer = ValidationCache(store=PersistentCacheStore(str(tmp_path)))
    validate_mapping(mapping, views, cache=warmer)
    warmer.close()
    fresh = ValidationCache(store=PersistentCacheStore(str(tmp_path)))

    def run():
        report = validate_mapping(mapping, views, cache=fresh)
        assert report.l2_hits > 0 or report.cache_hits > 0
        return report

    benchmark.pedantic(run, rounds=1, iterations=1)
    fresh.close()


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _report_row(report, elapsed, **extra):
    row = {
        "elapsed_s": round(elapsed, 4),
        "coverage_checks": report.coverage_checks,
        "store_cells": report.store_cells,
        "containment_checks": report.containment_checks,
        "roundtrip_states": report.roundtrip_states,
    }
    row.update(extra)
    return row


# the subprocess side of the cross-process measurement: validate the
# named workload against $REPRO_CACHE_DIR, print (elapsed, l2 counters)
_CHILD = """
import json, os, sys, time
from repro.compiler import generate_views, validate_mapping
from repro.containment import ValidationCache
from repro.containment.persist import PersistentCacheStore
from repro.workloads.chain import chain_mapping
from repro.workloads.hub_rim import hub_rim_mapping

spec = json.loads(sys.argv[1])
if spec["model"] == "chain":
    mapping = chain_mapping(spec["types"])
else:
    mapping = hub_rim_mapping(spec["n"], spec["m"], spec["style"])
views = generate_views(mapping)
cache = ValidationCache(
    store=PersistentCacheStore(os.environ["REPRO_CACHE_DIR"])
)
t0 = time.perf_counter()
report = validate_mapping(mapping, views, cache=cache)
elapsed = time.perf_counter() - t0
cache.close()
print(json.dumps({
    "elapsed_s": elapsed,
    "l2_hits": report.l2_hits,
    "l2_misses": report.l2_misses,
}))
"""


def _spawn_child(workload_spec: dict, directory: str) -> dict:
    """Re-validate *workload_spec* in a real subprocess sharing only the
    cache *directory* with this process."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = directory
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(workload_spec)],
        env=env,
        capture_output=True,
        text=True,
    )
    if out.returncode != 0:
        return {"error": out.stderr[-500:]}
    return json.loads(out.stdout)


def _cross_process(
    workload_spec: dict, mapping, views
) -> tuple:
    """Cold-compile in this process (populating a shared store), then
    re-validate the same model in a real subprocess over the same
    directory.  The parent's cold time is the denominator — the exact
    price the second fleet member would otherwise have paid.

    Returns ``(row, cold_report, cold_s)`` so callers can reuse the
    cold run instead of validating the workload twice.
    """
    with tempfile.TemporaryDirectory() as directory:
        cache = ValidationCache(store=PersistentCacheStore(directory))
        cold, cold_s = _timed(
            lambda: validate_mapping(mapping, views, cache=cache)
        )
        cache.close()
        child = _spawn_child(workload_spec, directory)
    if "error" in child:
        return child, cold, cold_s
    row = {
        "parent_cold_s": round(cold_s, 4),
        "child_warm_s": round(child["elapsed_s"], 4),
        "child_l2_hits": child["l2_hits"],
        "child_l2_misses": child["l2_misses"],
        "speedup": (
            round(cold_s / child["elapsed_s"], 1) if child["elapsed_s"] else None
        ),
    }
    return row, cold, cold_s


def run_sweep(n: int, m: int) -> dict:
    mapping, views = _fixture(n, m)

    workers_axis = []
    for workers in WORKER_COUNTS:
        report, elapsed = _timed(
            lambda: validate_mapping(mapping, views, workers=workers)
        )
        workers_axis.append(_report_row(report, elapsed, workers=workers))

    # cache hierarchy: cold -> warm-memory (same cache object) ->
    # warm-disk (fresh cache, shared store)
    with tempfile.TemporaryDirectory() as directory:
        cache = ValidationCache(store=PersistentCacheStore(directory))
        cold, cold_s = _timed(lambda: validate_mapping(mapping, views, cache=cache))
        warm_mem, warm_mem_s = _timed(
            lambda: validate_mapping(mapping, views, cache=cache)
        )
        cache.close()
        fresh = ValidationCache(store=PersistentCacheStore(directory))
        warm_disk, warm_disk_s = _timed(
            lambda: validate_mapping(mapping, views, cache=fresh)
        )
        fresh.close()
    cache_axis = {
        "cold": {
            "elapsed_s": round(cold_s, 4),
            "cache_hits": cold.cache_hits,
            "cache_misses": cold.cache_misses,
        },
        "warm_memory": {
            "elapsed_s": round(warm_mem_s, 4),
            "cache_hits": warm_mem.cache_hits,
            "cache_misses": warm_mem.cache_misses,
        },
        "warm_disk": {
            "elapsed_s": round(warm_disk_s, 4),
            "l2_hits": warm_disk.l2_hits,
            "l2_misses": warm_disk.l2_misses,
        },
        "speedup_warm_memory": round(cold_s / warm_mem_s, 1) if warm_mem_s else None,
        "speedup_warm_disk": round(cold_s / warm_disk_s, 1) if warm_disk_s else None,
    }

    workload_spec = {"model": "hub_rim", "n": n, "m": m, "style": "TPH"}
    cross_row, _, _ = _cross_process(workload_spec, mapping, views)
    serial_s = workers_axis[0]["elapsed_s"]
    return {
        "workload": dict(workload_spec, types=type_count(n, m)),
        "cpu_count": os.cpu_count(),
        "workers": workers_axis,
        "speedup_vs_serial": {
            str(row["workers"]): round(serial_s / row["elapsed_s"], 2)
            for row in workers_axis
        },
        "cache": cache_axis,
        "cross_process": cross_row,
        "per_check_timings_serial": {
            # recomputed serially with timings for the profile section
        },
    }


def run_scale_tier() -> dict:
    """REPRO_FULL: the 1002-type chain (the paper's incremental target
    size) and a hub-and-rim at ~10x the types of the Figure-4 (3, 3)
    point.  Each tier's single cold run both times the validation and
    populates the shared store its cross-process child warms from — the
    big models are never validated cold twice."""
    tiers = {}

    chain = chain_mapping(FULL_CHAIN_TYPES)
    chain_views = generate_views(chain)
    cross, report, elapsed = _cross_process(
        {"model": "chain", "types": FULL_CHAIN_TYPES}, chain, chain_views
    )
    tiers["chain"] = _report_row(report, elapsed, types=FULL_CHAIN_TYPES)
    tiers["chain"]["cross_process"] = cross

    n, m, style = FULL_HUB_RIM
    mapping, views = _fixture(n, m, style)
    cross, report, elapsed = _cross_process(
        {"model": "hub_rim", "n": n, "m": m, "style": style}, mapping, views
    )
    tiers["hub_rim"] = _report_row(
        report,
        elapsed,
        n=n,
        m=m,
        style=style,
        types=type_count(n, m),
    )
    tiers["hub_rim"]["cross_process"] = cross
    return tiers


def main() -> None:
    n, m = SWEEP_POINT
    result = run_sweep(n, m)

    mapping, views = _fixture(n, m)
    report = validate_mapping(mapping, views)
    result["per_check_timings_serial"] = {
        name: round(seconds, 4) for name, seconds in report.check_timings.items()
    }

    if full_scale():
        result["scale"] = run_scale_tier()

    out = os.path.join(os.path.dirname(__file__), "..", "BENCH_validation.json")
    with open(os.path.abspath(out), "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
