#!/usr/bin/env python
"""Regression gates over the serving benchmarks.

Six JSON reports and the gates on each:

**BENCH_query_serving.json** — fails (exit 1) if the serving fast path
regressed below the uncached pipeline where the cache is the whole
story: the memory backend's warm hit path must be at least as fast as
uncached serving at the translation-bound point
(``warm_over_uncached >= 1.0``).  PR 5 shipped with 0.67x there — the
plan cache made the memory backend *slower* — and the compiled
physical-plan layer exists to keep that from coming back.

**BENCH_serving_concurrent.json** — the epoch-engine gates:

* ``torn_reads`` (responses the benchmark's readers found inconsistent
  with the epoch fingerprint they came with) must be 0 on every backend
  — a single one is a correctness bug, not a regression;
* untouched-set plans must survive the churn
  (``untouched_plans_survived``);
* churn p99 latency must stay within FACTOR× of the concurrency
  baseline.  The baseline is ``max(query_only p99, single_warm p99 ×
  clients)`` rather than the raw single-threaded warm latency: on
  CPython, N reader threads time-slice one interpreter, so per-request
  p99 inflates roughly N× from scheduling alone, writer or no writer —
  gating on raw single-thread latency would fail even with the writer
  idle.  What the factor actually bounds is the *additional* tail the
  writer's publication windows add on top of thread scheduling.  FACTOR
  defaults to 2 and can be overridden with ``REPRO_CHURN_P99_FACTOR``.

**BENCH_incremental_writes.json** — the incremental-write (IVM) gates:

* every measured size must report ``equivalent: true`` — the
  incrementally-maintained store byte-identical to a whole-state
  lowering — and ``ivm_fallbacks == 0`` (a fallback means a delta shape
  the writeplan compiler should handle was silently re-materialized);
* at the 10^5-row tier, ``save_delta`` must beat the whole-state save
  by at least MIN_SPEEDUP× on every backend.  That is the whole point
  of the incremental write path: O(|delta|) instead of O(|state|) per
  save.  MIN_SPEEDUP defaults to 5 and can be overridden with
  ``REPRO_INCREMENTAL_MIN_SPEEDUP``;
* the slope gate: ``save_delta`` is documented as O(|delta|), so its
  ``incremental_ms`` at 10^5 rows may be at most MAX_SLOPE× (2×) its
  value at 10^4 rows on every backend.  A ratio gate alone passed while
  both paths copied whole tables; ten times the rows at the same delta
  must not cost ten times as much;
* every measured size must report ``layers_ms``, the per-write split of
  ``save_delta`` into its six layers (WRITE_LAYERS), so a regression
  shows which layer it is in.

**BENCH_validation.json** — the validation-scaling gates:

* a fresh cache over the warm persistent store must beat the cold
  compile by at least WARM_DISK_MIN_SPEEDUP× (default 5, override with
  ``REPRO_WARM_DISK_MIN_SPEEDUP``) — the whole point of the
  cross-process cache is that the second fleet member never pays the
  first one's compile;
* the cross-process child (a real subprocess sharing only the cache
  directory) is held to the same floor;
* at 4 workers the process pool must reach parallel efficiency
  >= 0.5 — speedup >= 2.0× over serial (override with
  ``REPRO_MULTICORE_MIN_EFFICIENCY``).  Auto-skipped when the recorded
  ``cpu_count`` is below 2: a single-core container cannot speed
  anything up by adding workers, and the sweep there documents the
  overhead floor instead.

**BENCH_result_cache.json** — the materialized result tier gates:

* ``stale_reads`` must be 0 at every size on every backend — a
  maintained entry that disagrees with re-execution is a correctness
  bug, full stop — and so must ``validation_failures`` (an entry served
  under the wrong model fingerprint);
* ``fallbacks`` must stay bounded (<= MAX_FALLBACKS, default 5): the
  chain workload's shapes are all maintainable, so a fallback means the
  read-side delta compiler stopped recognizing a shape it owns;
* at the 10^5-row tier, the maintained read rate must beat re-execution
  by at least RESULT_MIN_SPEEDUP× on at least one backend.  That is the
  tier's whole point: O(1) warm reads that survive writes instead of
  O(|state|) re-execution per read.  RESULT_MIN_SPEEDUP defaults to 3
  and can be overridden with ``REPRO_RESULT_CACHE_MIN_SPEEDUP``;
* one-shot reads (``Id = k`` keys that never repeat) must cost at most
  ONE_SHOT_MAX_COST_RATIO× (1.5×) their re-execution at the 10^5-row
  tier on every backend, and no one-shot read may leave an entry behind
  at any size.  The tier admits an answer on its second miss; a read
  that is never repeated must not pay for a materialization, nor make
  later writes maintain one;
* the first-read slope gate: on every backend, the first one-shot read
  of a table after a write (``first_read_ms``) may cost at most
  MAX_SLOPE× (2×) more at 10^5 rows than at 10^4.  Memory's compiled
  plans probe the store's key indexes, which every write carries in
  O(|delta|), so a write must not leave the next read an O(rows) index
  build; SQLite's generated SQL keeps its predicates sargable, so an
  ``Id = k`` read searches the primary key instead of scanning the
  table;
* the upkeep slope gates: on every backend, the time a write spends
  maintaining the tier (``upkeep_ms_per_delta``, the median time inside
  ``ResultCache.successor_for_delta``) may grow at most MAX_SLOPE× (2×)
  from 10^4 to 10^5 rows, and at most MAX_SLOPE× from the fewest to the
  most admitted ``Id = k`` entries in the ``admitted_points`` block
  (100 and 1,000).  A write visits only the entries its rows reach and
  copies only the partitions and chunks it changes, so neither the
  table size nor the number of entries it cannot reach may show in its
  cost.  A report without either field fails.

**BENCH_smo_batch.json** — two gates:

* the fingerprint gate: the model fingerprint after one SMO and after
  its undo may each cost at most FINGERPRINT_MAX_COST_RATIO× (0.1×)
  the cold fingerprint of a freshly built model.  The model's leaves
  carry cached digests, so a fingerprint after an SMO walks only the
  leaves the SMO rebuilt; a fingerprint that re-walks the whole model
  again costs about as much as the cold one;
* the migration slope gate: on every backend, the summed evolve time
  of the six end-to-end SMO kinds at the block's largest size (500
  entities per set) may be at most MAX_SLOPE× (2×) its value at the
  smallest (50 per set), and so may the summed undo time.  An evolve
  migrates only its stale region and carries every other table by
  reference, and its undo migrates that region back, so ten times the
  data must not cost ten times as much.  The block must span at least
  MIGRATION_MIN_SPAN× (10×) in size.

Usage::

    python scripts/check_serving_regression.py [query.json] [concurrent.json] \
        [incremental.json] [validation.json] [result_cache.json] \
        [smo_batch.json]
"""

import json
import os
import sys

DEFAULT_FACTOR = 2.0
DEFAULT_MIN_SPEEDUP = 5.0
GATED_SIZE = "100000"
#: the slope gate: incremental_ms at GATED_SIZE over SLOPE_BASE_SIZE
SLOPE_BASE_SIZE = "10000"
MAX_SLOPE = 2.0
#: the save_delta layers BENCH_incremental_writes.json splits each write into
WRITE_LAYERS = (
    "replay",
    "writeplan_lookup",
    "push",
    "store_apply",
    "constraint_check",
    "result_maintenance",
)
#: the migration block's largest size over its smallest, at least
MIGRATION_MIN_SPAN = 10
DEFAULT_WARM_DISK_MIN_SPEEDUP = 5.0
DEFAULT_MULTICORE_MIN_EFFICIENCY = 0.5
MULTICORE_GATED_WORKERS = 4
DEFAULT_RESULT_MIN_SPEEDUP = 3.0
RESULT_MAX_FALLBACKS = 5
ONE_SHOT_MAX_COST_RATIO = 1.5
FINGERPRINT_MAX_COST_RATIO = 0.1


def check_query_serving(path: str) -> int:
    with open(path) as handle:
        data = json.load(handle)
    point = data["serving"]["translation_bound"]["memory"]
    ratio = point["warm_over_uncached"]
    print(
        f"memory backend at translation_bound: warm_over_uncached={ratio} "
        f"(warm {point['warm_qps']} qps vs uncached {point['uncached_qps']} qps)"
    )
    if ratio is None or ratio < 1.0:
        print(
            "FAIL: warm plan-cache hits are slower than the uncached "
            "pipeline on the memory backend — the compiled-plan fast "
            "path has regressed",
            file=sys.stderr,
        )
        return 1
    print("OK: warm serving beats the uncached pipeline")
    return 0


def check_concurrent(path: str) -> int:
    with open(path) as handle:
        data = json.load(handle)
    factor = float(os.environ.get("REPRO_CHURN_P99_FACTOR", DEFAULT_FACTOR))
    failures = 0
    for backend, result in data["backends"].items():
        torn = result["torn_reads"]
        single_p99 = result["single_warm"]["p99_ms"]
        query_only_p99 = result["query_only"]["p99_ms"]
        churn_p99 = result["churn"]["p99_ms"]
        clients = result["clients"]
        baseline = max(query_only_p99, single_p99 * clients)
        budget = factor * baseline
        survived = result["plan_cache"]["untouched_plans_survived"]
        print(
            f"{backend}: torn={torn} churn_p99={churn_p99}ms "
            f"baseline={round(baseline, 3)}ms budget={round(budget, 3)}ms "
            f"(factor {factor}) retries={result['read_retries']} "
            f"plans_survived={survived}"
        )
        if torn != 0:
            print(
                f"FAIL [{backend}]: {torn} torn read(s) — a response was "
                "not consistent with exactly one epoch fingerprint",
                file=sys.stderr,
            )
            failures += 1
        if not survived:
            print(
                f"FAIL [{backend}]: untouched-set plans did not survive "
                "the evolution churn — successor carry-over is broken",
                file=sys.stderr,
            )
            failures += 1
        if churn_p99 > budget:
            print(
                f"FAIL [{backend}]: churn p99 {churn_p99}ms exceeds "
                f"{factor}x the concurrency baseline {round(baseline, 3)}ms",
                file=sys.stderr,
            )
            failures += 1
    if failures:
        return 1
    print("OK: zero torn reads, plans survived, churn p99 within budget")
    return 0


def check_incremental(path: str) -> int:
    with open(path) as handle:
        data = json.load(handle)
    min_speedup = float(
        os.environ.get("REPRO_INCREMENTAL_MIN_SPEEDUP", DEFAULT_MIN_SPEEDUP)
    )
    failures = 0
    for backend, result in data["backends"].items():
        for size, point in result["sizes"].items():
            print(
                f"{backend} @ {size} rows: whole={point['whole_state_ms']}ms "
                f"incremental={point['incremental_ms']}ms "
                f"speedup={point['speedup']}x "
                f"equivalent={point['equivalent']} "
                f"fallbacks={point['ivm_fallbacks']}"
            )
            if not point["equivalent"]:
                print(
                    f"FAIL [{backend} @ {size}]: incremental store diverged "
                    "from the whole-state lowering — the IVM delta rules "
                    "are wrong",
                    file=sys.stderr,
                )
                failures += 1
            if point["ivm_fallbacks"]:
                print(
                    f"FAIL [{backend} @ {size}]: {point['ivm_fallbacks']} "
                    "IVM fallback(s) — a supported delta shape was "
                    "re-materialized whole",
                    file=sys.stderr,
                )
                failures += 1
            layers = point.get("layers_ms") or {}
            missing = [layer for layer in WRITE_LAYERS if layer not in layers]
            if missing:
                print(
                    f"FAIL [{backend} @ {size}]: no per-layer save_delta "
                    f"split for {missing} — regenerate the report with "
                    "benchmarks/bench_incremental_writes.py",
                    file=sys.stderr,
                )
                failures += 1
            else:
                print(
                    "  save_delta layers (ms/write): "
                    + ", ".join(f"{layer}={layers[layer]}" for layer in WRITE_LAYERS)
                )
        gated = result["sizes"].get(GATED_SIZE)
        if gated is None:
            print(
                f"({backend}: no {GATED_SIZE}-row tier; speedup gate skipped)"
            )
            continue
        if gated["speedup"] is None or gated["speedup"] < min_speedup:
            print(
                f"FAIL [{backend}]: save_delta speedup {gated['speedup']}x "
                f"at {GATED_SIZE} rows is below the {min_speedup}x floor — "
                "the incremental write path no longer pays for itself",
                file=sys.stderr,
            )
            failures += 1
        base = result["sizes"].get(SLOPE_BASE_SIZE)
        if base is None:
            print(
                f"FAIL [{backend}]: no {SLOPE_BASE_SIZE}-row tier to fit the "
                "save_delta slope against",
                file=sys.stderr,
            )
            failures += 1
            continue
        slope = gated["incremental_ms"] / base["incremental_ms"]
        print(
            f"{backend}: save_delta {base['incremental_ms']}ms at "
            f"{SLOPE_BASE_SIZE} rows -> {gated['incremental_ms']}ms at "
            f"{GATED_SIZE} rows (slope {slope:.2f}x, ceiling {MAX_SLOPE}x)"
        )
        if slope > MAX_SLOPE:
            print(
                f"FAIL [{backend}]: save_delta grows {slope:.2f}x from "
                f"{SLOPE_BASE_SIZE} to {GATED_SIZE} rows, above the "
                f"{MAX_SLOPE}x ceiling — a layer documented as O(|delta|) "
                "scales with the table",
                file=sys.stderr,
            )
            failures += 1
    if failures:
        return 1
    print(
        f"OK: incremental saves equivalent, no fallbacks, >= {min_speedup}x "
        f"at {GATED_SIZE} rows, slope <= {MAX_SLOPE}x from {SLOPE_BASE_SIZE}"
    )
    return 0


def check_validation(path: str) -> int:
    with open(path) as handle:
        data = json.load(handle)
    min_speedup = float(
        os.environ.get(
            "REPRO_WARM_DISK_MIN_SPEEDUP", DEFAULT_WARM_DISK_MIN_SPEEDUP
        )
    )
    min_efficiency = float(
        os.environ.get(
            "REPRO_MULTICORE_MIN_EFFICIENCY", DEFAULT_MULTICORE_MIN_EFFICIENCY
        )
    )
    failures = 0

    cache = data["cache"]
    warm_disk = cache.get("speedup_warm_disk")
    print(
        f"cache hierarchy: cold={cache['cold']['elapsed_s']}s "
        f"warm_memory={cache['warm_memory']['elapsed_s']}s "
        f"warm_disk={cache['warm_disk']['elapsed_s']}s "
        f"(disk speedup {warm_disk}x, floor {min_speedup}x)"
    )
    if warm_disk is None or warm_disk < min_speedup:
        print(
            f"FAIL: warm-disk validation speedup {warm_disk}x is below the "
            f"{min_speedup}x floor — a fresh process re-pays the cold "
            "compile despite the shared persistent cache",
            file=sys.stderr,
        )
        failures += 1
    if cache["warm_disk"].get("l2_misses"):
        print(
            f"FAIL: warm-disk run had {cache['warm_disk']['l2_misses']} L2 "
            "miss(es) — the persistent store did not hold the full check "
            "set after a cold validation",
            file=sys.stderr,
        )
        failures += 1

    cross = data.get("cross_process", {})
    if "error" in cross:
        print(f"FAIL: cross-process child failed: {cross['error']}", file=sys.stderr)
        failures += 1
    elif cross:
        print(
            f"cross-process: parent_cold={cross['parent_cold_s']}s "
            f"child_warm={cross['child_warm_s']}s "
            f"(speedup {cross['speedup']}x, l2_hits={cross['child_l2_hits']})"
        )
        if cross["speedup"] is None or cross["speedup"] < min_speedup:
            print(
                f"FAIL: cross-process speedup {cross['speedup']}x is below "
                f"the {min_speedup}x floor",
                file=sys.stderr,
            )
            failures += 1
        if not cross["child_l2_hits"]:
            print(
                "FAIL: the subprocess recorded zero L2 hits — it is not "
                "reading the shared cache directory",
                file=sys.stderr,
            )
            failures += 1

    cpu_count = data.get("cpu_count") or 1
    speedups = data.get("speedup_vs_serial", {})
    at_gated = speedups.get(str(MULTICORE_GATED_WORKERS))
    if cpu_count < 2:
        print(
            f"(cpu_count={cpu_count}: multicore efficiency gate skipped — "
            f"recorded {MULTICORE_GATED_WORKERS}-worker speedup "
            f"{at_gated}x documents the overhead floor)"
        )
    else:
        usable = min(MULTICORE_GATED_WORKERS, cpu_count)
        floor = min_efficiency * usable
        print(
            f"multicore: {MULTICORE_GATED_WORKERS} workers on "
            f"{cpu_count} cpus -> speedup {at_gated}x (floor {floor}x = "
            f"{min_efficiency} efficiency over {usable} usable cores)"
        )
        if at_gated is None or at_gated < floor:
            print(
                f"FAIL: parallel validation speedup {at_gated}x at "
                f"{MULTICORE_GATED_WORKERS} workers is below {floor}x — "
                "the work-stealing scheduler is not paying for itself",
                file=sys.stderr,
            )
            failures += 1

    if failures:
        return 1
    print(
        f"OK: warm-disk and cross-process >= {min_speedup}x over cold"
        + ("" if cpu_count < 2 else ", multicore efficiency met")
    )
    return 0


def check_result_cache(path: str) -> int:
    with open(path) as handle:
        data = json.load(handle)
    min_speedup = float(
        os.environ.get(
            "REPRO_RESULT_CACHE_MIN_SPEEDUP", DEFAULT_RESULT_MIN_SPEEDUP
        )
    )
    failures = 0
    best_gated_speedup = None
    gated_seen = False
    for backend, result in data["backends"].items():
        failures += _check_first_read_slope(backend, result["sizes"])
        failures += _check_upkeep_slopes(backend, result)
        for size, point in result["sizes"].items():
            stats = point["result_cache"]
            print(
                f"{backend} @ {size} rows: maintained="
                f"{point['maintained_read_qps']}qps reexec="
                f"{point['reexec_read_qps']}qps "
                f"speedup={point['read_speedup']}x "
                f"maintain={point['maintain_ms_per_delta']}ms/delta "
                f"stale={point['stale_reads']} "
                f"fallbacks={stats['fallbacks']} "
                f"validation_failures={stats['validation_failures']}"
            )
            if point["stale_reads"]:
                print(
                    f"FAIL [{backend} @ {size}]: {point['stale_reads']} "
                    "stale read(s) — a maintained entry disagreed with "
                    "re-execution after a write",
                    file=sys.stderr,
                )
                failures += 1
            if stats["validation_failures"]:
                print(
                    f"FAIL [{backend} @ {size}]: "
                    f"{stats['validation_failures']} fingerprint validation "
                    "failure(s) — an entry outlived its model",
                    file=sys.stderr,
                )
                failures += 1
            if stats["fallbacks"] > RESULT_MAX_FALLBACKS:
                print(
                    f"FAIL [{backend} @ {size}]: {stats['fallbacks']} "
                    f"fallback(s) exceed the {RESULT_MAX_FALLBACKS} bound — "
                    "the read-side delta compiler stopped recognizing a "
                    "maintainable shape",
                    file=sys.stderr,
                )
                failures += 1
            one_shot = point.get("one_shot")
            if one_shot is None:
                print(
                    f"FAIL [{backend} @ {size}]: no one-shot read block",
                    file=sys.stderr,
                )
                failures += 1
            else:
                print(
                    f"{backend} @ {size} rows: one-shot {one_shot['read_ms']}ms "
                    f"vs reexec {one_shot['reexec_read_ms']}ms per read "
                    f"(ratio {one_shot['cost_ratio']}x), "
                    f"entries left={one_shot['entries_left']}"
                )
                if one_shot["entries_left"]:
                    print(
                        f"FAIL [{backend} @ {size}]: "
                        f"{one_shot['entries_left']} one-shot read(s) left "
                        "an entry — answers read once were materialized",
                        file=sys.stderr,
                    )
                    failures += 1
                if (
                    size == GATED_SIZE
                    and one_shot["cost_ratio"] > ONE_SHOT_MAX_COST_RATIO
                ):
                    print(
                        f"FAIL [{backend} @ {size}]: one-shot reads cost "
                        f"{one_shot['cost_ratio']}x their re-execution, above "
                        f"the {ONE_SHOT_MAX_COST_RATIO}x ceiling — a miss "
                        "pays for more than the plan execution",
                        file=sys.stderr,
                    )
                    failures += 1
            if size == GATED_SIZE:
                gated_seen = True
                speedup = point["read_speedup"]
                if speedup is not None and (
                    best_gated_speedup is None or speedup > best_gated_speedup
                ):
                    best_gated_speedup = speedup
    if not gated_seen:
        print(f"(no {GATED_SIZE}-row tier; result-cache speedup gate skipped)")
    elif best_gated_speedup is None or best_gated_speedup < min_speedup:
        print(
            f"FAIL: best maintained-read speedup {best_gated_speedup}x at "
            f"{GATED_SIZE} rows is below the {min_speedup}x floor — the "
            "result tier no longer pays for itself",
            file=sys.stderr,
        )
        failures += 1
    if failures:
        return 1
    print(
        f"OK: zero stale reads, fallbacks bounded, one-shot reads leave no "
        f"entry and cost <= {ONE_SHOT_MAX_COST_RATIO}x re-execution, "
        f"first reads after a write and per-write upkeep grow <= {MAX_SLOPE}x "
        "with the rows, and upkeep <= "
        f"{MAX_SLOPE}x with the admitted entries, on every backend"
        + (
            f", maintained reads >= {min_speedup}x at {GATED_SIZE} rows "
            f"(best {best_gated_speedup}x)"
            if gated_seen
            else ""
        )
    )
    return 0


def _check_first_read_slope(backend: str, sizes: dict) -> int:
    """The first read after a write: at most MAX_SLOPE× from
    SLOPE_BASE_SIZE to GATED_SIZE rows, on every backend."""
    points = [sizes.get(SLOPE_BASE_SIZE), sizes.get(GATED_SIZE)]
    if None in points:
        print(f"({backend}: no {SLOPE_BASE_SIZE}/{GATED_SIZE}-row pair; "
              "first-read gate skipped)")
        return 0
    try:
        base, gated = (point["one_shot"]["first_read_ms"] for point in points)
    except KeyError:
        print(
            f"FAIL [{backend}]: no one_shot.first_read_ms — regenerate the "
            "report with benchmarks/bench_result_cache.py",
            file=sys.stderr,
        )
        return 1
    slope = gated / base
    print(
        f"{backend}: first read after a write {base}ms at {SLOPE_BASE_SIZE} "
        f"rows -> {gated}ms at {GATED_SIZE} rows (slope {slope:.2f}x, "
        f"ceiling {MAX_SLOPE}x)"
    )
    if slope > MAX_SLOPE:
        print(
            f"FAIL [{backend}]: the first read after a write grows "
            f"{slope:.2f}x from {SLOPE_BASE_SIZE} to {GATED_SIZE} rows, above "
            f"the {MAX_SLOPE}x ceiling — the read pays an index build or a "
            "table scan that scales with the table",
            file=sys.stderr,
        )
        return 1
    return 0


def _check_upkeep_slopes(backend: str, result: dict) -> int:
    """Per-write upkeep: at most MAX_SLOPE× from SLOPE_BASE_SIZE to
    GATED_SIZE rows, and from the fewest to the most admitted entries."""
    failures = 0
    curves = []
    points = [result["sizes"].get(SLOPE_BASE_SIZE), result["sizes"].get(GATED_SIZE)]
    if None in points:
        print(f"({backend}: no {SLOPE_BASE_SIZE}/{GATED_SIZE}-row pair; "
              "upkeep-by-rows gate skipped)")
    elif any("upkeep_ms_per_delta" not in point for point in points):
        print(
            f"FAIL [{backend}]: no upkeep_ms_per_delta — regenerate the "
            "report with benchmarks/bench_result_cache.py",
            file=sys.stderr,
        )
        failures += 1
    else:
        curves.append(
            (f"{SLOPE_BASE_SIZE} -> {GATED_SIZE} rows",
             [point["upkeep_ms_per_delta"] for point in points])
        )
    admitted = result.get("admitted_points") or {}
    counts = sorted(admitted, key=int)
    if len(counts) < 2 or any(
        "upkeep_ms_per_delta" not in admitted[count] for count in counts
    ):
        print(
            f"FAIL [{backend}]: no admitted_points upkeep curve (two or more "
            "entry counts) — regenerate the report with "
            "benchmarks/bench_result_cache.py",
            file=sys.stderr,
        )
        failures += 1
    else:
        curves.append(
            (f"{counts[0]} -> {counts[-1]} admitted entries",
             [admitted[counts[0]]["upkeep_ms_per_delta"],
              admitted[counts[-1]]["upkeep_ms_per_delta"]])
        )
    for label, (base, top) in curves:
        slope = top / base
        print(
            f"{backend}: upkeep per write {base}ms -> {top}ms over {label} "
            f"(slope {slope:.2f}x, ceiling {MAX_SLOPE}x)"
        )
        if slope > MAX_SLOPE:
            print(
                f"FAIL [{backend}]: result-tier upkeep grows {slope:.2f}x over "
                f"{label}, above the {MAX_SLOPE}x ceiling — a write pays for "
                "entries it cannot reach or copies whole answers",
                file=sys.stderr,
            )
            failures += 1
    return failures


def check_fingerprint(path: str) -> int:
    with open(path) as handle:
        data = json.load(handle)
    block = data.get("fingerprint")
    if block is None:
        print(
            "FAIL: no fingerprint block — regenerate the report with "
            "benchmarks/bench_smo_batch.py",
            file=sys.stderr,
        )
        return 1
    cold = block["cold_ms"]
    budget = FINGERPRINT_MAX_COST_RATIO * cold
    print(
        f"fingerprint ({block['model']} scale {block['scale']}, "
        f"{block['leaves']} leaves, {block['smo']}): cold {cold}ms, "
        f"after the SMO {block['after_smo_ms']}ms, after its undo "
        f"{block['after_undo_ms']}ms (ceiling {round(budget, 3)}ms = "
        f"{FINGERPRINT_MAX_COST_RATIO}x cold)"
    )
    failures = 0
    for phase in ("after_smo", "after_undo"):
        cost = block[f"{phase}_ms"]
        if cost > budget:
            print(
                f"FAIL: the fingerprint {phase.replace('_', ' ')} costs "
                f"{cost}ms, above {FINGERPRINT_MAX_COST_RATIO}x the cold "
                f"{cold}ms — it re-walks leaves the SMO did not rebuild",
                file=sys.stderr,
            )
            failures += 1
    if failures:
        return 1
    print(
        f"OK: fingerprints after an SMO and its undo cost <= "
        f"{FINGERPRINT_MAX_COST_RATIO}x a cold one"
    )
    return 0


def migration_slopes(block: dict) -> list:
    """(backend, phase, slope) for each backend and for evolve and undo:
    the summed time at the block's largest size over its smallest."""
    sizes = block["sizes"]
    low, high = str(min(sizes)), str(max(sizes))
    return [
        (
            backend,
            phase,
            points[high][f"{phase}_total_ms"] / points[low][f"{phase}_total_ms"],
        )
        for backend, points in block["backends"].items()
        for phase in ("evolve", "undo")
    ]


def check_migration(path: str) -> int:
    with open(path) as handle:
        data = json.load(handle)
    block = data.get("migration")
    if block is None:
        print(
            "FAIL: no migration block — regenerate the report with "
            "benchmarks/bench_smo_batch.py",
            file=sys.stderr,
        )
        return 1
    sizes = block["sizes"]
    if max(sizes) < MIGRATION_MIN_SPAN * min(sizes):
        print(
            f"FAIL: the migration block spans {min(sizes)} to {max(sizes)} "
            f"entities per set, less than {MIGRATION_MIN_SPAN}x",
            file=sys.stderr,
        )
        return 1
    failures = 0
    for backend, phase, slope in migration_slopes(block):
        points = block["backends"][backend]
        print(
            f"migration {backend} {phase}: "
            f"{points[str(min(sizes))][f'{phase}_total_ms']}ms at "
            f"{min(sizes)}/set -> {points[str(max(sizes))][f'{phase}_total_ms']}ms "
            f"at {max(sizes)}/set (slope {slope:.2f}x, ceiling {MAX_SLOPE}x)"
        )
        if slope > MAX_SLOPE:
            print(
                f"FAIL: {backend} {phase} grows {slope:.2f}x from "
                f"{min(sizes)} to {max(sizes)} entities per set, above the "
                f"{MAX_SLOPE}x ceiling — the migration costs the store, not "
                "the SMO's stale region",
                file=sys.stderr,
            )
            failures += 1
    if failures:
        return 1
    print(
        f"OK: evolve and undo grow <= {MAX_SLOPE}x from {min(sizes)} to "
        f"{max(sizes)} entities per set on every backend"
    )
    return 0


def main() -> int:
    query_path = (
        sys.argv[1] if len(sys.argv) > 1 else "BENCH_query_serving.json"
    )
    concurrent_path = (
        sys.argv[2]
        if len(sys.argv) > 2
        else "BENCH_serving_concurrent.json"
    )
    incremental_path = (
        sys.argv[3]
        if len(sys.argv) > 3
        else "BENCH_incremental_writes.json"
    )
    validation_path = (
        sys.argv[4] if len(sys.argv) > 4 else "BENCH_validation.json"
    )
    result_cache_path = (
        sys.argv[5] if len(sys.argv) > 5 else "BENCH_result_cache.json"
    )
    smo_batch_path = (
        sys.argv[6] if len(sys.argv) > 6 else "BENCH_smo_batch.json"
    )
    status = check_query_serving(query_path)
    if os.path.exists(concurrent_path):
        status = check_concurrent(concurrent_path) or status
    else:
        print(f"({concurrent_path} not present; concurrent gates skipped)")
    if os.path.exists(incremental_path):
        status = check_incremental(incremental_path) or status
    else:
        print(f"({incremental_path} not present; incremental gates skipped)")
    if os.path.exists(validation_path):
        status = check_validation(validation_path) or status
    else:
        print(f"({validation_path} not present; validation gates skipped)")
    if os.path.exists(result_cache_path):
        status = check_result_cache(result_cache_path) or status
    else:
        print(
            f"({result_cache_path} not present; result-cache gates skipped)"
        )
    if os.path.exists(smo_batch_path):
        status = check_fingerprint(smo_batch_path) or status
        status = check_migration(smo_batch_path) or status
    else:
        print(
            f"({smo_batch_path} not present; fingerprint and migration "
            "gates skipped)"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
