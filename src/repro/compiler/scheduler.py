"""A per-table/per-set scheduler for validation checks.

Full-mapping validation (Algorithm 1 of [13]) decomposes into many
*independent* units of exponential work: one cell enumeration per store
table, one containment check per foreign key, one coverage check and one
roundtrip batch per entity set.  The serial baseline runs them one after
another; this module executes the same units, declared as
:class:`ValidationCheck` nodes, so independent checks can run in parallel.

One scheduling option, ``workers``, picks one of two modes:

* ``workers == 1`` — run checks in declaration order on the calling
  thread.  Byte-identical behaviour (work order, budget ticks, first error
  raised) to the pre-scheduler validation loop.
* ``workers > 1`` — real CPU parallelism on GIL builds, via a *persistent*
  :class:`~concurrent.futures.ProcessPoolExecutor` and **shard
  stealing**: the checks are packed into per-neighborhood shards
  (:func:`build_shards`) that idle workers pull from the pool's shared
  queue.  Shards — not single checks — are the unit of stealing, so the
  cost of rebuilding per-process state amortizes over every check in the
  shard.  Every shard carries the pickled mapping/views payload; workers
  cache the context they build from it under the payload's digest, and
  the pool itself is reused across runs, so a warm worker unpickles each
  model once.

Both modes run a check the same way — :func:`repro.compiler.validation.run_check`
on the check's ``(kind, *args)`` spec — so serial and process runs share
the check code by construction.

Shard affinity follows the data: a table's store-cell check lands in the
same shard as the coverage checks of the entity sets it reads (they share
one ``SetAnalysis``), so the total work a process run performs — and the
steps it reports into the shared budget — equals the serial run's.
Workers report consumed steps back per check, *including failed checks*,
and the parent re-accounts them into the shared budget as results
arrive; budget trips are therefore detected at check granularity rather
than at single ticks.  When the parent's validation cache is backed by a
persistent store, workers attach to the same on-disk store, so their
subproblem results are shared with the parent, with each other, and with
every later process.

Error determinism: in process mode, every scheduled check runs and the
error of the *earliest failing check in declaration order* is raised —
the same error a serial run would surface first.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.budget import WorkBudget, ensure_budget
from repro.cache import LruCache


@dataclass
class ValidationCheck:
    """One schedulable unit of validation work.

    ``spec`` is a small picklable ``(kind, *args)`` tuple from which
    :func:`repro.compiler.validation.run_check` runs the check — in
    process or in a worker — and returns its counters (e.g.
    ``{"store_cells": 12}``); a failing check raises.  ``deps`` name
    checks that must complete first (e.g. store-cell reasoning reads the
    set analyses the coverage checks build); declaration order and shard
    affinity both honour them.
    """

    name: str
    spec: Tuple[object, ...]
    deps: Tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return str(self.spec[0])


@dataclass
class CheckResult:
    """Outcome of one executed check."""

    name: str
    kind: str
    counters: Dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0


def describe_checks(checks: Sequence[object]) -> str:
    """A one-line ``N check(s): kind xM, ...`` summary.

    Accepts :class:`ValidationCheck` objects or bare check names (the
    ``kind:qualifier`` strings a :class:`~repro.incremental.smo.BatchResult`
    or plan reports); used by the ``repro plan`` / ``repro evolve --batch``
    output.
    """
    names = [
        check.name if isinstance(check, ValidationCheck) else str(check)
        for check in checks
    ]
    if not names:
        return "0 checks"
    kinds: Dict[str, int] = {}
    for name in names:
        kind = name.split(":", 1)[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    summary = ", ".join(f"{kind} x{count}" for kind, count in sorted(kinds.items()))
    return f"{len(names)} check(s): {summary}"


def build_shards(
    checks: Sequence[ValidationCheck], workers: int
) -> List[List[ValidationCheck]]:
    """Pack *checks* into affinity shards for the process pool.

    Grouping rule: a ``store-cells`` check is fused with the ``coverage``
    checks it depends on (they share the per-set analyses through the
    worker's context, so co-locating them makes a process run build each
    :class:`SetAnalysis` exactly once — the same count as a serial run).
    ``fk`` and ``roundtrip`` checks have no cross-check state and stay
    individual groups, free to land on any worker.

    Groups are then packed, in declaration order, into shards of at least
    ``len(checks) / (workers * 4)`` checks — enough shards for every
    worker to steal a few.  A fused group larger than the target becomes
    its own shard; declaration order is preserved both across and within
    shards, so intra-shard dependencies always run before their
    dependents.
    """
    checks = list(checks)
    if not checks:
        return []

    # Union-find over group labels: coverage:S lives in group ("set", S);
    # store-cells:T unions the groups of all its coverage dependencies.
    parent: Dict[object, object] = {}

    def find(label: object) -> object:
        parent.setdefault(label, label)
        while parent[label] != label:
            parent[label] = parent[parent[label]]
            label = parent[label]
        return label

    def union(a: object, b: object) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    labels: Dict[str, object] = {}
    for index, check in enumerate(checks):
        if check.kind == "coverage":
            labels[check.name] = ("set", check.name.split(":", 1)[1])
        elif check.kind == "store-cells":
            label: object = ("table", check.name.split(":", 1)[1])
            for dep in check.deps:
                if dep.startswith("coverage:"):
                    union(label, ("set", dep.split(":", 1)[1]))
            labels[check.name] = label
        else:
            labels[check.name] = ("solo", index)

    groups: "OrderedDict[object, List[ValidationCheck]]" = OrderedDict()
    for check in checks:
        groups.setdefault(find(labels[check.name]), []).append(check)

    target = max(1, (len(checks) + workers * 4 - 1) // (workers * 4))
    shards: List[List[ValidationCheck]] = []
    current: List[ValidationCheck] = []
    for group in groups.values():
        current.extend(group)
        if len(current) >= target:
            shards.append(current)
            current = []
    if current:
        shards.append(current)
    return shards


class ValidationScheduler:
    """Executes a list of :class:`ValidationCheck` units: serially for one
    worker, on the persistent process pool for more."""

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))

    # ------------------------------------------------------------------
    def run(
        self,
        checks: Sequence[ValidationCheck],
        mapping,
        views,
        budget: Optional[WorkBudget] = None,
        symbolic: bool = True,
        cache=None,
    ) -> List[CheckResult]:
        """Execute all *checks* against *mapping*/*views*; return results
        in declaration order.

        Raises the (deterministically chosen) first error when any check
        fails.  ``symbolic`` selects the containment fast path of the
        foreign-key checks.  ``cache`` (a
        :class:`~repro.containment.cache.ValidationCache`) memoises check
        units; process workers mirror its setup — in particular, they
        attach to the same persistent on-disk store when one is
        configured.
        """
        checks = list(checks)
        budget = ensure_budget(budget)
        if self.workers == 1:
            return _run_serial(checks, mapping, views, budget, symbolic, cache)
        return self._run_processes(checks, mapping, views, budget, symbolic, cache)

    # ------------------------------------------------------------------
    def _run_processes(
        self,
        checks: List[ValidationCheck],
        mapping,
        views,
        budget: WorkBudget,
        symbolic: bool,
        cache,
    ) -> List[CheckResult]:
        payload = pickle.dumps(
            (
                mapping,
                views,
                budget.max_steps,
                budget.max_seconds,
                symbolic,
                _cache_spec(cache),
            )
        )
        context_key = hashlib.sha256(payload).hexdigest()
        pool = _get_pool(self.workers)
        futures = {
            pool.submit(
                _run_shard, context_key, payload, [check.spec for check in shard]
            ): shard
            for shard in build_shards(checks, self.workers)
        }
        results: Dict[str, CheckResult] = {}
        errors: Dict[str, BaseException] = {}
        for future in as_completed(futures):
            shard = futures[future]
            try:
                outcome = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                for check in shard:
                    errors.setdefault(check.name, exc)
                continue
            for check, (counters, error, steps, elapsed) in zip(shard, outcome):
                # Reconcile the worker's consumed steps into the shared
                # budget first — failed checks included — so process
                # totals match a serial run over the same list.
                if steps:
                    try:
                        budget.tick(steps)
                    except BaseException as exc:  # CompilationBudgetExceeded
                        errors.setdefault(check.name, exc)
                if error is not None:
                    errors.setdefault(check.name, error)
                elif counters is not None:
                    results[check.name] = CheckResult(
                        name=check.name,
                        kind=check.kind,
                        counters=counters,
                        elapsed=elapsed,
                    )

        for check in checks:  # declaration order == serial surfacing order
            if check.name in errors:
                raise errors[check.name]
        return [results[c.name] for c in checks if c.name in results]


def _run_serial(
    checks: List[ValidationCheck],
    mapping,
    views,
    budget: WorkBudget,
    symbolic: bool,
    cache,
) -> List[CheckResult]:
    from repro.compiler.validation import run_check

    analyses: Dict[str, object] = {}
    results: List[CheckResult] = []
    for check in checks:
        started = time.perf_counter()
        counters = run_check(
            check.spec, mapping, views, analyses, budget, cache, symbolic
        )
        results.append(
            CheckResult(
                name=check.name,
                kind=check.kind,
                counters=counters,
                elapsed=time.perf_counter() - started,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Persistent pool (parent side)
# ---------------------------------------------------------------------------

_POOLS: Dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared process pool for *workers*, created on first use.

    Persistent by design: reusing live workers across ``validate_mapping``
    calls in one process pays the spawn cost once and lets their cached
    contexts skip unpickling a model they have seen.  ``concurrent.futures``
    joins the workers at interpreter exit; :func:`shutdown_pools` releases
    them earlier.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=workers)
            _POOLS[workers] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down every persistent validation pool (tests, benchmarks)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def _cache_spec(cache) -> Optional[Tuple[str, Optional[str]]]:
    """How a worker should set up its own validation cache.

    ``None`` (no cache) /  ``("memory", None)`` / ``("disk", directory)``
    — the last makes every worker attach to the parent's persistent
    store, so subproblems solved in one process are hits in all others.
    """
    if cache is None:
        return None
    store = getattr(cache, "store", None)
    if store is not None and getattr(store, "directory", None):
        return ("disk", store.directory)
    return ("memory", None)


# ---------------------------------------------------------------------------
# Process-pool worker side
# ---------------------------------------------------------------------------

def _close_context(context: dict) -> None:
    cache = context.get("cache")
    if cache is not None:
        cache.close()


#: per-process context cache: payload digest -> materialized context.
#: Bounded, LRU — a long-lived pool serving several sessions/models keeps
#: the few contexts in active rotation and drops the rest.
_WORKER_CONTEXT_BOUND = 4
_WORKER_CONTEXTS = LruCache(_WORKER_CONTEXT_BOUND, on_evict=_close_context)


def _load_context(payload: bytes) -> dict:
    from repro.containment.cache import ValidationCache

    mapping, views, max_steps, max_seconds, symbolic, cache_spec = (
        pickle.loads(payload)
    )
    cache = None
    if cache_spec is not None:
        kind, directory = cache_spec
        store = None
        if kind == "disk":
            from repro.containment.persist import PersistentCacheStore

            store = PersistentCacheStore(directory)
        cache = ValidationCache(store=store)
    return {
        "mapping": mapping,
        "views": views,
        "limits": (max_steps, max_seconds),
        "symbolic": symbolic,
        "analyses": {},
        "cache": cache,
    }


def _worker_context(context_key: str, payload: bytes) -> dict:
    """The cached context for *context_key*; *payload* is unpickled only
    when this worker has not seen that digest yet."""
    return _WORKER_CONTEXTS.get_or_build(
        context_key, lambda: _load_context(payload)
    )


def _run_shard(
    context_key: str,
    payload: bytes,
    specs: List[Tuple[object, ...]],
):
    """Run one shard of check specs inside a worker process.

    Returns a list aligned with *specs* of ``(counters | None, error |
    None, steps, elapsed)`` — steps are reported even for failing checks,
    so the parent's budget reconciliation sees every unit of work this
    worker performed.
    """
    from repro.compiler.validation import run_check

    context = _worker_context(context_key, payload)
    max_steps, max_seconds = context["limits"]
    if max_steps is None and max_seconds is None:
        budget = ensure_budget(None)
    else:
        # Fresh per shard: a worker enforces the run's limits locally (the
        # parent enforces them globally from the reported step counts).
        budget = WorkBudget(max_steps=max_steps, max_seconds=max_seconds)
    outcomes = []
    for spec in specs:
        steps_before = budget.steps
        started = time.perf_counter()
        try:
            counters = run_check(
                spec,
                context["mapping"],
                context["views"],
                context["analyses"],
                budget,
                context["cache"],
                context["symbolic"],
            )
            error: Optional[BaseException] = None
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            counters, error = None, exc
        outcomes.append(
            (
                counters,
                error,
                budget.steps - steps_before,
                time.perf_counter() - started,
            )
        )
    return outcomes
