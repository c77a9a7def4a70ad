"""Per-layer spans for the end-to-end benchmark, patched in from outside.

The traced run wraps each layer's public entry points at runtime (no
file under ``src/`` changes).  Every wrapped call records a span: name,
span id, parent span id, op id, start, end and self time (its duration
minus the part its child spans cover).  Spans live on a per-thread stack
and are kept in memory; :meth:`Tracer.write` dumps them as JSON lines
when the benchmark ends.

Module-level functions are patched where the caller looks them up — the
engine binds ``push_client_delta`` & co. at import, so the patch target
is ``repro.engine``, not the defining module.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, layer name[, counter name, counter function])
#: — the entry points of each layer.  A counter function receives
#: (args, result) and returns the amount to add to its named counter.
PATCHES: Tuple[tuple, ...] = (
    ("repro.session", "OrmSession.query", "engine.query"),
    ("repro.session", "OrmSession.save_delta", "engine.save_delta"),
    ("repro.session", "OrmSession.evolve", "engine.evolve"),
    ("repro.session", "OrmSession.undo", "engine.undo"),
    ("repro.query.plancache", "PlanCache.plan_for", "plancache.lookup"),
    ("repro.query.plancache", "PlanCache.plan_with_key", "plancache.lookup"),
    ("repro.query.plancache", "PlanCache.successor", "plancache.successor"),
    ("repro.query.resultcache", "ResultCache.lookup", "resultcache.lookup"),
    ("repro.query.resultcache", "ResultCache.populate", "resultcache.populate"),
    ("repro.query.resultcache", "ResultCache.successor_for_delta", "resultcache.maintain"),
    ("repro.query.resultcache", "ResultCache.successor", "resultcache.successor"),
    ("repro.query.plancache", "CachedPlan.execute", "execute"),
    ("repro.ivm.clientdelta", "DeltaScript.apply_to", "ivm.replay"),
    ("repro.engine", "push_client_delta", "ivm.push"),
    ("repro.ivm.writeplan", "WriteplanCache.plan_for", "ivm.writeplan_lookup"),
    ("repro.engine", "seed_counts", "ivm.seed_counts"),
    ("repro.backend.memory", "MemoryBackend.apply_delta", "backend.apply_delta"),
    ("repro.backend.sqlite", "SqliteBackend.apply_delta", "backend.apply_delta"),
    ("repro.backend.sqlite", "SqliteBackend.to_store_state", "backend.to_store_state"),
    (
        "repro.relational.instances",
        "StoreState.carry_rows",
        "relational.carry_rows",
        "relational.carry_rows.rows_copied",
        # the carried table's length; reads the predecessor's row list
        # directly because StoreState.rows() would copy it
        lambda args, result: len(args[1]._rows.get(args[2], ())),
    ),
    ("repro.backend.memory", "check_delta", "relational.check_delta"),
    (
        "repro.incremental.smo",
        "IncrementalCompiler.compile_batch",
        "smo.compile_batch",
        "validation.scheduled_checks",
        lambda args, result: len(result.check_names),
    ),
    (
        "repro.compiler.validation",
        "validate_delta_neighborhood",
        "validation.neighborhood",
    ),
    ("repro.engine", "apply_query_views", "mapping.query_views"),
    ("repro.engine", "apply_update_views", "mapping.update_views"),
    ("repro.engine", "diff_store_states", "dml.diff"),
    ("repro.engine", "plan_migration", "migrate.plan"),
    ("repro.backend.memory", "MemoryBackend.migrate", "migrate.apply"),
    ("repro.backend.sqlite", "SqliteBackend.migrate", "migrate.apply"),
)

#: every layer name a traced run reports, in table order
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(p[2] for p in PATCHES))

#: raw spans kept for the JSON-lines dump; aggregates cover every span
MAX_KEPT_SPANS = 200_000


class Tracer:
    """Span recorder plus the patches that feed it.

    Span stacks are per thread; the id counters and aggregates are not
    locked, because each workload drives the program from one client
    thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = 0
        self._op_id = 0
        self._op_kind = "setup"
        #: (span id, parent id, op id, op kind, name, start, end, self s)
        self.spans: List[tuple] = []
        self.dropped = 0
        #: (layer, op kind) -> [calls, self seconds]
        self.self_time: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        self.counters: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack()
        self._ids += 1
        parent = stack[-1] if stack else None
        # frame: [span id, accumulated child seconds]
        frame = [self._ids, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            own = duration - frame[1]
            slot = self.self_time[(name, self._op_kind)]
            slot[0] += 1
            slot[1] += own
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append(
                    (
                        frame[0],
                        parent[0] if parent is not None else None,
                        self._op_id,
                        self._op_kind,
                        name,
                        start,
                        end,
                        own,
                    )
                )
            else:
                self.dropped += 1

    def op(self, kind: str, fn: Callable, *args):
        """Run one benchmark operation as a root span with a fresh op id."""
        self._op_id += 1
        self._op_kind = kind
        return self._run(f"op.{kind}", fn, args, {})

    def phase(self, kind: str) -> None:
        """Attribute spans outside :meth:`op` (set-up work) to *kind*."""
        self._op_kind = kind

    # -- patching ------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, counter=None, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer._run(name, fn, args, kwargs)
            # counters describe the measured ops only, not set-up work
            if counter is not None and tracer._op_kind != "setup":
                tracer.counters[counter] += count(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, *counting in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, *counting))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------
    def layer_seconds(self, layer: str, kinds=None) -> float:
        return sum(
            seconds
            for (name, kind), (_calls, seconds) in self.self_time.items()
            if name == layer and (kinds is None or kind in kinds)
        )

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, parent, op_id, kind, name, start, end, own in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "parent": parent,
                            "op": op_id,
                            "kind": kind,
                            "name": name,
                            "start": start,
                            "end": end,
                            "self_ms": own * 1000.0,
                        }
                    )
                )
                handle.write("\n")


def span_cost_seconds(calls: int = 20_000) -> float:
    """The cost one span adds to a call, calibrated on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap(noop, "calibration")
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - started
    return max(wrapped - plain, 0.0) / calls
