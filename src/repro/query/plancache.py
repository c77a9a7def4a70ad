"""The query-serving fast path: parameterized plans, cached per shape.

The paper amortizes *compilation* so the compiled views can serve queries
cheaply; this module amortizes *query translation* the same way.  Every
:meth:`OrmSession.query` call used to re-run :func:`~repro.query.unfold.unfold`
(branch splitting, per-branch condition specialisation, simplification,
FALSE-branch pruning) and — on the SQLite backend — re-generate the SQL
text from scratch.  All of that work depends only on the query's *shape*,
not on the constants it compares against, so it is done once per shape and
reused across every concrete request:

1. **Parameter extraction** (:func:`parameterize`) splits an
   :class:`EntityQuery` into a constant-free shape plus a bound-parameter
   vector: each comparison constant is replaced by a :class:`Param`
   placeholder.  Constants that can change the *plan itself* are left
   inline and become part of the shape:

   * constants compared against attributes some view branch pins to a
     ``Const`` (the specialisation pass folds those atoms to TRUE/FALSE
     by *value*), and
   * ``None`` constants (the SQL generator emits different text for
     NULL comparisons).

   Everything else is plan-neutral: specialisation only renames columns
   or folds on attribute *membership*, and :func:`~repro.algebra.simplify`
   is purely syntactic, so a plan built over placeholders is valid for
   every binding.

2. A :class:`CachedPlan` holds the unfolded branch set for one shape and,
   lazily, the compiled parameterized SQL per branch.  Binding a parameter
   vector substitutes placeholder atoms (hash-consing keeps untouched
   subtrees identity-shared) or maps placeholder slots of the compiled
   statement's parameter tuple.

3. The :class:`PlanCache` is an LRU keyed by ``(set name, model-slice
   fingerprint, shape fingerprint)``.  The model-slice fingerprint covers
   exactly what unfolding and execution read — the set's query view, the
   client-schema slice of the set, and the store tables the view scans —
   so two structurally identical queries share one plan, and a plan can
   only ever be served against the model state it was built for.

4. **Delta-scoped invalidation** (:meth:`PlanCache.invalidate`): on
   ``evolve``/``evolve_many``/``undo`` the session hands the composed
   :class:`~repro.incremental.delta.MappingDelta` over; only plans whose
   entity set or scanned tables intersect the delta's touched
   neighborhood are evicted.  Plans over untouched sets survive schema
   evolution — the paper's neighborhood principle applied to the serving
   side.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.conditions import Comparison, Condition
from repro.algebra.constructors import Constructor
from repro.algebra.queries import Const, Query, Select, TableScan
from repro.backend.sqlgen import CompiledSql, SqlCompiler
from repro.containment.cache import client_slice_tokens, fingerprint
from repro.errors import EvaluationError
from repro.query.language import EntityQuery
from repro.query.unfold import (
    UnfoldedBranch,
    UnfoldedQuery,
    _ctor_branches,
    construct_results,
    unfold,
)
from repro.relational.schema import StoreSchema


@dataclass(frozen=True)
class Param:
    """A placeholder for an extracted constant: its slot in the vector."""

    index: int

    def __str__(self) -> str:
        return f"${self.index}"


def pinned_attrs(constructor: Constructor) -> FrozenSet[str]:
    """Attributes some branch of *constructor* pins to a constant.

    Comparison atoms over these fold to TRUE/FALSE by constant *value*
    during branch specialisation, so their constants must stay inline in
    the shape (they select the plan, they don't parameterize it).
    """
    pinned = set()
    for _, leaf in _ctor_branches(constructor):
        for attr, expr in leaf.assignments:
            if isinstance(expr, Const):
                pinned.add(attr)
    return frozenset(pinned)


def parameterize(
    query: EntityQuery, inline_attrs: FrozenSet[str] = frozenset()
) -> Tuple[EntityQuery, Tuple[object, ...]]:
    """Split *query* into a constant-free shape and its parameter vector.

    Placeholders are numbered in deterministic construction order, so
    structurally identical queries always produce the identical shape.
    ``None`` constants and constants over *inline_attrs* stay in the shape.
    """
    values: List[object] = []

    def extract(node: Condition) -> Condition:
        if (
            isinstance(node, Comparison)
            and node.const is not None
            and not isinstance(node.const, Param)
            and node.attr not in inline_attrs
        ):
            values.append(node.const)
            return Comparison(node.attr, node.op, Param(len(values) - 1))
        return node

    shape_condition = query.condition.transform(extract)
    shape = EntityQuery(query.set_name, shape_condition, query.projection)
    return shape, tuple(values)


def bind_condition(condition: Condition, values: Tuple[object, ...]) -> Condition:
    """Substitute concrete values for every :class:`Param` placeholder."""

    def substitute(node: Condition) -> Condition:
        if isinstance(node, Comparison) and isinstance(node.const, Param):
            return Comparison(node.attr, node.op, values[node.const.index])
        return node

    return condition.transform(substitute)


# ---------------------------------------------------------------------------
# Cached plans
# ---------------------------------------------------------------------------

@dataclass
class CachedPlan:
    """One shape's translation, reusable across parameter bindings."""

    shape: EntityQuery
    unfolded: UnfoldedQuery
    param_count: int
    #: store tables the surviving branches scan (invalidation granule)
    tables: FrozenSet[str]
    executions: int = 0
    _sql: Optional[Tuple[CompiledSql, ...]] = field(default=None, repr=False)
    _physical: Optional[object] = field(default=None, repr=False)

    def bind(self, values: Tuple[object, ...]) -> UnfoldedQuery:
        """The concrete :class:`UnfoldedQuery` for one parameter vector."""
        if len(values) != self.param_count:
            raise EvaluationError(
                f"plan expects {self.param_count} parameter(s), got {len(values)}"
            )
        if not self.param_count:
            return self.unfolded
        branches = []
        for branch in self.unfolded.branches:
            source = branch.store_query
            if isinstance(source, Select):
                bound = bind_condition(source.condition, values)
                store_query: Query = (
                    source
                    if bound is source.condition
                    else Select(source.source, bound)
                )
            else:  # unfold always emits Select roots; stay safe regardless
                store_query = source
            branches.append(
                UnfoldedBranch(store_query, branch.constructor, branch.concrete_type)
            )
        return UnfoldedQuery(self.unfolded.source, tuple(branches))

    def sql(self, schema: StoreSchema) -> Tuple[CompiledSql, ...]:
        """Per-branch parameterized SQL, compiled once and reused.

        Placeholders travel *inside* the compiled parameter tuple (the SQL
        generator treats them as opaque constants), so the text is fixed
        and binding is a tuple rewrite — no string work per query.
        """
        if self._sql is None:
            compiler = SqlCompiler(schema)
            self._sql = tuple(
                compiler.compile(branch.store_query)
                for branch in self.unfolded.branches
            )
        return self._sql

    def physical(self, schema: StoreSchema):
        """The compiled physical-plan set for interpreter-style backends
        (``compiles_plans``), lowered once per plan and reused across
        bindings — :class:`Param` placeholders compile into the predicate
        closures, so binding is just passing the vector along.
        """
        if self._physical is None:
            from repro.backend.physical import compile_plan

            self._physical = compile_plan(
                [branch.store_query for branch in self.unfolded.branches],
                schema,
            )
        return self._physical

    def bound_sql(
        self, schema: StoreSchema, values: Tuple[object, ...]
    ) -> List[Tuple[UnfoldedBranch, CompiledSql, Tuple[object, ...]]]:
        """(branch, compiled statement, concrete parameters) triples."""
        if len(values) != self.param_count:
            raise EvaluationError(
                f"plan expects {self.param_count} parameter(s), got {len(values)}"
            )
        triples = []
        for branch, compiled in zip(self.unfolded.branches, self.sql(schema)):
            actual = tuple(
                values[p.index] if isinstance(p, Param) else p
                for p in compiled.params
            )
            triples.append((branch, compiled, actual))
        return triples

    def execute(self, backend, values: Tuple[object, ...]) -> List[object]:
        """Run the plan on *backend* with *values* bound.

        Backends that prepare SQL (``prepares_sql``) execute the cached
        parameterized statements through their statement cache; backends
        that compile physical plans (``compiles_plans``) run the lowered
        closure plan; the fallback binds the branch conditions and
        re-interprets the algebra.
        """
        self.executions += 1
        if getattr(backend, "prepares_sql", False):
            return construct_results(
                self.shape.projection,
                (
                    (branch, backend.run_compiled(compiled, params))
                    for branch, compiled, params in self.bound_sql(
                        backend.schema, values
                    )
                ),
            )
        if getattr(backend, "compiles_plans", False):
            if len(values) != self.param_count:
                raise EvaluationError(
                    f"plan expects {self.param_count} parameter(s), "
                    f"got {len(values)}"
                )
            plan_set = self.physical(backend.schema)
            branch_rows = backend.run_compiled_plan(plan_set, values)
            return construct_results(
                self.shape.projection,
                zip(self.unfolded.branches, branch_rows),
            )
        return self.bind(values).run_on(backend)

    def explain(self, values: Tuple[object, ...]) -> str:
        """The Entity-SQL text of the bound plan (what execute runs)."""
        return self.bind(values).to_sql()


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

@dataclass
class PlanCacheStats:
    """Counters of the plan cache's life so far."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0

    def __str__(self) -> str:
        return (
            f"PlanCacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, invalidations={self.invalidations}, "
            f"entries={self.entries})"
        )


@dataclass
class ServingStats:
    """One report over every cache on the serving path."""

    backend: str
    plans: PlanCacheStats
    statements: Optional[object] = None  # StatementCacheStats on SQLite
    indexes: Optional[object] = None  # IndexStats on the memory backend
    epoch: Optional[object] = None  # EngineStats from the epoch engine
    writeplans: Optional[object] = None  # WriteplanCacheStats (IVM writes)
    validation: Optional[object] = None  # CacheStats (validation L1 + L2)
    results: Optional[object] = None  # ResultCacheStats (materialized tier)

    def __str__(self) -> str:
        lines = [
            f"serving on {self.backend}:",
            f"  plan cache      : hits={self.plans.hits} misses={self.plans.misses}"
            f" evictions={self.plans.evictions}"
            f" invalidations={self.plans.invalidations}"
            f" entries={self.plans.entries}",
        ]
        if self.statements is not None:
            s = self.statements
            lines.append(
                f"  statement cache : hits={s.hits} misses={s.misses}"
                f" evictions={s.evictions} entries={s.entries}"
            )
            select_hits = getattr(s, "select_hits", None)
            if select_hits is not None:
                lines.append(
                    f"    select        : hits={s.select_hits}"
                    f" misses={s.select_misses}"
                )
                lines.append(
                    f"    dml           : hits={s.dml_hits}"
                    f" misses={s.dml_misses}"
                )
        if self.indexes is not None:
            i = self.indexes
            lines.append(
                f"  physical indexes: builds={i.builds} hits={i.hits}"
                f" invalidations={i.invalidations} entries={i.entries}"
                f" compiled_runs={i.compiled_runs}"
            )
        if self.epoch is not None:
            e = self.epoch
            lines.append(
                f"  epoch engine    : epoch={e.epoch_id}"
                f" published={e.epochs_published} queries={e.queries}"
                f" retries={e.read_retries}"
                f" serialized={e.serialized_reads} torn={e.torn_reads_served}"
            )
        if self.writeplans is not None:
            w = self.writeplans
            lines.append(
                f"  write plans     : hits={w.hits} misses={w.misses}"
                f" compiled={w.compiled}"
                f" invalidations={w.invalidations} entries={w.entries}"
            )
        if self.validation is not None:
            v = self.validation
            line = (
                f"  validation cache: hits={v.hits} misses={v.misses}"
                f" entries={v.entries}"
            )
            if getattr(v, "l2_hits", 0) or getattr(v, "l2_misses", 0):
                line += f" l2_hits={v.l2_hits} l2_misses={v.l2_misses}"
            lines.append(line)
        if self.results is not None:
            r = self.results
            lines.append(
                f"  result cache    : hits={r.hits} misses={r.misses}"
                f" maintained={r.maintained} invalidated={r.invalidated}"
                f" fallbacks={r.fallbacks} evictions={r.evictions}"
                f" stale={r.validation_failures}"
                f" entries={r.entries} cost={r.cost}/{r.budget}"
            )
        return "\n".join(lines)


class PlanCache:
    """LRU-bounded, shape-keyed cache of :class:`CachedPlan` entries.

    Thread-safe; held by one :class:`~repro.session.OrmSession`.  The
    session routes every model mutation through
    :meth:`invalidate`, which is what licenses the per-set model-slice
    fingerprints to be cached between mutations (recomputing them per
    query would cost more than the unfold they save).
    """

    def __init__(self, max_plans: int = 256) -> None:
        self.max_plans = max_plans
        self._plans: "OrderedDict[Tuple[str, str, str], CachedPlan]" = OrderedDict()
        #: set name -> (slice fingerprint, inline attrs, scanned tables)
        self._set_meta: Dict[str, Tuple[str, FrozenSet[str], FrozenSet[str]]] = {}
        #: (set name, shape condition, projection) -> full cache key.
        #: Hash-consing makes the parameterized shape condition the *same*
        #: interned object for every binding of one shape, so this lookup
        #: skips re-fingerprinting the shape on the steady-state hot path.
        #: Entries are only trusted if their key is still in ``_plans``;
        #: eviction and invalidation prune them.
        self._shape_index: Dict[Tuple, Tuple[str, str, str]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- keying --------------------------------------------------------
    def _meta(self, model, set_name: str):
        with self._lock:
            meta = self._set_meta.get(set_name)
        if meta is not None:
            return meta
        schema = model.client_schema
        root = schema.entity_set(set_name).root_type
        view = model.views.query_view(root)
        tables = frozenset(
            node.table_name
            for node in view.query.walk()
            if isinstance(node, TableScan)
        )
        slice_fp = fingerprint(
            view,
            client_slice_tokens(schema, sets=[set_name]),
            tuple(model.store_schema.table(name) for name in sorted(tables)),
        )
        meta = (slice_fp, pinned_attrs(view.constructor), tables)
        with self._lock:
            self._set_meta[set_name] = meta
        return meta

    # -- lookup --------------------------------------------------------
    def plan_for(self, model, query: EntityQuery) -> Tuple[CachedPlan, Tuple[object, ...]]:
        """The (possibly cached) plan for *query* plus its bound parameters."""
        plan, values, _key = self.plan_with_key(model, query)
        return plan, values

    def plan_with_key(
        self, model, query: EntityQuery
    ) -> Tuple[CachedPlan, Tuple[object, ...], Tuple[str, str, str]]:
        """:meth:`plan_for` plus the full cache key — the result tier keys
        its entries with it, so both caches invalidate in lockstep."""
        slice_fp, inline_attrs, tables = self._meta(model, query.set_name)
        shape, values = parameterize(query, inline_attrs)
        index_key = (query.set_name, shape.condition, shape.projection)
        with self._lock:
            key = self._shape_index.get(index_key)
            if key is not None and key[1] == slice_fp:
                plan = self._plans.get(key)
                if plan is not None:
                    self.hits += 1
                    self._plans.move_to_end(key)
                    return plan, values, key
        key = (query.set_name, slice_fp, fingerprint(shape))
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                self._shape_index[index_key] = key
                return plan, values, key
        unfolded = unfold(shape, model.views, model.client_schema)
        plan = CachedPlan(shape, unfolded, len(values), tables)
        with self._lock:
            self.misses += 1
            if key not in self._plans:
                self._plans[key] = plan
                evicted = False
                while len(self._plans) > self.max_plans:
                    self._plans.popitem(last=False)
                    self.evictions += 1
                    evicted = True
                if evicted:
                    self._prune_index()
            plan = self._plans[key]
            self._shape_index[index_key] = key
        return plan, values, key

    def _prune_index(self) -> None:
        """Drop shape-index entries whose plan is gone (lock held)."""
        self._shape_index = {
            ik: k for ik, k in self._shape_index.items() if k in self._plans
        }

    # -- invalidation --------------------------------------------------
    def invalidate(self, delta, mapping) -> int:
        """Evict exactly the plans a :class:`MappingDelta` can invalidate.

        A plan is stale iff the delta touched its entity set or a store
        table its branches scan; both the raw touched region and the
        resolved neighborhood are consulted (raw names cover elements the
        delta *dropped*, which no longer resolve).  Everything else keeps
        serving — the neighborhood principle on the serving side.
        """
        stale = delta.stale_region(mapping)
        schema = mapping.client_schema
        evicted = 0
        with self._lock:
            for set_name in list(self._set_meta):
                if set_name in stale.sets or not schema.has_entity_set(set_name):
                    del self._set_meta[set_name]
            for key in list(self._plans):
                set_name = key[0]
                plan = self._plans[key]
                if (
                    set_name in stale.sets
                    or not schema.has_entity_set(set_name)
                    or (plan.tables & stale.tables)
                ):
                    del self._plans[key]
                    evicted += 1
            if evicted:
                self._prune_index()
            self.invalidations += evicted
        return evicted

    def successor(self, delta=None, mapping=None) -> "PlanCache":
        """The next epoch's cache: surviving plans carried over.

        Copies every entry (plans are shared — :class:`CachedPlan` lazy
        compilation races are benign because results are deterministic)
        into a fresh cache, carries the cumulative counters forward so
        hit rates across epochs stay observable, then applies
        delta-scoped invalidation for the evolution being published.
        The *source* cache is left untouched: readers still serving the
        old epoch keep hitting their own plans.
        """
        clone = PlanCache(self.max_plans)
        with self._lock:
            clone._plans = OrderedDict(self._plans)
            clone._set_meta = dict(self._set_meta)
            clone._shape_index = dict(self._shape_index)
            clone.hits = self.hits
            clone.misses = self.misses
            clone.evictions = self.evictions
            clone.invalidations = self.invalidations
        if delta is not None:
            clone.invalidate(delta, mapping)
        return clone

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._set_meta.clear()
            self._shape_index.clear()

    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
                entries=len(self._plans),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __str__(self) -> str:
        return f"PlanCache({self.stats()})"
