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
   fingerprint, shape condition, projection)``.  The model-slice
   fingerprint covers exactly what unfolding and execution read — the
   set's query view, the client-schema slice of the set, and the store
   tables the view scans — so two structurally identical queries share
   one plan, and a plan can only ever be served against the model state
   it was built for.

4. **Delta-scoped invalidation** (:meth:`PlanCache.successor`): on
   ``evolve``/``evolve_many``/``undo`` the session hands the composed
   :class:`~repro.incremental.delta.MappingDelta` over; only plans whose
   entity set or scanned tables intersect the delta's touched
   neighborhood are dropped from the next epoch's cache.  Plans over
   untouched sets survive schema evolution — the paper's neighborhood
   principle applied to the serving side.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.conditions import Comparison, Condition
from repro.algebra.constructors import Constructor
from repro.algebra.evaluate import Bag, bag_support
from repro.algebra.queries import Const, Query, Select, TableScan
from repro.backend.sqlgen import CompiledSql, SqlCompiler
from repro.cache import CacheStats, LruCache
from repro.containment.cache import client_slice_tokens
from repro.errors import EvaluationError
from repro.fingerprint import DigestStats, fingerprint
from repro.query.language import EntityQuery
from repro.query.unfold import (
    UnfoldedBranch,
    UnfoldedQuery,
    _ctor_branches,
    construct_results,
    unfold,
)
from repro.relational.schema import StoreSchema

if TYPE_CHECKING:
    from repro.backend.memory import KeyIndexStats
    from repro.engine import EngineStats


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
    _lowered: Optional[object] = field(default=None, repr=False)

    def _check_arity(self, values: Tuple[object, ...]) -> None:
        if len(values) != self.param_count:
            raise EvaluationError(
                f"plan expects {self.param_count} parameter(s), got {len(values)}"
            )

    def bind(self, values: Tuple[object, ...]) -> UnfoldedQuery:
        """The concrete :class:`UnfoldedQuery` for one parameter vector."""
        self._check_arity(values)
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
        """The compiled physical-plan set the memory backend runs,
        lowered once per plan and reused across bindings —
        :class:`Param` placeholders compile into the predicate closures,
        so binding is just passing the vector along.
        """
        if self._physical is None:
            from repro.backend.physical import compile_plan

            self._physical = compile_plan(
                [branch.store_query for branch in self.unfolded.branches],
                schema,
            )
        return self._physical

    def lowered(self, schema: StoreSchema):
        """The result tier's delta rules and pins for this shape
        (:func:`repro.query.resultcache.lower_plan`), lowered once and
        shared by every entry built from the plan."""
        if self._lowered is None:
            from repro.query.resultcache import lower_plan

            self._lowered = lower_plan(self.unfolded, schema)
        return self._lowered

    def bound_sql(
        self, schema: StoreSchema, values: Tuple[object, ...]
    ) -> List[Tuple[UnfoldedBranch, CompiledSql, Tuple[object, ...]]]:
        """(branch, compiled statement, concrete parameters) triples."""
        self._check_arity(values)
        triples = []
        for branch, compiled in zip(self.unfolded.branches, self.sql(schema)):
            actual = tuple(
                values[p.index] if isinstance(p, Param) else p
                for p in compiled.params
            )
            triples.append((branch, compiled, actual))
        return triples

    def execute(
        self, reader, values: Tuple[object, ...]
    ) -> Tuple[List[object], List[Bag]]:
        """Run the plan on a leased *reader* (see
        :meth:`~repro.backend.base.ReadView.acquire`) with *values*
        bound: the constructed rows, plus the per-branch bags they were
        counted from.

        ``reader.run_plan`` is the one execution entry point: the memory
        backend runs the lowered physical plan on its state, SQLite the
        cached parameterized statements through its statement cache.
        Each branch's answer comes back as a bag, whose support in
        first-seen order is what the rows are constructed from, so the
        result tier seeds an entry from the one execution that answered
        the read.
        """
        self._check_arity(values)
        self.executions += 1
        bags = reader.run_plan(self, values)
        rows = construct_results(
            self.shape.projection,
            zip(self.unfolded.branches, map(bag_support, bags)),
        )
        return rows, bags

    def explain(self, values: Tuple[object, ...]) -> str:
        """The Entity-SQL text of the bound plan (what execute runs)."""
        return self.bind(values).to_sql()


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

#: ServingStats sections in report order, with their labels
_SECTIONS = (
    ("plans", "plan cache"),
    ("statements", "statement cache"),
    ("indexes", "key indexes"),
    ("epoch", "epoch engine"),
    ("writeplans", "write plans"),
    ("validation", "validation cache"),
    ("results", "result cache"),
    ("digests", "leaf digests"),
)


@dataclass
class ServingStats:
    """One report over every cache on the serving path."""

    backend: str
    plans: CacheStats
    statements: Optional[CacheStats] = None  # SQLite's prepared statements
    indexes: Optional[KeyIndexStats] = None  # memory: key-index builds
    epoch: Optional[EngineStats] = None  # the epoch engine
    writeplans: Optional[CacheStats] = None  # IVM writes
    validation: Optional[CacheStats] = None  # validation L1 + L2
    results: Optional[CacheStats] = None  # the materialized result tier
    digests: Optional[DigestStats] = None  # model-leaf digests (process-wide)

    def __str__(self) -> str:
        lines = [f"serving on {self.backend}:"]
        for name, label in _SECTIONS:
            section = getattr(self, name)
            if section is not None:
                counters = " ".join(
                    f"{f.name}={getattr(section, f.name)}" for f in fields(section)
                )
                lines.append(f"  {label:<16}: {counters}")
        return "\n".join(lines)


class PlanCache:
    """LRU-bounded, shape-keyed cache of :class:`CachedPlan` entries.

    Thread-safe; held by one :class:`~repro.session.OrmSession`.  Plans
    are keyed by ``(set name, model-slice fingerprint, shape condition,
    projection)``: conditions are hash-consed, so every binding of one
    shape parameterizes to the *same* condition object and a hit is one
    dict probe.  The per-set slice fingerprints are memoized in
    ``_set_meta`` between model changes (recomputing them per query
    would cost more than the unfold they save); a model change publishes
    a :meth:`successor`, which drops the memo of every set it reaches.
    """

    def __init__(self, max_plans: int = 256) -> None:
        self.max_plans = max_plans
        self._plans = LruCache(max_plans)
        #: set name -> (slice fingerprint, inline attrs, scanned tables)
        self._set_meta: Dict[str, Tuple[str, FrozenSet[str], FrozenSet[str]]] = {}

    # -- keying --------------------------------------------------------
    def _meta(self, model, set_name: str):
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
        self._set_meta[set_name] = meta
        return meta

    # -- lookup --------------------------------------------------------
    def plan_for(self, model, query: EntityQuery) -> Tuple[CachedPlan, Tuple[object, ...]]:
        """The (possibly cached) plan for *query* plus its bound parameters."""
        plan, values, _key = self.plan_with_key(model, query)
        return plan, values

    def plan_with_key(
        self, model, query: EntityQuery
    ) -> Tuple[CachedPlan, Tuple[object, ...], Tuple]:
        """:meth:`plan_for` plus the full cache key — the result tier keys
        its entries with it, so both caches invalidate in lockstep."""
        slice_fp, inline_attrs, tables = self._meta(model, query.set_name)
        shape, values = parameterize(query, inline_attrs)
        key = (query.set_name, slice_fp, shape.condition, shape.projection)
        plan = self._plans.get(key)
        if plan is None:
            unfolded = unfold(shape, model.views, model.client_schema)
            plan = self._plans.put(
                key, CachedPlan(shape, unfolded, len(values), tables)
            )
        return plan, values, key

    # -- epochs --------------------------------------------------------
    def successor(self, delta=None, mapping=None) -> "PlanCache":
        """The next epoch's cache: surviving plans carried over.

        With a :class:`MappingDelta`, exactly the plans it can stale are
        dropped: those whose entity set or scanned store tables its
        touched region reaches (raw names cover elements the delta
        *dropped*, which no longer resolve).  Everything else keeps
        serving — the neighborhood principle on the serving side.  Plans
        are shared with the source (lazy compilation races inside a
        :class:`CachedPlan` are benign: results are deterministic), and
        the source is left untouched, so readers still serving the old
        epoch keep hitting their own plans.
        """
        if delta is None:
            return self._next(None, dict(self._set_meta))
        stale = delta.stale_region(mapping)
        schema = mapping.client_schema

        def gone(set_name: str) -> bool:
            return set_name in stale.sets or not schema.has_entity_set(set_name)

        def carry(key, plan):
            return None if gone(key[0]) or plan.tables & stale.tables else plan

        meta = dict(self._set_meta)
        return self._next(
            carry, {name: m for name, m in meta.items() if not gone(name)}
        )

    def empty_successor(self) -> "PlanCache":
        """A successor holding no plans but carrying the counters: for a
        wholesale reset, which may swap the store schema under the
        plans' feet."""
        return self._next(lambda _key, _plan: None, {})

    def _next(self, carry, set_meta) -> "PlanCache":
        clone = PlanCache(self.max_plans)
        clone._plans = self._plans.successor(carry)
        clone._set_meta = set_meta
        return clone

    def clear(self) -> None:
        self._plans.clear()
        self._set_meta.clear()

    def stats(self) -> CacheStats:
        return self._plans.stats()

    def __len__(self) -> int:
        return len(self._plans)

    def __str__(self) -> str:
        return f"PlanCache({self.stats()})"
