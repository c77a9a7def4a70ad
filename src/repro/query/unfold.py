"""Query translation by view unfolding (Section 1.1).

Translates an :class:`EntityQuery` into store-level queries by unfolding
the compiled query view of the entity set:

1. the view's CASE constructor is split into branches, each with its
   *path condition* over the provenance flags (first-match semantics made
   explicit);
2. the client condition is *specialised* per branch: type atoms become
   constants (the branch constructs a known concrete type), attribute
   atoms are rewritten through the branch's constructor assignments
   (columns renamed, pinned constants folded to TRUE/FALSE);
3. branches whose specialised condition simplifies to FALSE are pruned;
4. what remains are pure relational queries over store tables, executed
   with the ordinary evaluator.

``execute_on_store(query, views, store_state)`` therefore computes the
same answer as ``execute_on_client(query, c)`` whenever ``store_state =
V(c)`` — the equivalence the roundtripping guarantee promises, and the
property the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

from repro.algebra.conditions import (
    Comparison,
    Condition,
    FALSE,
    FalseCond,
    IsNotNull,
    IsNull,
    IsOf,
    IsOfOnly,
    Not,
    TRUE,
    and_,
    evaluate_condition,
)
from repro.algebra.constructors import Constructor, EntityCtor, IfCtor
from repro.algebra.entity_sql import query_to_sql
from repro.algebra.evaluate import StoreContext, evaluate_query
from repro.algebra.queries import Col, Const, CtorExpr, Query, Select
from repro.algebra.simplify import simplify
from repro.edm.schema import ClientSchema
from repro.errors import EvaluationError
from repro.mapping.views import CompiledViews
from repro.query.language import EntityQuery
from repro.relational.instances import StoreState


@dataclass(frozen=True)
class UnfoldedBranch:
    """One CASE branch of the unfolded query."""

    store_query: Query
    constructor: EntityCtor
    #: the branch's concrete type (what its rows construct)
    concrete_type: str

    @cached_property
    def assigned(self) -> Dict[str, CtorExpr]:
        """The constructor's assignments by attribute, built once per
        branch rather than once per projected row."""
        return dict(self.constructor.assignments)


@dataclass(frozen=True)
class UnfoldedQuery:
    """A client query translated into store-level branches."""

    source: EntityQuery
    branches: Tuple[UnfoldedBranch, ...]

    def to_sql(self) -> str:
        blocks = []
        for branch in self.branches:
            blocks.append(
                f"-- constructs {branch.concrete_type}\n"
                + query_to_sql(branch.store_query)
            )
        return "\n\nUNION ALL\n\n".join(blocks) if blocks else "-- empty query"

    def run(self, store_state: StoreState) -> List[object]:
        """Execute against a concrete store state with the interpreter."""
        context = StoreContext(store_state)
        return self._construct_all(
            lambda branch: evaluate_query(branch.store_query, context)
        )

    def run_on(self, backend) -> List[object]:
        """Execute on a :class:`~repro.backend.base.StoreBackend` — the
        interpreter for the memory backend, generated SQL inside the
        engine for SQLite."""
        return self._construct_all(
            lambda branch: backend.run_query(branch.store_query)
        )

    def _construct_all(self, rows_of) -> List[object]:
        return construct_results(
            self.source.projection,
            ((branch, rows_of(branch)) for branch in self.branches),
        )


def construct_results(
    projection: Optional[Tuple[str, ...]],
    branch_rows: Iterable[Tuple[UnfoldedBranch, Iterable[Dict[str, object]]]],
) -> List[object]:
    """Turn per-branch store rows into entities or projected row dicts.

    Shared by :meth:`UnfoldedQuery.run`/:meth:`UnfoldedQuery.run_on` and the
    plan cache's execution paths, and row by row (:func:`construct_row`)
    by the result tier's maintenance, so every path constructs results
    byte-identically to a fresh unfold.
    """
    return [
        construct_row(projection, branch, row)
        for branch, rows in branch_rows
        for row in rows
    ]


def construct_row(
    projection: Optional[Tuple[str, ...]],
    branch: UnfoldedBranch,
    row: Dict[str, object],
) -> object:
    """One store row of *branch* as an entity, or as the projected row
    dict when the query names a *projection*."""
    if projection is None:
        return branch.constructor.construct(row)
    assigned = branch.assigned
    out: Dict[str, object] = {}
    for attr in projection:
        expr = assigned.get(attr)
        if expr is None:
            out[attr] = None
        elif isinstance(expr, Const):
            out[attr] = expr.value
        else:
            out[attr] = row.get(expr.name)
    return out


def _ctor_branches(constructor: Constructor) -> List[Tuple[Condition, EntityCtor]]:
    """Flatten an IfCtor chain into (path condition, leaf ctor) pairs with
    first-match semantics made explicit."""
    branches: List[Tuple[Condition, EntityCtor]] = []
    negated: List[Condition] = []
    node = constructor
    while isinstance(node, IfCtor):
        path = and_(*negated, node.condition)
        leaf = node.then_ctor
        if isinstance(leaf, EntityCtor):
            branches.append((path, leaf))
        else:  # nested then-side chains recurse
            for inner_path, inner_leaf in _ctor_branches(leaf):
                branches.append((and_(path, inner_path), inner_leaf))
        negated.append(Not(node.condition))
        node = node.else_ctor
    if isinstance(node, EntityCtor):
        branches.append((and_(*negated), node))
    else:
        for inner_path, inner_leaf in _ctor_branches(node):
            branches.append((and_(*negated, inner_path), inner_leaf))
    return branches


class _ConstContext:
    """Evaluates an atom against a single pinned constant."""

    def __init__(self, value: object) -> None:
        self.value = value

    def attr_value(self, name: str) -> object:
        return self.value

    def is_of(self, type_name: str, only: bool) -> bool:  # pragma: no cover
        raise EvaluationError("no type atoms here")


def _specialize_condition(
    condition: Condition,
    schema: ClientSchema,
    concrete_type: str,
    assignments: Dict[str, object],
) -> Condition:
    """Rewrite a client condition for one constructor branch."""
    ancestors = set(schema.ancestors_or_self(concrete_type))
    attributes = set(schema.attribute_names_of(concrete_type))

    def transform(node: Condition) -> Condition:
        if isinstance(node, IsOf):
            return TRUE if node.type_name in ancestors else FALSE
        if isinstance(node, IsOfOnly):
            return TRUE if node.type_name == concrete_type else FALSE
        if isinstance(node, (IsNull, IsNotNull, Comparison)):
            attr = node.attr
            if attr not in attributes:
                return FALSE  # atom over a different subtype's attribute
            expr = assignments.get(attr)
            if isinstance(expr, Const):
                # pinned constant: fold the atom
                if isinstance(node, IsNull):
                    holds = expr.value is None
                elif isinstance(node, IsNotNull):
                    holds = expr.value is not None
                else:
                    holds = evaluate_condition(
                        Comparison("pinned", node.op, node.const),
                        _ConstContext(expr.value),
                    )
                return TRUE if holds else FALSE
            if isinstance(expr, Col) and expr.name != attr:
                if isinstance(node, IsNull):
                    return IsNull(expr.name)
                if isinstance(node, IsNotNull):
                    return IsNotNull(expr.name)
                return Comparison(expr.name, node.op, node.const)
            return node
        return node

    return simplify(condition.transform(transform))


def unfold(
    query: EntityQuery,
    views: CompiledViews,
    schema: ClientSchema,
) -> UnfoldedQuery:
    """Translate *query* into store-level branches via the set's view."""
    root = schema.entity_set(query.set_name).root_type
    view = views.query_view(root)
    branches: List[UnfoldedBranch] = []
    for path_condition, leaf in _ctor_branches(view.constructor):
        specialized = _specialize_condition(
            query.condition, schema, leaf.type_name, dict(leaf.assignments)
        )
        if isinstance(specialized, FalseCond):
            continue
        combined = simplify(and_(path_condition, specialized))
        if isinstance(combined, FalseCond):
            continue
        store_query: Query = Select(view.query, combined)
        branches.append(UnfoldedBranch(store_query, leaf, leaf.type_name))
    return UnfoldedQuery(query, tuple(branches))


def execute_on_store(
    query: EntityQuery,
    views: CompiledViews,
    store_state: StoreState,
    schema: ClientSchema,
) -> List[object]:
    """Translate and run in one step."""
    return unfold(query, views, schema).run(store_state)
