"""Compiled views: query views, association views, update views.

A compiled mapping (Section 2.2) consists of

* a **query view** ``(Q_E | τ_E)`` per entity type — ``Q_E`` ranges over
  store tables and ``τ_E`` constructs entities of E or derived types;
* a query view per association set;
* an **update view** ``(Q_T | τ_T)`` per mapped store table — ``Q_T``
  ranges over entity/association sets and ``τ_T`` builds rows of T.

:class:`CompiledViews` is the mutable container both compilers produce and
the incremental compiler consumes and adapts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.algebra.constructors import (
    AssociationCtor,
    Constructor,
    RowCtor,
)
from repro.algebra.entity_sql import view_to_sql
from repro.algebra.queries import Query
from repro.errors import MappingError
from repro.fingerprint import digest_leaf


@digest_leaf
@dataclass(frozen=True)
class QueryView:
    """``(Q_E | τ_E)`` for an entity type."""

    entity_type: str
    query: Query
    constructor: Constructor

    def to_sql(self) -> str:
        return view_to_sql(f"QueryView[{self.entity_type}]", self.query, self.constructor)


@digest_leaf
@dataclass(frozen=True)
class AssociationView:
    """``(Q_A | τ_A)`` for an association set."""

    assoc_name: str
    query: Query
    constructor: AssociationCtor

    def to_sql(self) -> str:
        return view_to_sql(f"QueryView[{self.assoc_name}]", self.query, self.constructor)


@digest_leaf
@dataclass(frozen=True)
class UpdateView:
    """``(Q_T | τ_T)`` for a store table."""

    table_name: str
    query: Query
    constructor: RowCtor

    def to_sql(self) -> str:
        return view_to_sql(f"UpdateView[{self.table_name}]", self.query, self.constructor)


class CompiledViews:
    """All views compiled from one mapping.

    Keys: query views by entity-type name, association views by association
    name, update views by table name.
    """

    def __init__(
        self,
        query_views: Iterable[QueryView] = (),
        association_views: Iterable[AssociationView] = (),
        update_views: Iterable[UpdateView] = (),
    ) -> None:
        self.query_views: Dict[str, QueryView] = {}
        self.association_views: Dict[str, AssociationView] = {}
        self.update_views: Dict[str, UpdateView] = {}
        for view in query_views:
            self.set_query_view(view)
        for view in association_views:
            self.set_association_view(view)
        for view in update_views:
            self.set_update_view(view)

    # ------------------------------------------------------------------
    def set_query_view(self, view: QueryView) -> None:
        self.query_views[view.entity_type] = view

    def set_association_view(self, view: AssociationView) -> None:
        self.association_views[view.assoc_name] = view

    def set_update_view(self, view: UpdateView) -> None:
        self.update_views[view.table_name] = view

    def query_view(self, entity_type: str) -> QueryView:
        try:
            return self.query_views[entity_type]
        except KeyError:
            raise MappingError(f"no query view for entity type {entity_type!r}") from None

    def association_view(self, assoc_name: str) -> AssociationView:
        try:
            return self.association_views[assoc_name]
        except KeyError:
            raise MappingError(f"no query view for association {assoc_name!r}") from None

    def update_view(self, table_name: str) -> UpdateView:
        try:
            return self.update_views[table_name]
        except KeyError:
            raise MappingError(f"no update view for table {table_name!r}") from None

    def has_update_view(self, table_name: str) -> bool:
        return table_name in self.update_views

    def drop_query_view(self, entity_type: str) -> None:
        self.query_views.pop(entity_type, None)

    def drop_association_view(self, assoc_name: str) -> None:
        self.association_views.pop(assoc_name, None)

    def drop_update_view(self, table_name: str) -> None:
        self.update_views.pop(table_name, None)

    def clone(self) -> "CompiledViews":
        """Snapshot for rollback; views themselves are immutable."""
        return CompiledViews(
            self.query_views.values(),
            self.association_views.values(),
            self.update_views.values(),
        )

    def to_sql(self) -> str:
        """All views rendered as Entity-SQL-style text (the paper's C# file)."""
        blocks = [v.to_sql() for v in self.query_views.values()]
        blocks += [v.to_sql() for v in self.association_views.values()]
        blocks += [v.to_sql() for v in self.update_views.values()]
        return "\n\n".join(blocks)

    def __str__(self) -> str:
        return (
            f"CompiledViews(query={sorted(self.query_views)}, "
            f"assoc={sorted(self.association_views)}, "
            f"update={sorted(self.update_views)})"
        )
