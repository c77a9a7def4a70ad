"""Mapping fragments and mappings (Section 2.1).

A mapping fragment is a constraint ``π_α(σ_ψ(E)) = π_β(σ_χ(R))`` between a
project-select query over one client entity/association set and a
project-select query over one store table.  We represent the attribute
correspondence as the explicit 1-1 function ``f : α → β`` the SMOs use,
so ``α`` and ``β`` are the two projections of ``attribute_map``.

Both sides are compared on the *client* attribute names: the canonical
store query renames ``f(a)`` back to ``a``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algebra.conditions import Condition, referenced_attrs, referenced_types
from repro.algebra.queries import (
    AssociationScan,
    Col,
    ProjItem,
    Query,
    SetScan,
    TableScan,
    project_select,
)
from repro.edm.schema import ClientSchema
from repro.errors import MappingError
from repro.fingerprint import digest_leaf
from repro.relational.schema import StoreSchema


@digest_leaf
@dataclass(frozen=True)
class MappingFragment:
    """One fragment ``π_α(σ_ψ(source)) = π_{f(α)}(σ_χ(table))``.

    ``client_source`` is an entity-set name (``is_association=False``) or an
    association-set name (``is_association=True``).  ``attribute_map`` lists
    ``(client_attr, store_column)`` pairs; its order fixes α and β.
    """

    client_source: str
    is_association: bool
    client_condition: Condition
    store_table: str
    store_condition: Condition
    attribute_map: Tuple[Tuple[str, str], ...]

    @property
    def alpha(self) -> Tuple[str, ...]:
        return tuple(a for a, _ in self.attribute_map)

    @property
    def beta(self) -> Tuple[str, ...]:
        return tuple(b for _, b in self.attribute_map)

    def maps_attr(self, client_attr: str) -> Optional[str]:
        for attr, column in self.attribute_map:
            if attr == client_attr:
                return column
        return None

    def maps_column(self, store_column: str) -> Optional[str]:
        for attr, column in self.attribute_map:
            if column == store_column:
                return attr
        return None

    def client_query(self) -> Query:
        """``π_α(σ_ψ(source))`` as a query tree."""
        scan: Query = (
            AssociationScan(self.client_source)
            if self.is_association
            else SetScan(self.client_source)
        )
        items = tuple(ProjItem(a, Col(a)) for a in self.alpha)
        return project_select(scan, self.client_condition, items)

    def store_query(self) -> Query:
        """``π_{f(α) AS α}(σ_χ(table))``: store side on client attr names."""
        items = tuple(ProjItem(a, Col(b)) for a, b in self.attribute_map)
        return project_select(TableScan(self.store_table), self.store_condition, items)

    def with_client_condition(self, condition: Condition) -> "MappingFragment":
        return replace(self, client_condition=condition)

    def __str__(self) -> str:
        alpha = ", ".join(self.alpha)
        beta = ", ".join(self.beta)
        psi = str(self.client_condition)
        chi = str(self.store_condition)
        left = f"π[{alpha}](σ[{psi}]({self.client_source}))"
        right = f"π[{beta}](σ[{chi}]({self.store_table}))"
        return f"{left} = {right}"


class Mapping:
    """A client schema, a store schema, and a set of mapping fragments."""

    def __init__(
        self,
        client_schema: ClientSchema,
        store_schema: StoreSchema,
        fragments: Iterable[MappingFragment] = (),
    ) -> None:
        self.client_schema = client_schema
        self.store_schema = store_schema
        self.fragments: List[MappingFragment] = list(fragments)
        self._index_stale = True
        self._by_table: Dict[str, List[MappingFragment]] = {}
        self._by_set: Dict[str, List[MappingFragment]] = {}
        self._by_assoc: Dict[str, MappingFragment] = {}

    def _index(self) -> None:
        """(Re)build the per-table/per-set lookup index lazily."""
        if not self._index_stale:
            return
        self._by_table = {}
        self._by_set = {}
        self._by_assoc = {}
        for fragment in self.fragments:
            self._by_table.setdefault(fragment.store_table, []).append(fragment)
            if fragment.is_association:
                self._by_assoc.setdefault(fragment.client_source, fragment)
            else:
                self._by_set.setdefault(fragment.client_source, []).append(fragment)
        self._index_stale = False

    # ------------------------------------------------------------------
    # Mutation (used by SMO adaptation)
    # ------------------------------------------------------------------
    def add_fragment(self, fragment: MappingFragment) -> MappingFragment:
        self.fragments.append(fragment)
        self._index_stale = True
        return fragment

    def replace_fragments(self, fragments: Sequence[MappingFragment]) -> None:
        self.fragments = list(fragments)
        self._index_stale = True

    def clone(self) -> "Mapping":
        return Mapping(
            self.client_schema.clone(), self.store_schema.clone(), list(self.fragments)
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def fragments_for_table(self, table_name: str) -> Tuple[MappingFragment, ...]:
        self._index()
        return tuple(self._by_table.get(table_name, ()))

    def fragments_for_set(self, set_name: str) -> Tuple[MappingFragment, ...]:
        self._index()
        return tuple(self._by_set.get(set_name, ()))

    def fragment_for_association(self, assoc_name: str) -> Optional[MappingFragment]:
        self._index()
        return self._by_assoc.get(assoc_name)

    def entity_fragments(self) -> Tuple[MappingFragment, ...]:
        return tuple(f for f in self.fragments if not f.is_association)

    def association_fragments(self) -> Tuple[MappingFragment, ...]:
        return tuple(f for f in self.fragments if f.is_association)

    def mapped_tables(self) -> Tuple[str, ...]:
        self._index()
        return tuple(self._by_table)

    def table_is_mapped(self, table_name: str) -> bool:
        self._index()
        return table_name in self._by_table

    def column_is_mapped(self, table_name: str, column: str) -> bool:
        """True if some fragment maps data into *column* of *table_name*.

        Used by check 1 of Section 3.2 (the f(PK2) columns must be fresh)
        and by the store-condition scan: a column mentioned in a store
        condition also counts as used.
        """
        for fragment in self.fragments_for_table(table_name):
            if fragment.maps_column(column) is not None:
                return True
            if column in referenced_attrs(fragment.store_condition):
                return True
        return False

    # ------------------------------------------------------------------
    # Well-formedness (the static checks of Section 2.1 / step 1 of [13])
    # ------------------------------------------------------------------
    def check_well_formed(self) -> None:
        """Raise MappingError if any fragment is structurally invalid."""
        for fragment in self.fragments:
            self._check_fragment(fragment)
        seen_assocs = set()
        for fragment in self.association_fragments():
            if fragment.client_source in seen_assocs:
                raise MappingError(
                    f"association {fragment.client_source!r} is mentioned in more "
                    "than one mapping fragment"
                )
            seen_assocs.add(fragment.client_source)

    def _check_fragment(self, fragment: MappingFragment) -> None:
        client_schema, store_schema = self.client_schema, self.store_schema
        if not store_schema.has_table(fragment.store_table):
            raise MappingError(f"fragment targets unknown table {fragment.store_table!r}")
        table = store_schema.table(fragment.store_table)

        alpha, beta = fragment.alpha, fragment.beta
        if len(set(alpha)) != len(alpha) or len(set(beta)) != len(beta):
            raise MappingError(f"attribute map of fragment {fragment} is not 1-1")
        for column in beta:
            if not table.has_column(column):
                raise MappingError(
                    f"fragment maps to missing column {fragment.store_table}.{column}"
                )
        for column in referenced_attrs(fragment.store_condition):
            if not table.has_column(column):
                raise MappingError(
                    f"store condition references missing column "
                    f"{fragment.store_table}.{column}"
                )
        if not set(table.primary_key) <= set(beta):
            raise MappingError(
                f"fragment on {fragment.store_table!r} must project the table key "
                f"{table.primary_key}"
            )

        if fragment.is_association:
            self._check_association_fragment(fragment)
            return

        if not client_schema.has_entity_set(fragment.client_source):
            raise MappingError(f"fragment over unknown entity set {fragment.client_source!r}")
        entity_set = client_schema.entity_set(fragment.client_source)
        hierarchy = set(client_schema.descendants_or_self(entity_set.root_type))
        for type_name in referenced_types(fragment.client_condition):
            if type_name not in hierarchy:
                raise MappingError(
                    f"condition of fragment over {fragment.client_source!r} references "
                    f"type {type_name!r} outside the set's hierarchy"
                )
        key = client_schema.key_of(entity_set.root_type)
        if not set(key) <= set(alpha):
            raise MappingError(
                f"fragment over {fragment.client_source!r} must project the key {key}"
            )
        # Domain compatibility: dom(A) ⊆ dom(f(A)) for the widest type that
        # declares A in this hierarchy.
        for attr, column in fragment.attribute_map:
            attribute = self._find_attribute(hierarchy, attr)
            if attribute is None:
                raise MappingError(
                    f"fragment projects unknown attribute {attr!r} of "
                    f"{fragment.client_source!r}"
                )
            if not attribute.domain.is_subdomain_of(table.column(column).domain):
                raise MappingError(
                    f"domain of {attr!r} not contained in domain of "
                    f"{fragment.store_table}.{column}"
                )

    def _check_association_fragment(self, fragment: MappingFragment) -> None:
        client_schema = self.client_schema
        if not client_schema.has_association(fragment.client_source):
            raise MappingError(
                f"fragment over unknown association {fragment.client_source!r}"
            )
        association = client_schema.association(fragment.client_source)
        key1 = client_schema.key_of(association.end1.entity_type)
        key2 = client_schema.key_of(association.end2.entity_type)
        expected = set(association.qualified_key_attrs(key1, key2))
        if set(fragment.alpha) != expected:
            raise MappingError(
                f"association fragment over {fragment.client_source!r} must project "
                f"exactly {sorted(expected)}, got {sorted(fragment.alpha)}"
            )
        if referenced_types(fragment.client_condition):
            raise MappingError(
                "association fragment conditions cannot contain type atoms"
            )

    def _find_attribute(self, hierarchy, attr_name: str):
        for type_name in hierarchy:
            for attribute in self.client_schema.attributes_of(type_name):
                if attribute.name == attr_name:
                    return attribute
        return None

    def __str__(self) -> str:
        lines = ["Mapping:"]
        lines.extend(f"  {f}" for f in self.fragments)
        return "\n".join(lines)
