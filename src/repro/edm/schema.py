"""The client schema: a registry of entity types, entity sets and associations.

This owns all hierarchy navigation needed by the paper's algorithms:
ancestors and descendants (proper or not), the types strictly between ``E``
and ``P`` (the set ``p`` of Algorithms 1 and 2), children outside that set
(``ch_p``), and the full attribute set ``att(E)``.

The schema is mutable — SMOs evolve it in place — but every mutation
validates its inputs, and :meth:`clone` provides cheap snapshots so the
incremental compiler can roll back when validation fails (Section 4.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.edm.association import AssociationSet
from repro.edm.entity import EntitySet, EntityType
from repro.edm.types import Attribute
from repro.errors import SchemaError


class EntityCheck:
    """One (entity set, concrete type)'s instance check, derived from the
    schema once: the attributes an entity must assign, each one's
    nullability and domain, and the key it is stored under."""

    __slots__ = ("type_name", "names", "attributes", "key")

    def __init__(self, type_name: str, attributes, key: Tuple[str, ...]) -> None:
        self.type_name = type_name
        self.names = frozenset(a.name for a in attributes)
        self.attributes = {a.name: a for a in attributes}
        self.key = key

    def __call__(self, values: Tuple[Tuple[str, object], ...]) -> Tuple[object, ...]:
        """Check an entity's values; returns its key."""
        provided = {name for name, _ in values}
        if provided != self.names:
            raise SchemaError(
                f"entity of {self.type_name!r} must assign exactly {sorted(self.names)}, "
                f"got {sorted(provided)}"
            )
        attributes = self.attributes
        for name, value in values:
            attribute = attributes[name]
            if value is None:
                if not attribute.nullable:
                    raise SchemaError(
                        f"attribute {name!r} of {self.type_name!r} is not nullable"
                    )
            elif not attribute.domain.contains(value):
                raise SchemaError(
                    f"value {value!r} outside domain of {self.type_name}.{name}"
                )
        mapping = dict(values)
        return tuple(mapping[k] for k in self.key)


class ClientSchema:
    """An EDM-subset client schema.

    Entity types form single-inheritance forests.  Each entity set is rooted
    at one type; an entity set contains entities of the root type and all of
    its (transitive) subtypes.
    """

    def __init__(self) -> None:
        self._types: Dict[str, EntityType] = {}
        self._children: Dict[str, List[str]] = {}
        self._sets: Dict[str, EntitySet] = {}
        self._associations: Dict[str, AssociationSet] = {}
        #: (set, concrete type) -> its entity check; every mutator clears
        #: it, and neither :meth:`clone` nor a pickle carries it
        self._checks: Dict[Tuple[str, str], EntityCheck] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_checks"] = {}
        return state

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def add_entity_type(self, entity_type: EntityType) -> EntityType:
        self._checks = {}
        if entity_type.name in self._types:
            raise SchemaError(f"entity type {entity_type.name!r} already exists")
        if entity_type.parent is not None:
            if entity_type.parent not in self._types:
                raise SchemaError(
                    f"parent {entity_type.parent!r} of {entity_type.name!r} does not exist"
                )
            inherited = {a.name for a in self.attributes_of(entity_type.parent)}
            clash = inherited & set(entity_type.own_attribute_names)
            if clash:
                raise SchemaError(
                    f"attributes {sorted(clash)} of {entity_type.name!r} shadow inherited ones"
                )
        self._types[entity_type.name] = entity_type
        self._children.setdefault(entity_type.name, [])
        if entity_type.parent is not None:
            self._children.setdefault(entity_type.parent, []).append(entity_type.name)
        return entity_type

    def add_entity_set(self, entity_set: EntitySet) -> EntitySet:
        self._checks = {}
        if entity_set.name in self._sets:
            raise SchemaError(f"entity set {entity_set.name!r} already exists")
        if entity_set.root_type not in self._types:
            raise SchemaError(
                f"root type {entity_set.root_type!r} of set {entity_set.name!r} does not exist"
            )
        if self._types[entity_set.root_type].parent is not None:
            raise SchemaError(
                f"entity set {entity_set.name!r} must be rooted at a hierarchy root"
            )
        self._sets[entity_set.name] = entity_set
        return entity_set

    def add_association(self, association: AssociationSet) -> AssociationSet:
        self._checks = {}
        if association.name in self._associations:
            raise SchemaError(f"association {association.name!r} already exists")
        for end, set_name in (
            (association.end1, association.entity_set1),
            (association.end2, association.entity_set2),
        ):
            if end.entity_type not in self._types:
                raise SchemaError(
                    f"association {association.name!r} references unknown type "
                    f"{end.entity_type!r}"
                )
            if set_name not in self._sets:
                raise SchemaError(
                    f"association {association.name!r} references unknown entity set "
                    f"{set_name!r}"
                )
            root = self._sets[set_name].root_type
            if root not in self.ancestors_or_self(end.entity_type):
                raise SchemaError(
                    f"type {end.entity_type!r} is not in the hierarchy of set {set_name!r}"
                )
        self._associations[association.name] = association
        return association

    def drop_entity_type(self, name: str) -> EntityType:
        """Remove a leaf entity type with no associations touching it."""
        self._checks = {}
        entity_type = self.entity_type(name)
        if self._children.get(name):
            raise SchemaError(f"cannot drop {name!r}: it has subtypes {self._children[name]}")
        for association in self._associations.values():
            if name in (association.end1.entity_type, association.end2.entity_type):
                raise SchemaError(
                    f"cannot drop {name!r}: association {association.name!r} references it"
                )
        del self._types[name]
        del self._children[name]
        if entity_type.parent is not None:
            self._children[entity_type.parent].remove(name)
        for set_name, entity_set in list(self._sets.items()):
            if entity_set.root_type == name:
                del self._sets[set_name]
        return entity_type

    def drop_association(self, name: str) -> AssociationSet:
        self._checks = {}
        if name not in self._associations:
            raise SchemaError(f"association {name!r} does not exist")
        return self._associations.pop(name)

    def drop_entity_set(self, name: str) -> EntitySet:
        """Remove an entity set no association references (delta inverses)."""
        self._checks = {}
        if name not in self._sets:
            raise SchemaError(f"entity set {name!r} does not exist")
        for association in self._associations.values():
            if name in (association.entity_set1, association.entity_set2):
                raise SchemaError(
                    f"cannot drop set {name!r}: association "
                    f"{association.name!r} references it"
                )
        return self._sets.pop(name)

    def drop_attribute(self, type_name: str, attr_name: str) -> Attribute:
        """Remove a non-key attribute declared on ``type_name`` itself."""
        self._checks = {}
        entity_type = self.entity_type(type_name)
        if attr_name in entity_type.key:
            raise SchemaError(f"cannot drop key attribute {attr_name!r} of {type_name!r}")
        remaining = tuple(a for a in entity_type.attributes if a.name != attr_name)
        if len(remaining) == len(entity_type.attributes):
            raise SchemaError(
                f"attribute {attr_name!r} is not declared on {type_name!r}"
            )
        removed = next(a for a in entity_type.attributes if a.name == attr_name)
        self._types[type_name] = EntityType(
            name=entity_type.name,
            parent=entity_type.parent,
            attributes=remaining,
            key=entity_type.key,
            abstract=entity_type.abstract,
        )
        return removed

    def add_attribute(self, type_name: str, attribute: Attribute) -> None:
        """Add an attribute to an existing entity type (the AddProperty SMO)."""
        self._checks = {}
        entity_type = self.entity_type(type_name)
        taken = {a.name for a in self.attributes_of(type_name)}
        taken.update(
            a.name
            for descendant in self.descendants(type_name)
            for a in self._types[descendant].attributes
        )
        if attribute.name in taken:
            raise SchemaError(
                f"attribute {attribute.name!r} clashes on hierarchy of {type_name!r}"
            )
        self._types[type_name] = EntityType(
            name=entity_type.name,
            parent=entity_type.parent,
            attributes=entity_type.attributes + (attribute,),
            key=entity_type.key,
            abstract=entity_type.abstract,
        )

    def clone(self) -> "ClientSchema":
        """Return an independent snapshot (types are immutable, so shallow;
        the entity checks are rebuilt on demand)."""
        other = ClientSchema()
        other._types = dict(self._types)
        other._children = {k: list(v) for k, v in self._children.items()}
        other._sets = dict(self._sets)
        other._associations = dict(self._associations)
        return other

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def entity_type(self, name: str) -> EntityType:
        try:
            return self._types[name]
        except KeyError:
            raise SchemaError(f"unknown entity type {name!r}") from None

    def has_entity_type(self, name: str) -> bool:
        return name in self._types

    def entity_set(self, name: str) -> EntitySet:
        try:
            return self._sets[name]
        except KeyError:
            raise SchemaError(f"unknown entity set {name!r}") from None

    def has_entity_set(self, name: str) -> bool:
        return name in self._sets

    def association(self, name: str) -> AssociationSet:
        try:
            return self._associations[name]
        except KeyError:
            raise SchemaError(f"unknown association {name!r}") from None

    def has_association(self, name: str) -> bool:
        return name in self._associations

    @property
    def entity_types(self) -> Tuple[EntityType, ...]:
        return tuple(self._types.values())

    @property
    def entity_sets(self) -> Tuple[EntitySet, ...]:
        return tuple(self._sets.values())

    @property
    def associations(self) -> Tuple[AssociationSet, ...]:
        return tuple(self._associations.values())

    # ------------------------------------------------------------------
    # Hierarchy navigation
    # ------------------------------------------------------------------
    def parent_of(self, name: str) -> Optional[str]:
        return self.entity_type(name).parent

    def children_of(self, name: str) -> Tuple[str, ...]:
        self.entity_type(name)
        return tuple(self._children.get(name, ()))

    def root_of(self, name: str) -> str:
        current = self.entity_type(name)
        while current.parent is not None:
            current = self.entity_type(current.parent)
        return current.name

    def ancestors(self, name: str) -> Tuple[str, ...]:
        """Proper ancestors of *name*, nearest first."""
        result: List[str] = []
        parent = self.entity_type(name).parent
        while parent is not None:
            result.append(parent)
            parent = self.entity_type(parent).parent
        return tuple(result)

    def ancestors_or_self(self, name: str) -> Tuple[str, ...]:
        return (name,) + self.ancestors(name)

    def descendants(self, name: str) -> Tuple[str, ...]:
        """Proper descendants of *name* in breadth-first order."""
        result: List[str] = []
        frontier = list(self.children_of(name))
        while frontier:
            current = frontier.pop(0)
            result.append(current)
            frontier.extend(self._children.get(current, ()))
        return tuple(result)

    def descendants_or_self(self, name: str) -> Tuple[str, ...]:
        return (name,) + self.descendants(name)

    def is_ancestor_or_self(self, ancestor: str, descendant: str) -> bool:
        return ancestor in self.ancestors_or_self(descendant)

    def types_strictly_between(self, descendant: str, ancestor: Optional[str]) -> Tuple[str, ...]:
        """The set ``p`` of Algorithms 1 and 2: proper ancestors of
        *descendant* that are proper descendants of *ancestor*.

        ``ancestor=None`` plays the role of NIL: every proper ancestor of
        *descendant* qualifies (the paper treats every root as a descendant
        of NIL).
        """
        result: List[str] = []
        for candidate in self.ancestors(descendant):
            if ancestor is not None and candidate == ancestor:
                break
            result.append(candidate)
        else:
            if ancestor is not None:
                raise SchemaError(
                    f"{ancestor!r} is not an ancestor of {descendant!r}"
                )
        return tuple(result)

    def concrete_types_of_set(self, set_name: str) -> Tuple[str, ...]:
        """Non-abstract types whose instances may live in *set_name*."""
        root = self.entity_set(set_name).root_type
        return tuple(
            t for t in self.descendants_or_self(root) if not self.entity_type(t).abstract
        )

    def set_of_type(self, type_name: str) -> EntitySet:
        """The (unique) entity set whose hierarchy contains *type_name*."""
        root = self.root_of(type_name)
        for entity_set in self._sets.values():
            if entity_set.root_type == root:
                return entity_set
        raise SchemaError(f"no entity set contains type {type_name!r}")

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------
    def attributes_of(self, type_name: str) -> Tuple[Attribute, ...]:
        """``att(E)``: inherited attributes first, then own attributes."""
        chain = list(reversed(self.ancestors_or_self(type_name)))
        result: List[Attribute] = []
        for link in chain:
            result.extend(self._types[link].attributes)
        return tuple(result)

    def attribute_names_of(self, type_name: str) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes_of(type_name))

    def attribute_of(self, type_name: str, attr_name: str) -> Attribute:
        for attribute in self.attributes_of(type_name):
            if attribute.name == attr_name:
                return attribute
        raise SchemaError(f"type {type_name!r} has no attribute {attr_name!r}")

    def key_of(self, type_name: str) -> Tuple[str, ...]:
        return self.entity_type(self.root_of(type_name)).key

    def entity_check(self, set_name: str, concrete_type: str) -> "EntityCheck":
        """The check an entity of *concrete_type* in *set_name* must pass,
        built once per schema version.  Raises :class:`SchemaError` when
        no such entity can exist: an unknown set, a type outside the
        set's hierarchy, or an abstract type."""
        check = self._checks.get((set_name, concrete_type))
        if check is None:
            entity_set = self.entity_set(set_name)
            if concrete_type not in self.descendants_or_self(entity_set.root_type):
                raise SchemaError(
                    f"type {concrete_type!r} does not belong to set {set_name!r}"
                )
            if self.entity_type(concrete_type).abstract:
                raise SchemaError(
                    f"cannot instantiate abstract type {concrete_type!r}"
                )
            check = EntityCheck(
                concrete_type,
                self.attributes_of(concrete_type),
                self.key_of(concrete_type),
            )
            self._checks[(set_name, concrete_type)] = check
        return check

    def declaring_type(self, type_name: str, attr_name: str) -> str:
        """The type in the ancestor chain that declares *attr_name*."""
        for link in self.ancestors_or_self(type_name):
            if attr_name in self._types[link].own_attribute_names:
                return link
        raise SchemaError(f"type {type_name!r} has no attribute {attr_name!r}")

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Run global well-formedness checks (sets rooted correctly, etc.)."""
        for entity_set in self._sets.values():
            root = self.entity_type(entity_set.root_type)
            if root.parent is not None:
                raise SchemaError(
                    f"entity set {entity_set.name!r} rooted at non-root {root.name!r}"
                )
        for association in self._associations.values():
            self.association(association.name)

    def __str__(self) -> str:
        lines = ["ClientSchema:"]
        lines.extend(f"  type {t}" for t in self._types.values())
        lines.extend(f"  set {s}" for s in self._sets.values())
        lines.extend(f"  assoc {a}" for a in self._associations.values())
        return "\n".join(lines)
