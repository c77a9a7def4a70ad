"""Client states: concrete instances of a client schema.

A client state assigns to every entity set a set of entities (each with a
concrete type and attribute values) and to every association set a set of
key pairs.  States are the ``c`` in the paper's ``M ⊆ C × S``; the empirical
roundtrip oracle compares ``Q(V(c))`` with ``c`` for equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.edm.schema import ClientSchema
from repro.errors import EvaluationError, SchemaError


@dataclass(frozen=True)
class Entity:
    """An entity instance: its concrete type and attribute values.

    ``values`` must assign every attribute of the concrete type; nullable
    attributes may be ``None``.  Entities are hashable so states can be
    compared as sets.
    """

    concrete_type: str
    values: Tuple[Tuple[str, object], ...]

    @staticmethod
    def of(concrete_type: str, **values: object) -> "Entity":
        return Entity(concrete_type, tuple(sorted(values.items())))

    @property
    def value_map(self) -> Dict[str, object]:
        return dict(self.values)

    def __getitem__(self, attr: str) -> object:
        for name, value in self.values:
            if name == attr:
                return value
        raise EvaluationError(
            f"entity of type {self.concrete_type!r} has no attribute {attr!r}"
        )

    def key_tuple(self, key: Tuple[str, ...]) -> Tuple[object, ...]:
        return tuple(self[k] for k in key)

    def __str__(self) -> str:
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.values)
        return f"{self.concrete_type}({rendered})"


class ClientState:
    """An instance of a :class:`ClientSchema`.

    Entities are stored per entity set, keyed by their key tuple (dicts
    preserve insertion order, and key-addressed storage makes update and
    removal O(1) — the incremental write path edits large states in
    place); associations per association set as tuples of role-qualified
    key values, with per-end indexes for delta-propagation probes.

    A :class:`~repro.ivm.clientdelta.ClientDelta` (or anything with the
    same ``record_entity`` / ``record_association`` methods) can be
    attached with :meth:`record_into`; every mutation is then reported to
    it as a net change.
    """

    def __init__(self, schema: ClientSchema) -> None:
        self.schema = schema
        # populated lazily: a 1000-set schema must not pay O(sets) per state
        self._entities: Dict[str, Dict[Tuple[object, ...], Entity]] = {}
        # ordered set of flat (key1 + key2) tuples per association
        self._associations: Dict[str, Dict[Tuple[object, ...], None]] = {}
        # per-end probe indexes: end-key tuple -> list of flat pairs
        self._assoc_by_end: Dict[
            str,
            Tuple[
                Dict[Tuple[object, ...], List[Tuple[object, ...]]],
                Dict[Tuple[object, ...], List[Tuple[object, ...]]],
            ],
        ] = {}
        self._recorder: Optional[object] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_into(self, recorder: object) -> None:
        """Report every subsequent mutation as a net change to *recorder*."""
        self._recorder = recorder

    def stop_recording(self) -> None:
        self._recorder = None

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def entity_key(self, entity: Entity) -> Tuple[object, ...]:
        """The entity's key tuple (hierarchies share the root's key)."""
        return entity.key_tuple(self.schema.key_of(entity.concrete_type))

    def _validate_entity(self, set_name: str, entity: Entity) -> Tuple[object, ...]:
        """Schema-check one entity against *set_name*; returns its key.
        The check is the schema's, built once per (set, concrete type)."""
        return self.schema.entity_check(set_name, entity.concrete_type)(entity.values)

    def add_entity(self, set_name: str, entity: Entity) -> Entity:
        if set_name not in self._entities:
            if not self.schema.has_entity_set(set_name):
                raise SchemaError(f"unknown entity set {set_name!r}")
            self._entities[set_name] = {}
        key_value = self._validate_entity(set_name, entity)
        keyed = self._entities[set_name]
        if key_value in keyed:
            raise SchemaError(
                f"duplicate key {key_value!r} in entity set {set_name!r}"
            )
        keyed[key_value] = entity
        if self._recorder is not None:
            self._recorder.record_entity(set_name, key_value, None, entity)
        return entity

    def update_entity(self, set_name: str, entity: Entity) -> Entity:
        """Replace the entity with *entity*'s key by *entity* in place."""
        if set_name not in self._entities:
            if not self.schema.has_entity_set(set_name):
                raise SchemaError(f"unknown entity set {set_name!r}")
            self._entities[set_name] = {}
        key_value = self._validate_entity(set_name, entity)
        keyed = self._entities[set_name]
        old = keyed.get(key_value)
        if old is None:
            raise SchemaError(
                f"no entity with key {key_value!r} in entity set {set_name!r}"
            )
        keyed[key_value] = entity
        if self._recorder is not None:
            self._recorder.record_entity(set_name, key_value, old, entity)
        return entity

    def remove_entity(self, set_name: str, key_value: Tuple[object, ...]) -> Entity:
        """Remove and return the entity with key *key_value*.

        Associations referencing the entity are left in place (like FK
        checking, referential consistency is enforced at save time).
        """
        key_value = tuple(key_value)
        old = self._entities.get(set_name, {}).pop(key_value, None)
        if old is None:
            if not self.schema.has_entity_set(set_name):
                raise SchemaError(f"unknown entity set {set_name!r}")
            raise SchemaError(
                f"no entity with key {key_value!r} in entity set {set_name!r}"
            )
        if self._recorder is not None:
            self._recorder.record_entity(set_name, key_value, old, None)
        return old

    def add_association(self, assoc_name: str, key1: Tuple[object, ...], key2: Tuple[object, ...]) -> None:
        if assoc_name not in self._associations:
            if not self.schema.has_association(assoc_name):
                raise SchemaError(f"unknown association {assoc_name!r}")
            self._associations[assoc_name] = {}
            self._assoc_by_end[assoc_name] = ({}, {})
        association = self.schema.association(assoc_name)
        key1, key2 = tuple(key1), tuple(key2)
        end1_entity = self._find_by_key(association.entity_set1, key1)
        end2_entity = self._find_by_key(association.entity_set2, key2)
        if end1_entity is None or end2_entity is None:
            raise SchemaError(
                f"association {assoc_name!r} references missing entities {key1!r}/{key2!r}"
            )
        for end, entity in ((association.end1, end1_entity), (association.end2, end2_entity)):
            if end.entity_type not in self.schema.ancestors_or_self(entity.concrete_type):
                raise SchemaError(
                    f"entity {entity} cannot participate as {end.role_name!r} "
                    f"in association {assoc_name!r}"
                )
        pair = key1 + key2
        if pair in self._associations[assoc_name]:
            raise SchemaError(f"duplicate association tuple {pair!r} in {assoc_name!r}")
        self._check_multiplicity(association, key1, key2)
        self._associations[assoc_name][pair] = None
        by_end1, by_end2 = self._assoc_by_end[assoc_name]
        by_end1.setdefault(key1, []).append(pair)
        by_end2.setdefault(key2, []).append(pair)
        if self._recorder is not None:
            self._recorder.record_association(assoc_name, pair, +1)

    def remove_association(self, assoc_name: str, key1: Tuple[object, ...], key2: Tuple[object, ...]) -> None:
        key1, key2 = tuple(key1), tuple(key2)
        pair = key1 + key2
        pairs = self._associations.get(assoc_name, {})
        if pair not in pairs:
            if not self.schema.has_association(assoc_name):
                raise SchemaError(f"unknown association {assoc_name!r}")
            raise SchemaError(
                f"association tuple {pair!r} not present in {assoc_name!r}"
            )
        del pairs[pair]
        by_end1, by_end2 = self._assoc_by_end[assoc_name]
        by_end1[key1].remove(pair)
        if not by_end1[key1]:
            del by_end1[key1]
        by_end2[key2].remove(pair)
        if not by_end2[key2]:
            del by_end2[key2]
        if self._recorder is not None:
            self._recorder.record_association(assoc_name, pair, -1)

    def _check_multiplicity(self, association, key1, key2) -> None:
        by_end1, by_end2 = self._assoc_by_end.get(association.name, ({}, {}))
        if association.end2.multiplicity.at_most_one():
            if key1 in by_end1:
                raise SchemaError(
                    f"multiplicity {association.end2.multiplicity} violated on end "
                    f"{association.end2.role_name!r} of {association.name!r}"
                )
        if association.end1.multiplicity.at_most_one():
            if key2 in by_end2:
                raise SchemaError(
                    f"multiplicity {association.end1.multiplicity} violated on end "
                    f"{association.end1.role_name!r} of {association.name!r}"
                )

    def _find_by_key(self, set_name: str, key_value: Tuple[object, ...]) -> Optional[Entity]:
        return self._entities.get(set_name, {}).get(tuple(key_value))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def entities(self, set_name: str) -> Tuple[Entity, ...]:
        if set_name not in self._entities:
            if not self.schema.has_entity_set(set_name):
                raise SchemaError(f"unknown entity set {set_name!r}")
            return ()
        return tuple(self._entities[set_name].values())

    def entity_by_key(self, set_name: str, key_value: Tuple[object, ...]) -> Optional[Entity]:
        """Keyed lookup (the incremental write path's probe primitive)."""
        if set_name not in self._entities and not self.schema.has_entity_set(set_name):
            raise SchemaError(f"unknown entity set {set_name!r}")
        return self._find_by_key(set_name, key_value)

    def associations(self, assoc_name: str) -> Tuple[Tuple[object, ...], ...]:
        if assoc_name not in self._associations:
            if not self.schema.has_association(assoc_name):
                raise SchemaError(f"unknown association {assoc_name!r}")
            return ()
        return tuple(self._associations[assoc_name])

    def associations_with_end(
        self, assoc_name: str, end: int, key_value: Tuple[object, ...]
    ) -> Tuple[Tuple[object, ...], ...]:
        """All pairs of *assoc_name* whose end ``end`` (0 or 1) equals
        *key_value* — the association-side probe index."""
        if assoc_name not in self._associations:
            if not self.schema.has_association(assoc_name):
                raise SchemaError(f"unknown association {assoc_name!r}")
            return ()
        index = self._assoc_by_end[assoc_name][end]
        return tuple(index.get(tuple(key_value), ()))

    def entity_count(self) -> int:
        return sum(len(v) for v in self._entities.values())

    # ------------------------------------------------------------------
    # Comparison / embedding
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, FrozenSet]:
        """A canonical, comparison-friendly rendering of the state."""
        result: Dict[str, FrozenSet] = {}
        for set_name, entities in self._entities.items():
            if entities:
                result[f"set:{set_name}"] = frozenset(entities.values())
        for assoc_name, pairs in self._associations.items():
            if pairs:
                result[f"assoc:{assoc_name}"] = frozenset(pairs)
        return result

    def equals(self, other: "ClientState") -> bool:
        return self.snapshot() == other.snapshot()

    def embed_into(self, schema: ClientSchema) -> "ClientState":
        """The paper's ``f(c)``: the same state read under an evolved schema.

        Shared components keep their contents; components new in *schema*
        are empty.  Attributes new in *schema* (AddProperty) are padded
        with NULL when nullable; the embedding is undefined — and raises —
        when they are not.  Components of ``self`` missing from *schema*
        must be empty, otherwise the embedding is undefined.
        """
        result = ClientState(schema)
        for set_name, entities in self._entities.items():
            if not schema.has_entity_set(set_name):
                if entities:
                    raise SchemaError(
                        f"cannot embed: entity set {set_name!r} dropped but non-empty"
                    )
                continue
            for entity in entities.values():
                expected = schema.attribute_names_of(entity.concrete_type)
                provided = {name for name, _ in entity.values}
                gained = [
                    name for name in expected
                    if name not in provided
                    and schema.attribute_of(entity.concrete_type, name).nullable
                ]
                if gained:
                    entity = Entity(
                        entity.concrete_type,
                        tuple(sorted(
                            entity.values + tuple((n, None) for n in gained)
                        )),
                    )
                result.add_entity(set_name, entity)
        for assoc_name, pairs in self._associations.items():
            if not schema.has_association(assoc_name):
                if pairs:
                    raise SchemaError(
                        f"cannot embed: association {assoc_name!r} dropped but non-empty"
                    )
                continue
            association = schema.association(assoc_name)
            key1_len = len(schema.key_of(association.end1.entity_type))
            for pair in pairs:
                result.add_association(assoc_name, pair[:key1_len], pair[key1_len:])
        return result

    def __str__(self) -> str:
        lines = ["ClientState:"]
        for set_name, entities in self._entities.items():
            lines.append(f"  {set_name}: {[str(e) for e in entities.values()]}")
        for assoc_name, pairs in self._associations.items():
            lines.append(f"  {assoc_name}: {list(pairs)}")
        return "\n".join(lines)
