"""Declarative mapping deltas: the change an SMO makes as a first-class value.

The paper's premise (§1.2, §3) is that an SMO only perturbs a small
*neighborhood* of the compiled mapping.  The SMO hooks run against a
:class:`DeltaRecorder` — a facade over a working copy of the model that
intercepts every mutator and records a :class:`DeltaOp` per change.  The
resulting :class:`MappingDelta` is then:

* replayable — :meth:`repro.incremental.model.CompiledModel.apply` is the
  single mutation point for turning a base model into an evolved one;
* composable — a batch of SMOs concatenates its per-SMO deltas;
* invertible — ``apply(d); apply(d.inverse())`` restores the original
  model, which is what the session journal's ``undo()`` replays;
* analysable — :meth:`MappingDelta.touched_neighborhood` derives the
  entity sets, tables and foreign keys whose validation checks must be
  re-run, uniformly for single SMOs, batches, and cache invalidation.

Each op captures the *old* state it overwrites at record time, so
inverses need no access to the pre-change model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.edm.association import AssociationSet
from repro.edm.entity import EntitySet, EntityType
from repro.edm.types import Attribute
from repro.errors import SchemaError, SmoError
from repro.mapping.fragments import MappingFragment
from repro.mapping.views import AssociationView, QueryView, UpdateView
from repro.relational.schema import Table


# ----------------------------------------------------------------------
# Touched regions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Touched:
    """Raw neighborhood contribution of one op (names, unresolved)."""

    sets: Tuple[str, ...] = ()
    assocs: Tuple[str, ...] = ()
    tables: Tuple[str, ...] = ()
    types: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Neighborhood:
    """The delta's touched region resolved against an evolved mapping."""

    sets: Tuple[str, ...]
    tables: Tuple[str, ...]
    foreign_keys: Tuple[Tuple[str, int], ...]

    def __str__(self) -> str:
        return (
            f"sets={{{', '.join(self.sets) or '∅'}}} "
            f"tables={{{', '.join(self.tables) or '∅'}}} "
            f"fks={len(self.foreign_keys)}"
        )


@dataclass(frozen=True)
class StaleRegion:
    """Every name a delta can stale in a cache of compiled artifacts.

    The raw touched region still names elements the delta *dropped*,
    which no longer resolve; the resolved :class:`Neighborhood` adds the
    sets reached through types and association endpoints.  Only the raw
    region names associations.
    """

    sets: FrozenSet[str]
    assocs: FrozenSet[str]
    tables: FrozenSet[str]


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------
class DeltaOp:
    """One declarative change.  Subclasses are frozen dataclasses."""

    def apply(self, model) -> None:
        raise NotImplementedError

    def inverted(self) -> Tuple["DeltaOp", ...]:
        raise NotImplementedError

    def touched(self) -> Touched:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class AddEntityTypeOp(DeltaOp):
    entity_type: EntityType
    set_name: Optional[str] = None

    def apply(self, model) -> None:
        model.client_schema.add_entity_type(self.entity_type)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (DropEntityTypeOp(self.entity_type, (), self.set_name),)

    def touched(self) -> Touched:
        sets = (self.set_name,) if self.set_name else ()
        return Touched(sets=sets, types=(self.entity_type.name,))

    def describe(self) -> str:
        return f"+type {self.entity_type.name}"


@dataclass(frozen=True)
class DropEntityTypeOp(DeltaOp):
    entity_type: EntityType
    removed_sets: Tuple[EntitySet, ...] = ()
    set_name: Optional[str] = None

    def apply(self, model) -> None:
        model.client_schema.drop_entity_type(self.entity_type.name)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (AddEntityTypeOp(self.entity_type, self.set_name),) + tuple(
            AddEntitySetOp(entity_set) for entity_set in self.removed_sets
        )

    def touched(self) -> Touched:
        sets = tuple(s.name for s in self.removed_sets)
        if self.set_name:
            sets += (self.set_name,)
        return Touched(sets=sets, types=(self.entity_type.name,))

    def describe(self) -> str:
        return f"-type {self.entity_type.name}"


@dataclass(frozen=True)
class AddEntitySetOp(DeltaOp):
    entity_set: EntitySet

    def apply(self, model) -> None:
        model.client_schema.add_entity_set(self.entity_set)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (DropEntitySetOp(self.entity_set),)

    def touched(self) -> Touched:
        return Touched(sets=(self.entity_set.name,))

    def describe(self) -> str:
        return f"+set {self.entity_set.name}"


@dataclass(frozen=True)
class DropEntitySetOp(DeltaOp):
    entity_set: EntitySet

    def apply(self, model) -> None:
        model.client_schema.drop_entity_set(self.entity_set.name)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (AddEntitySetOp(self.entity_set),)

    def touched(self) -> Touched:
        return Touched(sets=(self.entity_set.name,))

    def describe(self) -> str:
        return f"-set {self.entity_set.name}"


@dataclass(frozen=True)
class AddAttributeOp(DeltaOp):
    type_name: str
    attribute: Attribute

    def apply(self, model) -> None:
        model.client_schema.add_attribute(self.type_name, self.attribute)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (DropAttributeOp(self.type_name, self.attribute),)

    def touched(self) -> Touched:
        return Touched(types=(self.type_name,))

    def describe(self) -> str:
        return f"+attr {self.type_name}.{self.attribute.name}"


@dataclass(frozen=True)
class DropAttributeOp(DeltaOp):
    type_name: str
    attribute: Attribute

    def apply(self, model) -> None:
        model.client_schema.drop_attribute(self.type_name, self.attribute.name)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (AddAttributeOp(self.type_name, self.attribute),)

    def touched(self) -> Touched:
        return Touched(types=(self.type_name,))

    def describe(self) -> str:
        return f"-attr {self.type_name}.{self.attribute.name}"


@dataclass(frozen=True)
class AddAssociationOp(DeltaOp):
    association: AssociationSet

    def apply(self, model) -> None:
        model.client_schema.add_association(self.association)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (DropAssociationOp(self.association),)

    def touched(self) -> Touched:
        a = self.association
        return Touched(
            sets=tuple(s for s in (a.entity_set1, a.entity_set2) if s),
            assocs=(a.name,),
        )

    def describe(self) -> str:
        return f"+assoc {self.association.name}"


@dataclass(frozen=True)
class DropAssociationOp(DeltaOp):
    association: AssociationSet

    def apply(self, model) -> None:
        model.client_schema.drop_association(self.association.name)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (AddAssociationOp(self.association),)

    def touched(self) -> Touched:
        a = self.association
        return Touched(
            sets=tuple(s for s in (a.entity_set1, a.entity_set2) if s),
            assocs=(a.name,),
        )

    def describe(self) -> str:
        return f"-assoc {self.association.name}"


@dataclass(frozen=True)
class AddTableOp(DeltaOp):
    table: Table

    def apply(self, model) -> None:
        model.store_schema.add_table(self.table)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (DropTableOp(self.table),)

    def touched(self) -> Touched:
        return Touched(tables=(self.table.name,))

    def describe(self) -> str:
        return f"+table {self.table.name}"


@dataclass(frozen=True)
class DropTableOp(DeltaOp):
    table: Table

    def apply(self, model) -> None:
        model.store_schema.drop_table(self.table.name)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (AddTableOp(self.table),)

    def touched(self) -> Touched:
        return Touched(tables=(self.table.name,))

    def describe(self) -> str:
        return f"-table {self.table.name}"


@dataclass(frozen=True)
class ReplaceTableOp(DeltaOp):
    before: Table
    after: Table

    def apply(self, model) -> None:
        model.store_schema.replace_table(self.after)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (ReplaceTableOp(self.after, self.before),)

    def touched(self) -> Touched:
        return Touched(tables=(self.after.name,))

    def describe(self) -> str:
        return f"~table {self.after.name}"


@dataclass(frozen=True)
class AddFragmentOp(DeltaOp):
    fragment: MappingFragment

    def apply(self, model) -> None:
        model.mapping.add_fragment(self.fragment)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (RemoveFragmentOp(self.fragment),)

    def touched(self) -> Touched:
        return _fragment_touched(self.fragment)

    def describe(self) -> str:
        return f"+fragment {self.fragment.client_source}={self.fragment.store_table}"


@dataclass(frozen=True)
class RemoveFragmentOp(DeltaOp):
    fragment: MappingFragment

    def apply(self, model) -> None:
        fragments = list(model.mapping.fragments)
        for i in range(len(fragments) - 1, -1, -1):
            if fragments[i] == self.fragment:
                del fragments[i]
                break
        else:
            raise SmoError(
                f"cannot remove fragment over {self.fragment.store_table!r}: "
                "no equal fragment in the mapping"
            )
        model.mapping.replace_fragments(fragments)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (AddFragmentOp(self.fragment),)

    def touched(self) -> Touched:
        return _fragment_touched(self.fragment)

    def describe(self) -> str:
        return f"-fragment {self.fragment.client_source}={self.fragment.store_table}"


@dataclass(frozen=True)
class ReplaceFragmentsOp(DeltaOp):
    """Wholesale fragment-list rewrite (condition rewrites, drops)."""

    before: Tuple[MappingFragment, ...]
    after: Tuple[MappingFragment, ...]

    def apply(self, model) -> None:
        model.mapping.replace_fragments(list(self.after))

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (ReplaceFragmentsOp(self.after, self.before),)

    def touched(self) -> Touched:
        before, after = set(self.before), set(self.after)
        changed = [f for f in self.before if f not in after]
        changed += [f for f in self.after if f not in before]
        sets: List[str] = []
        assocs: List[str] = []
        tables: List[str] = []
        for fragment in changed:
            t = _fragment_touched(fragment)
            sets.extend(t.sets)
            assocs.extend(t.assocs)
            tables.extend(t.tables)
        return Touched(sets=tuple(sets), assocs=tuple(assocs), tables=tuple(tables))

    def describe(self) -> str:
        delta = len(self.after) - len(self.before)
        return f"~fragments ({len(self.before)} -> {len(self.after)}, {delta:+d})"


@dataclass(frozen=True)
class PutQueryViewOp(DeltaOp):
    entity_type: str
    before: Optional[QueryView]
    after: Optional[QueryView]

    def apply(self, model) -> None:
        if self.after is None:
            model.views.drop_query_view(self.entity_type)
        else:
            model.views.set_query_view(self.after)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (PutQueryViewOp(self.entity_type, self.after, self.before),)

    def touched(self) -> Touched:
        return Touched(types=(self.entity_type,))

    def describe(self) -> str:
        verb = "-" if self.after is None else ("+" if self.before is None else "~")
        return f"{verb}qview {self.entity_type}"


@dataclass(frozen=True)
class PutAssociationViewOp(DeltaOp):
    assoc_name: str
    before: Optional[AssociationView]
    after: Optional[AssociationView]

    def apply(self, model) -> None:
        if self.after is None:
            model.views.drop_association_view(self.assoc_name)
        else:
            model.views.set_association_view(self.after)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (PutAssociationViewOp(self.assoc_name, self.after, self.before),)

    def touched(self) -> Touched:
        return Touched(assocs=(self.assoc_name,))

    def describe(self) -> str:
        verb = "-" if self.after is None else ("+" if self.before is None else "~")
        return f"{verb}aview {self.assoc_name}"


@dataclass(frozen=True)
class PutUpdateViewOp(DeltaOp):
    table_name: str
    before: Optional[UpdateView]
    after: Optional[UpdateView]

    def apply(self, model) -> None:
        if self.after is None:
            model.views.drop_update_view(self.table_name)
        else:
            model.views.set_update_view(self.after)

    def inverted(self) -> Tuple[DeltaOp, ...]:
        return (PutUpdateViewOp(self.table_name, self.after, self.before),)

    def touched(self) -> Touched:
        return Touched(tables=(self.table_name,))

    def describe(self) -> str:
        verb = "-" if self.after is None else ("+" if self.before is None else "~")
        return f"{verb}uview {self.table_name}"


def _fragment_touched(fragment: MappingFragment) -> Touched:
    if fragment.is_association:
        return Touched(
            assocs=(fragment.client_source,), tables=(fragment.store_table,)
        )
    return Touched(sets=(fragment.client_source,), tables=(fragment.store_table,))


# ----------------------------------------------------------------------
# The delta value
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MappingDelta:
    """An ordered, replayable, invertible list of :class:`DeltaOp`."""

    ops: Tuple[DeltaOp, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.ops

    def compose(self, other: "MappingDelta") -> "MappingDelta":
        """Sequential composition: ``self`` then ``other`` (associative)."""
        return MappingDelta(self.ops + other.ops)

    def inverse(self) -> "MappingDelta":
        """The delta that undoes this one (ops inverted, in reverse)."""
        return MappingDelta(
            tuple(inv for op in reversed(self.ops) for inv in op.inverted())
        )

    def touched(self) -> Touched:
        sets: List[str] = []
        assocs: List[str] = []
        tables: List[str] = []
        types: List[str] = []
        for op in self.ops:
            t = op.touched()
            sets.extend(t.sets)
            assocs.extend(t.assocs)
            tables.extend(t.tables)
            types.extend(t.types)
        return Touched(
            sets=tuple(dict.fromkeys(sets)),
            assocs=tuple(dict.fromkeys(assocs)),
            tables=tuple(dict.fromkeys(tables)),
            types=tuple(dict.fromkeys(types)),
        )

    def touched_neighborhood(self, mapping) -> Neighborhood:
        """Resolve the raw touched region against an *evolved* mapping.

        Entity types resolve to their entity set (skipping types that were
        dropped along the way); association endpoints pull in their sets;
        tables are restricted to ones the mapping still mentions, and every
        foreign key of a touched table joins the region.
        """
        t = self.touched()
        schema = mapping.client_schema
        sets = {s for s in t.sets if schema.has_entity_set(s)}
        for type_name in t.types:
            if not schema.has_entity_type(type_name):
                continue
            try:
                sets.add(schema.set_of_type(type_name).name)
            except SchemaError:
                pass
        for assoc_name in t.assocs:
            if not schema.has_association(assoc_name):
                continue
            association = schema.association(assoc_name)
            for set_name in (association.entity_set1, association.entity_set2):
                if schema.has_entity_set(set_name):
                    sets.add(set_name)
        tables = {name for name in t.tables if mapping.table_is_mapped(name)}
        foreign_keys: List[Tuple[str, int]] = []
        for table_name in sorted(tables):
            table = mapping.store_schema.table(table_name)
            for index in range(len(table.foreign_keys)):
                foreign_keys.append((table_name, index))
        return Neighborhood(
            tuple(sorted(sets)), tuple(sorted(tables)), tuple(foreign_keys)
        )

    def stale_region(self, mapping) -> StaleRegion:
        """The raw touched region unioned with the neighborhood resolved
        against the evolved *mapping* — what the plan, writeplan and
        result caches evict by."""
        raw = self.touched()
        hood = self.touched_neighborhood(mapping)
        return StaleRegion(
            sets=frozenset(raw.sets) | frozenset(hood.sets),
            assocs=frozenset(raw.assocs),
            tables=frozenset(raw.tables) | frozenset(hood.tables),
        )

    def summary(self) -> Tuple[str, ...]:
        return tuple(op.describe() for op in self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __str__(self) -> str:
        return f"MappingDelta({len(self.ops)} ops: {', '.join(self.summary())})"


# ----------------------------------------------------------------------
# The recorder the SMO hooks run against
# ----------------------------------------------------------------------
class _Proxy:
    """Read-through wrapper: reads delegate, known mutators record ops."""

    __slots__ = ("_recorder", "_target")

    def __init__(self, recorder: "DeltaRecorder", target) -> None:
        object.__setattr__(self, "_recorder", recorder)
        object.__setattr__(self, "_target", target)

    def __getattr__(self, name):
        return getattr(self._target, name)


class _RecordingClientSchema(_Proxy):
    def add_entity_type(self, entity_type: EntityType) -> EntityType:
        set_name = None
        if entity_type.parent is not None:
            try:
                set_name = self._target.set_of_type(entity_type.parent).name
            except SchemaError:
                pass
        self._recorder.record(AddEntityTypeOp(entity_type, set_name))
        return entity_type

    def add_entity_set(self, entity_set: EntitySet) -> EntitySet:
        self._recorder.record(AddEntitySetOp(entity_set))
        return entity_set

    def add_association(self, association: AssociationSet) -> AssociationSet:
        self._recorder.record(AddAssociationOp(association))
        return association

    def drop_entity_type(self, name: str) -> EntityType:
        schema = self._target
        entity_type = schema.entity_type(name)
        set_name = None
        try:
            set_name = schema.set_of_type(name).name
        except SchemaError:
            pass
        removed_sets = tuple(
            s for s in schema.entity_sets if s.root_type == name
        )
        self._recorder.record(DropEntityTypeOp(entity_type, removed_sets, set_name))
        return entity_type

    def drop_association(self, name: str) -> AssociationSet:
        association = self._target.association(name)
        self._recorder.record(DropAssociationOp(association))
        return association

    def drop_entity_set(self, name: str) -> EntitySet:
        entity_set = self._target.entity_set(name)
        self._recorder.record(DropEntitySetOp(entity_set))
        return entity_set

    def add_attribute(self, type_name: str, attribute: Attribute) -> None:
        self._recorder.record(AddAttributeOp(type_name, attribute))

    def drop_attribute(self, type_name: str, attr_name: str) -> Attribute:
        attribute = self._target.attribute_of(type_name, attr_name)
        self._recorder.record(DropAttributeOp(type_name, attribute))
        return attribute


class _RecordingStoreSchema(_Proxy):
    def add_table(self, table: Table) -> Table:
        self._recorder.record(AddTableOp(table))
        return table

    def drop_table(self, name: str) -> Table:
        table = self._target.table(name)
        self._recorder.record(DropTableOp(table))
        return table

    def replace_table(self, table: Table) -> Table:
        before = self._target.table(table.name)
        if before == table:
            return table
        self._recorder.record(ReplaceTableOp(before, table))
        return table


class _RecordingMapping(_Proxy):
    @property
    def client_schema(self):
        return _RecordingClientSchema(self._recorder, self._target.client_schema)

    @property
    def store_schema(self):
        return _RecordingStoreSchema(self._recorder, self._target.store_schema)

    def add_fragment(self, fragment: MappingFragment) -> None:
        self._recorder.record(AddFragmentOp(fragment))

    def replace_fragments(self, fragments) -> None:
        before = tuple(self._target.fragments)
        after = tuple(fragments)
        if before == after:
            return
        self._recorder.record(ReplaceFragmentsOp(before, after))


class _RecordingViews(_Proxy):
    def set_query_view(self, view: QueryView) -> None:
        before = self._target.query_views.get(view.entity_type)
        if before == view:
            return
        self._recorder.record(PutQueryViewOp(view.entity_type, before, view))

    def drop_query_view(self, entity_type: str) -> None:
        before = self._target.query_views.get(entity_type)
        if before is None:
            return
        self._recorder.record(PutQueryViewOp(entity_type, before, None))

    def set_association_view(self, view: AssociationView) -> None:
        before = self._target.association_views.get(view.assoc_name)
        if before == view:
            return
        self._recorder.record(PutAssociationViewOp(view.assoc_name, before, view))

    def drop_association_view(self, assoc_name: str) -> None:
        before = self._target.association_views.get(assoc_name)
        if before is None:
            return
        self._recorder.record(PutAssociationViewOp(assoc_name, before, None))

    def set_update_view(self, view: UpdateView) -> None:
        before = self._target.update_views.get(view.table_name)
        if before == view:
            return
        self._recorder.record(PutUpdateViewOp(view.table_name, before, view))

    def drop_update_view(self, table_name: str) -> None:
        before = self._target.update_views.get(table_name)
        if before is None:
            return
        self._recorder.record(PutUpdateViewOp(table_name, before, None))


class DeltaRecorder:
    """Duck-typed ``CompiledModel`` that turns mutations into delta ops.

    ``working`` is a clone of ``base`` kept in sync by applying each op as
    it is recorded — the same replay path ``CompiledModel.apply`` uses, so
    recording and replaying cannot drift apart.  Hooks that only *read*
    (preconditions, validation) are handed ``working`` directly.
    """

    def __init__(self, base) -> None:
        self.base = base
        self.working = base.clone()
        self.ops: List[DeltaOp] = []

    # -- recording --------------------------------------------------
    def record(self, op: DeltaOp) -> None:
        # Apply first: a rejected mutation (SchemaError etc.) must not
        # leave a phantom op in the delta.
        op.apply(self.working)
        self.ops.append(op)

    def delta(self) -> MappingDelta:
        return MappingDelta(tuple(self.ops))

    def delta_since(self, mark: int) -> MappingDelta:
        return MappingDelta(tuple(self.ops[mark:]))

    @property
    def mark(self) -> int:
        return len(self.ops)

    # -- the CompiledModel facade -----------------------------------
    @property
    def mapping(self):
        return _RecordingMapping(self, self.working.mapping)

    @property
    def views(self):
        return _RecordingViews(self, self.working.views)

    @property
    def client_schema(self):
        return _RecordingClientSchema(self, self.working.client_schema)

    @property
    def store_schema(self):
        return _RecordingStoreSchema(self, self.working.store_schema)
