"""Client-side deltas: what changed between two object views.

Two layers:

* :class:`ClientDelta` — the *net* change per entity key / association
  pair, as recorded live by :meth:`ClientState.record_into`.  This is
  what the delta rules in :mod:`repro.ivm.writeplan` consume: an entity
  touched twice collapses to one ``(old, new)`` transition, inverse
  pairs (insert;delete, add;remove, update back to the original value)
  collapse to nothing.
* :class:`DeltaScript` — an ordered list of mutation *operations*, the
  wire form a remote client ships to the service's ``save_delta`` verb.
  Replaying a script onto the server's cached client state (with
  recording on) yields the net :class:`ClientDelta`, resolving old
  entity values the client never had to send.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.edm.instances import ClientState, Entity
from repro.errors import SchemaError

Key = Tuple[object, ...]


class ClientDelta:
    """Net client-state change, keyed for O(1) delta-rule lookups.

    ``entities[set][key]`` is a two-slot ``[old, new]`` list (``None`` =
    absent on that side); ``associations[assoc][pair]`` is a signed count
    in ``{-1, +1}``.  Entries whose sides agree are dropped eagerly, so
    ``empty`` really means "saving this is a no-op".
    """

    def __init__(self) -> None:
        self.entities: Dict[str, Dict[Key, List[Optional[Entity]]]] = {}
        self.associations: Dict[str, Dict[Key, int]] = {}

    # -- the ClientState recording protocol -----------------------------
    def record_entity(
        self,
        set_name: str,
        key: Key,
        old: Optional[Entity],
        new: Optional[Entity],
    ) -> None:
        per_set = self.entities.setdefault(set_name, {})
        entry = per_set.get(key)
        if entry is None:
            entry = per_set[key] = [old, new]
        else:
            entry[1] = new
        if entry[0] == entry[1]:  # inverse pair / faithful rewrite: no net change
            del per_set[key]

    def record_association(self, assoc_name: str, pair: Key, sign: int) -> None:
        per_assoc = self.associations.setdefault(assoc_name, {})
        net = per_assoc.get(pair, 0) + sign
        if net:
            per_assoc[pair] = net
        else:
            per_assoc.pop(pair, None)

    # -- delta-rule access ----------------------------------------------
    def entity_changes(self, set_name: str) -> Dict[Key, List[Optional[Entity]]]:
        return self.entities.get(set_name) or {}

    def association_changes(self, assoc_name: str) -> Dict[Key, int]:
        return self.associations.get(assoc_name) or {}

    def sources(self) -> FrozenSet[str]:
        """Entity-set and association names with net activity — the
        sources whose writeplan subtrees propagate anything."""
        return frozenset(
            [name for name, per in self.entities.items() if per]
            + [name for name, per in self.associations.items() if per]
        )

    @property
    def empty(self) -> bool:
        return not self.sources()

    def op_count(self) -> int:
        return sum(len(per) for per in self.entities.values()) + sum(
            len(per) for per in self.associations.values()
        )

    def __str__(self) -> str:
        parts = []
        for name, per in sorted(self.entities.items()):
            if per:
                parts.append(f"{name}:{len(per)}")
        for name, per in sorted(self.associations.items()):
            if per:
                parts.append(f"{name}:{len(per)}")
        return f"ClientDelta({', '.join(parts)})"


@dataclass(frozen=True)
class EntityOp:
    """One entity mutation: ``insert``/``update`` carry the entity,
    ``delete`` carries the key."""

    op: str
    set_name: str
    entity: Optional[Entity] = None
    key: Optional[Key] = None


@dataclass(frozen=True)
class AssociationOp:
    """One association mutation (``insert`` or ``delete`` of a pair)."""

    op: str
    assoc_name: str
    key1: Key = ()
    key2: Key = ()


@dataclass(frozen=True)
class DeltaScript:
    """An ordered mutation script — the wire form of a client delta."""

    ops: Tuple[object, ...] = field(default=())

    def apply_to(self, state: ClientState) -> None:
        """Replay every operation onto *state* in order.

        The caller decides whether *state* is recording; a raising replay
        may leave *state* partially mutated (the engine resyncs then).
        """
        for op in self.ops:
            if isinstance(op, EntityOp):
                if op.op == "insert":
                    state.add_entity(op.set_name, op.entity)
                elif op.op == "update":
                    state.update_entity(op.set_name, op.entity)
                elif op.op == "delete":
                    state.remove_entity(op.set_name, op.key)
                else:
                    raise SchemaError(f"unknown entity delta op {op.op!r}")
            elif isinstance(op, AssociationOp):
                if op.op == "insert":
                    state.add_association(op.assoc_name, op.key1, op.key2)
                elif op.op == "delete":
                    state.remove_association(op.assoc_name, op.key1, op.key2)
                else:
                    raise SchemaError(f"unknown association delta op {op.op!r}")
            else:
                raise SchemaError(f"unknown delta op {op!r}")

    def __len__(self) -> int:
        return len(self.ops)
