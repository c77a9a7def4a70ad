"""Entity types organised in single-inheritance hierarchies (EDM subset).

An entity type declares its *own* (non-inherited) attributes; the full
attribute set ``att(E)`` of the paper is own attributes plus all inherited
ones.  Keys are declared on hierarchy roots and inherited unchanged, as in
EDM.  Hierarchy navigation lives on :class:`repro.edm.schema.ClientSchema`,
which owns the type registry; an :class:`EntityType` only knows its parent's
name so that types remain simple value-like objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.edm.types import Attribute
from repro.errors import SchemaError
from repro.fingerprint import digest_leaf


@digest_leaf
@dataclass(frozen=True)
class EntityType:
    """An entity type: name, optional parent, own attributes, optional key.

    ``key`` must be set exactly on hierarchy roots (types with no parent)
    and must name a subset of the root's own attributes.
    """

    name: str
    parent: Optional[str] = None
    attributes: Tuple[Attribute, ...] = ()
    key: Tuple[str, ...] = ()
    abstract: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("entity type name must be non-empty")
        seen = set()
        for attribute in self.attributes:
            if attribute.name in seen:
                raise SchemaError(
                    f"duplicate attribute {attribute.name!r} on entity type {self.name!r}"
                )
            seen.add(attribute.name)
        if self.parent is None:
            if not self.key:
                raise SchemaError(f"root entity type {self.name!r} must declare a key")
            missing = [k for k in self.key if k not in seen]
            if missing:
                raise SchemaError(
                    f"key attributes {missing} of {self.name!r} are not own attributes"
                )
            for key_attr in self.key:
                attribute = next(a for a in self.attributes if a.name == key_attr)
                if attribute.nullable:
                    raise SchemaError(
                        f"key attribute {key_attr!r} of {self.name!r} must not be nullable"
                    )
        elif self.key:
            raise SchemaError(
                f"derived entity type {self.name!r} must not redeclare a key"
            )

    @property
    def own_attribute_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def own_attribute(self, name: str) -> Attribute:
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise SchemaError(f"entity type {self.name!r} has no own attribute {name!r}")

    def __str__(self) -> str:
        parent = f"({self.parent})" if self.parent else ""
        attrs = ", ".join(str(a) for a in self.attributes)
        return f"{self.name}{parent}[{attrs}]"


@digest_leaf
@dataclass(frozen=True)
class EntitySet:
    """A persistent collection of entities of a root type or its subtypes."""

    name: str
    root_type: str

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("entity set name must be non-empty")

    def __str__(self) -> str:
        return f"{self.name}<{self.root_type}>"
