"""Association types and sets between entity types (EDM subset).

An association connects entities of two entity types.  Its instances are
pairs of keys, as in Section 2.1: "association sets are sets of tuples
(α1, α2) corresponding to key attributes of the entities participating in
the association".  Multiplicities are 1, 0..1 or * per end, which covers
the 1:1, 1:n and m:n cardinalities of Section 2.

Attribute names on an association scan are role-qualified, matching the
paper's ``π_{Customer.Id AS Cid, Employee.Id AS Eid}(Supports)`` notation:
the attribute for key ``Id`` of the end with role ``Customer`` is
``"Customer.Id"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from repro.errors import SchemaError
from repro.fingerprint import digest_leaf


class Multiplicity(Enum):
    """Cardinality of one association end."""

    ONE = "1"
    ZERO_OR_ONE = "0..1"
    MANY = "*"

    def at_most_one(self) -> bool:
        return self is not Multiplicity.MANY

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AssociationEnd:
    """One end of an association: the participating type, role, multiplicity.

    ``role`` defaults to the entity type name; it must be given explicitly
    for self-associations so the two ends stay distinguishable.
    """

    entity_type: str
    multiplicity: Multiplicity
    role: Optional[str] = None

    @property
    def role_name(self) -> str:
        return self.role if self.role is not None else self.entity_type

    def __str__(self) -> str:
        return f"{self.role_name}:{self.entity_type}[{self.multiplicity}]"


@digest_leaf
@dataclass(frozen=True)
class AssociationSet:
    """A named set of associations between entities of two entity sets.

    We fold association *type* and *set* into one object: the paper assumes
    every association set is mentioned in a single mapping fragment and never
    needs two sets of the same association type.
    """

    name: str
    end1: AssociationEnd
    end2: AssociationEnd
    entity_set1: str = ""
    entity_set2: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("association set name must be non-empty")
        if self.end1.role_name == self.end2.role_name:
            raise SchemaError(
                f"association {self.name!r} has two ends with role "
                f"{self.end1.role_name!r}; give explicit distinct roles"
            )

    @property
    def ends(self) -> Tuple[AssociationEnd, AssociationEnd]:
        return (self.end1, self.end2)

    def end_for_role(self, role: str) -> AssociationEnd:
        for end in self.ends:
            if end.role_name == role:
                return end
        raise SchemaError(f"association {self.name!r} has no end with role {role!r}")

    def qualified_key_attrs(self, key1: Tuple[str, ...], key2: Tuple[str, ...]) -> Tuple[str, ...]:
        """Role-qualified attribute names of this association's tuples."""
        first = tuple(f"{self.end1.role_name}.{k}" for k in key1)
        second = tuple(f"{self.end2.role_name}.{k}" for k in key2)
        return first + second

    def __str__(self) -> str:
        return f"{self.name}({self.end1} -- {self.end2})"
