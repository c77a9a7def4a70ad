"""The compiled model an incremental compilation evolves.

Figure 7: the incremental compiler's input is the pre-evolved model
(client schema, store schema, mapping fragments) *plus* the query and
update views previously compiled for it.  :class:`CompiledModel` bundles
the two; SMOs evolve a clone and the original is never mutated, which
gives the abort-and-undo behaviour of Section 4.1 for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.edm.schema import ClientSchema
from repro.fingerprint import fingerprint as _fingerprint
from repro.mapping.fragments import Mapping
from repro.mapping.views import CompiledViews
from repro.relational.schema import StoreSchema

if TYPE_CHECKING:  # pragma: no cover
    from repro.incremental.delta import MappingDelta


@dataclass
class CompiledModel:
    """A mapping together with its compiled query and update views."""

    mapping: Mapping
    views: CompiledViews

    @property
    def client_schema(self) -> ClientSchema:
        return self.mapping.client_schema

    @property
    def store_schema(self) -> StoreSchema:
        return self.mapping.store_schema

    def clone(self) -> "CompiledModel":
        return CompiledModel(self.mapping.clone(), self.views.clone())

    def apply(self, delta: "MappingDelta") -> "CompiledModel":
        """Replay a delta on a copy-on-write clone — the single mutation point.

        The clone shares every immutable leaf (types, tables, fragments,
        views) with ``self``; only the containers the ops touch diverge.
        ``self`` is never mutated, so a failing op leaves it intact.
        """
        evolved = self.clone()
        for op in delta.ops:
            op.apply(evolved)
        return evolved

    def fingerprint(self) -> str:
        """Canonical structural hash (order-insensitive where order is noise).

        Used by the session journal and ``plan()`` to prove non-mutation,
        and by tests to assert inverse-delta roundtrips.
        """
        schema = self.client_schema
        store = self.store_schema
        return _fingerprint(
            tuple(sorted(schema.entity_types, key=lambda t: t.name)),
            tuple(sorted(schema.entity_sets, key=lambda s: s.name)),
            tuple(sorted(schema.associations, key=lambda a: a.name)),
            tuple(sorted(store.tables, key=lambda t: t.name)),
            tuple(self.mapping.fragments),
            tuple(sorted(self.views.query_views.items())),
            tuple(sorted(self.views.association_views.items())),
            tuple(sorted(self.views.update_views.items())),
        )

    def __str__(self) -> str:
        return (
            f"CompiledModel({len(self.mapping.fragments)} fragments, "
            f"{len(self.views.query_views)} query views, "
            f"{len(self.views.update_views)} update views)"
        )
