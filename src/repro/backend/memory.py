"""The in-memory store backend: the original interpreter behind the
:class:`~repro.backend.base.StoreBackend` protocol.

Ad-hoc queries evaluate with :mod:`repro.algebra.evaluate` (the reference
semantics every other backend must match); *cached* plans run through
compiled physical plans (:mod:`repro.backend.physical`) on the store
state itself: scans iterate its tables, and probes and joins over a
bare table read its key indexes
(:meth:`~repro.relational.instances.StoreState.key_index`).  The
indexes on declared keys travel with the state through every write in
O(|delta|); an index on any other column lives as long as the table
object it was built on.  The backend keeps no serving cache of its own.

A :class:`MemoryReadView` pins one immutable store state.  State swaps
on every write (``apply_delta`` / ``migrate`` / ``replace_contents``)
are whole-object replacements, never in-place mutation, so the epoch
engine can publish a view as a snapshot and readers on an old epoch
keep byte-identical answers forever while writers move the backend on.
Constraint checking on SaveChanges is *delta-scoped*
(:func:`~repro.relational.constraints.check_delta`): only tables and
rows the delta touches are re-verified, exact because the pre-state is
always consistent.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.algebra.evaluate import Bag, StoreContext, evaluate_query
from repro.algebra.queries import Query
from repro.backend.base import ReadView, StoreBackend
from repro.errors import ValidationError
from repro.query.dml import StoreDelta, apply_delta
from repro.relational.constraints import check_delta
from repro.relational.instances import Row, StoreState, key_index_builds
from repro.relational.schema import StoreSchema


@dataclass(frozen=True)
class KeyIndexStats:
    """Key indexes built in this process (one O(rows) scan each)."""

    builds: int


class MemoryReadView(ReadView):
    """An immutable snapshot of one store state.

    State objects are never mutated in place, so a view holding the
    state reference is a true snapshot: readers on an old epoch keep
    their world while writers publish new views.  The view is its own
    reader.
    """

    snapshot = True

    def __init__(self, state: StoreState) -> None:
        self._state = state

    @contextmanager
    def acquire(self) -> Iterator["MemoryReadView"]:
        yield self

    def to_store_state(self) -> StoreState:
        return self._state

    def run_plan(self, plan, values: Tuple[object, ...]) -> List[Bag]:
        """Run a cached plan's compiled physical form on the pinned
        state: one bag per branch."""
        return plan.physical(self._state.schema).execute(self._state, values)


class MemoryBackend(StoreBackend):
    """Rows live in a :class:`StoreState`; queries run in the interpreter,
    cached plans as compiled physical plans on a :class:`MemoryReadView`
    of the current state."""

    name = "memory"

    def __init__(self, store_state: StoreState) -> None:
        self._state = store_state

    @property
    def schema(self) -> StoreSchema:
        return self._state.schema

    # -- reading -------------------------------------------------------
    def rows(self, table_name: str) -> Tuple[Row, ...]:
        return self._state.rows(table_name)

    def run_query(self, query: Query) -> List[Dict[str, object]]:
        return evaluate_query(query, StoreContext(self._state))

    def to_store_state(self) -> StoreState:
        return self._state

    def row_count(self) -> int:
        return self._state.row_count()

    def read_view(self) -> MemoryReadView:
        """A snapshot of the *current* state, published as an epoch's
        view by the engine; writes swap the state, never mutate it."""
        return MemoryReadView(self._state)

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """A no-op: every reader holds a snapshot no write can touch."""
        yield

    def index_stats(self) -> KeyIndexStats:
        return KeyIndexStats(builds=key_index_builds())

    # -- writing -------------------------------------------------------
    def apply_delta(self, delta: StoreDelta) -> None:
        candidate = apply_delta(self._state, delta)
        violations = check_delta(self._state, candidate, delta)
        if violations:
            detail = "; ".join(str(v) for v in violations[:5])
            raise ValidationError(
                f"update would violate store constraints: {detail}",
                check="save-changes",
            )
        self._state = candidate

    def migrate(self, script, new_schema: StoreSchema, target: StoreState) -> None:
        # The interpreter needs no DDL: the migrated state was computed
        # through the views, so the script's net effect *is* `target`
        # (the differential suite holds SQLite's execution of the same
        # script to this answer).
        self._state = target

    def replace_contents(self, state: StoreState) -> None:
        self._state = state

    def __str__(self) -> str:
        return f"MemoryBackend({self._state.row_count()} rows)"
