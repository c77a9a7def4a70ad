"""An ORM-style session over a compiled model.

Everything the compilers produce comes together here, the way a
downstream application would use it:

* **queries** run against the relational data through view unfolding
  (Section 1.1's query translation);
* **SaveChanges** translates object-level modifications into the minimal
  store delta through the update views (Section 1.1's update
  translation), with store constraints checked before anything is
  applied;
* **schema evolution** applies an SMO through the incremental compiler
  and *migrates the stored data* — by construction, reading the old data
  through the old query views and storing it through the new update
  views is exactly the semantics-preserving migration, because both
  mappings agree on all pre-existing client states (the Section 2.3
  soundness restriction).

The session is a thin facade over a :class:`~repro.engine.SessionEngine`
— the epoch-based serving core that makes ``query`` safe (and lock-free
on snapshot backends) from any thread while ``evolve`` / ``save`` /
``undo`` serialize through a writer path and publish each change as a
new immutable :class:`~repro.engine.Epoch` with one atomic swap.  The
attributes historical code relies on (``model``, ``plan_cache``,
``journal``, ``backend``, ``validation_cache``) remain available here as
views onto the engine's current epoch.

The session talks to the relational data exclusively through a
:class:`~repro.backend.base.StoreBackend`: the in-memory interpreter, or
a live SQLite database that executes the generated SQL/DDL itself
(``backend="sqlite"``; the ``REPRO_BACKEND`` environment variable picks
the default).  Query, SaveChanges, evolve and undo behave identically on
either engine.

Example::

    session = OrmSession.create(model)                      # in-memory
    session = OrmSession.create(model, backend="sqlite")    # live SQLite
    with session.edit() as state:
        state.add_entity("Persons", Entity.of("Person", Id=1, Name="ann"))
    session.query(EntityQuery("Persons"))
    session.evolve(AddEntity.tpt(...))      # schema + data migrate together
    plan = session.plan([smo1, smo2])       # dry-run: delta + checks, no mutation
    session.evolve_many([smo1, smo2])       # one batch, one neighborhood validation
    session.undo()                          # inverse delta + migration back
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.backend.base import StoreBackend, create_backend
from repro.backend.memory import MemoryBackend
from repro.budget import WorkBudget
from repro.compiler.validation import ValidationReport
from repro.containment.cache import ValidationCache, ValidationCacheStats
from repro.edm.instances import ClientState
from repro.engine import Epoch, JournalEntry, SessionEngine
from repro.errors import SmoError
from repro.fingerprint import digest_stats
from repro.incremental.model import CompiledModel
from repro.incremental.smo import EvolutionPlan, Smo
from repro.ivm import DeltaScript
from repro.query.dml import StoreDelta
from repro.query.language import EntityQuery
from repro.query.plancache import PlanCache, ServingStats
from repro.relational.instances import StoreState

__all__ = ["OrmSession", "JournalEntry", "Epoch", "SessionEngine"]


class OrmSession:
    """A compiled model plus the relational data it maps."""

    def __init__(
        self,
        model: CompiledModel,
        store_state: Optional[StoreState] = None,
        backend: Optional[StoreBackend] = None,
        budget: Optional[WorkBudget] = None,
        cache_dir: Optional[str] = None,
        result_cache_budget: Optional[int] = None,
    ) -> None:
        if backend is None:
            # bare StoreState (or nothing): the historical in-memory session
            backend = MemoryBackend(
                store_state
                if store_state is not None
                else StoreState(model.store_schema)
            )
        elif store_state is not None:
            raise SmoError("pass either store_state or backend, not both")
        #: the epoch engine every read and write goes through
        self.engine = SessionEngine(
            model,
            backend,
            budget=budget,
            cache_dir=cache_dir,
            result_cache_budget=result_cache_budget,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def create(
        model: CompiledModel,
        backend: Optional[str] = None,
        db_path: Optional[str] = None,
        pool_size: int = 0,
        cache_dir: Optional[str] = None,
        result_cache_budget: Optional[int] = None,
    ) -> "OrmSession":
        """A session over an empty database.

        *backend* names the store engine (``"memory"`` / ``"sqlite"``);
        when ``None`` the ``REPRO_BACKEND`` environment variable decides
        (defaulting to memory).  *db_path* puts a SQLite store on disk
        instead of in ``:memory:``; *pool_size* > 0 provisions a reader
        connection pool for concurrent serving.  *cache_dir* attaches the
        persistent cross-process validation cache (defaulting to
        ``REPRO_CACHE_DIR`` when set).  *result_cache_budget* bounds the
        materialized result tier in cells (rows × width); ``0`` disables
        it, ``None`` uses the default.
        """
        engine = create_backend(
            backend, model.store_schema, db_path=db_path, pool_size=pool_size
        )
        return OrmSession(
            model,
            backend=engine,
            cache_dir=cache_dir,
            result_cache_budget=result_cache_budget,
        )

    # ------------------------------------------------------------------
    # Epoch views (compatibility surface — these read the current epoch)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> Epoch:
        """The current immutable serving epoch."""
        return self.engine.epoch

    @property
    def model(self) -> CompiledModel:
        return self.engine.epoch.model

    @property
    def plan_cache(self) -> PlanCache:
        return self.engine.epoch.plan_cache

    @property
    def journal(self) -> List[JournalEntry]:
        return self.engine.journal

    @property
    def backend(self) -> StoreBackend:
        return self.engine.backend

    @property
    def validation_cache(self) -> ValidationCache:
        return self.engine.validation_cache

    @property
    def store_state(self) -> StoreState:
        """The backend's contents as a (possibly cached) StoreState."""
        return self.engine.backend.to_store_state()

    @store_state.setter
    def store_state(self, state: StoreState) -> None:
        self.engine.replace_contents(state)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self) -> ClientState:
        """Materialise the whole object view of the database (Q)."""
        return self.engine.load()

    def query(self, query: EntityQuery) -> List[object]:
        """Answer an object query from the relational data alone.

        Served through the current epoch's :class:`PlanCache`: the query
        is split into a constant-free shape plus a parameter vector, and
        structurally identical queries reuse one unfolded (and, on
        SQLite, SQL-compiled) plan.  Safe to call from any thread.
        """
        return self.engine.query(query)

    def explain(self, query: EntityQuery) -> str:
        """The store-level plan a query unfolds to (Entity-SQL text).

        Routed through the same plan cache as :meth:`query`, so explain
        shows — and warms — exactly the plan execution will use.
        """
        plan, values, _ = self.engine.plan_for(query)
        return plan.explain(values)

    def explain_sql(
        self, query: EntityQuery
    ) -> List[Tuple[str, str, Tuple[object, ...]]]:
        """Per-branch ``(constructed type, SQL text, bound parameters)``
        of the cached plan — the statements :meth:`query` executes on a
        SQL backend."""
        plan, values, epoch = self.engine.plan_for(query)
        return [
            (branch.concrete_type, compiled.text, params)
            for branch, compiled, params in plan.bound_sql(
                epoch.model.store_schema, values
            )
        ]

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save(self, new_state: ClientState) -> StoreDelta:
        """SaveChanges: persist *new_state* as the object view.

        Computes the minimal row delta (via the update views) and hands
        it to the backend, which applies it transactionally — the
        interpreter checks PK/FK explicitly, SQLite enforces them
        natively.  On a constraint violation nothing is applied.
        """
        return self.engine.save(new_state)

    @contextmanager
    def edit(self) -> Iterator[ClientState]:
        """Edit the object view in place and save on exit::

            with session.edit() as state:
                state.add_entity("Persons", Entity.of("Person", Id=1, ...))
        """
        state = self.load()
        yield state
        self.save(state)

    def save_delta(self, script: "DeltaScript") -> StoreDelta:
        """Incremental SaveChanges: apply a recorded edit script.

        Instead of re-materializing every update view over the whole
        client state (what :meth:`save` does), the script's net
        :class:`~repro.ivm.ClientDelta` is pushed through compiled
        per-view delta rules (:mod:`repro.ivm.writeplan`), producing
        exactly the same store DML at cost proportional to the *change*,
        not the database.  Shapes the delta rules cannot handle fall back
        to a whole-state save transparently — the result is always
        byte-identical to :meth:`save`.
        """
        return self.engine.apply_script(script)

    @contextmanager
    def edit_incremental(self) -> Iterator[ClientState]:
        """Like :meth:`edit`, but mutations are recorded and saved
        through the incremental write path on exit::

            with session.edit_incremental() as state:
                state.update_entity("Persons", changed_person)
        """
        with self.engine.incremental_edit() as state:
            yield state

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def evolve(self, smo: Smo) -> StoreDelta:
        """Apply one SMO incrementally and migrate the stored data.

        A batch of one: see :meth:`evolve_many` for the mechanics and the
        journal entry this leaves behind.
        """
        return self.engine.evolve(smo)

    def evolve_many(
        self, smos: Sequence[Smo], label: Optional[str] = None
    ) -> StoreDelta:
        """Apply a batch of SMOs as one transaction and migrate the data.

        See :meth:`SessionEngine.evolve_many`: the batch validates one
        union neighborhood, the evolved model + migrated store + surviving
        plan-cache slice are built off to the side, and the new epoch is
        published with a single atomic swap — concurrent queries never
        observe a half-applied delta.
        """
        return self.engine.evolve_many(smos, label=label)

    def plan(self, smos: Sequence[Smo]) -> EvolutionPlan:
        """Dry-run a batch: the delta it would emit and the checks it
        would schedule, without touching the session's model or data."""
        return self.engine.plan(smos)

    def migration_script(self, smos: Sequence[Smo]):
        """Dry-run the *store-side* migration of a batch: the ordered
        DDL + DML :class:`~repro.backend.migrate.MigrationScript` that
        :meth:`evolve_many` would execute, without mutating anything."""
        return self.engine.migration_script(smos)

    def undo(self) -> JournalEntry:
        """Roll back the most recent :meth:`evolve` / :meth:`evolve_many`.

        The model is restored by replaying the journal entry's *inverse*
        delta (not from a snapshot — exercising the invertibility of the
        recorded ops), and the data by migrating it back to the entry's
        pre-migration state.  Object-level edits saved *after* the
        evolution are rolled back with it.
        """
        return self.engine.undo()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        budget: Optional[WorkBudget] = None,
        symbolic: bool = True,
        scope: str = "full",
    ) -> ValidationReport:
        """Validate the current model through the session cache.

        Repeated calls (and SMO validations in between) share one
        :class:`ValidationCache`, so re-validating an unchanged or locally
        changed model is dominated by cache hits — the report's
        ``cache_hits`` / ``cache_misses`` show the split.  When the
        session's cache has a persistent store attached (``cache_dir`` /
        ``REPRO_CACHE_DIR``), a fresh process warms from disk the same
        way (``l2_hits``).  ``symbolic`` toggles the layered containment
        fast path; ``scope="delta"`` re-checks only the neighborhood of
        the deltas composed since the last successful validate (see
        :meth:`SessionEngine.validate`).
        """
        return self.engine.validate(budget=budget, symbolic=symbolic, scope=scope)

    def cache_stats(self) -> ValidationCacheStats:
        return self.engine.validation_cache.stats()

    def serving_stats(self) -> ServingStats:
        """Hit/miss/eviction counters of the query-serving fast path."""
        backend = self.engine.backend
        statement_stats = getattr(backend, "statement_cache_stats", None)
        index_stats = getattr(backend, "index_stats", None)
        return ServingStats(
            backend=backend.name,
            plans=self.plan_cache.stats(),
            statements=statement_stats() if statement_stats else None,
            indexes=index_stats() if index_stats else None,
            epoch=self.engine.stats(),
            writeplans=self.engine.writeplans.stats(),
            validation=self.cache_stats(),
            results=self.engine.epoch.results.stats(),
            digests=digest_stats(),
        )

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return (
            f"OrmSession({self.model}, {self.store_state.row_count()} rows)"
        )
