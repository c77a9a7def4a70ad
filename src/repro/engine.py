"""An ORM-style session over a compiled model: the epoch engine.

Everything the compilers produce comes together here, the way a
downstream application would use it:

* **queries** run against the relational data through view unfolding
  (Section 1.1's query translation);
* **SaveChanges** translates object-level modifications into the minimal
  store delta through the update views (Section 1.1's update
  translation), with store constraints checked before anything is
  applied;
* **schema evolution** applies an SMO through the incremental compiler
  and *migrates the stored data* — reading the old data through the old
  query views and storing it through the new update views is exactly the
  semantics-preserving migration, because both mappings agree on all
  pre-existing client states (the Section 2.3 soundness restriction).

The paper's incremental compiler exists so a *live* ORM can evolve its
schema without stopping the world.  An :class:`OrmSession` therefore
serves every request from an immutable :class:`Epoch` value (compiled
model + structural fingerprint + the plan cache slice valid for it + a
data read view) and coordinates readers and writers around it.  The
session talks to the relational data only through a
:class:`~repro.backend.base.StoreBackend`: the in-memory interpreter, or
a live SQLite database that executes the generated SQL/DDL itself
(``backend="sqlite"``; the ``REPRO_BACKEND`` environment variable picks
the default).  Query, SaveChanges, evolve and undo behave identically on
either.

**Reader protocol** — :meth:`OrmSession.query` grabs the current epoch
reference (one attribute read, atomic under the GIL), resolves its plan
from the epoch's own plan cache, and executes:

* on engines with **snapshot reads** (memory: store states are replaced
  wholesale, never mutated) the epoch's view pins one immutable state, so
  the read takes no lock and the response is consistent with that epoch
  *by construction* — even if a writer publishes ten epochs mid-flight,
  this reader finishes on its own;
* on **live engines** (SQLite: the data is in the database, one version
  at a time) a result-tier hit is served without touching the store.  A
  miss takes the view's read lease, which no publication window
  overlaps, and looks at the current epoch only while it holds it: if a
  writer published since the read began, the read re-plans once on that
  epoch, then executes.  The data and the epoch cannot move under the
  lease, so the answer is consistent with that epoch *by construction*.

**Writer protocol** — ``save`` / ``save_delta`` / ``evolve`` /
``evolve_many`` / ``undo`` and assigning ``store_state`` serialize on one
re-entrant writer lock.  A writer builds everything off to the side
(compile the batch, compute the migrated store, derive the successor
plan cache with delta-scoped invalidation), then publishes in a short
window under the backend's
:meth:`~repro.backend.base.StoreBackend.exclusive` hold::

    backend mutation    (transactional: all or nothing)
    next result tier    (maintained from the post-write store)
    epoch = next_epoch  (THE atomic swap)

In-flight snapshot readers finish on the old epoch; new readers land on
the new one.  On a validation abort nothing was published and the old
epoch stands untouched.

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

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.algebra.queries import scanned_names
from repro.backend.base import ReadView, StoreBackend, create_backend
from repro.backend.memory import MemoryBackend
from repro.backend.migrate import MigrationScript, plan_migration
from repro.budget import WorkBudget
from repro.compiler.validation import (
    ValidationReport,
    validate_delta_neighborhood,
    validate_mapping,
)
from repro.containment.cache import ValidationCache
from repro.containment.persist import PersistentCacheStore, cache_dir_from_env
from repro.edm.instances import ClientState
from repro.edm.schema import ClientSchema
from repro.errors import IvmError, SchemaError, SmoError
from repro.fingerprint import digest_stats
from repro.incremental.delta import MappingDelta
from repro.incremental.model import CompiledModel
from repro.incremental.smo import (
    BatchResult,
    EvolutionPlan,
    IncrementalCompiler,
    Smo,
)
from repro.ivm import (
    ClientDelta,
    DeltaScript,
    IncrementalWriteState,
    WriteplanCache,
    push_client_delta,
    seed_counts,
)
from repro.mapping.roundtrip import apply_query_views, apply_update_views
from repro.query.dml import StoreDelta, diff_store_states
from repro.query.language import EntityQuery
from repro.query.plancache import PlanCache, ServingStats
from repro.query.resultcache import DEFAULT_RESULT_BUDGET, ResultCache
from repro.relational.instances import StoreState


@dataclass(frozen=True)
class JournalEntry:
    """One committed evolution in the session's transactional journal.

    Records everything needed to report on — and to *undo* — the step:
    the declarative :class:`MappingDelta` the batch emitted (whose
    ``inverse()`` replays the model back), the store state from before
    the migration (immutable, and sharing every table the migration left
    alone with the states after it, so keeping it costs the region, and
    undo migrates back to it), and the neighborhood checks the batch
    scheduled (used by the benchmarks to compare sequential vs batched
    validation work).  It also keeps what the session awaited validation
    for before the step — the pending delta, the model fingerprint and
    how many times ``validate`` had reset the pending delta — so an undo
    that lands back on that model can restore the pending delta instead
    of growing it.
    """

    label: str
    smos: Tuple[Smo, ...]
    delta: MappingDelta
    store_before: StoreState
    check_names: Tuple[str, ...]
    pending_before: MappingDelta
    fingerprint_before: str
    validations_before: int

    @property
    def scheduled_checks(self) -> int:
        return len(self.check_names)

    def __str__(self) -> str:
        return (
            f"{self.label}: {len(self.delta)} delta op(s), "
            f"{self.scheduled_checks} check(s)"
        )


@dataclass(frozen=True)
class Epoch:
    """One immutable serving generation.

    Everything a reader needs travels together and is published with a
    single reference swap: the compiled model, its structural
    fingerprint (the identity a response is 'consistent with'), the plan
    cache slice valid for exactly this model, and the data read view.
    Nothing here is ever mutated after publication — the plan cache
    object accepts new *entries* (memoization is monotone; a plan cached
    late is the plan that would have been built early), but its keyed
    contents can only describe this epoch's model.
    """

    epoch_id: int
    model: CompiledModel
    fingerprint: str
    plan_cache: PlanCache
    view: ReadView
    #: the materialized result tier valid for exactly this epoch; like
    #: the plan cache it accepts new entries (population is monotone
    #: memoization of this epoch's answers) but is never *maintained* in
    #: place — write paths derive a successor and publish it with the
    #: next epoch
    results: ResultCache

    def __str__(self) -> str:
        return f"Epoch({self.epoch_id}, {self.fingerprint[:12]}…)"


@dataclass
class EngineStats:
    """Reader/writer coordination counters."""

    epoch_id: int
    epochs_published: int
    queries: int = 0
    #: live reads that found a newer epoch under their lease and
    #: re-planned on it (snapshot reads never do)
    read_retries: int = 0
    #: incremental saves that hit an IvmError and fell back to a
    #: whole-state save (correct, just not incremental)
    ivm_fallbacks: int = 0

    def __str__(self) -> str:
        return (
            f"EngineStats(epoch={self.epoch_id}, "
            f"published={self.epochs_published}, queries={self.queries}, "
            f"retries={self.read_retries}, "
            f"ivm_fallbacks={self.ivm_fallbacks})"
        )


class OrmSession:
    """A compiled model plus the relational data it maps.

    One session owns one backend, one validation cache, one journal, and
    the chain of epochs it publishes.  All public readers are safe from
    any thread; all writers serialize internally — callers never manage
    locks.  Without a *backend* the session keeps its data in memory,
    starting from *store_state* (or an empty store).
    """

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
            backend = MemoryBackend(
                store_state
                if store_state is not None
                else StoreState(model.store_schema)
            )
        elif store_state is not None:
            raise SmoError("pass either store_state or backend, not both")
        self.backend = backend
        # The validation cache is the per-process L1; *cache_dir* (or the
        # REPRO_CACHE_DIR environment variable) attaches the on-disk L2
        # every process sharing the directory warms and is warmed by.
        resolved_dir = cache_dir if cache_dir is not None else cache_dir_from_env()
        store = PersistentCacheStore(resolved_dir) if resolved_dir else None
        self.validation_cache = ValidationCache(store=store)
        self._compiler = IncrementalCompiler(
            budget=budget, cache=self.validation_cache
        )
        #: composition of every delta committed since the last successful
        #: validate() — its touched neighborhood is the minimal re-check
        #: scope after an arbitrarily long SMO history
        self._unvalidated_delta = MappingDelta()
        #: how many times validate() has reset ``_unvalidated_delta``
        self._validations = 0
        #: committed evolutions, oldest first; ``undo`` pops from the end
        self.journal: List[JournalEntry] = []
        self._writer_lock = threading.RLock()
        self._epoch_counter = 0
        self._queries = 0
        self._read_retries = 0
        self._ivm_fallbacks = 0
        #: compiled write plans survive across epochs (delta-scoped
        #: invalidation on evolution, like the read-side PlanCache)
        self.writeplans = WriteplanCache()
        #: lazily-materialized client view + view-row counts backing the
        #: incremental write path; None = must reseed from the backend
        self._incremental: Optional[IncrementalWriteState] = None
        # rows × width cells the result tier may hold; 0 disables it
        results = ResultCache(
            result_cache_budget
            if result_cache_budget is not None
            else DEFAULT_RESULT_BUDGET
        )
        self._epoch = self._next_epoch(model, PlanCache(), results)

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
        return OrmSession(
            model,
            backend=create_backend(
                backend, model.store_schema, db_path=db_path, pool_size=pool_size
            ),
            cache_dir=cache_dir,
            result_cache_budget=result_cache_budget,
        )

    # ------------------------------------------------------------------
    # Epoch plumbing
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> Epoch:
        """The current epoch (atomic to read; grab once per request)."""
        return self._epoch

    @property
    def engine(self) -> "OrmSession":
        """This session itself: a read-only alias the end-to-end
        benchmark's workloads still call."""
        return self

    @property
    def model(self) -> CompiledModel:
        """The current epoch's compiled model."""
        return self._epoch.model

    @property
    def plan_cache(self) -> PlanCache:
        """The current epoch's plan cache."""
        return self._epoch.plan_cache

    @property
    def store_state(self) -> StoreState:
        """The backend's contents as a (possibly cached) StoreState.

        Assigning a state resets schema and data wholesale (bulk loads,
        tests).  The model is unchanged but every cached plan is dropped
        — a wholesale reset may swap the store schema under the plans'
        feet.
        """
        return self.backend.to_store_state()

    @store_state.setter
    def store_state(self, state: StoreState) -> None:
        with self._writer_lock:
            self._incremental = None
            epoch = self._epoch
            self._commit(
                lambda: self.backend.replace_contents(state),
                epoch.model,
                epoch.plan_cache.empty_successor(),
                fingerprint=epoch.fingerprint,
                make_results=epoch.results.empty_successor,
            )

    def _next_epoch(
        self,
        model: CompiledModel,
        plan_cache: PlanCache,
        results: ResultCache,
        fingerprint: Optional[str] = None,
    ) -> Epoch:
        self._epoch_counter += 1
        return Epoch(
            epoch_id=self._epoch_counter,
            model=model,
            fingerprint=(
                fingerprint if fingerprint is not None else model.fingerprint()
            ),
            plan_cache=plan_cache,
            view=self.backend.read_view(),
            results=results,
        )

    def _commit(
        self,
        mutate: Callable[[], object],
        model: CompiledModel,
        plan_cache: PlanCache,
        fingerprint: Optional[str] = None,
        make_results: Optional[Callable[[], ResultCache]] = None,
    ):
        """The publication window (writer lock held by the caller).

        The mutation, the next result tier and the epoch swap all run
        under the backend's exclusive hold, so no live read's lease
        overlaps them.  Backend mutations are transactional, so an
        exception means the data is unchanged and the *old* epoch
        remains exactly right.  On success the new epoch becomes visible
        with one reference assignment.

        *make_results* builds the next epoch's result-tier slice.  It
        runs after the mutation succeeded (so it can read the post-write
        store state) and before the swap; if it fails, the tier degrades
        to an empty successor — dropping cached answers is always
        correct, serving stale ones never is.
        """
        with self.backend.exclusive():
            result = mutate()
            try:
                results = (
                    make_results()
                    if make_results is not None
                    else self._epoch.results.empty_successor()
                )
            except Exception:
                results = self._epoch.results.empty_successor()
            self._epoch = self._next_epoch(model, plan_cache, results, fingerprint)
        return result

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def query(self, query: EntityQuery) -> List[object]:
        """Answer an object query from the relational data alone.

        Served through the current epoch's :class:`PlanCache`: the query
        is split into a constant-free shape plus a parameter vector, and
        structurally identical queries reuse one unfolded (and, on
        SQLite, SQL-compiled) plan.  Safe from any thread, lock-free on
        snapshot backends and on result-tier hits.
        """
        rows, _ = self.query_with_epoch(query)
        return rows

    def query_with_epoch(
        self, query: EntityQuery
    ) -> Tuple[List[object], Epoch]:
        """(rows, the epoch the response is consistent with).

        The returned epoch's fingerprint is the consistency token: the
        serving benchmark asserts every concurrent response matches
        exactly one published fingerprint.
        """
        self._queries += 1
        epoch = self._epoch
        if epoch.view.snapshot:
            return self.query_on(epoch, query), epoch

        # Live backends: a result-tier hit touches no backend, so it is
        # served without a lease.  A miss reads under the view's lease,
        # and no writer publishes while it is held: the epoch read under
        # it is the epoch of the data the statements see.
        planned = epoch.plan_cache.plan_with_key(epoch.model, query)
        cached = self._lookup(epoch, planned)
        if cached is not None:
            return cached, epoch
        with epoch.view.acquire() as reader:
            if self._epoch is not epoch:
                # a writer published since this read began
                self._read_retries += 1
                epoch = self._epoch
                planned = epoch.plan_cache.plan_with_key(epoch.model, query)
            plan, values, _key = planned
            rows, bags = plan.execute(reader, values)
        self._populate(epoch, planned, rows, bags)
        return rows, epoch

    def query_on(self, epoch: Epoch, query: EntityQuery) -> List[object]:
        """Execute *query* against a specific epoch.

        On snapshot backends this is how a reader stays pinned: an old
        epoch keeps answering from its own immutable state while newer
        epochs serve fresh traffic.  On live backends every view reads
        the store's current data, which has moved on if a writer
        published since *epoch*; :meth:`query_with_epoch` answers with
        the epoch its data belongs to.
        """
        planned = epoch.plan_cache.plan_with_key(epoch.model, query)
        if not epoch.view.snapshot:
            return self._execute(epoch, planned)[0]
        # Snapshot backends populate inline: the view pins exactly the
        # state the rows and bags came from, so the entry is consistent
        # with this epoch by construction.
        cached = self._lookup(epoch, planned)
        if cached is not None:
            return cached
        rows, bags = self._execute(epoch, planned)
        self._populate(epoch, planned, rows, bags)
        return rows

    @staticmethod
    def _lookup(epoch: Epoch, planned) -> Optional[List[object]]:
        _plan, values, key = planned
        return epoch.results.lookup(key, values, epoch.fingerprint)

    @staticmethod
    def _execute(epoch: Epoch, planned):
        plan, values, _key = planned
        with epoch.view.acquire() as reader:
            return plan.execute(reader, values)

    @staticmethod
    def _populate(epoch: Epoch, planned, rows: List[object], bags) -> None:
        """Offer an answer read from *epoch*'s data to its result tier."""
        plan, values, key = planned
        epoch.results.populate(
            key,
            values,
            plan,
            epoch.model.store_schema,
            epoch.fingerprint,
            rows,
            bags,
        )

    def explain(self, query: EntityQuery) -> str:
        """The store-level plan a query unfolds to (Entity-SQL text).

        Routed through the same plan cache as :meth:`query`, so explain
        shows — and warms — exactly the plan execution will use.
        """
        epoch = self._epoch
        plan, values = epoch.plan_cache.plan_for(epoch.model, query)
        return plan.explain(values)

    def explain_sql(
        self, query: EntityQuery
    ) -> List[Tuple[str, str, Tuple[object, ...]]]:
        """Per-branch ``(constructed type, SQL text, bound parameters)``
        of the cached plan — the statements :meth:`query` executes on a
        SQL backend."""
        epoch = self._epoch
        plan, values = epoch.plan_cache.plan_for(epoch.model, query)
        return [
            (branch.concrete_type, compiled.text, params)
            for branch, compiled, params in plan.bound_sql(
                epoch.model.store_schema, values
            )
        ]

    def load(self) -> ClientState:
        """Materialise the whole object view of the database (Q)."""
        epoch = self._epoch
        if epoch.view.snapshot:
            with epoch.view.acquire() as reader:
                state = reader.to_store_state()
            return apply_query_views(
                epoch.model.views, state, epoch.model.client_schema
            )
        # live backends: a whole-database read must not interleave a
        # migration; take the writer lock (loads are rare and heavy)
        with self._writer_lock:
            epoch = self._epoch
            return apply_query_views(
                epoch.model.views,
                self.backend.to_store_state(),
                epoch.model.client_schema,
            )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save(self, new_state: ClientState) -> StoreDelta:
        """SaveChanges: persist *new_state* as the object view.

        Computes the minimal row delta (via the update views) and hands
        it to the backend, which applies it transactionally — the
        interpreter checks PK/FK explicitly, SQLite enforces them
        natively.  On a constraint violation nothing is applied.
        Data-only: the epoch's model and plans carry over unchanged, but
        a fresh epoch (same fingerprint) is still published so snapshot
        readers see the new data atomically.
        """
        with self._writer_lock:
            self._incremental = None  # state replaced wholesale; reseed lazily
            return self._save_whole(new_state, publish_empty=True)

    @contextmanager
    def edit(self) -> Iterator[ClientState]:
        """Edit the object view in place and save on exit::

            with session.edit() as state:
                state.add_entity("Persons", Entity.of("Person", Id=1, ...))
        """
        state = self.load()
        yield state
        self.save(state)

    def _save_whole(
        self, state: ClientState, *, publish_empty: bool
    ) -> StoreDelta:
        """Lower *state* through the update views, diff it against the
        store and commit the difference (writer lock held).  An empty
        difference publishes an epoch only if *publish_empty*.

        A whole-state save has no signed DML to propagate, so the result
        tier drops exactly the entries scanning a written table and
        carries the rest.
        """
        epoch = self._epoch
        target = apply_update_views(
            epoch.model.views, state, epoch.model.store_schema
        )
        delta = diff_store_states(self.backend.to_store_state(), target)
        written = [name for name, td in delta.tables.items() if not td.empty]
        if written or publish_empty:
            self._commit(
                lambda: self.backend.apply_delta(delta),
                epoch.model,
                epoch.plan_cache,
                fingerprint=epoch.fingerprint,
                make_results=lambda: epoch.results.successor_for_tables(
                    written, epoch.fingerprint
                ),
            )
        return delta

    # ------------------------------------------------------------------
    # Incremental writing (IVM)
    # ------------------------------------------------------------------
    def _incremental_write_state(self) -> IncrementalWriteState:
        """The cached client view + view-row counts (writer lock held).

        Seeded on first use (or after anything that replaced the data or
        the model out from under it) by one whole-database load plus one
        bag evaluation of every update view — the last full-cost
        materialization an uninterrupted run of incremental saves pays.
        """
        if self._incremental is None:
            state = self.load()
            counts = seed_counts(self._epoch.model, state)
            self._incremental = IncrementalWriteState(state, counts)
        return self._incremental

    def save_delta(self, script: DeltaScript) -> StoreDelta:
        """Incremental SaveChanges: apply a recorded edit script.

        Instead of re-materializing every update view over the whole
        client state (what :meth:`save` does), the script replays onto
        the session's cached client view with recording on, and the
        captured :class:`ClientDelta` pushes through compiled per-view
        delta rules (:mod:`repro.ivm.writeplan`), producing exactly the
        same store DML at cost proportional to the *change*, not the
        database.  Shapes the delta rules cannot handle fall back to a
        whole-state save transparently — the result is always
        byte-identical to :meth:`save`.  Validation errors raised by the
        replay leave the cached state only partially mutated, so any
        failure drops the cache — the next incremental save reseeds.
        """
        with self._writer_lock:
            inc = self._incremental_write_state()
            recorder = ClientDelta()
            inc.client_state.record_into(recorder)
            try:
                script.apply_to(inc.client_state)
            except BaseException:
                self._incremental = None
                raise
            finally:
                inc.client_state.stop_recording()
            return self._push_delta(inc, recorder)

    @contextmanager
    def edit_incremental(self) -> Iterator[ClientState]:
        """Like :meth:`edit`, but mutations are recorded and saved
        through the incremental write path on exit::

            with session.edit_incremental() as state:
                state.update_entity("Persons", changed_person)

        An exception inside the block drops the cached client view (it
        may be partially mutated) and propagates."""
        with self._writer_lock:
            inc = self._incremental_write_state()
            recorder = ClientDelta()
            inc.client_state.record_into(recorder)
            try:
                yield inc.client_state
            except BaseException:
                self._incremental = None
                raise
            finally:
                inc.client_state.stop_recording()
            self._push_delta(inc, recorder)

    def _push_delta(
        self, inc: IncrementalWriteState, recorder: ClientDelta
    ) -> StoreDelta:
        """Compile *recorder* into store DML and publish (lock held).

        :class:`~repro.errors.IvmError` (an update-view shape or a count
        invariant the delta rules cannot maintain exactly) falls back to
        a whole-state save of the already-mutated cached view — always
        correct, never an error surfaced to the caller.  Backend failures
        drop the cache so counts cannot drift from the store.
        """
        if recorder.empty:
            return StoreDelta()
        epoch = self._epoch
        try:
            store_delta, pending = push_client_delta(
                epoch.model, recorder, inc, self.writeplans
            )
        except IvmError:
            self._ivm_fallbacks += 1
            return self._fallback_save(inc)
        try:
            if not store_delta.empty:
                self._commit(
                    lambda: self.backend.apply_delta(store_delta),
                    epoch.model,
                    epoch.plan_cache,
                    fingerprint=epoch.fingerprint,
                    # the tentpole path: the signed store DML just
                    # computed propagates through every touched entry's
                    # operators — O(|Δ|) per maintained entry; the
                    # factory runs post-mutation, so to_store_state()
                    # is the new state the delta rules probe against
                    make_results=lambda: epoch.results.successor_for_delta(
                        store_delta,
                        self.backend.to_store_state(),
                        epoch.fingerprint,
                    ),
                )
        except BaseException:
            self._incremental = None
            raise
        inc.commit(pending)
        return store_delta

    def _fallback_save(self, inc: IncrementalWriteState) -> StoreDelta:
        """Whole-state save of the mutated cached view, then reseed counts."""
        try:
            delta = self._save_whole(inc.client_state, publish_empty=False)
            inc.counts = seed_counts(self._epoch.model, inc.client_state)
        except BaseException:
            self._incremental = None
            raise
        return delta

    def evolve_many(
        self, smos: Sequence[Smo], label: Optional[str] = None
    ) -> StoreDelta:
        """Apply a batch of SMOs as one transaction and migrate the data.

        The whole batch compiles through
        :meth:`~repro.incremental.smo.IncrementalCompiler.compile_batch`,
        so the scheduler validates the *union* neighborhood of the
        composed delta once instead of once per SMO.  The data migration
        (:meth:`_region_migration`) is the paper's read-through-the-old-
        query-views, embed (``f(c)``), write-through-the-new-update-views
        composition, restricted to the batch's stale region: the Section
        2.3 soundness restriction leaves every other table's image
        unchanged, so those tables carry into the migrated state by
        reference and the cost follows the region, not the store.
        Everything — evolved model, migrated store, successor plan cache
        — is built *before* the publication window, so readers only ever
        race the short transactional commit.  On success a
        :class:`JournalEntry` is appended (making the step
        :meth:`undo`-able); on a validation abort nothing was read and
        nothing is published.
        """
        with self._writer_lock:
            smos = tuple(smos)
            epoch = self._epoch
            model = epoch.model
            batch = self._compiler.compile_batch(model, smos)
            evolved = batch.model
            store_before, new_store, script = self._region_migration(
                model, batch
            )
            delta = diff_store_states(store_before, new_store)
            entry = JournalEntry(
                label=label or "; ".join(smo.describe() for smo in smos),
                smos=batch.smos,
                delta=batch.delta,
                store_before=store_before,
                check_names=batch.check_names,
                pending_before=self._unvalidated_delta,
                fingerprint_before=epoch.fingerprint,
                validations_before=self._validations,
            )
            # Delta-scoped carry-over: the successor cache keeps every
            # plan the batch cannot affect, so untouched sets stay hot
            # across the swap (the neighborhood principle, serving side).
            next_plans = epoch.plan_cache.successor(
                batch.delta, evolved.mapping
            )
            next_fp = evolved.fingerprint()
            migration_tables = [
                name for name, td in delta.tables.items() if not td.empty
            ]
            self._commit(
                lambda: self.backend.migrate(
                    script, evolved.store_schema, new_store
                ),
                evolved,
                next_plans,
                fingerprint=next_fp,
                # results survive by the same neighborhood argument as
                # plans, then any table the migration itself rewrote is
                # dropped on top (Section 2.3 says pre-existing data is
                # unchanged, but the store delta is the ground truth)
                make_results=lambda: epoch.results.successor(
                    batch.delta, evolved.mapping, next_fp
                ).successor_for_tables(migration_tables, next_fp),
            )
            # writeplans for sets/assocs/tables the batch touched are
            # stale; untouched ones stay hot (write-side neighborhood
            # principle).  The cached counts key on constructed rows of
            # the *old* views, so they always reseed.
            self.writeplans.invalidate(batch.delta, evolved.mapping)
            self._incremental = None
            self.journal.append(entry)
            self._unvalidated_delta = self._unvalidated_delta.compose(
                batch.delta
            )
            return delta

    def _region_migration(
        self, model: CompiledModel, batch: BatchResult
    ) -> Tuple[StoreState, StoreState, MigrationScript]:
        """(store before, migrated store, migration script) of *batch*.

        The region is the batch's stale tables that the evolved schema
        keeps; it holds every table the batch creates or redefines and
        every table whose update view changed.  Only the sets and
        associations the region's evolved update views scan are read
        through the old query views (sets new in the evolved schema are
        empty), plus those whose data the evolved schema cannot hold, so
        embedding them aborts the evolve instead of dropping their rows.
        Every other table is adopted from the current store by
        reference, so the diff and the script skip it.

        Exact for stores in the image of the update views, which is what
        ``save``, ``save_delta`` and ``evolve`` produce.  A table loaded
        outside that image keeps its rows when it lies outside the
        region, where a whole-store migration would have rewritten it.
        """
        evolved = batch.model
        region = {
            name
            for name in batch.delta.stale_region(evolved.mapping).tables
            if evolved.store_schema.has_table(name)
        }
        sources = _unembeddable(model.client_schema, evolved.client_schema)
        for name in region:
            view = evolved.views.update_views.get(name)
            if view is not None:
                sources.update(scanned_names(view.query))
        store_before = self.backend.to_store_state()
        old_client = apply_query_views(
            model.views, store_before, model.client_schema, sources
        )
        new_store = apply_update_views(
            evolved.views,
            old_client.embed_into(evolved.client_schema),
            evolved.store_schema,
            region,
            store_before,
        )
        script = plan_migration(
            model.store_schema, evolved.store_schema, store_before, new_store
        )
        return store_before, new_store, script

    def evolve(self, smo: Smo) -> StoreDelta:
        """A batch of one: see :meth:`evolve_many`."""
        return self.evolve_many([smo], label=smo.describe())

    def undo(self) -> JournalEntry:
        """Roll back the most recent :meth:`evolve` / :meth:`evolve_many`.

        The model is restored by replaying the journal entry's *inverse*
        delta (not from a snapshot — exercising the invertibility of the
        recorded ops).  The data migrates back to the entry's
        pre-migration state: the same migration run backwards, planned
        from the current state, so it touches only the tables the
        current state does not share with that one — the evolve's
        region plus any table written since — and every other table
        stays shared.
        Cached answers outside the inverse's stale region and the
        rewritten tables survive, exactly as across the evolve.  Readers
        pinned on the undone epoch finish there; everyone else lands on
        the rolled-back epoch after one swap.

        The delta awaiting validation goes back to what it was before the
        evolve when the restored model's fingerprint equals the one
        recorded then and no ``validate`` has reset it since; otherwise
        the inverse composes onto it, so a delta-scoped validate re-checks
        the round-tripped region.
        """
        with self._writer_lock:
            if not self.journal:
                raise SmoError(
                    "nothing to undo: the session journal is empty"
                )
            epoch = self._epoch
            entry = self.journal[-1]
            inverse = entry.delta.inverse()
            restored = epoch.model.apply(inverse)
            restored_fp = restored.fingerprint()
            next_plans = epoch.plan_cache.successor(
                inverse, restored.mapping
            )
            current = self.backend.to_store_state()
            target = entry.store_before
            script = plan_migration(
                current.schema, target.schema, current, target
            )
            # every table the migration may rewrite: whatever the current
            # state does not share with the target
            changed = {
                table.name
                for state in (current, target)
                for table in state.populated_tables()
                if not current.shares_table(target, table.name)
            }
            self._commit(
                lambda: self.backend.migrate(script, target.schema, target),
                restored,
                next_plans,
                fingerprint=restored_fp,
                # as across the evolve: answers outside the inverse's
                # stale region survive, minus any table the undo rewrites
                # (which includes every table written since the evolve)
                make_results=lambda: epoch.results.successor(
                    inverse, restored.mapping, restored_fp
                ).successor_for_tables(changed, restored_fp),
            )
            self.writeplans.invalidate(inverse, restored.mapping)
            self._incremental = None
            self.journal.pop()
            if (
                restored_fp == entry.fingerprint_before
                and self._validations == entry.validations_before
            ):
                self._unvalidated_delta = entry.pending_before
            else:
                self._unvalidated_delta = self._unvalidated_delta.compose(
                    inverse
                )
            return entry

    # ------------------------------------------------------------------
    # Dry runs and validation
    # ------------------------------------------------------------------
    def plan(self, smos: Sequence[Smo]) -> EvolutionPlan:
        """Dry-run a batch: the delta it would emit and the checks it
        would schedule, without touching the session's model or data."""
        return self._compiler.plan(self._epoch.model, smos)

    def migration_script(self, smos: Sequence[Smo]) -> MigrationScript:
        """Dry-run the *store-side* migration of a batch, without
        mutating anything: the script :meth:`evolve_many` would run,
        planned over the same region."""
        with self._writer_lock:
            model = self._epoch.model
            batch = self._compiler.compile_batch(model, tuple(smos))
            return self._region_migration(model, batch)[2]

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
        ``cache_hits`` / ``cache_misses`` show the split.  When the cache
        has a persistent store attached (``cache_dir`` /
        ``REPRO_CACHE_DIR``), a fresh process warms from disk the same way
        (``l2_hits``).  ``symbolic`` toggles the layered containment fast
        path.

        ``scope="full"`` runs every check of Algorithm 1.
        ``scope="delta"`` composes the deltas of every evolution (and
        undo) committed since the last successful ``validate`` — the
        Arenas-style composition of the journal's SMO history — and
        re-checks only the touched neighborhood of the *composed* delta:
        a hundred batches confined to one corner of the schema re-check
        that corner once, not a hundred times.  Either scope, on
        success, marks the model validated (the composition restarts
        empty).
        """
        if scope not in ("full", "delta"):
            raise ValueError(
                f"unknown validation scope {scope!r}; expected 'full' or 'delta'"
            )
        model = self._epoch.model
        pending = self._unvalidated_delta
        if scope == "delta":
            neighborhood = pending.touched_neighborhood(model.mapping)
            report, _ = validate_delta_neighborhood(
                model.mapping,
                model.views,
                neighborhood,
                budget,
                cache=self.validation_cache,
                symbolic=symbolic,
            )
        else:
            report = validate_mapping(
                model.mapping,
                model.views,
                budget,
                cache=self.validation_cache,
                symbolic=symbolic,
            )
        # Success: everything up to the snapshot we validated is covered.
        # (A writer that slipped in mid-validation replaced the attribute,
        # so only reset when our snapshot is still the live composition.)
        if self._unvalidated_delta is pending:
            self._unvalidated_delta = MappingDelta()
            self._validations += 1
        return report

    @property
    def unvalidated_delta(self) -> MappingDelta:
        """The composed delta awaiting the next ``validate`` (read-only)."""
        return self._unvalidated_delta

    # ------------------------------------------------------------------
    def serving_stats(self) -> ServingStats:
        """Hit/miss/eviction counters of the query-serving fast path,
        plus the session's reader/writer coordination counters."""
        epoch = self._epoch
        backend = self.backend
        statement_stats = getattr(backend, "statement_cache_stats", None)
        index_stats = getattr(backend, "index_stats", None)
        return ServingStats(
            backend=backend.name,
            plans=epoch.plan_cache.stats(),
            statements=statement_stats() if statement_stats else None,
            indexes=index_stats() if index_stats else None,
            epoch=EngineStats(
                epoch_id=epoch.epoch_id,
                epochs_published=self._epoch_counter,
                queries=self._queries,
                read_retries=self._read_retries,
                ivm_fallbacks=self._ivm_fallbacks,
            ),
            writeplans=self.writeplans.stats(),
            validation=self.validation_cache.stats(),
            results=epoch.results.stats(),
            digests=digest_stats(),
        )

    def close(self) -> None:
        """Release the backend and the persistent validation cache."""
        self.backend.close()
        self.validation_cache.close()

    def __str__(self) -> str:
        return (
            f"OrmSession({self.model}, {self.store_state.row_count()} rows)"
        )


def _unembeddable(old: ClientSchema, new: ClientSchema) -> Set[str]:
    """The sets and associations of *old* whose data *new* may not hold:
    those *new* drops, and each set with a type *new* drops or redefines.
    :meth:`ClientState.embed_into` rejects such data, so a migration
    reads them to abort on it rather than lose it."""
    names = {s.name for s in old.entity_sets if not new.has_entity_set(s.name)}
    names.update(
        a.name for a in old.associations if not new.has_association(a.name)
    )
    for entity_type in old.entity_types:
        name = entity_type.name
        if new.has_entity_type(name) and new.entity_type(name) == entity_type:
            continue
        try:
            names.add(old.set_of_type(name).name)
        except SchemaError:
            pass  # a type no set holds carries no data
    return names
