"""The SMO framework: schema modification operations and their compiler.

Section 1.2: "Our solution template for incremental compilation is
comprised of four new algorithms for each type of SMO": adapt/create query
views, adapt/create update views, adapt the mapping fragments, and
validate.  Every SMO subclass implements those four hooks plus schema
evolution and precondition checking; :class:`IncrementalCompiler` runs
them in the order of Figure 7 (change schemas & mappings → modify update
views → validate → modify query views) and aborts without side effects
when validation fails.

Since the delta refactor the hooks do not mutate a clone directly: they
run against a :class:`~repro.incremental.delta.DeltaRecorder`, so every
change is captured as a :class:`~repro.incremental.delta.MappingDelta`
op.  That makes the change set inspectable (``plan``), composable
(``compile_batch`` validates the *union* neighborhood of a whole batch
once) and invertible (the session journal's ``undo``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.budget import WorkBudget
from repro.containment.cache import ValidationCache
from repro.errors import ReproError
from repro.incremental.delta import DeltaRecorder, MappingDelta, Neighborhood
from repro.incremental.model import CompiledModel


class Smo:
    """Base class for schema modification operations."""

    #: Short mnemonic used in benchmark reports (e.g. ``"AE-TPT"``).
    kind: str = "SMO"

    # The four algorithms of Section 1.2 plus preconditions and schema
    # evolution.  The mutating hooks receive a DeltaRecorder (duck-typed
    # as a CompiledModel), so every mutation lands in the delta; the
    # read-only hooks (preconditions, validate) receive the real working
    # model.
    def check_preconditions(self, model: CompiledModel) -> None:
        raise NotImplementedError

    def evolve_schemas(self, model: CompiledModel) -> None:
        raise NotImplementedError

    def adapt_fragments(self, model: CompiledModel) -> None:
        raise NotImplementedError

    def adapt_update_views(self, model: CompiledModel) -> None:
        raise NotImplementedError

    def validate(
        self,
        model: CompiledModel,
        budget: Optional[WorkBudget],
        cache: Optional[ValidationCache] = None,
    ) -> None:
        raise NotImplementedError

    def adapt_query_views(self, model: CompiledModel) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.kind}"


@dataclass
class IncrementalResult:
    """Outcome of one incremental compilation step."""

    model: CompiledModel
    smo: Smo
    elapsed: float
    containment_checks: int = 0
    #: the declarative change set this SMO emitted
    delta: MappingDelta = field(default_factory=MappingDelta)

    def __str__(self) -> str:
        return f"{self.smo.describe()}: {self.elapsed * 1000:.2f} ms"


@dataclass
class BatchResult:
    """Outcome of :meth:`IncrementalCompiler.compile_batch`."""

    model: CompiledModel
    smos: Tuple[Smo, ...]
    #: composition of the per-SMO deltas, in application order
    delta: MappingDelta
    results: List[IncrementalResult]
    #: neighborhood the composed delta touched (validated once)
    neighborhood: Neighborhood
    #: names of the scheduler checks run over the union neighborhood
    check_names: Tuple[str, ...]
    elapsed: float

    @property
    def scheduled_checks(self) -> int:
        return len(self.check_names)

    def __str__(self) -> str:
        return (
            f"batch of {len(self.smos)}: {len(self.delta)} delta ops, "
            f"{self.scheduled_checks} neighborhood checks, "
            f"{self.elapsed * 1000:.2f} ms"
        )


@dataclass
class EvolutionPlan:
    """Dry-run report: what a batch *would* change and check.

    Produced without mutating the input model (the hooks run on a
    recorder over a private clone); ``error`` carries the failure when
    the batch would abort.
    """

    smos: Tuple[Smo, ...]
    delta: MappingDelta
    neighborhood: Optional[Neighborhood]
    check_names: Tuple[str, ...]
    error: Optional[ReproError]
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.error is None

    def describe(self) -> str:
        lines = [f"plan: {len(self.smos)} SMO(s), {len(self.delta)} delta op(s)"]
        for smo in self.smos:
            lines.append(f"  smo: {smo.describe()}")
        for op_summary in self.delta.summary():
            lines.append(f"  op: {op_summary}")
        if self.error is not None:
            lines.append(f"  ABORT: {self.error}")
        else:
            lines.append(f"  neighborhood: {self.neighborhood}")
            for name in self.check_names:
                lines.append(f"  check: {name}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


class IncrementalCompiler:
    """Applies SMOs to compiled models, incrementally (Figure 7).

    The compiler never mutates its input: each :meth:`apply` records the
    SMO's hooks into a delta over a working clone and returns the evolved
    model.  When validation fails, the working copy is discarded, cache
    entries inserted against the rejected model are rolled back, and the
    ValidationError propagates — the pre-evolved model is untouched,
    which is the "undoes its changes ... and returns an exception"
    behaviour of Section 4.1.
    """

    def __init__(
        self,
        budget: Optional[WorkBudget] = None,
        cache: Optional[ValidationCache] = None,
    ) -> None:
        self.budget = budget
        self.cache = cache

    # ------------------------------------------------------------------
    def _run_smo(self, recorder: DeltaRecorder, smo: Smo) -> None:
        """Figure 7's hook order for one SMO against the recorder."""
        smo.check_preconditions(recorder.working)
        smo.evolve_schemas(recorder)
        smo.adapt_fragments(recorder)
        smo.adapt_update_views(recorder)
        smo.validate(recorder.working, self.budget, self.cache)
        smo.adapt_query_views(recorder)

    def apply(self, model: CompiledModel, smo: Smo) -> IncrementalResult:
        started = time.perf_counter()
        recorder = DeltaRecorder(model)
        transaction = self.cache.begin_transaction() if self.cache else None
        try:
            self._run_smo(recorder, smo)
        except BaseException:
            if transaction is not None:
                self.cache.rollback(transaction)
            raise
        if transaction is not None:
            self.cache.commit(transaction)
        elapsed = time.perf_counter() - started
        return IncrementalResult(
            model=recorder.working,
            smo=smo,
            elapsed=elapsed,
            delta=recorder.delta(),
        )

    def apply_all(
        self, model: CompiledModel, smos: Sequence[Smo]
    ) -> List[IncrementalResult]:
        """Apply a sequence of SMOs (e.g. generated from a model diff)."""
        results: List[IncrementalResult] = []
        current = model
        for smo in smos:
            result = self.apply(current, smo)
            results.append(result)
            current = result.model
        return results

    # ------------------------------------------------------------------
    def compile_batch(
        self,
        model: CompiledModel,
        smos: Sequence[Smo],
    ) -> BatchResult:
        """Apply several SMOs, validating the union neighborhood *once*.

        Each SMO still runs its own Figure-7 hooks (including its
        targeted validate) against the shared recorder, but the
        scheduler's coverage/store-cells/FK/roundtrip checks are
        generated from the *composed* delta's neighborhood instead of
        once per SMO — overlapping SMOs pay for their shared region a
        single time.
        """
        from repro.compiler.validation import validate_delta_neighborhood

        started = time.perf_counter()
        smos = tuple(smos)
        recorder = DeltaRecorder(model)
        transaction = self.cache.begin_transaction() if self.cache else None
        results: List[IncrementalResult] = []
        try:
            for smo in smos:
                smo_started = time.perf_counter()
                mark = recorder.mark
                self._run_smo(recorder, smo)
                results.append(
                    IncrementalResult(
                        model=recorder.working,
                        smo=smo,
                        elapsed=time.perf_counter() - smo_started,
                        delta=recorder.delta_since(mark),
                    )
                )
            delta = recorder.delta()
            evolved = recorder.working
            neighborhood = delta.touched_neighborhood(evolved.mapping)
            _, check_names = validate_delta_neighborhood(
                evolved.mapping,
                evolved.views,
                neighborhood,
                self.budget,
                cache=self.cache,
            )
        except BaseException:
            if transaction is not None:
                self.cache.rollback(transaction)
            raise
        if transaction is not None:
            self.cache.commit(transaction)
        return BatchResult(
            model=evolved,
            smos=smos,
            delta=delta,
            results=results,
            neighborhood=neighborhood,
            check_names=tuple(check_names),
            elapsed=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def plan(self, model: CompiledModel, smos: Sequence[Smo]) -> EvolutionPlan:
        """Dry-run a batch: report its delta and checks without mutating.

        The hooks run for real — against a recorder over a private clone
        — so the reported delta is exact, but ``model`` is never touched
        and the scheduler checks are only *named*, not executed.  A
        failing hook is reported in ``error`` instead of raising.
        """
        from repro.compiler.validation import build_validation_checks

        started = time.perf_counter()
        smos = tuple(smos)
        recorder = DeltaRecorder(model)
        transaction = self.cache.begin_transaction() if self.cache else None
        error: Optional[ReproError] = None
        try:
            for smo in smos:
                self._run_smo(recorder, smo)
        except ReproError as exc:
            error = exc
        except BaseException:
            if transaction is not None:
                self.cache.rollback(transaction)
            raise
        delta = recorder.delta()
        if error is not None:
            if transaction is not None:
                self.cache.rollback(transaction)
            return EvolutionPlan(
                smos=smos,
                delta=delta,
                neighborhood=None,
                check_names=(),
                error=error,
                elapsed=time.perf_counter() - started,
            )
        if transaction is not None:
            self.cache.commit(transaction)
        evolved = recorder.working
        neighborhood = delta.touched_neighborhood(evolved.mapping)
        checks = build_validation_checks(
            evolved.mapping, sets=neighborhood.sets, tables=neighborhood.tables
        )
        return EvolutionPlan(
            smos=smos,
            delta=delta,
            neighborhood=neighborhood,
            check_names=tuple(check.name for check in checks),
            error=None,
            elapsed=time.perf_counter() - started,
        )
