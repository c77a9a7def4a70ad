"""Full-mapping validation — our re-derivation of Algorithm 1 of [13].

The five steps the paper enumerates in Section 1.2:

1. the left sides of the fragments are one-to-one (structural
   well-formedness, :meth:`Mapping.check_well_formed`);
2-4. the update views preserve store integrity constraints — here:
   per-type coverage, cell disambiguation, store-cell achievability, and
   one containment check per foreign key between mapped tables;
5. the composition of update and query views is the identity — checked on
   canonical client states via the roundtrip oracle.

Steps 3-5 are the exponential work the incremental compiler avoids: store
cell enumeration is exponential in the number of independent store
conditions per table (the hub-and-rim blow-up of Figure 4), and each
containment / roundtrip check enumerates canonical states.

The steps decompose into independent per-set / per-table / per-foreign-key
check units, declared through :func:`build_validation_checks` as
``(kind, *args)`` specs, run by the single dispatch :func:`run_check`, and
scheduled by :class:`repro.compiler.scheduler.ValidationScheduler` —
serially by default (bit-for-bit the behaviour of the historical
sequential loop), or on a process pool with ``workers > 1`` (full
validation only).  Every check unit can additionally be
memoised in a :class:`~repro.containment.cache.ValidationCache` keyed by
structural fingerprints of exactly the inputs it reads, which makes
re-validation after an SMO that left a neighborhood untouched a cache hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra.conditions import IsNotNull, and_
from repro.algebra.queries import ProjItem, Project, Query, Select, Col
from repro.budget import WorkBudget, ensure_budget
from repro.compiler.analysis import SetAnalysis, check_coverage, check_disambiguation
from repro.compiler.scheduler import ValidationCheck, ValidationScheduler
from repro.compiler.viewgen import _produced_columns
from repro.containment.cache import (
    ValidationCache,
    client_slice_tokens,
    store_table_tokens,
)
from repro.containment.checker import (
    _rebuild_state as _rebuild_counterexample,
    canonical_client_states,
    check_containment,
)
from repro.containment.spaces import StoreConditionSpace
from repro.errors import ValidationError
from repro.fingerprint import fingerprint
from repro.mapping.fragments import Mapping, MappingFragment
from repro.mapping.roundtrip import check_roundtrip
from repro.mapping.views import CompiledViews


@dataclass
class ValidationReport:
    """What a full validation did: counters for each class of work."""

    coverage_checks: int = 0
    store_cells: int = 0
    containment_checks: int = 0
    roundtrip_states: int = 0
    elapsed: float = 0.0
    workers: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    #: L1 misses served from the persistent (cross-process) cache store
    l2_hits: int = 0
    #: misses that fell all the way through to a real compute
    l2_misses: int = 0
    #: containment checks settled purely by branch subsumption (0 states)
    symbolic_discharged: int = 0
    #: Q1 branches covered by an implied Q2 branch across all containments
    branches_discharged: int = 0
    #: Q1 branches dropped as unsatisfiable before any enumeration
    branches_pruned: int = 0
    #: persisted counterexample states screened before fresh enumeration
    counterexample_replays: int = 0
    #: canonical states actually enumerated by containment checks
    containment_states: int = 0
    check_timings: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "ValidationReport") -> None:
        self.coverage_checks += other.coverage_checks
        self.store_cells += other.store_cells
        self.containment_checks += other.containment_checks
        self.roundtrip_states += other.roundtrip_states
        self.elapsed += other.elapsed
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.l2_hits += other.l2_hits
        self.l2_misses += other.l2_misses
        self.symbolic_discharged += other.symbolic_discharged
        self.branches_discharged += other.branches_discharged
        self.branches_pruned += other.branches_pruned
        self.counterexample_replays += other.counterexample_replays
        self.containment_states += other.containment_states
        self.check_timings.update(other.check_timings)

    def apply_counters(self, counters: Dict[str, int]) -> None:
        """Accumulate one check's counters (keys match field names)."""
        for name, value in counters.items():
            setattr(self, name, getattr(self, name) + value)

    def __str__(self) -> str:
        text = (
            f"ValidationReport(coverage={self.coverage_checks}, "
            f"cells={self.store_cells}, containments={self.containment_checks}, "
            f"roundtrip_states={self.roundtrip_states}, elapsed={self.elapsed:.3f}s"
        )
        if self.workers > 1:
            text += f", workers={self.workers}"
        if self.cache_hits or self.cache_misses:
            text += f", cache={self.cache_hits}h/{self.cache_misses}m"
        if self.l2_hits or self.l2_misses:
            text += f", l2={self.l2_hits}h/{self.l2_misses}m"
        if self.symbolic_discharged or self.branches_discharged or self.branches_pruned:
            text += (
                f", symbolic={self.symbolic_discharged}/{self.containment_checks}"
                f" (branches {self.branches_discharged}+{self.branches_pruned}p,"
                f" {self.containment_states} states)"
            )
        if self.counterexample_replays:
            text += f", replays={self.counterexample_replays}"
        return text + ")"


def validate_mapping(
    mapping: Mapping,
    views: CompiledViews,
    budget: Optional[WorkBudget] = None,
    *,
    workers: int = 1,
    cache: Optional[ValidationCache] = None,
    symbolic: bool = True,
) -> ValidationReport:
    """Run all five validation steps; raise ValidationError on failure.

    ``workers`` is the one scheduling option: ``1`` runs the check units
    serially (behaviour-identical to the historical sequential loop),
    more runs them on the persistent process pool (see
    :class:`~repro.compiler.scheduler.ValidationScheduler`).  ``cache``
    memoises check units and their containment / cell-enumeration
    subproblems across validations.  ``symbolic`` enables the layered
    containment fast path (subsumption before state enumeration,
    counterexample replay); ``symbolic=False`` restores the pure
    enumerator baseline with identical verdicts.
    """
    report, _ = _run_validation(mapping, views, budget, workers, cache, symbolic)
    return report


def validate_delta_neighborhood(
    mapping: Mapping,
    views: CompiledViews,
    neighborhood,
    budget: Optional[WorkBudget] = None,
    *,
    cache: Optional[ValidationCache] = None,
    symbolic: bool = True,
) -> Tuple[ValidationReport, List[str]]:
    """Validate only a delta's touched neighborhood (steps 2-5, scoped).

    ``neighborhood`` is a :class:`~repro.incremental.delta.Neighborhood`
    (anything with ``sets``/``tables`` works).  The same check units as
    :func:`validate_mapping` are generated, restricted to the touched
    entity sets and tables, and run serially — this is the single
    validation pass a batched evolution pays for its composed delta.
    Returns the report plus the names of the checks that ran.
    """
    report, checks = _run_validation(
        mapping,
        views,
        budget,
        1,
        cache,
        symbolic,
        sets=tuple(neighborhood.sets),
        tables=tuple(neighborhood.tables),
    )
    return report, [check.name for check in checks]


def _run_validation(
    mapping: Mapping,
    views: CompiledViews,
    budget: Optional[WorkBudget],
    workers: int,
    cache: Optional[ValidationCache],
    symbolic: bool,
    *,
    sets: Optional[Sequence[str]] = None,
    tables: Optional[Sequence[str]] = None,
) -> Tuple[ValidationReport, List[ValidationCheck]]:
    """The one validation body: check well-formedness, schedule the check
    units, and report their counters, cache-counter deltas and timings."""
    report = ValidationReport()
    started = time.perf_counter()
    if cache is not None:
        before = (cache.hits, cache.misses, cache.l2_hits, cache.l2_misses)

    # Step 1: structural well-formedness (cheap, always in-process).
    mapping.check_well_formed()

    # Steps 2-5 as independent check units.
    checks = build_validation_checks(mapping, sets=sets, tables=tables)
    scheduler = ValidationScheduler(workers)
    for result in scheduler.run(
        checks, mapping, views, budget, symbolic=symbolic, cache=cache
    ):
        report.apply_counters(result.counters)
        report.check_timings[result.name] = result.elapsed

    report.workers = scheduler.workers
    if cache is not None:
        report.cache_hits = cache.hits - before[0]
        report.cache_misses = cache.misses - before[1]
        report.l2_hits = cache.l2_hits - before[2]
        report.l2_misses = cache.l2_misses - before[3]
    report.elapsed = time.perf_counter() - started
    return report, checks


def build_validation_checks(
    mapping: Mapping,
    *,
    sets: Optional[Sequence[str]] = None,
    tables: Optional[Sequence[str]] = None,
) -> List[ValidationCheck]:
    """Declare validation steps 2-5 as schedulable check units.

    Declaration order is exactly the historical sequential order, so the
    serial run reproduces the pre-scheduler behaviour tick for tick:
    coverage per entity set, store cells per mapped table, one containment
    per foreign key, one roundtrip batch per entity set.

    ``sets``/``tables`` scope the checks to a delta's touched
    neighborhood (both default to everything the mapping mentions);
    unmapped names in either are silently dropped, so callers can pass a
    :class:`~repro.incremental.delta.Neighborhood` verbatim.
    """
    checks: List[ValidationCheck] = []

    # Step 2: per-set coverage and disambiguation.
    if sets is None:
        mapped_sets = [
            entity_set.name
            for entity_set in mapping.client_schema.entity_sets
            if mapping.fragments_for_set(entity_set.name)
        ]
    else:
        mapped_sets = [
            set_name for set_name in sets if mapping.fragments_for_set(set_name)
        ]
    if tables is None:
        mapped_tables: Tuple[str, ...] = tuple(mapping.mapped_tables())
    else:
        mapped_tables = tuple(
            table_name for table_name in tables if mapping.table_is_mapped(table_name)
        )
    for set_name in mapped_sets:
        checks.append(
            ValidationCheck(
                name=f"coverage:{set_name}",
                spec=("coverage", set_name),
            )
        )

    # Step 3: store-cell reasoning per table.  Reads the set analyses the
    # coverage checks build, so depend on them.
    for table_name in mapped_tables:
        table_sets = {
            fragment.client_source
            for fragment in mapping.fragments_for_table(table_name)
            if not fragment.is_association
        }
        deps = tuple(
            f"coverage:{set_name}"
            for set_name in mapped_sets
            if set_name in table_sets
        )
        checks.append(
            ValidationCheck(
                name=f"store-cells:{table_name}",
                spec=("store-cells", table_name),
                deps=deps,
            )
        )

    # Step 4: foreign-key preservation, one check per foreign key.
    for table_name in mapped_tables:
        table = mapping.store_schema.table(table_name)
        for index in range(len(table.foreign_keys)):
            checks.append(
                ValidationCheck(
                    name=f"fk:{table_name}:{index}",
                    spec=("fk-preservation", table_name, index),
                )
            )

    # Step 5: roundtrip identity, one batch per entity-set neighborhood.
    for set_name in mapped_sets:
        checks.append(
            ValidationCheck(
                name=f"roundtrip:{set_name}",
                spec=("roundtrip", set_name),
            )
        )
    return checks


def run_check(
    spec: Tuple[object, ...],
    mapping: Mapping,
    views: CompiledViews,
    analyses: Dict[str, SetAnalysis],
    budget: WorkBudget,
    cache: Optional[ValidationCache] = None,
    symbolic: bool = True,
) -> Dict[str, int]:
    """Run one check from its ``(kind, *args)`` spec; return its counters.

    The one check dispatch: the serial scheduler calls it on the caller's
    inputs, process workers on their unpickled copies.  *analyses* holds
    the per-set analyses the coverage and store-cells checks of one run
    share.
    """
    kind, args = spec[0], spec[1:]
    if kind == "coverage":
        return run_coverage_check(mapping, args[0], analyses, budget, cache)
    if kind == "store-cells":
        cells = check_store_cells(mapping, args[0], analyses, budget, cache)
        return {"store_cells": cells}
    if kind == "fk-preservation":
        table_name, index = args
        foreign_key = mapping.store_schema.table(table_name).foreign_keys[index]
        return check_foreign_key_preserved(
            mapping, views, table_name, foreign_key, budget, cache, symbolic=symbolic
        )
    if kind == "roundtrip":
        counters: Dict[str, int] = {}
        counters["roundtrip_states"] = roundtrip_spotcheck(
            mapping, views, budget, set_names=[args[0]], cache=cache,
            counters=counters,
        )
        return counters
    raise ValueError(f"unknown check kind {kind!r}")


# ---------------------------------------------------------------------------
# Step 2: coverage and disambiguation
# ---------------------------------------------------------------------------

def run_coverage_check(
    mapping: Mapping,
    set_name: str,
    analyses: Dict[str, SetAnalysis],
    budget: Optional[WorkBudget] = None,
    cache: Optional[ValidationCache] = None,
) -> Dict[str, int]:
    """Coverage + disambiguation for one entity set; returns its counters.

    Memoised under the set's fragments and client-schema neighborhood: any
    SMO touching either changes the fingerprint and forces a re-check.
    """

    def compute() -> Dict[str, int]:
        analysis = analyses.get(set_name)
        if analysis is None:
            analysis = SetAnalysis(mapping, set_name, budget, cache)
            analyses[set_name] = analysis
        check_coverage(analysis)
        check_disambiguation(analysis)
        return {"coverage_checks": len(analysis.all_cells())}

    if cache is None:
        return compute()
    key = fingerprint(
        "coverage-check",
        set_name,
        mapping.fragments_for_set(set_name),
        client_slice_tokens(mapping.client_schema, sets=[set_name]),
    )
    return dict(cache.get_or_compute("validation-check", key, compute))


# ---------------------------------------------------------------------------
# Step 3: store cells
# ---------------------------------------------------------------------------

def check_store_cells(
    mapping: Mapping,
    table_name: str,
    analyses: Dict[str, SetAnalysis],
    budget: Optional[WorkBudget] = None,
    cache: Optional[ValidationCache] = None,
) -> int:
    """Enumerate the achievable store cells of *table_name* and check that
    every client cell projects onto an achievable store cell.

    The cell count is exponential in the number of independent store
    conditions on the table (e.g. nullable foreign-key columns used by
    association fragments) — the full compiler's case-reasoning cost.
    """
    if cache is None:
        return _check_store_cells(mapping, table_name, analyses, budget, cache)
    sets = sorted(
        {
            fragment.client_source
            for fragment in mapping.fragments_for_table(table_name)
            if not fragment.is_association
        }
    )
    key = fingerprint(
        "store-cells",
        store_table_tokens(mapping.store_schema, table_name),
        mapping.fragments_for_table(table_name),
        tuple(mapping.fragments_for_set(set_name) for set_name in sets),
        client_slice_tokens(mapping.client_schema, sets=sets),
    )
    return cache.get_or_compute(
        "validation-check",
        key,
        lambda: _check_store_cells(mapping, table_name, analyses, budget, cache),
    )


def _check_store_cells(
    mapping: Mapping,
    table_name: str,
    analyses: Dict[str, SetAnalysis],
    budget: Optional[WorkBudget],
    cache: Optional[ValidationCache],
) -> int:
    fragments = mapping.fragments_for_table(table_name)
    conditions = [f.store_condition for f in fragments]
    space = StoreConditionSpace(mapping.store_schema, table_name, conditions)
    vectors = space.truth_vectors(conditions, budget, cache)

    # Positions of each set's entity fragments within the table fragments.
    by_set: Dict[str, List[Tuple[int, MappingFragment]]] = {}
    for position, fragment in enumerate(fragments):
        if not fragment.is_association:
            by_set.setdefault(fragment.client_source, []).append((position, fragment))

    for set_name, positioned in by_set.items():
        analysis = analyses.get(set_name)
        if analysis is None:
            analysis = SetAnalysis(mapping, set_name, budget, cache)
            analyses[set_name] = analysis
        # position of each per-set fragment index within this table
        table_position: Dict[int, int] = {}
        for set_index, set_fragment in enumerate(analysis.fragments):
            for position, table_fragment in enumerate(fragments):
                if set_fragment is table_fragment:
                    table_position[set_index] = position
        for cell in analysis.all_cells():
            constrained: Dict[int, bool] = {}
            for set_index, position in table_position.items():
                constrained[position] = set_index in cell.signature
            if not any(constrained.values()):
                continue  # this cell stores nothing in this table
            achievable = any(
                all(vector[pos] == bit for pos, bit in constrained.items())
                for vector in vectors
            )
            if not achievable:
                raise ValidationError(
                    f"client cell of {cell.concrete_type!r} requires a row pattern "
                    f"in table {table_name!r} that no store state can exhibit",
                    check="store-cells",
                )
    return len(vectors)


# ---------------------------------------------------------------------------
# Step 4: foreign keys
# ---------------------------------------------------------------------------

def check_all_foreign_keys(
    mapping: Mapping,
    views: CompiledViews,
    budget: Optional[WorkBudget] = None,
    tables: Optional[Sequence[str]] = None,
    cache: Optional[ValidationCache] = None,
    symbolic: bool = True,
) -> int:
    """One containment check per foreign key of every (selected) mapped table."""
    checks = 0
    table_names = tuple(tables) if tables is not None else mapping.mapped_tables()
    for table_name in table_names:
        table = mapping.store_schema.table(table_name)
        for foreign_key in table.foreign_keys:
            check_foreign_key_preserved(
                mapping, views, table_name, foreign_key, budget, cache,
                symbolic=symbolic,
            )
            checks += 1
    return checks


def check_foreign_key_preserved(
    mapping: Mapping,
    views: CompiledViews,
    table_name: str,
    foreign_key,
    budget: Optional[WorkBudget] = None,
    cache: Optional[ValidationCache] = None,
    *,
    symbolic: bool = True,
) -> Dict[str, int]:
    """Check ``π_β(Q_T) ⊆ π_γ(Q_S)`` on non-null β values (Section 1.1).

    Returns the check's :class:`ValidationReport` counters: always
    ``containment_checks: 1`` plus the symbolic-layer statistics of the
    underlying :func:`~repro.containment.checker.check_containment`.
    """
    update_view = views.update_view(table_name)
    produced = set(_produced_columns(update_view.query))
    if not set(foreign_key.columns) <= produced:
        # β columns are always NULL: the constraint holds vacuously
        return {"containment_checks": 1}

    not_null = and_(*[IsNotNull(column) for column in foreign_key.columns])
    lhs: Query = Project(
        Select(update_view.query, not_null),
        tuple(
            ProjItem(gamma, Col(beta))
            for beta, gamma in zip(foreign_key.columns, foreign_key.ref_columns)
        ),
    )

    if not mapping.table_is_mapped(foreign_key.ref_table):
        raise ValidationError(
            f"foreign key {foreign_key} of {table_name!r} references the unmapped "
            f"table {foreign_key.ref_table!r}; update views can never populate it",
            check="fk-preservation",
        )
    target_view = views.update_view(foreign_key.ref_table)
    rhs: Query = Project(
        target_view.query,
        tuple(ProjItem(gamma, Col(gamma)) for gamma in foreign_key.ref_columns),
    )

    result = check_containment(
        lhs, rhs, mapping.client_schema, budget, cache, symbolic=symbolic
    )
    if not result.holds:
        raise ValidationError(
            f"update views violate foreign key {foreign_key} of table "
            f"{table_name!r}:\n{result.explain()}",
            check="fk-preservation",
        )
    return {
        "containment_checks": 1,
        "symbolic_discharged": 1 if result.discharged else 0,
        "branches_discharged": result.branches_discharged,
        "branches_pruned": result.branches_pruned,
        "counterexample_replays": result.replayed,
        "containment_states": result.states_checked,
    }


# ---------------------------------------------------------------------------
# Step 5: roundtrip identity
# ---------------------------------------------------------------------------

def roundtrip_spotcheck(
    mapping: Mapping,
    views: CompiledViews,
    budget: Optional[WorkBudget] = None,
    set_names: Optional[Sequence[str]] = None,
    cache: Optional[ValidationCache] = None,
    counters: Optional[Dict[str, int]] = None,
) -> int:
    """Check ``Q(V(c)) = c`` on canonical states, one neighborhood at a time.

    For each entity set, canonical states populate the set, the association
    sets touching it, and their other endpoints; only the update views of
    tables reachable through fragments and foreign keys are applied, so the
    cost is local to the neighborhood times the (possibly exponential)
    number of canonical states.  When *counters* is given, the number of
    persisted failing states replayed first is accumulated into its
    ``counterexample_replays`` entry.
    """
    budget = ensure_budget(budget)
    schema = mapping.client_schema
    states_checked = 0
    names = set_names if set_names is not None else [
        s.name for s in schema.entity_sets if mapping.fragments_for_set(s.name)
    ]
    for set_name in names:
        states_checked += _roundtrip_one_neighborhood(
            mapping, views, set_name, budget, cache, counters
        )
    return states_checked


def _roundtrip_one_neighborhood(
    mapping: Mapping,
    views: CompiledViews,
    set_name: str,
    budget: WorkBudget,
    cache: Optional[ValidationCache],
    counters: Optional[Dict[str, int]] = None,
) -> int:
    """Roundtrip the canonical states of one entity-set neighborhood.

    Memoised under everything the check reads: the neighborhood's schema
    slice, the fragment conditions seeding the canonical states, the query
    / association / update views applied, and the store tables whose
    constraints :func:`check_roundtrip` enforces.  A state that failed the
    roundtrip before is persisted in the cache under this check's key and
    replayed *first* on re-validation, so a still-broken neighborhood
    fails in O(1) states instead of re-enumerating (the cache's rollback
    evicts the memoised result after an aborted SMO, but never the
    counterexample pool).
    """
    schema = mapping.client_schema
    sets, assocs = _neighborhood_sources(mapping, set_name)
    relevant = _relevant_views(mapping, views, sets, assocs)
    conditions = [
        f.client_condition
        for name in sets
        for f in mapping.fragments_for_set(name)
    ]
    key: Optional[str] = None
    if cache is not None:
        key = fingerprint(
            "roundtrip",
            set_name,
            tuple(sets),
            tuple(assocs),
            client_slice_tokens(schema, sets=sets, assocs=assocs),
            tuple(conditions),
            tuple(sorted(relevant.query_views.items())),
            tuple(sorted(relevant.association_views.items())),
            tuple(sorted(relevant.update_views.items())),
            tuple(
                store_table_tokens(mapping.store_schema, table_name)
                for table_name in sorted(relevant.update_views)
            ),
        )

    def fail(state, outcome) -> None:
        if cache is not None and key is not None:
            cache.record_counterexample(key, sets, assocs, state)
        raise ValidationError(
            f"mapping does not roundtrip (neighborhood of {set_name!r}):\n"
            f"{outcome}",
            check="roundtrip",
        )

    def compute() -> int:
        # Replay persisted failing states first (per-key pool only: a
        # state from another neighborhood could populate sets this check
        # has no views for, and would mis-roundtrip vacuously).
        if cache is not None and key is not None:
            for sets_r, assocs_r, state in cache.counterexamples(
                key, include_recent=False
            ):
                rebuilt = _rebuild_counterexample(schema, sets_r, assocs_r, state)
                if rebuilt is None:
                    continue
                if counters is not None:
                    counters["counterexample_replays"] = (
                        counters.get("counterexample_replays", 0) + 1
                    )
                outcome = check_roundtrip(relevant, rebuilt, mapping.store_schema)
                if not outcome.ok:
                    fail(rebuilt, outcome)
        states_checked = 0
        for state in canonical_client_states(schema, sets, assocs, conditions, budget):
            states_checked += 1
            outcome = check_roundtrip(relevant, state, mapping.store_schema)
            if not outcome.ok:
                fail(state, outcome)
        return states_checked

    if cache is None:
        return compute()
    return cache.get_or_compute("validation-check", key, compute)


def _neighborhood_sources(
    mapping: Mapping, set_name: str
) -> Tuple[List[str], List[str]]:
    schema = mapping.client_schema
    sets = [set_name]
    assocs: List[str] = []
    for association in schema.associations:
        if mapping.fragment_for_association(association.name) is None:
            continue
        if set_name in (association.entity_set1, association.entity_set2):
            assocs.append(association.name)
            for other in (association.entity_set1, association.entity_set2):
                if other not in sets:
                    sets.append(other)
    return sets, assocs


def _relevant_views(
    mapping: Mapping,
    views: CompiledViews,
    sets: Sequence[str],
    assocs: Sequence[str],
) -> CompiledViews:
    """Views needed to roundtrip a state populating only *sets*/*assocs*:
    tables of their fragments, closed under foreign-key references."""
    tables: Set[str] = set()
    for set_name in sets:
        for fragment in mapping.fragments_for_set(set_name):
            tables.add(fragment.store_table)
    for assoc_name in assocs:
        fragment = mapping.fragment_for_association(assoc_name)
        if fragment is not None:
            tables.add(fragment.store_table)
    # One FK hop so constraint checking has its targets populated.
    # (No transitive closure: rows outside the neighborhood's tables can
    # only carry NULL foreign keys, which are vacuously satisfied.)
    for table_name in list(tables):
        for foreign_key in mapping.store_schema.table(table_name).foreign_keys:
            target = foreign_key.ref_table
            if mapping.table_is_mapped(target):
                tables.add(target)

    schema = mapping.client_schema
    relevant = CompiledViews()
    for set_name in sets:
        root = schema.entity_set(set_name).root_type
        if root in views.query_views:
            relevant.set_query_view(views.query_views[root])
    for assoc_name in assocs:
        if assoc_name in views.association_views:
            relevant.set_association_view(views.association_views[assoc_name])
    for table_name in tables:
        if views.has_update_view(table_name):
            relevant.set_update_view(views.update_view(table_name))
    return relevant
