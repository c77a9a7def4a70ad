"""CQC-style query containment over client states.

Checks ``Q1 ⊆ Q2`` for client-side queries (the shape of every validation
check in Sections 3.1.4 and 3.2, after unfolding update views) by
enumerating *canonical client states* and evaluating both queries on each —
the canonical-instance method of Farré et al.'s CQC [9], specialised to the
fragment/view language:

* every entity set scanned by either query contributes zero or one *center*
  entity, sweeping concrete types and candidate values for every attribute
  mentioned in a condition (plus a *partner* entity where a self-set
  association needs one);
* every association set scanned contributes either no tuple or one tuple
  over a compatible pair of present entities;
* states violating multiplicity lower bounds are skipped (containment must
  hold on legal states only).

For the language at hand (project-select with joins against associations,
outer joins, unions, conditions over constants) one output row depends on
one center entity and its incident association tuples, so these small
states are sufficient: any counterexample state can be shrunk to one of
the canonical states.  Worst-case cost is exponential in the number of
sources and mentioned attributes — the NP-hardness the paper cites — and
every state enumeration ticks the work budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.algebra.conditions import (
    And,
    Comparison,
    Condition,
    FALSE,
    FalseCond,
    IsNotNull,
    IsNull,
    IsOf,
    IsOfOnly,
    Not,
    Or,
    TRUE,
    TrueCond,
    _compare,
    and_,
    or_,
)
from repro.algebra.evaluate import ClientContext, evaluate_query, output_columns
from repro.algebra.queries import (
    AssociationScan,
    Col,
    Const,
    CtorExpr,
    ProjItem,
    Project,
    Query,
    Select,
    SetScan,
    UnionAll,
    leaf_sources,
    union_all,
)
from repro.algebra.simplify import simplify
from repro.budget import WorkBudget, ensure_budget
from repro.containment.atoms import collect_constants, default_value, value_candidates
from repro.containment.cache import ValidationCache, client_slice_tokens
from repro.containment.spaces import ClientConditionSpace
from repro.edm.instances import ClientState, Entity
from repro.edm.schema import ClientSchema
from repro.errors import EvaluationError, SchemaError
from repro.fingerprint import fingerprint


@dataclass
class ContainmentResult:
    """Outcome of a containment check, with a counterexample on failure.

    ``discharged`` marks a verdict settled purely by the symbolic layer
    (branch subsumption over bitset truth vectors) with zero canonical
    states enumerated; ``branches_discharged``/``branches_pruned`` count
    the Q1 branches covered by implication / dropped as unsatisfiable, and
    ``replayed`` the persisted counterexample states screened first.
    """

    holds: bool
    counterexample: Optional[ClientState] = None
    missing_row: Optional[Dict[str, object]] = None
    states_checked: int = 0
    discharged: bool = False
    branches_discharged: int = 0
    branches_pruned: int = 0
    replayed: int = 0

    def __bool__(self) -> bool:
        return self.holds

    def explain(self) -> str:
        if self.holds:
            if self.discharged:
                return (
                    "containment holds (discharged symbolically: "
                    f"{self.branches_discharged} branch(es) subsumed, "
                    f"{self.branches_pruned} pruned, 0 states)"
                )
            return f"containment holds ({self.states_checked} canonical states)"
        lines = [
            "containment FAILS:",
            f"  row {self.missing_row!r} produced by Q1 but not by Q2 on state:",
        ]
        if self.counterexample is not None:
            lines.extend("  " + line for line in str(self.counterexample).splitlines())
        return "\n".join(lines)


def _conditions_of(query: Query) -> List[Condition]:
    return [node.condition for node in query.walk() if isinstance(node, Select)]


def _sources_of(queries: Sequence[Query]) -> Tuple[List[str], List[str]]:
    sets: List[str] = []
    assocs: List[str] = []
    for query in queries:
        for leaf in leaf_sources(query):
            if isinstance(leaf, SetScan) and leaf.set_name not in sets:
                sets.append(leaf.set_name)
            elif isinstance(leaf, AssociationScan) and leaf.assoc_name not in assocs:
                assocs.append(leaf.assoc_name)
    return sets, assocs


class _EntityCandidateFactory:
    """Generates candidate entities for one entity set."""

    def __init__(
        self,
        schema: ClientSchema,
        set_name: str,
        constants: Dict[str, List[object]],
    ) -> None:
        self.schema = schema
        self.set_name = set_name
        self.constants = constants
        self.types = schema.concrete_types_of_set(set_name)

    def candidates(self, key_seed: int, enumerate_attrs: bool) -> List[Entity]:
        """All candidate entities; *key_seed* keeps keys distinct."""
        result: List[Entity] = []
        for type_name in self.types:
            key = set(self.schema.key_of(type_name))
            mentioned: List[str] = []
            pools: List[Tuple[object, ...]] = []
            base: Dict[str, object] = {}
            for attribute in self.schema.attributes_of(type_name):
                if attribute.name in key and attribute.name not in self.constants:
                    base[attribute.name] = self._key_value(attribute, key_seed)
                elif enumerate_attrs and attribute.name in self.constants:
                    mentioned.append(attribute.name)
                    pools.append(
                        value_candidates(
                            attribute.domain,
                            attribute.nullable and attribute.name not in key,
                            self.constants[attribute.name],
                        )
                    )
                elif attribute.name in key:
                    base[attribute.name] = self._key_value(attribute, key_seed)
                else:
                    base[attribute.name] = (
                        None if attribute.nullable else default_value(attribute.domain)
                    )
            for combo in itertools.product(*pools):
                values = dict(base)
                values.update(zip(mentioned, combo))
                result.append(Entity.of(type_name, **values))
        return result

    def _key_value(self, attribute, key_seed: int) -> object:
        base = attribute.domain.base
        if base in ("int", "decimal"):
            return 900000 + key_seed
        if attribute.domain.values is not None:
            values = sorted(attribute.domain.values, key=repr)
            return values[key_seed % len(values)]
        return f"k{key_seed}"


def _canonical_states(
    schema: ClientSchema,
    sets: Sequence[str],
    assocs: Sequence[str],
    constants: Dict[str, List[object]],
    budget: WorkBudget,
) -> Iterator[ClientState]:
    """Enumerate the canonical states described in the module docstring."""
    factories = {name: _EntityCandidateFactory(schema, name, constants) for name in sets}

    per_set_options: List[List[Tuple[str, Tuple[Entity, ...]]]] = []
    for index, set_name in enumerate(sets):
        factory = factories[set_name]
        options: List[Tuple[str, Tuple[Entity, ...]]] = [(set_name, ())]
        centers = factory.candidates(key_seed=2 * index, enumerate_attrs=True)
        for center in centers:
            options.append((set_name, (center,)))
        if _needs_partner(schema, set_name, assocs):
            partners = factory.candidates(key_seed=2 * index + 1, enumerate_attrs=False)
            for center in centers:
                for partner in partners:
                    options.append((set_name, (center, partner)))
        per_set_options.append(options)

    for combo in itertools.product(*per_set_options):
        entities_by_set = {set_name: list(entities) for set_name, entities in combo}
        assoc_option_pools: List[List[Optional[Tuple[str, Entity, Entity]]]] = []
        for assoc_name in assocs:
            association = schema.association(assoc_name)
            pool: List[Optional[Tuple[str, Entity, Entity]]] = [None]
            for e1 in entities_by_set.get(association.entity_set1, []):
                if not _participates(schema, e1, association.end1.entity_type):
                    continue
                for e2 in entities_by_set.get(association.entity_set2, []):
                    if e1 is e2:
                        continue
                    if not _participates(schema, e2, association.end2.entity_type):
                        continue
                    pool.append((assoc_name, e1, e2))
            assoc_option_pools.append(pool)

        for assoc_combo in itertools.product(*assoc_option_pools):
            budget.tick()
            state = ClientState(schema)
            try:
                for set_name, entity_list in entities_by_set.items():
                    for entity in entity_list:
                        state.add_entity(set_name, entity)
                for option in assoc_combo:
                    if option is None:
                        continue
                    assoc_name, e1, e2 = option
                    association = schema.association(assoc_name)
                    key1 = schema.key_of(association.end1.entity_type)
                    key2 = schema.key_of(association.end2.entity_type)
                    state.add_association(
                        assoc_name, e1.key_tuple(key1), e2.key_tuple(key2)
                    )
            except SchemaError:
                continue  # duplicate keys or multiplicity upper bound: skip
            if not _satisfies_lower_bounds(schema, state):
                continue
            yield state


def _needs_partner(schema: ClientSchema, set_name: str, assocs: Sequence[str]) -> bool:
    """A second entity is needed iff some scanned association is self-set."""
    for assoc_name in assocs:
        association = schema.association(assoc_name)
        if association.entity_set1 == set_name and association.entity_set2 == set_name:
            return True
    return False


def _participates(schema: ClientSchema, entity: Entity, end_type: str) -> bool:
    return end_type in schema.ancestors_or_self(entity.concrete_type)


def _satisfies_lower_bounds(schema: ClientSchema, state: ClientState) -> bool:
    """Check multiplicity-1 (required) ends on the canonical state."""
    for association in schema.associations:
        required1 = association.end1.multiplicity.value == "1"
        required2 = association.end2.multiplicity.value == "1"
        if not (required1 or required2):
            continue
        key1 = schema.key_of(association.end1.entity_type)
        key2 = schema.key_of(association.end2.entity_type)
        pairs = state.associations(association.name)
        len1 = len(key1)
        if required2:
            # every entity participating at end1 needs a partner
            for entity in state.entities(association.entity_set1):
                if not _participates(schema, entity, association.end1.entity_type):
                    continue
                key = entity.key_tuple(key1)
                if not any(pair[:len1] == key for pair in pairs):
                    return False
        if required1:
            for entity in state.entities(association.entity_set2):
                if not _participates(schema, entity, association.end2.entity_type):
                    continue
                key = entity.key_tuple(key2)
                if not any(pair[len1:] == key for pair in pairs):
                    return False
    return True


def canonical_client_states(
    schema: ClientSchema,
    sets: Sequence[str],
    assocs: Sequence[str],
    conditions: Sequence[Condition] = (),
    budget: Optional[WorkBudget] = None,
) -> Iterator[ClientState]:
    """Public enumeration of canonical states over the given sources.

    Used by the full compiler's roundtrip spot-check (step 5 of validation)
    and by property tests.  *conditions* seed the per-attribute value
    candidates.
    """
    budget = ensure_budget(budget)
    constants = collect_constants(conditions)
    yield from _canonical_states(schema, list(sets), list(assocs), constants, budget)


# ---------------------------------------------------------------------------
# Symbolic layer: branch flattening + bitset subsumption
# ---------------------------------------------------------------------------

class _NotFlat(Exception):
    """The query is outside the flattenable single-set project-select-union
    fragment (joins, association scans, dead type tags, out-of-map column
    references): fall back to canonical-state enumeration."""


@dataclass
class _Branch:
    """One union branch of a flattened query: rows of ``SetScan(set_name)``
    filtered by *condition* (over scan attributes and the type tag) and
    rebuilt through *out* (output column -> scan attribute or constant).

    ``tag_alive`` records whether the branch's rows still carry the hidden
    type tag (no projection or union above the scan).  ``presence`` lists
    ``(guard, attrs)`` obligations: whenever *guard* is satisfiable for a
    concrete type, that type must carry all of *attrs* — otherwise the real
    evaluator could raise on a missing projection column or pad a NULL the
    symbolic rewrite did not model, so the check must fall back.
    """

    set_name: str
    condition: Condition
    out: Dict[str, CtorExpr]
    tag_alive: bool
    presence: Tuple[Tuple[Condition, FrozenSet[str]], ...] = ()


def _rewrite_through(condition: Condition, branch: _Branch) -> Condition:
    """Rewrite a Select condition applied *above* the branch's out-map into
    an equivalent condition over the branch's scan tuple, constant-folding
    references to padded/pinned columns exactly as the evaluator would."""
    out = branch.out

    def rewrite(node: Condition) -> Condition:
        if isinstance(node, (TrueCond, FalseCond)):
            return node
        if isinstance(node, (IsOf, IsOfOnly)):
            if not branch.tag_alive:
                raise _NotFlat  # evaluator would raise: type tag is gone
            return node
        if isinstance(node, IsNull):
            expr = out.get(node.attr)
            if expr is None:
                return FALSE  # missing attribute: null-test atoms are false
            if isinstance(expr, Const):
                return TRUE if expr.value is None else FALSE
            return IsNull(expr.name)
        if isinstance(node, IsNotNull):
            expr = out.get(node.attr)
            if expr is None:
                return FALSE
            if isinstance(expr, Const):
                return FALSE if expr.value is None else TRUE
            return IsNotNull(expr.name)
        if isinstance(node, Comparison):
            expr = out.get(node.attr)
            if expr is None:
                return FALSE
            if isinstance(expr, Const):
                if expr.value is None:
                    return FALSE  # NULL θ c is false under WHERE
                return TRUE if _compare(expr.value, node.op, node.const) else FALSE
            return Comparison(expr.name, node.op, node.const)
        if isinstance(node, And):
            return and_(*(rewrite(op) for op in node.operands))
        if isinstance(node, Or):
            return or_(*(rewrite(op) for op in node.operands))
        if isinstance(node, Not):
            return Not(rewrite(node.operand))
        raise _NotFlat

    return rewrite(condition)


def _flatten(query: Query, context: ClientContext) -> List[_Branch]:
    """Decompose *query* into single-set branches, or raise :class:`_NotFlat`."""
    if isinstance(query, SetScan):
        columns = context.scan_columns(query)
        return [
            _Branch(
                query.set_name,
                TRUE,
                {column: Col(column) for column in columns},
                tag_alive=True,
            )
        ]
    if isinstance(query, Select):
        branches = []
        for branch in _flatten(query.source, context):
            rewritten = _rewrite_through(query.condition, branch)
            branches.append(
                _Branch(
                    branch.set_name,
                    simplify(and_(branch.condition, rewritten)),
                    branch.out,
                    branch.tag_alive,
                    branch.presence,
                )
            )
        return branches
    if isinstance(query, Project):
        branches = []
        for branch in _flatten(query.source, context):
            new_out: Dict[str, CtorExpr] = {}
            refs: set = set()
            for item in query.items:
                if isinstance(item.expr, Const):
                    new_out[item.output] = item.expr
                    continue
                mapped = branch.out.get(item.expr.name)
                if mapped is None:
                    raise _NotFlat  # evaluator raises on the missing column
                if isinstance(mapped, Col):
                    refs.add(mapped.name)
                new_out[item.output] = mapped
            branches.append(
                _Branch(
                    branch.set_name,
                    branch.condition,
                    new_out,
                    tag_alive=False,
                    presence=branch.presence
                    + ((branch.condition, frozenset(refs)),),
                )
            )
        return branches
    if isinstance(query, UnionAll):
        all_columns = output_columns(query, context)
        branches = []
        for union_branch in query.branches:
            for branch in _flatten(union_branch, context):
                new_out = {}
                refs = set()
                for column in all_columns:
                    expr = branch.out.get(column, Const(None))
                    if isinstance(expr, Col):
                        refs.add(expr.name)
                    new_out[column] = expr
                branches.append(
                    _Branch(
                        branch.set_name,
                        branch.condition,
                        new_out,
                        tag_alive=False,
                        presence=branch.presence
                        + ((branch.condition, frozenset(refs)),),
                    )
                )
        return branches
    raise _NotFlat  # joins / association scans need real states


@dataclass
class _SymbolicOutcome:
    """What the subsumption pass settled: covered/pruned counts plus the
    residual Q1 branches that still need canonical-state enumeration."""

    branches_discharged: int = 0
    branches_pruned: int = 0
    residual: List[_Branch] = field(default_factory=list)


def _symbolic_cover(
    q1: Query,
    q2: Query,
    schema: ClientSchema,
    context: ClientContext,
    budget: WorkBudget,
) -> Optional[_SymbolicOutcome]:
    """Try to cover every branch of Q1 by a source-compatible branch of Q2
    whose condition it implies (one bitmask test per pair).  Returns None
    when the queries are outside the flattenable fragment or an attribute
    presence obligation fails — the caller falls back to enumeration."""
    try:
        branches1 = _flatten(q1, context)
        branches2 = _flatten(q2, context)
    except _NotFlat:
        return None

    conditions_by_set: Dict[str, List[Condition]] = {}
    for branch in branches1 + branches2:
        conditions_by_set.setdefault(branch.set_name, []).append(branch.condition)
    spaces = {
        set_name: ClientConditionSpace(schema, set_name, conditions)
        for set_name, conditions in conditions_by_set.items()
    }

    # Attribute-presence obligations: the branch semantics above assumed
    # every referenced scan attribute exists on every concrete type that
    # can reach the reference.  Verify per type via the bitset masks.
    for branch in branches1 + branches2:
        space = spaces[branch.set_name]
        out_refs = frozenset(
            expr.name for expr in branch.out.values() if isinstance(expr, Col)
        )
        for guard, refs in branch.presence + ((branch.condition, out_refs),):
            if not refs:
                continue
            guard_mask = space.mask(guard, budget)
            for type_name in space.types:
                budget.tick()
                if guard_mask & space._mask_for_type(type_name, budget) == 0:
                    continue
                if not refs <= set(schema.attribute_names_of(type_name)):
                    return None

    outcome = _SymbolicOutcome()
    for branch1 in branches1:
        space = spaces[branch1.set_name]
        if space.mask(branch1.condition, budget) == 0:
            outcome.branches_pruned += 1  # unsatisfiable: produces no rows
            continue
        covered = False
        for branch2 in branches2:
            budget.tick()
            if branch2.set_name != branch1.set_name:
                continue
            if branch2.tag_alive != branch1.tag_alive:
                continue
            if branch2.out.keys() != branch1.out.keys():
                continue
            if any(branch1.out[c] != branch2.out[c] for c in branch1.out):
                continue
            if space.implies(branch1.condition, branch2.condition, budget):
                covered = True
                break
        if covered:
            outcome.branches_discharged += 1
        else:
            outcome.residual.append(branch1)
    return outcome


def _branch_query(branch: _Branch, column_order: Sequence[str]) -> Query:
    """Rebuild a flattened branch as an equivalent query tree."""
    query: Query = SetScan(branch.set_name)
    if not isinstance(branch.condition, TrueCond):
        query = Select(query, branch.condition)
    if not branch.tag_alive:
        items = tuple(
            ProjItem(column, branch.out[column])
            for column in column_order
            if column in branch.out
        )
        query = Project(query, items)
    return query


# ---------------------------------------------------------------------------
# Counterexample replay
# ---------------------------------------------------------------------------

def _rebuild_state(
    schema: ClientSchema,
    sets: Sequence[str],
    assocs: Sequence[str],
    state: ClientState,
) -> Optional[ClientState]:
    """Re-materialise a persisted counterexample under the *current* schema.

    Returns None unless the rebuilt state is a legal state of *schema*:
    every entity's set/type/attributes must still exist exactly, every
    association tuple must re-insert cleanly, and multiplicity lower
    bounds must hold.  A state that passes is a genuine canonical state of
    the current schema regardless of which check originally produced it.
    """
    rebuilt = ClientState(schema)
    try:
        for set_name in sets:
            for entity in state.entities(set_name):
                expected = {
                    attribute.name
                    for attribute in schema.attributes_of(entity.concrete_type)
                }
                if set(entity.value_map) != expected:
                    return None
                rebuilt.add_entity(set_name, entity)
        for assoc_name in assocs:
            association = schema.association(assoc_name)
            key1 = schema.key_of(association.end1.entity_type)
            len1 = len(key1)
            for pair in state.associations(assoc_name):
                rebuilt.add_association(assoc_name, pair[:len1], pair[len1:])
    except (SchemaError, KeyError):
        return None
    if not _satisfies_lower_bounds(schema, rebuilt):
        return None
    return rebuilt


def _replay_counterexamples(
    q1: Query,
    q2: Query,
    schema: ClientSchema,
    cache: ValidationCache,
    replay_key: str,
) -> Tuple[Optional[ContainmentResult], int]:
    """Screen persisted failing states before any symbolic or enumeration
    work: a state that still exhibits a Q1-row missing from Q2 fails the
    check in O(1) states (counterexample-guided fail-fast across SMOs)."""
    replayed = 0
    for sets, assocs, state in cache.counterexamples(replay_key):
        rebuilt = _rebuild_state(schema, sets, assocs, state)
        if rebuilt is None:
            continue
        replayed += 1
        try:
            context = ClientContext(rebuilt)
            rows1 = evaluate_query(q1, context)
            if not rows1:
                continue
            rows2 = evaluate_query(q2, context)
            available = {tuple(sorted(row.items())) for row in rows2}
            for row in rows1:
                if tuple(sorted(row.items())) not in available:
                    cache.record_counterexample(replay_key, sets, assocs, rebuilt)
                    return (
                        ContainmentResult(
                            holds=False,
                            counterexample=rebuilt,
                            missing_row=row,
                            states_checked=replayed,
                            replayed=replayed,
                        ),
                        replayed,
                    )
        except (EvaluationError, SchemaError, KeyError):
            continue  # the state no longer fits the queries: not evidence
    return None, replayed


# ---------------------------------------------------------------------------
# The check
# ---------------------------------------------------------------------------

def check_containment(
    q1: Query,
    q2: Query,
    schema: ClientSchema,
    budget: Optional[WorkBudget] = None,
    cache: Optional[ValidationCache] = None,
    symbolic: bool = True,
) -> ContainmentResult:
    """Decide ``Q1 ⊆ Q2`` over all legal client states of *schema*.

    Both queries must have the same static output columns (the validation
    code aligns them with renaming projections, as the paper does with
    ``π_{β AS γ}``).

    The layered fast path (``symbolic=True``) first replays any persisted
    counterexample states for this check, then attempts a branch-level
    subsumption proof over bitset truth vectors, and only enumerates
    canonical states for the residual uncovered branches; ``symbolic=False``
    restores the pure enumerator (the pre-symbolic baseline the benchmarks
    compare against).  Both paths return identical verdicts.

    With a *cache*, the result is memoised under a fingerprint of both
    query trees and the schema neighborhood they scan (including every
    association whose multiplicity bounds constrain the canonical states),
    so any mutation that could change the verdict changes the key; failing
    states are additionally persisted under the same key (surviving
    transaction rollbacks) for replay-first re-validation.
    """
    if cache is not None:
        sets, assocs = _sources_of([q1, q2])
        key = fingerprint(
            "containment",
            q1,
            q2,
            client_slice_tokens(schema, sets=sets, assocs=assocs),
            symbolic,
        )
        return cache.get_or_compute(
            "containment",
            key,
            lambda: _check_containment(
                q1, q2, schema, budget, cache=cache, replay_key=key, symbolic=symbolic
            ),
        )
    return _check_containment(q1, q2, schema, budget, symbolic=symbolic)


def _check_containment(
    q1: Query,
    q2: Query,
    schema: ClientSchema,
    budget: Optional[WorkBudget] = None,
    cache: Optional[ValidationCache] = None,
    replay_key: Optional[str] = None,
    symbolic: bool = True,
) -> ContainmentResult:
    budget = ensure_budget(budget)
    probe_state = ClientState(schema)
    probe = ClientContext(probe_state)
    cols1 = set(output_columns(q1, probe))
    cols2 = set(output_columns(q2, probe))
    if cols1 != cols2:
        raise EvaluationError(
            f"containment requires aligned projections; got {sorted(cols1)} "
            f"vs {sorted(cols2)}"
        )

    replayed = 0
    if cache is not None and replay_key is not None:
        failure, replayed = _replay_counterexamples(q1, q2, schema, cache, replay_key)
        if failure is not None:
            return failure

    branches_discharged = 0
    branches_pruned = 0
    q1_effective = q1
    if symbolic:
        outcome = _symbolic_cover(q1, q2, schema, probe, budget)
        if outcome is not None:
            branches_discharged = outcome.branches_discharged
            branches_pruned = outcome.branches_pruned
            if not outcome.residual:
                return ContainmentResult(
                    holds=True,
                    states_checked=0,
                    discharged=True,
                    branches_discharged=branches_discharged,
                    branches_pruned=branches_pruned,
                    replayed=replayed,
                )
            # Enumerate states only for the uncovered branches: the residual
            # query scans fewer sources, so the canonical state space is
            # strictly smaller whenever anything was discharged.
            column_order = output_columns(q1, probe)
            q1_effective = union_all(
                [_branch_query(branch, column_order) for branch in outcome.residual]
            )

    sets, assocs = _sources_of([q1_effective, q2])
    conditions = _conditions_of(q1_effective) + _conditions_of(q2)
    constants = collect_constants(conditions)

    states_checked = 0
    for state in _canonical_states(schema, sets, assocs, constants, budget):
        states_checked += 1
        context = ClientContext(state)
        rows1 = evaluate_query(q1_effective, context)
        if not rows1:
            continue
        rows2 = evaluate_query(q2, context)
        available = {tuple(sorted(row.items())) for row in rows2}
        for row in rows1:
            if tuple(sorted(row.items())) not in available:
                if cache is not None and replay_key is not None:
                    cache.record_counterexample(replay_key, sets, assocs, state)
                return ContainmentResult(
                    holds=False,
                    counterexample=state,
                    missing_row=row,
                    states_checked=states_checked,
                    branches_discharged=branches_discharged,
                    branches_pruned=branches_pruned,
                    replayed=replayed,
                )
    return ContainmentResult(
        holds=True,
        states_checked=states_checked,
        branches_discharged=branches_discharged,
        branches_pruned=branches_pruned,
        replayed=replayed,
    )
