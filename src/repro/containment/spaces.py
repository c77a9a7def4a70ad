"""Decision procedures for conditions over one source.

A *condition space* fixes a source (a client entity set, a client entity
type, or a store table) and a set of conditions of interest, derives finite
value candidates for every mentioned attribute, and decides

* satisfiability,
* implication,
* tautology (the Section 3.3 coverage check),
* equivalence, and
* the set of achievable truth vectors over a list of conditions — the
  *cells* that drive the full compiler's case reasoning, whose count is
  exponential in the number of independent conditions.  This is the
  NP-hard core the paper circumvents incrementally.

Complexity is the product of candidate-set sizes over mentioned
attributes (times the number of concrete types on the client side); all
enumeration loops tick a :class:`~repro.budget.WorkBudget`.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.algebra.conditions import (
    And,
    Condition,
    Not,
    Or,
    TupleContext,
    evaluate_condition,
)
from repro.budget import WorkBudget, ensure_budget
from repro.containment.atoms import collect_constants, default_value, value_candidates
from repro.containment.cache import ValidationCache, client_slice_tokens
from repro.edm.schema import ClientSchema
from repro.errors import SchemaError
from repro.fingerprint import fingerprint
from repro.relational.schema import StoreSchema


class _AssignmentContext(TupleContext):
    """Evaluates conditions over one symbolic assignment.

    A client-side point holds its concrete type's ancestors (itself
    included), not the :class:`ClientSchema`: cached points then keep no
    schema alive once the model that built them is gone.
    """

    def __init__(
        self,
        values: Dict[str, object],
        concrete_type: Optional[str],
        lineage: Optional[FrozenSet[str]],
    ) -> None:
        self._values = values
        self._type = concrete_type
        self._lineage = lineage

    def attr_value(self, name: str) -> object:
        if name not in self._values:
            raise KeyError(name)
        return self._values[name]

    def is_of(self, type_name: str, only: bool) -> bool:
        if self._type is None or self._lineage is None:
            raise SchemaError("type atoms are not allowed on store-side conditions")
        if only:
            return self._type == type_name
        return type_name in self._lineage


class Assignment:
    """One point of the space: optional concrete type + attribute values."""

    __slots__ = ("concrete_type", "values", "_context")

    def __init__(
        self,
        concrete_type: Optional[str],
        values: Dict[str, object],
        lineage: Optional[FrozenSet[str]],
    ) -> None:
        self.concrete_type = concrete_type
        self.values = values
        self._context = _AssignmentContext(values, concrete_type, lineage)

    def satisfies(self, condition: Condition) -> bool:
        return evaluate_condition(condition, self._context)

    def __repr__(self) -> str:
        return f"Assignment({self.concrete_type}, {self.values})"


class ConditionSpace:
    """Base: finite assignment enumeration + bitset decision procedures.

    The space's assignments are materialised once (ticking the budget per
    point, exactly like the old per-call sweeps) and every condition is
    lowered to a *truth mask*: one Python int whose bit *i* is set iff
    assignment *i* satisfies the condition.  Atoms cost one evaluation
    per assignment; ``AND``/``OR``/``NOT`` are single bitwise ops on the
    children's masks.  Masks are memoised per condition node — and since
    condition nodes are hash-consed, structurally equal subtrees share
    one memo entry no matter where they came from.
    """

    def __init__(self) -> None:
        self._points: Optional[List[Assignment]] = None
        self._full_mask = 0
        self._masks: Dict[Condition, int] = {}

    def assignments(self, budget: Optional[WorkBudget] = None) -> Iterator[Assignment]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Bitset truth-vector engine
    # ------------------------------------------------------------------
    def points(self, budget: Optional[WorkBudget] = None) -> List[Assignment]:
        """The materialised assignment list (built once per space)."""
        if self._points is None:
            points = list(self.assignments(budget))
            self._points = points
            self._full_mask = (1 << len(points)) - 1
        return self._points

    def mask(self, condition: Condition, budget: Optional[WorkBudget] = None) -> int:
        """Truth mask of *condition*: bit i set iff point i satisfies it."""
        points = self.points(budget)
        return self._mask(condition, points, ensure_budget(budget))

    def _mask(
        self,
        condition: Condition,
        points: List[Assignment],
        budget: WorkBudget,
    ) -> int:
        cached = self._masks.get(condition)
        if cached is not None:
            return cached
        if isinstance(condition, And):
            result = self._full_mask
            for operand in condition.operands:
                budget.tick()
                result &= self._mask(operand, points, budget)
        elif isinstance(condition, Or):
            result = 0
            for operand in condition.operands:
                budget.tick()
                result |= self._mask(operand, points, budget)
        elif isinstance(condition, Not):
            budget.tick()
            result = self._mask(condition.operand, points, budget) ^ self._full_mask
        else:
            result = 0
            bit = 1
            for assignment in points:
                budget.tick()
                if assignment.satisfies(condition):
                    result |= bit
                bit <<= 1
        self._masks[condition] = result
        return result

    # ------------------------------------------------------------------
    def satisfiable(
        self, condition: Condition, budget: Optional[WorkBudget] = None
    ) -> bool:
        return self.mask(condition, budget) != 0

    def witness(
        self, condition: Condition, budget: Optional[WorkBudget] = None
    ) -> Optional[Assignment]:
        truth = self.mask(condition, budget)
        if truth == 0:
            return None
        # lowest set bit = first satisfying assignment in enumeration order
        return self.points()[(truth & -truth).bit_length() - 1]

    def tautology(
        self, condition: Condition, budget: Optional[WorkBudget] = None
    ) -> bool:
        return self.mask(condition, budget) == self._full_mask

    def implies(
        self,
        premise: Condition,
        conclusion: Condition,
        budget: Optional[WorkBudget] = None,
    ) -> bool:
        premise_mask = self.mask(premise, budget)
        conclusion_mask = self.mask(conclusion, budget)
        return premise_mask & (conclusion_mask ^ self._full_mask) == 0

    def equivalent(
        self, left: Condition, right: Condition, budget: Optional[WorkBudget] = None
    ) -> bool:
        return self.mask(left, budget) == self.mask(right, budget)

    def truth_vectors(
        self,
        conditions: Sequence[Condition],
        budget: Optional[WorkBudget] = None,
        cache: Optional["ValidationCache"] = None,
    ) -> Dict[Tuple[bool, ...], Assignment]:
        """All achievable truth vectors over *conditions*, with witnesses.

        This is the cell enumeration of the full compiler: for a table with
        k fragments whose store conditions are independent (e.g. nullable
        foreign-key columns from associations), up to 2^k vectors are
        achievable and each assignment visit costs k evaluations.

        With a *cache*, the enumeration is memoised under a structural
        fingerprint of the space and the conditions (spaces that cannot
        describe their inputs return no token and are never cached).
        """
        conditions = tuple(conditions)
        if cache is not None:
            token = self._cache_token(conditions)
            if token is not None:
                return cache.get_or_compute(
                    "truth-vectors",
                    fingerprint(*token),
                    lambda: self._compute_truth_vectors(conditions, budget),
                )
        return self._compute_truth_vectors(conditions, budget)

    def _compute_truth_vectors(
        self,
        conditions: Tuple[Condition, ...],
        budget: Optional[WorkBudget],
    ) -> Dict[Tuple[bool, ...], Assignment]:
        ticking = ensure_budget(budget)
        points = self.points(budget)
        masks = [self._mask(c, points, ticking) for c in conditions]
        vectors: Dict[Tuple[bool, ...], Assignment] = {}
        for i, assignment in enumerate(points):
            ticking.tick()
            vector = tuple(bool(m >> i & 1) for m in masks)
            if vector not in vectors:
                vectors[vector] = assignment
        return vectors

    def _cache_token(
        self, conditions: Tuple[Condition, ...]
    ) -> Optional[Tuple[object, ...]]:
        """Fingerprint parts identifying this space, or None (no caching)."""
        return None


class StoreConditionSpace(ConditionSpace):
    """Assignments over the columns of one store table."""

    def __init__(
        self,
        store_schema: StoreSchema,
        table_name: str,
        conditions: Iterable[Condition],
    ) -> None:
        super().__init__()
        self.table = store_schema.table(table_name)
        self.conditions = tuple(conditions)
        constants = collect_constants(self.conditions)
        self._mentioned: List[str] = [
            c for c in self.table.column_names if c in constants
        ]
        self._candidates: Dict[str, Tuple[object, ...]] = {}
        for column_name in self._mentioned:
            column = self.table.column(column_name)
            self._candidates[column_name] = value_candidates(
                column.domain, column.nullable, constants[column_name]
            )
        self._defaults = {
            c.name: (None if c.nullable else default_value(c.domain))
            for c in self.table.columns
            if c.name not in self._mentioned
        }

    def assignments(self, budget: Optional[WorkBudget] = None) -> Iterator[Assignment]:
        budget = ensure_budget(budget)
        pools = [self._candidates[name] for name in self._mentioned]
        for combo in itertools.product(*pools):
            budget.tick()
            values = dict(self._defaults)
            values.update(zip(self._mentioned, combo))
            yield Assignment(None, values, None)

    def _cache_token(
        self, conditions: Tuple[Condition, ...]
    ) -> Optional[Tuple[object, ...]]:
        return ("store-space", self.table, self.conditions, conditions)


class ClientConditionSpace(ConditionSpace):
    """Assignments over the entities of one client entity set.

    Enumerates (concrete type, attribute values) pairs.  Only attributes
    mentioned by the conditions vary; an attribute is present in an
    assignment exactly when the chosen concrete type has it.
    """

    def __init__(
        self,
        client_schema: ClientSchema,
        set_name: str,
        conditions: Iterable[Condition],
        types: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__()
        self._type_masks: Dict[str, int] = {}
        self._lineages: Dict[str, FrozenSet[str]] = {}
        self.schema = client_schema
        self.set_name = set_name
        self.conditions = tuple(conditions)
        if types is None:
            self.types: Tuple[str, ...] = client_schema.concrete_types_of_set(set_name)
        else:
            self.types = tuple(types)
        self._constants = collect_constants(self.conditions)

    def _per_type_pools(
        self, type_name: str
    ) -> Tuple[List[str], List[Tuple[object, ...]], Dict[str, object]]:
        mentioned: List[str] = []
        pools: List[Tuple[object, ...]] = []
        defaults: Dict[str, object] = {}
        for attribute in self.schema.attributes_of(type_name):
            if attribute.name in self._constants:
                mentioned.append(attribute.name)
                pools.append(
                    value_candidates(
                        attribute.domain, attribute.nullable, self._constants[attribute.name]
                    )
                )
            else:
                defaults[attribute.name] = (
                    None if attribute.nullable else default_value(attribute.domain)
                )
        return mentioned, pools, defaults

    def _lineage(self, type_name: str) -> FrozenSet[str]:
        """*type_name* and its ancestors, computed once per type."""
        lineage = self._lineages.get(type_name)
        if lineage is None:
            lineage = self._lineages[type_name] = frozenset(
                self.schema.ancestors_or_self(type_name)
            )
        return lineage

    def assignments(self, budget: Optional[WorkBudget] = None) -> Iterator[Assignment]:
        budget = ensure_budget(budget)
        for type_name in self.types:
            yield from self.assignments_for_type(type_name, budget)

    def _cache_token(
        self, conditions: Tuple[Condition, ...]
    ) -> Optional[Tuple[object, ...]]:
        return (
            "client-space",
            self.set_name,
            self.types,
            client_slice_tokens(self.schema, types=self.types),
            self.conditions,
            conditions,
        )

    def assignments_for_type(
        self, type_name: str, budget: Optional[WorkBudget] = None
    ) -> Iterator[Assignment]:
        budget = ensure_budget(budget)
        mentioned, pools, defaults = self._per_type_pools(type_name)
        lineage = self._lineage(type_name)
        for combo in itertools.product(*pools):
            budget.tick()
            values = dict(defaults)
            values.update(zip(mentioned, combo))
            yield Assignment(type_name, values, lineage)

    def tautology_for_type(
        self,
        type_name: str,
        condition: Condition,
        budget: Optional[WorkBudget] = None,
    ) -> bool:
        """Is *condition* true of every possible entity of *type_name*?

        This is the AddEntityPart coverage check of Section 3.3: for the
        Adult/Young partition it decides that ``age ≥ 18 ∨ age < 18`` is a
        tautology, and for the gender example that
        ``gender = M ∨ gender = F`` is one (via the enum domain).
        """
        if type_name not in self.types:
            # the type is outside this space's points: sweep it directly
            for assignment in self.assignments_for_type(type_name, budget):
                if not assignment.satisfies(condition):
                    return False
            return True
        type_mask = self._mask_for_type(type_name, budget)
        return type_mask & (self.mask(condition, budget) ^ self._full_mask) == 0

    def _mask_for_type(
        self, type_name: str, budget: Optional[WorkBudget] = None
    ) -> int:
        cached = self._type_masks.get(type_name)
        if cached is not None:
            return cached
        result = 0
        bit = 1
        for assignment in self.points(budget):
            if assignment.concrete_type == type_name:
                result |= bit
            bit <<= 1
        self._type_masks[type_name] = result
        return result
