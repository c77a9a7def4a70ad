"""Condition ASTs for the fragment and view languages.

Section 2.1 defines client-side conditions ψ as AND-OR combinations of
``IS OF E``, ``IS OF (ONLY E)``, ``A IS NULL``, ``A IS NOT NULL`` and
``A θ c``; store-side conditions χ are the same minus the type atoms.
We additionally support NOT (needed internally by cell enumeration and by
the ``ch_p`` rewrite of Algorithm 2) and the constants TRUE/FALSE.

All nodes are immutable and hashable so conditions can live inside view
trees that are compared, cached and rewritten.

Nodes are **hash-consed**: construction consults a process-wide interning
table, so structurally identical trees built from interned parts come back
as the *same* object, equality usually short-circuits on identity, and the
structural hash of a node is computed once (children contribute their own
precomputed hashes, so hashing a composite is O(#children), not
O(subtree)).  The containment engine relies on this to share bitset truth
vectors by node identity.  Interning is best-effort: unpickled or
hand-built duplicates are merely unshared, never incorrect, because
equality and hashing stay fully structural.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, Tuple

from repro.errors import EvaluationError

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


# ---------------------------------------------------------------------------
# Hash-consing machinery
# ---------------------------------------------------------------------------

_INTERN_LOCK = threading.Lock()
#: intern key -> canonical node.  Values are held weakly so conditions that
#: fall out of use do not pin the table forever; a live entry's key can only
#: reference live children (the entry's node holds them), so the ``id``-based
#: child keys below can never alias a collected object.
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
_INTERN_STATS = {"hits": 0, "misses": 0, "bypassed": 0}


def _intern_part(value: object) -> object:
    """One component of an intern key.

    Child conditions key by *identity* (bottom-up construction makes equal
    subtrees identical objects, and identity never conflates values that
    compare equal but differ in type, e.g. ``1`` vs ``1.0``); primitives are
    type-tagged for the same reason.
    """
    if isinstance(value, Condition):
        return ("c", id(value))
    if isinstance(value, tuple):
        return ("t",) + tuple(_intern_part(v) for v in value)
    return (type(value), value)


def intern_stats() -> Dict[str, int]:
    """Hit/miss/bypass counters of the condition interning table."""
    with _INTERN_LOCK:
        return dict(_INTERN_STATS)


class Condition:
    """Base class for condition nodes.

    Subclasses are frozen dataclasses declared with ``eq=False`` so the
    identity-first ``__eq__``/``__hash__`` defined here apply; ``__new__``
    interns every construction with arguments.
    """

    def __new__(cls, *args, **kwargs):
        if not args and not kwargs:
            # TRUE/FALSE construction and pickle/deepcopy reconstruction
            # (``cls.__new__(cls)``): never intern — unpickling initialises
            # fields *after* __new__, so an interned hit here could alias an
            # uninitialised or unrelated instance.
            return super().__new__(cls)
        try:
            key = (cls,) + tuple(_intern_part(a) for a in args) + tuple(
                (name, _intern_part(kwargs[name])) for name in sorted(kwargs)
            )
            with _INTERN_LOCK:
                existing = _INTERN.get(key)
                if existing is not None:
                    _INTERN_STATS["hits"] += 1
                    # dataclass __init__ re-sets the same field values on the
                    # returned instance; harmless by key construction.
                    return existing
        except TypeError:  # unhashable argument: skip interning
            with _INTERN_LOCK:
                _INTERN_STATS["bypassed"] += 1
            return super().__new__(cls)
        node = super().__new__(cls)
        with _INTERN_LOCK:
            _INTERN_STATS["misses"] += 1
            _INTERN[key] = node
        return node

    # -- precomputed structural hash ------------------------------------
    def __post_init__(self) -> None:
        object.__setattr__(self, "_shash", self._structural_hash())

    def _structural_hash(self) -> int:
        parts = [self.__class__.__name__]
        parts.extend(getattr(self, name) for name in self.__dataclass_fields__)
        return hash(tuple(parts))

    def __hash__(self) -> int:
        try:
            return self._shash  # type: ignore[attr-defined]
        except AttributeError:  # unpickled / copied instance: compute lazily
            value = self._structural_hash()
            object.__setattr__(self, "_shash", value)
            return value

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__dataclass_fields__
        )

    def __getstate__(self):
        # The structural hash uses Python's per-process salted string hash;
        # shipping it across a process boundary (parallel validation and
        # the persistent cache pickle mappings, views and conditions)
        # would break dict invariants in the receiver.  Drop it; __hash__ recomputes lazily.
        state = dict(self.__dict__)
        state.pop("_shash", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

    def atoms(self) -> Iterator["Condition"]:
        """Yield every atomic condition in this tree (with duplicates)."""
        yield self

    def transform(self, fn: Callable[["Condition"], "Condition"]) -> "Condition":
        """Rebuild the tree bottom-up, applying *fn* to every node.

        *fn* receives each node after its children were transformed and
        returns the replacement node (possibly the node itself).
        """
        return fn(self)

    # Convenience combinators -------------------------------------------------
    def __and__(self, other: "Condition") -> "Condition":
        return and_(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return or_(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)


@dataclass(frozen=True, eq=False)
class TrueCond(Condition):
    def __str__(self) -> str:
        return "TRUE"


@dataclass(frozen=True, eq=False)
class FalseCond(Condition):
    def __str__(self) -> str:
        return "FALSE"


TRUE = TrueCond()
FALSE = FalseCond()


@dataclass(frozen=True, eq=False)
class IsOf(Condition):
    """``IS OF E``: satisfied by entities of type E and derived types."""

    type_name: str

    def __str__(self) -> str:
        return f"IS OF {self.type_name}"


@dataclass(frozen=True, eq=False)
class IsOfOnly(Condition):
    """``IS OF (ONLY E)``: satisfied by entities of exactly type E."""

    type_name: str

    def __str__(self) -> str:
        return f"IS OF (ONLY {self.type_name})"


@dataclass(frozen=True, eq=False)
class IsNull(Condition):
    attr: str

    def __str__(self) -> str:
        return f"{self.attr} IS NULL"


@dataclass(frozen=True, eq=False)
class IsNotNull(Condition):
    attr: str

    def __str__(self) -> str:
        return f"{self.attr} IS NOT NULL"


@dataclass(frozen=True, eq=False)
class Comparison(Condition):
    """``A θ c`` for a comparison operator θ and constant c.

    Comparisons with NULL on the attribute side evaluate to false, matching
    SQL's treatment under a WHERE clause.
    """

    attr: str
    op: str
    const: object

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise EvaluationError(f"unknown comparison operator {self.op!r}")
        super().__post_init__()

    def __str__(self) -> str:
        return f"{self.attr} {self.op} {self.const!r}"


@dataclass(frozen=True, eq=False)
class And(Condition):
    operands: Tuple[Condition, ...]

    def atoms(self) -> Iterator[Condition]:
        for operand in self.operands:
            yield from operand.atoms()

    def transform(self, fn: Callable[[Condition], Condition]) -> Condition:
        return fn(And(tuple(op.transform(fn) for op in self.operands)))

    def __str__(self) -> str:
        return "(" + " AND ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True, eq=False)
class Or(Condition):
    operands: Tuple[Condition, ...]

    def atoms(self) -> Iterator[Condition]:
        for operand in self.operands:
            yield from operand.atoms()

    def transform(self, fn: Callable[[Condition], Condition]) -> Condition:
        return fn(Or(tuple(op.transform(fn) for op in self.operands)))

    def __str__(self) -> str:
        return "(" + " OR ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True, eq=False)
class Not(Condition):
    operand: Condition

    def atoms(self) -> Iterator[Condition]:
        yield from self.operand.atoms()

    def transform(self, fn: Callable[[Condition], Condition]) -> Condition:
        return fn(Not(self.operand.transform(fn)))

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


# ---------------------------------------------------------------------------
# Smart constructors (light structural simplification at build time)
# ---------------------------------------------------------------------------

def and_(*operands: Condition) -> Condition:
    """N-ary AND with flattening and TRUE/FALSE absorption."""
    flat = []
    for operand in operands:
        if isinstance(operand, TrueCond):
            continue
        if isinstance(operand, FalseCond):
            return FALSE
        if isinstance(operand, And):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(*operands: Condition) -> Condition:
    """N-ary OR with flattening and TRUE/FALSE absorption."""
    flat = []
    for operand in operands:
        if isinstance(operand, FalseCond):
            continue
        if isinstance(operand, TrueCond):
            return TRUE
        if isinstance(operand, Or):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def referenced_attrs(condition: Condition) -> FrozenSet[str]:
    """Names of all attributes mentioned by null-test or comparison atoms."""
    result = set()
    for atom in condition.atoms():
        if isinstance(atom, (IsNull, IsNotNull, Comparison)):
            result.add(atom.attr)
    return frozenset(result)


def referenced_types(condition: Condition) -> FrozenSet[str]:
    """Names of all entity types mentioned by type atoms."""
    result = set()
    for atom in condition.atoms():
        if isinstance(atom, (IsOf, IsOfOnly)):
            result.add(atom.type_name)
    return frozenset(result)


def has_type_atoms(condition: Condition) -> bool:
    return bool(referenced_types(condition))


class TupleContext:
    """What a condition needs to evaluate: attribute lookup + type test.

    Client tuples know their concrete type; store tuples do not (type atoms
    over store tuples raise).  ``attr_value`` must raise KeyError for
    attributes the tuple does not carry.
    """

    def attr_value(self, name: str) -> object:
        raise NotImplementedError

    def is_of(self, type_name: str, only: bool) -> bool:
        raise NotImplementedError


def evaluate_condition(condition: Condition, context: TupleContext) -> bool:
    """Evaluate *condition* against a tuple context.

    Attributes missing from the tuple make comparison and null-test atoms
    false (the fragment language only mentions an attribute under a type
    condition guaranteeing its presence, so this never changes fragment
    semantics; it gives AND-OR combinations a total semantics).
    """
    if isinstance(condition, TrueCond):
        return True
    if isinstance(condition, FalseCond):
        return False
    if isinstance(condition, IsOf):
        return context.is_of(condition.type_name, only=False)
    if isinstance(condition, IsOfOnly):
        return context.is_of(condition.type_name, only=True)
    if isinstance(condition, IsNull):
        try:
            return context.attr_value(condition.attr) is None
        except KeyError:
            return False
    if isinstance(condition, IsNotNull):
        try:
            return context.attr_value(condition.attr) is not None
        except KeyError:
            return False
    if isinstance(condition, Comparison):
        try:
            value = context.attr_value(condition.attr)
        except KeyError:
            return False
        if value is None:
            return False
        return _compare(value, condition.op, condition.const)
    if isinstance(condition, And):
        return all(evaluate_condition(op, context) for op in condition.operands)
    if isinstance(condition, Or):
        return any(evaluate_condition(op, context) for op in condition.operands)
    if isinstance(condition, Not):
        return not evaluate_condition(condition.operand, context)
    raise EvaluationError(f"unknown condition node {condition!r}")


def compare_values(value: object, op: str, const: object) -> bool:
    """The comparison kernel: ``value θ const`` with SQL error semantics.

    Shared by the interpreter (via :func:`evaluate_condition`) and the
    compiled predicates of :mod:`repro.backend.physical`, so both paths
    agree on operator meaning and on raising :class:`EvaluationError`
    for incomparable operands.  ``value`` must already be non-NULL.
    """
    return _compare(value, op, const)


def _compare(value: object, op: str, const: object) -> bool:
    try:
        if op == "=":
            return value == const
        if op == "!=":
            return value != const
        if op == "<":
            return value < const  # type: ignore[operator]
        if op == "<=":
            return value <= const  # type: ignore[operator]
        if op == ">":
            return value > const  # type: ignore[operator]
        if op == ">=":
            return value >= const  # type: ignore[operator]
    except TypeError as exc:
        raise EvaluationError(f"cannot compare {value!r} {op} {const!r}") from exc
    raise EvaluationError(f"unknown comparison operator {op!r}")
