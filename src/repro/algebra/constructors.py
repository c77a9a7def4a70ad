"""Constructor expressions (the τ of a view).

Section 2.2 writes a query view as ``(Q_E | τ_E)`` where ``τ_E`` states how
to build entities from the relational output of ``Q_E`` — typically an
if-then-else chain over provenance flags, e.g.::

    if (from_Emp = true) then Employee(Id, Name, Department)
    else Person(Id, Name)

Update views use the analogous ``(Q_T | τ_T)`` with a row constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Dict, Mapping, Tuple

from repro.algebra.conditions import Condition, evaluate_condition
from repro.algebra.queries import Col, Const, CtorExpr
from repro.edm.instances import Entity
from repro.errors import EvaluationError


def _getter(keys) -> Callable:
    """A function from a mapping to the tuple of its values under *keys*."""
    if len(keys) > 1:
        return itemgetter(*keys)
    keys = tuple(keys)
    return lambda mapping: tuple(mapping[key] for key in keys)


def _eval_expr(expr: CtorExpr, row: Mapping[str, object]) -> object:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Col):
        if expr.name not in row:
            raise EvaluationError(f"constructor references missing column {expr.name!r}")
        return row[expr.name]
    raise EvaluationError(f"unknown constructor expression {expr!r}")


class _RowContext:
    """Adapts a plain result row to the condition-evaluation protocol."""

    def __init__(self, row: Mapping[str, object]) -> None:
        self._row = row

    def attr_value(self, name: str) -> object:
        if name not in self._row:
            raise KeyError(name)
        return self._row[name]

    def is_of(self, type_name: str, only: bool) -> bool:
        raise EvaluationError("type atoms cannot appear in constructor conditions")


class Constructor:
    """Base class for τ expressions."""

    def __getstate__(self) -> dict:
        # a cached ``_plan`` holds closures: rebuilt on first use, never
        # pickled (process-pool payloads carry the views)
        return {k: v for k, v in self.__dict__.items() if k != "_plan"}

    def construct(self, row: Mapping[str, object]) -> object:
        raise NotImplementedError

    def constructed_types(self) -> Tuple[str, ...]:
        """All entity types this constructor can instantiate."""
        raise NotImplementedError


@dataclass(frozen=True)
class EntityCtor(Constructor):
    """``E(a1, ..., an)``: build an entity of a fixed concrete type.

    ``assignments`` maps each attribute of E to a column of the query output
    or a constant (constants arise from client-side conditions that pin an
    attribute, Section 3.3's gender example).
    """

    type_name: str
    assignments: Tuple[Tuple[str, CtorExpr], ...]

    @staticmethod
    def identity(type_name: str, attr_names) -> "EntityCtor":
        """The common case ``E(att(E))``: each attribute from its own column."""
        return EntityCtor(type_name, tuple((a, Col(a)) for a in attr_names))

    @cached_property
    def _plan(self) -> Tuple[Tuple[str, ...], Callable, Dict[tuple, object]]:
        """The attributes in the order :meth:`Entity.of` sorts values
        into, a getter of their values from a row, and the constants it
        reads under keys no column can have."""
        attrs, keys, constants = [], [], {}
        for attr, expr in sorted(self.assignments, key=lambda pair: pair[0]):
            attrs.append(attr)
            if isinstance(expr, Col):
                keys.append(expr.name)
            elif isinstance(expr, Const):
                keys.append((attr,))
                constants[(attr,)] = expr.value
            else:
                raise EvaluationError(f"unknown constructor expression {expr!r}")
        return tuple(attrs), _getter(keys), constants

    def construct(self, row: Mapping[str, object]) -> Entity:
        attrs, getter, constants = self._plan
        try:
            values = getter({**row, **constants} if constants else row)
        except KeyError as exc:
            raise EvaluationError(
                f"constructor references missing column {exc.args[0]!r}"
            ) from None
        return Entity(self.type_name, tuple(zip(attrs, values)))

    def constructed_types(self) -> Tuple[str, ...]:
        return (self.type_name,)

    def __str__(self) -> str:
        args = ", ".join(
            attr if isinstance(expr, Col) and expr.name == attr else f"{attr}={expr}"
            for attr, expr in self.assignments
        )
        return f"{self.type_name}({args})"


@dataclass(frozen=True)
class IfCtor(Constructor):
    """``if (cond) then τ1 else τ2`` over the query output row."""

    condition: Condition
    then_ctor: Constructor
    else_ctor: Constructor

    def construct(self, row: Mapping[str, object]) -> object:
        if evaluate_condition(self.condition, _RowContext(row)):
            return self.then_ctor.construct(row)
        return self.else_ctor.construct(row)

    def constructed_types(self) -> Tuple[str, ...]:
        return self.then_ctor.constructed_types() + self.else_ctor.constructed_types()

    def __str__(self) -> str:
        return f"if ({self.condition}) then {self.then_ctor} else {self.else_ctor}"


@dataclass(frozen=True)
class RowCtor(Constructor):
    """``T(c1, ..., cn)``: build a store row for table ``table_name``."""

    table_name: str
    assignments: Tuple[Tuple[str, CtorExpr], ...]

    @staticmethod
    def identity(table_name: str, column_names) -> "RowCtor":
        return RowCtor(table_name, tuple((c, Col(c)) for c in column_names))

    @cached_property
    def _plan(self) -> Tuple[Tuple[str, ...], Callable, Dict[tuple, object]]:
        """The columns in canonical-row order, a getter of their values
        from a row, and the constants it reads under keys no column can
        have."""
        columns, keys, constants = [], [], {}
        for column, expr in sorted(self.assignments, key=lambda pair: pair[0]):
            columns.append(column)
            if isinstance(expr, Col):
                keys.append(expr.name)
            elif isinstance(expr, Const):
                keys.append((column,))
                constants[(column,)] = expr.value
            else:
                raise EvaluationError(f"unknown constructor expression {expr!r}")
        return tuple(columns), _getter(keys), constants

    def construct(self, row: Mapping[str, object]) -> Dict[str, object]:
        return dict(self.construct_row(row))

    def construct_row(self, row: Mapping[str, object]) -> Tuple[Tuple[str, object], ...]:
        """The canonical store row built from *row*: its (column, value)
        pairs sorted by column, as a store row is kept."""
        columns, getter, constants = self._plan
        try:
            values = getter({**row, **constants} if constants else row)
        except KeyError as exc:
            raise EvaluationError(
                f"constructor references missing column {exc.args[0]!r}"
            ) from None
        return tuple(zip(columns, values))

    def constructed_types(self) -> Tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        args = ", ".join(
            col if isinstance(expr, Col) and expr.name == col else f"{col}={expr}"
            for col, expr in self.assignments
        )
        return f"{self.table_name}({args})"


@dataclass(frozen=True)
class AssociationCtor(Constructor):
    """``A(PK1, PK2)``: build an association tuple from query output."""

    assoc_name: str
    assignments: Tuple[Tuple[str, CtorExpr], ...]

    @staticmethod
    def identity(assoc_name: str, attr_names) -> "AssociationCtor":
        return AssociationCtor(assoc_name, tuple((a, Col(a)) for a in attr_names))

    def construct(self, row: Mapping[str, object]) -> Tuple[object, ...]:
        return tuple(_eval_expr(expr, row) for _, expr in self.assignments)

    def construct_map(self, row: Mapping[str, object]) -> Dict[str, object]:
        """Qualified attribute name → value; order-independent access for
        reconstruction (the fragment's α order need not match end order)."""
        return {attr: _eval_expr(expr, row) for attr, expr in self.assignments}

    def constructed_types(self) -> Tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        args = ", ".join(attr for attr, _ in self.assignments)
        return f"{self.assoc_name}({args})"
