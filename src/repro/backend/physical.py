"""Compiled physical plans: store algebra lowered to Python closures.

The interpreter (:mod:`repro.algebra.evaluate`) re-walks the algebra tree
for every request — re-deciding node types, re-deriving join column
structure, re-building join indexes, and re-dispatching
``evaluate_condition`` per row.  For a *cached* plan all of that work is
shape-invariant, so this module does it once, at plan-compile time
(OpenIVM's "compile the declarative plan down to directly executable
form" applied to the serving path):

* **predicate compilation** — conditions become predicate closures over
  row dicts, memoized process-wide by hash-consed condition identity.
  Extracted :class:`~repro.query.plancache.Param` constants are fetched
  from the bound parameter vector at call time, so binding a warm plan
  is free: the same compiled plan serves every parameter vector.  Given
  a client schema, ``IS OF`` atoms test a client row's type tag against
  the type set the schema fixes at compile time (the write path's update
  views); such predicates are bound to that schema and never memoized.
* **predicate pushdown** — pushable conjuncts (comparisons and IS NOT
  NULL tests: both are false on NULL, and row-local) sink through
  selects, projections (column renames; pinned constants fold at compile
  time), both sides of joins on join columns, preserved sides of outer
  joins, and into union branches.  A pushed conjunct over a column only
  the *non-preserved* side of an outer join produces can never hold on a
  padded row, so the join degrades (full → one-sided → inner) before
  lowering — this is what turns a key probe over the Figure 1
  full-outer-join view into point lookups.
* **index probes** — ``σ (equality conjuncts) (TableScan)`` lowers to a
  probe of the store's key index on those columns
  (:meth:`~repro.relational.instances.StoreState.key_index`), and a join
  whose right input is a bare table scan probes the right table's key
  index on the join columns instead of building one per execution.
  Indexes on declared keys travel with the store through every write;
  any other index lives as long as the table object it was built on.
* **fusion and sharing** — projections compile their item list to a
  single row-rebuild pass, unions pad in one pass (and skip padding when
  a branch already has the union's columns), and lowered nodes are
  shared *across the branches of one plan*: every unfolded branch of an
  entity query selects over the same view-query object, so branches
  whose pushed conjuncts agree evaluate the shared subtree once per
  execution (a per-run memo keyed by node identity).

Plans execute on one immutable
:class:`~repro.relational.instances.StoreState`: scans iterate its
tables and probes read its key indexes, converting each matched row to
its shared dict view (:func:`~repro.relational.instances.row_view`).
Execution semantics are inherited, not re-implemented: predicates bottom
out in :func:`~repro.algebra.conditions.compare_values`, joins run
through the shared :func:`~repro.algebra.evaluate.join_rows` kernel, and
each branch's rows are counted into a bag under ``evaluate_query``'s
dedup key (:func:`~repro.algebra.evaluate.bag_of`), so a bag's support
is the interpreter's answer and its counts are the bag evaluation's —
the differential suite (:mod:`tests.test_compiled_plans`) holds the
compiled path byte-identical to the interpreter.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Sequence, Tuple

from repro.algebra.conditions import (
    And,
    Comparison,
    Condition,
    FalseCond,
    IsNotNull,
    IsNull,
    IsOf,
    IsOfOnly,
    Not,
    Or,
    TrueCond,
    and_,
    compare_values,
    has_type_atoms,
)
from repro.algebra.evaluate import (
    TYPE_TAG,
    Bag,
    EvaluationContext,
    JoinSpec,
    RowDict,
    bag_of,
    join_rows,
    join_spec,
    output_columns,
)
from repro.algebra.queries import (
    Col,
    FullOuterJoin,
    Join,
    LeftOuterJoin,
    Project,
    Query,
    Select,
    TableScan,
    UnionAll,
)
from repro.errors import EvaluationError
from repro.relational.instances import PartitionedMap, StoreState, row_view
from repro.relational.schema import StoreSchema

#: a compiled predicate: (row, bound parameter vector) -> bool
Predicate = Callable[[RowDict, Tuple[object, ...]], bool]


def _is_param(value: object) -> bool:
    from repro.query.plancache import Param

    return isinstance(value, Param)


# ---------------------------------------------------------------------------
# Predicate compilation
# ---------------------------------------------------------------------------

#: condition -> compiled predicate; hash-consing makes structurally equal
#: conditions the same key, so one shape's predicates compile once even
#: across plans.  Weak keys: dead conditions do not pin the table.
_PREDICATES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def compile_predicate(condition: Condition, schema=None) -> Predicate:
    """The predicate closure for *condition*, memoized unless it is bound
    to *schema*.

    Without a schema, ``IS OF`` atoms raise on every row they meet, as
    the interpreter does on store tuples.  With a
    :class:`~repro.edm.schema.ClientSchema`, ``IS OF T`` tests a client
    row's type tag against T and the types the schema places under it,
    and ``IS OF ONLY T`` against T alone; the set is fixed now, so the
    closure serves only this schema version and stays out of the memo.
    """
    if schema is not None and has_type_atoms(condition):
        return _compile(condition, schema)
    try:
        cached = _PREDICATES.get(condition)
    except TypeError:  # unhashable (never for real conditions): no memo
        return _compile(condition, None)
    if cached is None:
        cached = _compile(condition, None)
        _PREDICATES[condition] = cached
    return cached


def _type_predicate(types, schema) -> Predicate:
    """A client row's type tag is one of *types*; rows without a tag
    raise like the interpreter's."""
    if schema is None:
        def pred(row, params):
            raise EvaluationError(
                "tuple has no type tag; IS OF is client-side only"
            )
        return pred

    def pred(row, params):
        concrete = row.get(TYPE_TAG)
        if concrete is None:
            raise EvaluationError(
                "tuple has no type tag; IS OF is client-side only"
            )
        return concrete in types

    return pred


def _comparison_predicate(attr: str, op: str, const: object) -> Predicate:
    """One comparison atom; NULL and missing attributes are false, like
    the interpreter's KeyError/None handling."""
    param_index = const.index if _is_param(const) else None
    if op == "=":
        if param_index is None:
            def pred(row, params):
                value = row.get(attr)
                return value is not None and value == const
        else:
            def pred(row, params):
                value = row.get(attr)
                return value is not None and value == params[param_index]
        return pred
    if op == "!=":
        if param_index is None:
            def pred(row, params):
                value = row.get(attr)
                return value is not None and value != const
        else:
            def pred(row, params):
                value = row.get(attr)
                return value is not None and value != params[param_index]
        return pred
    if param_index is None:
        def pred(row, params):
            value = row.get(attr)
            return value is not None and compare_values(value, op, const)
    else:
        def pred(row, params):
            value = row.get(attr)
            return value is not None and compare_values(
                value, op, params[param_index]
            )
    return pred


def _compile(condition: Condition, schema) -> Predicate:
    if isinstance(condition, TrueCond):
        return lambda row, params: True
    if isinstance(condition, FalseCond):
        return lambda row, params: False
    if isinstance(condition, IsNull):
        attr = condition.attr
        # missing attribute -> false; present NULL -> true (interpreter:
        # KeyError -> false, `value is None` otherwise)
        return lambda row, params: attr in row and row[attr] is None
    if isinstance(condition, IsNotNull):
        attr = condition.attr
        return lambda row, params: row.get(attr) is not None
    if isinstance(condition, Comparison):
        return _comparison_predicate(condition.attr, condition.op, condition.const)
    if isinstance(condition, IsOfOnly):
        return _type_predicate(frozenset((condition.type_name,)), schema)
    if isinstance(condition, IsOf):
        name = condition.type_name
        # a type the schema lacks is no row's ancestor: the set is empty
        types = frozenset(
            schema.descendants_or_self(name)
            if schema is not None and schema.has_entity_type(name)
            else ()
        )
        return _type_predicate(types, schema)
    if isinstance(condition, And):
        parts = tuple(compile_predicate(op, schema) for op in condition.operands)
        if len(parts) == 2:
            first, second = parts
            return lambda row, params: (
                first(row, params) and second(row, params)
            )
        return lambda row, params: all(p(row, params) for p in parts)
    if isinstance(condition, Or):
        parts = tuple(compile_predicate(op, schema) for op in condition.operands)
        if len(parts) == 2:
            first, second = parts
            return lambda row, params: (
                first(row, params) or second(row, params)
            )
        return lambda row, params: any(p(row, params) for p in parts)
    if isinstance(condition, Not):
        inner = compile_predicate(condition.operand, schema)
        return lambda row, params: not inner(row, params)
    raise EvaluationError(f"unknown condition node {condition!r}")


def _conjuncts(condition: Condition) -> List[Condition]:
    if isinstance(condition, TrueCond):
        return []
    if isinstance(condition, And):
        return list(condition.operands)
    return [condition]


def _pushable(condition: Condition) -> bool:
    """Conjuncts safe to sink below the node they select over.

    Comparisons and IS NOT NULL are row-local, mention one attribute,
    and are *false on NULL* — the property that licenses pushing through
    NULL-padding operators (outer joins, union padding): a padded row
    can never satisfy them, so filtering the producing side first drops
    exactly the rows the original filter would have dropped.
    """
    return isinstance(condition, (Comparison, IsNotNull))


# ---------------------------------------------------------------------------
# Physical nodes
# ---------------------------------------------------------------------------

class _Run:
    """One execution: store state + bound parameters + the per-run memo
    that lets plan branches share lowered subtree results."""

    __slots__ = ("state", "params", "memo")

    def __init__(self, state: StoreState, params: Tuple[object, ...]) -> None:
        self.state = state
        self.params = params
        self.memo: Dict[int, List[RowDict]] = {}


class _RowViews:
    """A store key index read the way :func:`join_rows` reads an index:
    each bucket as a list of row views."""

    __slots__ = ("_index",)

    def __init__(self, index: PartitionedMap) -> None:
        self._index = index

    def get(self, key, default=()):
        bucket = self._index.get(key)
        return default if bucket is None else [row_view(r) for r in bucket]


class PhysNode:
    """A lowered operator; ``rows`` memoizes per run (results are shared
    and must never be mutated by consumers)."""

    __slots__ = ("columns",)

    def __init__(self, columns: Tuple[str, ...]) -> None:
        self.columns = columns

    def rows(self, run: _Run) -> List[RowDict]:
        key = id(self)
        cached = run.memo.get(key)
        if cached is None:
            cached = self._rows(run)
            run.memo[key] = cached
        return cached

    def _rows(self, run: _Run) -> List[RowDict]:
        raise NotImplementedError


class _Empty(PhysNode):
    """A subtree statically known to produce no rows (a pushed conjunct
    references a column the subtree cannot produce, or folds to FALSE)."""

    __slots__ = ()

    def _rows(self, run: _Run) -> List[RowDict]:
        return []


class _Scan(PhysNode):
    __slots__ = ("table_name",)

    def __init__(self, table_name: str, columns: Tuple[str, ...]) -> None:
        super().__init__(columns)
        self.table_name = table_name

    def _rows(self, run: _Run) -> List[RowDict]:
        return [row_view(r) for r in run.state.rows(self.table_name)]


class _Probe(PhysNode):
    """Equality-key lookup in the store's key index: O(matches)."""

    __slots__ = ("table_name", "key_columns", "key_values")

    def __init__(
        self,
        table_name: str,
        key_columns: Tuple[str, ...],
        key_values: Tuple[Callable[[Tuple[object, ...]], object], ...],
        columns: Tuple[str, ...],
    ) -> None:
        super().__init__(columns)
        self.table_name = table_name
        self.key_columns = key_columns
        self.key_values = key_values

    def _rows(self, run: _Run) -> List[RowDict]:
        key = tuple(fetch(run.params) for fetch in self.key_values)
        if any(v is None for v in key):
            return []  # = NULL matches nothing; the index skips NULLs too
        index = run.state.key_index(self.table_name, self.key_columns)
        return [row_view(r) for r in index.get(key, ())]


class _Filter(PhysNode):
    __slots__ = ("source", "predicate")

    def __init__(self, source: PhysNode, predicate: Predicate) -> None:
        super().__init__(source.columns)
        self.source = source
        self.predicate = predicate

    def _rows(self, run: _Run) -> List[RowDict]:
        predicate = self.predicate
        params = run.params
        return [row for row in self.source.rows(run) if predicate(row, params)]


class _ProjectNode(PhysNode):
    __slots__ = ("source", "spec", "missing")

    def __init__(
        self,
        source: PhysNode,
        items,
        columns: Tuple[str, ...],
    ) -> None:
        super().__init__(columns)
        self.source = source
        #: (output, input column or None, constant) per item, precompiled
        self.spec = tuple(
            (item.output, item.expr.name, None)
            if isinstance(item.expr, Col)
            else (item.output, None, item.expr.value)
            for item in items
        )
        self.missing = tuple(
            name
            for _, name, _ in self.spec
            if name is not None and name not in source.columns
        )

    def _rows(self, run: _Run) -> List[RowDict]:
        rows = self.source.rows(run)
        if rows and self.missing:  # interpreter raises only if rows flow
            name = self.missing[0]
            keys = sorted(k for k in rows[0] if k != TYPE_TAG)
            raise EvaluationError(
                f"projection references missing column {name!r} "
                f"(row has {keys})"
            )
        spec = self.spec
        return [
            {out: (row[name] if name is not None else value)
             for out, name, value in spec}
            for row in rows
        ]


class _JoinNode(PhysNode):
    __slots__ = ("left", "right", "spec", "left_pad", "right_pad", "index_key")

    def __init__(
        self,
        left: PhysNode,
        right: PhysNode,
        spec: JoinSpec,
        left_pad: bool,
        right_pad: bool,
        columns: Tuple[str, ...],
    ) -> None:
        super().__init__(columns)
        self.left = left
        self.right = right
        self.spec = spec
        self.left_pad = left_pad
        self.right_pad = right_pad
        #: (table, join columns) when the right input is a bare scan —
        #: the store's key index then replaces a per-run build
        self.index_key = (
            (right.table_name, spec.join_columns)
            if isinstance(right, _Scan) and spec.join_columns
            else None
        )

    def _rows(self, run: _Run) -> List[RowDict]:
        left_rows = self.left.rows(run)
        if self.index_key is not None:
            index = _RowViews(run.state.key_index(*self.index_key))
            # the right row list is only needed to emit the full-outer
            # tail; a plain or left-outer probe never materializes it
            right_rows = self.right.rows(run) if self.right_pad else ()
        else:
            index = None
            right_rows = self.right.rows(run)
        return join_rows(
            left_rows,
            right_rows,
            self.spec,
            left_pad=self.left_pad,
            right_pad=self.right_pad,
            index=index,
        )


class _UnionNode(PhysNode):
    __slots__ = ("branches",)

    def __init__(
        self, branches: Tuple[PhysNode, ...], columns: Tuple[str, ...]
    ) -> None:
        super().__init__(columns)
        self.branches = branches

    def _rows(self, run: _Run) -> List[RowDict]:
        columns = self.columns
        rows: List[RowDict] = []
        for branch in self.branches:
            branch_rows = branch.rows(run)
            if branch.columns == columns:
                rows.extend(branch_rows)  # already padded-shaped
            else:
                rows.extend(
                    {c: row.get(c) for c in columns} for row in branch_rows
                )
        return rows


# ---------------------------------------------------------------------------
# Lowering (with pushdown)
# ---------------------------------------------------------------------------

class _SchemaContext(EvaluationContext):
    """Static column information only — lowering never touches rows."""

    def __init__(self, schema: StoreSchema) -> None:
        self.schema = schema

    def scan_columns(self, leaf: Query) -> Tuple[str, ...]:
        if isinstance(leaf, TableScan):
            return self.schema.table(leaf.table_name).column_names
        raise EvaluationError(f"physical plans cannot scan {leaf!r}")


def _const_fetcher(const: object) -> Callable[[Tuple[object, ...]], object]:
    if _is_param(const):
        index = const.index
        return lambda params: params[index]
    return lambda params: const


class _Lowerer:
    """Lowers query trees to physical nodes, caching by (source node
    identity, pushed conjunct set) so plan branches share subtrees."""

    def __init__(self, schema: StoreSchema) -> None:
        self.schema = schema
        self._context = _SchemaContext(schema)
        #: (id(query), conjunct set) -> (query kept alive, node)
        self._cache: Dict[Tuple[int, frozenset], Tuple[Query, PhysNode]] = {}
        self._columns: Dict[int, Tuple[Query, Tuple[str, ...]]] = {}

    def columns(self, query: Query) -> Tuple[str, ...]:
        cached = self._columns.get(id(query))
        if cached is None:
            cached = (query, output_columns(query, self._context))
            self._columns[id(query)] = cached
        return cached[1]

    def lower(self, query: Query, conjuncts: Tuple[Condition, ...]) -> PhysNode:
        key = (id(query), frozenset(conjuncts))
        cached = self._cache.get(key)
        if cached is not None:
            return cached[1]
        node = self._lower(query, conjuncts)
        self._cache[key] = (query, node)
        return node

    # -- per-node rules ------------------------------------------------
    def _lower(self, query: Query, cs: Tuple[Condition, ...]) -> PhysNode:
        if isinstance(query, Select):
            return self._lower_select(query, cs)
        if isinstance(query, TableScan):
            return self._lower_scan(query, cs)
        if isinstance(query, Project):
            return self._lower_project(query, cs)
        if isinstance(query, (Join, LeftOuterJoin, FullOuterJoin)):
            return self._lower_join(query, cs)
        if isinstance(query, UnionAll):
            return self._lower_union(query, cs)
        raise EvaluationError(f"cannot lower query node {query!r}")

    def _lower_select(self, query: Select, cs: Tuple[Condition, ...]) -> PhysNode:
        parts = _conjuncts(query.condition)
        pushed = list(cs)
        residual = []
        for part in parts:
            if isinstance(part, FalseCond):
                return _Empty(self.columns(query))
            (pushed if _pushable(part) else residual).append(part)
        child = self.lower(query.source, tuple(pushed))
        if residual:
            return _Filter(child, compile_predicate(and_(*residual)))
        return child

    def _lower_scan(self, query: TableScan, cs: Tuple[Condition, ...]) -> PhysNode:
        columns = self.schema.table(query.table_name).column_names
        column_set = set(columns)
        if any(atom.attr not in column_set for atom in cs):
            # a conjunct over a column this table lacks is false for
            # every row (interpreter: KeyError -> false)
            return _Empty(columns)
        eq_atoms: Dict[str, Comparison] = {}
        residual: List[Condition] = []
        for atom in cs:
            if (
                isinstance(atom, Comparison)
                and atom.op == "="
                and atom.attr not in eq_atoms
            ):
                eq_atoms[atom.attr] = atom
            else:
                residual.append(atom)
        node: PhysNode
        if eq_atoms:
            key_columns = tuple(sorted(eq_atoms))
            fetchers = tuple(
                _const_fetcher(eq_atoms[c].const) for c in key_columns
            )
            node = _Probe(query.table_name, key_columns, fetchers, columns)
        else:
            node = _Scan(query.table_name, columns)
        if residual:
            node = _Filter(node, compile_predicate(and_(*residual)))
        return node

    def _lower_project(self, query: Project, cs: Tuple[Condition, ...]) -> PhysNode:
        items = {item.output: item for item in query.items}
        child_cs: List[Condition] = []
        residual: List[Condition] = []
        for atom in cs:
            item = items.get(atom.attr)
            if item is None:
                # output rows carry exactly the projected columns, so
                # the atom is false on every row
                return _Empty(query.output_names)
            expr = item.expr
            if isinstance(expr, Col):
                if isinstance(atom, IsNotNull):
                    child_cs.append(IsNotNull(expr.name))
                else:
                    child_cs.append(Comparison(expr.name, atom.op, atom.const))
                continue
            # pinned constant output: fold the atom now when possible
            value = expr.value
            if isinstance(atom, IsNotNull):
                holds = value is not None
            elif _is_param(atom.const):
                residual.append(atom)  # needs the runtime binding
                continue
            else:
                try:
                    holds = value is not None and compare_values(
                        value, atom.op, atom.const
                    )
                except EvaluationError:
                    residual.append(atom)  # raise at run time, per row
                    continue
            if not holds:
                return _Empty(query.output_names)
            # holds for every produced row: the conjunct dissolves
        child = self.lower(query.source, tuple(child_cs))
        node: PhysNode = _ProjectNode(child, query.items, query.output_names)
        if residual:
            node = _Filter(node, compile_predicate(and_(*residual)))
        return node

    def _lower_join(self, query, cs: Tuple[Condition, ...]) -> PhysNode:
        columns = self.columns(query)
        left_columns = self.columns(query.left)
        right_columns = self.columns(query.right)
        spec = join_spec(left_columns, right_columns, query.on)
        left_pad = isinstance(query, (LeftOuterJoin, FullOuterJoin))
        right_pad = isinstance(query, FullOuterJoin)
        left_set = set(left_columns)
        right_set = set(right_columns)
        join_columns = set(spec.join_columns)
        coalesced = set(spec.coalesced)
        # pass 1: outer-join reduction.  A pushable conjunct is false on
        # NULL, so one over a column only one side produces kills every
        # row padded on the other side — that padding is dead.
        for atom in cs:
            attr = atom.attr
            if attr not in left_set and attr not in right_set:
                return _Empty(columns)
            if right_pad and attr in left_set and attr not in right_set:
                right_pad = False
            if left_pad and attr in right_set and attr not in left_set:
                left_pad = False
        # pass 2: routing, against the reduced padding flags.  Join
        # columns go to both sides (matched rows agree on them, padded
        # rows carry the producing side's value); single-side columns go
        # to their producer (its padding, if any, was just eliminated);
        # COALESCE-merged columns cannot move below the merge.
        left_cs: List[Condition] = []
        right_cs: List[Condition] = []
        residual: List[Condition] = []
        for atom in cs:
            attr = atom.attr
            if attr in join_columns:
                left_cs.append(atom)
                right_cs.append(atom)
            elif attr in coalesced:
                residual.append(atom)
            elif attr in left_set:
                left_cs.append(atom)
            else:
                right_cs.append(atom)
        left_node = self.lower(query.left, tuple(left_cs))
        right_node = self.lower(query.right, tuple(right_cs))
        node: PhysNode = _JoinNode(
            left_node, right_node, spec, left_pad, right_pad, columns
        )
        if residual:
            node = _Filter(node, compile_predicate(and_(*residual)))
        return node

    def _lower_union(self, query: UnionAll, cs: Tuple[Condition, ...]) -> PhysNode:
        columns = self.columns(query)
        column_set = set(columns)
        if any(atom.attr not in column_set for atom in cs):
            return _Empty(columns)
        branches: List[PhysNode] = []
        for branch in query.branches:
            branch_columns = self.columns(branch)
            branch_set = set(branch_columns)
            if any(atom.attr not in branch_set for atom in cs):
                # this branch pads the atom's column with NULL: no row
                # of it can satisfy the conjunct
                branches.append(_Empty(branch_columns))
            else:
                branches.append(self.lower(branch, cs))
        return _UnionNode(tuple(branches), columns)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

class PhysicalPlan:
    """One compiled branch: a physical operator tree."""

    __slots__ = ("root",)

    def __init__(self, root: PhysNode) -> None:
        self.root = root


class PhysicalPlanSet:
    """All branches of one cached plan, compiled together so they share
    lowered subtrees (and, per execution, subtree results)."""

    __slots__ = ("branches",)

    def __init__(self, branches: Tuple[PhysicalPlan, ...]) -> None:
        self.branches = branches

    def execute(self, state: StoreState, params: Tuple[object, ...]) -> List[Bag]:
        """Per-branch result bags over *state* under ``evaluate_query``'s
        dedup key: each bag's support is the branch's set-semantics
        answer."""
        run = _Run(state, params)
        return [bag_of(plan.root.rows(run)) for plan in self.branches]


def compile_plan(
    branch_queries: Sequence[Query], schema: StoreSchema
) -> PhysicalPlanSet:
    """Lower the store queries of a plan's branches into one
    :class:`PhysicalPlanSet` (shared lowering cache across branches)."""
    lowerer = _Lowerer(schema)
    return PhysicalPlanSet(
        tuple(PhysicalPlan(lowerer.lower(q, ())) for q in branch_queries)
    )
