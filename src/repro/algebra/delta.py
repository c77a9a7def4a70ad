"""The signed-bag delta algebra: one operator core, pluggable scan leaves.

Both places that maintain a view under data changes — the write path
pushing client deltas through update views (:mod:`repro.ivm.writeplan`)
and the result tier pushing store deltas through cached read plans
(:mod:`repro.query.resultcache`) — lower their query trees here.  For
each operator there is a *delta rule* that transforms a signed stream of
changed input rows into a signed stream of changed output rows, mirroring
the bag semantics of :func:`repro.algebra.evaluate._evaluate` exactly:

* scan      — supplied by the caller's *leaf* (the recorded ± rows);
* select    — filter each signed row by the condition, lowered to a
  predicate closure once (a conjunct over a column the projection below
  pins to a constant is decided at lowering);
* project   — map each signed row through the projection items (a
  chain of selections and projections runs as one pass per row);
* union-all — concatenate branch deltas, NULL-padded to the union width;
* ⋈ on k    — ``ΔL ⋈ R_new + L_old ⋈ ΔR``;
* ⟕ on k    — the same two terms (``ΔL`` rows without a match NULL-pad)
  plus *pad transitions*: at a join key whose right match count crosses
  0 ↔ positive, the old left rows at that key lose or gain their
  NULL-padded row.

The join rules read the other side through *probes* — compiled keyed
lookups answering "the (old or new) rows of this subtree matching these
column values" in O(|delta|), never by re-evaluating the subtree.  A
leaf answers probes from its own storage, rewinding the new state through
the delta when asked for the old side.

Every node names the ``sources`` (entity sets, associations or tables)
under it; a delta whose :attr:`DeltaRuntime.touched` set misses them
propagates nothing, which is what lets a pass skip whole subtrees.

Shapes the rules cannot maintain (full outer joins, cross joins, probes
off the join key) raise :class:`~repro.errors.IvmError`; callers fall
back to a correct non-incremental path.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.conditions import (
    And,
    Comparison,
    FALSE,
    Condition,
    IsNotNull,
    IsNull,
    TrueCond,
    and_,
    compare_values,
)
from repro.algebra.evaluate import (
    TYPE_TAG,
    EvaluationContext,
    RowDict,
    join_key,
    join_rows,
    join_spec,
    joined_row,
    left_padded_row,
    output_columns,
)
from repro.algebra.queries import (
    AssociationScan,
    Const,
    Join,
    LeftOuterJoin,
    Project,
    Query,
    Select,
    SetScan,
    TableScan,
    UnionAll,
)
from repro.backend.physical import compile_predicate
from repro.errors import EvaluationError, IvmError

Signed = Tuple[int, RowDict]
Probe = Callable[["DeltaRuntime", Tuple[object, ...], bool], List[RowDict]]
#: a lowered selection condition: does this row pass it, under the
#: runtime's parameter values?
Test = Callable[[RowDict, Tuple[object, ...]], bool]


class DeltaRuntime:
    """Everything a lowered tree reads while propagating one delta."""

    __slots__ = ("delta", "state", "context", "touched", "params")

    def __init__(self, delta, state, context: EvaluationContext,
                 touched: FrozenSet[str], params: Tuple[object, ...] = ()) -> None:
        #: the leaves' change record (a client or a store delta)
        self.delta = delta
        #: the *new* state (the delta has already been applied)
        self.state = state
        self.context = context
        #: the sources with net activity — subtrees scanning none of them
        #: are skipped
        self.touched = touched
        #: the values of the tree's parameter placeholders, for trees
        #: lowered once and shared by every binding
        self.params = params


def matches(row: RowDict, columns: Tuple[str, ...], values: Tuple[object, ...]) -> bool:
    return all(row.get(c) == v for c, v in zip(columns, values))


def never_probe(rt: DeltaRuntime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
    return []


class Node:
    """One lowered operator: a delta rule plus keyed-probe compilation."""

    __slots__ = ("columns", "sources")

    def delta(self, rt: DeltaRuntime) -> List[Signed]:
        raise NotImplementedError

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        """A probe returning the node's (old or new) rows matching the
        given column constraints — the O(|delta|) replacement for
        re-evaluating the whole subtree."""
        raise NotImplementedError


class RowwiseNode(Node):
    """A selection or a projection: each input row yields at most one
    output row.  A chain of them over one source propagates a delta in
    one pass: each node keeps the chain's source (``base``) and its
    steps in order, ``(test, None)`` for a selection and ``(None,
    project)`` for a projection."""

    __slots__ = ("source", "base", "steps")

    def _chain(self, source: Node, step) -> None:
        self.source = source
        if isinstance(source, RowwiseNode):
            self.base, self.steps = source.base, source.steps + (step,)
        else:
            self.base, self.steps = source, (step,)

    def delta(self, rt: DeltaRuntime) -> List[Signed]:
        return self.push(self.base.delta(rt), rt.params)

    def push(self, signed: List[Signed], params: Tuple[object, ...]) -> List[Signed]:
        """The chain's output for *signed*, rows of its ``base``: what
        :meth:`delta` returns when the base's delta is *signed*."""
        out: List[Signed] = []
        steps = self.steps
        for sign, row in signed:
            for test, project in steps:
                if project is not None:
                    row = project(row)
                elif not test(row, params):
                    break
            else:
                out.append((sign, row))
        return out


class SelectNode(RowwiseNode):
    __slots__ = ("test",)

    def __init__(self, source: Node, test: Test) -> None:
        self.test = test
        self.columns = source.columns
        self.sources = source.sources
        self._chain(source, (test, None))

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        source_probe = self.source.make_probe(columns)
        test = self.test

        def probe(rt: DeltaRuntime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
            params = rt.params
            return [r for r in source_probe(rt, values, old) if test(r, params)]

        return probe


class ProjectNode(RowwiseNode):
    __slots__ = ("items", "_outputs", "_get", "_constants")

    def __init__(self, source: Node, items) -> None:
        self.items = items
        self.columns = tuple(item.output for item in items)
        self.sources = source.sources
        # a projected row holds its column items, then its constants
        columns = [item for item in items if not isinstance(item.expr, Const)]
        self._outputs = tuple(item.output for item in columns)
        names = tuple(item.expr.name for item in columns)
        self._get = itemgetter(*names) if len(names) > 1 else (
            lambda row: tuple(row[name] for name in names)
        )
        self._constants = {
            item.output: item.expr.value
            for item in items
            if isinstance(item.expr, Const)
        }
        self._chain(source, (None, self._project))

    def _project(self, row: RowDict) -> RowDict:
        try:
            out = dict(zip(self._outputs, self._get(row)))
        except KeyError as exc:
            raise EvaluationError(
                f"projection references missing column {exc.args[0]!r} "
                f"(row has {sorted(k for k in row if k != TYPE_TAG)})"
            ) from None
        if self._constants:
            out.update(self._constants)
        return out

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        by_output = {item.output: item for item in self.items}
        pinned: List[Tuple[int, object]] = []  # probe slot must equal this Const
        source_columns: List[str] = []
        source_slots: List[int] = []
        for i, column in enumerate(columns):
            item = by_output.get(column)
            if item is None:
                return never_probe  # projected rows never carry the column
            if isinstance(item.expr, Const):
                pinned.append((i, item.expr.value))
            else:
                source_columns.append(item.expr.name)
                source_slots.append(i)
        source_probe = self.source.make_probe(tuple(source_columns))

        def probe(rt: DeltaRuntime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
            for i, pin in pinned:
                if values[i] != pin:
                    return []
            sub_values = tuple(values[i] for i in source_slots)
            rows = (self._project(r) for r in source_probe(rt, sub_values, old))
            return [r for r in rows if matches(r, columns, values)]

        return probe


class UnionNode(Node):
    __slots__ = ("branches",)

    def __init__(self, branches: Tuple[Node, ...], all_columns: Tuple[str, ...]) -> None:
        self.branches = branches
        self.columns = all_columns
        self.sources = frozenset().union(*(b.sources for b in branches))

    def _pad(self, row: RowDict) -> RowDict:
        return {column: row.get(column) for column in self.columns}

    def delta(self, rt: DeltaRuntime) -> List[Signed]:
        out: List[Signed] = []
        for branch in self.branches:
            if branch.sources.isdisjoint(rt.touched):
                continue
            out.extend((s, self._pad(r)) for s, r in branch.delta(rt))
        return out

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        branch_probes = [b.make_probe(columns) for b in self.branches]

        def probe(rt: DeltaRuntime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
            out: List[RowDict] = []
            for bp in branch_probes:
                padded = (self._pad(r) for r in bp(rt, values, old))
                out.extend(r for r in padded if matches(r, columns, values))
            return out

        return probe


class JoinNode(Node):
    """⋈ on the join key, or ⟕ when ``padded``: unmatched left rows
    NULL-pad and right-side deltas emit the pad-transition terms."""

    __slots__ = ("left", "right", "padded", "on", "spec", "left_probe", "right_probe")

    def __init__(self, left: Node, right: Node, on: Optional[Tuple[str, ...]],
                 padded: bool) -> None:
        self.left = left
        self.right = right
        self.padded = padded
        self.spec = join_spec(left.columns, right.columns, on)
        if not self.spec.join_columns:
            raise IvmError("cannot maintain a cross join incrementally")
        self.on = self.spec.join_columns
        self.left_probe = left.make_probe(self.on)
        self.right_probe = right.make_probe(self.on)
        self.columns = left.columns + tuple(
            c for c in right.columns if c not in left.columns
        )
        self.sources = left.sources | right.sources

    def delta(self, rt: DeltaRuntime) -> List[Signed]:
        out: List[Signed] = []
        spec = self.spec
        padded = self.padded
        if not self.left.sources.isdisjoint(rt.touched):
            # ΔL ⋈ R_new: each signed left row joins the rows its probe
            # returns, all at its key (⟕: or NULL-pads when there are none)
            right_probe = self.right_probe
            on = self.on
            for sign, lrow in self.left.delta(rt):
                key = join_key(lrow, on)  # NULL keys never join
                found = right_probe(rt, key, False) if key is not None else ()
                if found:
                    for rrow in found:
                        out.append((sign, joined_row(lrow, rrow, spec)))
                elif padded:
                    out.append((sign, left_padded_row(lrow, spec)))
        if not self.right.sources.isdisjoint(rt.touched):
            by_key: Dict[Tuple[object, ...], List[Signed]] = {}
            for sign, rrow in self.right.delta(rt):
                key = join_key(rrow, self.on)
                if key is None:
                    continue  # NULL keys never join and neither rule right-pads
                by_key.setdefault(key, []).append((sign, rrow))
            for key, signed_rows in by_key.items():
                # L_old ⋈ ΔR (term one already covered ΔL against R_new)
                left_old = self.left_probe(rt, key, True)
                if not left_old:
                    continue
                for sign, rrow in signed_rows:
                    for row in join_rows(left_old, [rrow], spec, False, False):
                        out.append((sign, row))
                if padded:
                    out.extend(self._pad_transitions(rt, key, signed_rows, left_old))
        return out

    def _pad_transitions(self, rt: DeltaRuntime, key: Tuple[object, ...],
                         signed_rows: List[Signed], left_old: List[RowDict]) -> List[Signed]:
        """The right match count at *key* crossing 0 ↔ positive retires or
        resurrects the old left rows' NULL-padded row."""
        m_new = len(self.right_probe(rt, key, False))
        m_old = m_new - sum(s for s, _ in signed_rows)
        if m_old < 0:
            raise IvmError(f"negative right-side multiplicity at join key {key!r}")
        if m_old == 0 and m_new > 0:
            pad_sign = -1  # old left rows lose their NULL-padded row
        elif m_old > 0 and m_new == 0:
            pad_sign = +1  # old left rows regain the NULL-padded row
        else:
            return []
        return [(pad_sign, row) for row in join_rows(left_old, [], self.spec, True, False)]

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        if tuple(columns) != tuple(self.on):
            raise IvmError(
                f"join probe on {columns!r} does not match join key {self.on!r}"
            )

        def probe(rt: DeltaRuntime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
            left_rows = self.left_probe(rt, values, old)
            if not left_rows:
                return []
            right_rows = self.right_probe(rt, values, old)
            return join_rows(left_rows, right_rows, self.spec, self.padded, False)

        return probe


Leaf = Callable[[Query, EvaluationContext], Node]


def _constants(query: Query) -> Dict[str, object]:
    """The output columns *query* pins to a constant: its projection's
    ``Const`` items, seen through the selections above it."""
    while isinstance(query, Select):
        query = query.source
    if not isinstance(query, Project):
        return {}
    return {
        item.output: item.expr.value
        for item in query.items
        if isinstance(item.expr, Const)
    }


def _decided(atom: Condition, constants: Dict[str, object]) -> Optional[bool]:
    """Whether *atom* holds on every row whose columns include
    *constants*, or None when that depends on the row or a parameter."""
    from repro.query.plancache import Param

    attr = getattr(atom, "attr", None)
    if attr not in constants:
        return None
    value = constants[attr]
    if isinstance(atom, IsNull):
        return value is None
    if isinstance(atom, IsNotNull):
        return value is not None
    if isinstance(atom, Comparison) and not isinstance(atom.const, Param):
        if value is None:
            return False
        try:
            return compare_values(value, atom.op, atom.const)
        except EvaluationError:
            return None  # raise at run time, per row, as the evaluator does
    return None


def _folded(condition: Condition, constants: Dict[str, object]) -> Condition:
    """*condition* with each top-level conjunct over a constant column
    decided at lowering (``_from0 = True`` over ``True AS _from0``)."""
    if not constants:
        return condition
    kept: List[Condition] = []
    conjuncts = condition.operands if isinstance(condition, And) else (condition,)
    for atom in conjuncts:
        holds = _decided(atom, constants)
        if holds is None:
            kept.append(atom)
        elif not holds:
            return FALSE
    return and_(*kept)


def compile_delta(
    query: Query,
    context: EvaluationContext,
    leaf: Leaf,
    lower: Callable[[Condition], Test] = compile_predicate,
) -> Node:
    """Lower *query*'s delta rules; *leaf* lowers each scan and *lower*
    each selection condition to a predicate closure (by default the
    physical plans' memoized one, whose placeholders read the runtime's
    parameters and whose type atoms raise, as on store rows).

    *context* only supplies static column lists, so a schema-only
    context is enough.  A leaf raises :class:`IvmError` for scans it
    cannot maintain.
    """
    if isinstance(query, (SetScan, AssociationScan, TableScan)):
        return leaf(query, context)
    if isinstance(query, Select):
        source = compile_delta(query.source, context, leaf, lower)
        condition = _folded(query.condition, _constants(query.source))
        if isinstance(condition, TrueCond):
            return source  # every row passes
        return SelectNode(source, lower(condition))
    if isinstance(query, Project):
        return ProjectNode(compile_delta(query.source, context, leaf, lower), query.items)
    if isinstance(query, UnionAll):
        return UnionNode(
            tuple(compile_delta(b, context, leaf, lower) for b in query.branches),
            output_columns(query, context),
        )
    if isinstance(query, (Join, LeftOuterJoin)):
        return JoinNode(
            compile_delta(query.left, context, leaf, lower),
            compile_delta(query.right, context, leaf, lower),
            query.on,
            padded=isinstance(query, LeftOuterJoin),
        )
    raise IvmError(f"no delta rule for query node {type(query).__name__}")
