"""Differential suite for the compiled physical-plan path.

The memory backend serves cached plans through
:mod:`repro.backend.physical` — conditions compiled to predicate
closures, pushdown into probes of the store's key indexes, joins over
those indexes.  Every
answer must be byte-identical to the interpreter's
(:mod:`repro.algebra.evaluate`), which these tests enforce three ways:

* the workload matrix and every SMO kind (+ undo) of
  :mod:`tests.test_backend_differential`, compiled-vs-interpreter on the
  memory backend;
* property tests sweeping random condition trees (the seed harness of
  :mod:`tests.test_symbolic_containment`) through both paths;
* a differential check that delta-scoped constraint checking
  (:func:`~repro.relational.constraints.check_delta`) reports exactly
  the violations of a full :func:`check_all`.

It also pins the key indexes' lifetimes: a written table's successor
carries exactly the indexes on its declared keys, and an index built
for a read lives as long as the table object it was built on.
"""

import random

import pytest

from tests.test_backend_differential import SMO_KINDS, WORKLOADS, canon, compiled
from tests.test_serving_differential import _probe_queries
from repro.algebra import (
    Comparison,
    IsNotNull,
    IsNull,
    IsOf,
    IsOfOnly,
    Not,
    and_,
    or_,
)
from repro.algebra.conditions import TRUE
from repro.backend.memory import MemoryBackend
from repro.edm import INT, STRING, Entity
from repro.ivm import DeltaScript, EntityOp
from repro.query import EntityQuery
from repro.query.dml import apply_delta, diff_store_states
from repro.query.unfold import unfold
from repro.relational import Column, ForeignKey, StoreSchema, StoreState, Table
from repro.relational.constraints import check_all, check_delta
from repro.relational.instances import declared_keys
from repro.session import OrmSession
from repro.stategen import random_client_state
from repro.workloads.chain import chain_mapping, entity_name, set_name
from repro.workloads.paper_example import mapping_stage4


def memory_session(model) -> OrmSession:
    return OrmSession(model, backend=MemoryBackend(StoreState(model.store_schema)))


def interpreter_answer(session, query):
    """The uncached reference pipeline: fresh unfold, algebra interpreter."""
    model = session.model
    return canon(
        unfold(query, model.views, model.client_schema).run_on(session.backend)
    )


def assert_compiled_matches_interpreter(session, queries):
    assert isinstance(session.backend, MemoryBackend)
    for query in queries:
        reference = interpreter_answer(session, query)
        assert canon(session.query(query)) == reference  # cold plan
        assert canon(session.query(query)) == reference, (
            f"warm compiled answer diverges on {query.set_name}"
        )


# ---------------------------------------------------------------------------
# Workloads × SMO kinds + undo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "factory", [f for _, f in WORKLOADS], ids=[name for name, _ in WORKLOADS]
)
def test_compiled_answers_match_interpreter(factory):
    model = compiled(factory())
    session = memory_session(model)
    state = random_client_state(model.client_schema, seed=31, entities_per_set=6)
    session.save(state)
    queries = _probe_queries(model.client_schema)
    assert_compiled_matches_interpreter(session, queries)
    # every cached-plan execution on the memory backend runs the plan's
    # compiled physical form
    for query in queries:
        plan, _values = session.plan_cache.plan_for(session.model, query)
        assert plan.executions > 0, "compiled path was not exercised"


@pytest.mark.parametrize(
    "base_factory,smo_factory,pop",
    [(b, s, p) for _, b, s, p in SMO_KINDS],
    ids=[kind for kind, _, _, _ in SMO_KINDS],
)
def test_compiled_answers_survive_smo_and_undo(base_factory, smo_factory, pop):
    """Each SMO kind: compiled answers match the interpreter before the
    evolution, after it, and after undoing it (plans recompile against
    the current model at every stage)."""
    model = base_factory()
    session = memory_session(model)
    session.save(pop(model))
    assert_compiled_matches_interpreter(
        session, _probe_queries(model.client_schema)
    )
    session.evolve(smo_factory(model))
    assert_compiled_matches_interpreter(
        session, _probe_queries(session.model.client_schema)
    )
    session.undo()
    assert_compiled_matches_interpreter(
        session, _probe_queries(session.model.client_schema)
    )


# ---------------------------------------------------------------------------
# Property tests: random condition trees (the seed harness of
# tests/test_symbolic_containment.py, over the Figure 1 Persons set)
# ---------------------------------------------------------------------------

def _random_atom(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return Comparison("Id", rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                          rng.choice([1, 2, 4]))
    if kind == 1:
        return Comparison("Name", rng.choice(["=", "!="]),
                          rng.choice(["p1", "e2", "c3"]))
    if kind == 2:
        return Comparison("CredScore", rng.choice(["<", ">="]),
                          rng.choice([0, 100]))
    if kind == 3:
        return Comparison("Department", "=", rng.choice(["HR", "R&D"]))
    if kind == 4:
        return rng.choice([IsNull("Department"), IsNotNull("Department")])
    if kind == 5:
        return IsOf(rng.choice(["Person", "Employee", "Customer"]))
    if kind == 6:
        return IsOfOnly(rng.choice(["Person", "Employee", "Customer"]))
    return rng.choice([TRUE, IsNotNull("Id"), IsNull("CredScore")])


def _random_condition(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.5:
        return _random_atom(rng)
    if roll < 0.72:
        return and_(_random_condition(rng, depth + 1),
                    _random_condition(rng, depth + 1))
    if roll < 0.92:
        return or_(_random_condition(rng, depth + 1),
                   _random_condition(rng, depth + 1))
    return Not(_random_condition(rng, depth + 1))


@pytest.fixture(scope="module")
def figure1_session():
    model = compiled(mapping_stage4())
    session = memory_session(model)
    state = random_client_state(model.client_schema, seed=13, entities_per_set=8)
    session.save(state)
    return session


class TestRandomConditionDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_compiled_agrees_with_interpreter(self, figure1_session, seed):
        rng = random.Random(seed)
        condition = _random_condition(rng)
        for query in (
            EntityQuery("Persons", condition),
            EntityQuery("Persons", condition, projection=("Id", "Name")),
        ):
            reference = interpreter_answer(figure1_session, query)
            assert canon(figure1_session.query(query)) == reference, (
                f"seed {seed}: compiled diverges on {condition}"
            )

    def test_one_plan_serves_many_bindings(self, figure1_session):
        """Key probes of different constants share one compiled plan; each
        binding's answer matches the interpreter, and the probes read the
        primary-key indexes the save's constraint check already built."""
        session = figure1_session
        hits_before = session.plan_cache.stats().hits
        builds_before = session.serving_stats().indexes.builds
        for value in range(6):
            query = EntityQuery("Persons", Comparison("Id", "=", value))
            assert canon(session.query(query)) == interpreter_answer(
                session, query
            )
        assert session.plan_cache.stats().hits >= hits_before + 5
        assert session.serving_stats().indexes.builds == builds_before, (
            "a key probe built an index instead of reading the store's"
        )

    def test_serving_stats_report_physical_indexes(self, figure1_session):
        """The memory backend's section reports key-index builds."""
        report = str(figure1_session.serving_stats())
        assert "plan cache" in report
        assert "key indexes     : builds=" in report


# ---------------------------------------------------------------------------
# Key-index lifetimes
# ---------------------------------------------------------------------------

CHAIN_SETS = (1, 2, 3)
CHAIN_ROWS = 30


def _chain_entity(index: int, row: int, tag: str = "") -> Entity:
    return Entity.of(
        entity_name(index),
        Id=row,
        EntityAtt2=f"a{tag}",
        EntityAtt3=f"b{row}",
        EntityAtt4=f"c{row % 4}",
    )


def _update(index: int, row: int, tag: str) -> DeltaScript:
    return DeltaScript(
        (
            EntityOp(
                "update", set_name(index), entity=_chain_entity(index, row, tag)
            ),
        )
    )


@pytest.fixture
def chain_session():
    """A loaded chain session with the result tier off, so every read
    executes its compiled plan."""
    model = compiled(chain_mapping(len(CHAIN_SETS)))
    session = OrmSession(
        model,
        backend=MemoryBackend(StoreState(model.store_schema)),
        result_cache_budget=0,
    )
    with session.edit() as state:
        for index in CHAIN_SETS:
            for row in range(CHAIN_ROWS):
                state.add_entity(set_name(index), _chain_entity(index, row))
    return session


def _builds(session) -> int:
    return session.serving_stats().indexes.builds


class TestKeyIndexLifetimes:
    def test_a_written_table_carries_exactly_its_declared_key_indexes(
        self, chain_session
    ):
        session = chain_session
        state = session.store_state
        for columns in (
            ("Id",), ("NextA",), ("NextB",), ("EntityAtt4",),
            ("EntityAtt2", "EntityAtt3"),
        ):
            state.key_index("T1", columns)
        state.key_index("T2", ("EntityAtt4",))
        session.save_delta(_update(1, 3, "w"))
        successor = session.store_state
        assert successor is not state
        # the written table: exactly the primary key and each foreign key
        written = successor._rows["T1"]
        assert set(written.indexes) == {("Id",), ("NextA",), ("NextB",)}
        assert set(written.indexes) == declared_keys(
            session.model.store_schema.table("T1")
        )
        # the untouched table is shared as it is, read index included
        assert successor._rows["T2"] is state._rows["T2"]
        assert ("EntityAtt4",) in successor._rows["T2"].indexes

    def test_a_write_and_the_id_read_after_it_build_no_index(
        self, chain_session
    ):
        session = chain_session
        # a first write per table lets the constraint check build any
        # declared-key index the load left unbuilt
        for index in CHAIN_SETS:
            session.save_delta(_update(index, index, "w"))
        before = _builds(session)
        for index in CHAIN_SETS:
            session.save_delta(_update(index, index + 10, "v"))
            query = EntityQuery(set_name(index), Comparison("Id", "=", 7))
            assert canon(session.query(query)) == interpreter_answer(
                session, query
            )
        assert _builds(session) == before

    def test_a_read_index_lives_as_long_as_its_table(self, chain_session):
        session = chain_session
        query = EntityQuery(set_name(2), Comparison("EntityAtt4", "=", "c1"))
        expected = interpreter_answer(session, query)
        before = _builds(session)
        assert canon(session.query(query)) == expected
        assert _builds(session) == before + 1  # built on first use
        assert canon(session.query(query)) == expected
        assert _builds(session) == before + 1  # reused
        # a write elsewhere adopts T2 unchanged: the index survives
        session.save_delta(_update(1, 2, "w"))
        assert canon(session.query(query)) == expected
        assert _builds(session) == before + 1
        # a write to T2 drops it from the successor: the next read
        # builds it again, over the new rows
        session.save_delta(_update(2, 1, "w"))
        assert canon(session.query(query)) == interpreter_answer(session, query)
        assert _builds(session) == before + 2


# ---------------------------------------------------------------------------
# Delta-scoped constraint checking ≡ full re-check
# ---------------------------------------------------------------------------

def _fk_schema() -> StoreSchema:
    return StoreSchema(
        [
            Table("T", (Column("K", INT, False), Column("V", STRING)), ("K",)),
            Table(
                "R",
                (Column("K2", INT, False), Column("Ref", INT, True)),
                ("K2",),
                (ForeignKey(("Ref",), "T", ("K",)),),
            ),
        ]
    )


def _base_state(schema: StoreSchema) -> StoreState:
    state = StoreState(schema)
    for k in (1, 2, 3):
        state.add_row("T", {"K": k, "V": f"v{k}"})
    state.add_row("R", {"K2": 10, "Ref": 1})
    state.add_row("R", {"K2": 11, "Ref": None})
    return state


def _mutate(schema, base, edit):
    """Target = a fresh state with *edit* applied to base's rows."""
    target = StoreState(schema)
    rows = {name: [dict(r) for r in base.rows(name)] for name in ("T", "R")}
    edit(rows)
    for name, table_rows in rows.items():
        for row in table_rows:
            target.add_row(name, row)
    return target


DELTA_SCENARIOS = [
    (
        "consistent-edit",
        lambda rows: (
            rows["T"].append({"K": 4, "V": "v4"}),
            rows["R"].remove({"K2": 11, "Ref": None}),
            rows["R"][0].update(Ref=2),
        ),
    ),
    (
        "dangling-insert",
        lambda rows: rows["R"].append({"K2": 12, "Ref": 99}),
    ),
    (
        "delete-referenced",
        lambda rows: rows["T"].remove({"K": 1, "V": "v1"}),
    ),
    (
        "duplicate-key-insert",
        lambda rows: rows["T"].append({"K": 1, "V": "other"}),
    ),
    (
        "update-moves-referenced-key",
        lambda rows: rows["T"][0].update(K=9),
    ),
    (
        # the referenced key survives the update, so no referrer dangles
        "update-keeps-referenced-key",
        lambda rows: rows["T"][0].update(V="renamed"),
    ),
    (
        # a NULL foreign key references nothing: deleting a referenced row
        # and inserting another NULL-keyed referrer strand no row
        "null-fk",
        lambda rows: (
            rows["T"].remove({"K": 3, "V": "v3"}),
            rows["R"].append({"K2": 14, "Ref": None}),
        ),
    ),
    (
        "mixed",
        lambda rows: (
            rows["T"].remove({"K": 2, "V": "v2"}),
            rows["R"].append({"K2": 13, "Ref": 2}),
            rows["T"].append({"K": 3, "V": "dup"}),
        ),
    ),
]


class TestDeltaScopedConstraintChecking:
    @pytest.mark.parametrize(
        "edit", [e for _, e in DELTA_SCENARIOS],
        ids=[name for name, _ in DELTA_SCENARIOS],
    )
    def test_same_violations_as_full_check(self, edit):
        schema = _fk_schema()
        base = _base_state(schema)
        assert not check_all(base)  # the exactness precondition
        target = _mutate(schema, base, edit)
        delta = diff_store_states(base, target)
        candidate = apply_delta(base, delta)
        scoped = sorted(str(v) for v in check_delta(base, candidate, delta))
        full = sorted(str(v) for v in check_all(candidate))
        assert scoped == full

    @pytest.mark.parametrize(
        "factory", [f for _, f in WORKLOADS], ids=[name for name, _ in WORKLOADS]
    )
    def test_workload_saves_agree(self, factory):
        """Random client-state transitions on every workload: the scoped
        checker and the full checker agree on the resulting deltas."""
        from repro.mapping.roundtrip import apply_update_views

        model = compiled(factory())
        before = apply_update_views(
            model.views,
            random_client_state(model.client_schema, seed=41, entities_per_set=5),
            model.store_schema,
        )
        after = apply_update_views(
            model.views,
            random_client_state(model.client_schema, seed=42, entities_per_set=4),
            model.store_schema,
        )
        delta = diff_store_states(before, after)
        candidate = apply_delta(before, delta)
        scoped = sorted(str(v) for v in check_delta(before, candidate, delta))
        full = sorted(str(v) for v in check_all(candidate))
        assert scoped == full
