"""Unit tests: the view-algebra -> SQL compiler, the DDL generator, and
the migration planner.

The in-memory evaluator is the reference semantics; every compiled query
here is executed by a real SQLite engine and must return exactly the
evaluator's rows — including the places where SQL would naturally
diverge (three-valued logic under NOT, bools stored as 0/1, missing
columns, NULL join keys).  The generated SQL must also let SQLite use
its indexes: ``EXPLAIN QUERY PLAN`` shows point reads searching the
primary key and parent deletes probing their referrers' key indexes.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    And,
    Col,
    Comparison,
    Const,
    FullOuterJoin,
    IsNotNull,
    IsNull,
    IsOf,
    Join,
    LeftOuterJoin,
    Not,
    Or,
    Project,
    ProjItem,
    Select,
    StoreContext,
    TableScan,
    UnionAll,
    and_,
    evaluate_query,
    items_from_names,
)
from repro.backend import (
    MigrationScript,
    SqliteBackend,
    compile_query,
    create_table_sql,
    drop_table_sql,
    plan_migration,
    schema_ddl_text,
)
from repro.backend.ddl import creation_order, drop_order, key_index_sql
from repro.backend.sqlgen import (
    SqlCompiler,
    decode_value,
    delete_statement,
    delta_statements,
    quote,
    script_text,
)
from repro.compiler import compile_mapping
from repro.edm import Attribute, Entity
from repro.edm.types import BOOL, Domain, INT, STRING
from repro.errors import EvaluationError
from repro.incremental import CompiledModel
from repro.incremental.add_property import AddProperty
from repro.query.dml import diff_store_states
from repro.query.language import EntityQuery
from repro.relational import Column, ForeignKey, StoreSchema, StoreState, Table
from repro.session import OrmSession
from repro.workloads.chain import chain_mapping, entity_name, set_name, table_name


@pytest.fixture
def schema():
    return StoreSchema(
        [
            Table(
                "People",
                (
                    Column("Id", INT, False),
                    Column("Name", STRING),
                    Column("Active", BOOL),
                    Column("Score", INT),
                ),
                ("Id",),
            ),
            Table(
                "Orders",
                (
                    Column("Oid", INT, False),
                    Column("Id", INT),
                    Column("Item", STRING),
                ),
                ("Oid",),
                (ForeignKey(("Id",), "People", ("Id",)),),
            ),
        ]
    )


@pytest.fixture
def state(schema):
    state = StoreState(schema)
    state.add_row("People", dict(Id=1, Name="ann", Active=True, Score=10))
    state.add_row("People", dict(Id=2, Name="bob", Active=False, Score=None))
    state.add_row("People", dict(Id=3, Name=None, Active=None, Score=7))
    state.add_row("Orders", dict(Oid=100, Id=1, Item="x"))
    state.add_row("Orders", dict(Oid=101, Id=1, Item="y"))
    state.add_row("Orders", dict(Oid=102, Id=None, Item="z"))
    return state


@pytest.fixture
def backend(schema, state):
    backend = SqliteBackend(schema)
    backend.replace_contents(state)
    yield backend
    backend.close()


def canon(rows):
    # sort by repr: values may mix None, bools and ints
    return sorted((tuple(sorted(r.items())) for r in rows), key=repr)


def assert_same_answer(query, backend, state):
    """The engine's answer must equal the interpreter's, value-identically."""
    expected = evaluate_query(query, StoreContext(state))
    actual = backend.run_query(query)
    assert canon(actual) == canon(expected)


class TestQueryCompilation:
    def test_table_scan(self, backend, state):
        assert_same_answer(TableScan("People"), backend, state)

    def test_bools_round_trip_as_python_bools(self, backend):
        rows = backend.run_query(TableScan("People"))
        actives = {r["Id"]: r["Active"] for r in rows}
        assert actives[1] is True
        assert actives[2] is False
        assert actives[3] is None

    @pytest.mark.parametrize(
        "condition",
        [
            Comparison("Score", ">", 5),
            Comparison("Name", "=", "ann"),
            Comparison("Name", "!=", "ann"),
            Not(Comparison("Score", ">", 5)),  # NULL score: 2VL, not UNKNOWN
            Not(Comparison("Name", "=", "ann")),
            IsNull("Score"),
            IsNotNull("Name"),
            Or((Comparison("Score", ">", 100), IsNull("Name"))),
            and_(Comparison("Active", "=", True), Comparison("Score", ">=", 10)),
            Comparison("Name", "!=", None),
            Comparison("Name", "=", None),
            Comparison("Missing", "=", 1),  # missing column folds to FALSE
            Not(Comparison("Missing", "=", 1)),
            IsNull("Missing"),
        ],
        ids=lambda c: str(c),
    )
    def test_conditions_match_two_valued_evaluator(self, condition, backend, state):
        assert_same_answer(Select(TableScan("People"), condition), backend, state)

    def test_projection_with_constants(self, backend, state):
        query = Project(
            TableScan("People"),
            (
                ProjItem("K", Col("Id")),
                ProjItem("Tag", Const("p")),
                ProjItem("Flag", Const(True)),
            ),
        )
        assert_same_answer(query, backend, state)
        # the constant True decodes back to a Python bool
        assert all(r["Flag"] is True for r in backend.run_query(query))

    def test_projection_missing_column_raises(self, schema):
        query = Project(TableScan("People"), items_from_names(("Nope",)))
        with pytest.raises(EvaluationError, match="missing column"):
            compile_query(query, schema)

    def test_natural_join_null_keys_never_match(self, backend, state):
        # Orders row 102 has Id=NULL: it must not join (and People row 3
        # joins nothing — inner join drops it)
        query = Join(TableScan("Orders"), TableScan("People"), on=("Id",))
        assert_same_answer(query, backend, state)
        ids = {r["Oid"] for r in backend.run_query(query)}
        assert ids == {100, 101}

    def test_left_outer_join_pads_right_side(self, backend, state):
        query = LeftOuterJoin(TableScan("Orders"), TableScan("People"), on=("Id",))
        assert_same_answer(query, backend, state)
        rows = {r["Oid"]: r for r in backend.run_query(query)}
        assert rows[102]["Name"] is None

    def test_full_outer_join(self, backend, state):
        query = FullOuterJoin(TableScan("Orders"), TableScan("People"), on=("Id",))
        assert_same_answer(query, backend, state)
        rows = backend.run_query(query)
        # People 2 and 3 have no orders: they surface with Oid NULL
        unmatched = {r["Id"] for r in rows if r["Oid"] is None}
        assert unmatched == {2, 3}

    def test_join_coalesces_shared_non_join_columns(self, schema, backend, state):
        # project both sides so they share "Name" without joining on it
        left = Project(
            TableScan("People"),
            (ProjItem("Id", Col("Id")), ProjItem("Name", Col("Name"))),
        )
        right = Project(
            TableScan("People"),
            (ProjItem("Id", Col("Id")), ProjItem("Name", Const("fixed"))),
        )
        query = Join(left, right, on=("Id",))
        assert_same_answer(query, backend, state)
        rows = {r["Id"]: r for r in backend.run_query(query)}
        # row 3's NULL name coalesces to the right side's constant
        assert rows[3]["Name"] == "fixed"
        assert rows[1]["Name"] == "ann"

    def test_union_all_pads_to_column_union(self, backend, state):
        left = Project(
            TableScan("People"), (ProjItem("Id", Col("Id")), ProjItem("A", Col("Name")))
        )
        right = Project(
            TableScan("Orders"), (ProjItem("Id", Col("Oid")), ProjItem("B", Col("Item")))
        )
        query = UnionAll((left, right))
        assert_same_answer(query, backend, state)
        for row in backend.run_query(query):
            assert set(row) == {"Id", "A", "B"}

    def test_select_over_join_over_union(self, backend, state):
        inner = UnionAll(
            (
                Project(TableScan("People"), items_from_names(("Id", "Score"))),
                Project(TableScan("Orders"), items_from_names(("Id", "Item"))),
            )
        )
        query = Select(
            Join(inner, TableScan("People"), on=("Id",)),
            Comparison("Score", ">", 5),
        )
        assert_same_answer(query, backend, state)

    def test_set_semantics_deduplicate(self, backend, state):
        # projecting Orders down to Id makes rows 100/101 collide
        query = Project(TableScan("Orders"), items_from_names(("Id",)))
        assert_same_answer(query, backend, state)
        assert len(backend.run_query(query)) == 2  # {1, None}

    def test_is_of_atoms_cannot_compile(self, schema):
        query = Select(TableScan("People"), IsOf("Person"))
        with pytest.raises(EvaluationError, match="IS OF"):
            compile_query(query, schema)

    def test_parameters_not_inlined(self, schema):
        compiled = compile_query(
            Select(TableScan("People"), Comparison("Name", "=", "o'hara")), schema
        )
        assert "o'hara" not in compiled.text
        assert "o'hara" in compiled.params

    def test_decode_value_bool_only(self):
        assert decode_value(1, "bool") is True
        assert decode_value(0, "bool") is False
        assert decode_value(1, "int") == 1
        assert decode_value(None, "bool") is None


def _where(condition, schema):
    """The WHERE clause the compiler renders for *condition* on People."""
    text = compile_query(Select(TableScan("People"), condition), schema).text
    return text.split(" WHERE ", 1)[1]


class TestConditionPolarity:
    """An atom keeps ``ifnull`` only under an odd number of NOTs."""

    def test_positive_atom_is_plain(self, schema):
        assert _where(Comparison("Score", ">", 5), schema) == 'q1."Score" > ?'

    def test_atom_under_one_not_keeps_ifnull(self, schema):
        where = _where(Not(Comparison("Score", ">", 5)), schema)
        assert where == 'NOT (ifnull(q1."Score" > ?, 0))'

    def test_atom_under_two_nots_is_plain(self, schema):
        where = _where(Not(Not(Comparison("Score", ">", 5))), schema)
        assert where == 'NOT (NOT (q1."Score" > ?))'

    def test_mixed_tree_tracks_each_atom(self, schema):
        # NOT (a AND NOT b): a sits under one NOT, b under two
        condition = Not(
            And((Comparison("Score", ">", 5), Not(Comparison("Name", "=", "ann"))))
        )
        where = _where(condition, schema)
        assert where == (
            'NOT ((ifnull(q1."Score" > ?, 0) AND NOT (q1."Name" = ?)))'
        )

    def test_or_under_not_wraps_every_operand(self, schema):
        condition = Not(Or((Comparison("Score", "<", 1), Comparison("Name", "!=", "b"))))
        where = _where(condition, schema)
        assert where.count("ifnull(") == 2


#: People columns the property test compares, with type-matched constants;
#: "Missing" is a column no table has (the evaluator reads it as false)
_CONSTANTS = {
    "Name": ("a", "b", "c"),
    "Score": (0, 1, 2),
    "Active": (False, True),
    "Missing": (0, 1),
}
_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _atoms():
    comparisons = st.sampled_from(sorted(_CONSTANTS)).flatmap(
        lambda attr: st.builds(
            Comparison,
            st.just(attr),
            st.sampled_from(_OPS),
            st.sampled_from(_CONSTANTS[attr]),
        )
    )
    # NULL constants: the evaluator compares against None with =/!= only
    null_comparisons = st.builds(
        Comparison,
        st.sampled_from(sorted(_CONSTANTS)),
        st.sampled_from(("=", "!=")),
        st.none(),
    )
    null_tests = st.builds(
        lambda kind, attr: kind(attr),
        st.sampled_from((IsNull, IsNotNull)),
        st.sampled_from(sorted(_CONSTANTS)),
    )
    return st.one_of(comparisons, null_comparisons, null_tests)


def _conditions(depth: int = 4):
    """Condition trees of And/Or/Not over the atoms, at most *depth* deep."""
    if depth == 0:
        return _atoms()
    sub = _conditions(depth - 1)
    operands = st.lists(sub, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        _atoms(),
        sub.map(Not),
        operands.map(And),
        operands.map(Or),
    )


def _null_heavy(values):
    """A column value that is NULL about half the time."""
    return st.one_of(st.none(), st.sampled_from(values))


_PEOPLE_ROWS = st.lists(
    st.tuples(
        _null_heavy(_CONSTANTS["Name"]),
        _null_heavy(_CONSTANTS["Active"]),
        _null_heavy(_CONSTANTS["Score"]),
    ),
    min_size=1,
    max_size=8,
)


class TestNullSemanticsProperty:
    def test_sqlite_answers_equal_the_evaluator(self, schema):
        """Random NOT/AND/OR trees over NULL-heavy rows: SQLite keeps
        exactly the rows the two-valued evaluator keeps."""
        backend = SqliteBackend(schema)

        @settings(max_examples=300, deadline=None)
        @given(condition=_conditions(), rows=_PEOPLE_ROWS)
        def check(condition, rows):
            state = StoreState(schema)
            for key, (name, active, score) in enumerate(rows):
                state.add_row(
                    "People", dict(Id=key, Name=name, Active=active, Score=score)
                )
            backend.replace_contents(state)
            assert_same_answer(Select(TableScan("People"), condition), backend, state)

        try:
            check()
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# Query plans: SQLite can use its indexes
# ---------------------------------------------------------------------------

CHAIN_TYPES = 4


def _plan_details(connection, text, params=()):
    return [row[3] for row in connection.execute("EXPLAIN QUERY PLAN " + text, params)]


def _index_names(connection, table):
    return sorted(
        row[1]
        for row in connection.execute(f"PRAGMA index_list({quote(table)})")
        if row[3] == "c"  # made by CREATE INDEX, not a constraint's own
    )


def _chain_model():
    mapping = chain_mapping(CHAIN_TYPES)
    return CompiledModel(mapping, compile_mapping(mapping).views)


def _fk_indexes(model):
    """Every FK-bearing chain table -> the index names it must hold."""
    return {
        table.name: sorted(f"{table.name}({fk.columns[0]})" for fk in table.foreign_keys)
        for table in model.store_schema.tables
        if table.foreign_keys
    }


def _assert_fk_indexes(backend, model):
    for table, names in _fk_indexes(model).items():
        assert _index_names(backend.connection, table) == names, table


@pytest.fixture
def chain_session():
    model = _chain_model()
    session = OrmSession(model, backend=SqliteBackend(model.store_schema))
    with session.edit() as state:
        for index in range(1, CHAIN_TYPES + 1):
            for key in range(20):
                state.add_entity(
                    set_name(index),
                    Entity.of(
                        entity_name(index),
                        Id=key,
                        EntityAtt2="a",
                        EntityAtt3="b",
                        EntityAtt4=f"c{key % 3}",
                    ),
                )
    yield session
    session.close()


class TestIndexedPlans:
    # Views over full outer joins still scan.  Stage 4's ``Persons``
    # ``Id = k`` read plans as MATERIALIZE q6, MATERIALIZE q4, SCAN Emp,
    # SCAN HR, SCAN q4 LEFT-JOIN, RIGHT-JOIN q4, SCAN q4, MATERIALIZE q7,
    # SCAN Client, SCAN q6, SCAN q7 LEFT-JOIN, RIGHT-JOIN q7, SCAN q7;
    # hub-rim TPH's ``Hubs`` plans as MATERIALIZE q6, SCAN Big, SCAN Big,
    # SCAN q6 LEFT-JOIN, RIGHT-JOIN q6, SCAN q6.

    def test_cached_point_read_searches_the_primary_key(self, chain_session):
        for index in range(1, CHAIN_TYPES + 1):
            query = EntityQuery(set_name(index), Comparison("Id", "=", 3))
            assert len(chain_session.query(query)) == 1
            epoch = chain_session.epoch
            plan, values, _key = epoch.plan_cache.plan_with_key(epoch.model, query)
            for _branch, compiled, params in plan.bound_sql(
                epoch.model.store_schema, values
            ):
                details = _plan_details(
                    chain_session.backend.connection, compiled.text, params
                )
                table = table_name(index)
                assert details == [
                    f"SEARCH {table} USING INTEGER PRIMARY KEY (rowid=?)"
                ], details

    def test_parent_delete_probes_referrers_through_an_index(self, chain_session):
        backend = chain_session.backend
        row = backend.to_store_state().rows(table_name(2))[0]
        statement = delete_statement(table_name(2), row)
        details = _plan_details(backend.connection, statement.text, statement.params)
        referrer = table_name(1)
        # SQLite checks each FK from T1 into T2: one probe per FK column
        probes = [d for d in details if f" {referrer} " in d]
        assert sorted(probes) == [
            f"SEARCH {referrer} USING COVERING INDEX {referrer}(NextA) (NextA=?)",
            f"SEARCH {referrer} USING COVERING INDEX {referrer}(NextB) (NextB=?)",
        ]
        assert not any(d.startswith("SCAN") for d in details), details

    def test_replace_contents_builds_fk_indexes(self, chain_session):
        _assert_fk_indexes(chain_session.backend, chain_session.model)
        # the primary key leads every chain table: no index duplicates it
        assert _index_names(chain_session.backend.connection, table_name(4)) == []

    def test_rebuild_migration_and_undo_keep_fk_indexes(self, chain_session):
        smo = AddProperty(
            entity_name(1), Attribute("Extra", STRING, nullable=True), table_name(1)
        )
        script = chain_session.migration_script([smo])
        kinds = [step.kind for step in script.steps]
        assert kinds[:6] == ["create", "copy", "drop", "rename", "index", "index"]
        chain_session.evolve(smo)
        backend = chain_session.backend
        assert backend.schema.table(table_name(1)).has_column("Extra")
        _assert_fk_indexes(backend, chain_session.model)
        chain_session.undo()
        assert not backend.schema.table(table_name(1)).has_column("Extra")
        _assert_fk_indexes(backend, chain_session.model)

    def test_attach_adds_indexes_to_a_file_made_without_them(self, tmp_path):
        model = _chain_model()
        path = str(tmp_path / "old.db")
        old = sqlite3.connect(path)
        for table in creation_order(model.store_schema.tables):
            old.execute(create_table_sql(table))
        old.execute(f"INSERT INTO {quote(table_name(4))} (\"Id\") VALUES (1)")
        old.commit()
        old.close()
        backend = SqliteBackend(model.store_schema, db_path=path)
        try:
            _assert_fk_indexes(backend, model)
            assert backend.row_count() == 1  # attaching keeps the data
        finally:
            backend.close()
        # a second attach finds every index in place
        backend = SqliteBackend(model.store_schema, db_path=path)
        try:
            _assert_fk_indexes(backend, model)
        finally:
            backend.close()


class TestDdl:
    def test_create_table_with_pk_fk_not_null(self, schema):
        sql = create_table_sql(schema.table("Orders"))
        assert '"Oid" INTEGER NOT NULL' in sql
        assert 'PRIMARY KEY ("Oid")' in sql
        assert 'FOREIGN KEY ("Id") REFERENCES "People" ("Id")' in sql

    def test_finite_domain_becomes_check_constraint(self):
        gender = Domain("string", frozenset({"M", "F"}))
        table = Table(
            "T", (Column("Id", INT, False), Column("G", gender)), ("Id",)
        )
        sql = create_table_sql(table)
        assert "CHECK" in sql
        assert "'F'" in sql and "'M'" in sql

    def test_creation_order_respects_foreign_keys(self, schema):
        ordered = [t.name for t in creation_order(schema.tables)]
        assert ordered.index("People") < ordered.index("Orders")
        reversed_ = [t.name for t in drop_order(schema.tables)]
        assert reversed_.index("Orders") < reversed_.index("People")

    def test_schema_ddl_is_executable(self, schema, state):
        backend = SqliteBackend(schema)  # __init__ runs the generated DDL
        try:
            assert backend.row_count() == 0
            text = schema_ddl_text(schema)
            assert text.count("CREATE TABLE") == 2
        finally:
            backend.close()

    def test_key_index_sql_skips_keys_the_primary_key_leads(self):
        table = Table(
            "Line",
            (
                Column("Oid", INT, False),
                Column("No", INT, False),
                Column("Pid", INT),
            ),
            ("Oid", "No"),
            (
                ForeignKey(("Oid",), "Orders", ("Oid",)),
                ForeignKey(("Pid",), "People", ("Id",)),
            ),
        )
        assert key_index_sql(table) == [
            'CREATE INDEX "Line(Pid)" ON "Line" ("Pid")'
        ]
        assert key_index_sql(table, if_not_exists=True) == [
            'CREATE INDEX IF NOT EXISTS "Line(Pid)" ON "Line" ("Pid")'
        ]

    def test_drop_table_sql(self):
        assert drop_table_sql("A b") == 'DROP TABLE "A b"'

    def test_quote_escapes_embedded_quotes(self):
        assert quote('we"ird') == '"we""ird"'


class TestMigrationPlanner:
    def _widened(self, schema):
        """People gains a nullable column; Orders is unchanged."""
        people = schema.table("People")
        widened = Table(
            "People",
            people.columns + (Column("Extra", STRING),),
            people.primary_key,
            people.foreign_keys,
        )
        return StoreSchema([widened, schema.table("Orders")])

    def test_add_column_becomes_rebuild(self, schema, state):
        new_schema = self._widened(schema)
        target = StoreState(new_schema)
        for row in state.rows("People"):
            target.add_row("People", dict(row, Extra=None))
        for row in state.rows("Orders"):
            target.add_row("Orders", row)
        script = plan_migration(schema, new_schema, state, target)
        kinds = [step.kind for step in script.steps]
        assert kinds == ["create", "copy", "drop", "rename"]
        assert "__migrate__People" in script.steps[0].statement.text
        # NULL-padding the new column is the INSERT..SELECT itself: no
        # residual DML remains
        assert not script.dml_steps()

    def test_created_and_rebuilt_tables_gain_key_indexes(self, schema, state):
        orders = schema.table("Orders")
        widened = Table(
            "Orders",
            orders.columns + (Column("Note", STRING),),
            orders.primary_key,
            orders.foreign_keys,
        )
        log = Table(
            "Log",
            (Column("Lid", INT, False), Column("Oid", INT)),
            ("Lid",),
            (ForeignKey(("Oid",), "Orders", ("Oid",)),),
        )
        new_schema = StoreSchema([schema.table("People"), widened, log])
        target = StoreState(new_schema)
        for row in state.rows("People"):
            target.add_row("People", row)
        for row in state.rows("Orders"):
            target.add_row("Orders", dict(row, Note=None))
        script = plan_migration(schema, new_schema, state, target)
        texts = [(step.kind, step.statement.text) for step in script.steps]
        assert texts == [
            ("create", create_table_sql(widened, name="__migrate__Orders")),
            ("copy", texts[1][1]),
            ("drop", drop_table_sql("Orders")),
            ("rename", 'ALTER TABLE "__migrate__Orders" RENAME TO "Orders"'),
            ("index", 'CREATE INDEX "Orders(Id)" ON "Orders" ("Id")'),
            ("create", create_table_sql(log)),
            ("index", 'CREATE INDEX "Log(Oid)" ON "Log" ("Oid")'),
        ]
        assert script.ddl_steps() == script.steps
        backend = SqliteBackend(schema)
        try:
            backend.replace_contents(state)
            assert _index_names(backend.connection, "Orders") == ["Orders(Id)"]
            backend.migrate(script, new_schema, target)
            assert backend.to_store_state().equals(target)
            assert _index_names(backend.connection, "Orders") == ["Orders(Id)"]
            assert _index_names(backend.connection, "Log") == ["Log(Oid)"]
        finally:
            backend.close()

    def test_drop_and_create_tables(self, schema, state):
        extra = Table("Log", (Column("Id", INT, False),), ("Id",))
        new_schema = StoreSchema([schema.table("People"), extra])
        target = StoreState(new_schema)
        for row in state.rows("People"):
            target.add_row("People", row)
        script = plan_migration(schema, new_schema, state, target)
        drops = [s for s in script.steps if s.kind == "drop"]
        creates = [s for s in script.steps if s.kind == "create"]
        assert any("Orders" in s.statement.text for s in drops)
        assert any("Log" in s.statement.text for s in creates)

    def test_residual_dml_reaches_target(self, schema, state):
        # same schema, different rows: the whole migration is DML
        target = StoreState(schema)
        target.add_row("People", dict(Id=1, Name="ANN", Active=True, Score=10))
        target.add_row("People", dict(Id=9, Name="new", Active=False, Score=1))
        script = plan_migration(schema, schema, state, target)
        kinds = {step.kind for step in script.steps}
        assert kinds <= {"delete", "update", "insert"}
        assert script.dml_steps() == script.steps

    def test_sqlite_executes_script_to_exact_target(self, schema, state):
        """Acceptance: running the planned script on a real database lands
        on precisely the view-computed target state."""
        new_schema = self._widened(schema)
        target = StoreState(new_schema)
        for row in state.rows("People"):
            target.add_row("People", dict(row, Extra="pad"))
        target.add_row("Orders", dict(Oid=103, Id=1, Item="w"))
        for row in state.rows("Orders"):
            target.add_row("Orders", row)
        script = plan_migration(schema, new_schema, state, target)
        backend = SqliteBackend(schema)
        try:
            backend.replace_contents(state)
            backend.migrate(script, new_schema, target)
            assert backend.to_store_state().equals(target)
            assert backend.schema is new_schema
        finally:
            backend.close()

    def test_empty_migration_is_empty(self, schema, state):
        script = plan_migration(schema, schema, state, state)
        assert script.is_empty
        assert script.to_sql() == "BEGIN;\nCOMMIT;"

    def test_to_sql_frames_a_transaction(self, schema, state):
        target = StoreState(schema)
        script = plan_migration(schema, schema, state, target)
        text = script.to_sql()
        assert text.startswith("BEGIN;")
        assert text.endswith("COMMIT;")
        assert isinstance(script, MigrationScript)
        assert "steps" in script.summary() or "step" in script.summary()


class TestDmlStatements:
    def test_delta_statement_order_and_params(self, schema, state):
        target = StoreState(schema)
        target.add_row("People", dict(Id=1, Name="ann2", Active=True, Score=10))
        target.add_row("Orders", dict(Oid=100, Id=1, Item="x"))
        delta = diff_store_states(state, target)
        statements = delta_statements(delta, schema)
        verbs = [s.text.split()[0] for s in statements]
        # all deletes strictly before updates before inserts
        assert verbs == sorted(verbs, key=["DELETE", "UPDATE", "INSERT"].index)
        update = next(s for s in statements if s.text.startswith("UPDATE"))
        assert 'WHERE "Id" = ?' in update.text

    def test_delete_matches_null_values(self, schema, state):
        target = StoreState(schema)
        delta = diff_store_states(state, target)
        deletes = [
            s for s in delta_statements(delta, schema) if s.text.startswith("DELETE")
        ]
        assert all("IS ?" in s.text for s in deletes)

    def test_script_text_inlines_literals(self, schema, state):
        target = StoreState(schema)
        delta = diff_store_states(state, target)
        text = script_text(delta_statements(delta, schema))
        assert "?" not in text
        assert "'ann'" in text

    def test_compiler_reusable_across_compiles(self, schema):
        compiler = SqlCompiler(schema)
        first = compiler.compile(
            Select(TableScan("People"), Comparison("Id", "=", 1))
        )
        second = compiler.compile(TableScan("Orders"))
        assert first.params == (1,)
        assert second.params == ()
