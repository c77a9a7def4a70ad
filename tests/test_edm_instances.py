"""Unit tests: client states (entities, associations, embedding)."""

import pytest

from repro.edm import ClientSchemaBuilder, ClientState, Entity, INT, STRING
from repro.errors import SchemaError

from tests.test_edm_schema import small_hierarchy


@pytest.fixture
def schema():
    schema = small_hierarchy()
    schema2 = schema.clone()
    return schema2


@pytest.fixture
def schema_with_assoc():
    return (
        ClientSchemaBuilder()
        .entity("Person", key=[("Id", INT)], attrs=[("Name", STRING)])
        .entity("Employee", parent="Person", attrs=[("Dept", STRING)])
        .entity("Customer", parent="Person", attrs=[("Score", INT)])
        .entity_set("Persons", "Person")
        .association("Supports", "Customer", "Employee", mult1="*", mult2="0..1")
        .build()
    )


class TestAddEntity:
    def test_basic(self, schema):
        state = ClientState(schema)
        state.add_entity("Persons", Entity.of("Person", Id=1, Name="a"))
        assert len(state.entities("Persons")) == 1

    def test_unknown_set_rejected(self, schema):
        state = ClientState(schema)
        with pytest.raises(SchemaError):
            state.add_entity("Nope", Entity.of("Person", Id=1, Name="a"))

    def test_type_outside_hierarchy_rejected(self, schema_with_assoc):
        state = ClientState(schema_with_assoc)
        with pytest.raises(SchemaError):
            state.add_entity("Persons", Entity.of("Table", Id=1))

    def test_missing_attribute_rejected(self, schema):
        state = ClientState(schema)
        with pytest.raises(SchemaError):
            state.add_entity("Persons", Entity.of("Person", Id=1))

    def test_extra_attribute_rejected(self, schema):
        state = ClientState(schema)
        with pytest.raises(SchemaError):
            state.add_entity("Persons", Entity.of("Person", Id=1, Name="a", X=2))

    def test_null_in_non_nullable_rejected(self, schema):
        state = ClientState(schema)
        with pytest.raises(SchemaError):
            state.add_entity("Persons", Entity.of("Person", Id=1, Name=None))

    def test_domain_violation_rejected(self, schema):
        state = ClientState(schema)
        with pytest.raises(SchemaError):
            state.add_entity("Persons", Entity.of("Person", Id="one", Name="a"))

    def test_duplicate_key_rejected_across_types(self, schema):
        state = ClientState(schema)
        state.add_entity("Persons", Entity.of("Person", Id=1, Name="a"))
        with pytest.raises(SchemaError):
            state.add_entity(
                "Persons", Entity.of("Employee", Id=1, Name="b", Dept="x")
            )


class TestAssociations:
    def _populated(self, schema_with_assoc):
        state = ClientState(schema_with_assoc)
        state.add_entity(
            "Persons", Entity.of("Employee", Id=1, Name="e", Dept="d")
        )
        state.add_entity(
            "Persons", Entity.of("Customer", Id=2, Name="c", Score=5)
        )
        state.add_entity(
            "Persons", Entity.of("Customer", Id=3, Name="c2", Score=6)
        )
        return state

    def test_add(self, schema_with_assoc):
        state = self._populated(schema_with_assoc)
        state.add_association("Supports", (2,), (1,))
        assert state.associations("Supports") == ((2, 1),)

    def test_missing_entities_rejected(self, schema_with_assoc):
        state = self._populated(schema_with_assoc)
        with pytest.raises(SchemaError):
            state.add_association("Supports", (99,), (1,))

    def test_wrong_end_type_rejected(self, schema_with_assoc):
        state = self._populated(schema_with_assoc)
        # entity 1 is an Employee, cannot play the Customer end
        with pytest.raises(SchemaError):
            state.add_association("Supports", (1,), (2,))

    def test_multiplicity_upper_bound_enforced(self, schema_with_assoc):
        state = self._populated(schema_with_assoc)
        state.add_association("Supports", (2,), (1,))
        # Customer 2 already supported by an employee (end2 is 0..1)
        with pytest.raises(SchemaError):
            state.add_association("Supports", (2,), (1,))

    def test_many_end_allows_sharing(self, schema_with_assoc):
        state = self._populated(schema_with_assoc)
        state.add_association("Supports", (2,), (1,))
        state.add_association("Supports", (3,), (1,))  # end1 is *, fine
        assert len(state.associations("Supports")) == 2


class TestComparisonAndEmbedding:
    def test_equals_ignores_insertion_order(self, schema):
        a = ClientState(schema)
        b = ClientState(schema)
        a.add_entity("Persons", Entity.of("Person", Id=1, Name="x"))
        a.add_entity("Persons", Entity.of("Person", Id=2, Name="y"))
        b.add_entity("Persons", Entity.of("Person", Id=2, Name="y"))
        b.add_entity("Persons", Entity.of("Person", Id=1, Name="x"))
        assert a.equals(b)

    def test_not_equals_on_value_change(self, schema):
        a = ClientState(schema)
        b = ClientState(schema)
        a.add_entity("Persons", Entity.of("Person", Id=1, Name="x"))
        b.add_entity("Persons", Entity.of("Person", Id=1, Name="Y"))
        assert not a.equals(b)

    def test_embed_into_evolved_schema(self, schema):
        """The paper's f(c): same contents, new components empty."""
        state = ClientState(schema)
        state.add_entity("Persons", Entity.of("Person", Id=1, Name="x"))
        evolved = schema.clone()
        from repro.edm import Attribute
        from repro.edm.entity import EntityType

        evolved.add_entity_type(
            EntityType("Robot", parent="Person", attributes=(Attribute("Os"),))
        )
        embedded = state.embed_into(evolved)
        assert embedded.entities("Persons") == state.entities("Persons")

    def test_embed_rejects_dropped_nonempty_component(self, schema_with_assoc):
        state = ClientState(schema_with_assoc)
        state.add_entity("Persons", Entity.of("Employee", Id=1, Name="e", Dept="d"))
        state.add_entity("Persons", Entity.of("Customer", Id=2, Name="c", Score=1))
        state.add_association("Supports", (2,), (1,))
        target = schema_with_assoc.clone()
        target.drop_association("Supports")
        with pytest.raises(SchemaError):
            state.embed_into(target)

    def test_entity_value_access(self):
        entity = Entity.of("T", a=1, b=None)
        assert entity["a"] == 1
        assert entity["b"] is None
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            entity["missing"]

    def test_key_tuple(self):
        entity = Entity.of("T", a=1, b=2)
        assert entity.key_tuple(("b", "a")) == (2, 1)


class TestEntityChecksPerSchemaVersion:
    """``_validate_entity`` checks against a per-(set, type) check the
    schema builds once; every schema mutation must change what it accepts
    exactly as a fresh schema walk would, with the same messages."""

    def test_add_and_drop_attribute(self, schema):
        from repro.edm import Attribute

        state = ClientState(schema)
        state.add_entity("Persons", Entity.of("Employee", Id=1, Name="a", Dept="d"))
        schema.add_attribute("Employee", Attribute("Title", STRING, nullable=True))
        with pytest.raises(SchemaError) as err:
            state.add_entity("Persons", Entity.of("Employee", Id=2, Name="b", Dept="d"))
        assert str(err.value) == (
            "entity of 'Employee' must assign exactly "
            "['Dept', 'Id', 'Name', 'Title'], got ['Dept', 'Id', 'Name']"
        )
        state.add_entity(
            "Persons", Entity.of("Employee", Id=2, Name="b", Dept="d", Title=None)
        )
        # the subtype inherits the new attribute too
        with pytest.raises(SchemaError, match="must assign exactly"):
            state.add_entity(
                "Persons", Entity.of("Manager", Id=3, Name="c", Dept="d", Level=1)
            )
        schema.drop_attribute("Employee", "Title")
        state.add_entity("Persons", Entity.of("Employee", Id=4, Name="e", Dept="d"))
        with pytest.raises(SchemaError) as err:
            state.add_entity(
                "Persons", Entity.of("Employee", Id=5, Name="f", Dept="d", Title="x")
            )
        assert str(err.value) == (
            "entity of 'Employee' must assign exactly ['Dept', 'Id', 'Name'], "
            "got ['Dept', 'Id', 'Name', 'Title']"
        )

    def test_add_entity_type(self, schema):
        from repro.edm import Attribute, EntityType

        state = ClientState(schema)
        state.add_entity("Persons", Entity.of("Person", Id=1, Name="a"))
        temp = Entity.of("Temp", Id=2, Name="b", Dept="d", Agency="x")
        with pytest.raises(SchemaError) as err:
            state.add_entity("Persons", temp)
        assert str(err.value) == "type 'Temp' does not belong to set 'Persons'"
        schema.add_entity_type(
            EntityType("Temp", parent="Employee", attributes=(Attribute("Agency", STRING),))
        )
        state.add_entity("Persons", temp)
        assert state.entity_by_key("Persons", (2,)) == temp

    def test_domain_and_nullability_messages(self, schema):
        state = ClientState(schema)
        with pytest.raises(SchemaError) as err:
            state.add_entity("Persons", Entity.of("Manager", Id=1, Name="a", Dept="d", Level="x"))
        assert str(err.value) == "value 'x' outside domain of Manager.Level"
        with pytest.raises(SchemaError) as err:
            state.add_entity("Persons", Entity.of("Person", Id=None, Name="a"))
        assert str(err.value) == "attribute 'Id' of 'Person' is not nullable"

    def test_clone_checks_apart(self, schema):
        from repro.edm import Attribute

        state = ClientState(schema)
        plain = Entity.of("Customer", Id=1, Name="a", Score=3)
        state.add_entity("Persons", plain)  # builds the original's check
        evolved = schema.clone()
        evolved.add_attribute("Customer", Attribute("Tier", STRING, nullable=True))
        with pytest.raises(SchemaError, match="must assign exactly"):
            ClientState(evolved).add_entity("Persons", plain)
        # the original schema's check is untouched by the clone's mutation
        state.add_entity("Persons", Entity.of("Customer", Id=2, Name="b", Score=4))
        with pytest.raises(SchemaError, match="must assign exactly"):
            state.add_entity(
                "Persons", Entity.of("Customer", Id=3, Name="c", Score=4, Tier=None)
            )

    def test_checks_do_not_travel_in_a_pickle(self, schema):
        import pickle

        state = ClientState(schema)
        state.add_entity("Persons", Entity.of("Person", Id=1, Name="a"))
        copied = pickle.loads(pickle.dumps(schema))
        assert copied._checks == {}
        ClientState(copied).add_entity("Persons", Entity.of("Person", Id=1, Name="a"))


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_aborted_evolve_leaves_live_checks_unchanged(backend):
    """An evolve that validation rejects compiles a candidate schema and
    throws it away: the live schema accepts and rejects exactly what it
    did before, and so does the session's incremental write path."""
    from repro.compiler import compile_mapping
    from repro.edm import Attribute
    from repro.errors import ValidationError
    from repro.incremental import AddEntity, CompiledModel
    from repro.ivm import DeltaScript, EntityOp
    from repro.session import OrmSession
    from repro.workloads.paper_example import mapping_stage4

    mapping = mapping_stage4()
    session = OrmSession.create(
        CompiledModel(mapping, compile_mapping(mapping).views), backend=backend
    )
    try:
        with session.edit() as state:
            state.add_entity("Persons", Entity.of("Person", Id=1, Name="ann"))
        schema = session.model.client_schema
        live = ClientState(schema)
        live.add_entity("Persons", Entity.of("Customer", Id=1, Name="a", CredScore=1, BillAddr="x"))
        with pytest.raises(ValidationError):
            session.evolve(
                AddEntity.tpc(
                    session.model, "Vip", "Customer", [Attribute("Tier", STRING)], "VipT"
                )
            )
        assert session.model.client_schema is schema
        live.add_entity("Persons", Entity.of("Customer", Id=2, Name="b", CredScore=2, BillAddr="y"))
        with pytest.raises(SchemaError) as err:
            live.add_entity("Persons", Entity.of("Vip", Id=3, Name="c", CredScore=3, BillAddr="z", Tier="t"))
        assert str(err.value) == "type 'Vip' does not belong to set 'Persons'"
        session.save_delta(
            DeltaScript(
                (
                    EntityOp(
                        "insert", "Persons",
                        entity=Entity.of("Employee", Id=2, Name="bob", Department="hr"),
                    ),
                )
            )
        )
        assert session.serving_stats().epoch.ivm_fallbacks == 0
        assert sorted(session.backend.snapshot()) == ["Emp", "HR"]
    finally:
        session.close()
