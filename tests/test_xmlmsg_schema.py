"""Unit tests for repro.xmlmsg.schema."""

import pytest

from repro.exceptions import SchemaError
from repro.xmlmsg.schema import ElementDecl, MessageSchema, Occurs
from repro.xmlmsg.types import IntegerType, StringType


def sample_schema() -> MessageSchema:
    return MessageSchema(
        "BloodTest",
        [
            ElementDecl("PatientId", StringType(), identifying=True),
            ElementDecl("Hemoglobin", IntegerType(0, 30), sensitive=True),
            ElementDecl("Notes", StringType(), occurs=Occurs.OPTIONAL),
            ElementDecl("Tags", StringType(), occurs=Occurs.REPEATED),
        ],
    )


class TestOccurs:
    def test_required_min_occurs(self):
        assert Occurs.REQUIRED.min_occurs == 1

    def test_optional_min_occurs(self):
        assert Occurs.OPTIONAL.min_occurs == 0

    def test_only_repeated_allows_many(self):
        assert Occurs.REPEATED.allows_many
        assert not Occurs.REQUIRED.allows_many
        assert not Occurs.OPTIONAL.allows_many


class TestElementDecl:
    def test_valid_declaration(self):
        decl = ElementDecl("Field_1", StringType())
        assert decl.occurs is Occurs.REQUIRED

    def test_illegal_name_rejected(self):
        with pytest.raises(SchemaError):
            ElementDecl("bad name", StringType())
        with pytest.raises(SchemaError):
            ElementDecl("", StringType())

    def test_type_must_be_simple_type(self):
        with pytest.raises(SchemaError):
            ElementDecl("Field", str)  # type: ignore[arg-type]


class TestMessageSchema:
    def test_field_names_in_order(self):
        assert sample_schema().field_names == ("PatientId", "Hemoglobin", "Notes", "Tags")

    def test_sensitive_fields(self):
        assert sample_schema().sensitive_fields == ("Hemoglobin",)

    def test_identifying_fields(self):
        assert sample_schema().identifying_fields == ("PatientId",)

    def test_element_lookup(self):
        assert sample_schema().element("Notes").occurs is Occurs.OPTIONAL

    def test_element_lookup_missing(self):
        with pytest.raises(SchemaError):
            sample_schema().element("Nope")

    def test_has_element(self):
        schema = sample_schema()
        assert schema.has_element("PatientId")
        assert not schema.has_element("Nope")

    def test_duplicate_elements_rejected_at_construction(self):
        with pytest.raises(SchemaError):
            MessageSchema("S", [
                ElementDecl("A", StringType()),
                ElementDecl("A", StringType()),
            ])

    def test_add_appends(self):
        schema = sample_schema()
        schema.add(ElementDecl("Extra", StringType()))
        assert schema.has_element("Extra")

    def test_add_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            sample_schema().add(ElementDecl("PatientId", StringType()))

    def test_the_callers_list_is_copied(self):
        decls = [ElementDecl("PatientId", StringType())]
        schema = MessageSchema("Rec", decls)
        decls.append(ElementDecl("Extra", StringType()))
        assert schema.elements == (decls[0],)
        assert not schema.has_element("Extra")
        assert [row[0] for row in schema.check_rows] == ["PatientId"]

    def test_illegal_schema_name_rejected(self):
        with pytest.raises(SchemaError):
            MessageSchema("bad name", [])

    def test_xsd_text_mentions_every_element(self):
        text = sample_schema().to_xsd_text()
        for name in ("PatientId", "Hemoglobin", "Notes", "Tags"):
            assert name in text

    def test_xsd_text_flags_sensitive_and_identifying(self):
        text = sample_schema().to_xsd_text()
        assert 'css:sensitive="true"' in text
        assert 'css:identifying="true"' in text

    def test_xsd_text_occurs_bounds(self):
        text = sample_schema().to_xsd_text()
        assert 'maxOccurs="unbounded"' in text   # Tags
        assert 'minOccurs="0"' in text           # Notes
