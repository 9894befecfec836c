"""Unit and property tests for repro.xmlmsg.document."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MessageError
from repro.sim.generators import SyntheticPopulation, standard_event_templates
from repro.xmlmsg.document import XmlDocument, from_xml, to_xml
from repro.xmlmsg.schema import ElementDecl, MessageSchema, Occurs
from repro.xmlmsg.types import BooleanType, IntegerType, StringType
from repro.xmlmsg.validation import collect_violations


@pytest.fixture()
def doc() -> XmlDocument:
    return XmlDocument("Test", {"a": "x", "b": 2, "c": None})


class TestXmlDocument:
    def test_mapping_protocol(self, doc):
        assert doc["a"] == "x"
        assert "b" in doc
        assert len(doc) == 3
        assert set(iter(doc)) == {"a", "b", "c"}

    def test_requires_schema_name(self):
        with pytest.raises(MessageError):
            XmlDocument("", {})

    def test_equality_and_hash(self):
        one = XmlDocument("T", {"a": 1})
        two = XmlDocument("T", {"a": 1})
        assert one == two
        assert hash(one) == hash(two)
        assert one != XmlDocument("T", {"a": 2})
        assert one != XmlDocument("U", {"a": 1})

    def test_fields_returns_copy(self, doc):
        fields = doc.fields
        fields["a"] = "mutated"
        assert doc["a"] == "x"

    def test_non_empty_fields_skips_none(self, doc):
        assert doc.non_empty_fields() == ("a", "b")

    def test_replace(self, doc):
        updated = doc.replace(a="y", d=4)
        assert updated["a"] == "y"
        assert updated["d"] == 4
        assert doc["a"] == "x"  # original untouched

    def test_without(self, doc):
        smaller = doc.without("a", "c")
        assert set(smaller) == {"b"}

    def test_project_blanks_disallowed_fields(self, doc):
        projected = doc.project({"a"})
        assert projected["a"] == "x"
        assert projected["b"] is None
        assert set(projected) == {"a", "b", "c"}  # structure preserved

    def test_project_with_empty_set_blanks_everything(self, doc):
        assert XmlDocument("Test", doc.project(set()).fields).non_empty_fields() == ()


class TestXmlRoundTrip:
    def test_plain_round_trip(self):
        doc = XmlDocument("Note", {"text": "hello", "empty": None})
        parsed = from_xml(to_xml(doc))
        assert parsed.schema_name == "Note"
        assert parsed["text"] == "hello"
        assert parsed["empty"] is None

    def test_typed_round_trip(self):
        schema = MessageSchema("Typed", [
            ElementDecl("count", IntegerType()),
            ElementDecl("flag", BooleanType()),
            ElementDecl("label", StringType()),
        ])
        doc = XmlDocument("Typed", {"count": 42, "flag": True, "label": "x"})
        parsed = from_xml(to_xml(doc, schema), schema)
        assert parsed == doc

    def test_untyped_parse_keeps_strings(self):
        doc = XmlDocument("T", {"n": 42})
        parsed = from_xml(to_xml(doc))
        assert parsed["n"] == "42"

    def test_namespace_is_stamped_and_stripped(self):
        schema = MessageSchema("NS", [ElementDecl("a", StringType())])
        text = to_xml(XmlDocument("NS", {"a": "v"}), schema)
        assert 'xmlns="urn:css:events"' in text
        assert from_xml(text, schema).schema_name == "NS"

    def test_malformed_xml_rejected(self):
        with pytest.raises(MessageError):
            from_xml("<unclosed>")

    def test_blanked_fields_serialize_as_empty_elements(self):
        text = to_xml(XmlDocument("T", {"secret": None}))
        assert "<secret />" in text or "<secret/>" in text or "<secret></secret>" in text

    @given(st.dictionaries(
        keys=st.from_regex(r"[a-zA-Z][a-zA-Z0-9]{0,8}", fullmatch=True),
        values=st.text(
            alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=30
        ).map(lambda s: s.strip()).filter(lambda s: s),
        max_size=8,
    ))
    @settings(max_examples=60, deadline=None)
    def test_property_string_round_trip(self, fields):
        doc = XmlDocument("Prop", fields)
        assert from_xml(to_xml(doc)) == doc


TEMPLATES = standard_event_templates()
PATIENTS = list(SyntheticPopulation(8, seed=3))


class TestProjection:
    """Algorithm 2 validates a detail once, when the gateway stores it: a
    projection of a schema-valid document is that document with values
    blanked, so it needs no second validation."""

    @given(data=st.data(), name=st.sampled_from(sorted(TEMPLATES)),
           seed=st.integers(0, 2**16), patient=st.sampled_from(PATIENTS))
    @settings(max_examples=80, deadline=None)
    def test_a_projection_blanks_values_and_changes_nothing_else(
            self, data, name, seed, patient):
        schema = TEMPLATES[name].build_schema()
        document = XmlDocument(schema.name, TEMPLATES[name].build_details(
            random.Random(seed), patient))
        assert collect_violations(document, schema) == []
        allowed = data.draw(st.frozensets(st.sampled_from(schema.field_names)))
        projected = document.project(allowed)
        assert projected.schema_name == document.schema_name
        assert list(projected) == list(document)
        for field, value in projected.fields.items():
            assert value == (document[field] if field in allowed else None)
        # All a validator could say of it: a blanked required field is empty.
        assert collect_violations(projected, schema) == [
            f"required field {field!r} is empty" for field in schema.field_names
            if field in document and field not in allowed
            and schema.element(field).occurs is Occurs.REQUIRED]
