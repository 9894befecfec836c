"""Unit tests for repro.xmlmsg.validation."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.schema import ElementDecl, MessageSchema, Occurs
from repro.xmlmsg.types import (
    BooleanType,
    DateType,
    DecimalType,
    EnumerationType,
    IntegerType,
    StringType,
)
from repro.xmlmsg.validation import collect_violations, validate_document
from tests.validation_reference import walk_violations


@pytest.fixture()
def schema() -> MessageSchema:
    return MessageSchema("Rec", [
        ElementDecl("id", StringType(min_length=1)),
        ElementDecl("score", IntegerType(0, 100)),
        ElementDecl("note", StringType(), occurs=Occurs.OPTIONAL),
        ElementDecl("tag", StringType(), occurs=Occurs.REPEATED),
    ])


def valid_doc() -> XmlDocument:
    return XmlDocument("Rec", {"id": "r1", "score": 50, "note": "ok", "tag": ["a", "b"]})


class TestValidateDocument:
    def test_valid_document_passes(self, schema):
        validate_document(valid_doc(), schema)

    def test_wrong_schema_name(self, schema):
        doc = XmlDocument("Other", {"id": "r1", "score": 1})
        with pytest.raises(ValidationError, match="claims schema"):
            validate_document(doc, schema)

    def test_undeclared_field(self, schema):
        doc = valid_doc().replace(extra="boom")
        with pytest.raises(ValidationError, match="undeclared field"):
            validate_document(doc, schema)

    def test_missing_required_field(self, schema):
        doc = valid_doc().without("id")
        with pytest.raises(ValidationError, match="missing required"):
            validate_document(doc, schema)

    def test_empty_required_field_rejected_on_publish_path(self, schema):
        doc = valid_doc().replace(id=None)
        with pytest.raises(ValidationError, match="is empty"):
            validate_document(doc, schema)

    def test_type_violation_reported_with_field_name(self, schema):
        doc = valid_doc().replace(score=200)
        with pytest.raises(ValidationError, match="score"):
            validate_document(doc, schema)

    def test_optional_field_may_be_absent(self, schema):
        validate_document(valid_doc().without("note"), schema)

    def test_repeated_field_accepts_list(self, schema):
        validate_document(valid_doc().replace(tag=["x"]), schema)

    def test_repeated_field_accepts_scalar(self, schema):
        validate_document(valid_doc().replace(tag="solo"), schema)

    def test_repeated_field_items_are_typechecked(self, schema):
        doc = valid_doc().replace(tag=["ok", 42])
        with pytest.raises(ValidationError, match="tag"):
            validate_document(doc, schema)

    def test_single_valued_field_rejects_list(self, schema):
        doc = valid_doc().replace(note=["a", "b"])
        with pytest.raises(ValidationError, match="multiple occurrences"):
            validate_document(doc, schema)


class TestCollectViolations:
    def test_collects_multiple_problems(self, schema):
        doc = XmlDocument("Rec", {"score": 999, "bogus": 1})
        violations = collect_violations(doc, schema)
        assert len(violations) >= 3  # undeclared, missing id, score range

    def test_empty_for_valid_document(self, schema):
        assert collect_violations(valid_doc(), schema) == []


# -- the compiled check against the declaration walk ---------------------------

NAMES = ("a", "b", "c", "d", "e", "f")

simple_types = st.one_of(
    st.builds(StringType, min_length=st.integers(0, 2),
              max_length=st.sampled_from([None, 3, 6]),
              pattern=st.sampled_from([None, "[a-z]+", "x.*"])),
    st.builds(IntegerType, minimum=st.sampled_from([None, -5, 0]),
              maximum=st.sampled_from([None, 10, 100])),
    st.builds(DecimalType, minimum=st.sampled_from([None, 0.0]),
              maximum=st.sampled_from([None, 1.5, 50.0])),
    st.builds(BooleanType),
    st.builds(DateType),
    st.builds(EnumerationType, values=st.sampled_from([("lo", "hi"), ("x", "yy", "z")])),
)

declarations = st.builds(ElementDecl, name=st.sampled_from(NAMES), type_=simple_types,
                         occurs=st.sampled_from(list(Occurs)))

schemas = st.lists(declarations, max_size=5, unique_by=lambda decl: decl.name).map(
    lambda decls: MessageSchema("Rec", decls))

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 200), st.floats(-1.0, 60.0),
    st.text("axyz-", max_size=7), st.sampled_from(["lo", "hi", "yy", "z"]),
    st.dates(min_value=dt.date(2000, 1, 1), max_value=dt.date(2030, 1, 1)),
    st.just(dt.datetime(2020, 5, 1, 12, 0)),
)
values = st.one_of(scalars, st.lists(scalars, max_size=3),
                   st.lists(scalars, max_size=3).map(tuple))

# Declared and undeclared names alike; a field absent from the draw is missing.
documents = st.builds(
    XmlDocument, st.sampled_from(["Rec", "Rec", "Other"]),
    st.dictionaries(st.sampled_from(NAMES + ("zz", "extra")), values, max_size=8))


class TestCompiledCheckAgainstTheWalk:
    @settings(max_examples=400, deadline=None)
    @given(schema=schemas, document=documents)
    def test_same_violations_in_the_same_order(self, schema, document):
        assert collect_violations(document, schema) == walk_violations(document, schema)

    @settings(max_examples=200, deadline=None)
    @given(schema=schemas, document=documents, added=st.lists(declarations, max_size=3))
    def test_an_add_after_a_check_rebuilds_the_table(self, schema, document, added):
        assert collect_violations(document, schema) == walk_violations(document, schema)
        for decl in added:
            if not schema.has_element(decl.name):
                schema.add(decl)
                assert collect_violations(document, schema) == walk_violations(document, schema)
