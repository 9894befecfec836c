"""Unit tests for repro.xmlmsg.validation."""

import pytest

from repro.exceptions import ValidationError
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.schema import ElementDecl, MessageSchema, Occurs
from repro.xmlmsg.types import IntegerType, StringType
from repro.xmlmsg.validation import collect_violations, is_valid, validate_document


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


class TestIsValid:
    def test_true_for_valid(self, schema):
        assert is_valid(valid_doc(), schema)

    def test_false_for_invalid(self, schema):
        assert not is_valid(valid_doc().without("id"), schema)
