"""Validation of documents against message schemas.

``validate_document`` is the gatekeeper the local cooperation gateway and
the data controller run before accepting a message: the document must name
the right schema, carry no undeclared fields, carry every required field,
and every non-empty value must satisfy its declared type.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.schema import MessageSchema, Occurs


def validate_document(document: XmlDocument, schema: MessageSchema) -> None:
    """Validate ``document`` against ``schema``; raise ``ValidationError`` on failure."""
    errors = collect_violations(document, schema)
    if errors:
        raise ValidationError("; ".join(errors))


def collect_violations(document: XmlDocument, schema: MessageSchema) -> list[str]:
    """Return a list of human-readable violations (empty = valid)."""
    errors: list[str] = []
    if document.schema_name != schema.name:
        errors.append(
            f"document claims schema {document.schema_name!r} but validating against {schema.name!r}"
        )

    declared = set(schema.field_names)
    for name in document:
        if name not in declared:
            errors.append(f"undeclared field {name!r}")

    for decl in schema.elements:
        present = decl.name in document
        value = document[decl.name] if present else None
        if decl.occurs is Occurs.REQUIRED:
            if not present:
                errors.append(f"missing required field {decl.name!r}")
                continue
            if value is None:
                errors.append(f"required field {decl.name!r} is empty")
                continue
        if not present or value is None:
            continue
        if decl.occurs.allows_many:
            items = value if isinstance(value, (list, tuple)) else [value]
        else:
            if isinstance(value, (list, tuple)):
                errors.append(f"field {decl.name!r} does not allow multiple occurrences")
                continue
            items = [value]
        for item in items:
            try:
                decl.type_.check(item)
            except ValidationError as exc:
                errors.append(f"field {decl.name!r}: {exc}")
    return errors


def is_valid(document: XmlDocument, schema: MessageSchema) -> bool:
    """True iff ``document`` validates against ``schema``."""
    return not collect_violations(document, schema)
