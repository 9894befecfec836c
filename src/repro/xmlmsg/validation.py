"""Validation of documents against message schemas.

``validate_document`` is the gatekeeper the local cooperation gateway and
the data controller run before accepting a message: the document must name
the right schema, carry no undeclared fields, carry every required field,
and every non-empty value must satisfy its declared type.
It reads the schema's check table, built where the schema is declared,
and the document's field mapping; ``tests/validation_reference.py`` keeps
the declaration walk it replaced, held to the same violations in order.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.schema import MessageSchema


def validate_document(document: XmlDocument, schema: MessageSchema) -> None:
    """Validate ``document`` against ``schema``; raise ``ValidationError`` on failure."""
    errors = collect_violations(document, schema)
    if errors:
        raise ValidationError("; ".join(errors))


def collect_violations(document: XmlDocument, schema: MessageSchema) -> list[str]:
    """Return a list of human-readable violations (empty = valid)."""
    fields = document.fields
    errors: list[str] = []
    if document.schema_name != schema.name:
        errors.append(
            f"document claims schema {document.schema_name!r} but validating against {schema.name!r}"
        )

    declared = schema.declared
    if not declared.issuperset(fields):
        errors.extend(f"undeclared field {name!r}" for name in fields if name not in declared)

    for name, required, repeated, check in schema.check_rows:
        value = fields.get(name)
        if value is None:
            if required:
                errors.append(f"required field {name!r} is empty" if name in fields
                              else f"missing required field {name!r}")
            continue
        if isinstance(value, (list, tuple)):
            if not repeated:
                errors.append(f"field {name!r} does not allow multiple occurrences")
                continue
            items = value
        else:
            items = (value,)
        for item in items:
            try:
                check(item)
            except ValidationError as exc:
                errors.append(f"field {name!r}: {exc}")
    return errors
