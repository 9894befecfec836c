"""The declaration walk every compiled schema check is held equal to.

:func:`repro.xmlmsg.validation.collect_violations` reads the schema's
check table (``MessageSchema.declared`` / ``check_rows``).  This is the
walk it replaced, kept as written: it reads ``ElementDecl`` and ``Occurs``
and the document through its mapping interface, on every call.
``tests/test_xmlmsg_validation.py`` draws schemas and documents and
requires the two to return the same violations in the same order.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.schema import MessageSchema, Occurs


def walk_violations(document: XmlDocument, schema: MessageSchema) -> list[str]:
    """The violations of ``document`` against ``schema``, by declaration walk."""
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
