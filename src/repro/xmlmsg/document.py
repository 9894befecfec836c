"""XML documents for platform messages.

An :class:`XmlDocument` is a thin, ordered mapping from field names to
values, tagged with the schema name it claims to conform to.  ``to_xml`` /
``from_xml`` convert between documents and the wire form the paper's web
services exchange, using :mod:`xml.etree.ElementTree`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections.abc import Iterator, Mapping

from repro.exceptions import MessageError
from repro.xmlmsg.schema import MessageSchema


class XmlDocument(Mapping):
    """An immutable, schema-tagged field mapping.

    Acts as a read-only mapping (``doc["field"]``, ``in``, iteration); use
    :meth:`replace` / :meth:`without` to derive modified copies — the
    enforcement path uses :meth:`project` to blank unauthorized fields
    (Algorithm 2's ``parse(d, F)``).
    """

    __slots__ = ("_schema_name", "_fields")

    def __init__(self, schema_name: str, fields: Mapping[str, object]) -> None:
        if not schema_name:
            raise MessageError("document needs a schema name")
        self._schema_name = schema_name
        self._fields: dict[str, object] = dict(fields)

    # -- mapping protocol -----------------------------------------------------

    def __getitem__(self, key: str) -> object:
        return self._fields[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XmlDocument):
            return NotImplemented
        return self._schema_name == other.schema_name and self._fields == other.fields

    def __hash__(self) -> int:
        return hash((self._schema_name, tuple(sorted(self._fields.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        return f"XmlDocument({self._schema_name!r}, {self._fields!r})"

    # -- accessors --------------------------------------------------------------

    @property
    def schema_name(self) -> str:
        """Name of the schema this document claims to conform to."""
        return self._schema_name

    @property
    def fields(self) -> dict[str, object]:
        """A copy of the field mapping."""
        return dict(self._fields)

    def non_empty_fields(self) -> tuple[str, ...]:
        """Names of fields carrying a non-``None`` value.

        This is the set Def. 4 quantifies over: an event is privacy safe for
        a policy iff no *non-empty* field falls outside the allowed set.
        """
        return tuple(name for name, value in self._fields.items() if value is not None)

    # -- derivation ---------------------------------------------------------------

    def replace(self, **updates: object) -> "XmlDocument":
        """Return a copy with ``updates`` applied."""
        merged = dict(self._fields)
        merged.update(updates)
        return XmlDocument(self._schema_name, merged)

    def without(self, *names: str) -> "XmlDocument":
        """Return a copy with ``names`` removed entirely."""
        return XmlDocument(
            self._schema_name,
            {k: v for k, v in self._fields.items() if k not in names},
        )

    def project(self, allowed: set[str] | frozenset[str] | tuple[str, ...]) -> "XmlDocument":
        """Return a copy where fields outside ``allowed`` are blanked to ``None``.

        Mirrors the producer-side obligation of Algorithm 2: "fields that
        are not authorized are left empty" — the element is still present in
        the XML (so the message schema is unchanged), but carries no value.
        """
        allowed_set = set(allowed)
        return XmlDocument(
            self._schema_name,
            {k: (v if k in allowed_set else None) for k, v in self._fields.items()},
        )


def to_xml(document: XmlDocument, schema: MessageSchema | None = None) -> str:
    """Serialize ``document`` to an XML string.

    If ``schema`` is given, its types render the values (dates, booleans);
    otherwise ``str()`` is used.  ``None`` values serialize as empty,
    self-describing elements — the "left empty" wire form of Algorithm 2.
    """
    root = ET.Element(document.schema_name)
    if schema is not None:
        root.set("xmlns", schema.target_namespace)
    for name, value in document.fields.items():
        child = ET.SubElement(root, name)
        if value is None:
            continue
        if schema is not None and schema.has_element(name):
            child.text = schema.element(name).type_.render(value)
        else:
            child.text = str(value)
    return ET.tostring(root, encoding="unicode")


def from_xml(text: str, schema: MessageSchema | None = None) -> XmlDocument:
    """Parse an XML string back into an :class:`XmlDocument`.

    With a ``schema``, element text is coerced to typed Python values;
    without one, values stay strings, whitespace included.  Empty elements
    parse to ``None``.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise MessageError(f"malformed XML: {exc}") from exc
    tag = root.tag.split("}", 1)[-1]  # strip any namespace prefix
    fields: dict[str, object] = {}
    for child in root:
        name = child.tag.split("}", 1)[-1]
        if not child.text:
            fields[name] = None
        elif schema is not None and schema.has_element(name):
            fields[name] = schema.element(name).type_.parse(child.text)
        else:
            fields[name] = child.text
    return XmlDocument(tag, fields)
