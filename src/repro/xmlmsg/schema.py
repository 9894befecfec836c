"""XSD-style message schemas.

A :class:`MessageSchema` stands in for the XML Schema the paper says each
producer "installs" in the event catalog to declare the structure of its
event details (§5).  A schema is a named sequence of element declarations,
each with a simple type and occurrence bounds.  Flat field lists are exactly
what the paper's privacy-policy model operates on (``e = {f1, ..., fk}``,
Def. 1), so the schema model is deliberately one level deep, with an
extension hook for nested groups used by richer payloads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.exceptions import SchemaError
from repro.xmlmsg.types import SimpleType


class Occurs(enum.Enum):
    """Occurrence bounds for an element (the XSD min/maxOccurs shapes we use)."""

    REQUIRED = "required"       # minOccurs=1 maxOccurs=1
    OPTIONAL = "optional"       # minOccurs=0 maxOccurs=1
    REPEATED = "repeated"       # minOccurs=0 maxOccurs=unbounded

    @property
    def min_occurs(self) -> int:
        """The XSD ``minOccurs`` value."""
        return 1 if self is Occurs.REQUIRED else 0

    @property
    def allows_many(self) -> bool:
        """Whether more than one occurrence is allowed."""
        return self is Occurs.REPEATED


@dataclass(frozen=True)
class ElementDecl:
    """Declaration of one element (field) in a message schema.

    ``sensitive`` marks fields whose values are personal/clinical data; the
    elicitation tool uses it to warn when a policy releases sensitive fields,
    and the simulator uses it to count exposure.  ``identifying`` marks
    fields that identify the data subject (name, ssn); the events index
    encrypts those.
    """

    name: str
    type_: SimpleType
    occurs: Occurs = Occurs.REQUIRED
    sensitive: bool = False
    identifying: bool = False
    documentation: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"illegal element name {self.name!r}")
        if not isinstance(self.type_, SimpleType):
            raise SchemaError(f"element {self.name!r} needs a SimpleType")


@dataclass
class MessageSchema:
    """A named, ordered collection of element declarations.

    ``name`` doubles as the XML root element name of conforming documents.
    ``target_namespace`` mimics the XSD targetNamespace and is stamped on
    serialized documents.  ``elements`` is kept as a tuple: :meth:`add`, the
    one mutator, rebuilds ``declared`` and ``check_rows``, validation's table.
    """

    name: str
    elements: tuple[ElementDecl, ...] = ()
    target_namespace: str = "urn:css:events"
    documentation: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").replace("-", "").isalnum():
            raise SchemaError(f"illegal schema name {self.name!r}")
        seen: set[str] = set()
        for decl in self.elements:
            if decl.name in seen:
                raise SchemaError(f"duplicate element {decl.name!r} in schema {self.name!r}")
            seen.add(decl.name)
        self.elements = tuple(self.elements)
        self._compile()

    def _compile(self) -> None:
        """The declared names and one (name, required, repeated, check) row per element."""
        self.declared = frozenset(decl.name for decl in self.elements)
        self.check_rows = tuple((decl.name, decl.occurs is Occurs.REQUIRED,
                                 decl.occurs.allows_many, decl.type_.check)
                                for decl in self.elements)

    # -- lookup ------------------------------------------------------------

    @property
    def field_names(self) -> tuple[str, ...]:
        """Names of all declared fields, in declaration order."""
        return tuple(decl.name for decl in self.elements)

    @property
    def sensitive_fields(self) -> tuple[str, ...]:
        """Names of the fields flagged sensitive."""
        return tuple(decl.name for decl in self.elements if decl.sensitive)

    @property
    def identifying_fields(self) -> tuple[str, ...]:
        """Names of the fields flagged identifying."""
        return tuple(decl.name for decl in self.elements if decl.identifying)

    def element(self, name: str) -> ElementDecl:
        """Return the declaration of element ``name``.

        Raises :class:`~repro.exceptions.SchemaError` if not declared.
        """
        for decl in self.elements:
            if decl.name == name:
                return decl
        raise SchemaError(f"schema {self.name!r} declares no element {name!r}")

    def has_element(self, name: str) -> bool:
        """Whether the schema declares element ``name``."""
        return name in self.declared

    # -- construction helpers ------------------------------------------------

    def add(self, decl: ElementDecl) -> "MessageSchema":
        """Append a declaration (fluent; raises on duplicates)."""
        if self.has_element(decl.name):
            raise SchemaError(f"duplicate element {decl.name!r} in schema {self.name!r}")
        self.elements = (*self.elements, decl)
        self._compile()
        return self

    # -- XSD-ish rendering ----------------------------------------------------

    def to_xsd_text(self) -> str:
        """Render an XSD-flavoured textual description of the schema.

        This is what a candidate consumer browsing the event catalog sees
        (paper §5: "the event catalog, as the structure of its events, is
        visible to any candidate data consumer").
        """
        lines = [
            f'<xs:schema targetNamespace="{self.target_namespace}">',
            f'  <xs:element name="{self.name}">',
            "    <xs:complexType><xs:sequence>",
        ]
        for decl in self.elements:
            attrs = [
                f'name="{decl.name}"',
                f'type="xs:{decl.type_.name}"',
                f'minOccurs="{decl.occurs.min_occurs}"',
                f'maxOccurs="{"unbounded" if decl.occurs.allows_many else 1}"',
            ]
            if decl.sensitive:
                attrs.append('css:sensitive="true"')
            if decl.identifying:
                attrs.append('css:identifying="true"')
            lines.append(f"      <xs:element {' '.join(attrs)}/>")
        lines.extend(["    </xs:sequence></xs:complexType>", "  </xs:element>", "</xs:schema>"])
        return "\n".join(lines)
