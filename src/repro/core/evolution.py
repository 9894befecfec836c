"""Event-class schema evolution.

Institutions join the CSS ecosystem progressively (§1) and their systems
change over time, so declared event classes must be able to *evolve*
without breaking what already exists:

* **policies** reference fields by name — a new schema version must keep
  every previously declared field (same type name, no tightened
  occurrence), so existing grants stay meaningful;
* **stored details** of old events must still validate — new fields must
  be optional, never required;
* **subscribers** keep receiving the same notification shape — the
  notification format is version-independent by design (§4), so evolution
  only concerns the detail schema.

:func:`check_backward_compatible` returns the list of violations (empty =
compatible); the catalog's upgrade path refuses incompatible versions.
"""

from __future__ import annotations

from repro.xmlmsg.schema import MessageSchema, Occurs

#: Ordering of occurrence constraints from loosest to strictest.
_STRICTNESS = {Occurs.REPEATED: 0, Occurs.OPTIONAL: 1, Occurs.REQUIRED: 2}


def check_backward_compatible(old: MessageSchema, new: MessageSchema) -> list[str]:
    """Violations that would break policies or stored events (empty = ok)."""
    violations: list[str] = []
    if old.name != new.name:
        violations.append(
            f"schema name changed from {old.name!r} to {new.name!r}"
        )
        return violations
    new_names = set(new.field_names)
    for decl in old.elements:
        if decl.name not in new_names:
            violations.append(f"field {decl.name!r} was removed")
            continue
        successor = new.element(decl.name)
        if type(successor.type_) is not type(decl.type_):
            violations.append(
                f"field {decl.name!r} changed type from "
                f"{decl.type_.name} to {successor.type_.name}"
            )
        if _STRICTNESS[successor.occurs] > _STRICTNESS[decl.occurs]:
            violations.append(
                f"field {decl.name!r} tightened occurrence from "
                f"{decl.occurs.value} to {successor.occurs.value}"
            )
        if decl.sensitive and not successor.sensitive:
            violations.append(
                f"field {decl.name!r} lost its sensitive flag"
            )
    old_names = set(old.field_names)
    for decl in new.elements:
        if decl.name in old_names:
            continue
        if decl.occurs is Occurs.REQUIRED:
            violations.append(
                f"new field {decl.name!r} is required (old events cannot carry it)"
            )
    return violations
