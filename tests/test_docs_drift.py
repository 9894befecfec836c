"""docs/ARCHITECTURE.md states the stage order and the switch table once,
docs/FEDERATION.md the wire protocol; this keeps them equal to what the
code composes."""

import re
from dataclasses import fields
from pathlib import Path

from repro import DataController, RuntimeConfig
from repro.federation.node import WIRE_ERRORS
from repro.runtime.kernel import SWITCHES
from tests.conftest import build_federation

DOCS = Path(__file__).resolve().parent.parent / "docs"
ARCHITECTURE = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
FEDERATION = (DOCS / "FEDERATION.md").read_text(encoding="utf-8")


def stage_line(after: str, offset: int = 1) -> tuple[str, ...]:
    """The ``a → b → c`` diagram line ``offset`` lines below ``after``,
    without its tree drawing and its ``[endpoint]`` hop."""
    lines = ARCHITECTURE.splitlines()
    line = lines[lines.index(after) + offset]
    return tuple(name for name in line.strip(" └─").split(" → ")
                 if not name.startswith("["))


def test_stage_order_lines_match_the_pipelines():
    controller = DataController(seed="docs")
    assert stage_line("publish (controller):") == (
        controller.publish_pipeline.stage_names)
    details = "request-for-details (controller edge → SOA endpoint → enforcer):"
    assert stage_line(details) + stage_line(details, 2) == (
        controller.details_pipeline.stage_names
        + controller.enforcer.pipeline.stage_names)


def test_kernel_table_matches_the_default_kernel():
    section = ARCHITECTURE.split("## How a node is composed\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| (`.+?) \|", section, flags=re.M)
    documented = {switch: tuple(re.findall(r"`(\w+)\*?`", names))
                  for switch, names in rows}
    assert documented == SWITCHES
    defaults = RuntimeConfig()
    for switch, names in rows:
        (starred,) = re.findall(r"`(\w+)\*`", names)
        assert getattr(defaults, switch) == starred, switch
    assert f"; {len(fields(RuntimeConfig))} fields" in section


def test_wire_protocol_tables_match_the_node():
    section = FEDERATION.split("## The wire protocol\n")[1].split("\n## ")[0]
    operations, errors = section.split("**Errors.**")
    rows = re.findall(r"^\| `([\w.]+)` \|.*\| (yes|no) \|$", operations, flags=re.M)
    node = build_federation().platform.node("node-0")
    assert [name for name, _ in rows] == list(node._handlers)
    assert [name for name, coalescible in rows if coalescible == "yes"] == list(
        node._batch_handlers)
    assert re.findall(r"^\| `(\w+)` \| `([\w-]+)` \|$", errors, flags=re.M) == [
        (failure.__name__, code) for failure, code in WIRE_ERRORS.items()]
