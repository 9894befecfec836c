"""Append-only JSON-lines files.

One record per line: the row files of a platform archive
(:mod:`~repro.storage.archive`), whose manifest vouches for every byte.
No framing, no recovery: a malformed line — a torn trailing write included,
which this format cannot tell from corruption — raises the typed
:class:`~repro.exceptions.CorruptRecordError`.  Reading streams one line
at a time.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

from repro.exceptions import CorruptRecordError


def write_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically; returns the path.

    The content lands in a same-directory temp file first and is renamed
    into place, so an interrupted write never leaves a truncated file where
    a reader (a log's next open, a restore, CI, the stitcher, the incident
    checker) expects a complete one: it is whole or it is the old one.
    Written as bytes: the manifests' pinned digests must not depend on the
    platform's newline translation.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_name(target.name + ".tmp")
    scratch.write_bytes(text.encode("utf-8"))
    os.replace(scratch, target)
    return target


class JsonlFile:
    """An append-only JSON-lines file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append_many(self, records: list[dict]) -> None:
        """Append several records in one write."""
        with self.path.open("a", encoding="utf-8") as handle:
            handle.writelines(json.dumps(record, sort_keys=True, default=str) + "\n"
                              for record in records)

    def iter_records(self) -> Iterator[dict]:
        """Stream records oldest first (none if the file is absent); a
        malformed line raises ``CorruptRecordError``."""
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorruptRecordError(
                        f"{self.path}:{line_number}: corrupt JSONL record"
                    ) from exc
