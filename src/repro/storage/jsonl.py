"""Append-only JSON-lines files.

One record per line: the row files of a platform archive
(:mod:`~repro.storage.archive`), whose manifest vouches for every byte,
and the flat logs a ``data_dir`` held before the segmented engine.  No
framing, no recovery: a malformed line — a torn trailing write included,
which this format cannot tell from corruption — raises the typed
:class:`~repro.exceptions.CorruptRecordError`.  Reading streams one line
at a time; :meth:`JsonlFile.read_all` is for small files and tests.
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

    def exists(self) -> bool:
        """Whether the file exists on disk."""
        return self.path.exists()

    def append(self, record: dict | str) -> None:
        """Append one record."""
        self.append_many([record])

    def append_many(self, records: list[dict | str]) -> None:
        """Append several records in one write; a segment entry's text (an
        audit sink's ``<digest> <body>``) is written as its dictionary."""
        from repro.storage.segment import decode_entry  # segment imports this module

        with self.path.open("a", encoding="utf-8") as handle:
            for record in records:
                record = decode_entry(record) if isinstance(record, str) else record
                handle.write(json.dumps(record, sort_keys=True, default=str))
                handle.write("\n")

    def flush(self) -> None:
        """Every append already wrote through; nothing is buffered."""

    def iter_texts(self) -> Iterator[tuple[int, str]]:
        """Stream ``(line number, line)`` of the non-blank lines, unparsed."""
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                if stripped := line.strip():
                    yield line_number, stripped

    def iter_records(self) -> Iterator[dict]:
        """Stream records oldest first; a malformed line raises ``CorruptRecordError``."""
        for line_number, line in self.iter_texts():
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptRecordError(
                    f"{self.path}:{line_number}: corrupt JSONL record"
                ) from exc

    def read_all(self) -> list[dict]:
        """Every record, oldest first (empty list if the file is absent)."""
        return list(self.iter_records())

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_records())
