"""Append-only JSON-lines files.

One record per line.  This is the storage engine's *ablation baseline*
(kernel store kind ``jsonl``): no framing, no segments, no recovery
beyond all-or-nothing — exactly what the segmented engine is measured
against.  Readers get plain dictionaries back.

Reading is **streaming**: :meth:`JsonlFile.iter_records` yields one
record at a time, so replaying a multi-gigabyte file holds one line in
memory, never the file.  :meth:`JsonlFile.read_all` stays for small
files and tests.  A malformed line — including a torn trailing write,
which this format cannot distinguish from corruption — raises the typed
:class:`~repro.exceptions.CorruptRecordError` (a
:class:`~repro.exceptions.StorageError`), never a bare
``json.JSONDecodeError``.
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

    def append(self, record: dict) -> None:
        """Append one record."""
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True, default=str))
            handle.write("\n")

    def append_many(self, records: list[dict]) -> None:
        """Append several records in one write."""
        with self.path.open("a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True, default=str))
                handle.write("\n")

    def iter_records(self) -> Iterator[dict]:
        """Stream records oldest first, one line in memory at a time.

        Raises :class:`~repro.exceptions.CorruptRecordError` on any
        malformed line (a plain JSONL file has no commit framing, so a
        torn trailing write is indistinguishable from corruption — the
        segmented store kind exists to do better).
        """
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
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
