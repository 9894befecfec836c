"""Snapshots: sha256-manifested tar archives with point-in-time restore.

A snapshot of a storage data directory is two files under
``<root>/<snapshot-id>/``:

* ``manifest.json`` — schema ``css-storage-snapshot/1``: every archived
  file with its sha256 and size, plus the high-water **sequence number of
  each log** at snapshot time (the coordinates point-in-time recovery
  aims for);
* ``payload.tar.gz`` — the data directory's files, stored relative to
  the data directory root.

``verify`` re-hashes the archived payload against the manifest (and,
given a live data directory, diffs the directory against the manifest —
which is how segment corruption is caught before anyone trusts a
restore).  ``restore`` extracts into an **empty** target directory,
re-verifies every hash, and can then truncate each restored log to a
requested committed sequence number — recovery to any point the log ever
committed, not just to snapshot boundaries.

Snapshot ids are deterministic (``snap-0001``, ``snap-0002``, ... or a
caller-supplied label), so same-seed runs produce identical layouts.

The file manifest — ``{relative path: {sha256, size}}`` — and "does this
directory still match it" are :func:`describe` and :func:`problems`;
platform archives and incident bundles write and check theirs with them.
"""

from __future__ import annotations

import hashlib
import json
import tarfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import RecoveryError, SnapshotError
from repro.storage.jsonl import write_atomic
from repro.storage.segment import SegmentedLog

#: Manifest schema identifier.
SNAPSHOT_SCHEMA = "css-storage-snapshot/1"
MANIFEST_FILE = "manifest.json"
PAYLOAD_FILE = "payload.tar.gz"

_CHUNK = 1024 * 1024


def _sha256(stream, limit: int | None = None) -> str:
    """Chunked sha256 of ``stream``'s first ``limit`` bytes (None: all)."""
    digest = hashlib.sha256()
    remaining = float("inf") if limit is None else limit
    while remaining > 0:
        chunk = stream.read(min(_CHUNK, remaining))
        if not chunk:
            break
        digest.update(chunk)
        remaining -= len(chunk)
    return digest.hexdigest()


def describe(directory: str | Path, names=None) -> dict[str, dict[str, object]]:
    """The file manifest of ``directory``, ``{relative path: {sha256, size}}``:
    of the relative paths ``names``, or of every file underneath."""
    directory = Path(directory)
    if names is None:
        names = [
            path.relative_to(directory).as_posix()
            for path in sorted(directory.rglob("*")) if path.is_file()
        ]
    files: dict[str, dict[str, object]] = {}
    for name in names:
        path = directory / name
        with path.open("rb") as handle:
            files[name] = {"sha256": _sha256(handle), "size": path.stat().st_size}
    return files


def problems(directory: str | Path, files: dict[str, dict],
             grown_ok: bool = False) -> list[str]:
    """Every way ``directory`` no longer matches the manifest ``files``.

    Empty means intact.  ``grown_ok`` is for live append-only logs: only
    the first ``size`` bytes are hashed, so a file appended to since the
    manifest was written is drift, not corruption — a shorter one is
    truncated either way.
    """
    directory = Path(directory)
    found: list[str] = []
    for relative, entry in sorted(files.items()):
        path = directory / relative
        if not path.is_file():
            found.append(f"{relative}: missing from {directory}")
        elif path.stat().st_size < entry["size"]:
            found.append(f"{relative}: truncated below its manifest size")
        else:
            with path.open("rb") as handle:
                digest = _sha256(handle, entry["size"] if grown_ok else None)
            if digest != entry["sha256"]:
                found.append(f"{relative}: sha256 mismatch")
    return found


@dataclass(frozen=True)
class SnapshotInfo:
    """One snapshot's identity and manifest summary."""

    snapshot_id: str
    directory: Path
    files: int
    size_bytes: int
    sequences: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RestoreReport:
    """Outcome of one restore."""

    snapshot_id: str
    target: Path
    files: int
    truncated_records: int
    sequences: dict[str, int] = field(default_factory=dict)


class SnapshotManager:
    """Create, list, verify and restore data-directory snapshots."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- create ------------------------------------------------------------

    def _next_id(self) -> str:
        taken = {path.name for path in self.root.glob("snap-*")}
        number = 1
        while f"snap-{number:04d}" in taken:
            number += 1
        return f"snap-{number:04d}"

    def create(
        self,
        data_dir: str | Path,
        sequences: dict[str, int],
        label: str | None = None,
    ) -> SnapshotInfo:
        """Archive ``data_dir`` under a new snapshot id.

        ``sequences`` records each log's committed high-water mark
        (:meth:`~repro.storage.engine.StorageEngine.snapshot` reads them
        off its open logs).
        """
        data_dir = Path(data_dir)
        if not data_dir.is_dir():
            raise SnapshotError(f"no data directory at {data_dir}")
        self.root.mkdir(parents=True, exist_ok=True)
        snapshot_id = label or self._next_id()
        target = self.root / snapshot_id
        if target.exists():
            raise SnapshotError(f"snapshot {snapshot_id!r} already exists")

        files = describe(data_dir)
        target.mkdir(parents=True)
        with tarfile.open(target / PAYLOAD_FILE, "w:gz") as archive:
            for relative in files:
                archive.add(data_dir / relative, arcname=relative)

        manifest = {
            "schema": SNAPSHOT_SCHEMA,
            "snapshot_id": snapshot_id,
            "sequences": {name: int(value)
                          for name, value in sorted(sequences.items())},
            "files": files,
            "count": len(files),
            "size_bytes": sum(entry["size"] for entry in files.values()),
        }
        write_atomic(target / MANIFEST_FILE,
                     json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return self.info(snapshot_id)

    # -- inspection ----------------------------------------------------------

    def list(self) -> list[SnapshotInfo]:
        """Every snapshot under the root, id order."""
        return [self.info(path.parent.name)
                for path in sorted(self.root.glob(f"*/{MANIFEST_FILE}"))]

    def _manifest(self, snapshot_id: str) -> dict:
        path = self.root / snapshot_id / MANIFEST_FILE
        if not path.exists():
            raise SnapshotError(f"no snapshot {snapshot_id!r} in {self.root}")
        manifest = json.loads(path.read_text())
        if manifest.get("schema") != SNAPSHOT_SCHEMA:
            raise SnapshotError(
                f"{path}: unsupported snapshot schema "
                f"{manifest.get('schema')!r}"
            )
        return manifest

    def info(self, snapshot_id: str) -> SnapshotInfo:
        """Manifest summary of one snapshot."""
        manifest = self._manifest(snapshot_id)
        return SnapshotInfo(
            snapshot_id=snapshot_id,
            directory=self.root / snapshot_id,
            files=manifest["count"],
            size_bytes=manifest["size_bytes"],
            sequences=dict(manifest.get("sequences", {})),
        )

    # -- verify --------------------------------------------------------------

    def verify(self, snapshot_id: str) -> list[str]:
        """Re-hash the archived payload against the manifest.

        Returns the list of problems (empty = the snapshot is intact).
        """
        manifest = self._manifest(snapshot_id)
        expected = dict(manifest["files"])
        found: list[str] = []
        payload = self.root / snapshot_id / PAYLOAD_FILE
        if not payload.exists():
            return [f"{snapshot_id}: missing {PAYLOAD_FILE}"]
        with tarfile.open(payload, "r:gz") as archive:
            for member in archive:
                if not member.isfile():
                    continue
                entry = expected.pop(member.name, None)
                if entry is None:
                    found.append(f"{member.name}: not in manifest")
                elif _sha256(archive.extractfile(member)) != entry["sha256"]:
                    found.append(f"{member.name}: sha256 mismatch")
                elif member.size != entry["size"]:
                    found.append(f"{member.name}: size mismatch")
        for missing in sorted(expected):
            found.append(f"{missing}: missing from payload")
        return found

    def verify_against(self, snapshot_id: str, data_dir: str | Path) -> list[str]:
        """Diff a live data directory against the snapshot manifest.

        This is the corruption check: a flipped byte in any archived
        segment shows up as a sha256 mismatch.  Files appended after the
        snapshot are reported as drift, not corruption.
        """
        return problems(data_dir, self._manifest(snapshot_id)["files"],
                        grown_ok=True)

    # -- restore -------------------------------------------------------------

    def restore(
        self,
        snapshot_id: str,
        target_dir: str | Path,
        to_sequence: int | dict[str, int] | None = None,
    ) -> RestoreReport:
        """Extract a snapshot into an empty ``target_dir`` and verify it.

        ``to_sequence`` truncates the restored logs for point-in-time
        recovery: an int applies to every log, a mapping names each log's
        target.  Raises :class:`~repro.exceptions.SnapshotError` on any
        hash mismatch and :class:`~repro.exceptions.RecoveryError` for a
        target above what the snapshot ever committed.
        """
        manifest = self._manifest(snapshot_id)
        target = Path(target_dir)
        if target.exists() and any(target.iterdir()):
            raise SnapshotError(
                f"restore target {target} is not empty — refusing to mix "
                f"restored and live state"
            )
        target.mkdir(parents=True, exist_ok=True)
        payload = self.root / snapshot_id / PAYLOAD_FILE
        with tarfile.open(payload, "r:gz") as archive:
            for member in archive:
                name = Path(member.name)
                if name.is_absolute() or ".." in name.parts:
                    raise SnapshotError(
                        f"{snapshot_id}: unsafe member path {member.name!r}"
                    )
                if member.isfile():
                    try:
                        archive.extract(member, path=target, filter="data")
                    except TypeError:  # Python < 3.12 lacks extract filters
                        archive.extract(member, path=target)

        found = problems(target, manifest["files"])
        if found:
            raise SnapshotError(
                f"snapshot {snapshot_id!r} failed post-restore verification: "
                + "; ".join(found)
            )

        truncated = 0
        sequences: dict[str, int] = {}
        log_names = sorted(manifest.get("sequences", {}))
        for name in log_names:
            log_dir = target / name
            if not log_dir.is_dir():
                continue
            log = SegmentedLog(log_dir)
            if to_sequence is None:
                goal = None
            elif isinstance(to_sequence, dict):
                goal = to_sequence.get(name)
            else:
                goal = int(to_sequence)
            if goal is not None:
                if goal > log.sequence:
                    raise RecoveryError(
                        f"log {name!r} never committed sequence {goal} "
                        f"(snapshot stops at {log.sequence})"
                    )
                truncated += log.truncate_to(goal)
            sequences[name] = log.sequence
        return RestoreReport(
            snapshot_id=snapshot_id, target=target,
            files=manifest["count"], truncated_records=truncated,
            sequences=sequences,
        )
