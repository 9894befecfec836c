"""A disk that fails on cue, for fault-injection tests.

:class:`DiskFaults` patches every mutating filesystem call under one
directory and fails the ``fail_at``-th of them with ``ENOSPC`` — once,
or, with ``crash=True``, for good.  A log keeps its append handle across
calls, so a handle a log opened before the patch is counted too.
"""

import errno
import gc
import os
import shutil
from pathlib import Path

from repro.storage.segment import SegmentedLog


class DiskFaults:
    """Counts every mutating filesystem call under ``root`` — ``open`` for
    append or write, a handle's ``write`` and ``truncate``, ``unlink``,
    ``rename``, ``os.replace``, ``os.truncate``, ``write_text`` /
    ``write_bytes``, ``rmtree`` — and fails the ``fail_at``-th with
    ``ENOSPC``.  A write counts twice: it fails before any byte lands, or
    after landing half of them; any other call does nothing.  ``crash=True``
    fails every later call too (the process is gone, its clean-up
    included); otherwise the fault happens once and the process carries
    on."""

    def __init__(self, patch, root, fail_at=None, crash=False):
        self.root, self.fail_at, self.crash = Path(root), fail_at, crash
        self.calls = 0
        self._inside = False  # write_text opens its own file: one call, not two
        self.active = False  # True while the patch is on (undone with it)
        patch.setattr(self, "active", True)
        real_open = Path.open

        def open_(path, mode="r", *args, **kwargs):
            if not set(mode) & set("wax+") or not self._counts(path):
                return real_open(path, mode, *args, **kwargs)
            self.step()
            return _FaultyHandle(self, real_open(path, mode, *args, **kwargs))

        def whole_file(real):
            def write(path, data, *args, **kwargs):
                if not self._counts(path):
                    return real(path, data, *args, **kwargs)
                self._inside = True
                try:
                    self.step()
                    self.step(lambda: real(
                        path, data[:len(data) // 2], *args, **kwargs))
                    return real(path, data, *args, **kwargs)
                finally:
                    self._inside = False
            return write

        patch.setattr(Path, "open", open_)
        patch.setattr(Path, "write_text", whole_file(Path.write_text))
        patch.setattr(Path, "write_bytes", whole_file(Path.write_bytes))
        for owner, name in ((Path, "unlink"), (Path, "rename"), (os, "replace"),
                            (os, "truncate"), (shutil, "rmtree")):
            patch.setattr(owner, name, self._guarded(getattr(owner, name)))
        # A handle opened before the patch: wrap it where its log holds it.
        for log in gc.get_objects():
            if (isinstance(log, SegmentedLog) and log._handle is not None
                    and self._counts(log._active)):
                log._handle = _FaultyHandle(self, log._handle)

    def _counts(self, path) -> bool:
        return not self._inside and self.root in Path(path).parents

    def step(self, half=None) -> None:
        """Count one call; fail it — after ``half`` of its work — if due."""
        self.calls += 1
        if self.fail_at is None or self.calls < self.fail_at:
            return
        if self.calls == self.fail_at and half is not None:
            half()
        if self.calls == self.fail_at or self.crash:
            raise OSError(errno.ENOSPC, "No space left on device")

    def _guarded(self, real):
        def call(path, *args, **kwargs):
            if self._counts(path):
                self.step()
            return real(path, *args, **kwargs)
        return call


class _FaultyHandle:
    """A file written under :class:`DiskFaults`; once the patch is undone,
    a handle its log kept writes through uncounted."""

    def __init__(self, faults, handle):
        self._faults, self._handle = faults, handle

    def write(self, data):
        def half():
            self._handle.write(data[:len(data) // 2])
            self._handle.flush()
        if self._faults.active:
            self._faults.step()
            self._faults.step(half)
        return self._handle.write(data)

    def truncate(self, size=None):
        if self._faults.active:
            self._faults.step()
        return self._handle.truncate(size)

    def close(self):
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()
