"""Crash-safe artifact writing: tmp file + fsync + atomic rename.

Every JSON report, benchmark payload, CSV figure, and checkpoint or
store entry the toolkit emits goes through this module, so a power cut (or
an OOM kill, or an operator Ctrl-C) mid-write can never leave a torn
half-file behind: readers observe either the complete old contents or
the complete new contents, nothing in between.

The recipe is the standard POSIX one:

1. write the payload to ``<path>.<pid>.tmp`` in the *same directory*
   (``os.replace`` is only atomic within a filesystem);
2. ``flush`` + ``os.fsync`` the temp file so the bytes are durable
   before the rename publishes them;
3. ``os.replace`` the temp file over the destination (atomic on POSIX
   and Windows);
4. best-effort ``fsync`` the containing directory so the rename itself
   survives a crash (skipped on platforms that refuse directory fds).

``_FailpointWriter`` injects crashes between those steps for the
crash-safety tests — production code never enables it.
"""

from __future__ import annotations

import itertools
import json
import os

#: Per-process monotonic suffix so concurrent writers *within* one
#: process (threads, nested engines) cannot collide on a temp name the
#: way the pid suffix already prevents across processes.
_tmp_counter = itertools.count()


class SimulatedCrashError(RuntimeError):
    """Raised by test failpoints standing in for a power cut / kill -9.

    Production code never raises this; harness tests inject it at
    chosen points (mid-write, before a checkpoint entry's rename) and
    then assert that every artifact on disk still parses and that a
    resumed run converges to the uninterrupted result.
    """


#: Process-global failpoint hook for tests: a callable invoked with a
#: site label (``"tmp_written"``, ``"before_rename"``, ...) before each
#: step of the atomic publish; it may raise ``SimulatedCrashError``.
_failpoint = None


def _hit_failpoint(site: str) -> None:
    if _failpoint is not None:
        _failpoint(site)


def set_failpoint(hook) -> None:
    """Install (or clear, with ``None``) the test-only crash hook."""
    global _failpoint
    _failpoint = hook


def fsync_directory(path) -> None:
    """Best-effort fsync of a directory so renames inside it persist."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path, text: str) -> str:
    """Durably replace ``path`` with ``text``; returns the path.

    The temp file lives next to the destination and carries the pid,
    so two processes writing the same artifact cannot collide on the
    temp name, and a crash leaves at worst a stale ``*.tmp`` file —
    never a torn destination.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = f"{path}.{os.getpid()}.{next(_tmp_counter)}.tmp"
    fh = open(tmp, "w")
    try:
        try:
            fh.write(text)
            _hit_failpoint("tmp_written")
            fh.flush()
            os.fsync(fh.fileno())
        finally:
            fh.close()
        _hit_failpoint("before_rename")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_directory(directory)
    return path


def atomic_write_json(path, payload, indent: int = 2,
                      sort_keys: bool = True) -> str:
    """Durably replace ``path`` with ``payload`` as sorted-key JSON.

    Sorted keys + fixed indent keep the byte stream a pure function of
    the payload, which is what lets CI diff two reports for
    bit-equality.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text)
