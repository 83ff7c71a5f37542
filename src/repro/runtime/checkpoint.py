"""``checkpoint/v2``: a sweep's completed cells as a local result store.

A checkpoint directory is a strict local ``store/v1`` (see
:mod:`repro.runtime.store`) plus one small manifest naming the sweep
it belongs to::

    <dir>/checkpoint.json                  {"schema": "checkpoint/v2",
                                            "fingerprint": "<sha256>",
                                            "total_cells": N}
    <dir>/objects/<key[:2]>/<key>.json     one store/v1 entry per cell

Every *successfully completed* cell is published as a store entry
under its content-addressed key (:func:`cell_key`), so ``--resume``:

* serves every cell whose entry is present (restoring its exact
  :class:`~repro.sim.sweep.CellOutcome`, result object included), and
* re-runs everything else — failed cells are deliberately *not*
  published, so a resume retries them.

Because a cell's result is a pure function of its key, the merged
(resumed + fresh) results are bit-identical to an uninterrupted run.
Entries are written with the atomic tmp+fsync+rename recipe, so a
crash leaves whole entries or none; a corrupt entry is quarantined and
its cell recomputed.  Unlike a shared ``--store``, a checkpoint never
degrades: an I/O error raises, because a checkpoint that silently
stops recording would defeat the resume it exists for.

The manifest's fingerprint is checked on resume; a mismatch raises
:class:`CheckpointMismatchError` instead of merging two experiments.
A ``checkpoint/v1`` directory (a ``journal.jsonl`` journal, no
manifest) is refused with the same error and a note on how to start
over.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from repro.runtime.atomic import atomic_write_json
from repro.runtime.store import ResultStore
from repro.runtime.supervision import CheckpointMismatchError

SCHEMA_VERSION = "checkpoint/v2"
MANIFEST_NAME = "checkpoint.json"
#: The retired ``checkpoint/v1`` journal, recognised only to refuse it.
V1_JOURNAL_NAME = "journal.jsonl"


def _canonical(obj):
    """JSON-able canonical form of a cell description.

    Dataclasses become ``{"__type__": name, fields...}`` so two
    different description types with the same field values cannot
    collide; tuples/lists/dicts/sets recurse; numpy scalars reduce to
    Python numbers via ``item()``; callables contribute their qualified
    name (cells sometimes carry factory references).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(),
                                                         key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_canonical(v) for v in obj), key=str)
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": bytes(obj).hex()}
    if callable(obj):
        return {"__callable__": f"{getattr(obj, '__module__', '?')}."
                                f"{getattr(obj, '__qualname__', repr(obj))}"}
    if hasattr(obj, "item") and not isinstance(obj, (str, int, float, bool)):
        try:
            return obj.item()   # numpy scalar
        except (TypeError, ValueError):
            pass
    return obj


def cell_key(cell, runner=None) -> str:
    """Content-addressed key: sha256 of the canonical cell description.

    The runner's identity is mixed in so e.g. a perf cell and a
    campaign cell that happen to serialize identically can never
    satisfy each other's checkpoint.
    """
    payload = {"cell": _canonical(cell)}
    if runner is not None:
        payload["runner"] = (f"{getattr(runner, '__module__', '?')}."
                             f"{getattr(runner, '__qualname__', repr(runner))}")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_fingerprint(keys) -> str:
    """Identity of a whole sweep: sha256 over the sorted cell keys."""
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(key.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def load_manifest(path, schema: str, fingerprint: str = None, *,
                  error=CheckpointMismatchError,
                  holder: str = "checkpoint holds sweep",
                  action: str = "merge"):
    """The JSON manifest at ``path``, or ``None`` when there is none.

    The one "manifest matches or refuse" check behind both the
    ``checkpoint/v2`` manifest and the ``queue/v1`` campaign manifest:
    an unreadable file, a foreign schema, or (given ``fingerprint``) a
    different sweep raises ``error`` rather than letting two
    experiments merge.
    """
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise error(f"{path}: unreadable manifest ({exc})")
    if manifest.get("schema") != schema:
        raise error(f"{path}: schema {manifest.get('schema')!r} != {schema}")
    if fingerprint is not None and manifest.get("fingerprint") != fingerprint:
        raise error(
            f"{path}: {holder} "
            f"{str(manifest.get('fingerprint', '?'))[:12]}…, caller built "
            f"{fingerprint[:12]}… (cell grid, seed, or runner changed); "
            f"refusing to {action}"
        )
    return manifest


class CheckpointStore(ResultStore):
    """A strict local :class:`~repro.runtime.store.ResultStore`.

    Same entries, same verification and quarantine, but no degraded
    mode: every I/O error propagates.  It keeps a private registry, so
    checkpoint hits show up only as resumed cells, never in the
    ``runtime.store.*`` counters of the shared store.
    """

    def _degrade(self, reason: str) -> None:
        # Every caller is an ``except OSError`` block: re-raise it.
        raise


def open_checkpoint(directory, fingerprint: str, total_cells: int, *,
                    resume: bool = False) -> CheckpointStore:
    """The checkpoint of one sweep in ``directory``.

    ``resume=True`` requires an existing manifest to carry
    ``fingerprint``; a missing or empty directory starts fresh.  A
    non-resume open overwrites the manifest (the engine then reads no
    entry, so every cell runs again).
    """
    directory = os.fspath(directory)
    path = os.path.join(directory, MANIFEST_NAME)
    manifest = None
    if resume:
        manifest = load_manifest(path, SCHEMA_VERSION, fingerprint)
        if (manifest is None and os.path.exists(
                os.path.join(directory, V1_JOURNAL_NAME))):
            raise CheckpointMismatchError(
                f"{directory}: holds a checkpoint/v1 journal "
                f"({V1_JOURNAL_NAME}), which this version no longer "
                "reads; rerun with --checkpoint on a fresh directory "
                "(or without --resume) to recompute its cells"
            )
    store = CheckpointStore(directory)
    if manifest is None:
        atomic_write_json(path, {
            "schema": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "total_cells": total_cells,
        })
    return store
