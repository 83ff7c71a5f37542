"""Preemption-tolerant campaign runtime.

Resilience primitives shared by every long-running harness in the
repo: crash-safe artifact writing (:mod:`repro.runtime.atomic`),
checkpoint/resume (:mod:`repro.runtime.checkpoint`), worker
supervision — failure taxonomy, retry policy with decorrelated jitter,
graceful signal draining (:mod:`repro.runtime.supervision`) — and the
multi-host fleet substrate: a content-addressed shared result store
(:mod:`repro.runtime.store`) and a lease-based work queue
(:mod:`repro.runtime.queue`).
:class:`repro.sim.SweepEngine` and the chaos campaign runner are built
on top of this package.
"""

from repro.runtime.atomic import (
    SimulatedCrashError,
    atomic_write_json,
    atomic_write_text,
    fsync_directory,
    set_failpoint,
)
from repro.runtime.checkpoint import (
    SCHEMA_VERSION as CHECKPOINT_SCHEMA,
    cell_key,
    sweep_fingerprint,
)
from repro.runtime.queue import (
    LEASE_SCHEMA,
    QUEUE_SCHEMA,
    DEFAULT_LEASE_TTL,
    Lease,
    QueueMismatchError,
    WorkQueue,
    default_owner_id,
    register_lease_instruments,
)
from repro.runtime.store import (
    STORE_SCHEMA,
    ResultStore,
    register_store_instruments,
)
from repro.runtime.supervision import (
    FAILURE_CLASSES,
    AttemptRecord,
    CheckpointMismatchError,
    FatalCellError,
    RetryPolicy,
    SignalDrain,
    SweepError,
    TooManyFailuresError,
    classify_failure,
)

__all__ = [
    "AttemptRecord",
    "CHECKPOINT_SCHEMA",
    "CheckpointMismatchError",
    "DEFAULT_LEASE_TTL",
    "FAILURE_CLASSES",
    "FatalCellError",
    "LEASE_SCHEMA",
    "Lease",
    "QUEUE_SCHEMA",
    "QueueMismatchError",
    "ResultStore",
    "RetryPolicy",
    "STORE_SCHEMA",
    "SignalDrain",
    "SimulatedCrashError",
    "SweepError",
    "TooManyFailuresError",
    "WorkQueue",
    "atomic_write_json",
    "atomic_write_text",
    "cell_key",
    "classify_failure",
    "default_owner_id",
    "fsync_directory",
    "register_lease_instruments",
    "register_store_instruments",
    "set_failpoint",
    "sweep_fingerprint",
]
