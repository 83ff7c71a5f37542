"""Worker supervision policy: failure taxonomy, retries, signal drain.

The sweep engine treats every cell failure as a *classified* event
rather than a bare exception string.  The taxonomy (`FailureClass`)
mirrors what actually goes wrong in long campaigns:

``timeout``
    The cell exceeded its wall-clock grace (`--cell-timeout`); the
    watchdog killed and replaced the worker that was running it.
``crashed``
    The worker process died (segfault, ``os._exit``, kill -9): the
    executor reported a broken pool while the cell was running.
``oom``
    The cell raised :class:`MemoryError` — retried, but with the
    smallest budget, because OOM is usually deterministic.
``retryable``
    Any other exception raised by the runner.  Cells are pure
    functions, so most of these are deterministic too, but one retry
    catches the rare host-side flake (pickle hiccups, fd exhaustion).
``fatal``
    An error marked unretryable (:class:`FatalCellError` or a type
    listed in ``RetryPolicy.fatal_types``) — fails immediately.

Retries back off exponentially with *decorrelated jitter* (the AWS
architecture-blog variant: each delay is drawn uniformly from
``[base, prev * 3]`` and capped), so a burst of failing workers does
not thundering-herd the host.  Delays are a pure function of
``(key, attempt)`` — the policy seeds a private PRNG per draw — which
keeps resumed runs and tests deterministic.
"""

from __future__ import annotations

import random
import signal
import threading
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field


class SweepError(RuntimeError):
    """Base class for typed sweep-harness failures."""


class TooManyFailuresError(SweepError):
    """The ``--max-failures`` circuit breaker tripped.

    Raised after N cells failed terminally (retries exhausted or
    fatal-class), so a doomed matrix stops early instead of grinding
    through every remaining cell.  Carries the failed outcomes so
    callers can report what was salvaged before the trip.
    """

    def __init__(self, limit: int, failures):
        self.limit = limit
        self.failures = list(failures)
        by_class = {}
        for outcome in self.failures:
            cls = getattr(outcome, "failure_class", "") or "unknown"
            by_class[cls] = by_class.get(cls, 0) + 1
        detail = ", ".join(f"{k}={v}" for k, v in sorted(by_class.items()))
        super().__init__(
            f"circuit breaker: {len(self.failures)} cell failure(s) "
            f"reached the --max-failures limit of {limit} ({detail})"
        )


class CheckpointMismatchError(SweepError):
    """``--resume`` pointed at a checkpoint for a *different* sweep (or
    at a retired ``checkpoint/v1`` journal).

    Resuming against a mismatched cell grid would silently merge
    results from two experiments, so this is a hard error."""


class FatalCellError(Exception):
    """Marker for unretryable cell failures (classified ``fatal``)."""


#: The failure taxonomy, in rough order of "how surprised to be".
FAILURE_CLASSES = ("timeout", "crashed", "oom", "retryable", "fatal")

TIMEOUT = "timeout"
CRASHED = "crashed"
OOM = "oom"
RETRYABLE = "retryable"
FATAL = "fatal"


def classify_failure(exc, fatal_types=()) -> str:
    """Map an exception from a cell attempt onto the taxonomy."""
    if isinstance(exc, FatalCellError) or isinstance(exc, tuple(fatal_types)):
        return FATAL
    if isinstance(exc, BrokenExecutor):
        return CRASHED
    if isinstance(exc, MemoryError):
        return OOM
    return RETRYABLE


@dataclass(frozen=True)
class RetryPolicy:
    """Per-class attempt budgets + backoff schedule.

    ``retries`` is the legacy knob (extra attempts for ordinary runner
    exceptions); the per-class fields default relative to it so
    ``SweepEngine(retries=2)`` keeps meaning what it always meant.
    Budgets count *total attempts*, so ``retries=1`` = 2 attempts.
    """

    retries: int = 1
    #: Extra attempts per failure class; None = follow ``retries``.
    timeout_retries: int = None
    crashed_retries: int = None
    oom_retries: int = 1
    base_delay: float = 0.02
    max_delay: float = 1.0
    #: Exception types classified fatal (no retry) on top of
    #: :class:`FatalCellError`.
    fatal_types: tuple = ()

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")

    def max_attempts(self, failure_class: str) -> int:
        """Total attempts allowed for a cell failing in this class."""
        if failure_class == FATAL:
            return 1
        extra = {
            TIMEOUT: self.timeout_retries,
            CRASHED: self.crashed_retries,
            OOM: self.oom_retries,
        }.get(failure_class)
        if extra is None:
            extra = self.retries
        return 1 + extra

    def classify(self, exc) -> str:
        return classify_failure(exc, fatal_types=self.fatal_types)

    def delay(self, key, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (decorrelated jitter).

        Deterministic in ``(key, attempt)``: replaying the same failing
        cell produces the same schedule, so resumed runs and tests are
        reproducible.  Attempt numbering starts at 1.
        """
        if attempt < 1:
            raise ValueError("attempt numbering starts at 1")
        if self.base_delay == 0:
            return 0.0
        sleep = self.base_delay
        for step in range(1, attempt + 1):
            rng = random.Random(f"{key}:{step}")
            sleep = min(self.max_delay,
                        rng.uniform(self.base_delay, sleep * 3))
        return sleep


@dataclass
class AttemptRecord:
    """One failed attempt of one cell (kept for the outcome's post-mortem)."""

    attempt: int
    failure_class: str
    error: str
    delay_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "failure_class": self.failure_class,
            "error": self.error,
            "delay_s": round(self.delay_s, 4),
        }


@dataclass
class CellState:
    """Book-keeping the engine keeps per cell while it is in flight."""

    index: int
    attempts: int = 0           # attempts *started*
    history: list = field(default_factory=list)   # AttemptRecords
    resumed: bool = False
    #: Times this cell was requeued for free after a pool break it was
    #: (probably) not responsible for; a repeat offender is charged.
    crash_strikes: int = 0

    @property
    def last_class(self) -> str:
        return self.history[-1].failure_class if self.history else ""

    @property
    def last_error(self) -> str:
        return self.history[-1].error if self.history else ""


class SignalDrain:
    """Graceful SIGINT/SIGTERM handling for a long-running sweep.

    First signal: set ``requested`` — the engine stops launching new
    cells, drains the ones in flight (each is checkpointed as it lands),
    and emits a partial report marked ``interrupted``.  Second signal:
    hard stop (``KeyboardInterrupt`` out of the main loop; ``finally``
    blocks still run, so workers are reaped).

    Handlers are only installed from the main thread (Python restricts
    ``signal.signal`` to it) and always restored on exit, so nesting a
    sweep inside a larger application never leaks handlers.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, on_signal=None):
        self.requested = False
        self.signal_count = 0
        self.signal_name = ""
        self._previous = {}
        self._installed = False
        self._on_signal = on_signal

    def _handle(self, signum, frame):
        self.signal_count += 1
        self.signal_name = signal.Signals(signum).name
        self.requested = True
        if self._on_signal is not None:
            self._on_signal(self.signal_name, self.signal_count)
        if self.signal_count >= 2:
            raise KeyboardInterrupt(
                f"second {self.signal_name}: hard stop"
            )

    def __enter__(self):
        if threading.current_thread() is threading.main_thread():
            for signum in self.SIGNALS:
                self._previous[signum] = signal.signal(signum, self._handle)
            self._installed = True
        return self

    def __exit__(self, *exc):
        if self._installed:
            for signum, previous in self._previous.items():
                signal.signal(signum, previous)
            self._installed = False
        return False
