"""Deterministic op-sequence executor for verification replay.

One op vocabulary — plain JSON dicts — is shared by three consumers:

* the Hypothesis stateful test drives a :class:`ReplayContext` with
  generated ops and, on failure, serializes the shrunk sequence;
* shrunk failures checked into ``tests/corpus/`` replay forever as
  regression tests via :func:`load_case` + :func:`run_ops`;
* ``repro verify --replay case.json`` re-runs a case from the shell.

Ops::

    {"op": "write", "block": 3, "data": 17}      # data: int token or hex
    {"op": "read", "block": 3}
    {"op": "flush"}
    {"op": "scrub"}
    {"op": "tree_check"}                          # mid-run oracle audit
    {"op": "fault", "target": "counter", "rank": 2}
    {"op": "crash_recover"}
    {"op": "rekey"}

The context keeps a :class:`~repro.verify.VerifySession` attached for
the whole sequence (rebound across crash/recovery), so every replay is
oracle-checked: a fault is allowed to surface as a typed error on a
later op — never as wrong bytes.  Fault sites are named by
``(region, rank)`` against the deterministic
:func:`~repro.faults.region_addresses` order, so a serialized case
lands its damage on the same block every time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.controller import RecoveryError, SecureMemoryError
from repro.core import make_controller
from repro.faults.injector import INJECTION_TARGETS, region_addresses
from repro.recovery import recover_image
from repro.schemes import resolve_scheme
from repro.verify import VerificationError, VerifySession

KB = 1024

OP_KINDS = (
    "write", "read", "flush", "scrub", "tree_check", "fault",
    "crash_recover", "rekey",
)


@dataclass(frozen=True)
class ReplayConfig:
    """Controller shape for one replayable op sequence."""

    scheme: str = "src"
    integrity_mode: str = "toc"
    data_bytes: int = 16 * KB
    metadata_cache_bytes: int = 1 * KB
    seed: int = 0

    def __post_init__(self):
        scheme = resolve_scheme(self.scheme)
        object.__setattr__(self, "scheme", scheme.name)
        object.__setattr__(self, "integrity_mode",
                           scheme.effective_integrity_mode(self.integrity_mode))


def expand_data(value) -> bytes:
    """64 data bytes from a compact JSON token (int or hex string)."""
    if isinstance(value, int):
        return value.to_bytes(8, "little", signed=False) * 8
    raw = bytes.fromhex(value)
    return (raw + bytes(64))[:64]


class ReplayContext:
    """Executes one op sequence under full differential verification."""

    def __init__(self, config: ReplayConfig):
        self.config = config
        self.controller = make_controller(
            config.scheme,
            config.data_bytes,
            metadata_cache_bytes=config.metadata_cache_bytes,
            functional_crypto=True,
            quarantine=True,
            integrity_mode=config.integrity_mode,
            rng=np.random.default_rng(config.seed),
        )
        self.session = VerifySession(self.controller).attach()
        self.num_blocks = self.controller.num_data_blocks
        self.faults_injected = 0
        self.typed_errors = 0
        self.ops_applied = 0
        self.dead = False          # recovery failed; later ops skip

    # -- op execution ---------------------------------------------------

    def apply(self, op: dict) -> str:
        """Run one op; returns its outcome tag.

        Typed :class:`SecureMemoryError` outcomes are legitimate once a
        fault has been injected; before any fault they mean the
        simulator broke on a clean history and fail the replay.
        """
        kind = op["op"]
        if kind not in OP_KINDS:
            raise ValueError(f"unknown replay op {kind!r}")
        if self.dead and kind != "tree_check":
            return "skipped"
        self.ops_applied += 1
        handler = getattr(self, f"_op_{kind}")
        try:
            return handler(op)
        except SecureMemoryError as exc:
            if not self.faults_injected:
                raise VerificationError(
                    f"typed error on a fault-free history: "
                    f"{type(exc).__name__} during {op!r}"
                ) from exc
            self.typed_errors += 1
            return f"typed:{type(exc).__name__}"

    def _op_write(self, op) -> str:
        self.controller.write(
            op["block"] % self.num_blocks, expand_data(op.get("data", 0))
        )
        return "ok"

    def _op_read(self, op) -> str:
        self.controller.read(op["block"] % self.num_blocks)
        return "ok"

    def _op_flush(self, op) -> str:
        self.controller.flush()
        return "ok"

    def _op_scrub(self, op) -> str:
        from repro.controller.scrubber import MetadataScrubber

        MetadataScrubber(self.controller, interval=0).scrub()
        return "ok"

    def _op_tree_check(self, op) -> str:
        if self.session.oracle is not None and not self.dead:
            self.session.oracle.check_tree()
        return "ok"

    def _op_fault(self, op) -> str:
        target = op.get("target", "counter")
        if target not in INJECTION_TARGETS:
            raise ValueError(f"unknown fault target {target!r}")
        addresses = region_addresses(self.controller, target)
        if not addresses:
            # Small estates have no blocks in some regions (e.g. a
            # one-level tree): the fault has nowhere to land.
            return "no_target"
        address = addresses[op.get("rank", 0) % len(addresses)]
        nvm = self.controller.nvm
        nvm.flip_bits(
            address, [(op.get("rank", 0) * 7 + 1) % (nvm.block_size * 8)]
        )
        nvm.poison_block(address)
        self.faults_injected += 1
        return "ok"

    def _op_crash_recover(self, op) -> str:
        self.session.detach()
        image = self.controller.crash()
        try:
            recovered, _ = recover_image(image)
        except (RecoveryError, SecureMemoryError) as exc:
            if not self.faults_injected:
                raise VerificationError(
                    "recovery failed after a clean power cut: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            self.dead = True
            self.typed_errors += 1
            return f"recovery_failed:{type(exc).__name__}"
        self.controller = recovered
        self.session.rebind(recovered)
        return "ok"

    def _op_rekey(self, op) -> str:
        self.controller.rekey(rng=np.random.default_rng(self.config.seed + 1))
        return "ok"

    # -- reporting ------------------------------------------------------

    def finish(self, raise_on_failure: bool = True) -> dict:
        """Final oracle sweeps; returns the ``verify/v1`` replay report."""
        if self.dead:
            self.session.detach()
            verify = self.session.report()
        else:
            verify = self.session.finish(raise_on_failure=raise_on_failure)
        return {
            "schema": "verify/v1",
            "kind": "replay",
            "config": asdict(self.config),
            "ops_applied": self.ops_applied,
            "faults_injected": self.faults_injected,
            "typed_errors": self.typed_errors,
            "recovery_dead": self.dead,
            "ok": verify["ok"],
            "verify": verify,
        }


def run_ops(config: ReplayConfig, ops, raise_on_failure: bool = True) -> dict:
    """Execute ``ops`` from scratch; returns the replay report."""
    context = ReplayContext(config)
    outcomes = []
    for op in ops:
        outcomes.append({"op": op, "outcome": context.apply(op)})
    report = context.finish(raise_on_failure=raise_on_failure)
    report["outcomes"] = outcomes
    return report


# ----------------------------------------------------------------------
# corpus serialization


def save_case(path, config: ReplayConfig, ops, note: str = "") -> str:
    """Serialize one replayable case (the shrunk-failure format)."""
    payload = {
        "schema": "verify/v1",
        "kind": "replay_case",
        "note": note,
        "config": asdict(config),
        "ops": list(ops),
    }
    from repro.runtime import atomic_write_json

    atomic_write_json(path, payload)
    return str(path)


def load_case(path):
    """Load a serialized case: ``(ReplayConfig, ops, note)``."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("kind") != "replay_case":
        raise ValueError(f"{path}: not a replay_case file")
    return (
        ReplayConfig(**payload["config"]),
        list(payload["ops"]),
        payload.get("note", ""),
    )
