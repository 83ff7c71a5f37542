"""Online resilience campaigns: inject, scrub, audit, report.

A campaign sweeps fault targets x cloning policies x scrub intervals and
drives each combination through the same seeded workload while a
:class:`~repro.faults.injector.FaultInjector` poisons live NVM blocks
and a :class:`~repro.controller.MetadataScrubber` repairs them in the
background.  At the end every written block is audited against a golden
mirror, enforcing the paper's central resilience obligation:

    **No silent corruption.**  Every injected DUE must be transparently
    repaired (clone promotion, sidecar rebuild, scrubbing), raised as a
    typed :class:`~repro.controller.SecureMemoryError`, or listed in
    the quarantine report — never returned to the caller as valid data.

The audit classifies each block as ``intact`` (matches the mirror),
``data_due`` (its own cells took the DUE — the paper's L_error),
``quarantined`` / ``unverifiable`` (metadata loss — L_unverifiable), or
a *violation* (wrong bytes returned without an exception).  Violations
fail the campaign with :class:`SilentCorruptionError`.

The per-run fraction of unverifiable bytes is the *empirical* UDR; the
report places it next to the analytical model of
:mod:`repro.analysis.udr` evaluated at the same effective per-block DUE
probability.  Everything is derived from ``CampaignConfig.seed``, so a
report is bit-reproducible (``to_json`` is deterministic).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.analysis.udr import compute_udr, scheme_depths
from repro.controller import (
    DataPoisonedError,
    IntegrityError,
    MetadataScrubber,
    QuarantinedError,
    SecureMemoryError,
)
from repro.core import make_controller
from repro.faults.injector import INJECTION_TARGETS, FaultInjector
from repro.schemes import PAPER_SCHEMES, reference_scheme, resolve_scheme
from repro.telemetry import SCHEMA_VERSION as TELEMETRY_SCHEMA
from repro.verify.audit import audit_mirror


class SilentCorruptionError(AssertionError):
    """The resilience invariant was violated: a read returned wrong
    data without raising.  Subclasses AssertionError because this is a
    harness-level contract failure, not a modeled device error."""


@dataclass
class CampaignConfig:
    """One campaign sweep.  All randomness derives from ``seed``."""

    data_bytes: int = 64 * 1024
    ops: int = 3000                  # workload operations per run
    write_fraction: float = 0.3      # remainder are reads
    num_faults: int = 6              # injected events per run
    horizon_fraction: float = 0.6    # faults arrive in the first X ops
    seed: int = 2021
    schemes: tuple = PAPER_SCHEMES
    targets: tuple = ("counter", "tree", "counter_mac")
    scrub_intervals: tuple = (0, 250)   # 0 = no background scrubbing
    scrub_max_retries: int = 3
    scrub_backoff: int = 2
    mode: str = "direct"             # or "ecc" (see FaultInjector)
    metadata_cache_bytes: int = 4 * 1024
    enforce_invariant: bool = True
    #: Attach the differential oracle (:class:`repro.verify.Oracle`) to
    #: every run; oracle divergences are folded into ``violations`` and
    #: fail the campaign like any silent corruption.
    oracle: bool = False

    def __post_init__(self):
        if self.ops < 1:
            raise ValueError("ops must be >= 1")
        if not 0 < self.horizon_fraction <= 1:
            raise ValueError("horizon_fraction must be in (0, 1]")
        if not 0 <= self.write_fraction <= 1:
            raise ValueError("write_fraction must be in [0, 1]")
        # Canonicalise through the registry: aliases collapse to their
        # scheme's name and unknown schemes fail with the uniform error.
        self.schemes = tuple(
            resolve_scheme(scheme).name for scheme in self.schemes
        )
        unknown = [t for t in self.targets if t not in INJECTION_TARGETS]
        if unknown:
            raise ValueError(
                f"unknown targets {unknown}; valid: {INJECTION_TARGETS}"
            )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["schemes"] = list(self.schemes)
        out["targets"] = list(self.targets)
        out["scrub_intervals"] = list(self.scrub_intervals)
        return out


@dataclass
class RunResult:
    """Outcome of one (scheme, target, scrub interval) run."""

    scheme: str
    target: str
    scrub_interval: int
    seed: int
    injector: dict = field(default_factory=dict)
    run_errors: dict = field(default_factory=dict)   # typed errors mid-run
    audit: dict = field(default_factory=dict)        # final classification
    violations: list = field(default_factory=list)   # silent-corruption blocks
    stats: dict = field(default_factory=dict)
    quarantine: list = field(default_factory=list)
    recovery: str = ""               # shadow target: crash/recover outcome
    empirical_udr: float = 0.0
    oracle: dict = None              # differential-oracle summary, if on

    @property
    def invariant_ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        out = asdict(self)
        out["invariant_ok"] = self.invariant_ok
        return out


@dataclass
class CampaignReport:
    """Aggregated campaign outcome (JSON-stable)."""

    config: dict
    runs: list = field(default_factory=list)      # RunResult dicts
    schemes: dict = field(default_factory=dict)   # per-scheme summary
    resilience: dict = field(default_factory=dict)
    invariant_ok: bool = True
    #: True when the campaign was drained early (SIGINT/SIGTERM): the
    #: report then covers only the salvaged runs.
    interrupted: bool = False
    #: Per-class completion counts (total/completed/resumed/failed/
    #: interrupted) from :func:`repro.sim.salvage_counts`.
    salvage: dict = field(default_factory=dict)
    #: Runtime-telemetry snapshot from the sweep engine (retries,
    #: worker restarts, cells resumed, ...).
    runtime: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "telemetry_schema": TELEMETRY_SCHEMA,
            "config": self.config,
            "runs": self.runs,
            "schemes": self.schemes,
            "resilience": self.resilience,
            "invariant_ok": self.invariant_ok,
            "interrupted": self.interrupted,
            "salvage": self.salvage,
            "runtime": self.runtime,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# single run


def _run_seed(config: CampaignConfig, scheme: str, target: str,
              scrub_interval: int) -> int:
    """Stable per-run seed: a pure function of the config seed and the
    sweep point, so adding or reordering sweep axes never reshuffles the
    randomness of unrelated runs."""
    mix = f"{scheme}/{target}/{scrub_interval}"
    digest = 0
    for ch in mix:
        digest = (digest * 131 + ord(ch)) % 1_000_003
    return config.seed * 1_000_003 + digest


def run_single(
    config: CampaignConfig, scheme: str, target: str, scrub_interval: int
) -> RunResult:
    """One fully-seeded injection run; see the module docstring."""
    seed = _run_seed(config, scheme, target, scrub_interval)
    rng = np.random.default_rng(seed)
    ctrl = make_controller(
        scheme,
        config.data_bytes,
        functional_crypto=True,
        quarantine=True,
        metadata_cache_bytes=config.metadata_cache_bytes,
        rng=np.random.default_rng(seed + 1),
    )
    num_blocks = ctrl.num_data_blocks
    block_size = ctrl.nvm.block_size

    oracle = None
    if config.oracle:
        from repro.verify import Oracle

        oracle = Oracle(ctrl).attach()

    # Prefill every block so all metadata regions carry real state, then
    # flush so the injector's touched-only candidates span the layout.
    mirror = {}
    for block in range(num_blocks):
        data = bytes(rng.integers(0, 256, size=block_size, dtype=np.uint8))
        ctrl.write(block, data)
        mirror[block] = data
    ctrl.flush()

    injector = FaultInjector(
        ctrl,
        targets=(target,),
        seed=seed + 2,
        num_faults=config.num_faults,
        horizon_ops=max(1, int(config.ops * config.horizon_fraction)),
        mode=config.mode,
    )
    scrubber = None
    if scrub_interval > 0:
        scrubber = MetadataScrubber(
            ctrl,
            interval=scrub_interval,
            max_retries=config.scrub_max_retries,
            backoff=config.scrub_backoff,
        )

    run_errors = {"data_due": 0, "quarantined": 0, "integrity": 0}
    violations = []
    for op in range(config.ops):
        injector.poll(op)
        if scrubber is not None:
            scrubber.tick(1)
        block = int(rng.integers(0, num_blocks))
        is_write = bool(rng.random() < config.write_fraction)
        data = None
        if is_write:
            data = bytes(
                rng.integers(0, 256, size=block_size, dtype=np.uint8)
            )
        try:
            if is_write:
                ctrl.write(block, data)
                mirror[block] = data
            else:
                got = ctrl.read(block).data
                if got != mirror[block]:
                    violations.append({"phase": "run", "op": op,
                                       "block": block})
        except DataPoisonedError:
            run_errors["data_due"] += 1
        except QuarantinedError:
            run_errors["quarantined"] += 1
        except IntegrityError:
            run_errors["integrity"] += 1

    injector.drain()
    if scrubber is not None:
        # Let retry/backoff run to a verdict so every still-dead node is
        # either repaired or quarantined before the audit.
        scrubber.settle()

    recovery = ""
    if target == "shadow":
        # Shadow-table damage only matters across a power cycle: crash
        # and run Anubis recovery, then audit the recovered controller.
        # The oracle detaches first — the audit below compares against
        # the mirror itself, and crash() invalidates the old controller.
        if oracle is not None:
            oracle.detach()
        from repro.recovery import recover_image

        image = ctrl.crash()
        try:
            ctrl, _ = recover_image(image)
            recovery = "recovered"
        except SecureMemoryError as exc:
            recovery = f"failed:{type(exc).__name__}"
            ctrl = None

    audit, audit_violations = audit_mirror(ctrl, mirror)
    violations.extend(audit_violations)

    oracle_summary = None
    if oracle is not None:
        if oracle.attached:
            oracle.check_tree()
            oracle.detach()
        oracle_summary = oracle.summary()
        if oracle.divergence_count:
            violations.append({
                "phase": "oracle", "op": -1,
                "divergences": oracle.divergence_count,
                "kinds": sorted({r["kind"] for r in oracle.records}),
            })

    unverifiable_blocks = audit["quarantined"] + audit["unverifiable"]
    stats_src = ctrl.stats if ctrl is not None else None
    quarantine_entries = []
    if ctrl is not None and ctrl.quarantine is not None:
        quarantine_entries = ctrl.quarantine.report()
    return RunResult(
        scheme=scheme,
        target=target,
        scrub_interval=scrub_interval,
        seed=seed,
        injector=injector.summary(),
        run_errors=run_errors,
        audit=audit,
        violations=violations,
        stats={
            "clone_repairs": stats_src.clone_repairs,
            "sidecar_repairs": stats_src.sidecar_repairs,
            "integrity_failures": stats_src.integrity_failures,
            "quarantined_nodes": stats_src.quarantined_nodes,
            "quarantined_bytes": stats_src.quarantined_bytes,
            "quarantined_accesses": stats_src.quarantined_accesses,
            "scrub_passes": stats_src.scrub_passes,
            "scrub_repairs": stats_src.scrub_repairs,
        } if stats_src is not None else {},
        quarantine=quarantine_entries,
        recovery=recovery,
        empirical_udr=unverifiable_blocks * block_size / (
            len(mirror) * block_size
        ),
        oracle=oracle_summary,
    )


# ----------------------------------------------------------------------
# sweep


def _campaign_cell(cell):
    """Module-level runner so campaign cells can cross process
    boundaries (every run is seeded by :func:`_run_seed`, so parallel
    execution is bit-identical to serial)."""
    config, scheme, target, interval = cell
    return run_single(config, scheme, target, interval)


def run_campaign(config: CampaignConfig = None, jobs: int = 1,
                 progress=None, *, checkpoint=None, resume: bool = False,
                 max_failures: int = None,
                 cell_timeout: float = None, store=None, queue=None,
                 lease_ttl: float = None) -> CampaignReport:
    """Sweep schemes x targets x scrub intervals; aggregate and audit.

    ``jobs > 1`` fans the independent (scheme, target, interval) runs
    across worker processes via :class:`repro.sim.SweepEngine`; results
    are aggregated in deterministic sweep order either way.

    The resilience knobs thread straight into the engine:
    ``checkpoint`` stores completed runs (``checkpoint/v2``) so
    ``resume=True`` restores them after a preemption; ``cell_timeout``
    arms the hung-worker watchdog; ``max_failures`` trips the typed
    circuit breaker.  A drained (SIGINT/SIGTERM) campaign returns a
    *partial* report marked ``interrupted`` with salvage counts
    instead of raising — every run is seeded, so resuming later
    converges to the uninterrupted report bit-for-bit.

    ``store``/``queue``/``lease_ttl`` arm the multi-host fleet
    substrate (shared content-addressed result store + lease work
    queue), exactly as on :class:`~repro.sim.SweepEngine`.
    """
    config = config or CampaignConfig()
    cells = [
        (config, scheme, target, interval)
        for scheme in config.schemes
        for target in config.targets
        for interval in config.scrub_intervals
    ]
    from repro.sim.sweep import SweepEngine, salvage_counts

    engine_kwargs = {}
    if lease_ttl is not None:
        engine_kwargs["lease_ttl"] = lease_ttl
    engine = SweepEngine(
        cells, runner=_campaign_cell, jobs=jobs, progress=progress,
        checkpoint=checkpoint, resume=resume, max_failures=max_failures,
        timeout=cell_timeout, store=store, queue=queue, **engine_kwargs,
    )
    outcomes = engine.run()
    failed = [o for o in outcomes
              if not o.ok and o.failure_class != "interrupted"]
    if failed:
        raise RuntimeError(
            f"{len(failed)} campaign run(s) failed: "
            + "; ".join(f"{o.label}: {o.error}" for o in failed[:3])
        )

    runs = []
    poisoned_fractions = {}
    for outcome in outcomes:
        if not outcome.ok:
            continue   # interrupted before this run completed
        result = outcome.result
        runs.append(result)
        fraction = result.injector["poisoned_blocks"] / max(
            1, config.data_bytes // 64
        )
        poisoned_fractions.setdefault(result.scheme, []).append(fraction)

    schemes = {}
    for scheme in config.schemes:
        mine = [r for r in runs if r.scheme == scheme]
        if not mine:
            continue   # nothing salvaged for this scheme (interrupted)
        udrs = [r.empirical_udr for r in mine]
        p_eff = min(1.0, sum(poisoned_fractions[scheme]) /
                    len(poisoned_fractions[scheme]))
        analytic = compute_udr(
            p_eff,
            config.data_bytes,
            clone_depths=scheme_depths(scheme, config.data_bytes),
            scheme=scheme,
        )
        schemes[scheme] = {
            "runs": len(mine),
            "mean_empirical_udr": sum(udrs) / len(udrs),
            "max_empirical_udr": max(udrs),
            "analytic_udr_at_p_eff": analytic.udr,
            "p_eff": p_eff,
            "violations": sum(len(r.violations) for r in mine),
            "total_repairs": sum(
                r.stats.get("clone_repairs", 0)
                + r.stats.get("sidecar_repairs", 0)
                + r.stats.get("scrub_repairs", 0)
                for r in mine
            ),
            "quarantined_bytes": sum(
                r.stats.get("quarantined_bytes", 0) for r in mine
            ),
        }

    resilience = {}
    reference = reference_scheme().name
    if reference in schemes:
        base = schemes[reference]["mean_empirical_udr"]
        for scheme in config.schemes:
            if scheme == reference or scheme not in schemes:
                continue
            mine = schemes[scheme]["mean_empirical_udr"]
            resilience[scheme] = {
                "baseline_udr": base,
                "scheme_udr": mine,
                # None encodes "infinitely more resilient" JSON-safely.
                "baseline_over_scheme": (base / mine) if mine > 0 else None,
                "ge_10x": base >= 10 * mine and base > 0,
            }

    violations = sum(len(r.violations) for r in runs)
    report = CampaignReport(
        config=config.to_dict(),
        runs=[r.to_dict() for r in runs],
        schemes=schemes,
        resilience=resilience,
        invariant_ok=violations == 0,
        interrupted=engine.interrupted,
        salvage=salvage_counts(outcomes),
        runtime=engine.registry.snapshot(),
    )
    if config.enforce_invariant and violations:
        bad = [v for r in runs for v in r.violations]
        raise SilentCorruptionError(
            f"{violations} read(s) returned wrong data without raising: "
            f"{bad[:5]}"
        )
    return report
