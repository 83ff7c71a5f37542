"""Composable adversarial scenarios: RAS-grade chaos, oracle-verified.

A :class:`Scenario` is a declarative schedule of timed phases — fault
ramps, correlated bursts, scrubber/injector races, power-cut storms,
device shrink/regrow, crash-during-recovery — executed against any
scheme with the :class:`~repro.verify.VerifySession` (oracle +
invariants) attached for the whole run, so the no-silent-corruption
invariant holds for every scenario *by construction*: wrong bytes can
only surface as a violation, never as a clean result.

Phases are pure data; every phase derives its randomness (fault
arrivals, burst placement, offline range, workload stream) from a seed
that is a pure function of ``(config.seed, scenario, scheme, phase
index)``, so a scenario campaign is bit-identical whether run serially,
across worker processes, or resumed from a checkpoint mid-campaign.

Phase kinds:

``ops``
    Run ``ops`` workload operations while a fresh
    :class:`~repro.faults.injector.FaultInjector` fires ``faults``
    events over the phase (``arrival`` shapes the schedule: ``uniform``
    Hopper-style arrivals, ``ramp`` density growing linearly with time,
    ``burst`` everything inside a narrow correlated window) and an
    optional scrubber races it every ``scrub_interval`` ops.
``power_cut``
    ``cuts`` consecutive power cycles: optionally ``faults`` events
    land at the instant of each cut, then crash -> recover -> rebind
    the verify session, then ``ops`` operations before the next cut
    (``ops=0`` cuts again immediately — the crash-during-recovery
    analog).
``offline``
    Take a contiguous ``offline_fraction`` slice of data blocks offline
    (DIMM-offline analog): their cells are poisoned and the slice is
    excluded from the workload's address distribution.
``online``
    Regrow: previously-offline blocks rejoin the address distribution
    *without* clearing poison — touching one before rewriting it raises
    a typed :class:`~repro.controller.DataPoisonedError`, never stale
    bytes.

The catalog (``CATALOG`` / :func:`list_scenarios`) ships named,
documented compositions of these phases; ``repro chaos --scenario``
runs them, and :func:`run_scenario_campaign` fans scenario x scheme
cells through :class:`~repro.sim.SweepEngine` with the full
checkpoint/resume + supervision runtime.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.controller import (
    DataPoisonedError,
    IntegrityError,
    MetadataScrubber,
    QuarantinedError,
    RecoveryError,
    SecureMemoryError,
)
from repro.core import make_controller
from repro.faults.campaign import SilentCorruptionError
from repro.faults.injector import INJECTION_TARGETS, FaultInjector
from repro.schemes import resolve_scheme
from repro.telemetry import SCHEMA_VERSION as TELEMETRY_SCHEMA
from repro.verify.audit import audit_mirror

SCENARIO_SCHEMA = "scenario/v1"

PHASE_KINDS = ("ops", "power_cut", "offline", "online")
ARRIVALS = ("uniform", "ramp", "burst")


@dataclass(frozen=True)
class Phase:
    """One timed slice of adversity.  Pure data, picklable."""

    kind: str = "ops"
    ops: int = 0                     # workload ops (ops / between cuts)
    faults: int = 0                  # injector events this phase
    targets: tuple = ()              # injection targets ("" = none)
    arrival: str = "uniform"         # uniform | ramp | burst
    scrub_interval: int = 0          # 0 = no scrubbing this phase
    cuts: int = 1                    # power_cut: consecutive cycles
    offline_fraction: float = 0.25   # offline: slice of data blocks

    def __post_init__(self):
        if self.kind not in PHASE_KINDS:
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if self.arrival not in ARRIVALS:
            raise ValueError(f"unknown arrival profile {self.arrival!r}")
        unknown = [t for t in self.targets if t not in INJECTION_TARGETS]
        if unknown:
            raise ValueError(
                f"unknown targets {unknown}; valid: {INJECTION_TARGETS}"
            )
        if self.kind == "offline" and not 0 < self.offline_fraction < 1:
            raise ValueError("offline_fraction must be in (0, 1)")
        if self.kind == "power_cut" and self.cuts < 1:
            raise ValueError("cuts must be >= 1")


@dataclass(frozen=True)
class Scenario:
    """A named, documented schedule of phases."""

    name: str
    description: str                 # one line: what it does
    models: str                      # what real-world failure it mirrors
    expected: str                    # expected controller behavior
    phases: tuple = ()

    @property
    def total_ops(self) -> int:
        return sum(
            p.ops * (p.cuts if p.kind == "power_cut" else 1)
            for p in self.phases
        )


#: The shipped scenario catalog.  Every entry must stay oracle-clean:
#: tests run each one under the full VerifySession and fail on any
#: divergence or silent corruption.
CATALOG = (
    Scenario(
        name="ramp-siege",
        description="fault rate ramps from quiet to intense over the run",
        models="wear-out: error rate growing with device age/traffic",
        expected="scrubber keeps pace early; late faults repaired or "
                 "quarantined, none silent",
        phases=(
            Phase(kind="ops", ops=200),
            Phase(kind="ops", ops=600, faults=6,
                  targets=("counter", "tree"), arrival="ramp",
                  scrub_interval=150),
        ),
    ),
    Scenario(
        name="bank-storm",
        description="correlated multi-region burst, then a repair window",
        models="shared-bank / row failure striking several metadata "
               "regions in one instant",
        expected="burst damage surfaces as typed errors; repair window "
                 "scrubs or quarantines every casualty",
        phases=(
            Phase(kind="ops", ops=500, faults=8,
                  targets=("counter", "counter_mac", "tree"),
                  arrival="burst"),
            Phase(kind="ops", ops=200, scrub_interval=100),
        ),
    ),
    Scenario(
        name="scrub-race",
        description="scrubber and injector race at adversarial rates",
        models="patrol scrub under a sustained fault shower",
        expected="every fault is repaired between strikes or loses its "
                 "node to quarantine; no read returns wrong bytes",
        phases=(
            Phase(kind="ops", ops=800, faults=10, targets=("counter",),
                  arrival="uniform", scrub_interval=25),
        ),
    ),
    Scenario(
        name="powercut-storm",
        description="repeated clean power cuts with work between them",
        models="unstable supply: brown-outs every few seconds",
        expected="every cut recovers completely; nothing is lost on a "
                 "clean cut",
        phases=(
            Phase(kind="ops", ops=300),
            Phase(kind="power_cut", cuts=3, ops=150),
            Phase(kind="ops", ops=200),
        ),
    ),
    Scenario(
        name="crash-during-recovery",
        description="cuts land back-to-back with damage at each cut",
        models="power returns briefly, fails again before recovery "
               "settles; faults strike at the worst instant",
        expected="each recovery either completes or reports loss; "
                 "damaged state is typed, never silently wrong",
        phases=(
            Phase(kind="ops", ops=250),
            Phase(kind="power_cut", cuts=2, ops=0, faults=2,
                  targets=("counter", "tree")),
            Phase(kind="ops", ops=150),
        ),
    ),
    Scenario(
        name="dimm-offline",
        description="a quarter of capacity goes offline mid-run, then "
                    "returns",
        models="DIMM/rank offlining and later re-onlining by the RAS "
               "stack",
        expected="offline slice reads fault typed until rewritten; "
                 "surviving capacity stays fully protected",
        phases=(
            Phase(kind="ops", ops=250),
            Phase(kind="offline", offline_fraction=0.25),
            Phase(kind="ops", ops=300, faults=3, targets=("counter",),
                  scrub_interval=100),
            Phase(kind="online"),
            Phase(kind="ops", ops=250),
        ),
    ),
    Scenario(
        name="quarantine-pressure",
        description="repeated bursts drive quarantine toward exhaustion",
        models="a failing device shedding regions until little healthy "
               "metadata remains",
        expected="bursts are repaired while clones survive; "
                 "unrepairable nodes are quarantined, and faults aimed "
                 "at fully-quarantined regions defer — graceful "
                 "degradation, not a crash",
        phases=(
            Phase(kind="ops", ops=300, faults=8,
                  targets=("counter", "clone"), arrival="burst",
                  scrub_interval=50),
            Phase(kind="ops", ops=300, faults=8,
                  targets=("counter", "clone"), arrival="burst",
                  scrub_interval=50),
            Phase(kind="ops", ops=300, faults=8,
                  targets=("counter", "clone"), arrival="burst",
                  scrub_interval=50),
        ),
    ),
    Scenario(
        name="compound-siege",
        description="ramp + cuts + offline + bursts in one run",
        models="everything going wrong at once on an aging system",
        expected="all of the above, composed: typed errors and "
                 "quarantine only, bit-exact data elsewhere",
        phases=(
            Phase(kind="ops", ops=200),
            Phase(kind="ops", ops=400, faults=5,
                  targets=("counter", "tree"), arrival="ramp",
                  scrub_interval=100),
            Phase(kind="power_cut", cuts=2, ops=100, faults=1,
                  targets=("counter",)),
            Phase(kind="offline", offline_fraction=0.125),
            Phase(kind="ops", ops=300, faults=3,
                  targets=("counter", "counter_mac"), arrival="burst",
                  scrub_interval=100),
            Phase(kind="online"),
            Phase(kind="ops", ops=200),
        ),
    ),
)

_BY_NAME = {s.name: s for s in CATALOG}


def list_scenarios() -> tuple:
    """The shipped catalog, in order."""
    return CATALOG


def get_scenario(name: str) -> Scenario:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; "
            f"available: {', '.join(sorted(_BY_NAME))}"
        ) from None


@dataclass
class ScenarioConfig:
    """One scenario campaign.  All randomness derives from ``seed``."""

    data_bytes: int = 64 * 1024
    write_fraction: float = 0.3
    seed: int = 2021
    schemes: tuple = ("src", "sac")
    scenarios: tuple = ()            # () = full catalog
    metadata_cache_bytes: int = 4 * 1024
    scrub_max_retries: int = 3
    scrub_backoff: int = 2
    mode: str = "direct"             # injector damage model
    oracle: bool = True
    invariants: bool = True
    enforce_invariant: bool = True
    trace: str = None                # external trace file for the stream

    def __post_init__(self):
        # Canonicalise through the registry (aliases collapse, unknown
        # schemes fail with the uniform resolve_scheme error).
        self.schemes = tuple(
            resolve_scheme(scheme).name for scheme in self.schemes
        )
        for name in self.scenarios:
            get_scenario(name)       # fail fast on typos
        if not 0 <= self.write_fraction <= 1:
            raise ValueError("write_fraction must be in [0, 1]")

    @property
    def scenario_names(self) -> tuple:
        return self.scenarios or tuple(s.name for s in CATALOG)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["schemes"] = list(self.schemes)
        out["scenarios"] = list(self.scenario_names)
        return out


# ----------------------------------------------------------------------
# seeding


def _mix(seed: int, tag: str) -> int:
    """The campaign seed-mixing idiom: a pure function of the config
    seed and a structural tag, so adding scenarios or phases never
    reshuffles the randomness of unrelated cells."""
    digest = 0
    for ch in tag:
        digest = (digest * 131 + ord(ch)) % 1_000_003
    return seed * 1_000_003 + digest


def _phase_seed(config: ScenarioConfig, scenario: str, scheme: str,
                index: int) -> int:
    return _mix(config.seed, f"{scenario}/{scheme}/phase{index}")


def _arrivals(phase: Phase, rng) -> list:
    """Materialize the phase's arrival profile as explicit op offsets."""
    horizon = max(1, phase.ops)
    if phase.arrival == "uniform":
        ops = rng.integers(0, horizon, size=phase.faults)
    elif phase.arrival == "ramp":
        # Density grows linearly with time: CDF t^2 => op = H * sqrt(u).
        ops = np.floor(horizon * np.sqrt(rng.random(phase.faults)))
    else:  # burst: everything inside one narrow correlated window
        width = max(1, horizon // 20)
        start = int(rng.integers(0, max(1, horizon - width)))
        ops = start + rng.integers(0, width, size=phase.faults)
    return sorted(int(o) for o in ops)


# ----------------------------------------------------------------------
# execution


class _Stream:
    """The workload reference stream for one run.

    Synthetic mode draws uniform blocks from the currently-online slice
    of the device; trace mode replays an external reference stream
    (cycling if the scenario outlasts it), remapping block indices onto
    the online slice so shrink/regrow applies to traces too.
    """

    def __init__(self, config: ScenarioConfig, num_blocks: int, seed: int):
        self.rng = np.random.default_rng(seed)
        self.num_blocks = num_blocks
        self.online = list(range(num_blocks))
        self._refs = None
        self._cursor = 0
        if config.trace:
            from repro.workloads.trace import load_external

            self._refs = load_external(config.trace).references
            if not self._refs:
                raise ValueError(f"trace {config.trace!r} is empty")
        self.write_fraction = config.write_fraction

    def take_offline(self, blocks) -> None:
        gone = set(blocks)
        self.online = [b for b in self.online if b not in gone]
        if not self.online:
            raise ValueError("offline phase would remove every block")

    def bring_online(self, blocks) -> None:
        self.online = sorted(set(self.online) | set(blocks))

    def next_op(self):
        """-> (block, is_write).  Deterministic given the seed."""
        if self._refs is None:
            block = self.online[int(self.rng.integers(0, len(self.online)))]
            is_write = bool(self.rng.random() < self.write_fraction)
            return block, is_write
        address, is_write, _gap = self._refs[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._refs)
        block = self.online[(address // 64) % len(self.online)]
        return block, bool(is_write)


class _Run:
    """Mutable state threaded through one scenario execution."""

    def __init__(self, ctrl, session, stream, mirror):
        self.ctrl = ctrl
        self.session = session
        self.stream = stream
        self.mirror = mirror
        self.run_errors = {"data_due": 0, "quarantined": 0, "integrity": 0}
        self.violations = []
        self.recovery = []           # one entry per power cut
        self.offline = []            # currently-offline block indices
        self.op = 0                  # global operation counter
        self.aborted = False         # recovery refused a controller


def _do_ops(run: _Run, count: int, injector=None, scrubber=None) -> None:
    ctrl = run.ctrl
    rng = run.stream.rng
    block_size = ctrl.nvm.block_size
    for local_op in range(count):
        if injector is not None:
            injector.poll(local_op)
        if scrubber is not None:
            scrubber.tick(1)
        block, is_write = run.stream.next_op()
        try:
            if is_write:
                data = bytes(
                    rng.integers(0, 256, size=block_size, dtype=np.uint8)
                )
                ctrl.write(block, data)
                run.mirror[block] = data
            else:
                got = ctrl.read(block).data
                if got != run.mirror[block]:
                    run.violations.append(
                        {"phase": "run", "op": run.op, "block": block}
                    )
        except DataPoisonedError:
            run.run_errors["data_due"] += 1
        except QuarantinedError:
            run.run_errors["quarantined"] += 1
        except IntegrityError:
            run.run_errors["integrity"] += 1
        run.op += 1


def _make_injector(config: ScenarioConfig, phase: Phase, run: _Run,
                   seed: int, horizon: int, arrivals=None):
    if not phase.targets or not phase.faults:
        return None
    return FaultInjector(
        run.ctrl,
        targets=phase.targets,
        seed=seed,
        num_faults=phase.faults,
        horizon_ops=horizon,
        mode=config.mode,
        arrivals=arrivals,
        # Dead space absorbs nothing: faults aim at still-live cells, and
        # a fully-quarantined region defers instead of raising.
        exclude_quarantined=True,
    )


def _phase_ops(config: ScenarioConfig, phase: Phase, run: _Run,
               seed: int) -> dict:
    arrivals = None
    if phase.faults:
        arrivals = _arrivals(phase, np.random.default_rng(seed + 1))
    injector = _make_injector(config, phase, run, seed, max(1, phase.ops),
                              arrivals=arrivals)
    scrubber = None
    if phase.scrub_interval > 0:
        scrubber = MetadataScrubber(
            run.ctrl,
            interval=phase.scrub_interval,
            max_retries=config.scrub_max_retries,
            backoff=config.scrub_backoff,
        )
    _do_ops(run, phase.ops, injector=injector, scrubber=scrubber)
    summary = {}
    if injector is not None:
        injector.drain()
        summary["injector"] = injector.summary()
    if scrubber is not None:
        summary["scrub_passes"] = scrubber.settle()
        summary["scrub_repaired"] = scrubber.total_repaired
        summary["scrub_quarantined"] = scrubber.total_quarantined
    return summary


def _phase_power_cut(config: ScenarioConfig, phase: Phase, run: _Run,
                     seed: int) -> dict:
    from repro.recovery import recover_image

    cuts = []
    for cut in range(phase.cuts):
        injected = None
        injector = _make_injector(config, phase, run, seed + 10 + cut, 1)
        if injector is not None:
            injector.drain()   # damage lands at the instant of the cut
            injected = injector.summary()
        run.session.detach()
        image = run.ctrl.crash()
        try:
            recovered, _ = recover_image(image)
        except (RecoveryError, SecureMemoryError) as exc:
            outcome = f"failed:{type(exc).__name__}"
            run.recovery.append(outcome)
            cuts.append({"recovery": outcome, "injector": injected})
            run.ctrl = None
            run.aborted = True
            break
        run.recovery.append("ok")
        cuts.append({"recovery": "ok", "injector": injected})
        run.ctrl = recovered
        run.session.rebind(recovered)
        if phase.ops:
            _do_ops(run, phase.ops)
    return {"cuts": cuts}


def _phase_offline(phase: Phase, run: _Run, seed: int) -> dict:
    ctrl = run.ctrl
    num_blocks = ctrl.num_data_blocks
    count = max(1, int(num_blocks * phase.offline_fraction))
    count = min(count, len(run.stream.online) - 1)
    rng = np.random.default_rng(seed + 3)
    start = int(rng.integers(0, num_blocks - count + 1))
    blocks = list(range(start, start + count))
    block_size = ctrl.nvm.block_size
    for block in blocks:
        ctrl.nvm.poison_block(block * block_size)
    run.stream.take_offline(blocks)
    run.offline.extend(blocks)
    return {"offline_blocks": count, "offline_start": start}


def _phase_online(run: _Run) -> dict:
    count = len(run.offline)
    # Poison is deliberately NOT cleared: a regrown block stays a typed
    # DUE until the workload rewrites it.  No stale bytes, ever.
    run.stream.bring_online(run.offline)
    run.offline = []
    return {"regrown_blocks": count}


def run_scenario(config: ScenarioConfig, scenario_name: str,
                 scheme: str) -> dict:
    """Execute one scenario against one scheme, fully verified."""
    scenario = get_scenario(scenario_name)
    base_seed = _mix(config.seed, f"{scenario_name}/{scheme}")
    ctrl = make_controller(
        scheme,
        config.data_bytes,
        functional_crypto=True,
        quarantine=True,
        metadata_cache_bytes=config.metadata_cache_bytes,
        rng=np.random.default_rng(base_seed + 1),
    )
    from repro.verify import VerifySession

    session = VerifySession(
        ctrl, oracle=config.oracle, invariants=config.invariants
    ).attach()
    stream = _Stream(config, ctrl.num_data_blocks, base_seed + 2)

    # Prefill so every metadata region carries real state and the audit
    # mirror covers the whole device.
    mirror = {}
    block_size = ctrl.nvm.block_size
    for block in range(ctrl.num_data_blocks):
        data = bytes(
            stream.rng.integers(0, 256, size=block_size, dtype=np.uint8)
        )
        ctrl.write(block, data)
        mirror[block] = data
    ctrl.flush()

    run = _Run(ctrl, session, stream, mirror)
    phase_reports = []
    for index, phase in enumerate(scenario.phases):
        if run.aborted:
            phase_reports.append({"kind": phase.kind, "skipped": True})
            continue
        seed = _phase_seed(config, scenario_name, scheme, index)
        if phase.kind == "ops":
            summary = _phase_ops(config, phase, run, seed)
        elif phase.kind == "power_cut":
            summary = _phase_power_cut(config, phase, run, seed)
        elif phase.kind == "offline":
            summary = _phase_offline(phase, run, seed)
        else:
            summary = _phase_online(run)
        summary["kind"] = phase.kind
        phase_reports.append(summary)

    if run.aborted:
        verify = session.report()
    else:
        verify = session.finish(raise_on_failure=False)
    if not verify["ok"]:
        oracle = verify.get("oracle") or {}
        invariants = verify.get("invariants") or {}
        run.violations.append({
            "phase": "verify", "op": -1,
            "oracle_divergences": oracle.get("divergences", 0),
            "invariant_violations": invariants.get("violations", 0),
        })

    audit, audit_violations = audit_mirror(run.ctrl, mirror)
    run.violations.extend(audit_violations)

    stats = {}
    quarantine = []
    if run.ctrl is not None:
        src = run.ctrl.stats
        stats = {
            "clone_repairs": src.clone_repairs,
            "sidecar_repairs": src.sidecar_repairs,
            "integrity_failures": src.integrity_failures,
            "quarantined_nodes": src.quarantined_nodes,
            "quarantined_bytes": src.quarantined_bytes,
            "scrub_passes": src.scrub_passes,
            "scrub_repairs": src.scrub_repairs,
        }
        if run.ctrl.quarantine is not None:
            quarantine = run.ctrl.quarantine.report()

    unverifiable = audit["quarantined"] + audit["unverifiable"]
    return {
        "scenario": scenario_name,
        "scheme": scheme,
        "seed": base_seed,
        "ops": run.op,
        "phases": phase_reports,
        "run_errors": run.run_errors,
        "recovery": run.recovery,
        "aborted": run.aborted,
        "audit": audit,
        "violations": run.violations,
        "invariant_ok": not run.violations,
        "verify": verify,
        "stats": stats,
        "quarantine": quarantine,
        "empirical_udr": unverifiable / max(1, len(mirror)),
    }


# ----------------------------------------------------------------------
# campaign


def _scenario_cell(cell):
    """Module-level runner so scenario cells cross process boundaries
    (each run is a pure function of its cell, so jobs=N is bit-identical
    to jobs=1)."""
    config, scenario_name, scheme = cell
    return run_scenario(config, scenario_name, scheme)


def scenario_report(config: ScenarioConfig, outcomes,
                    interrupted: bool = False, salvage: dict = None,
                    runtime: dict = None) -> dict:
    """Aggregate cell outcomes into a ``scenario/v1`` report."""
    runs = [o.result for o in outcomes if o.ok]
    scenarios = {}
    for name in config.scenario_names:
        mine = [r for r in runs if r["scenario"] == name]
        if not mine:
            continue
        scenarios[name] = {
            "runs": len(mine),
            "violations": sum(len(r["violations"]) for r in mine),
            "recovery_failures": sum(
                sum(1 for entry in r["recovery"] if entry != "ok")
                for r in mine
            ),
            "quarantined_nodes": sum(
                r["stats"].get("quarantined_nodes", 0) for r in mine
            ),
            "mean_empirical_udr": (
                sum(r["empirical_udr"] for r in mine) / len(mine)
            ),
        }
    violations = sum(len(r["violations"]) for r in runs)
    return {
        "schema": SCENARIO_SCHEMA,
        "telemetry_schema": TELEMETRY_SCHEMA,
        "config": config.to_dict(),
        "runs": runs,
        "scenarios": scenarios,
        "invariant_ok": violations == 0,
        "interrupted": interrupted,
        "salvage": salvage or {},
        "runtime": runtime or {},
    }


def run_scenario_campaign(
    config: ScenarioConfig = None, jobs: int = 1, progress=None, *,
    checkpoint=None, resume: bool = False, max_failures: int = None,
    cell_timeout: float = None, store=None, queue=None,
    lease_ttl: float = None,
) -> dict:
    """Sweep scenarios x schemes under the resilience runtime.

    Same contract as :func:`repro.faults.campaign.run_campaign`:
    ``jobs > 1`` fans cells across workers bit-identically, completed
    cells are stored in ``checkpoint`` so ``resume=True`` restores them, a
    drained campaign returns a partial report marked ``interrupted``,
    and any violation raises :class:`SilentCorruptionError` when
    ``enforce_invariant`` is set.  ``store``/``queue``/``lease_ttl``
    arm the multi-host fleet substrate.
    """
    config = config or ScenarioConfig()
    cells = [
        (config, name, scheme)
        for name in config.scenario_names
        for scheme in config.schemes
    ]
    from repro.sim.sweep import SweepEngine, salvage_counts

    engine_kwargs = {}
    if lease_ttl is not None:
        engine_kwargs["lease_ttl"] = lease_ttl
    engine = SweepEngine(
        cells, runner=_scenario_cell, jobs=jobs, progress=progress,
        checkpoint=checkpoint, resume=resume, max_failures=max_failures,
        timeout=cell_timeout, store=store, queue=queue, **engine_kwargs,
    )
    outcomes = engine.run()
    failed = [o for o in outcomes
              if not o.ok and o.failure_class != "interrupted"]
    if failed:
        raise RuntimeError(
            f"{len(failed)} scenario run(s) failed: "
            + "; ".join(f"{o.label}: {o.error}" for o in failed[:3])
        )
    report = scenario_report(
        config, outcomes,
        interrupted=engine.interrupted,
        salvage=salvage_counts(outcomes),
        runtime=engine.registry.snapshot(),
    )
    if config.enforce_invariant and not report["invariant_ok"]:
        bad = [v for r in report["runs"] for v in r["violations"]]
        raise SilentCorruptionError(
            f"scenario campaign violated no-silent-corruption: {bad[:5]}"
        )
    return report


def report_to_json(report: dict, indent: int = 2) -> str:
    return json.dumps(report, indent=indent, sort_keys=True)
