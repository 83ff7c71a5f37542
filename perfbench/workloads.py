"""The benchmark's four workloads and the pinned-output check.

Every workload is one process and one closed-loop client: the next
cell starts when the previous one ends, and no workload uses
``jobs > 1`` (see README.md for why).  A *pass* runs the workload's
whole input set once; a run repeats passes until its time is spent.

Inputs come from a corpus of :data:`CORPUS` input seeds per workload,
whose outputs are pinned in ``pins.json``: pass ``r`` of a run with
``--seed s`` uses input seed ``(s + r) % CORPUS``.  A finite corpus is
what lets every output of every pass be checked against a value pinned
at a known commit.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import asdict, dataclass, field

#: Input seeds per workload that have pinned outputs.
CORPUS = 16

#: Scaled system shared by the sim workloads: 4 KiB L1, 32 KiB L2,
#: 256 KiB LLC, 64 KiB metadata cache (``SystemConfig.scaled``).
MEMORY_MB = 32
MISS_FOOTPRINT = 8 << 20        # 32x the LLC: most references miss
RESIDENT_FOOTPRINT = 512 << 10  # working set (footprint / 16) fits L2

#: (factory, args, footprint, warmup refs, measured refs) per kernel.
SIM_KERNELS = {
    "miss-write": [
        ("ctree", (), MISS_FOOTPRINT, 3_000, 3_000),
        ("hashmap", (), MISS_FOOTPRINT, 3_000, 3_000),
    ],
    "miss-read": [
        ("mcf", (), MISS_FOOTPRINT, 4_000, 6_000),
        ("libquantum", (), MISS_FOOTPRINT, 4_000, 6_000),
    ],
    "resident": [
        ("gcc", (), RESIDENT_FOOTPRINT, 100_000, 500_000),
    ],
}

#: Phase 1: an MC campaign at FIT 80 with tree importance sampling,
#: run until the p_block_due 95% half-width reaches TARGET_CI.
FIT = 80.0
BATCH_TRIALS = 4096
TARGET_CI = 2e-7
#: Phase 2: monte_carlo_udr at FIT 80 on fixed rng streams.  Its cost
#: per DUE trial is heavy-tailed (one np.unique over up to millions of
#: blocks per multi-region trial): across rng seeds the phase's wall
#: varies 2-5x for the same DUE count, so it runs the same streams in
#: every pass and only the campaign varies with the input seed.
UDR_RNG_SEEDS = (7, 8, 9)
UDR_DUE_EVENTS_PER_K = 1

WORKLOADS = ("miss-write", "miss-read", "resident", "reliability")


def input_seed(seed: int, pass_index: int) -> int:
    """Corpus entry used by pass ``pass_index`` of a run."""
    return (seed + pass_index) % CORPUS


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def sim_cells(workload: str, seed: int) -> list:
    """The pass's ``SimCell``s: every kernel x every registered scheme."""
    from repro.schemes import scheme_names
    from repro.sim.config import SystemConfig
    from repro.sim.sweep import SimCell

    config = SystemConfig.scaled(memory_mb=MEMORY_MB)
    cells = []
    for name, args, footprint, warmup, measured in SIM_KERNELS[workload]:
        spec = (name, args, {"footprint_bytes": footprint,
                             "num_refs": warmup + measured})
        for scheme in scheme_names():
            cells.append(SimCell(workload=spec, scheme=scheme, config=config,
                                 seed=seed, warmup_refs=warmup))
    return cells


def reliability_inputs(seed: int):
    """``(FaultSimConfig, importance distribution)`` of the campaign."""
    from repro.faults import FaultSimConfig, importance_distribution

    config = FaultSimConfig(fit_per_device=FIT, seed=seed)
    return config, importance_distribution(config.relative_rates)


def build_inputs(workload: str, seed: int):
    """Everything a pass needs before its first measured call."""
    if workload == "reliability":
        return reliability_inputs(seed)
    return sim_cells(workload, seed)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    """What one pass did: timings, work counts and checkable outputs."""

    wall_s: float
    work: int            # post-warmup refs, or campaign trials
    work_s: float        # host seconds the work took
    outputs: dict        # label -> digest or pinned values
    failed: int = 0      # cells or phases that raised
    attempted: int = 0
    details: dict = field(default_factory=dict)  # counts and phase times
    registries: list = field(default_factory=list)


class CheckpointClock:
    """Timestamps each sim cell's warmup checkpoint and end.

    ``SecureSystem.reset_measurement_stats`` runs once per cell, at the
    end of warmup; wrapping it gives the start of the post-warmup
    window without touching the simulator, and hands over the system's
    registry for the post-warmup cache counters.
    """

    def __init__(self):
        self.checkpoints = []
        self.ends = []
        self.registries = []

    def __enter__(self):
        from repro.sim.system import SecureSystem

        original = SecureSystem.reset_measurement_stats
        checkpoints, registries = self.checkpoints, self.registries

        def reset_measurement_stats(system):
            original(system)
            checkpoints.append(time.perf_counter())
            registries.append(system.registry)

        self._original = original
        SecureSystem.reset_measurement_stats = reset_measurement_stats
        return self

    def __exit__(self, *exc):
        from repro.sim.system import SecureSystem

        SecureSystem.reset_measurement_stats = self._original

    def runner(self, cell):
        from repro.sim import sweep

        result = sweep.run_sim_cell(cell)
        self.ends.append(time.perf_counter())
        return result


def sim_digest(result) -> str:
    """SHA-256 of every simulated statistic in a ``SimResult``."""
    payload = json.dumps(asdict(result), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_sim_pass(cells) -> PassResult:
    """Run the cells through ``SweepEngine`` (jobs=1, closed loop)."""
    from repro.sim.sweep import SweepEngine

    with CheckpointClock() as clock:
        engine = SweepEngine(cells, runner=clock.runner, jobs=1, retries=0)
        start = time.perf_counter()
        outcomes = engine.run()
        wall = time.perf_counter() - start
    outputs = {}
    failed = 0
    work = 0
    for cell, outcome in zip(cells, outcomes):
        if not outcome.ok:
            failed += 1
            outputs[cell.label] = "error: " + outcome.error.splitlines()[-1]
            continue
        outputs[cell.label] = sim_digest(outcome.result)
        work += outcome.result.memory_requests
    work_s = sum(end - mark for mark, end in zip(clock.checkpoints,
                                                  clock.ends))
    if failed or len(clock.checkpoints) != len(cells):
        work_s = 0.0
    return PassResult(wall_s=wall, work=work, work_s=work_s, outputs=outputs,
                      failed=failed, attempted=len(cells),
                      details={"cells": len(cells)},
                      registries=clock.registries)


def run_reliability_pass(inputs) -> PassResult:
    """Phase 1 (campaign to a fixed CI) then phase 2 (monte_carlo_udr).

    Both phases look their entry points up at call time, so a tracer
    that wraps module attributes sees them.  RuntimeWarnings from the
    approximation fallbacks are captured and counted, never printed.
    """
    from repro.analysis import udr_mc
    from repro.faults import FaultSimConfig, FaultSimulator, mc

    config, importance = inputs
    outputs = {}
    failed = 0
    details = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            campaign = mc.run_mc_campaign(
                config, batch_trials=BATCH_TRIALS, target_ci=TARGET_CI,
                importance=importance)
        except Exception as exc:  # a failed phase is counted, not fatal
            failed += 1
            campaign = None
            outputs["campaign"] = f"error: {exc!r}"
        campaign_s = time.perf_counter() - start
        udr_trials = 0
        for rng_seed in UDR_RNG_SEEDS:
            try:
                simulator = FaultSimulator(FaultSimConfig(fit_per_device=FIT))
                udr = udr_mc.monte_carlo_udr(
                    simulator, due_events_per_k=UDR_DUE_EVENTS_PER_K,
                    rng_seed=rng_seed)
            except Exception as exc:
                failed += 1
                outputs[f"udr{rng_seed}"] = f"error: {exc!r}"
                continue
            udr_trials += udr.trials_with_due
            details["analysis.udr_mc.truncated"] = (
                details.get("analysis.udr_mc.truncated", 0) + udr.truncated)
            outputs[f"udr{rng_seed}"] = {
                "udr": repr(udr.udr),
                "trials_with_due": udr.trials_with_due,
            }
        wall = time.perf_counter() - start
    details["warnings"] = len(caught)
    details["udr_s"] = wall - campaign_s
    details["analysis.udr_mc.due_trials"] = udr_trials
    work = 0
    if campaign is not None:
        work = campaign.total_trials
        outputs["campaign"] = {
            "p_block_due": repr(campaign.p_block_due),
            "half_width": repr(campaign.p_block_due_half_width),
            "waves": campaign.waves,
            "trials": campaign.total_trials,
        }
        details["faults.mc.union_fallbacks"] = campaign.approximated_ranks
        details["faults.mc.trials"] = campaign.total_trials
        details["faults.mc.waves"] = campaign.waves
        details["mc_time_to_ci_s"] = campaign_s
    return PassResult(wall_s=wall, work=work,
                      work_s=campaign_s if campaign is not None else 0.0,
                      outputs=outputs, failed=failed,
                      attempted=1 + len(UDR_RNG_SEEDS), details=details)


def run_pass(workload: str, inputs) -> PassResult:
    if workload == "reliability":
        return run_reliability_pass(inputs)
    return run_sim_pass(inputs)


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------

def mismatches(pins: dict, workload: str, seed: int, outputs: dict) -> list:
    """Labels whose output differs from (or is missing in) the pins."""
    pinned = pins.get(workload, {}).get(str(seed), {})
    return sorted(
        label for label, value in outputs.items()
        if pinned.get(label) != value
    ) + sorted(set(pinned) - set(outputs))
