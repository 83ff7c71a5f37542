"""Repository benchmark: four workloads against ``repro.sim``,
``repro.faults`` and ``repro.analysis``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload miss-write --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes one untraced and one traced pass over the same
inputs and reports the per-layer metrics.  Every pass's outputs are
checked against ``perfbench/pins.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when an output differs from its pin
and 2 when the benchmark cannot run at all.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
PINS = os.path.join(HERE, "pins.json")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3

#: A pure-Python loop for the host's 1- vs 2-process calibration.
BURN = ("import time\nt = time.perf_counter()\nx = 0\n"
        "for i in range(1_000_000):\n    x += i * i\n"
        "print(time.perf_counter() - t)\n")


def load_repro():
    """Import the package from the checkout's ``src``; exit 2 if absent."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def load_pins() -> dict:
    try:
        with open(PINS) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {PINS}: {exc}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# set-up time and host block
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Child mode: do everything a run does before its first measured
    call, then say so."""
    load_repro()
    load_pins()
    workloads.build_inputs(workload, workloads.input_seed(seed, 0))
    print("ready", flush=True)


def stop(child: subprocess.Popen) -> None:
    """Kill ``child`` if it still runs, reap it and close its pipe."""
    if child.poll() is None:
        child.kill()
    child.wait()
    child.stdout.close()


def time_setup(workload: str, seed: int) -> float:
    """Median of fresh-interpreter set-ups: process start (the parent's
    clock before spawning) to the child's ready line."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.wait(timeout=60)
        finally:
            stop(child)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return statistics.median(samples)


def burn(processes: int) -> float:
    """Slowest in-process time of ``processes`` concurrent CPU burns."""
    children = [
        subprocess.Popen([sys.executable, "-c", BURN],
                         stdout=subprocess.PIPE, text=True, cwd=ROOT)
        for _ in range(processes)
    ]
    times = []
    try:
        for child in children:
            out, _ = child.communicate(timeout=60)
            times.append(float(out))
    finally:
        for child in children:
            stop(child)
    return max(times)


def host_block() -> dict:
    """The host every number of this run was measured on."""
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    one = burn(1)
    two = burn(2)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "burn_1proc_s": one,
        "burn_2proc_s": two,
        # Throughput of two concurrent burns relative to one: 2.0 on a
        # host with two free cores.  Workloads stay at jobs=1 because
        # on the 2-vCPU host this was written on, the figure ranged
        # from 0.75 to 2.1 between runs (see README.md).
        "burn_2proc_scaling": 2 * one / two,
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def warm_up(workload: str) -> None:
    """Pay first-call costs (lazy imports, numpy dispatch) untimed."""
    from repro.schemes import scheme_names
    from repro.sim.config import SystemConfig
    from repro.sim.sweep import SimCell

    if workload == "reliability":
        from repro.analysis import udr_mc
        from repro.faults import FaultSimConfig, FaultSimulator, mc

        config, importance = workloads.reliability_inputs(0)
        mc.run_mc_campaign(config, batch_trials=64, max_waves=1,
                           importance=importance)
        udr_mc.monte_carlo_udr(
            FaultSimulator(FaultSimConfig(fit_per_device=workloads.FIT)),
            due_events_per_k=1, max_attempts_per_k=1)
        return
    config = SystemConfig.scaled(memory_mb=workloads.MEMORY_MB)
    cells = [
        SimCell(workload=(name, args, {"footprint_bytes": footprint,
                                       "num_refs": 400}),
                scheme=scheme, config=config, warmup_refs=200)
        for name, args, footprint, _, _ in workloads.SIM_KERNELS[workload]
        for scheme in scheme_names()
    ]
    workloads.run_sim_pass(cells)


def check(pins, workload, seed, result, record) -> int:
    """Failures in a pass: outputs that differ from their pins (a cell
    or phase that raised has an ``error: ...`` output, which never
    matches)."""
    bad = workloads.mismatches(pins, workload, seed, result.outputs)
    record.setdefault("mismatches", []).extend(
        f"seed {seed}: {label}" for label in bad)
    return len(bad)


def run_untraced(args, pins, record) -> tuple:
    setup_s = time_setup(args.workload, args.seed)
    warm_up(args.workload)
    walls, work, work_s = [], 0, 0.0
    attempted = failed = 0
    started = time.perf_counter()
    pass_index = 0
    while pass_index == 0 or time.perf_counter() - started < args.seconds:
        seed = workloads.input_seed(args.seed, pass_index)
        inputs = workloads.build_inputs(args.workload, seed)
        result = workloads.run_pass(args.workload, inputs)
        attempted += result.attempted
        failed += check(pins, args.workload, seed, result, record)
        walls.append(result.wall_s)
        work += result.work
        work_s += result.work_s
        record["passes"].append({
            "input_seed": seed, "wall_s": result.wall_s,
            "work": result.work, "work_s": result.work_s,
            "details": result.details,
        })
        pass_index += 1
    # Totals over the run's passes, not per-pass medians: the host's
    # speed shifts in phases of seconds, and a median jumps between
    # phases where the mean moves smoothly (lower spread across runs).
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(walls) / len(walls), "s"),
        "work_per_s": (work / work_s if work_s else 0.0, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return metrics, attempted, failed


def run_traced(args, pins, record) -> tuple:
    import tracing

    seed = workloads.input_seed(args.seed, 0)
    inputs = workloads.build_inputs(args.workload, seed)
    warm_up(args.workload)
    untraced = workloads.run_pass(args.workload, inputs)
    with tracing.Tracer() as tracer:
        traced = workloads.run_pass(args.workload, inputs)
    failed = (check(pins, args.workload, seed, untraced, record)
              + check(pins, args.workload, seed, traced, record))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
    metrics = tracing.per_layer_metrics(tracer, traced, untraced)
    record["passes"] = [
        {"input_seed": seed, "traced": False, "wall_s": untraced.wall_s,
         "details": untraced.details},
        {"input_seed": seed, "traced": True, "wall_s": traced.wall_s,
         "details": traced.details},
    ]
    return metrics, untraced.attempted + traced.attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    load_repro()
    pins = load_pins()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_block(), "passes": []}
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed = runner(args, pins, record)

    record["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    record.update(attempted=attempted, failed=failed)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print("host " + json.dumps(record["host"], sort_keys=True))
    for mismatch in record.get("mismatches", []):
        print(f"MISMATCH {mismatch}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
