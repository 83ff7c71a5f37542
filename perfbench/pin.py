"""Re-pin the outputs the benchmark checks: ``perfbench/pins.json``.

Runs every corpus input of every workload once, untraced, and records
each sim cell's ``SimResult`` digest and the reliability phases'
estimates.  Run it only when a change is meant to alter simulated
outputs::

    python3 perfbench/pin.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    run.load_repro()
    pins = {}
    if os.path.exists(run.PINS):
        with open(run.PINS) as handle:
            pins = json.load(handle)
    for workload in args.workload or workloads.WORKLOADS:
        pinned = pins[workload] = {}
        for seed in range(workloads.CORPUS):
            result = workloads.run_pass(
                workload, workloads.build_inputs(workload, seed))
            if result.failed:
                print(f"{workload} seed {seed}: {result.outputs}",
                      file=sys.stderr)
                return 1
            pinned[str(seed)] = result.outputs
            print(f"{workload} seed {seed}: {result.wall_s:.2f} s",
                  flush=True)
    with open(run.PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
