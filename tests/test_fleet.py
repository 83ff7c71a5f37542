"""Fault-injection tests for the multi-host campaign fleet.

These exercise the queue + store substrate end to end, spawning real
``repro fleet worker`` subprocesses where process death matters:

* two concurrent workers drain one campaign with exactly-once
  execution, and the merged results are bit-identical to a serial run;
* a worker killed with SIGKILL mid-lease is detected via lease expiry
  and its cell is reclaimed and recomputed — the merged report is
  still bit-identical;
* a torn lease file (worker died mid-write) is detected and taken
  over;
* a poisoned cell's classified failure is adopted by later joiners
  without re-executing the cell;
* a bit-flipped store entry is quarantined and recomputed, never
  served.

Execution-count assertions use the ``tests.fleet_helpers`` audit logs:
one appended line per runner *start*, so "served from the store" and
"silently re-executed" are distinguishable on disk.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.runtime import (
    QueueMismatchError,
    WorkQueue,
    cell_key,
    sweep_fingerprint,
)
from repro.sim import CellOutcome, SweepEngine

from tests import fleet_helpers

REPO_ROOT = Path(__file__).resolve().parent.parent


def _publish(queue_dir, cells, runner, ttl=60.0):
    """Publish a campaign manifest the way a sweep command would."""
    fingerprint = sweep_fingerprint([cell_key(c, runner) for c in cells])
    WorkQueue(queue_dir, ttl=ttl).ensure_campaign(cells, runner, fingerprint)


def _spawn_worker(queue_dir, *extra):
    """Start a real ``repro fleet worker`` subprocess on the queue.

    CWD is the repo root so ``tests.fleet_helpers`` (the manifest's
    runner module) resolves to the same module the test imported.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "worker",
         "--queue", str(queue_dir), "--quiet", *extra],
        cwd=str(REPO_ROOT), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _execution_counts(log_dir, tags):
    """Lines in each per-cell audit log == runner starts for that cell."""
    counts = {}
    for tag in tags:
        path = Path(log_dir) / f"exec-{tag}.log"
        counts[tag] = (len(path.read_text().splitlines())
                       if path.exists() else 0)
    return counts


def _results(outcomes):
    return [(o.ok, o.result) for o in outcomes]


class TestFleetDrain:
    def test_two_workers_drain_bit_identical_to_serial(self, tmp_path):
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        cells = [("tracked", value, str(log_dir)) for value in range(8)]
        queue_dir = tmp_path / "queue"
        _publish(queue_dir, cells, fleet_helpers.tracked_square)

        report_path = tmp_path / "worker0.json"
        workers = [
            _spawn_worker(queue_dir, "--out", str(report_path)),
            _spawn_worker(queue_dir),
        ]
        for proc in workers:
            assert proc.wait(timeout=120) == 0

        # Healthy fleet: every cell executed exactly once across both
        # workers (leases are exclusive; nothing expired).
        assert _execution_counts(log_dir, range(8)) == {
            value: 1 for value in range(8)
        }

        # The worker's report is a normal sweep report.
        report = json.loads(report_path.read_text())
        assert report["schema"] == "sweep/v1"
        assert len(report["cells"]) == 8
        assert all(c["ok"] for c in report["cells"])

        # A late joiner merges the fleet's results purely from the
        # store — bit-identical to a serial run, zero re-execution.
        serial_log = tmp_path / "serial-log"
        serial_log.mkdir()
        serial_cells = [("tracked", v, str(serial_log)) for v in range(8)]
        serial = SweepEngine(
            serial_cells, runner=fleet_helpers.tracked_square, jobs=1
        ).run()

        merger = SweepEngine(cells, runner=fleet_helpers.tracked_square,
                             queue=queue_dir)
        merged = merger.run()
        assert all(o.reused for o in merged)
        assert merger.reused_count == 8
        assert _results(merged) == _results(serial)
        assert _execution_counts(log_dir, range(8)) == {
            value: 1 for value in range(8)
        }
        snap = merger.registry.snapshot()
        assert snap["runtime.store.hits"] == 8
        assert snap["runtime.lease.claims"] == 0

    def test_sigkilled_worker_lease_reclaimed_and_recomputed(self, tmp_path):
        """Kill -9 a worker mid-lease: the lease expires, a survivor
        reclaims it, and the merged results match a serial run."""
        block = tmp_path / "block"
        block.write_text("worker parks inside cell 0 while this exists")
        cells = [("block", 0, str(block))] + [
            ("block", value, str(tmp_path / "absent")) for value in (1, 2, 3)
        ]
        queue_dir = tmp_path / "queue"
        _publish(queue_dir, cells, fleet_helpers.block_while_file_exists,
                 ttl=1.0)

        queue = WorkQueue(queue_dir, ttl=1.0)
        victim_lease = queue.lease_path(
            cell_key(cells[0], fleet_helpers.block_while_file_exists))
        worker = _spawn_worker(queue_dir)
        try:
            deadline = time.time() + 60.0
            while not os.path.exists(victim_lease):
                assert worker.poll() is None, "worker exited before claiming"
                assert time.time() < deadline, "worker never claimed cell 0"
                time.sleep(0.05)
            worker.send_signal(signal.SIGKILL)
            worker.wait(timeout=30)
        finally:
            if worker.poll() is None:
                worker.kill()
            block.unlink(missing_ok=True)

        # The dead worker's lease file survives it, unrenewed.
        assert os.path.exists(victim_lease)

        survivor = SweepEngine(
            cells, runner=fleet_helpers.block_while_file_exists,
            queue=queue_dir, lease_ttl=1.0,
        )
        outcomes = survivor.run()
        assert all(o.ok for o in outcomes)
        snap = survivor.registry.snapshot()
        assert snap["runtime.lease.expiries"] >= 1
        assert snap["runtime.lease.reclaims"] >= 1
        assert snap["runtime.store.writes"] == 4

        serial = SweepEngine(
            cells, runner=fleet_helpers.block_while_file_exists, jobs=1
        ).run()
        assert _results(outcomes) == _results(serial)

    def test_torn_lease_detected_and_taken_over(self, tmp_path):
        """A lease torn mid-write by a dying worker reads as dead —
        detected, counted, reclaimed, and the cell still completes."""
        cells = [("sq", value) for value in range(3)]
        queue_dir = tmp_path / "queue"
        _publish(queue_dir, cells, fleet_helpers.square)
        queue = WorkQueue(queue_dir)
        torn_path = queue.lease_path(cell_key(cells[1],
                                              fleet_helpers.square))
        with open(torn_path, "wb") as fh:
            fh.write(b'{"schema": "lease/v1", "owner": "dyi')

        engine = SweepEngine(cells, runner=fleet_helpers.square,
                             queue=queue_dir)
        outcomes = engine.run()
        assert all(o.ok for o in outcomes)
        assert [o.result["square"] for o in outcomes] == [0, 1, 4]
        snap = engine.registry.snapshot()
        assert snap["runtime.lease.torn"] == 1
        assert snap["runtime.lease.reclaims"] == 1
        assert snap["runtime.lease.claims"] == 2


class TestPoison:
    def test_poisoned_cell_adopted_without_reexecution(self, tmp_path):
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        cells = [("failneg", -1, str(log_dir)), ("failneg", 2, str(log_dir))]
        queue_dir = tmp_path / "queue"

        first = SweepEngine(cells, runner=fleet_helpers.fail_negative,
                            queue=queue_dir, retries=1)
        first_outcomes = first.run()
        assert not first_outcomes[0].ok
        assert first_outcomes[0].attempts == 2   # retry budget burned once
        assert first_outcomes[1].ok
        assert first.registry.snapshot()["runtime.lease.poisoned"] == 1
        assert _execution_counts(log_dir, [-1, 2]) == {-1: 2, 2: 1}

        # A later joiner adopts the published failure verbatim: same
        # classified outcome, zero additional executions of either cell.
        second = SweepEngine(cells, runner=fleet_helpers.fail_negative,
                             queue=queue_dir, retries=1)
        second_outcomes = second.run()
        assert asdict(second_outcomes[0]) == asdict(first_outcomes[0])
        assert second_outcomes[1].reused
        assert second_outcomes[1].result == first_outcomes[1].result
        assert _execution_counts(log_dir, [-1, 2]) == {-1: 2, 2: 1}
        snap = second.registry.snapshot()
        assert snap["runtime.lease.poisoned"] == 0   # adopted, not re-found
        assert snap["runtime.lease.claims"] == 0


    def test_adopted_poison_leaves_eta_unknown(self, tmp_path):
        """An adopted poison record completes instantly, like a resumed
        or reused cell: it is no basis for a rate, so while only it has
        landed the ETA is unknown, not near zero."""
        cells = [("sleep", value, 0.3) for value in range(3)]
        queue_dir = tmp_path / "queue"
        _publish(queue_dir, cells, fleet_helpers.sleep_square)
        WorkQueue(queue_dir).poison(
            cell_key(cells[0], fleet_helpers.sleep_square),
            CellOutcome(index=0, label="sleep0", ok=False,
                        error="ValueError: doomed", attempts=2,
                        failure_class="retryable"),
        )
        seen = []
        outcomes = SweepEngine(cells, runner=fleet_helpers.sleep_square,
                               queue=queue_dir, progress=seen.append).run()
        assert outcomes[0].failure_class == "retryable"
        assert [o.ok for o in outcomes] == [False, True, True]
        adopted, *fresh = seen
        assert not adopted.ok
        assert adopted.eta_seconds is None    # two real cells still to run
        assert fresh[0].eta_seconds > 0.2     # one 0.3 s cell left
        assert fresh[-1].eta_seconds == 0


class TestQueueIdentity:
    def test_foreign_campaign_rejected(self, tmp_path):
        """Joining a queue that holds a different experiment is a hard
        error — two campaigns must never interleave."""
        queue_dir = tmp_path / "queue"
        _publish(queue_dir, [("sq", v) for v in range(3)],
                 fleet_helpers.square)
        foreign = SweepEngine([("sq", v) for v in range(5)],
                              runner=fleet_helpers.square, queue=queue_dir)
        with pytest.raises(QueueMismatchError, match="refusing to join"):
            foreign.run()


class TestStoreIntegration:
    def test_warm_store_serves_every_cell(self, tmp_path):
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        cells = [("tracked", value, str(log_dir)) for value in range(5)]
        store_dir = tmp_path / "store"

        cold = SweepEngine(cells, runner=fleet_helpers.tracked_square,
                           store=store_dir).run()
        warm_engine = SweepEngine(cells, runner=fleet_helpers.tracked_square,
                                  store=store_dir)
        warm = warm_engine.run()
        assert all(o.reused for o in warm)
        assert warm_engine.reused_count == 5
        assert _results(warm) == _results(cold)
        assert _execution_counts(log_dir, range(5)) == {
            value: 1 for value in range(5)
        }
        snap = warm_engine.registry.snapshot()
        assert snap["runtime.store.hits"] == 5
        assert snap["runtime.store.misses"] == 0

    def test_corrupt_store_entry_recomputed_not_served(self, tmp_path):
        """End to end: a bit-flipped entry is quarantined, the cell is
        recomputed, and the final results are still bit-identical."""
        cells = [("sq", value) for value in range(4)]
        store_dir = tmp_path / "store"
        cold_engine = SweepEngine(cells, runner=fleet_helpers.square,
                                  store=store_dir)
        cold = cold_engine.run()

        from repro.runtime import ResultStore

        probe = ResultStore(store_dir)
        victim = cell_key(cells[2], fleet_helpers.square)
        path = probe.entry_path(victim)
        with open(path) as fh:
            record = json.load(fh)
        blob = record["payload_b64"]
        middle = len(blob) // 2
        flipped = "A" if blob[middle] != "A" else "B"
        record["payload_b64"] = blob[:middle] + flipped + blob[middle + 1:]
        with open(path, "w") as fh:
            json.dump(record, fh)

        repaired_engine = SweepEngine(cells, runner=fleet_helpers.square,
                                      store=store_dir)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            repaired = repaired_engine.run()
        assert _results(repaired) == _results(cold)
        assert repaired[2].reused is False        # recomputed, not served
        assert sum(o.reused for o in repaired) == 3
        snap = repaired_engine.registry.snapshot()
        assert snap["runtime.store.corrupt"] == 1
        assert snap["runtime.store.hits"] == 3
        assert snap["runtime.store.writes"] == 1  # the republished cell
        assert os.listdir(store_dir / "quarantine")

        # The repaired entry serves cleanly from now on.
        final_engine = SweepEngine(cells, runner=fleet_helpers.square,
                                   store=store_dir)
        final = final_engine.run()
        assert all(o.reused for o in final)
        assert _results(final) == _results(cold)
