"""Integration tests for the preemption-tolerant sweep runtime:
checkpoint/resume determinism (including oracle-verified cells),
graceful signal draining, hung-worker watchdog, crashed-worker
recovery, and the --max-failures circuit breaker."""

import contextlib
import itertools
import json
import os
import signal
import time
from dataclasses import asdict

import pytest

from repro.faults import CampaignConfig, run_campaign
from repro.runtime import (
    CheckpointMismatchError,
    SimulatedCrashError,
    TooManyFailuresError,
    cell_key,
    set_failpoint,
)
from repro.sim import SimCell, SweepEngine, SystemConfig, sweep_report

from tests import fleet_helpers

GCC = ("gcc", (), {"footprint_bytes": 1 << 20, "num_refs": 800})


def _sim_cells(verify=False, seed=7, schemes=("baseline", "src")):
    config = SystemConfig.scaled(16)
    return [
        SimCell(workload=GCC, scheme=scheme, config=config, seed=seed,
                verify=verify)
        for scheme in schemes
    ]


# ---- module-level runners (must cross process boundaries) ----

def _square(cell):
    return cell * cell


def _slow_square(cell):
    time.sleep(0.05)
    return cell * cell


def _always_fail(cell):
    raise ValueError(f"cell {cell} is doomed")


def _hang_until_flag(cell):
    value, flagdir = cell
    flag = os.path.join(flagdir, f"ran-{value}")
    if not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(30)          # "hung": far beyond any test timeout
    return value * 7


def _exit_once(cell):
    value, flagdir = cell
    flag = os.path.join(flagdir, f"crashed-{value}")
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(13)            # simulated OOM-kill / segfault
    return value + 100


def _fail_once(cell):
    value, flagdir = cell
    flag = os.path.join(flagdir, f"tried-{value}")
    if not os.path.exists(flag):
        open(flag, "w").close()
        raise RuntimeError(f"transient failure on {value}")
    return value * 3


@contextlib.contextmanager
def crash_after_publishes(count):
    """Expect a power cut: let ``count`` atomic publishes land (the
    checkpoint manifest counts), then kill the next one before its
    rename."""
    publishes = itertools.count(1)

    def hook(site):
        if site == "before_rename" and next(publishes) > count:
            raise SimulatedCrashError(f"injected crash after {count} "
                                      "publishes")
    set_failpoint(hook)
    try:
        with pytest.raises(SimulatedCrashError):
            yield
    finally:
        set_failpoint(None)


class TestResumeDeterminism:
    """ISSUE acceptance: a sweep killed mid-flight and resumed merges
    to results bit-identical to an uninterrupted run."""

    def test_serial_crash_point_resume_bit_identical(self, tmp_path):
        cells = [0, 1, 2, 3, 4]
        clean_engine = SweepEngine(cells, runner=_square, jobs=1)
        clean = clean_engine.run()

        ckpt = str(tmp_path / "ckpt")
        # Crash after the manifest + 2 checkpointed cells.
        with crash_after_publishes(3):
            SweepEngine(cells, runner=_square, jobs=1,
                        checkpoint=ckpt).run()

        resumed_engine = SweepEngine(cells, runner=_square, jobs=1,
                                     checkpoint=ckpt, resume=True)
        resumed = resumed_engine.run()
        assert resumed_engine.resumed_count == 2
        assert [o.result for o in resumed] == [o.result for o in clean]
        assert [o.ok for o in resumed] == [True] * 5
        assert sum(o.resumed for o in resumed) == 2
        # The merged sweep/v1 results are bit-identical JSON.
        clean_json = json.dumps(
            sweep_report(clean_engine, clean)["results"], sort_keys=True)
        resumed_json = json.dumps(
            sweep_report(resumed_engine, resumed)["results"], sort_keys=True)
        assert clean_json == resumed_json

    @pytest.mark.parametrize("fail_after", [2, 4])
    def test_parallel_crash_points_resume_bit_identical(
            self, tmp_path, fail_after):
        cells = list(range(8))
        clean = SweepEngine(cells, runner=_square, jobs=1).run()

        ckpt = str(tmp_path / "ckpt")
        with crash_after_publishes(fail_after):
            SweepEngine(cells, runner=_square, jobs=4,
                        checkpoint=ckpt).run()

        resumed_engine = SweepEngine(cells, runner=_square, jobs=4,
                                     checkpoint=ckpt, resume=True)
        resumed = resumed_engine.run()
        assert resumed_engine.resumed_count == fail_after - 1
        assert [o.result for o in resumed] == [o.result for o in clean]
        assert [o.index for o in resumed] == list(range(8))

    def test_sim_cells_with_oracle_resume_bit_identical(self, tmp_path):
        """Resume composes with verify= sessions: the restored outcomes
        carry the embedded oracle report, bit-equal to a clean run."""
        cells = _sim_cells(verify=True)
        clean = SweepEngine(cells, jobs=1).run()
        assert all(o.result.verify["ok"] for o in clean)

        ckpt = str(tmp_path / "ckpt")
        with crash_after_publishes(2):
            SweepEngine(cells, jobs=1, checkpoint=ckpt).run()

        resumed = SweepEngine(cells, jobs=1, checkpoint=ckpt,
                              resume=True).run()
        assert [asdict(o.result) for o in resumed] == [
            asdict(o.result) for o in clean
        ]
        assert resumed[0].resumed and not resumed[1].resumed

    def test_resume_reruns_previously_failed_cells(self, tmp_path):
        """Failures are not checkpointed: a resume retries them instead
        of replaying the failure."""
        flags = str(tmp_path / "flags")
        os.makedirs(flags)
        cells = [(i, flags) for i in range(3)]
        ckpt = str(tmp_path / "ckpt")
        first = SweepEngine(cells, runner=_fail_once, jobs=1, retries=0,
                            checkpoint=ckpt).run()
        assert [o.ok for o in first] == [False] * 3

        resumed = SweepEngine(cells, runner=_fail_once, jobs=1, retries=0,
                              checkpoint=ckpt, resume=True).run()
        assert [o.result for o in resumed] == [0, 3, 6]
        assert all(not o.resumed for o in resumed)

    def test_resume_with_different_grid_refuses(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        SweepEngine([1, 2, 3], runner=_square, jobs=1,
                    checkpoint=ckpt).run()
        with pytest.raises(CheckpointMismatchError):
            SweepEngine([1, 2, 4], runner=_square, jobs=1,
                        checkpoint=ckpt, resume=True).run()

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError):
            SweepEngine([1], runner=_square, resume=True).run()

    def test_resumed_cells_report_unknown_eta_not_zero(self, tmp_path):
        """ETA honesty: restored cells complete instantly, so using
        them as a rate basis would report a bogus near-zero ETA for
        the real work remaining.  While only resumed cells have
        completed the ETA must be None (unknown); once a fresh cell
        lands it becomes a number; when the sweep is done it is 0."""
        cells = [0, 1, 2, 3]
        # Crash after the manifest + 2 checkpointed cells, leaving a
        # partial checkpoint to resume from.
        partial = str(tmp_path / "partial")
        with crash_after_publishes(3):
            SweepEngine(cells, runner=_square, jobs=1,
                        checkpoint=partial).run()

        seen = []
        resumed = SweepEngine(cells, runner=_square, jobs=1,
                              checkpoint=partial, resume=True,
                              progress=seen.append).run()
        assert [o.result for o in resumed] == [0, 1, 4, 9]
        restored = [p for p in seen if p.resumed]
        fresh = [p for p in seen if not p.resumed]
        assert len(restored) == 2 and len(fresh) == 2
        # No observed rate while only restored cells have landed.
        assert all(p.eta_seconds is None for p in restored)
        # Fresh completions establish a rate; the final report is 0.
        assert all(p.eta_seconds is not None for p in fresh)
        assert fresh[-1].eta_seconds == 0

    def test_runtime_counters_track_resume(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        SweepEngine([1, 2], runner=_square, jobs=1, checkpoint=ckpt).run()
        engine = SweepEngine([1, 2], runner=_square, jobs=1,
                             checkpoint=ckpt, resume=True)
        engine.run()
        snapshot = engine.registry.snapshot()
        assert snapshot["runtime.cells_resumed"] == 2
        assert snapshot["runtime.cells_completed"] == 0
        assert snapshot["runtime.retries"] == 0
        # Checkpoint hits are resumed cells, never shared-store traffic.
        assert snapshot["runtime.store.hits"] == 0
        assert snapshot["runtime.store.misses"] == 0
        assert snapshot["runtime.store.writes"] == 0

    def test_non_resume_run_executes_every_cell(self, tmp_path):
        """Without ``resume`` an existing checkpoint is never read: every
        cell runs again and the checkpoint is rewritten."""
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        cells = [("tracked", value, str(log_dir)) for value in range(3)]
        ckpt = str(tmp_path / "ckpt")
        SweepEngine(cells, runner=fleet_helpers.tracked_square,
                    checkpoint=ckpt).run()
        engine = SweepEngine(cells, runner=fleet_helpers.tracked_square,
                             checkpoint=ckpt)
        outcomes = engine.run()
        assert all(o.ok and not o.resumed for o in outcomes)
        assert engine.resumed_count == 0
        assert engine.registry.snapshot()["runtime.cells_completed"] == 3
        for value in range(3):
            log = log_dir / f"exec-{value}.log"
            assert len(log.read_text().splitlines()) == 2

    def test_resume_of_v1_journal_refuses_with_migration_note(
            self, tmp_path):
        """A checkpoint/v1 directory (a journal, no manifest) is not
        silently ignored: resuming it names the old format and the fix."""
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "journal.jsonl").write_text(
            '{"kind": "header", "schema": "checkpoint/v1"}\n')
        with pytest.raises(CheckpointMismatchError,
                           match=r"checkpoint/v1.*fresh directory"):
            SweepEngine([1, 2], runner=_square, jobs=1,
                        checkpoint=str(ckpt), resume=True).run()

    def test_resume_of_missing_or_empty_directory_starts_fresh(
            self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        for ckpt in (tmp_path / "missing", empty):
            engine = SweepEngine([1, 2], runner=_square, jobs=1,
                                 checkpoint=str(ckpt), resume=True)
            assert [o.result for o in engine.run()] == [1, 4]
            assert engine.resumed_count == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unwritable_checkpoint_raises_but_store_degrades(
            self, tmp_path, jobs):
        """A checkpoint that cannot record would defeat the resume it
        exists for, so its I/O errors raise; the same fault under a
        shared ``store=`` degrades to local compute with a warning."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        with pytest.raises(OSError):
            SweepEngine([1, 2], runner=_square, jobs=jobs,
                        checkpoint=str(blocker / "ckpt")).run()
        engine = SweepEngine([1, 2], runner=_square, jobs=jobs,
                             store=str(blocker / "store"))
        with pytest.warns(RuntimeWarning, match="degraded"):
            outcomes = engine.run()
        assert [o.result for o in outcomes] == [1, 4]
        assert engine.registry.snapshot()["runtime.store.degraded"] == 1

    def test_checkpoint_write_error_mid_sweep_raises(self, tmp_path):
        """Writes fail after the checkpoint opened: the entry publish
        raises instead of dropping the cell from the checkpoint."""
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "objects").mkdir()
        key = cell_key(1, _square)
        (ckpt / "objects" / key[:2]).write_text("squatting on the shard")
        with pytest.raises(OSError):
            SweepEngine([1], runner=_square, jobs=1,
                        checkpoint=str(ckpt)).run()


class TestGracefulShutdown:
    def test_sigterm_drains_and_salvages_serial(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        cells = [0, 1, 2, 3]

        def interrupt_once(progress):
            if progress.done == 1:
                signal.raise_signal(signal.SIGTERM)

        engine = SweepEngine(cells, runner=_slow_square, jobs=1,
                             progress=interrupt_once, checkpoint=ckpt)
        outcomes = engine.run()
        assert engine.interrupted
        assert engine.signal_name == "SIGTERM"
        assert outcomes[0].ok
        assert [o.failure_class for o in outcomes[1:]] == ["interrupted"] * 3
        assert "SIGTERM" in outcomes[1].error

        # The partial sweep/v1 report is marked and salvage-counted.
        report = sweep_report(engine, outcomes)
        assert report["interrupted"] is True
        assert report["salvage"] == {
            "total": 4, "completed": 1, "resumed": 0, "reused": 0,
            "failed": 0, "interrupted": 3,
        }

        # Resume converges to the uninterrupted result.
        resumed_engine = SweepEngine(cells, runner=_slow_square, jobs=1,
                                     checkpoint=ckpt, resume=True)
        resumed = resumed_engine.run()
        assert not resumed_engine.interrupted
        assert [o.result for o in resumed] == [0, 1, 4, 9]
        clean_engine = SweepEngine(cells, runner=_slow_square, jobs=1)
        clean = clean_engine.run()
        assert json.dumps(sweep_report(resumed_engine, resumed)["results"],
                          sort_keys=True) == \
            json.dumps(sweep_report(clean_engine, clean)["results"],
                       sort_keys=True)

    def test_sigterm_drains_in_flight_parallel(self):
        cells = list(range(6))
        fired = []

        def interrupt_once(progress):
            if not fired:
                fired.append(True)
                signal.raise_signal(signal.SIGTERM)

        engine = SweepEngine(cells, runner=_slow_square, jobs=2,
                             progress=interrupt_once)
        outcomes = engine.run()
        assert engine.interrupted
        done = [o for o in outcomes if o.ok]
        cut = [o for o in outcomes if o.failure_class == "interrupted"]
        assert len(done) + len(cut) == 6
        assert len(done) >= 1          # the signaled cell itself
        assert len(cut) >= 1           # the queue was drained, not run
        for outcome in done:           # drained results are real results
            assert outcome.result == outcome.index ** 2

    def test_second_signal_hard_stops(self):
        def interrupt_twice(progress):
            signal.raise_signal(signal.SIGTERM)
            signal.raise_signal(signal.SIGTERM)

        engine = SweepEngine([0, 1, 2], runner=_slow_square, jobs=1,
                             progress=interrupt_twice)
        with pytest.raises(KeyboardInterrupt):
            engine.run()

    def test_no_signal_no_interruption(self):
        engine = SweepEngine([1, 2], runner=_square, jobs=1)
        outcomes = engine.run()
        assert not engine.interrupted
        assert all(o.ok for o in outcomes)


class TestWorkerSupervision:
    def test_watchdog_kills_and_replaces_hung_worker(self, tmp_path):
        """ISSUE acceptance: hung-worker injection triggers
        kill + replace + retry, classified in the report."""
        flags = str(tmp_path)
        engine = SweepEngine([(5, flags)], runner=_hang_until_flag, jobs=2,
                             timeout=1.0, retries=1)
        outcomes = engine.run()
        assert outcomes[0].ok
        assert outcomes[0].result == 35
        assert outcomes[0].attempts == 2
        history = outcomes[0].attempt_history
        assert [h["failure_class"] for h in history] == ["timeout"]
        assert "timeout after 1.0s" in history[0]["error"]
        snapshot = engine.registry.snapshot()
        assert snapshot["runtime.worker_restarts"] >= 1
        assert snapshot["runtime.retries"] == 1

    def test_hung_worker_exhausts_timeout_budget(self, tmp_path):
        """A cell that hangs on every attempt degrades to a classified
        timeout failure instead of wedging the sweep."""
        engine = SweepEngine([1], runner=_hang_forever, jobs=2,
                             timeout=0.5, retries=0)
        outcomes = engine.run()
        assert not outcomes[0].ok
        assert outcomes[0].failure_class == "timeout"
        assert "timeout" in outcomes[0].error

    def test_innocent_bystanders_survive_watchdog(self, tmp_path):
        """Killing the pool to evict a hung cell must not fail the
        cells that were merely sharing it."""
        flags = str(tmp_path)
        cells = [(1, flags), (2, flags), (3, flags), (4, flags)]
        engine = SweepEngine(cells, runner=_hang_value_three, jobs=2,
                             timeout=1.0, retries=1)
        outcomes = engine.run()
        assert [o.ok for o in outcomes] == [True] * 4
        assert [o.result for o in outcomes] == [10, 20, 30, 40]

    def test_crashed_worker_is_replaced_and_cell_retried(self, tmp_path):
        """ISSUE acceptance: a simulated worker crash (os._exit) is
        survived — the pool is replaced and the cell re-run."""
        flags = str(tmp_path)
        engine = SweepEngine([(7, flags)], runner=_exit_once, jobs=2,
                             retries=2)
        outcomes = engine.run()
        assert outcomes[0].ok
        assert outcomes[0].result == 107
        assert engine.registry.snapshot()["runtime.worker_restarts"] >= 1

    def test_crash_alongside_healthy_cells(self, tmp_path):
        flags = str(tmp_path)
        cells = [(i, flags) for i in range(4)]
        engine = SweepEngine(cells, runner=_exit_value_two, jobs=2,
                             retries=2)
        outcomes = engine.run()
        assert [o.ok for o in outcomes] == [True] * 4
        assert [o.result for o in outcomes] == [0, 1, 2, 3]


def _hang_forever(cell):
    time.sleep(30)
    return cell


def _hang_value_three(cell):
    value, flagdir = cell
    if value == 3:
        _hang_until_flag((value, flagdir))   # hangs once, instant on retry
    return value * 10


def _exit_value_two(cell):
    value, flagdir = cell
    if value == 2:
        flag = os.path.join(flagdir, "crashed-2")
        if not os.path.exists(flag):
            open(flag, "w").close()
            os._exit(13)
    return value


class TestCircuitBreaker:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_max_failures_stops_early(self, jobs):
        engine = SweepEngine(list(range(10)), runner=_always_fail,
                             jobs=jobs, retries=0, max_failures=3)
        with pytest.raises(TooManyFailuresError) as excinfo:
            engine.run()
        assert excinfo.value.limit == 3
        assert len(excinfo.value.failures) == 3
        assert "retryable=3" in str(excinfo.value)

    def test_max_failures_validation(self):
        with pytest.raises(ValueError):
            SweepEngine([1], max_failures=0)

    def test_under_the_limit_completes(self):
        engine = SweepEngine([0, 1], runner=_square, jobs=1,
                             max_failures=1)
        outcomes = engine.run()
        assert all(o.ok for o in outcomes)


class TestCampaignResilience:
    def _config(self):
        return CampaignConfig(
            data_bytes=16 * 1024, ops=150, num_faults=2,
            schemes=("baseline", "src"), targets=("counter",),
            scrub_intervals=(0,), seed=11,
        )

    def test_campaign_checkpoint_resume_identical(self, tmp_path):
        config = self._config()
        clean = run_campaign(config, jobs=1)
        ckpt = str(tmp_path / "ckpt")
        first = run_campaign(config, jobs=1, checkpoint=ckpt)
        resumed = run_campaign(config, jobs=1, checkpoint=ckpt, resume=True)
        assert resumed.salvage["resumed"] == 2
        assert resumed.runs == clean.runs == first.runs
        assert resumed.schemes == clean.schemes
        assert not resumed.interrupted

    def test_campaign_report_carries_salvage_and_runtime(self):
        report = run_campaign(self._config(), jobs=1)
        payload = report.to_dict()
        assert payload["interrupted"] is False
        assert payload["salvage"]["completed"] == 2
        assert payload["runtime"]["runtime.cells_completed"] == 2

    def test_interrupted_campaign_returns_partial_report(self, tmp_path):
        config = CampaignConfig(
            data_bytes=16 * 1024, ops=150, num_faults=2,
            schemes=("baseline", "src"), targets=("counter",),
            scrub_intervals=(0, 50), seed=11,
        )

        def interrupt_once(progress):
            if progress.done == 1:
                signal.raise_signal(signal.SIGTERM)

        ckpt = str(tmp_path / "ckpt")
        report = run_campaign(config, jobs=1, progress=interrupt_once,
                              checkpoint=ckpt)
        assert report.interrupted
        assert report.salvage["completed"] == 1
        assert report.salvage["interrupted"] == 3
        assert len(report.runs) == 1

        # Resuming converges to the uninterrupted report.
        clean = run_campaign(config, jobs=1)
        resumed = run_campaign(config, jobs=1, checkpoint=ckpt, resume=True)
        assert not resumed.interrupted
        assert resumed.runs == clean.runs
        assert resumed.schemes == clean.schemes
        assert resumed.resilience == clean.resilience
