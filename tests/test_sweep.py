"""Tests for the parallel sweep engine and the pinned bench."""

import json
import time
from dataclasses import asdict

import pytest

from repro.faults import CampaignConfig, run_campaign
from repro.sim import (
    CellOutcome,
    SimCell,
    SweepEngine,
    SystemConfig,
    run_bench,
    run_schemes,
    write_bench,
)

GCC = ("gcc", (), {"footprint_bytes": 1 << 20, "num_refs": 1200})
UBENCH = ("ubench", (64,), {"footprint_bytes": 1 << 20, "num_refs": 1200})


def _cells(schemes=("baseline", "src"), seed=5):
    config = SystemConfig.scaled(16)
    return [
        SimCell(workload=spec, scheme=scheme, config=config, seed=seed)
        for spec in (GCC, UBENCH)
        for scheme in schemes
    ]


# ---- picklable runners for failure-path tests ----

def _fail_on_odd(cell):
    if cell % 2 == 1:
        raise ValueError(f"cell {cell} is odd")
    return cell * 10


def _always_fail(cell):
    raise RuntimeError("nope")


def _slow(cell):
    time.sleep(2.0)
    return cell


def _fail_odd_varied_pace(cell):
    # Even cells finish fast, odd cells slowly: completions arrive out
    # of submission order, stressing per-cell attempt bookkeeping.
    time.sleep(0.02 if cell % 2 == 0 else 0.15)
    if cell % 2 == 1:
        raise ValueError(f"cell {cell} is odd")
    return cell * 10


def _sleep_half(cell):
    time.sleep(0.5)
    return cell


class TestSweepEngine:
    def test_serial_matches_parallel_bit_equal(self):
        """The acceptance criterion: jobs=1 and jobs=N produce
        bit-equal SimResult fields under a fixed seed."""
        serial = SweepEngine(_cells(), jobs=1).run()
        parallel = SweepEngine(_cells(), jobs=2).run()
        assert all(o.ok for o in serial + parallel)
        assert [asdict(o.result) for o in serial] == [
            asdict(o.result) for o in parallel
        ]

    def test_results_in_submission_order(self):
        outcomes = SweepEngine(_cells(), jobs=2).run()
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.label for o in outcomes] == [
            "gcc/baseline", "gcc/src", "ubench64/baseline", "ubench64/src"
        ]
        assert all(isinstance(o, CellOutcome) for o in outcomes)

    def test_per_cell_seeds_differentiate_sweeps(self):
        a = SweepEngine(_cells(seed=1), jobs=1).run()
        b = SweepEngine(_cells(seed=2), jobs=1).run()
        # gcc draws from the rng, so a different seed changes the trace.
        assert asdict(a[0].result) != asdict(b[0].result)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cell_degrades_gracefully(self, jobs):
        outcomes = SweepEngine(
            [0, 1, 2, 3], runner=_fail_on_odd, jobs=jobs, retries=1
        ).run()
        assert [o.ok for o in outcomes] == [True, False, True, False]
        assert outcomes[0].result == 0
        assert outcomes[2].result == 20
        assert "odd" in outcomes[1].error
        # Failing cells consumed the retry budget.
        assert outcomes[1].attempts == 2

    def test_retries_exhausted_reports_error(self):
        outcomes = SweepEngine(
            [7], runner=_always_fail, jobs=1, retries=2
        ).run()
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 3
        assert "RuntimeError" in outcomes[0].error

    def test_timeout_degrades_not_fatal(self):
        outcomes = SweepEngine(
            [1], runner=_slow, jobs=2, timeout=0.3
        ).run()
        assert not outcomes[0].ok
        assert "timeout" in outcomes[0].error

    def test_progress_callback_reports_eta(self):
        seen = []
        SweepEngine(_cells(), jobs=1, progress=seen.append).run()
        assert [p.done for p in seen] == [1, 2, 3, 4]
        assert all(p.total == 4 for p in seen)
        # Every completion here is fresh, so an observed rate exists
        # and the ETA is a real number (None is reserved for streams
        # with no fresh completions yet — see test_resume.py).
        assert all(p.eta_seconds is not None for p in seen)
        assert all(p.eta_seconds >= 0 for p in seen)
        assert seen[-1].eta_seconds == 0
        assert all(p.ok for p in seen)

    def test_empty_sweep(self):
        assert SweepEngine([], jobs=4).run() == []

    def test_exact_attempts_under_out_of_order_completion(self):
        """Retry accounting is per-cell even when jobs=N completes
        cells out of submission order: attempts means runner starts."""
        engine = SweepEngine(
            list(range(6)), runner=_fail_odd_varied_pace, jobs=3, retries=1
        )
        outcomes = engine.run()
        assert [o.ok for o in outcomes] == [
            True, False, True, False, True, False
        ]
        assert [o.attempts for o in outcomes] == [1, 2, 1, 2, 1, 2]
        for outcome in outcomes[1::2]:
            classes = [h["failure_class"] for h in outcome.attempt_history]
            assert classes == ["retryable", "retryable"]
        assert engine.registry.snapshot()["runtime.retries"] == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_done_strictly_increases(self, jobs):
        """A retried cell reports done exactly once — no double count
        in the progress stream or the ETA basis."""
        seen = []
        SweepEngine(
            list(range(4)), runner=_fail_odd_varied_pace, jobs=jobs,
            retries=2, progress=seen.append,
        ).run()
        dones = [p.done for p in seen]
        assert dones == sorted(set(dones)) == [1, 2, 3, 4]
        assert sorted(p.label for p in seen) == ["0", "1", "2", "3"]
        assert all(p.total == 4 for p in seen)

    def test_queued_cells_do_not_time_out(self):
        """The timeout clock starts when a cell is observed running,
        not when it is queued: 8 half-second cells through 2 workers
        must all pass with a 1.2s per-cell timeout."""
        outcomes = SweepEngine(
            list(range(8)), runner=_sleep_half, jobs=2, timeout=1.2
        ).run()
        assert [o.ok for o in outcomes] == [True] * 8
        assert [o.attempts for o in outcomes] == [1] * 8
        assert [o.result for o in outcomes] == list(range(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepEngine([], retries=-1)


class TestRunSchemesParallel:
    def test_jobs_parallel_bit_equal_to_serial(self):
        config = SystemConfig.scaled(16)
        serial = run_schemes(GCC, config=config, seed=3, jobs=1)
        parallel = run_schemes(GCC, config=config, seed=3, jobs=2)
        assert {k: asdict(v) for k, v in serial.items()} == {
            k: asdict(v) for k, v in parallel.items()
        }

    def test_jobs_rejects_closures(self):
        with pytest.raises(TypeError):
            run_schemes(lambda: None, jobs=2)


class TestBench:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_bench(refs=500, jobs=2, seed=2021)

    def test_grid_is_pinned(self, payload):
        assert payload["schema"] == "bench_perf/v5"
        assert payload["telemetry_schema"] == "telemetry/v1"
        assert len(payload["cells"]) == 15  # 5 workloads x 3 schemes
        workloads = {c["workload"] for c in payload["cells"]}
        assert workloads == {"ctree", "hashmap", "ubench", "mcf", "gcc"}
        assert all(c["ok"] for c in payload["cells"])

    def test_mc_block_is_vector_only(self, payload):
        """bench_perf/v5 times the one MC trial path; no A/B legs."""
        mc = payload["mc"]
        assert mc["trials"] == mc["trials_per_k"] * 7  # chipkill: k=2..8
        assert mc["trials_per_s"] > 0
        assert mc["p_block_due"] > 0
        assert not {"engines", "speedup", "identical"} & set(mc)

    def test_gcc_cell_is_cache_resident_and_scaled(self, payload):
        """The gcc showcase cell pins a 512 KiB footprint and 5x refs."""
        gcc = [c for c in payload["cells"] if c["workload"] == "gcc"]
        assert len(gcc) == 3
        assert all(c["refs"] == 500 * 5 for c in gcc)
        others = [c for c in payload["cells"] if c["workload"] != "gcc"]
        assert all(c["refs"] == 500 for c in others)

    def test_store_leg_is_bit_identical(self, payload):
        """The cold-store leg must change nothing but the wall-clock:
        same results as the plain serial leg, one published entry per
        cell, zero hits (the store starts empty)."""
        store = payload["store"]
        assert store["identical_outputs"] is True
        assert store["wall_s"] > 0
        assert store["hits"] == 0
        assert store["misses"] == len(payload["cells"])
        assert store["writes"] == len(payload["cells"])
        assert 0.0 <= store["overhead_fraction"] < 1.0

    def test_cells_report_latency_percentiles(self, payload):
        for cell in payload["cells"]:
            assert cell["read_p95_ns"] >= 0
            assert cell["write_p95_ns"] >= 0
        for result in payload["results"].values():
            summary = result["latency_ns"]["read"]
            assert summary["count"] > 0
            assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_parallel_leg_identical(self, payload):
        assert payload["identical_outputs"] is True
        assert payload["speedup"] is not None

    def test_cells_report_rates(self, payload):
        for cell in payload["cells"]:
            assert cell["serial_wall_s"] > 0
            assert cell["refs_per_s"] > 0

    def test_write_bench_round_trips(self, payload, tmp_path):
        path = write_bench(payload, str(tmp_path / "BENCH_perf.json"))
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded["identical_outputs"] is True
        assert loaded["results"] == json.loads(json.dumps(payload["results"]))


class TestCampaignParallel:
    def test_jobs_parallel_bit_equal_to_serial(self):
        config = CampaignConfig(
            data_bytes=16 * 1024,
            ops=150,
            num_faults=2,
            schemes=("baseline", "src"),
            targets=("counter",),
            scrub_intervals=(0, 50),
            seed=11,
        )
        serial = run_campaign(config, jobs=1)
        parallel = run_campaign(config, jobs=2)
        assert serial.to_json() == parallel.to_json()
