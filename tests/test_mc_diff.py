"""The Monte-Carlo replay prover (repro mc-diff) and its pinned fixture."""

import json

import pytest

from repro.verify.mc_diff import (
    DEFAULT_FIXTURE,
    MC_DIFF_SCHEMA,
    MC_REPLAY_SCHEMA,
    corpus_cases,
    diff_configs,
    run_case,
    run_mc_diff,
)
from repro.verify.engine_diff import load_fixture


@pytest.fixture(scope="module")
def replay_report():
    return run_mc_diff()


@pytest.fixture(scope="module")
def pinned():
    return load_fixture(DEFAULT_FIXTURE, schema=MC_REPLAY_SCHEMA)


def _replay_one(pinned, name):
    case = next(
        c for c in corpus_cases(pinned["trials"]) if c["name"] == name
    )
    return run_case(case, pinned["cases"].get(name))


class TestCorpus:
    def test_corpus_covers_every_ecc_model(self):
        repairs = {config.repair for _, config, _ in diff_configs()}
        assert repairs == {"chipkill", "chipkill2", "secded", "none"}

    def test_corpus_pins_degenerate_geometry(self):
        names = [name for name, _, _ in diff_configs()]
        assert any("tiny-geometry" in name for name in names)

    def test_corpus_reaches_the_fallback_bucket(self):
        assert any(8 in ks for _, _, ks in diff_configs())

    def test_fixture_pins_every_case(self, pinned):
        names = {c["name"] for c in corpus_cases(pinned["trials"])}
        assert set(pinned["cases"]) == names
        assert len(names) == 54

    def test_fixture_records_fallback_events(self, pinned):
        # The k=8 bucket at FIT 80 hits the >14-region additive bound.
        assert pinned["cases"]["trial:chipkill/hopper/k8"]["approximations"]


class TestQuickSuite:
    def test_everything_identical(self, replay_report):
        assert replay_report["schema"] == MC_DIFF_SCHEMA
        assert replay_report["recorded"] is False
        assert replay_report["identical"] is True
        for row in replay_report["cases"]:
            assert row["identical"], row

    def test_covers_all_layers(self, replay_report):
        kinds = {row["kind"] for row in replay_report["cases"]}
        assert kinds == {"rng", "sampler", "trial", "result", "batching"}
        # importance runs through the trial layer under a marked name
        assert any(
            row["name"].endswith("/importance")
            for row in replay_report["cases"]
        )

    def test_progress_callback_sees_every_row(self):
        seen = []
        report = run_mc_diff(progress=seen.append)
        assert len(seen) == report["total"]


class TestSingleCases:
    def test_rng_case_identical(self, pinned):
        assert _replay_one(pinned, "rng:splitmix64")["identical"]

    def test_sampler_case_identical(self, pinned):
        assert _replay_one(pinned, "sampler:chipkill/hopper/k2")["identical"]

    def test_trial_case_identical(self, pinned):
        assert _replay_one(pinned, "trial:chipkill/hopper/k2")["identical"]


class TestFixtureDrift:
    def test_drift_and_missing_case_detected(self, tmp_path):
        """A drifted pinned value names its field; a dropped case is
        flagged rather than silently skipped."""
        with open(DEFAULT_FIXTURE) as fh:
            fixture = json.load(fh)
        fixture["cases"]["result:chipkill/hopper"]["p_block_due"] *= 1.0 + 1e-15
        fixture["cases"]["trial:secded/hopper/k4"]["blocks"] += 1
        del fixture["cases"]["sampler:none/hopper/k8"]
        path = tmp_path / "mc_replay.json"
        path.write_text(json.dumps(fixture))

        report = run_mc_diff(fixture=str(path))
        assert report["identical"] is False
        rows = {row["name"]: row for row in report["cases"]}
        assert rows["result:chipkill/hopper"]["mismatched"] == ["p_block_due"]
        assert rows["trial:secded/hopper/k4"]["mismatched"] == ["blocks"]
        assert rows["sampler:none/hopper/k8"]["mismatched"] == [
            "missing-from-fixture"
        ]
        assert sum(not row["identical"] for row in report["cases"]) == 3

    def test_wrong_schema_refused(self, tmp_path):
        path = tmp_path / "mc_replay.json"
        path.write_text(json.dumps({"schema": "mc_replay/v0", "cases": {}}))
        with pytest.raises(ValueError, match="mc_replay/v1"):
            run_mc_diff(fixture=str(path))

    def test_record_round_trip(self, tmp_path):
        path = tmp_path / "mc_replay.json"
        recorded = run_mc_diff(fixture=str(path), record=True)
        assert recorded["recorded"] is True
        assert recorded["total"] == 54
        replayed = run_mc_diff(fixture=str(path))
        assert replayed["identical"] is True
        assert replayed["recorded"] is False
        # Re-recording on unchanged code reproduces the committed pin.
        with open(DEFAULT_FIXTURE, "rb") as fh:
            assert path.read_bytes() == fh.read()
