"""Vectorized Monte-Carlo core against its live object-model oracle.

The batched engine (repro.faults.mc) reduces each trial to integers;
these tests re-derive those integers through the independent object
model — ``decode_trial`` back to :class:`Fault` objects, the
:mod:`repro.faults.ecc` models, and ``union_block_count`` — and hold
the engine to them bit for bit.  The engine's own pinned behavior is
replayed by ``repro.verify.mc_diff`` (see tests/test_mc_diff.py).
"""

import inspect
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

from repro.faults import FaultSimConfig, FaultSimulator, union_block_count
from repro.faults import mc
from repro.faults.ecc import DueRegion, make_ecc
from repro.faults.fault_model import Extent


CONFIG = FaultSimConfig(fit_per_device=80, trials=4_000, seed=3)


def oracle_outputs(config, k, start_trial, trials, q=None,
                   on_approximation=None):
    """``mc.batch_outputs`` re-derived through the object model.

    Faults come from the (pinned) vector sampler, decoded back to
    objects; everything after that — DUE regions, per-rank unions,
    fallback events, likelihood ratios — is computed independently.
    """
    geometry = config.geometry
    ecc = make_ecc(config.repair)
    batch = mc.sample_batch(config, k, start_trial, trials, q=q)
    ratios = (
        {name: config.relative_rates[name] / q[name] for name in q}
        if q is not None else None
    )
    u_total = np.zeros(trials, dtype=np.int64)
    per_rank = np.zeros((trials, geometry.ranks), dtype=np.int64)
    weights = np.ones(trials, dtype=np.float64)
    for i in range(trials):
        faults = mc.decode_trial(batch, i, geometry)
        if ratios is not None:
            weight = 1.0
            for fault in faults:  # slot order, as sampled
                weight = weight * ratios[fault.fault_class]
            weights[i] = weight
        regions = ecc.uncorrectable_regions(faults, geometry)
        for rank in range(geometry.ranks):
            rank_regions = [r for r in regions if r.rank == rank]
            if rank_regions:
                per_rank[i, rank] = union_block_count(
                    rank_regions, geometry, on_approximation=on_approximation
                )
        u_total[i] = per_rank[i].sum()
    return u_total, per_rank, weights


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args, **kwargs)


class TestCounterRng:
    def test_mix64_matches_array_twin(self):
        probes = [0, 1, 2021, 1 << 32, (1 << 63) + 5, (1 << 64) - 1]
        vector = mc.mix64_array(np.array(probes, dtype=np.uint64))
        for i, probe in enumerate(probes):
            assert mc.mix64(probe) == int(vector[i])

    def test_draw_matches_array_twin(self):
        # draw_array(key, t) == mix64(key ^ t * stride) on Python ints.
        key = mc.stream_key(2021, 3, 1, mc.F_ROW)
        trials = np.arange(0, 256, dtype=np.uint64)
        vector = mc.draw_array(key, trials)
        for t in range(256):
            expected = mc.mix64(key ^ ((t * mc._STREAM) & mc._MASK64))
            assert expected == int(vector[t])

    def test_stream_keys_distinct_per_field(self):
        keys = {
            mc.stream_key(2021, 2, 0, field)
            for field in range(mc.F_NBANK_SCORE + 1)
        }
        assert len(keys) == mc.F_NBANK_SCORE + 1

    def test_draws_depend_on_trial_index_only(self):
        # Global trial identity: the same (key, t) always yields the
        # same word, which is what makes chunking invariant.
        key = mc.stream_key(7, 4, 2, mc.F_CHIP)
        whole = mc.draw_array(key, np.arange(0, 2000, dtype=np.uint64))
        assert int(whole[1234]) == int(
            mc.draw_array(key, np.array([1234], dtype=np.uint64))[0]
        )


_PINNED = {
    # class: (banks pinned to one, row pinned, group pinned)
    "bit": (True, True, True),
    "word": (True, True, True),
    "column": (True, False, True),
    "row": (True, True, False),
    "bank": (True, False, False),
    "nbank": (False, False, False),
    "nrank": (False, False, False),
}


class TestSamplerTwins:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_decode_matches_class_structure(self, k):
        """Decoded faults have the extent shape ``sample_fault`` gives
        their class, sit on a chip of their rank, and carry the
        class's multibit flag."""
        geometry = CONFIG.geometry
        batch = mc.sample_batch(CONFIG, k, 0, 120)
        for i in range(120):
            faults = mc.decode_trial(batch, i, geometry)
            assert len(faults) == k
            for fault in faults:
                single_bank, has_row, has_group = _PINNED[fault.fault_class]
                extent = fault.extent
                assert fault.chip in geometry.chip_ids_of_rank(fault.rank)
                assert fault.multibit == (fault.fault_class != "bit")
                assert (extent.rows is not None) == has_row
                assert (extent.groups is not None) == has_group
                if fault.fault_class == "nrank":
                    assert extent.banks is None
                elif fault.fault_class == "nbank":
                    assert 2 <= len(extent.banks) <= geometry.banks
                else:
                    assert single_bank and len(extent.banks) == 1

    def test_direct_weights_are_unity(self):
        batch = mc.sample_batch(CONFIG, 4, 0, 50)
        assert np.all(batch.weight == 1.0)

    def test_batch_size_invariance(self):
        whole = mc.sample_batch(CONFIG, 5, 0, 90)
        parts = [
            mc.sample_batch(CONFIG, 5, lo, hi - lo)
            for lo, hi in [(0, 1), (1, 40), (40, 90)]
        ]
        for name in ("class_index", "rank", "chip", "bank_mask",
                     "row", "group", "multibit"):
            stitched = np.concatenate(
                [getattr(p, name) for p in parts]
            )
            assert np.array_equal(getattr(whole, name), stitched)


ORACLE_CASES = [
    (repair, k)
    for repair in ("chipkill", "chipkill2", "secded", "none")
    for k in (mc.min_faults_for_due(repair), mc.MAX_FAULTS)
]


class TestEngineParity:
    """The vectorized engine against the live object-model oracle."""

    @pytest.mark.parametrize("repair,k", ORACLE_CASES)
    def test_evaluate_batch_matches_object_model(self, repair, k):
        config = FaultSimConfig(
            fit_per_device=80, trials=4_000, seed=7, repair=repair
        )
        events = {"engine": [], "oracle": []}
        batch = mc.sample_batch(config, k, 0, 600)
        u_total, per_rank = _quiet(
            mc.evaluate_batch, batch, config,
            on_approximation=events["engine"].append,
        )
        expected = _quiet(
            oracle_outputs, config, k, 0, 600,
            on_approximation=events["oracle"].append,
        )
        assert np.array_equal(per_rank, expected[1])
        assert np.array_equal(u_total, expected[0])
        assert sorted(events["engine"]) == sorted(events["oracle"])

    @pytest.mark.parametrize("repair", ["chipkill", "secded", "none"])
    def test_run_bit_identical(self, repair, monkeypatch):
        """End to end: swapping the engine's trial path for the oracle
        leaves every ``FaultSimResult`` float unchanged."""
        config = FaultSimConfig(
            fit_per_device=80, trials=2_000, seed=5, repair=repair
        )
        engine = asdict(_quiet(FaultSimulator(config).run, trials_per_k=250))
        monkeypatch.setattr(mc, "batch_outputs", oracle_outputs)
        oracle = asdict(_quiet(FaultSimulator(config).run, trials_per_k=250))
        assert engine == oracle

    def test_batch_outputs_parity_per_trial(self):
        engine = mc.batch_outputs(CONFIG, 3, 0, 300)
        oracle = oracle_outputs(CONFIG, 3, 0, 300)
        for a, b in zip(engine, oracle):
            assert np.array_equal(a, b)

    def test_engine_selectors_are_gone(self):
        """One trial path: no engine argument or field survives."""
        for fn in (mc.batch_outputs, mc.run_mc_campaign,
                   FaultSimulator.run):
            assert "engine" not in inspect.signature(fn).parameters
        assert "engine" not in {f.name for f in fields(mc.McBatchSpec)}


def _encoded_and_object_regions(specs, geometry):
    """Build matching (mask, row, group) encodings and DueRegions."""
    encoded, regions = [], []
    for banks, row, group in specs:
        mask = 0
        for bank in banks:
            mask |= 1 << bank
        encoded.append((mask, row, group))
        regions.append(
            DueRegion(
                rank=0,
                extent=Extent(
                    banks=set(banks),
                    rows=None if row == -1 else {row},
                    groups=None if group == -1 else {group},
                ),
            )
        )
    return encoded, regions


class TestUnionFallback:
    def test_union_regions_matches_union_block_count(self):
        geometry = CONFIG.geometry
        specs = [
            ([0], 5, -1),
            ([0], -1, 7),
            ([0, 1, 2], -1, -1),
            ([1], 5, 7),
            ([2], -1, -1),
        ]
        encoded, regions = _encoded_and_object_regions(specs, geometry)
        assert mc._union_regions(encoded, geometry) == union_block_count(
            regions, geometry
        )

    def test_additive_fallback_matches_and_counts(self):
        # >14 same-rank regions: both paths must substitute the same
        # additive bound and report each event.
        geometry = CONFIG.geometry
        specs = [([i % geometry.banks], i, -1) for i in range(16)]
        encoded, regions = _encoded_and_object_regions(specs, geometry)
        events_obj = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = union_block_count(
                regions, geometry, on_approximation=events_obj.append
            )
        additive = sum(
            mc._region_blocks(m, r, g, geometry) for m, r, g in encoded
        )
        assert expected == additive
        assert events_obj == [16]

    def test_fallback_surfaces_through_batched_path(self):
        # fit=80, k=8 triggers real >14-region trials; the engine and
        # the object-model oracle must agree on outputs and on the
        # multiset of fallback events.
        events = {"engine": [], "oracle": []}
        outputs = {
            "engine": _quiet(
                mc.batch_outputs, CONFIG, 8, 0, 4_000,
                on_approximation=events["engine"].append,
            ),
            "oracle": _quiet(
                oracle_outputs, CONFIG, 8, 0, 4_000,
                on_approximation=events["oracle"].append,
            ),
        }
        assert sorted(events["engine"]) == sorted(events["oracle"])
        assert len(events["engine"]) > 0
        for a, b in zip(outputs["engine"], outputs["oracle"]):
            assert np.array_equal(a, b)

    def test_fallback_recorded_in_result(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = FaultSimulator(CONFIG).run(trials_per_k=4_000)
        assert result.union_approximations > 0

    def test_fallback_warns_once_per_rank_per_batch(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mc.batch_outputs(CONFIG, 8, 0, 4_000)
        fallback = [
            w for w in caught
            if "overlapping DUE regions" in str(w.message)
        ]
        # Chunked evaluation: at most one warning per rank per chunk,
        # never one per trial.
        assert 0 < len(fallback) <= 2 * (
            4_000 // mc._CHUNK_TRIALS + 1
        ) * CONFIG.geometry.ranks


class TestImportanceSampling:
    def test_distribution_tilts_heavy_classes(self):
        q = mc.importance_distribution(CONFIG.relative_rates, tilt=0.5)
        assert abs(sum(q.values()) - 1.0) < 1e-12
        for name in mc.HEAVY_CLASSES:
            if CONFIG.relative_rates.get(name, 0.0) > 0.0:
                assert q[name] > CONFIG.relative_rates[name]

    def test_weights_are_exact_likelihood_ratios(self):
        """Each trial's weight is the product of p/q over its decoded
        classes, multiplied in slot order (bit-equal, not approximate)."""
        rates = CONFIG.relative_rates
        q = mc.importance_distribution(rates, tilt=0.6)
        for k in (2, 8):
            batch = mc.sample_batch(CONFIG, k, 0, 200, q=q)
            for i in range(200):
                faults = mc.decode_trial(batch, i, CONFIG.geometry)
                assert len(faults) == k
                weight = 1.0
                for fault in faults:
                    weight = weight * (rates[fault.fault_class]
                                       / q[fault.fault_class])
                assert batch.weight[i] == weight

    def test_importance_preserves_due_support(self):
        # Weighted due indicator must stay a probability estimate.
        q = mc.importance_distribution(CONFIG.relative_rates)
        u_total, _, weight = mc.batch_outputs(CONFIG, 2, 0, 500, q=q)
        estimate = float(((u_total > 0) * weight).mean())
        assert 0.0 <= estimate <= 1.5


class TestSchemeCoefficients:
    def test_coefficients_cover_all_depths(self):
        coefs = mc.scheme_loss_coefficients("src", mc.DEFAULT_DATA_BYTES)
        assert coefs
        depths = [d for d, _ in coefs]
        assert depths == sorted(set(depths))
        assert all(weight > 0 for _, weight in coefs)

    def test_baseline_depth_is_one(self):
        coefs = mc.scheme_loss_coefficients(
            "baseline", mc.DEFAULT_DATA_BYTES
        )
        assert [d for d, _ in coefs] == [1]
