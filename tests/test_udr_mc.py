"""Cross-validation: direct Monte-Carlo UDR vs the analytic estimator.

The moment-based estimator (repro.analysis.udr) abstracts the layout;
the Monte-Carlo scorer (repro.analysis.udr_mc) walks real uncorrectable
block addresses through a real AddressMap.  Agreement between the two
— within Monte-Carlo noise — validates the whole Figure 11 pipeline.
"""

import numpy as np
import pytest

from repro.analysis import compute_udr, scheme_depths
from repro.analysis.udr_mc import (
    build_dimm_map,
    data_range_blocks,
    extent_hits_in_range,
    monte_carlo_udr,
)
from repro.faults import FaultSimConfig, FaultSimulator
from repro.faults.ecc import DueRegion
from repro.faults.fault_model import Extent
from repro.memory import DimmGeometry


@pytest.fixture(scope="module")
def high_fit_sim():
    # High FIT so a few hundred conditioned trials see enough DUEs.
    return FaultSimulator(
        FaultSimConfig(fit_per_device=80, trials=4_000, seed=3)
    )


@pytest.fixture(scope="module")
def mc_baseline(high_fit_sim):
    return monte_carlo_udr(
        high_fit_sim, due_events_per_k=40, max_attempts_per_k=6_000,
        rng_seed=11,
    )


class TestDimmMap:
    def test_layout_fits_device(self, high_fit_sim):
        geometry = high_fit_sim.config.geometry
        amap = build_dimm_map(geometry)
        assert amap.total_bytes <= geometry.total_blocks * 64
        assert amap.num_levels >= 5

    def test_clone_depths_respected(self, high_fit_sim):
        geometry = high_fit_sim.config.geometry
        amap = build_dimm_map(geometry, clone_depths={1: 2, 2: 2})
        assert amap.clone_depths[1] == 2


class TestMonteCarloUdr:
    def test_l_error_agrees_with_per_block_probability(
        self, high_fit_sim, mc_baseline
    ):
        """The data-loss fraction is the high-statistics cross-check:
        every DUE event contributes, so even a small event budget pins
        it down — and it must match the moment estimator's per-block
        probability, computed by completely different code."""
        analytic_input = high_fit_sim.run(trials_per_k=1_500)
        ratio = mc_baseline.l_error_fraction / analytic_input.p_block_due
        # Loss per trial is heavy-tailed (rare whole-rank events carry
        # most of the mass), so 40 events/bucket only bounds the ratio
        # loosely; benchmarks/test_validation_mc.py tightens it.
        assert 0.1 < ratio < 10.0

    def test_udr_within_noise_of_analytic(self, high_fit_sim, mc_baseline):
        """UDR rides the rare metadata tail, so at this event budget we
        only bound it: positive and not above the analytic value by
        more than noise allows (the full-statistics comparison runs in
        benchmarks/test_validation_mc.py)."""
        analytic_input = high_fit_sim.run(trials_per_k=1_500)
        amap = build_dimm_map(high_fit_sim.config.geometry)
        analytic = compute_udr(
            analytic_input.p_block_due,
            amap.data_bytes,
            p_multi_due=analytic_input.p_multi_due_cross,
        )
        assert 0 <= mc_baseline.udr < analytic.udr * 50

    def test_data_errors_observed(self, mc_baseline):
        assert mc_baseline.l_error_fraction > 0
        assert mc_baseline.by_region.get("data", 0) > 0

    def test_cloning_never_increases_mc_udr(self, high_fit_sim, mc_baseline):
        amap = build_dimm_map(high_fit_sim.config.geometry)
        depths = scheme_depths("src", amap.data_bytes)
        mc_src = monte_carlo_udr(
            high_fit_sim, clone_depths=depths,
            due_events_per_k=40, max_attempts_per_k=6_000, rng_seed=11,
        )
        # Identical trial stream (same seed): cloning can only reduce
        # loss.  (Residual equality happens when the only sampled
        # metadata losses were sidecar-forced, which clones cannot fix.)
        assert mc_src.udr <= mc_baseline.udr


def _enumerated_data_blocks(regions, geometry, num_data_blocks):
    """Reference count: dedup every region's uncapped enumeration."""
    arrays = [
        extent_hits_in_range(
            region.extent, geometry, region.rank, 0, num_data_blocks
        )
        for region in regions
    ]
    return len(np.unique(np.concatenate(arrays)))


class TestDataRangeCount:
    """The exact data-range count behind L_error equals deduplicated
    block enumeration, with no cap on the enumeration."""

    @pytest.mark.parametrize("repair", ["chipkill", "secded"])
    def test_matches_enumeration_on_sampled_due_trials(self, repair):
        # 1024 rows keep each rank at 1M blocks, so the reference
        # enumeration stays cheap even for whole-rank faults.
        geometry = DimmGeometry(rows=1024)
        num_data_blocks = build_dimm_map(geometry).num_data_blocks
        simulator = FaultSimulator(
            FaultSimConfig(geometry=geometry, fit_per_device=80,
                           repair=repair)
        )
        rng = np.random.default_rng(5)
        scored = 0
        while scored < 40:
            faults = simulator.sample_faults(int(rng.integers(2, 9)), rng)
            regions = simulator.ecc.uncorrectable_regions(faults, geometry)
            if not regions:
                continue
            scored += 1
            assert data_range_blocks(
                regions, geometry, num_data_blocks
            ) == _enumerated_data_blocks(regions, geometry, num_data_blocks)

    def test_boundary_straddling_and_giant_regions(self):
        geometry = DimmGeometry()
        num_data_blocks = build_dimm_map(geometry).num_data_blocks
        rank, offset = divmod(num_data_blocks, geometry.blocks_per_rank)
        bank, rest = divmod(offset, geometry.rows * geometry.blocks_per_row)
        row, group = divmod(rest, geometry.blocks_per_row)
        # The default layout puts the data/metadata boundary mid-row in
        # an interior bank of the last rank.
        assert rank == geometry.ranks - 1
        assert 5 <= bank < geometry.banks - 1 and group > 0
        giant = DueRegion(
            rank, Extent(frozenset(range(bank - 5, bank + 1)), None, None)
        )
        regions = [
            giant,  # six banks, the last straddling the boundary
            DueRegion(rank, Extent(frozenset([bank]), frozenset([row]),
                                   None)),
            DueRegion(rank, Extent(frozenset([bank, bank + 1]), None,
                                   frozenset([group]))),
            DueRegion(rank, Extent(frozenset([bank + 1]),
                                   frozenset([row]),
                                   frozenset([group - 1]))),
            DueRegion(0, Extent(None, None, frozenset([3]))),
        ]
        # The old per-trial enumeration cap was 4,000,000 blocks.
        assert len(extent_hits_in_range(
            giant.extent, geometry, rank, 0, num_data_blocks
        )) > 4_000_000
        assert data_range_blocks(
            regions, geometry, num_data_blocks
        ) == _enumerated_data_blocks(regions, geometry, num_data_blocks)


class TestMonteCarloCi:
    def test_half_width_present_and_sane(self, mc_baseline):
        assert mc_baseline.udr_half_width >= 0.0
        # The CI must not dwarf the estimate into meaninglessness when
        # events were actually observed.
        if mc_baseline.udr > 0:
            assert mc_baseline.udr_half_width < mc_baseline.udr * 100


class TestEmpiricalVsAnalytic:
    """Per-scheme cross-check: the analytic UDR (moment estimator fed
    the campaign's own clone-survival moments) must land inside every
    registered scheme's empirical confidence interval at a fast FIT
    point — the acceptance gate for the streaming-campaign pipeline."""

    @pytest.fixture(scope="class")
    def report(self):
        import warnings

        from repro.faults import (
            importance_distribution,
            mc_report,
            run_mc_campaign,
        )

        config = FaultSimConfig(fit_per_device=80, trials=6_000, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            campaign = run_mc_campaign(
                config,
                trials=6_000,
                batch_trials=1_000,
                importance=importance_distribution(config.relative_rates),
            )
        return mc_report(campaign)

    def test_all_registered_schemes_covered(self, report):
        from repro.schemes import scheme_names

        assert set(report["schemes"]) == set(scheme_names())

    def test_analytic_inside_empirical_ci(self, report):
        for name, entry in report["schemes"].items():
            assert entry["analytic_in_ci"], (
                f"{name}: analytic {entry['analytic']:.3e} outside "
                f"{entry['udr']:.3e} +- {entry['half_width']:.1e}"
            )

    def test_error_bars_are_positive_when_loss_observed(self, report):
        for entry in report["schemes"].values():
            if entry["udr"] > 0:
                assert entry["half_width"] > 0

    def test_udr_result_propagates_moment_half_widths(self, report):
        analytic = compute_udr(
            report["p_block_due"],
            report["data_bytes"],
            clone_depths=scheme_depths("src", report["data_bytes"]),
            scheme="src",
            p_multi_due={
                int(d): v for d, v in report["p_multi_due_cross"].items()
            },
            p_multi_due_half_width={
                int(d): v
                for d, v in report["p_multi_due_cross_half_width"].items()
            },
        )
        assert analytic.half_width > 0
