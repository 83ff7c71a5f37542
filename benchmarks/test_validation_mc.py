"""Validation — direct Monte-Carlo UDR vs the moment-based estimator.

Figure 11 rests on the moment estimator (per-block uncorrectability
probabilities x layout arithmetic).  This bench re-derives UDR the hard
way — mapping each fault trial's actual uncorrectable block addresses
through a real AddressMap laid out on the DIMM, clone-survival decided
node by node — and checks the two agree.  They share no code path, so
agreement validates the whole reliability pipeline.
"""

from repro.analysis import compute_udr, scheme_depths
from repro.analysis.udr_mc import build_dimm_map, monte_carlo_udr
from repro.faults import FaultSimConfig, FaultSimulator

FIT = 80  # high rate so the Monte-Carlo tail is populated


def run_validation():
    simulator = FaultSimulator(
        FaultSimConfig(fit_per_device=FIT, trials=20_000, seed=3)
    )
    amap = build_dimm_map(simulator.config.geometry)
    mc = monte_carlo_udr(
        simulator, due_events_per_k=90, max_attempts_per_k=25_000,
        rng_seed=11,
    )
    moments = simulator.run(trials_per_k=2_500)
    analytic = compute_udr(
        moments.p_block_due,
        amap.data_bytes,
        p_multi_due=moments.p_multi_due_cross,
    )
    mc_src = monte_carlo_udr(
        simulator,
        clone_depths=scheme_depths("src", amap.data_bytes),
        due_events_per_k=90,
        max_attempts_per_k=25_000,
        rng_seed=11,
    )
    return mc, mc_src, analytic, moments


def test_validation_mc_vs_analytic(benchmark):
    mc, mc_src, analytic, moments = benchmark.pedantic(
        run_validation, rounds=1, iterations=1
    )

    print(f"\nValidation — Monte-Carlo vs moment estimator (FIT {FIT})")
    print(f"{'quantity':>26} {'monte-carlo':>13} {'analytic':>13} {'ratio':>7}")
    print(f"{'P(block DUE)/L_err':>26} {mc.l_error_fraction:>13.3e} "
          f"{moments.p_block_due:>13.3e} "
          f"{mc.l_error_fraction/moments.p_block_due:>7.2f}")
    print(f"{'baseline UDR':>26} {mc.udr:>13.3e} {analytic.udr:>13.3e} "
          f"{mc.udr/analytic.udr:>7.2f}")
    print(f"{'SRC UDR (co-located)':>26} {mc_src.udr:>13.3e} {'—':>13}")
    print(f"({mc.trials_with_due} DUE events scored; data-region "
          "blocks counted exactly, none truncated)")

    # Per-block probability: agreement despite heavy-tailed per-trial
    # loss (rare whole-rank events carry most of the mass).
    assert 0.3 < mc.l_error_fraction / moments.p_block_due < 3.0
    # Baseline UDR: same order of magnitude, completely separate paths.
    assert 0.2 < mc.udr / analytic.udr < 5.0
    # Placement finding: with the clone region laid out *contiguously
    # on the same DIMM*, large-extent faults (bank/rank overlaps, which
    # dominate the high-FIT tail) take out originals and clones
    # together — co-located clones barely help.  This is the direct
    # measurement behind modeling Soteria's clones in a separate fault
    # domain (the cross-rank moments Figure 11 uses).
    assert mc_src.udr <= mc.udr
    assert mc_src.udr > mc.udr / 10
