"""Monte-Carlo lifetime fault simulator (the FaultSim equivalent).

Fault arrivals per chip follow a Poisson process at the configured FIT
rate, split across fault modes by the Hopper distribution; each arrival
gets uniform coordinates; the ECC model then decides which block cells
are uncorrectable (DUE).

Because a five-year DIMM lifetime at 1-80 FIT/device sees *far* fewer
than one fault on average, a naive trial loop would need billions of
trials to observe the two-fault overlaps Chipkill can miss.  The
simulator therefore uses **conditional Monte Carlo**: the probability
of k faults in a lifetime is Poisson and known exactly, so it samples a
fixed number of trials *conditioned on each k* and combines

    E[DUE blocks] = sum_k  P(N = k) * E[DUE blocks | N = k].

This yields well-resolved estimates of per-block uncorrectability even
when the absolute probability is 1e-9 — the regime of Figure 11.

Trials are executed by :mod:`repro.faults.mc`, which samples whole
batches as numpy arrays from a counter-based RNG and evaluates the ECC
model vectorized; ``repro mc-diff`` replays its pinned behavior
(``tests/fixtures/mc_replay.json``).  The object model here —
:func:`union_block_count` over :mod:`repro.faults.ecc` regions — stays
the independent oracle the tests hold each vectorized trial against,
and :func:`repro.analysis.udr_mc.monte_carlo_udr` samples through it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from repro.faults import mc
from repro.faults.config import FaultSimConfig
from repro.faults.ecc import make_ecc
from repro.faults.fault_model import sample_fault


def union_block_count(regions, geometry, on_approximation=None) -> int:
    """Unique blocks covered by DUE regions (inclusion-exclusion).

    Regions in different ranks never overlap; within a rank the extents
    are rectangular products, so intersections stay rectangular and the
    inclusion-exclusion sum is exact — except above 14 regions per
    rank, where the additive *upper bound* replaces the 2^n sum.  That
    substitution silently overestimates DUEs, so it now warns and
    reports itself through ``on_approximation`` (called once per
    affected rank with the region count) for campaign accounting.
    """
    total = 0
    by_rank = {}
    for region in regions:
        by_rank.setdefault(region.rank, []).append(region.extent)
    for extents in by_rank.values():
        n = len(extents)
        if n > 14:
            # Astronomically rare; fall back to an upper bound.
            warnings.warn(
                f"union_block_count: {n} overlapping DUE regions in one "
                "rank; substituting the additive upper bound for "
                "inclusion-exclusion (overestimates unique DUE blocks)",
                RuntimeWarning,
                stacklevel=2,
            )
            if on_approximation is not None:
                on_approximation(n)
            total += sum(e.block_count(geometry) for e in extents)
            continue
        for r in range(1, n + 1):
            sign = 1 if r % 2 else -1
            for combo in combinations(extents, r):
                meet = combo[0]
                for other in combo[1:]:
                    meet = meet.intersect(other)
                    if meet.is_empty():
                        break
                else:
                    total += sign * meet.block_count(geometry)
    return total


@dataclass
class FaultSimResult:
    """Aggregated outcome of one campaign.

    ``p_multi_due[d]`` is the probability that ``d`` blocks placed at
    independent uniform locations are *all* uncorrectable by end of
    life: E[(U/N)^d] over trials, where U is the DUE-block union.  For
    d = 1 this is ``p_block_due``; for d >= 2 it is what clone-survival
    analysis needs, and it correctly includes the heavy tail of large
    correlated DUE regions (bank/row overlaps) that pure independence
    (p^d) would miss.
    """

    config: FaultSimConfig
    p_block_due: float          # P(a given block is uncorrectable by EOL)
    due_probability: float      # P(any DUE in the DIMM by EOL)
    expected_due_blocks: float  # E[# uncorrectable blocks per DIMM]
    #: E[(U/N)^d]: all d copies in the SAME fault domain (worst case).
    p_multi_due: dict = field(default_factory=dict)
    #: Copies spread round-robin across ranks (Soteria's separate clone
    #: region): E[prod_i f_{rank(i)}] — the default for UDR analysis.
    p_multi_due_cross: dict = field(default_factory=dict)
    by_fault_count: dict = field(default_factory=dict)
    #: Times the >14-region additive upper bound replaced exact
    #: inclusion-exclusion during the campaign (0 = every union exact).
    union_approximations: int = 0

    @property
    def total_blocks(self) -> int:
        return self.config.geometry.total_blocks


class FaultSimulator:
    """Conditional Monte-Carlo engine over one DIMM lifetime."""

    def __init__(self, config: FaultSimConfig):
        self.config = config
        self.ecc = make_ecc(config.repair)
        self._classes = list(config.relative_rates)
        self._weights = np.array(
            [config.relative_rates[c] for c in self._classes]
        )
        #: Upper-bound substitutions observed since the last run().
        self.union_approximations = 0

    def _note_approximation(self, region_count: int) -> None:
        self.union_approximations += 1

    def lifetime_fault_mean(self) -> float:
        """Expected fault arrivals per DIMM over the simulated life."""
        return self.config.expected_faults_per_dimm()

    def sample_faults(self, k: int, rng) -> list:
        """k independent fault arrivals with Hopper-distributed modes."""
        faults = []
        classes = rng.choice(len(self._classes), size=k, p=self._weights)
        for class_index in classes:
            faults.extend(
                sample_fault(
                    self._classes[int(class_index)], self.config.geometry, rng
                )
            )
        return faults

    def run(self, trials_per_k: int = None) -> FaultSimResult:
        """Run the campaign; ``trials_per_k`` defaults to
        ``config.trials / mc.MAX_FAULTS`` conditioned trials per bucket.
        """
        config = self.config
        if trials_per_k is None:
            trials_per_k = max(200, config.trials // mc.MAX_FAULTS)
        self.union_approximations = 0
        mean = self.lifetime_fault_mean()
        total_blocks = config.geometry.total_blocks
        max_depth = 5  # deepest cloning the analysis will ask about
        expected_due_blocks = 0.0
        due_probability = 0.0
        moments = {d: 0.0 for d in range(1, max_depth + 1)}
        cross_moments = {d: 0.0 for d in range(1, max_depth + 1)}
        by_fault_count = {}
        for k in range(mc.min_faults_for_due(config.repair),
                       mc.MAX_FAULTS + 1):
            pmf = mc.bucket_pmf(k, mean)
            if pmf <= 0:
                continue
            u_total, per_rank, _ = mc.batch_outputs(
                config, k, 0, trials_per_k,
                on_approximation=self._note_approximation,
            )
            blocks_sum, due_count, moment_sums, cross_sums = (
                mc.aggregate_outputs(
                    u_total, per_rank, config.geometry, max_depth
                )
            )
            mean_blocks = blocks_sum / trials_per_k
            mean_due = due_count / trials_per_k
            by_fault_count[k] = {
                "pmf": pmf,
                "mean_due_blocks": mean_blocks,
                "due_fraction": mean_due,
            }
            expected_due_blocks += pmf * mean_blocks
            due_probability += pmf * mean_due
            for d in moments:
                moments[d] += pmf * moment_sums[d] / trials_per_k
                cross_moments[d] += pmf * cross_sums[d] / trials_per_k
        return FaultSimResult(
            config=config,
            p_block_due=expected_due_blocks / total_blocks,
            due_probability=due_probability,
            expected_due_blocks=expected_due_blocks,
            p_multi_due=moments,
            p_multi_due_cross=cross_moments,
            by_fault_count=by_fault_count,
            union_approximations=self.union_approximations,
        )
