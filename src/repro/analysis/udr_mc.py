"""Direct Monte-Carlo UDR: map uncorrectable blocks through the layout.

The moment-based estimator in :mod:`repro.analysis.udr` is fast and
resolves tiny probabilities, but it abstracts the layout into per-level
node counts.  This module is its cross-validator: it takes each fault
trial's *actual* uncorrectable block addresses, classifies them against
a real :class:`~repro.memory.AddressMap` laid out across the DIMM, and
applies the clone-survival rule node by node — no independence or
uniformity assumptions at all.

Data-range loss is counted exactly without enumerating blocks; only
the small metadata range is enumerated.  Being rejection-sampled, it
cannot resolve probabilities far below 1/trials, so use it to validate
the analytic pipeline at high FIT (see ``tests/test_udr_mc.py``), not
to regenerate Figure 11's deep tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import CACHELINE_BYTES
from repro.faults import mc
from repro.faults.faultsim import FaultSimulator
from repro.memory import AddressMap


def extent_block_indices(extent, geometry, rank: int) -> np.ndarray:
    """All block indices an extent covers in ``rank``, vectorized."""
    return extent_hits_in_range(
        extent, geometry, rank, 0, geometry.total_blocks
    )


def extent_hits_in_range(extent, geometry, rank: int, lo: int, hi: int) -> np.ndarray:
    """Block indices of ``extent`` that fall inside [lo, hi), sorted.

    Enumerates only the banks/rows that can intersect the range, so
    scoring the (small) metadata region of a giant extent costs
    proportionally to the *region*, not the extent.
    """
    per_bank = geometry.rows * geometry.blocks_per_row
    base = rank * geometry.blocks_per_rank
    if hi <= base or lo >= base + geometry.blocks_per_rank:
        return np.empty(0, dtype=np.int64)
    banks = (
        np.fromiter(sorted(extent.banks), dtype=np.int64)
        if extent.banks is not None
        else np.arange(geometry.banks, dtype=np.int64)
    )
    rows = (
        np.fromiter(sorted(extent.rows), dtype=np.int64)
        if extent.rows is not None
        else np.arange(geometry.rows, dtype=np.int64)
    )
    groups = (
        np.fromiter(sorted(extent.groups), dtype=np.int64)
        if extent.groups is not None
        else np.arange(geometry.blocks_per_row, dtype=np.int64)
    )
    bpr = geometry.blocks_per_row
    pieces = []
    for bank in banks:
        bank_base = base + int(bank) * per_bank
        if hi <= bank_base or lo >= bank_base + per_bank:
            continue
        # Rows that can produce indices in [lo, hi) for this bank.
        row_lo = max(0, (lo - bank_base - (bpr - 1)) // bpr)
        row_hi = min(geometry.rows, (hi - bank_base - 1) // bpr + 1)
        rows_sub = rows[(rows >= row_lo) & (rows < row_hi)]
        if not len(rows_sub):
            continue
        grid = (bank_base + rows_sub[:, None] * bpr + groups[None, :]).ravel()
        pieces.append(grid[(grid >= lo) & (grid < hi)])
    if not pieces:
        return np.empty(0, dtype=np.int64)
    out = np.concatenate(pieces)
    out.sort()
    return out


def _encode_extent(extent, geometry) -> list:
    """``(bank mask, row, group)`` regions (``-1`` = all) covering an extent."""
    if extent.banks is None:
        mask = (1 << geometry.banks) - 1
    else:
        mask = sum(1 << bank for bank in extent.banks)
    rows = (-1,) if extent.rows is None else extent.rows
    groups = (-1,) if extent.groups is None else extent.groups
    return [(mask, row, group) for row in rows for group in groups]


def _box_count(regions, banks: int, row_lo: int, row_hi: int, groups: int) -> int:
    """Union of ``regions`` inside the box ``banks`` (a mask) x rows
    ``[row_lo, row_hi)`` x groups ``[0, groups)``."""
    clipped = [
        (mask & banks, row, group)
        for mask, row, group in regions
        if mask & banks
        and (row == -1 or row_lo <= row < row_hi)
        and group < groups
    ]
    return mc.union_count(clipped, row_hi - row_lo, groups)


def data_range_blocks(regions, geometry, num_data_blocks: int) -> int:
    """Exact count of unique blocks in ``[0, num_data_blocks)`` covered
    by DUE ``regions``, without enumerating them.

    A rank's share of the range is a prefix of its bank/row/group
    space, which splits into at most three boxes: whole banks, whole
    rows of the next bank, then groups of the next row.
    """
    by_rank = {}
    for region in regions:
        by_rank.setdefault(region.rank, []).extend(
            _encode_extent(region.extent, geometry)
        )
    bpr = geometry.blocks_per_row
    total = 0
    for rank, encoded in by_rank.items():
        prefix = min(
            num_data_blocks - rank * geometry.blocks_per_rank,
            geometry.blocks_per_rank,
        )
        if prefix <= 0:
            continue
        banks, rest = divmod(prefix, geometry.rows * bpr)
        rows, groups = divmod(rest, bpr)
        total += _box_count(encoded, (1 << banks) - 1, 0, geometry.rows, bpr)
        if rest:
            total += _box_count(encoded, 1 << banks, 0, rows, bpr)
            total += _box_count(encoded, 1 << banks, rows, rows + 1, groups)
    return total


@dataclass
class MonteCarloUdr:
    """Outcome of a direct Monte-Carlo UDR campaign.

    ``udr_half_width`` is a delta-method 95% CI half-width combining,
    per fault count, the sampling variance of the conditional loss mean
    with the binomial variance of the rejection-sampling DUE rate.
    ``truncated`` is always 0: data-range blocks are counted exactly,
    never enumerated under a cap.  It stays for callers that read it.
    """

    udr: float
    l_error_fraction: float          # data-region DUE bytes / data bytes
    trials_with_due: int
    truncated: int = 0
    by_region: dict = field(default_factory=dict)
    udr_half_width: float = 0.0


def build_dimm_map(geometry, clone_depths=None, shadow_entries: int = 8192) -> AddressMap:
    """An AddressMap sized to (mostly) fill one DIMM's block space."""
    capacity = geometry.total_blocks * CACHELINE_BYTES
    data_bytes = (int(capacity * 0.95) // CACHELINE_BYTES) * CACHELINE_BYTES
    while data_bytes > 0:
        amap = AddressMap(
            data_bytes, clone_depths=clone_depths, shadow_entries=shadow_entries
        )
        if amap.total_bytes <= capacity:
            return amap
        data_bytes -= (1 << 20)
    raise ValueError("geometry too small for a secure layout")


def _range_hits(due_blocks: np.ndarray, lo_block: int, hi_block: int) -> np.ndarray:
    """Sorted DUE indices inside [lo, hi), rebased to the range start."""
    i0 = int(np.searchsorted(due_blocks, lo_block))
    i1 = int(np.searchsorted(due_blocks, hi_block))
    return due_blocks[i0:i1] - lo_block


def _unverifiable_bytes(amap: AddressMap, due_blocks: np.ndarray) -> tuple:
    """(unverifiable bytes, per-region counts) for one trial's sorted,
    unique uncorrectable *metadata-range* block indices.

    Fully vectorized: every region is a contiguous block-index range,
    so classification is range slicing and the clone-survival rule is
    an ``intersect1d`` across each node's copy hit-sets.
    """
    block = CACHELINE_BYTES
    region_counts = {}

    mac_hits = _range_hits(
        due_blocks, amap.mac_offset // block, amap.counter_offset // block
    )
    if len(mac_hits):
        region_counts["mac"] = len(mac_hits)

    counter_hits = _range_hits(
        due_blocks,
        amap.counter_offset // block,
        amap.counter_mac_offset // block,
    )
    if len(counter_hits):
        region_counts["counter"] = len(counter_hits)

    sidecar_hits = _range_hits(
        due_blocks,
        amap.counter_mac_offset // block,
        amap.counter_mac_offset // block + amap.num_counter_mac_blocks,
    )
    if len(sidecar_hits):
        region_counts["counter_mac"] = len(sidecar_hits)

    tree_hits = {}
    for level in range(2, amap.num_levels + 1):
        lo = amap.tree_offsets[level] // block
        hits = _range_hits(due_blocks, lo, lo + amap.level_sizes[level - 1])
        tree_hits[level] = hits
        if len(hits):
            region_counts["tree"] = region_counts.get("tree", 0) + len(hits)

    clone_hits = {}
    for level, offset in amap.clone_offsets.items():
        size = amap.level_sizes[level - 1]
        for copy in range(1, amap.clone_depths[level]):
            lo = offset // block + (copy - 1) * size
            hits = _range_hits(due_blocks, lo, lo + size)
            clone_hits[(level, copy)] = hits
            if len(hits):
                region_counts["clone"] = (
                    region_counts.get("clone", 0) + len(hits)
                )

    shadow_lo = amap.shadow_offset // block
    shadow_count = int(
        np.searchsorted(due_blocks, shadow_lo + amap.shadow_entries)
        - np.searchsorted(due_blocks, shadow_lo)
    )
    if shadow_count:
        region_counts["shadow"] = shadow_count
    total_blocks = amap.total_bytes // block
    spare = len(due_blocks) - int(np.searchsorted(due_blocks, total_blocks))
    if spare:
        region_counts["spare"] = spare

    # Clone-survival rule, per level: a node is lost iff every stored
    # copy is hit.  A hit sidecar MAC block forces its eight counter
    # blocks unverifiable regardless of clones (documented limitation
    # of the sidecar layout; the paper embeds leaf MACs).
    unverifiable = 0
    num_data_blocks = amap.num_data_blocks
    for level in range(1, amap.num_levels + 1):
        lost = counter_hits if level == 1 else tree_hits[level]
        for copy in range(1, amap.clone_depths.get(level, 1)):
            lost = np.intersect1d(
                lost, clone_hits[(level, copy)], assume_unique=True
            )
        if level == 1 and len(sidecar_hits):
            forced = (sidecar_hits[:, None] * 8 + np.arange(8)).ravel()
            forced = forced[forced < amap.level_sizes[0]]
            lost = np.union1d(lost, forced)
        if not len(lost):
            continue
        span = 64 * 8 ** (level - 1)  # data blocks per node
        covered = np.minimum(
            span, num_data_blocks - lost.astype(np.int64) * span
        )
        covered = np.clip(covered, 0, None)
        unverifiable += int(covered.sum()) * block
    return unverifiable, region_counts


def monte_carlo_udr(
    simulator: FaultSimulator,
    clone_depths=None,
    due_events_per_k: int = 150,
    max_attempts_per_k: int = 40_000,
    rng_seed: int = 7,
) -> MonteCarloUdr:
    """Run conditioned fault trials and score UDR against the layout.

    Variance control is two-level: trials are conditioned on fault
    count (Poisson pmf weighting, as in :meth:`FaultSimulator.run`) and
    *additionally* on producing any DUE at all (rejection sampling):

        E[loss] = sum_k pmf(k) * P(DUE | k) * E[loss | k, DUE]

    Only DUE trials pay for scoring (metadata-range enumeration and the
    exact data-range count), so the estimator concentrates its
    expensive samples exactly where loss can occur.
    """
    config = simulator.config
    geometry = config.geometry
    amap = build_dimm_map(geometry, clone_depths=clone_depths)
    rng = np.random.default_rng(rng_seed)
    mean = simulator.lifetime_fault_mean()

    expected_unverifiable = 0.0
    expected_data_error = 0.0
    unverifiable_var = 0.0
    trials_with_due = 0
    by_region = {}
    for k in range(mc.min_faults_for_due(config.repair), mc.MAX_FAULTS + 1):
        pmf = mc.bucket_pmf(k, mean)
        if pmf <= 0:
            continue
        attempts = 0
        scored = 0
        unverifiable_sum = 0.0
        unverifiable_sumsq = 0.0
        data_error_sum = 0.0
        while scored < due_events_per_k and attempts < max_attempts_per_k:
            attempts += 1
            faults = simulator.sample_faults(k, rng)
            regions = simulator.ecc.uncorrectable_regions(faults, geometry)
            if not regions:
                continue
            scored += 1
            trials_with_due += 1
            # Metadata range: scored exactly (it is small, ~5% of the
            # device, so even a whole-rank fault enumerates cheaply).
            meta_lo = amap.num_data_blocks
            meta_hi = amap.total_bytes // CACHELINE_BYTES
            meta_arrays = [
                extent_hits_in_range(
                    region.extent, geometry, region.rank, meta_lo, meta_hi
                )
                for region in regions
            ]
            meta_arrays = [a for a in meta_arrays if len(a)]
            if len(meta_arrays) == 1:
                meta_blocks = meta_arrays[0]
            elif meta_arrays:
                meta_blocks = np.unique(np.concatenate(meta_arrays))
            else:
                meta_blocks = np.empty(0, dtype=np.int64)

            # Data range: only the count matters (L_error), and it is
            # counted exactly without enumerating the blocks.
            data_hits = data_range_blocks(regions, geometry, meta_lo)

            unverifiable, counts = _unverifiable_bytes(amap, meta_blocks)
            if data_hits:
                counts["data"] = counts.get("data", 0) + data_hits
            unverifiable_sum += unverifiable
            unverifiable_sumsq += float(unverifiable) ** 2
            data_error_sum += data_hits * CACHELINE_BYTES
            for name, count in counts.items():
                by_region[name] = by_region.get(name, 0) + count
        if not scored:
            continue
        p_due = scored / attempts
        mean_loss = unverifiable_sum / scored
        expected_unverifiable += pmf * p_due * mean_loss
        expected_data_error += pmf * p_due * data_error_sum / scored
        # Delta-method variance of pmf * p_hat * m_hat: conditional
        # loss-mean sampling noise + binomial rejection-rate noise.
        var_loss = (
            max(0.0, unverifiable_sumsq / scored - mean_loss**2)
            * scored / (scored - 1)
            if scored > 1 else 0.0
        )
        var_p = p_due * (1.0 - p_due) / attempts
        unverifiable_var += pmf * pmf * (
            p_due * p_due * var_loss / scored + mean_loss**2 * var_p
        )

    return MonteCarloUdr(
        udr=expected_unverifiable / amap.data_bytes,
        l_error_fraction=expected_data_error / amap.data_bytes,
        trials_with_due=trials_with_due,
        by_region=by_region,
        udr_half_width=1.96 * math.sqrt(unverifiable_var) / amap.data_bytes,
    )
