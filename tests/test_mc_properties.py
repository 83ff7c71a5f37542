"""Property tests for the streaming MC layer.

Three invariants the 1e8-trial campaign design rests on:

* estimator state is a pure function of the *set* of batches — any
  insertion or merge order yields bitwise-identical aggregates;
* the vectorized sampler is batch-size invariant — any chunking of a
  global trial range yields identical fault arrays;
* a checkpointed campaign resumed mid-flight finishes bit-identical to
  an uninterrupted run.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultSimConfig,
    McBatchStat,
    McEstimatorState,
    run_mc_campaign,
    union_block_count,
)
from repro.faults import mc
from repro.faults.ecc import DueRegion
from repro.faults.fault_model import Extent
from repro.memory.geometry import DimmGeometry


CONFIG = FaultSimConfig(fit_per_device=80, trials=2_000, seed=3)

_STAT_NAMES = ("due", "blocks", "moment_2", "cross_2", "scheme:src")


@st.composite
def batch_stats(draw):
    trials = draw(st.integers(1, 500))
    finite = st.floats(
        0.0, 1e9, allow_nan=False, allow_infinity=False
    )
    return McBatchStat(
        k=draw(st.integers(1, 8)),
        batch_index=draw(st.integers(0, 30)),
        trials=trials,
        due_count=draw(st.integers(0, trials)),
        approximated_ranks=draw(st.integers(0, 3)),
        weight_sum=draw(finite),
        weight_sumsq=draw(finite),
        sums={name: draw(finite) for name in _STAT_NAMES},
        sumsq={name: draw(finite) for name in _STAT_NAMES},
    )


class TestMergeOrderInvariance:
    @given(stats=st.lists(batch_stats(), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_any_insertion_order_is_bitwise_identical(self, stats, seed):
        unique = list({s.key(): s for s in stats}.values())
        forward = McEstimatorState()
        for s in unique:
            forward.add(s)
        shuffled = list(unique)
        np.random.default_rng(seed).shuffle(shuffled)
        backward = McEstimatorState()
        for s in shuffled:
            backward.add(s)
        assert forward.per_k() == backward.per_k()
        assert forward.total_trials == backward.total_trials

    @given(stats=st.lists(batch_stats(), min_size=2, max_size=10),
           cut=st.integers(0, 10))
    @settings(deadline=None, max_examples=60)
    def test_merge_is_commutative(self, stats, cut):
        unique = list({s.key(): s for s in stats}.values())
        cut = min(cut, len(unique))
        a, b = McEstimatorState(), McEstimatorState()
        for s in unique[:cut]:
            a.add(s)
        for s in unique[cut:]:
            b.add(s)
        assert a.merge(b).per_k() == b.merge(a).per_k()

    def test_duplicate_add_is_noop_conflict_is_error(self):
        stat = McBatchStat(
            k=2, batch_index=0, trials=10, due_count=1,
            approximated_ranks=0, weight_sum=10.0, weight_sumsq=10.0,
            sums={"due": 1.0}, sumsq={"due": 1.0},
        )
        state = McEstimatorState()
        state.add(stat)
        state.add(stat)  # idempotent
        assert len(state.batches) == 1
        conflicting = McBatchStat(
            k=2, batch_index=0, trials=10, due_count=2,
            approximated_ranks=0, weight_sum=10.0, weight_sumsq=10.0,
            sums={"due": 2.0}, sumsq={"due": 2.0},
        )
        with pytest.raises(ValueError, match="conflicting"):
            state.add(conflicting)


class TestSamplerBatchInvariance:
    @given(
        k=st.sampled_from([1, 2, 5]),
        edges=st.lists(st.integers(1, 149), unique=True, max_size=4),
    )
    @settings(deadline=None, max_examples=25)
    def test_any_chunking_yields_identical_arrays(self, k, edges):
        bounds = [0] + sorted(edges) + [150]
        whole = mc.sample_batch(CONFIG, k, 0, 150)
        parts = [
            mc.sample_batch(CONFIG, k, lo, hi - lo)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        for name in ("class_index", "rank", "chip", "bank_mask",
                     "row", "group", "multibit", "weight"):
            stitched = np.concatenate([getattr(p, name) for p in parts])
            assert np.array_equal(getattr(whole, name), stitched)


_UNION_GEOMETRY = DimmGeometry(
    chips=8, chips_per_rank=4, ranks=2, banks=4, rows=4, cols=256
)

_region = st.tuples(
    st.sets(st.integers(0, 3), min_size=1, max_size=4),
    st.integers(-1, 3),
    st.integers(-1, 3),
)


def _encode(specs):
    """``(mask, row, group)`` encodings and rank-0 ``DueRegion``s."""
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


class TestUnionEncoding:
    @given(specs=st.lists(_region, min_size=1, max_size=14))
    @settings(deadline=None, max_examples=80)
    def test_int_encoding_matches_object_union(self, specs):
        """The vector engine's (mask, row, group) union count must
        agree with ``union_block_count``'s inclusion-exclusion on the
        object model for densely overlapping sets of up to 14 regions
        (the exact limit) in a 4-bank x 4-row x 4-group rank."""
        encoded, regions = _encode(specs)
        assert mc._union_regions(
            encoded, _UNION_GEOMETRY
        ) == union_block_count(regions, _UNION_GEOMETRY)

    @given(specs=st.lists(_region, min_size=0, max_size=40))
    @settings(deadline=None, max_examples=80)
    def test_union_count_matches_cell_enumeration(self, specs):
        """``union_count`` has no region limit: past 14 regions it
        still equals the number of distinct (bank, row, group) cells."""
        encoded, _ = _encode(specs)
        rows = _UNION_GEOMETRY.rows
        groups = _UNION_GEOMETRY.blocks_per_row
        cells = {
            (bank, r, g)
            for banks, row, group in specs
            for bank in banks
            for r in (range(rows) if row == -1 else [row])
            for g in (range(groups) if group == -1 else [group])
        }
        assert mc.union_count(encoded, rows, groups) == len(cells)


class TestResumeEqualsUninterrupted:
    def _compare(self, a, b):
        assert a.p_block_due == b.p_block_due
        assert a.p_block_due_half_width == b.p_block_due_half_width
        assert a.due_probability == b.due_probability
        assert a.expected_due_blocks == b.expected_due_blocks
        assert a.p_multi_due == b.p_multi_due
        assert a.p_multi_due_cross == b.p_multi_due_cross
        assert a.by_fault_count == b.by_fault_count
        assert a.schemes == b.schemes
        assert a.state.per_k() == b.state.per_k()
        assert a.total_trials == b.total_trials

    def test_resumed_campaign_bit_identical(self, tmp_path):
        """Run wave 0 checkpointed (the 'interrupted' half), then the
        full campaign with resume: the finished estimate must be
        bitwise equal to an uninterrupted run of the same budget."""
        kwargs = dict(batch_trials=200, schemes=("baseline", "src"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            uninterrupted = run_mc_campaign(
                CONFIG, max_waves=2, **kwargs
            )
            run_mc_campaign(
                CONFIG, max_waves=1,
                checkpoint=str(tmp_path / "mc"), **kwargs
            )
            resumed = run_mc_campaign(
                CONFIG, max_waves=2,
                checkpoint=str(tmp_path / "mc"), resume=True, **kwargs
            )
        self._compare(uninterrupted, resumed)

    def test_checkpointed_equals_plain(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plain = run_mc_campaign(CONFIG, max_waves=1, batch_trials=150,
                                    schemes=())
            journaled = run_mc_campaign(
                CONFIG, max_waves=1, batch_trials=150, schemes=(),
                checkpoint=str(tmp_path / "ck"),
            )
        self._compare(plain, journaled)
