"""Tests for the eager vs lazy tree-update policies (Section 2.5)."""

import numpy as np
import pytest

from repro.controller import SecureMemoryController
from repro.controller.strategy import INTEGRITY_MODES, UPDATE_POLICIES
from repro.recovery import RecoveryManager, recover_image

KB = 1024
MB = 1024 * KB


def make(policy, data_bytes=4 * MB, cache_kb=16, seed=3):
    return SecureMemoryController(
        data_bytes,
        metadata_cache_bytes=cache_kb * KB,
        update_policy=policy,
        rng=np.random.default_rng(seed),
    )


def storm(ctrl, ops=800, seed=9):
    rng = np.random.default_rng(seed)
    expect = {}
    for _ in range(ops):
        block = int(rng.integers(0, ctrl.num_data_blocks))
        data = bytes(int(x) for x in rng.integers(0, 256, 64))
        ctrl.write(block, data)
        expect[block] = data
    return expect


class TestEagerUpdates:
    def test_policy_validated(self):
        with pytest.raises(ValueError):
            make("sometimes")

    def test_roundtrip(self):
        ctrl = make("eager")
        expect = storm(ctrl, ops=400)
        for block, data in expect.items():
            assert ctrl.read(block).data == data

    def test_eager_writes_whole_branch_per_write(self):
        """One isolated write persists data + MAC + counter + sidecar +
        every tree level above — the eager write amplification."""
        ctrl = make("eager")
        ctrl.write(0, bytes(64))
        w = ctrl.stats.nvm_writes_by_kind
        num_levels = ctrl.amap.num_levels
        assert w["data"] == 1
        assert w["mac"] == 1
        assert w["counter"] == 1
        assert w["tree"] == num_levels - 1
        assert w.get("shadow", 0) == 0  # no tracking needed

    def test_eager_nvm_never_stale(self):
        """After any write burst the NVM copy of every touched counter
        equals the cached copy (no dirty metadata anywhere)."""
        ctrl = make("eager")
        storm(ctrl, ops=300)
        ctrl.wpq.drain_all()
        dirty = [1 for *_, d in ctrl.metadata_cache.resident() if d]
        assert not dirty

    def test_eager_crash_needs_no_recovery_work(self):
        ctrl = make("eager")
        expect = storm(ctrl, ops=500)
        image = ctrl.crash()
        recovered, report = RecoveryManager(image).recover()
        assert report.entries_scanned == 0
        assert report.counters_recovered == 0
        for block, data in expect.items():
            assert recovered.read(block).data == data

    def test_eager_more_writes_than_lazy_on_deep_tree(self):
        """The paper's reason for lazy update: eager write traffic
        scales with tree depth."""
        eager = make("eager", data_bytes=16 * MB, cache_kb=64)
        lazy = make("lazy", data_bytes=16 * MB, cache_kb=64)
        for ctrl in (eager, lazy):
            rng = np.random.default_rng(4)
            for _ in range(600):
                block = int(rng.integers(0, ctrl.num_data_blocks))
                ctrl.write(block, bytes(64))
        assert eager.stats.total_nvm_writes > 1.3 * lazy.stats.total_nvm_writes

    def test_eager_verifies_cleanly(self):
        ctrl = make("eager")
        storm(ctrl, ops=300)
        assert ctrl.verify_system() == []

    def test_eager_with_cloning(self):
        from repro.core import make_controller

        ctrl = make_controller(
            "src",
            4 * MB,
            metadata_cache_bytes=16 * KB,
            update_policy="eager",
            rng=np.random.default_rng(1),
        )
        expect = storm(ctrl, ops=300)
        # Clones are written on every persist in eager mode.
        assert ctrl.stats.nvm_writes_by_kind["clone"] > 0
        for block, data in expect.items():
            assert ctrl.read(block).data == data

    def test_crash_image_preserves_policy(self):
        ctrl = make("eager")
        storm(ctrl, ops=50)
        image = ctrl.crash()
        assert image.update_policy == "eager"
        recovered, __ = RecoveryManager(image).recover()
        assert recovered.update_policy == "eager"


#: The pairs a policy's recovery cannot work under, and the rule named.
INVALID_PAIRS = {
    ("selective", "toc"): "'selective' update policy requires integrity_mode='bmt'",
    ("batched", "bmt"): "'batched' update policy requires integrity_mode='toc'",
}


class TestPolicyModeMatrix:
    """Every update policy under every integrity mode, scheme-less."""

    @pytest.mark.parametrize("policy,mode", [
        (policy, mode) for policy in UPDATE_POLICIES for mode in INTEGRITY_MODES
    ])
    def test_pair(self, policy, mode):
        def build():
            return SecureMemoryController(
                256 * KB,
                metadata_cache_bytes=4 * KB,
                update_policy=policy,
                integrity_mode=mode,
                rng=np.random.default_rng(11),
            )

        rule = INVALID_PAIRS.get((policy, mode))
        if rule is not None:
            with pytest.raises(ValueError, match=rule):
                build()
            return
        ctrl = build()
        expect = storm(ctrl, ops=400, seed=12)
        recovered, __ = recover_image(ctrl.crash())
        assert (recovered.update_policy, recovered.integrity_mode) == (
            policy, mode,
        )
        lost = [
            block for block, data in expect.items()
            if recovered.read(block).data != data
        ]
        assert lost == []


def full_scan_flush(ctrl, cost):
    """Reference flush: the algorithm before the metadata cache kept a
    dirty index.  Per level it rescans and sorts every resident line
    and classifies each address; the controller now walks only the
    level's dirty lines and must persist in exactly this order."""
    mcache, amap = ctrl.metadata_cache, ctrl.amap
    for level in range(1, amap.num_levels + 1):
        for address, payload, dirty in mcache.resident():
            if not dirty or not mcache.is_dirty(address):
                continue
            region = amap.region_of(address)
            if region[0] == "counter" and level == 1:
                index = region[1]
            elif region[0] == "tree" and region[1] == level:
                index = region[2]
            else:
                continue
            ctrl.integrity.persist(ctrl, level, index, payload, cost)
            if mcache.contains(address):
                mcache.mark_clean(address)


class TestFlushOrder:
    """The dirty-index flush persists the same (level, index) sequence
    as the full-scan reference, including when a ToC parent bump
    miss-fetches into a full set and evicts lines mid-flush."""

    @staticmethod
    def run(scheme, reference: bool):
        from repro.core import make_controller

        # 16 four-way metadata slots over 256 counter blocks: parent
        # bumps during the flush miss and evict lines still queued.
        ctrl = make_controller(
            scheme, MB, metadata_cache_bytes=KB, metadata_ways=4,
            rng=np.random.default_rng(5),
        )
        flush = full_scan_flush.__get__(ctrl) if reference else ctrl._flush_metadata
        flushing = []

        def traced_flush(cost):
            flushing.append(True)
            try:
                flush(cost)
            finally:
                flushing.pop()

        ctrl._flush_metadata = traced_flush
        log, mid_flush_evictions = [], []
        persist = ctrl.integrity.persist

        def spy(c, level, index, payload, cost):
            address = c.amap.node_addr(level, index)
            resident = c.metadata_cache.contains(address)
            log.append((level, index))
            persist(c, level, index, payload, cost)
            if flushing and resident and not c.metadata_cache.contains(address):
                mid_flush_evictions.append((level, index))

        ctrl.integrity.persist = spy
        storm(ctrl, ops=300, seed=5)
        ctrl.flush()
        image = {a: ctrl.nvm.peek_block(a) for a in ctrl.nvm.touched_addresses()}
        return log, mid_flush_evictions, image

    @pytest.mark.parametrize("scheme", ["phoenix", "baseline", "src", "sac"])
    def test_same_persist_sequence_as_full_scan(self, scheme):
        log, evictions, image = self.run(scheme, reference=False)
        want_log, want_evictions, want_image = self.run(scheme, reference=True)
        assert evictions, "no line was evicted by its own persist mid-flush"
        assert log == want_log
        assert evictions == want_evictions
        assert image == want_image
