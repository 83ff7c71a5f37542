"""Triad-NVM recovery: relaxed regeneration above the persisted levels.

The ``selective`` update policy keeps the encryption counters and the
bottom ``persist_levels`` BMT levels strictly persistent — every write
lands them in NVM before it completes — so after a crash nothing below
the anchor level is ever stale.  Recovery therefore needs **no**
data-MAC trials at all (the contrast with Osiris this scheme buys):

1. **Anchor** — read every persisted block at level N (the highest
   strictly-persisted level).
2. **Regenerate** levels N+1..root from the anchor digests and check
   the result against the always-fresh on-chip root register (rollback
   protection, exactly like Osiris regeneration — minus the trials).
3. **Verify down** — walk levels N..1, checking each persisted block
   against the digest its (already verified) parent recorded; damaged
   copies heal from clones when the scheme composes with cloning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.controller import CrashImage, RecoveryError, SecureMemoryController
from repro.tree import BmtNode, ZERO_DIGEST


@dataclass
class TriadReport:
    """What Triad recovery verified and rebuilt."""

    persist_levels: int = 0
    anchors_scanned: int = 0
    nodes_regenerated: int = 0
    nodes_verified: int = 0
    repaired_copies: int = 0


class TriadRecovery:
    """Drives selective-persistence recovery from a :class:`CrashImage`."""

    def __init__(self, image: CrashImage):
        if image.integrity_mode != "bmt":
            raise RecoveryError(
                "Triad recovery applies to BMT-mode images (the selective "
                "persistence policy); use repro.recovery.recover_image for "
                "scheme-routed dispatch"
            )
        self._image = image

    def recover(self):
        """Run full recovery; returns ``(controller, report)``."""
        image = self._image
        ctrl = SecureMemoryController.from_image(image)
        amap = ctrl.amap
        auth = ctrl.auth
        anchor_level = min(ctrl.persist_levels, amap.num_levels)
        report = TriadReport(persist_levels=anchor_level)

        # 1. Anchor: the persisted bytes of the highest strict level.
        anchor = {}
        for index in range(amap.level_sizes[anchor_level - 1]):
            raw = self._live_bytes(ctrl, anchor_level, index)
            if raw is not None:
                anchor[index] = raw
                report.anchors_scanned += 1

        # 2. Regenerate everything above the anchor, then check the root.
        child_digests = {
            index: auth.block_digest(anchor_level, index, raw)
            for index, raw in anchor.items()
        }
        for level in range(anchor_level + 1, amap.num_levels + 1):
            next_digests = {}
            parents = {child // BmtNode.ARITY for child in child_digests}
            for parent_index in sorted(parents):
                node = BmtNode()
                for slot in range(BmtNode.ARITY):
                    child_index = parent_index * BmtNode.ARITY + slot
                    node.set_digest(
                        slot, child_digests.get(child_index, ZERO_DIGEST)
                    )
                node_bytes = node.to_bytes()
                for address in amap.all_copies(level, parent_index):
                    ctrl.nvm.write_block(address, node_bytes)
                report.nodes_regenerated += 1
                next_digests[parent_index] = auth.block_digest(
                    level, parent_index, node_bytes
                )
            child_digests = next_digests
        root = BmtNode()
        for index, digest in child_digests.items():
            root.set_digest(index, digest)
        if root != image.trusted.root:
            raise RecoveryError(
                "root regenerated from the persisted levels does not match "
                "the on-chip root register — replay or unrecoverable "
                "corruption below the anchor level"
            )

        # 3. Verify the strictly-persisted levels top-down.
        verified = anchor
        for level in range(anchor_level, 1, -1):
            verified = self._verify_level_below(
                ctrl, auth, level, verified, report
            )
        return ctrl, report

    # ------------------------------------------------------------------

    @staticmethod
    def _live_bytes(ctrl, level, index):
        """First unpoisoned copy of a persisted block (``None`` when the
        block was never persisted)."""
        for address in ctrl.amap.all_copies(level, index):
            if ctrl.nvm.is_poisoned(address):
                continue
            if not ctrl.nvm.is_touched(address):
                return None
            return ctrl.nvm.read_block(address)
        raise RecoveryError(
            f"level-{level} node {index}: every persisted copy is poisoned"
        )

    def _verify_level_below(self, ctrl, auth, level, parent_bytes, report):
        """Verify every persisted block one level below ``level`` against
        the digests its verified parents recorded; heal damaged copies."""
        amap = ctrl.amap
        child_level = level - 1
        verified = {}
        for index in range(amap.level_sizes[child_level - 1]):
            parent = amap.parent_of(child_level, index)
            slot = amap.child_slot(child_level, index)
            praw = parent_bytes.get(parent[1]) if parent is not None else None
            expected = (
                BmtNode.from_bytes(praw).digest(slot)
                if praw is not None
                else ZERO_DIGEST
            )
            found = None
            touched = False
            for address in amap.all_copies(child_level, index):
                if ctrl.nvm.is_poisoned(address):
                    touched = True
                    continue
                if not ctrl.nvm.is_touched(address):
                    continue
                touched = True
                candidate = ctrl.nvm.read_block(address)
                if auth.verify_block(child_level, index, candidate, expected):
                    found = candidate
                    break
            if not touched:
                if expected != ZERO_DIGEST:
                    raise RecoveryError(
                        f"level-{level} parent records a digest for "
                        f"never-persisted level-{child_level} node {index}"
                    )
                continue
            if found is None:
                raise RecoveryError(
                    f"persisted level-{child_level} node {index} fails its "
                    f"parent's recorded digest on every copy"
                )
            for address in amap.all_copies(child_level, index):
                if (
                    ctrl.nvm.is_poisoned(address)
                    or not ctrl.nvm.is_touched(address)
                    or ctrl.nvm.read_block(address) != found
                ):
                    ctrl.nvm.write_block(address, found)
                    report.repaired_copies += 1
            report.nodes_verified += 1
            verified[index] = found
        return verified
