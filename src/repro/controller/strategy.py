"""The controller's two strategies: integrity mode and update policy.

A :class:`~repro.controller.SecureMemoryController` resolves its
``integrity_mode`` string into :class:`ToC` or :class:`BMT` and its
``update_policy`` string into :class:`Lazy`, :class:`Eager`,
:class:`Selective` (Triad-NVM) or :class:`Batched` (Phoenix) once, at
construction; afterwards it branches on neither string.

An integrity mode (Section 2.5 / 6.1) decides what a parent records for
a child, how a fetched block verifies, how a persisted block is sealed,
what a data write updates in the cache, and what repairs a node once no
clone verifies.  An update policy (Table 1 + related work) decides when
dirty metadata reaches NVM after a data write.  Strategy instances act
on the controller passed to each hook (they keep no reference to it, so
a dropped controller is freed at once), through its traffic primitives
(``_nvm_read``, ``_write_copies``, ``_purify``) and its one fetch
skeleton (``_fetch``).
"""

from __future__ import annotations

from repro.constants import MAC_BYTES, TOC_ARITY
from repro.controller.payloads import CounterEntry, NodeEntry
from repro.counters import SplitCounterBlock, TocNode
from repro.tree import ZERO_DIGEST, BmtAuthenticator, BmtNode, TocAuthenticator


class IntegrityMode:
    """An integrity tree's rules (one instance per controller and key;
    every hook takes the controller it acts on)."""

    name = ""
    #: Recovery procedure for images whose scheme does not name one.
    recovery = ""
    #: Node type of the intermediate levels and of the on-chip root.
    node_type = None
    authenticator = None
    #: ``tag(node, slot)``: what a parent records for one child slot.
    tag = None
    #: Whether the sidecar MAC blocks hold live counter MACs.
    sidecar = False
    #: Whether Anubis shadow entries can rebuild this tree after a crash.
    replays_shadow = False

    def __init__(self, mac_engine):
        self.auth = self.authenticator(mac_engine)

    def parent_tag(self, ctrl, level: int, index: int, cost):
        """What the parent (or the on-chip root) records for this block."""
        if level == ctrl.amap.num_levels:
            node = ctrl.root
        else:
            node = ctrl._fetch(level + 1, index // TOC_ARITY, cost).node
        return self.tag(node, index % TOC_ARITY)

    def fallback(self, ctrl, level: int, index: int, tag, cost):
        """Last resort once no clone verifies: none, the node is dead."""
        ctrl._metadata_dead(level, index, "all copies failed verification")


class ToC(IntegrityMode):
    """SGX-style Tree of Counters: each block's MAC is sealed against
    its parent's counter, so a persist bumps the parent and reseals.
    Updates are parallel, but a node is NOT recomputable from its
    children — Soteria's motivating case."""

    name = "toc"
    recovery = "anubis"
    node_type = TocNode
    authenticator = TocAuthenticator
    sidecar = True
    replays_shadow = True
    tag = staticmethod(TocNode.counter)

    def load(self, ctrl, level, index, address, raw, touched, parent_counter, cost):
        """Verify a block just read from NVM; repair it if it fails.  A
        counter block verifies against its MAC in the sidecar region."""
        if level > 1:
            if not touched:
                return NodeEntry(TocNode(), level)
            node = TocNode.from_bytes(raw)
            if ctrl._effectively_poisoned(address) or (
                ctrl.functional_crypto
                and not self.auth.verify_node(level, index, node, parent_counter)
            ):
                node = ctrl._repair(level, index, parent_counter, cost)
            return NodeEntry(node, level)
        amap = ctrl.amap
        sidecar_address = amap.counter_mac_offset + (index // 8) * amap.block_size
        sidecar, _ = ctrl._nvm_read(sidecar_address, cost, "counter_mac")
        if ctrl._effectively_poisoned(sidecar_address):
            sidecar = ctrl._recover_sidecar(index, cost)
            if sidecar is None:
                ctrl._sidecar_dead(index)
        slot = index % 8
        stored_mac = sidecar[slot * MAC_BYTES:(slot + 1) * MAC_BYTES]
        if not touched:
            return CounterEntry(SplitCounterBlock(), mac=stored_mac)
        block = SplitCounterBlock.from_bytes(raw)
        if ctrl._effectively_poisoned(address) or (
            ctrl.functional_crypto
            and not self.auth.verify_counter_block(
                index, block, stored_mac, parent_counter
            )
        ):
            block, stored_mac = self._repair_counter(
                ctrl, index, stored_mac, parent_counter, cost
            )
        return CounterEntry(block, mac=stored_mac)

    def check_clone(self, ctrl, level, index, raw, touched, parent_counter):
        """The clone's node if it verifies, else ``None`` (level >= 2;
        counter blocks repair pairwise with their sidecar copies)."""
        candidate = TocNode.from_bytes(raw)
        if ctrl.functional_crypto and not self.auth.verify_node(
            level, index, candidate, parent_counter
        ):
            return None
        return candidate

    def _repair_counter(self, ctrl, index, stored_mac, parent_counter, cost):
        """Clone-based repair of a level-1 counter block.

        Every live copy of the counter is checked against every live
        copy of its sidecar MAC — the sidecar itself may be the
        corrupted party, in which case a counter copy only verifies
        against a sidecar *clone*.  The first surviving pair wins; both
        regions are purified from it.  Returns ``(block, mac)``.
        """
        amap = ctrl.amap
        sidecar_index = ctrl._sidecar_index_of(index)
        slot = amap.counter_mac_slot(index)
        macs = [(stored_mac, None)]
        for copy in range(1, amap.counter_mac_depth):
            address = amap.counter_mac_clone_addr(sidecar_index, copy)
            raw, _ = ctrl._nvm_read(address, cost, "clone")
            if ctrl._effectively_poisoned(address):
                continue
            mac = raw[slot * MAC_BYTES:(slot + 1) * MAC_BYTES]
            if mac != stored_mac:
                macs.append((mac, raw))
        for copy in range(amap.clone_depths.get(1, 1)):
            if copy == 0:
                address = amap.node_addr(1, index)
                kind = "counter"
            else:
                address = amap.clone_addr(1, index, copy)
                kind = "clone"
            raw, touched = ctrl._nvm_read(address, cost, kind)
            if ctrl._effectively_poisoned(address):
                continue
            candidate = (
                SplitCounterBlock()
                if not touched
                else SplitCounterBlock.from_bytes(raw)
            )
            for mac_position, (mac, sidecar_bytes) in enumerate(macs):
                if copy == 0 and mac_position == 0:
                    continue  # the pair that already failed in load
                if ctrl.functional_crypto and not self.auth.verify_counter_block(
                    index, candidate, mac, parent_counter
                ):
                    continue
                if sidecar_bytes is not None:
                    ctrl._purify_sidecar(sidecar_index, sidecar_bytes, cost)
                ctrl._purify(1, index, candidate.to_bytes(), cost)
                return candidate, mac
        ctrl._metadata_dead(1, index, "all copies failed verification")

    def note_write(self, ctrl, counter_index, entry, cost) -> None:
        """A data write updated a cached counter: track it in the shadow."""
        ctrl._shadow_note(1, counter_index, entry, cost)

    def _bump_parent(self, ctrl, level: int, index: int, cost) -> int:
        """Increment the parent counter for a child persist; returns the
        new counter value.  A non-root parent becomes dirty in the cache
        and gets a fresh shadow entry."""
        amap = ctrl.amap
        slot = index % TOC_ARITY
        if level == amap.num_levels:
            ctrl.root.increment(slot)
            return ctrl.root.counter(slot)
        level, index = level + 1, index // TOC_ARITY
        pentry = ctrl._fetch(level, index, cost)
        pentry.node.increment(slot)
        ctrl._mcache.mark_dirty(amap.level_offsets[level] + index * amap.block_size)
        ctrl._shadow_note(level, index, pentry, cost)
        return pentry.node.counter(slot)

    def persist(self, ctrl, level: int, index: int, payload, cost) -> None:
        """Bump the parent, reseal, and write every copy atomically; a
        counter block also updates its sidecar MAC copies."""
        amap = ctrl.amap
        parent_counter = self._bump_parent(ctrl, level, index, cost)
        if level > 1:
            if ctrl.functional_crypto:
                self.auth.seal_node(level, index, payload.node, parent_counter)
            ctrl._write_copies(
                amap.all_copies(level, index), payload.node.to_bytes(), cost, "tree"
            )
            return
        if ctrl.functional_crypto:
            payload.mac = self.auth.counter_block_mac(
                index, payload.block, parent_counter
            )
        ctrl._write_copies(
            amap.all_copies(1, index), payload.block.to_bytes(), cost, "counter"
        )
        sidecar_address = amap.counter_mac_offset + (index // 8) * amap.block_size
        sidecar, _ = ctrl._nvm_read(sidecar_address, cost, "counter_mac")
        if ctrl.nvm.is_poisoned(sidecar_address):
            # Don't fold a garbled base into the read-modify-write; a
            # live clone (or cache rebuild) supplies clean other slots.
            recovered = ctrl._recover_sidecar(index, cost)
            if recovered is not None:
                sidecar = recovered
        slot = index % 8
        sidecar = (
            sidecar[: slot * MAC_BYTES]
            + payload.mac
            + sidecar[(slot + 1) * MAC_BYTES:]
        )
        ctrl._write_copies(
            amap.counter_mac_copies(ctrl._sidecar_index_of(index)),
            sidecar, cost, "counter_mac",
        )
        payload.reset_updates()


class BMT(IntegrityMode):
    """Bonsai-Merkle tree: each parent slot holds its child's keyed
    digest, kept fresh in the cache on every write, so a persist only
    writes the block and recovery regenerates the tree (no shadow
    table)."""

    name = "bmt"
    recovery = "osiris"
    node_type = BmtNode
    authenticator = BmtAuthenticator
    tag = staticmethod(BmtNode.digest)

    def load(self, ctrl, level, index, address, raw, touched, expected, cost):
        """Verify a block just read from NVM; repair it if it fails."""
        block_type = SplitCounterBlock if level == 1 else BmtNode
        poisoned = ctrl._effectively_poisoned(address)
        if not touched and not poisoned and (
            not ctrl.functional_crypto or expected == ZERO_DIGEST
        ):
            block = block_type()
        else:
            block = block_type.from_bytes(raw)
            if poisoned or (
                ctrl.functional_crypto
                and not self.auth.verify_block(level, index, raw, expected)
            ):
                block = ctrl._repair(level, index, expected, cost)
        return CounterEntry(block) if level == 1 else NodeEntry(block, level)

    def check_clone(self, ctrl, level, index, raw, touched, expected):
        """The clone's block if it verifies, else ``None``."""
        if not touched or (
            ctrl.functional_crypto
            and not self.auth.verify_block(level, index, raw, expected)
        ):
            return None
        return (SplitCounterBlock if level == 1 else BmtNode).from_bytes(raw)

    def fallback(self, ctrl, level, index, expected, cost):
        """*Recompute* a node from its children's persisted bytes — the
        capability ToC nodes lack (Section 2.5), which is why the ToC
        needs Soteria.  Counter blocks have no children: only clones
        save them, in BMT mode just as in ToC mode (Section 6.1)."""
        if level == 1:
            return super().fallback(ctrl, level, index, expected, cost)
        rebuilt = BmtNode()
        child_level = level - 1
        child_count = ctrl.amap.level_sizes[child_level - 1]
        for slot in range(BmtNode.ARITY):
            child_index = index * BmtNode.ARITY + slot
            if child_index >= child_count:
                break
            child_address = ctrl.amap.node_addr(child_level, child_index)
            if not ctrl.nvm.is_touched(child_address):
                continue  # fresh child: zero digest stands
            child_bytes = ctrl.nvm.read_block(child_address)
            cost.blocking_reads += 1
            ctrl.stats.record_read("tree" if child_level > 1 else "counter")
            rebuilt.set_digest(
                slot, self.auth.block_digest(child_level, child_index, child_bytes)
            )
        if not ctrl.functional_crypto or self.auth.verify_block(
            level, index, rebuilt.to_bytes(), expected
        ):
            ctrl.stats.bmt_recomputations += 1
            ctrl._purify(level, index, rebuilt.to_bytes(), cost)
            return rebuilt
        ctrl._metadata_dead(
            level, index,
            "copies failed and recomputation did not match parent digest",
        )

    def note_write(self, ctrl, counter_index, entry, cost) -> None:
        """Cached-eager digest propagation after an in-cache update.

        Refreshes the digest path from this counter block up to the
        on-chip root.  Only SRAM state changes (path nodes are pulled
        through the metadata cache and dirtied); NVM copies still
        update lazily at eviction.  This keeps two invariants: the
        root is always fresh (Osiris-style recovery can trust it), and
        any *evicted* block's NVM bytes always match its parent's
        recorded digest (fetch verification stays sound).
        """
        amap = ctrl.amap
        functional = ctrl.functional_crypto
        child_bytes = entry.block.to_bytes() if functional else None
        level, index = 1, counter_index
        while True:
            digest = (
                self.auth.block_digest(level, index, child_bytes)
                if functional
                else ZERO_DIGEST
            )
            slot = index % TOC_ARITY
            if level == amap.num_levels:
                ctrl.root.set_digest(slot, digest)
                return
            level, index = level + 1, index // TOC_ARITY
            pnode = ctrl._fetch(level, index, cost).node
            pnode.set_digest(slot, digest)
            ctrl._mcache.mark_dirty(amap.level_offsets[level] + index * amap.block_size)
            child_bytes = pnode.to_bytes() if functional else None

    def persist(self, ctrl, level: int, index: int, payload, cost) -> None:
        """Write every copy atomically: the parent's digest was already
        refreshed by cached-eager propagation."""
        addresses = ctrl.amap.all_copies(level, index)
        if level > 1:
            ctrl._write_copies(addresses, payload.node.to_bytes(), cost, "tree")
            return
        ctrl._write_copies(addresses, payload.block.to_bytes(), cost, "counter")
        payload.reset_updates()


#: Integrity modes by name.
INTEGRITY_MODES = {mode.name: mode for mode in (ToC, BMT)}


def _lookup(knob: str, table: dict, name: str, default):
    if name is None:
        return default
    try:
        return table[name]
    except KeyError:
        raise ValueError(
            f"{knob} must be one of {tuple(table)}, got {name!r}"
        ) from None


def integrity_class(name: str = None):
    """The integrity-mode class called ``name`` (``None``: ToC)."""
    return _lookup("integrity_mode", INTEGRITY_MODES, name, ToC)


class UpdatePolicy:
    """When dirty metadata reaches NVM (one instance per controller;
    every hook takes the controller it acts on)."""

    name = ""
    #: Whether NVM metadata lags the cache enough to need Anubis
    #: tracking (effective only under an integrity mode it can replay).
    tracks_shadow = False
    #: The integrity mode this policy's recovery depends on, and why.
    requires = None
    requires_because = ""
    #: Display form, with the knob the policy reads (``repro schemes``).
    label_format = "{name}"

    @classmethod
    def check(cls, integrity) -> None:
        """Reject an integrity mode this policy cannot recover under."""
        if cls.requires is not None and integrity is not cls.requires:
            raise ValueError(
                f"the {cls.name!r} update policy requires "
                f"integrity_mode={cls.requires.name!r} "
                f"({cls.requires_because})"
            )

    @classmethod
    def label(cls, persist_levels: int = None, persist_batch: int = None) -> str:
        return cls.label_format.format(
            name=cls.name, persist_levels=persist_levels,
            persist_batch=persist_batch,
        )


class Lazy(UpdatePolicy):
    """Table 1: metadata persists on eviction under Anubis tracking;
    the Osiris stop-loss persists a counter block once any slot is
    ``osiris_limit`` updates ahead of NVM."""

    name = "lazy"
    tracks_shadow = True

    def after_write(self, ctrl, counter_index: int, entry, updates: int, cost) -> None:
        if updates >= ctrl.osiris_limit:
            ctrl.stats.osiris_persists += 1
            ctrl.integrity.persist(ctrl, 1, counter_index, entry, cost)


class Batched(Lazy):
    """Phoenix: the Osiris stop-loss still bounds counter staleness;
    every ``persist_batch`` writes the whole dirty metadata estate
    flushes (no shadow tracking at all)."""

    name = "batched"
    tracks_shadow = False
    requires = ToC
    requires_because = "recovery reseals the counter tree from the on-chip root"
    label_format = "batched(B={persist_batch})"

    def __init__(self):
        self.writes = 0

    def after_write(self, ctrl, counter_index, entry, updates, cost) -> None:
        super().after_write(ctrl, counter_index, entry, updates, cost)
        self.writes += 1
        if self.writes >= ctrl.persist_batch:
            self.writes = 0
            ctrl._flush_metadata(cost)


class Eager(UpdatePolicy):
    """Section 2.5's rejected alternative: every write persists the
    counter and every ancestor it dirtied, leaf to root, so the root is
    never stale and nothing needs tracking — and the write traffic
    shows why nobody ships it."""

    name = "eager"

    def top_level(self, ctrl) -> int:
        return ctrl.amap.num_levels

    def after_write(self, ctrl, counter_index, entry, updates, cost) -> None:
        """Persist the branch up to :meth:`top_level`, leaving it clean
        in cache and current in NVM; higher dirty ancestors stay cached."""
        amap, mcache = ctrl.amap, ctrl._mcache
        ctrl.integrity.persist(ctrl, 1, counter_index, entry, cost)
        address = amap.counter_offset + counter_index * amap.block_size
        if mcache.contains(address):
            mcache.mark_clean(address)
        index = counter_index
        for level in range(2, self.top_level(ctrl) + 1):
            index //= TOC_ARITY
            address = amap.level_offsets[level] + index * amap.block_size
            if not mcache.is_dirty(address):
                continue
            ctrl.integrity.persist(ctrl, level, index, mcache.peek(address), cost)
            mcache.mark_clean(address)


class Selective(Eager):
    """Triad-NVM: the counter and the bottom ``persist_levels`` of its
    branch are strictly persistent; upper levels regenerate at
    recovery."""

    name = "selective"
    requires = BMT
    requires_because = (
        "upper levels regenerate from persisted digests at recovery"
    )
    label_format = "selective(N={persist_levels})"

    def top_level(self, ctrl) -> int:
        return min(ctrl.persist_levels, ctrl.amap.num_levels)


#: Update policies by name.
UPDATE_POLICIES = {
    policy.name: policy for policy in (Lazy, Eager, Selective, Batched)
}


def update_policy_class(name: str = None):
    """The update-policy class called ``name`` (``None``: lazy)."""
    return _lookup("update_policy", UPDATE_POLICIES, name, Lazy)
