#!/usr/bin/env python3
"""Crash recovery walkthrough: Anubis shadow replay + Osiris trials.

Simulates a persistent key-value store losing power mid-burst, then
recovers: the volatile metadata cache is gone, counters in NVM are
stale, and the shadow table + Osiris trials reconstruct everything.
Also demonstrates the failure mode Soteria's duplicated shadow entries
remove: with the single-copy (Anubis) layout, one corrupted shadow
entry kills the recovery; with Soteria's layout it does not.

Run:  python examples/crash_recovery.py
"""

import numpy as np

from repro import RecoveryError, RecoveryManager, make_controller

KB = 1024


def kv_put(ctrl, key: int, value: bytes):
    """A toy persistent KV store: block index = hash(key)."""
    block = (key * 2654435761) % ctrl.num_data_blocks
    ctrl.write(block, value.ljust(64, b"\x00"))
    return block


def kv_get(ctrl, key: int) -> bytes:
    block = (key * 2654435761) % ctrl.num_data_blocks
    return ctrl.read(block).data.rstrip(b"\x00")


def run_store(scheme: str, seed: int = 3):
    ctrl = make_controller(
        scheme,
        data_bytes=256 * KB,
        metadata_cache_bytes=4 * KB,
        rng=np.random.default_rng(seed),
    )
    expected = {}
    for key in range(500):
        value = f"value-{key}".encode()
        kv_put(ctrl, key, value)
        expected[key] = value
    return ctrl, expected


def main():
    print("=== crash + recovery (baseline Anubis tracking) ===")
    ctrl, expected = run_store("baseline")
    print(f"stored {len(expected)} keys; dirty metadata in cache: "
          f"{len(ctrl.metadata_cache.dirty_lines())}")

    image = ctrl.crash()  # power loss: cache gone, WPQ flushed by ADR
    recovered, report = RecoveryManager(image).recover()
    print(f"recovery: {report.entries_scanned} shadow entries scanned, "
          f"{report.counters_recovered} counter blocks rebuilt via "
          f"{report.osiris_trials} Osiris trials, "
          f"{report.nodes_recovered} tree nodes from LSB replay")
    losses = sum(1 for k, v in expected.items() if kv_get(recovered, k) != v)
    print(f"data check: {len(expected) - losses}/{len(expected)} keys intact")
    assert losses == 0

    print("\n=== same crash, but a shadow entry takes an error ===")
    for scheme in ("baseline", "src"):
        ctrl, expected = run_store(scheme)
        image = ctrl.crash()
        # Corrupt the MAC field of the first live shadow entry.
        target = next(
            ctrl.amap.shadow_entry_addr(slot)
            for slot in range(ctrl.amap.shadow_entries)
            if image.nvm.is_touched(ctrl.amap.shadow_entry_addr(slot))
            and any(
                not r.is_empty
                for r in ctrl.shadow_codec.decode_candidates(
                    image.nvm.read_block(ctrl.amap.shadow_entry_addr(slot))
                )
            )
        )
        mac_byte = 56 if scheme == "baseline" else 24
        image.nvm.flip_bits(target, [mac_byte * 8 + 1])
        try:
            recovered, report = RecoveryManager(image).recover()
            outcome = (f"recovered ({report.repaired_entries} entry repaired "
                       f"from its duplicate)")
        except RecoveryError as exc:
            outcome = f"RECOVERY FAILED: {exc}"
        print(f"  {scheme:9s}: {outcome}")

    print("\ndone: Soteria's duplicated shadow entries (Figure 8b) turn a "
          "fatal recovery failure into a repair.")


if __name__ == "__main__":
    main()
