"""Tests for the content-addressed shared result store (``store/v1``).

The store's contract has three legs: round-trip fidelity (what you put
is bit-what you get), *detection* (a corrupt entry is quarantined and
reported as a miss — never served), and *degradation* (filesystem
trouble turns into counters and local compute, never a dead sweep).
"""

import base64
import json
import os

import pytest

from repro.runtime import ResultStore, cell_key
from repro.runtime.store import STORE_SCHEMA, StoreCorruptionError
from repro.sim import CellOutcome
from repro.telemetry import MetricRegistry

from tests.fleet_helpers import square


def _outcome(value=3, label="cell"):
    return CellOutcome(
        index=0, label=label, ok=True,
        result={"value": value, "square": value * value},
        attempts=1, wall_seconds=0.25,
    )


def _key(value=3):
    return cell_key(("sq", value), square)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store", registry=MetricRegistry())


def _snapshot(store):
    return store.registry.snapshot()


class TestRoundTrip:
    def test_put_then_get_restores_the_exact_result(self, store):
        key = _key()
        assert store.put(key, _outcome()) is True
        record = store.get(key)
        assert record["result"] == {"value": 3, "square": 9}
        assert record["label"] == "cell"
        assert record["attempts"] == 1
        assert record["wall_seconds"] == 0.25
        assert record["schema"] == STORE_SCHEMA
        snap = _snapshot(store)
        assert snap["runtime.store.writes"] == 1
        assert snap["runtime.store.hits"] == 1
        assert snap["runtime.store.misses"] == 0
        assert snap["runtime.store.corrupt"] == 0

    def test_contains_and_count(self, store):
        keys = [_key(v) for v in range(3)]
        for value, key in enumerate(keys):
            assert key not in store
            store.put(key, _outcome(value))
        assert all(key in store for key in keys)
        assert store.count() == 3

    def test_missing_entry_is_a_miss(self, store):
        assert store.get(_key()) is None
        snap = _snapshot(store)
        assert snap["runtime.store.misses"] == 1
        assert snap["runtime.store.corrupt"] == 0

    def test_republish_is_idempotent(self, store):
        """The at-least-once contract: a second writer publishes a
        bit-identical entry over the first."""
        key = _key()
        store.put(key, _outcome())
        with open(store.entry_path(key), "rb") as fh:
            first = fh.read()
        store.put(key, _outcome())
        with open(store.entry_path(key), "rb") as fh:
            second = fh.read()
        assert first == second
        assert store.count() == 1


class TestCorruptionDetection:
    """A corrupt entry is detected, quarantined, and recomputed —
    the no-silent-corruption guarantee."""

    def _corrupt_payload(self, store, key):
        """Flip one payload character in an otherwise well-formed entry."""
        path = store.entry_path(key)
        with open(path) as fh:
            record = json.load(fh)
        blob = record["payload_b64"]
        middle = len(blob) // 2
        flipped = "A" if blob[middle] != "A" else "B"
        record["payload_b64"] = blob[:middle] + flipped + blob[middle + 1:]
        with open(path, "w") as fh:
            json.dump(record, fh)

    def test_bit_flip_quarantined_never_served(self, store, tmp_path):
        key = _key()
        store.put(key, _outcome())
        self._corrupt_payload(store, key)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get(key) is None
        snap = _snapshot(store)
        assert snap["runtime.store.corrupt"] == 1
        assert snap["runtime.store.hits"] == 0
        assert snap["runtime.store.misses"] == 1
        # Moved aside, not deleted: the evidence survives for forensics,
        # and the entry slot is free for the recompute.
        quarantine = tmp_path / "store" / "quarantine"
        assert len(list(quarantine.iterdir())) == 1
        assert not os.path.exists(store.entry_path(key))
        # Recompute-and-republish restores service for the key.
        store.put(key, _outcome())
        assert store.get(key)["result"] == {"value": 3, "square": 9}

    def test_torn_entry_detected(self, store):
        key = _key()
        store.put(key, _outcome())
        with open(store.entry_path(key), "wb") as fh:
            fh.write(b'{"schema": "store/v1", "key": "tor')
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get(key) is None
        assert _snapshot(store)["runtime.store.corrupt"] == 1

    def test_wrong_schema_rejected(self, store):
        key = _key()
        store.put(key, _outcome())
        path = store.entry_path(key)
        with open(path) as fh:
            record = json.load(fh)
        record["schema"] = "store/v999"
        with open(path, "w") as fh:
            json.dump(record, fh)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get(key) is None

    def test_misfiled_entry_rejected(self, store):
        """An entry whose embedded key disagrees with its filename is
        corrupt (a misdirected rename must not satisfy the wrong cell)."""
        key, other = _key(1), _key(2)
        store.put(key, _outcome(1))
        other_path = store.entry_path(other)
        os.makedirs(os.path.dirname(other_path), exist_ok=True)
        os.rename(store.entry_path(key), other_path)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get(other) is None

    def test_verify_rejects_non_object_json(self):
        with pytest.raises(StoreCorruptionError, match="not a JSON object"):
            ResultStore._verify("00", b"[1, 2, 3]")

    def test_verify_rejects_invalid_base64(self):
        record = {"schema": STORE_SCHEMA, "key": "00",
                  "payload_b64": "!!not-base64!!", "payload_sha256": "0"}
        with pytest.raises(StoreCorruptionError, match="payload encoding"):
            ResultStore._verify("00", json.dumps(record).encode())

    def test_verify_rejects_unpicklable_payload(self):
        """Hash-valid but semantically unusable payloads are corrupt
        too — verification covers the full decode chain."""
        import hashlib

        payload = b"this is not a pickle"
        record = {
            "schema": STORE_SCHEMA, "key": "00",
            "payload_b64": base64.b64encode(payload).decode("ascii"),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        with pytest.raises(StoreCorruptionError, match="unpickle"):
            ResultStore._verify("00", json.dumps(record).encode())


class TestDegradedModes:
    def test_unreachable_directory_disables_not_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        with pytest.warns(RuntimeWarning, match="degraded"):
            store = ResultStore(blocker / "store", registry=MetricRegistry())
        assert store.disabled is True
        # Disabled store: every get is a miss, every put a no-op.
        assert store.get(_key()) is None
        assert store.put(_key(), _outcome()) is False
        assert _key() not in store
        assert store.count() == 0
        snap = _snapshot(store)
        assert snap["runtime.store.degraded"] == 1
        assert snap["runtime.store.errors"] >= 1
        assert snap["runtime.store.misses"] == 1

    def test_write_failure_degrades_and_keeps_serving(self, store, tmp_path):
        """A blocked shard turns one put into a dropped publish — the
        rest of the store keeps working."""
        key = _key()
        shard_dir = os.path.dirname(store.entry_path(key))
        os.makedirs(os.path.dirname(shard_dir), exist_ok=True)
        with open(shard_dir, "w") as fh:
            fh.write("file squatting on the shard directory")
        with pytest.warns(RuntimeWarning, match="degraded"):
            assert store.put(key, _outcome()) is False
        snap = _snapshot(store)
        assert snap["runtime.store.degraded"] == 1
        assert snap["runtime.store.writes"] == 0
        # Other shards are unaffected (different key prefix).
        other = next(k for k in (_key(v) for v in range(50))
                     if k[:2] != key[:2])
        assert store.put(other, _outcome()) is True
        assert store.get(other) is not None

    def test_degrade_warns_once(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        with pytest.warns(RuntimeWarning) as caught:
            store = ResultStore(blocker / "store", registry=MetricRegistry())
            store.put(_key(1), _outcome(1))
            store.get(_key(2))
        degraded = [w for w in caught if "degraded" in str(w.message)]
        assert len(degraded) == 1
