"""Replay prover: the vectorized Monte-Carlo core vs its pinned fixture.

The vectorized Monte-Carlo core (:mod:`repro.faults.mc`) was developed
as a bit-identical replacement for a scalar twin — the same counter RNG
on Python ints, a per-trial sampler building
:class:`~repro.faults.fault_model.Fault` objects, and the object ECC
model plus ``union_block_count`` — and soaked under a live differential
prover until the evidence was unanimous; the twin is now retired.  What
remains is the contract itself, pinned in a committed replay fixture
(``tests/fixtures/mc_replay.json``, schema ``mc_replay/v1``) and
re-checked layer by layer so a drift localizes:

* **rng** — SplitMix64 words over pinned probes and keyed streams;
* **sampler** — sha256 digests of every array of each sampled
  :class:`~repro.faults.mc.FaultBatch`;
* **trial** — per-trial ``(unique DUE blocks, per-rank split, weight)``
  digests plus the DUE count, the block sum and the sorted multiset of
  >14-region additive fallback events; ``/importance`` rows repeat the
  layer under a biased class distribution and also pin the
  importance-weighted sums;
* **result** — every float of an end-to-end ``FaultSimulator.run``;
* **batching** — live batch-size invariance (ragged chunkings against
  one contiguous run), plus the contiguous run's pinned digests.

The corpus pins seeds, every ECC model, a degenerate geometry, and a
fault-count bucket that exercises the additive union fallback.  The
object model itself stays a live test oracle (``tests/test_mc.py``).
Intentional behavior changes re-pin with ``repro mc-diff --record``
(review the fixture diff like any golden file); ``repro mc-diff``
replays, and the ``mc-smoke`` CI job gates merges on it.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import asdict

import numpy as np

from repro.faults import mc
from repro.faults.config import FaultSimConfig
from repro.faults.faultsim import FaultSimulator
from repro.memory.geometry import DimmGeometry
from repro.verify.engine_diff import load_fixture, normalize, write_fixture

#: Schema stamp for :func:`run_mc_diff` payloads.
MC_DIFF_SCHEMA = "mc_diff/v2"

#: Schema stamp for the committed replay fixture.
MC_REPLAY_SCHEMA = "mc_replay/v1"

#: Where the pinned fixture lives (repo-relative).
DEFAULT_FIXTURE = os.path.join("tests", "fixtures", "mc_replay.json")

#: Trials per case and layer; ``--record`` pins these in the fixture
#: header and replays always run at the pinned counts.
TRIALS = {
    "sampler": 400,
    "trial": 1500,
    "result": 800,
    "batching": 1500,
    "importance": 800,
}

_BATCH_ARRAYS = (
    "class_index", "rank", "chip", "bank_mask", "row", "group",
    "multibit", "weight",
)


# ----------------------------------------------------------------------
# pinned corpus


def _tiny_geometry() -> DimmGeometry:
    """A degenerate DIMM where fault extents collide constantly."""
    return DimmGeometry(
        chips=8, chips_per_rank=4, ranks=2, banks=2, rows=4, cols=256
    )


def diff_configs() -> list:
    """The pinned (name, config, k-buckets) corpus."""
    return [
        (
            "chipkill/hopper",
            FaultSimConfig(fit_per_device=80, trials=4000, seed=3),
            (2, 5, 8),
        ),
        (
            "chipkill2/hopper",
            FaultSimConfig(
                fit_per_device=80, trials=4000, seed=11, repair="chipkill2"
            ),
            (3, 8),
        ),
        (
            "secded/hopper",
            FaultSimConfig(
                fit_per_device=40, trials=4000, seed=7, repair="secded"
            ),
            (1, 4, 8),
        ),
        (
            "none/hopper",
            FaultSimConfig(
                fit_per_device=40, trials=4000, seed=9, repair="none"
            ),
            (1, 8),
        ),
        (
            "secded/bit-word",
            FaultSimConfig(
                fit_per_device=40,
                trials=4000,
                seed=13,
                repair="secded",
                relative_rates={"bit": 0.5, "word": 0.5},
            ),
            (1, 2),
        ),
        (
            "chipkill/tiny-geometry",
            FaultSimConfig(
                geometry=_tiny_geometry(),
                fit_per_device=200,
                trials=4000,
                seed=5,
            ),
            (2, 8),
        ),
        (
            "secded/tiny-geometry",
            FaultSimConfig(
                geometry=_tiny_geometry(),
                fit_per_device=200,
                trials=4000,
                seed=17,
                repair="secded",
            ),
            (4, 8),
        ),
    ]


# ----------------------------------------------------------------------
# per-layer observations: each returns (observation, live mismatches)


def digest(array: np.ndarray) -> str:
    """sha256 over an array's dtype, shape and little-endian bytes."""
    array = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


def _quiet_outputs(config, k, start, trials, q=None, events=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return mc.batch_outputs(
            config, k, start, trials, q=q,
            on_approximation=None if events is None else events.append,
        )


def observe_rng():
    """SplitMix64 words over pinned probes and keyed streams."""
    probes = [0, 1, 2021, 1 << 32, (1 << 63) + 12345, (1 << 64) - 1]
    observed = {
        "mix64": mc.mix64_array(np.array(probes, dtype=np.uint64)).tolist()
    }
    trials = np.arange(0, 512, dtype=np.uint64)
    for parts in [(2021, 2, 0, mc.F_CLASS), (3, 8, 7, mc.F_ROW),
                  (17, 5, 3, mc.F_NBANK_SCORE, 63)]:
        name = "draw:" + "/".join(str(p) for p in parts)
        observed[name] = mc.draw_array(mc.stream_key(*parts), trials).tolist()
    return observed, []


def observe_sampler(config, k, trials):
    """Digest of every array of one sampled batch."""
    batch = mc.sample_batch(config, k, 0, trials)
    observed = {name: digest(getattr(batch, name)) for name in _BATCH_ARRAYS}
    observed["classes"] = list(batch.classes)
    return observed, []


def observe_trial(config, k, trials, q=None):
    """Per-trial DUE integers, weights and fallback events."""
    events = []
    u_total, per_rank, weight = _quiet_outputs(
        config, k, 0, trials, q=q, events=events
    )
    due = (u_total > 0).astype(np.float64)
    return {
        "u_total": digest(u_total),
        "per_rank": digest(per_rank),
        "weight": digest(weight),
        "due_count": int(due.sum()),
        "blocks": int(u_total.sum()),
        "approximations": sorted(events),
        "weighted_due": float((weight * due).sum()),
        "weighted_blocks": float((weight * u_total).sum()),
    }, []


def observe_result(config, trials_per_k):
    """Every field of one end-to-end ``FaultSimulator.run``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = FaultSimulator(config).run(trials_per_k=trials_per_k)
    return asdict(result), []


def observe_batching(config, k, trials):
    """Ragged chunkings must equal one contiguous run (checked live)."""
    whole = _quiet_outputs(config, k, 0, trials)
    mismatched = []
    for split_name, raw_edges in (
        ("thirds", [0, trials // 3, 2 * trials // 3, trials]),
        ("ragged", [0, 1, 38, 39, 293, trials]),
    ):
        edges = sorted({min(edge, trials) for edge in raw_edges})
        parts = [
            _quiet_outputs(config, k, lo, hi - lo)
            for lo, hi in zip(edges, edges[1:])
            if hi > lo
        ]
        stitched = [np.concatenate([p[i] for p in parts]) for i in range(3)]
        if not all(np.array_equal(whole[i], stitched[i]) for i in range(3)):
            mismatched.append(f"split:{split_name}")
    observed = {
        name: digest(array)
        for name, array in zip(("u_total", "per_rank", "weight"), whole)
    }
    return observed, mismatched


def corpus_cases(trials: dict) -> list:
    """Every case of the pinned corpus as ``{name, kind, observe}``."""
    cases = [{"name": "rng:splitmix64", "kind": "rng",
              "observe": observe_rng}]

    def add(name, kind, observe, *args, **kwargs):
        cases.append({
            "name": name, "kind": kind,
            "observe": lambda: observe(*args, **kwargs),
        })

    for name, config, ks in diff_configs():
        for k in ks:
            add(f"sampler:{name}/k{k}", "sampler", observe_sampler,
                config, k, trials["sampler"])
            add(f"trial:{name}/k{k}", "trial", observe_trial,
                config, k, trials["trial"])
        add(f"result:{name}", "result", observe_result,
            config, trials["result"])
        add(f"batching:{name}/k{ks[-1]}", "batching", observe_batching,
            config, ks[-1], trials["batching"])
        q = mc.importance_distribution(config.relative_rates, tilt=0.6)
        add(f"trial:{name}/k{ks[-1]}/importance", "trial", observe_trial,
            config, ks[-1], trials["importance"], q=q)
    return cases


# ----------------------------------------------------------------------
# the suite


def _row(case, mismatched) -> dict:
    return {
        "name": case["name"],
        "kind": case["kind"],
        "identical": not mismatched,
        "mismatched": mismatched,
    }


def run_case(case: dict, pinned) -> dict:
    """Observe one case and diff it against its pinned observation.

    ``pinned`` is the fixture entry, or ``None`` when the fixture never
    recorded the case (a new case ⇒ re-pin with ``--record``).
    Mismatches name the drifted fields.
    """
    observed, mismatched = case["observe"]()
    observed = normalize(observed)
    if pinned is None:
        mismatched = mismatched + ["missing-from-fixture"]
    else:
        mismatched = mismatched + sorted(
            key for key in set(observed) | set(pinned)
            if observed.get(key) != pinned.get(key)
        )
    return _row(case, mismatched)


def run_mc_diff(progress=None, fixture: str = DEFAULT_FIXTURE,
                record: bool = False) -> dict:
    """Replay the corpus against the fixture; returns the report payload.

    ``identical`` is the headline verdict: True iff every case
    reproduced its pinned observation and every batching case stayed
    chunk-invariant.  Replays run at the fixture's pinned trial counts.

    ``record=True`` re-pins the fixture at :data:`TRIALS` instead of
    comparing — the sanctioned path for intentional behavior changes.
    A case whose live check fails is refused, never pinned.
    """
    if record:
        trials = dict(TRIALS)
        observations = {}
        rows = []
        for case in corpus_cases(trials):
            observed, mismatched = case["observe"]()
            if mismatched:
                raise ValueError(
                    f"{case['name']}: live check failed ({mismatched}); "
                    "refusing to pin it"
                )
            observations[case["name"]] = normalize(observed)
            rows.append(_row(case, []))
            if progress is not None:
                progress(rows[-1])
        write_fixture(fixture, {
            "schema": MC_REPLAY_SCHEMA,
            "trials": trials,
            "cases": observations,
        })
    else:
        pinned = load_fixture(fixture, schema=MC_REPLAY_SCHEMA)
        trials = pinned["trials"]
        rows = []
        for case in corpus_cases(trials):
            rows.append(run_case(case, pinned["cases"].get(case["name"])))
            if progress is not None:
                progress(rows[-1])
    return {
        "schema": MC_DIFF_SCHEMA,
        "fixture": fixture,
        "recorded": record,
        "trials": trials,
        "cases": rows,
        "total": len(rows),
        "identical": all(row["identical"] for row in rows),
    }
