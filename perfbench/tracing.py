"""Outside-in tracer: spans around the public calls into each layer.

The tracer wraps functions and methods of ``repro`` modules from here,
for the duration of a traced pass, and restores them afterwards;
nothing under ``src/`` knows it exists.  Each call records one span
(name, start, end, parent) into flat in-memory arrays, which are
written out when the benchmark ends.  A span's *self time* is its
duration minus the durations of its direct children, so the self times
of all spans add up to the time covered by the top-level spans.

Wrapping inflates the wall time of the traced pass; end-to-end metrics
come from untraced passes and the difference is reported as the
tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

#: (layer, module, class or None for module functions, attributes).
#: The layer names are the module names later measurements cite.
LAYERS = (
    ("controller", "repro.controller.secure_controller",
     "SecureMemoryController", ("read", "write")),
    ("cache.metadata_cache", "repro.cache.metadata_cache", "MetadataCache",
     ("get", "peek", "fill", "mark_dirty", "invalidate")),
    ("memory.address_map", "repro.memory.address_map", "AddressMap",
     ("data_addr", "mac_addr", "mac_slot", "counter_mac_addr",
      "counter_mac_slot", "counter_index_of_data", "counter_slot_of_data",
      "node_addr", "clone_addr", "all_copies", "counter_mac_clone_addr",
      "counter_mac_copies", "shadow_entry_addr", "shadow_tree_addr",
      "parent_of", "child_slot", "data_blocks_covered", "region_of")),
    ("memory.nvm", "repro.memory.nvm", "NvmDevice",
     ("read_block", "write_block", "is_touched", "is_poisoned")),
    ("memory.wpq", "repro.memory.wpq", "WritePendingQueue",
     ("enqueue", "enqueue_atomic", "drain_one", "drain_all", "lookup")),
    ("counters", "repro.counters.split_counter", "SplitCounterBlock",
     ("to_bytes", "from_bytes", "increment")),
    ("controller.shadow", "repro.controller.shadow", "ShadowManager",
     ("write_entry", "record_mac")),
    ("controller.shadow", "repro.controller.shadow", "AnubisShadowCodec",
     ("encode",)),
    ("controller.shadow", "repro.core.shadow_dup", "SoteriaShadowCodec",
     ("encode",)),
    ("tree", "repro.tree.toc", "TocAuthenticator",
     ("node_mac", "seal_node", "verify_node", "counter_block_mac",
      "verify_counter_block")),
    ("tree", "repro.tree.bmt", "BonsaiMerkleTree",
     ("leaf_hash", "update_leaf", "verify_leaf", "rebuild_from_leaves",
      "node_bytes")),
    ("sim.engine", "repro.sim.engine", None, ("run_batched",)),
    ("sim.system", "repro.sim.sweep", None, ("run_sim_cell",)),
    ("workloads", "repro.workloads.base", "Workload", ("reference_arrays",)),
    ("runtime", "repro.sim.sweep", "SweepEngine", ("run",)),
    ("faults.mc", "repro.faults.mc", None,
     ("run_mc_campaign", "run_mc_batch", "sample_batch", "evaluate_batch",
      "_union_regions", "trial_moment_arrays")),
    ("faults.streaming", "repro.faults.streaming", "McEstimatorState",
     ("add",)),
    ("faults.streaming", "repro.faults.mc", None, ("_finalize",)),
    ("analysis.udr_mc", "repro.analysis.udr_mc", None,
     ("monte_carlo_udr", "extent_hits_in_range")),
    ("analysis.udr_mc", "repro.faults.faultsim", "FaultSimulator",
     ("sample_faults",)),
    ("analysis.udr_mc", "repro.faults.ecc", "ChipkillCorrect",
     ("uncorrectable_regions",)),
    ("analysis.udr_mc", "repro.faults.ecc", "SecDed",
     ("uncorrectable_regions",)),
    ("analysis.udr_mc", "repro.faults.ecc", "NoEcc",
     ("uncorrectable_regions",)),
)

#: Layer names in report order (``workloads`` also times the
#: ``references()`` generator, wrapped below).
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))


class _TimedReferences:
    """Iterator over a ``references()`` generator, one span per item."""

    __slots__ = ("_next", "count")

    def __init__(self, next_item):
        self._next = next_item
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = self._next()
        self.count += 1
        return item


class Tracer:
    """Span recorder plus the patches that feed it.

    Use as a context manager: entering installs every wrapper, leaving
    restores the original attributes.
    """

    def __init__(self):
        self.span_names = []            # span-name id -> "layer:function"
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = []
        self._iterators = []
        self.array_refs = 0
        self.engines = []

    # -- recording -----------------------------------------------------

    def wrap(self, fn, span_name: str):
        """``fn`` with a span recorded around every call."""
        name_id = self._ids.get(span_name)
        if name_id is None:
            name_id = self._ids[span_name] = len(self.span_names)
            self.span_names.append(span_name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ends)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()

        return traced

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self):
        for layer, module_name, class_name, attrs in LAYERS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module,
                                                              class_name)
            for attr in attrs:
                span_name = f"{layer}:{attr}"
                static = inspect.getattr_static(owner, attr)
                if isinstance(static, classmethod):
                    wrapped = classmethod(self.wrap(static.__func__,
                                                    span_name))
                else:
                    wrapped = self.wrap(static, span_name)
                self._patch(owner, attr, wrapped)
        self._patch_workloads()
        self._patch_sweep_engine()
        return self

    def _patch_workloads(self):
        from repro.workloads.base import Workload

        arrays = Workload.reference_arrays      # already wrapped above
        references = Workload.references
        tracer = self

        def reference_arrays(workload):
            result = arrays(workload)
            if result is not None:
                tracer.array_refs += len(result[0])
            return result

        def timed_references(workload):
            iterator = _TimedReferences(tracer.wrap(
                references(workload).__next__, "workloads:references"))
            tracer._iterators.append(iterator)
            return iterator

        self._patch(Workload, "reference_arrays", reference_arrays)
        self._patch(Workload, "references", timed_references)

    def _patch_sweep_engine(self):
        """Remember every engine so its runtime registry can be read."""
        from repro.sim.sweep import SweepEngine

        original_init = SweepEngine.__init__
        engines = self.engines

        def __init__(engine, *args, **kwargs):
            original_init(engine, *args, **kwargs)
            engines.append(engine)

        self._patch(SweepEngine, "__init__", __init__)

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def references_counted(self) -> int:
        return self.array_refs + sum(it.count for it in self._iterators)

    def self_times(self):
        """Per-span ``(name ids, durations, self times)`` arrays."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        covered = np.zeros(len(duration))
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        return names, duration, duration - covered

    def by_span_name(self) -> dict:
        """``"layer:function" -> (calls, self seconds)``."""
        names, _, self_time = self.self_times()
        size = len(self.span_names)
        calls = np.bincount(names, minlength=size)
        seconds = np.bincount(names, weights=self_time, minlength=size)
        return {
            span_name: (int(calls[i]), float(seconds[i]))
            for i, span_name in enumerate(self.span_names)
        }

    def covered_seconds(self) -> float:
        """Time inside top-level spans (= the sum of all self times)."""
        parents = np.frombuffer(self.parent, dtype=np.int32)
        _, duration, _ = self.self_times()
        return float(duration[parents < 0].sum())

    def write(self, path: str) -> None:
        """Write every span out (``.npz``: arrays plus the name table)."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            span_names=np.array(json.dumps(self.span_names)),
        )


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: Cache levels of the scaled system, as named in the registry.
CACHE_LEVELS = ("L1", "L2", "LLC")


def _registry_totals(registries) -> dict:
    """Sum of the numeric instruments over the post-warmup registries."""
    totals = {}
    for registry in registries:
        for name, value in registry.snapshot().items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0) + value
    return totals


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    """``name -> (value, unit)`` for every per-layer metric.

    ``traced`` and ``untraced`` are the two passes' ``PassResult``s
    over the same inputs.  Layers that do not run on a workload report
    zero calls and zero seconds.
    """
    spans = tracer.by_span_name()
    metrics = {}
    for layer in LAYER_NAMES:
        calls = seconds = 0
        for span_name, (n, s) in spans.items():
            if span_name.split(":", 1)[0] == layer:
                calls += n
                seconds += s
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (seconds, "s")

    def calls_of(span_name):
        return spans.get(span_name, (0, 0.0))[0]

    def self_of(span_name):
        return spans.get(span_name, (0, 0.0))[1]

    registry = _registry_totals(traced.registries)
    controller_ops = (registry.get("controller.data_reads", 0)
                      + registry.get("controller.data_writes", 0))
    cache_accesses = (registry.get("metadata_cache.hits", 0)
                      + registry.get("metadata_cache.misses", 0))
    metrics.update({
        "controller.read.calls": (calls_of("controller:read"), "count"),
        "controller.write.calls": (calls_of("controller:write"), "count"),
        "controller.nvm_reads_per_call": (
            _ratio(registry.get("nvm.reads", 0), controller_ops), "ratio"),
        "controller.nvm_writes_per_call": (
            _ratio(registry.get("nvm.writes", 0), controller_ops), "ratio"),
        "metadata_cache.miss_rate": (
            _ratio(registry.get("metadata_cache.misses", 0), cache_accesses),
            "ratio"),
        "memory.nvm.reads": (registry.get("nvm.reads", 0), "count"),
        "memory.nvm.writes": (registry.get("nvm.writes", 0), "count"),
    })
    for level in CACHE_LEVELS:
        for kind in ("hits", "misses"):
            metrics[f"sim.engine.{level.lower()}_{kind}"] = (
                registry.get(f"cache.{level}.{kind}", 0), "count")
    metrics["workloads.refs"] = (tracer.references_counted(), "count")

    runtime = _registry_totals(
        {id(e.registry): e.registry for e in tracer.engines}.values())
    metrics.update({
        "runtime.cells": (sum(len(e.cells) for e in tracer.engines), "count"),
        "runtime.retries": (runtime.get("runtime.retries", 0), "count"),
        "runtime.cells_completed": (
            runtime.get("runtime.cells_completed", 0), "count"),
    })

    details = traced.details
    metrics.update({
        "faults.mc.sample_s": (self_of("faults.mc:sample_batch"), "s"),
        "faults.mc.ecc_s": (self_of("faults.mc:evaluate_batch"), "s"),
        "faults.mc.union_s": (self_of("faults.mc:_union_regions"), "s"),
        "faults.mc.union_calls": (calls_of("faults.mc:_union_regions"),
                                  "count"),
        "faults.mc.union_fallbacks": (
            details.get("faults.mc.union_fallbacks", 0), "count"),
        "faults.mc.trials": (details.get("faults.mc.trials", 0), "count"),
        "faults.mc.waves": (details.get("faults.mc.waves", 0), "count"),
        "analysis.udr_mc.dedup_s": (
            self_of("analysis.udr_mc:monte_carlo_udr"), "s"),
        "analysis.udr_mc.due_trials": (
            details.get("analysis.udr_mc.due_trials", 0), "count"),
        "analysis.udr_mc.truncated": (
            details.get("analysis.udr_mc.truncated", 0), "count"),
        # End-to-end figures of the untraced pass that only apply to
        # the reliability workload (zero elsewhere).
        "mc_time_to_ci_s": (untraced.details.get("mc_time_to_ci_s", 0.0),
                            "s"),
        "udr_due_trials_per_s": (
            _ratio(untraced.details.get("analysis.udr_mc.due_trials", 0),
                   untraced.details.get("udr_s", 0.0)), "1/s"),
    })

    covered = tracer.covered_seconds()
    metrics.update({
        "trace.spans": (len(tracer.end), "count"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.untraced_wall_s": (untraced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
        "unattributed_s": (traced.wall_s - covered, "s"),
    })
    return metrics
