"""The SecurityScheme registry: resolution, aliases, plugins, and the
bit-stability pin that keeps the refactor invisible to old reports."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.controller import SecureMemoryController
from repro.core import make_controller
from repro.core.cloning import RelaxedCloning
from repro.core.shadow_dup import SoteriaShadowCodec
from repro.recovery import recover_image
from repro.schemes import (
    PAPER_SCHEMES,
    SecurityScheme,
    all_schemes,
    reference_scheme,
    register_scheme,
    resolve_scheme,
    scheme_names,
    unregister_scheme,
)
from repro.sim import SystemConfig, run_schemes

KB = 1024
MB = 1024 * KB

GOLDEN = Path(__file__).parent / "fixtures" / "golden_scheme_results.json"


class TestRegistry:
    def test_builtins_registered(self):
        names = scheme_names()
        for name in ("baseline", "src", "sac", "phoenix", "triad"):
            assert name in names
        # The paper trio leads the ordering (report columns depend on it).
        assert names[:3] == tuple(PAPER_SCHEMES)

    def test_resolve_by_name_alias_and_instance(self):
        triad = resolve_scheme("triad")
        assert resolve_scheme("triad-nvm") is triad
        assert resolve_scheme("TRIAD") is triad
        assert resolve_scheme(triad) is triad

    def test_unknown_scheme_uniform_error(self):
        with pytest.raises(ValueError, match="unknown scheme 'nope'"):
            resolve_scheme("nope")
        with pytest.raises(ValueError, match="registered schemes"):
            resolve_scheme("nope")

    def test_reference_scheme_is_baseline(self):
        assert reference_scheme().name == "baseline"
        assert sum(s.is_reference for s in all_schemes()) == 1

    def test_round_trip_register_build_run_unregister(self):
        scheme = SecurityScheme(
            name="test-plugin",
            description="out-of-tree registration round trip",
            clone_policy=RelaxedCloning,
            shadow_codec=SoteriaShadowCodec,
            aliases=("tp",),
            builtin=False,
        )
        register_scheme(scheme)
        try:
            assert resolve_scheme("tp") is scheme
            assert "test-plugin" in scheme_names()
            ctrl = make_controller(
                "test-plugin", 32 * KB,
                rng=np.random.default_rng(5),
            )
            assert isinstance(ctrl, SecureMemoryController)
            assert ctrl.scheme_name == "test-plugin"
            assert ctrl.clone_policy.name == "src"
            ctrl.write(0, bytes(range(64)))
            assert ctrl.read(0).data == bytes(range(64))
        finally:
            unregister_scheme("test-plugin")
        assert "test-plugin" not in scheme_names()
        with pytest.raises(ValueError):
            resolve_scheme("tp")

    def test_duplicate_registration_rejected(self):
        clash = SecurityScheme(
            name="baseline", description="imposter",
            clone_policy=RelaxedCloning,
        )
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(clash)

    def test_new_scheme_knobs(self):
        triad = resolve_scheme("triad")
        assert triad.update_policy == "selective"
        assert triad.integrity_mode == "bmt"
        assert triad.persist_levels == 2
        assert triad.recovery_procedure() == "triad"
        phoenix = resolve_scheme("phoenix")
        assert phoenix.update_policy == "batched"
        assert phoenix.integrity_mode == "toc"
        assert phoenix.persist_batch == 8
        assert phoenix.recovery_procedure() == "phoenix"

    def test_caller_kwargs_win_over_pins(self):
        ctrl = make_controller(
            "phoenix", 32 * KB, persist_batch=3,
            rng=np.random.default_rng(1),
        )
        assert ctrl.update_policy == "batched"
        assert ctrl.persist_batch == 3


class TestPolicyValidation:
    # The policy x integrity-mode pair rules are covered by
    # tests/test_update_policy.py::TestPolicyModeMatrix.

    def test_persist_knobs_validated(self):
        with pytest.raises(ValueError, match="persist_levels"):
            SecureMemoryController(32 * KB, persist_levels=0)
        with pytest.raises(ValueError, match="persist_batch"):
            SecureMemoryController(32 * KB, persist_batch=0)


def _scheme_modes():
    """(scheme, integrity mode) for every registered scheme: its pinned
    mode, or both trees when the scheme leaves the mode to the caller."""
    return [
        (scheme.name, mode)
        for scheme in all_schemes()
        for mode in dict.fromkeys(
            scheme.effective_integrity_mode(m) for m in ("toc", "bmt")
        )
    ]


class TestRecoveredControllerKeepsScheme:
    """A recovered controller is configured exactly as the crashed one:
    crash, recover, write and crash again keeps every scheme knob."""

    @pytest.mark.parametrize("name,mode", _scheme_modes())
    def test_second_crash_keeps_scheme(self, name, mode):
        ctrl = make_controller(
            name, 64 * KB, metadata_cache_bytes=2 * KB,
            integrity_mode=mode, persist_levels=3, persist_batch=5,
            rng=np.random.default_rng(3),
        )
        rng = np.random.default_rng(4)
        for _ in range(120):
            ctrl.write(int(rng.integers(0, ctrl.num_data_blocks)),
                       bytes(int(x) for x in rng.integers(0, 256, 64)))
        recovered, __ = recover_image(ctrl.crash())
        recovered.write(0, bytes(range(64)))
        image = recovered.crash()
        knobs = ("update_policy", "integrity_mode", "persist_levels",
                 "persist_batch")
        assert image.scheme == name
        for knob in knobs:
            assert getattr(image, knob) == getattr(ctrl, knob), knob
        again, __ = recover_image(image)
        assert again.scheme_name == name
        assert again.read(0).data == bytes(range(64))


class TestGoldenPin:
    """The refactor must be invisible: pinned seeds reproduce the exact
    SimResults captured before scheme dispatch moved to the registry."""

    def test_paper_schemes_bit_identical_to_pre_refactor(self):
        golden = json.loads(GOLDEN.read_text())
        spec = (golden["spec"][0], tuple(golden["spec"][1]),
                dict(golden["spec"][2]))
        assert golden["config"] == "scaled-16mb"
        config = SystemConfig.scaled(memory_mb=16)
        results = run_schemes(
            spec, schemes=tuple(golden["results"]), config=config,
            seed=golden["seed"],
        )
        for scheme, want in golden["results"].items():
            # JSON round-trip normalizes int dict keys to strings.
            got = json.loads(json.dumps(asdict(results[scheme])))
            assert got == want, f"SimResult drifted for {scheme!r}"

    def test_depth_maps_bit_identical_to_pre_refactor(self):
        golden = json.loads(GOLDEN.read_text())
        config = SystemConfig.scaled(memory_mb=16)
        for scheme, want in golden["depths"].items():
            depths = resolve_scheme(scheme).depths_for(config.memory_bytes)
            got = {str(level): depth for level, depth in depths.items()}
            assert got == want, f"depth map drifted for {scheme!r}"
