"""The first-class architecture space: ArchSpec, the registry, validation.

Property tests (hypothesis) pin the acceptance guarantees of the arch
axis: every registered ArchSpec roundtrips through pickle, resolves to a
memoized instance, and produces identical traces across the three sweep
modes.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from differential_harness import TINY_GPT, assert_modes_identical, differential_work
from repro.errors import ModelConfigError
from repro.gpu.arch import (
    ADA_RTX_4090,
    AMPERE_A100,
    ArchSpec,
    GpuArchitecture,
    HOPPER_H100,
    TESLA_V100,
    canonical_arch_key,
    register_arch,
    registered_archs,
    resolve_arch,
    unregister_arch,
)
from repro.models import GptMlp
from repro.pipeline import Session, SweepPoint

ARCH_NAMES = st.sampled_from(registered_archs())

#: Small override grids that keep resolution valid for every preset.
OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "num_sms": st.integers(min_value=1, max_value=160),
        "kernel_launch_latency_us": st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        "compute_efficiency": st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    },
)


class TestRegistry:
    def test_presets_registered(self):
        assert set(registered_archs()) >= {"V100", "A100", "H100-SXM", "RTX-4090"}
        assert resolve_arch("V100") is TESLA_V100
        assert resolve_arch("a100") is AMPERE_A100
        assert resolve_arch("h100") is HOPPER_H100  # alias
        assert resolve_arch("4090") is ADA_RTX_4090  # alias
        assert resolve_arch(TESLA_V100) is TESLA_V100  # instance passthrough

    def test_unknown_arch_rejected(self):
        with pytest.raises(ModelConfigError, match="unknown GPU architecture"):
            resolve_arch("MI300X")
        with pytest.raises(ModelConfigError, match="non-empty"):
            ArchSpec("")

    def test_register_unregister_roundtrip(self):
        custom = TESLA_V100.with_overrides(name="Custom-GPU", num_sms=42)
        register_arch("Custom-GPU", custom, aliases=("custom",))
        try:
            assert resolve_arch("custom") is custom
            assert "Custom-GPU" in registered_archs()
            with pytest.raises(ModelConfigError, match="already registered"):
                register_arch("custom", custom)
        finally:
            unregister_arch("Custom-GPU")
        assert "Custom-GPU" not in registered_archs()
        with pytest.raises(ModelConfigError):
            resolve_arch("custom")

    def test_overwrite_replaces_and_cleans_aliases(self):
        first = TESLA_V100.with_overrides(name="Tmp-GPU", num_sms=10)
        second = TESLA_V100.with_overrides(name="Tmp-GPU", num_sms=20)
        register_arch("Tmp-GPU", first, aliases=("tmp",))
        try:
            register_arch("Tmp-GPU", second, overwrite=True)
            assert resolve_arch("Tmp-GPU") is second
            # The whole previous registration is replaced: the old alias
            # does not keep resolving to the stale architecture.
            with pytest.raises(ModelConfigError):
                resolve_arch("tmp")
            register_arch("Tmp-GPU", second, aliases=("tmp",), overwrite=True)
            assert resolve_arch("tmp") is second
        finally:
            unregister_arch("Tmp-GPU")
        with pytest.raises(ModelConfigError):
            resolve_arch("tmp")

    def test_resolution_memoized_per_spec(self):
        spec = ArchSpec("A100", num_sms=54)
        assert resolve_arch(spec) is resolve_arch(ArchSpec("a100", num_sms=54))
        assert resolve_arch(spec).num_sms == 54

    def test_override_specs_resolve_to_distinct_names(self):
        """Distinct override specs must not collide with the preset by
        name — results (sweep baselines, comparison tables) key on it."""
        overridden = resolve_arch(ArchSpec("V100", num_sms=40))
        assert overridden.name != TESLA_V100.name
        assert "num_sms=40" in overridden.name
        # An explicit name override wins unchanged.
        named = resolve_arch(ArchSpec("V100", num_sms=40, name="Half-V100"))
        assert named.name == "Half-V100"

    def test_overwrite_cannot_hijack_other_registrations(self):
        a1 = TESLA_V100.with_overrides(name="Reg-A", num_sms=10)
        a2 = TESLA_V100.with_overrides(name="Reg-B", num_sms=20)
        a3 = TESLA_V100.with_overrides(name="Reg-A", num_sms=30)
        register_arch("Reg-A", a1)
        register_arch("Reg-B", a2)
        try:
            # overwrite=True only covers Reg-A's own previous registration;
            # claiming Reg-B's name as an alias must still be rejected.
            with pytest.raises(ModelConfigError, match="already registered"):
                register_arch("Reg-A", a3, aliases=("reg-b",), overwrite=True)
            assert resolve_arch("Reg-B") is a2
            # The failed call left Reg-A's previous registration intact.
            assert resolve_arch("Reg-A") is a1
        finally:
            unregister_arch("Reg-B")
            unregister_arch("Reg-A")

    @pytest.mark.parametrize("name,aliases", [("", ()), ("Empty-Alias-GPU", ("",)), (None, ())])
    def test_empty_names_rejected(self, name, aliases):
        before = registered_archs()
        with pytest.raises(ModelConfigError, match="non-empty"):
            register_arch(name, TESLA_V100, aliases=aliases)
        assert registered_archs() == before

    def test_canonical_key_coalesces_instance_and_name_paths(self):
        assert canonical_arch_key(TESLA_V100) == ArchSpec("V100")
        assert canonical_arch_key("v100") == ArchSpec("V100")
        bespoke = TESLA_V100.with_overrides(name="bespoke", num_sms=8)
        key = canonical_arch_key(bespoke)
        assert key is bespoke
        twin = TESLA_V100.with_overrides(name="bespoke", num_sms=8)
        assert canonical_arch_key(twin) == key and hash(canonical_arch_key(twin)) == hash(key)

    def test_session_caches_flush_on_registry_mutation(self):
        """An overwrite re-registration must not leave a session pairing
        the new architecture with the old architecture's cost model."""
        first = TESLA_V100.with_overrides(name="Gen-GPU", num_sms=10)
        second = TESLA_V100.with_overrides(name="Gen-GPU", num_sms=80)
        register_arch("Gen-GPU", first)
        try:
            session = Session()
            assert session.cost_model("Gen-GPU").arch.num_sms == 10
            register_arch("Gen-GPU", second, overwrite=True)
            assert session.cost_model("Gen-GPU").arch.num_sms == 80
        finally:
            unregister_arch("Gen-GPU")

    def test_session_custom_cost_model_survives_registry_flush(self):
        from repro.gpu.costmodel import CostModel

        calibrated = CostModel(arch=TESLA_V100, duration_jitter=0.0)
        session = Session(arch="V100", cost_model=calibrated)
        assert session.cost_model() is calibrated
        register_arch("Flush-GPU", TESLA_V100.with_overrides(name="Flush-GPU"))
        try:
            # The registry changed; derived entries flush, the session's
            # own calibrated model is re-pinned.
            assert session.cost_model() is calibrated
            assert session.cost_model("V100") is calibrated
        finally:
            unregister_arch("Flush-GPU")

    def test_session_shares_cost_models_across_paths(self):
        session = Session(arch="V100")
        assert (
            session.cost_model("V100")
            == session.cost_model(TESLA_V100)
            == session.cost_model(ArchSpec("v100"))
        )
        assert session.cost_model("A100") != session.cost_model("V100")


class TestValidation:
    def test_latencies_must_be_non_negative(self):
        with pytest.raises(ValueError, match="kernel_launch_latency_us"):
            TESLA_V100.with_overrides(kernel_launch_latency_us=-1.0)

    def test_nan_latency_rejected(self):
        with pytest.raises(ValueError, match="global_latency_us"):
            resolve_arch(ArchSpec("V100", global_latency_us=float("nan")))

    def test_occupancy_bounds_enforced(self):
        with pytest.raises(ValueError, match="max_threads_per_block"):
            TESLA_V100.with_overrides(max_threads_per_block=4096)
        with pytest.raises(ValueError):
            TESLA_V100.with_overrides(num_sms=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ModelConfigError, match="unknown GpuArchitecture field"):
            TESLA_V100.with_overrides(smm_count=80)
        with pytest.raises(ModelConfigError, match="unknown GpuArchitecture field"):
            resolve_arch(ArchSpec("V100", smm_count=80))

    def test_scaled_factors_must_be_positive(self):
        with pytest.raises(ModelConfigError, match="must be positive"):
            ArchSpec("V100").scaled(sms=0.0)

    def test_scaled_rejects_nan_factor(self):
        with pytest.raises(ModelConfigError, match="latency must be positive"):
            ArchSpec("V100").scaled(latency=float("nan"))

    def test_scaled_derives_quantities(self):
        spec = ArchSpec("V100").scaled(sms=0.5, bandwidth=2.0, latency=0.5)
        arch = resolve_arch(spec)
        assert arch.num_sms == TESLA_V100.num_sms // 2
        assert arch.bytes_per_sm_us == pytest.approx(2 * TESLA_V100.bytes_per_sm_us)
        assert arch.kernel_launch_latency_us == pytest.approx(
            TESLA_V100.kernel_launch_latency_us / 2
        )
        assert "[" in arch.name  # the what-if name records the factors


class TestSpecProperties:
    @given(ARCH_NAMES, OVERRIDES)
    @settings(max_examples=60, deadline=None)
    def test_spec_pickle_roundtrip(self, name, overrides):
        """Any registered ArchSpec roundtrips through pickle: equal, same
        hash, and resolving to the identical memoized instance."""
        spec = ArchSpec(name, **overrides)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert resolve_arch(clone) is resolve_arch(spec)
        assert isinstance(resolve_arch(spec), GpuArchitecture)

    @given(ARCH_NAMES)
    @settings(max_examples=10, deadline=None)
    def test_spec_points_sweep_identically_across_modes(self, name):
        """A SweepPoint carrying any registered ArchSpec produces identical
        results across the serial and process modes (the differential
        harness's core guarantee, per architecture)."""
        graph = _TINY_GRAPH
        work = differential_work(
            [graph], arches=(ArchSpec(name),), schemes=("cusync",), policies=("TileSync",)
        )
        results = assert_modes_identical(work)
        assert len(results) == 1
        assert results[0].arch_name == resolve_arch(name).name

    @given(ARCH_NAMES)
    @settings(max_examples=10, deadline=None)
    def test_name_spec_and_instance_points_agree(self, name):
        """The same point expressed as a name, a spec and an instance
        produces one identical result (the shim paths are exact)."""
        graph = _TINY_GRAPH
        session = Session()
        variants = [name, ArchSpec(name), resolve_arch(name)]
        sweeps = [
            session.sweep(
                [(graph, SweepPoint("cusync", "TileSync", arch))], mode="serial"
            )[0]
            for arch in variants
        ]
        assert sweeps[0] == sweeps[1] == sweeps[2]


#: One tiny graph shared by the property tests (building it per example
#: would dominate the runtime).
_TINY_GRAPH = GptMlp(config=TINY_GPT, batch_seq=96).to_graph()
