"""GPU architecture descriptions and the first-class architecture space.

The quantities modeled here are the ones the paper's analysis depends on:

* the number of SMs and the per-SM resource limits, which (with a kernel's
  resource usage) determine occupancy and therefore thread blocks per wave;
* per-SM compute throughput and memory bandwidth, which give the duration of
  a tile computation;
* latencies of the operations cuSync adds: global-memory semaphore reads,
  atomic increments, ``__syncthreads``/memory fences and kernel launches.

The default preset is an NVIDIA Tesla V100 (the paper's evaluation GPU,
80 SMs).  An A100 preset is provided because the paper notes the wait-kernel
scheduling assumption holds on Volta and Ampere; H100-SXM and RTX-4090
presets extend the axis to Hopper and a consumer Ada part with a different
occupancy geometry (1536 threads / 24 blocks per SM) and a higher host
launch latency.

On top of the dataclass this module provides the **architecture space
API**, built like the policy space of :mod:`repro.cusync.policies` on the
one spec type and registry of :mod:`repro.common.registry`:

* :class:`ArchSpec` — a hashable, picklable ``(name, params)`` value
  naming an architecture without holding the instance (``params``
  override fields of the registered architecture);
* a user-extensible registry (:func:`register_arch`, :func:`resolve_arch`,
  :func:`registered_archs`) that subsumes passing raw
  :class:`GpuArchitecture` objects around — architecture axes of sweeps
  take names/specs that resolve in worker processes;
* :meth:`ArchSpec.with_overrides` / :meth:`ArchSpec.scaled` constructors
  for what-if studies ("half the SMs", "2x the bandwidth").
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Iterable, Tuple, Union

from repro.common.registry import Registry, Spec
from repro.common.validation import check_non_negative, check_positive
from repro.errors import ModelConfigError


@dataclass(frozen=True)
class GpuArchitecture:
    """Static description of a GPU used by the simulator and cost model.

    Times are expressed in microseconds, sizes in bytes, throughputs in
    FLOP/µs and bytes/µs per SM, so durations computed from them are directly
    comparable with the paper's microsecond-scale kernel times.
    """

    name: str
    #: Number of streaming multiprocessors.
    num_sms: int
    #: Hard cap on resident thread blocks per SM.
    max_blocks_per_sm: int
    #: Maximum resident threads per SM.
    max_threads_per_sm: int
    #: Maximum threads per thread block.
    max_threads_per_block: int
    #: 32-bit registers available per SM.
    registers_per_sm: int
    #: Shared memory per SM in bytes.
    shared_memory_per_sm: int
    #: Peak half-precision (tensor core) throughput per SM in FLOP/µs.
    fp16_flops_per_sm_us: float
    #: Peak single-precision throughput per SM in FLOP/µs.
    fp32_flops_per_sm_us: float
    #: Global-memory bandwidth per SM in bytes/µs (device bandwidth / SMs).
    bytes_per_sm_us: float
    #: Latency of a dependent global memory access (semaphore poll), µs.
    global_latency_us: float
    #: Latency of a global-memory atomic add, µs.
    atomic_latency_us: float
    #: Cost of a ``__syncthreads`` + ``__threadfence_system`` pair, µs.
    fence_latency_us: float
    #: Host-side latency of launching a kernel, µs (the paper measures ~6 µs).
    kernel_launch_latency_us: float
    #: Device-side gap between one kernel finishing and an already-queued
    #: kernel on the same stream starting to dispatch blocks, µs.  Exposed on
    #: every kernel boundary under stream synchronization; hidden by cuSync
    #: because the dependent kernel's blocks are already resident.
    kernel_dispatch_latency_us: float
    #: Extra latency for a busy-waiting block to notice a posted semaphore, µs.
    wait_resume_latency_us: float
    #: Achievable fraction of peak throughput for well-tuned tiled kernels.
    compute_efficiency: float = 0.8
    #: Achievable fraction of peak memory bandwidth.
    memory_efficiency: float = 0.75
    #: Free-form extra attributes (e.g. NVLink bandwidth for multi-GPU runs).
    extras: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Construction-time validation of every quantity downstream code
        # derives from: occupancy bounds, throughput/bandwidth rates and
        # synchronization latencies.  A bad override (a scaled() factor of
        # zero, a negative latency) fails here, not deep inside a sweep.
        check_positive("num_sms", self.num_sms)
        check_positive("max_blocks_per_sm", self.max_blocks_per_sm)
        check_positive("max_threads_per_sm", self.max_threads_per_sm)
        check_positive("max_threads_per_block", self.max_threads_per_block)
        check_positive("registers_per_sm", self.registers_per_sm)
        check_positive("shared_memory_per_sm", self.shared_memory_per_sm)
        check_positive("fp16_flops_per_sm_us", self.fp16_flops_per_sm_us)
        check_positive("fp32_flops_per_sm_us", self.fp32_flops_per_sm_us)
        check_positive("bytes_per_sm_us", self.bytes_per_sm_us)
        if self.max_threads_per_block > self.max_threads_per_sm:
            raise ValueError(
                f"max_threads_per_block ({self.max_threads_per_block}) exceeds "
                f"max_threads_per_sm ({self.max_threads_per_sm}): no block "
                "could ever be resident (occupancy would be zero)"
            )
        for latency_field in (
            "global_latency_us",
            "atomic_latency_us",
            "fence_latency_us",
            "kernel_launch_latency_us",
            "kernel_dispatch_latency_us",
            "wait_resume_latency_us",
        ):
            check_non_negative(latency_field, getattr(self, latency_field))
        if not (0.0 < self.compute_efficiency <= 1.0):
            raise ValueError(f"compute_efficiency must be in (0, 1], got {self.compute_efficiency}")
        if not (0.0 < self.memory_efficiency <= 1.0):
            raise ValueError(f"memory_efficiency must be in (0, 1], got {self.memory_efficiency}")

    def __hash__(self) -> int:
        # A value hash, so an instance can key caches itself; the generated
        # one would fail on the ``extras`` dict.
        state = dict(vars(self), extras=tuple(sorted(self.extras.items())))
        return hash(tuple(state.values()))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def blocks_per_wave(self, occupancy: int) -> int:
        """Thread blocks executed per wave for a kernel with ``occupancy``."""
        check_positive("occupancy", occupancy)
        return self.num_sms * occupancy

    def with_overrides(self, **kwargs) -> "GpuArchitecture":
        """Return a copy with some fields replaced (for what-if studies)."""
        known = {f.name for f in fields(self)}
        unknown = set(kwargs) - known
        if unknown:
            raise ModelConfigError(
                f"unknown GpuArchitecture field(s) {sorted(unknown)}; "
                f"valid fields: {', '.join(sorted(known))}"
            )
        return replace(self, **kwargs)


#: NVIDIA Tesla V100-SXM2 32GB — the GPU used throughout the paper's
#: evaluation (80 SMs, ~112 TFLOP/s FP16 tensor cores, ~900 GB/s HBM2).
TESLA_V100 = GpuArchitecture(
    name="Tesla V100",
    num_sms=80,
    max_blocks_per_sm=32,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    shared_memory_per_sm=96 * 1024,
    fp16_flops_per_sm_us=1.4e6,   # 112 TFLOP/s / 80 SMs
    fp32_flops_per_sm_us=0.175e6,  # 14 TFLOP/s / 80 SMs
    bytes_per_sm_us=11250.0,       # 900 GB/s / 80 SMs
    global_latency_us=0.6,
    atomic_latency_us=0.4,
    fence_latency_us=0.3,
    kernel_launch_latency_us=6.0,
    kernel_dispatch_latency_us=3.0,
    wait_resume_latency_us=0.5,
    extras={"nvlink_bandwidth_bytes_us": 150_000.0},
)

#: NVIDIA A100-SXM4 80GB — included because the paper states the kernel
#: scheduling order assumption also holds on Ampere GPUs.
AMPERE_A100 = GpuArchitecture(
    name="A100",
    num_sms=108,
    max_blocks_per_sm=32,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    shared_memory_per_sm=164 * 1024,
    fp16_flops_per_sm_us=2.89e6,   # 312 TFLOP/s / 108 SMs
    fp32_flops_per_sm_us=0.18e6,
    bytes_per_sm_us=18000.0,       # ~1.94 TB/s / 108 SMs
    global_latency_us=0.5,
    atomic_latency_us=0.35,
    fence_latency_us=0.25,
    kernel_launch_latency_us=5.0,
    kernel_dispatch_latency_us=2.5,
    wait_resume_latency_us=0.4,
    extras={"nvlink_bandwidth_bytes_us": 300_000.0},
)

#: NVIDIA H100-SXM5 80GB — the Hopper data-center part.  Included so the
#: arch-comparison experiments can ask whether the paper's speedup story
#: (Figures 6–8) carries past Ampere: more SMs, much higher tensor
#: throughput and bandwidth, slightly lower synchronization latencies.
HOPPER_H100 = GpuArchitecture(
    name="H100-SXM",
    num_sms=132,
    max_blocks_per_sm=32,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    shared_memory_per_sm=228 * 1024,
    fp16_flops_per_sm_us=7.49e6,   # ~989 TFLOP/s dense FP16 / 132 SMs
    fp32_flops_per_sm_us=0.51e6,   # ~67 TFLOP/s / 132 SMs
    bytes_per_sm_us=25380.0,       # ~3.35 TB/s HBM3 / 132 SMs
    global_latency_us=0.45,
    atomic_latency_us=0.3,
    fence_latency_us=0.22,
    kernel_launch_latency_us=4.5,
    kernel_dispatch_latency_us=2.2,
    wait_resume_latency_us=0.35,
    extras={"nvlink_bandwidth_bytes_us": 450_000.0},
)

#: NVIDIA GeForce RTX 4090 — a consumer Ada part with a *deliberately*
#: different shape from the data-center GPUs: 128 SMs but only 1536
#: resident threads / 24 blocks per SM (so the same kernel reaches a
#: different occupancy), GDDR6X bandwidth far below HBM, no NVLink, and a
#: higher host launch latency (PCIe).  Exercises the parts of the model the
#: SXM presets cannot.
ADA_RTX_4090 = GpuArchitecture(
    name="RTX-4090",
    num_sms=128,
    max_blocks_per_sm=24,
    max_threads_per_sm=1536,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    shared_memory_per_sm=100 * 1024,
    fp16_flops_per_sm_us=1.29e6,   # ~165 TFLOP/s dense FP16 / 128 SMs
    fp32_flops_per_sm_us=0.645e6,  # ~82.6 TFLOP/s / 128 SMs
    bytes_per_sm_us=7875.0,        # ~1.008 TB/s GDDR6X / 128 SMs
    global_latency_us=0.7,
    atomic_latency_us=0.45,
    fence_latency_us=0.35,
    kernel_launch_latency_us=9.0,
    kernel_dispatch_latency_us=3.5,
    wait_resume_latency_us=0.6,
    extras={},
)


# ======================================================================
# The first-class architecture space: specs and the registry
# ======================================================================
#: What architecture axes accept everywhere: a registered name, a spec, or
#: a raw (possibly unregistered) instance.
ArchLike = Union[str, "ArchSpec", GpuArchitecture]


class ArchSpec(Spec):
    """A registered architecture name plus field overrides, without an instance.

    Architecture specs name an entry of the architecture registry; their
    ``params`` override fields of the registered :class:`GpuArchitecture`::

        ArchSpec("V100")
        ArchSpec("A100", num_sms=64)
        ArchSpec("H100-SXM").scaled(bandwidth=0.5)
    """

    __slots__ = ()
    kind = "GPU architecture"
    tag = "arch-spec"
    hint = "GpuArchitecture instances are accepted directly by resolve_arch"

    def with_overrides(self, **overrides: Any) -> "ArchSpec":
        """A spec with additional field overrides merged over this one's."""
        merged = dict(self.params)
        merged.update(overrides)
        return ArchSpec(self.name, **merged)

    def scaled(
        self,
        sms: float = 1.0,
        compute: float = 1.0,
        bandwidth: float = 1.0,
        latency: float = 1.0,
    ) -> "ArchSpec":
        """A what-if spec scaling the resolved architecture's rate quantities.

        ``sms`` multiplies the SM count (rounded, at least 1), ``compute``
        the FP16/FP32 per-SM throughputs, ``bandwidth`` the per-SM memory
        bandwidth and ``latency`` every synchronization/launch latency.
        The result is still a spec — picklable and registry-resolved — whose
        name records the applied factors.
        """
        for label, factor in (("sms", sms), ("compute", compute),
                              ("bandwidth", bandwidth), ("latency", latency)):
            if not factor > 0.0:
                raise ModelConfigError(f"scaled() factor {label} must be positive, got {factor}")
        base = self.resolve()
        overrides = dict(self.params)
        applied = []
        if sms != 1.0:
            overrides["num_sms"] = max(1, round(base.num_sms * sms))
            applied.append(f"sms*{sms:g}")
        if compute != 1.0:
            overrides["fp16_flops_per_sm_us"] = base.fp16_flops_per_sm_us * compute
            overrides["fp32_flops_per_sm_us"] = base.fp32_flops_per_sm_us * compute
            applied.append(f"compute*{compute:g}")
        if bandwidth != 1.0:
            overrides["bytes_per_sm_us"] = base.bytes_per_sm_us * bandwidth
            applied.append(f"bw*{bandwidth:g}")
        if latency != 1.0:
            for latency_field in (
                "global_latency_us", "atomic_latency_us", "fence_latency_us",
                "kernel_launch_latency_us", "kernel_dispatch_latency_us",
                "wait_resume_latency_us",
            ):
                overrides[latency_field] = getattr(base, latency_field) * latency
            applied.append(f"lat*{latency:g}")
        if applied:
            overrides["name"] = f"{base.name}[{','.join(applied)}]"
        return ArchSpec(self.name, **overrides)

    def resolve(self) -> GpuArchitecture:
        """The concrete :class:`GpuArchitecture` this spec names."""
        return resolve_arch(self)


_ARCHS = Registry(ArchSpec.kind)
#: Memoized spec resolutions: equal specs resolve to the *same* instance,
#: so repeated resolution of a sweep axis is free.  Cleared whenever the
#: architecture registry changes.
_RESOLVE_CACHE: Dict[ArchSpec, GpuArchitecture] = {}


def register_arch(
    name: str,
    arch: GpuArchitecture,
    *,
    aliases: Iterable[str] = (),
    overwrite: bool = False,
) -> GpuArchitecture:
    """Register ``arch`` under ``name`` (and ``aliases``), case-insensitively.

    Registered architectures are addressable by name everywhere an
    architecture axis appears — ``SweepPoint.arch``, ``Session(arch=...)``,
    ``sweep_archs(...)`` — and resolve inside worker processes (register
    custom architectures at module import time so workers see them too).
    Re-registering a taken name raises unless ``overwrite=True``, which
    replaces only ``name``'s own previous registration (see
    :meth:`repro.common.registry.Registry.register`).
    """
    if not isinstance(arch, GpuArchitecture):
        raise ModelConfigError(
            f"register_arch expects a GpuArchitecture, got {arch!r}"
        )
    _ARCHS.register(name, arch, aliases=aliases, overwrite=overwrite)
    _RESOLVE_CACHE.clear()
    return arch


def unregister_arch(name: str) -> None:
    """Remove an architecture and every alias registered for it."""
    _ARCHS.unregister(name)
    _RESOLVE_CACHE.clear()


def registered_archs() -> Tuple[str, ...]:
    """Canonical names of every registered architecture, sorted."""
    return _ARCHS.names()


def resolve_arch(value: ArchLike) -> GpuArchitecture:
    """Turn an architecture name / spec into a concrete instance.

    :class:`GpuArchitecture` instances pass through unchanged (the legacy
    path); strings lower to override-free specs.  Equal specs resolve to
    the same memoized instance, so repeated resolution is free.
    """
    if isinstance(value, GpuArchitecture):
        return value
    spec = ArchSpec.coerce(value)
    cached = _RESOLVE_CACHE.get(spec)
    if cached is not None:
        return cached
    base = _ARCHS.lookup(spec.name)
    if spec.params:
        values = dict(spec.params)
        if "name" not in values:
            # Distinct override specs must resolve to distinctly *named*
            # architectures: results keyed by arch name (sweep baselines,
            # comparison tables) would otherwise silently collide with the
            # unmodified preset.
            rendered = ",".join(f"{key}={value}" for key, value in spec.params)
            values["name"] = f"{base.name}({rendered})"
        resolved = base.with_overrides(**values)
    else:
        resolved = base
    _RESOLVE_CACHE[spec] = resolved
    return resolved


def canonical_arch_key(value: ArchLike) -> Union["ArchSpec", GpuArchitecture]:
    """A hashable cache key identifying ``value``'s architecture.

    Names and specs key by the spec itself, so two equal specs (even across
    pickling) share cached results.  A raw instance that is value-equal to
    a registered preset keys as that preset's spec — the historical
    ``Session(arch=TESLA_V100)`` path lands on the same entry as
    ``Session(arch="V100")``.  Any other instance is its own key, by value:
    equal what-if instances share entries, and none is kept alive by
    identity.  Only spec keys are portable (store keys need one).
    """
    if isinstance(value, GpuArchitecture):
        name = _ARCHS.name_of(value)
        return ArchSpec(name) if name is not None else value
    return ArchSpec.coerce(value)


register_arch("V100", TESLA_V100, aliases=("tesla-v100", "tesla v100", "volta"))
register_arch("A100", AMPERE_A100, aliases=("ampere",))
register_arch("H100-SXM", HOPPER_H100, aliases=("h100", "hopper"))
register_arch("RTX-4090", ADA_RTX_4090, aliases=("4090", "ada"))
