"""Python reproduction of *cuSync* (CGO 2024).

cuSync is a framework for fine-grained synchronization of dependent GPU
kernels: instead of stream synchronization (consumer waits for every thread
block of the producer), dependent kernels run on separate streams and only
dependent *tiles* synchronize through global-memory semaphores, letting
independent tiles of both kernels share the GPU's final, otherwise
under-utilized wave.

This package re-implements the whole system on top of a discrete-event GPU
simulator (no GPU required):

* :mod:`repro.gpu` — the simulated GPU substrate (SMs, waves, streams,
  semaphores, cost model);
* :mod:`repro.kernels` — tiled GeMM / Conv2D / Softmax-Dropout / copy
  kernels (the CUTLASS analogue);
* :mod:`repro.cusync` — the cuSync framework itself (stages, policies, tile
  orders, optimizations, semaphores);
* :mod:`repro.pipeline` — the declarative API: one immutable
  :class:`~repro.pipeline.PipelineGraph` per computation, the execution
  backends (``streamsync`` and ``streamk``, the paper's baselines, and
  ``cusync``) and a :class:`~repro.pipeline.Session` for repeated runs and
  parallel sweeps;
* :mod:`repro.dsl` — the cuSyncGen DSL and policy/tile-order compiler;
* :mod:`repro.models` — the ML-model workloads of the evaluation (GPT-3,
  LLaMA, ResNet-38, VGG-19);
* :mod:`repro.bench` — the experiment harness reproducing every table and
  figure of the paper's evaluation;
* :mod:`repro.service` — the sweep service: content-addressed result
  persistence plus an async, coalescing job layer;
* :mod:`repro.serving` — request-level serving on the simulator:
  open-loop traffic, continuous batching, latency-percentile reports.
"""

from repro.errors import (
    ReproError,
    SimulationError,
    DeadlockError,
    LivelockError,
    SemaphoreWaiter,
    SweepPointError,
    FaultInjectionError,
    InjectedCrashError,
    InjectedFaultError,
    SynchronizationError,
    GraphValidationError,
    DataRaceError,
    DslError,
    DslBoundsError,
    CodegenError,
    ModelConfigError,
    ServingError,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "LivelockError",
    "SemaphoreWaiter",
    "SweepPointError",
    "FaultInjectionError",
    "InjectedCrashError",
    "InjectedFaultError",
    "SynchronizationError",
    "GraphValidationError",
    "DataRaceError",
    "DslError",
    "DslBoundsError",
    "CodegenError",
    "ModelConfigError",
    "ServingError",
    "__version__",
]
