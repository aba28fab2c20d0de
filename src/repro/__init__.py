"""GPUscout reproduction.

A full Python reimplementation of *GPUscout: Locating Data
Movement-related Bottlenecks on GPUs* (Sen, Vanecek, Schulz — SC-W
2023), including every substrate the tool depends on:

* :mod:`repro.sass` — SASS ISA model, nvdisasm-dialect parser/writer,
  CFG/loop/liveness analyses, Volta occupancy calculator;
* :mod:`repro.cudalite` — a miniature CUDA frontend compiled to SASS
  with register allocation and spilling (the nvcc substitute);
* :mod:`repro.gpu` — a Volta-class SM + memory-hierarchy simulator
  producing warp stalls and hardware counters (the V100 substitute);
* :mod:`repro.sampling` — CUPTI PC Sampling API substitute;
* :mod:`repro.metrics` — Nsight Compute CLI substitute;
* :mod:`repro.core` — GPUscout itself: the eight SASS bottleneck
  analyses, three-pillar correlation, report rendering and the
  ``--dry-run`` mode;
* :mod:`repro.kernels` — the paper's case-study workloads (mixbench,
  Jacobi heat transfer, SGEMM) in all compared variants.

Quickstart::

    from repro import GPUscout, LaunchConfig
    from repro.kernels.sgemm import build_sgemm, sgemm_args, TILE

    kernel = build_sgemm("naive")
    args = sgemm_args(128, 128, 128)
    report = GPUscout().analyze(
        kernel,
        LaunchConfig(grid=(8, 8), block=(TILE, TILE)),
        args,
        max_blocks=4,
    )
    print(report.render())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "GPUscout": ("repro.core.engine", "GPUscout"),
    "ScoutReport": ("repro.core.engine", "ScoutReport"),
    "Finding": ("repro.core.findings", "Finding"),
    "Severity": ("repro.core.findings", "Severity"),
    "KernelBuilder": ("repro.cudalite.builder", "KernelBuilder"),
    "compile_kernel": ("repro.cudalite.compiler", "compile_kernel"),
    "GPUSpec": ("repro.gpu.config", "GPUSpec"),
    "LaunchConfig": ("repro.gpu.config", "LaunchConfig"),
    "Simulator": ("repro.gpu.simulator", "Simulator"),
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
