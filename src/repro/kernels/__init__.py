"""Case-study workloads (paper §5).

Each module builds the paper's kernels in every variant the case study
compares, plus host-side helpers (argument staging, NumPy references):

* :mod:`repro.kernels.mixbench` — §5.1: ``benchmark_func`` with
  single-precision / double-precision / integer MAD streams, naive and
  vectorized;
* :mod:`repro.kernels.heat` — §5.2: 2D Jacobi heat-transfer stencil,
  naive / texture-memory / ``__restrict__`` variants;
* :mod:`repro.kernels.sgemm` — §5.3: SGEMM, naive / shared-memory
  tiled / shared+vectorized variants;
* :mod:`repro.kernels.histogram` — the §4.4 workload this repo adds:
  global vs shared atomics;
* :mod:`repro.kernels.reduction` — extension ladder: atomic -> shared
  tree -> warp shuffle.

:mod:`repro.kernels.catalog` names them all (``sgemm:shared``,
``mixbench:sp:vec``, ...), keeps one compiled program per variant per
process and stages launch inputs per request.
``repro.kernels.calibration`` holds the per-case-study simulator specs
used by the benchmark harness.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "build_mixbench": ("repro.kernels.mixbench", "build_mixbench"),
    "mixbench_reference": ("repro.kernels.mixbench", "mixbench_reference"),
    "build_heat": ("repro.kernels.heat", "build_heat"),
    "heat_reference": ("repro.kernels.heat", "heat_reference"),
    "build_sgemm": ("repro.kernels.sgemm", "build_sgemm"),
    "sgemm_reference": ("repro.kernels.sgemm", "sgemm_reference"),
    "build_histogram": ("repro.kernels.histogram", "build_histogram"),
    "histogram_reference": ("repro.kernels.histogram", "histogram_reference"),
    "build_reduction": ("repro.kernels.reduction", "build_reduction"),
    "reduction_reference": ("repro.kernels.reduction", "reduction_reference"),
    "resolve_kernel": ("repro.kernels.catalog", "resolve_kernel"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
