"""cudalite: a miniature CUDA-flavoured kernel frontend.

This package stands in for ``nvcc`` + CUDA C in the reproduction: kernels
are written against a typed expression/statement AST (usually through
:class:`~repro.cudalite.builder.KernelBuilder`), then compiled by
:mod:`repro.cudalite.compiler` to Volta-style SASS with

* real register allocation (linear scan) against a configurable budget,
  spilling to local memory with ``STL``/``LDL`` exactly where pressure
  exceeds the budget;
* vectorized ``LDG.E.{64,128}``/``STG.E.{64,128}`` for vector types
  (``float4`` & friends);
* ``LDG.E.CONSTANT`` read-only loads for ``const __restrict__``
  parameters;
* texture fetches (``TEX``), shared-memory traffic (``LDS``/``STS``),
  atomics (``RED``/``ATOM``/``ATOMS``), datatype conversions
  (``I2F``/``F2F``/...) and natural for-loops with back edges;
* a source-line table mapping every instruction to a line of the
  pseudo-CUDA rendering of the kernel (what ``-g --generate-line-info``
  provides on real binaries).

GPUscout's static analyses therefore see the same instruction patterns
they would see on nvcc output.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DType": ("repro.cudalite.types", "DType"),
    "PointerType": ("repro.cudalite.types", "PointerType"),
    "f32": ("repro.cudalite.types", "f32"),
    "f64": ("repro.cudalite.types", "f64"),
    "i32": ("repro.cudalite.types", "i32"),
    "u32": ("repro.cudalite.types", "u32"),
    "u64": ("repro.cudalite.types", "u64"),
    "float2": ("repro.cudalite.types", "float2"),
    "float4": ("repro.cudalite.types", "float4"),
    "int4": ("repro.cudalite.types", "int4"),
    "double2": ("repro.cudalite.types", "double2"),
    "ptr": ("repro.cudalite.types", "ptr"),
    "Expr": ("repro.cudalite.ast", "Expr"),
    "Stmt": ("repro.cudalite.ast", "Stmt"),
    "KernelBuilder": ("repro.cudalite.builder", "KernelBuilder"),
    "Kernel": ("repro.cudalite.builder", "Kernel"),
    "compile_kernel": ("repro.cudalite.compiler", "compile_kernel"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
