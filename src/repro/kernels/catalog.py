"""The built-in kernel catalog: spec names, programs and launch inputs.

A spec such as ``sgemm:shared`` or ``mixbench:sp:vec`` names one
*variant*.  Like a binary ``nvcc`` built once and profiled at many
problem sizes, a variant's program does not depend on the request:
:func:`program` compiles it on first use and every later caller in the
process gets the same :class:`~repro.cudalite.compiler.CompiledKernel`
— one ``id()`` for the in-memory trace-cache key, one ``predecode``,
one rendering of ``sass_text`` / ``sass_sha256``.  What a request's
``size`` and ``compute_iterations`` decide is :func:`launch_inputs`.
The ``build_*`` functions of the family modules stay un-memoised for
callers who want a private program (another register cap, a mutated
copy).

Specs match exactly: a name :data:`CATALOG` lists, or a bare family,
which means the variant :data:`DEFAULT_VARIANT` gives it.  Anything
else is an :class:`~repro.errors.UnknownKernelError`.

Importing this module loads no kernel family and no numpy
(``gpuscout list-kernels`` reads :data:`CATALOG` and nothing else).
"""

from __future__ import annotations

import threading
from importlib import import_module

from repro.errors import UnknownKernelError

__all__ = ["CATALOG", "DEFAULT_VARIANT", "canonical", "launch_inputs",
           "program", "program_stats", "resolve_kernel"]

#: every built-in spec and the description ``list-kernels`` prints
CATALOG: dict[str, str] = {
    **{f"mixbench:{dtype}:{var}": f"mixbench benchmark_func, {dtype} {var}"
       for dtype in ("sp", "dp", "int") for var in ("naive", "vec")},
    **{f"heat:{var}": f"2D Jacobi heat step, {var}"
       for var in ("naive", "restrict", "texture")},
    **{f"sgemm:{var}": f"SGEMM, {var}"
       for var in ("naive", "shared", "shared_vec")},
    **{f"histogram:{var}": f"histogram, {var} atomics"
       for var in ("global", "shared")},
    **{f"reduction:{var}": f"sum reduction, {var}"
       for var in ("atomic", "shared", "warp")},
}

#: the variant a bare family name stands for
DEFAULT_VARIANT = {
    "mixbench": "mixbench:sp:naive",
    "heat": "heat:naive",
    "sgemm": "sgemm:naive",
    "histogram": "histogram:global",
    "reduction": "reduction:shared",
}

#: mixbench elements per thread; divisible by every vector width
MIXBENCH_GRANULARITY = 8

_programs: dict = {}   # canonical spec -> CompiledKernel, <= len(CATALOG)
_compiles = 0          # _compile() calls; equals len(_programs) unless cleared
_programs_lock = threading.Lock()


def canonical(spec: str) -> str:
    """The catalog name of ``spec`` (a bare family becomes its default
    variant); raises :class:`~repro.errors.UnknownKernelError`."""
    spec = DEFAULT_VARIANT.get(spec, spec)
    if spec not in CATALOG:
        raise UnknownKernelError(
            f"unknown kernel spec {spec!r}; known: {', '.join(CATALOG)}")
    return spec


def _family(spec: str):
    """(family module, family name, variant) of a canonical spec."""
    family, _, variant = spec.partition(":")
    return import_module(f"repro.kernels.{family}"), family, variant


def _compile(spec: str):
    module, family, variant = _family(spec)
    if family == "mixbench":
        dtype, _, var = variant.partition(":")
        return module.build_mixbench(dtype, MIXBENCH_GRANULARITY,
                                     vectorized=var == "vec")
    return getattr(module, f"build_{family}")(variant)


def program(spec: str):
    """The variant's ``CompiledKernel``: compiled by the first caller,
    the same object for every caller after it.  The lock covers the
    compile, so threads that arrive together wait for one program
    rather than building one each."""
    global _compiles
    spec = canonical(spec)
    with _programs_lock:
        compiled = _programs.get(spec)
        if compiled is None:
            compiled = _programs[spec] = _compile(spec)
            _compiles += 1
        return compiled


def program_stats() -> dict:
    """``{"entries", "compiles"}`` of this process's program table:
    equal while every variant was compiled once, which is what
    ``/v1/stats`` lets an operator check from outside."""
    with _programs_lock:
        return {"entries": len(_programs), "compiles": _compiles}


def launch_inputs(spec: str, size: int, compute_iterations: int = 8):
    """``(config, args, textures)`` of one launch: the part of a
    resolution that depends on the request.  ``size`` is rounded to
    the family's tile and clamped to its smallest useful problem."""
    from repro.gpu.config import LaunchConfig

    module, family, variant = _family(canonical(spec))
    if family == "mixbench":
        n_threads = max(size, 256)
        args = module.mixbench_args(n_threads, MIXBENCH_GRANULARITY,
                                    variant.partition(":")[0])
        args["compute_iterations"] = compute_iterations
        return (LaunchConfig(grid=(n_threads // 256, 1), block=(256, 1)),
                args, {})
    if family == "heat":
        w = h = max(size, 64)
        args, t0 = module.heat_args(w, h, variant=variant)
        textures = {"t_tex": t0.reshape(h, w)} if variant == "texture" else {}
        return (LaunchConfig(grid=(-(-w // 16), -(-h // 16)), block=(16, 16)),
                args, textures)
    if family == "sgemm":
        n = max(size - size % module.TILE, 2 * module.TILE)
        return module.sgemm_launch(variant, n, n), module.sgemm_args(n, n, n), {}
    if family == "histogram":
        n_threads = max(size - size % 256, 256)
        return (module.histogram_launch(n_threads),
                module.histogram_args(n_threads, skew=0.5), {})
    n = max(size - size % module.BLOCK, 4 * module.BLOCK)
    return module.reduction_launch(n), module.reduction_args(n), {}


def resolve_kernel(spec: str, size: int, compute_iterations: int = 8):
    """``(compiled kernel, launch config, args, textures)`` for a
    built-in spec: :func:`program` and :func:`launch_inputs` together."""
    return (program(spec), *launch_inputs(spec, size, compute_iterations))
