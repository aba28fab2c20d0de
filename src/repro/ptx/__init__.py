"""PTX substrate: the paper's *second* kernel representation.

Paper §2.1: "a CUDA kernel can be characterized by two separate ISAs:
PTX and SASS", where PTX is a virtual-architecture assembly with an
unlimited register count.  GPUscout's footnote to §3 notes that
"analogously to SASS, a PTX analysis is performed in Section 4.4"
(atomics are easiest to classify before register allocation).

cudalite's virtual-register stream *is* the PTX-stage program, so this
package renders it in NVIDIA's PTX syntax (:mod:`repro.ptx.writer`),
parses that dialect back (:mod:`repro.ptx.parser`), and implements the
PTX-level atomics scan (:mod:`repro.ptx.analysis`) whose results
GPUscout cross-checks against the SASS-level §4.4 analysis.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "kernel_to_ptx": ("repro.ptx.writer", "kernel_to_ptx"),
    "PTXKernel": ("repro.ptx.parser", "PTXKernel"),
    "PTXInstruction": ("repro.ptx.parser", "PTXInstruction"),
    "parse_ptx": ("repro.ptx.parser", "parse_ptx"),
    "PTXAtomicsSummary": ("repro.ptx.analysis", "PTXAtomicsSummary"),
    "scan_atomics": ("repro.ptx.analysis", "scan_atomics"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
