"""Analysis base class, shared static context, and the registry.

The paper stresses GPUscout's modularity: "all analyses are standalone,
hence new bottleneck analyses can easily be added" (§3).  New analyses
subclass :class:`Analysis` and register with :func:`register_analysis`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property
from importlib import import_module
from typing import Type

from repro.sass.cfg import ControlFlowGraph, build_cfg
from repro.sass.isa import Program, Register
from repro.sass.liveness import (
    DefUse,
    LivenessInfo,
    compute_liveness,
    def_use_chains,
)
from repro.core.findings import Finding, SourceLoc

__all__ = [
    "AnalysisContext",
    "Analysis",
    "register_analysis",
    "default_analyses",
    "AddressGroup",
]


@dataclass(frozen=True)
class AddressGroup:
    """Global-memory accesses sharing one base-register *value*.

    Loads ``[R2]`` and ``[R2+0x4]`` belong to the same group only if
    R2 holds the same value at both — i.e. the same reaching definition
    of R2.  ``key`` is (register index, definition index); when several
    definitions reach (a base set in both arms of a branch) the second
    element is the tuple of definition indices instead."""

    key: tuple
    base: Register
    #: (instruction index, byte offset within the group) pairs
    accesses: tuple[tuple[int, int], ...]

    def offsets(self) -> list[int]:
        return sorted({off for _, off in self.accesses})


class AnalysisContext:
    """Static facts shared by all analyses for one program.

    Everything is derived lazily from the SASS alone — this is what the
    ``--dry-run`` mode can compute without touching the GPU.
    """

    def __init__(self, program: Program, compiled=None, config=None):
        self.program = program
        #: optional CompiledKernel (present when analyzing cudalite output)
        self.compiled = compiled
        #: optional LaunchConfig (lets predictors fold launch dims)
        self.config = config

    @cached_property
    def cfg(self) -> ControlFlowGraph:
        return build_cfg(self.program)

    @cached_property
    def affine(self):
        """The symbolic affine dataflow result (lazy; see
        :mod:`repro.sass.affine`)."""
        from repro.sass.affine import AffineAnalysis

        return AffineAnalysis(self.program, self.cfg)

    @cached_property
    def reaching(self):
        """CFG-aware reaching definitions."""
        from repro.sass.affine import ReachingDefinitions

        return ReachingDefinitions(self.program, self.cfg)

    @cached_property
    def liveness(self) -> LivenessInfo:
        return compute_liveness(self.program, self.cfg)

    @cached_property
    def def_use(self) -> dict[Register, DefUse]:
        return def_use_chains(self.program)

    def in_loop(self, index: int) -> bool:
        return self.cfg.in_loop(index)

    def loc(self, index: int) -> SourceLoc:
        ins = self.program[index]
        return SourceLoc(ins.file, ins.line)

    def pressure_at(self, index: int) -> int:
        return self.liveness.pressure_at(index)

    # ------------------------------------------------------------------
    def reaching_def(self, reg: Register, index: int) -> int:
        """Index of the unique definition of ``reg`` reaching
        instruction ``index`` (a definition *at* ``index`` counts).

        Computed over the CFG, not stream order: a definition inside a
        non-dominating branch does not clobber the value seen on the
        other path.  Returns ``-1`` when the register is live-in or
        never written, and ``-2`` when several definitions can reach
        (e.g. one per branch arm)."""
        defs = self.reaching.defs_at(reg, index)
        if len(defs) == 1:
            return defs[0]
        return -2

    @cached_property
    def global_load_groups(self) -> list[AddressGroup]:
        """Global loads grouped by base-register value (see
        :class:`AddressGroup`) — the core pattern input of the
        vectorize (§4.1) and texture (§4.6) analyses."""
        return self._address_groups(loads_only=True)

    @cached_property
    def global_access_groups(self) -> list[AddressGroup]:
        """Global loads *and* stores grouped by base value."""
        return self._address_groups(loads_only=False)

    def _address_groups(self, loads_only: bool) -> list[AddressGroup]:
        groups: dict[tuple, list[tuple[int, int]]] = {}
        bases: dict[tuple, Register] = {}
        for i, ins in enumerate(self.program):
            op = ins.opcode
            is_load = op.is_global_load
            is_store = op.op_class.value == "global_store"
            if not (is_load or (is_store and not loads_only)):
                continue
            mem = ins.mem_operand()
            if mem is None or mem.base is None:
                continue
            defs = self.reaching.defs_at(mem.base, i)
            # an ambiguous base (different defs on different paths) is
            # keyed by the whole def set — never merged with either arm
            key = (mem.base.index, defs[0] if len(defs) == 1 else defs)
            groups.setdefault(key, []).append((i, mem.offset))
            bases[key] = mem.base
        return [
            AddressGroup(key=key, base=bases[key], accesses=tuple(accs))
            for key, accs in groups.items()
        ]

    def is_readonly_register(self, reg: Register) -> bool:
        """GPUscout's read-only criterion for §4.5/§4.6.

        A register holds read-only data when the loaded value is never
        *updated*: every definition is either a global load, or an
        unrelated reuse of the architectural register (the old value is
        already dead there — register allocators recycle names).  An
        in-place update such as mixbench's ``FFMA R9, R9, R9, c`` reads
        the live loaded value and disqualifies it.  This reproduces the
        paper's case-study behaviour: SGEMM's A/B elements and Jacobi's
        stencil neighbours qualify; mixbench's ``tmps`` do not."""
        du = self.def_use.get(reg)
        if du is None or not du.defs:
            return False
        if not any(self.program[d].opcode.is_global_load for d in du.defs):
            return False
        live_in = self.liveness.live_in
        for d in du.defs:
            if self.program[d].opcode.is_global_load:
                continue
            if reg in live_in[d]:
                return False  # overwrites a live (loaded) value
        return True

    def arithmetic_uses(self, reg: Register) -> list[int]:
        """Indices of arithmetic instructions reading ``reg``."""
        du = self.def_use.get(reg)
        if du is None:
            return []
        return [
            i for i in du.uses if self.program[i].opcode.is_arithmetic
        ]

    def value_uses(self, reg: Register, def_idx: int) -> list[int]:
        """Uses of the *value* defined at ``def_idx``: reads of ``reg``
        after ``def_idx`` up to (and including reads at) its next
        redefinition.  Register allocators recycle names, so counting
        all architectural uses would merge unrelated values."""
        du = self.def_use.get(reg)
        if du is None:
            return []
        next_defs = [d for d in du.defs if d > def_idx]
        horizon = min(next_defs) if next_defs else len(self.program)
        return [i for i in du.uses if def_idx < i <= horizon]

    def value_arithmetic_uses(self, reg: Register, def_idx: int) -> list[int]:
        """Arithmetic subset of :meth:`value_uses`."""
        return [
            i for i in self.value_uses(reg, def_idx)
            if self.program[i].opcode.is_arithmetic
        ]


class Analysis(abc.ABC):
    """A standalone bottleneck detector (one per paper sub-section)."""

    #: stable identifier, also the METRIC_SETS key
    name: str = ""
    #: one-line description shown in reports
    description: str = ""

    @abc.abstractmethod
    def run(self, ctx: AnalysisContext) -> list[Finding]:
        """Inspect the program and return findings (possibly empty)."""


_REGISTRY: dict[str, Type[Analysis]] = {}
_EXTENSIONS: dict[str, Type[Analysis]] = {}


def register_analysis(cls: Type[Analysis]) -> Type[Analysis]:
    """Class decorator adding an analysis to the default set."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} needs a non-empty name")
    if cls.name in _REGISTRY or cls.name in _EXTENSIONS:
        raise ValueError(f"duplicate analysis name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def register_extension(cls: Type[Analysis]) -> Type[Analysis]:
    """Register an *extension* analysis (paper §7: "more SASS analyses
    can be added very easily").  Extensions are not part of the default
    set — the defaults reproduce the paper's §4 detector suite exactly —
    but :func:`extension_analyses` opts them in."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} needs a non-empty name")
    if cls.name in _REGISTRY or cls.name in _EXTENSIONS:
        raise ValueError(f"duplicate analysis name {cls.name!r}")
    _EXTENSIONS[cls.name] = cls
    return cls


#: the detector modules, in the paper's §4 order and then the §7-style
#: extensions; importing one registers its class, and nothing imports
#: them until an analysis set is asked for
_DEFAULT_MODULES = ("vectorize", "spilling", "shared_mem", "atomics",
                    "restrict", "texture", "conversions")
_EXTENSION_MODULES = ("coalescing", "divergence")


def _instances(registry: dict, modules: tuple) -> list[Analysis]:
    """Fresh instances of ``registry`` after loading the built-in
    ``modules``: built-ins in table order whatever order they were
    imported in, then analyses registered from elsewhere."""
    order = {f"repro.core.{name}": rank for rank, name in enumerate(modules)}
    for module in order:
        import_module(module)
    classes = sorted(registry.values(),
                     key=lambda cls: order.get(cls.__module__, len(order)))
    return [cls() for cls in classes]


def default_analyses() -> list[Analysis]:
    """Fresh instances of every registered analysis: the paper's §4
    detectors in the paper's order (loaded on first call), then any
    registered by the caller."""
    return _instances(_REGISTRY, _DEFAULT_MODULES)


def extension_analyses() -> list[Analysis]:
    """Fresh instances of the registered extension analyses."""
    return _instances(_EXTENSIONS, _EXTENSION_MODULES)


def all_analyses() -> list[Analysis]:
    """Defaults plus extensions (what ``gpuscout --extended`` runs)."""
    return default_analyses() + extension_analyses()
