"""Affine address abstract interpretation over SASS.

The static pillar (paper §3.2/§4) needs to know what address each
memory instruction computes *per lane*.  This module assigns every
register at every program point a symbolic affine value

    c0 + Σ ci · dim_i

over the dimensions thread id (``tid.x/y/z``, ``laneid``), block id
(``ctaid.x/y/z``), launch shape (``ntid.*``/``nctaid.*``), kernel
parameters (``param:<const-bank offset>``), loop induction variables
(``iv:<header block>``) and opaque warp-uniform products
(``u:<def index>``) — plus ⊤ (unknown).  The lattice is flat per
register: two different affine values meet to ⊤; an absent state entry
*is* ⊤, so states only store what is known.

The interpretation is a forward fixpoint over the existing
:class:`~repro.sass.cfg.ControlFlowGraph` with

* a proper meet at CFG joins (equal-or-⊤, per register),
* induction-variable detection at natural-loop headers: a back-edge
  value that differs from the header in-value by a constant ``c``
  becomes ``in + c·iv:<header>``,
* guard-tagged entries for predicated writes (``@P0 IMAD R1, ...``
  followed by ``@P0 STS [R1]`` resolves; any other reader sees ⊤),
* a symbolic predicate domain (``ISETP``/``PLOP3`` chains) so lane
  masks of predicated accesses and early-exit guards can be evaluated
  or refuted,
* visit-count widening, which guarantees termination even on
  irreducible regions (values that keep changing degrade to ⊤).

On top of the engine sit the **static sector predictor** and the
**static shared-memory bank-conflict predictor**
(:class:`MemoryPredictor`): they enumerate the timed blocks, warps and
lanes of a concrete launch, evaluate each access's affine address and
guard per lane, sweep loop-variant terms over their alignment classes,
and feed the very same :func:`~repro.gpu.coalesce.coalesce_sectors` /
:func:`~repro.gpu.coalesce.shared_transactions` model the simulator
uses — so a proven prediction matches the measured counters exactly.
Anything the engine cannot prove is reported as *unproven*, never
guessed.

:class:`ReachingDefinitions` replaces the stream-order reaching-def
approximation of :mod:`repro.core.base` with the standard gen/kill
dataflow over the CFG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.sass.cfg import ControlFlowGraph
from repro.sass.isa import Instruction, OpClass, Operand, Program, Register

__all__ = [
    "Affine",
    "TOP",
    "AffineEnv",
    "AffineAnalysis",
    "ReachingDefinitions",
    "CmpExpr",
    "NotExpr",
    "OrExpr",
    "AndExpr",
    "Prediction",
    "MemoryPredictor",
    "StaticAccessProof",
    "static_access_report",
]

#: lane-varying dimensions (differ between the lanes of one warp)
LANE_DIMS = ("tid.x", "tid.y", "tid.z", "laneid")


class _Top:
    """⊤ — value not representable as an affine form."""

    _instance: Optional["_Top"] = None

    def __new__(cls) -> "_Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "TOP"


TOP = _Top()


@dataclass(frozen=True)
class Affine:
    """A symbolic affine value ``const + Σ coeff·dim``.

    ``terms`` is kept sorted and free of zero coefficients so equal
    values compare (and hash) equal.
    """

    const: int = 0
    terms: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def make(const: int, coeffs: dict[str, int]) -> "Affine":
        terms = tuple(sorted((d, c) for d, c in coeffs.items() if c != 0))
        return Affine(int(const), terms)

    @staticmethod
    def dim(name: str, coeff: int = 1) -> "Affine":
        return Affine.make(0, {name: coeff})

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def coeff(self, dim: str) -> int:
        for d, c in self.terms:
            if d == dim:
                return c
        return 0

    def coeffs(self) -> dict[str, int]:
        return dict(self.terms)

    def add(self, other: "Affine") -> "Affine":
        out = dict(self.terms)
        for d, c in other.terms:
            out[d] = out.get(d, 0) + c
        return Affine.make(self.const + other.const, out)

    def sub(self, other: "Affine") -> "Affine":
        return self.add(other.neg())

    def neg(self) -> "Affine":
        return Affine(-self.const, tuple((d, -c) for d, c in self.terms))

    def scale(self, k: int) -> "Affine":
        if k == 0:
            return Affine(0)
        return Affine(self.const * k, tuple((d, c * k) for d, c in self.terms))

    def shift_const(self, delta: int) -> "Affine":
        return Affine(self.const + delta, self.terms)

    def drop_const(self) -> "Affine":
        return Affine(0, self.terms)

    def has_prefix(self, prefix: str) -> bool:
        return any(d.startswith(prefix) for d in (d for d, _ in self.terms))

    def dims(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self.terms)

    def __str__(self) -> str:
        parts = [str(self.const)] if self.const or not self.terms else []
        for d, c in self.terms:
            parts.append(f"{c}*{d}" if c != 1 else d)
        return " + ".join(parts)


Value = Union[Affine, _Top]

# -- predicate domain -------------------------------------------------------


@dataclass(frozen=True)
class CmpExpr:
    """``lhs <op> rhs`` as emitted by ``ISETP.<op>[.U32].AND Pd, PT, ...``."""

    op: str  # LT/LE/GT/GE/EQ/NE
    lhs: Affine
    rhs: Affine
    unsigned: bool = False


@dataclass(frozen=True)
class NotExpr:
    expr: "PredExpr"


@dataclass(frozen=True)
class OrExpr:
    a: "PredExpr"
    b: "PredExpr"


@dataclass(frozen=True)
class AndExpr:
    a: "PredExpr"
    b: "PredExpr"


#: bool covers the constant predicates PT / !PT
PredExpr = Union[CmpExpr, NotExpr, OrExpr, AndExpr, bool]


def pred_not(e: Optional[PredExpr]) -> Optional[PredExpr]:
    if e is None:
        return None
    if isinstance(e, bool):
        return not e
    if isinstance(e, NotExpr):
        return e.expr
    return NotExpr(e)


# -- launch environment -----------------------------------------------------


@dataclass(frozen=True)
class AffineEnv:
    """Concrete launch facts that fold symbolic dims to constants.

    ``params`` maps constant-bank byte offsets to integer values for
    pointer and integer parameters only — float parameter slots are
    deliberately absent (their raw bits are not meaningful integers).
    """

    params: dict[int, int] = field(default_factory=dict)
    ntid: tuple[int, int, int] = (1, 1, 1)
    nctaid: tuple[int, int, int] = (1, 1, 1)

    @staticmethod
    def from_launch(compiled, config, param_values: dict[int, int]) -> "AffineEnv":
        """Build an environment from a compiled kernel and its launch.

        Only integer-meaningful parameter slots are included.
        """
        params: dict[int, int] = {}
        for slot in getattr(compiled, "params", ()):
            if slot.offset not in param_values:
                continue
            if slot.is_pointer or not slot.type.is_float:
                params[slot.offset] = int(param_values[slot.offset])
        bx, by = config.block
        gx, gy = config.grid
        return AffineEnv(params=params, ntid=(bx, by, 1), nctaid=(gx, gy, 1))


# -- reaching definitions ---------------------------------------------------

_LIVE_IN = frozenset({-1})


class ReachingDefinitions:
    """CFG-aware reaching definitions (gen/kill, union over paths).

    ``defs_at(reg, i)`` returns the sorted tuple of definition indices
    of ``reg`` that can reach instruction ``i`` (a definition *at* ``i``
    itself counts, matching the historical stream-order helper).  The
    sentinel ``-1`` marks the value being live-in (never written on
    some path).
    """

    def __init__(self, program: Program, cfg: ControlFlowGraph):
        self.program = program
        self.cfg = cfg
        n = len(cfg.blocks)
        # gen[b]: register key -> last definition index in the block
        gen: list[dict[tuple[int, bool], int]] = [dict() for _ in range(n)]
        defined: set[tuple[int, bool]] = set()
        #: instruction index -> register keys it defines; the in-block
        #: part of a query walks these back from the query index
        self._def_keys: list[tuple[tuple[int, bool], ...]] = \
            [()] * len(program)
        for blk in cfg.blocks:
            g = gen[blk.bid]
            for i in range(blk.start, blk.end):
                keys = tuple((reg.index, reg.predicate)
                             for reg in program[i].dest_registers())
                self._def_keys[i] = keys
                for key in keys:
                    g[key] = i
                defined.update(keys)
        self._gen = gen
        ins: list[dict[tuple[int, bool], frozenset[int]]] = [
            dict() for _ in range(n)
        ]
        changed = True
        while changed:
            changed = False
            for blk in cfg.blocks:
                b = blk.bid
                new_in: dict[tuple[int, bool], frozenset[int]] = {}
                for key in defined:
                    sets = []
                    if b == 0:
                        sets.append(_LIVE_IN)
                    for p in blk.predecessors:
                        g = gen[p]
                        if key in g:
                            sets.append(frozenset({g[key]}))
                        else:
                            sets.append(ins[p].get(key, _LIVE_IN))
                    if not sets:
                        sets.append(_LIVE_IN)
                    merged = frozenset().union(*sets)
                    if merged != _LIVE_IN:
                        new_in[key] = merged
                if new_in != ins[b]:
                    ins[b] = new_in
                    changed = True
        self._in = ins

    def _reaching(self, reg: Register, index: int,
                  stop: int) -> tuple[int, ...]:
        """Definitions of ``reg`` live after instruction ``stop - 1`` of
        the block holding ``index``: the closest in-block definition
        below ``stop``, else what reaches the block's entry."""
        blk = self.cfg.block_of_instruction(index)
        key = (reg.index, reg.predicate)
        def_keys = self._def_keys
        for i in range(stop - 1, blk.start - 1, -1):
            if key in def_keys[i]:
                return (i,)
        return tuple(sorted(self._in[blk.bid].get(key, _LIVE_IN)))

    def defs_at(self, reg: Register, index: int) -> tuple[int, ...]:
        return self._reaching(reg, index, index + 1)

    def defs_before(self, reg: Register, index: int) -> tuple[int, ...]:
        """Definitions of ``reg`` reaching the *input* of instruction
        ``index``: a definition at ``index`` itself does not count (the
        value read there is the one produced earlier in the block, on
        another path, or — for loop-carried dependences — on a previous
        iteration, where the defining index compares ``>= index``)."""
        return self._reaching(reg, index, index)


# -- abstract interpretation ------------------------------------------------

#: register state entry: (value, guard tag).  The tag is None for an
#: unconditional write, or ``(pred index, negated)`` for a predicated
#: one — only a reader under the *same* guard may use the value.
Tag = Optional[tuple[int, bool]]
RegState = dict[int, tuple[Affine, Tag]]
PredState = dict[int, PredExpr]

_CMP_OPS = ("LT", "LE", "GT", "GE", "EQ", "NE")


def _ins_tag(ins: Instruction) -> Tag:
    if ins.pred is None or ins.pred.is_zero:
        return None
    return (ins.pred.index, ins.pred_negated)


class AffineAnalysis:
    """The forward affine dataflow over one program's CFG.

    With an :class:`AffineEnv` the analysis folds kernel parameters and
    launch dims into constants (what the predictors need); without one
    it stays fully symbolic (what the static detectors use).
    """

    #: block visits before widening kicks in (degrade-to-⊤ guarantee)
    WIDEN_LIMIT = 24

    def __init__(self, program: Program, cfg: ControlFlowGraph,
                 env: Optional[AffineEnv] = None):
        self.program = program
        self.cfg = cfg
        self.env = env
        nblocks = len(cfg.blocks)
        #: back-edge predecessors per natural-loop header
        self._back_preds: dict[int, set[int]] = {}
        for blk in cfg.blocks:
            backs = {p for p in blk.predecessors if cfg.dominates(blk.bid, p)}
            if backs:
                self._back_preds[blk.bid] = backs
        self._in_regs: list[Optional[RegState]] = [None] * nblocks
        self._in_preds: list[Optional[PredState]] = [None] * nblocks
        self._run()
        #: block id -> state before each of its instructions; filled by
        #: one sweep of the block on its first point query, and only
        #: ever after the fixpoint above has settled the in-states
        self._point_states: dict[int, list[tuple[RegState, PredState]]] = {}

    # -- fixpoint ------------------------------------------------------
    def _run(self) -> None:
        cfg = self.cfg
        nblocks = len(cfg.blocks)
        rpo = self._rpo()
        out_regs: list[Optional[RegState]] = [None] * nblocks
        out_preds: list[Optional[PredState]] = [None] * nblocks
        visits = [0] * nblocks
        max_rounds = self.WIDEN_LIMIT + 8 * nblocks + 64
        for _ in range(max_rounds):
            changed = False
            for b in rpo:
                blk = cfg.blocks[b]
                backs = self._back_preds.get(b, set())
                entry_states = []
                if b == 0:
                    entry_states.append(({}, {}))
                for p in blk.predecessors:
                    if p in backs:
                        continue
                    if out_regs[p] is not None:
                        entry_states.append((out_regs[p], out_preds[p]))
                if not entry_states:
                    continue  # not reached (yet)
                back_states = [
                    (out_regs[p], out_preds[p])
                    for p in sorted(backs)
                    if out_regs[p] is not None
                ]
                if backs:
                    new_r, new_p = self._header_meet(
                        b, entry_states, back_states
                    )
                else:
                    new_r, new_p = _meet_states(entry_states)
                visits[b] += 1
                if visits[b] > self.WIDEN_LIMIT and self._in_regs[b] is not None:
                    # widening: a register that keeps changing is ⊤
                    prev_r = self._in_regs[b]
                    new_r = {
                        k: v for k, v in new_r.items() if prev_r.get(k) == v
                    }
                    prev_p = self._in_preds[b]
                    new_p = {
                        k: v for k, v in new_p.items() if prev_p.get(k) == v
                    }
                if (new_r != self._in_regs[b] or new_p != self._in_preds[b]
                        or out_regs[b] is None):
                    self._in_regs[b] = new_r
                    self._in_preds[b] = new_p
                    regs = dict(new_r)
                    preds = dict(new_p)
                    for i in range(blk.start, blk.end):
                        self._step(self.program[i], i, regs, preds)
                    if regs != out_regs[b] or preds != out_preds[b]:
                        out_regs[b] = regs
                        out_preds[b] = preds
                        changed = True
            if not changed:
                return
        raise AssertionError("affine fixpoint did not converge")

    def _rpo(self) -> list[int]:
        seen: set[int] = set()
        order: list[int] = []

        def visit(b: int) -> None:
            stack = [(b, iter(self.cfg.blocks[b].successors))]
            seen.add(b)
            while stack:
                bid, succs = stack[-1]
                for s in succs:
                    if s not in seen:
                        seen.add(s)
                        stack.append((s, iter(self.cfg.blocks[s].successors)))
                        break
                else:
                    order.append(bid)
                    stack.pop()

        visit(0)
        order.reverse()
        # unreachable blocks last, in index order (they stay unreached)
        for blk in self.cfg.blocks:
            if blk.bid not in seen:
                order.append(blk.bid)
        return order

    def _header_meet(
        self,
        header: int,
        entry_states: list[tuple[RegState, PredState]],
        back_states: list[tuple[RegState, PredState]],
    ) -> tuple[RegState, PredState]:
        base_r, base_p = _meet_states(entry_states)
        if not back_states:
            return base_r, base_p
        ivd = f"iv:{header}"
        prev = self._in_regs[header] or {}
        out_r: RegState = {}
        for key, ent in base_r.items():
            ev, etag = ent
            bents = [br.get(key) for br, _ in back_states]
            if any(be is None for be in bents):
                continue  # ⊤ on a back edge
            if etag is not None or any(tag is not None for _, tag in bents):
                # guarded entries survive only when identical everywhere
                if all(be == ent for be in bents):
                    out_r[key] = ent
                continue
            bvals = [bv for bv, _ in bents]
            prev_ent = prev.get(key)
            cur = prev_ent[0] if prev_ent and prev_ent[1] is None else None
            if all(bv == ev for bv in bvals) and (cur is None or cur == ev):
                out_r[key] = (ev, None)  # loop-invariant
                continue
            if cur is not None:
                if all(bv == cur for bv in bvals):
                    out_r[key] = (cur, None)
                    continue
                diffs = [bv.sub(cur) for bv in bvals]
                if (all(d.is_constant for d in diffs)
                        and len({d.const for d in diffs}) == 1):
                    step = diffs[0].const
                    have = cur.coeff(ivd)
                    if step != 0 and have == step:
                        out_r[key] = (cur, None)  # converged r += c
                        continue
                    if step != 0 and have == 0 and cur == ev:
                        out_r[key] = (ev.add(Affine.dim(ivd, step)), None)
                        continue
            # non-affine update (r *= 2, r >>= 1, ...) or an entry value
            # still in flux: degrade to ⊤
        out_p = {
            k: v
            for k, v in base_p.items()
            if all(bp.get(k) == v for _, bp in back_states)
        }
        return out_r, out_p

    # -- transfer function ---------------------------------------------
    def _operand(self, op: Operand, regs: RegState, assume: Tag) -> Value:
        kind = op.kind
        if kind == "imm":
            return Affine(int(op.imm or 0))
        if kind == "reg":
            r = op.reg
            if r is None or r.predicate:
                return TOP
            if r.is_zero:
                v: Value = Affine(0)
            else:
                ent = regs.get(r.index)
                if ent is None:
                    return TOP
                v, tag = ent
                if tag is not None and tag != assume:
                    return TOP
            if op.negated:
                return v.neg()
            return v
        if kind == "const":
            cref = op.const
            if cref is None or cref.bank != 0:
                return TOP
            if self.env is not None:
                if cref.offset not in self.env.params:
                    return TOP  # e.g. a float parameter slot
                v = Affine(self.env.params[cref.offset])
            else:
                v = Affine.dim(f"param:{cref.offset:#x}")
            return v.neg() if op.negated else v
        if kind == "special":
            name = op.special or ""
            if name == "SR_LANEID":
                return Affine.dim("laneid")
            if name.startswith("SR_TID."):
                return Affine.dim("tid." + name[-1].lower())
            if name.startswith("SR_CTAID."):
                return Affine.dim("ctaid." + name[-1].lower())
            if name.startswith("SR_NTID."):
                axis = "xyz".index(name[-1].lower())
                if self.env is not None:
                    return Affine(self.env.ntid[axis])
                return Affine.dim("ntid." + name[-1].lower())
            if name.startswith("SR_NCTAID."):
                axis = "xyz".index(name[-1].lower())
                if self.env is not None:
                    return Affine(self.env.nctaid[axis])
                return Affine.dim("nctaid." + name[-1].lower())
            return TOP
        return TOP

    @staticmethod
    def _mul(a: Value, b: Value, index: int) -> Value:
        """Abstract multiply.  Affine × constant scales; a product of
        two *warp-uniform, loop-invariant* symbolics becomes an opaque
        ``u:<def>`` dim (sound: such a chain cannot vary per lane or
        per iteration); anything else is ⊤."""
        if a is TOP or b is TOP:
            return TOP
        if a.is_constant:
            return b.scale(a.const)
        if b.is_constant:
            return a.scale(b.const)
        for v in (a, b):
            for d, _ in v.terms:
                if d in LANE_DIMS or d.startswith("iv:"):
                    return TOP
        return Affine.dim(f"u:{index}")

    def _step(self, ins: Instruction, index: int,
              regs: RegState, preds: PredState) -> None:
        op = ins.opcode
        base = op.base
        tag = _ins_tag(ins)

        def val(o: Operand) -> Value:
            return self._operand(o, regs, tag)

        dests = ins.dest_registers()
        pred_dests = [r for r in dests if r.predicate]
        gpr_dests = [r for r in dests if not r.predicate]

        # predicate redefinition invalidates guard-tagged values
        for pr in pred_dests:
            preds.pop(pr.index, None)
            for k in [k for k, (_, t) in regs.items()
                      if t is not None and t[0] == pr.index]:
                del regs[k]

        if base == "ISETP" and tag is None and len(ins.operands) >= 4:
            self._transfer_isetp(ins, preds, regs)
        elif base == "PLOP3" and tag is None and len(ins.operands) >= 4:
            self._transfer_plop3(ins, preds)

        if not gpr_dests:
            return

        result: Value = TOP
        nops = len(ins.operands)
        if base in ("MOV", "MOV32I", "S2R") and nops >= 2:
            result = val(ins.operands[1])
        elif base == "IMAD" and nops >= 4:
            a, b, c = (val(o) for o in ins.operands[1:4])
            result = self._mul(a, b, index)
            if result is not TOP and c is not TOP:
                result = result.add(c)
            else:
                result = TOP
        elif base == "IADD3" and nops >= 3:
            acc: Value = Affine(0)
            for o in ins.operands[1:4]:
                v = val(o)
                if v is TOP or acc is TOP:
                    acc = TOP
                    break
                acc = acc.add(v)
            result = acc
        elif base == "SHF" and nops >= 3:
            a, b = val(ins.operands[1]), val(ins.operands[2])
            if a is not TOP and b is not TOP and b.is_constant:
                sh = b.const & 31
                if op.has_modifier("L"):
                    result = a.scale(1 << sh)
                elif a.is_constant:
                    # right shifts fold on constants only
                    if op.has_modifier("S32"):
                        result = Affine(a.const >> sh)
                    else:
                        result = Affine((a.const & 0xFFFFFFFF) >> sh)
        # every other producer (loads, LOP3, SEL, float ops, ...) is ⊤

        if result is TOP or len(gpr_dests) != 1:
            for r in gpr_dests:
                regs.pop(r.index, None)
        else:
            regs[gpr_dests[0].index] = (result, tag)

    def _transfer_isetp(self, ins: Instruction, preds: PredState,
                        regs: RegState) -> None:
        op = ins.opcode
        cmp = next((m for m in op.modifiers if m in _CMP_OPS), None)
        if cmp is None or "AND" not in op.modifiers:
            return
        ops = ins.operands
        # writer layout: ISETP.<cmp>.AND Pd, PT, a, b, PT
        chain = ops[4] if len(ops) > 4 else None
        if chain is None or chain.kind != "reg" or chain.reg is None \
                or not chain.reg.predicate or not chain.reg.is_zero \
                or chain.negated:
            return
        lhs = self._operand(ops[2], regs, None)
        rhs = self._operand(ops[3], regs, None)
        if lhs is TOP or rhs is TOP:
            return
        pd = ops[0].reg
        if pd is None or not pd.predicate or pd.is_zero:
            return
        # only the single-destination form is modeled
        second = ops[1].reg if len(ops) > 1 and ops[1].kind == "reg" else None
        if second is not None and second.predicate and not second.is_zero:
            return
        preds[pd.index] = CmpExpr(
            cmp, lhs, rhs, unsigned="U32" in op.modifiers
        )

    def _transfer_plop3(self, ins: Instruction, preds: PredState) -> None:
        op = ins.opcode
        combine = ("OR" if "OR" in op.modifiers
                   else "AND" if "AND" in op.modifiers else None)
        if combine is None:
            return
        ops = ins.operands
        pd = ops[0].reg
        if pd is None or not pd.predicate or pd.is_zero or len(ops) < 4:
            return

        def pred_val(o: Operand) -> Optional[PredExpr]:
            r = o.reg
            if r is None or not r.predicate:
                return None
            e: Optional[PredExpr] = True if r.is_zero else preds.get(r.index)
            return pred_not(e) if o.negated else e

        # writer layout: PLOP3.<op> Pd, PT, Pa, Pb, PT
        ea, eb = pred_val(ops[2]), pred_val(ops[3])
        if ea is None or eb is None:
            return
        preds[pd.index] = OrExpr(ea, eb) if combine == "OR" else AndExpr(ea, eb)

    # -- per-point queries ---------------------------------------------
    def _state(self, index: int) -> tuple[RegState, PredState]:
        """The memoised state before ``program[index]`` (read-only: the
        dicts are shared by every later query of the block)."""
        blk = self.cfg.block_of_instruction(index)
        states = self._point_states.get(blk.bid)
        if states is None:
            regs = dict(self._in_regs[blk.bid] or {})
            preds = dict(self._in_preds[blk.bid] or {})
            states = []
            for i in range(blk.start, blk.end):
                states.append((dict(regs), dict(preds)))
                self._step(self.program[i], i, regs, preds)
            self._point_states[blk.bid] = states
        return states[index - blk.start]

    def state_before(self, index: int) -> tuple[RegState, PredState]:
        """Abstract state just before executing ``program[index]`` (a
        copy the caller may mutate)."""
        regs, preds = self._state(index)
        return dict(regs), dict(preds)

    def value_before(self, reg: Union[Register, int], index: int,
                     tag: Tag = None) -> Value:
        """Value of ``reg`` before ``program[index]`` as seen by a
        reader guarded by ``tag`` (None = unconditional reader)."""
        ridx = reg.index if isinstance(reg, Register) else reg
        regs, _ = self._state(index)
        ent = regs.get(ridx)
        if ent is None:
            return TOP
        v, etag = ent
        if etag is not None and etag != tag:
            return TOP
        return v

    def address_value(self, index: int) -> Value:
        """Per-lane byte address of the memory access at ``index``
        (base register value plus the literal offset), under the
        access's own guard."""
        ins = self.program[index]
        mem = ins.mem_operand()
        if mem is None:
            return TOP
        if mem.base is None:
            return Affine(mem.offset)
        v = self.value_before(mem.base, index, _ins_tag(ins))
        if v is TOP:
            return TOP
        return v.shift_const(mem.offset)

    def pred_before(self, pidx: int, index: int) -> Optional[PredExpr]:
        """Symbolic expression of predicate ``P<pidx>`` before
        ``program[index]`` (None when unknown)."""
        _, preds = self._state(index)
        return preds.get(pidx)

    def guard_expr(self, index: int) -> Optional[PredExpr]:
        """The lane-enable expression of the instruction at ``index``:
        True when unguarded, the (possibly negated) predicate
        expression when guarded, None when unknown."""
        ins = self.program[index]
        if ins.pred is None or ins.pred.is_zero:
            return True
        e = self.pred_before(ins.pred.index, index)
        if e is None:
            return None
        return pred_not(e) if ins.pred_negated else e

    def iv_steps(self, header: int) -> dict[int, int]:
        """Detected induction variables at a loop header: register
        index -> per-iteration step."""
        ivd = f"iv:{header}"
        out: dict[int, int] = {}
        for key, (v, tag) in (self._in_regs[header] or {}).items():
            if tag is None:
                c = v.coeff(ivd)
                if c:
                    out[key] = c
        return out


def _meet_states(
    states: Sequence[tuple[RegState, PredState]],
) -> tuple[RegState, PredState]:
    """Per-key meet: keep entries identical in every incoming state
    (an absent key is ⊤, so intersection-of-equals is the meet)."""
    first_r, first_p = states[0]
    if len(states) == 1:
        return dict(first_r), dict(first_p)
    out_r = {
        k: v
        for k, v in first_r.items()
        if all(s[0].get(k) == v for s in states[1:])
    }
    out_p = {
        k: v
        for k, v in first_p.items()
        if all(s[1].get(k) == v for s in states[1:])
    }
    return out_r, out_p


# -- interval reasoning for guard proofs ------------------------------------

_INF = float("inf")


def _dim_range(dim: str, env: Optional[AffineEnv]) -> tuple[float, float]:
    if env is not None:
        if dim == "tid.x":
            return (0, env.ntid[0] - 1)
        if dim == "tid.y":
            return (0, env.ntid[1] - 1)
        if dim == "tid.z":
            return (0, env.ntid[2] - 1)
        if dim == "ctaid.x":
            return (0, env.nctaid[0] - 1)
        if dim == "ctaid.y":
            return (0, env.nctaid[1] - 1)
        if dim == "ctaid.z":
            return (0, env.nctaid[2] - 1)
    if dim == "laneid":
        return (0, 31)
    if dim.startswith("iv:"):
        return (0, _INF)
    return (-_INF, _INF)


def _interval(v: Affine, env: Optional[AffineEnv]) -> tuple[float, float]:
    lo = hi = float(v.const)
    for d, c in v.terms:
        dlo, dhi = _dim_range(d, env)
        a, b = c * dlo, c * dhi
        lo += min(a, b)
        hi += max(a, b)
    return lo, hi


def pred_proof(e: PredExpr, env: Optional[AffineEnv]) -> Optional[bool]:
    """True/False when ``e`` provably always/never holds (using the
    dim ranges above), None when undecided."""
    if isinstance(e, bool):
        return e
    if isinstance(e, NotExpr):
        inner = pred_proof(e.expr, env)
        return None if inner is None else not inner
    if isinstance(e, OrExpr):
        a, b = pred_proof(e.a, env), pred_proof(e.b, env)
        if a is True or b is True:
            return True
        if a is False and b is False:
            return False
        return None
    if isinstance(e, AndExpr):
        a, b = pred_proof(e.a, env), pred_proof(e.b, env)
        if a is False or b is False:
            return False
        if a is True and b is True:
            return True
        return None
    if e.unsigned:
        # unsigned compares match the int model only when both sides
        # are provably non-negative
        for side in (e.lhs, e.rhs):
            lo, _ = _interval(side, env)
            if lo < 0:
                return None
    lo, hi = _interval(e.lhs.sub(e.rhs), env)
    if e.op == "LT":
        return True if hi < 0 else (False if lo >= 0 else None)
    if e.op == "LE":
        return True if hi <= 0 else (False if lo > 0 else None)
    if e.op == "GT":
        return True if lo > 0 else (False if hi <= 0 else None)
    if e.op == "GE":
        return True if lo >= 0 else (False if hi < 0 else None)
    if e.op == "EQ":
        return True if lo == hi == 0 else (False if lo > 0 or hi < 0 else None)
    if e.op == "NE":
        return True if lo > 0 or hi < 0 else (False if lo == hi == 0 else None)
    return None


# -- concrete prediction ----------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    """Static prediction for one memory access of a concrete launch.

    ``per_request`` is sectors-per-request (global) or
    transactions-per-request (shared).  ``exact_requests`` marks that
    ``requests``/``total`` enumerate the access's issues exactly (the
    access runs at most once per warp); for in-loop accesses only the
    per-request ratio is predicted.  ``aggregate`` marks a warp-varying
    access predicted as a grid-wide average.
    """

    space: str  # "global" | "shared"
    proven: bool
    per_request: float = 0.0
    requests: int = 0
    total: int = 0
    exact_requests: bool = False
    aggregate: bool = False
    reason: str = ""

    @property
    def unproven_reason(self) -> str:
        return "" if self.proven else (self.reason or "unknown")


_GLOBAL_CLASSES = (
    OpClass.GLOBAL_LOAD,
    OpClass.GLOBAL_STORE,
    OpClass.ATOMIC_GLOBAL,
)
_SHARED_CLASSES = (
    OpClass.SHARED_LOAD,
    OpClass.SHARED_STORE,
    OpClass.ATOMIC_SHARED,
)


class MemoryPredictor:
    """Evaluate affine accesses over the lanes of a concrete launch.

    Enumerates exactly the blocks the simulator times on SM 0
    (``range(0, num_blocks, spec.num_sms)`` unless ``blocks`` is
    given), every warp of each block and every lane of each warp, and
    reuses the simulator's own coalescing/bank model — a *proven*
    prediction is therefore exact, not approximate.

    All ``len(blocks) × len(warps)`` warps are evaluated together: every
    lane quantity is a ``(rows, 32)`` array with the rows in (block,
    warp) order, and a prediction that cannot be proven reports the
    reason the first row in that order fails with.
    """

    def __init__(self, program: Program, cfg: ControlFlowGraph,
                 affine: AffineAnalysis, config, spec,
                 blocks: Optional[Sequence[int]] = None):
        if affine.env is None:
            raise ValueError("MemoryPredictor needs an AffineAnalysis "
                             "built with an AffineEnv")
        self.program = program
        self.cfg = cfg
        self.affine = affine
        self.config = config
        self.spec = spec
        num_blocks = config.num_blocks
        if blocks is None:
            blocks = range(0, num_blocks, spec.num_sms)
            if len(blocks) == 0:
                blocks = range(0, 1)
        self.blocks = list(blocks)
        bx, by = config.block
        nthreads = bx * by
        nwarps = -(-nthreads // 32)
        linear = np.arange(nwarps * 32, dtype=np.int64).reshape(nwarps, 32)
        valid = linear < nthreads
        linear = np.minimum(linear, nthreads - 1)
        nblocks = len(self.blocks)
        bids = np.repeat(np.asarray(self.blocks, dtype=np.int64), nwarps)
        gx = config.grid[0]
        #: (block, warp) rows one :meth:`predict` evaluates
        self.rows = nblocks * nwarps
        self._shape = (self.rows, 32)
        self._valid = np.tile(valid, (nblocks, 1))
        #: dim -> per-lane values, (rows, 32) or a broadcastable column
        self._lanes = {
            "tid.x": np.tile(linear % bx, (nblocks, 1)),
            "tid.y": np.tile(linear // bx, (nblocks, 1)),
            "tid.z": np.int64(0),
            "laneid": np.arange(32, dtype=np.int64),
            "ctaid.x": (bids % gx)[:, None],
            "ctaid.y": (bids // gx)[:, None],
            "ctaid.z": np.int64(0),
        }
        #: predicated EXITs as (index, block id, guard, lane mask of the
        #: guard or None) and the blocks of unpredicated EXIT/RET
        self._pred_exits: list[tuple] = []
        self._final_exit_blocks: set[int] = set()
        for i, ins in enumerate(program):
            if ins.opcode.base in ("EXIT", "RET"):
                bid = cfg.block_of_instruction(i).bid
                if ins.pred is not None and not ins.pred.is_zero:
                    ge = affine.guard_expr(i)
                    self._pred_exits.append(
                        (i, bid, ge, self._pred_lanes(ge)))
                else:
                    self._final_exit_blocks.add(bid)

    # -- lane evaluation -----------------------------------------------
    def _eval_affine(self, v: Affine) -> Optional[np.ndarray]:
        out = np.full(self._shape, v.const, dtype=np.int64)
        for d, c in v.terms:
            if d not in self._lanes:
                return None
            out += c * self._lanes[d]
        return out

    def _eval_pred(self, e: PredExpr) -> Optional[np.ndarray]:
        """Per-lane truth of ``e`` in every (block, warp) context; None
        when a term cannot be evaluated (then interval proofs are the
        fallback)."""
        if isinstance(e, bool):
            return np.full(self._shape, e)
        if isinstance(e, NotExpr):
            inner = self._eval_pred(e.expr)
            return None if inner is None else ~inner
        if isinstance(e, (OrExpr, AndExpr)):
            a = self._eval_pred(e.a)
            b = self._eval_pred(e.b)
            if a is None or b is None:
                return None
            return (a | b) if isinstance(e, OrExpr) else (a & b)
        lhs = self._eval_affine(e.lhs)
        rhs = self._eval_affine(e.rhs)
        if lhs is None or rhs is None:
            return None
        if e.unsigned:
            lhs = lhs % (1 << 32)
            rhs = rhs % (1 << 32)
        return {
            "LT": lhs < rhs, "LE": lhs <= rhs, "GT": lhs > rhs,
            "GE": lhs >= rhs, "EQ": lhs == rhs, "NE": lhs != rhs,
        }[e.op]

    def _pred_lanes(self, e: Optional[PredExpr]) -> Optional[np.ndarray]:
        """Lane masks of ``e``: exact evaluation first, interval proof
        as fallback; None when neither settles it."""
        if e is None:
            return None
        m = self._eval_pred(e)
        if m is not None:
            return m
        proof = pred_proof(e, self.affine.env)
        if proof is not None:
            return np.full(self._shape, proof)
        return None

    # -- the predictor -------------------------------------------------
    def predict(self, index: int) -> Prediction:
        from repro.gpu.coalesce import (
            coalesce_sector_counts,
            shared_transaction_counts,
        )

        ins = self.program[index]
        oc = ins.opcode.op_class
        if oc in _GLOBAL_CLASSES:
            space = "global"
            period = 32  # sector size: alignment period of the count
            count = coalesce_sector_counts
        elif oc in _SHARED_CLASSES:
            space = "shared"
            period = 32 * 4  # banks * bank bytes
            count = shared_transaction_counts
        else:
            return Prediction("", False, reason="not a global/shared access")

        def unproven(reason: str) -> Prediction:
            return Prediction(space, False, reason=reason)

        addr = self.affine.address_value(index)
        if addr is TOP:
            return unproven("address is not affine (⊤)")
        iv_coeffs = []
        for d, c in addr.terms:
            if d.startswith("iv:"):
                iv_coeffs.append(c)
            elif d not in ("tid.x", "tid.y", "tid.z", "laneid",
                           "ctaid.x", "ctaid.y", "ctaid.z"):
                return unproven(f"symbolic term {d!r} in address")
        guard = self.affine.guard_expr(index)
        if guard is None:
            return unproven("guard predicate not modeled")
        access_bytes = ins.opcode.width_bits // 8
        # alignment classes contributed by loop-variant terms
        if iv_coeffs:
            g = 0
            for c in iv_coeffs:
                g = math.gcd(g, abs(c))
            g = math.gcd(g, period)
            deltas = list(range(0, period, g)) if g else [0]
        else:
            deltas = [0]
        access_block = self.cfg.block_of_instruction(index).bid
        in_loop = self.cfg.in_loop(index)

        # The checks below run in a fixed order (exits in listing
        # order, guard, alignment) on every row at once.  ``failed[r]``
        # indexes the reason of the first check row ``r`` fails; the
        # prediction is unproven with the reason of the first failing
        # row.
        reasons: list[str] = []
        failed = np.full(self.rows, -1)

        def fail(rows, reason: str) -> None:
            failed[(failed < 0) & rows] = len(reasons)
            reasons.append(reason)

        survivors = self._valid.copy()
        # predicated early exits
        for e, eb, ge, em in self._pred_exits:
            pre = (eb == access_block and e < index) or (
                eb != access_block
                and self.cfg.dominates(eb, access_block)
            )
            if pre:
                if em is None:
                    fail(True, "early-exit guard not evaluable")
                else:
                    survivors &= ~em
            elif em is None or em.any():
                # an exit off the dominating path must be provably
                # dead, else reachability is unknown
                if ge is not None and \
                        pred_proof(ge, self.affine.env) is False:
                    continue
                fail(True if em is None else em.any(axis=1),
                     "conditional EXIT outside the dominating path")
        # rows whose whole warp retired before the access issue nothing
        # and are checked no further
        alive = survivors.any(axis=1)
        counts = np.zeros(self.rows, dtype=np.int64)
        if (failed < 0).any():
            gm = True if guard is True else self._pred_lanes(guard)
            if gm is None:
                fail(alive, "guard lanes not evaluable")
            else:
                # a retired row's mask is empty: 0 under every delta
                mask = survivors & gm
                base = self._eval_affine(
                    Affine(addr.const,
                           tuple((d, c) for d, c in addr.terms
                                 if not d.startswith("iv:"))))
                counts = count(base + deltas[0], access_bytes, mask)
                varies = np.zeros(self.rows, dtype=bool)
                for delta in deltas[1:]:
                    varies |= count(base + delta, access_bytes, mask) != counts
                fail(varies, "count depends on loop-iteration alignment")
        bad = np.flatnonzero(failed >= 0)
        if len(bad):
            return unproven(reasons[failed[bad[0]]])
        counts = counts[alive]

        exact = bool((not in_loop) and self._final_exit_blocks and all(
            self.cfg.dominates(access_block, xb)
            for xb in self._final_exit_blocks
        ))
        requests = len(counts)
        if not requests:
            return Prediction(space, True, 0.0, 0, 0, exact_requests=exact)
        total = int(counts.sum())
        if (counts == counts[0]).all():
            return Prediction(
                space, True, float(counts[0]), requests, total,
                exact_requests=exact,
            )
        if exact:
            # warp-varying but issued exactly once per surviving warp:
            # the grid-wide average is still exact
            return Prediction(
                space, True, total / requests, requests, total,
                exact_requests=True, aggregate=True,
            )
        return unproven("per-warp counts vary inside a loop")


# -- static (launch-free) access classification -----------------------------


@dataclass(frozen=True)
class StaticAccessProof:
    """Launch-independent verdict for one access (the report footer)."""

    pc: int
    space: str  # "global" | "shared"
    status: str  # "proven" | "flagged" | "unproven"
    #: sectors (global) or transactions (shared) per request, when known
    per_request: Optional[int] = None
    #: minimal possible value for the access width (the "good" target)
    ideal: Optional[int] = None


def _static_lane_addresses(addr: Affine, config) -> Optional[np.ndarray]:
    """First-warp lane addresses of the non-uniform part of ``addr``.

    Without a launch we still know warp shape: lanes fill ``tid.x``
    first.  Returns None when the lane pattern is not determined (e.g.
    ``tid.y`` terms with unknown block width)."""
    if config is not None:
        bx, by = config.block
    else:
        bx, by = 32, 1
    cx = addr.coeff("tid.x")
    cy = addr.coeff("tid.y")
    cl = addr.coeff("laneid")
    if cy and config is None:
        return None  # 2D lane layout unknown without the launch shape
    if addr.coeff("tid.z"):
        return None
    lane = np.arange(32)
    tidx = lane % bx
    tidy = np.minimum(lane // bx, max(by - 1, 0))
    return cx * tidx + cy * tidy + cl * lane


def pointer_param_offsets(compiled) -> frozenset:
    """Constant-bank byte offsets of a compiled kernel's pointer
    parameters (empty for raw SASS, where slots are indistinguishable)."""
    if compiled is None:
        return frozenset()
    return frozenset(
        slot.offset for slot in getattr(compiled, "params", ())
        if getattr(slot, "is_pointer", False)
    )


def static_access_report(
    program: Program,
    cfg: ControlFlowGraph,
    affine: AffineAnalysis,
    config=None,
    pointer_params: frozenset = frozenset(),
) -> list[StaticAccessProof]:
    """Classify every global/shared access without running anything.

    Uniform terms (``ctaid.*``, ``param:*``, ``u:*``, ``iv:*``) shift
    all lanes together, so the verdict sweeps the count over their
    alignment classes: parameters named in ``pointer_params`` are
    256-byte aligned by the allocator (they contribute nothing mod
    32/128); scalar parameters and other uniform terms contribute
    multiples of their coefficient.  A verdict is only emitted when the
    count is the same for every alignment class — otherwise the access
    is ``unproven``.
    """
    from repro.gpu.coalesce import coalesce_sectors, shared_transactions

    out: list[StaticAccessProof] = []
    for i, ins in enumerate(program):
        oc = ins.opcode.op_class
        if oc in _GLOBAL_CLASSES:
            space, period = "global", 32
        elif oc in _SHARED_CLASSES:
            space, period = "shared", 32 * 4
        else:
            continue
        bytes_ = ins.opcode.width_bits // 8
        if space == "global":
            ideal = max(1, -(-32 * bytes_ // 32))
        else:
            ideal = max(1, bytes_ // 4)
        addr = affine.address_value(i)
        if addr is TOP:
            out.append(StaticAccessProof(i, space, "unproven", None, ideal))
            continue
        lanes = _static_lane_addresses(addr, config)
        if lanes is None:
            out.append(StaticAccessProof(i, space, "unproven", None, ideal))
            continue
        # alignment sweep over the uniform terms
        g = 0
        aligned = True
        for d, c in addr.terms:
            if d in LANE_DIMS:
                continue
            if d.startswith("param:"):
                # cudaMalloc-style allocations are 256-byte aligned
                # (256 is a multiple of both periods, so a pointer term
                # contributes nothing); a scalar parameter used
                # additively can shift the window arbitrarily
                if int(d[6:], 16) in pointer_params:
                    continue
                aligned = False if c % period else aligned
                continue
            g = math.gcd(g, abs(c))
        g = math.gcd(g, period)
        if not aligned:
            deltas = range(0, period, math.gcd(g, 4) or 4)
        else:
            deltas = range(0, period, g) if g else (0,)
        mask = np.full(32, True)
        seen = set()
        for delta in deltas:
            addrs = lanes + addr.const + delta
            if space == "global":
                seen.add(int(len(coalesce_sectors(addrs, bytes_, mask))))
            else:
                seen.add(int(shared_transactions(addrs, bytes_, mask)))
            if len(seen) > 1:
                break
        if len(seen) != 1:
            out.append(StaticAccessProof(i, space, "unproven", None, ideal))
            continue
        n = seen.pop()
        status = "proven" if n <= ideal else "flagged"
        out.append(StaticAccessProof(i, space, status, n, ideal))
    return out


def summarize_proofs(proofs: Sequence[StaticAccessProof]) -> dict:
    """Aggregate counts for the report footer / JSON output."""
    out = {
        "global": {"proven_coalesced": 0, "flagged": 0, "unproven": 0},
        "shared": {"proven_conflict_free": 0, "flagged": 0, "unproven": 0},
    }
    for p in proofs:
        bucket = out[p.space]
        if p.status == "proven":
            key = ("proven_coalesced" if p.space == "global"
                   else "proven_conflict_free")
            bucket[key] += 1
        elif p.status == "flagged":
            bucket["flagged"] += 1
        else:
            bucket["unproven"] += 1
    return out
