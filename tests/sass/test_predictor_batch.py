"""``MemoryPredictor.predict`` evaluates every (block, warp) row in one
array pass; these tests pin it to the per-(block, warp) loop it
replaced, which survives only here as the reference."""

import math
from dataclasses import fields

import numpy as np
import pytest

from repro.kernels.catalog import CATALOG, resolve_kernel
from repro.gpu.coalesce import coalesce_sectors, shared_transactions
from repro.gpu.config import GPUSpec
from repro.gpu.simulator import LaunchConfig, Simulator
from repro.sass import build_cfg, parse_sass
from repro.sass.affine import (
    _GLOBAL_CLASSES,
    _SHARED_CLASSES,
    TOP,
    Affine,
    AffineAnalysis,
    AffineEnv,
    AndExpr,
    MemoryPredictor,
    NotExpr,
    OrExpr,
    Prediction,
    pred_proof,
)

SPECS = sorted(CATALOG)


class ScalarPredictor:
    """The pre-batch predictor: one Python iteration per (block, warp),
    32-lane arrays, the scalar coalescing model per row."""

    def __init__(self, program, cfg, affine, config, spec, blocks=None):
        self.program, self.cfg, self.affine = program, cfg, affine
        self.config = config
        if blocks is None:
            blocks = range(0, config.num_blocks, spec.num_sms)
            if len(blocks) == 0:
                blocks = range(0, 1)
        self.blocks = list(blocks)
        bx, by = config.block
        nthreads = bx * by
        self._warps = []
        for w in range(-(-nthreads // 32)):
            linear = w * 32 + np.arange(32)
            valid = linear < nthreads
            linear = np.minimum(linear, nthreads - 1)
            self._warps.append((linear % bx, linear // bx, valid))
        self._pred_exits = []
        self._final_exit_blocks = set()
        for i, ins in enumerate(program):
            if ins.opcode.base in ("EXIT", "RET"):
                if ins.pred is not None and not ins.pred.is_zero:
                    self._pred_exits.append(i)
                else:
                    self._final_exit_blocks.add(
                        cfg.block_of_instruction(i).bid)

    def _lane_env(self, bid, warp):
        gx = self.config.grid[0]
        tidx, tidy, valid = self._warps[warp]
        return {
            "tid.x": tidx, "tid.y": tidy,
            "tid.z": np.zeros(32, dtype=np.int64),
            "laneid": np.arange(32),
            "ctaid.x": bid % gx, "ctaid.y": bid // gx, "ctaid.z": 0,
        }, valid

    @staticmethod
    def _eval_affine(v, lanes):
        out = np.full(32, v.const, dtype=np.int64)
        for d, c in v.terms:
            if d not in lanes:
                return None
            out = out + c * np.asarray(lanes[d], dtype=np.int64)
        return out

    def _eval_pred(self, e, lanes):
        if isinstance(e, bool):
            return np.full(32, e)
        if isinstance(e, NotExpr):
            inner = self._eval_pred(e.expr, lanes)
            return None if inner is None else ~inner
        if isinstance(e, (OrExpr, AndExpr)):
            a = self._eval_pred(e.a, lanes)
            b = self._eval_pred(e.b, lanes)
            if a is None or b is None:
                return None
            return (a | b) if isinstance(e, OrExpr) else (a & b)
        lhs = self._eval_affine(e.lhs, lanes)
        rhs = self._eval_affine(e.rhs, lanes)
        if lhs is None or rhs is None:
            return None
        if e.unsigned:
            lhs = lhs % (1 << 32)
            rhs = rhs % (1 << 32)
        return {
            "LT": lhs < rhs, "LE": lhs <= rhs, "GT": lhs > rhs,
            "GE": lhs >= rhs, "EQ": lhs == rhs, "NE": lhs != rhs,
        }[e.op]

    def _pred_lanes(self, e, lanes):
        if e is None:
            return None
        m = self._eval_pred(e, lanes)
        if m is not None:
            return m
        proof = pred_proof(e, self.affine.env)
        if proof is not None:
            return np.full(32, proof)
        return None

    def predict(self, index):
        ins = self.program[index]
        oc = ins.opcode.op_class
        if oc in _GLOBAL_CLASSES:
            space, period = "global", 32
        elif oc in _SHARED_CLASSES:
            space, period = "shared", 32 * 4
        else:
            return Prediction("", False, reason="not a global/shared access")

        def unproven(reason):
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

        counts = []
        for bid in self.blocks:
            for w in range(len(self._warps)):
                lanes, valid = self._lane_env(bid, w)
                survivors = valid.copy()
                for e in self._pred_exits:
                    eb = self.cfg.block_of_instruction(e).bid
                    pre = (eb == access_block and e < index) or (
                        eb != access_block
                        and self.cfg.dominates(eb, access_block)
                    )
                    ge = self.affine.guard_expr(e)
                    em = self._pred_lanes(ge, lanes)
                    if pre:
                        if em is None:
                            return unproven("early-exit guard not evaluable")
                        survivors &= ~em
                    else:
                        if em is None or em.any():
                            if pred_proof(ge, self.affine.env) is False:
                                continue
                            return unproven(
                                "conditional EXIT outside the "
                                "dominating path")
                if not survivors.any():
                    continue
                if guard is True:
                    gm = np.full(32, True)
                else:
                    gm = self._pred_lanes(guard, lanes)
                    if gm is None:
                        return unproven("guard lanes not evaluable")
                mask = survivors & gm
                base = self._eval_affine(
                    Affine(addr.const,
                           tuple((d, c) for d, c in addr.terms
                                 if not d.startswith("iv:"))),
                    lanes,
                )
                per_delta = set()
                for delta in deltas:
                    per_delta.add(
                        self._count(base + delta, access_bytes, mask, space))
                if len(per_delta) > 1:
                    return unproven(
                        "count depends on loop-iteration alignment")
                counts.append(per_delta.pop())

        exact = (not in_loop) and self._final_exit_blocks and all(
            self.cfg.dominates(access_block, xb)
            for xb in self._final_exit_blocks
        )
        if not counts:
            return Prediction(space, True, 0.0, 0, 0,
                              exact_requests=bool(exact))
        if len(set(counts)) == 1:
            return Prediction(space, True, float(counts[0]), len(counts),
                              sum(counts), exact_requests=bool(exact))
        if exact:
            return Prediction(space, True, sum(counts) / len(counts),
                              len(counts), sum(counts),
                              exact_requests=True, aggregate=True)
        return unproven("per-warp counts vary inside a loop")

    @staticmethod
    def _count(addresses, access_bytes, mask, space):
        if space == "global":
            return int(len(coalesce_sectors(addresses, access_bytes, mask)))
        return int(shared_transactions(addresses, access_bytes, mask))


def _assert_same(program, cfg, affine, config, spec, blocks=None):
    """Every PC, field by field and type by type (``requests``/``total``
    must stay Python ints: they reach the JSON report)."""
    new = MemoryPredictor(program, cfg, affine, config, spec, blocks=blocks)
    old = ScalarPredictor(program, cfg, affine, config, spec, blocks=blocks)
    seen = []
    for index in range(len(program)):
        got, want = new.predict(index), old.predict(index)
        for f in fields(Prediction):
            g, w = getattr(got, f.name), getattr(want, f.name)
            assert (type(g), g) == (type(w), w), (index, f.name, got, want)
        if got.space:
            seen.append(got)
    return seen


def _compiled(spec, config=None):
    """Program, CFG and launch-folded analysis of a catalogue kernel at
    the shape ``gpuscout validate`` uses (size 128, 8 iterations), with
    the parameter values a launch would stage."""
    ck, launch_config, args, textures = resolve_kernel(spec, 128, 8)
    config = config or launch_config
    gpu = GPUSpec.small(1)
    _, param_values, _, _ = Simulator(gpu)._stage_memory(
        ck, args, textures or {})
    cfg = build_cfg(ck.program)
    env = AffineEnv.from_launch(ck, config, param_values)
    return ck.program, cfg, AffineAnalysis(ck.program, cfg, env), config, gpu


@pytest.mark.parametrize("spec", SPECS)
def test_batched_predict_equals_scalar_reference(spec):
    assert _assert_same(*_compiled(spec)), "kernel has no memory access"


@pytest.mark.parametrize("spec,block", [
    ("mixbench:sp:naive", (48, 1)),   # partial last warp
    ("histogram:shared", (48, 1)),
    ("reduction:shared", (80, 1)),
    ("heat:naive", (8, 6)),           # 2-D block, partial last warp
    ("sgemm:shared", (8, 8)),         # 2-D block, four tid.y rows per warp
    ("sgemm:naive", (5, 7)),          # 2-D block narrower than a warp row
])
def test_odd_block_shapes(spec, block):
    _, config, _, _ = resolve_kernel(spec, 128, 8)
    odd = LaunchConfig(grid=config.grid, block=block)
    assert _assert_same(*_compiled(spec, odd))


@pytest.mark.parametrize("spec", ["sgemm:shared_vec", "histogram:global"])
def test_simulated_blocks_capping(spec):
    """The engine predicts only the blocks the simulator timed: SM 0's
    share on an 80-SM part, cut to ``simulated_blocks``."""
    program, cfg, affine, config, _ = _compiled(spec)
    v100 = GPUSpec.v100()
    share = list(range(0, config.num_blocks, v100.num_sms)) or [0]
    for blocks in (share, share[:1], [0, 1, 2, 5], []):
        _assert_same(program, cfg, affine, config, v100, blocks=blocks)


# -- every exit of predict, and which unproven reason wins ------------------
#
# The catalogue kernels only ever fail on a non-affine address, which
# returns before any row is looked at; these listings reach the rest.

_HEAD = """
S2R R0, SR_TID.X ;
S2R R1, SR_CTAID.X ;
MOV R2, c[0x0][0x160] ;
IMAD R4, R0, 0x4, R2 ;
MOV R5, RZ ;
"""
_LOOP_TAIL = """
IADD3 R5, R5, 0x1, RZ ;
ISETP.LT.AND P2, PT, R5, 0x8, PT ;
@P2 BRA `(LOOP) ;
EXIT ;
"""
#: a conditional EXIT that does not dominate the load, guarded by
#: ``{p0}``; the load sits in a loop and its 16 B-misaligned, advancing
#: address makes the sector count depend on the iteration (4 or 5)
_RACE = _HEAD + """
{p0} ;
ISETP.LT.AND P1, PT, R0, 0x10, PT ;
@P1 BRA `(LOOP) ;
@P0 EXIT ;
.LOOP:
LDG.E.SYS R6, [R4+0x10] ;
IADD3 R4, R4, 0x4, RZ ;
""" + _LOOP_TAIL

_ALIGNMENT = "count depends on loop-iteration alignment"
_STRAY_EXIT = "conditional EXIT outside the dominating path"

#: name -> (listing, block, what the first LDG/STS must predict)
CRAFTED = {
    "exit guard unknown on the dominating path": (
        _HEAD + "FSETP.GT.AND P0, PT, R0, RZ, PT ;\n@P0 EXIT ;\n"
        "LDG.E.SYS R6, [R4] ;\nEXIT ;\n",
        (32, 1), "early-exit guard not evaluable"),
    "guard compares the induction variable": (
        _HEAD + ".LOOP:\nISETP.LT.AND P3, PT, R5, 0x4, PT ;\n"
        "@P3 LDG.E.SYS R6, [R4] ;\n" + _LOOP_TAIL,
        (32, 1), "guard lanes not evaluable"),
    "partial warp inside a loop": (
        _HEAD + ".LOOP:\nLDG.E.SYS R6, [R4] ;\n" + _LOOP_TAIL,
        (48, 1), "per-warp counts vary inside a loop"),
    "partial warp, issued once: exact aggregate": (
        _HEAD + "LDG.E.SYS R6, [R4] ;\nEXIT ;\n",
        (48, 1), Prediction("global", True, 3.0, 4, 12,
                            exact_requests=True, aggregate=True)),
    "every warp retired before the access": (
        _HEAD + "ISETP.GE.AND P0, PT, R0, RZ, PT ;\n@P0 EXIT ;\n"
        "LDG.E.SYS R6, [R4] ;\nEXIT ;\n",
        (32, 1), Prediction("global", True, 0.0, 0, 0,
                            exact_requests=True)),
    "second warp retired before the access": (
        _HEAD + "ISETP.GE.AND P0, PT, R0, 0x20, PT ;\n@P0 EXIT ;\n"
        "STS [R4], R0 ;\nEXIT ;\n",
        (64, 1), Prediction("shared", True, 1.0, 2, 2,
                            exact_requests=True)),
    # block 0 passes the EXIT check and fails on alignment; block 1
    # would fail the (earlier) EXIT check, but block 0 comes first
    "first failing row wins over an earlier check": (
        _RACE.format(p0="ISETP.GE.AND P0, PT, R1, 0x1, PT"),
        (32, 1), _ALIGNMENT),
    # block 0 fails the EXIT check before its alignment check
    "first failing check wins within a row": (
        _RACE.format(p0="ISETP.LT.AND P0, PT, R1, 0x1, PT"),
        (32, 1), _STRAY_EXIT),
}


def _crafted(text, block):
    program = parse_sass(text)
    cfg = build_cfg(program)
    config = LaunchConfig(grid=(2, 1), block=block)
    env = AffineEnv(params={0x160: 0x10000}, ntid=block + (1,),
                    nctaid=(2, 1, 1))
    access = next(i for i, ins in enumerate(program)
                  if ins.opcode.base in ("LDG", "STS"))
    return (program, cfg, AffineAnalysis(program, cfg, env), config,
            GPUSpec.small(1)), access


@pytest.mark.parametrize("name", CRAFTED)
def test_crafted_listing(name):
    text, block, want = CRAFTED[name]
    setup, access = _crafted(text, block)
    _assert_same(*setup)
    got = MemoryPredictor(*setup).predict(access)
    if isinstance(want, str):
        assert not got.proven and got.reason == want
    else:
        assert got == want


def test_unknown_exit_guard_off_the_dominating_path_is_unproven():
    """An EXIT whose predicate the analysis cannot express (set by a
    float compare) and which does not dominate the access leaves
    reachability unknown.  The scalar loop raised AttributeError here
    (``pred_proof(None)``), so there is no reference to compare with."""
    setup, access = _crafted(
        _RACE.format(p0="FSETP.GT.AND P0, PT, R1, RZ, PT"), (32, 1))
    got = MemoryPredictor(*setup).predict(access)
    assert not got.proven and got.reason == _STRAY_EXIT
