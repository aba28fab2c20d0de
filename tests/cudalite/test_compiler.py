"""Code-generation tests: the SASS patterns each kernel feature must
produce (these patterns are exactly what GPUscout's analyses consume)."""

import dataclasses
import hashlib
import pickle

import pytest

from repro.cudalite import KernelBuilder, compile_kernel, f32, f64, float4, i32, ptr
from repro.cudalite.intrinsics import mad, rcpf, sqrtf
from repro.errors import CompileError


def _ops(ck):
    return [ins.opcode.name for ins in ck.program]


def _bases(ck):
    return [ins.opcode.base for ins in ck.program]


class TestMemoryCodegen:
    def test_scalar_load_store(self):
        kb = KernelBuilder("k")
        p = kb.param("p", ptr(f32))
        o = kb.param("o", ptr(f32))
        i = kb.let("i", kb.thread_idx.x, dtype=i32)
        kb.store(o, i, p[i])
        ck = compile_kernel(kb.build())
        assert "LDG.E.SYS" in _ops(ck)
        assert "STG.E.SYS" in _ops(ck)

    def test_readonly_cache_load(self):
        kb = KernelBuilder("k")
        p = kb.param("p", ptr(f32, readonly=True, restrict=True))
        o = kb.param("o", ptr(f32))
        kb.store(o, 0, p[0])
        ck = compile_kernel(kb.build())
        assert "LDG.E.CONSTANT.SYS" in _ops(ck)

    def test_vector_load_128(self):
        kb = KernelBuilder("k")
        p = kb.param("p", ptr(f32))
        o = kb.param("o", ptr(f32))
        v = kb.let("v", p.as_vector(float4)[kb.thread_idx.x], dtype=float4)
        kb.store(o.as_vector(float4), kb.thread_idx.x, v)
        ck = compile_kernel(kb.build())
        assert "LDG.E.128.SYS" in _ops(ck)
        assert "STG.E.128.SYS" in _ops(ck)

    def test_vector_dest_quad_aligned(self):
        kb = KernelBuilder("k")
        p = kb.param("p", ptr(f32))
        o = kb.param("o", ptr(f32))
        v = kb.let("v", p.as_vector(float4)[0], dtype=float4)
        kb.store(o.as_vector(float4), 0, v)
        ck = compile_kernel(kb.build())
        wide = next(i for i in ck.program if i.opcode.name == "LDG.E.128.SYS")
        assert wide.operands[0].reg.index % 4 == 0

    def test_adjacent_offsets_share_base(self):
        """Unrolled a[base+j] accesses must emit [Rn], [Rn+0x4], ..."""
        kb = KernelBuilder("k")
        p = kb.param("p", ptr(f32))
        o = kb.param("o", ptr(f32))
        base = kb.let("base", kb.thread_idx.x * 4, dtype=i32)
        acc = kb.let("acc", 0.0, dtype=f32)
        with kb.for_range("j", 0, 4, unroll=True) as j:
            kb.assign(acc, acc + p[base + j])
        kb.store(o, 0, acc)
        ck = compile_kernel(kb.build())
        loads = [i for i in ck.program if i.opcode.is_global_load]
        assert len(loads) == 4
        bases = {i.mem_operand().base for i in loads}
        assert len(bases) == 1
        assert sorted(i.mem_operand().offset for i in loads) == [0, 4, 8, 12]

    def test_store_through_const_pointer_rejected(self):
        kb = KernelBuilder("k")
        p = kb.param("p", ptr(f32, readonly=True))
        kb.store(p, 0, 1.0)  # builder cannot know; compiler checks
        with pytest.raises(CompileError):
            compile_kernel(kb.build())

    def test_shared_memory_codegen(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        sm = kb.shared_array("buf", f32, 32)
        t = kb.let("t", kb.thread_idx.x, dtype=i32)
        sm[t] = 1.0
        kb.sync_threads()
        kb.store(o, t, sm[t])
        ck = compile_kernel(kb.build())
        bases = _bases(ck)
        assert "STS" in bases and "LDS" in bases and "BAR" in bases
        assert ck.program.shared_bytes >= 32 * 4

    def test_shared_layout_offsets(self):
        kb = KernelBuilder("k")
        kb.param("o", ptr(f32))
        kb.shared_array("a", f32, 4)  # 16 bytes
        kb.shared_array("b", f32, 4)
        ck = compile_kernel(kb.build())
        offs = {s.name: s.offset for s in ck.shared}
        assert offs["a"] == 0
        assert offs["b"] == 16  # 16-byte aligned

    def test_local_memory_not_emitted_without_pressure(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        kb.store(o, 0, 1.0)
        ck = compile_kernel(kb.build())
        assert "STL" not in _bases(ck)
        assert ck.program.local_bytes_per_thread == 0


class TestAtomicsCodegen:
    def test_global_atomic_typed(self):
        kb = KernelBuilder("k")
        h = kb.param("h", ptr(f32))
        kb.atomic_add_global(h, kb.thread_idx.x, 1.0)
        ck = compile_kernel(kb.build())
        assert "RED.E.ADD.F32" in _ops(ck)

    def test_global_atomic_int(self):
        kb = KernelBuilder("k")
        h = kb.param("h", ptr(i32))
        kb.atomic_add_global(h, 0, 1)
        ck = compile_kernel(kb.build())
        assert "RED.E.ADD.U32" in _ops(ck)

    def test_shared_atomic(self):
        kb = KernelBuilder("k")
        kb.param("o", ptr(f32))
        sm = kb.shared_array("h", f32, 16)
        kb.atomic_add_shared(sm, kb.thread_idx.x % 16, 1.0)
        ck = compile_kernel(kb.build())
        assert "ATOMS.ADD.F32" in _ops(ck)


class TestControlFlowCodegen:
    def test_loop_emits_backedge(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        n = kb.param("n", i32)
        acc = kb.let("acc", 0.0, dtype=f32)
        with kb.for_range("i", 0, n):
            kb.assign(acc, acc + 1.0)
        kb.store(o, 0, acc)
        ck = compile_kernel(kb.build())
        bras = [i for i in ck.program if i.opcode.base == "BRA"]
        assert len(bras) == 2  # pre-check skip + bottom-test back edge
        from repro.sass import build_cfg

        assert len(build_cfg(ck.program).loops) == 1

    def test_unrolled_loop_has_no_branches(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        acc = kb.let("acc", 0.0, dtype=f32)
        with kb.for_range("i", 0, 4, unroll=True):
            kb.assign(acc, acc + 1.0)
        kb.store(o, 0, acc)
        ck = compile_kernel(kb.build())
        assert "BRA" not in _bases(ck)
        assert _bases(ck).count("FADD") == 4

    def test_unroll_requires_constant_bounds(self):
        kb = KernelBuilder("k")
        kb.param("o", ptr(f32))
        n = kb.param("n", i32)
        with pytest.raises(CompileError):
            with kb.for_range("i", 0, n, unroll=True):
                pass
            compile_kernel(kb.build())

    def test_if_predication(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        t = kb.let("t", kb.thread_idx.x, dtype=i32)
        with kb.if_then(t < 16):
            kb.store(o, t, 1.0)
        ck = compile_kernel(kb.build())
        assert "BRA" not in _bases(ck)  # predication, not branching
        store = next(i for i in ck.program if i.opcode.base == "STG")
        assert store.pred is not None

    def test_return_if_predicated_exit(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        n = kb.param("n", i32)
        t = kb.let("t", kb.thread_idx.x, dtype=i32)
        kb.return_if(t >= n)
        kb.store(o, t, 1.0)
        ck = compile_kernel(kb.build())
        exits = [i for i in ck.program if i.opcode.base == "EXIT"]
        assert any(i.pred is not None for i in exits)

    def test_nested_if_rejected(self):
        kb = KernelBuilder("k")
        kb.param("o", ptr(f32))
        t = kb.let("t", kb.thread_idx.x, dtype=i32)
        with pytest.raises(CompileError):
            with kb.if_then(t < 8):
                with kb.if_then(t < 4):
                    pass
            compile_kernel(kb.build())


class TestArithmeticCodegen:
    def test_conversions(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        t = kb.let("t", kb.thread_idx.x, dtype=i32)
        kb.store(o, t, t.cast(f32))
        ck = compile_kernel(kb.build())
        assert any(op.startswith("I2F") for op in _ops(ck))

    def test_f2f_widen_narrow(self):
        kb = KernelBuilder("k")
        s = kb.param("s", ptr(f32))
        d = kb.param("d", ptr(f64))
        x = kb.let("x", s[0])
        kb.store(d, 0, x.cast(f64))
        ck = compile_kernel(kb.build())
        assert "F2F.F64.F32" in _ops(ck)

    def test_mad_fuses(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        a = kb.param("a", f32)
        kb.store(o, 0, mad(a, a, a))
        ck = compile_kernel(kb.build())
        assert "FFMA" in _bases(ck)

    def test_dp_mad(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f64))
        a = kb.param("a", f64)
        kb.store(o, 0, mad(a, a, a))
        ck = compile_kernel(kb.build())
        assert "DFMA" in _bases(ck)

    def test_mufu_intrinsics(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        a = kb.param("a", f32)
        kb.store(o, 0, sqrtf(a) + rcpf(a))
        ck = compile_kernel(kb.build())
        ops = _ops(ck)
        assert "MUFU.SQRT" in ops and "MUFU.RCP" in ops

    def test_division_by_constant_folds_to_multiply(self):
        # nvcc folds x / const into x * (1/const); so do we
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        a = kb.param("a", f32)
        kb.store(o, 0, a / 3.0)
        ck = compile_kernel(kb.build())
        assert "MUFU.RCP" not in _ops(ck)
        assert "FMUL" in _bases(ck)

    def test_division_by_runtime_value_uses_rcp(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        a = kb.param("a", f32)
        b = kb.param("b", f32)
        kb.store(o, 0, a / b)
        ck = compile_kernel(kb.build())
        assert "MUFU.RCP" in _ops(ck)

    def test_int_div_pow2(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(i32))
        n = kb.param("n", i32)
        kb.store(o, 0, n / 16)
        ck = compile_kernel(kb.build())
        assert any(op.startswith("SHF.R") for op in _ops(ck))

    def test_int_div_non_pow2_rejected(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(i32))
        n = kb.param("n", i32)
        kb.store(o, 0, n / 3)
        with pytest.raises(CompileError):
            compile_kernel(kb.build())

    def test_same_width_int_cast_is_free(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(i32))
        t = kb.let("t", kb.thread_idx.x)  # u32
        kb.store(o, 0, t)  # coerced to i32 for the store
        ck = compile_kernel(kb.build())
        assert "I2I" not in _bases(ck)

    def test_constant_folding(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(i32))
        t = kb.let("t", kb.thread_idx.x, dtype=i32)
        kb.store(o, t * 1 + 0, 2 * 8)  # folds away
        ck = compile_kernel(kb.build())
        # no multiply-by-one or add-zero instructions survive
        imads = [i for i in ck.program
                 if i.opcode.base == "IMAD" and not i.opcode.modifiers]
        assert len(imads) == 0


class TestLineTable:
    def test_every_emitted_instruction_attributed(self):
        kb = KernelBuilder("k")
        p = kb.param("p", ptr(f32))
        o = kb.param("o", ptr(f32))
        x = kb.let("x", p[kb.thread_idx.x])
        kb.store(o, kb.thread_idx.x, x * 2.0)
        ck = compile_kernel(kb.build())
        attributed = [i for i in ck.program if i.line is not None]
        # all but the trailing EXIT carry a source line
        assert len(attributed) == len(ck.program) - 1

    def test_lines_point_into_source(self):
        kb = KernelBuilder("k")
        p = kb.param("p", ptr(f32))
        kb.store(p, 0, 1.0)
        ck = compile_kernel(kb.build())
        n_lines = len(ck.kernel.source.splitlines())
        for ins in ck.program:
            if ins.line is not None:
                assert 1 <= ins.line <= n_lines

    def test_texture_codegen(self):
        kb = KernelBuilder("k")
        o = kb.param("o", ptr(f32))
        t = kb.texture("tex")
        kb.store(o, 0, kb.tex2d(t, 3, 4))
        ck = compile_kernel(kb.build())
        assert any(i.opcode.base == "TEX" for i in ck.program)
        assert ck.tex_slot("tex") == 0


class TestRenderings:
    """``sass_text``/``ptx_text``/``sass_sha256`` are rendered once per
    CompiledKernel and always describe the fields the object holds."""

    @staticmethod
    def _two_kernels():
        out = []
        for name, value in (("first", 1.0), ("second", 2.0)):
            kb = KernelBuilder(name)
            kb.store(kb.param("p", ptr(f32)), kb.thread_idx.x, value)
            out.append(compile_kernel(kb.build()))
        return out

    def test_rendered_once_per_kernel(self, monkeypatch):
        from repro.ptx import writer as ptx_writer
        from repro.sass import writer as sass_writer

        calls = []
        for mod, fn in ((sass_writer, "format_program"),
                        (ptx_writer, "lowered_to_ptx")):
            real = getattr(mod, fn)
            monkeypatch.setattr(
                mod, fn,
                lambda *a, real=real, fn=fn: (calls.append(fn), real(*a))[1])
        ck, _ = self._two_kernels()
        texts = [(ck.sass_text, ck.ptx_text, ck.sass_sha256)
                 for _ in range(3)]
        assert texts[0] == texts[1] == texts[2]
        assert sorted(calls) == ["format_program", "lowered_to_ptx"]
        assert ck.sass_sha256 == hashlib.sha256(
            ck.sass_text.encode()).hexdigest()

    def test_pickle_and_replace_render_what_they_hold(self):
        first, second = self._two_kernels()
        want = (first.sass_text, first.ptx_text, first.sass_sha256)
        clone = pickle.loads(pickle.dumps(first))
        assert (clone.sass_text, clone.ptx_text, clone.sass_sha256) == want
        # a replaced program/kernel must not answer with the old text
        swapped = dataclasses.replace(first, program=second.program,
                                      kernel=second.kernel)
        assert swapped.sass_text == second.sass_text != first.sass_text
        assert swapped.sass_sha256 == second.sass_sha256
        assert swapped.ptx_text == second.ptx_text != first.ptx_text
        assert (first.sass_text, first.ptx_text, first.sass_sha256) == want

    def test_one_lowering_per_compile(self, monkeypatch, fresh_programs):
        """``ptx_text`` renders the stream ``compile_kernel`` lowered
        and is what ``kernel_to_ptx`` returns for the same kernel; a
        ``replace`` copy drops the stream and lowers for itself."""
        from repro.cudalite import compiler
        from repro.kernels.catalog import CATALOG, resolve_kernel
        from repro.ptx import writer as ptx_writer

        lowered = []
        real = compiler.lower_kernel

        def spy(kernel):
            lowered.append(kernel.name)
            return real(kernel)

        monkeypatch.setattr(compiler, "lower_kernel", spy)
        monkeypatch.setattr(ptx_writer, "lower_kernel", spy)
        specs = sorted(CATALOG)
        assert len(specs) == 17
        for spec in specs:
            del lowered[:]
            ck = resolve_kernel(spec, 96)[0]
            text = ck.ptx_text
            assert lowered == [ck.name], spec
            assert text == ptx_writer.kernel_to_ptx(ck.kernel)
            copy = dataclasses.replace(ck)
            assert copy.vprogram is None
            assert copy.ptx_text == text
