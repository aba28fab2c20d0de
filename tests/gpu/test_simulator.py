"""Launch orchestration: configs, argument staging, extrapolation,
functional completion, occupancy reporting."""

import gc
import weakref

import numpy as np
import pytest

from repro.cudalite import KernelBuilder, compile_kernel, f32, i32, ptr
from repro.errors import LaunchError
from repro.gpu import GPUSpec, LaunchConfig, Simulator
from repro.gpu.simulator import TextureDesc


class TestLaunchConfig:
    def test_shapes(self):
        cfg = LaunchConfig(grid=(4, 2), block=(16, 8))
        assert cfg.num_blocks == 8
        assert cfg.threads_per_block == 128
        assert cfg.warps_per_block == 4

    def test_partial_warp_rounds_up(self):
        assert LaunchConfig(block=(33, 1)).warps_per_block == 2

    def test_too_many_threads(self):
        with pytest.raises(LaunchError):
            LaunchConfig(block=(64, 32))

    def test_zero_dim(self):
        with pytest.raises(LaunchError):
            LaunchConfig(grid=(0, 1))


class TestArgumentStaging:
    def test_missing_arg(self, sim, saxpy):
        with pytest.raises(LaunchError, match="missing"):
            sim.launch(saxpy, LaunchConfig(), args={"x": np.zeros(4, np.float32)})

    def test_unknown_arg(self, sim, saxpy):
        with pytest.raises(LaunchError, match="unknown"):
            sim.launch(
                saxpy, LaunchConfig(),
                args={"x": np.zeros(4, np.float32),
                      "y": np.zeros(4, np.float32),
                      "a": 1.0, "n": 4, "bogus": 1},
            )

    def test_wrong_dtype(self, sim, saxpy):
        with pytest.raises(LaunchError, match="dtype"):
            sim.launch(
                saxpy, LaunchConfig(),
                args={"x": np.zeros(4, np.float64),
                      "y": np.zeros(4, np.float32), "a": 1.0, "n": 4},
            )

    def test_scalar_for_pointer(self, sim, saxpy):
        with pytest.raises(LaunchError, match="NumPy array"):
            sim.launch(saxpy, LaunchConfig(),
                       args={"x": 1, "y": np.zeros(4, np.float32),
                             "a": 1.0, "n": 4})

    def test_texture_binding_mismatch(self, sim, saxpy):
        with pytest.raises(LaunchError, match="texture"):
            sim.launch(
                saxpy, LaunchConfig(),
                args={"x": np.zeros(4, np.float32),
                      "y": np.zeros(4, np.float32), "a": 1.0, "n": 4},
                textures={"ghost": np.zeros((2, 2), np.float32)},
            )

    def test_input_arrays_not_mutated(self, sim, saxpy):
        xs = np.arange(64, dtype=np.float32)
        ys = np.ones(64, dtype=np.float32)
        xs_copy, ys_copy = xs.copy(), ys.copy()
        sim.launch(saxpy, LaunchConfig(grid=(1, 1), block=(64, 1)),
                   args={"x": xs, "y": ys, "a": 2.0, "n": 64})
        assert np.array_equal(xs, xs_copy)
        assert np.array_equal(ys, ys_copy)  # host copy untouched

    def test_read_buffer_shapes(self, sim, saxpy):
        ys = np.ones((8, 8), dtype=np.float32)
        res = sim.launch(saxpy, LaunchConfig(grid=(1, 1), block=(64, 1)),
                         args={"x": np.zeros(64, np.float32),
                               "y": ys, "a": 1.0, "n": 64})
        assert res.read_buffer("y").shape == (8, 8)

    @pytest.mark.parametrize("functional_all", [False, True])
    def test_device_image_dies_with_the_launch_result(
            self, small_spec, saxpy, functional_all):
        """Nothing cyclic holds the device image: dropping the result
        frees it at once, not at some later full collection (a warm
        analysis loop otherwise piles up images between collections)."""
        gc.collect()
        gc.disable()
        try:
            res = Simulator(small_spec).launch(
                saxpy, LaunchConfig(grid=(4, 1), block=(64, 1)),
                args={"x": np.zeros(256, np.float32),
                      "y": np.ones(256, np.float32), "a": 1.0, "n": 256},
                max_blocks=1, functional_all=functional_all)
            image = weakref.ref(res.memory)
            del res
            assert image() is None
        finally:
            gc.enable()


class TestExtrapolation:
    def _count_kernel(self):
        kb = KernelBuilder("counting")
        dst = kb.param("dst", ptr(f32))
        i = kb.let("i", kb.block_idx.x * kb.block_dim.x + kb.thread_idx.x,
                   dtype=i32)
        kb.store(dst, i, 1.0)
        return compile_kernel(kb.build())

    def test_max_blocks_scales_counters(self, small_spec):
        sim = Simulator(small_spec)
        ck = self._count_kernel()
        n_blocks = 16
        out = np.zeros(n_blocks * 64, np.float32)
        full = sim.launch(ck, LaunchConfig(grid=(n_blocks, 1), block=(64, 1)),
                          args={"dst": out})
        capped = sim.launch(ck, LaunchConfig(grid=(n_blocks, 1), block=(64, 1)),
                            args={"dst": out}, max_blocks=4)
        assert capped.extrapolation == 4.0
        assert capped.simulated_blocks == 4
        # extrapolated totals match the full run
        assert capped.counters.inst_issued == full.counters.inst_issued

    def test_functional_all_completes_output(self, small_spec):
        sim = Simulator(small_spec)
        ck = self._count_kernel()
        out = np.zeros(16 * 64, np.float32)
        res = sim.launch(ck, LaunchConfig(grid=(16, 1), block=(64, 1)),
                         args={"dst": out}, max_blocks=2, functional_all=True)
        assert np.array_equal(res.read_buffer("dst"), np.ones(16 * 64,
                                                              np.float32))

    def test_functional_all_off_leaves_gaps(self, small_spec):
        sim = Simulator(small_spec)
        ck = self._count_kernel()
        out = np.zeros(16 * 64, np.float32)
        res = sim.launch(ck, LaunchConfig(grid=(16, 1), block=(64, 1)),
                         args={"dst": out}, max_blocks=2, functional_all=False)
        got = res.read_buffer("dst")
        assert np.count_nonzero(got) == 2 * 64

    def test_multi_sm_simulates_share(self):
        sim = Simulator(GPUSpec.small(4))
        ck = self._count_kernel()
        out = np.zeros(8 * 64, np.float32)
        res = sim.launch(ck, LaunchConfig(grid=(8, 1), block=(64, 1)),
                         args={"dst": out})
        assert res.simulated_blocks == 2  # 8 blocks / 4 SMs
        # device counters cover the whole grid
        assert res.device_counters.global_store_instructions == 8 * 2
        # functional_all still completed everything
        assert np.array_equal(res.read_buffer("dst"),
                              np.ones(8 * 64, np.float32))


class TestOccupancyReporting:
    def test_achieved_le_one(self, saxpy_launch):
        assert 0.0 < saxpy_launch.achieved_occupancy <= 1.0

    def test_theoretical_from_calculator(self, saxpy_launch):
        assert saxpy_launch.theoretical_occupancy == 1.0

    def test_oversized_shared_refuses_launch(self, sim):
        kb = KernelBuilder("hog")
        kb.param("dst", ptr(f32))
        kb.shared_array("s", f32, 40000)  # 160 KB > 96 KB per SM
        ck = compile_kernel(kb.build())
        with pytest.raises(LaunchError):
            sim.launch(ck, LaunchConfig(),
                       args={"dst": np.zeros(4, np.float32)})


class TestTextures:
    def test_texture_desc_wrapper(self, sim):
        kb = KernelBuilder("texread")
        dst = kb.param("dst", ptr(f32))
        tex = kb.texture("tex")
        i = kb.let("i", kb.thread_idx.x, dtype=i32)
        kb.store(dst, i, kb.tex2d(tex, i, 0))
        ck = compile_kernel(kb.build())
        img = np.arange(64, dtype=np.float32).reshape(2, 32)
        res = sim.launch(ck, LaunchConfig(grid=(1, 1), block=(32, 1)),
                         args={"dst": np.zeros(32, np.float32)},
                         textures={"tex": TextureDesc(img)})
        assert np.array_equal(res.read_buffer("dst"), img[0])

    def test_texture_coordinates_clamp(self, sim):
        kb = KernelBuilder("texclamp")
        dst = kb.param("dst", ptr(f32))
        tex = kb.texture("tex")
        i = kb.let("i", kb.thread_idx.x, dtype=i32)
        kb.store(dst, i, kb.tex2d(tex, i - 5, i - 5))
        ck = compile_kernel(kb.build())
        img = np.arange(16, dtype=np.float32).reshape(4, 4)
        res = sim.launch(ck, LaunchConfig(grid=(1, 1), block=(32, 1)),
                         args={"dst": np.zeros(32, np.float32)},
                         textures={"tex": img})
        got = res.read_buffer("dst")
        assert got[0] == img[0, 0]  # clamped to (0, 0)
        assert got[-1] == img[3, 3]  # clamped to max

    def test_non_2d_texture_rejected(self, sim):
        kb = KernelBuilder("tex1d")
        dst = kb.param("dst", ptr(f32))
        tex = kb.texture("tex")
        kb.store(dst, 0, kb.tex2d(tex, 0, 0))
        ck = compile_kernel(kb.build())
        with pytest.raises(LaunchError):
            sim.launch(ck, LaunchConfig(),
                       args={"dst": np.zeros(4, np.float32)},
                       textures={"tex": np.zeros(8, np.float32)})


class TestDuration:
    def test_duration_consistent_with_clock(self, saxpy_launch):
        expected = saxpy_launch.cycles / saxpy_launch.spec.clock_hz
        assert saxpy_launch.duration_s == pytest.approx(expected)

    def test_cycles_positive(self, saxpy_launch):
        assert saxpy_launch.cycles > 0
