"""Clip, logit and TV despeckling tests."""

import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sardist import native, preprocess
from sardist.errors import ValidationError
from sardist.preprocess import (_aligned_empty, CLIP_EPS, PreprocessConfig, clip_unit,
                                despeckle_stack,
                                despeckle_values, inverse_logit, logit,
                                tv_denoise, tv_objective)
from sardist.raster import RasterStack


class TestClip:
    def test_boundary_values(self):
        assert clip_unit(np.float64(0.0)) == 1e-4
        assert clip_unit(np.float64(1.0)) == 1.0 - 1e-4
        assert clip_unit(np.float64(0.5)) == 0.5


class TestLogit:
    def test_symmetry_point(self):
        assert logit(np.float64(0.5)) == 0.0

    def test_ln_nine(self):
        assert abs(logit(np.float64(0.9)) - math.log(9.0)) < 1e-12

    def test_inverse_of_ln_nine(self):
        assert abs(inverse_logit(np.float64(math.log(9.0))) - 0.9) < 1e-12

    def test_inverse_at_zero(self):
        assert inverse_logit(np.float64(0.0)) == 0.5

    def test_roundtrip_specific_points(self):
        for x in (0.01, 0.3, 0.99):
            assert abs(inverse_logit(logit(np.float64(x))) - x) < 1e-12

    def test_roundtrip_on_reals(self):
        # beyond |y| ~ 9.1 the float64 quantization of 1-x near 1.0 caps the
        # achievable accuracy, so tight bounds only hold inside that range
        y = np.linspace(-8.0, 8.0, 2001)
        back = logit(inverse_logit(y))
        assert np.max(np.abs(back - y)) < 1e-12
        y = np.linspace(-9.22, 9.22, 2001)   # the clipped pipeline's range
        back = logit(inverse_logit(y))
        assert np.max(np.abs(back - y)) < 3e-12

    def test_roundtrip_saturates_gracefully(self):
        y = np.linspace(-37.5, 37.5, 101)
        x = inverse_logit(y)
        assert np.all(x > 0.0) and np.all(x < 1.0)
        back = logit(x)   # must not raise
        assert np.all(np.isfinite(back))

    def test_roundtrip_from_unit_interval(self):
        x = np.concatenate([np.linspace(1e-4, 1.0 - 1e-4, 4001),
                            [1e-9, 1.0 - 1e-9]])
        back = inverse_logit(logit(x))
        assert np.max(np.abs(back - x)) < 1e-12

    def test_domain_violation_rejected(self):
        with pytest.raises(ValidationError):
            logit(np.array([0.0, 0.5]))
        with pytest.raises(ValidationError):
            logit(np.array([0.5, 1.0]))

    @given(st.floats(min_value=-40.0, max_value=40.0),
           st.floats(min_value=-40.0, max_value=40.0))
    def test_inverse_monotone(self, y1, y2):
        lo, hi = sorted((y1, y2))
        a, b = float(inverse_logit(np.float64(lo))), float(inverse_logit(np.float64(hi)))
        assert a <= b
        assert 0.0 < a and b < 1.0

    @given(st.floats(min_value=1e-4, max_value=1.0 - 1e-4))
    @settings(max_examples=200)
    def test_roundtrip_property(self, x):
        assert abs(float(inverse_logit(logit(np.float64(x)))) - x) < 1e-9


# ---------------------------------------------------------------------------
# reference TV solver: one allocating solve per flip orientation, written as
# plainly as the math; tv_denoise must match it byte for byte
# ---------------------------------------------------------------------------

def _grad(u):
    # forward differences, zero at the trailing edge
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[..., :, :-1] = u[..., :, 1:] - u[..., :, :-1]
    gy[..., :-1, :] = u[..., 1:, :] - u[..., :-1, :]
    return gx, gy


def _dual_div(px, py):
    """Discrete divergence adjoint to the forward-difference gradient."""
    div = np.zeros_like(px)
    # x component: px[..., j] - px[..., j-1], with one-sided ends
    div[..., :, 0] += px[..., :, 0]
    if px.shape[-1] > 1:
        div[..., :, 1:-1] += px[..., :, 1:-1] - px[..., :, :-2]
        div[..., :, -1] += -px[..., :, -2]
    # y component
    div[..., 0, :] += py[..., 0, :]
    if py.shape[-2] > 1:
        div[..., 1:-1, :] += py[..., 1:-1, :] - py[..., :-2, :]
        div[..., -1, :] += -py[..., -2, :]
    return div


def _objective(u, f, weight):
    gx, gy = _grad(u)
    return 0.5 * float(np.sum((u - f) ** 2)) + weight * float(np.sum(np.abs(gx)) + np.sum(np.abs(gy)))


def _tv_solve(f, weight, iterations, step):
    """One dual-projection solve on (..., H, W); descent-safeguarded over the whole call."""
    if weight == 0.0:
        return f.copy()
    px = np.zeros_like(f)
    py = np.zeros_like(f)
    for _ in range(iterations):
        div_p = _dual_div(px, py)
        gx, gy = _grad(div_p - f / weight)
        px = (px + step * gx) / (1.0 + step * np.abs(gx))
        py = (py + step * gy) / (1.0 + step * np.abs(gy))
    u = f - weight * _dual_div(px, py)
    if _objective(u, f, weight) <= _objective(f, f, weight):
        return u
    return f.copy()


def reference_tv_denoise(f, weight, iterations=50, step=0.25):
    f = np.asarray(f, dtype=np.float64)
    a = _tv_solve(f, weight, iterations, step)
    b = _tv_solve(f[..., :, ::-1], weight, iterations, step)[..., :, ::-1]
    c = _tv_solve(f[..., ::-1, :], weight, iterations, step)[..., ::-1, :]
    d = _tv_solve(f[..., ::-1, ::-1], weight, iterations, step)[..., ::-1, ::-1]
    return 0.25 * ((a + b) + (c + d))


class TestTvKernel:
    # runs of whole slices up to _CHUNK_PX pixels: (3, 2, 64, 64) is solved as
    # 4 + 2 slices, a short last run; (11, 2, 16, 16) and (2, 50, 99) share one
    # run; (2, 131, 129) has slices larger than _CHUNK_PX, one per run; 1xN,
    # Nx1 and 1x1 make whole rows or columns edges
    @pytest.mark.parametrize("shape", [(16, 16), (11, 2, 16, 16), (3, 2, 64, 64), (2, 50, 99),
                                       (2, 131, 129), (1, 9), (9, 1), (1, 1), (7, 5)])
    @pytest.mark.parametrize("kwargs", [{}, {"iterations": 1}, {"iterations": 7, "step": 0.1}])
    def test_bytes_equal_reference(self, shape, kwargs):
        f = np.random.default_rng(sum(shape)).normal(-10.0, 3.0, size=shape)
        out = tv_denoise(f, 1.5, **kwargs)
        assert out.shape == f.shape
        assert out.tobytes() == reference_tv_denoise(f, 1.5, **kwargs).tobytes()

    def test_safeguard_decides_per_slice(self):
        # finite input never trips the safeguard; a NaN makes its slice's
        # objective NaN, and only that slice may come back undenoised
        f = np.random.default_rng(6).normal(-10.0, 3.0, size=(2, 12, 12))
        f[1, 3, 4] = np.nan
        out = tv_denoise(f, weight=1.5)
        assert out[0].tobytes() == tv_denoise(f[0], weight=1.5).tobytes()
        assert not np.array_equal(out[0], f[0])
        assert np.array_equal(out[1], f[1], equal_nan=True)

    def test_empty_slices_rejected(self):
        with pytest.raises(ValidationError):
            tv_denoise(np.zeros((2, 0, 4)), weight=1.5)

    @pytest.mark.parametrize("solve", [despeckle_values, lambda v: tv_denoise(v, 1.5)],
                             ids=["despeckle_values", "tv_denoise"])
    def test_empty_stack_rejected(self, solve):
        with pytest.raises(ValidationError, match=r"got shape \(0, 2, 16, 16\)$"):
            solve(np.zeros((0, 2, 16, 16), np.float32))

    # 5,632 x 7 + 32 is the scratch of one 11x2x16x16 corpus sequence
    @pytest.mark.parametrize("n", [1, 7, 8, 1000, 5632 * 7 + 32])
    def test_aligned_buffer(self, n):
        for _ in range(4):   # several allocations, so not one lucky placement
            buf = _aligned_empty(n)
            assert buf.dtype == np.float64 and buf.shape == (n,)
            assert buf.flags.writeable and buf.flags.c_contiguous
            assert buf.ctypes.data % 64 == 0
            buf[:] = 1.0

    @pytest.mark.parametrize("shape", [(16, 16), (11, 2, 16, 16), (1, 7)])
    def test_result_starts_on_a_cache_line(self, shape):
        f = np.random.default_rng(3).normal(-10.0, 3.0, size=shape)
        assert tv_denoise(f, 1.5, iterations=2).ctypes.data % 64 == 0


def whole_stack_despeckle(values):
    """despeckle_values as one float64 chain over the whole stack around tv_denoise."""
    db = 10.0 * np.log10(np.clip(np.array(values, dtype=np.float64), CLIP_EPS, 1.0 - CLIP_EPS))
    back = 10.0 ** (tv_denoise(db, 1.5) / 10.0)
    return np.clip(back, CLIP_EPS, 1.0 - CLIP_EPS).astype(np.float32)


@pytest.fixture
def solve_threads(monkeypatch):
    """The ids of the threads that call `_tv_solve`, from now on."""
    solve, threads = preprocess._tv_solve, set()

    def recording_solve(*args):
        threads.add(threading.get_ident())
        solve(*args)
    monkeypatch.setattr(preprocess, "_tv_solve", recording_solve)
    return threads


class TestWorkers:
    # with runs of at most 1,024 pixels: 30 runs (a short last one) on 3
    # workers, slices larger than a run (one per run) on 3, 1x9 slices, which
    # make every row an edge, on 3, and 37x53 slices on 3; workers forced to
    # 1, 2 and 3 and capped by the runs and by their buffers' memory
    @pytest.mark.parametrize("shape", [(59, 2, 16, 16), (29, 33, 37), (2, 3000, 1, 9),
                                       (30, 2, 37, 53)])
    def test_bytes_do_not_depend_on_workers(self, shape, monkeypatch, solve_threads):
        values = np.random.default_rng(sum(shape)).uniform(-0.1, 1.1, size=shape)
        values = values.astype(np.float32)
        monkeypatch.setattr(preprocess, "_CHUNK_PX", 1024)
        monkeypatch.setattr(native, "usable_cores", lambda: 1)
        expected = whole_stack_despeckle(values).tobytes()
        denoised = tv_denoise(values, 1.5).tobytes()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # hand the GIL between workers as often as possible
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(native, "usable_cores", lambda: workers)
                solve_threads.clear()
                assert despeckle_values(values).tobytes() == expected
                assert len(solve_threads) == workers
                assert tv_denoise(values, 1.5).tobytes() == denoised
        finally:
            sys.setswitchinterval(switch)

    def test_workers_capped_by_memory(self, monkeypatch, solve_threads):
        # with 1,024-pixel runs a worker's f, u, scratch and slack take 9,304
        # float64s, as many bytes as two float32 copies of 9,304 pixels: 17
        # slices of 32x32 run 1 worker, 19 run 2, 37 run 4 and 80 all 8 cores
        monkeypatch.setattr(preprocess, "_CHUNK_PX", 1024)
        monkeypatch.setattr(native, "usable_cores", lambda: 8)
        for slices, workers in ((17, 1), (19, 2), (37, 4), (80, 8)):
            solve_threads.clear()
            despeckle_values(np.full((slices, 32, 32), 0.2, np.float32), PreprocessConfig(
                tv_iterations=1))
            assert len(solve_threads) == workers

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # 20 runs of 1,024 pixels fit two workers' buffers
        monkeypatch.setattr(preprocess, "_CHUNK_PX", 1024)
        monkeypatch.setattr(native, "usable_cores", lambda: 2)
        caller = threading.get_ident()

        def failing_solve(f, u, *args):
            if threading.get_ident() != caller:
                raise MemoryError("solve")
            np.copyto(u, f)
        monkeypatch.setattr(preprocess, "_tv_solve", failing_solve)
        with pytest.raises(MemoryError, match="solve"):
            despeckle_values(np.full((20, 32, 32), 0.2, np.float32))


class TestTvDenoise:
    def test_constant_unchanged(self):
        u = np.full((16, 16), -12.5)
        out = tv_denoise(u, weight=1.5)
        assert np.max(np.abs(out - u)) < 1e-6

    def test_objective_descends_on_noise(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            f = rng.normal(scale=2.0, size=(24, 24))
            out = tv_denoise(f, weight=1.5)
            assert tv_objective(out, f, 1.5) <= tv_objective(f, f, 1.5)

    @pytest.mark.parametrize("shape", [(20, 20), (3, 2, 20, 20)], ids=["slice", "stack"])
    @pytest.mark.parametrize("axes", [(-1,), (-2,), (-2, -1)], ids=["x", "y", "xy"])
    def test_flip_equivariance_exact(self, shape, axes):
        # each slice is solved once, so equivariance must hold in the solver
        f = np.random.default_rng(1).normal(size=shape)
        out = tv_denoise(f, weight=1.5)
        flipped = np.flip(tv_denoise(np.flip(f, axes), weight=1.5), axes)
        assert out.tobytes() == flipped.tobytes()

    def test_zero_weight_is_identity(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(8, 8))
        assert np.array_equal(tv_denoise(f, weight=0.0), f)

    def test_stacked_slices_match_individual(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(3, 2, 12, 12))
        out = tv_denoise(f, weight=1.0)
        for i in range(3):
            for j in range(2):
                single = tv_denoise(f[i, j], weight=1.0)
                assert np.array_equal(out[i, j], single)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_descent_property(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(scale=3.0, size=(10, 10))
        out = tv_denoise(f, weight=1.5, iterations=30)
        assert tv_objective(out, f, 1.5) <= tv_objective(f, f, 1.5) + 1e-9


class TestDespeckle:
    def _speckled_constant(self, level=0.1, looks=9.0, size=64, seed=0):
        rng = np.random.default_rng(seed)
        return (level * rng.gamma(looks, 1.0 / looks, size=(size, size))
                ).astype(np.float32)

    def test_variance_reduction_on_speckled_constant(self):
        field = self._speckled_constant()
        out = despeckle_values(field)
        assert np.var(out) < 0.25 * np.var(field)

    def test_output_in_unit_interval(self):
        field = self._speckled_constant(level=0.4, seed=1)
        out = despeckle_values(field)
        assert out.dtype == np.float32
        assert np.all(out >= 1e-4) and np.all(out <= 1.0 - 1e-4)

    def test_constant_field_nearly_unchanged(self):
        field = np.full((16, 16), 0.2, dtype=np.float32)
        out = despeckle_values(field)
        assert np.max(np.abs(out.astype(np.float64) - 0.2)) < 1e-6

    def test_flip_commutes_through_despeckle(self):
        field = self._speckled_constant(seed=2, size=32)
        a = despeckle_values(field[:, ::-1])[:, ::-1]
        b = despeckle_values(field)
        assert np.array_equal(a, b)

    def test_stack_despeckle_preserves_metadata(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.05, 0.3, size=(3, 2, 16, 16)).astype(np.float32)
        stack = RasterStack(values, ["2024-01-01", "2024-01-13", "2024-01-25"])
        out = despeckle_stack(stack)
        assert out.timestamps == stack.timestamps
        assert out.pol_names == stack.pol_names
        assert out.values.shape == stack.values.shape

    def test_deterministic(self):
        field = self._speckled_constant(seed=5)
        a = despeckle_values(field)
        b = despeckle_values(field)
        assert np.array_equal(a, b)

    def test_live_peak_below_three_float64_copies(self, monkeypatch):
        # the float32 output and, per worker, one run's float64 buffers: at most
        # three float32 stacks however many cores there are, also where a slice
        # is larger than a run's pixel budget and each run holds one slice
        monkeypatch.setattr(native, "usable_cores", lambda: 8)
        cfg = PreprocessConfig(tv_iterations=1)   # the buffers do not depend on it
        for size in (128, 160, 512):
            values = np.random.default_rng(6).uniform(0.01, 0.5, size=(11, 2, size, size))
            values = values.astype(np.float32)
            despeckle_values(values[:1], cfg)   # settle lazy numpy state
            tracemalloc.start()
            try:
                despeckle_values(values, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 3 * values.nbytes, size

    def test_input_left_as_it_was(self):
        values = np.random.default_rng(7).uniform(-0.5, 1.5, size=(2, 8, 8))
        kept = values.copy()
        despeckle_values(values)
        np.testing.assert_array_equal(values, kept)

    # SHA-256 of the float32 output for fixed inputs, each with values outside
    # (0, 1) for both clips; a rewrite of despeckle_values that keeps its bits
    # keeps these
    PINNED = {
        "float32": "e5e24fdfca8d842552aa193b710745c3c3b98f8aa488c710d0781737ce7ebef2",
        "float32-weight-0": "d10beb8b6c134e14839b5ae140049a75ef9b12873ff7b638d82519de515df58d",
        "float64": "1dc26cb775e5bd8037260c0c406e383abd1f575b1641c52af89d180d95ce3661",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_output_bytes_pinned(self, case):
        rng = np.random.default_rng(25)
        values = (0.2 * rng.gamma(4.0, 0.25, size=(3, 2, 24, 20))).astype(np.float32)
        values.flat[:4] = (0.0, 1.0, 1.5, -0.25)
        cfg = PreprocessConfig(tv_weight_db=0.0) if case == "float32-weight-0" else None
        if case == "float64":
            values = 0.2 * rng.gamma(4.0, 0.25, size=(2, 2, 16, 24))
            values.flat[:2] = (0.0, 2.0)
        out = despeckle_values(values, cfg)
        assert out.dtype == np.float32 and out.shape == values.shape
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.PINNED[case]


class TestConfig:
    def test_defaults_valid(self):
        PreprocessConfig()

    def test_bad_step_rejected(self):
        with pytest.raises(ValidationError):
            PreprocessConfig(tv_step=0.3)
        with pytest.raises(ValidationError):
            PreprocessConfig(tv_step=0.0)

    def test_bad_iterations_rejected(self):
        with pytest.raises(ValidationError):
            PreprocessConfig(tv_iterations=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            PreprocessConfig(tv_weight_db=-1.0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        # the per-slice descent safeguard would hand every slice back unchanged,
        # so despeckling would silently write its input
        stack = RasterStack(np.full((3, 2, 4, 4), 0.2, dtype=np.float32),
                            ["2024-01-01", "2024-01-13", "2024-01-25"])
        with pytest.raises(ValidationError, match="^tv_weight_db must be finite"):
            despeckle_stack(stack, PreprocessConfig(tv_weight_db=weight))
