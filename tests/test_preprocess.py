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
from sardist.preprocess import (_aligned_empty, _tv_solve, CLIP_EPS, PreprocessConfig,
                                clip_unit, despeckle_stack, despeckle_values, logit, to_logit)
from sardist.raster import RasterStack
from sardist.synth import SynthConfig, generate_scene


class TestClip:
    def test_boundary_values(self):
        assert clip_unit(np.float64(0.0)) == 1e-4
        assert clip_unit(np.float64(1.0)) == 1.0 - 1e-4
        assert clip_unit(np.float64(0.5)) == 0.5


def logistic(y):
    """1 / (1 + exp(-y)) in float64, the inverse the logit tests check against."""
    y = np.asarray(y, dtype=np.float64)
    e = np.exp(-np.abs(y))
    return np.where(y >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class TestLogit:
    def test_symmetry_point(self):
        assert logit(np.float64(0.5)) == 0.0

    def test_ln_nine(self):
        assert abs(logit(np.float64(0.9)) - math.log(9.0)) < 1e-12

    def test_roundtrip_specific_points(self):
        for x in (0.01, 0.3, 0.99):
            assert abs(logistic(logit(np.float64(x))) - x) < 1e-12

    def test_roundtrip_on_reals(self):
        # beyond |y| ~ 9.1 the float64 quantization of 1-x near 1.0 caps the
        # achievable accuracy, so tight bounds only hold inside that range
        y = np.linspace(-8.0, 8.0, 2001)
        back = logit(logistic(y))
        assert np.max(np.abs(back - y)) < 1e-12
        y = np.linspace(-9.22, 9.22, 2001)   # the clipped pipeline's range
        back = logit(logistic(y))
        assert np.max(np.abs(back - y)) < 3e-12

    def test_roundtrip_saturates_gracefully(self):
        # past y ~ 37 the logistic rounds to 1.0, where logit is undefined;
        # to_logit clips both tails onto the ends of the pipeline's range
        y = np.linspace(-37.5, 37.5, 101)
        x = logistic(y)
        assert x[0] < CLIP_EPS and x[-1] == 1.0
        back = to_logit(x)
        assert np.all(np.isfinite(back)) and np.all(np.diff(back) >= 0)
        assert back[0] == logit(np.float64(CLIP_EPS))
        assert back[-1] == logit(np.float64(1.0 - CLIP_EPS))

    def test_roundtrip_from_unit_interval(self):
        x = np.concatenate([np.linspace(1e-4, 1.0 - 1e-4, 4001),
                            [1e-9, 1.0 - 1e-9]])
        back = logistic(logit(x))
        assert np.max(np.abs(back - x)) < 1e-12

    def test_domain_violation_rejected(self):
        with pytest.raises(ValidationError):
            logit(np.array([0.0, 0.5]))
        with pytest.raises(ValidationError):
            logit(np.array([0.5, 1.0]))

    @given(st.floats(min_value=1e-4, max_value=1.0 - 1e-4))
    @settings(max_examples=200)
    def test_roundtrip_property(self, x):
        assert abs(float(logistic(logit(np.float64(x)))) - x) < 1e-9


class TestToLogit:
    # SHA-256 of to_logit of fixed stacks holding exact 0.0 and 1.0 and values
    # past both ends of (0, 1), recorded when it still clipped and transformed
    # through temporaries; an in-place rewrite keeps these
    PINNED = {
        "float32": "e81c5b8fa0eec7e262aca531fd2487c74317bb37149fce6602dc48cb5b2c3c9a",
        "float64": "e9ee869d276004addd841bd92c27c2e5bb674d9f902682f9bbb8d934ef12f726",
    }

    @staticmethod
    def _values(dtype):
        rng = np.random.default_rng(32)
        values = rng.uniform(-0.25, 1.25, size=(3, 2, 24, 20)).astype(np.float32)
        if dtype == "float64":
            values = rng.uniform(-0.25, 1.25, size=(3, 2, 24, 20))
        values.flat[:4] = (0.0, 1.0, 0.5, 1e-5)
        return values

    @pytest.mark.parametrize("dtype", sorted(PINNED))
    def test_output_bytes_pinned(self, dtype):
        values = self._values(dtype)
        kept = values.copy()
        out = to_logit(values)
        assert out.dtype == values.dtype and out.shape == values.shape
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.PINNED[dtype]
        np.testing.assert_array_equal(values, kept)

    def test_peak_two_stacks(self):
        # the clipped copy, which log overwrites, and log1p(-x)'s buffer, which takes the result
        values = np.random.default_rng(6).uniform(0.01, 0.99, size=(9, 2, 128, 128))
        values = values.astype(np.float32)
        to_logit(values[:1])   # settle lazy numpy state
        tracemalloc.start()
        try:
            to_logit(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * values.nbytes


# ---------------------------------------------------------------------------
# reference TV solver: one allocating solve per flip orientation, written as
# plainly as the math; the kernel, `_tv_solve`, must match it byte for byte
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


def _solve_once(f, weight, iterations, step):
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
    """The mean of the four flip orientations' solves, in f's float dtype."""
    f = np.asarray(f)
    a = _solve_once(f, weight, iterations, step)
    b = _solve_once(f[..., :, ::-1], weight, iterations, step)[..., :, ::-1]
    c = _solve_once(f[..., ::-1, :], weight, iterations, step)[..., ::-1, :]
    d = _solve_once(f[..., ::-1, ::-1], weight, iterations, step)[..., ::-1, ::-1]
    return 0.25 * ((a + b) + (c + d))


def tv_kernel(f, weight, iterations=50, step=0.25):
    """`_tv_solve` of every (..., H, W) slice of f in one call, in the linear domain and
    f's float dtype."""
    f = np.array(f, order="C")   # a contiguous copy, also of a strided f
    height, width = f.shape[-2:]
    u = np.empty_like(f)
    _tv_solve(f.reshape(-1), u.reshape(-1), weight, iterations, step, width, height * width,
              np.empty(7 * f.size + 2 * width, f.dtype))
    return u


class TestTvKernel:
    # single slices, stacks of many small slices and of slices of over 2^14
    # pixels; 1xN, Nx1 and 1x1 make whole rows or columns edges
    SHAPES = [(16, 16), (11, 2, 16, 16), (3, 2, 64, 64), (2, 50, 99), (2, 131, 129), (1, 9),
              (9, 1), (1, 1), (7, 5)]
    SOLVES = [{}, {"iterations": 1}, {"iterations": 7, "step": 0.1}]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kwargs", SOLVES)
    def test_bytes_equal_reference(self, shape, kwargs, dtype=np.float64):
        f = np.random.default_rng(sum(shape)).normal(-10.0, 3.0, size=shape).astype(dtype)
        out = tv_kernel(f, 1.5, **kwargs)
        assert out.shape == f.shape and out.dtype == dtype
        assert out.tobytes() == reference_tv_denoise(f, 1.5, **kwargs).tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kwargs", SOLVES)
    def test_bytes_equal_reference_in_float32(self, shape, kwargs):
        # the dtype `despeckle_values` solves in
        self.test_bytes_equal_reference(shape, kwargs, np.float32)

    def test_safeguard_decides_per_slice(self):
        # finite input never trips the safeguard; a NaN makes its slice's
        # objective NaN, and only that slice may come back undenoised
        f = np.random.default_rng(6).normal(-10.0, 3.0, size=(2, 12, 12))
        f[1, 3, 4] = np.nan
        out = tv_kernel(f, weight=1.5)
        assert out[0].tobytes() == tv_kernel(f[0], weight=1.5).tobytes()
        assert not np.array_equal(out[0], f[0])
        assert np.array_equal(out[1], f[1], equal_nan=True)

    def test_empty_slices_rejected(self):
        with pytest.raises(ValidationError):
            despeckle_values(np.zeros((2, 0, 4)))

    @pytest.mark.parametrize("solve", [despeckle_values], ids=["despeckle_values"])
    def test_empty_stack_rejected(self, solve):
        with pytest.raises(ValidationError, match=r"got shape \(0, 2, 16, 16\)$"):
            solve(np.zeros((0, 2, 16, 16), np.float32))

    # 16 float32s are one cache line; 5,632 x 7 + 32 is the scratch of one
    # 11x2x16x16 corpus sequence
    @pytest.mark.parametrize("n", [1, 7, 8, 15, 16, 1000, 5632 * 7 + 32])
    def test_aligned_buffer(self, n):
        for _ in range(4):   # several allocations, so not one lucky placement
            buf = _aligned_empty(n)
            assert buf.dtype == np.float32 and buf.shape == (n,)
            assert buf.flags.writeable and buf.flags.c_contiguous
            assert buf.ctypes.data % 64 == 0
            buf[:] = 1.0


def whole_stack_despeckle(values, dtype=np.float32):
    """despeckle_values as one chain in `dtype` over the whole stack around one kernel call;
    at float32, the default, the same bits, at float64 the chain float32 approximates."""
    db = 10.0 * np.log10(np.clip(np.array(values, dtype=dtype), CLIP_EPS, 1.0 - CLIP_EPS))
    back = 10.0 ** (tv_kernel(db, 1.5) / 10.0)
    return np.clip(back, CLIP_EPS, 1.0 - CLIP_EPS)


@pytest.fixture
def solve_threads(monkeypatch):
    """`expect(workers)`: the set of ids of the threads that call `_tv_solve` from then
    on. Each thread's first call waits at a barrier until `workers` threads have made
    one, so no worker can finish, and its idle thread take another's task, before
    every worker has started; too few threads break the barrier after 60 s."""
    solve, state = preprocess._tv_solve, {}

    def recording_solve(*args):
        if threading.get_ident() not in state["threads"]:
            state["threads"].add(threading.get_ident())
            state["barrier"].wait()
        solve(*args)
    monkeypatch.setattr(preprocess, "_tv_solve", recording_solve)

    def expect(workers: int) -> set:
        state.update(threads=set(), barrier=threading.Barrier(workers, timeout=60))
        return state["threads"]
    expect(1)
    return expect


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
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # hand the GIL between workers as often as possible
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(native, "usable_cores", lambda: workers)
                threads = solve_threads(workers)
                assert despeckle_values(values).tobytes() == expected
                assert len(threads) == workers
        finally:
            sys.setswitchinterval(switch)

    def test_workers_capped_by_memory(self, monkeypatch, solve_threads):
        # with 1,024-pixel runs a worker's f, u, scratch and slack take 9,328
        # float32s, and two float32 copies of the stack hold the workers'
        # buffers: 9 slices of 32x32 run 1 worker, 10 run 2, 19 run 4 and 37
        # all 8 cores
        monkeypatch.setattr(preprocess, "_CHUNK_PX", 1024)
        monkeypatch.setattr(native, "usable_cores", lambda: 8)
        for slices, workers in ((9, 1), (10, 2), (19, 4), (37, 8)):
            threads = solve_threads(workers)
            despeckle_values(np.full((slices, 32, 32), 0.2, np.float32), PreprocessConfig(
                tv_iterations=1))
            assert len(threads) == workers

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
        out = tv_kernel(u, weight=1.5)
        assert np.max(np.abs(out - u)) < 1e-6

    def test_objective_descends_on_noise(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            f = rng.normal(scale=2.0, size=(24, 24))
            out = tv_kernel(f, weight=1.5)
            assert _objective(out, f, 1.5) <= _objective(f, f, 1.5)

    @pytest.mark.parametrize("shape", [(20, 20), (3, 2, 20, 20)], ids=["slice", "stack"])
    @pytest.mark.parametrize("axes", [(-1,), (-2,), (-2, -1)], ids=["x", "y", "xy"])
    def test_flip_equivariance_exact(self, shape, axes):
        # each slice is solved once, so equivariance must hold in the solver
        f = np.random.default_rng(1).normal(size=shape)
        out = tv_kernel(f, weight=1.5)
        flipped = np.flip(tv_kernel(np.flip(f, axes), weight=1.5), axes)
        assert out.tobytes() == flipped.tobytes()

    def test_zero_weight_is_identity(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(8, 8))
        assert np.array_equal(tv_kernel(f, weight=0.0), f)

    def test_stacked_slices_match_individual(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(3, 2, 12, 12))
        out = tv_kernel(f, weight=1.0)
        for i in range(3):
            for j in range(2):
                single = tv_kernel(f[i, j], weight=1.0)
                assert np.array_equal(out[i, j], single)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_descent_property(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(scale=3.0, size=(10, 10))
        out = tv_kernel(f, weight=1.5, iterations=30)
        assert _objective(out, f, 1.5) <= _objective(f, f, 1.5) + 1e-9


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
        # the float32 output and, per worker, one run's float32 buffers: at most
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

    @pytest.mark.parametrize("seed", range(4))
    def test_within_2e3_db_of_a_float64_chain(self, seed):
        # float32 resolves the [-40, 0] dB of a clipped slice to about 4e-6 dB,
        # and 50 iterations of its rounding keep the output this close
        scene, _ = generate_scene(SynthConfig(height=64, width=64, seed=seed))
        out = despeckle_values(scene.values)
        exact = whole_stack_despeckle(scene.values, np.float64)
        assert np.max(np.abs(10.0 * np.log10(out / exact))) <= 2e-3

    def test_input_left_as_it_was(self):
        values = np.random.default_rng(7).uniform(-0.5, 1.5, size=(2, 8, 8))
        kept = values.copy()
        despeckle_values(values)
        np.testing.assert_array_equal(values, kept)

    # SHA-256 of the float32 output for fixed inputs, each with values outside
    # (0, 1) for both clips, from the float32 chain; a rewrite of
    # despeckle_values that keeps its bits keeps these
    PINNED = {
        "float32": "30acffb7a0635ad349149cb0f83fad5326fa9bc41a2f80ca7165bad5712d6978",
        "float32-weight-0": "b4a844d2670f9681902cc64ff2c73eebdb30abc3d832ec9717b2c8cc4e41d4f0",
        "float64": "0ace0a510c187a7224519d28529397015cec9c3700823d7c628a5bc808ae49dc",
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
