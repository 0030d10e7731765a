"""Reverse-mode autodiff tests.

Every op's backward is checked against central finite differences in
float64, where truncation error is ~h^2 and h=1e-5 leaves ~9 digits of
agreement on these O(1) functions.
"""

import sys
import threading

import numpy as np
import pytest

from sardist.autodiff import (Tensor, dropout, layer_norm, linear, no_grad, relu,
                               softplus, _unbroadcast)
from sardist.inference import SweepConfig, sweep_estimate
from sardist.model import Model, ModelConfig
from sardist.training import nll_loss


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar-valued f at x, elementwise."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f(x)
        flat[i] = keep - h
        down = f(x)
        flat[i] = keep
        out[i] = (up - down) / (2.0 * h)
    return g


def check_gradients(build, *arrays, tol=1e-7):
    """Compare analytic grads of build(*tensors) against finite differences."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    for k, (tensor, array) in enumerate(zip(tensors, arrays)):
        def f(x, k=k):
            args = [Tensor(a.copy()) for a in arrays]
            args[k] = Tensor(x.copy())
            return float(build(*args).data)

        fd = numeric_grad(f, array.copy())
        assert tensor.grad is not None
        assert np.max(np.abs(tensor.grad - fd)) < tol, f"input {k}"


def rand(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def square(t):
    return t * t


class TestArithmetic:
    def test_add_values_and_grads(self):
        check_gradients(lambda a, b: (a + b).sum(), rand(3, 4), rand(3, 4, seed=1))

    def test_add_broadcast(self):
        check_gradients(lambda a, b: square(a + b).sum(),
                        rand(3, 4), rand(4, seed=1))

    def test_scalar_add_and_radd(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = (3.0 + x) + 1.0
        assert np.allclose(y.data, [5.0, 6.0])
        y.sum().backward()
        assert np.allclose(x.grad, [1.0, 1.0])

    def test_neg_sub_rsub(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = 5.0 - (-x) - 1.0
        assert y.data[0] == 6.0
        y.sum().backward()
        assert x.grad[0] == 1.0

    def test_mul_broadcast(self):
        check_gradients(lambda a, b: (a * b).sum(),
                        rand(2, 3, 4), rand(3, 1, seed=1))

    def test_div_both_sides(self):
        b = np.abs(rand(3, 4, seed=1)) + 0.5
        check_gradients(lambda x, y: (x / y).sum(), rand(3, 4), b)

    def test_matmul_plain(self):
        check_gradients(lambda a, b: (a @ b).sum(), rand(3, 4), rand(4, 5, seed=1))

    def test_matmul_batched_broadcast(self):
        a = rand(2, 1, 3, 4)
        b = rand(5, 4, 6, seed=1)
        out = Tensor(a) @ Tensor(b)
        assert out.shape == (2, 5, 3, 6)
        check_gradients(lambda x, y: square(x @ y).sum(), a, b, tol=1e-6)

    def test_linear_is_one_node(self):
        x, w, b = (Tensor(a, requires_grad=True) for a in (rand(3, 4), rand(4, 5), rand(5)))
        y = linear(x, w, b)
        assert y._parents == (x, w, b)
        np.testing.assert_array_equal(y.data, x.data @ w.data + b.data)

    def test_linear_grads_2d(self):
        check_gradients(lambda x, w, b: square(linear(x, w, b)).sum(),
                        rand(3, 4), rand(4, 5, seed=1), rand(5, seed=2))

    def test_linear_grads_batched_bias_summed_over_leading_axes(self):
        x, w, b = rand(2, 3, 4, 5), rand(5, 6, seed=1), rand(6, seed=2)
        check_gradients(lambda x, w, b: square(linear(x, w, b)).sum(), x, w, b, tol=1e-6)
        tb = Tensor(b.copy(), requires_grad=True)
        linear(Tensor(x), Tensor(w), tb).sum().backward()
        np.testing.assert_array_equal(tb.grad, np.full(6, 2.0 * 3 * 4))


class TestNonlinearities:
    def test_relu(self):
        x = np.array([-2.0, -0.5, 0.5, 2.0])
        t = Tensor(x, requires_grad=True)
        y = relu(t)
        assert np.array_equal(y.data, [0.0, 0.0, 0.5, 2.0])
        y.sum().backward()
        assert np.array_equal(t.grad, [0.0, 0.0, 1.0, 1.0])

    def test_log(self):
        x = np.abs(rand(6)) + 0.5
        check_gradients(lambda t: t.log().sum(), x)

    def test_sigmoid_matches_definition(self):
        x = rand(7, seed=3)
        out = Tensor(x).sigmoid().data
        assert np.allclose(out, 1.0 / (1.0 + np.exp(-x)), atol=1e-15)

    def test_sigmoid_stable_on_tails(self):
        x = Tensor(np.array([-800.0, 800.0]))
        out = x.sigmoid().data
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_sigmoid_grad(self):
        check_gradients(lambda t: t.sigmoid().sum(), rand(5, seed=2))

    def test_tanh_grad(self):
        check_gradients(lambda t: t.tanh().sum(), rand(5, seed=4))

    def test_softplus_value_and_grad(self):
        x = rand(6, seed=5)
        out = softplus(Tensor(x)).data
        assert np.allclose(out, np.log1p(np.exp(x)), atol=1e-12)
        check_gradients(lambda t: softplus(t).sum(), x)

    def test_softplus_stable_on_tails(self):
        out = softplus(Tensor(np.array([-800.0, 800.0]))).data
        assert out[0] == 0.0
        assert out[1] == 800.0


class TestReductionsAndShapes:
    def test_sum_all(self):
        check_gradients(lambda t: square(t.sum()), rand(4, 3))

    def test_reshape_roundtrip_grad(self):
        check_gradients(lambda t: square(t.reshape(6, 2)).sum(), rand(3, 4))

    def test_reshape_accepts_tuple(self):
        t = Tensor(rand(3, 4))
        assert t.reshape((2, 6)).shape == (2, 6)

    def test_transpose_inverse_permutation(self):
        x = rand(2, 3, 4)
        t = Tensor(x, requires_grad=True)
        y = t.transpose((2, 0, 1))
        assert y.shape == (4, 2, 3)
        (y * y).sum().backward()
        assert np.allclose(t.grad, 2.0 * x)

    def test_getitem_scatter(self):
        x = rand(4, 5)
        t = Tensor(x, requires_grad=True)
        t[1:3, ::2].sum().backward()
        expected = np.zeros((4, 5))
        expected[1:3, ::2] = 1.0
        assert np.array_equal(t.grad, expected)

    def test_getitem_int_index(self):
        check_gradients(lambda t: square(t[1]).sum(), rand(3, 4))


class TestFusedPrimitives:
    def test_softmax_rows_sum_to_one(self):
        out = Tensor(rand(3, 7, seed=1) * 5.0).softmax().data
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert out.min() > 0.0

    def test_softmax_shift_invariance(self):
        x = rand(2, 5, seed=2)
        a = Tensor(x).softmax().data
        b = Tensor(x + 1000.0).softmax().data
        assert np.allclose(a, b, atol=1e-12)

    def test_softmax_grad(self):
        w = rand(4, seed=9)
        check_gradients(lambda t: (t.softmax() * Tensor(w)).sum(), rand(4, seed=6))

    def test_layer_norm_statistics(self):
        x = Tensor(rand(5, 16, seed=3) * 3.0 + 2.0)
        gamma = Tensor(np.ones(16))
        beta = Tensor(np.zeros(16))
        out = layer_norm(x, gamma, beta).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_layer_norm_grads(self):
        x = rand(3, 8, seed=4)
        gamma = rand(8, seed=5) + 2.0
        beta = rand(8, seed=6)
        w = rand(3, 8, seed=7)

        def build(xs, gs, bs):
            return (layer_norm(xs, gs, bs) * Tensor(w)).sum()

        check_gradients(build, x, gamma, beta, tol=1e-6)


class TestDropout:
    def test_identity_when_not_training(self):
        x = Tensor(rand(4, 4), requires_grad=True)
        assert dropout(x, 0.5, None, train=False) is x
        assert dropout(x, 0.0, None, train=True) is x

    def test_train_mode_needs_rng(self):
        with pytest.raises(ValueError):
            dropout(Tensor(rand(3)), 0.5, None, train=True)

    def test_inverted_scaling_preserves_mean(self):
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.25, np.random.default_rng(0), train=True).data
        kept = out[out > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(out.mean() - 1.0) < 0.01

    def test_seeded_mask_deterministic(self):
        x = Tensor(rand(8, 8))
        a = dropout(x, 0.5, np.random.default_rng(7), train=True).data
        b = dropout(x, 0.5, np.random.default_rng(7), train=True).data
        assert np.array_equal(a, b)


class TestGraphMechanics:
    def test_diamond_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x
        y.sum().backward()
        assert np.allclose(x.grad, [7.0])

    def test_shared_node_two_branches(self):
        x = rand(4)
        y = rand(4, seed=1)
        check_gradients(lambda a, b: (a * b).sum() + square(a + b).sum(), x, y)

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(500):
            y = y * 1.01
        y.sum().backward()
        assert np.allclose(x.grad, [1.01 ** 500])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(rand(3), requires_grad=True).backward()

    def test_no_grad_tracking_without_flag(self):
        x = Tensor(rand(3))
        y = x * 2.0
        assert not y.requires_grad
        z = x * Tensor(rand(3), requires_grad=True)
        assert z.requires_grad

    def test_constants_collect_no_grad(self):
        x = Tensor(rand(3), requires_grad=True)
        c = Tensor(rand(3))
        (x * c).sum().backward()
        assert c.grad is None

    def test_zero_grad_resets(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * 3.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert np.allclose(x.grad, [5.0])


def tracks_grad() -> bool:
    """Whether an op on a trainable tensor records a graph in this thread."""
    return (Tensor(rand(3), requires_grad=True) * 2.0).requires_grad


class TestNoGrad:
    def small_model(self):
        cfg = ModelConfig(d_model=32, num_heads=2, num_layers=2, ff_dim=48, dropout=0.0)
        return Model(cfg, seed=0)

    def test_transformer_forward_bitwise_equal_and_detached(self):
        model = self.small_model()
        x = np.random.default_rng(5).normal(size=(2, 3, 2, 16, 16)).astype(np.float32)
        mu, sigma = model.forward(x)
        with no_grad():
            mu_ng, sigma_ng = model.forward(x)
        assert mu.requires_grad and sigma.requires_grad
        assert np.array_equal(mu.data, mu_ng.data)
        assert np.array_equal(sigma.data, sigma_ng.data)
        for out in (mu_ng, sigma_ng):
            assert not out.requires_grad
            assert out._parents == () and out._backward is None

    def test_flag_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                assert not tracks_grad()
                raise RuntimeError("inside no_grad")
        assert tracks_grad()

    def test_nested_exit_restores_outer_state(self):
        with no_grad():
            with no_grad():
                pass
            assert not tracks_grad()
        assert tracks_grad()

    def test_overlapping_threads_leave_main_thread_on(self):
        # A enters, B enters, A leaves, B leaves: a process-wide flag that
        # saves and restores its previous value would end up off
        inside = threading.Barrier(3, timeout=10)
        a_left = threading.Event()
        seen = {}

        def worker(name):
            with no_grad():
                seen[name] = tracks_grad()
                inside.wait()
                if name == "b":
                    assert a_left.wait(timeout=10)
            if name == "a":
                a_left.set()

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for th in threads:
            th.start()
        inside.wait()
        assert tracks_grad()
        for th in threads:
            th.join(timeout=10)
            assert not th.is_alive()
        assert seen == {"a": False, "b": False}
        assert tracks_grad()

    def test_threaded_sweep_leaves_training_gradients_on(self):
        model = self.small_model()
        frames = np.random.default_rng(1).normal(-2.0, 0.5, size=(4, 2, 24, 24))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sweep_estimate(model, frames.astype(np.float32),
                           SweepConfig(stride=2, batch_size=3, threads=4))
        finally:
            sys.setswitchinterval(interval)
        x = frames[None, :, :, :16, :16].astype(np.float32)
        mu, sigma = model.forward(x[:, :-1])
        nll_loss(mu, sigma, x[:, -1]).backward()
        for name, p in model.params.items():
            assert p.grad is not None, name


class TestDtypeDiscipline:
    def test_python_scalars_keep_float32(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = square((x * 0.5 + 1.0) / 2.0 - 0.25)
        assert y.dtype == np.float32
        y.sum().backward()
        assert x.grad.dtype == np.float32

    def test_nonlinearities_keep_float32(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        for y in (x.sigmoid(), softplus(x), relu(x), x.tanh(), x.softmax()):
            assert y.dtype == np.float32

    def test_layer_norm_keeps_float32(self):
        x = Tensor(np.ones((2, 4), dtype=np.float32))
        gamma = Tensor(np.ones(4, dtype=np.float32))
        beta = Tensor(np.zeros(4, dtype=np.float32))
        assert layer_norm(x, gamma, beta).dtype == np.float32

    def test_float64_stays_float64(self):
        x = Tensor(np.ones(3, dtype=np.float64))
        assert (x * 0.5).dtype == np.float64


class TestUnbroadcast:
    def test_matching_shape_passthrough(self):
        g = rand(3, 4)
        assert _unbroadcast(g, (3, 4)) is g

    def test_leading_axes_summed(self):
        g = np.ones((5, 3, 4))
        out = _unbroadcast(g, (3, 4))
        assert out.shape == (3, 4)
        assert np.allclose(out, 5.0)

    def test_kept_axes_summed_with_keepdims(self):
        g = np.ones((3, 4))
        out = _unbroadcast(g, (3, 1))
        assert out.shape == (3, 1)
        assert np.allclose(out, 4.0)

    def test_mixed_case(self):
        g = np.ones((2, 3, 4))
        out = _unbroadcast(g, (1, 4))
        assert out.shape == (1, 4)
        assert np.allclose(out, 6.0)
