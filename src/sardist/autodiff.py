"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tensors wrap ndarrays and record a closure that routes the output gradient
back to their parents; `backward()` runs the closures in reverse topological
order. The op set is exactly what the models need: broadcasting arithmetic,
batched matmul, a few pointwise nonlinearities, reductions, shape moves,
basic slicing, and fused softmax / layer-norm primitives (fused so the
backward pass never differentiates through a max or a sqrt separately).

Dtype discipline: results follow the operand dtype; python scalars do not
promote float32 graphs to float64, so the same graph runs in float32 for
training and float64 for finite-difference checks.

Inference mode: inside `no_grad()` every new tensor is a constant (no
parents, no backward closure, `requires_grad=False`), so a forward pass
keeps no intermediate arrays alive. The mode is per thread: a worker that
enters it never switches gradients off for another thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Build no graph in the calling thread until the block exits."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        if _grad_mode.enabled:
            self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
            self._parents = parents
            self._backward = backward
        else:
            self.requires_grad = False
            self._parents = ()
            self._backward = None

    # -- graph execution ----------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) node into the graph."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def accumulate(self, grad: np.ndarray) -> None:
        # accumulation always builds a new array, so holding a reference is safe
        self.grad = grad if self.grad is None else self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    # -- helpers ------------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _const(self, value) -> np.ndarray:
        return np.asarray(value, dtype=self.data.dtype)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = other if isinstance(other, Tensor) else Tensor(self._const(other))
        out_data = self.data + o.data

        def back(g):
            if self.requires_grad:
                self.accumulate(_unbroadcast(g, self.data.shape))
            if o.requires_grad:
                o.accumulate(_unbroadcast(g, o.data.shape))

        return Tensor(out_data, parents=(self, o), backward=back)

    __radd__ = __add__

    def __neg__(self):
        out_data = -self.data

        def back(g):
            if self.requires_grad:
                self.accumulate(-g)

        return Tensor(out_data, parents=(self,), backward=back)

    def __sub__(self, other):
        o = other if isinstance(other, Tensor) else Tensor(self._const(other))
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + self._const(other)

    def __mul__(self, other):
        o = other if isinstance(other, Tensor) else Tensor(self._const(other))
        out_data = self.data * o.data

        def back(g):
            if self.requires_grad:
                self.accumulate(_unbroadcast(g * o.data, self.data.shape))
            if o.requires_grad:
                o.accumulate(_unbroadcast(g * self.data, o.data.shape))

        return Tensor(out_data, parents=(self, o), backward=back)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, Tensor) else Tensor(self._const(other))
        out_data = self.data / o.data

        def back(g):
            if self.requires_grad:
                self.accumulate(_unbroadcast(g / o.data, self.data.shape))
            if o.requires_grad:
                o.accumulate(_unbroadcast(-g * self.data / (o.data * o.data), o.data.shape))

        return Tensor(out_data, parents=(self, o), backward=back)

    def __matmul__(self, other):
        o = other if isinstance(other, Tensor) else Tensor(np.asarray(other))
        out_data = np.matmul(self.data, o.data)

        def back(g):
            if self.requires_grad:
                ga = np.matmul(g, np.swapaxes(o.data, -1, -2))
                self.accumulate(_unbroadcast(ga, self.data.shape))
            if o.requires_grad:
                gb = np.matmul(np.swapaxes(self.data, -1, -2), g)
                o.accumulate(_unbroadcast(gb, o.data.shape))

        return Tensor(out_data, parents=(self, o), backward=back)

    # -- pointwise nonlinearities --------------------------------------------

    def relu(self):
        out_data = np.maximum(self.data, 0)

        def back(g):
            if self.requires_grad:
                self.accumulate(g * (self.data > 0))

        return Tensor(out_data, parents=(self,), backward=back)

    def log(self):
        out_data = np.log(self.data)

        def back(g):
            if self.requires_grad:
                self.accumulate(g / self.data)

        return Tensor(out_data, parents=(self,), backward=back)

    def sigmoid(self):
        # exp(-softplus(-x)) is stable on both tails
        out_data = np.exp(-np.logaddexp(self._const(0), -self.data))

        def back(g):
            if self.requires_grad:
                self.accumulate(g * out_data * (1.0 - out_data))

        return Tensor(out_data, parents=(self,), backward=back)

    def tanh(self):
        out_data = np.tanh(self.data)

        def back(g):
            if self.requires_grad:
                self.accumulate(g * (1.0 - out_data * out_data))

        return Tensor(out_data, parents=(self,), backward=back)

    def softplus(self):
        out_data = np.logaddexp(self._const(0), self.data)

        def back(g):
            if self.requires_grad:
                sig = np.exp(-np.logaddexp(self._const(0), -self.data))
                self.accumulate(g * sig)

        return Tensor(out_data, parents=(self,), backward=back)

    # -- reductions and shape moves -------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def back(g):
            if not self.requires_grad:
                return
            if axis is None:
                self.accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            gg = g
            if not keepdims:
                gg = np.expand_dims(g, axis)
            self.accumulate(np.broadcast_to(gg, self.data.shape).copy())

        return Tensor(np.asarray(out_data), parents=(self,), backward=back)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.data.shape

        def back(g):
            if self.requires_grad:
                self.accumulate(g.reshape(in_shape))

        return Tensor(out_data, parents=(self,), backward=back)

    def transpose(self, axes):
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def back(g):
            if self.requires_grad:
                self.accumulate(np.ascontiguousarray(g.transpose(inv)))

        return Tensor(out_data, parents=(self,), backward=back)

    def __getitem__(self, idx):
        # basic indexing only (ints and slices); no duplicate positions, so
        # plain slice-assignment is a valid scatter in backward
        out_data = self.data[idx]
        in_shape = self.data.shape

        def back(g):
            if self.requires_grad:
                full = np.zeros(in_shape, dtype=g.dtype)
                full[idx] = g
                self.accumulate(full)

        return Tensor(np.ascontiguousarray(out_data), parents=(self,), backward=back)

    # -- fused primitives ------------------------------------------------------

    def softmax(self):
        """Softmax over the last axis (max-shifted, fused backward)."""
        shifted = self.data - self.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=-1, keepdims=True)

        def back(g):
            if self.requires_grad:
                inner = (g * out_data).sum(axis=-1, keepdims=True)
                self.accumulate(out_data * (g - inner))

        return Tensor(out_data, parents=(self,), backward=back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat = (x.data - mu) * inv
    out_data = xhat * gamma.data + beta.data

    def back(g):
        if gamma.requires_grad:
            lead = tuple(range(g.ndim - 1))
            gamma.accumulate((g * xhat).sum(axis=lead))
        if beta.requires_grad:
            lead = tuple(range(g.ndim - 1))
            beta.accumulate(g.sum(axis=lead))
        if x.requires_grad:
            w = g * gamma.data
            m1 = w.mean(axis=-1, keepdims=True)
            m2 = (w * xhat).mean(axis=-1, keepdims=True)
            x.accumulate(inv * (w - m1 - xhat * m2))

    return Tensor(out_data, parents=(x, gamma, beta), backward=back)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None,
            train: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an RNG")
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    return x * Tensor(keep * np.asarray(1.0 / (1.0 - rate), dtype=x.data.dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(grad.shape, shape)) if s == 1 and gs != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad
