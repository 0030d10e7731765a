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

GEMMs: every matrix product, including the fused `linear` (bias added into
the product's own output, one graph node), runs inside `Tensor.__matmul__`,
so wrapping that one method sees all of them.

In-place rule: under `no_grad`, `linear`, `layer_norm` and softmax allocate
their result once and finish it in place. `add`, `scale`, `relu` and
`softplus` allocate nothing when the caller hands an operand over with an
`overwrite_*` flag: the result is written into that operand's array. Hand
over only an array the forward itself just made (a GEMM or primitive
result) that nothing reads afterwards; never a parameter, the caller's
input or a value still in use. With gradients on the flags do nothing: each
primitive builds the same node, on fresh arrays, as the operators do.
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

    def __matmul__(self, other, bias=None):
        """self @ other, plus `bias` (if given) added into the product's own array."""
        o = other if isinstance(other, Tensor) else Tensor(np.asarray(other))
        out_data = np.matmul(self.data, o.data)
        parents = (self, o)
        if bias is not None:
            out_data += bias.data
            parents = (self, o, bias)

        def back(g):
            if self.requires_grad:
                ga = np.matmul(g, np.swapaxes(o.data, -1, -2))
                self.accumulate(_unbroadcast(ga, self.data.shape))
            if o.requires_grad and o.data.ndim == 2 < self.data.ndim:
                # a weight: one 2-D GEMM over every leading row, not a batched product summed
                x = self.data.reshape(-1, self.data.shape[-1])
                o.accumulate(x.T @ g.reshape(-1, g.shape[-1]))
            elif o.requires_grad:
                gb = np.matmul(np.swapaxes(self.data, -1, -2), g)
                o.accumulate(_unbroadcast(gb, o.data.shape))
            if bias is not None and bias.requires_grad:
                bias.accumulate(_unbroadcast(g, bias.data.shape))

        return Tensor(out_data, parents=parents, backward=back)

    # -- pointwise nonlinearities --------------------------------------------

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

    # -- reductions and shape moves -------------------------------------------

    def sum(self):
        """Sum of every element, as a 0-d tensor."""
        out_data = self.data.sum()

        def back(g):
            if self.requires_grad:
                self.accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor(np.asarray(out_data), parents=(self,), backward=back)

    def mean(self):
        """Mean of every element, as a 0-d tensor."""
        return self.sum() * (1.0 / self.data.size)

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
        """Softmax over the last axis (max-shifted, fused backward; one allocation)."""
        out_data = self.data - self.data.max(axis=-1, keepdims=True)
        np.exp(out_data, out=out_data)
        out_data /= out_data.sum(axis=-1, keepdims=True)

        def back(g):
            if self.requires_grad:
                inner = (g * out_data).sum(axis=-1, keepdims=True)
                self.accumulate(out_data * (g - inner))

        return Tensor(out_data, parents=(self,), backward=back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node; the GEMM and the bias add run in `Tensor.__matmul__`."""
    return x.__matmul__(w, b)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine parameters.

    Allocates x - mean and one squared scratch; under no_grad the normalised
    rows are scaled and shifted in place, so the result is the first array.
    """
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat *= inv
    # backward reads xhat, so with a graph the affine step gets its own array
    out_data = np.multiply(xhat, gamma.data, out=None if _grad_mode.enabled else xhat)
    out_data += beta.data

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


def _handed_over(x: Tensor, overwrite: bool) -> np.ndarray | None:
    """The `out=` array for a result: x's own when handed over and no graph is built."""
    return x.data if overwrite and not _grad_mode.enabled else None


def add(x: Tensor, y, overwrite_x: bool = False, overwrite_y: bool = False) -> Tensor:
    """x + y; under no_grad the sum may overwrite x (`overwrite_x`) or y (`overwrite_y`).

    The overwritten operand must already have the result's shape.
    """
    out = _handed_over(x, overwrite_x)
    if out is None and isinstance(y, Tensor):
        out = _handed_over(y, overwrite_y)
    if out is None:
        return x + y
    return Tensor(np.add(x.data, y.data if isinstance(y, Tensor) else x._const(y), out=out))


def scale(x: Tensor, c: float, overwrite_x: bool = False) -> Tensor:
    """x * c for a scalar c; under no_grad `overwrite_x` writes the product into x."""
    out = _handed_over(x, overwrite_x)
    if out is None:
        return x * c
    return Tensor(np.multiply(x.data, x._const(c), out=out))


def relu(x: Tensor, overwrite_x: bool = False) -> Tensor:
    """max(x, 0); under no_grad `overwrite_x` writes the result into x."""
    out_data = np.maximum(x.data, 0, out=_handed_over(x, overwrite_x))

    def back(g):
        if x.requires_grad:
            x.accumulate(g * (x.data > 0))

    return Tensor(out_data, parents=(x,), backward=back)


def softplus(x: Tensor, overwrite_x: bool = False) -> Tensor:
    """log(1 + exp(x)); under no_grad `overwrite_x` writes the result into x."""
    out_data = np.logaddexp(x._const(0), x.data, out=_handed_over(x, overwrite_x))

    def back(g):
        if x.requires_grad:
            x.accumulate(g * np.exp(-np.logaddexp(x._const(0), -x.data)))

    return Tensor(out_data, parents=(x,), backward=back)


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
