"""Dense float64 tensors with reverse-mode differentiation.

Every value the model touches lives in a :class:`Tensor`. Operations
record their inputs and a local gradient rule on the produced tensor;
``backward`` on a scalar loss walks that record once in reverse
topological order and accumulates gradients into every tracked tensor
reachable from the loss. Gradients from multiple uses sum; clearing them
between optimizer steps is the caller's job (see ``zero_grad``).

Only the operations the model actually needs are provided. Broadcasting
follows standard dense-array semantics.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """An operation was called outside its contract."""


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Dense float64 array that can participate in differentiation."""

    __slots__ = ("data", "grad", "tracked", "_parents", "_backward", "_op")

    def __init__(self, data, tracked: bool = False, _parents: tuple = (), _op: str = ""):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.tracked = bool(tracked)
        self._parents = _parents
        self._backward = None
        self._op = _op

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, tracked={self.tracked}, op={self._op!r})"


def _make(data: np.ndarray, parents: Sequence[Tensor], op: str) -> Tensor:
    tracked = any(p.tracked for p in parents)
    out = Tensor(data, tracked=tracked, _parents=tuple(parents), _op=op)
    return out


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.tracked:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += grad


# -- arithmetic --------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = _make(a.data + b.data, (a, b), "add")

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    out._backward = bw
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _make(a.data - b.data, (a, b), "sub")

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    out._backward = bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _make(a.data * b.data, (a, b), "mul")

    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    out._backward = bw
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _make(a.data / b.data, (a, b), "div")

    def bw(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    out._backward = bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out = _make(np.matmul(a.data, b.data), (a, b), "matmul")

    def bw(g):
        _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    out._backward = bw
    return out


def linear(parts: Sequence[Tensor], w: Tensor, b: Tensor) -> Tensor:
    """``concatenate(parts, axis=1) @ w + b`` as one node. The backward pass
    evaluates the same numpy expressions as separate matmul and add nodes
    would, so results match that chain bit for bit."""
    if (not parts or w.ndim != 2
            or any(p.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts)
            or sum(p.shape[1] for p in parts) != w.shape[0]):
        raise ShapeError(f"linear shapes incompatible: {[p.shape for p in parts]} "
                         f"@ {w.shape}")
    widths = [p.shape[1] for p in parts]
    x = np.concatenate([p.data for p in parts], axis=1)
    out = _make(np.matmul(x, w.data) + b.data, (*parts, w, b), "linear")

    def bw(g):
        gx = np.matmul(g, w.data.T)
        start = 0
        for p, width in zip(parts, widths):
            _accumulate(p, gx[:, start:start + width])
            start += width
        _accumulate(w, np.matmul(x.T, g))
        _accumulate(b, _unbroadcast(g, b.shape))

    out._backward = bw
    return out


# -- elementwise nonlinearities ----------------------------------------

def relu(a: Tensor) -> Tensor:
    out = _make(np.maximum(a.data, 0.0), (a,), "relu")

    def bw(g):
        _accumulate(a, g * (a.data > 0.0))

    out._backward = bw
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so neither branch overflows
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    out = _make(s, (a,), "sigmoid")

    def bw(g):
        _accumulate(a, g * s * (1.0 - s))

    out._backward = bw
    return out


def softplus(a: Tensor) -> Tensor:
    # ln(1 + e^x) without overflow: x + log1p(e^-x) on the positive branch
    x = a.data
    val = np.where(x > 0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(-np.abs(x))))
    out = _make(val, (a,), "softplus")

    def bw(g):
        _accumulate(a, g * _sigmoid(x))

    out._backward = bw
    return out


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = _make(e, (a,), "exp")

    def bw(g):
        _accumulate(a, g * e)

    out._backward = bw
    return out


def sin(a: Tensor) -> Tensor:
    out = _make(np.sin(a.data), (a,), "sin")

    def bw(g):
        _accumulate(a, g * np.cos(a.data))

    out._backward = bw
    return out


def _check_axis(a: Tensor, axis: int) -> int:
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"axis {axis} invalid for shape {a.shape}")
    return axis % a.ndim


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    axis = _check_axis(a, axis)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = _make(s, (a,), "softmax")

    def bw(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        _accumulate(a, s * (g - dot))

    out._backward = bw
    return out


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    axis = _check_axis(a, axis)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = _make(y, (a,), "log_softmax")

    def bw(g):
        _accumulate(a, g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    out._backward = bw
    return out


# -- shape manipulation ------------------------------------------------

def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), "sum")

    def bw(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        _accumulate(a, np.broadcast_to(gg, a.shape).copy())

    out._backward = bw
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = _make(a.data.reshape(shape), (a,), "reshape")

    def bw(g):
        _accumulate(a, g.reshape(a.shape))

    out._backward = bw
    return out


def transpose_last2(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ShapeError(f"transpose_last2 needs rank >= 2, got shape {a.shape}")
    out = _make(np.swapaxes(a.data, -1, -2), (a,), "transpose_last2")

    def bw(g):
        _accumulate(a, np.swapaxes(g, -1, -2))

    out._backward = bw
    return out


# -- indexed row access -------------------------------------------------

def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``a[index]``; duplicate indices are allowed."""
    index = np.asarray(index, dtype=np.int64)
    out = _make(a.data[index], (a,), "gather_rows")

    def bw(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, index, g)
        _accumulate(a, ga)

    out._backward = bw
    return out


def scatter_add_rows(n_rows: int, index: np.ndarray, rows: Tensor) -> Tensor:
    """Sum ``rows`` into an ``n_rows`` output at positions ``index``.

    Rows of the output not named by any index are zero (the empty-sum
    convention used for isolated graph nodes).
    """
    index = np.asarray(index, dtype=np.int64)
    if rows.ndim != 2:
        raise ShapeError(f"scatter_add_rows expects 2-d rows, got {rows.shape}")
    data = np.zeros((n_rows, rows.shape[1]), dtype=np.float64)
    np.add.at(data, index, rows.data)
    out = _make(data, (rows,), "scatter_add_rows")

    def bw(g):
        _accumulate(rows, g[index])

    out._backward = bw
    return out


def scatter_rows(base: Tensor, index: np.ndarray, rows: Tensor) -> Tensor:
    """Copy of ``base`` with rows at ``index`` replaced by ``rows``.

    Indices must be unique: each target row is written exactly once.
    """
    index = np.asarray(index, dtype=np.int64)
    if len(np.unique(index)) != len(index):
        raise ContractError("scatter_rows requires unique indices")
    data = base.data.copy()
    data[index] = rows.data
    out = _make(data, (base, rows), "scatter_rows")

    def bw(g):
        gb = g.copy()
        gb[index] = 0.0
        _accumulate(base, gb)
        _accumulate(rows, g[index])

    out._backward = bw
    return out


# -- norms -------------------------------------------------------------

def l2_norm(a: Tensor, axis: int = -1, keepdims: bool = True) -> Tensor:
    axis = _check_axis(a, axis)
    n = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=keepdims))
    out = _make(n, (a,), "l2_norm")

    def bw(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        nn = n if keepdims else np.expand_dims(n, axis)
        # subgradient 0 at the origin keeps zero rows finite
        _accumulate(a, gg * a.data / np.maximum(nn, 1e-300))

    out._backward = bw
    return out


# -- losses --------------------------------------------------------------

def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log likelihood of integer class labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-d logits, got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    for i, lab in enumerate(labels):
        if not 0 <= lab < c:
            raise ContractError(f"label {lab} at index {i} outside [0, {c})")
    onehot = np.zeros((n, c), dtype=np.float64)
    onehot[np.arange(n), labels] = 1.0
    picked = tensor_sum(mul(log_softmax(logits, axis=1), Tensor(onehot)))
    return mul(picked, Tensor(-1.0 / n))


# -- backward pass -------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/dx into ``.grad`` of every tracked tensor."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.tracked:
        return

    # iterative post-order DFS: inputs appear before consumers in `order`
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.tracked and id(parent) not in seen:
                stack.append((parent, False))

    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
