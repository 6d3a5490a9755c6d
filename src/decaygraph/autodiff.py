"""Dense float64 tensors with reverse-mode differentiation.

Every value the model touches lives in a :class:`Tensor`. An operation
with a tracked input records its inputs and a local gradient rule on the
produced tensor; under :func:`no_grad` it records nothing. ``backward``
on a scalar loss walks that record once in reverse topological order,
accumulates gradients into every tracked leaf reachable from the loss,
and releases each interior node once its rule has run, so a graph can
be differentiated only once. Gradients from multiple uses sum; clearing
them between optimizer steps is the caller's job (see ``zero_grad``).

Only the operations the model actually needs are provided, plus
``tensor_sum``, which the gradient tests use to reduce an op's output to
a scalar loss. Broadcasting follows standard dense-array semantics.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

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

    def __init__(self, data, tracked: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.tracked = bool(tracked)
        self._parents: tuple = ()
        self._backward = None
        self._op = ""

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


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph in the block: op outputs are untracked and keep no inputs
    or rule. Process-wide; the previous mode returns on exit or exception."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data: np.ndarray, parents: Sequence[Tensor], op: str, rule: Callable) -> Tensor:
    """One op's output; it keeps its parents and gradient rule only if tracked."""
    out = Tensor(data)
    out._op = op
    if _grad_enabled and any(p.tracked for p in parents):
        out.tracked, out._parents, out._backward = True, tuple(parents), rule
    return out


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    """Add ``grad`` into ``t.grad``; callers pass only tracked tensors."""
    if grad.shape != t.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match tensor shape {t.shape}")
    if t.grad is None:
        # the bits and memory layout of zeros_like(t.data) + grad, without the fill
        t.grad = np.add(grad, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += grad


# -- arithmetic --------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.tracked:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.tracked:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), "add", bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.tracked:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.tracked:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), "sub", bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.tracked:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.tracked:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), "mul", bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")

    def bw(g):
        if a.tracked:
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.tracked:
            _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _make(np.matmul(a.data, b.data), (a, b), "matmul", bw)


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

    def bw(g):
        if any(p.tracked for p in parts):
            gx = np.matmul(g, w.data.T)
            start = 0
            for p, width in zip(parts, widths):
                if p.tracked:
                    _accumulate(p, gx[:, start:start + width])
                start += width
        if w.tracked:
            _accumulate(w, np.matmul(x.T, g))
        if b.tracked:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(np.matmul(x, w.data) + b.data, (*parts, w, b), "linear", bw)


# -- elementwise nonlinearities ----------------------------------------

def relu(a: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, g * (a.data > 0.0))

    return _make(np.maximum(a.data, 0.0), (a,), "relu", bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so neither branch overflows
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)

    def bw(g):
        _accumulate(a, g * s * (1.0 - s))

    return _make(s, (a,), "sigmoid", bw)


def softplus(a: Tensor) -> Tensor:
    # ln(1 + e^x) without overflow: x + log1p(e^-x) on the positive branch
    x = a.data
    tail = np.log1p(np.exp(-np.abs(x)))
    val = np.where(x > 0, x + tail, tail)

    def bw(g):
        _accumulate(a, g * _sigmoid(x))

    return _make(val, (a,), "softplus", bw)


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)

    def bw(g):
        _accumulate(a, g * e)

    return _make(e, (a,), "exp", bw)


def sin(a: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, g * np.cos(a.data))

    return _make(np.sin(a.data), (a,), "sin", bw)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(a, s * (g - dot))

    return _make(s, (a,), "softmax", bw)


# -- shape manipulation ------------------------------------------------

def tensor_sum(a: Tensor) -> Tensor:
    """Sum of every element, as a 0-d tensor."""
    def bw(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _make(a.data.sum(), (a,), "sum", bw)


def reshape(a: Tensor, shape) -> Tensor:
    def bw(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), "reshape", bw)


def transpose_last2(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ShapeError(f"transpose_last2 needs rank >= 2, got shape {a.shape}")

    def bw(g):
        _accumulate(a, np.swapaxes(g, -1, -2))

    return _make(np.swapaxes(a.data, -1, -2), (a,), "transpose_last2", bw)


# -- indexed row access -------------------------------------------------

def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``a[index]``; duplicate indices are allowed."""
    index = np.asarray(index, dtype=np.int64)

    def bw(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, index, g)
        _accumulate(a, ga)

    return _make(a.data[index], (a,), "gather_rows", bw)


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

    def bw(g):
        _accumulate(rows, g[index])

    return _make(data, (rows,), "scatter_add_rows", bw)


def scatter_rows(base: Tensor, index: np.ndarray, rows: Tensor) -> Tensor:
    """Copy of ``base`` with rows at ``index`` replaced by ``rows``.

    Indices must be unique: each target row is written exactly once.
    """
    index = np.asarray(index, dtype=np.int64)
    if len(np.unique(index)) != len(index):
        raise ContractError("scatter_rows requires unique indices")
    data = base.data.copy()
    data[index] = rows.data

    def bw(g):
        if base.tracked:
            gb = g.copy()
            gb[index] = 0.0
            _accumulate(base, gb)
        if rows.tracked:
            _accumulate(rows, g[index])

    return _make(data, (base, rows), "scatter_rows", bw)


# -- losses --------------------------------------------------------------

def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log likelihood of integer class labels, as one node whose
    numpy steps round as separate log-softmax, pick, sum and scale ops would."""
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
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def bw(g):
        g_rows = np.broadcast_to(g * (-1.0 / n), (n, c)) * onehot
        _accumulate(logits, g_rows - np.exp(log_probs) * g_rows.sum(axis=1, keepdims=True))

    return _make((log_probs * onehot).sum() * (-1.0 / n), (logits,), "cross_entropy", bw)


# -- backward pass -------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/dx into ``.grad`` of every tracked leaf, releasing
    each interior node (``grad`` None, no rule, no inputs) once its rule has
    run. An untracked loss or an already released graph is refused."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.tracked:
        raise ContractError("backward needs a loss that depends on a tracked tensor; "
                            "this one is untracked (built from constants or under no_grad)")

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
        if node._op and not node._parents:
            raise ContractError(f"backward over a released graph: the {node._op!r} node "
                                f"was freed by an earlier backward")
        stack.append((node, True))
        for parent in node._parents:
            if parent.tracked and id(parent) not in seen:
                stack.append((parent, False))

    _accumulate(loss, np.ones_like(loss.data))
    # popping drops this list's reference, so released nodes free their arrays
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node.grad, node._backward, node._parents = None, None, ()


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
