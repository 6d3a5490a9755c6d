"""Dense float64 tensors with reverse-mode differentiation.

Every value the model touches lives in a :class:`Tensor`. An operation
with a tracked input records its inputs and a local gradient rule on the
produced tensor. Under :func:`no_grad` it records nothing: ``_make``
returns a bare untracked Tensor without looking at the parents, and a
node skips the arrays only its backward reads (a ReLU's ``active`` mask,
for one). ``backward`` on a scalar loss walks that record once in
reverse topological order, accumulates gradients into every tracked leaf
reachable from the loss, and releases each interior node once its rule
has run, so a graph can be differentiated only once. Gradients from
multiple uses sum; clearing them between optimizer steps is the caller's
job (see ``zero_grad``).

The public ops are ``linear`` (with an optional ReLU) and
``cross_entropy``, which reads ``one_hot`` rows. Each of the encoder's
layer functions (in ``graph``, ``temporal``, ``codebook`` and ``model``)
takes Tensors and makes its own node through ``_make``, whose rule calls
the layer's named backward; the head is two ``linear`` nodes.

Every backward rule follows one idiom. It hands each input its gradient
through ``_accumulate``, which ignores an untracked input, so a rule
never tests ``.tracked`` itself. An input's first gradient is copied,
since the array may be a view or the rule may read it again, unless the
rule passes ``owned=True``: then the input adopts the array. A rule
passes it only for an array it has just allocated and reads no more (a
matmul result, a ``_scatter_add`` output, a bias sum through
``_accumulate_sum``, or the gate's own dropped gradient), so no two
tensors ever share a ``.grad``. The weight, bias and input gradients of
``x @ w + b`` go through ``_linear_grads``. Row sums by index go through
``_scatter_add``: an ``np.bincount`` over the flat ``row·d + column``
positions that ``_flat_index`` builds for that call, which adds the
elements of each position in row order onto zero, as ``np.add.at`` did,
so it keeps its bytes. ``_softmax`` is the one numpy softmax.

``backward`` is the one reverse-mode walk, for the encoder's layers as
for the head and the loss. Its depth-first search explores a node's last
parent first. The order it gives fixes the order in which a tensor with
three or more consumers sums its gradient, so another order changes the
last bits.

A node keeps alive until backward only what its backward cannot rebuild
from its parents. ``linear`` keeps no copy of the concatenation of its
inputs: the backward evaluates the forward's own expression again on the
parents' ``.data``, which the parents keep anyway, so it gets the same
values and the same bits. Its ReLU mask is read from the output as
``out > 0.0``, exactly where the pre-activation was positive.
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
    """One op's output. Under ``no_grad`` it is a bare untracked Tensor; else it
    records its op name, and its parents and gradient rule if one is tracked."""
    out = Tensor(data)
    if not _grad_enabled:
        return out
    out._op = op
    for p in parents:
        if p.tracked:
            out.tracked, out._parents, out._backward = True, tuple(parents), rule
            break
    return out


def _accumulate(t: Tensor, grad: np.ndarray, owned: bool = False) -> None:
    """Add ``grad`` into ``t.grad``; an untracked ``t`` takes no gradient.

    An ``owned`` ``grad`` is an array the rule has just allocated and reads
    no more, so a first gradient adopts it; any other is copied.
    """
    if not t.tracked:
        return
    if grad.shape != t.data.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match tensor shape {t.shape}")
    if t.grad is None:
        if owned:
            t.grad = grad
        else:
            t.grad = np.empty_like(t.data)
            np.copyto(t.grad, grad)
    else:
        t.grad += grad


def _accumulate_sum(t: Tensor, grad: np.ndarray) -> None:
    """Add the column sums of the (n, d) ``grad`` into the (d,) bias ``t``'s
    ``.grad``; the sum is a fresh array, so ``t`` adopts it."""
    _accumulate(t, grad.sum(axis=0), owned=True)


def _linear_grads(x: np.ndarray, w: Tensor, b: Tensor, g: np.ndarray) -> np.ndarray:
    """Add the gradients of ``x @ w + b`` into ``w`` and ``b``, given the
    output gradient ``g``; return the input gradient ``g @ w.T``."""
    _accumulate(w, np.matmul(x.T, g), owned=True)
    _accumulate_sum(b, g)
    return np.matmul(g, w.data.T)


def _flat_index(index: np.ndarray, width: int) -> np.ndarray:
    """The flat positions ``index * width + column`` of every element of the
    rows ``index`` names in an (n, width) array, row by row."""
    return (index.reshape(-1, 1) * width + np.arange(width)).reshape(-1)


def _scatter_add(shape: tuple, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` (n, d) with each row of ``rows`` added at the row
    ``index`` names for it."""
    if not len(index):  # bincount would return integer zeros
        return np.zeros(shape)
    return np.bincount(_flat_index(index, shape[1]), weights=rows.reshape(-1),
                       minlength=shape[0] * shape[1]).reshape(shape)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``x``, which it returns."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


# -- ops -----------------------------------------------------------------

def _linear_forward(xs: Sequence[np.ndarray], w: Tensor, b: Tensor,
                    relu: bool = False) -> np.ndarray:
    """``concatenate(xs, axis=1) @ w + b``, then ``max(., 0)`` if ``relu``."""
    out = np.matmul(np.concatenate(xs, axis=1), w.data) + b.data
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _linear_backward(g: np.ndarray, parts: Sequence[Tensor], w: Tensor, b: Tensor,
                     out: np.ndarray, relu: bool = False) -> None:
    """The rule of ``_linear_forward(parts' data, w, b, relu)``, whose output
    is ``out``: add the gradients of ``w``, ``b`` and each part, in order."""
    if relu:
        # out > 0 exactly where the pre-activation was
        g = g * (out > 0.0)
    _accumulate_parts(parts, _linear_grads(np.concatenate([p.data for p in parts], axis=1),
                                           w, b, g))


def _accumulate_parts(parts: Sequence[Tensor], g: np.ndarray) -> None:
    """Hand each of ``parts``, side by side in ``g``'s columns, its columns."""
    start = 0
    for p in parts:
        _accumulate(p, g[:, start:start + p.shape[1]])
        start += p.shape[1]


def linear(parts: Sequence[Tensor], w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``concatenate(parts, axis=1) @ w + b``, then ``max(., 0)`` if ``relu``,
    as one node. The backward pass evaluates the same numpy expressions as
    separate matmul, add and relu nodes would, so results match that chain
    bit for bit."""
    widths = []
    for p in parts:
        shape = p.data.shape
        if len(shape) != 2 or shape[0] != parts[0].data.shape[0]:
            break
        widths.append(shape[1])
    if (not parts or len(widths) != len(parts) or w.data.ndim != 2
            or sum(widths) != w.data.shape[0] or b.data.shape != w.data.shape[1:]):
        raise ShapeError(f"linear shapes incompatible: {[p.shape for p in parts]} "
                         f"@ {w.shape} + {b.shape}")
    out = _linear_forward([p.data for p in parts], w, b, relu)
    return _make(out, (*parts, w, b), "linear",
                 lambda g: _linear_backward(g, parts, w, b, out, relu))


# -- losses --------------------------------------------------------------

def one_hot(labels, n_classes: int) -> np.ndarray:
    """(n, n_classes) float64 rows, each 1.0 at its integer label; a label
    outside [0, n_classes) is refused."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-d, got shape {labels.shape}")
    bad = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if len(bad):
        i = bad[0]
        raise ContractError(f"label {labels[i]} at index {i} outside [0, {n_classes})")
    onehot = np.zeros((len(labels), n_classes), dtype=np.float64)
    onehot[np.arange(len(labels)), labels] = 1.0
    return onehot


def cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """Mean negative log likelihood of the classes ``onehot`` marks (see
    ``one_hot``), as one node whose numpy steps round as separate
    log-softmax, pick, sum and scale ops would."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-d logits, got {logits.shape}")
    if onehot.shape != logits.shape:
        raise ShapeError(f"one-hot labels shape {onehot.shape} does not match "
                         f"logits {logits.shape}")
    n, c = logits.shape
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def bw(g):
        g_rows = np.broadcast_to(g * (-1.0 / n), (n, c)) * onehot
        _accumulate(logits, g_rows - np.exp(log_probs) * g_rows.sum(axis=1, keepdims=True))

    return _make((log_probs * onehot).sum() * (-1.0 / n), (logits,), "cross_entropy", bw)


# -- backward pass -------------------------------------------------------

def _tracked_parents(node: Tensor) -> list[Tensor]:
    if node._op and not node._parents:
        raise ContractError(f"backward over a released graph: the {node._op!r} node "
                            f"was freed by an earlier backward")
    return [p for p in node._parents if p.tracked]


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/dx into ``.grad`` of every tracked leaf, releasing
    each interior node (``grad`` None, no rule, no inputs) once its rule has
    run. An untracked loss or an already released graph is refused.

    The rules run in the reverse of a depth-first post-order from the loss
    that explores a node's last tracked parent first: every node runs after
    all the nodes that consume it."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.tracked:
        raise ContractError("backward needs a loss that depends on a tracked tensor; "
                            "this one is untracked (built from constants or under no_grad)")
    order: list[Tensor] = []
    seen: set = set()
    stack: list = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in _tracked_parents(node):
            if parent not in seen:
                stack.append((parent, False))
    del seen  # ``order`` alone keeps the nodes now
    _accumulate(loss, np.ones_like(loss.data), owned=True)
    # popping drops this list's reference, so released nodes free their arrays
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node.grad, node._backward, node._parents = None, None, ()


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
