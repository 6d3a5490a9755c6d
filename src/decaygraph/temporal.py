"""Temporal decay encoding and state-aware patient attention.

A learned non-negative rate, produced from the current edge features by
a small MLP (or a single shared scalar for the fixed-rate variant), is
mapped through a kernel to a multiplicative discount on each variable's
hidden state over the elapsed interval. The discounted state is then
merged with the fresh edge feature through a sigmoid gate. From the
second step on, the patient embedding can also attend over its stored
per-variable states before entering the graph network.

The per-variable states of one forward pass live in one :class:`Bank`.
Every ``gated_update`` writes its rows into the bank's one array in place
and returns a Tensor of that array, so every bank Tensor of a forward
after the first shares one array and shows its latest write. No forward
code may therefore read a bank Tensor after a later gate has written.
Each write logs the rows it overwrote; a backward rule that reads the
bank (``node_attention``'s) first rolls back every later write, so it
reads the values its forward read. The gate's backward reads only the
rows it logged itself.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor

DECAY_KERNELS = ("mlp_exp", "exp", "mlp_gaussian", "mlp_linear")


class KernelConfigError(ValueError):
    """Unknown decay kernel name."""


# keeps the exponential kernels strictly positive where float64 exp
# would underflow to 0; adding it is invisible above 1e-290 and 1 + it
# still rounds to exactly 1
UNDERFLOW_FLOOR = 1e-300


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so neither branch overflows
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def decay_factor(e: Tensor, delta_t: np.ndarray, kernel: str,
                 params: dict[str, Tensor]) -> Tensor:
    """Discount in [0, 1] per edge for the elapsed interval, as one node.

    The rate is softplus(relu(e @ w1 + b1) @ w2 + b2), or for the ``exp``
    kernel softplus of one shared scalar, so every kernel's rate is >= 0.
    exp kernels: exp(-rate * dt); gaussian: exp(-(rate * dt)^2); linear:
    max(1 - rate * dt, 0), the only kernel that can reach exactly zero.
    Each interval in ``delta_t`` must be non-negative; the model's batch
    plan checks that once per batch.
    """
    delta_t = np.asarray(delta_t, dtype=np.float64).reshape(-1, 1)
    if kernel not in DECAY_KERNELS:
        raise KernelConfigError(f"decay kernel must be one of {DECAY_KERNELS}, "
                                f"got {kernel!r}")
    if kernel == "exp":
        rate_raw = params["decay.rate_raw"]
        parents = (rate_raw,)
        pre = np.repeat(rate_raw.data, e.shape[0], axis=0)
    else:
        w1, b1 = params["decay.w1"], params["decay.b1"]
        w2, b2 = params["decay.w2"], params["decay.b2"]
        parents = (e, w1, b1, w2, b2)

        def first_layer():
            return np.matmul(e.data, w1.data) + b1.data

        pre = np.matmul(np.maximum(first_layer(), 0.0), w2.data) + b2.data
    # softplus: ln(1 + e^x) without overflow, x + log1p(e^-x) when positive
    tail = np.log1p(np.exp(-np.abs(pre)))
    rate = np.where(pre > 0, pre + tail, tail)
    # the sign sits in the constant: rate * (-dt) rounds exactly as -(rate * dt)
    neg_dt = -delta_t
    neg_scaled = rate * neg_dt
    if kernel == "mlp_linear":
        shifted = neg_scaled + 1.0
        out = np.maximum(shifted, 0.0)
    else:
        arg = neg_scaled
        if kernel == "mlp_gaussian":
            scaled = rate * delta_t
            arg = neg_scaled * scaled
        decayed = np.exp(arg)
        out = decayed + UNDERFLOW_FLOOR

    def bw(g):
        if kernel == "mlp_linear":
            g_rate = g * (shifted > 0.0) * neg_dt
        elif kernel == "mlp_gaussian":
            g_arg = g * decayed
            g_rate = g_arg * scaled * neg_dt + g_arg * neg_scaled * delta_t
        else:
            g_rate = g * decayed * neg_dt
        g_pre = g_rate * _sigmoid(pre)
        if kernel == "exp":
            ad._accumulate(rate_raw, g_pre.sum(axis=0, keepdims=True), owned=True)
            return
        # the hidden layer, rebuilt by the forward's expression
        pre1 = first_layer()
        g_pre1 = ad._linear_grads(np.maximum(pre1, 0.0), w2, b2, g_pre) * (pre1 > 0.0)
        ad._accumulate(e, ad._linear_grads(e.data, w1, b1, g_pre1), owned=True)

    return ad._make(out, parents, "decay_factor", bw)


class Bank:
    """The per-variable hidden states of one forward pass, (B·V, d).

    ``data`` is the one array that every ``gated_update`` writes in place; it
    starts as a copy of ``initial``, whose Tensor stays the first version.
    ``tensor`` is the latest version's Tensor. While grad mode is on, each
    write logs its index and the rows it overwrote, so ``rollback`` can
    restore an earlier version; under ``no_grad`` no backward can read the
    bank, so nothing is logged.
    """

    def __init__(self, initial: Tensor):
        self.data = initial.data.copy()
        self.tensor = initial
        self._undo: list[tuple[np.ndarray, np.ndarray]] = []

    def version(self) -> int:
        """The number of logged writes: ``rollback``'s argument for ``tensor``."""
        return len(self._undo)

    def rollback(self, version: int) -> None:
        """Undo every write after the first ``version``, so ``data`` holds what
        it held when that version's Tensor was made."""
        if version > len(self._undo):
            raise ContractError(f"bank version {version} cannot be restored: the bank "
                                f"was rolled back to version {len(self._undo)}")
        while len(self._undo) > version:
            index, rows = self._undo.pop()
            self.data[index] = rows


def gated_update(bank: Bank, index: np.ndarray, e: Tensor, params: dict[str, Tensor],
                 gamma: Tensor | None = None) -> Tensor:
    """Replace each ``index`` row of ``bank`` by its gated update, as one node.

    The stored state h = bank.data[index], decayed to h * gamma when
    ``gamma`` is given, merges with the fresh edge feature as
    (1 - r) * h + r * e with r = sigmoid([e; h] @ w + b). The rows are
    written into ``bank.data`` in place; the node's output, which becomes
    ``bank.tensor``, is that array. Indices must be unique, as a
    ``GraphStep``'s ``bank_idx`` is by construction (``graph.build_graph_steps``
    lists each (patient, variable) pair at most once per step): each bank row
    is written at most once, so the overwritten rows are the stored states.
    """
    w, b = params["gate.w"], params["gate.b"]
    h_bank = bank.tensor

    def decayed(rows):
        return rows if gamma is None else rows * gamma.data

    def inputs(h_hat):
        return np.concatenate([e.data, h_hat], axis=1)

    def gate(x):
        return _sigmoid(np.matmul(x, w.data) + b.data)

    rows = bank.data[index]  # a copy: the undo log's entry and the backward's input
    h_hat = decayed(rows)
    r = gate(inputs(h_hat))
    if ad._grad_enabled:
        bank._undo.append((index, rows))
    bank.data[index] = (1.0 - r) * h_hat + r * e.data

    def bw(g):
        # the chain's order: the bank's other rows; the gate's (1 - r) * h_hat,
        # 1 - r, r * e, sigmoid and linear; the decay; the gathered rows. The
        # gate is rebuilt from the logged rows, as the forward computed it.
        # g is this node's own gradient, which backward drops after the rule,
        # so the earlier bank may adopt it
        g_rows = g[index]
        g[index] = 0.0
        ad._accumulate(h_bank, g, owned=True)
        g = g_rows
        h_hat = decayed(rows)
        x = inputs(h_hat)
        r = gate(x)
        one_minus = 1.0 - r
        g_hat = g * one_minus
        g_r = -(g * h_hat) + g * e.data
        ad._accumulate(e, g * r)
        g_x = ad._linear_grads(x, w, b, g_r * r * one_minus)
        ad._accumulate(e, g_x[:, :e.shape[1]])
        g_hat += g_x[:, e.shape[1]:]
        if gamma is not None:
            ad._accumulate(gamma, (g_hat * rows).sum(axis=1, keepdims=True))
            g_hat = g_hat * gamma.data
        ad._accumulate(h_bank, ad._scatter_add(h_bank.shape, index, g_hat), owned=True)

    # backward must reach e before gamma and the bank, as it did through the chain
    parents = (h_bank, e, w, b) if gamma is None else (h_bank, gamma, e, w, b)
    bank.tensor = ad._make(bank.data, parents, "gate", bw)
    return bank.tensor


def node_attention(v_pat: Tensor, bank: Bank, w_proj: Tensor) -> Tensor:
    """Patient embedding attends over its previous per-variable states.

    ``bank`` holds each patient's V per-variable states, patient-major, as
    (B·V, d) rows or as (B, V, d); the node reads its latest version. Scores
    are scaled dot products, softmax over the V variable positions, and the
    attended vector replaces the patient state after projection. One
    autodiff node, whose backward rolls the bank back to the version it read.
    """
    b, d = v_pat.shape
    h_bank, version = bank.tensor, bank.version()
    states = bank.data.reshape(b, -1, d)  # a view: it shows every later write
    query = v_pat.data.reshape(b, 1, d)
    scale = 1.0 / np.sqrt(d)
    scores = np.matmul(query, np.swapaxes(states, -1, -2)) * scale
    weights = ad._softmax(scores)

    def attended():
        return np.matmul(weights, states).reshape(b, d)

    def bw(g):
        # the chain's order: projection, mixture, softmax, scale, scores; the
        # bank sums its mixture term, then its transposed scores term
        bank.rollback(version)
        ad._accumulate(w_proj, np.matmul(attended().T, g), owned=True)
        g_mix = np.matmul(g, w_proj.data.T).reshape(b, 1, d)
        g_weights = np.matmul(g_mix, np.swapaxes(states, -1, -2))
        g_bank = np.matmul(np.swapaxes(weights, -1, -2), g_mix)
        dot = (g_weights * weights).sum(axis=-1, keepdims=True)
        g_scores = weights * (g_weights - dot) * scale
        ad._accumulate(v_pat, np.matmul(g_scores, states).reshape(b, d), owned=True)
        g_bank += np.swapaxes(np.matmul(np.swapaxes(query, -1, -2), g_scores), -1, -2)
        ad._accumulate(h_bank, g_bank.reshape(h_bank.shape), owned=True)

    return ad._make(np.matmul(attended(), w_proj.data), (v_pat, h_bank, w_proj),
                    "attention", bw)
