"""Temporal decay encoding and state-aware patient attention.

A learned non-negative rate, produced from the current edge features by
a small MLP (or a single shared scalar for the fixed-rate variant), is
mapped through a kernel to a multiplicative discount on each variable's
hidden state over the elapsed interval. The discounted state is then
merged with the fresh edge feature through a sigmoid gate. From the
second step on, the patient embedding can also attend over its stored
per-variable states before entering the graph network.

Each function works on arrays; in grad mode it returns what its named
``*_backward`` reads, which adds its terms in the order of the op chain
it replaced. The model's encoder makes each call one autodiff node whose
rule is that backward.
The per-variable states of one forward pass live in one :class:`Bank`,
whose array every ``gated_update`` writes in place, logging in grad mode
the rows it overwrote; ``node_attention_backward`` first rolls back every
write logged after its forward, so it reads what its forward read.
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
    one_plus = 1.0 + z
    return np.where(x >= 0, 1.0 / one_plus, z / one_plus)


def decay_factor(e: np.ndarray, delta_t: np.ndarray, kernel: str,
                 params: dict[str, Tensor]) -> tuple[np.ndarray, tuple | None]:
    """Discount in [0, 1] per edge for the elapsed interval.

    The rate is softplus(relu(e @ w1 + b1) @ w2 + b2), or for the ``exp``
    kernel softplus of one shared scalar, so every kernel's rate is >= 0.
    exp kernels: exp(-rate * dt); gaussian: exp(-(rate * dt)^2); linear:
    max(1 - rate * dt, 0), the only kernel that can reach exactly zero.
    Each interval in ``delta_t`` must be non-negative; the model's batch
    plan checks that once per batch. Returns the discount and, in grad
    mode, what ``decay_factor_backward`` reads.
    """
    delta_t = np.asarray(delta_t, dtype=np.float64).reshape(-1, 1)
    if kernel not in DECAY_KERNELS:
        raise KernelConfigError(f"decay kernel must be one of {DECAY_KERNELS}, "
                                f"got {kernel!r}")
    if kernel == "exp":
        pre = np.repeat(params["decay.rate_raw"].data, e.shape[0], axis=0)
    else:
        hidden = np.maximum(_first_layer(e, params), 0.0)
        pre = np.matmul(hidden, params["decay.w2"].data) + params["decay.b2"].data
    # softplus: ln(1 + e^x) without overflow, x + log1p(e^-x) when positive
    tail = np.log1p(np.exp(-np.abs(pre)))
    rate = np.where(pre > 0, pre + tail, tail)
    # the sign sits in the constant: rate * (-dt) rounds exactly as -(rate * dt)
    neg_scaled = rate * -delta_t
    scaled = None
    if kernel == "mlp_linear":
        kept = neg_scaled + 1.0  # the shifted argument
        out = np.maximum(kept, 0.0)
    else:
        arg = neg_scaled
        if kernel == "mlp_gaussian":
            scaled = rate * delta_t
            arg = neg_scaled * scaled
        kept = np.exp(arg)  # the decayed value
        out = kept + UNDERFLOW_FLOOR
    return out, ((delta_t, pre, kept, scaled, neg_scaled) if ad._grad_enabled else None)


def _first_layer(e: np.ndarray, params: dict[str, Tensor]) -> np.ndarray:
    return np.matmul(e, params["decay.w1"].data) + params["decay.b1"].data


def decay_factor_backward(g: np.ndarray, saved: tuple, e: Tensor | None, kernel: str,
                          params: dict[str, Tensor]) -> None:
    """``decay_factor``'s rule over what it ``saved``: add the gradient of
    ``decay.rate_raw`` for the ``exp`` kernel, which reads no ``e`` (it may
    be None), else of ``decay.w2``, ``decay.b2``, ``decay.w1``, ``decay.b1``, ``e``."""
    delta_t, pre, kept, scaled, neg_scaled = saved
    neg_dt = -delta_t
    if kernel == "mlp_linear":
        g_rate = g * (kept > 0.0) * neg_dt
    elif kernel == "mlp_gaussian":
        g_arg = g * kept
        g_rate = g_arg * scaled * neg_dt + g_arg * neg_scaled * delta_t
    else:
        g_rate = g * kept * neg_dt
    g_pre = g_rate * _sigmoid(pre)
    if kernel == "exp":
        ad._accumulate(params["decay.rate_raw"], g_pre.sum(axis=0, keepdims=True), owned=True)
        return
    # the hidden layer, rebuilt by the forward's expression
    pre1 = _first_layer(e.data, params)
    g_pre1 = ad._linear_grads(np.maximum(pre1, 0.0), params["decay.w2"], params["decay.b2"],
                              g_pre) * (pre1 > 0.0)
    ad._accumulate(e, ad._linear_grads(e.data, params["decay.w1"], params["decay.b1"], g_pre1),
                   owned=True)


class Bank:
    """The per-variable hidden states of one forward pass, (B·V, d).

    ``data`` is the one array that every ``gated_update`` writes in place;
    it starts as ``initial``. While grad mode is on, each write logs its
    index and the rows it overwrote, so ``rollback`` can restore an earlier
    version; under ``no_grad`` no backward can read the bank, so nothing is
    logged.
    """

    def __init__(self, initial: np.ndarray):
        self.data = initial
        self._undo: list[tuple[np.ndarray, np.ndarray]] = []

    def rollback(self, version: int) -> None:
        """Undo every logged write after the first ``version``, so ``data``
        holds what it held when ``version`` writes were logged."""
        if version > len(self._undo):
            raise ContractError(f"bank version {version} cannot be restored: the bank "
                                f"was rolled back to version {len(self._undo)}")
        while len(self._undo) > version:
            index, rows = self._undo.pop()
            self.data[index] = rows


def gated_update(bank: Bank, index: np.ndarray, e: np.ndarray, params: dict[str, Tensor],
                 gamma: np.ndarray | None = None) -> np.ndarray | None:
    """Replace each ``index`` row of ``bank`` by its gated update, in place.

    The stored state h = bank.data[index], decayed to h * gamma when
    ``gamma`` is given, merges with the fresh edge feature as
    (1 - r) * h + r * e with r = sigmoid([e; h] @ w + b). Indices must be
    unique, as a ``GraphStep``'s ``bank_idx`` is by construction
    (``graph.build_graph_steps`` lists each (patient, variable) pair at
    most once per step): each bank row is written at most once, so the
    overwritten rows are the stored states. In grad mode it logs and
    returns those rows, which ``gated_update_backward`` reads.
    """
    rows = bank.data[index]  # a copy: the undo log's entry and the backward's input
    h_hat = rows if gamma is None else rows * gamma
    r = _gate(np.concatenate([e, h_hat], axis=1), params)
    bank.data[index] = (1.0 - r) * h_hat + r * e
    if not ad._grad_enabled:
        return None
    bank._undo.append((index, rows))
    return rows


def _gate(x: np.ndarray, params: dict[str, Tensor]) -> np.ndarray:
    return _sigmoid(np.matmul(x, params["gate.w"].data) + params["gate.b"].data)


def gated_update_backward(g: np.ndarray, h_bank: Tensor, gamma: Tensor | None, e: Tensor,
                          index: np.ndarray, rows: np.ndarray, params: dict[str, Tensor]) -> None:
    """``gated_update``'s rule, taking over ``g``, the written bank's gradient:
    ``h_bank`` is the bank before the write and ``rows`` what it logged. The
    chain's order: the bank's other rows; the gate's (1 - r) * h_hat, 1 - r,
    r * e, sigmoid and linear; the decay; the gathered rows. The gate is
    rebuilt from the logged rows, as the forward computed it."""
    w, b = params["gate.w"], params["gate.b"]
    # the written bank's gradient is dropped after this rule, so the earlier
    # bank may adopt it
    g_rows = g[index]
    g[index] = 0.0
    ad._accumulate(h_bank, g, owned=True)
    g = g_rows
    h_hat = rows if gamma is None else rows * gamma.data
    x = np.concatenate([e.data, h_hat], axis=1)
    r = _gate(x, params)
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


def node_attention(v_pat: np.ndarray, bank: Bank, w_proj: Tensor
                   ) -> tuple[np.ndarray, tuple | None]:
    """Patient embedding attends over its previous per-variable states.

    ``bank`` holds each patient's V per-variable states, patient-major, as
    (B·V, d) rows or as (B, V, d). Scores are scaled dot products, softmax
    over the V variable positions, and the attended vector replaces the
    patient state after projection. Returns it and, in grad mode, the attention weights
    and the bank's version, which ``node_attention_backward`` reads.
    """
    b, d = v_pat.shape
    states = bank.data.reshape(b, -1, d)
    scores = np.matmul(v_pat.reshape(b, 1, d), np.swapaxes(states, -1, -2)) * (1.0 / np.sqrt(d))
    weights = ad._softmax(scores)
    out = np.matmul(np.matmul(weights, states).reshape(b, d), w_proj.data)
    return out, ((weights, len(bank._undo)) if ad._grad_enabled else None)


def node_attention_backward(g: np.ndarray, saved: tuple, v_pat: Tensor, h_bank: Tensor,
                            bank: Bank, w_proj: Tensor) -> None:
    """``node_attention``'s rule over what it ``saved``: ``h_bank`` receives
    the gradient of the bank it read, which it rolls ``bank`` back to.

    The chain's order: projection, mixture, softmax, scale, scores; the
    bank sums its mixture term, then its transposed scores term.
    """
    weights, version = saved
    bank.rollback(version)
    b, d = v_pat.shape
    states = bank.data.reshape(b, -1, d)
    query = v_pat.data.reshape(b, 1, d)
    scale = 1.0 / np.sqrt(d)
    ad._accumulate(w_proj, np.matmul(np.matmul(weights, states).reshape(b, d).T, g),
                   owned=True)
    g_mix = np.matmul(g, w_proj.data.T).reshape(b, 1, d)
    g_weights = np.matmul(g_mix, np.swapaxes(states, -1, -2))
    g_bank = np.matmul(np.swapaxes(weights, -1, -2), g_mix)
    dot = (g_weights * weights).sum(axis=-1, keepdims=True)
    g_scores = weights * (g_weights - dot) * scale
    ad._accumulate(v_pat, np.matmul(g_scores, states).reshape(b, d), owned=True)
    g_bank += np.swapaxes(np.matmul(np.swapaxes(query, -1, -2), g_scores), -1, -2)
    ad._accumulate(h_bank, g_bank.reshape(h_bank.shape), owned=True)
