"""Temporal decay encoding and state-aware patient attention.

A learned non-negative rate, produced from the current edge features by
a small MLP (or a single shared scalar for the fixed-rate variant), is
mapped through a kernel to a multiplicative discount on each variable's
hidden state over the elapsed interval. The discounted state is then
merged with the fresh edge feature through a sigmoid gate. From the
second step on, the patient embedding can also attend over its stored
per-variable states before entering the graph network.
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
    """
    delta_t = np.asarray(delta_t, dtype=np.float64).reshape(-1, 1)
    if np.any(delta_t < 0):
        raise ContractError(f"delta_t must be non-negative, got min {delta_t.min()}")
    if kernel not in DECAY_KERNELS:
        raise KernelConfigError(f"decay kernel must be one of {DECAY_KERNELS}, "
                                f"got {kernel!r}")
    if kernel == "exp":
        rate_raw = params["decay.rate_raw"]
        parents = (rate_raw,)
        ones = np.ones((e.shape[0], 1))
        pre = np.matmul(ones, rate_raw.data)
    else:
        w1, b1 = params["decay.w1"], params["decay.b1"]
        w2, b2 = params["decay.w2"], params["decay.b2"]
        parents = (e, w1, b1, w2, b2)
        pre1 = np.matmul(e.data, w1.data) + b1.data
        hidden = np.maximum(pre1, 0.0)
        pre = np.matmul(hidden, w2.data) + b2.data
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
            ad._accumulate(rate_raw, np.matmul(ones.T, g_pre))
            return
        if w2.tracked:
            ad._accumulate(w2, np.matmul(hidden.T, g_pre))
        if b2.tracked:
            ad._accumulate(b2, ad._unbroadcast(g_pre, b2.shape))
        if e.tracked or w1.tracked or b1.tracked:
            g_pre1 = np.matmul(g_pre, w2.data.T) * (pre1 > 0.0)
            if e.tracked:
                ad._accumulate(e, np.matmul(g_pre1, w1.data.T))
            if w1.tracked:
                ad._accumulate(w1, np.matmul(e.data.T, g_pre1))
            if b1.tracked:
                ad._accumulate(b1, ad._unbroadcast(g_pre1, b1.shape))

    return ad._make(out, parents, "decay_factor", bw)


def gated_update(e: Tensor, h_hat: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Sigmoid-gated convex combination of decayed state and new feature:
    (1 - r) * h_hat + r * e with r = sigmoid([e; h_hat] @ w + b), one node."""
    w, b = params["gate.w"], params["gate.b"]
    x = np.concatenate([e.data, h_hat.data], axis=1)
    r = _sigmoid(np.matmul(x, w.data) + b.data)
    one_minus = 1.0 - r
    width = e.shape[1]

    def bw(g):
        # the chain's order: (1 - r) * h_hat, 1 - r, r * e, sigmoid, linear
        g_one_minus = g * h_hat.data
        if h_hat.tracked:
            ad._accumulate(h_hat, g * one_minus)
        g_r = -g_one_minus + g * e.data
        if e.tracked:
            ad._accumulate(e, g * r)
        g_pre = g_r * r * one_minus
        if e.tracked or h_hat.tracked:
            g_x = np.matmul(g_pre, w.data.T)
            if e.tracked:
                ad._accumulate(e, g_x[:, :width])
            if h_hat.tracked:
                ad._accumulate(h_hat, g_x[:, width:])
        if w.tracked:
            ad._accumulate(w, np.matmul(x.T, g_pre))
        if b.tracked:
            ad._accumulate(b, ad._unbroadcast(g_pre, b.shape))

    # backward must reach e before h_hat, as it did through the chain
    return ad._make(one_minus * h_hat.data + r * e.data, (h_hat, e, w, b), "gate", bw)


def node_attention(v_pat: Tensor, h_bank: Tensor, w_proj: Tensor) -> Tensor:
    """Patient embedding attends over its previous per-variable states.

    ``h_bank`` holds each patient's V per-variable states, patient-major,
    as (B·V, d) rows or as (B, V, d). Scores are scaled dot products,
    softmax over the V variable positions, and the attended vector
    replaces the patient state after projection. One autodiff node.
    """
    b, d = v_pat.shape
    bank = h_bank.data.reshape(b, -1, d)
    query = v_pat.data.reshape(b, 1, d)
    scale = 1.0 / np.sqrt(d)
    scores = np.matmul(query, np.swapaxes(bank, -1, -2)) * scale
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = weights / weights.sum(axis=-1, keepdims=True)
    attended = np.matmul(weights, bank).reshape(b, d)

    def bw(g):
        # the chain's order: projection, mixture, softmax, scale, scores; the
        # bank sums its mixture term, then its transposed scores term
        if w_proj.tracked:
            ad._accumulate(w_proj, np.matmul(attended.T, g))
        if not (v_pat.tracked or h_bank.tracked):
            return
        g_mix = np.matmul(g, w_proj.data.T).reshape(b, 1, d)
        g_weights = np.matmul(g_mix, np.swapaxes(bank, -1, -2))
        if h_bank.tracked:
            g_bank = np.matmul(np.swapaxes(weights, -1, -2), g_mix)
        dot = (g_weights * weights).sum(axis=-1, keepdims=True)
        g_scores = weights * (g_weights - dot) * scale
        if v_pat.tracked:
            ad._accumulate(v_pat, np.matmul(g_scores, bank).reshape(b, d))
        if h_bank.tracked:
            g_bank += np.swapaxes(np.matmul(np.swapaxes(query, -1, -2), g_scores), -1, -2)
            ad._accumulate(h_bank, g_bank.reshape(h_bank.shape))

    return ad._make(np.matmul(attended, w_proj.data), (v_pat, h_bank, w_proj),
                    "attention", bw)
