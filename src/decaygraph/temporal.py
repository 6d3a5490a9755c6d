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


def decay_rate(e: Tensor, kernel: str, params: dict[str, Tensor]) -> Tensor:
    """Non-negative per-edge rate; softplus keeps every kernel's rate >= 0."""
    if kernel not in DECAY_KERNELS:
        raise KernelConfigError(f"decay kernel must be one of {DECAY_KERNELS}, "
                                f"got {kernel!r}")
    if kernel == "exp":
        ones = Tensor(np.ones((e.shape[0], 1)))
        return ad.softplus(ad.matmul(ones, params["decay.rate_raw"]))
    hidden = ad.relu(ad.linear([e], params["decay.w1"], params["decay.b1"]))
    return ad.softplus(ad.linear([hidden], params["decay.w2"], params["decay.b2"]))


# keeps the exponential kernels strictly positive where float64 exp
# would underflow to 0; adding it is invisible above 1e-290 and 1 + it
# still rounds to exactly 1
UNDERFLOW_FLOOR = 1e-300


def decay_factor(e: Tensor, delta_t: np.ndarray, kernel: str,
                 params: dict[str, Tensor]) -> Tensor:
    """Discount in [0, 1] per edge for the elapsed interval.

    exp kernels: exp(-rate * dt); gaussian: exp(-(rate * dt)^2); linear:
    max(1 - rate * dt, 0), the only kernel that can reach exactly zero.
    """
    delta_t = np.asarray(delta_t, dtype=np.float64).reshape(-1, 1)
    if np.any(delta_t < 0):
        raise ContractError(f"delta_t must be non-negative, got min {delta_t.min()}")
    rate = decay_rate(e, kernel, params)
    # the sign sits in the constant: rate * (-dt) rounds exactly as -(rate * dt)
    neg_scaled = ad.mul(rate, Tensor(-delta_t))
    if kernel == "mlp_linear":
        return ad.relu(ad.add(neg_scaled, Tensor(1.0)))
    if kernel == "mlp_gaussian":
        neg_scaled = ad.mul(neg_scaled, ad.mul(rate, Tensor(delta_t)))
    return ad.add(ad.exp(neg_scaled), Tensor(UNDERFLOW_FLOOR))


def gated_update(e: Tensor, h_hat: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Sigmoid-gated convex combination of decayed state and new feature."""
    r = ad.sigmoid(ad.linear([e, h_hat], params["gate.w"], params["gate.b"]))
    one_minus = ad.sub(Tensor(1.0), r)
    return ad.add(ad.mul(one_minus, h_hat), ad.mul(r, e))


def node_attention(v_pat: Tensor, h_bank: Tensor, w_proj: Tensor) -> Tensor:
    """Patient embedding attends over its previous per-variable states.

    ``h_bank`` is (B, V, d); scores are scaled dot products, softmax
    over the V variable positions, and the attended vector replaces the
    patient state after projection.
    """
    b, v, d = h_bank.shape
    query = ad.reshape(v_pat, (b, 1, d))
    scores = ad.mul(ad.matmul(query, ad.transpose_last2(h_bank)),
                    Tensor(1.0 / np.sqrt(d)))
    weights = ad.softmax(scores)
    attended = ad.reshape(ad.matmul(weights, h_bank), (b, d))
    return ad.matmul(attended, w_proj)
