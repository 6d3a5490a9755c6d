"""Learnable soft codebook: fusion, hard retrieval and utilization.

Node embeddings are compared to every prototype by cosine similarity.
Soft fusion adds a similarity-weighted prototype mixture back onto the
embedding with an adaptive residual scale; hard retrieval picks the
single best prototype per row, with no gradient through the selection
but full gradient into the selected row.

A forward pass normalizes the codebook once (``unit_rows``) and hands
the result to every ``soft_fuse`` and to ``retrieve``. Fusion is one
autodiff node. Its forward computes the softmax in place in one B×K
buffer (B rows, K prototypes). Its hand-written backward evaluates the
numpy expressions of the node chain it replaces (row normalization,
cosine matmul, softmax, prototype mixture, residual scale) and adds each
gradient term in that chain's order; each call still adds its own three
codebook terms (mixture, unit rows, row norms). In ``model.forward``,
where backward reaches every call's input before the call itself, values
and gradients therefore keep the chain's bits.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor

FUSION_EPS = 1e-8  # residual-scale division guard
COSINE_EPS = 1e-12  # cosine-similarity norm guard


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms (kept as a size-1 axis) and the rows of ``x`` scaled to unit norm."""
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    return norm, x / (norm + COSINE_EPS)


def soft_fuse(g: Tensor, codebook: Tensor,
              unit_book: tuple[np.ndarray, np.ndarray]) -> tuple[Tensor, np.ndarray]:
    """Residual fusion of each row of ``g`` with the prototype mixture.

    ``unit_book`` is ``unit_rows(codebook.data)``. Returns the fused rows
    and the softmax weight matrix (as plain data, for the utilization
    diagnostic; read it, do not modify it).
    """
    x, c = g.data, codebook.data
    c_norm, c_unit = unit_book
    g_norm, g_unit = unit_rows(x)
    w = ad._softmax(np.matmul(g_unit, c_unit.T))
    q = np.matmul(w, c)
    q_norm = np.sqrt((q * q).sum(axis=-1, keepdims=True))
    a_m = g_norm + FUSION_EPS
    scale = q_norm / a_m

    def bw(grad):
        # g gets: output, scale norm, unit rows, unit-row norm; the codebook
        # gets: mixture, unit rows, row norms. Each term is the chain's
        # expression; the chain's `+ 0.0` first writes are left out, since
        # they change only the sign of a zero and every term ends in
        # _accumulate, which drops that sign.
        ad._accumulate(g, grad)
        d_scale = ad._unbroadcast(grad * q, scale.shape)
        d_q = grad * scale
        d_q += d_scale / a_m * q / np.maximum(q_norm, 1e-300)
        d_gnorm = -d_scale * q_norm / (a_m * a_m)
        ad._accumulate(g, d_gnorm * x / np.maximum(g_norm, 1e-300))
        d_w = np.matmul(d_q, c.T)
        ad._accumulate(codebook, np.matmul(w.T, d_q))
        d_w -= (d_w * w).sum(axis=-1, keepdims=True)
        d_w *= w  # softmax backward, in place
        a_g = g_norm + COSINE_EPS
        d_gunit = np.matmul(d_w, c_unit)
        ad._accumulate(g, d_gunit / a_g)
        d_gnorm = ad._unbroadcast(-d_gunit * x / (a_g * a_g), g_norm.shape)
        ad._accumulate(g, d_gnorm * x / np.maximum(g_norm, 1e-300))
        a_c = c_norm + COSINE_EPS
        # in the chain's C order: the row sum below rounds by memory layout
        d_cunit = np.add(np.matmul(g_unit.T, d_w).T, 0.0, out=np.empty_like(c_unit))
        ad._accumulate(codebook, d_cunit / a_c)
        d_cnorm = ad._unbroadcast(-d_cunit * c / (a_c * a_c), c_norm.shape)
        ad._accumulate(codebook, d_cnorm * c / np.maximum(c_norm, 1e-300))

    return ad._make(x + scale * q, (g, codebook), "soft_fuse", bw), w


def retrieve(g: Tensor, codebook: Tensor,
             unit_book: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, Tensor]:
    """Most-similar prototype per row by cosine; ties go to the lowest index.

    ``unit_book`` is ``unit_rows(codebook.data)``. The argmax is not
    differentiated; gradients flow only into the selected codebook rows.
    """
    indices = np.matmul(unit_rows(g.data)[1], unit_book[1].T).argmax(axis=1)
    return indices, ad.gather_rows(codebook, indices)


def utilization(weight_sum: np.ndarray, n_rows: int) -> float:
    """Fraction of prototypes whose mean weight exceeds uniform 1/K.

    ``weight_sum`` is the per-prototype sum of ``n_rows`` softmax weight
    rows, so it must total ``n_rows``.
    """
    weight_sum = np.asarray(weight_sum, dtype=np.float64)
    if weight_sum.ndim != 1 or n_rows < 1:
        raise ContractError(f"utilization needs a 1-d weight sum over at least one row, "
                            f"got shape {weight_sum.shape} over {n_rows} rows")
    if abs(weight_sum.sum() - n_rows) > 1e-6 * n_rows:
        raise ContractError(f"weight sum totals {weight_sum.sum()}, not {n_rows} "
                            f"(one per normalized row)")
    return float((weight_sum / n_rows > 1.0 / len(weight_sum)).mean())
