"""Learnable soft codebook: fusion, hard retrieval and utilization.

Node embeddings are compared to every prototype by cosine similarity.
Soft fusion adds a similarity-weighted prototype mixture back onto the
embedding with an adaptive residual scale; hard retrieval picks the
single best prototype per row, with no gradient through the selection
but full gradient into the selected row.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor

FUSION_EPS = 1e-8  # residual-scale division guard
COSINE_EPS = 1e-12  # cosine-similarity norm guard


def _row_normalize(x: Tensor) -> Tensor:
    return ad.div(x, ad.add(ad.l2_norm(x), Tensor(COSINE_EPS)))


def soft_fuse(g: Tensor, codebook: Tensor) -> tuple[Tensor, np.ndarray]:
    """Residual fusion of each row of ``g`` with the prototype mixture.

    Returns the fused rows and the softmax weight matrix (as plain data,
    for the utilization diagnostic; read it, do not modify it).
    """
    sims = ad.matmul(_row_normalize(g), ad.transpose_last2(_row_normalize(codebook)))
    weights = ad.softmax(sims)
    quantized = ad.matmul(weights, codebook)
    scale = ad.div(ad.l2_norm(quantized), ad.add(ad.l2_norm(g), Tensor(FUSION_EPS)))
    fused = ad.add(g, ad.mul(scale, quantized))
    return fused, weights.data


def retrieve(g: Tensor, codebook: Tensor) -> tuple[np.ndarray, Tensor]:
    """Most-similar prototype per row by cosine; ties go to the lowest index.

    The argmax is not differentiated; gradients flow only into the
    selected codebook rows.
    """
    g_data = g.data
    c_data = codebook.data
    g_norm = g_data / (np.linalg.norm(g_data, axis=-1, keepdims=True) + COSINE_EPS)
    c_norm = c_data / (np.linalg.norm(c_data, axis=-1, keepdims=True) + COSINE_EPS)
    sims = g_norm @ c_norm.T
    indices = sims.argmax(axis=1)
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
