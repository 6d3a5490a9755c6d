"""Learnable soft codebook: fusion, hard retrieval and utilization.

Node embeddings are compared to every prototype by cosine similarity.
Soft fusion adds a similarity-weighted prototype mixture back onto the
embedding with an adaptive residual scale; hard retrieval picks the
single best prototype per row, with no gradient through the selection
but full gradient into the selected row.

A forward pass builds one :class:`UnitBook` of the codebook and hands it
to every ``soft_fuse`` and to ``retrieve``. It normalizes the codebook
once, holds the per-codebook constants of the fusion backward, and owns
the scratch buffers that fusion writes with ``out=``: the forward's B×K
similarities (B rows, K prototypes), the backward's B×``TILE`` tiles and
its K×d codebook-gradient terms. Fusion is one autodiff node that keeps
only its (B, d) arrays and, for a large codebook, its (B, 1) softmax row
sums; its hand-written backward recomputes the softmax weights, so no
B×K array lives from forward to backward.

The node has two cores, chosen by codebook size; they share the backward's
prologue (residual scale and the mixture's gradient ``d_q``) and epilogue
(the row and codebook normalization terms).

- K ≤ ``TILE``: the numpy expressions of the node chain it replaces (row
  normalization, cosine matmul, max-shifted softmax, prototype mixture,
  residual scale), each gradient term added in that chain's order. With
  patient attention on, backward in ``model.forward`` reaches every
  call's input before the call itself, so values and gradients keep the
  chain's bits; with it ablated (``--ablate sna``) the codebook gradient
  sums in another order than the chain's and differs in its last bits.
  A 12-epoch K=32 training run amplifies a last-bit change past the
  benchmark's stored reference losses, so this core stays until those
  are regenerated.
- K > ``TILE``: cosines lie in [-1, 1], so the forward takes ``exp`` of
  the similarities with no max shift, keeps their row sum ``l``, and
  mixes ``q = (exp(S) @ c) / l``. The backward recomputes ``exp(S)`` one
  tile of ``TILE`` prototypes at a time and divides the (B, d) mixture
  gradient by ``l`` in place of the tile. It uses the row term
  ``D = (d_q * q).sum(-1)`` in place of the B×K ``sum(d_w * w)``
  (FlashAttention's backward, Dao et al., arXiv:2205.14135). Values and
  gradients differ from the chain's by rounding only, about 1e-15
  relative.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor

FUSION_EPS = 1e-8  # residual-scale division guard
COSINE_EPS = 1e-12  # cosine-similarity norm guard
TILE = 1024  # prototypes per backward tile; larger codebooks take the tiled core


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms (kept as a size-1 axis) and the rows of ``x`` scaled to unit norm."""
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    return norm, x / (norm + COSINE_EPS)


class UnitBook:
    """One forward pass's view of the codebook ``book`` (K, d).

    ``norm`` and ``unit`` are ``unit_rows(book)``; ``norm_eps``,
    ``norm_eps_sq`` and ``norm_safe`` are the fusion backward's guarded
    forms of ``norm``. ``buffer`` hands out scratch arrays that are reused
    by every call, so an array it returns is overwritten by the next call
    that asks for the same name and shape.
    """

    def __init__(self, book: np.ndarray):
        self.norm, self.unit = unit_rows(book)
        self.norm_eps = self.norm + COSINE_EPS
        self.norm_eps_sq = self.norm_eps * self.norm_eps
        self.norm_safe = np.maximum(self.norm, 1e-300)
        self._buffers: dict[tuple, np.ndarray] = {}

    def buffer(self, name: str, shape: tuple) -> np.ndarray:
        """The uninitialized C-order float64 scratch array for ``name`` and ``shape``."""
        buf = self._buffers.get((name, shape))
        if buf is None:
            buf = self._buffers[name, shape] = np.empty(shape)
        return buf

    def similarities(self, rows: np.ndarray) -> np.ndarray:
        """Cosine similarities of the unit ``rows`` to every prototype, written
        into the B×K similarity buffer."""
        out = self.buffer("sims", (rows.shape[0], self.unit.shape[0]))
        return np.matmul(rows, self.unit.T, out=out)


def soft_fuse(g: Tensor, codebook: Tensor, unit_book: UnitBook,
              weight_sum: np.ndarray | None = None) -> Tensor:
    """Residual fusion of each row of ``g`` with the prototype mixture.

    ``unit_book`` is the forward's ``UnitBook(codebook.data)``. When
    ``weight_sum`` (K,) is given, the call adds each prototype's softmax
    weight, summed over the rows of ``g``, into it: the utilization
    diagnostic.
    """
    x, c = g.data, codebook.data
    g_norm, g_unit = unit_rows(x)
    n_rows, n_protos = x.shape[0], c.shape[0]
    tiled = n_protos > TILE
    weights = unit_book.similarities(g_unit)
    if tiled:
        # the weights times their row sum; cosines lie in [-1, 1], so exp
        # needs no max shift
        np.exp(weights, out=weights)
        row_sum = weights.sum(axis=-1, keepdims=True)
        q = np.matmul(weights, c)
        q /= row_sum
        if weight_sum is not None:
            weight_sum += np.matmul(1.0 / row_sum[:, 0], weights)
    else:
        ad._softmax(weights)
        q = np.matmul(weights, c)
        if weight_sum is not None:
            weight_sum += weights.sum(axis=0)
    q_norm = np.sqrt((q * q).sum(axis=-1, keepdims=True))
    a_m = g_norm + FUSION_EPS
    scale = q_norm / a_m

    def chain_core(d_q):
        # the chain's softmax backward; its B×K arrays are freed on return
        w = ad._softmax(np.matmul(g_unit, unit_book.unit.T))  # the forward's weights
        d_w = np.matmul(d_q, c.T)
        ad._accumulate(codebook, np.matmul(w.T, d_q))
        d_w -= (d_w * w).sum(axis=-1, keepdims=True)
        d_w *= w
        # in the chain's C order: the epilogue's row sum rounds by memory layout
        d_cunit = np.add(np.matmul(g_unit.T, d_w).T, 0.0,
                         out=unit_book.buffer("d_cunit", c.shape))
        return np.matmul(d_w, unit_book.unit), d_cunit

    def tiled_core(d_q):
        # the weights are exp(S) / l; the division moves onto the (B, d) d_q.
        # sum_k w_k * d_w_k over a row is d_q . q, so no pass needs all K at once
        d_q = d_q / row_sum
        d_rowterm = (d_q * q).sum(axis=-1, keepdims=True)
        mixture = unit_book.buffer("book_term", c.shape)
        d_cunit = unit_book.buffer("d_cunit", c.shape)
        d_gunit = np.zeros_like(x)
        for lo in range(0, n_protos, TILE):
            hi = min(lo + TILE, n_protos)
            unit = unit_book.unit[lo:hi]
            e = np.matmul(g_unit, unit.T, out=unit_book.buffer("tile", (n_rows, hi - lo)))
            np.exp(e, out=e)
            np.matmul(e.T, d_q, out=mixture[lo:hi])
            d_s = np.matmul(d_q, c[lo:hi].T, out=unit_book.buffer("d_tile", (n_rows, hi - lo)))
            d_s -= d_rowterm
            d_s *= e
            d_gunit += np.matmul(d_s, unit)
            np.matmul(d_s.T, g_unit, out=d_cunit[lo:hi])
        ad._accumulate(codebook, mixture)
        return d_gunit, d_cunit

    def bw(grad):
        # g gets: output, scale norm, unit rows, unit-row norm; the codebook
        # gets: mixture, unit rows, row norms, in the chain's order. Outside
        # the tiled core each term is the chain's expression; the chain's
        # `+ 0.0` first writes are left out, since they change only the
        # sign of a zero and every term ends in _accumulate, which drops
        # that sign. Each buffer of unit_book is read before it is reused.
        ad._accumulate(g, grad)
        d_scale = ad._unbroadcast(grad * q, scale.shape)
        d_q = grad * scale
        d_q += d_scale / a_m * q / np.maximum(q_norm, 1e-300)
        d_gnorm = -d_scale * q_norm / (a_m * a_m)
        ad._accumulate(g, d_gnorm * x / np.maximum(g_norm, 1e-300))
        d_gunit, d_cunit = (tiled_core if tiled else chain_core)(d_q)
        a_g = g_norm + COSINE_EPS
        ad._accumulate(g, d_gunit / a_g)
        d_gnorm = ad._unbroadcast(-d_gunit * x / (a_g * a_g), g_norm.shape)
        ad._accumulate(g, d_gnorm * x / np.maximum(g_norm, 1e-300))
        term = unit_book.buffer("book_term", c.shape)
        ad._accumulate(codebook, np.divide(d_cunit, unit_book.norm_eps, out=term))
        np.negative(d_cunit, out=term)
        term *= c
        term /= unit_book.norm_eps_sq
        d_cnorm = ad._unbroadcast(term, unit_book.norm.shape)
        np.multiply(d_cnorm, c, out=term)
        ad._accumulate(codebook, np.divide(term, unit_book.norm_safe, out=term))

    return ad._make(x + scale * q, (g, codebook), "soft_fuse", bw)


def retrieve(g: Tensor, codebook: Tensor, unit_book: UnitBook) -> tuple[np.ndarray, Tensor]:
    """Most-similar prototype per row by cosine; ties go to the lowest index.

    ``unit_book`` is the forward's ``UnitBook(codebook.data)``; the
    similarities overwrite its B×K buffer, which fusion also uses. The
    argmax is not differentiated; gradients flow only into the selected
    codebook rows.
    """
    indices = unit_book.similarities(unit_rows(g.data)[1]).argmax(axis=1)
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
