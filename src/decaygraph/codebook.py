"""Learnable soft codebook: fusion, hard retrieval and utilization.

Node embeddings are compared to every prototype by cosine similarity.
Soft fusion adds a similarity-weighted prototype mixture back onto the
embedding with an adaptive residual scale; hard retrieval picks the
single best prototype per row, with no gradient through the selection
but full gradient into the selected row.

A forward pass builds one :class:`UnitBook` of the codebook and hands it
to every ``soft_fuse`` and to ``retrieve``. It normalizes the codebook
once, holds the per-codebook constants of the fusion backward, and owns
the scratch buffers that every fusion call and its backward rule write
with ``out=``: the B×K arrays (B rows, K prototypes) and the K×d
codebook-gradient terms. Fusion is one autodiff node that keeps only its
(B, d) arrays. Its forward computes the softmax in place in a B×K
buffer; its hand-written backward recomputes that softmax with the
forward's own expression, so no B×K array lives from forward to
backward. The backward evaluates the numpy expressions of the node chain
it replaces (row normalization, cosine matmul, softmax, prototype
mixture, residual scale) and adds each gradient term in that chain's
order; each call still adds its own three codebook terms (mixture, unit
rows, row norms). With patient attention on, backward in
``model.forward`` reaches every call's input before the call itself, so
values and gradients keep the chain's bits; with it ablated (``--ablate
sna``) the codebook gradient sums in another order than the chain's and
differs in its last bits.
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

    def similarities(self, rows: np.ndarray, name: str) -> np.ndarray:
        """Cosine similarities of the unit ``rows`` to every prototype, written
        into the ``name`` buffer."""
        out = self.buffer(name, (rows.shape[0], self.unit.shape[0]))
        return np.matmul(rows, self.unit.T, out=out)


def soft_fuse(g: Tensor, codebook: Tensor, unit_book: UnitBook) -> tuple[Tensor, np.ndarray]:
    """Residual fusion of each row of ``g`` with the prototype mixture.

    ``unit_book`` is the forward's ``UnitBook(codebook.data)``. Returns the
    fused rows and the softmax weight matrix, as plain data for the
    utilization diagnostic. The weights live in a buffer of ``unit_book``:
    read them before the next call with as many rows, and do not modify
    them. The backward rule recomputes them.
    """
    x, c = g.data, codebook.data
    g_norm, g_unit = unit_rows(x)
    w = ad._softmax(unit_book.similarities(g_unit, "w"))
    q = np.matmul(w, c)
    q_norm = np.sqrt((q * q).sum(axis=-1, keepdims=True))
    a_m = g_norm + FUSION_EPS
    scale = q_norm / a_m

    def bw(grad):
        # g gets: output, scale norm, unit rows, unit-row norm; the codebook
        # gets: mixture, unit rows, row norms. Each term is the chain's
        # expression; the chain's `+ 0.0` first writes are left out, since
        # they change only the sign of a zero and every term ends in
        # _accumulate, which drops that sign. Every B×K and K×d array is a
        # reused buffer of unit_book, and each is read before it is reused.
        rows = (x.shape[0], c.shape[0])
        w = ad._softmax(unit_book.similarities(g_unit, "w_bw"))  # the forward's weights
        ad._accumulate(g, grad)
        d_scale = ad._unbroadcast(grad * q, scale.shape)
        d_q = grad * scale
        d_q += d_scale / a_m * q / np.maximum(q_norm, 1e-300)
        d_gnorm = -d_scale * q_norm / (a_m * a_m)
        ad._accumulate(g, d_gnorm * x / np.maximum(g_norm, 1e-300))
        d_w = np.matmul(d_q, c.T, out=unit_book.buffer("d_w", rows))
        term = unit_book.buffer("book_term", c.shape)
        ad._accumulate(codebook, np.matmul(w.T, d_q, out=term))
        d_w_w = np.multiply(d_w, w, out=unit_book.buffer("d_w_w", rows))
        d_w -= d_w_w.sum(axis=-1, keepdims=True)
        d_w *= w  # softmax backward, in place
        a_g = g_norm + COSINE_EPS
        d_gunit = np.matmul(d_w, unit_book.unit)
        ad._accumulate(g, d_gunit / a_g)
        d_gnorm = ad._unbroadcast(-d_gunit * x / (a_g * a_g), g_norm.shape)
        ad._accumulate(g, d_gnorm * x / np.maximum(g_norm, 1e-300))
        # in the chain's C order: the row sum below rounds by memory layout
        d_cunit_t = np.matmul(g_unit.T, d_w, out=unit_book.buffer("d_cunit_t", c.shape[::-1]))
        d_cunit = np.add(d_cunit_t.T, 0.0, out=unit_book.buffer("d_cunit", c.shape))
        ad._accumulate(codebook, np.divide(d_cunit, unit_book.norm_eps, out=term))
        np.negative(d_cunit, out=term)
        term *= c
        term /= unit_book.norm_eps_sq
        d_cnorm = ad._unbroadcast(term, unit_book.norm.shape)
        np.multiply(d_cnorm, c, out=term)
        ad._accumulate(codebook, np.divide(term, unit_book.norm_safe, out=term))

    return ad._make(x + scale * q, (g, codebook), "soft_fuse", bw), w


def retrieve(g: Tensor, codebook: Tensor, unit_book: UnitBook) -> tuple[np.ndarray, Tensor]:
    """Most-similar prototype per row by cosine; ties go to the lowest index.

    ``unit_book`` is the forward's ``UnitBook(codebook.data)``; the
    similarities overwrite its fusion-weight buffer. The argmax is not
    differentiated; gradients flow only into the selected codebook rows.
    """
    indices = unit_book.similarities(unit_rows(g.data)[1], "w").argmax(axis=1)
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
