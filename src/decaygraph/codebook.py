"""Learnable soft codebook: fusion, hard retrieval and utilization.

Node embeddings are compared to every prototype by cosine similarity.
Soft fusion adds a similarity-weighted prototype mixture back onto the
embedding with an adaptive residual scale; hard retrieval picks the
single best prototype per row, with no gradient through the selection
but full gradient into the selected row.

A forward pass builds one :class:`UnitBook` of the codebook and hands it
to every ``soft_fuse`` and to ``retrieve``. It normalizes the codebook
once and holds the per-codebook constants of the fusion backward. Each
call allocates its own arrays and returns its own autodiff node, whose
rule calls ``soft_fuse_backward`` or ``retrieve_backward``. A fusion
node keeps only its input's (B, 1) row norms, its (B, d) mixture and
scale terms and, for a large codebook, its (B, 1) softmax row sums; the
forward's B×K softmax weights (B rows, K prototypes) are freed when the
call returns, and the backward recomputes the unit rows and the
weights, so no B×K array lives from forward to backward.

The node has two cores, chosen by codebook size; they share the backward's
prologue (residual scale and the mixture's gradient ``d_q``) and epilogue
(the row and codebook normalization terms).

- K ≤ ``TILE``: the numpy expressions of the node chain it replaces (row
  normalization, cosine matmul, max-shifted softmax, prototype mixture,
  residual scale), each gradient term added in that chain's order. With
  patient attention on, the encoder's backward reaches every call's
  input before the call itself, so values and gradients keep the
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

The K > ``TILE`` core runs its two hot loops as jobs on a thread pool
with one worker per usable CPU, the forward by rows and the backward by
tiles as in FlashAttention-2 (Dao, arXiv:2307.08691). Every K > ``TILE``
call, ``retrieve``'s too, first pins numpy's OpenBLAS to one thread, so
each core runs whole jobs and none spins inside a split matmul; the pool
is made by the first call that has jobs for it. A forward job takes a
block of ``BLOCK_ROWS`` to ``2 * BLOCK_ROWS - 1`` rows: their
similarities, ``exp``, ``l`` and ``q``. The backward deals its tiles
round-robin to one job per worker; each job writes its tiles' rows of
the K×d terms and returns its tiles' (B, d) terms, which the calling
thread adds in tile order. The utilization weight sums, ``retrieve`` and
every gradient accumulation run on the calling thread. The split depends
on the row count alone, so the bits do not depend on the number of
cores. A call with fewer than ``2 * BLOCK_ROWS`` rows runs as one job on
the calling thread, and a host with one CPU or no OpenBLAS runs the same
jobs there in a loop. OpenBLAS rounds a row block like the same rows of
a whole call at K=4096, d=16; at some other shapes (K not a multiple of
8, or blocks under its small-matrix size) it does not, and there the
bits also depended on its thread count before the pin.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor

FUSION_EPS = 1e-8  # residual-scale division guard
COSINE_EPS = 1e-12  # cosine-similarity norm guard
TILE = 1024  # prototypes per backward tile; larger codebooks take the tiled core
# fewest rows of a forward job; a large-codebook call with fewer than twice
# this many rows runs whole on the calling thread, where the pool's hand-off
# would cost more than the work
BLOCK_ROWS = 64


@functools.cache
def _one_blas_thread() -> bool:
    """Pin the OpenBLAS that numpy loaded to one thread; False when no
    OpenBLAS thread setter is found. Only the first call acts."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return False
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapped file that is not a loadable library
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "scipy_openblas_set_num_threads", "openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return True
    return False


@functools.cache
def _pool():
    """The process's fusion thread pool and its worker count, one worker per
    usable CPU, made on first use. ``(None, 1)`` on one CPU or when OpenBLAS
    could not be pinned, since jobs would then compete with BLAS threads."""
    n_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if n_cpus < 2 or not _one_blas_thread():
        return None, 1
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(n_cpus, thread_name_prefix="codebook"), n_cpus


def _run(job, items: list) -> list:
    """``job(item)`` for every item, in order: on the pool when there are
    several items and a pool, else in a loop on the calling thread."""
    pool = _pool()[0] if len(items) > 1 else None
    if pool is None:
        return [job(item) for item in items]
    return list(pool.map(job, items))


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms (kept as a size-1 axis) and the rows of ``x`` scaled to unit norm."""
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    return norm, x / (norm + COSINE_EPS)


class UnitBook:
    """One forward pass's view of the codebook ``book`` (K, d).

    ``norm`` and ``unit`` are ``unit_rows(book)``; ``norm_eps``,
    ``norm_eps_sq`` and ``norm_safe`` are the fusion backward's guarded
    forms of ``norm``.
    """

    def __init__(self, book: np.ndarray):
        self.norm, self.unit = unit_rows(book)
        self.norm_eps = self.norm + COSINE_EPS
        self.norm_eps_sq = self.norm_eps * self.norm_eps
        self.norm_safe = np.maximum(self.norm, 1e-300)


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
    row_sum = None
    if n_protos > TILE:
        _one_blas_thread()
        weights = np.empty((n_rows, n_protos))
        row_sum, q = np.empty((n_rows, 1)), np.empty((n_rows, c.shape[1]))

        def forward_rows(block):
            # the weights times their row sum; cosines lie in [-1, 1], so
            # exp needs no max shift
            lo, hi = block
            e = np.matmul(g_unit[lo:hi], unit_book.unit.T, out=weights[lo:hi])
            np.exp(e, out=e)
            np.sum(e, axis=-1, keepdims=True, out=row_sum[lo:hi])
            np.divide(np.matmul(e, c, out=q[lo:hi]), row_sum[lo:hi], out=q[lo:hi])

        # near-equal blocks that depend on n_rows alone
        n_blocks = max(n_rows // BLOCK_ROWS, 1)
        _run(forward_rows, [(n_rows * j // n_blocks, n_rows * (j + 1) // n_blocks)
                            for j in range(n_blocks)])
        if weight_sum is not None:  # each prototype's weights summed over the rows
            weight_sum += np.matmul(1.0 / row_sum[:, 0], weights)
    else:
        weights = ad._softmax(np.matmul(g_unit, unit_book.unit.T))
        q = np.matmul(weights, c)
        if weight_sum is not None:
            weight_sum += weights.sum(axis=0)
    q_norm = np.sqrt((q * q).sum(axis=-1, keepdims=True))
    a_m = g_norm + FUSION_EPS
    scale = q_norm / a_m
    saved = (g_norm, q, q_norm, a_m, scale, row_sum) if ad._grad_enabled else None
    return ad._make(x + scale * q, (g, codebook), "soft_fuse",
                    lambda grad: soft_fuse_backward(grad, saved, g, codebook, unit_book))


def _tiled_core(d_q, g_unit, d_cunit, mixture, codebook: Tensor, unit_book: UnitBook,
                q, row_sum) -> np.ndarray:
    # the weights are exp(S) / l; the division moves onto the (B, d) d_q.
    # sum_k w_k * d_w_k over a row is d_q . q, so no pass needs all K at once
    c = codebook.data
    n_rows, n_protos = g_unit.shape[0], c.shape[0]
    d_q = d_q / row_sum
    d_rowterm = (d_q * q).sum(axis=-1, keepdims=True)
    # one job per pool worker and at most one per tile, or one on the
    # calling thread for a call under 2 * BLOCK_ROWS rows; each has two
    # B×TILE tile buffers
    tiles = [(lo, min(lo + TILE, n_protos)) for lo in range(0, n_protos, TILE)]
    n_jobs = min(_pool()[1], len(tiles)) if n_rows >= 2 * BLOCK_ROWS else 1
    tile_buffers = [np.empty(n_rows * TILE) for _ in range(2 * n_jobs)]

    def tile_job(job):
        # tiles job, job + n_jobs, ...: each job has its own two tile
        # buffers and writes only its tiles' rows of mixture and d_cunit
        partials = []
        e_flat, d_flat = tile_buffers[2 * job:2 * job + 2]
        for lo, hi in tiles[job::n_jobs]:
            unit = unit_book.unit[lo:hi]
            size, shape = n_rows * (hi - lo), (n_rows, hi - lo)
            e = np.matmul(g_unit, unit.T, out=e_flat[:size].reshape(shape))
            np.exp(e, out=e)
            np.matmul(e.T, d_q, out=mixture[lo:hi])
            d_s = np.matmul(d_q, c[lo:hi].T, out=d_flat[:size].reshape(shape))
            d_s -= d_rowterm
            d_s *= e
            partials.append(np.matmul(d_s, unit))
            np.matmul(d_s.T, g_unit, out=d_cunit[lo:hi])
        return partials

    partials = _run(tile_job, list(range(n_jobs)))
    d_gunit = np.zeros_like(g_unit)
    for tile in range(len(tiles)):  # in tile order, whatever the job count
        d_gunit += partials[tile % n_jobs][tile // n_jobs]
    ad._accumulate(codebook, mixture)
    return d_gunit


def soft_fuse_backward(grad: np.ndarray, saved: tuple, g: Tensor, codebook: Tensor,
                       unit_book: UnitBook) -> None:
    """``soft_fuse``'s rule over what it ``saved``; ``g`` is its input. g gets:
    output, scale norm, unit rows, unit-row norm; the codebook gets: mixture,
    unit rows, row norms, in the chain's order and, outside the tiled core,
    by the chain's expressions."""
    g_norm, q, q_norm, a_m, scale, row_sum = saved
    x, c = g.data, codebook.data
    ad._accumulate(g, grad)
    # (B, 1) sums over each row, as the chain's unbroadcast took them
    d_scale = (grad * q).sum(axis=1, keepdims=True)
    d_q = grad * scale
    d_q += d_scale / a_m * q / np.maximum(q_norm, 1e-300)
    d_gnorm = -d_scale * q_norm / (a_m * a_m)
    g_norm_safe = np.maximum(g_norm, 1e-300)
    ad._accumulate(g, d_gnorm * x / g_norm_safe)
    a_g = g_norm + COSINE_EPS
    g_unit = x / a_g  # the forward's unit rows, by its expression
    term, d_cunit = np.empty(c.shape), np.empty(c.shape)
    if row_sum is None:
        # the chain's softmax backward; its B×K arrays are freed on return
        w = ad._softmax(np.matmul(g_unit, unit_book.unit.T))  # the forward's weights
        d_w = np.matmul(d_q, c.T)
        ad._accumulate(codebook, np.matmul(w.T, d_q), owned=True)
        d_w -= (d_w * w).sum(axis=-1, keepdims=True)
        d_w *= w
        # in C order: the epilogue's row sum rounds by memory layout
        np.matmul(d_w.T, g_unit, out=d_cunit)
        d_gunit = np.matmul(d_w, unit_book.unit)
        del w, d_w
    else:
        d_gunit = _tiled_core(d_q, g_unit, d_cunit, term, codebook, unit_book, q, row_sum)
    ad._accumulate(g, d_gunit / a_g)
    d_gnorm = (-d_gunit * x / (a_g * a_g)).sum(axis=1, keepdims=True)
    ad._accumulate(g, d_gnorm * x / g_norm_safe)
    ad._accumulate(codebook, np.divide(d_cunit, unit_book.norm_eps, out=term))
    np.negative(d_cunit, out=term)
    term *= c
    term /= unit_book.norm_eps_sq
    d_cnorm = term.sum(axis=1, keepdims=True)
    np.multiply(d_cnorm, c, out=term)
    ad._accumulate(codebook, np.divide(term, unit_book.norm_safe, out=term))


def retrieve(g: Tensor, codebook: Tensor, unit_book: UnitBook) -> Tensor:
    """The codebook row of the most-similar prototype, by cosine, for each
    row of ``g``; ties go to the lowest index.

    ``unit_book`` is the forward's ``UnitBook(codebook.data)``. The argmax
    is not differentiated, so ``g`` is no parent: ``retrieve_backward``
    adds gradient only into the selected codebook rows.
    """
    rows = unit_rows(g.data)[1]
    if len(unit_book.unit) > TILE:
        _one_blas_thread()
    indices = np.matmul(rows, unit_book.unit.T).argmax(axis=1)
    return ad._make(codebook.data[indices], (codebook,), "retrieve",
                    lambda grad: retrieve_backward(grad, codebook, indices))


def retrieve_backward(g: np.ndarray, codebook: Tensor, indices: np.ndarray) -> None:
    """``retrieve``'s rule: each selected row's gradient, summed per prototype."""
    ad._accumulate(codebook, ad._scatter_add(codebook.shape, indices, g), owned=True)


def utilization(weight_sum: np.ndarray) -> float:
    """Fraction of prototypes whose mean weight exceeds uniform 1/K.

    ``weight_sum`` is the per-prototype sum of softmax weight rows, so it
    totals their row count: a whole number of at least one.
    """
    weight_sum = np.asarray(weight_sum, dtype=np.float64)
    total = float(weight_sum.sum())
    n_rows = round(total) if np.isfinite(total) else 0
    if weight_sum.ndim != 1 or n_rows < 1 or abs(total - n_rows) > 1e-6 * n_rows:
        raise ContractError(f"utilization needs a 1-d weight sum over a whole number of rows, "
                            f"at least one, got shape {weight_sum.shape} totalling {total}")
    return float((weight_sum / n_rows > 1.0 / len(weight_sum)).mean())
