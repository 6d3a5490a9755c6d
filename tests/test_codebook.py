"""Soft codebook fusion, retrieval and the utilization diagnostic."""

import numpy as np
import pytest

from decaygraph import codebook as cb
from decaygraph.autodiff import ContractError, Tensor


def fuse_oracle(g, book):
    """Plain numpy re-derivation of the fusion update for one row."""
    eps_c, eps = cb.COSINE_EPS, cb.FUSION_EPS
    gn = g / (np.linalg.norm(g) + eps_c)
    cn = book / (np.linalg.norm(book, axis=1, keepdims=True) + eps_c)
    sims = cn @ gn
    w = np.exp(sims - sims.max())
    w /= w.sum()
    quant = w @ book
    alpha = np.linalg.norm(quant) / (np.linalg.norm(g) + eps)
    return g + alpha * quant, w


def test_single_prototype_degenerate_softmax():
    g = np.array([[1.0, 2.0]])
    book = np.array([[3.0, -1.0]])
    fused, weights = cb.soft_fuse(Tensor(g), Tensor(book))
    np.testing.assert_allclose(weights, [[1.0]], atol=1e-15)
    alpha = np.linalg.norm(book[0]) / (np.linalg.norm(g[0]) + cb.FUSION_EPS)
    np.testing.assert_allclose(fused.data, g + alpha * book, atol=1e-12)


def test_identical_prototypes_mix_to_that_prototype():
    c = np.array([0.5, -0.25, 1.0])
    book = np.tile(c, (6, 1))
    g = np.array([[2.0, 0.0, -1.0]])
    fused, weights = cb.soft_fuse(Tensor(g), Tensor(book))
    quant = weights[0] @ book
    np.testing.assert_allclose(quant, c, atol=1e-12)
    alpha = np.linalg.norm(c) / (np.linalg.norm(g[0]) + cb.FUSION_EPS)
    np.testing.assert_allclose(fused.data[0], g[0] + alpha * c, atol=1e-12)


def test_hand_expanded_two_prototype_case():
    g = np.array([[1.0, 0.5]])
    book = np.array([[2.0, 0.0], [0.0, 1.0]])
    fused, weights = cb.soft_fuse(Tensor(g), Tensor(book))
    expected, w_expected = fuse_oracle(g[0], book)
    np.testing.assert_allclose(weights[0], w_expected, atol=1e-9)
    np.testing.assert_allclose(fused.data[0], expected, atol=1e-9)


def test_fusion_weights_positive_and_normalized():
    rng = np.random.default_rng(0)
    g = Tensor(rng.normal(size=(7, 5)))
    book = Tensor(rng.normal(size=(12, 5)))
    _, weights = cb.soft_fuse(g, book)
    assert np.all(weights > 0.0)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)


def test_quantized_vector_in_convex_hull():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(4, 3))
    book = rng.normal(size=(5, 3))
    _, weights = cb.soft_fuse(Tensor(g), Tensor(book))
    # membership certificate: the weights themselves are the hull coefficients
    quant = weights @ book
    for i in range(4):
        recon = sum(weights[i, k] * book[k] for k in range(5))
        np.testing.assert_allclose(quant[i], recon, atol=1e-12)
        assert np.all(weights[i] >= 0.0)
        assert weights[i].sum() == pytest.approx(1.0, abs=1e-12)


def test_fusion_equivariant_under_rotation():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(3, 3))
    book = rng.normal(size=(6, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    base, _ = cb.soft_fuse(Tensor(g), Tensor(book))
    rotated, _ = cb.soft_fuse(Tensor(g @ q), Tensor(book @ q))
    np.testing.assert_allclose(rotated.data, base.data @ q, atol=1e-9)


def test_retrieve_self_match():
    book = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    idx, rows = cb.retrieve(Tensor([[0.0, 2.0, 0.0]]), Tensor(book))
    assert list(idx) == [1]
    np.testing.assert_array_equal(rows.data, [[0.0, 1.0, 0.0]])


def test_retrieve_tie_breaks_low_index():
    book = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # identical best rows
    idx, _ = cb.retrieve(Tensor([[3.0, 0.0]]), Tensor(book))
    assert list(idx) == [0]


def test_retrieve_antisymmetric_under_negation():
    u = np.array([0.6, -0.8])
    book = Tensor(np.stack([u, -u]))
    idx_pos, _ = cb.retrieve(Tensor(u[None, :]), book)
    idx_neg, _ = cb.retrieve(Tensor(-u[None, :]), book)
    assert list(idx_pos) == [0]
    assert list(idx_neg) == [1]


def test_retrieve_scale_invariant():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(5, 4))
    book = Tensor(rng.normal(size=(9, 4)))
    base, _ = cb.retrieve(Tensor(g), book)
    for scale in (0.01, 3.0, 1e4):
        scaled, _ = cb.retrieve(Tensor(scale * g), book)
        np.testing.assert_array_equal(scaled, base)


def test_retrieve_gradient_goes_to_selected_row_only():
    from decaygraph import autodiff as ad
    book = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]), tracked=True)
    idx, rows = cb.retrieve(Tensor([[2.0, 0.1]]), book)
    ad.backward(ad.tensor_sum(rows))
    assert list(idx) == [0]
    np.testing.assert_array_equal(book.grad, [[1.0, 1.0], [0.0, 0.0]])


def test_utilization_uniform_weights():
    weights = np.full((10, 4), 0.25)
    # strict inequality fails everywhere
    assert cb.utilization(weights.sum(axis=0), len(weights)) == 0.0


def test_utilization_single_hot_entry():
    weights = np.zeros((8, 4))
    weights[:, 0] = 1.0
    assert cb.utilization(weights.sum(axis=0), len(weights)) == 0.25


def test_utilization_rejects_unnormalized_rows():
    with pytest.raises(ContractError):
        cb.utilization(np.full((3, 4), 0.3).sum(axis=0), 3)
    with pytest.raises(ContractError):
        cb.utilization(np.zeros(4), 0)
