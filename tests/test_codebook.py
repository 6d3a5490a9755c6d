"""Soft codebook fusion, retrieval and the utilization diagnostic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaygraph import autodiff as ad
from decaygraph import codebook as cb
from decaygraph.autodiff import ContractError, Tensor
import chain_ops as co
from test_autodiff import check_grads


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
    fused, weights = cb.soft_fuse(Tensor(g), Tensor(book), cb.unit_rows(book))
    np.testing.assert_allclose(weights, [[1.0]], atol=1e-15)
    alpha = np.linalg.norm(book[0]) / (np.linalg.norm(g[0]) + cb.FUSION_EPS)
    np.testing.assert_allclose(fused.data, g + alpha * book, atol=1e-12)


def test_identical_prototypes_mix_to_that_prototype():
    c = np.array([0.5, -0.25, 1.0])
    book = np.tile(c, (6, 1))
    g = np.array([[2.0, 0.0, -1.0]])
    fused, weights = cb.soft_fuse(Tensor(g), Tensor(book), cb.unit_rows(book))
    quant = weights[0] @ book
    np.testing.assert_allclose(quant, c, atol=1e-12)
    alpha = np.linalg.norm(c) / (np.linalg.norm(g[0]) + cb.FUSION_EPS)
    np.testing.assert_allclose(fused.data[0], g[0] + alpha * c, atol=1e-12)


def test_hand_expanded_two_prototype_case():
    g = np.array([[1.0, 0.5]])
    book = np.array([[2.0, 0.0], [0.0, 1.0]])
    fused, weights = cb.soft_fuse(Tensor(g), Tensor(book), cb.unit_rows(book))
    expected, w_expected = fuse_oracle(g[0], book)
    np.testing.assert_allclose(weights[0], w_expected, atol=1e-9)
    np.testing.assert_allclose(fused.data[0], expected, atol=1e-9)


def test_fusion_weights_positive_and_normalized():
    rng = np.random.default_rng(0)
    g = Tensor(rng.normal(size=(7, 5)))
    book = Tensor(rng.normal(size=(12, 5)))
    _, weights = cb.soft_fuse(g, book, cb.unit_rows(book.data))
    assert np.all(weights > 0.0)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)


def test_quantized_vector_in_convex_hull():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(4, 3))
    book = rng.normal(size=(5, 3))
    _, weights = cb.soft_fuse(Tensor(g), Tensor(book), cb.unit_rows(book))
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
    base, _ = cb.soft_fuse(Tensor(g), Tensor(book), cb.unit_rows(book))
    rotated, _ = cb.soft_fuse(Tensor(g @ q), Tensor(book @ q), cb.unit_rows(book @ q))
    np.testing.assert_allclose(rotated.data, base.data @ q, atol=1e-9)


# The 16-node chain that ``soft_fuse`` replaces, kept as its oracle, with the
# two autodiff ops that only this chain used.

def div(a, b):
    def bw(g):
        if a.tracked:
            ad._accumulate(a, ad._unbroadcast(g / b.data, a.shape))
        if b.tracked:
            ad._accumulate(b, ad._unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return ad._make(a.data / b.data, (a, b), "div", bw)


def l2_norm(a):
    n = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))

    def bw(g):
        ad._accumulate(a, g * a.data / np.maximum(n, 1e-300))

    return ad._make(n, (a,), "l2_norm", bw)


def _row_normalize(x):
    return div(x, ad.add(l2_norm(x), Tensor(cb.COSINE_EPS)))


def chain_soft_fuse(g, codebook):
    sims = co.matmul(_row_normalize(g), co.transpose_last2(_row_normalize(codebook)))
    weights = ad.softmax(sims)
    quantized = co.matmul(weights, codebook)
    scale = div(l2_norm(quantized), ad.add(l2_norm(g), Tensor(cb.FUSION_EPS)))
    return ad.add(g, ad.mul(scale, quantized)), weights.data


def fused_soft_fuse(book):
    unit_book = cb.unit_rows(book.data)  # once for every call, as in the model
    return lambda g, codebook: cb.soft_fuse(g, codebook, unit_book)


def run_fusion(make_fuse, g0, book0, out_weights, track):
    """Successive fusions sharing one codebook, then backward on a loss that
    also reads each output directly, the oldest added last so that the graph
    walk reaches it first. As in the model, backward then meets each call's
    input by another path before the call, and the chain sums the codebook
    gradient per call, newest call first."""
    g = Tensor(g0.copy(), tracked=track != "codebook")
    book = Tensor(book0.copy(), tracked=track != "g")
    fuse = make_fuse(book)
    x, outs, weights = g, [], []
    for _ in out_weights:
        x, w = fuse(x, book)
        outs.append(x)
        weights.append(w.copy())
    terms = [co.tensor_sum(ad.mul(out, Tensor(r))) for out, r in zip(outs, out_weights)]
    loss = terms[-1]
    for term in reversed(terms[:-1]):
        loss = ad.add(loss, term)
    ad.backward(loss)
    return outs, weights, g, book


def assert_chain_bits(g0, book0, out_weights, track):
    outs, weights, g, book = run_fusion(fused_soft_fuse, g0, book0, out_weights, track)
    chain_outs, chain_weights, chain_g, chain_book = run_fusion(
        lambda book: chain_soft_fuse, g0, book0, out_weights, track)
    for out, chain_out in zip(outs, chain_outs):
        assert out.data.tobytes() == chain_out.data.tobytes()
    for w, chain_w in zip(weights, chain_weights):
        assert w.tobytes() == chain_w.tobytes()
    for t, chain_t in ((g, chain_g), (book, chain_book)):
        assert (t.grad is None) == (not t.tracked) == (chain_t.grad is None)
        if t.tracked:
            assert t.grad.tobytes() == chain_t.grad.tobytes()


@settings(max_examples=80, deadline=None)
@given(b=st.integers(1, 6), k=st.integers(1, 9), d=st.integers(1, 20),
       calls=st.integers(1, 3), track=st.sampled_from(["both", "g", "codebook"]),
       magnitude=st.sampled_from([1e-3, 1.0, 50.0]), zero_rows=st.booleans(),
       seed=st.integers(0, 2**16))
def test_soft_fuse_is_one_node_with_the_chain_bits(b, k, d, calls, track, magnitude,
                                                   zero_rows, seed):
    rng = np.random.default_rng(seed)
    g0 = magnitude * rng.normal(size=(b, d))
    book0 = rng.normal(size=(k, d))
    if zero_rows:
        g0[0] = 0.0
        book0[-1] = 0.0
    assert_chain_bits(g0, book0, [rng.normal(size=(b, d)) for _ in range(calls)], track)


def test_soft_fuse_keeps_the_chain_bits_at_model_size():
    # numpy lays out some temporaries of this size (K=4096, d=16, the
    # default model) in another memory order, which moves a row sum's bits
    rng = np.random.default_rng(7)
    out_weights = [rng.normal(size=(4, 16)) for _ in range(2)]
    assert_chain_bits(rng.normal(size=(4, 16)), rng.normal(size=(4096, 16)),
                      out_weights, "both")


def test_soft_fuse_records_one_node():
    g = Tensor(np.ones((2, 3)), tracked=True)
    book = Tensor(np.eye(3), tracked=True)
    fused, _ = cb.soft_fuse(g, book, cb.unit_rows(book.data))
    assert fused._op == "soft_fuse" and fused._parents == (g, book)


def test_soft_fuse_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    g = Tensor(rng.normal(size=(3, 4)), tracked=True)
    book = Tensor(rng.normal(size=(5, 4)), tracked=True)
    r = Tensor(rng.normal(size=(3, 4)))

    def loss():
        unit_book = cb.unit_rows(book.data)
        once, _ = cb.soft_fuse(g, book, unit_book)
        twice, _ = cb.soft_fuse(once, book, unit_book)
        return co.tensor_sum(ad.mul(twice, r))

    check_grads(loss, [g, book], rtol=1e-5)


def test_retrieve_self_match():
    book = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    idx, rows = cb.retrieve(Tensor([[0.0, 2.0, 0.0]]), Tensor(book), cb.unit_rows(book))
    assert list(idx) == [1]
    np.testing.assert_array_equal(rows.data, [[0.0, 1.0, 0.0]])


def test_retrieve_tie_breaks_low_index():
    book = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # identical best rows
    idx, _ = cb.retrieve(Tensor([[3.0, 0.0]]), Tensor(book), cb.unit_rows(book))
    assert list(idx) == [0]


def test_retrieve_antisymmetric_under_negation():
    u = np.array([0.6, -0.8])
    book = Tensor(np.stack([u, -u]))
    idx_pos, _ = cb.retrieve(Tensor(u[None, :]), book, cb.unit_rows(book.data))
    idx_neg, _ = cb.retrieve(Tensor(-u[None, :]), book, cb.unit_rows(book.data))
    assert list(idx_pos) == [0]
    assert list(idx_neg) == [1]


def test_retrieve_scale_invariant():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(5, 4))
    book = Tensor(rng.normal(size=(9, 4)))
    base, _ = cb.retrieve(Tensor(g), book, cb.unit_rows(book.data))
    for scale in (0.01, 3.0, 1e4):
        scaled, _ = cb.retrieve(Tensor(scale * g), book, cb.unit_rows(book.data))
        np.testing.assert_array_equal(scaled, base)


def test_retrieve_gradient_goes_to_selected_row_only():
    from decaygraph import autodiff as ad
    book = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]), tracked=True)
    idx, rows = cb.retrieve(Tensor([[2.0, 0.1]]), book, cb.unit_rows(book.data))
    ad.backward(co.tensor_sum(rows))
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
