"""Tensor operation semantics and gradient correctness.

Every differentiable operation is checked against central finite
differences (the independent oracle: pure numpy loss re-evaluation,
no reuse of the backward rules under test).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaygraph import autodiff as ad
from decaygraph.autodiff import ContractError, ShapeError, Tensor

import chain_ops as co


def numeric_grad(make_loss, tensor, step=1e-5):
    """Central finite differences of a scalar loss wrt one tensor."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = make_loss().item()
        flat[i] = orig - step
        f_minus = make_loss().item()
        flat[i] = orig
        grad_flat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def check_grads(make_loss, tensors, rtol=1e-5, step=1e-5):
    ad.zero_grad(tensors)
    loss = make_loss()
    ad.backward(loss)
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_grad(make_loss, t, step=step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        rel = np.abs(analytic - numeric) / denom
        mask = (np.abs(analytic) > 1e-10) | (np.abs(numeric) > 1e-10)
        worst = float(rel[mask].max()) if mask.any() else 0.0
        assert worst < rtol, f"gradient mismatch {worst:.2e} for {t._op or 'leaf'}"


def rand(shape, seed, lo=-2.0, hi=2.0, avoid_kink=True):
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, shape)
    if avoid_kink:
        # keep away from the relu kink so finite differences stay valid
        x = np.where(np.abs(x) < 1e-3, x + 2e-3, x)
    return x


# -- forward values ----------------------------------------------------------


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = co.matmul(Tensor(np.eye(2)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_selector_row():
    out = co.matmul(Tensor([[1.0, 0.0]]), Tensor([[5.0], [7.0]]))
    np.testing.assert_array_equal(out.data, [[5.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        co.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_softplus_values():
    assert co.softplus(Tensor(0.0)).item() == pytest.approx(np.log(2.0), abs=1e-12)
    assert co.softplus(Tensor(100.0)).item() == pytest.approx(100.0, abs=1e-12)


def test_softplus_gradient_is_sigmoid():
    x = Tensor(1.0, tracked=True)
    ad.backward(co.softplus(x))
    assert x.grad[()] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-12)
    check_grads(lambda: co.softplus(x), [x], rtol=1e-6)


def test_sigmoid_zero():
    assert co.sigmoid(Tensor(0.0)).item() == 0.5


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_rows_normalized_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = Tensor(rng.uniform(-50.0, 50.0, (4, 7)))
        s = ad.softmax(x).data
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(s > 0.0)


def test_linear_shape_error():
    w, b = Tensor(np.zeros((7, 2))), Tensor(np.zeros(2))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 4\).*\(7, 2\)"):
        ad.linear([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))], w, b)
    with pytest.raises(ShapeError):
        ad.linear([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))], w, b)
    with pytest.raises(ShapeError):
        ad.linear([Tensor(np.zeros(7))], w, b)
    with pytest.raises(ShapeError):
        ad.linear([], w, b)


def test_finite_outputs_on_extreme_inputs():
    assert np.isfinite(co.softplus(Tensor([1e3, -1e3])).data).all()
    assert np.isfinite(co.exp(Tensor(-1e3)).data).all()
    assert np.isfinite(ad.softmax(Tensor([[50.0, -50.0, 0.0]])).data).all()


# -- cross entropy ----------------------------------------------------------


def test_cross_entropy_uniform_logits():
    loss = ad.cross_entropy(Tensor([[0.0, 0.0]]), [0])
    assert loss.item() == pytest.approx(np.log(2.0), rel=1e-12)


def test_cross_entropy_large_margin():
    # analytic: log(1 + exp(-20))
    loss = ad.cross_entropy(Tensor([[10.0, -10.0]]), [0])
    assert loss.item() == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-9)
    assert loss.item() == pytest.approx(2.0611536e-9, rel=1e-6)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ContractError, match="index 1"):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


def test_cross_entropy_gradient():
    logits = Tensor(rand((4, 3), seed=5), tracked=True)
    check_grads(lambda: ad.cross_entropy(logits, [0, 2, 1, 0]), [logits], rtol=1e-6)


def _first_write(grad, like):
    """``_accumulate``'s first write into a fresh gradient."""
    return np.add(grad, 0.0, out=np.empty_like(like))


def chain_cross_entropy(x, labels):
    """Loss and logits gradient of the log_softmax -> mul -> sum -> mul node
    chain that ``cross_entropy`` replaces, in that chain's numpy arithmetic."""
    n, c = x.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    shifted = x - x.max(axis=1, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    prod = y * onehot
    picked = np.asarray(prod.sum())
    scale = np.asarray(-1.0 / n)
    loss = np.asarray(picked * scale)
    g_loss = _first_write(np.ones_like(loss), loss)
    g_picked = _first_write(g_loss * scale, picked)
    g_prod = _first_write(np.broadcast_to(g_picked, prod.shape), prod)
    g_y = _first_write(g_prod * onehot, y)
    return loss, _first_write(g_y - np.exp(y) * g_y.sum(axis=1, keepdims=True), x)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), c=st.integers(2, 5), bound=st.sampled_from([1.0, 30.0, 800.0]),
       seed=st.integers(0, 2**16))
def test_cross_entropy_is_one_node_with_the_chain_bits(n, c, bound, seed):
    x = Tensor(rand((n, c), seed, lo=-bound, hi=bound), tracked=True)
    labels = np.random.default_rng(seed).integers(0, c, n)
    loss = ad.cross_entropy(x, labels)
    assert loss._parents == (x,)
    ad.backward(loss)
    expected_loss, expected_grad = chain_cross_entropy(x.data, labels)
    assert loss.data.tobytes() == expected_loss.tobytes()
    assert x.grad.tobytes() == expected_grad.tobytes()


# -- backward semantics -------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], tracked=True)
    ad.backward(co.tensor_sum(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_elementwise_square():
    x = Tensor([1.0, 2.0, 3.0], tracked=True)
    ad.backward(co.tensor_sum(ad.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], tracked=True)
    with pytest.raises(ContractError):
        ad.backward(ad.mul(x, x))


def test_gradient_additivity():
    x = Tensor([0.5, -1.5, 2.0], tracked=True)

    def loss_a():
        return co.tensor_sum(ad.mul(x, x))

    def loss_b():
        return co.tensor_sum(co.sigmoid(x))

    ad.zero_grad([x])
    ad.backward(loss_a())
    ad.backward(loss_b())
    combined_separately = x.grad.copy()

    ad.zero_grad([x])
    ad.backward(ad.add(loss_a(), loss_b()))
    np.testing.assert_allclose(x.grad, combined_separately, rtol=1e-12)


def test_reuse_accumulates():
    x = Tensor([1.0, 2.0], tracked=True)
    y = ad.add(x, x)
    ad.backward(co.tensor_sum(y))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_no_grad_records_nothing_and_restores_mode():
    x = Tensor([[0.5, -1.0]], tracked=True)
    w = Tensor([[1.0], [2.0]], tracked=True)

    def graph():
        return co.sigmoid(ad.linear([x], w, Tensor([0.25])))

    tracked = graph()
    with ad.no_grad():
        untracked = graph()
        with ad.no_grad():
            assert not graph().tracked
        # leaving the inner block keeps the outer one in force
        assert not graph().tracked
    np.testing.assert_array_equal(untracked.data, tracked.data)
    assert not untracked.tracked
    assert untracked._parents == () and untracked._backward is None
    assert tracked.tracked and tracked._backward is not None

    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside no_grad")
    assert graph().tracked


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    x = Tensor([0.5, -1.5, 2.0], tracked=True)
    squared = ad.mul(x, x)
    gated = co.sigmoid(squared)
    loss = co.tensor_sum(gated)
    ad.backward(loss)
    for node in (squared, gated, loss):
        assert node.grad is None
        assert node._parents == () and node._backward is None
    s = 1.0 / (1.0 + np.exp(-x.data * x.data))
    g = s * (1.0 - s)
    np.testing.assert_array_equal(x.grad, g * x.data + g * x.data)


def test_backward_refuses_untracked_loss_and_released_graph():
    x = Tensor([1.0, 2.0], tracked=True)
    with pytest.raises(ContractError, match="untracked"):
        ad.backward(co.tensor_sum(Tensor([1.0, 2.0])))
    with ad.no_grad():
        loss = co.tensor_sum(ad.mul(x, x))
    with pytest.raises(ContractError, match="untracked"):
        ad.backward(loss)

    loss = co.tensor_sum(ad.mul(x, x))
    ad.backward(loss)
    with pytest.raises(ContractError, match="released"):
        ad.backward(loss)
    # a new loss over an interior node of the released graph is refused too
    shared = ad.mul(x, x)
    ad.backward(co.tensor_sum(shared))
    with pytest.raises(ContractError, match="released"):
        ad.backward(co.tensor_sum(co.sigmoid(shared)))


def test_first_gradient_is_a_fresh_array_with_zeros_plus_grad_bits():
    t = Tensor([1.0, 2.0], tracked=True)
    grad = np.array([-0.0, 3.0])
    ad._accumulate(t, grad)
    grad[1] = 7.0
    np.testing.assert_array_equal(t.grad, [0.0, 3.0])
    assert not np.signbit(t.grad[0])
    with pytest.raises(ShapeError, match="gradient shape"):
        ad._accumulate(t, np.ones(1))


# -- finite-difference sweep over every operation -----------------------------


def test_unary_op_gradients():
    cases = [
        (ad.relu, rand((3, 4), 10)),
        (co.sigmoid, rand((3, 4), 11)),
        (co.softplus, rand((3, 4), 12)),
        (co.exp, rand((3, 4), 13, lo=-1.5, hi=1.0)),
        (co.sin, rand((3, 4), 14)),
        (lambda t: ad.linear([t], Tensor(rand((4, 2), 15)), Tensor(rand((2,), 19))),
         rand((3, 4), 15)),
        (ad.softmax, rand((3, 4), 16)),
        (lambda t: ad.reshape(t, (4, 3)), rand((3, 4), 20)),
        (co.transpose_last2, rand((3, 4), 21)),
    ]
    for op, data in cases:
        x = Tensor(data, tracked=True)
        w = Tensor(rand(op(Tensor(data)).shape, 99))

        def loss():
            return co.tensor_sum(ad.mul(op(x), w))

        check_grads(loss, [x])


def test_binary_op_gradients_with_broadcasting():
    cases = [
        (ad.add, (3, 4), (3, 4)),
        (ad.add, (3, 4), (4,)),
        (co.sub, (3, 4), (1, 4)),
        (ad.mul, (3, 4), (3, 1)),
        (co.matmul, (3, 4), (4, 2)),
        (co.matmul, (2, 3, 4), (2, 4, 2)),
    ]
    for i, (op, sa, sb) in enumerate(cases):
        a = Tensor(rand(sa, 30 + i), tracked=True)
        b_data = rand(sb, 60 + i)
        b = Tensor(b_data, tracked=True)
        w = Tensor(rand(op(Tensor(a.data), Tensor(b.data)).shape, 90 + i))

        def loss():
            return co.tensor_sum(ad.mul(op(a, b), w))

        check_grads(loss, [a, b])


def test_linear_and_indexing_gradients():
    a = Tensor(rand((3, 4), 40), tracked=True)
    b = Tensor(rand((3, 2), 41), tracked=True)
    w = Tensor(rand((6, 5), 42), tracked=True)
    bias = Tensor(rand((1, 5), 39), tracked=True)
    out_w = Tensor(rand((3, 5), 38))
    check_grads(lambda: co.tensor_sum(ad.mul(ad.linear([a, b], w, bias), out_w)),
                [a, b, w, bias])

    table = Tensor(rand((6, 3), 43), tracked=True)
    idx = np.array([0, 2, 2, 5])
    w2 = Tensor(rand((4, 3), 44))
    check_grads(lambda: co.tensor_sum(ad.mul(ad.gather_rows(table, idx), w2)), [table])

    rows = Tensor(rand((4, 3), 45), tracked=True)
    w3 = Tensor(rand((5, 3), 46))
    check_grads(lambda: co.tensor_sum(ad.mul(
        co.scatter_add_rows(5, np.array([1, 1, 3, 0]), rows), w3)), [rows])

    base = Tensor(rand((5, 3), 47), tracked=True)
    new_rows = Tensor(rand((2, 3), 48), tracked=True)
    w4 = Tensor(rand((5, 3), 49))
    check_grads(lambda: co.tensor_sum(ad.mul(
        ad.scatter_rows(base, np.array([1, 4]), new_rows), w4)), [base, new_rows])


def test_scatter_rows_rejects_duplicate_indices():
    with pytest.raises(ContractError):
        ad.scatter_rows(Tensor(np.zeros((3, 2))), np.array([1, 1]),
                        Tensor(np.ones((2, 2))))


def test_matmul_grad_matches_fd_example():
    a = Tensor(rand((3, 4), 50), tracked=True)
    b = Tensor(rand((4, 2), 51))
    check_grads(lambda: co.tensor_sum(co.matmul(a, b)), [a], rtol=1e-6)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 4), widths=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       out=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_linear_matches_concat_matmul_add(rows, widths, out, seed):
    parts = [Tensor(rand((rows, width), seed + i), tracked=True)
             for i, width in enumerate(widths)]
    w = Tensor(rand((sum(widths), out), seed + 10), tracked=True)
    b = Tensor(rand((out,), seed + 11), tracked=True)
    expected = np.concatenate([p.data for p in parts], axis=1) @ w.data + b.data
    np.testing.assert_array_equal(ad.linear(parts, w, b).data, expected)

    out_w = Tensor(rand((rows, out), seed + 12))
    check_grads(lambda: co.tensor_sum(ad.mul(ad.linear(parts, w, b), out_w)),
                [*parts, w, b])

    extra_row = Tensor(np.zeros((rows + 1, 1)))
    with pytest.raises(ShapeError):
        ad.linear([*parts, extra_row], Tensor(np.zeros((sum(widths) + 1, out))), b)
    with pytest.raises(ShapeError):
        ad.linear(parts, Tensor(np.zeros((sum(widths) + 1, out))), b)
