"""Tensor operation semantics and gradient correctness.

Every differentiable operation is checked against central finite
differences (the independent oracle: pure numpy loss re-evaluation,
no reuse of the backward rules under test).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from decaygraph import autodiff as ad
from decaygraph import graph as gr
from decaygraph import temporal as tp
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
    out = ad._softmax(np.array([0.0, 0.0]))
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)


def test_softmax_rows_normalized_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = ad._softmax(rng.uniform(-50.0, 50.0, (4, 7)))
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(s > 0.0)


@settings(max_examples=80, deadline=None)
@given(shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
       bound=st.sampled_from([1.0, 30.0, 700.0]), seed=st.integers(0, 2**16),
       edges=st.booleans())
def test_softmax_helper_has_the_op_bits_in_place(shape, bound, seed, edges):
    # generic draws: a reciprocal multiply in place of the division shows in
    # their last bits, which the round values of an element strategy may hide
    x = rand(shape, seed, lo=-bound, hi=bound, avoid_kink=False)
    if edges:  # entries of exactly +-bound, +-700 at the widest
        x.reshape(-1)[0::3] = bound
        x.reshape(-1)[1::3] = -bound
    expected = co.softmax(Tensor(x)).data
    buffer = x.copy()
    out = ad._softmax(buffer)
    assert out is buffer
    assert out.tobytes() == expected.tobytes()


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
    # a bias is a 1-d row of the output width, not a (1, width) array
    with pytest.raises(ShapeError, match=r"\+ \(1, 2\)"):
        ad.linear([Tensor(np.zeros((2, 7)))], w, Tensor(np.zeros((1, 2))))


def test_finite_outputs_on_extreme_inputs():
    assert np.isfinite(co.softplus(Tensor([1e3, -1e3])).data).all()
    assert np.isfinite(co.exp(Tensor(-1e3)).data).all()
    assert np.isfinite(ad._softmax(np.array([[50.0, -50.0, 0.0]]))).all()


# -- cross entropy ----------------------------------------------------------


def test_cross_entropy_uniform_logits():
    loss = ad.cross_entropy(Tensor([[0.0, 0.0]]), ad.one_hot([0], 2))
    assert loss.item() == pytest.approx(np.log(2.0), rel=1e-12)


def test_cross_entropy_large_margin():
    # analytic: log(1 + exp(-20))
    loss = ad.cross_entropy(Tensor([[10.0, -10.0]]), ad.one_hot([0], 2))
    assert loss.item() == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-9)
    assert loss.item() == pytest.approx(2.0611536e-9, rel=1e-6)


@pytest.mark.parametrize("labels, index", [([0, 3], 1), ([-1, 0], 0)])
def test_cross_entropy_label_out_of_range(labels, index):
    with pytest.raises(ContractError, match=f"label {labels[index]} at index {index} "
                                            rf"outside \[0, 3\)"):
        ad.one_hot(labels, 3)


def test_cross_entropy_refuses_one_hot_rows_of_another_shape():
    with pytest.raises(ShapeError, match="does not match logits"):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), ad.one_hot([0, 1], 2))


def test_cross_entropy_gradient():
    logits = Tensor(rand((4, 3), seed=5), tracked=True)
    check_grads(lambda: ad.cross_entropy(logits, ad.one_hot([0, 2, 1, 0], 3)), [logits],
                rtol=1e-6)


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
    loss = ad.cross_entropy(x, ad.one_hot(labels, c))
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
    ad.backward(co.tensor_sum(co.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], tracked=True)
    with pytest.raises(ContractError):
        ad.backward(co.mul(x, x))


def test_gradient_additivity():
    x = Tensor([0.5, -1.5, 2.0], tracked=True)

    def loss_a():
        return co.tensor_sum(co.mul(x, x))

    def loss_b():
        return co.tensor_sum(co.sigmoid(x))

    ad.zero_grad([x])
    ad.backward(loss_a())
    ad.backward(loss_b())
    combined_separately = x.grad.copy()

    ad.zero_grad([x])
    ad.backward(co.add(loss_a(), loss_b()))
    np.testing.assert_allclose(x.grad, combined_separately, rtol=1e-12)


def test_reuse_accumulates():
    x = Tensor([1.0, 2.0], tracked=True)
    y = co.add(x, x)
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
    squared = co.mul(x, x)
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
        loss = co.tensor_sum(co.mul(x, x))
    with pytest.raises(ContractError, match="untracked"):
        ad.backward(loss)

    loss = co.tensor_sum(co.mul(x, x))
    ad.backward(loss)
    with pytest.raises(ContractError, match="released"):
        ad.backward(loss)
    # a new loss over an interior node of the released graph is refused too
    shared = co.mul(x, x)
    ad.backward(co.tensor_sum(shared))
    with pytest.raises(ContractError, match="released"):
        ad.backward(co.tensor_sum(co.sigmoid(shared)))


# the chains' ops, by arity, that random graphs are built from
UNARY_OPS = (co.relu, co.exp, co.sigmoid, co.sin)
BINARY_OPS = (co.add, co.mul, co.sub)


def reference_rule_order(loss):
    """The nodes whose rules ``backward`` runs, in order: the reverse of a
    recursive depth-first post-order from ``loss`` over tracked parents that
    explores a node's last parent first."""
    order, seen = [], set()

    def visit(node):
        seen.add(node)
        for parent in reversed(node._parents):
            if parent.tracked and parent not in seen:
                visit(parent)
        order.append(node)

    visit(loss)
    return [node for node in reversed(order) if node._backward is not None]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_backward_runs_rules_in_reverse_depth_first_post_order(data):
    """The order fixes how a tensor with three or more consumers sums its
    gradient, and so every output bit of the model, whose layers are nodes.
    Random graphs over the chains' ops mix tracked and untracked inputs,
    and one node gets at least three consumers."""
    leaves = [Tensor(np.full((2, 3), 0.25 * (i + 1)), tracked=i == 0 or data.draw(st.booleans()))
              for i in range(data.draw(st.integers(1, 4)))]
    built = list(leaves)

    def draw_from_built():
        return data.draw(st.sampled_from(built))

    for _ in range(data.draw(st.integers(0, 20))):
        if data.draw(st.booleans()):
            built.append(data.draw(st.sampled_from(UNARY_OPS))(draw_from_built()))
        else:
            op = data.draw(st.sampled_from(BINARY_OPS))
            built.append(op(draw_from_built(), draw_from_built()))
    hub = draw_from_built()
    consumed = [hub, hub, hub] + data.draw(st.lists(st.sampled_from(built), max_size=4))
    built.append(co.add(leaves[0], built[-1]))
    for node in consumed:
        built.append(co.add(built[-1], node))
    loss = co.tensor_sum(built[-1])
    ran = []

    def recording(node, rule):
        def rule_and_record(g):
            ran.append(node)
            rule(g)
        return rule_and_record

    for node in built + [loss]:
        if node._backward is not None:
            node._backward = recording(node, node._backward)
    want = reference_rule_order(loss)
    ad.backward(loss)
    assert [id(n) for n in ran] == [id(n) for n in want]


def test_first_gradient_is_a_fresh_copy_in_the_tensors_layout():
    # a Fortran-order tensor and a C-order gradient with a -0 in it
    t = Tensor(np.asfortranarray([[1.0, 2.0], [3.0, 4.0]]), tracked=True)
    grad = np.array([[-0.0, 3.0], [5.0, 6.0]])
    ad._accumulate(t, grad)
    assert not np.shares_memory(t.grad, grad)
    assert t.grad.flags.f_contiguous and not t.grad.flags.c_contiguous
    assert t.grad.tobytes(order="C") == grad.tobytes()
    grad[0, 1] = 7.0
    assert t.grad[0, 1] == 3.0 and np.signbit(t.grad[0, 0])
    ad._accumulate(t, np.ones((2, 2)))
    np.testing.assert_array_equal(t.grad, [[1.0, 4.0], [6.0, 7.0]])
    with pytest.raises(ShapeError, match="gradient shape"):
        ad._accumulate(t, np.ones(1))


def test_backward_leaves_untracked_inputs_without_grad():
    rng = np.random.default_rng(3)
    v_pat, v_var = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
    e, bank = rng.normal(size=(5, 3)), rng.normal(size=(8, 3))
    src, dst = np.array([0, 1, 1, 3, 2]), np.array([0, 0, 1, 1, 1])
    nodes = {
        "linear": lambda t: ad.linear([t["a"], t["b"]], t["w"], t["bias"]),
        "message": lambda t: gr._message(t["v_var"], src, t["e"], dst, 2, t["w"], t["bias"]),
        "attention": lambda t: tp.node_attention(t["v_pat"], tp.Bank(t["bank"]), t["proj"]),
    }
    arrays = {
        "linear": {"a": v_pat, "b": v_pat[:, :1], "w": rng.normal(size=(4, 2)),
                   "bias": rng.normal(size=2)},
        "message": {"v_var": v_var, "e": e, "w": rng.normal(size=(6, 3)),
                    "bias": rng.normal(size=3)},
        "attention": {"v_pat": v_pat, "bank": bank, "proj": rng.normal(size=(3, 3))},
    }
    for node, build in nodes.items():
        for untracked in arrays[node]:
            t = {name: Tensor(data, tracked=name != untracked)
                 for name, data in arrays[node].items()}
            ad.backward(co.tensor_sum(build(t)))
            for name, tensor in t.items():
                assert (tensor.grad is None) == (name == untracked), (node, name)


# -- finite-difference sweep over every operation -----------------------------


def test_unary_op_gradients():
    cases = [
        (co.relu, rand((3, 4), 10)),
        (co.sigmoid, rand((3, 4), 11)),
        (co.softplus, rand((3, 4), 12)),
        (co.exp, rand((3, 4), 13, lo=-1.5, hi=1.0)),
        (co.sin, rand((3, 4), 14)),
        (lambda t: ad.linear([t], Tensor(rand((4, 2), 15)), Tensor(rand((2,), 19))),
         rand((3, 4), 15)),
        (lambda t: ad.linear([t], Tensor(rand((4, 2), 17)), Tensor(rand((2,), 18)),
                             relu=True), rand((3, 4), 17)),
        (co.softmax, rand((3, 4), 16)),
        (lambda t: co.reshape(t, (4, 3)), rand((3, 4), 20)),
        (co.transpose_last2, rand((3, 4), 21)),
    ]
    for op, data in cases:
        x = Tensor(data, tracked=True)
        w = Tensor(rand(op(Tensor(data)).shape, 99))

        def loss():
            return co.tensor_sum(co.mul(op(x), w))

        check_grads(loss, [x])


def test_binary_op_gradients_with_broadcasting():
    cases = [
        (co.add, (3, 4), (3, 4)),
        (co.add, (3, 4), (4,)),
        (co.sub, (3, 4), (1, 4)),
        (co.mul, (3, 4), (3, 1)),
        (co.matmul, (3, 4), (4, 2)),
        (co.matmul, (2, 3, 4), (2, 4, 2)),
    ]
    for i, (op, sa, sb) in enumerate(cases):
        a = Tensor(rand(sa, 30 + i), tracked=True)
        b_data = rand(sb, 60 + i)
        b = Tensor(b_data, tracked=True)
        w = Tensor(rand(op(Tensor(a.data), Tensor(b.data)).shape, 90 + i))

        def loss():
            return co.tensor_sum(co.mul(op(a, b), w))

        check_grads(loss, [a, b])


def test_linear_and_indexing_gradients():
    a = Tensor(rand((3, 4), 40), tracked=True)
    b = Tensor(rand((3, 2), 41), tracked=True)
    w = Tensor(rand((6, 5), 42), tracked=True)
    bias = Tensor(rand((5,), 39), tracked=True)
    out_w = Tensor(rand((3, 5), 38))
    check_grads(lambda: co.tensor_sum(co.mul(ad.linear([a, b], w, bias), out_w)),
                [a, b, w, bias])

    table = Tensor(rand((6, 3), 43), tracked=True)
    idx = np.array([0, 2, 2, 5])
    w2 = Tensor(rand((4, 3), 44))
    check_grads(lambda: co.tensor_sum(co.mul(co.gather_rows(table, idx), w2)), [table])

    rows = Tensor(rand((4, 3), 45), tracked=True)
    w3 = Tensor(rand((5, 3), 46))
    check_grads(lambda: co.tensor_sum(co.mul(
        co.scatter_add_rows(5, np.array([1, 1, 3, 0]), rows), w3)), [rows])

    base = Tensor(rand((5, 3), 47), tracked=True)
    new_rows = Tensor(rand((2, 3), 48), tracked=True)
    w4 = Tensor(rand((5, 3), 49))
    check_grads(lambda: co.tensor_sum(co.mul(
        co.scatter_rows(base, np.array([1, 4]), new_rows), w4)), [base, new_rows])


# signed zeros, infinities, NaN and values whose sums round
SCATTER_VALUES = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25,
                                            1e-300, 3e300, 0.1]),
                           st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), d=st.integers(1, 4), data=st.data())
def test_scatter_add_has_the_bytes_of_add_at(n, d, data):
    """``_scatter_add`` sums rows by ``np.bincount`` over flat positions;
    ``np.add.at`` on zeros gives its bytes, for indices in any order, repeated
    or empty. Where two NaNs meet in a sum, IEEE addition leaves the sign
    and payload of the NaN it returns open, and the two loops differ there
    (inf - inf, then a NaN row, gives -NaN from one and NaN from the other),
    so a NaN need only be a NaN."""
    index = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=9)), dtype=np.int64)
    rows = np.array(data.draw(st.lists(st.lists(SCATTER_VALUES, min_size=d, max_size=d),
                                       min_size=len(index), max_size=len(index))),
                    dtype=np.float64).reshape(len(index), d)
    got = ad._scatter_add((n, d), index, rows)
    want = co.scatter_add((n, d), index, rows)
    assert got.dtype == np.float64 and got.shape == (n, d)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_scatter_add_of_an_empty_index_is_float_zeros():
    # np.bincount alone would give integer zeros
    empty = np.zeros(0, dtype=np.int64)
    got = ad._scatter_add((3, 2), empty, np.zeros((0, 2)))
    assert got.dtype == np.float64
    assert got.tobytes() == co.scatter_add((3, 2), empty, np.zeros((0, 2))).tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), d=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**16))
def test_gather_rows_gradient_sums_duplicate_indices(n, d, data, seed):
    index = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    index.append(index[0])  # at least one row is gathered twice
    table = Tensor(rand((n, d), seed), tracked=True)
    out_w = Tensor(rand((len(index), d), seed + 1))
    np.testing.assert_array_equal(co.gather_rows(table, index).data, table.data[index])
    check_grads(lambda: co.tensor_sum(co.mul(co.gather_rows(table, index), out_w)), [table])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), c=st.integers(2, 5), bound=st.sampled_from([1.0, 3.0]),
       seed=st.integers(0, 2**16))
def test_cross_entropy_gradient_matches_central_differences(n, c, bound, seed):
    # logits within +-3 keep every gradient entry above 1e-4 in size, about
    # 1e6 times the difference's round-off (a loss below 8 over a 2e-5 step)
    logits = Tensor(rand((n, c), seed, lo=-bound, hi=bound, avoid_kink=False), tracked=True)
    labels = np.random.default_rng(seed).integers(0, c, n)
    check_grads(lambda: ad.cross_entropy(logits, ad.one_hot(labels, c)), [logits])


def test_scatter_rows_rejects_duplicate_indices():
    with pytest.raises(ContractError):
        co.scatter_rows(Tensor(np.zeros((3, 2))), np.array([1, 1]),
                        Tensor(np.ones((2, 2))))


def test_matmul_grad_matches_fd_example():
    a = Tensor(rand((3, 4), 50), tracked=True)
    b = Tensor(rand((4, 2), 51))
    check_grads(lambda: co.tensor_sum(co.matmul(a, b)), [a], rtol=1e-6)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 4), widths=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       out=st.integers(1, 3), relu=st.booleans(), seed=st.integers(0, 2**16))
def test_linear_matches_concat_matmul_add(rows, widths, out, relu, seed):
    parts = [Tensor(rand((rows, width), seed + i), tracked=True)
             for i, width in enumerate(widths)]
    w = Tensor(rand((sum(widths), out), seed + 10), tracked=True)
    b = Tensor(rand((out,), seed + 11), tracked=True)
    pre = np.concatenate([p.data for p in parts], axis=1) @ w.data + b.data
    # a step of 1e-5 in an input in [-2, 2] moves a pre-activation by at most
    # 2e-5 times the width, so no central difference crosses the ReLU kink
    assume(not relu or np.abs(pre).min() >= 1e-3)
    expected = np.maximum(pre, 0.0) if relu else pre
    np.testing.assert_array_equal(ad.linear(parts, w, b, relu=relu).data, expected)

    out_w = Tensor(rand((rows, out), seed + 12))
    check_grads(lambda: co.tensor_sum(co.mul(ad.linear(parts, w, b, relu=relu), out_w)),
                [*parts, w, b])

    extra_row = Tensor(np.zeros((rows + 1, 1)))
    with pytest.raises(ShapeError):
        ad.linear([*parts, extra_row], Tensor(np.zeros((sum(widths) + 1, out))), b)
    with pytest.raises(ShapeError):
        ad.linear(parts, Tensor(np.zeros((sum(widths) + 1, out))), b)


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 4), widths=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       out=st.integers(1, 3), dead=st.booleans(), data=st.data(), direct=st.booleans(),
       seed=st.integers(0, 2**16))
def test_linear_relu_is_one_node_with_the_chain_bits(rows, widths, out, dead, data, direct,
                                                     seed):
    rng = np.random.default_rng(seed)
    arrays = {f"p{i}": rng.normal(size=(rows, width)) for i, width in enumerate(widths)}
    arrays.update(w=rng.normal(size=(sum(widths), out)), b=rng.normal(size=out))
    if dead:  # a unit whose pre-activation is exactly 0: the mask must drop it
        arrays["w"][:, 0] = 0.0
        arrays["b"][0] = 0.0
    untracked = data.draw(st.sets(st.sampled_from(sorted(arrays)), max_size=2))

    def runner(linear):
        def build(w, b, **parts):
            return linear([parts[f"p{i}"] for i in range(len(widths))], w, b, relu=True)
        return co.differentiate(build, arrays, leaves=("w", "b"), untracked=untracked,
                                direct=direct, seed=seed)

    co.assert_same_bits(runner(ad.linear), runner(co.linear))
