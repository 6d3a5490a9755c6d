"""Oracles for the fused autodiff nodes: the op chains they replace.

The model's per-step layers are single nodes with hand-written backward
rules (``graph.init_edge_embeddings``, the message and edge-update nodes
of ``graph.message_pass_layer``, ``temporal.decay_factor``,
``temporal.gated_update`` and ``temporal.node_attention``). Here each is
written as the chain of small autodiff ops it replaced, with the ops
that only those chains used, built on ``autodiff._make``. A fused node
must give these chains' values and gradients bit for bit. The per-step
edge loop that ``graph.build_graph_steps`` replaced is kept too, and
so are helpers that compare a node with its chain and that corrupt a
node's gradient rule.
"""

from __future__ import annotations

import numpy as np

from decaygraph import autodiff as ad
from decaygraph import codebook as cb
from decaygraph import graph as gr
from decaygraph import temporal as tp
from decaygraph.autodiff import ShapeError, Tensor

# -- ops the chains used -------------------------------------------------------


def sub(a, b):
    def bw(g):
        if a.tracked:
            ad._accumulate(a, ad._unbroadcast(g, a.shape))
        if b.tracked:
            ad._accumulate(b, ad._unbroadcast(-g, b.shape))

    return ad._make(a.data - b.data, (a, b), "sub", bw)


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")

    def bw(g):
        if a.tracked:
            ad._accumulate(a, ad._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                                              a.shape))
        if b.tracked:
            ad._accumulate(b, ad._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                                              b.shape))

    return ad._make(np.matmul(a.data, b.data), (a, b), "matmul", bw)


def sigmoid(a):
    s = tp._sigmoid(a.data)

    def bw(g):
        ad._accumulate(a, g * s * (1.0 - s))

    return ad._make(s, (a,), "sigmoid", bw)


def softplus(a):
    x = a.data
    tail = np.log1p(np.exp(-np.abs(x)))

    def bw(g):
        ad._accumulate(a, g * tp._sigmoid(x))

    return ad._make(np.where(x > 0, x + tail, tail), (a,), "softplus", bw)


def exp(a):
    e = np.exp(a.data)

    def bw(g):
        ad._accumulate(a, g * e)

    return ad._make(e, (a,), "exp", bw)


def sin(a):
    def bw(g):
        ad._accumulate(a, g * np.cos(a.data))

    return ad._make(np.sin(a.data), (a,), "sin", bw)


def tensor_sum(a):
    """Sum of every element, as a 0-d tensor; reduces an output to a loss."""
    def bw(g):
        ad._accumulate(a, np.broadcast_to(g, a.shape))

    return ad._make(a.data.sum(), (a,), "sum", bw)


def transpose_last2(a):
    if a.ndim < 2:
        raise ShapeError(f"transpose_last2 needs rank >= 2, got shape {a.shape}")

    def bw(g):
        ad._accumulate(a, np.swapaxes(g, -1, -2))

    return ad._make(np.swapaxes(a.data, -1, -2), (a,), "transpose_last2", bw)


def scatter_add_rows(n_rows, index, rows):
    index = np.asarray(index, dtype=np.int64)
    if rows.ndim != 2:
        raise ShapeError(f"scatter_add_rows expects 2-d rows, got {rows.shape}")
    data = np.zeros((n_rows, rows.shape[1]), dtype=np.float64)
    np.add.at(data, index, rows.data)

    def bw(g):
        ad._accumulate(rows, g[index])

    return ad._make(data, (rows,), "scatter_add_rows", bw)


# -- the chains ----------------------------------------------------------------


def build_graph_step(episodes, step, n_variables):
    """Edges of one positional step, patient by patient."""
    patients, variables, values, times, deltas = [], [], [], [], []
    for p, ep in enumerate(episodes):
        if step >= ep.n_steps:
            continue
        t_abs = float(ep.times[step])
        for n in np.flatnonzero(ep.mask[step]):
            x = ep.values[step, n]
            if not np.isfinite(x):
                raise gr.GraphDataError(f"non-finite value on edge (patient={p}, "
                                        f"variable={n}, step={step})")
            patients.append(p)
            variables.append(int(n))
            values.append(float(x))
            times.append(t_abs)
            deltas.append(float(ep.delta_t[step, n]))
    return gr.GraphStep(len(episodes), n_variables, np.asarray(patients, dtype=np.int64),
                        np.asarray(variables, dtype=np.int64),
                        np.asarray(values, dtype=np.float64),
                        np.asarray(times, dtype=np.float64),
                        np.asarray(deltas, dtype=np.float64))


def time_embedding(times, freq, phase):
    raw = ad.linear([Tensor(times.reshape(-1, 1))], freq, phase)
    linear_mask = np.zeros((1, freq.shape[1]))
    linear_mask[0, 0] = 1.0
    return ad.add(ad.mul(raw, Tensor(linear_mask)),
                  ad.mul(sin(raw), Tensor(1.0 - linear_mask)))


def init_edge_embeddings(step, params, use_time_embedding=True):
    e = ad.linear([Tensor(step.values.reshape(-1, 1))], params["edge.value_w"],
                  params["edge.value_b"])
    if use_time_embedding:
        e = ad.add(e, time_embedding(step.times, params["edge.time_freq"],
                                     params["edge.time_phase"]))
    return ad.add(e, ad.gather_rows(params["edge.var_table"], step.variable_idx))


def message(v_src, src_idx, e, dst_idx, n_dst, w, b):
    """gather -> linear -> relu -> scatter-add: one direction of messages."""
    rows = ad.relu(ad.linear([ad.gather_rows(v_src, src_idx), e], w, b))
    return scatter_add_rows(n_dst, dst_idx, rows)


def edge_update(step, v_pat, v_var, e, w, b):
    pat_end = ad.gather_rows(v_pat, step.patient_idx)
    var_end = ad.gather_rows(v_var, step.variable_idx)
    return ad.add(e, ad.relu(ad.linear([pat_end, var_end, e], w, b)))


def message_pass_layer(step, v_pat, v_var, e, params, layer):
    w_msg, b_msg = params[f"sage{layer}.msg_w"], params[f"sage{layer}.msg_b"]
    w_node, b_node = params[f"sage{layer}.node_w"], params[f"sage{layer}.node_b"]
    agg_pat = message(v_var, step.variable_idx, e, step.patient_idx, step.n_patients,
                      w_msg, b_msg)
    agg_var = message(v_pat, step.patient_idx, e, step.variable_idx, step.n_variables,
                      w_msg, b_msg)
    v_pat_new = ad.relu(ad.linear([v_pat, agg_pat], w_node, b_node))
    v_var_new = ad.relu(ad.linear([v_var, agg_var], w_node, b_node))
    return v_pat_new, v_var_new, edge_update(step, v_pat_new, v_var_new, e,
                                             params[f"sage{layer}.edge_w"],
                                             params[f"sage{layer}.edge_b"])


def decay_rate(e, kernel, params):
    if kernel == "exp":
        ones = Tensor(np.ones((e.shape[0], 1)))
        return softplus(matmul(ones, params["decay.rate_raw"]))
    hidden = ad.relu(ad.linear([e], params["decay.w1"], params["decay.b1"]))
    return softplus(ad.linear([hidden], params["decay.w2"], params["decay.b2"]))


def decay_factor(e, delta_t, kernel, params):
    delta_t = np.asarray(delta_t, dtype=np.float64).reshape(-1, 1)
    rate = decay_rate(e, kernel, params)
    neg_scaled = ad.mul(rate, Tensor(-delta_t))
    if kernel == "mlp_linear":
        return ad.relu(ad.add(neg_scaled, Tensor(1.0)))
    if kernel == "mlp_gaussian":
        neg_scaled = ad.mul(neg_scaled, ad.mul(rate, Tensor(delta_t)))
    return ad.add(exp(neg_scaled), Tensor(tp.UNDERFLOW_FLOOR))


def gated_update(e, h_hat, params):
    r = sigmoid(ad.linear([e, h_hat], params["gate.w"], params["gate.b"]))
    one_minus = sub(Tensor(1.0), r)
    return ad.add(ad.mul(one_minus, h_hat), ad.mul(r, e))


def node_attention(v_pat, h_bank, w_proj):
    """As ``temporal.node_attention``, with the (B·V, d) bank's reshape."""
    b, d = v_pat.shape
    bank3 = ad.reshape(h_bank, (b, h_bank.data.size // (b * d), d))
    query = ad.reshape(v_pat, (b, 1, d))
    scores = ad.mul(matmul(query, transpose_last2(bank3)), Tensor(1.0 / np.sqrt(d)))
    weights = ad.softmax(scores)
    attended = ad.reshape(matmul(weights, bank3), (b, d))
    return matmul(attended, w_proj)


def install(monkeypatch):
    """Make ``model.forward`` run the chains instead of the fused nodes."""
    for owner, name in ((gr, "init_edge_embeddings"), (gr, "message_pass_layer"),
                        (tp, "decay_factor"), (tp, "gated_update"),
                        (tp, "node_attention")):
        monkeypatch.setattr(owner, name, globals()[name])


# -- a harness that compares a node with its chain -------------------------------


def differentiate(build, arrays, leaves, untracked=(), direct=True, seed=0):
    """Output and gradients of ``build(**inputs)`` under a loss that reads it.

    Each input in ``leaves`` is a leaf tensor. Every other tracked input is
    its own leaf plus a multiple of one shared (1, 1) root, so the root sums
    one gradient term per input, in the order backward reaches the inputs.
    Inputs in ``untracked`` are plain constants. The loss also reads the
    root, and with ``direct`` every tracked input, through terms backward
    runs before the node, so the node's gradient terms are added onto
    gradients that already exist. Returns the output data and the gradient
    of every leaf, the root's under ``"root"``.
    """
    rng = np.random.default_rng(seed)
    root = Tensor(np.array([[0.5]]), tracked=True)
    own, inputs = {}, {}
    for name, data in arrays.items():
        own[name] = Tensor(data.copy(), tracked=name not in untracked)
        if name in leaves or name in untracked:
            inputs[name] = own[name]
        else:
            inputs[name] = ad.add(own[name], ad.mul(Tensor(rng.normal(size=data.shape)), root))
    out = build(**inputs)
    loss = tensor_sum(ad.mul(out, Tensor(rng.normal(size=out.shape))))
    first = tensor_sum(ad.mul(root, Tensor(rng.normal(size=(1, 1)))))
    for x in inputs.values():
        if direct and x.tracked:
            first = ad.add(first, tensor_sum(ad.mul(x, Tensor(rng.normal(size=x.shape)))))
    # backward explores the last parent first and runs the first one first
    ad.backward(ad.add(first, loss))
    return out.data, {"root": root.grad, **{name: t.grad for name, t in own.items()}}


def assert_same_bits(fused, chain):
    """Two ``differentiate`` results agree byte for byte."""
    (out_a, grads_a), (out_b, grads_b) = fused, chain
    assert out_a.tobytes() == out_b.tobytes()
    assert grads_a.keys() == grads_b.keys()
    for name in grads_a:
        a, b = grads_a[name], grads_b[name]
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.tobytes() == b.tobytes(), name


# -- corrupted gradient rules ------------------------------------------------------

# every fused node and ``linear``, with the module its callers read it from
FUSED_NODES = {
    "linear": (ad, "linear"),
    "soft_fuse": (cb, "soft_fuse"),
    "init_edge_embeddings": (gr, "init_edge_embeddings"),
    "message": (gr, "_message"),
    "edge_update": (gr, "_edge_update"),
    "decay_factor": (tp, "decay_factor"),
    "gated_update": (tp, "gated_update"),
    "node_attention": (tp, "node_attention"),
}


def corrupt(monkeypatch, node):
    """Patch ``node`` so that its gradient rule sees 1.5 times its gradient."""
    owner, name = FUSED_NODES[node]
    true_op = getattr(owner, name)

    def corrupted(*args, **kwargs):
        out = true_op(*args, **kwargs)
        tensor = out[0] if isinstance(out, tuple) else out  # soft_fuse also returns weights
        inner = tensor._backward
        if inner is not None:
            tensor._backward = lambda g: inner(g * 1.5)
        return out

    monkeypatch.setattr(owner, name, corrupted)
