"""Oracles for the model's layers: the op chains they replace, and the
per-node encoder that was the model's before its layers were array-level.

The model's encoder (``model.DecayGraphClassifier.encode``) makes one
autodiff node per layer over array-level layer functions, each a forward
with a named backward: ``graph.init_edge_embeddings``, the message, node
update and edge update of ``graph.message_pass``,
``temporal.decay_factor``, ``temporal.gated_update``,
``temporal.node_attention``, ``codebook.soft_fuse``, ``codebook.retrieve``
and ``model.head_reweight``. Here, ``as_node`` makes one such pair a node
as ``encode`` does, and the ``layer_*`` functions make each layer that
node, so that a layer can be compared with the chain of small autodiff ops
it replaced, written here with the ops that only those chains used, built
on ``autodiff._make``. A layer must give its chain's values and gradients
bit for bit.

The per-node encoder (``per_node_encode`` over the ``fused_*`` nodes),
whose nodes kept their inputs' arrays and summed rows with ``np.add.at``,
is kept as ``encode``'s oracle: the two give the same logits and
gradients, byte for byte. The per-step edge loop that
``graph.build_graph_steps`` replaced is kept too, and so are helpers that
compare a node with its chain and that corrupt a layer's gradient rule.
"""

from __future__ import annotations

import sys

import numpy as np

from decaygraph import autodiff as ad
from decaygraph import codebook as cb
from decaygraph import graph as gr
from decaygraph import model as md
from decaygraph import temporal as tp
from decaygraph.autodiff import ShapeError, Tensor

# -- ops the chains used -------------------------------------------------------


def add(a, b):
    def bw(g):
        ad._accumulate(a, ad._unbroadcast(g, a.shape))
        ad._accumulate(b, ad._unbroadcast(g, b.shape))

    return ad._make(a.data + b.data, (a, b), "add", bw)


def mul(a, b):
    def bw(g):
        ad._accumulate(a, ad._unbroadcast(g * b.data, a.shape))
        ad._accumulate(b, ad._unbroadcast(g * a.data, b.shape))

    return ad._make(a.data * b.data, (a, b), "mul", bw)


def relu(a):
    def bw(g):
        ad._accumulate(a, g * (a.data > 0.0))

    return ad._make(np.maximum(a.data, 0.0), (a,), "relu", bw)


def reshape(a, shape):
    def bw(g):
        ad._accumulate(a, g.reshape(a.shape))

    return ad._make(a.data.reshape(shape), (a,), "reshape", bw)


def scatter_rows(base, index, rows):
    """Copy of ``base`` with rows at ``index`` replaced by ``rows``; indices
    must be unique."""
    index = np.asarray(index, dtype=np.int64)
    if len(np.unique(index)) != len(index):
        raise ad.ContractError("scatter_rows requires unique indices")
    data = base.data.copy()
    data[index] = rows.data

    def bw(g):
        gb = g.copy()
        gb[index] = 0.0
        ad._accumulate(base, gb)
        ad._accumulate(rows, g[index])

    return ad._make(data, (base, rows), "scatter_rows", bw)


def sub(a, b):
    def bw(g):
        ad._accumulate(a, ad._unbroadcast(g, a.shape))
        ad._accumulate(b, ad._unbroadcast(-g, b.shape))

    return ad._make(a.data - b.data, (a, b), "sub", bw)


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")

    def bw(g):
        ad._accumulate(a, ad._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        ad._accumulate(b, ad._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

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


def softmax(a):
    """Softmax over the last axis as one op; the oracle for ``autodiff._softmax``."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        ad._accumulate(a, s * (g - dot))

    return ad._make(s, (a,), "softmax", bw)


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


def gather_rows(a, index):
    """Select rows ``a[index]``; duplicate indices are allowed."""
    index = np.asarray(index, dtype=np.int64)

    def bw(g):
        ad._accumulate(a, scatter_add(a.shape, index, g), owned=True)

    return ad._make(a.data[index], (a,), "gather_rows", bw)


def scatter_add(shape, index, rows):
    """Zeros of ``shape`` with each row of ``rows`` added at its ``index`` row,
    by ``np.add.at``: the oracle of ``autodiff._scatter_add``."""
    out = np.zeros(shape)
    np.add.at(out, index, rows)
    return out


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
    return add(mul(raw, Tensor(linear_mask)), mul(sin(raw), Tensor(1.0 - linear_mask)))


def init_edge_embeddings(step, params, use_time_embedding=True):
    e = ad.linear([Tensor(step.values.reshape(-1, 1))], params["edge.value_w"],
                  params["edge.value_b"])
    if use_time_embedding:
        e = add(e, time_embedding(step.times, params["edge.time_freq"],
                                  params["edge.time_phase"]))
    return add(e, gather_rows(params["edge.var_table"], step.variable_idx))


def message(v_src, src_idx, e, dst_idx, n_dst, w, b):
    """gather -> linear -> relu -> scatter-add: one direction of messages."""
    rows = relu(ad.linear([gather_rows(v_src, src_idx), e], w, b))
    return scatter_add_rows(n_dst, dst_idx, rows)


def edge_update(step, v_pat, v_var, e, w, b):
    pat_end = gather_rows(v_pat, step.patient_idx)
    var_end = gather_rows(v_var, step.variable_idx)
    return add(e, relu(ad.linear([pat_end, var_end, e], w, b)))


def message_pass_layer(step, v_pat, v_var, e, params, layer):
    w_msg, b_msg = params[f"sage{layer}.msg_w"], params[f"sage{layer}.msg_b"]
    w_node, b_node = params[f"sage{layer}.node_w"], params[f"sage{layer}.node_b"]
    agg_pat = message(v_var, step.variable_idx, e, step.patient_idx, step.n_patients,
                      w_msg, b_msg)
    agg_var = message(v_pat, step.patient_idx, e, step.variable_idx, step.n_variables,
                      w_msg, b_msg)
    v_pat_new = relu(ad.linear([v_pat, agg_pat], w_node, b_node))
    v_var_new = relu(ad.linear([v_var, agg_var], w_node, b_node))
    return v_pat_new, v_var_new, edge_update(step, v_pat_new, v_var_new, e,
                                             params[f"sage{layer}.edge_w"],
                                             params[f"sage{layer}.edge_b"])


def decay_rate(e, kernel, params):
    if kernel == "exp":
        ones = Tensor(np.ones((e.shape[0], 1)))
        return softplus(matmul(ones, params["decay.rate_raw"]))
    hidden = relu(ad.linear([e], params["decay.w1"], params["decay.b1"]))
    return softplus(ad.linear([hidden], params["decay.w2"], params["decay.b2"]))


def decay_factor(e, delta_t, kernel, params):
    delta_t = np.asarray(delta_t, dtype=np.float64).reshape(-1, 1)
    rate = decay_rate(e, kernel, params)
    neg_scaled = mul(rate, Tensor(-delta_t))
    if kernel == "mlp_linear":
        return relu(add(neg_scaled, Tensor(1.0)))
    if kernel == "mlp_gaussian":
        neg_scaled = mul(neg_scaled, mul(rate, Tensor(delta_t)))
    return add(exp(neg_scaled), Tensor(tp.UNDERFLOW_FLOOR))


def gated_update(h_bank, index, e, params, gamma=None):
    h_hat = gather_rows(h_bank, index)
    if gamma is not None:
        h_hat = mul(h_hat, gamma)
    r = sigmoid(ad.linear([e, h_hat], params["gate.w"], params["gate.b"]))
    one_minus = sub(Tensor(1.0), r)
    return scatter_rows(h_bank, index, add(mul(one_minus, h_hat), mul(r, e)))


def node_attention(v_pat, h_bank, w_proj):
    """As ``temporal.node_attention``, with the (B·V, d) bank's reshape."""
    b, d = v_pat.shape
    bank3 = reshape(h_bank, (b, h_bank.data.size // (b * d), d))
    query = reshape(v_pat, (b, 1, d))
    scores = mul(matmul(query, transpose_last2(bank3)), Tensor(1.0 / np.sqrt(d)))
    weights = softmax(scores)
    attended = reshape(matmul(weights, bank3), (b, d))
    return matmul(attended, w_proj)


def bank_gated_update(bank, index, e, params, gamma=None):
    """``gated_update``'s chain on a ``temporal.Bank``: each write makes the
    bank a new array, as the chain's scatter did."""
    bank.tensor = gated_update(bank.tensor, index, e, params, gamma)
    bank.data = bank.tensor.data
    return bank.tensor


def bank_node_attention(v_pat, bank, w_proj):
    """``node_attention``'s chain on a ``temporal.Bank``'s latest version."""
    return node_attention(v_pat, bank.tensor, w_proj)


def head_reweight(h_bank, weights):
    batch, v_count, _ = weights.shape
    dim = h_bank.shape[1]
    bank3 = reshape(h_bank, (batch, v_count, dim))
    return reshape(add(bank3, mul(bank3, Tensor(weights))), (batch, v_count * dim))


# the fused node, and the ReLU op that ``linear``'s argument name hides
FUSED_LINEAR, RELU = ad.linear, relu


def linear(parts, w, b, relu=False):
    """``ad.linear`` with ``relu`` as the chain it fuses: the linear node, then
    the ReLU op."""
    out = FUSED_LINEAR(parts, w, b)
    return RELU(out) if relu else out


def install(monkeypatch):
    """Make ``model.forward`` run the chains instead of the fused layers: the
    per-node encoder over the chains, its parts side by side, then the head."""
    module = sys.modules[__name__]
    for fused, chain in (("fused_init_edge_embeddings", init_edge_embeddings),
                         ("fused_message_pass_layer", message_pass_layer),
                         ("fused_decay_factor", decay_factor),
                         ("fused_head_reweight", head_reweight),
                         ("fused_gated_update", bank_gated_update),
                         ("fused_node_attention", bank_node_attention)):
        monkeypatch.setattr(module, fused, chain)
    monkeypatch.setattr(ad, "linear", linear)
    monkeypatch.setattr(md.DecayGraphClassifier, "encode", per_node_encode)


# -- the per-node encoder ------------------------------------------------------------
# ``model.DecayGraphClassifier.encode`` as it was when each layer was its own
# autodiff node, with those nodes; row sums go through ``np.add.at``.

def fused_init_edge_embeddings(step: gr.GraphStep, params: dict[str, Tensor],
                         use_time_embedding: bool = True) -> Tensor:
    """Per-edge features: value projection + time embedding + type embedding.

    The time embedding has one linear component plus dim-1 sinusoidal
    ones: component 0 is freq[0] * t + phase[0]; component k >= 1 is
    sin(freq[k] * t + phase[k]). One autodiff node.
    """
    value_w, value_b = params["edge.value_w"], params["edge.value_b"]
    freq, phase = params["edge.time_freq"], params["edge.time_phase"]
    table = params["edge.var_table"]
    x_value = step.values.reshape(-1, 1)

    def time_phase():
        # the sinusoids' argument; backward rebuilds it rather than keep it
        return np.matmul(x_time, freq.data) + phase.data

    e = np.matmul(x_value, value_w.data) + value_b.data
    if use_time_embedding:
        x_time = step.times.reshape(-1, 1)
        raw = time_phase()
        linear_mask, sine_mask = gr._time_masks(freq.shape[1])
        e = e + (raw * linear_mask + np.sin(raw) * sine_mask)

    def bw(g):
        ad._accumulate(value_w, np.matmul(x_value.T, g), owned=True)
        ad._accumulate_sum(value_b, g)
        if use_time_embedding:
            g_raw = g * linear_mask + g * sine_mask * np.cos(time_phase())
            ad._accumulate(freq, np.matmul(x_time.T, g_raw), owned=True)
            ad._accumulate_sum(phase, g_raw)
        ad._accumulate(table, scatter_add(table.shape, step.variable_idx, g), owned=True)

    parents = (value_w, value_b, freq, phase, table) if use_time_embedding else \
        (value_w, value_b, table)
    return ad._make(e + table.data[step.variable_idx], parents, "edge_init", bw)


def fused_message(v_src: Tensor, src_idx: np.ndarray, e: Tensor, dst_idx: np.ndarray,
             n_dst: int, w: Tensor, b: Tensor) -> Tensor:
    """Sum over edges of relu([v_src[src]; e] @ w + b) into the ``n_dst``
    destination rows, as one node; a row no edge names gets zero."""
    def inputs():
        return np.concatenate([v_src.data[src_idx], e.data], axis=1)

    pre = np.matmul(inputs(), w.data) + b.data
    active = pre > 0.0 if ad._grad_enabled else None  # read by backward only
    width = v_src.shape[1]

    def bw(g):
        g_x = ad._linear_grads(inputs(), w, b, g[dst_idx] * active)
        ad._accumulate(e, g_x[:, width:])
        ad._accumulate(v_src, scatter_add(v_src.shape, src_idx, g_x[:, :width]),
                       owned=True)

    out = scatter_add((n_dst, pre.shape[1]), dst_idx, np.maximum(pre, 0.0))
    return ad._make(out, (v_src, e, w, b), "message", bw)


def fused_edge_update(step: gr.GraphStep, v_pat: Tensor, v_var: Tensor, e: Tensor,
                 w: Tensor, b: Tensor) -> Tensor:
    """e + relu([v_pat[p]; v_var[n]; e] @ w + b) per edge (p, n), as one node."""
    def inputs():
        return np.concatenate([v_pat.data[step.patient_idx], v_var.data[step.variable_idx],
                               e.data], axis=1)

    pre = np.matmul(inputs(), w.data) + b.data
    active = pre > 0.0 if ad._grad_enabled else None  # read by backward only
    d_pat, d_var = v_pat.shape[1], v_var.shape[1]

    def bw(g):
        ad._accumulate(e, g)
        g_x = ad._linear_grads(inputs(), w, b, g * active)
        ad._accumulate(e, g_x[:, d_pat + d_var:])
        ad._accumulate(v_pat, scatter_add(v_pat.shape, step.patient_idx,
                                              g_x[:, :d_pat]), owned=True)
        ad._accumulate(v_var, scatter_add(v_var.shape, step.variable_idx,
                                              g_x[:, d_pat:d_pat + d_var]), owned=True)

    return ad._make(e.data + np.maximum(pre, 0.0), (v_pat, v_var, e, w, b),
                    "edge_update", bw)


def fused_message_pass_layer(step: gr.GraphStep, v_pat: Tensor, v_var: Tensor, e: Tensor,
                       params: dict[str, Tensor], layer: int) -> tuple[Tensor, Tensor, Tensor]:
    """One edge-aware layer: message, sum-aggregate, node and edge update.

    Messages flow in both directions of the undirected graph with shared
    message weights. Nodes with no incident edge aggregate the zero
    vector. The edge update concatenates patient endpoint first.
    """
    w_msg, b_msg, w_node, b_node, w_edge, b_edge = (params[name]
                                                    for name in gr._layer_names(layer))
    agg_pat = fused_message(v_var, step.variable_idx, e, step.patient_idx, step.n_patients,
                       w_msg, b_msg)
    agg_var = fused_message(v_pat, step.patient_idx, e, step.variable_idx, step.n_variables,
                       w_msg, b_msg)
    v_pat_new = ad.linear([v_pat, agg_pat], w_node, b_node, relu=True)
    v_var_new = ad.linear([v_var, agg_var], w_node, b_node, relu=True)
    return v_pat_new, v_var_new, fused_edge_update(step, v_pat_new, v_var_new, e,
                                              w_edge, b_edge)


def fused_message_pass(step: gr.GraphStep, v_pat: Tensor, v_var: Tensor, e: Tensor,
                 params: dict[str, Tensor], n_layers: int) -> tuple[Tensor, Tensor, Tensor]:
    """Sequential application of distinct (unshared) layers."""
    if n_layers < 1:
        raise gr.GraphConfigError(f"message passing needs >= 1 layer, got {n_layers}")
    for layer in range(n_layers):
        v_pat, v_var, e = fused_message_pass_layer(step, v_pat, v_var, e, params, layer)
    return v_pat, v_var, e


def fused_decay_factor(e: Tensor, delta_t: np.ndarray, kernel: str,
                 params: dict[str, Tensor]) -> Tensor:
    """Discount in [0, 1] per edge for the elapsed interval, as one node.

    The rate is softplus(relu(e @ w1 + b1) @ w2 + b2), or for the ``exp``
    kernel softplus of one shared scalar, so every kernel's rate is >= 0.
    exp kernels: exp(-rate * dt); gaussian: exp(-(rate * dt)^2); linear:
    max(1 - rate * dt, 0), the only kernel that can reach exactly zero.
    Each interval in ``delta_t`` must be non-negative; the model's batch
    plan checks that once per batch.
    """
    delta_t = np.asarray(delta_t, dtype=np.float64).reshape(-1, 1)
    if kernel not in tp.DECAY_KERNELS:
        raise tp.KernelConfigError(f"decay kernel must be one of {tp.DECAY_KERNELS}, "
                                f"got {kernel!r}")
    if kernel == "exp":
        rate_raw = params["decay.rate_raw"]
        parents = (rate_raw,)
        pre = np.repeat(rate_raw.data, e.shape[0], axis=0)
    else:
        w1, b1 = params["decay.w1"], params["decay.b1"]
        w2, b2 = params["decay.w2"], params["decay.b2"]
        parents = (e, w1, b1, w2, b2)

        def first_layer():
            return np.matmul(e.data, w1.data) + b1.data

        pre = np.matmul(np.maximum(first_layer(), 0.0), w2.data) + b2.data
    # softplus: ln(1 + e^x) without overflow, x + log1p(e^-x) when positive
    tail = np.log1p(np.exp(-np.abs(pre)))
    rate = np.where(pre > 0, pre + tail, tail)
    # the sign sits in the constant: rate * (-dt) rounds exactly as -(rate * dt)
    neg_dt = -delta_t
    neg_scaled = rate * neg_dt
    if kernel == "mlp_linear":
        shifted = neg_scaled + 1.0
        out = np.maximum(shifted, 0.0)
    else:
        arg = neg_scaled
        if kernel == "mlp_gaussian":
            scaled = rate * delta_t
            arg = neg_scaled * scaled
        decayed = np.exp(arg)
        out = decayed + tp.UNDERFLOW_FLOOR

    def bw(g):
        if kernel == "mlp_linear":
            g_rate = g * (shifted > 0.0) * neg_dt
        elif kernel == "mlp_gaussian":
            g_arg = g * decayed
            g_rate = g_arg * scaled * neg_dt + g_arg * neg_scaled * delta_t
        else:
            g_rate = g * decayed * neg_dt
        g_pre = g_rate * tp._sigmoid(pre)
        if kernel == "exp":
            ad._accumulate(rate_raw, g_pre.sum(axis=0, keepdims=True), owned=True)
            return
        # the hidden layer, rebuilt by the forward's expression
        pre1 = first_layer()
        g_pre1 = ad._linear_grads(np.maximum(pre1, 0.0), w2, b2, g_pre) * (pre1 > 0.0)
        ad._accumulate(e, ad._linear_grads(e.data, w1, b1, g_pre1), owned=True)

    return ad._make(out, parents, "decay_factor", bw)


class FusedBank:
    """The per-variable hidden states of one forward pass, (B·V, d).

    ``data`` is the one array that every ``gated_update`` writes in place; it
    starts as a copy of ``initial``, whose Tensor stays the first version.
    ``tensor`` is the latest version's Tensor. While grad mode is on, each
    write logs its index and the rows it overwrote, so ``rollback`` can
    restore an earlier version; under ``no_grad`` no backward can read the
    bank, so nothing is logged.
    """

    def __init__(self, initial: Tensor):
        self.data = initial.data.copy()
        self.tensor = initial
        self._undo: list[tuple[np.ndarray, np.ndarray]] = []

    def version(self) -> int:
        """The number of logged writes: ``rollback``'s argument for ``tensor``."""
        return len(self._undo)

    def rollback(self, version: int) -> None:
        """Undo every write after the first ``version``, so ``data`` holds what
        it held when that version's Tensor was made."""
        if version > len(self._undo):
            raise ad.ContractError(f"bank version {version} cannot be restored: the bank "
                                f"was rolled back to version {len(self._undo)}")
        while len(self._undo) > version:
            index, rows = self._undo.pop()
            self.data[index] = rows


def fused_gated_update(bank: FusedBank, index: np.ndarray, e: Tensor,
                       params: dict[str, Tensor], gamma: Tensor | None = None) -> Tensor:
    """Replace each ``index`` row of ``bank`` by its gated update, as one node.

    The stored state h = bank.data[index], decayed to h * gamma when
    ``gamma`` is given, merges with the fresh edge feature as
    (1 - r) * h + r * e with r = sigmoid([e; h] @ w + b). The rows are
    written into ``bank.data`` in place; the node's output, which becomes
    ``bank.tensor``, is that array. Indices must be unique, as a
    ``GraphStep``'s ``bank_idx`` is by construction (``graph.build_graph_steps``
    lists each (patient, variable) pair at most once per step): each bank row
    is written at most once, so the overwritten rows are the stored states.
    """
    w, b = params["gate.w"], params["gate.b"]
    h_bank = bank.tensor

    def decayed(rows):
        return rows if gamma is None else rows * gamma.data

    def inputs(h_hat):
        return np.concatenate([e.data, h_hat], axis=1)

    def gate(x):
        return tp._sigmoid(np.matmul(x, w.data) + b.data)

    rows = bank.data[index]  # a copy: the undo log's entry and the backward's input
    h_hat = decayed(rows)
    r = gate(inputs(h_hat))
    if ad._grad_enabled:
        bank._undo.append((index, rows))
    bank.data[index] = (1.0 - r) * h_hat + r * e.data

    def bw(g):
        # the chain's order: the bank's other rows; the gate's (1 - r) * h_hat,
        # 1 - r, r * e, sigmoid and linear; the decay; the gathered rows. The
        # gate is rebuilt from the logged rows, as the forward computed it.
        # g is this node's own gradient, which backward drops after the rule,
        # so the earlier bank may adopt it
        g_rows = g[index]
        g[index] = 0.0
        ad._accumulate(h_bank, g, owned=True)
        g = g_rows
        h_hat = decayed(rows)
        x = inputs(h_hat)
        r = gate(x)
        one_minus = 1.0 - r
        g_hat = g * one_minus
        g_r = -(g * h_hat) + g * e.data
        ad._accumulate(e, g * r)
        g_x = ad._linear_grads(x, w, b, g_r * r * one_minus)
        ad._accumulate(e, g_x[:, :e.shape[1]])
        g_hat += g_x[:, e.shape[1]:]
        if gamma is not None:
            ad._accumulate(gamma, (g_hat * rows).sum(axis=1, keepdims=True))
            g_hat = g_hat * gamma.data
        ad._accumulate(h_bank, scatter_add(h_bank.shape, index, g_hat), owned=True)

    # backward must reach e before gamma and the bank, as it did through the chain
    parents = (h_bank, e, w, b) if gamma is None else (h_bank, gamma, e, w, b)
    bank.tensor = ad._make(bank.data, parents, "gate", bw)
    return bank.tensor


def fused_node_attention(v_pat: Tensor, bank: FusedBank, w_proj: Tensor) -> Tensor:
    """Patient embedding attends over its previous per-variable states.

    ``bank`` holds each patient's V per-variable states, patient-major, as
    (B·V, d) rows or as (B, V, d); the node reads its latest version. Scores
    are scaled dot products, softmax over the V variable positions, and the
    attended vector replaces the patient state after projection. One
    autodiff node, whose backward rolls the bank back to the version it read.
    """
    b, d = v_pat.shape
    h_bank, version = bank.tensor, bank.version()
    states = bank.data.reshape(b, -1, d)  # a view: it shows every later write
    query = v_pat.data.reshape(b, 1, d)
    scale = 1.0 / np.sqrt(d)
    scores = np.matmul(query, np.swapaxes(states, -1, -2)) * scale
    weights = ad._softmax(scores)

    def attended():
        return np.matmul(weights, states).reshape(b, d)

    def bw(g):
        # the chain's order: projection, mixture, softmax, scale, scores; the
        # bank sums its mixture term, then its transposed scores term
        bank.rollback(version)
        ad._accumulate(w_proj, np.matmul(attended().T, g), owned=True)
        g_mix = np.matmul(g, w_proj.data.T).reshape(b, 1, d)
        g_weights = np.matmul(g_mix, np.swapaxes(states, -1, -2))
        g_bank = np.matmul(np.swapaxes(weights, -1, -2), g_mix)
        dot = (g_weights * weights).sum(axis=-1, keepdims=True)
        g_scores = weights * (g_weights - dot) * scale
        ad._accumulate(v_pat, np.matmul(g_scores, states).reshape(b, d), owned=True)
        g_bank += np.swapaxes(np.matmul(np.swapaxes(query, -1, -2), g_scores), -1, -2)
        ad._accumulate(h_bank, g_bank.reshape(h_bank.shape), owned=True)

    return ad._make(np.matmul(attended(), w_proj.data), (v_pat, h_bank, w_proj),
                    "attention", bw)


def fused_soft_fuse(g: Tensor, codebook: Tensor, unit_book: cb.UnitBook,
              weight_sum: np.ndarray | None = None) -> Tensor:
    """Residual fusion of each row of ``g`` with the prototype mixture.

    ``unit_book`` is the forward's ``UnitBook(codebook.data)``. When
    ``weight_sum`` (K,) is given, the call adds each prototype's softmax
    weight, summed over the rows of ``g``, into it: the utilization
    diagnostic.
    """
    x, c = g.data, codebook.data
    g_norm, g_unit = cb.unit_rows(x)
    n_rows, n_protos = x.shape[0], c.shape[0]
    tiled = n_protos > cb.TILE
    if tiled:
        cb._one_blas_thread()
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
        n_blocks = max(n_rows // cb.BLOCK_ROWS, 1)
        cb._run(forward_rows, [(n_rows * j // n_blocks, n_rows * (j + 1) // n_blocks)
                            for j in range(n_blocks)])
        if weight_sum is not None:  # each prototype's weights summed over the rows
            weight_sum += np.matmul(1.0 / row_sum[:, 0], weights)
    else:
        weights = ad._softmax(np.matmul(g_unit, unit_book.unit.T))
        q = np.matmul(weights, c)
        if weight_sum is not None:
            weight_sum += weights.sum(axis=0)
    q_norm = np.sqrt((q * q).sum(axis=-1, keepdims=True))
    a_m = g_norm + cb.FUSION_EPS
    scale = q_norm / a_m

    def chain_core(d_q, g_unit, d_cunit):
        # the chain's softmax backward; its B×K arrays are freed on return
        w = ad._softmax(np.matmul(g_unit, unit_book.unit.T))  # the forward's weights
        d_w = np.matmul(d_q, c.T)
        ad._accumulate(codebook, np.matmul(w.T, d_q), owned=True)
        d_w -= (d_w * w).sum(axis=-1, keepdims=True)
        d_w *= w
        # in C order: the epilogue's row sum rounds by memory layout
        np.matmul(d_w.T, g_unit, out=d_cunit)
        return np.matmul(d_w, unit_book.unit)

    def tiled_core(d_q, g_unit, d_cunit, mixture):
        # the weights are exp(S) / l; the division moves onto the (B, d) d_q.
        # sum_k w_k * d_w_k over a row is d_q . q, so no pass needs all K at once
        d_q = d_q / row_sum
        d_rowterm = (d_q * q).sum(axis=-1, keepdims=True)
        # one job per pool worker and at most one per tile, or one on the
        # calling thread for a call under 2 * cb.BLOCK_ROWS rows; each has two
        # B×cb.TILE tile buffers
        tiles = [(lo, min(lo + cb.TILE, n_protos)) for lo in range(0, n_protos, cb.TILE)]
        n_jobs = min(cb._pool()[1], len(tiles)) if n_rows >= 2 * cb.BLOCK_ROWS else 1
        tile_buffers = [np.empty(n_rows * cb.TILE) for _ in range(2 * n_jobs)]

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

        partials = cb._run(tile_job, list(range(n_jobs)))
        d_gunit = np.zeros_like(x)
        for tile in range(len(tiles)):  # in tile order, whatever the job count
            d_gunit += partials[tile % n_jobs][tile // n_jobs]
        ad._accumulate(codebook, mixture)
        return d_gunit

    def bw(grad):
        # g gets: output, scale norm, unit rows, unit-row norm; the codebook
        # gets: mixture, unit rows, row norms, in the chain's order. Outside
        # the tiled core each term is the chain's expression. The unit rows
        # are rebuilt by the forward's expression.
        ad._accumulate(g, grad)
        d_scale = ad._unbroadcast(grad * q, scale.shape)
        d_q = grad * scale
        d_q += d_scale / a_m * q / np.maximum(q_norm, 1e-300)
        d_gnorm = -d_scale * q_norm / (a_m * a_m)
        ad._accumulate(g, d_gnorm * x / np.maximum(g_norm, 1e-300))
        g_unit = cb.unit_rows(x)[1]
        term, d_cunit = np.empty(c.shape), np.empty(c.shape)
        d_gunit = (tiled_core(d_q, g_unit, d_cunit, term) if tiled
                   else chain_core(d_q, g_unit, d_cunit))
        a_g = g_norm + cb.COSINE_EPS
        ad._accumulate(g, d_gunit / a_g)
        d_gnorm = ad._unbroadcast(-d_gunit * x / (a_g * a_g), g_norm.shape)
        ad._accumulate(g, d_gnorm * x / np.maximum(g_norm, 1e-300))
        ad._accumulate(codebook, np.divide(d_cunit, unit_book.norm_eps, out=term))
        np.negative(d_cunit, out=term)
        term *= c
        term /= unit_book.norm_eps_sq
        d_cnorm = ad._unbroadcast(term, unit_book.norm.shape)
        np.multiply(d_cnorm, c, out=term)
        ad._accumulate(codebook, np.divide(term, unit_book.norm_safe, out=term))

    return ad._make(x + scale * q, (g, codebook), "soft_fuse", bw)


def fused_retrieve(g: Tensor, codebook: Tensor,
                   unit_book: cb.UnitBook) -> tuple[np.ndarray, Tensor]:
    """Most-similar prototype per row by cosine; ties go to the lowest index.

    ``unit_book`` is the forward's ``UnitBook(codebook.data)``. The argmax
    is not differentiated; gradients flow only into the selected codebook
    rows.
    """
    rows = cb.unit_rows(g.data)[1]
    if len(unit_book.unit) > cb.TILE:
        cb._one_blas_thread()
    indices = np.matmul(rows, unit_book.unit.T).argmax(axis=1)
    return indices, gather_rows(codebook, indices)


def fused_head_reweight(h_bank: Tensor, weights: np.ndarray) -> Tensor:
    """Boost each variable's state by its weight, ``bank * (1 + w)`` as
    ``bank + bank * w``; one node. ``weights`` (B, V, 1) are each episode's
    ``count_weights``, which a ``BatchPlan`` holds."""
    batch, v_count, _ = weights.shape
    dim = h_bank.shape[1]
    bank3 = h_bank.data.reshape(batch, v_count, dim)

    def bw(g):
        # the chain's order: the sum's bank term, then the product's
        g3 = g.reshape(batch, v_count, dim)
        ad._accumulate(h_bank, (g3 + g3 * weights).reshape(h_bank.shape))

    return ad._make((bank3 + bank3 * weights).reshape(batch, v_count * dim), (h_bank,),
                    "head_reweight", bw)


def per_node_encode(model, batch, weight_sum: np.ndarray | None = None) -> list[Tensor]:
    """The head's input parts for a batch, one node per layer, as ``encode`` made them
    before its layers were array-level.

    Walks the batch's graph steps, then retrieves the prototype and
    reweights the hidden bank. Reads no parameter in ``HEAD_BLOCKS``.
    Each codebook fusion adds its weights into ``weight_sum`` if given.
    """
    plan = model.plan(batch)
    cfg = model.config
    flags = model.flags
    d = cfg.hidden_dim
    batch_size = plan.n_patients

    v_pat = gr.init_patient_states(batch_size, d)
    v_var = model.params["node.var_table"]
    book = model.params["codebook"]
    # normalized once, shared by every fusion and the retrieval below
    unit_book = cb.UnitBook(book.data) if flags.use_cb else None
    # every gate writes the (patient, variable) states in place
    bank = FusedBank(Tensor(np.zeros((batch_size * plan.n_variables, d))))

    for t, step in enumerate(plan.steps):
        if step.n_edges == 0:
            continue
        if t >= 1:
            if flags.use_cb:
                v_pat = fused_soft_fuse(v_pat, book, unit_book, weight_sum)
                v_var = fused_soft_fuse(v_var, book, unit_book, weight_sum)
            if flags.use_sna:
                v_pat = fused_node_attention(v_pat, bank, model.params["attn.proj"])

        e = fused_init_edge_embeddings(step, model.params, use_time_embedding=flags.use_te)
        v_pat, v_var, e = fused_message_pass(step, v_pat, v_var, e,
                                             model.params, cfg.n_layers)

        gamma = (fused_decay_factor(e, step.delta_t, cfg.decay_kernel, model.params)
                 if flags.use_tde else None)
        fused_gated_update(bank, step.bank_idx, e, model.params, gamma)

    parts = [v_pat]
    if flags.retrieval_active:
        _, rows = fused_retrieve(v_pat, book, unit_book)
        parts.append(rows)
    if flags.use_hvs:
        parts.append(fused_head_reweight(bank.tensor, plan.count_weights))
    return parts


def per_node_forward(model, batch, weight_sum=None):
    """Logits of ``per_node_encode``'s parts through the model's head, whose
    first ``linear`` reads the parts one by one."""
    w1, b1, w2, b2 = (model.params[name] for name in model.HEAD_BLOCKS)
    hidden = ad.linear(per_node_encode(model, batch, weight_sum), w1, b1, relu=True)
    return ad.linear([hidden], w2, b2)


# -- the array-level layers as nodes ------------------------------------------------


def as_node(out, parents, rule, op="layer"):
    """An array-level layer's output as one autodiff node over ``parents``,
    whose gradient rule calls the layer's backward: ``rule(g)``. Under
    ``no_grad`` a bare Tensor, as ``autodiff._make`` gives."""
    return ad._make(out, parents, op, rule)


def edge_parents(params, use_time_embedding=True):
    names = ("edge.value_w", "edge.value_b", "edge.time_freq", "edge.time_phase",
             "edge.var_table")
    return tuple(params[name] for name in names
                 if use_time_embedding or name not in ("edge.time_freq", "edge.time_phase"))


def layer_init_edge_embeddings(step, params, use_time_embedding=True):
    return as_node(gr.init_edge_embeddings(step, params, use_time_embedding),
                   edge_parents(params, use_time_embedding),
                   lambda g: gr.init_edge_embeddings_backward(g, step, params,
                                                              use_time_embedding),
                   "edge_init")


def message_node(out, v_src, src_idx, e, dst_idx, w, b, active):
    return as_node(out, (v_src, e, w, b),
                   lambda g: gr.message_backward(g, v_src, src_idx, e, dst_idx, w, b, active),
                   "message")


def node_update_node(out, v, agg, w, b):
    return as_node(out, (v, agg, w, b),
                   lambda g: ad._linear_backward(g, (v, agg), w, b, out, True), "linear")


def edge_update_node(out, step, v_pat, v_var, e, w, b, active):
    return as_node(out, (v_pat, v_var, e, w, b),
                   lambda g: gr.edge_update_backward(g, step, v_pat, v_var, e, w, b, active),
                   "edge_update")


def layer_message(v_src, src_idx, e, dst_idx, n_dst, w, b):
    """``graph._message`` as the node it once was."""
    out, active = gr._message(v_src.data, src_idx, e.data, dst_idx, n_dst, w, b)
    return message_node(out, v_src, src_idx, e, dst_idx, w, b, active)


def layer_message_pass(step, v_pat, v_var, e, params, n_layers):
    """``graph.message_pass`` on the ``.data`` of Tensors, each layer's two
    messages, two node updates and edge update made nodes; returns the last
    layer's patient, variable and edge state nodes."""
    for layer, arrays in enumerate(gr.message_pass(step, v_pat.data, v_var.data, e.data,
                                                   params, n_layers)):
        w_msg, b_msg, w_node, b_node, w_edge, b_edge = (params[name]
                                                        for name in gr._layer_names(layer))
        agg_pat = message_node(arrays.agg_pat, v_var, step.variable_idx, e,
                               step.patient_idx, w_msg, b_msg, arrays.active_pat)
        agg_var = message_node(arrays.agg_var, v_pat, step.patient_idx, e,
                               step.variable_idx, w_msg, b_msg, arrays.active_var)
        v_pat = node_update_node(arrays.v_pat_new, v_pat, agg_pat, w_node, b_node)
        v_var = node_update_node(arrays.v_var_new, v_var, agg_var, w_node, b_node)
        e = edge_update_node(arrays.e_new, step, v_pat, v_var, e, w_edge, b_edge,
                             arrays.active_edge)
    return v_pat, v_var, e


def layer_message_pass_layer(step, v_pat, v_var, e, params, layer):
    """One layer of ``layer_message_pass``, whose parameters are those of
    layer ``layer``: ``graph.message_pass`` reads layer 0's names."""
    if layer:
        params = {**params, **{name: params[name.replace("sage0.", f"sage{layer}.")]
                               for name in gr._layer_names(0)}}
    return layer_message_pass(step, v_pat, v_var, e, params, 1)


def layer_decay_factor(e, delta_t, kernel, params):
    out, saved = tp.decay_factor(e.data, delta_t, kernel, params)
    names = (("decay.rate_raw",) if kernel == "exp" else
             ("decay.w1", "decay.b1", "decay.w2", "decay.b2"))
    parents = tuple(params[name] for name in names)
    return as_node(out, parents if kernel == "exp" else (e, *parents),
                   lambda g: tp.decay_factor_backward(g, saved, e, kernel, params),
                   "decay_factor")


class LayerBank:
    """A ``temporal.Bank`` of ``initial``'s data and its latest version's node."""

    def __init__(self, initial):
        self.bank = tp.Bank(initial.data.copy())
        self.tensor = initial


def layer_gated_update(bank, index, e, params, gamma=None):
    """``temporal.gated_update`` on a ``LayerBank``, whose node it replaces."""
    h_bank = bank.tensor
    rows = tp.gated_update(bank.bank, index, e.data, params,
                           None if gamma is None else gamma.data)
    gate = (params["gate.w"], params["gate.b"])
    parents = (h_bank, e, *gate) if gamma is None else (h_bank, gamma, e, *gate)
    bank.tensor = as_node(bank.bank.data, parents,
                          lambda g: tp.gated_update_backward(g, h_bank, gamma, e, index, rows,
                                                             params),
                          "gate")
    return bank.tensor


def layer_node_attention(v_pat, bank, w_proj):
    """``temporal.node_attention`` on a ``LayerBank``'s latest version."""
    h_bank = bank.tensor
    out, saved = tp.node_attention(v_pat.data, bank.bank, w_proj)
    return as_node(out, (v_pat, h_bank, w_proj),
                   lambda g: tp.node_attention_backward(g, saved, v_pat, h_bank, bank.bank,
                                                        w_proj),
                   "attention")


def layer_soft_fuse(g, codebook, unit_book, weight_sum=None):
    out, saved = cb.soft_fuse(g.data, codebook.data, unit_book, weight_sum)
    return as_node(out, (g, codebook),
                   lambda grad: cb.soft_fuse_backward(grad, saved, g, codebook, unit_book),
                   "soft_fuse")


def layer_retrieve(g, codebook, unit_book):
    indices, rows = cb.retrieve(g.data, codebook.data, unit_book)
    return indices, as_node(rows, (codebook,),
                            lambda grad: cb.retrieve_backward(grad, codebook, indices),
                            "retrieve")


def layer_head_reweight(h_bank, weights):
    return as_node(md.head_reweight(h_bank.data, weights), (h_bank,),
                   lambda g: md.head_reweight_backward(g, h_bank, weights), "head_reweight")


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
            inputs[name] = add(own[name], mul(Tensor(rng.normal(size=data.shape)), root))
    out = build(**inputs)
    loss = tensor_sum(mul(out, Tensor(rng.normal(size=out.shape))))
    first = tensor_sum(mul(root, Tensor(rng.normal(size=(1, 1)))))
    for x in inputs.values():
        if direct and x.tracked:
            first = add(first, tensor_sum(mul(x, Tensor(rng.normal(size=x.shape)))))
    # backward explores the last parent first and runs the first one first
    ad.backward(add(first, loss))
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

# every layer's backward and ``linear``'s, by the node each once was, with the
# module its callers read it from
FUSED_NODES = {
    "linear": (ad, "_linear_backward"),
    "soft_fuse": (cb, "soft_fuse_backward"),
    "retrieve": (cb, "retrieve_backward"),
    "init_edge_embeddings": (gr, "init_edge_embeddings_backward"),
    "message": (gr, "message_backward"),
    "edge_update": (gr, "edge_update_backward"),
    "decay_factor": (tp, "decay_factor_backward"),
    "gated_update": (tp, "gated_update_backward"),
    "node_attention": (tp, "node_attention_backward"),
    "head_reweight": (md, "head_reweight_backward"),
}


def corrupt(monkeypatch, node, factor=1.5):
    """Patch ``node``'s backward so that it sees ``factor`` times its gradient."""
    owner, name = FUSED_NODES[node]
    true_rule = getattr(owner, name)

    def corrupted(g, *args):
        return true_rule(g * factor, *args)

    monkeypatch.setattr(owner, name, corrupted)
