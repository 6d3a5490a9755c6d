"""Per-timestep patient-variable bipartite graphs and message passing.

At each step the batch forms one undirected bipartite graph: an edge
(p, n) exists exactly where patient p observed variable n at that step.
Edge features sum a value embedding, a sinusoidal-plus-linear time
embedding of the absolute timestamp, and a variable type embedding.
Message passing jointly encodes neighbour states with edge features,
aggregates by unweighted sum, and residually updates edge states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Episode


class GraphDataError(ValueError):
    """An observed edge carries unusable data."""


class GraphConfigError(ValueError):
    """Invalid message passing configuration."""


@dataclass
class GraphStep:
    """Observed edges of one time step, sorted by (patient, variable)."""
    n_patients: int
    n_variables: int
    patient_idx: np.ndarray  # (E,)
    variable_idx: np.ndarray  # (E,)
    values: np.ndarray       # (E,)
    times: np.ndarray        # (E,) absolute hours of the owning step
    delta_t: np.ndarray      # (E,) elapsed interval from the data module's rule

    @property
    def n_edges(self) -> int:
        return len(self.patient_idx)


def build_graph_steps(episodes: list[Episode], n_variables: int) -> list[GraphStep]:
    """Edges of every positional step across the batch, one list per step.

    One ``nonzero`` over the stacked (step, patient, variable) masks gives
    every edge, in an order that is lexicographic in (patient, variable)
    within each step, which makes every downstream aggregation
    deterministic. Episodes shorter than a step contribute no edges to it;
    a step no episode observes gets an empty edge list.
    """
    batch = len(episodes)
    n_steps = max((ep.n_steps for ep in episodes), default=0)
    mask = np.zeros((n_steps, batch, n_variables))
    values = np.zeros((n_steps, batch, n_variables))
    deltas = np.zeros((n_steps, batch, n_variables))
    times = np.zeros((n_steps, batch))
    for p, ep in enumerate(episodes):
        mask[:ep.n_steps, p] = ep.mask
        values[:ep.n_steps, p] = ep.values
        deltas[:ep.n_steps, p] = ep.delta_t
        times[:ep.n_steps, p] = ep.times
    step_idx, patient_idx, variable_idx = np.nonzero(mask)
    edge_values = values[step_idx, patient_idx, variable_idx]
    bad = np.flatnonzero(~np.isfinite(edge_values))
    if len(bad):
        i = bad[0]
        raise GraphDataError(f"non-finite value on edge (patient={patient_idx[i]}, "
                             f"variable={variable_idx[i]}, step={step_idx[i]})")
    edge_times = times[step_idx, patient_idx]
    edge_deltas = deltas[step_idx, patient_idx, variable_idx]
    bounds = np.searchsorted(step_idx, np.arange(n_steps + 1))
    return [GraphStep(batch, n_variables, patient_idx[a:b], variable_idx[a:b],
                      edge_values[a:b], edge_times[a:b], edge_deltas[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])]


def init_patient_states(n_patients: int, dim: int) -> Tensor:
    """Constant unit-norm start vectors, identical for every patient."""
    return Tensor(np.full((n_patients, dim), 1.0 / np.sqrt(dim)))


def init_edge_embeddings(step: GraphStep, params: dict[str, Tensor],
                         use_time_embedding: bool = True) -> Tensor:
    """Per-edge features: value projection + time embedding + type embedding.

    The time embedding has one linear component plus dim-1 sinusoidal
    ones: component 0 is freq[0] * t + phase[0]; component k >= 1 is
    sin(freq[k] * t + phase[k]). One autodiff node.
    """
    value_w, value_b = params["edge.value_w"], params["edge.value_b"]
    freq, phase = params["edge.time_freq"], params["edge.time_phase"]
    table = params["edge.var_table"]
    # (E, 1) copies, as the chain's linear made: the step's arrays are
    # slices of the batch's edge arrays
    x_value = np.concatenate([step.values.reshape(-1, 1)], axis=1)
    e = np.matmul(x_value, value_w.data) + value_b.data
    if use_time_embedding:
        x_time = np.concatenate([step.times.reshape(-1, 1)], axis=1)
        raw = np.matmul(x_time, freq.data) + phase.data
        linear_mask = np.zeros((1, freq.shape[1]))
        linear_mask[0, 0] = 1.0
        sine_mask = 1.0 - linear_mask
        e = e + (raw * linear_mask + np.sin(raw) * sine_mask)

    def bw(g):
        if value_w.tracked:
            ad._accumulate(value_w, np.matmul(x_value.T, g))
        if value_b.tracked:
            ad._accumulate(value_b, ad._unbroadcast(g, value_b.shape))
        if use_time_embedding and (freq.tracked or phase.tracked):
            g_raw = g * linear_mask + g * sine_mask * np.cos(raw)
            if freq.tracked:
                ad._accumulate(freq, np.matmul(x_time.T, g_raw))
            if phase.tracked:
                ad._accumulate(phase, ad._unbroadcast(g_raw, phase.shape))
        if table.tracked:
            ad._accumulate(table, _scatter_add(table.shape, step.variable_idx, g))

    parents = (value_w, value_b, freq, phase, table) if use_time_embedding else \
        (value_w, value_b, table)
    return ad._make(e + table.data[step.variable_idx], parents, "edge_init", bw)


def _scatter_add(shape: tuple, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    out = np.zeros(shape)
    np.add.at(out, index, rows)
    return out


def _message(v_src: Tensor, src_idx: np.ndarray, e: Tensor, dst_idx: np.ndarray,
             n_dst: int, w: Tensor, b: Tensor) -> Tensor:
    """Sum over edges of relu([v_src[src]; e] @ w + b) into the ``n_dst``
    destination rows, as one node; a row no edge names gets zero."""
    x = np.concatenate([v_src.data[src_idx], e.data], axis=1)
    pre = np.matmul(x, w.data) + b.data
    width = v_src.shape[1]

    def bw(g):
        g_pre = g[dst_idx] * (pre > 0.0)
        if v_src.tracked or e.tracked:
            g_x = np.matmul(g_pre, w.data.T)
            if e.tracked:
                ad._accumulate(e, g_x[:, width:])
        if w.tracked:
            ad._accumulate(w, np.matmul(x.T, g_pre))
        if b.tracked:
            ad._accumulate(b, ad._unbroadcast(g_pre, b.shape))
        if v_src.tracked:
            ad._accumulate(v_src, _scatter_add(v_src.shape, src_idx, g_x[:, :width]))

    out = _scatter_add((n_dst, pre.shape[1]), dst_idx, np.maximum(pre, 0.0))
    return ad._make(out, (v_src, e, w, b), "message", bw)


def _edge_update(step: GraphStep, v_pat: Tensor, v_var: Tensor, e: Tensor,
                 w: Tensor, b: Tensor) -> Tensor:
    """e + relu([v_pat[p]; v_var[n]; e] @ w + b) per edge (p, n), as one node."""
    x = np.concatenate([v_pat.data[step.patient_idx], v_var.data[step.variable_idx],
                        e.data], axis=1)
    pre = np.matmul(x, w.data) + b.data
    d_pat, d_var = v_pat.shape[1], v_var.shape[1]

    def bw(g):
        if e.tracked:
            ad._accumulate(e, g)
        g_pre = g * (pre > 0.0)
        if v_pat.tracked or v_var.tracked or e.tracked:
            g_x = np.matmul(g_pre, w.data.T)
            if e.tracked:
                ad._accumulate(e, g_x[:, d_pat + d_var:])
        if w.tracked:
            ad._accumulate(w, np.matmul(x.T, g_pre))
        if b.tracked:
            ad._accumulate(b, ad._unbroadcast(g_pre, b.shape))
        if v_pat.tracked:
            ad._accumulate(v_pat, _scatter_add(v_pat.shape, step.patient_idx,
                                               g_x[:, :d_pat]))
        if v_var.tracked:
            ad._accumulate(v_var, _scatter_add(v_var.shape, step.variable_idx,
                                               g_x[:, d_pat:d_pat + d_var]))

    return ad._make(e.data + np.maximum(pre, 0.0), (v_pat, v_var, e, w, b),
                    "edge_update", bw)


def message_pass_layer(step: GraphStep, v_pat: Tensor, v_var: Tensor, e: Tensor,
                       params: dict[str, Tensor], layer: int) -> tuple[Tensor, Tensor, Tensor]:
    """One edge-aware layer: message, sum-aggregate, node and edge update.

    Messages flow in both directions of the undirected graph with shared
    message weights. Nodes with no incident edge aggregate the zero
    vector. The edge update concatenates patient endpoint first.
    """
    w_msg = params[f"sage{layer}.msg_w"]
    b_msg = params[f"sage{layer}.msg_b"]
    w_node = params[f"sage{layer}.node_w"]
    b_node = params[f"sage{layer}.node_b"]

    agg_pat = _message(v_var, step.variable_idx, e, step.patient_idx, step.n_patients,
                       w_msg, b_msg)
    agg_var = _message(v_pat, step.patient_idx, e, step.variable_idx, step.n_variables,
                       w_msg, b_msg)
    v_pat_new = ad.relu(ad.linear([v_pat, agg_pat], w_node, b_node))
    v_var_new = ad.relu(ad.linear([v_var, agg_var], w_node, b_node))
    return v_pat_new, v_var_new, _edge_update(step, v_pat_new, v_var_new, e,
                                              params[f"sage{layer}.edge_w"],
                                              params[f"sage{layer}.edge_b"])


def message_pass(step: GraphStep, v_pat: Tensor, v_var: Tensor, e: Tensor,
                 params: dict[str, Tensor], n_layers: int) -> tuple[Tensor, Tensor, Tensor]:
    """Sequential application of distinct (unshared) layers."""
    if n_layers < 1:
        raise GraphConfigError(f"message passing needs >= 1 layer, got {n_layers}")
    for layer in range(n_layers):
        v_pat, v_var, e = message_pass_layer(step, v_pat, v_var, e, params, layer)
    return v_pat, v_var, e
