"""Per-timestep patient-variable bipartite graphs and message passing.

At each step the batch forms one undirected bipartite graph: an edge
(p, n) exists exactly where patient p observed variable n at that step.
Edge features sum a value embedding, a sinusoidal-plus-linear time
embedding of the absolute timestamp, and a variable type embedding.
Message passing jointly encodes neighbour states with edge features,
aggregates by unweighted sum, and residually updates edge states.

The functions work on arrays. Each part of a layer has a named backward
that adds its terms in the order of the op chain it replaced; a node
update's is ``autodiff._linear_backward``. The model's encoder makes each
part one autodiff node whose rule is that backward.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
    # (E,) each edge's row patient * n_variables + variable in a (B·V, d) bank
    bank_idx: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.bank_idx = self.patient_idx * self.n_variables + self.variable_idx

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


@functools.cache
def _time_masks(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (1, dim) masks of the time embedding's linear component 0
    and of its sinusoidal components."""
    linear_mask = np.zeros((1, dim))
    linear_mask[0, 0] = 1.0
    sine_mask = 1.0 - linear_mask
    linear_mask.flags.writeable = sine_mask.flags.writeable = False
    return linear_mask, sine_mask


def init_edge_embeddings(step: GraphStep, params: dict[str, Tensor],
                         use_time_embedding: bool = True) -> np.ndarray:
    """Per-edge features: value projection + time embedding + type embedding.

    The time embedding has one linear component plus dim-1 sinusoidal
    ones: component 0 is freq[0] * t + phase[0]; component k >= 1 is
    sin(freq[k] * t + phase[k]).
    """
    x_value = step.values.reshape(-1, 1)
    e = np.matmul(x_value, params["edge.value_w"].data) + params["edge.value_b"].data
    if use_time_embedding:
        raw = _time_phase(step, params)
        linear_mask, sine_mask = _time_masks(raw.shape[1])
        e = e + (raw * linear_mask + np.sin(raw) * sine_mask)
    return e + params["edge.var_table"].data[step.variable_idx]


def _time_phase(step: GraphStep, params: dict[str, Tensor]) -> np.ndarray:
    # the sinusoids' argument; backward rebuilds it rather than keep it
    return np.matmul(step.times.reshape(-1, 1), params["edge.time_freq"].data) + \
        params["edge.time_phase"].data


def init_edge_embeddings_backward(g: np.ndarray, step: GraphStep, params: dict[str, Tensor],
                                  use_time_embedding: bool = True) -> None:
    """``init_edge_embeddings``'s rule: add the gradients of its parameters."""
    value_w, value_b = params["edge.value_w"], params["edge.value_b"]
    table = params["edge.var_table"]
    ad._accumulate(value_w, np.matmul(step.values.reshape(-1, 1).T, g), owned=True)
    ad._accumulate_sum(value_b, g)
    if use_time_embedding:
        freq, phase = params["edge.time_freq"], params["edge.time_phase"]
        linear_mask, sine_mask = _time_masks(freq.shape[1])
        g_raw = g * linear_mask + g * sine_mask * np.cos(_time_phase(step, params))
        ad._accumulate(freq, np.matmul(step.times.reshape(-1, 1).T, g_raw), owned=True)
        ad._accumulate_sum(phase, g_raw)
    ad._accumulate(table, ad._scatter_add(table.shape, step.variable_idx, g), owned=True)


def _message(v_src: np.ndarray, src_idx: np.ndarray, e: np.ndarray, dst_idx: np.ndarray,
             n_dst: int, w: Tensor, b: Tensor) -> tuple[np.ndarray, np.ndarray | None]:
    """Sum over edges of relu([v_src[src]; e] @ w + b) into the ``n_dst``
    destination rows ``dst_idx`` names; a row no edge names gets zero.
    Returns it and, in grad mode, the ReLU mask."""
    pre = np.matmul(np.concatenate([v_src[src_idx], e], axis=1), w.data) + b.data
    out = ad._scatter_add((n_dst, pre.shape[1]), dst_idx, np.maximum(pre, 0.0))
    return out, (pre > 0.0 if ad._grad_enabled else None)


def message_backward(g: np.ndarray, v_src: Tensor, src_idx: np.ndarray, e: Tensor,
                     dst_idx: np.ndarray, w: Tensor, b: Tensor, active: np.ndarray) -> None:
    """``_message``'s rule: add the gradients of ``w``, ``b``, ``e`` and
    ``v_src``, in that order."""
    g_x = ad._linear_grads(np.concatenate([v_src.data[src_idx], e.data], axis=1), w, b,
                           g[dst_idx] * active)
    width = v_src.shape[1]
    ad._accumulate(e, g_x[:, width:])
    ad._accumulate(v_src, ad._scatter_add(v_src.shape, src_idx, g_x[:, :width]), owned=True)


def _edge_update(step: GraphStep, v_pat: np.ndarray, v_var: np.ndarray, e: np.ndarray,
                 w: Tensor, b: Tensor) -> tuple[np.ndarray, np.ndarray | None]:
    """e + relu([v_pat[p]; v_var[n]; e] @ w + b) per edge (p, n), and in grad
    mode the ReLU mask."""
    pre = np.matmul(np.concatenate([v_pat[step.patient_idx], v_var[step.variable_idx], e],
                                   axis=1), w.data) + b.data
    return e + np.maximum(pre, 0.0), (pre > 0.0 if ad._grad_enabled else None)


def edge_update_backward(g: np.ndarray, step: GraphStep, v_pat: Tensor, v_var: Tensor,
                         e: Tensor, w: Tensor, b: Tensor, active: np.ndarray) -> None:
    """``_edge_update``'s rule: add the gradients of ``e`` (the residual),
    ``w``, ``b``, ``e`` (the input), ``v_pat`` and ``v_var``."""
    ad._accumulate(e, g)
    x = np.concatenate([v_pat.data[step.patient_idx], v_var.data[step.variable_idx], e.data],
                       axis=1)
    g_x = ad._linear_grads(x, w, b, g * active)
    d_pat, d_var = v_pat.shape[1], v_var.shape[1]
    ad._accumulate(e, g_x[:, d_pat + d_var:])
    ad._accumulate(v_pat, ad._scatter_add(v_pat.shape, step.patient_idx, g_x[:, :d_pat]),
                   owned=True)
    ad._accumulate(v_var, ad._scatter_add(v_var.shape, step.variable_idx,
                                          g_x[:, d_pat:d_pat + d_var]), owned=True)


@dataclass
class LayerArrays:
    """One layer's two message sums, new states and, in grad mode, the ReLU
    masks of both message directions and of the edge update."""
    agg_pat: np.ndarray
    agg_var: np.ndarray
    active_pat: np.ndarray | None
    active_var: np.ndarray | None
    v_pat_new: np.ndarray
    v_var_new: np.ndarray
    e_new: np.ndarray
    active_edge: np.ndarray | None


@functools.cache
def _layer_names(layer: int) -> tuple[str, ...]:
    """The parameter names of message passing layer ``layer``."""
    return tuple(f"sage{layer}.{part}"
                 for part in ("msg_w", "msg_b", "node_w", "node_b", "edge_w", "edge_b"))


def message_pass(step: GraphStep, v_pat: np.ndarray, v_var: np.ndarray, e: np.ndarray,
                 params: dict[str, Tensor], n_layers: int) -> list[LayerArrays]:
    """Sequential application of distinct (unshared) edge-aware layers.

    Each layer sends messages in both directions of the undirected graph
    with shared message weights, sums them (a node with no incident edge
    sums the zero vector), updates each node as relu([state; sum] @ w + b)
    and residually updates each edge from its patient endpoint, variable
    endpoint and own state. Returns each layer's ``LayerArrays``; the last
    one's new states are the output.
    """
    if n_layers < 1:
        raise GraphConfigError(f"message passing needs >= 1 layer, got {n_layers}")
    layers: list[LayerArrays] = []
    for layer in range(n_layers):
        w_msg, b_msg, w_node, b_node, w_edge, b_edge = (params[name]
                                                        for name in _layer_names(layer))
        agg_pat, active_pat = _message(v_var, step.variable_idx, e, step.patient_idx,
                                       step.n_patients, w_msg, b_msg)
        agg_var, active_var = _message(v_pat, step.patient_idx, e, step.variable_idx,
                                       step.n_variables, w_msg, b_msg)
        v_pat = ad._linear_forward([v_pat, agg_pat], w_node, b_node, relu=True)
        v_var = ad._linear_forward([v_var, agg_var], w_node, b_node, relu=True)
        e, active_edge = _edge_update(step, v_pat, v_var, e, w_edge, b_edge)
        layers.append(LayerArrays(agg_pat, agg_var, active_pat, active_var, v_pat, v_var, e,
                                  active_edge))
    return layers
