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


def build_graph_step(episodes: list[Episode], step: int, n_variables: int) -> GraphStep:
    """Edges for one positional step across the batch.

    Episodes shorter than the requested step contribute no edges. The
    edge list order is lexicographic in (patient, variable), which makes
    every downstream aggregation deterministic.
    """
    patients, variables, values, times, deltas = [], [], [], [], []
    for p, ep in enumerate(episodes):
        if step >= ep.n_steps:
            continue
        t_abs = float(ep.times[step])
        for n in np.flatnonzero(ep.mask[step]):
            x = ep.values[step, n]
            if not np.isfinite(x):
                raise GraphDataError(f"non-finite value on edge (patient={p}, "
                                     f"variable={n}, step={step})")
            patients.append(p)
            variables.append(int(n))
            values.append(float(x))
            times.append(t_abs)
            deltas.append(float(ep.delta_t[step, n]))
    return GraphStep(
        n_patients=len(episodes),
        n_variables=n_variables,
        patient_idx=np.asarray(patients, dtype=np.int64),
        variable_idx=np.asarray(variables, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        times=np.asarray(times, dtype=np.float64),
        delta_t=np.asarray(deltas, dtype=np.float64),
    )


def init_patient_states(n_patients: int, dim: int) -> Tensor:
    """Constant unit-norm start vectors, identical for every patient."""
    return Tensor(np.full((n_patients, dim), 1.0 / np.sqrt(dim)))


def time_embedding(times: np.ndarray, freq: Tensor, phase: Tensor) -> Tensor:
    """One linear component plus dim-1 sinusoidal components.

    Component 0 is freq[0] * t + phase[0]; component k >= 1 is
    sin(freq[k] * t + phase[k]).
    """
    t_col = Tensor(times.reshape(-1, 1))
    raw = ad.linear([t_col], freq, phase)
    dim = freq.shape[1]
    linear_mask = np.zeros((1, dim))
    linear_mask[0, 0] = 1.0
    sine_mask = 1.0 - linear_mask
    return ad.add(ad.mul(raw, Tensor(linear_mask)),
                  ad.mul(ad.sin(raw), Tensor(sine_mask)))


def init_edge_embeddings(step: GraphStep, params: dict[str, Tensor],
                         use_time_embedding: bool = True) -> Tensor:
    """Per-edge features: value projection + time embedding + type embedding."""
    value_col = Tensor(step.values.reshape(-1, 1))
    e = ad.linear([value_col], params["edge.value_w"], params["edge.value_b"])
    if use_time_embedding:
        e = ad.add(e, time_embedding(step.times, params["edge.time_freq"],
                                     params["edge.time_phase"]))
    return ad.add(e, ad.gather_rows(params["edge.var_table"], step.variable_idx))


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
    w_edge = params[f"sage{layer}.edge_w"]
    b_edge = params[f"sage{layer}.edge_b"]

    var_src = ad.gather_rows(v_var, step.variable_idx)
    msg_to_pat = ad.relu(ad.linear([var_src, e], w_msg, b_msg))
    agg_pat = ad.scatter_add_rows(step.n_patients, step.patient_idx, msg_to_pat)

    pat_src = ad.gather_rows(v_pat, step.patient_idx)
    msg_to_var = ad.relu(ad.linear([pat_src, e], w_msg, b_msg))
    agg_var = ad.scatter_add_rows(step.n_variables, step.variable_idx, msg_to_var)

    v_pat_new = ad.relu(ad.linear([v_pat, agg_pat], w_node, b_node))
    v_var_new = ad.relu(ad.linear([v_var, agg_var], w_node, b_node))

    pat_end = ad.gather_rows(v_pat_new, step.patient_idx)
    var_end = ad.gather_rows(v_var_new, step.variable_idx)
    update = ad.relu(ad.linear([pat_end, var_end, e], w_edge, b_edge))
    return v_pat_new, v_var_new, ad.add(e, update)


def message_pass(step: GraphStep, v_pat: Tensor, v_var: Tensor, e: Tensor,
                 params: dict[str, Tensor], n_layers: int) -> tuple[Tensor, Tensor, Tensor]:
    """Sequential application of distinct (unshared) layers."""
    if n_layers < 1:
        raise GraphConfigError(f"message passing needs >= 1 layer, got {n_layers}")
    for layer in range(n_layers):
        v_pat, v_var, e = message_pass_layer(step, v_pat, v_var, e, params, layer)
    return v_pat, v_var, e
