"""Bipartite graph construction, edge embeddings and message passing.

The one-edge oracle re-derives the layer arithmetic densely in plain
numpy, independent of the tensor library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaygraph import autodiff as ad
from decaygraph import graph as gr
from decaygraph.autodiff import Tensor
from decaygraph.data import Episode, SyntheticConfig, synthesize
from decaygraph.model import AblationFlags, DecayGraphClassifier, ModelConfig

import chain_ops as co
from test_autodiff import check_grads


def episode_from_mask(mask, values=None, times=None, label=0, pid="p"):
    mask = np.asarray(mask, dtype=np.float64)
    steps, v = mask.shape
    if values is None:
        values = np.where(mask > 0, 1.0, 0.0)
    if times is None:
        times = np.arange(1.0, steps + 1.0)
    delta = np.where(mask > 0, 1.0, 0.0)
    return Episode(pid, np.asarray(times, dtype=np.float64),
                   np.asarray(values, dtype=np.float64), mask, delta, label)


def tiny_params(d, v, seed=0, layers=1):
    cfg = ModelConfig(hidden_dim=d, codebook_size=4, n_layers=layers, seed=seed)
    model = DecayGraphClassifier(cfg, AblationFlags(), [f"v{i}" for i in range(v)])
    return model.params


def one_step(episodes, step, n_variables):
    return gr.build_graph_steps(episodes, n_variables)[step]


# -- construction ------------------------------------------------------------

def test_zero_mask_zero_edges():
    ep = episode_from_mask(np.zeros((2, 3)))
    step = one_step([ep], 0, 3)
    assert step.n_edges == 0


def test_full_mask_edge_count():
    eps = [episode_from_mask(np.ones((1, 3)), pid="a"),
           episode_from_mask(np.ones((1, 3)), pid="b")]
    step = one_step(eps, 0, 3)
    assert step.n_edges == 6


def test_single_observation_edge():
    mask = np.zeros((1, 3))
    mask[0, 2] = 1
    step = one_step([episode_from_mask(mask)], 0, 3)
    assert list(step.patient_idx) == [0]
    assert list(step.variable_idx) == [2]


def test_edges_sorted_lexicographically():
    rng = np.random.default_rng(0)
    for _ in range(100):
        b, v = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        masks = [rng.integers(0, 2, (1, v)).astype(float) for _ in range(b)]
        eps = [episode_from_mask(m, pid=f"p{i}") for i, m in enumerate(masks)]
        step = one_step(eps, 0, v)
        pairs = list(zip(step.patient_idx, step.variable_idx))
        assert pairs == sorted(pairs)
        expected = {(p, n) for p, m in enumerate(masks)
                    for n in np.flatnonzero(m[0])}
        assert set(pairs) == expected


def test_short_episode_contributes_no_edges():
    long_ep = episode_from_mask(np.ones((3, 2)), pid="long")
    short_ep = episode_from_mask(np.ones((1, 2)), pid="short")
    step = one_step([long_ep, short_ep], 2, 2)
    assert set(step.patient_idx) == {0}


def test_non_finite_value_rejected():
    mask = np.ones((1, 2))
    values = np.array([[1.0, np.nan]])
    ep = episode_from_mask(mask, values=values)
    with pytest.raises(gr.GraphDataError, match=r"patient=0.*variable=1.*step=0"):
        one_step([ep], 0, 2)


@st.composite
def ragged_batches(draw):
    """Episodes of 1-5 steps over 1-4 variables, with empty steps, values
    that are not finite where unobserved and, sometimes, where observed."""
    v = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    episodes = []
    for i in range(draw(st.integers(1, 5))):
        steps = draw(st.integers(1, 5))
        mask = (rng.random((steps, v)) < draw(st.sampled_from([0.0, 0.3, 0.8]))).astype(float)
        values = np.where(mask > 0, rng.normal(size=(steps, v)), np.nan)
        delta = np.where(mask > 0, rng.random((steps, v)), 0.0)
        episodes.append(Episode(f"p{i}", np.sort(rng.random(steps)) + np.arange(steps),
                                values, mask, delta, 0))
    if draw(st.booleans()):
        ep = episodes[draw(st.integers(0, len(episodes) - 1))]
        t, n = rng.integers(0, ep.n_steps), rng.integers(0, v)
        ep.mask[t, n] = 1.0
        ep.values[t, n] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return episodes, v


def loop_build(episodes, v):
    """The old per-step loop over every step, or the error it raises first."""
    try:
        return [co.build_graph_step(episodes, t, v)
                for t in range(max(ep.n_steps for ep in episodes))]
    except gr.GraphDataError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(ragged_batches())
def test_build_graph_steps_matches_the_per_step_loop(batch):
    episodes, v = batch
    expected = loop_build(episodes, v)
    if isinstance(expected, str):
        with pytest.raises(gr.GraphDataError) as info:
            gr.build_graph_steps(episodes, v)
        assert str(info.value) == expected
        return
    steps = gr.build_graph_steps(episodes, v)
    assert len(steps) == len(expected)
    for step, want in zip(steps, expected):
        assert (step.n_patients, step.n_variables) == (want.n_patients, want.n_variables)
        for field in ("patient_idx", "variable_idx", "values", "times", "delta_t"):
            got, ref = getattr(step, field), getattr(want, field)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), field


def test_build_graph_steps_names_the_first_non_finite_edge():
    mask = np.ones((3, 2))
    values = np.ones((3, 2))
    values[2, 0] = np.inf
    late = episode_from_mask(mask, values=values.copy(), pid="late")
    values[2, 0], values[1, 1] = 1.0, np.nan
    early = episode_from_mask(mask, values=values, pid="early")
    with pytest.raises(gr.GraphDataError, match=r"^non-finite value on edge "
                       r"\(patient=1, variable=1, step=1\)$"):
        gr.build_graph_steps([late, early], 2)


# -- edge embeddings ------------------------------------------------------------

def test_zero_parameters_give_zero_embedding():
    params = tiny_params(d=4, v=2)
    for name in ("edge.value_w", "edge.value_b", "edge.time_freq",
                 "edge.time_phase", "edge.var_table"):
        params[name].data[:] = 0.0
    step = one_step([episode_from_mask(np.ones((1, 2)))], 0, 2)
    e = gr.init_edge_embeddings(step, params)
    np.testing.assert_array_equal(e.data, np.zeros((2, 4)))


def test_time_zero_zero_phase_kills_time_component():
    params = tiny_params(d=4, v=2)
    params["edge.time_phase"].data[:] = 0.0
    ep = episode_from_mask(np.ones((1, 2)), times=[0.0])
    step = one_step([ep], 0, 2)
    with_te = gr.init_edge_embeddings(step, params, use_time_embedding=True)
    without = gr.init_edge_embeddings(step, params, use_time_embedding=False)
    np.testing.assert_allclose(with_te.data, without.data, atol=1e-15)


def test_embedding_purity():
    params = tiny_params(d=4, v=3)
    mask = np.zeros((1, 3))
    mask[0, 1] = 1
    ep_a = episode_from_mask(mask, values=mask * 2.5, times=[3.0], pid="a")
    ep_b = episode_from_mask(mask, values=mask * 2.5, times=[3.0], pid="b")
    step = one_step([ep_a, ep_b], 0, 3)
    e = gr.init_edge_embeddings(step, params)
    np.testing.assert_array_equal(e.data[0], e.data[1])


# -- node init -------------------------------------------------------------------

def test_patient_init_constant_unit_norm():
    for d in (2, 8, 16):
        states = gr.init_patient_states(3, d)
        np.testing.assert_array_equal(states.data[0], states.data[1])
        assert np.linalg.norm(states.data[0]) == pytest.approx(1.0, rel=1e-12)


def test_variable_table_receives_gradient():
    params = tiny_params(d=4, v=2)
    table = params["node.var_table"]
    ep = episode_from_mask(np.ones((1, 2)))
    step = one_step([ep], 0, 2)
    e = gr.init_edge_embeddings(step, params)
    v_pat = gr.init_patient_states(1, 4)
    _, v_var, _ = gr.message_pass_layer(step, v_pat, table, e, params, 0)
    ad.zero_grad(params.values())
    ad.backward(co.tensor_sum(v_var))
    assert table.grad is not None and np.any(table.grad != 0.0)


# -- message passing ----------------------------------------------------------------

def relu_np(x):
    return np.maximum(x, 0.0)


def test_one_edge_matches_dense_oracle():
    d = 4
    params = tiny_params(d=d, v=1, seed=7)
    mask = np.ones((1, 1))
    ep = episode_from_mask(mask, values=np.array([[1.7]]), times=[2.0])
    step = one_step([ep], 0, 1)
    e = gr.init_edge_embeddings(step, params)
    v_pat = gr.init_patient_states(1, d)
    v_var = params["node.var_table"]
    out_pat, out_var, out_e = gr.message_pass_layer(step, v_pat, v_var, e, params, 0)

    # dense re-derivation in plain numpy
    P = params
    vp = v_pat.data[0]
    vv = v_var.data[0]
    ee = e.data[0]
    m_to_pat = relu_np(np.concatenate([vv, ee]) @ P["sage0.msg_w"].data + P["sage0.msg_b"].data)
    m_to_var = relu_np(np.concatenate([vp, ee]) @ P["sage0.msg_w"].data + P["sage0.msg_b"].data)
    vp_new = relu_np(np.concatenate([vp, m_to_pat]) @ P["sage0.node_w"].data + P["sage0.node_b"].data)
    vv_new = relu_np(np.concatenate([vv, m_to_var]) @ P["sage0.node_w"].data + P["sage0.node_b"].data)
    e_new = ee + relu_np(np.concatenate([vp_new, vv_new, ee]) @ P["sage0.edge_w"].data
                         + P["sage0.edge_b"].data)

    np.testing.assert_allclose(out_pat.data[0], vp_new, atol=1e-9)
    np.testing.assert_allclose(out_var.data[0], vv_new, atol=1e-9)
    np.testing.assert_allclose(out_e.data[0], e_new, atol=1e-9)


def test_isolated_node_uses_empty_sum():
    d = 4
    params = tiny_params(d=d, v=2, seed=3)
    mask = np.zeros((1, 2))
    mask[0, 0] = 1  # variable 1 is isolated
    ep = episode_from_mask(mask)
    step = one_step([ep], 0, 2)
    e = gr.init_edge_embeddings(step, params)
    v_pat = gr.init_patient_states(1, d)
    v_var = params["node.var_table"]
    _, out_var, _ = gr.message_pass_layer(step, v_pat, v_var, e, params, 0)
    isolated = v_var.data[1]
    expected = relu_np(np.concatenate([isolated, np.zeros(d)]) @ params["sage0.node_w"].data
                       + params["sage0.node_b"].data)
    np.testing.assert_allclose(out_var.data[1], expected, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 3), st.integers(0, 99))
def test_zero_edge_layer_updates_every_node_from_empty_sums(d, v, b, seed):
    params = tiny_params(d=d, v=v, seed=seed)
    step = one_step([episode_from_mask(np.zeros((1, v)))] * b, 0, v)
    assert step.n_edges == 0
    e = gr.init_edge_embeddings(step, params)
    v_pat = gr.init_patient_states(b, d)
    v_var = params["node.var_table"]
    out_pat, out_var, out_e = gr.message_pass_layer(step, v_pat, v_var, e, params, 0)
    w, bias = params["sage0.node_w"].data, params["sage0.node_b"].data
    for before, after in ((v_pat.data, out_pat.data), (v_var.data, out_var.data)):
        expected = relu_np(np.concatenate([before, np.zeros_like(before)], axis=1) @ w + bias)
        np.testing.assert_allclose(after, expected, atol=1e-12)
    assert out_e.shape == (0, d)


def test_edge_order_does_not_change_outputs():
    d = 4
    params = tiny_params(d=d, v=3, seed=5)
    mask = np.ones((1, 3))
    eps = [episode_from_mask(mask, values=mask * 1.5, pid="a"),
           episode_from_mask(mask, values=mask * 0.5, pid="b")]
    step = one_step(eps, 0, 3)
    e = gr.init_edge_embeddings(step, params)
    v_pat = gr.init_patient_states(2, d)
    v_var = params["node.var_table"]
    base_pat, base_var, base_e = gr.message_pass_layer(step, v_pat, v_var, e, params, 0)

    perm = np.array([5, 2, 4, 0, 3, 1])
    shuffled = gr.GraphStep(step.n_patients, step.n_variables,
                            step.patient_idx[perm], step.variable_idx[perm],
                            step.values[perm], step.times[perm], step.delta_t[perm])
    e2 = gr.init_edge_embeddings(shuffled, params)
    out_pat, out_var, out_e = gr.message_pass_layer(shuffled, v_pat, v_var, e2, params, 0)
    np.testing.assert_allclose(out_pat.data, base_pat.data, atol=1e-9)
    np.testing.assert_allclose(out_var.data, base_var.data, atol=1e-9)
    np.testing.assert_allclose(out_e.data, base_e.data[perm], atol=1e-9)


def test_node_update_depends_only_on_neighbourhood():
    d = 4
    params = tiny_params(d=d, v=2, seed=1)
    # patient 0 observes variable 0, patient 1 observes variable 1
    mask_a = np.array([[1.0, 0.0]])
    mask_b = np.array([[0.0, 1.0]])
    eps = [episode_from_mask(mask_a, pid="a"), episode_from_mask(mask_b, pid="b")]
    step = one_step(eps, 0, 2)
    v_pat = gr.init_patient_states(2, d)
    v_var = params["node.var_table"]
    e = gr.init_edge_embeddings(step, params)
    base_pat, _, _ = gr.message_pass_layer(step, v_pat, v_var, e, params, 0)

    # zero the edge that is not adjacent to patient 0
    e_mod = Tensor(e.data.copy())
    non_adjacent = int(np.flatnonzero(step.patient_idx == 1)[0])
    e_mod.data[non_adjacent] = 0.0
    mod_pat, _, _ = gr.message_pass_layer(step, v_pat, v_var, e_mod, params, 0)
    np.testing.assert_allclose(mod_pat.data[0], base_pat.data[0], atol=1e-9)
    assert not np.allclose(mod_pat.data[1], base_pat.data[1])


def test_stacked_layers_match_manual_composition():
    d = 4
    params = tiny_params(d=d, v=2, seed=9, layers=2)
    ep = episode_from_mask(np.ones((1, 2)))
    step = one_step([ep], 0, 2)
    e = gr.init_edge_embeddings(step, params)
    v_pat = gr.init_patient_states(1, d)
    v_var = params["node.var_table"]

    p1, v1, e1 = gr.message_pass_layer(step, v_pat, v_var, e, params, 0)
    p2, v2, e2 = gr.message_pass_layer(step, p1, v1, e1, params, 1)
    out_p, out_v, out_e = gr.message_pass(step, v_pat, v_var, e, params, 2)
    np.testing.assert_array_equal(out_p.data, p2.data)
    np.testing.assert_array_equal(out_v.data, v2.data)
    np.testing.assert_array_equal(out_e.data, e2.data)
    assert out_p.shape == v_pat.shape and out_e.shape == e.shape


def test_message_pass_rejects_zero_layers():
    params = tiny_params(d=4, v=2)
    ep = episode_from_mask(np.ones((1, 2)))
    step = one_step([ep], 0, 2)
    e = gr.init_edge_embeddings(step, params)
    with pytest.raises(gr.GraphConfigError):
        gr.message_pass(step, gr.init_patient_states(1, 4),
                        params["node.var_table"], e, params, 0)


def test_gradients_reach_every_graph_parameter():
    params = tiny_params(d=4, v=3, seed=2)
    cfg = SyntheticConfig(n_variables=3, n_episodes=2, decay_rates=[0.5, 1.0, 2.0],
                          obs_per_episode=6.0, horizon=24.0, seed=0,
                          label_coeffs=[1.0, -1.0, 0.5])
    ds = synthesize(cfg)
    step = one_step(ds.episodes, 0, 3)
    e = gr.init_edge_embeddings(step, params)
    v_pat = gr.init_patient_states(2, 4)
    out_p, out_v, out_e = gr.message_pass_layer(step, v_pat, params["node.var_table"],
                                                e, params, 0)
    ad.zero_grad(params.values())
    loss = ad.add(co.tensor_sum(ad.mul(out_p, out_p)),
                  ad.add(co.tensor_sum(ad.mul(out_v, out_v)),
                         co.tensor_sum(ad.mul(out_e, out_e))))
    ad.backward(loss)
    for name in ("edge.value_w", "edge.value_b", "edge.time_freq", "edge.time_phase",
                 "edge.var_table", "node.var_table", "sage0.msg_w", "sage0.msg_b",
                 "sage0.node_w", "sage0.node_b", "sage0.edge_w", "sage0.edge_b"):
        grad = params[name].grad
        assert grad is not None and np.any(grad != 0.0), f"no gradient for {name}"


# -- fused nodes against the chains they replace --------------------------------

def random_step(rng, b, v, e_count):
    """A step with ``e_count`` distinct (patient, variable) edges, sorted."""
    flat = np.sort(rng.choice(b * v, size=e_count, replace=False))
    return gr.GraphStep(b, v, flat // v, flat % v, rng.normal(size=e_count),
                        rng.uniform(0.0, 48.0, e_count), rng.random(e_count))


PARAM_NAMES = {
    "edge": ("edge.value_w", "edge.value_b", "edge.time_freq", "edge.time_phase",
             "edge.var_table"),
    "layer": ("sage0.msg_w", "sage0.msg_b", "sage0.node_w", "sage0.node_b",
              "sage0.edge_w", "sage0.edge_b"),
}


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), b=st.integers(1, 4), v=st.integers(1, 4), data=st.data(),
       use_te=st.booleans(), direct=st.booleans(), seed=st.integers(0, 2**16))
def test_edge_init_is_one_node_with_the_chain_bits(d, b, v, data, use_te, direct, seed):
    rng = np.random.default_rng(seed)
    step = random_step(rng, b, v, data.draw(st.integers(1, b * v)))
    params = tiny_params(d=d, v=v, seed=seed % 97)
    arrays = {name: params[name].data for name in PARAM_NAMES["edge"]}
    untracked = data.draw(st.sets(st.sampled_from(PARAM_NAMES["edge"]), max_size=4))

    def runner(init):
        return co.differentiate(lambda **p: init(step, p, use_time_embedding=use_te),
                                arrays, leaves=arrays, untracked=untracked,
                                direct=direct, seed=seed)

    co.assert_same_bits(runner(gr.init_edge_embeddings), runner(co.init_edge_embeddings))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), b=st.integers(1, 4), v=st.integers(1, 4), data=st.data(),
       direct=st.booleans(), seed=st.integers(0, 2**16))
def test_message_layer_is_three_nodes_with_the_chain_bits(d, b, v, data, direct, seed):
    """The two message directions and the edge update, each one node, inside
    a layer whose node updates stay linear and relu nodes."""
    rng = np.random.default_rng(seed)
    step = random_step(rng, b, v, data.draw(st.integers(1, b * v)))
    params = tiny_params(d=d, v=v, seed=seed % 97)
    arrays = {name: params[name].data for name in PARAM_NAMES["layer"]}
    arrays.update(v_pat=rng.normal(size=(b, d)), v_var=rng.normal(size=(v, d)),
                  e=rng.normal(size=(step.n_edges, d)))
    untracked = data.draw(st.sets(st.sampled_from(sorted(arrays)), max_size=3))

    def runner(layer):
        def build(v_pat, v_var, e, **p):
            out_pat, out_var, out_e = layer(step, v_pat, v_var, e, p, 0)
            # one output, so the loss reads all three in a fixed order
            return ad.add(co.tensor_sum(out_pat), ad.add(co.tensor_sum(out_var),
                                                          co.tensor_sum(out_e)))
        return co.differentiate(build, arrays, leaves=PARAM_NAMES["layer"],
                                untracked=untracked, direct=direct, seed=seed)

    co.assert_same_bits(runner(gr.message_pass_layer), runner(co.message_pass_layer))


def test_fused_graph_nodes_record_one_node_each():
    params = tiny_params(d=3, v=2, layers=2)
    step = random_step(np.random.default_rng(0), 2, 2, 3)
    e = gr.init_edge_embeddings(step, params)
    assert e._op == "edge_init" and e._parents == tuple(
        params[name] for name in PARAM_NAMES["edge"])
    v_pat = Tensor(np.ones((2, 3)), tracked=True)
    out_pat, out_var, out_e = gr.message_pass_layer(step, v_pat, params["node.var_table"],
                                                    e, params, 1)
    assert out_e._op == "edge_update"
    assert out_e._parents[:3] == (out_pat, out_var, e)
    msg_to_pat, msg_to_var = out_pat._parents[0]._parents[1], out_var._parents[0]._parents[1]
    assert msg_to_pat._op == msg_to_var._op == "message"
    assert msg_to_pat._parents == (params["node.var_table"], e, params["sage1.msg_w"],
                                   params["sage1.msg_b"])
    assert msg_to_var._parents[:2] == (v_pat, e)


def test_fused_graph_nodes_match_finite_differences():
    rng = np.random.default_rng(4)
    params = tiny_params(d=3, v=3, seed=4)
    step = random_step(rng, 2, 3, 4)
    v_pat = Tensor(rng.normal(size=(2, 3)), tracked=True)
    weights = [Tensor(rng.normal(size=shape)) for shape in ((2, 3), (3, 3), (4, 3))]

    def loss():
        e = gr.init_edge_embeddings(step, params)
        outs = gr.message_pass_layer(step, v_pat, params["node.var_table"], e, params, 0)
        terms = [co.tensor_sum(ad.mul(out, w)) for out, w in zip(outs, weights)]
        return ad.add(terms[0], ad.add(terms[1], terms[2]))

    check_grads(loss, [v_pat, params["node.var_table"],
                       *(params[name] for name in PARAM_NAMES["edge"] + PARAM_NAMES["layer"])])
