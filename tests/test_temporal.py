"""Decay kernels, gated state updates and patient attention."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaygraph import autodiff as ad
from decaygraph import temporal as tp
from decaygraph.autodiff import ContractError, Tensor
from decaygraph.model import AblationFlags, DecayGraphClassifier, ModelConfig

import chain_ops as co
from test_autodiff import check_grads


def params_for(d=4, seed=0):
    cfg = ModelConfig(hidden_dim=d, codebook_size=4, n_layers=1, seed=seed)
    return DecayGraphClassifier(cfg, AblationFlags(), ["a", "b"]).params


def random_edges(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(n, d)))


# -- kernels -------------------------------------------------------------------

def test_all_kernels_are_one_at_zero_gap():
    params = params_for()
    e = random_edges(5, 4)
    for kernel in tp.DECAY_KERNELS:
        gamma = tp.decay_factor(e, np.zeros(5), kernel, params)
        np.testing.assert_allclose(gamma.data, 1.0, atol=1e-12)


def test_fixed_rate_half_life():
    # softplus(0) = ln 2, so the shared-rate kernel at dt=1 dies to exactly 1/2
    params = params_for()
    params["decay.rate_raw"].data[:] = 0.0
    gamma = tp.decay_factor(random_edges(3, 4), np.ones(3), "exp", params)
    np.testing.assert_allclose(gamma.data, 0.5, atol=1e-12)


def test_linear_kernel_clamps_to_zero():
    params = params_for()
    params["decay.rate_raw"].data[:] = 0.0  # rate ln 2
    # rate * dt = 2 ln 2 > 1
    dt = np.full(3, 2.0 / np.log(2.0))
    # the linear kernel uses the MLP rate; force the MLP to output 0 -> rate ln 2
    for name in ("decay.w1", "decay.b1", "decay.w2"):
        params[name].data[:] = 0.0
    params["decay.b2"].data[:] = 0.0
    gamma = tp.decay_factor(random_edges(3, 4), dt, "mlp_linear", params)
    np.testing.assert_allclose(gamma.data, 0.0, atol=1e-12)


def test_negative_gap_rejected():
    params = params_for()
    with pytest.raises(ContractError):
        tp.decay_factor(random_edges(2, 4), np.array([1.0, -0.5]), "mlp_exp", params)


def test_unknown_kernel_rejected():
    with pytest.raises(tp.KernelConfigError):
        tp.decay_factor(random_edges(1, 4), np.zeros(1), "cosine", params_for())


def test_kernels_monotone_non_increasing():
    grid = np.linspace(0.0, 20.0, 50)
    for seed in range(5):
        params = params_for(seed=seed)
        e = random_edges(1, 4, seed=seed)
        for kernel in tp.DECAY_KERNELS:
            values = [tp.decay_factor(e, np.array([dt]), kernel, params).item()
                      for dt in grid]
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-15), f"{kernel} not monotone"


def test_exp_and_gaussian_strictly_positive_at_huge_gap():
    params = params_for(seed=1)
    e = random_edges(4, 4, seed=2)
    for kernel in ("mlp_exp", "exp", "mlp_gaussian"):
        gamma = tp.decay_factor(e, np.full(4, 1e3), kernel, params)
        assert np.all(np.isfinite(gamma.data))
        assert np.all(gamma.data >= 0.0)
        assert np.all(gamma.data <= 1.0)
    # the pure exp kernel cannot underflow to a negative or non-finite value
    gamma = tp.decay_factor(e, np.full(4, 1e3), "mlp_linear", params)
    assert np.all(gamma.data >= 0.0) and np.all(np.isfinite(gamma.data))


# -- state decay and gate ----------------------------------------------------------

def test_gate_endpoints():
    params = params_for()
    params["gate.w"].data[:] = 0.0
    e = random_edges(3, 4, seed=4)
    h_hat = random_edges(3, 4, seed=5)

    params["gate.b"].data[:] = -80.0  # sigmoid -> 0: keep the decayed state
    np.testing.assert_allclose(tp.gated_update(e, h_hat, params).data,
                               h_hat.data, atol=1e-12)
    params["gate.b"].data[:] = 80.0  # sigmoid -> 1: take the new feature
    np.testing.assert_allclose(tp.gated_update(e, h_hat, params).data,
                               e.data, atol=1e-12)


def test_gate_output_is_coordinatewise_convex():
    params = params_for(seed=6)
    e = random_edges(10, 4, seed=7)
    h_hat = random_edges(10, 4, seed=8)
    out = tp.gated_update(e, h_hat, params).data
    lo = np.minimum(e.data, h_hat.data)
    hi = np.maximum(e.data, h_hat.data)
    assert np.all(out >= lo - 1e-12)
    assert np.all(out <= hi + 1e-12)


# -- attention -----------------------------------------------------------------------

def test_single_variable_attention_projects_its_state():
    params = params_for()
    h = np.random.default_rng(1).normal(size=(2, 1, 4))
    v_pat = random_edges(2, 4, seed=9)
    out = tp.node_attention(v_pat, Tensor(h), params["attn.proj"])
    expected = h[:, 0, :] @ params["attn.proj"].data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_identical_states_dominate_any_query():
    params = params_for()
    u = np.array([0.3, -1.2, 0.5, 2.0])
    h = np.tile(u, (2, 5, 1))
    v_pat = random_edges(2, 4, seed=10)
    out = tp.node_attention(v_pat, Tensor(h), params["attn.proj"])
    expected = np.tile(u @ params["attn.proj"].data, (2, 1))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(11)
    v_pat = rng.normal(size=(3, 4))
    h = rng.normal(size=(3, 6, 4))
    scores = np.einsum("bd,bvd->bv", v_pat, h) / np.sqrt(4)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    # the module's output equals the weighted mixture under the projection
    params = params_for()
    out = tp.node_attention(Tensor(v_pat), Tensor(h), params["attn.proj"])
    expected = np.einsum("bv,bvd->bd", weights, h) @ params["attn.proj"].data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_gradients_flow_through_decay_and_gate():
    params = params_for(seed=12)
    e_data = np.random.default_rng(13).normal(size=(6, 4))
    for kernel in tp.DECAY_KERNELS:
        ad.zero_grad(params.values())
        e = Tensor(e_data, tracked=False)
        h = Tensor(np.random.default_rng(14).normal(size=(6, 4)))
        gamma = tp.decay_factor(e, np.full(6, 0.5), kernel, params)
        out = tp.gated_update(e, ad.mul(h, gamma), params)
        ad.backward(co.tensor_sum(ad.mul(out, out)))
        touched = [name for name, p in params.items()
                   if p.grad is not None and np.any(p.grad != 0.0)]
        assert "gate.w" in touched
        if kernel == "exp":
            assert "decay.rate_raw" in touched
        else:
            assert "decay.w1" in touched and "decay.w2" in touched


# -- fused nodes against the chains they replace --------------------------------

DECAY_PARAMS = {"exp": ("decay.rate_raw",),
                "mlp": ("decay.w1", "decay.b1", "decay.w2", "decay.b2")}
GATE_PARAMS = ("gate.w", "gate.b")


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 5), n=st.integers(1, 6), kernel=st.sampled_from(tp.DECAY_KERNELS),
       data=st.data(), direct=st.booleans(), seed=st.integers(0, 2**16))
def test_decay_factor_is_one_node_with_the_chain_bits(d, n, kernel, data, direct, seed):
    rng = np.random.default_rng(seed)
    params = params_for(d=d, seed=seed % 97)
    names = DECAY_PARAMS["exp" if kernel == "exp" else "mlp"]
    arrays = {name: params[name].data for name in names}
    arrays["decay.rate_raw"] = rng.normal(size=(1, 1))
    arrays["e"] = rng.normal(size=(n, d))
    # zero gaps, gaps past the linear kernel's zero, and ordinary ones
    dt = rng.choice([0.0, 0.3, 1.7, 40.0], size=n)
    untracked = data.draw(st.sets(st.sampled_from(sorted(arrays)), max_size=2))

    def runner(decay):
        def build(e, **p):
            return decay(e, dt, kernel, p)
        return co.differentiate(build, arrays, leaves=names, untracked=untracked,
                                direct=direct, seed=seed)

    co.assert_same_bits(runner(tp.decay_factor), runner(co.decay_factor))


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 5), n=st.integers(1, 6), data=st.data(), direct=st.booleans(),
       seed=st.integers(0, 2**16))
def test_gated_update_is_one_node_with_the_chain_bits(d, n, data, direct, seed):
    rng = np.random.default_rng(seed)
    params = params_for(d=d, seed=seed % 97)
    arrays = {name: params[name].data for name in GATE_PARAMS}
    arrays.update(e=rng.normal(size=(n, d)), h_hat=rng.normal(size=(n, d)))
    untracked = data.draw(st.sets(st.sampled_from(sorted(arrays)), max_size=3))

    def runner(gate):
        def build(e, h_hat, **p):
            return gate(e, h_hat, p)
        return co.differentiate(build, arrays, leaves=GATE_PARAMS, untracked=untracked,
                                direct=direct, seed=seed)

    co.assert_same_bits(runner(tp.gated_update), runner(co.gated_update))


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 5), b=st.integers(1, 4), v=st.integers(1, 5), data=st.data(),
       direct=st.booleans(), seed=st.integers(0, 2**16))
def test_node_attention_is_one_node_with_the_chain_bits(d, b, v, data, direct, seed):
    rng = np.random.default_rng(seed)
    arrays = {"v_pat": rng.normal(size=(b, d)), "h_bank": rng.normal(size=(b * v, d)),
              "w_proj": rng.normal(size=(d, d))}
    untracked = data.draw(st.sets(st.sampled_from(sorted(arrays)), max_size=2))

    def runner(attention):
        return co.differentiate(attention, arrays, leaves=("w_proj",),
                                untracked=untracked, direct=direct, seed=seed)

    co.assert_same_bits(runner(tp.node_attention), runner(co.node_attention))


def test_fused_temporal_nodes_record_one_node_each():
    params = params_for()
    e = Tensor(np.ones((3, 4)), tracked=True)
    h_hat = Tensor(np.ones((3, 4)), tracked=True)
    for kernel in tp.DECAY_KERNELS:
        gamma = tp.decay_factor(e, np.ones(3), kernel, params)
        names = DECAY_PARAMS["exp" if kernel == "exp" else "mlp"]
        assert gamma._op == "decay_factor"
        assert gamma._parents == (() if kernel == "exp" else (e,)) + tuple(
            params[name] for name in names)
    # backward must reach e before h_hat, as the chain's did
    out = tp.gated_update(e, h_hat, params)
    assert out._op == "gate" and out._parents == (h_hat, e, params["gate.w"],
                                                  params["gate.b"])
    v_pat, bank = Tensor(np.ones((2, 4)), tracked=True), Tensor(np.ones((4, 4)), tracked=True)
    out = tp.node_attention(v_pat, bank, params["attn.proj"])
    assert out._op == "attention" and out._parents == (v_pat, bank, params["attn.proj"])


@pytest.mark.parametrize("kernel", tp.DECAY_KERNELS)
@pytest.mark.parametrize("use_tde", [True, False])
def test_fused_temporal_nodes_match_finite_differences(kernel, use_tde):
    rng = np.random.default_rng(21)
    params = params_for(seed=21)
    params["decay.rate_raw"].data[:] = 0.3
    e = Tensor(rng.normal(size=(4, 4)), tracked=True)
    h = Tensor(rng.normal(size=(4, 4)), tracked=True)
    v_pat = Tensor(rng.normal(size=(2, 4)), tracked=True)
    dt = np.array([0.1, 0.4, 0.25, 0.05])  # rate * dt < 1: off the linear kernel's kink
    w = Tensor(rng.normal(size=(2, 4)))

    def loss():
        h_hat = ad.mul(h, tp.decay_factor(e, dt, kernel, params)) if use_tde else h
        bank = tp.gated_update(e, h_hat, params)
        return co.tensor_sum(ad.mul(tp.node_attention(v_pat, bank, params["attn.proj"]), w))

    names = ["gate.w", "gate.b", "attn.proj"]
    if use_tde:
        names += DECAY_PARAMS["exp" if kernel == "exp" else "mlp"]
    check_grads(loss, [e, h, v_pat, *(params[name] for name in names)])
