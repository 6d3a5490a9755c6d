"""Decay kernels, gated state updates and patient attention."""

import numpy as np
import pytest

from decaygraph import autodiff as ad
from decaygraph import temporal as tp
from decaygraph.autodiff import ContractError, Tensor
from decaygraph.model import AblationFlags, DecayGraphClassifier, ModelConfig


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
        ad.backward(ad.tensor_sum(ad.mul(out, out)))
        touched = [name for name, p in params.items()
                   if p.grad is not None and np.any(p.grad != 0.0)]
        assert "gate.w" in touched
        if kernel == "exp":
            assert "decay.rate_raw" in touched
        else:
            assert "decay.w1" in touched and "decay.w2" in touched
