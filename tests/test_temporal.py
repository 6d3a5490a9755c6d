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
    bank = random_edges(5, 4, seed=5)
    index = np.array([3, 0, 2])

    params["gate.b"].data[:] = -80.0  # sigmoid -> 0: keep the stored state
    np.testing.assert_allclose(tp.gated_update(tp.Bank(bank), index, e, params).data,
                               bank.data, atol=1e-12)
    params["gate.b"].data[:] = 80.0  # sigmoid -> 1: take the new feature
    expected = bank.data.copy()
    expected[index] = e.data
    np.testing.assert_allclose(tp.gated_update(tp.Bank(bank), index, e, params).data,
                               expected, atol=1e-12)


def test_gate_output_is_coordinatewise_convex():
    params = params_for(seed=6)
    e = random_edges(10, 4, seed=7)
    bank = random_edges(12, 4, seed=8)
    index = np.random.default_rng(9).permutation(12)[:10]
    gamma = Tensor(np.random.default_rng(10).uniform(0.0, 1.0, (10, 1)))
    out = tp.gated_update(tp.Bank(bank), index, e, params, gamma).data
    h_hat = bank.data[index] * gamma.data
    lo = np.minimum(e.data, h_hat)
    hi = np.maximum(e.data, h_hat)
    assert np.all(out[index] >= lo - 1e-12)
    assert np.all(out[index] <= hi + 1e-12)
    kept = np.setdiff1d(np.arange(12), index)
    assert out[kept].tobytes() == bank.data[kept].tobytes()


# -- attention -----------------------------------------------------------------------

def test_single_variable_attention_projects_its_state():
    params = params_for()
    h = np.random.default_rng(1).normal(size=(2, 1, 4))
    v_pat = random_edges(2, 4, seed=9)
    out = tp.node_attention(v_pat, tp.Bank(Tensor(h)), params["attn.proj"])
    expected = h[:, 0, :] @ params["attn.proj"].data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_identical_states_dominate_any_query():
    params = params_for()
    u = np.array([0.3, -1.2, 0.5, 2.0])
    h = np.tile(u, (2, 5, 1))
    v_pat = random_edges(2, 4, seed=10)
    out = tp.node_attention(v_pat, tp.Bank(Tensor(h)), params["attn.proj"])
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
    out = tp.node_attention(Tensor(v_pat), tp.Bank(Tensor(h)), params["attn.proj"])
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
        out = tp.gated_update(tp.Bank(h), np.arange(6), e, params, gamma)
        ad.backward(co.tensor_sum(co.mul(out, out)))
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


@settings(max_examples=120, deadline=None)
@given(d=st.integers(1, 5), n=st.integers(1, 6), spare=st.integers(0, 3),
       gamma=st.sampled_from(["absent", "untracked", "tracked"]), data=st.data(),
       direct=st.booleans(), seed=st.integers(0, 2**16))
def test_gated_update_is_one_node_with_the_chain_bits(d, n, spare, gamma, data, direct,
                                                      seed):
    # ``spare`` bank rows that no index names; ``gamma`` as the decay sees it
    rng = np.random.default_rng(seed)
    params = params_for(d=d, seed=seed % 97)
    arrays = {name: params[name].data for name in GATE_PARAMS}
    arrays.update(e=rng.normal(size=(n, d)), h_bank=rng.normal(size=(n + spare, d)))
    if gamma != "absent":
        arrays["gamma"] = rng.uniform(0.0, 1.0, (n, 1))
    index = rng.permutation(n + spare)[:n]
    names = sorted(set(arrays) - {"gamma"})
    untracked = data.draw(st.sets(st.sampled_from(names), max_size=3))
    if gamma == "untracked":
        untracked |= {"gamma"}

    def runner(gate):
        def build(h_bank, e, gamma=None, **p):
            return gate(h_bank, index, e, p, gamma)
        return co.differentiate(build, arrays, leaves=GATE_PARAMS, untracked=untracked,
                                direct=direct, seed=seed)

    def fused(h_bank, *args):
        return tp.gated_update(tp.Bank(h_bank), *args)

    co.assert_same_bits(runner(fused), runner(co.gated_update))


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

    def fused(v_pat, h_bank, w_proj):
        return tp.node_attention(v_pat, tp.Bank(h_bank), w_proj)

    co.assert_same_bits(runner(fused), runner(co.node_attention))


def test_fused_temporal_nodes_record_one_node_each():
    params = params_for()
    e = Tensor(np.ones((3, 4)), tracked=True)
    bank = Tensor(np.ones((3, 4)), tracked=True)
    for kernel in tp.DECAY_KERNELS:
        gamma = tp.decay_factor(e, np.ones(3), kernel, params)
        names = DECAY_PARAMS["exp" if kernel == "exp" else "mlp"]
        assert gamma._op == "decay_factor"
        assert gamma._parents == (() if kernel == "exp" else (e,)) + tuple(
            params[name] for name in names)
    # the last kernel's gamma; backward must reach e before gamma and the
    # bank, as the chain's did
    gate = (params["gate.w"], params["gate.b"])
    out = tp.gated_update(tp.Bank(bank), np.arange(3), e, params, gamma)
    assert out._op == "gated_update" and out._parents == (bank, gamma, e, *gate)
    out = tp.gated_update(tp.Bank(bank), np.arange(3), e, params)
    assert out._op == "gated_update" and out._parents == (bank, e, *gate)
    v_pat, bank = Tensor(np.ones((2, 4)), tracked=True), Tensor(np.ones((4, 4)), tracked=True)
    out = tp.node_attention(v_pat, tp.Bank(bank), params["attn.proj"])
    assert out._op == "node_attention" and out._parents == (v_pat, bank, params["attn.proj"])


@pytest.mark.parametrize("kernel", tp.DECAY_KERNELS)
@pytest.mark.parametrize("use_tde", [True, False])
def test_fused_temporal_nodes_match_finite_differences(kernel, use_tde):
    rng = np.random.default_rng(21)
    params = params_for(seed=21)
    params["decay.rate_raw"].data[:] = 0.3
    e = Tensor(rng.normal(size=(4, 4)), tracked=True)
    h = Tensor(rng.normal(size=(6, 4)), tracked=True)  # 2 patients x 3 variables
    v_pat = Tensor(rng.normal(size=(2, 4)), tracked=True)
    dt = np.array([0.1, 0.4, 0.25, 0.05])  # rate * dt < 1: off the linear kernel's kink
    w = Tensor(rng.normal(size=(2, 4)))

    def loss():
        gamma = tp.decay_factor(e, dt, kernel, params) if use_tde else None
        # rows 2 and 5 are kept: their gradient passes the gate untouched
        bank = tp.Bank(h)
        tp.gated_update(bank, np.array([4, 0, 3, 1]), e, params, gamma)
        return co.tensor_sum(co.mul(tp.node_attention(v_pat, bank, params["attn.proj"]), w))

    names = ["gate.w", "gate.b", "attn.proj"]
    if use_tde:
        names += DECAY_PARAMS["exp" if kernel == "exp" else "mlp"]
    check_grads(loss, [e, h, v_pat, *(params[name] for name in names)])


# -- the bank's undo log ---------------------------------------------------------------

GATE_AND_ATTENTION = ("gate.w", "gate.b", "attn.proj")


def bank_inputs(seed, d=3, b=2, v=4, n=5):
    """Parameters, tracked inputs, loss weights and two gates' overlapping
    bank indices of a bank of ``b`` patients by ``v`` variables."""
    rng = np.random.default_rng(seed)
    inputs = {name: Tensor(rng.normal(size=shape), tracked=True)
              for name, shape in (("h0", (b * v, d)), ("e1", (n, d)), ("e2", (n, d)),
                                  ("v_pat", (b, d)))}
    inputs["gamma"] = Tensor(rng.uniform(0.0, 1.0, (n, 1)), tracked=True)
    weights = [Tensor(rng.normal(size=shape)) for shape in ((b * v, d), (b, d))]
    index = [rng.permutation(b * v)[:n] for _ in range(2)]
    return params_for(d=d, seed=seed), inputs, weights, index


def gradients(params, inputs):
    return [t.grad for t in (*inputs.values(), *(params[name] for name in GATE_AND_ATTENTION))]


def assert_same_bytes(fused, chain):
    assert len(fused) == len(chain)
    for a, b in zip(fused, chain):
        assert (a is None) == (b is None)
        assert a is None or a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_backward_that_never_reaches_the_last_gate_keeps_the_chain_bits(seed):
    """The loss reads the first gate's bank, directly and through the
    attention, and is built before a second gate writes; that gate feeds
    nothing (as with ``--ablate hvs``), so only the attention's rollback
    undoes its write."""
    def run(fused):
        params, t, (w_bank, w_att), (index1, index2) = bank_inputs(seed)
        proj = params["attn.proj"]
        if fused:
            bank = tp.Bank(t["h0"])
            first = tp.gated_update(bank, index1, t["e1"], params, t["gamma"])
            attended = tp.node_attention(t["v_pat"], bank, proj)
        else:
            first = co.gated_update(t["h0"], index1, t["e1"], params, t["gamma"])
            attended = co.node_attention(t["v_pat"], first, proj)
        loss = co.add(co.tensor_sum(co.mul(first, w_bank)),
                      co.tensor_sum(co.mul(attended, w_att)))
        values = [loss.data, first.data.copy(), attended.data]
        if fused:
            tp.gated_update(bank, index2, t["e2"], params)
        else:
            co.gated_update(first, index2, t["e2"], params)
        ad.backward(loss)
        assert t["e2"].grad is None  # backward never reached the last gate
        return values + gradients(params, t)

    assert_same_bytes(run(True), run(False))


@pytest.mark.parametrize("seed", range(4))
def test_attention_reads_its_bank_back_after_two_later_writes(seed):
    """The attention reads the first bank; its output feeds the first gate's
    edges, as in the model, and two gates write before its backward runs."""
    def run(fused):
        params, t, (w_bank, w_att), (index1, index2) = bank_inputs(seed)
        proj, v = params["attn.proj"], 4
        if fused:
            bank = tp.Bank(t["h0"])
            attended = tp.node_attention(t["v_pat"], bank, proj)
            e1 = co.add(co.gather_rows(attended, index1 // v), t["e1"])
            tp.gated_update(bank, index1, e1, params, t["gamma"])
            last = tp.gated_update(bank, index2, t["e2"], params)
        else:
            attended = co.node_attention(t["v_pat"], t["h0"], proj)
            e1 = co.add(co.gather_rows(attended, index1 // v), t["e1"])
            first = co.gated_update(t["h0"], index1, e1, params, t["gamma"])
            last = co.gated_update(first, index2, t["e2"], params)
        loss = co.add(co.tensor_sum(co.mul(last, w_bank)),
                      co.tensor_sum(co.mul(attended, w_att)))
        values = [loss.data, last.data.copy(), attended.data]
        ad.backward(loss)
        return values + gradients(params, t)

    assert_same_bytes(run(True), run(False))


def test_a_bank_version_that_was_rolled_past_is_refused():
    start = random_edges(4, 3).data
    bank = tp.Bank(Tensor(start))
    params = params_for(d=3)
    for index in ([0, 2], [1, 2]):
        tp.gated_update(bank, np.array(index), random_edges(2, 3, seed=5), params)
    first = bank.data.copy()
    bank.rollback(0)
    assert bank.data.tobytes() == start.tobytes()
    with pytest.raises(ContractError, match="rolled back"):
        bank.rollback(1)
    assert not np.array_equal(first, bank.data)
