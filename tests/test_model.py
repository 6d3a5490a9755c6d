"""Full-model behaviour: forward contracts, ablations, training loop,
checkpoints and the finite-difference audit."""

import base64
import inspect
import importlib.util
import json
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaygraph import autodiff as ad
from decaygraph import codebook as cb
from decaygraph import graph as gr
from decaygraph import model as md
from decaygraph import temporal as tp
from decaygraph.autodiff import Tensor
from decaygraph.cli import DEFAULT_SYNTHETIC
from decaygraph.data import (Episode, SyntheticConfig, delta_t_from_times,
                             split_dataset, synthesize, truncate_episodes)
from decaygraph.model import (AblationFlags, CompatibilityError,
                              DecayGraphClassifier, ModelConfig,
                              ModelConfigError, NonFiniteLossError,
                              check_compatibility, count_weights,
                              evaluate, fit, gradient_check,
                              load_checkpoint, save_checkpoint)

import chain_ops as co


def synth(seed=0, n=8, v=3, rates=(0.5, 2.0, 0.1), obs=5.0, horizon=24.0,
          coeffs=(1.0, -1.0, 0.5)):
    cfg = SyntheticConfig(n_variables=v, n_episodes=n, decay_rates=list(rates),
                          obs_per_episode=obs, horizon=horizon, seed=seed,
                          label_coeffs=list(coeffs))
    return synthesize(cfg)


def tiny_model(variables, d=8, k=8, layers=2, seed=0, flags=None, kernel="mlp_exp",
               n_classes=2, **kwargs):
    cfg = ModelConfig(hidden_dim=d, codebook_size=k, n_layers=layers,
                      batch_size=kwargs.pop("batch_size", 8), seed=seed,
                      decay_kernel=kernel, n_classes=n_classes, **kwargs)
    return DecayGraphClassifier(cfg, flags or AblationFlags(), variables)


# -- forward contracts ---------------------------------------------------------

def test_logits_shape():
    ds = synth(n=2)
    model = tiny_model(ds.variables)
    logits = model.forward(truncate_episodes(ds.episodes, 4, 24.0))
    assert logits.shape == (2, 2)


def hidden_states(model, episodes):
    """The (B, V, d) hidden bank as the head reads it: ``encode``'s last
    part, ``head_reweight``'s ``bank * (1 + w)`` with w > 0, which is zero
    exactly where the bank is."""
    width = len(model.variables) * model.config.hidden_dim
    reweighted = model.encode(episodes)[-1].data
    assert reweighted.shape[1] == width
    return reweighted.reshape(len(episodes), len(model.variables), -1)


def test_all_masks_zero_is_degenerate_but_finite():
    empty = Episode("e", np.array([1.0, 2.0]), np.zeros((2, 3)),
                    np.zeros((2, 3)), np.zeros((2, 3)), 0)
    model = tiny_model(["a", "b", "c"])
    logits = model.forward([empty, empty])
    assert np.all(np.isfinite(logits.data))
    np.testing.assert_array_equal(hidden_states(model, [empty, empty]), 0.0)


def test_unobserved_states_stay_bitwise_zero():
    ds = synth(n=4, seed=3)
    episodes = ds.episodes
    model = tiny_model(ds.variables)
    bank = hidden_states(model, episodes)
    for p, ep in enumerate(episodes):
        for v in range(3):
            if ep.mask[:, v].sum() == 0:
                np.testing.assert_array_equal(bank[p, v], 0.0)
            else:
                assert np.any(bank[p, v] != 0.0)


def test_toggling_decay_changes_outputs():
    ds = synth(n=4, seed=5)
    full = tiny_model(ds.variables, flags=AblationFlags())
    no_tde = tiny_model(ds.variables, flags=AblationFlags(use_tde=False))
    a = full.forward(ds.episodes)
    b = no_tde.forward(ds.episodes)
    assert np.max(np.abs(a.data - b.data)) > 0.0


def test_variable_count_mismatch_rejected():
    ds = synth(n=2)
    model = tiny_model(["only", "two"])
    with pytest.raises(ModelConfigError):
        model.forward(ds.episodes)


def test_empty_batch_rejected():
    model = tiny_model(["a"])
    with pytest.raises(ModelConfigError):
        model.forward([])


# -- batch plan -------------------------------------------------------------------

def _set_first_observed(ep, field, value):
    """``ep`` with ``field`` set to ``value`` at its first observed entry."""
    array = getattr(ep, field).copy()
    t, v = np.nonzero(ep.mask)
    array[t[0], v[0]] = value
    return replace(ep, **{field: array})


# each batch-only refusal, as the forward raised it before batches were planned
BATCH_REFUSALS = {
    "empty": (lambda eps: [], ModelConfigError, "forward needs a non-empty batch"),
    "variables": (lambda eps: [replace(eps[0], mask=eps[0].mask[:, :2])] + eps[1:],
                  ModelConfigError, "episode 'synth00000' has 2 variables, model expects 3"),
    "edge": (lambda eps: [eps[0], _set_first_observed(eps[1], "values", np.nan)],
             gr.GraphDataError,
             "non-finite value on edge (patient=1, variable={v}, step={t})"),
    "interval": (lambda eps: [_set_first_observed(eps[0], "delta_t", -0.5)] + eps[1:],
                 ad.ContractError,
                 "delta_t must be non-negative, got min -0.5"),
    "label": (lambda eps: [eps[0], replace(eps[1], label=5)] + eps[2:], ad.ContractError,
              "label 5 at index 1 outside [0, 2)"),
}


@pytest.mark.parametrize("refusal", sorted(BATCH_REFUSALS))
@pytest.mark.parametrize("entry", ["forward", "batch_loss"])
def test_a_planned_refusal_still_fires_through_the_entry_points(refusal, entry):
    ds = synth(n=3, seed=5)
    model = tiny_model(ds.variables)
    bad, error, message = BATCH_REFUSALS[refusal]
    episodes = bad(list(ds.episodes))
    t, v = np.nonzero(ds.episodes[1].mask)
    message = message.format(t=t[0], v=v[0])
    run = model.forward if entry == "forward" else lambda eps: md.batch_loss(model, eps)
    with pytest.raises(error) as info:
        run(episodes)
    assert str(info.value) == message


def test_a_plan_for_another_model_is_refused():
    ds = synth(n=3, seed=5)
    plan = tiny_model(ds.variables, n_classes=3).plan(ds.episodes)
    with pytest.raises(ModelConfigError, match="batch plan for 3 variables and 3 classes"):
        tiny_model(ds.variables).forward(plan)


def _count_plans(monkeypatch):
    """Every ``BatchPlan`` built from now on, as weak references."""
    built = []
    true_init = md.BatchPlan.__init__

    def init(self, *args):
        built.append(weakref.ref(self))
        true_init(self, *args)

    monkeypatch.setattr(md.BatchPlan, "__init__", init)
    return built


def test_a_reused_plan_gives_the_bytes_of_a_fresh_one():
    ds = synth(n=4, seed=9)
    model = tiny_model(ds.variables)
    plan = model.plan(ds.episodes)

    def loss_and_grads(batch):
        ad.zero_grad(model.params.values())
        loss = md.batch_loss(model, batch)
        ad.backward(loss)
        return [loss.data.tobytes()] + [None if p.grad is None else p.grad.tobytes()
                                        for p in model.params.values()]

    fresh = loss_and_grads(ds.episodes)
    assert loss_and_grads(plan) == fresh
    assert loss_and_grads(plan) == fresh
    with ad.no_grad():
        assert md.batch_loss(model, plan).data.tobytes() == fresh[0]


def test_gradient_check_plans_its_batch_once_and_keeps_no_plan(monkeypatch):
    ds = synth(n=2, seed=59, v=2, rates=(0.5, 2.0), coeffs=(1.0, -1.0))

    class Batch(list):  # a list that takes weak references
        pass

    episodes = Batch(truncate_episodes(ds.episodes, 2, 24.0))
    model = tiny_model(ds.variables, d=4, k=4, layers=1, seed=61)
    built = _count_plans(monkeypatch)
    batch = weakref.ref(episodes)
    gradient_check(model, episodes)
    del episodes
    assert len(built) == 1
    assert batch() is None and built[0]() is None


def test_a_fit_epoch_plans_each_training_batch_once(monkeypatch):
    ds = synth(n=20, seed=3)
    train, val = replace(ds, episodes=ds.episodes[:13]), replace(ds, episodes=ds.episodes[13:])
    model = tiny_model(ds.variables, batch_size=4, epochs=1)
    built = _count_plans(monkeypatch)
    losses = []
    true_loss = md.batch_loss

    def loss(model, batch, parts=None):
        losses.append(batch)
        return true_loss(model, batch, parts)

    monkeypatch.setattr(md, "batch_loss", loss)
    fit(model, train, val)
    # four training batches of 13 episodes, then two validation chunks of 7
    assert len(losses) == 4 and all(isinstance(b, md.BatchPlan) for b in losses)
    assert len({id(b) for b in losses}) == 4
    assert len(built) == 4 + 2
    del losses
    assert all(ref() is None for ref in built)


def test_evaluate_keeps_no_plan_or_batch_alive(monkeypatch):
    ds = synth(n=10, seed=3)

    class Batch(list):
        pass

    dataset = replace(ds, episodes=Batch(ds.episodes))
    model = tiny_model(ds.variables, batch_size=4)
    built = _count_plans(monkeypatch)
    batch = weakref.ref(dataset.episodes)
    evaluate(model, dataset, collect_diagnostics=True)
    del dataset
    assert len(built) == 3
    assert batch() is None and all(ref() is None for ref in built)


def test_patient_exchangeability():
    ds = synth(n=5, seed=11)
    model = tiny_model(ds.variables)
    base = model.forward(ds.episodes)
    perm = [3, 0, 4, 1, 2]
    permuted = model.forward([ds.episodes[i] for i in perm])
    np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-9)


def test_time_shift_invariance_without_time_embedding():
    ds = synth(n=3, seed=13, horizon=24.0)
    model = tiny_model(ds.variables, flags=AblationFlags(use_te=False))
    base = model.forward(ds.episodes)
    shifted = [replace(ep, times=ep.times + 5.0) for ep in ds.episodes]
    out = model.forward(shifted)
    np.testing.assert_allclose(out.data, base.data, atol=1e-9)
    # with the time embedding on, the shift is visible
    model_te = tiny_model(ds.variables, flags=AblationFlags())
    a = model_te.forward(ds.episodes)
    b = model_te.forward(shifted)
    assert np.max(np.abs(a.data - b.data)) > 1e-6


def test_padding_depth_is_invisible():
    ds = synth(n=3, seed=17)
    model = tiny_model(ds.variables)
    base = model.forward(ds.episodes)
    # appending an all-empty trailing step to one episode must change nothing
    ep = ds.episodes[0]
    padded = replace(ep,
                     times=np.append(ep.times, ep.times[-1] + 1.0),
                     values=np.vstack([ep.values, np.zeros(3)]),
                     mask=np.vstack([ep.mask, np.zeros(3)]),
                     delta_t=np.vstack([ep.delta_t, np.zeros(3)]))
    out = model.forward([padded] + list(ds.episodes[1:]))
    np.testing.assert_array_equal(out.data, base.data)


@pytest.mark.parametrize("kernel", ["mlp_exp", "exp", "mlp_gaussian", "mlp_linear"])
def test_no_grad_forward_is_bit_identical_and_untracked(kernel):
    ds = synth(n=4, seed=7)
    model = tiny_model(ds.variables, kernel=kernel)
    tracked = model.forward(ds.episodes)
    with ad.no_grad():
        untracked = model.forward(ds.episodes)
    assert untracked.data.tobytes() == tracked.data.tobytes()
    assert tracked.tracked and not untracked.tracked
    assert untracked._parents == () and untracked._backward is None
    # a no_grad node is a bare Tensor: not even its op name is recorded
    assert tracked._op == "linear" and untracked._op == ""


def test_predict_proba_keeps_no_graph_alive():
    # a graph-building forward holds every step's arrays until it returns;
    # predict_proba holds only the current step's
    ds = synth(n=32, seed=0)
    model = tiny_model(ds.variables, d=16, k=256)

    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    forward_peak = peak_bytes(lambda: model.forward(ds.episodes))
    predict_peak = peak_bytes(lambda: model.predict_proba(ds.episodes))
    assert predict_peak <= forward_peak / 3, (predict_peak, forward_peak)


def test_training_peak_does_not_grow_by_a_fusion_array_per_step():
    # a soft_fuse node keeps no B×K array from forward to backward, so three
    # times the steps add less than one such array to the training peak
    ds = synth(n=4, seed=0, obs=12.0)
    model = tiny_model(ds.variables, d=4, k=16384)

    def train_peak(n_steps):
        episodes = truncate_episodes(ds.episodes, n_steps, 24.0)
        ad.zero_grad(model.params.values())
        tracemalloc.start()
        try:
            logits = model.forward(episodes)
            ad.backward(ad.cross_entropy(logits, model.plan(episodes).onehot))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sum(step.n_edges > 0 for step in gr.build_graph_steps(episodes, 3))

    train_peak(3)  # first-call allocations stay out of the comparison
    (short, short_steps), (long, long_steps) = train_peak(3), train_peak(9)
    assert long_steps >= 3 * short_steps
    fusion_array = len(ds.episodes) * model.config.codebook_size * 8
    assert long - short < fusion_array, (short, long, fusion_array)


def test_graph_keeps_no_concatenated_inputs_or_float_masks():
    # the nodes rebuild their concatenated inputs in backward and keep ReLU
    # masks as bool, so a tracked forward keeps fewer than 60 float64 rows of
    # width hidden_dim per edge alive until backward (75 when they kept both)
    ds = synth(n=32, seed=0, obs=8.0)
    model = tiny_model(ds.variables, d=16, k=32)
    edges = sum(step.n_edges for step in gr.build_graph_steps(ds.episodes, 3))
    model.forward(ds.episodes)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        logits = model.forward(ds.episodes)
        alive = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert logits.tracked
    assert alive < 60 * edges * model.config.hidden_dim * 8, (alive, edges)


def test_every_bank_tensor_of_a_forward_shares_one_array(monkeypatch):
    # the gates write the bank in place, so a per-step copy shows here
    ds = synth(n=4, seed=5)
    model = tiny_model(ds.variables)
    banks = []
    true_gate = tp.gated_update

    def recording(bank, *args):
        banks.append(bank.data)
        return true_gate(bank, *args)

    monkeypatch.setattr(tp, "gated_update", recording)
    logits = model.forward(ds.episodes)
    assert logits.tracked and len(banks) >= 3
    assert all(bank is banks[0] for bank in banks[1:])


GRAPH_MEMORY = Path(__file__).resolve().parents[1] / "scripts" / "graph_memory.py"


def test_graph_memory_script_bounds_what_a_training_batch_keeps():
    # 2.92 MB kept and a 0.17 MB backward peak measured for this config when
    # each fusion call allocated its own arrays; 2.96 MB when the gates wrote
    # the bank in place and the fused nodes rebuilt their inner arrays in
    # backward; 4.59 MB with a bank copy per step
    spec = importlib.util.spec_from_file_location("graph_memory", GRAPH_MEMORY)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    result = script.graph_memory({**DEFAULT_SYNTHETIC, "n_episodes": 40},
                                 {"hidden_dim": 8, "codebook_size": 64, "n_layers": 1,
                                  "batch_size": 32})
    assert result["episodes"] == 32
    assert result["kept"] < 3.3e6, result["lines"][:5]
    assert 0 < result["backward_peak"] < result["kept"]


# -- ablation mechanics -----------------------------------------------------------

def perturb_and_compare(flags, param_names, seed=19):
    ds = synth(n=4, seed=seed)
    model = tiny_model(ds.variables, flags=flags)
    base = model.forward(ds.episodes)
    for name in param_names:
        model.params[name].data += 3.7
    out = model.forward(ds.episodes)
    np.testing.assert_array_equal(out.data, base.data)


def test_disabled_codebook_ignores_codebook():
    perturb_and_compare(AblationFlags(use_cb=False), ["codebook"])


def test_disabled_decay_ignores_decay_parameters():
    perturb_and_compare(AblationFlags(use_tde=False),
                        ["decay.w1", "decay.b1", "decay.w2", "decay.b2",
                         "decay.rate_raw"])


def test_disabled_attention_ignores_projection():
    perturb_and_compare(AblationFlags(use_sna=False), ["attn.proj"])


def test_disabled_time_embedding_ignores_time_parameters():
    perturb_and_compare(AblationFlags(use_te=False),
                        ["edge.time_freq", "edge.time_phase"])


def test_decay_off_is_independent_of_gaps():
    ds = synth(n=4, seed=23)
    model = tiny_model(ds.variables, flags=AblationFlags(use_tde=False))
    base = model.forward(ds.episodes)
    jittered = [replace(ep, delta_t=ep.delta_t * 7.3) for ep in ds.episodes]
    out = model.forward(jittered)
    np.testing.assert_allclose(out.data, base.data, atol=1e-12)


def test_head_dimension_shrinks_per_flag():
    variables = ["a", "b", "c"]
    d = 8
    full = tiny_model(variables, flags=AblationFlags())
    assert full.head_input_dim() == d + d + 3 * d
    assert tiny_model(variables, flags=AblationFlags(use_mcv=False)).head_input_dim() == d + 3 * d
    assert tiny_model(variables, flags=AblationFlags(use_cb=False)).head_input_dim() == d + 3 * d
    assert tiny_model(variables, flags=AblationFlags(use_hvs=False)).head_input_dim() == d + d
    minimal = tiny_model(variables, flags=AblationFlags(use_hvs=False, use_mcv=False))
    assert minimal.head_input_dim() == d


# -- head reweighting ----------------------------------------------------------------

def test_reweight_single_variable_doubles():
    bank = Tensor(np.arange(8.0).reshape(2, 4))  # B=2, V=1, d=4
    out = co.layer_head_reweight(bank, count_weights(np.array([[5.0], [2.0]])))
    np.testing.assert_allclose(out.data, bank.data * 2.0, atol=1e-12)


def test_reweight_uniform_counts():
    rng = np.random.default_rng(0)
    bank = Tensor(rng.normal(size=(6, 4)))  # B=2, V=3
    for counts in (np.full((2, 3), 4.0), np.zeros((2, 3))):
        out = co.layer_head_reweight(bank, count_weights(counts))
        np.testing.assert_allclose(out.data.reshape(2, 3, 4),
                                   bank.data.reshape(2, 3, 4) * (1 + 1 / 3),
                                   atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(1, 4), v_count=st.integers(1, 4), dim=st.integers(1, 4),
       leaf=st.booleans(), direct=st.booleans(), seed=st.integers(0, 2**16))
def test_head_reweight_is_one_node_with_the_chain_bits(batch, v_count, dim, leaf, direct,
                                                       seed):
    rng = np.random.default_rng(seed)
    weights = count_weights(rng.integers(0, 5, (batch, v_count)).astype(np.float64))
    arrays = {"h_bank": rng.normal(size=(batch * v_count, dim))}

    def runner(reweight):
        def build(h_bank):
            return reweight(h_bank, weights)
        return co.differentiate(build, arrays, leaves=("h_bank",) if leaf else (),
                                direct=direct, seed=seed)

    co.assert_same_bits(runner(co.layer_head_reweight), runner(co.head_reweight))


# -- loss ---------------------------------------------------------------------------

def test_loss_uniform_logits():
    loss = ad.cross_entropy(Tensor([[0.0, 0.0]]), ad.one_hot([0], 2))
    assert loss.item() == pytest.approx(np.log(2))


def test_loss_large_margin_bound():
    loss = ad.cross_entropy(Tensor([[20.0, 0.0], [0.0, 20.0]]), ad.one_hot([0, 1], 2))
    assert loss.item() < 1e-8


def test_batch_loss_is_mean_of_singles():
    ds = synth(n=4, seed=29)
    model = tiny_model(ds.variables)
    # per-episode forwards differ from the batch forward (shared variable
    # nodes couple the batch), so check the mean law on the loss op itself
    logits = model.forward(ds.episodes)
    onehot = model.plan(ds.episodes).onehot
    total = ad.cross_entropy(logits, onehot).item()
    singles = [ad.cross_entropy(Tensor(logits.data[i:i + 1]), onehot[i:i + 1]).item()
               for i in range(4)]
    assert total == pytest.approx(np.mean(singles), rel=1e-12)


# -- training ------------------------------------------------------------------------

def balanced_splits(ds, n_train, n_val, n_test):
    """Deterministic splits with alternating labels in every part."""
    from decaygraph.data import Dataset, DatasetSplits
    episodes = [replace(ep, label=i % 2) for i, ep in enumerate(ds.episodes)]
    parts = (episodes[:n_train], episodes[n_train:n_train + n_val],
             episodes[n_train + n_val:n_train + n_val + n_test])
    return DatasetSplits(*(Dataset(ds.variables, p, ds.t_max, 2) for p in parts))


def test_early_stopping_exact_epoch_count():
    ds = synth(n=12, seed=31)
    splits = balanced_splits(ds, 6, 4, 2)
    model = tiny_model(ds.variables, lr=1e-300, epochs=30, patience=5)
    result = fit(model, splits.train, splits.val)
    # frozen parameters: the monitor never improves after epoch 1
    assert len(result["history"]) == 6
    assert result["best_epoch"] == 1


def test_training_is_deterministic():
    ds = synth(n=16, seed=37)
    splits = balanced_splits(ds, 10, 4, 2)

    def run():
        model = tiny_model(ds.variables, epochs=3, lr=0.01)
        return fit(model, splits.train, splits.val)

    assert run()["history"] == run()["history"]


def test_loss_decreases_early_for_most_seeds():
    ds = synth(n=24, seed=41, obs=6.0)
    splits = split_dataset(ds, ratios=(0.5, 0.25, 0.25), seed=2)
    wins = 0
    for seed in range(5):
        model = tiny_model(ds.variables, d=8, epochs=5, lr=0.02, seed=seed,
                           patience=10)
        history = fit(model, splits.train, splits.val)["history"]
        if history[-1]["train_loss"] < history[0]["train_loss"]:
            wins += 1
    assert wins >= 4


def test_fit_stops_on_non_finite_loss():
    ds = synth(n=12, seed=31)
    splits = balanced_splits(ds, 6, 4, 2)
    model = tiny_model(ds.variables, epochs=2)
    model.params["head.b2"].data[0] = np.nan
    with pytest.raises(NonFiniteLossError, match="epoch 1, batch 1"):
        fit(model, splits.train, splits.val)


def test_fit_rejects_empty_split():
    ds = synth(n=6, seed=43)
    model = tiny_model(ds.variables)
    empty = replace(ds, episodes=[])
    with pytest.raises(ModelConfigError):
        fit(model, ds, empty)


def test_fit_single_class_validation_split():
    ds = synth(n=30, seed=1)
    splits = balanced_splits(ds, 20, 0, 0)
    positives = [replace(ep, label=1) for ep in ds.episodes[20:26]]
    model = tiny_model(ds.variables, epochs=2)
    history = fit(model, splits.train, replace(ds, episodes=positives))["history"]
    assert [record["val_auroc"] for record in history] == [None, None]
    assert history[0]["val_auprc"] == 1.0

    negatives = [replace(ep, label=0) for ep in ds.episodes[20:26]]
    with pytest.raises(ModelConfigError, match="validation split has no positive"):
        fit(tiny_model(ds.variables, epochs=2), splits.train,
            replace(ds, episodes=negatives))


def test_evaluate_report_fields():
    ds = synth(n=10, seed=47)
    model = tiny_model(ds.variables)
    report = evaluate(model, ds, collect_diagnostics=True)
    for key in ("auroc", "auprc", "ece", "brier", "mean_pos_prob",
                "n_pos", "n_neg", "codebook_utilization"):
        assert key in report
    assert 0.0 <= report["codebook_utilization"] <= 1.0


@pytest.mark.parametrize("case", ["not collected", "no codebook", "one step"])
def test_evaluate_reports_no_utilization_without_a_fused_row(case):
    """Fusion runs from each episode's second step on, so one-step episodes
    fuse no row; nor does a model without the codebook."""
    ds = synth(n=10, seed=47)
    if case == "one step":
        ds = replace(ds, episodes=truncate_episodes(ds.episodes, 1, ds.t_max))
    model = tiny_model(ds.variables, flags=AblationFlags(use_cb=case != "no codebook"))
    report = evaluate(model, ds, collect_diagnostics=case != "not collected")
    assert "codebook_utilization" not in report
    assert report == evaluate(model, ds)


def test_utilization_accumulates_over_steps_and_batches(monkeypatch):
    """The streamed weight sums give the utilization of every fusion row
    of every step and batch, kept and concatenated."""
    ds = synth(n=10, seed=47)
    kept = []
    true_fuse = cb.soft_fuse

    def keeping_fuse(x, book, unit_book, weight_sum=None):
        kept.append(ad._softmax(np.matmul(cb.unit_rows(x)[1], unit_book.unit.T)))
        return true_fuse(x, book, unit_book, weight_sum)

    monkeypatch.setattr(cb, "soft_fuse", keeping_fuse)
    for batch_size in (1, 3, 10):
        kept.clear()
        model = tiny_model(ds.variables, batch_size=batch_size)
        report = evaluate(model, ds, collect_diagnostics=True)
        rows = np.concatenate(kept)
        expected = float((rows.mean(axis=0) > 1.0 / rows.shape[1]).mean())
        assert report["codebook_utilization"] == expected


def test_tiled_fusion_gives_the_same_evaluation(monkeypatch):
    ds = synth(n=10, seed=47)
    model = tiny_model(ds.variables)
    base = evaluate(model, ds, collect_diagnostics=True)
    monkeypatch.setattr(cb, "TILE", 3)  # K=8 in tiles of 3, 3 and 2 prototypes
    tiled = evaluate(model, ds, collect_diagnostics=True)
    assert tiled.keys() == base.keys()
    for key, value in base.items():
        assert tiled[key] == pytest.approx(value, rel=1e-12), key


def test_multiclass_evaluate():
    coeffs = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    cfg = SyntheticConfig(n_variables=3, n_episodes=9, decay_rates=[0.5, 1.0, 2.0],
                          obs_per_episode=5.0, horizon=24.0, seed=0,
                          label_coeffs=coeffs, n_classes=3)
    ds = synthesize(cfg)
    model = tiny_model(ds.variables, n_classes=3)
    report = evaluate(model, ds)
    assert set(report) >= {"accuracy", "precision_macro", "recall_macro", "f1_macro"}


# -- checkpoints -----------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    ds = synth(n=4, seed=53)
    model = tiny_model(ds.variables, seed=8)
    base = model.forward(ds.episodes)
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, model, norm_means=np.array([0.1, 0.2, 0.3]),
                    norm_stds=np.array([1.0, 2.0, 3.0]), t_max=24.0)
    loaded, meta = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.flags == model.flags
    assert loaded.variables == model.variables
    assert meta["t_max"] == 24.0
    np.testing.assert_array_equal(meta["norm_means"], [0.1, 0.2, 0.3])
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)
    out = loaded.forward(ds.episodes)
    np.testing.assert_array_equal(out.data, base.data)


def test_checkpoint_compatibility_check():
    model = tiny_model(["a", "b"])
    ds = synth(n=2)
    with pytest.raises(CompatibilityError):
        check_compatibility(model, ds)


def test_checkpoint_rejects_foreign_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(CompatibilityError):
        load_checkpoint(str(path))
    path.write_text(json.dumps({"format": "decaygraph-checkpoint", "version": 99}))
    with pytest.raises(CompatibilityError):
        load_checkpoint(str(path))


def _drop_block(params, raw):
    del params["codebook"]


def _truncate_payload(params, raw):
    params["codebook"]["data"] = base64.b64encode(raw[:-8]).decode("ascii")


def _poison_value(params, raw):
    data = np.frombuffer(raw, dtype="<f8").copy()
    data[3] = np.nan
    params["codebook"]["data"] = base64.b64encode(data.tobytes()).decode("ascii")


@pytest.mark.parametrize("corrupt", [_drop_block, _truncate_payload, _poison_value])
def test_checkpoint_rejects_corrupt_parameter(tmp_path, corrupt):
    ds = synth(n=2, seed=53)
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), tiny_model(ds.variables, seed=8))
    payload = json.loads(path.read_text())
    corrupt(payload["params"], base64.b64decode(payload["params"]["codebook"]["data"]))
    path.write_text(json.dumps(payload))
    with pytest.raises(CompatibilityError, match="codebook"):
        load_checkpoint(str(path))


def test_model_config_validation():
    with pytest.raises(ModelConfigError):
        ModelConfig(decay_kernel="cosine").validate()
    with pytest.raises(ModelConfigError):
        ModelConfig(hidden_dim=0).validate()
    with pytest.raises(ModelConfigError):
        ModelConfig(lr=-0.1).validate()
    with pytest.raises(ModelConfigError):
        ModelConfig(n_classes=1).validate()
    with pytest.raises(ModelConfigError):
        DecayGraphClassifier(ModelConfig(), AblationFlags(), [])


# -- end-to-end orchestration oracle -----------------------------------------------------

def test_two_step_forward_matches_numpy_oracle():
    """Hand-rolled forward for B=1, V=1, T=2, d=2, K=1, L=1.

    Pins the step schedule: fuse then attend from the second step, fresh
    edge init per step, message passing before the decay/gate update,
    the pre-update bank feeding attention, and the head order
    [patient embedding; retrieved prototype; reweighted states].
    """
    d = 2
    times = np.array([1.5, 4.0])
    values = np.array([[0.7], [-1.2]])
    mask = np.ones((2, 1))
    ep = Episode("p", times, values, mask, delta_t_from_times(times, 24.0)[:, None], 1)
    config = ModelConfig(hidden_dim=d, codebook_size=1, n_layers=1,
                         batch_size=1, seed=13)
    model = DecayGraphClassifier(config, AblationFlags(), ["v"])
    logits = model.forward([ep])

    P = {k: t.data for k, t in model.params.items()}
    relu = lambda x: np.maximum(x, 0.0)
    sigmoid = lambda x: 1.0 / (1.0 + np.exp(-x))
    softplus = lambda x: np.log1p(np.exp(x))

    def edge_embed(x, t):
        raw = t * P["edge.time_freq"][0] + P["edge.time_phase"]
        t2v = np.concatenate([[raw[0]], np.sin(raw[1:])])
        return x * P["edge.value_w"][0] + P["edge.value_b"] + t2v + P["edge.var_table"][0]

    def message_pass(vp, vv, e):
        agg_p = relu(np.concatenate([vv, e]) @ P["sage0.msg_w"] + P["sage0.msg_b"])
        agg_v = relu(np.concatenate([vp, e]) @ P["sage0.msg_w"] + P["sage0.msg_b"])
        vp1 = relu(np.concatenate([vp, agg_p]) @ P["sage0.node_w"] + P["sage0.node_b"])
        vv1 = relu(np.concatenate([vv, agg_v]) @ P["sage0.node_w"] + P["sage0.node_b"])
        e1 = e + relu(np.concatenate([vp1, vv1, e]) @ P["sage0.edge_w"] + P["sage0.edge_b"])
        return vp1, vv1, e1

    def decay_gate(e, h_prev, dt):
        lam = softplus(relu(e @ P["decay.w1"] + P["decay.b1"]) @ P["decay.w2"]
                       + P["decay.b2"])[0]
        h_hat = (np.exp(-lam * dt) + 1e-300) * h_prev
        r = sigmoid(np.concatenate([e, h_hat]) @ P["gate.w"] + P["gate.b"])
        return (1.0 - r) * h_hat + r * e

    def fuse(g):
        c = P["codebook"][0]
        alpha = np.linalg.norm(c) / (np.linalg.norm(g) + 1e-8)
        return g + alpha * c  # K=1 makes the softmax weight exactly 1

    # step 0: no fusion or attention yet
    vp = np.full(d, 1.0 / np.sqrt(d))
    vv = P["node.var_table"][0]
    vp, vv, e = message_pass(vp, vv, edge_embed(values[0, 0], times[0]))
    h = decay_gate(e, np.zeros(d), ep.delta_t[0, 0])

    # step 1: fuse both node sets, then attention replaces the patient state
    vp, vv = fuse(vp), fuse(vv)
    vp = h @ P["attn.proj"]  # single key: the softmax weight is 1
    vp, vv, e = message_pass(vp, vv, edge_embed(values[1, 0], times[1]))
    h = decay_gate(e, h, ep.delta_t[1, 0])

    # head: retrieval from the final patient embedding, counts softmax is 1
    z = np.concatenate([vp, P["codebook"][0], 2.0 * h])
    expected = relu(z @ P["head.w1"] + P["head.b1"]) @ P["head.w2"] + P["head.b2"]
    np.testing.assert_allclose(logits.data[0], expected, atol=1e-12)


# -- gradient audit ----------------------------------------------------------------------

def test_micro_gradient_check_all_kernels():
    ds = synth(n=2, seed=59, v=2, rates=(0.5, 2.0), coeffs=(1.0, -1.0))
    episodes = truncate_episodes(ds.episodes, 2, 24.0)
    for kernel in ("mlp_exp", "exp", "mlp_gaussian", "mlp_linear"):
        model = tiny_model(ds.variables[:2], d=4, k=4, layers=1, seed=61,
                           kernel=kernel)
        errors = gradient_check(model, episodes)
        assert max(errors.values()) < 1e-4, f"{kernel}: {max(errors.values()):.2e}"


@pytest.mark.parametrize("step", [0.0, -1e-5, float("nan"), float("inf")])
def test_gradient_check_refuses_non_positive_step(step):
    ds = synth(n=2, seed=59, v=2, rates=(0.5, 2.0), coeffs=(1.0, -1.0))
    model = tiny_model(ds.variables[:2], d=4, k=4, layers=1, seed=61)
    with pytest.raises(ModelConfigError, match="step must be positive and finite"):
        gradient_check(model, ds.episodes, step=step)


def test_gradient_check_makes_a_nan_gradient_an_infinite_error(monkeypatch):
    # max(0.0, nan) is 0.0, so a NaN error would pass the audit unseen
    ds = synth(n=2, seed=59, v=2, rates=(0.5, 2.0), coeffs=(1.0, -1.0))
    episodes = truncate_episodes(ds.episodes, 2, 24.0)
    co.corrupt(monkeypatch, "decay_factor", float("nan"))
    model = tiny_model(ds.variables[:2], d=4, k=4, layers=1, seed=61)
    errors = gradient_check(model, episodes)
    # the audit's analytic pass leaves its gradients on the parameters
    nan_blocks = {name for name, p in model.params.items()
                  if p.grad is not None and np.isnan(p.grad).any()}
    assert "decay.w1" in nan_blocks
    assert {name for name, err in errors.items() if err == np.inf} == nan_blocks
    assert max(err for name, err in errors.items() if name not in nan_blocks) < 1e-4


@pytest.mark.parametrize("node", sorted(co.FUSED_NODES))
def test_gradient_check_catches_corrupted_rule(monkeypatch, node):
    ds = synth(n=2, seed=59, v=2, rates=(0.5, 2.0), coeffs=(1.0, -1.0))
    episodes = truncate_episodes(ds.episodes, 2, 24.0)
    co.corrupt(monkeypatch, node)
    model = tiny_model(ds.variables[:2], d=4, k=4, layers=1, seed=61)
    errors = gradient_check(model, episodes)
    assert max(errors.values()) > 1e-4


# -- fused nodes ---------------------------------------------------------------------

ABLATION_SETS = [(), ("tde",), ("te",), ("sna",), ("cb",), ("hvs", "mcv"), ("tde", "sna")]


@pytest.mark.parametrize("kernel", ["mlp_exp", "exp", "mlp_gaussian", "mlp_linear"])
@pytest.mark.parametrize("ablate", ABLATION_SETS, ids="-".join)
def test_gradient_check_equals_a_full_forward_for_every_loss(monkeypatch, kernel, ablate):
    """The audit encodes the batch once for the head blocks; a loop that runs
    the whole forward for every loss returns the same dict, float for float."""
    ds = synth(n=2, seed=59, v=2, rates=(0.5, 2.0), coeffs=(1.0, -1.0))
    episodes = truncate_episodes(ds.episodes, 2, 24.0)
    flags = AblationFlags(**{f"use_{name}": False for name in ablate})
    model = tiny_model(ds.variables, d=4, k=4, layers=1, seed=61, flags=flags,
                       kernel=kernel)
    step, skip_below = 1e-5, md.GRADCHECK_SKIP_BELOW

    ad.zero_grad(model.params.values())
    ad.backward(md.batch_loss(model, episodes))
    expected = {}
    with ad.no_grad():
        for name, p in model.params.items():
            analytic = np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1).copy()
            worst = 0.0
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                f_plus = md.batch_loss(model, episodes).item()
                flat[i] = original - step
                f_minus = md.batch_loss(model, episodes).item()
                flat[i] = original
                numeric = (f_plus - f_minus) / (2.0 * step)
                a = analytic[i]
                if abs(a) < skip_below and abs(numeric) < skip_below:
                    continue
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric)))
            expected[name] = worst

    calls = {"encode": 0, "batch_loss": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DecayGraphClassifier, "encode",
                        counted("encode", DecayGraphClassifier.encode))
    monkeypatch.setattr(md, "batch_loss", counted("batch_loss", md.batch_loss))
    assert gradient_check(model, episodes, step) == expected
    sizes = {name: p.data.size for name, p in model.params.items()}
    encoder = sum(size for name, size in sizes.items() if not name.startswith("head."))
    assert calls == {"encode": 2 + 2 * encoder, "batch_loss": 1 + 2 * sum(sizes.values())}


@pytest.mark.parametrize("kernel", ["mlp_exp", "exp", "mlp_gaussian", "mlp_linear"])
@pytest.mark.parametrize("ablate", ABLATION_SETS, ids="-".join)
def test_forward_and_gradients_keep_the_chain_bits(monkeypatch, kernel, ablate):
    """Logits and every parameter gradient of a ragged batch are the bytes the
    chains of small ops gave, which also pins each fused node's parent order.
    The second batch has as many patients as variables, so a step's patient
    and variable fusions have one shape and any state one left for the
    other would show. Fusion runs fused on
    both sides; ``test_codebook`` compares it with its chain."""
    ds = synth(n=6, seed=83, obs=4.0)
    flags = AblationFlags(**{f"use_{name}": False for name in ablate})

    def run(episodes):
        model = tiny_model(ds.variables, d=4, k=4, seed=7, flags=flags, kernel=kernel)
        logits = model.forward(episodes)
        ad.backward(ad.cross_entropy(logits, model.plan(episodes).onehot))
        return [logits.data] + [p.grad for p in model.params.values()]

    for episodes in (ds.episodes, ds.episodes[:3]):
        fused = run(episodes)
        with monkeypatch.context() as patch:
            co.install(patch)
            chain = run(episodes)
        for a, b in zip(fused, chain):
            assert (a is None) == (b is None)
            assert a is None or a.tobytes() == b.tobytes()


def c8_batch():
    """One training batch and model at the C8 config (K=32, batch 64, d=16, 2 layers)."""
    cfg = SyntheticConfig(n_variables=6, n_episodes=64, decay_rates=[4.0] * 3 + [0.05] * 3,
                          obs_per_episode=6.0, horizon=48.0, seed=201,
                          label_coeffs=[2.0, -2.0, 2.0, 0.0, 0.0, 0.0])
    model = tiny_model([f"v{i}" for i in range(6)], d=16, k=32, batch_size=64, seed=10)
    return synthesize(cfg).episodes, model


def test_c8_forward_builds_at_most_17_tracked_nodes_per_step(monkeypatch):
    episodes, model = c8_batch()
    made = []
    true_make = ad._make

    def counting_make(*args):
        out = true_make(*args)
        made.append(out.tracked)
        return out

    monkeypatch.setattr(ad, "_make", counting_make)
    model.forward(episodes)
    steps = sum(step.n_edges > 0 for step in gr.build_graph_steps(episodes, 6))
    assert sum(made) / steps <= 17


def test_adopted_gradients_keep_their_bytes_and_share_no_memory(monkeypatch):
    """A first gradient adopts the array its rule allocated instead of copying
    it; every parameter gradient of a C8 backward keeps the copied bytes, and
    no two parameters' ``.grad`` arrays overlap."""
    episodes, model = c8_batch()
    true_accumulate = ad._accumulate

    def gradients():
        ad.zero_grad(model.params.values())
        ad.backward(md.batch_loss(model, episodes))
        return {name: p.grad for name, p in model.params.items() if p.grad is not None}

    adopted = []

    def counting(t, grad, owned=False):
        adopted.append(owned and t.tracked and t.grad is None)
        true_accumulate(t, grad, owned)

    with monkeypatch.context() as patch:
        patch.setattr(ad, "_accumulate", lambda t, grad, owned=False: true_accumulate(t, grad))
        copied = gradients()
    monkeypatch.setattr(ad, "_accumulate", counting)
    grads = gradients()
    assert sum(adopted) > 0
    assert grads.keys() == copied.keys()
    for name in grads:
        assert grads[name].tobytes() == copied[name].tobytes(), name
    names = sorted(grads)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not np.shares_memory(grads[a], grads[b]), (a, b)


# -- the encoder's layer nodes against the per-node oracle ------------------------

FLAG_NAMES = ("tde", "sna", "hvs", "cb", "mcv", "te")
EVERY_ABLATION = [tuple(name for bit, name in enumerate(FLAG_NAMES) if mask >> bit & 1)
                  for mask in range(2 ** len(FLAG_NAMES))]


def encoder_bits(forward, episodes, variables, ablate=(), **kwargs):
    """Logits and every parameter gradient of one batch through ``forward``."""
    flags = AblationFlags(**{f"use_{name}": False for name in ablate})
    model = tiny_model(variables, d=4, seed=7, flags=flags, **kwargs)
    logits = forward(model, episodes)
    ad.backward(ad.cross_entropy(logits, model.plan(episodes).onehot))
    return logits.data, {name: p.grad for name, p in model.params.items()}


def assert_per_node_bits(episodes, variables, **kwargs):
    """``encode``'s layer nodes give the per-node encoder's logits and
    gradients, byte for byte, and leave the same parameters without a
    gradient: the layers backward runs, and the order each gradient sums
    its terms in."""
    logits, grads = encoder_bits(lambda model, batch: model.forward(batch), episodes,
                                 variables, **kwargs)
    want_logits, want = encoder_bits(co.per_node_forward, episodes, variables, **kwargs)
    assert logits.tobytes() == want_logits.tobytes()
    assert ({name for name, g in grads.items() if g is None}
            == {name for name, g in want.items() if g is None})
    for name, grad in grads.items():
        assert grad is None or grad.tobytes() == want[name].tobytes(), name


def oracle_batch():
    ds = synth(n=6, seed=83, obs=4.0)
    return ds.episodes, ds.variables


@pytest.mark.parametrize("ablate", EVERY_ABLATION, ids=lambda a: "-".join(a) or "none")
def test_layer_node_encoder_has_the_per_node_bits_under_every_ablation(ablate):
    episodes, variables = oracle_batch()
    assert_per_node_bits(episodes, variables, ablate=ablate, k=4)


@pytest.mark.parametrize("kernel", ["mlp_exp", "exp", "mlp_gaussian", "mlp_linear"])
def test_layer_node_encoder_has_the_per_node_bits_for_every_kernel(kernel):
    episodes, variables = oracle_batch()
    assert_per_node_bits(episodes, variables, kernel=kernel, k=4)


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("k", [4, 1030], ids=["chain-core", "tiled-core"])
def test_layer_node_encoder_has_the_per_node_bits_for_both_cores_and_depths(k, layers):
    assert k <= cb.TILE or k > cb.TILE
    episodes, variables = oracle_batch()
    for ablate in ((), ("sna",), ("hvs", "sna")):
        assert_per_node_bits(episodes, variables, ablate=ablate, k=k, layers=layers)


@pytest.mark.parametrize("ablate", [(), ("cb",), ("sna",), ("cb", "sna")],
                         ids=lambda a: "-".join(a) or "none")
def test_layer_node_encoder_has_the_per_node_bits_when_the_first_step_has_no_edge(ablate):
    # the first observed step then fuses and attends: the variable table
    # reaches its fusion directly
    episodes, variables = oracle_batch()
    emptied = [replace(ep, mask=np.vstack([np.zeros((1, ep.mask.shape[1])), ep.mask[1:]]))
               for ep in episodes]
    steps = gr.build_graph_steps(emptied, len(variables))
    assert steps[0].n_edges == 0 and steps[1].n_edges > 0
    assert_per_node_bits(emptied, variables, ablate=ablate, k=4)


def test_no_flat_index_lives_from_forward_to_backward():
    """The scatter sums' flat indices (E·d int64 entries each) are built in
    the forward and again in backward, but none is kept in between.

    Only array data counts, which numpy traces in its own domain: numpy
    recycles the small blocks that hold array shapes, and a recycled block
    keeps the line that first allocated it, so an array the graph keeps may
    own a shape block first allocated for a flat index."""
    episodes, model = c8_batch()
    model.forward(episodes)  # first-call allocations stay out
    source, first = inspect.getsourcelines(ad._flat_index)
    line = first + next(i for i, text in enumerate(source) if "np.arange" in text)
    array_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)

    def built_and_alive():
        snapshot = tracemalloc.take_snapshot().filter_traces([array_data])
        return sum(stat.size for stat in snapshot.statistics("lineno")
                   if (stat.traceback[0].filename, stat.traceback[0].lineno)
                   == (ad.__file__, line))

    tracemalloc.start()
    try:
        control = ad._flat_index(np.arange(5), 16)  # one that does live
        before = built_and_alive()
        logits = model.forward(episodes)
        after = built_and_alive()
    finally:
        tracemalloc.stop()
    assert logits.tracked and control.nbytes <= before
    assert after == before


def test_a_c8_forward_is_one_tracked_node_per_layer(monkeypatch):
    # 13 layers on the first observed step (edge init, two layers of two
    # messages, two node updates and an edge update, decay, gate), 16 on each
    # later one (two fusions and the attention too), then the retrieval, the
    # reweighted bank and the head's two linear layers
    episodes, model = c8_batch()
    made = []
    true_make = ad._make

    def recording_make(data, parents, op, rule):
        out = true_make(data, parents, op, rule)
        made.append((op, out.tracked))
        return out

    monkeypatch.setattr(ad, "_make", recording_make)
    assert model.forward(episodes).tracked
    steps = sum(step.n_edges > 0 for step in gr.build_graph_steps(episodes, 6))
    assert steps == 49
    assert all(tracked for _, tracked in made)
    assert len(made) == 13 + 16 * (steps - 1) + 4 == 785
    assert [op for op, _ in made[-4:]] == ["retrieve", "head_reweight", "linear", "linear"]
