"""Full-model behaviour: forward contracts, ablations, training loop,
checkpoints and the finite-difference audit."""

import base64
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from decaygraph import autodiff as ad
from decaygraph import codebook as cb
from decaygraph import graph as gr
from decaygraph.autodiff import Tensor
from decaygraph.data import (Episode, SyntheticConfig, delta_t_from_times,
                             split_dataset, synthesize, truncate_episodes)
from decaygraph.model import (AblationFlags, CompatibilityError,
                              DecayGraphClassifier, ModelConfig,
                              ModelConfigError, NonFiniteLossError,
                              check_compatibility,
                              evaluate, fit, gradient_check, head_reweight,
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
    logits, _ = model.forward(truncate_episodes(ds.episodes, 4, 24.0))
    assert logits.shape == (2, 2)


def test_all_masks_zero_is_degenerate_but_finite():
    empty = Episode("e", np.array([1.0, 2.0]), np.zeros((2, 3)),
                    np.zeros((2, 3)), np.zeros((2, 3)), 0)
    model = tiny_model(["a", "b", "c"])
    logits, diag = model.forward([empty, empty], collect_diagnostics=True)
    assert np.all(np.isfinite(logits.data))
    np.testing.assert_array_equal(diag["hidden_bank"], 0.0)


def test_unobserved_states_stay_bitwise_zero():
    ds = synth(n=4, seed=3)
    episodes = ds.episodes
    model = tiny_model(ds.variables)
    _, diag = model.forward(episodes, collect_diagnostics=True)
    bank = diag["hidden_bank"]
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
    a, _ = full.forward(ds.episodes)
    b, _ = no_tde.forward(ds.episodes)
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


def test_patient_exchangeability():
    ds = synth(n=5, seed=11)
    model = tiny_model(ds.variables)
    base, _ = model.forward(ds.episodes)
    perm = [3, 0, 4, 1, 2]
    permuted, _ = model.forward([ds.episodes[i] for i in perm])
    np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-9)


def test_time_shift_invariance_without_time_embedding():
    ds = synth(n=3, seed=13, horizon=24.0)
    model = tiny_model(ds.variables, flags=AblationFlags(use_te=False))
    base, _ = model.forward(ds.episodes)
    shifted = [replace(ep, times=ep.times + 5.0) for ep in ds.episodes]
    out, _ = model.forward(shifted)
    np.testing.assert_allclose(out.data, base.data, atol=1e-9)
    # with the time embedding on, the shift is visible
    model_te = tiny_model(ds.variables, flags=AblationFlags())
    a, _ = model_te.forward(ds.episodes)
    b, _ = model_te.forward(shifted)
    assert np.max(np.abs(a.data - b.data)) > 1e-6


def test_padding_depth_is_invisible():
    ds = synth(n=3, seed=17)
    model = tiny_model(ds.variables)
    base, _ = model.forward(ds.episodes)
    # appending an all-empty trailing step to one episode must change nothing
    ep = ds.episodes[0]
    padded = replace(ep,
                     times=np.append(ep.times, ep.times[-1] + 1.0),
                     values=np.vstack([ep.values, np.zeros(3)]),
                     mask=np.vstack([ep.mask, np.zeros(3)]),
                     delta_t=np.vstack([ep.delta_t, np.zeros(3)]))
    out, _ = model.forward([padded] + list(ds.episodes[1:]))
    np.testing.assert_array_equal(out.data, base.data)


@pytest.mark.parametrize("kernel", ["mlp_exp", "exp", "mlp_gaussian", "mlp_linear"])
def test_no_grad_forward_is_bit_identical_and_untracked(kernel):
    ds = synth(n=4, seed=7)
    model = tiny_model(ds.variables, kernel=kernel)
    tracked, _ = model.forward(ds.episodes)
    with ad.no_grad():
        untracked, _ = model.forward(ds.episodes)
    assert untracked.data.tobytes() == tracked.data.tobytes()
    assert tracked.tracked and not untracked.tracked
    assert untracked._parents == () and untracked._backward is None


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


# -- ablation mechanics -----------------------------------------------------------

def perturb_and_compare(flags, param_names, seed=19):
    ds = synth(n=4, seed=seed)
    model = tiny_model(ds.variables, flags=flags)
    base, _ = model.forward(ds.episodes)
    for name in param_names:
        model.params[name].data += 3.7
    out, _ = model.forward(ds.episodes)
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
    base, _ = model.forward(ds.episodes)
    jittered = [replace(ep, delta_t=ep.delta_t * 7.3) for ep in ds.episodes]
    out, _ = model.forward(jittered)
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
    out = head_reweight(bank, np.array([[5.0], [2.0]]), 2, 1, 4)
    np.testing.assert_allclose(out.data, bank.data * 2.0, atol=1e-12)


def test_reweight_uniform_counts():
    rng = np.random.default_rng(0)
    bank = Tensor(rng.normal(size=(6, 4)))  # B=2, V=3
    for counts in (np.full((2, 3), 4.0), np.zeros((2, 3))):
        out = head_reweight(bank, counts, 2, 3, 4)
        np.testing.assert_allclose(out.data.reshape(2, 3, 4),
                                   bank.data.reshape(2, 3, 4) * (1 + 1 / 3),
                                   atol=1e-12)


# -- loss ---------------------------------------------------------------------------

def test_loss_uniform_logits():
    assert ad.cross_entropy(Tensor([[0.0, 0.0]]), [0]).item() == pytest.approx(np.log(2))


def test_loss_large_margin_bound():
    loss = ad.cross_entropy(Tensor([[20.0, 0.0], [0.0, 20.0]]), [0, 1])
    assert loss.item() < 1e-8


def test_batch_loss_is_mean_of_singles():
    ds = synth(n=4, seed=29)
    model = tiny_model(ds.variables)
    # per-episode forwards differ from the batch forward (shared variable
    # nodes couple the batch), so check the mean law on the loss op itself
    logits, _ = model.forward(ds.episodes)
    labels = [ep.label for ep in ds.episodes]
    total = ad.cross_entropy(logits, labels).item()
    singles = [ad.cross_entropy(Tensor(logits.data[i:i + 1]), labels[i:i + 1]).item()
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


def test_utilization_accumulates_over_steps_and_batches(monkeypatch):
    """The streamed weight sums give the utilization of every fusion row
    of every step and batch, kept and concatenated."""
    ds = synth(n=10, seed=47)
    kept = []
    true_fuse = cb.soft_fuse

    def keeping_fuse(g, book, unit_book):
        fused, weights = true_fuse(g, book, unit_book)
        kept.append(weights.copy())
        return fused, weights

    monkeypatch.setattr(cb, "soft_fuse", keeping_fuse)
    for batch_size in (1, 3, 10):
        kept.clear()
        model = tiny_model(ds.variables, batch_size=batch_size)
        report = evaluate(model, ds, collect_diagnostics=True)
        rows = np.concatenate(kept)
        expected = float((rows.mean(axis=0) > 1.0 / rows.shape[1]).mean())
        assert report["codebook_utilization"] == expected


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
    base, _ = model.forward(ds.episodes)
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
    out, _ = loaded.forward(ds.episodes)
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
    logits, _ = model.forward([ep])

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


@pytest.mark.parametrize("step", [0.0, -1e-5, float("nan")])
def test_gradient_check_refuses_non_positive_step(step):
    ds = synth(n=2, seed=59, v=2, rates=(0.5, 2.0), coeffs=(1.0, -1.0))
    model = tiny_model(ds.variables[:2], d=4, k=4, layers=1, seed=61)
    with pytest.raises(ModelConfigError, match="step must be positive"):
        gradient_check(model, ds.episodes, step=step)


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
def test_forward_and_gradients_keep_the_chain_bits(monkeypatch, kernel, ablate):
    """Logits and every parameter gradient of a ragged batch are the bytes the
    chains of small ops gave, which also pins each fused node's parent order."""
    ds = synth(n=6, seed=83, obs=4.0)
    flags = AblationFlags(**{f"use_{name}": False for name in ablate})

    def run():
        model = tiny_model(ds.variables, d=4, k=4, seed=7, flags=flags, kernel=kernel)
        logits = model.forward(ds.episodes)[0]
        ad.backward(ad.cross_entropy(logits, [ep.label for ep in ds.episodes]))
        return [logits.data] + [p.grad for p in model.params.values()]

    fused = run()
    with monkeypatch.context() as patch:
        co.install(patch)
        chain = run()
    for a, b in zip(fused, chain):
        assert (a is None) == (b is None)
        assert a is None or a.tobytes() == b.tobytes()


def test_c8_forward_builds_at_most_25_tracked_nodes_per_step(monkeypatch):
    """One training forward at the C8 config (K=32, batch 64, d=16, 2 layers)."""
    cfg = SyntheticConfig(n_variables=6, n_episodes=64, decay_rates=[4.0] * 3 + [0.05] * 3,
                          obs_per_episode=6.0, horizon=48.0, seed=201,
                          label_coeffs=[2.0, -2.0, 2.0, 0.0, 0.0, 0.0])
    episodes = synthesize(cfg).episodes
    model = tiny_model([f"v{i}" for i in range(6)], d=16, k=32, batch_size=64, seed=10)
    made = []
    true_make = ad._make

    def counting_make(*args):
        out = true_make(*args)
        made.append(out.tracked)
        return out

    monkeypatch.setattr(ad, "_make", counting_make)
    model.forward(episodes)
    steps = sum(step.n_edges > 0 for step in gr.build_graph_steps(episodes, 6))
    assert sum(made) / steps <= 25
