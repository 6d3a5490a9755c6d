"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line once its assertions hold (visible
with ``pytest -s``). Criteria with runtime budgets assert them.
"""

import json
import time

import numpy as np
import pytest

from decaygraph import metrics as mx
from decaygraph import temporal as tp
from decaygraph.autodiff import Tensor
from decaygraph.analysis import empirical_autocorr, fit_decay_rate, kruskal_wallis
from decaygraph.cli import main as cli_main
from decaygraph.data import (DatasetSplits, SyntheticConfig, delta_t_from_times,
                             leave_variables_out, normalize_splits, split_dataset,
                             synthesize, truncate_episodes)
from decaygraph.model import (AblationFlags, DecayGraphClassifier, ModelConfig,
                              evaluate, fit, gradient_check)

from test_metrics import (auroc_pair_oracle, auprc_threshold_oracle,
                          ece_binning_oracle, random_instance)
from test_analysis import chi2_tail_quadrature


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# -- criterion 1: gradient fidelity --------------------------------------------

def test_c01_full_model_gradient_fidelity():
    start = time.perf_counter()
    config = SyntheticConfig(n_variables=3, n_episodes=2, decay_rates=[0.5, 2.0, 0.1],
                             obs_per_episode=4.0, horizon=24.0,
                             label_coeffs=[1.0, -1.0, 0.5], seed=3)
    dataset = synthesize(config)
    episodes = truncate_episodes(dataset.episodes, 4, 24.0)
    assert len(episodes) == 2
    assert max(ep.n_steps for ep in episodes) == 4

    model_config = ModelConfig(hidden_dim=8, codebook_size=8, n_layers=2,
                               batch_size=2, seed=2)
    model = DecayGraphClassifier(model_config, AblationFlags(), dataset.variables)
    errors = gradient_check(model, episodes, step=1e-5)
    elapsed = time.perf_counter() - start
    worst = max(errors.values())
    assert worst < 1e-4, f"max relative error {worst:.3e}"
    assert elapsed < 120.0, f"took {elapsed:.0f}s"
    report("C1 gradient fidelity",
           f"max_rel_err={worst:.2e} over {len(errors)} blocks in {elapsed:.0f}s")


# -- criterion 2: elapsed-interval rule -----------------------------------------

def test_c02_delta_t_branches_exhaustive():
    # both neighbours
    assert delta_t_from_times(np.array([2.0, 5.0, 6.0]), 48.0)[1] == 2.0
    # only previous
    assert delta_t_from_times(np.array([1.0, 4.0]), 48.0)[1] == 3.0
    # only next
    assert delta_t_from_times(np.array([1.0, 4.0]), 48.0)[0] == 3.0
    # neither
    assert delta_t_from_times(np.array([7.0]), 48.0)[0] == 24.0
    # joint case: every branch in one pass
    out = delta_t_from_times(np.array([0.0, 2.0, 8.0]), 40.0)
    assert list(out) == [2.0, 4.0, 6.0]
    report("C2 elapsed-interval rule", "all four branches exact")


# -- criterion 3: kernel invariants ------------------------------------------------

def test_c03_kernel_invariants():
    config = ModelConfig(hidden_dim=8, codebook_size=4, n_layers=1, seed=0)
    model = DecayGraphClassifier(config, AblationFlags(), ["a", "b"])
    rng = np.random.default_rng(0)
    e = rng.normal(size=(3, 8))
    grid = np.linspace(0.0, 100.0, 50)

    def decay(dt, kernel):
        return tp.decay_factor(Tensor(e), dt, kernel, model.params).data

    for kernel in tp.DECAY_KERNELS:
        np.testing.assert_allclose(decay(np.zeros(3), kernel), 1.0, atol=1e-12)
        curve = np.array([decay(np.full(3, dt), kernel)[:, 0] for dt in grid])
        assert np.all(np.diff(curve, axis=0) <= 1e-15), f"{kernel} not monotone"
    for kernel in ("mlp_exp", "exp", "mlp_gaussian"):
        gamma = decay(np.full(3, 1e3), kernel)
        assert np.all(gamma > 0.0), f"{kernel} underflowed at dt=1e3"
        assert np.all(np.isfinite(gamma))
    report("C3 kernel invariants",
           "gamma(0)=1, monotone on 50-point grid, exp/gaussian positive at dt=1e3")


# -- criterion 4: metric oracles -----------------------------------------------------

def test_c04_metric_oracles_exact():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        scores, labels = random_instance(rng)
        assert abs(mx.auroc(scores, labels) - auroc_pair_oracle(scores, labels)) <= 1e-12
        assert abs(mx.auprc(scores, labels) - auprc_threshold_oracle(scores, labels)) <= 1e-12
        assert abs(mx.ece(scores, labels) - ece_binning_oracle(scores, labels)) <= 1e-12
        assert abs(mx.brier(scores, labels) - float(np.mean((scores - labels) ** 2))) <= 1e-12
    report("C4 metric oracles", "200 random instances, exact to 1e-12")


# -- criterion 5: rank test -----------------------------------------------------------

def test_c05_kruskal_wallis():
    spread = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert spread.statistic == pytest.approx(7.2, abs=1e-12)
    identical = kruskal_wallis([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert identical.statistic == 0.0 and identical.p_value == 1.0
    oracle = chi2_tail_quadrature(7.2, df=2)
    assert spread.p_value == pytest.approx(oracle, abs=1e-6)
    report("C5 Kruskal-Wallis",
           f"H=7.2 exact, p={spread.p_value:.6f} matches quadrature to 1e-6")


# -- criterion 6: decay recovery --------------------------------------------------------

def test_c06_decay_recovery_five_seeds():
    start = time.perf_counter()
    recovered = []
    for seed in range(5):
        config = SyntheticConfig(n_variables=2, n_episodes=500,
                                 decay_rates=[0.05, 2.0], obs_per_episode=25.0,
                                 horizon=48.0, seed=seed, label_coeffs=[1.0, -1.0])
        dataset = synthesize(config)
        fits = []
        for v in range(2):
            series = []
            for ep in dataset.episodes:
                steps = np.flatnonzero(ep.mask[:, v])
                if len(steps) >= 2:
                    series.append((ep.times[steps], ep.values[steps, v]))
            estimate = empirical_autocorr(series, n_bins=6, max_lag=1.5)
            fits.append(fit_decay_rate(estimate).decay_rate)
        assert abs(fits[0] - 0.05) / 0.05 <= 0.3, f"seed {seed}: slow {fits[0]:.4f}"
        assert abs(fits[1] - 2.0) / 2.0 <= 0.3, f"seed {seed}: fast {fits[1]:.4f}"
        assert fits[1] > fits[0], f"seed {seed}: ordering violated"
        recovered.append(fits)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.0f}s"
    report("C6 decay recovery",
           f"5/5 seeds within 30% with correct ordering in {elapsed:.0f}s")


# -- criterion 7: end-to-end learnability -------------------------------------------------

def test_c07_learnability_on_separable_task():
    start = time.perf_counter()
    config = SyntheticConfig(n_variables=4, n_episodes=64,
                             decay_rates=[4.0, 1.0, 0.3, 0.05],
                             obs_per_episode=8.0, missing_prob=0.1, horizon=24.0,
                             label_coeffs=[1.5, -1.0, 1.0, -0.5],
                             label_summary="mean", seed=100)
    dataset = synthesize(config)
    splits = normalize_splits(DatasetSplits(train=dataset, val=dataset, test=dataset))
    wins = 0
    aurocs = []
    for seed in range(5):
        model_config = ModelConfig(hidden_dim=16, codebook_size=64, n_layers=2,
                                   lr=0.01, batch_size=64, epochs=200, patience=20,
                                   seed=seed)
        model = DecayGraphClassifier(model_config, AblationFlags(), dataset.variables)
        fit(model, splits.train, splits.val)
        auroc = evaluate(model, splits.train)["auroc"]
        aurocs.append(auroc)
        wins += auroc >= 0.99
    elapsed = time.perf_counter() - start
    assert wins >= 4, f"only {wins}/5 seeds reached 0.99 (AUROCs: {aurocs})"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    report("C7 learnability",
           f"{wins}/5 seeds at train AUROC >= 0.99 in {elapsed:.0f}s")


# -- criterion 8: ablation mechanics -------------------------------------------------------

def test_c08_ablation_mechanics():
    start = time.perf_counter()
    # mechanical part: disabling a mechanism makes its parameters inert
    probe_config = SyntheticConfig(n_variables=3, n_episodes=4,
                                   decay_rates=[0.5, 2.0, 0.1],
                                   obs_per_episode=5.0, horizon=24.0,
                                   label_coeffs=[1.0, -1.0, 0.5], seed=19)
    probe = synthesize(probe_config)
    inert_params = {
        "cb": (AblationFlags(use_cb=False), ["codebook"]),
        "tde": (AblationFlags(use_tde=False),
                ["decay.w1", "decay.b1", "decay.w2", "decay.b2", "decay.rate_raw"]),
        "sna": (AblationFlags(use_sna=False), ["attn.proj"]),
        "te": (AblationFlags(use_te=False), ["edge.time_freq", "edge.time_phase"]),
    }
    for toggle, (flags, names) in inert_params.items():
        config = ModelConfig(hidden_dim=8, codebook_size=8, n_layers=2,
                             batch_size=8, seed=0)
        model = DecayGraphClassifier(config, flags, probe.variables)
        base = model.forward(probe.episodes)
        for name in names:
            model.params[name].data += 3.7
        after = model.forward(probe.episodes)
        np.testing.assert_array_equal(after.data, base.data,
                                      err_msg=f"toggle {toggle} leaks")
    # head-input toggles shrink the classifier input instead
    d = 8
    base_dim = DecayGraphClassifier(
        ModelConfig(hidden_dim=d, codebook_size=8), AblationFlags(),
        probe.variables).head_input_dim()
    no_mcv = DecayGraphClassifier(
        ModelConfig(hidden_dim=d, codebook_size=8), AblationFlags(use_mcv=False),
        probe.variables).head_input_dim()
    no_hvs = DecayGraphClassifier(
        ModelConfig(hidden_dim=d, codebook_size=8), AblationFlags(use_hvs=False),
        probe.variables).head_input_dim()
    assert base_dim - no_mcv == d
    assert base_dim - no_hvs == 3 * d

    # directional part: with strongly heterogeneous decay rates the full
    # model should not lose to the no-decay variant
    task = SyntheticConfig(n_variables=6, n_episodes=200,
                           decay_rates=[4.0, 4.0, 4.0, 0.05, 0.05, 0.05],
                           obs_per_episode=6.0, missing_prob=0.0, horizon=48.0,
                           label_coeffs=[2.0, -2.0, 2.0, 0.0, 0.0, 0.0],
                           label_summary="decay_mean", seed=201)
    dataset = synthesize(task)
    splits = normalize_splits(split_dataset(dataset, ratios=(0.7, 0.15, 0.15), seed=0))
    wins = 0
    pairs = []
    for seed in range(5):
        scores = {}
        for name, flags in (("full", AblationFlags()),
                            ("no_tde", AblationFlags(use_tde=False))):
            config = ModelConfig(hidden_dim=16, codebook_size=32, n_layers=2,
                                 lr=0.01, batch_size=64, epochs=12, patience=12,
                                 seed=seed)
            model = DecayGraphClassifier(config, flags, dataset.variables)
            scores[name] = fit(model, splits.train, splits.val)["best_val_metric"]
        pairs.append((scores["full"], scores["no_tde"]))
        wins += scores["full"] >= scores["no_tde"]
    elapsed = time.perf_counter() - start
    assert wins >= 4, f"full beat no-decay only {wins}/5 times: {pairs}"
    report("C8 ablation mechanics",
           f"toggles inert, full >= no-decay val AUPRC {wins}/5 in {elapsed:.0f}s")


# -- criterion 9: determinism ---------------------------------------------------------------

def test_c09_byte_identical_reruns(tmp_path):
    synth_config = {
        "synthetic": {
            "n_variables": 4, "n_episodes": 40,
            "decay_rates": [0.05, 0.5, 1.0, 4.0], "obs_per_episode": 6.0,
            "missing_prob": 0.1, "horizon": 24.0,
            "label_coeffs": [1.0, -1.0, 0.5, -0.5], "seed": 0,
        },
        "data": {"split_ratios": [0.6, 0.2, 0.2]},
        "model": {"hidden_dim": 8, "codebook_size": 16, "n_layers": 2,
                  "lr": 0.01, "batch_size": 16, "epochs": 3, "patience": 5},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(synth_config))
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--config", str(config_path), "--out", str(data_dir)]) == 0

    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = cli_main(["train", "--config", str(config_path),
                         "--observations", str(data_dir / "observations.csv"),
                         "--labels", str(data_dir / "labels.csv"),
                         "--splits", str(data_dir / "splits.csv"),
                         "--out", str(out), "--seed", "5"])
        assert code == 0
        outputs.append(((out / "report.json").read_bytes(),
                        (out / "checkpoint.json").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "reports differ between reruns"
    assert outputs[0][1] == outputs[1][1], "checkpoints differ between reruns"
    history = json.loads(outputs[0][0])["history"]
    assert len(history) == 3
    report("C9 determinism", "report and checkpoint byte-identical across reruns")


# -- criterion 10: leave-variables-out protocol ----------------------------------------------

def test_c10_leave_out_protocol(tmp_path):
    start = time.perf_counter()
    # library-level guarantees
    config = SyntheticConfig(n_variables=10, n_episodes=60,
                             decay_rates=[0.05, 0.1, 0.3, 0.5, 1.0,
                                          1.5, 2.0, 4.0, 6.0, 8.0],
                             obs_per_episode=6.0, missing_prob=0.1, horizon=24.0,
                             label_coeffs=[1.0, -1.0, 0.5, -0.5, 1.0,
                                           -1.0, 0.5, -0.5, 1.0, -1.0], seed=7)
    dataset = synthesize(config)
    splits = split_dataset(dataset, ratios=(0.7, 0.15, 0.15), seed=0)
    for rate, expected in ((0.1, 1), (0.2, 2), (0.3, 3), (0.4, 4), (0.5, 5)):
        masked, hidden = leave_variables_out(splits, rate, seed=3)
        assert len(hidden) == expected
        idx = [dataset.variables.index(h) for h in hidden]
        for part in (masked.val, masked.test):
            for ep in part.episodes:
                assert ep.mask[:, idx].sum() == 0.0
        for before, after in zip(splits.train.episodes, masked.train.episodes):
            np.testing.assert_array_equal(before.mask, after.mask)
            np.testing.assert_array_equal(before.values, after.values)

    # end-to-end sweep through the command line
    cfg = {
        "synthetic": {
            "n_variables": 10, "n_episodes": 60,
            "decay_rates": [0.05, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 4.0, 6.0, 8.0],
            "obs_per_episode": 6.0, "missing_prob": 0.1, "horizon": 24.0,
            "label_coeffs": [1.0, -1.0, 0.5, -0.5, 1.0, -1.0, 0.5, -0.5, 1.0, -1.0],
            "seed": 7,
        },
        "data": {"split_ratios": [0.7, 0.15, 0.15]},
        "model": {"hidden_dim": 8, "codebook_size": 16, "n_layers": 2,
                  "lr": 0.01, "batch_size": 16, "epochs": 2, "patience": 5},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    data_dir, run_dir, eval_dir = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
    assert cli_main(["synth", "--config", str(config_path), "--out", str(data_dir)]) == 0
    data_args = ["--observations", str(data_dir / "observations.csv"),
                 "--labels", str(data_dir / "labels.csv"),
                 "--splits", str(data_dir / "splits.csv")]
    assert cli_main(["train", "--config", str(config_path), *data_args,
                     "--out", str(run_dir), "--seed", "1"]) == 0
    sweep = ["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
             *data_args, "--out", str(eval_dir), "--seed", "1"]
    for rate in ("0.1", "0.2", "0.3", "0.4", "0.5"):
        sweep += ["--leave-out", rate]
    assert cli_main(sweep) == 0
    reports = sorted(p.name for p in eval_dir.glob("eval_leave*.json"))
    assert len(reports) == 5
    for path in eval_dir.glob("eval_leave*.json"):
        payload = json.loads(path.read_text())
        expected = int(round(payload["leave_out_rate"] * 10))
        assert len(payload["hidden_variables"]) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"took {elapsed:.0f}s"
    report("C10 leave-variables-out",
           f"hidden sets empty, training untouched, sweep done in {elapsed:.0f}s")
