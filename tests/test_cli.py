"""End-to-end command line behaviour and output reproducibility."""

import json
import re

import numpy as np
import pytest

from decaygraph.cli import main
from decaygraph.data import load_dataset, synthesize, SyntheticConfig

import chain_ops as co


def run(*argv):
    return main(list(argv))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SMALL_SYNTH = {
    "synthetic": {
        "n_variables": 3,
        "n_episodes": 30,
        "decay_rates": [0.05, 0.5, 2.0],
        "obs_per_episode": 6.0,
        "missing_prob": 0.1,
        "horizon": 24.0,
        "label_coeffs": [1.0, -1.0, 0.5],
        "seed": 0,
    },
    "data": {"split_ratios": [0.6, 0.2, 0.2]},
}

SMALL_MODEL = {
    "model": {
        "hidden_dim": 8,
        "codebook_size": 16,
        "n_layers": 2,
        "lr": 0.01,
        "batch_size": 16,
        "epochs": 2,
        "patience": 5,
    },
}


@pytest.fixture()
def synth_dir(tmp_path):
    config = write_config(tmp_path, SMALL_SYNTH)
    out = tmp_path / "data"
    assert run("synth", "--config", config, "--out", str(out)) == 0
    return out


def data_args(synth_dir):
    return ["--observations", str(synth_dir / "observations.csv"),
            "--labels", str(synth_dir / "labels.csv"),
            "--splits", str(synth_dir / "splits.csv")]


# -- synth ------------------------------------------------------------------------

def test_synth_round_trip(synth_dir, tmp_path):
    ds = load_dataset(str(synth_dir / "observations.csv"),
                      str(synth_dir / "labels.csv"), t_max=24.0)
    reference = synthesize(SyntheticConfig(**SMALL_SYNTH["synthetic"]))
    survivors = [ep for ep in reference.episodes if ep.mask.sum() > 0]
    assert len(ds) == len(survivors)
    assert ds.variables == reference.variables
    for ea, eb in zip(survivors, ds.episodes):
        np.testing.assert_array_equal(ea.values, eb.values)


def test_synth_byte_identical_for_fixed_seed(tmp_path):
    config = write_config(tmp_path, SMALL_SYNTH)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run("synth", "--config", config, "--out", str(out_a))
    run("synth", "--config", config, "--out", str(out_b))
    for name in ("observations.csv", "labels.csv", "splits.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_synth_variable_count_matches_config(synth_dir):
    header_vars = set()
    for line in (synth_dir / "observations.csv").read_text().splitlines()[1:]:
        header_vars.add(line.split(",")[2])
    assert header_vars == {"var0", "var1", "var2"}


# -- train -------------------------------------------------------------------------

def test_train_writes_report_and_checkpoint(synth_dir, tmp_path):
    config = write_config(tmp_path, SMALL_MODEL, name="train.json")
    out = tmp_path / "run"
    code = run("train", "--config", config, *data_args(synth_dir),
               "--out", str(out), "--seed", "0")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["history"]) == 2
    assert {"epoch", "train_loss", "val_auprc"} <= set(report["history"][0])
    assert (out / "checkpoint.json").exists()
    assert report["metrics"]["test"]["auroc"] is not None


def test_train_toy_run_under_budget(synth_dir, tmp_path):
    import time
    out = tmp_path / "toy"
    start = time.perf_counter()
    code = run("train", *data_args(synth_dir), "--out", str(out), "--seed", "2",
               "--hidden-dim", "8", "--codebook-size", "16", "--batch-size", "8",
               "--epochs", "3")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 60.0, f"toy training took {elapsed:.0f}s"


def test_train_ablation_flag_lands_in_report(synth_dir, tmp_path):
    config = write_config(tmp_path, SMALL_MODEL, name="train.json")
    out = tmp_path / "run_ablate"
    code = run("train", "--config", config, *data_args(synth_dir),
               "--out", str(out), "--seed", "0", "--ablate", "tde",
               "--epochs", "1")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ablation"]["use_tde"] is False
    assert report["ablation"]["use_sna"] is True


def test_train_multiclass_monitors_accuracy(tmp_path):
    cfg = {
        "seed": 4,
        "model": {"hidden_dim": 8, "codebook_size": 16, "n_layers": 2,
                  "lr": 0.01, "batch_size": 32, "epochs": 2, "patience": 5},
        "synthetic": {
            "n_variables": 4, "n_episodes": 60,
            "decay_rates": [0.1, 0.5, 2.0, 6.0],
            "obs_per_episode": 8.0, "missing_prob": 0.1, "horizon": 24.0,
            "label_coeffs": [[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0],
                             [0.0, 0.0, 2.0, 0.0]],
            "n_classes": 3, "seed": 4,
        },
    }
    config = write_config(tmp_path, cfg, name="mc.json")
    data_dir, out = tmp_path / "data", tmp_path / "run"
    assert run("synth", "--config", config, "--out", str(data_dir)) == 0
    assert run("train", "--config", config, *data_args(data_dir),
               "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["monitor"] == "accuracy"
    assert "val_accuracy" in report["history"][0]
    assert set(report["metrics"]["test"]) == {"accuracy", "precision_macro",
                                              "recall_macro", "f1_macro"}


def test_train_byte_identical_reruns(synth_dir, tmp_path):
    config = write_config(tmp_path, SMALL_MODEL, name="train.json")
    out_a, out_b = tmp_path / "r1", tmp_path / "r2"
    for out in (out_a, out_b):
        assert run("train", "--config", config, *data_args(synth_dir),
                   "--out", str(out), "--seed", "7") == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "checkpoint.json").read_bytes() == (out_b / "checkpoint.json").read_bytes()


def test_train_float_seed_in_config_equals_int_seed_flag(synth_dir, tmp_path):
    config = write_config(tmp_path, {**SMALL_MODEL, "seed": 3.0}, name="float_seed.json")
    plain = write_config(tmp_path, SMALL_MODEL, name="train.json")
    out_a, out_b = tmp_path / "float_seed", tmp_path / "int_seed"
    assert run("train", "--config", config, *data_args(synth_dir), "--out", str(out_a)) == 0
    assert run("train", "--config", plain, *data_args(synth_dir), "--out", str(out_b),
               "--seed", "3") == 0
    report = json.loads((out_a / "report.json").read_text())
    assert report["seed"] == 3 and report["config"]["seed"] == 3
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "checkpoint.json").read_bytes() == (out_b / "checkpoint.json").read_bytes()


@pytest.mark.parametrize("seed", [3.5, True, "3"])
def test_train_refuses_config_seed_that_is_not_an_integral_number(synth_dir, tmp_path,
                                                                 capsys, seed):
    config = write_config(tmp_path, {**SMALL_MODEL, "seed": seed})
    out = tmp_path / "o"
    assert run("train", "--config", config, *data_args(synth_dir), "--out", str(out)) == 1
    assert f"config seed must be an integral number, got {seed!r}" in capsys.readouterr().err
    assert not out.exists()


# -- eval ---------------------------------------------------------------------------

@pytest.fixture()
def trained(synth_dir, tmp_path):
    config = write_config(tmp_path, SMALL_MODEL, name="train.json")
    out = tmp_path / "trained"
    assert run("train", "--config", config, *data_args(synth_dir),
               "--out", str(out), "--seed", "0") == 0
    return out / "checkpoint.json"


def test_eval_rate_zero_equals_plain_eval(trained, synth_dir, tmp_path):
    out = tmp_path / "ev"
    assert run("eval", "--checkpoint", str(trained), *data_args(synth_dir),
               "--out", str(out), "--seed", "0") == 0
    assert run("eval", "--checkpoint", str(trained), *data_args(synth_dir),
               "--out", str(out), "--seed", "0", "--leave-out", "0.0") == 0
    plain = (out / "eval.json").read_bytes()
    zero = (out / "eval_leave00.json").read_bytes()
    assert plain == zero


def test_eval_sweep_emits_five_reports(trained, synth_dir, tmp_path):
    out = tmp_path / "sweep"
    argv = ["eval", "--checkpoint", str(trained), *data_args(synth_dir),
            "--out", str(out), "--seed", "3"]
    for rate in ("0.1", "0.2", "0.3", "0.4", "0.5"):
        argv += ["--leave-out", rate]
    assert run(*argv) == 0
    reports = sorted(p.name for p in out.glob("eval_leave*.json"))
    assert reports == ["eval_leave10.json", "eval_leave20.json", "eval_leave30.json",
                       "eval_leave40.json", "eval_leave50.json"]
    report = json.loads((out / "eval_leave30.json").read_text())
    assert report["leave_out_rate"] == 0.3
    assert len(report["hidden_variables"]) == 0 or report["hidden_variables"]


@pytest.mark.parametrize("rates, message", [
    (("0.125", "0.12"), r"0\.125 and 0\.12 would both write eval_leave12\.json"),
    (("0", "0.001"), r"0\.0 and 0\.001 would both write eval_leave00\.json"),
    (("0.2", "0.2"), r"0\.2 and 0\.2 would both write eval_leave20\.json"),
    (("0.2", "1.5"), r"leave-out rate 1\.5 must be 0 or in \(0, 1\)"),
    (("-0.1",), r"leave-out rate -0\.1 must be 0 or in \(0, 1\)"),
])
def test_eval_refuses_bad_sweep_before_writing(trained, synth_dir, tmp_path, capsys,
                                               rates, message):
    out = tmp_path / "bad_sweep"
    argv = ["eval", "--checkpoint", str(trained), *data_args(synth_dir), "--out", str(out)]
    for rate in rates:
        argv += ["--leave-out", rate]
    assert run(*argv) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_eval_reproducible(trained, synth_dir, tmp_path):
    out_a, out_b = tmp_path / "e1", tmp_path / "e2"
    for out in (out_a, out_b):
        assert run("eval", "--checkpoint", str(trained), *data_args(synth_dir),
                   "--out", str(out), "--seed", "11", "--leave-out", "0.4") == 0
    assert ((out_a / "eval_leave40.json").read_bytes()
            == (out_b / "eval_leave40.json").read_bytes())


# -- analyze -------------------------------------------------------------------------

def test_analyze_orders_rates_and_reparses(tmp_path):
    synth_cfg = {
        "synthetic": {
            "n_variables": 2,
            "n_episodes": 300,
            "decay_rates": [0.05, 2.0],
            "obs_per_episode": 25.0,
            "horizon": 48.0,
            "label_coeffs": [1.0, -1.0],
            "seed": 0,
        },
    }
    config = write_config(tmp_path, synth_cfg)
    data_dir = tmp_path / "data"
    assert run("synth", "--config", config, "--out", str(data_dir)) == 0
    out = tmp_path / "analysis"
    assert run("analyze", "--observations", str(data_dir / "observations.csv"),
               "--labels", str(data_dir / "labels.csv"), "--t-max", "48",
               "--out", str(out), "--lag-bins", "6", "--max-lag", "1.5") == 0

    rows = (out / "decay_rates.csv").read_text().splitlines()
    assert rows[0] == "variable,lambda,residual,n_bins"
    table = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
    assert table["var1"] > table["var0"]

    kw_rows = (out / "kw_summary.csv").read_text().splitlines()
    assert kw_rows[0] == "H,df,p"
    h, df, p = kw_rows[1].split(",")
    assert float(h) >= 0.0 and int(df) == 1 and 0.0 <= float(p) <= 1.0


def test_analyze_single_variable_refuses_kw(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    lab = tmp_path / "lab.csv"
    lines = ["patient_id,time,variable,value"]
    rng = np.random.default_rng(0)
    for p in range(30):
        for t in sorted(rng.uniform(0, 24, 6)):
            lines.append(f"p{p:02d},{float(t)!r},only,{float(rng.normal())!r}")
    obs.write_text("\n".join(lines) + "\n")
    lab.write_text("patient_id,label\n" +
                   "\n".join(f"p{p:02d},{p % 2}" for p in range(30)) + "\n")
    out = tmp_path / "an"
    assert run("analyze", "--observations", str(obs), "--labels", str(lab),
               "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "refused" in captured.out
    assert not (out / "kw_summary.csv").exists()
    assert (out / "decay_rates.csv").exists()


def test_analyze_refuses_zero_lag_bins(synth_dir, tmp_path, capsys):
    out = tmp_path / "no_bins"
    assert run("analyze", *data_args(synth_dir), "--out", str(out), "--lag-bins", "0") == 1
    assert "n_bins must be >= 1, got 0" in capsys.readouterr().err
    assert not (out / "decay_rates.csv").exists()


@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
def test_analyze_refuses_max_lag_that_is_not_positive_and_finite(synth_dir, tmp_path,
                                                                capsys, value):
    out = tmp_path / "no_lag"
    assert run("analyze", *data_args(synth_dir), "--out", str(out),
               f"--max-lag={value}") == 1
    assert "max_lag must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


# -- gradcheck ------------------------------------------------------------------------

def test_gradcheck_passes_and_lists_blocks(capsys):
    assert run("gradcheck") == 0
    captured = capsys.readouterr().out
    assert "gradcheck PASS" in captured
    block_lines = [l for l in captured.splitlines() if "max_rel_err=" in l
                   and not l.startswith("gradcheck")]
    names = [l.split(":")[0] for l in block_lines]
    assert len(names) == len(set(names))
    assert "codebook" in names and "head.w1" in names


@pytest.mark.parametrize("node", sorted(co.FUSED_NODES))
def test_gradcheck_fails_on_corrupted_rule(monkeypatch, node):
    co.corrupt(monkeypatch, node)
    assert run("gradcheck") != 0


@pytest.mark.parametrize("flag, value", [("--config", "c8.json"), ("--seed", "99")])
def test_gradcheck_refuses_config_and_seed(capsys, flag, value):
    # it audits fixed built-in data, so it would ignore both
    with pytest.raises(SystemExit) as exit_info:
        run("gradcheck", flag, value, "--step", "0")
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--step", "0", "step must be positive, got 0.0"),
    ("--step", "-1e-5", "step must be positive, got -1e-05"),
    ("--tolerance", "0", "--tolerance must be positive, got 0.0"),
])
def test_gradcheck_refuses_non_positive_numbers(capsys, flag, value, message):
    assert run("gradcheck", f"{flag}={value}") == 1
    assert message in capsys.readouterr().err


# -- error paths -----------------------------------------------------------------------

def test_missing_files_produce_error_exit(tmp_path):
    assert run("train", "--observations", str(tmp_path / "none.csv"),
               "--labels", str(tmp_path / "none2.csv"),
               "--out", str(tmp_path / "o")) == 1


def test_unknown_config_key_is_a_clean_error(synth_dir, tmp_path, capsys):
    config = write_config(tmp_path, {"model": {"hidden_dimension": 8}},
                          name="typo.json")
    code = run("train", "--config", config, *data_args(synth_dir),
               "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_incompatible_checkpoint_rejected(trained, tmp_path):
    obs = tmp_path / "obs.csv"
    lab = tmp_path / "lab.csv"
    obs.write_text("patient_id,time,variable,value\npa,1.0,other,1.0\n")
    lab.write_text("patient_id,label\npa,0\n")
    assert run("eval", "--checkpoint", str(trained), "--observations", str(obs),
               "--labels", str(lab), "--out", str(tmp_path / "x")) == 1
