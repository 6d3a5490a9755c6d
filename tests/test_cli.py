"""End-to-end command line behaviour and output reproducibility."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import decaygraph
from decaygraph import autodiff as ad
from decaygraph import cli
from decaygraph import model as md
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


@pytest.mark.parametrize("key, value", [("n_episodes", True), ("seed", True),
                                        ("n_variables", 3.5), ("n_classes", "2")])
def test_synth_refuses_a_count_or_seed_that_is_not_an_integral_number(tmp_path, capsys,
                                                                     key, value):
    config = write_config(tmp_path, {"synthetic": {**SMALL_SYNTH["synthetic"], key: value}})
    out = tmp_path / "data"
    assert run("synth", "--config", config, "--out", str(out)) == 1
    assert f"{key} must be an integral number, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("horizon", True), ("obs_per_episode", "6"), ("missing_prob", None),
    ("decay_rates[1]", "x"), ("label_coeffs[2]", False), ("means[0]", "0")])
def test_synth_refuses_a_real_field_that_is_not_a_number(tmp_path, capsys, key, value):
    section = dict(SMALL_SYNTH["synthetic"], means=[0.0, 0.0, 0.0])
    name, _, index = key.partition("[")
    if index:
        section[name] = list(section[name])
        section[name][int(index[:-1])] = value
    else:
        section[name] = value
    config = write_config(tmp_path, {"synthetic": section})
    out = tmp_path / "data"
    assert run("synth", "--config", config, "--out", str(out)) == 1
    assert f"{key} must be a real number, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("name", ["decay_rates", "means", "noise_scales", "label_coeffs"])
def test_synth_refuses_a_non_finite_list_entry_by_name(tmp_path, capsys, name, value):
    section = dict(SMALL_SYNTH["synthetic"], means=[0.0, 0.0, 0.0],
                   noise_scales=[1.0, 1.0, 1.0])
    section[name] = list(section[name])
    section[name][1] = value
    config = write_config(tmp_path, {"synthetic": section})
    out = tmp_path / "data"
    assert run("synth", "--config", config, "--out", str(out)) == 1
    assert f"{name}[1] must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_refuses_a_set_that_misses_a_declared_class(tmp_path, capsys):
    # these labels fall into classes 0 and 1 only: 48 and 42 of 90 episodes
    section = {"n_variables": 3, "n_episodes": 90, "n_classes": 3, "seed": 5,
               "decay_rates": [2.0, 0.5, 0.1], "means": [1.0, -0.5, 0.0],
               "noise_scales": [0.5, 1.0, 2.0], "obs_per_episode": 6.0, "horizon": 24.0,
               "label_coeffs": [[1.0, 0.0, -1.0], [0.0, 1.0, 0.5], [-1.0, 0.5, 0.0]],
               "label_bias": [0.0, 0.2, -0.2], "label_summary": "last"}
    config = write_config(tmp_path, {"synthetic": section})
    out = tmp_path / "data"
    assert run("synth", "--config", config, "--out", str(out)) == 1
    assert ("synthetic set has no episode of class 2 of n_classes=3; "
            "episodes per class: [48, 42, 0]") in capsys.readouterr().err
    assert not out.exists()


U64 = 2**64


@pytest.mark.parametrize("command, flags, config, message", [
    ("synth", ["--seed", "-1"], {}, "seed must be in [0, 2**64), got -1"),
    ("synth", ["--seed", str(U64)], {}, f"seed must be in [0, 2**64), got {U64}"),
    ("synth", [], {"synthetic": {**SMALL_SYNTH["synthetic"], "seed": -1}},
     "seed must be in [0, 2**64), got -1"),
    ("train", ["--seed", "-1"], SMALL_MODEL, "--seed must be in [0, 2**64), got -1"),
    ("train", ["--seed", str(U64)], SMALL_MODEL, f"--seed must be in [0, 2**64), got {U64}"),
    ("train", [], {**SMALL_MODEL, "seed": -1.0}, "config seed must be in [0, 2**64), got -1"),
])
def test_a_seed_outside_the_generator_range_is_refused(synth_dir, tmp_path, capsys, command,
                                                       flags, config, message):
    out = tmp_path / "o"
    data = data_args(synth_dir) if command == "train" else []
    assert run(command, "--config", write_config(tmp_path, config), *data, *flags,
               "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_model_config_refuses_a_seed_outside_the_generator_range():
    from decaygraph.model import ModelConfig, ModelConfigError
    ModelConfig(seed=U64 - 1).validate()
    with pytest.raises(ModelConfigError, match=r"seed must be in \[0, 2\*\*64\), got -1"):
        ModelConfig(seed=-1).validate()


# -- train -------------------------------------------------------------------------

def test_train_writes_report_and_checkpoint(synth_dir, tmp_path, capsys):
    config = write_config(tmp_path, SMALL_MODEL, name="train.json")
    out = tmp_path / "run"
    code = run("train", "--config", config, *data_args(synth_dir),
               "--out", str(out), "--seed", "0")
    assert code == 0
    # peak memory and CPU time go to stdout only, never into the report
    stdout = capsys.readouterr().out
    for key in ("peak_rss_mb", "cpu_seconds"):
        value = re.search(rf"^{key}=(\S+)$", stdout, re.MULTILINE)
        assert value and float(value.group(1)) > 0.0
    assert "peak_rss" not in (out / "report.json").read_text()
    assert "cpu_seconds" not in (out / "report.json").read_text()
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


@pytest.mark.parametrize("section, key, value, message", [
    ("ablation", "use_cb", "false", "ablation flag use_cb must be true or false, got 'false'"),
    ("ablation", "use_tde", 0, "ablation flag use_tde must be true or false, got 0"),
    ("model", "batch_size", True, "batch_size must be an integral number, got True"),
    ("model", "n_layers", True, "n_layers must be an integral number, got True"),
    ("model", "epochs", 2.5, "epochs must be an integral number, got 2.5"),
    ("model", "hidden_dim", "8", "hidden_dim must be an integral number, got '8'"),
    ("model", "lr", True, "lr must be a real number, got True"),
    ("model", "lr", "0.01", "lr must be a real number, got '0.01'"),
    # an int past the largest float, which no float conversion survives
    ("model", "lr", 10**400, f"lr must be positive and finite, got {10**400}"),
])
def test_train_refuses_config_fields_of_the_wrong_type(synth_dir, tmp_path, capsys,
                                                       section, key, value, message):
    payload = {**SMALL_MODEL, section: {**SMALL_MODEL.get(section, {}), key: value}}
    out = tmp_path / "o"
    assert run("train", "--config", write_config(tmp_path, payload), *data_args(synth_dir),
               "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_counts_in_config_equal_ints(tmp_path):
    # the config-seed rule for every count: 2.0 runs as 2
    floats = {"synthetic": {**SMALL_SYNTH["synthetic"], "n_episodes": 30.0, "seed": 0.0},
              "data": SMALL_SYNTH["data"],
              "model": {**SMALL_MODEL["model"], "epochs": 2.0, "batch_size": 16.0}}
    ints = {**SMALL_SYNTH, **SMALL_MODEL}
    outputs = []
    for name, payload in (("floats", floats), ("ints", ints)):
        config = write_config(tmp_path, payload, name=f"{name}.json")
        data_dir, out = tmp_path / f"{name}_data", tmp_path / f"{name}_run"
        assert run("synth", "--config", config, "--out", str(data_dir)) == 0
        assert run("train", "--config", config, *data_args(data_dir), "--out", str(out)) == 0
        outputs.append([(data_dir / "observations.csv").read_bytes(),
                        (out / "report.json").read_bytes(),
                        (out / "checkpoint.json").read_bytes()])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("seed", [3.5, True, "3"])
def test_train_refuses_config_seed_that_is_not_an_integral_number(synth_dir, tmp_path,
                                                                 capsys, seed):
    config = write_config(tmp_path, {**SMALL_MODEL, "seed": seed})
    out = tmp_path / "o"
    assert run("train", "--config", config, *data_args(synth_dir), "--out", str(out)) == 1
    assert f"config seed must be an integral number, got {seed!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_train_refuses_manifest_that_leaves_a_split_empty(synth_dir, tmp_path, capsys,
                                                          split):
    other = "test" if split == "train" else "train"
    rows = (synth_dir / "splits.csv").read_text(encoding="utf-8").splitlines()
    manifest = tmp_path / "splits.csv"
    manifest.write_text("\n".join([rows[0]] + [row.replace(f",{split}", f",{other}")
                                               for row in rows[1:]]) + "\n",
                        encoding="utf-8")
    config = write_config(tmp_path, SMALL_MODEL)
    out = tmp_path / "o"
    assert run("train", "--config", config, *data_args(synth_dir)[:4],
               "--splits", str(manifest), "--out", str(out)) == 1
    assert f"the splits manifest leaves the {split} split empty" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_split_ratios_that_are_not_three_numbers(synth_dir, tmp_path, capsys):
    config = write_config(tmp_path, {**SMALL_MODEL,
                                     "data": {"split_ratios": [0.25, 0.25, 0.25, 0.25]}})
    out = tmp_path / "o"
    assert run("train", "--config", config, *data_args(synth_dir)[:4], "--out", str(out)) == 1
    assert "split ratios must be three numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize("ratios", [0.5, None, "abc", {"a": 1, "b": 2, "c": 3}],
                         ids=["number", "null", "string", "object"])
def test_split_ratios_that_are_not_a_list_are_refused_by_name(synth_dir, tmp_path, capsys,
                                                              command, ratios):
    section = {"data": {"split_ratios": ratios}}
    payload = {**SMALL_SYNTH, **section} if command == "synth" else {**SMALL_MODEL, **section}
    config = write_config(tmp_path, payload)
    out = tmp_path / "o"
    data = data_args(synth_dir)[:4] if command == "train" else []
    assert run(command, "--config", config, *data, "--out", str(out)) == 1
    assert (f"split ratios must be three numbers (train, val, test) in a list, "
            f"got {ratios!r}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ratios,message", [
    ([0.5, 0.5, 0.5], "split ratios must sum to 1, got 1.5"),
    ([0.6, 0.2], "split ratios must be three numbers"),
    ([0.6, "0.2", 0.2], "split_ratios[1] must be a real number, got '0.2'"),
])
def test_a_refused_synth_writes_nothing(tmp_path, capsys, ratios, message):
    config = write_config(tmp_path, {**SMALL_SYNTH, "data": {"split_ratios": ratios}})
    out = tmp_path / "data"
    assert run("synth", "--config", config, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [0, 1, True, 1.5, ["obs.csv"]], ids=repr)
@pytest.mark.parametrize("key", ["observations", "labels", "splits"])
@pytest.mark.parametrize("command", ["train", "eval", "analyze"])
def test_a_data_path_that_is_not_a_string_is_refused_by_name(tmp_path, monkeypatch, capsys,
                                                             command, key, value):
    """Refused before any data file or checkpoint is read: ``open(0)`` and
    ``open(1)`` would read stdin and stdout."""
    def unread(*args, **kwargs):
        raise AssertionError("a file was read")

    for name in ("load_dataset", "load_checkpoint"):
        monkeypatch.setattr(cli, name, unread)
    paths = {"observations": "obs.csv", "labels": "labels.csv", "splits": "splits.csv",
             key: value}
    argv = [command, "--config", write_config(tmp_path, {"data": paths})]
    if command == "eval":
        argv += ["--checkpoint", "checkpoint.json"]
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == 1
    assert (f"data {key} must be a file path string, got {json.dumps(value)}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command,key,value,message", [
    ("train", "t_max", True, "t_max must be a real number, got True"),
    ("analyze", "t_max", True, "t_max must be a real number, got True"),
    ("train", "t_max", "48", "t_max must be a real number, got '48'"),
    ("analyze", "t_max", "48", "t_max must be a real number, got '48'"),
    ("train", "split_ratios", ["0.6", 0.2, 0.2],
     "split_ratios[0] must be a real number, got '0.6'"),
    ("train", "split_ratios", [0.6, 0.2, None],
     "split_ratios[2] must be a real number, got None"),
])
def test_data_config_fields_of_the_wrong_type_are_refused_by_name(synth_dir, tmp_path, capsys,
                                                                  command, key, value,
                                                                  message):
    config = write_config(tmp_path, {**SMALL_MODEL, "data": {key: value}})
    out = tmp_path / "o"
    # no manifest, so the split ratios are used
    assert run(command, "--config", config, *data_args(synth_dir)[:4], "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--t-max", "inf", "t_max must be positive and finite, got inf"),
    ("--t-max", "nan", "t_max must be positive and finite, got nan"),
    ("--lr", "nan", "lr must be positive and finite, got nan"),
    ("--lr", "inf", "lr must be positive and finite, got inf"),
])
def test_train_refuses_non_finite_numbers(synth_dir, tmp_path, capsys, flag, value, message):
    config = write_config(tmp_path, SMALL_MODEL)
    out = tmp_path / "o"
    assert run("train", "--config", config, *data_args(synth_dir), flag, value,
               "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("horizon", float("nan")), ("horizon", float("inf")),
                                       ("obs_per_episode", float("nan")),
                                       ("obs_per_episode", float("inf"))])
def test_synth_refuses_non_finite_numbers(tmp_path, capsys, key, value):
    config = write_config(tmp_path, {**SMALL_SYNTH,
                                     "synthetic": {**SMALL_SYNTH["synthetic"], key: value}})
    out = tmp_path / "data"
    assert run("synth", "--config", config, "--out", str(out)) == 1
    assert f"{key} must be positive and finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section", [
    ("synth", None), ("synth", "synthetic"), ("synth", "data"),
    ("train", None), ("train", "model"), ("train", "ablation"), ("train", "data"),
    ("eval", None), ("eval", "data"), ("analyze", None), ("analyze", "data")])
def test_a_config_file_or_section_that_is_not_an_object_is_refused_by_name(
        synth_dir, tmp_path, capsys, request, command, section):
    if section is None:
        payload, message = [1, 2], "must hold a JSON object, got [1, 2]"
    else:
        payload = {section: [1]}
        message = f"config section '{section}' must be a JSON object, got [1]"
    argv = [command, "--config", write_config(tmp_path, payload)]
    if command == "eval":
        argv += ["--checkpoint", str(request.getfixturevalue("trained"))]
    if command != "synth":
        argv += data_args(synth_dir)
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
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


def test_eval_refuses_leave_out_on_the_train_split(trained, synth_dir, tmp_path, capsys):
    out = tmp_path / "train_leave"
    argv = ["eval", "--checkpoint", str(trained), *data_args(synth_dir), "--out", str(out),
            "--split", "train"]
    assert run(*argv, "--leave-out", "0", "--leave-out", "0.5") == 1
    assert "--leave-out hides variables in the val and test splits only, so it cannot " \
           "score --split train" in capsys.readouterr().err
    assert not out.exists()
    # rate 0 hides nothing, so the train split is scored
    assert run(*argv, "--leave-out", "0") == 0
    assert json.loads((out / "eval_leave00.json").read_text())["split"] == "train"


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


def test_gradcheck_passes_without_decay(capsys):
    # the gate's branch without a decay factor, through the full audit
    assert run("gradcheck", "--ablate", "tde") == 0
    assert "gradcheck PASS" in capsys.readouterr().out


def test_gradcheck_without_time_embedding_reads_a_relu_kink(monkeypatch):
    """``gradcheck --ablate te`` reads 8.883e-04 on ``sage0.node_b``, above
    its 1e-4 tolerance, at coordinate 7. A ReLU kink lies within the audit's
    1e-5 step of that coordinate: the error is as large at step 1e-4 and
    falls below 1e-7 at step 1e-6, where the difference no longer crosses
    the kink. Round-off would grow as the step shrinks instead."""
    audited = {}

    def capture(model, episodes, step):
        audited.update(model=model, episodes=episodes)
        return {"sage0.node_b": 0.0}

    monkeypatch.setattr(cli, "gradient_check", capture)
    assert run("gradcheck", "--ablate", "te") == 0
    model = audited["model"]
    plan = model.plan(audited["episodes"])
    ad.backward(md.batch_loss(model, plan))
    analytic = model.params["sage0.node_b"].grad.copy()
    bias = model.params["sage0.node_b"].data

    def error(i, step):
        losses = []
        for sign in (1.0, -1.0):
            original = bias[i]
            bias[i] = original + sign * step
            with ad.no_grad():
                losses.append(md.batch_loss(model, plan).item())
            bias[i] = original
        numeric = (losses[0] - losses[1]) / (2.0 * step)
        return abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric))

    errors = [error(i, 1e-5) for i in range(bias.size)]
    assert f"{max(errors):.3e}" == "8.883e-04" and int(np.argmax(errors)) == 7
    assert error(7, 1e-4) > 1e-3
    assert error(7, 1e-6) < 1e-7


@pytest.mark.parametrize("node", sorted(co.FUSED_NODES))
def test_gradcheck_fails_on_corrupted_rule(monkeypatch, node):
    co.corrupt(monkeypatch, node)
    assert run("gradcheck") != 0


def test_gradcheck_fails_on_a_nan_gradient(monkeypatch, capsys):
    # max() would drop the NaN errors and pass the audit
    co.corrupt(monkeypatch, "decay_factor", float("nan"))
    assert run("gradcheck") == 1
    out = capsys.readouterr().out
    assert "decay.w1: max_rel_err=inf" in out
    assert "gradcheck FAIL: max_rel_err=inf" in out


@pytest.mark.parametrize("flag, value", [("--config", "c8.json"), ("--seed", "99")])
def test_gradcheck_refuses_config_and_seed(capsys, flag, value):
    # it audits fixed built-in data, so it would ignore both
    with pytest.raises(SystemExit) as exit_info:
        run("gradcheck", flag, value, "--step", "0")
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--step", "0", "step must be positive and finite, got 0.0"),
    ("--step", "-1e-5", "step must be positive and finite, got -1e-05"),
    ("--step", "inf", "step must be positive and finite, got inf"),
    ("--step", "nan", "step must be positive and finite, got nan"),
    ("--tolerance", "0", "--tolerance must be positive and finite, got 0.0"),
    ("--tolerance", "inf", "--tolerance must be positive and finite, got inf"),
    ("--tolerance", "nan", "--tolerance must be positive and finite, got nan"),
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


def test_no_command_loads_scipy(tmp_path):
    # a fresh interpreter, since this one may have imported SciPy already
    config = write_config(tmp_path, {**SMALL_SYNTH, **SMALL_MODEL})
    data = tmp_path / "data"
    data_flags = data_args(data)
    probe = ("import sys\n"
             "from decaygraph.cli import main\n"
             f"assert main(['synth', '--config', {config!r}, '--out', {str(data)!r}]) == 0\n"
             f"assert main(['train', '--config', {config!r}, *{data_flags!r}, '--epochs', '1',"
             f" '--out', {str(tmp_path / 'run')!r}]) == 0\n"
             f"assert main(['analyze', *{data_flags!r}, '--out', {str(tmp_path / 'an')!r}]) == 0\n"
             "assert main(['gradcheck']) == 0\n"
             "print('scipy' in sys.modules)\n")
    src = str(Path(decaygraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "False"
    # analyze reached the Kruskal-Wallis p-value
    assert (tmp_path / "an" / "kw_summary.csv").exists()
