"""The numeric comparison of ``scripts/same_outputs.py``."""

import base64
import importlib.util
import json
import struct
from pathlib import Path

import decaygraph.cli as cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
so = importlib.util.module_from_spec(spec)
spec.loader.exec_module(so)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def param(*values):
    return {"shape": [len(values)],
            "data": base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")}


def test_json_numbers_include_checkpoint_parameters(tmp_path):
    a = write(tmp_path, "a.json", json.dumps(
        {"loss": [0.5, 2], "ok": True, "name": "x", "params": {"w": param(1.0, -4.0)}}))
    b = write(tmp_path, "b.json", json.dumps(
        {"loss": [0.5, 2], "ok": True, "name": "y", "params": {"w": param(1.0, -4.000004)}}))
    assert so.numbers(a) == [0.5, 2.0, 1.0, -4.0]
    assert so.max_relative_difference(a, b) == "max_rel_diff=1e-06"
    assert so.max_relative_difference(a, a) == "max_rel_diff=0"


def test_csv_numbers_skip_text_fields(tmp_path):
    a = write(tmp_path, "a.csv", "patient_id,time,value\np1,0.5,3.0\np2,1.0,-2.0\n")
    b = write(tmp_path, "b.csv", "patient_id,time,value\np1,0.5,3.0\np2,1.0,-1.0\n")
    assert so.numbers(a) == [0.5, 3.0, 1.0, -2.0]
    assert so.max_relative_difference(a, b) == "max_rel_diff=0.5"


def test_values_that_do_not_pair_up_are_named(tmp_path):
    a = write(tmp_path, "a.json", json.dumps({"x": [1.0, 2.0]}))
    b = write(tmp_path, "b.json", json.dumps({"x": [1.0]}))
    c = write(tmp_path, "c.json", "{not json")
    assert so.max_relative_difference(a, b) == "2 and 1 numeric values"
    assert so.max_relative_difference(a, c).startswith("unreadable")


def test_peak_rss_is_read_from_the_last_usage_line():
    stdout = "epoch 1 loss 0.5\npeak_rss_mb=12.0\nwall_clock_seconds=1.2\npeak_rss_mb=99.6\n"
    assert so.peak_rss_mb(stdout) == 99.6
    assert so.peak_rss_mb("wall_clock_seconds=1.2\n") is None


def test_peak_lines_pair_commands_across_trees():
    assert so.peak_lines({"train": 152.04, "eval": None}, {"train": 99.6, "analyze": 60.0}) == [
        "peak_rss_mb analyze        -     60.0",
        "peak_rss_mb eval           -        -",
        "peak_rss_mb train      152.0     99.6",
    ]


def test_cpu_seconds_are_read_and_paired_like_peak_rss():
    stdout = "wall_clock_seconds=1.2\ncpu_seconds=2.345\npeak_rss_mb=99.6\n"
    assert so.cpu_seconds(stdout) == 2.345
    assert so.cpu_seconds("peak_rss_mb=99.6\n") is None
    assert so.peak_lines({"train": 9.78}, {"train": 6.48}, "cpu_seconds") == [
        "cpu_seconds train      9.8      6.5"]


def test_audit_dumps_the_errors_dict_at_full_precision(tmp_path, monkeypatch, capsys):
    def fake_gradient_check(model, episodes, step):
        return {"head.w1": 0.1 + 0.2, "codebook": 1e-300, "decay.w1": float("inf")}

    monkeypatch.setattr(cli, "gradient_check", fake_gradient_check)
    out = tmp_path / "audit.json"
    assert so.audit("exp", str(out)) == 1  # the infinite error fails the audit
    assert cli.gradient_check is fake_gradient_check
    assert out.read_text(encoding="utf-8") == (
        '{\n  "codebook": 1e-300,\n  "decay.w1": Infinity,\n'
        '  "head.w1": 0.30000000000000004\n}\n')
    assert "head.w1: max_rel_err=3.000e-01" in capsys.readouterr().out


def test_audit_passes_each_ablation_on_to_gradcheck(tmp_path, monkeypatch):
    audited = []

    def fake_gradient_check(model, episodes, step):
        audited.append(model.flags)
        return {"head.w1": 0.0}

    monkeypatch.setattr(cli, "gradient_check", fake_gradient_check)
    out = tmp_path / "audit.json"
    assert so.main(["--audit", "mlp_exp", str(out), "--ablate", "hvs", "--ablate", "sna"]) == 0
    assert so.main(["--audit", "exp", str(out)]) == 0
    (ablated, whole) = audited
    assert (ablated.use_hvs, ablated.use_sna, ablated.use_cb, ablated.use_tde) == (
        False, False, True, True)
    assert whole.use_hvs and whole.use_sna
    # a flag without its name is refused with the usage
    assert so.main(["--audit", "mlp_exp", str(out), "--ablate"]) == 1
    assert len(audited) == 2


def test_the_two_trees_run_command_by_command_with_the_first_alternating(tmp_path,
                                                                         monkeypatch):
    calls = []

    def fake_run(tree, work, *argv, entry=("-m", "decaygraph.cli")):
        calls.append((tree, argv))
        return f"peak_rss_mb={len(calls)}\n"

    monkeypatch.setattr(so, "_run", fake_run)
    trees = [Path("a"), Path("b")]
    works = [tmp_path / "0", tmp_path / "1"]
    for work in works:
        work.mkdir()
    usages = so.run_matrix(trees, works)
    assert len(calls) % 2 == 0
    pairs = [calls[i:i + 2] for i in range(0, len(calls), 2)]
    for turn, ((first, argv), (second, argv_again)) in enumerate(pairs):
        assert argv == argv_again
        assert [first, second] == (trees if turn % 2 == 0 else trees[::-1])
    # each tree's figures come from its own stdout
    assert usages[0]["peak_rss_mb"]["train"] != usages[1]["peak_rss_mb"]["train"]
    assert (works[1] / "gradcheck" / "exp.txt").is_file()
    assert (works[0] / "gradcheck" / "mlp_exp_no_hvs_no_sna.txt").is_file()
    assert ("--audit", "mlp_exp", "gradcheck/mlp_exp_no_cb_no_sna.json", "--ablate", "cb",
            "--ablate", "sna") in [argv for _, argv in calls]
