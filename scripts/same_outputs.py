"""Check that two decaygraph source trees write byte-identical outputs.

Usage: python3 scripts/same_outputs.py A B

A and B are checkouts (each with a ``src/`` directory). Both run the same
fixed matrix of commands, each tree importing its own ``src/``:

1. ``synth`` of the default synthetic set;
2. ``train`` at the default model config (K=4096) for 3 epochs on it; the
   same config for 2 epochs with each of ``--ablate mcv`` (fusion without
   retrieval), ``cb`` (no codebook), ``tde`` (no decay), ``te`` (no time
   embedding) and ``sna`` (no attention), and with each non-default decay
   kernel (``exp``, ``mlp_gaussian``, ``mlp_linear``); and ``analyze`` of
   it (``decay_rates.csv`` and ``kw_summary.csv``);
3. the ``eval-k4096`` benchmark config: ``synth`` and 1-epoch ``train`` of
   a 32-episode checkpoint, ``synth`` of a 320-episode set, and ``eval``
   with leave-out rates 0.2 and 0.5;
4. ``gradcheck`` for each decay kernel (its stdout is the output file,
   whose errors have only 4 significant digits);
5. the ``train-k32`` benchmark config at seed 10: ``synth`` of the C8 set
   (6 variables, 200 episodes, synthetic seed 201) and 12-epoch ``train``
   with K=32 and batch 64. Training amplifies a last-bit change, which a
   3-epoch run can miss; on this seed one grew to a 1.8e-4 loss
   difference by epoch 12.

The SHA-256 of every output file is printed for both trees. The exit
status is 0 when every file matches, and 1 when a file differs, exists
in only one tree, or a command fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

KERNELS = ("mlp_exp", "exp", "mlp_gaussian", "mlp_linear")
T_MAX = "48"
C8_SYNTHETIC = {
    "n_variables": 6, "n_episodes": 200,
    "decay_rates": [4.0, 4.0, 4.0, 0.05, 0.05, 0.05],
    "obs_per_episode": 6.0, "missing_prob": 0.0, "horizon": 48.0,
    "label_coeffs": [2.0, -2.0, 2.0, 0.0, 0.0, 0.0],
    "label_summary": "decay_mean",
}


class CommandFailed(RuntimeError):
    """A decaygraph command exited with a non-zero status."""


def _run(tree: Path, work: Path, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "decaygraph.cli", *argv], cwd=work,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CommandFailed(f"{tree}: {' '.join(argv[:1])} exited {proc.returncode}\n"
                            f"{proc.stdout}{proc.stderr}")
    return proc.stdout


def _synth(tree: Path, work: Path, name: str, config: dict, seed: int) -> list[str]:
    config_path = work / f"{name}.config.json"
    config_path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    _run(tree, work, "synth", "--config", str(config_path), "--seed", str(seed),
         "--out", name)
    return ["--observations", f"{name}/observations.csv", "--labels",
            f"{name}/labels.csv", "--splits", f"{name}/splits.csv", "--t-max", T_MAX]


def run_matrix(tree: Path, work: Path) -> None:
    data = _synth(tree, work, "data", {}, 0)
    _run(tree, work, "train", *data, "--epochs", "3", "--seed", "0", "--out", "train")
    for ablation in ("mcv", "cb", "tde", "te", "sna"):
        _run(tree, work, "train", *data, "--epochs", "2", "--seed", "0",
             "--ablate", ablation, "--out", f"train_no_{ablation}")
    for kernel in KERNELS[1:]:
        _run(tree, work, "train", *data, "--epochs", "2", "--seed", "0",
             "--kernel", kernel, "--out", f"train_{kernel}")
    _run(tree, work, "analyze", *data, "--out", "analyze")

    ckpt_data = _synth(tree, work, "ckpt_data",
                       {"synthetic": {"n_episodes": 32},
                        "data": {"split_ratios": [0.5, 0.25, 0.25]}}, 0)
    _run(tree, work, "train", *ckpt_data, "--epochs", "1", "--seed", "0", "--out", "ckpt")
    eval_data = _synth(tree, work, "eval_data",
                       {"synthetic": {"n_episodes": 320},
                        "data": {"split_ratios": [0.1, 0.1, 0.8]}}, 1)
    _run(tree, work, "eval", "--checkpoint", "ckpt/checkpoint.json", *eval_data,
         "--seed", "0", "--leave-out", "0.2", "--leave-out", "0.5", "--out", "eval")

    (work / "gradcheck").mkdir()
    for kernel in KERNELS:
        out = _run(tree, work, "gradcheck", "--kernel", kernel)
        (work / "gradcheck" / f"{kernel}.txt").write_text(out, encoding="utf-8")

    c8_data = _synth(tree, work, "c8_data",
                     {"synthetic": C8_SYNTHETIC,
                      "data": {"split_ratios": [0.7, 0.15, 0.15]}}, 201)
    _run(tree, work, "train", *c8_data, "--codebook-size", "32", "--batch-size", "64",
         "--lr", "0.01", "--epochs", "12", "--patience", "12", "--seed", "10",
         "--out", "train_k32")


def digests(work: Path) -> dict[str, str]:
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    trees = [Path(a).resolve() for a in argv]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate(trees):
            work = Path(tmp) / str(i)
            work.mkdir()
            try:
                run_matrix(tree, work)
            except CommandFailed as exc:
                print(exc, file=sys.stderr)
                return 1
            results.append(digests(work))
    a, b = results
    same = True
    for name in sorted(set(a) | set(b)):
        ha, hb = a.get(name, "missing"), b.get(name, "missing")
        verdict = "same" if ha == hb else "DIFFERENT"
        same &= ha == hb
        print(f"{verdict:9s} {name}  {ha[:16]}  {hb[:16]}")
    print("identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
