"""Check that two decaygraph source trees write byte-identical outputs.

Usage: python3 scripts/same_outputs.py A B
       python3 scripts/same_outputs.py --audit KERNEL OUT.json [--ablate NAME ...]

A and B are checkouts (each with a ``src/`` directory). Both run the same
fixed matrix of commands, each tree importing its own ``src/``. They run
it command by command: both trees run a command before either runs the
next, and the tree that goes first alternates from one command to the
next, so a drift in host speed falls on both trees alike:

1. ``synth`` of the default synthetic set;
2. ``train`` at the default model config (K=4096) for 3 epochs on it; the
   same config for 2 epochs with each of ``--ablate mcv`` (fusion without
   retrieval), ``cb`` (no codebook), ``tde`` (no decay), ``te`` (no time
   embedding), ``sna`` (no attention) and ``hvs`` (no hidden variable
   states in the classifier input); with ``--ablate hvs --ablate sna``,
   where no gate reaches the loss and ten gradients stay None, and
   ``--ablate cb --ablate sna``, where each step's patient state has three
   consumers, so the encoder's backward runs its layers in an order that
   interleaves the steps; with ``--n-layers 1`` and ``--n-layers 3``; with
   each non-default decay kernel (``exp``, ``mlp_gaussian``,
   ``mlp_linear``); with ``--batch-size 6``, where a batch has as many
   patient rows as there are variables, so both fusion calls of a step
   have one shape and any state one call left for the other would show;
   and with ``--codebook-size 1500``, above ``codebook.TILE`` but not a
   multiple of it, so the large-codebook jobs meet a partial last tile;
   and ``analyze`` of it (``decay_rates.csv`` and ``kw_summary.csv``);
3. the ``eval-k4096`` benchmark config: ``synth`` and 1-epoch ``train`` of
   a 32-episode checkpoint, ``synth`` of a 320-episode set, and ``eval``
   with leave-out rates 0.2 and 0.5; then ``eval --split val`` at rate
   0.5, so leave-out is also compared on a split other than test;
4. ``gradcheck`` for each decay kernel, and at the default kernel with
   ``--ablate hvs --ablate sna`` (layers that never reach the loss),
   ``--ablate cb --ablate sna`` (a backward that interleaves the steps)
   and ``--ablate tde`` (a gate with no decay): its stdout, whose errors
   have only 4 significant digits, and the errors dict its audit
   returned, every float at full precision (``repr``), as a JSON file.
   The second usage line runs one such ``gradcheck`` with one tree's
   ``src/`` on the path, passing each ``--ablate NAME`` on: it wraps the
   ``gradient_check`` that ``decaygraph.cli`` calls, which every tree
   has, so it runs on both trees alike;
5. the ``train-k32`` benchmark config at seed 10: ``synth`` of the C8 set
   (6 variables, 200 episodes, synthetic seed 201) and 12-epoch ``train``
   with K=32 and batch 64. Training amplifies a last-bit change, which a
   3-epoch run can miss; on this seed one grew to a 1.8e-4 loss
   difference by epoch 12;
6. a 3-class set: ``synth`` with explicit ``means`` and ``noise_scales``,
   a per-class ``label_bias`` list and ``label_summary`` ``"last"``, so the
   generator's non-default paths are compared, then 2-epoch ``train``
   with K=16 and ``eval`` of its checkpoint on the test split.

The SHA-256 of every output file is printed for both trees. For a JSON
or CSV file that differs, the largest relative difference over its
numeric values is printed too (a checkpoint parameter's base64 float64
data counts as its values), or why the values do not pair up. Then the
``peak_rss_mb=`` and ``cpu_seconds=`` lines that each ``train``, ``eval``
and ``analyze`` command prints are shown for both trees, named by the
command's output directory, so a memory or CPU change shows command by
command. The exit status is 0 when every file matches, and 1 when a file
differs, exists in only one tree, or a command fails; the usage figures
do not change it.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

KERNELS = ("mlp_exp", "exp", "mlp_gaussian", "mlp_linear")
# ablation sets audited at the default kernel
AUDITED_ABLATIONS = (("hvs", "sna"), ("cb", "sna"), ("tde",))
T_MAX = "48"
C8_SYNTHETIC = {
    "n_variables": 6, "n_episodes": 200,
    "decay_rates": [4.0, 4.0, 4.0, 0.05, 0.05, 0.05],
    "obs_per_episode": 6.0, "missing_prob": 0.0, "horizon": 48.0,
    "label_coeffs": [2.0, -2.0, 2.0, 0.0, 0.0, 0.0],
    "label_summary": "decay_mean",
}
MULTICLASS_SYNTHETIC = {
    "n_variables": 3, "n_episodes": 90, "n_classes": 3,
    "decay_rates": [2.0, 0.5, 0.1], "means": [0.2, -0.2, 0.0],
    "noise_scales": [1.0, 2.0, 0.5], "obs_per_episode": 6.0, "horizon": 24.0,
    "label_coeffs": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "label_bias": [0.0, 0.1, -0.1], "label_summary": "last",
}


class CommandFailed(RuntimeError):
    """A decaygraph command exited with a non-zero status."""


def _run(tree: Path, work: Path, *argv: str,
         entry: tuple[str, ...] = ("-m", "decaygraph.cli")) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, *entry, *argv], cwd=work,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CommandFailed(f"{tree}: {' '.join(argv[:1])} exited {proc.returncode}\n"
                            f"{proc.stdout}{proc.stderr}")
    return proc.stdout


def _last_value(stdout: str, key: str) -> float | None:
    """The value of the last ``key=`` line in a command's stdout, or None
    when it printed none."""
    for line in reversed(stdout.splitlines()):
        if line.startswith(f"{key}="):
            return float(line.split("=", 1)[1])
    return None


def peak_rss_mb(stdout: str) -> float | None:
    """The value of the last ``peak_rss_mb=`` line in a command's stdout."""
    return _last_value(stdout, "peak_rss_mb")


def cpu_seconds(stdout: str) -> float | None:
    """The value of the last ``cpu_seconds=`` line in a command's stdout."""
    return _last_value(stdout, "cpu_seconds")


USAGE = {"peak_rss_mb": peak_rss_mb, "cpu_seconds": cpu_seconds}


def run_matrix(trees: list[Path], works: list[Path]) -> list[dict[str, dict[str, float | None]]]:
    """Run every command in each tree, tree ``i`` in ``works[i]``, command by
    command with the first tree alternating; return, for each tree and each
    figure of ``USAGE``, the value each ``train``, ``eval`` and ``analyze``
    command printed, keyed by its output directory."""
    usages: list[dict[str, dict[str, float | None]]] = [{key: {} for key in USAGE}
                                                        for _ in trees]
    turns = itertools.count()

    def each(*argv: str, entry: tuple[str, ...] = ("-m", "decaygraph.cli")) -> list[str]:
        """One command's stdout in every tree, run from this turn's first tree on."""
        first = next(turns) % len(trees)
        stdouts = {i: _run(trees[i], works[i], *argv, entry=entry)
                   for i in [*range(first, len(trees)), *range(first)]}
        return [stdouts[i] for i in range(len(trees))]

    def measured(*argv: str) -> None:
        for usage, stdout in zip(usages, each(*argv)):
            for key, read in USAGE.items():
                usage[key][argv[argv.index("--out") + 1]] = read(stdout)

    def synth(name: str, config: dict, seed: int) -> list[str]:
        for work in works:
            (work / f"{name}.config.json").write_text(json.dumps(config, sort_keys=True),
                                                      encoding="utf-8")
        each("synth", "--config", f"{name}.config.json", "--seed", str(seed), "--out", name)
        return ["--observations", f"{name}/observations.csv", "--labels",
                f"{name}/labels.csv", "--splits", f"{name}/splits.csv", "--t-max", T_MAX]

    data = synth("data", {}, 0)
    measured("train", *data, "--epochs", "3", "--seed", "0", "--out", "train")
    for ablation in ("mcv", "cb", "tde", "te", "sna", "hvs"):
        measured("train", *data, "--epochs", "2", "--seed", "0",
                 "--ablate", ablation, "--out", f"train_no_{ablation}")
    for first, second in (("hvs", "sna"), ("cb", "sna")):
        measured("train", *data, "--epochs", "2", "--seed", "0", "--ablate", first,
                 "--ablate", second, "--out", f"train_no_{first}_{second}")
    for layers in ("1", "3"):
        measured("train", *data, "--epochs", "2", "--seed", "0",
                 "--n-layers", layers, "--out", f"train_layers{layers}")
    for kernel in KERNELS[1:]:
        measured("train", *data, "--epochs", "2", "--seed", "0",
                 "--kernel", kernel, "--out", f"train_{kernel}")
    measured("train", *data, "--epochs", "2", "--seed", "0",
             "--batch-size", "6", "--out", "train_batch6")
    measured("train", *data, "--epochs", "2", "--seed", "0",
             "--codebook-size", "1500", "--out", "train_k1500")
    measured("analyze", *data, "--out", "analyze")

    ckpt_data = synth("ckpt_data", {"synthetic": {"n_episodes": 32},
                                    "data": {"split_ratios": [0.5, 0.25, 0.25]}}, 0)
    measured("train", *ckpt_data, "--epochs", "1", "--seed", "0", "--out", "ckpt")
    eval_data = synth("eval_data", {"synthetic": {"n_episodes": 320},
                                    "data": {"split_ratios": [0.1, 0.1, 0.8]}}, 1)
    measured("eval", "--checkpoint", "ckpt/checkpoint.json", *eval_data,
             "--seed", "0", "--leave-out", "0.2", "--leave-out", "0.5", "--out", "eval")
    measured("eval", "--checkpoint", "ckpt/checkpoint.json", *eval_data,
             "--seed", "0", "--split", "val", "--leave-out", "0.5", "--out", "eval_val")

    for work in works:
        (work / "gradcheck").mkdir()
    audits = [(kernel, ()) for kernel in KERNELS]
    audits += [(KERNELS[0], ablation) for ablation in AUDITED_ABLATIONS]
    for kernel, ablation in audits:
        name = "_no_".join((kernel, *ablation)) if ablation else kernel
        stdouts = each("--audit", kernel, f"gradcheck/{name}.json",
                       *(arg for flag in ablation for arg in ("--ablate", flag)),
                       entry=(str(Path(__file__).resolve()),))
        for work, out in zip(works, stdouts):
            (work / "gradcheck" / f"{name}.txt").write_text(out, encoding="utf-8")

    c8_data = synth("c8_data", {"synthetic": C8_SYNTHETIC,
                                "data": {"split_ratios": [0.7, 0.15, 0.15]}}, 201)
    measured("train", *c8_data, "--codebook-size", "32", "--batch-size", "64",
             "--lr", "0.01", "--epochs", "12", "--patience", "12", "--seed", "10",
             "--out", "train_k32")

    mc_data = synth("mc_data", {"synthetic": MULTICLASS_SYNTHETIC}, 5)
    measured("train", *mc_data, "--codebook-size", "16", "--epochs", "2", "--seed", "0",
             "--out", "train_multiclass")
    measured("eval", "--checkpoint", "train_multiclass/checkpoint.json", *mc_data,
             "--seed", "0", "--out", "eval_multiclass")
    return usages


def digests(work: Path) -> dict[str, str]:
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file()}


def numbers(path: Path) -> list[float]:
    """The numeric values of a JSON or CSV file, in a fixed order."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        values = []
        for field in text.replace("\n", ",").split(","):
            try:
                values.append(float(field))
            except ValueError:
                pass
        return values
    values = []

    def walk(node) -> None:
        if isinstance(node, dict):
            if set(node) == {"shape", "data"} and isinstance(node["data"], str):
                raw = base64.b64decode(node["data"])
                values.extend(struct.unpack(f"<{len(raw) // 8}d", raw))
                return
            for key in sorted(node):
                walk(node[key])
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            values.append(float(node))

    walk(json.loads(text))
    return values


def max_relative_difference(a: Path, b: Path) -> str:
    """The largest |x - y| / max(|x|, |y|) over the paired numeric values of
    two JSON or CSV files, or why they do not pair up."""
    try:
        xs, ys = numbers(a), numbers(b)
    except ValueError as exc:  # not JSON, or not UTF-8 text
        return f"unreadable: {exc}"
    if len(xs) != len(ys):
        return f"{len(xs)} and {len(ys)} numeric values"
    worst = 0.0
    for x, y in zip(xs, ys):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return f"max_rel_diff=inf ({x} against {y})"
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return f"max_rel_diff={worst:.3g}"


def peak_lines(a: dict[str, float | None], b: dict[str, float | None],
               key: str = "peak_rss_mb") -> list[str]:
    """One line per measured command: its peak RSS in MB (or its ``key``
    figure) in each tree."""
    def shown(value: float | None) -> str:
        return "-" if value is None else f"{value:.1f}"

    names = sorted(set(a) | set(b))
    width = max(map(len, names), default=0)
    return [f"{key} {name:{width}s} {shown(a.get(name)):>8s} {shown(b.get(name)):>8s}"
            for name in names]


def audit(kernel: str, path: str, ablate: tuple[str, ...] = ()) -> int:
    """Run ``decaygraph gradcheck --kernel KERNEL``, with ``--ablate NAME``
    for each name in ``ablate``, in this process and write the errors dict
    its audit returned to ``path`` as JSON, whose floats are their ``repr``.
    Returns the command's exit status."""
    import decaygraph.cli as cli

    audit_fn = cli.gradient_check
    returned = {}

    def recorded(*args, **kwargs):
        errors = audit_fn(*args, **kwargs)
        returned.update(errors)
        return errors

    cli.gradient_check = recorded
    try:
        status = cli.main(["gradcheck", "--kernel", kernel,
                           *(arg for name in ablate for arg in ("--ablate", name))])
    finally:
        cli.gradient_check = audit_fn
    errors = {name: float(err) for name, err in returned.items()}
    Path(path).write_text(json.dumps(errors, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    return status


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "--audit":
        flags, names = argv[3::2], argv[4::2]
        if len(flags) == len(names) and set(flags) <= {"--ablate"}:
            return audit(argv[1], argv[2], tuple(names))
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    trees = [Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / str(i) for i in range(len(trees))]
        for work in works:
            work.mkdir()
        try:
            usages = run_matrix(trees, works)
        except CommandFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        a, b = (digests(work) for work in works)
        same = True
        for name in sorted(set(a) | set(b)):
            ha, hb = a.get(name, "missing"), b.get(name, "missing")
            verdict = "same" if ha == hb else "DIFFERENT"
            same &= ha == hb
            detail = ""
            if ha != hb and name in a and name in b and name.endswith((".json", ".csv")):
                detail = "  " + max_relative_difference(works[0] / name, works[1] / name)
            print(f"{verdict:9s} {name}  {ha[:16]}  {hb[:16]}{detail}")
    # each command's lines side by side
    for lines in zip(*(peak_lines(*(u[key] for u in usages), key) for key in USAGE)):
        print("\n".join(lines))
    print("identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
