"""decaygraph benchmark: train, eval and gradcheck end to end.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each run sets up its inputs from ``--seed`` (several times, to time
set-up), then runs the workload's ``decaygraph`` command repeatedly, each
time in its own child process, until ``--seconds`` have passed. Every
command run is checked for correct output. With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced command runs alternate, and the
metrics are the per-layer ones from ``perfbench/probe.py``. Metric names
and units come from ``BENCHMARK.json``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
PROBE = BENCH_DIR / "probe.py"
REFERENCE = BENCH_DIR / "reference.json"

# one run must end within 180 s; children still running at this point are killed
RUN_LIMIT_S = 165.0
SETUP_REPEATS = 3
# inputs come from one of these many seeded sets, whose reference outputs
# are stored in reference.json (see make_reference.py)
REFERENCE_SEEDS = 16
# a fused op may reorder float sums, so losses are compared by tolerance
REFERENCE_RTOL = 1e-9
GRADCHECK_TOLERANCE = 1e-4
# eval refuses timestamps past the checkpoint's stored t_max, so both
# commands get the synthetic horizon explicitly
T_MAX = "48"

C8_SYNTHETIC = {
    "n_variables": 6, "n_episodes": 200,
    "decay_rates": [4.0, 4.0, 4.0, 0.05, 0.05, 0.05],
    "obs_per_episode": 6.0, "missing_prob": 0.0, "horizon": 48.0,
    "label_coeffs": [2.0, -2.0, 2.0, 0.0, 0.0, 0.0],
    "label_summary": "decay_mean",
}
C8_DATA_SEED = 201
# The datasets are fixed, so every seed does the same amount of work; the
# workload seed sets the model seed (initialization, batch order) and, for
# eval, the leave-out draw. The eval checkpoint's small training set has
# both classes in its validation split.
DEFAULT_DATA_SEED = 0
EVAL_CHECKPOINT_DATA_SEED = 0
EVAL_DATA_SEED = 1
EVAL_LEAVE_OUT = ("0.2", "0.5")
EVAL_FILES = ("eval_leave20.json", "eval_leave50.json")

REPEATABLE_COUNTS = ("autodiff.nodes_per_step", "codebook.soft_fuse_calls",
                     "graph.build_step_calls", "model.batch_loss_calls")


class BenchmarkError(RuntimeError):
    """Set-up failed or the checkout cannot be benchmarked."""


# -- child processes ------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    killed: bool


def run_child(argv: list[str], log_dir: Path, deadline: float) -> ChildResult:
    """Run one process to completion and take its own rusage.

    ``os.wait4`` gives CPU time and peak RSS of exactly this child, so
    each command run is measured on its own.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(exit_code=proc.returncode, wall_s=wall,
                       cpu_s=usage.ru_utime + usage.ru_stime,
                       peak_rss_mb=usage.ru_maxrss / 1024.0,
                       stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                       killed=proc.returncode < 0)


def run_setup_step(argv: list[str], log_dir: Path, deadline: float) -> ChildResult:
    result = run_child(argv, log_dir, deadline)
    if result.exit_code != 0:
        err = (log_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        raise BenchmarkError(f"set-up step {argv[2:5]} exited {result.exit_code}: {err[-2000:]}")
    return result


def args(*items) -> list[str]:
    return [str(item) for item in items]


def cli(*items) -> list[str]:
    return [sys.executable, "-m", "decaygraph.cli", *args(*items)]


# -- workloads --------------------------------------------------------------------

def synth(work: Path, name: str, config: dict, seed: int, deadline: float) -> Path:
    config_path = work / f"{name}.config.json"
    config_path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    out = work / name
    run_setup_step(cli("synth", "--config", config_path, "--seed", seed, "--out", out),
                   work / "logs" / name, deadline)
    return out


def data_flags(data: Path) -> list[str]:
    return ["--observations", str(data / "observations.csv"),
            "--labels", str(data / "labels.csv"),
            "--splits", str(data / "splits.csv"), "--t-max", T_MAX]


def setup_train_k4096(work: Path, seed: int, deadline: float) -> list[str]:
    data = synth(work, "data", {}, DEFAULT_DATA_SEED, deadline)
    return args("train", *data_flags(data), "--epochs", 3, "--seed", seed)


def setup_train_k32(work: Path, seed: int, deadline: float) -> list[str]:
    config = {"synthetic": C8_SYNTHETIC, "data": {"split_ratios": [0.7, 0.15, 0.15]}}
    data = synth(work, "data", config, C8_DATA_SEED, deadline)
    return args("train", *data_flags(data), "--codebook-size", 32, "--batch-size", 64,
                "--lr", 0.01, "--epochs", 12, "--patience", 12, "--seed", seed)


def setup_eval_k4096(work: Path, seed: int, deadline: float) -> list[str]:
    train_config = {"synthetic": {"n_episodes": 32},
                    "data": {"split_ratios": [0.5, 0.25, 0.25]}}
    train_data = synth(work, "checkpoint_data", train_config, EVAL_CHECKPOINT_DATA_SEED,
                       deadline)
    run_setup_step(cli("train", *data_flags(train_data), "--epochs", 1,
                       "--seed", seed, "--out", work / "checkpoint"),
                   work / "logs" / "checkpoint", deadline)
    eval_config = {"synthetic": {"n_episodes": 320},
                   "data": {"split_ratios": [0.1, 0.1, 0.8]}}
    data = synth(work, "data", eval_config, EVAL_DATA_SEED, deadline)
    leave_out = [flag for rate in EVAL_LEAVE_OUT for flag in ("--leave-out", rate)]
    return args("eval", "--checkpoint", work / "checkpoint" / "checkpoint.json",
                *data_flags(data), "--seed", seed, *leave_out)


def setup_gradcheck(work: Path, seed: int, deadline: float) -> list[str]:
    # gradcheck builds its own fixed data; the seed changes nothing
    return ["gradcheck"]


@dataclass
class Workload:
    kind: str  # train, eval or gradcheck
    # (work dir, input seed, deadline) -> the command's arguments
    setup: Callable[[Path, int, float], list[str]]
    epochs: int = 0


WORKLOADS = {
    "train-k4096": Workload("train", setup_train_k4096, epochs=3),
    "train-k32": Workload("train", setup_train_k32, epochs=12),
    "eval-k4096": Workload("eval", setup_eval_k4096),
    "gradcheck-c1": Workload("gradcheck", setup_gradcheck),
}


# -- output checks -------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def outputs_of(kind: str, out: Path, stdout: str) -> dict[str, bytes]:
    """The bytes a run must reproduce exactly: its files, or gradcheck's report lines."""
    if kind == "gradcheck":
        return {"stdout": stdout.encode("utf-8")}
    names = ("report.json", "checkpoint.json") if kind == "train" else EVAL_FILES
    return {name: (out / name).read_bytes() for name in names if (out / name).is_file()}


def reference_values(kind: str, out: Path) -> dict:
    """The values reference.json stores for one run, read from its outputs."""
    if kind == "train":
        return {"train_loss": [h["train_loss"] for h in _load_json(out / "report.json")["history"]]}
    if kind == "eval":
        values = {}
        for name in EVAL_FILES:
            report = _load_json(out / name)
            m = report["metrics"]
            values[name] = {"hidden_variables": report["hidden_variables"],
                            "n_pos": m["n_pos"], "n_neg": m["n_neg"],
                            "brier": m["brier"], "mean_pos_prob": m["mean_pos_prob"]}
        return values
    return {}


def check_outputs(workload: Workload, out: Path, stdout: str,
                  reference: dict | None) -> list[str]:
    """Problems with one command run's outputs; empty when they are correct."""
    kind = workload.kind
    if kind == "gradcheck":
        match = re.search(r"^gradcheck PASS: max_rel_err=(\S+)", stdout, re.MULTILINE)
        if not match:
            return ["gradcheck printed no PASS line"]
        if not float(match.group(1)) < GRADCHECK_TOLERANCE:
            return [f"gradcheck max_rel_err {match.group(1)} >= {GRADCHECK_TOLERANCE}"]
        return []
    problems = []
    try:
        got = reference_values(kind, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
    if kind == "train":
        losses = got["train_loss"]
        if len(losses) != workload.epochs:
            problems.append(f"{len(losses)} epochs run, expected {workload.epochs}")
        if not all(math.isfinite(x) for x in losses):
            problems.append(f"non-finite train_loss {losses}")
        if reference and not (len(losses) == len(reference["train_loss"]) and all(
                _close(a, b) for a, b in zip(losses, reference["train_loss"]))):
            problems.append(f"train_loss {losses} differs from reference "
                            f"{reference['train_loss']}")
        try:
            checkpoint = _load_json(out / "checkpoint.json")
            if checkpoint.get("format") != "decaygraph-checkpoint" or not checkpoint.get("params"):
                problems.append("checkpoint.json has no parameters")
        except (OSError, ValueError) as exc:
            problems.append(f"unreadable checkpoint: {exc!r}")
        return problems
    for name, values in got.items():
        for key in ("brier", "mean_pos_prob"):
            if not math.isfinite(values[key]):
                problems.append(f"{name}: non-finite {key}")
        if values["n_pos"] + values["n_neg"] == 0:
            problems.append(f"{name}: no episode scored")
        if reference:
            want = reference[name]
            if (values["hidden_variables"] != want["hidden_variables"]
                    or (values["n_pos"], values["n_neg"]) != (want["n_pos"], want["n_neg"])
                    or not all(_close(values[k], want[k]) for k in ("brier", "mean_pos_prob"))):
                problems.append(f"{name}: {values} differs from reference {want}")
    return problems


# -- traces ----------------------------------------------------------------------------

def span_totals(trace: dict) -> tuple[Counter, Counter, Counter, dict]:
    """Inclusive time, self time and call count per span name.

    Inclusive time counts only the outermost span of a name, so nested
    calls of one layer are not counted twice. Self time is a span's
    duration minus its direct children's.
    """
    names = trace["names"]
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive, own, calls = Counter(), Counter(), Counter()
    durations: dict[str, list[float]] = {}
    for i, (n, start, end, parent) in enumerate(spans):
        name = names[n]
        duration = end - start
        calls[name] += 1
        own[name] += duration - child[i]
        durations.setdefault(name, []).append(duration)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != n:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
    return inclusive, own, calls, durations


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


def layer_metrics(trace: dict, checkpoint_bytes: int) -> dict[str, float]:
    inclusive, own, calls, durations = span_totals(trace)
    counts = trace["counts"]
    steps = calls["graph.build_step"]
    batch_loss_ms = [d * 1000.0 for d in durations.get("model.batch_loss", [])]
    metrics = {
        "data.load_s": inclusive["data.load"],
        "data.split_norm_s": inclusive["data.split_norm"],
        "data.leave_out_s": inclusive["data.leave_out"],
        "model.init_s": inclusive["model.init"],
        "model.forward_s": inclusive["model.forward"],
        "model.forward_self_s": own["model.forward"],
        "model.fit_s": inclusive["model.fit"],
        "model.evaluate_s": inclusive["model.evaluate"],
        "model.gradient_check_s": inclusive["model.gradient_check"],
        "model.checkpoint_save_s": inclusive["model.checkpoint_save"],
        "model.checkpoint_load_s": inclusive["model.checkpoint_load"],
        "model.checkpoint_bytes": checkpoint_bytes,
        "model.batch_loss_calls": calls["model.batch_loss"],
        "model.batch_loss_ms_p50": percentile(batch_loss_ms, 0.5),
        "model.batch_loss_ms_p99": percentile(batch_loss_ms, 0.99),
        "graph.build_step_s": inclusive["graph.build_step"],
        "graph.build_step_calls": steps,
        "graph.edges": counts.get("graph.edges", 0),
        "graph.edge_init_s": inclusive["graph.edge_init"],
        "graph.message_pass_s": inclusive["graph.message_pass"],
        "codebook.soft_fuse_s": inclusive["codebook.soft_fuse"],
        "codebook.soft_fuse_calls": calls["codebook.soft_fuse"],
        "codebook.retrieve_s": inclusive["codebook.retrieve"],
        "temporal.decay_s": inclusive["temporal.decay"],
        "temporal.gate_s": inclusive["temporal.gate"],
        "temporal.attention_s": inclusive["temporal.attention"],
        "autodiff.backward_s": inclusive["autodiff.backward"],
        "autodiff.nodes": counts.get("autodiff.nodes", 0),
        "autodiff.nodes_per_step": counts.get("autodiff.forward_nodes", 0) / steps if steps else 0.0,
        "optim.step_s": inclusive["optim.step"],
        "optim.steps": calls["optim.step"],
        "metrics.report_s": inclusive["metrics.report"],
    }
    for key, value in counts.items():
        if key.startswith("autodiff.calls."):
            metrics[key] = value
    return metrics


# -- one run -----------------------------------------------------------------------

@dataclass
class Rep:
    traced: bool
    child: ChildResult
    outputs: dict[str, bytes]
    problems: list[str]
    work_per_s: float = 0.0
    checkpoint_bytes: int = 0
    layers: dict = field(default_factory=dict)


def run_rep(workload: Workload, argv: list[str], rep_dir: Path, traced: bool,
            reference: dict | None, deadline: float, run_id: str) -> Rep:
    out = rep_dir / "out"
    trace_path = rep_dir / "trace.json"
    command = [sys.executable, str(PROBE), "trace" if traced else "plain",
               str(trace_path), run_id, *argv, "--out", str(out)]
    child = run_child(command, rep_dir, deadline)
    problems = []
    if child.killed:
        problems.append("killed at the run's time limit")
    elif child.exit_code != 0:
        problems.append(f"exit code {child.exit_code}")
    if problems:
        return Rep(traced, child, {}, problems)
    problems = check_outputs(workload, out, child.stdout, reference)
    rep = Rep(traced, child, outputs_of(workload.kind, out, child.stdout), problems)
    try:
        trace = _load_json(trace_path)
        inclusive, _, calls, _ = span_totals(trace)
        if workload.kind == "train":
            report = _load_json(out / "report.json")
            episodes = report["data"]["n_train"] * len(report["history"])
            rep.work_per_s = episodes / inclusive["model.fit"]
            rep.checkpoint_bytes = (out / "checkpoint.json").stat().st_size
        elif workload.kind == "eval":
            metrics = [_load_json(out / name)["metrics"] for name in EVAL_FILES]
            scored = sum(m["n_pos"] + m["n_neg"] for m in metrics)
            rep.work_per_s = scored / inclusive["model.evaluate"]
        else:
            rep.work_per_s = calls["model.batch_loss"] / child.wall_s
        if traced:
            rep.layers = layer_metrics(trace, rep.checkpoint_bytes)
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        rep.problems.append(f"unreadable trace or report: {exc!r}")
    return rep


def load_reference(workload_name: str, input_seed: int) -> dict | None:
    """The stored outputs for one input set; gradcheck has none, it checks itself."""
    if WORKLOADS[workload_name].kind == "gradcheck":
        return None
    try:
        return _load_json(REFERENCE)[workload_name][str(input_seed)]
    except (OSError, KeyError) as exc:
        raise BenchmarkError(f"no reference outputs for {workload_name} input seed "
                             f"{input_seed} in {REFERENCE}: {exc!r}") from exc


def setup_inputs(workload: Workload, work: Path, input_seed: int,
                 deadline: float) -> tuple[list[str], list[float], dict]:
    """Set up SETUP_REPEATS times, each in a new directory; the last set-up is used."""
    times = []
    env = {}
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        start = time.perf_counter()
        target.mkdir(parents=True)
        # the program must start before anything else is worth timing
        probe = run_setup_step([sys.executable, str(PROBE), "env"], target / "logs" / "env",
                               deadline)
        argv = workload.setup(target, input_seed, deadline)
        times.append(time.perf_counter() - start)
        env = json.loads(probe.stdout)
    return argv, times, env


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            work: Path, deadline: float) -> tuple[list[Rep], list[float], dict]:
    workload = WORKLOADS[workload_name]
    input_seed = seed % REFERENCE_SEEDS
    reference = load_reference(workload_name, input_seed)
    argv, setup_times, env = setup_inputs(workload, work, input_seed, deadline)
    env.update(workload=workload_name, seed=seed, input_seed=input_seed)
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced command runs, so the
        # tracing overhead compares runs taken close together in time
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(workload, argv, work / f"rep{len(reps)}", traced, reference,
                      deadline, f"{workload_name}/{seed}/{len(reps)}")
        if reps and rep.outputs and reps[0].outputs and rep.outputs != reps[0].outputs:
            rep.problems.append("outputs differ from the run's first command run")
        reps.append(rep)
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and (not trace or len(reps) >= 4)
        if enough or time.monotonic() + rep.child.wall_s > deadline:
            break
    if trace:
        check_repeatable(reps)
    return reps, setup_times, env


def check_repeatable(reps: list[Rep]) -> None:
    traced = [r for r in reps if r.traced and r.layers]
    for rep in traced[1:]:
        for key in REPEATABLE_COUNTS:
            if rep.layers[key] != traced[0].layers[key]:
                rep.problems.append(f"{key} {rep.layers[key]} differs from "
                                    f"{traced[0].layers[key]} in the first traced run")


# -- reporting -------------------------------------------------------------------------

def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[Rep], setup_times: list[float]) -> dict:
    ok = [r for r in reps if not r.problems and not r.traced] or [r for r in reps if not r.traced]
    return {
        "wall_s": median([r.child.wall_s for r in ok]),
        "cpu_s": median([r.child.cpu_s for r in ok]),
        "peak_rss_mb": median([r.child.peak_rss_mb for r in ok]),
        "work_per_s": median([r.work_per_s for r in ok]),
        "setup_s": median(setup_times),
    }


def per_layer(reps: list[Rep]) -> dict:
    traced = [r for r in reps if r.traced and r.layers]
    untraced = [r for r in reps if not r.traced]
    if not traced:
        return {}
    metrics = {key: median([r.layers.get(key, 0) for r in traced]) for key in traced[0].layers}
    traced_wall = median([r.child.wall_s for r in traced])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - median([r.child.wall_s for r in untraced])
    return metrics


WORK_NAMES = {"train": ("train_episodes_per_s", "train episodes x epochs / fit time"),
              "eval": ("eval_episodes_per_s", "episodes scored / evaluate time"),
              "gradcheck": ("loss_evals_per_s", "batch_loss calls / wall time")}


def print_human(workload: Workload, reps: list[Rep], setup_times: list[float],
                env: dict, e2e: dict, units: dict) -> None:
    failed = sum(bool(r.problems) for r in reps)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"setup runs: {len(setup_times)}; command runs: {len(reps)} "
          f"({sum(r.traced for r in reps)} traced)")
    for i, rep in enumerate(reps):
        status = "ok" if not rep.problems else "FAILED: " + "; ".join(rep.problems)
        print(f"  run {i} {'traced' if rep.traced else 'untraced'}: "
              f"wall {rep.child.wall_s:.3f} s, cpu {rep.child.cpu_s:.3f} s, "
              f"rss {rep.child.peak_rss_mb:.0f} MB, {status}")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {units.get(name, '')}")
    alias, meaning = WORK_NAMES[workload.kind]
    print(f"{alias} = {e2e['work_per_s']:.6g} 1/s ({meaning})")
    untraced = [r for r in reps if not r.traced]
    if workload.kind == "train":
        print(f"checkpoint_bytes = {median([r.checkpoint_bytes for r in untraced]):.0f} bytes")
    print(f"error_rate = {failed / len(reps):.6g} ({failed} of {len(reps)} runs failed)")


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    signal.signal(signal.SIGTERM, _terminate)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "decaygraph" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a decaygraph checkout (needs src/decaygraph "
              f"and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = _load_json(spec_path)
    section = "per_layer" if opts.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    workload = WORKLOADS[opts.workload]
    work = ROOT / ".perfbench_work" / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    try:
        reps, setup_times, env = measure(opts.workload, opts.seed, opts.seconds,
                                         bool(opts.trace), work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(reps, setup_times)
    print_human(workload, reps, setup_times, env, e2e,
                {m["name"]: m["unit"] for m in spec["end_to_end"]})
    values = per_layer(reps) if opts.trace else e2e
    failed = sum(bool(r.problems) for r in reps)
    if opts.trace and values:
        # an op never called, or gone from a later version, made no calls
        values.update({name: 0 for name in units
                       if name.startswith("autodiff.calls.") and name not in values})
        for name in sorted(values):
            print(f"{name} = {values[name]:.6g} {units.get(name, '(not in BENCHMARK.json)')}")
    missing = sorted(set(units) - set(values))
    if missing and not failed:
        raise BenchmarkError(f"no value for metrics {missing}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
