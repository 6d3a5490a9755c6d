"""Command line interface: synth, train, eval, analyze, gradcheck.

Every command is a pure function of its input files, flags and seed;
re-running an invocation reproduces its output files byte for byte.
Reports are JSON with sorted keys, tabular outputs are CSV. Flags
mirror config-file keys one to one and override them. Wall-clock time
is printed to stdout rather than stored, so reports stay reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import (InsufficientDataError, empirical_autocorr, fit_decay_rate,
                       kruskal_wallis)
from .data import (DataValidationError, Dataset, DatasetSplits, SyntheticConfig,
                   apply_normalization, leave_variables_out, load_dataset,
                   load_split_manifest, normalize_splits, split_by_manifest,
                   split_dataset, synthesize, truncate_episodes, write_labels_csv,
                   write_observations_csv, write_splits_csv)
from .model import (AblationFlags, DecayGraphClassifier, ModelConfig,
                    check_compatibility, evaluate, fit, gradient_check,
                    load_checkpoint, save_checkpoint)
from .temporal import DECAY_KERNELS

ABLATION_NAMES = ("tde", "sna", "hvs", "cb", "mcv", "te")

DEFAULT_SYNTHETIC = {
    "n_variables": 6,
    "n_episodes": 200,
    "decay_rates": [8.0, 4.0, 1.0, 0.5, 0.1, 0.05],
    "obs_per_episode": 10.0,
    "missing_prob": 0.1,
    "horizon": 48.0,
    "label_coeffs": [1.5, -1.0, 1.0, -0.5, 0.8, -1.2],
    "label_summary": "decay_mean",
    "seed": 0,
}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _model_config(file_cfg: dict, args: argparse.Namespace, n_classes: int) -> ModelConfig:
    section = dict(file_cfg.get("model", {}))
    overrides = {
        "hidden_dim": args.hidden_dim,
        "codebook_size": args.codebook_size,
        "n_layers": args.n_layers,
        "lr": args.lr,
        "batch_size": args.batch_size,
        "epochs": args.epochs,
        "patience": args.patience,
        "decay_kernel": args.kernel,
    }
    for key, value in overrides.items():
        if value is not None:
            section[key] = value
    section["seed"] = _seed_of(file_cfg, args)
    section["n_classes"] = n_classes
    return ModelConfig(**section)


def _ablation_flags(file_cfg: dict, ablate: list[str]) -> AblationFlags:
    flags = AblationFlags(**file_cfg.get("ablation", {}))
    for name in ablate:
        if name not in ABLATION_NAMES:
            raise ValueError(f"--ablate must be one of {ABLATION_NAMES}, got {name!r}")
        setattr(flags, f"use_{name}", False)
    return flags


def _data_paths(file_cfg: dict, args: argparse.Namespace) -> dict:
    section = dict(file_cfg.get("data", {}))
    for key, value in (("observations", args.observations), ("labels", args.labels),
                       ("splits", args.splits), ("t_max", args.t_max)):
        if value is not None:
            section[key] = value
    if "observations" not in section or "labels" not in section:
        raise ValueError("observation and label files are required "
                         "(--observations/--labels or the data config section)")
    return section


def _load_splits(section: dict, seed: int,
                 variables: list[str] | None = None) -> tuple[Dataset, DatasetSplits]:
    dataset = load_dataset(section["observations"], section["labels"],
                           t_max=section.get("t_max"), variables=variables)
    if section.get("splits"):
        splits = split_by_manifest(dataset, load_split_manifest(section["splits"]))
    else:
        ratios = tuple(section.get("split_ratios", (0.8, 0.1, 0.1)))
        splits = split_dataset(dataset, ratios=ratios, seed=seed)
    return dataset, splits


def _seed_of(file_cfg: dict, args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    seed = file_cfg.get("seed", 0)
    integral = isinstance(seed, int) or isinstance(seed, float) and seed.is_integer()
    if isinstance(seed, bool) or not integral:
        raise ValueError(f"config seed must be an integral number, got {seed!r}")
    return int(seed)


# -- commands -----------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    section = dict(DEFAULT_SYNTHETIC)
    section.update(file_cfg.get("synthetic", {}))
    if args.seed is not None:
        section["seed"] = args.seed
    config = SyntheticConfig(**section)
    dataset = synthesize(config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_observations_csv(dataset, str(out / "observations.csv"))
    write_labels_csv(dataset, str(out / "labels.csv"))
    ratios = tuple(file_cfg.get("data", {}).get("split_ratios", (0.8, 0.1, 0.1)))
    splits = split_dataset(dataset, ratios=ratios, seed=config.seed)
    write_splits_csv(splits.assignment(), str(out / "splits.csv"))
    print(f"wrote {len(dataset)} episodes over {dataset.n_variables} variables to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    file_cfg = _load_config_file(args.config)
    seed = _seed_of(file_cfg, args)
    data_section = _data_paths(file_cfg, args)
    _, splits = _load_splits(data_section, seed)
    n_classes = max(s.n_classes for s in (splits.train, splits.val, splits.test))
    splits = normalize_splits(splits)

    config = _model_config(file_cfg, args, n_classes)
    flags = _ablation_flags(file_cfg, args.ablate)
    model = DecayGraphClassifier(config, flags, splits.train.variables)
    training = fit(model, splits.train, splits.val)

    metrics = {
        "train": evaluate(model, splits.train),
        "val": evaluate(model, splits.val, collect_diagnostics=True),
        "test": evaluate(model, splits.test),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(str(out / "checkpoint.json"), model,
                    norm_means=splits.train.norm_means,
                    norm_stds=splits.train.norm_stds,
                    t_max=splits.train.t_max)
    report = {
        "command": "train",
        "seed": seed,
        "config": asdict(config),
        "ablation": asdict(flags),
        "data": {"n_train": len(splits.train), "n_val": len(splits.val),
                 "n_test": len(splits.test), "t_max": splits.train.t_max,
                 "variables": splits.train.variables},
        "history": training["history"],
        "best_epoch": training["best_epoch"],
        "best_val_metric": training["best_val_metric"],
        "monitor": training["monitor"],
        "metrics": metrics,
        "codebook_utilization": metrics["val"].get("codebook_utilization"),
    }
    _write_json(out / "report.json", report)
    print(f"checkpoint: {out / 'checkpoint.json'}")
    print(f"report: {out / 'report.json'}")
    print(f"wall_clock_seconds={time.perf_counter() - start:.3f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    file_cfg = _load_config_file(args.config)
    seed = _seed_of(file_cfg, args)
    reports = _eval_report_names(args.leave_out) or {"eval.json": 0.0}
    model, meta = load_checkpoint(args.checkpoint)
    data_section = _data_paths(file_cfg, args)
    if meta["t_max"] is not None and "t_max" not in data_section:
        data_section["t_max"] = meta["t_max"]
    dataset, splits = _load_splits(data_section, seed, variables=model.variables)
    check_compatibility(model, dataset)
    if meta["norm_means"] is not None:
        splits = DatasetSplits(*(apply_normalization(ds, meta["norm_means"], meta["norm_stds"])
                                 for ds in (splits.train, splits.val, splits.test)))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, rate in reports.items():
        if rate == 0.0:
            eval_splits, hidden, rate = splits, [], 0.0
        else:
            eval_splits, hidden = leave_variables_out(splits, rate, seed=seed)
        target = getattr(eval_splits, args.split)
        report = {
            "command": "eval",
            "seed": seed,
            "split": args.split,
            "leave_out_rate": rate,
            "hidden_variables": hidden,
            "config": asdict(model.config),
            "ablation": asdict(model.flags),
            "metrics": evaluate(model, target, collect_diagnostics=True),
        }
        _write_json(out / name, report)
        print(f"report: {out / name}")
    print(f"wall_clock_seconds={time.perf_counter() - start:.3f}")
    return 0


def _eval_report_names(rates: list[float]) -> dict[str, float]:
    """Report file name -> leave-out rate; the whole sweep is checked first."""
    names: dict[str, float] = {}
    for rate in rates:
        if not 0.0 <= rate < 1.0:
            raise DataValidationError(f"leave-out rate {rate} must be 0 or in (0, 1)")
        name = f"eval_leave{int(round(rate * 100)):02d}.json"
        if name in names:
            raise DataValidationError(f"leave-out rates {names[name]} and {rate} "
                                      f"would both write {name}")
        names[name] = rate
    return names


def cmd_analyze(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    file_cfg = _load_config_file(args.config)
    data_section = _data_paths(file_cfg, args)
    dataset = load_dataset(data_section["observations"], data_section["labels"],
                           t_max=data_section.get("t_max"))
    max_lag = args.max_lag if args.max_lag is not None else dataset.t_max / 4.0

    out = Path(args.out)
    lines = ["variable,lambda,residual,n_bins"]
    groups = []
    group_names = []
    for v, name in enumerate(dataset.variables):
        series = _variable_series(dataset, v)
        try:
            estimate = empirical_autocorr(series, n_bins=args.lag_bins, max_lag=max_lag)
            decay = fit_decay_rate(estimate)
            lines.append(f"{name},{decay.decay_rate!r},{decay.residual!r},{decay.n_bins}")
        except InsufficientDataError:
            lines.append(f"{name},,,0")
            continue
        per_episode = _per_episode_rates(dataset, v, args.lag_bins, max_lag)
        if per_episode:
            groups.append(per_episode)
            group_names.append(name)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "decay_rates.csv"
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"decay table: {table_path}")

    if len(groups) < 2:
        print("Kruskal-Wallis refused: needs per-episode decay estimates for "
              "at least 2 variables")
    else:
        kw = kruskal_wallis(groups)
        kw_path = out / "kw_summary.csv"
        with open(kw_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("H,df,p\n")
            fh.write(f"{kw.statistic!r},{kw.df},{kw.p_value!r}\n")
        print(f"kw summary: {kw_path} (groups: {','.join(group_names)})")
    print(f"wall_clock_seconds={time.perf_counter() - start:.3f}")
    return 0


def _variable_series(dataset: Dataset, v: int) -> list[tuple[np.ndarray, np.ndarray]]:
    series = []
    for ep in dataset.episodes:
        steps = np.flatnonzero(ep.mask[:, v])
        if len(steps) >= 2:
            series.append((ep.times[steps], ep.values[steps, v]))
    return series


def _per_episode_rates(dataset: Dataset, v: int, n_bins: int,
                       max_lag: float) -> list[float]:
    rates = []
    for ep in dataset.episodes:
        steps = np.flatnonzero(ep.mask[:, v])
        if len(steps) < 3:
            continue
        try:
            estimate = empirical_autocorr([(ep.times[steps], ep.values[steps, v])],
                                          n_bins=n_bins, max_lag=max_lag, min_pairs=2)
            rates.append(fit_decay_rate(estimate).decay_rate)
        except InsufficientDataError:
            continue
    return rates


GRADCHECK_DATA_SEED = 3
GRADCHECK_MODEL_SEED = 2


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if not args.tolerance > 0:
        raise ValueError(f"--tolerance must be positive, got {args.tolerance}")
    config = SyntheticConfig(n_variables=3, n_episodes=2,
                             decay_rates=[0.5, 2.0, 0.1], obs_per_episode=4.0,
                             horizon=24.0, label_coeffs=[1.0, -1.0, 0.5],
                             seed=GRADCHECK_DATA_SEED)
    dataset = synthesize(config)
    episodes = truncate_episodes(dataset.episodes, 4, config.horizon)

    model_config = ModelConfig(hidden_dim=8, codebook_size=8, n_layers=2,
                               batch_size=2, seed=GRADCHECK_MODEL_SEED,
                               decay_kernel=args.kernel or "mlp_exp")
    model = DecayGraphClassifier(model_config, _ablation_flags({}, args.ablate),
                                 dataset.variables)
    errors = gradient_check(model, episodes, step=args.step)
    worst = max(errors.values())
    for name in sorted(errors):
        print(f"{name}: max_rel_err={errors[name]:.3e}")
    status = "PASS" if worst < args.tolerance else "FAIL"
    print(f"gradcheck {status}: max_rel_err={worst:.3e} tolerance={args.tolerance:.1e}")
    return 0 if worst < args.tolerance else 1


# -- argument parsing ------------------------------------------------------------

def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="seed overriding the config file")
    parser.add_argument("--out", default="runs/latest", help="output directory")


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--observations", help="observations CSV path")
    parser.add_argument("--labels", help="labels CSV path")
    parser.add_argument("--splits", help="optional split manifest CSV")
    parser.add_argument("--t-max", type=float, dest="t_max",
                        help="time horizon in hours")


def _add_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    parser.add_argument("--codebook-size", type=int, dest="codebook_size")
    parser.add_argument("--n-layers", type=int, dest="n_layers")
    parser.add_argument("--lr", type=float)
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--patience", type=int)
    parser.add_argument("--kernel", choices=DECAY_KERNELS)
    parser.add_argument("--ablate", action="append", default=[],
                        choices=ABLATION_NAMES,
                        help="disable a mechanism (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="decaygraph")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic dataset")
    _add_shared(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train a classifier")
    _add_shared(p_train)
    _add_data(p_train)
    _add_model(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_shared(p_eval)
    _add_data(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=("train", "val", "test"), default="test")
    p_eval.add_argument("--leave-out", type=float, action="append",
                        dest="leave_out", default=[],
                        help="variable discard rate (repeatable for a sweep)")
    p_eval.set_defaults(func=cmd_eval)

    p_analyze = sub.add_parser("analyze", help="estimate per-variable decay rates")
    _add_shared(p_analyze)
    _add_data(p_analyze)
    p_analyze.add_argument("--lag-bins", type=int, dest="lag_bins", default=10)
    p_analyze.add_argument("--max-lag", type=float, dest="max_lag")
    p_analyze.set_defaults(func=cmd_analyze)

    # gradcheck audits fixed built-in data, so argparse refuses --config and
    # --seed by name; --out stays, unused, because perfbench/run.py passes it
    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_grad.add_argument("--out", help="ignored: gradcheck writes no file")
    p_grad.add_argument("--kernel", choices=DECAY_KERNELS)
    p_grad.add_argument("--ablate", action="append", default=[],
                        choices=ABLATION_NAMES)
    p_grad.add_argument("--step", type=float, default=1e-5)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TypeError) as exc:
        # TypeError covers unknown keys in config-file sections
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
