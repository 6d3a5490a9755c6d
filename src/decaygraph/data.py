"""Dataset model, file formats, splitting and synthetic generation.

File formats (comma separated, newline terminated, no quoting):

* observations: header ``patient_id,time,variable,value``, time in hours
  as a decimal, variable referenced by name.
* labels: header ``patient_id,label``, label a non-negative class index.
* splits (optional): header ``patient_id,split`` with split one of
  train/val/test.
* numbers are plain ASCII decimals (README, "File formats"), patient
  ids and variable names are non-empty with no surrounding whitespace,
  and the labels and splits files list each patient once.

An episode is one patient's record: strictly increasing unique
timestamps, a value/mask matrix over the variable list, and the
per-observation elapsed-interval matrix used by the decay mechanism.
All observations sharing a patient timestamp merge into one time step.
Duplicate (patient, time, variable) rows resolve last-wins.
"""

from __future__ import annotations

import json
import math
import re
import sys
import warnings
from array import array
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .rng import SplitMix64


class ParseError(ValueError):
    """A data file line could not be parsed."""


class SchemaError(ValueError):
    """Input refers to variables outside the declared schema."""


class CompletenessError(ValueError):
    """A required record (e.g. a label) is missing."""


class DataValidationError(ValueError):
    """Loaded data violates a dataset invariant."""


class SizingError(ValueError):
    """Too few patients for the requested partition."""


class SyntheticConfigError(ValueError):
    """Invalid synthetic generator configuration."""


@dataclass
class Episode:
    patient_id: str
    times: np.ndarray     # (T,) strictly increasing
    values: np.ndarray    # (T, V), zero where unobserved
    mask: np.ndarray      # (T, V) in {0, 1}
    delta_t: np.ndarray   # (T, V), zero where unobserved
    label: int

    @property
    def n_steps(self) -> int:
        return len(self.times)


@dataclass
class Dataset:
    variables: list[str]
    episodes: list[Episode]
    t_max: float
    n_classes: int
    norm_means: np.ndarray | None = None
    norm_stds: np.ndarray | None = None

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    def __len__(self) -> int:
        return len(self.episodes)


@dataclass
class DatasetSplits:
    train: Dataset
    val: Dataset
    test: Dataset

    def assignment(self) -> list[tuple[str, str]]:
        rows = [(ep.patient_id, name)
                for name, ds in (("train", self.train), ("val", self.val), ("test", self.test))
                for ep in ds.episodes]
        return sorted(rows)


# -- elapsed intervals ---------------------------------------------------

def delta_t_from_times(times: np.ndarray, t_max: float) -> np.ndarray:
    """Per-observation elapsed interval for one variable's timestamps.

    With both neighbours the interval is the mean of the two gaps; with
    one neighbour it is that gap; an isolated observation falls back to
    half the horizon.
    """
    times = np.asarray(times, dtype=np.float64)
    if len(times) < 2:
        return np.full(len(times), t_max / 2.0)
    gaps = np.diff(times)
    out = np.empty(len(times), dtype=np.float64)
    out[0] = gaps[0]
    out[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
    out[-1] = gaps[-1]
    return out


def _fill_delta_t(times: np.ndarray, mask: np.ndarray, t_max: float) -> np.ndarray:
    delta = np.zeros_like(mask, dtype=np.float64)
    for v in range(mask.shape[1]):
        obs_steps = np.flatnonzero(mask[:, v])
        if len(obs_steps):
            delta[obs_steps, v] = delta_t_from_times(times[obs_steps], t_max)
    return delta


def truncate_episodes(episodes: Iterable[Episode], n_steps: int,
                      t_max: float) -> list[Episode]:
    """Keep each episode's first ``n_steps`` steps, recomputing intervals
    from the kept timestamps alone."""
    out = []
    for ep in episodes:
        times, mask = ep.times[:n_steps], ep.mask[:n_steps]
        out.append(replace(ep, times=times, values=ep.values[:n_steps], mask=mask,
                           delta_t=_fill_delta_t(times, mask, t_max)))
    return out


def _episode_arrays(patient: np.ndarray, time: np.ndarray, variable: np.ndarray,
                    value: np.ndarray, n_patients: int, n_variables: int, t_max: float):
    """(times, values, mask, delta_t) for each patient index in turn, from
    observation columns in file order. Rows sharing a (patient, time) merge
    into one step, which keeps the time as first written (``0`` or ``-0``);
    of rows sharing a (patient, time, variable) the last wins."""
    rows = np.lexsort((variable, time, patient))  # stable: ties keep file order
    p, t, v = patient[rows], time[rows], variable[rows]
    new_step, last = np.ones((2, len(rows)), dtype=bool)
    new_step[1:] = (p[1:] != p[:-1]) | (t[1:] != t[:-1])
    last[:-1] = new_step[1:] | (v[1:] != v[:-1])
    starts = np.flatnonzero(new_step)
    step_times = time[np.minimum.reduceat(rows, starts)]
    step_bounds = np.searchsorted(p[starts], np.arange(n_patients + 1))
    row_bounds = np.searchsorted(p[last], np.arange(n_patients + 1))
    step, v, x = (np.cumsum(new_step) - 1)[last], v[last], value[rows[last]]
    for i in range(n_patients):
        (s0, s1), own = step_bounds[i:i + 2], slice(*row_bounds[i:i + 2])
        times = step_times[s0:s1].copy()
        values, mask = (np.zeros((s1 - s0, n_variables)) for _ in range(2))
        values[step[own] - s0, v[own]] = x[own]
        mask[step[own] - s0, v[own]] = 1.0
        yield times, values, mask, _fill_delta_t(times, mask, t_max)


# -- loading -------------------------------------------------------------

# the number grammar, plus the non-finite words so they are refused by name
_NUMBER = re.compile(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"
                     r"|(?i:inf|infinity|nan))")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _check_name(path: str, lineno: int, text: str, what: str) -> None:
    if not text or text.strip() != text:
        raise ParseError(f"{path}:{lineno}: {what} {text!r} is empty or has "
                         f"surrounding whitespace")


def _read_rows(path: str, expected_header: str, unique: bool = False):
    """Stream ``(lineno, fields)`` per data line of ``path``: lines end at ``\\n``,
    empty ones are skipped, the patient id must pass ``_check_name`` and
    with ``unique`` no patient may be listed twice."""
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        header = fh.readline().removesuffix("\n")
        if header != expected_header:
            raise ParseError(f"{path}:1: expected header {expected_header!r}, "
                             f"got {header!r}")
        n_fields = expected_header.count(",") + 1
        for lineno, line in enumerate(fh, start=2):
            if line != "\n":
                fields = line.removesuffix("\n").split(",")
                if len(fields) != n_fields:
                    raise ParseError(f"{path}:{lineno}: expected {n_fields} fields, "
                                     f"got {len(fields)}")
                _check_name(path, lineno, fields[0], "patient_id")
                if unique and first_line.setdefault(fields[0], lineno) != lineno:
                    raise ParseError(f"{path}:{lineno}: patient {fields[0]!r} is listed "
                                     f"again, first on line {first_line[fields[0]]}")
                yield lineno, fields


def _parse_float(path: str, lineno: int, text: str, what: str) -> float:
    if not _NUMBER.fullmatch(text):
        raise ParseError(f"{path}:{lineno}: {what} {text!r} is not a number")
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"{path}:{lineno}: {what} must be finite, got {text!r}")
    return value


def load_labels(path: str) -> dict[str, int]:
    labels: dict[str, int] = {}
    for lineno, (pid, text) in _read_rows(path, "patient_id,label", unique=True):
        if not _INTEGER.fullmatch(text):
            raise ParseError(f"{path}:{lineno}: label {text!r} is not an integer")
        label = int(text)
        if label < 0:
            raise ParseError(f"{path}:{lineno}: label must be non-negative, got {label}")
        labels[pid] = label
    return labels


def load_split_manifest(path: str) -> dict[str, str]:
    manifest: dict[str, str] = {}
    for lineno, (pid, name) in _read_rows(path, "patient_id,split", unique=True):
        if name not in ("train", "val", "test"):
            raise ParseError(f"{path}:{lineno}: split must be train/val/test, got {name!r}")
        manifest[pid] = name
    return manifest


def load_dataset(observations_path: str, labels_path: str,
                 t_max: float | None = None,
                 variables: list[str] | None = None) -> Dataset:
    """Assemble per-patient episodes from observation and label files.

    When ``variables`` is given, observations naming anything outside it
    are a schema error; otherwise the variable list is the sorted set of
    names seen in the file. When ``t_max`` is omitted it defaults to the
    largest timestamp in the file (half of it is the elapsed-interval
    fallback for isolated observations). Labelled patients with no
    observation have no episode: they are dropped with a warning that
    gives their count.
    """
    path = observations_path
    patient_index: dict[str, int] = {}
    var_index = {} if variables is None else {name: i for i, name in enumerate(variables)}
    columns = array("q"), array("d"), array("q"), array("d")  # patient, time, variable, value
    add_patient, add_time, add_variable, add_value = (col.append for col in columns)
    for lineno, (pid, time_text, var_name, value_text) in _read_rows(
            path, "patient_id,time,variable,value"):
        time = _parse_float(path, lineno, time_text, "time")
        if time < 0:
            raise ParseError(f"{path}:{lineno}: time must be non-negative, got {time}")
        value = _parse_float(path, lineno, value_text, "value")
        if var_name not in var_index:
            _check_name(path, lineno, var_name, "variable")
            if variables is not None:
                raise SchemaError(f"{path}:{lineno}: unknown variable {var_name!r}")
            var_index[var_name] = len(var_index)
        add_patient(patient_index.setdefault(pid, len(patient_index)))
        add_time(time)
        add_variable(var_index[var_name])
        add_value(value)
    labels = load_labels(labels_path)
    patient, time, variable, value = (np.frombuffer(col, dtype=col.typecode)
                                      for col in columns)
    names = sorted(var_index) if variables is None else list(variables)
    if variables is None:  # first-seen index -> sorted index
        variable = np.array([names.index(name) for name in var_index], dtype=np.int64)[variable]
    n_unobserved = len(labels.keys() - patient_index.keys())
    if n_unobserved:
        warnings.warn(f"{n_unobserved} labelled patients have no observations "
                      f"and are dropped", stacklevel=2)

    if t_max is None:
        t_max = max(0.0, float(time.max())) if patient_index else 1.0
    positive(t_max, "t_max", DataValidationError)

    episodes = []
    n_classes = 2
    # the arrays come in index order, as patient_index lists the unique ids
    for pid, (times, values, mask, delta_t) in sorted(zip(patient_index, _episode_arrays(
            patient, time, variable, value, len(patient_index), len(names), t_max))):
        if pid not in labels:
            raise CompletenessError(f"no label for patient {pid!r}")
        if np.any(times > t_max):
            raise DataValidationError(f"patient {pid!r} observed at t={times[-1]} "
                                      f"beyond t_max={t_max}")
        episodes.append(Episode(pid, times, values, mask, delta_t, labels[pid]))
        n_classes = max(n_classes, labels[pid] + 1)
    return Dataset(variables=names, episodes=episodes, t_max=float(t_max),
                   n_classes=n_classes)


# -- normalization -------------------------------------------------------

def training_stats(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-variable mean and std over observed entries of the training split.

    Variables never observed in training keep the identity transform;
    near-constant variables fall back to unit std.
    """
    v_count = train.n_variables
    means = np.zeros(v_count)
    stds = np.ones(v_count)
    for v in range(v_count):
        observed = [ep.values[ep.mask[:, v] == 1.0, v] for ep in train.episodes]
        observed = [o for o in observed if len(o)]
        if not observed:
            continue
        pooled = np.concatenate(observed)
        means[v] = pooled.mean()
        std = pooled.std()
        stds[v] = std if std >= 1e-8 else 1.0
    return means, stds


def apply_normalization(dataset: Dataset, means: np.ndarray, stds: np.ndarray) -> Dataset:
    episodes = []
    for ep in dataset.episodes:
        values = (ep.values - means[None, :]) / stds[None, :] * ep.mask
        episodes.append(replace(ep, values=values))
    return replace(dataset, episodes=episodes, norm_means=means.copy(),
                   norm_stds=stds.copy())


def normalize_splits(splits: DatasetSplits) -> DatasetSplits:
    """Z-score every split with statistics computed on training only."""
    means, stds = training_stats(splits.train)
    return DatasetSplits(*(apply_normalization(ds, means, stds)
                           for ds in (splits.train, splits.val, splits.test)))


# -- splitting -----------------------------------------------------------

def split_dataset(dataset: Dataset, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
                  seed: int = 0) -> DatasetSplits:
    """Seeded patient-level partition into train/val/test.

    ``ratios`` must be a list or tuple of three positive real numbers that
    sum to 1; anything else raises :class:`SizingError` naming it.
    """
    if not isinstance(ratios, (list, tuple)) or len(ratios) != 3:
        raise SizingError(f"split ratios must be three numbers (train, val, test) in a "
                          f"list, got {ratios!r}")
    ratios = tuple(ratios)
    for i, ratio in enumerate(ratios):
        real(ratio, f"split_ratios[{i}]", SizingError)
    if any(r <= 0 for r in ratios):
        raise SizingError(f"split ratios must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SizingError(f"split ratios must sum to 1, got {sum(ratios)}")
    episodes = sorted(dataset.episodes, key=lambda ep: ep.patient_id)
    rng = SplitMix64(seed).fork("split")
    rng.shuffle(episodes)
    n = len(episodes)
    cut1 = int(np.floor(n * ratios[0]))
    cut2 = int(np.floor(n * (ratios[0] + ratios[1])))
    parts = (episodes[:cut1], episodes[cut1:cut2], episodes[cut2:])
    for name, part in zip(("train", "val", "test"), parts):
        if not part:
            raise SizingError(f"{n} patients leave the {name} split empty "
                              f"at ratios {ratios}")
    return DatasetSplits(*(replace(dataset, episodes=sorted(p, key=lambda e: e.patient_id))
                           for p in parts))


def split_by_manifest(dataset: Dataset, manifest: dict[str, str]) -> DatasetSplits:
    buckets: dict[str, list[Episode]] = {"train": [], "val": [], "test": []}
    for ep in dataset.episodes:
        if ep.patient_id not in manifest:
            raise CompletenessError(f"patient {ep.patient_id!r} missing from splits manifest")
        buckets[manifest[ep.patient_id]].append(ep)
    for name, part in buckets.items():
        if not part:
            raise SizingError(f"the splits manifest leaves the {name} split empty")
    return DatasetSplits(*(replace(dataset, episodes=buckets[k])
                           for k in ("train", "val", "test")))


def leave_variables_out(splits: DatasetSplits, rate: float,
                        seed: int = 0) -> tuple[DatasetSplits, list[str]]:
    """Hide a seeded selection of floor(rate * V) variables from val/test.

    Hidden variables lose every observation (mask zeroed, values and
    intervals dropped) in the validation and test splits; training
    episodes are untouched. Returns the new splits and the hidden
    variable names. A rate too small to hide anything warns and returns
    the input unchanged.
    """
    if not 0.0 < rate < 1.0:
        raise DataValidationError(f"leave-out rate must be in (0, 1), got {rate}")
    v_count = splits.train.n_variables
    k = int(np.floor(rate * v_count))
    if k == 0:
        warnings.warn(f"leave-out rate {rate} hides no variable at V={v_count}",
                      stacklevel=2)
        return splits, []
    order = list(range(v_count))
    rng = SplitMix64(seed).fork("leave_variables_out")
    rng.shuffle(order)
    hidden = sorted(order[:k])

    def mask_dataset(ds: Dataset) -> Dataset:
        episodes = []
        for ep in ds.episodes:
            mask = ep.mask.copy()
            values = ep.values.copy()
            delta = ep.delta_t.copy()
            mask[:, hidden] = 0.0
            values[:, hidden] = 0.0
            delta[:, hidden] = 0.0
            episodes.append(replace(ep, values=values, mask=mask, delta_t=delta))
        return replace(ds, episodes=episodes)

    new_splits = DatasetSplits(train=splits.train, val=mask_dataset(splits.val),
                               test=mask_dataset(splits.test))
    return new_splits, [splits.train.variables[i] for i in hidden]


# -- synthetic generation --------------------------------------------------

def integral(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int if it is an integral number: 3.0 gives 3, while 3.5,
    true and "3" are refused with ``error``, which names ``name``."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise error(f"{name} must be an integral number, got {value!r}")


def seed_value(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as a seed: an integral number (see ``integral``) in
    [0, 2**64), the generator's range, so no two seeds alias."""
    seed = integral(value, name, error)
    if not 0 <= seed < 2**64:
        raise error(f"{name} must be in [0, 2**64), got {seed}")
    return seed


def real(value, name: str, error: type[ValueError] = ValueError):
    """``value`` unchanged if it is a real number (an int or a float, not a
    bool); anything else is refused with ``error``, which names ``name``."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return value
    raise error(f"{name} must be a real number, got {value!r}")


def finite(value, name: str, error: type[ValueError] = ValueError):
    """``value`` unchanged if it is a finite real number (see ``real``);
    anything else is refused with ``error``, which names ``name``. An int
    past the largest float counts as infinite, as in ``positive``."""
    if not abs(real(value, name, error)) <= sys.float_info.max:
        raise error(f"{name} must be finite, got {value}")
    return value


def positive(value, name: str, error: type[ValueError] = ValueError):
    """``value`` unchanged if it is a positive finite real number (see
    ``real``); anything else is refused with ``error``, which names ``name``.
    An int past the largest float counts as infinite: it cannot be used as one."""
    if not 0 < real(value, name, error) <= sys.float_info.max:
        raise error(f"{name} must be positive and finite, got {value}")
    return value


@dataclass
class SyntheticConfig:
    """Mean-reverting latent paths observed at Poisson times.

    Each variable follows an Ornstein-Uhlenbeck process with its own
    reversion rate, so the lag autocorrelation of variable v is
    exp(-decay_rate[v] * lag). Labels come from a deterministic logistic
    rule over per-variable summary features.
    """
    n_variables: int
    n_episodes: int
    decay_rates: list[float]
    means: list[float] | None = None
    noise_scales: list[float] | None = None
    obs_per_episode: float = 20.0     # expected observations per variable
    missing_prob: float = 0.0
    horizon: float = 48.0
    label_coeffs: list | None = None  # (V,) binary or (C, V) multi-class; None: all 1
    label_bias: float | list = 0.0
    label_summary: str = "mean"       # mean | last | decay_mean
    n_classes: int = 2
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_variables", "n_episodes", "n_classes"):
            setattr(self, name, integral(getattr(self, name), name, SyntheticConfigError))
        self.seed = seed_value(self.seed, "seed", SyntheticConfigError)
        real(self.missing_prob, "missing_prob", SyntheticConfigError)
        for name in ("decay_rates", "means", "noise_scales", "label_coeffs"):
            values = getattr(self, name)
            if values is None and name != "decay_rates":
                continue
            if not isinstance(values, (list, tuple)):
                raise SyntheticConfigError(f"{name} must be a list, got {values!r}")
            for i, entry in enumerate(values):
                if isinstance(entry, (list, tuple)):  # a multi-class label_coeffs row
                    for j, value in enumerate(entry):
                        finite(value, f"{name}[{i}][{j}]", SyntheticConfigError)
                else:
                    finite(entry, f"{name}[{i}]", SyntheticConfigError)
        if self.n_variables < 1:
            raise SyntheticConfigError(f"n_variables must be >= 1, got {self.n_variables}")
        if self.n_episodes < 1:
            raise SyntheticConfigError(f"n_episodes must be >= 1, got {self.n_episodes}")
        for name in ("decay_rates", "means", "noise_scales"):
            values = getattr(self, name)
            if values is not None and len(values) != self.n_variables:
                raise SyntheticConfigError(f"{name} length must equal n_variables")
        if any(r <= 0 for r in self.decay_rates):
            raise SyntheticConfigError("decay rates must be positive")
        if self.noise_scales is not None and not all(s >= 0 for s in self.noise_scales):
            raise SyntheticConfigError(f"noise_scales must be >= 0, got {self.noise_scales}")
        if not 0.0 <= self.missing_prob < 1.0:
            raise SyntheticConfigError(f"missing_prob must be in [0, 1), got {self.missing_prob}")
        positive(self.horizon, "horizon", SyntheticConfigError)
        positive(self.obs_per_episode, "obs_per_episode", SyntheticConfigError)
        if self.label_summary not in ("mean", "last", "decay_mean"):
            raise SyntheticConfigError(f"unknown label summary {self.label_summary!r}")
        if self.n_classes < 2:
            raise SyntheticConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.n_classes > 2 and isinstance(self.label_bias, (list, tuple)):
            if len(self.label_bias) != self.n_classes:
                raise SyntheticConfigError(f"multi-class label_bias must hold n_classes="
                                           f"{self.n_classes} numbers, got {self.label_bias}")
            for i, value in enumerate(self.label_bias):
                real(value, f"label_bias[{i}]", SyntheticConfigError)
        else:
            real(self.label_bias, "label_bias", SyntheticConfigError)
        if self.label_coeffs is None:
            self.label_coeffs = [1.0] * self.n_variables
        coeffs = np.asarray(self.label_coeffs, dtype=np.float64)
        if self.n_classes == 2:
            if coeffs.shape != (self.n_variables,):
                raise SyntheticConfigError(f"binary label_coeffs must have shape "
                                           f"({self.n_variables},), got {coeffs.shape}")
        elif coeffs.shape != (self.n_classes, self.n_variables):
            raise SyntheticConfigError(f"multi-class label_coeffs must have shape "
                                       f"({self.n_classes}, {self.n_variables})")


def ou_stationary_draw(mu: float, sigma: float, rate: float, rng: SplitMix64) -> float:
    return rng.normal(mu, sigma / np.sqrt(2.0 * rate))


def ou_step(x: float, dt: float, mu: float, sigma: float, rate: float,
            rng: SplitMix64) -> float:
    """Exact mean-reverting transition over an arbitrary gap."""
    decay = np.exp(-rate * dt)
    std = sigma * np.sqrt((1.0 - decay * decay) / (2.0 * rate))
    return mu + (x - mu) * decay + std * rng.normal()


def poisson_process_times(rate: float, horizon: float, rng: SplitMix64) -> list[float]:
    times = []
    t = rng.exponential(rate)
    while t < horizon:
        times.append(t)
        t += rng.exponential(rate)
    return times


def _summary_features(cfg: SyntheticConfig,
                      observed: list[list[tuple[float, float]]]) -> np.ndarray:
    feats = np.zeros(cfg.n_variables)
    for v, obs in enumerate(observed):
        if not obs:
            continue
        if cfg.label_summary == "mean":
            feats[v] = float(np.mean([x for _, x in obs]))
        elif cfg.label_summary == "last":
            feats[v] = obs[-1][1]
        else:  # decay_mean: recent observations dominate at the variable's own rate
            rate = cfg.decay_rates[v]
            weights = np.array([np.exp(-rate * (cfg.horizon - t)) for t, _ in obs])
            values = np.array([x for _, x in obs])
            feats[v] = float((weights * values).sum() / weights.sum())
    return feats


def _label_from_features(cfg: SyntheticConfig, feats: np.ndarray) -> int:
    coeffs = np.asarray(cfg.label_coeffs, dtype=np.float64)
    if cfg.n_classes == 2:
        score = float(coeffs @ feats) + float(cfg.label_bias)
        return 1 if score > 0 else 0
    bias = np.asarray(cfg.label_bias, dtype=np.float64)
    if bias.ndim == 0:
        bias = np.full(cfg.n_classes, float(bias))
    return int(np.argmax(coeffs @ feats + bias))


def synthesize(config: SyntheticConfig) -> Dataset:
    """Fully seeded synthetic dataset; bit-reproducible for a fixed seed."""
    config.validate()
    root = SplitMix64(config.seed)
    mus = np.zeros(config.n_variables) if config.means is None else config.means
    sigmas = np.ones(config.n_variables) if config.noise_scales is None else config.noise_scales
    obs_rate = config.obs_per_episode / config.horizon

    labels: list[int] = []
    rows: list[tuple[int, float, int, float]] = []  # (episode, time, variable, value)
    for e in range(config.n_episodes):
        ep_rng = root.fork(f"episode:{e}")
        observed: list[list[tuple[float, float]]] = []
        for v in range(config.n_variables):
            v_rng = ep_rng.fork(f"variable:{v}")
            times = poisson_process_times(obs_rate, config.horizon, v_rng)
            rate = config.decay_rates[v]
            kept: list[tuple[float, float]] = []
            x = ou_stationary_draw(mus[v], sigmas[v], rate, v_rng)
            prev_t = None
            for t in times:
                if prev_t is not None:
                    x = ou_step(x, t - prev_t, mus[v], sigmas[v], rate, v_rng)
                prev_t = t
                if v_rng.uniform() >= config.missing_prob:
                    kept.append((t, x))
            observed.append(kept)

        labels.append(_label_from_features(config, _summary_features(config, observed)))
        rows.extend((e, t, v, x) for v, obs in enumerate(observed) for t, x in obs)

    patient, time, variable, value = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    arrays = _episode_arrays(patient.astype(np.int64), time, variable.astype(np.int64), value,
                             config.n_episodes, config.n_variables, config.horizon)
    episodes = [Episode(f"synth{e:05d}", *ep_arrays, label)
                for e, (ep_arrays, label) in enumerate(zip(arrays, labels))]
    return Dataset(variables=[f"var{v}" for v in range(config.n_variables)],
                   episodes=episodes, t_max=config.horizon, n_classes=config.n_classes)


# -- writers ---------------------------------------------------------------

def write_lines(path, lines: Iterable[str]) -> None:
    """``lines`` to ``path`` as UTF-8, each ended by ``\\n``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    """``payload`` to ``path`` as indented JSON with sorted keys and a final ``\\n``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_observations_csv(dataset: Dataset, path: str) -> None:
    write_lines(path, ["patient_id,time,variable,value"] + [
        f"{ep.patient_id},{float(t)!r},{dataset.variables[v]},{float(ep.values[step, v])!r}"
        for ep in dataset.episodes for step, t in enumerate(ep.times)
        for v in np.flatnonzero(ep.mask[step])])


def write_labels_csv(dataset: Dataset, path: str) -> None:
    write_lines(path, ["patient_id,label"] + [f"{ep.patient_id},{ep.label}"
                                              for ep in dataset.episodes])


def write_splits_csv(assignment: Iterable[tuple[str, str]], path: str) -> None:
    write_lines(path, ["patient_id,split"] + [f"{pid},{name}" for pid, name in assignment])
