"""Oracle for ``data.load_dataset``: the dict-based loader it replaced.

``load_dataset`` reads observations into typed columns and builds each
episode with numpy. Here is the loader it replaced, which read the whole
file into a list of split lines and kept every observation in a
patient -> time -> {variable index: value} dict of dicts, with the
``episode`` builder that turned one patient's dict into arrays. Its
datasets, warnings and errors are what ``load_dataset`` must reproduce,
array byte for array byte, on inputs in the documented format with at
most one bad line. Outside that the two differ on purpose. This loader
takes what ``float`` and ``int`` take (``1_0``, `` 7``) and resolves a
patient listed twice in the labels file last-wins. It refuses an empty
patient id or variable name, or one with surrounding whitespace, with
the same error. Given several bad
lines, it reports a wrong field count anywhere in the observations file,
then a bad labels file, before a bad observation field; ``load_dataset``
reports the first bad line of the observations file, then of the labels
file.
"""

from __future__ import annotations

import warnings

import numpy as np

from decaygraph.data import (CompletenessError, DataValidationError, Dataset, Episode,
                             ParseError, SchemaError, _fill_delta_t)


def episode(pid: str, by_time: dict[float, dict[int, float]], n_variables: int,
            t_max: float, label: int) -> Episode:
    """Episode from ``{time: {variable index: value}}``; one step per time."""
    times = np.asarray(sorted(by_time), dtype=np.float64)
    if np.any(times > t_max):
        raise DataValidationError(f"patient {pid!r} observed at t={times[-1]} "
                                  f"beyond t_max={t_max}")
    values = np.zeros((len(times), n_variables), dtype=np.float64)
    mask = np.zeros((len(times), n_variables), dtype=np.float64)
    for step, t in enumerate(times):
        for v, x in by_time[t].items():
            values[step, v] = x
            mask[step, v] = 1.0
    return Episode(pid, times, values, mask, _fill_delta_t(times, mask, t_max), label)


def _read_rows(path: str, expected_header: str) -> list[tuple[int, list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0] != expected_header:
        raise ParseError(f"{path}:1: expected header {expected_header!r}, "
                         f"got {lines[0] if lines else ''!r}")
    n_fields = expected_header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise ParseError(f"{path}:{lineno}: expected {n_fields} fields, "
                             f"got {len(fields)}")
        _check_name(path, lineno, fields[0], "patient_id")
        rows.append((lineno, fields))
    return rows


def _check_name(path: str, lineno: int, text: str, what: str) -> None:
    if text == "" or text != text.strip():
        raise ParseError(f"{path}:{lineno}: {what} {text!r} is empty or has "
                         f"surrounding whitespace")


def _parse_float(path: str, lineno: int, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: {what} {text!r} is not a number") from None
    if not np.isfinite(value):
        raise ParseError(f"{path}:{lineno}: {what} must be finite, got {text!r}")
    return value


def load_labels(path: str) -> dict[str, int]:
    labels: dict[str, int] = {}
    for lineno, (pid, text) in _read_rows(path, "patient_id,label"):
        try:
            label = int(text)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: label {text!r} is not an integer") from None
        if label < 0:
            raise ParseError(f"{path}:{lineno}: label must be non-negative, got {label}")
        labels[pid] = label
    return labels


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
    rows = _read_rows(observations_path, "patient_id,time,variable,value")
    labels = load_labels(labels_path)

    if variables is None:
        names = sorted({fields[2] for _, fields in rows})
    else:
        names = list(variables)
    var_index = {name: i for i, name in enumerate(names)}

    # patient -> time -> {variable index: value}; file order keeps the
    # last duplicate row authoritative
    per_patient: dict[str, dict[float, dict[int, float]]] = {}
    max_time = 0.0
    for lineno, (pid, time_text, var_name, value_text) in rows:
        time = _parse_float(observations_path, lineno, time_text, "time")
        if time < 0:
            raise ParseError(f"{observations_path}:{lineno}: time must be "
                             f"non-negative, got {time}")
        value = _parse_float(observations_path, lineno, value_text, "value")
        _check_name(observations_path, lineno, var_name, "variable")
        if var_name not in var_index:
            raise SchemaError(f"{observations_path}:{lineno}: unknown variable "
                              f"{var_name!r}")
        per_patient.setdefault(pid, {}).setdefault(time, {})[var_index[var_name]] = value
        max_time = max(max_time, time)
    n_unobserved = len(labels.keys() - per_patient.keys())
    if n_unobserved:
        warnings.warn(f"{n_unobserved} labelled patients have no observations "
                      f"and are dropped", stacklevel=2)

    if t_max is None:
        t_max = max_time if per_patient else 1.0
    if not (np.isfinite(t_max) and t_max > 0):
        raise DataValidationError(f"t_max must be positive and finite, got {t_max}")

    episodes = []
    n_classes = 2
    for pid in sorted(per_patient):
        if pid not in labels:
            raise CompletenessError(f"no label for patient {pid!r}")
        episodes.append(episode(pid, per_patient[pid], len(names), t_max, labels[pid]))
        n_classes = max(n_classes, labels[pid] + 1)
    return Dataset(variables=names, episodes=episodes, t_max=float(t_max),
                   n_classes=n_classes)
