"""Dataset loading, elapsed intervals, splitting and synthesis."""

import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaygraph import data as dg
from decaygraph.data import (CompletenessError, DataValidationError, ParseError,
                             SchemaError, SizingError, SyntheticConfig,
                             SyntheticConfigError, delta_t_from_times,
                             leave_variables_out, load_dataset, normalize_splits,
                             split_dataset, synthesize)
from decaygraph.cli import DEFAULT_SYNTHETIC
from decaygraph.rng import SplitMix64

import dict_loader


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


OBS_HEADER = "patient_id,time,variable,value\n"
LAB_HEADER = "patient_id,label\n"


# -- elapsed intervals ----------------------------------------------------------

def test_delta_t_both_neighbours():
    out = delta_t_from_times(np.array([2.0, 5.0, 6.0]), t_max=48.0)
    assert out[1] == pytest.approx(2.0)  # ((5-2) + (6-5)) / 2


def test_delta_t_only_previous():
    out = delta_t_from_times(np.array([1.0, 4.0]), t_max=48.0)
    assert out[1] == pytest.approx(3.0)


def test_delta_t_only_next():
    out = delta_t_from_times(np.array([1.0, 4.0]), t_max=48.0)
    assert out[0] == pytest.approx(3.0)


def test_delta_t_isolated_observation():
    out = delta_t_from_times(np.array([7.0]), t_max=48.0)
    assert out[0] == pytest.approx(24.0)


def test_delta_t_exhaustive_branches():
    # 3 observations: ends get one-neighbour gaps, middle gets the mean
    out = delta_t_from_times(np.array([0.0, 2.0, 8.0]), t_max=40.0)
    np.testing.assert_allclose(out, [2.0, 4.0, 6.0])


def test_delta_t_positive_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(50):
        times = np.unique(rng.uniform(0, 48, rng.integers(1, 10)))
        out = delta_t_from_times(times, t_max=48.0)
        assert np.all(out > 0)
        assert np.all(out <= 48.0)


def delta_t_loop_oracle(times, t_max):
    """The per-element reading of the interval rule."""
    n = len(times)
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        has_prev = i > 0
        has_next = i < n - 1
        if has_prev and has_next:
            out[i] = 0.5 * ((times[i] - times[i - 1]) + (times[i + 1] - times[i]))
        elif has_prev:
            out[i] = times[i] - times[i - 1]
        elif has_next:
            out[i] = times[i + 1] - times[i]
        else:
            out[i] = t_max / 2.0
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), max_size=40, unique=True),
       st.floats(1e-3, 1e6))
def test_delta_t_matches_loop_oracle_bitwise(raw, t_max):
    times = np.sort(np.asarray(raw, dtype=np.float64))
    np.testing.assert_array_equal(delta_t_from_times(times, t_max),
                                  delta_t_loop_oracle(times, t_max))


def test_truncate_episodes_recomputes_intervals():
    cfg = SyntheticConfig(n_variables=2, n_episodes=3, decay_rates=[1.0, 0.5],
                          obs_per_episode=6.0, horizon=24.0, seed=5,
                          label_coeffs=[1.0, -1.0])
    ds = synthesize(cfg)
    for ep, cut in zip(ds.episodes, dg.truncate_episodes(ds.episodes, 3, 24.0)):
        k = min(3, ep.n_steps)
        assert cut.n_steps == k and cut.label == ep.label
        np.testing.assert_array_equal(cut.values, ep.values[:k])
        for v in range(2):
            steps = np.flatnonzero(cut.mask[:, v])
            np.testing.assert_array_equal(cut.delta_t[steps, v],
                                          delta_t_from_times(cut.times[steps], 24.0))


# -- loading ---------------------------------------------------------------------

def test_load_two_patients(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER +
                "pa,1.0,hr,70\npa,2.0,temp,37\npb,1.5,hr,80\npb,1.5,rr,18\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\npb,1\n")
    ds = load_dataset(obs, lab)
    assert ds.variables == ["hr", "rr", "temp"]
    assert len(ds) == 2
    pa, pb = ds.episodes
    assert pa.patient_id == "pa"
    np.testing.assert_array_equal(pa.mask, [[1, 0, 0], [0, 0, 1]])
    np.testing.assert_array_equal(pb.mask, [[1, 1, 0]])
    assert pb.values[0, 0] == 80.0


def test_load_empty_observations(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER)
    lab = write(tmp_path, "l.csv", LAB_HEADER)
    ds = load_dataset(obs, lab)
    assert len(ds) == 0


def test_labelled_patients_without_observations_warn(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER + "pa,1.0,hr,5\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\npb,1\npc,0\n")
    with pytest.warns(UserWarning, match="2 labelled patients have no observations"):
        ds = load_dataset(obs, lab)
    assert [ep.patient_id for ep in ds.episodes] == ["pa"]


def test_duplicate_rows_last_wins(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER + "pa,1.0,hr,70\npa,1.0,hr,75\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\n")
    ds = load_dataset(obs, lab)
    ep = ds.episodes[0]
    assert ep.values[0, 0] == 75.0
    assert ep.mask[0, 0] == 1.0


def test_malformed_line_reports_line_number(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER + "pa,1.0,hr,70\npa,oops,hr\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\n")
    with pytest.raises(ParseError, match=":3:"):
        load_dataset(obs, lab)


def test_non_numeric_time_reports_line_number(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER + "pa,noon,hr,70\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\n")
    with pytest.raises(ParseError, match=":2:.*noon"):
        load_dataset(obs, lab)


def test_unknown_variable_is_schema_error(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER + "pa,1.0,mystery,70\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\n")
    with pytest.raises(SchemaError, match="mystery"):
        load_dataset(obs, lab, variables=["hr", "temp"])


def test_missing_label_is_completeness_error(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER + "pa,1.0,hr,70\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER)
    with pytest.raises(CompletenessError, match="pa"):
        load_dataset(obs, lab)


def test_time_beyond_horizon_rejected(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER + "pa,50.0,hr,70\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\n")
    with pytest.raises(DataValidationError,
                       match=r"patient 'pa' observed at t=50\.0 beyond t_max=48\.0"):
        load_dataset(obs, lab, t_max=48.0)


def test_bad_header_rejected(tmp_path):
    obs = write(tmp_path, "o.csv", "id,time,var,val\npa,1.0,hr,70\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\n")
    with pytest.raises(ParseError, match=":1:"):
        load_dataset(obs, lab)


@pytest.mark.parametrize("row,field,text", [
    ("pa,1_0,hr,70", "time", "1_0"), ("pa, 1.0,hr,70", "time", " 1.0"),
    ("pa,1.0 ,hr,70", "time", "1.0 "), ("pa,1.0,hr, 7", "value", " 7"),
    ("pa,1.0,hr,7\r", "value", "7\r"), ("pa,1.0,hr,\u0667", "value", "\u0667"),
    ("pa,1.0,hr,0x7", "value", "0x7")])
def test_number_outside_the_grammar_is_refused(tmp_path, row, field, text):
    obs = write(tmp_path, "o.csv", OBS_HEADER + "pa,0.5,hr,1\n" + row + "\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\n")
    with pytest.raises(ParseError) as err:
        load_dataset(obs, lab)
    assert str(err.value) == f"{obs}:3: {field} {text!r} is not a number"


@pytest.mark.parametrize("text", ["0_1", " 1", "1 ", "+\u0661", "1.0", "1e0"])
def test_label_outside_the_grammar_is_refused(tmp_path, text):
    lab = write(tmp_path, "l.csv", LAB_HEADER + f"pa,{text}\n")
    with pytest.raises(ParseError) as err:
        dg.load_labels(lab)
    assert str(err.value) == f"{lab}:2: label {text!r} is not an integer"


def test_numbers_in_the_grammar_load():
    for text, value in (("1", 1.0), ("+1.", 1.0), (".5", 0.5), ("-2.5E+1", -25.0),
                        ("1e-3", 0.001), ("-0", 0.0)):
        assert dg._parse_float("f", 2, text, "value") == value
    with pytest.raises(ParseError, match="must be finite, got 'NaN'"):
        dg._parse_float("f", 2, "NaN", "value")
    with pytest.raises(ParseError, match="must be finite, got '1e999'"):
        dg._parse_float("f", 2, "1e999", "value")


@pytest.mark.parametrize("loader,header,rows", [
    (dg.load_labels, LAB_HEADER, "p1,0\np2,1\n\np1,1\n"),
    (dg.load_split_manifest, "patient_id,split\n", "p1,train\np2,val\n\np1,test\n")])
def test_patient_listed_twice_is_refused(tmp_path, loader, header, rows):
    path = write(tmp_path, "f.csv", header + rows)
    with pytest.raises(ParseError) as err:
        loader(path)
    assert str(err.value) == f"{path}:5: patient 'p1' is listed again, first on line 2"


@pytest.mark.parametrize("row,field,text", [
    (" pa,1.0,hr,70", "patient_id", " pa"), ("pa\t,1.0,hr,70", "patient_id", "pa\t"),
    (",1.0,hr,70", "patient_id", ""), ("pa,1.0, hr,70", "variable", " hr"),
    ("pa,1.0,hr ,70", "variable", "hr "), ("pa,1.0,,70", "variable", "")])
@pytest.mark.parametrize("variables", [None, ["hr"]])
def test_observation_names_that_are_empty_or_padded_are_refused(tmp_path, row, field, text,
                                                                variables):
    obs = write(tmp_path, "o.csv", OBS_HEADER + "pa,0.5,hr,1\n" + row + "\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\n")
    with pytest.raises(ParseError) as err:
        load_dataset(obs, lab, variables=variables)
    assert str(err.value) == (f"{obs}:3: {field} {text!r} is empty or has "
                              f"surrounding whitespace")


@pytest.mark.parametrize("loader,header,row", [
    (dg.load_labels, LAB_HEADER, " pa,0"), (dg.load_labels, LAB_HEADER, ",1"),
    (dg.load_split_manifest, "patient_id,split\n", "pa ,train"),
    (dg.load_split_manifest, "patient_id,split\n", ",val")])
def test_patient_ids_that_are_empty_or_padded_are_refused(tmp_path, loader, header, row):
    path = write(tmp_path, "f.csv", header + row + "\n")
    with pytest.raises(ParseError) as err:
        loader(path)
    text = row.split(",")[0]
    assert str(err.value) == (f"{path}:2: patient_id {text!r} is empty or has "
                              f"surrounding whitespace")


def test_one_time_written_three_ways_is_one_step(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER +
                "pa,1,hr,70\npa,1.0,rr,18\npa,1e0,temp,37\npa,-0,rr,12\npa,0,hr,60\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\n")
    ep = load_dataset(obs, lab).episodes[0]
    np.testing.assert_array_equal(ep.mask, [[1, 1, 0], [1, 1, 1]])
    # the step keeps its time as first written: -0 here
    assert ep.times.tobytes() == np.array([-0.0, 1.0]).tobytes()


# -- the columnar loader against the dict-based one -----------------------------

ORACLE_VARIABLES = ["hr", "map", "rr", "temp"]


def time_texts(k):
    """Ways to write the time ``k / 2``: ``1``, ``1.0`` and ``1e0`` are one
    time, and so are ``0`` and ``-0``."""
    if k % 2:
        return [repr(k / 2), f"{k / 2}e0", f"{k * 5}e-1"]
    texts = [str(k // 2), f"{k // 2}.0", f"{k // 2}e0", f"{k // 2}.0E+00"]
    return texts + ["-0", "-0.0", "-0e0"] if k == 0 else texts


value_texts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-100, 100).map(str), st.sampled_from(["-0", "0.0", "1e-300", "5e-324"]))

CORRUPTIONS = {
    "obs": ["pa,1.0,hr", "pa,1.0,hr,70,1", "pa,noon,hr,70", "pa,nan,hr,70",
            "pa,-1,hr,70", "pa,1e999,hr,70", "pa,1.0,hr,x", "pa,1.0,hr,inf",
            "pa,1.0,mystery,70", "patient_id,time,variable,value", " pa,1.0,hr,70",
            ",1.0,hr,70", "pa,1.0,hr ,70", "pa,1.0,,70"],
    "lab": ["pa", "pa,x", "pa,-1", "pa,1.5", "pa,0,1", "pa ,0", ",1"],
    "obs_header": ["id,time,var,val"],
    "lab_header": ["patient_id,class"],
}


@st.composite
def observation_files(draw):
    """An observations and a labels file, with load_dataset's keywords.

    Rows are drawn with replacement from few patients, times and variables,
    so duplicate (patient, time, variable) rows are common. Some observed
    patients may lack a label and some labelled ones lack observations; a
    given ``t_max`` may fall below an observed time and given ``variables``
    may miss one that is observed. Otherwise at most one line is corrupted."""
    pids = draw(st.lists(csv_names, min_size=1, max_size=6, unique=True))
    seen = draw(st.lists(st.sampled_from(ORACLE_VARIABLES), min_size=1, unique=True))
    rows = draw(st.lists(st.tuples(st.sampled_from(pids), st.integers(0, 5),
                                   st.sampled_from(seen), value_texts), max_size=40))
    obs = ["patient_id,time,variable,value"]
    for pid, k, var, value in rows:
        obs.append(f"{pid},{draw(st.sampled_from(time_texts(k)))},{var},{value}")
        if draw(st.integers(0, 9)) == 0:
            obs.append("")
    observed = sorted({row[0] for row in rows})
    unlabelled = draw(st.sets(st.sampled_from(observed))) if observed else set()
    if draw(st.integers(0, 3)):  # mostly every observed patient is labelled
        unlabelled = set()
    labelled = [pid for pid in pids if pid not in unlabelled]
    lab = ["patient_id,label"] + [f"{pid},{draw(st.integers(0, 3))}"
                                  for pid in draw(st.permutations(labelled))]
    kind = draw(st.sampled_from([None] * 4 + list(CORRUPTIONS)))
    if kind is not None:
        lines = obs if kind.startswith("obs") else lab
        at = 0 if kind.endswith("header") else draw(st.integers(1, len(lines)))
        line = draw(st.sampled_from(CORRUPTIONS[kind]))
        if at == len(lines):
            lines.append(line)
        else:
            lines[at] = line
    t_max = draw(st.sampled_from([None, None, 0.5, 2.0, 4.0, 48.0]))
    # a list that misses an observed variable makes every such row bad
    partial = st.lists(st.sampled_from(ORACLE_VARIABLES), unique=True)
    variables = draw(st.one_of(st.none(), st.permutations(ORACLE_VARIABLES),
                               *([partial] if kind is None else [])))
    ending = draw(st.sampled_from(["\n", ""]))
    return "\n".join(obs) + ending, "\n".join(lab) + "\n", t_max, variables


def load_outcome(loader, obs_path, lab_path, t_max, variables):
    """A loader's dataset as bytes, or its error; with its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = loader(obs_path, lab_path, t_max=t_max, variables=variables)
        except ValueError as err:
            result = (type(err), str(err))
        else:
            result = (ds.variables, repr(ds.t_max), ds.n_classes, [
                (ep.patient_id, ep.label, [(a.dtype.str, a.shape, a.flags.c_contiguous,
                                            a.tobytes())
                                           for a in (ep.times, ep.values, ep.mask, ep.delta_t)])
                for ep in ds.episodes])
    return result, [(w.category, str(w.message)) for w in caught
                    if issubclass(w.category, UserWarning)]


@settings(max_examples=300, deadline=None)
@given(files=observation_files())
def test_loader_matches_the_dict_based_oracle(files):
    obs_text, lab_text, t_max, variables = files
    with tempfile.TemporaryDirectory() as tmp:
        obs_path, lab_path = f"{tmp}/obs.csv", f"{tmp}/lab.csv"
        with open(obs_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(obs_text)
        with open(lab_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(lab_text)
        expected = load_outcome(dict_loader.load_dataset, obs_path, lab_path, t_max, variables)
        got = load_outcome(load_dataset, obs_path, lab_path, t_max, variables)
    assert got == expected


def test_loader_peak_memory_per_row(tmp_path):
    """tracemalloc peak of load_dataset on the 320-episode evaluation set of
    the benchmark (6 variables, 17417 rows), per observation row. The
    dict-based loader peaked at 969 bytes per row (16.9 MB), the columnar one
    at 271 (the episode arrays it returns are 165 of them); 400 leaves room
    for allocator detail but not for a Python object per row."""
    cfg = SyntheticConfig(**{**DEFAULT_SYNTHETIC, "n_episodes": 320, "seed": 1})
    ds = synthesize(cfg)
    obs_path, lab_path = str(tmp_path / "obs.csv"), str(tmp_path / "lab.csv")
    dg.write_observations_csv(ds, obs_path)
    dg.write_labels_csv(ds, lab_path)
    n_rows = int(sum(ep.mask.sum() for ep in ds.episodes))
    assert n_rows == 17417
    tracemalloc.start()
    try:
        loaded = load_dataset(obs_path, lab_path, t_max=48.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == 320
    assert peak / n_rows < 400, f"{peak / n_rows:.0f} bytes per row"


# -- normalization ------------------------------------------------------------------

def make_synthetic_splits(seed=0, n=20, v=3):
    cfg = SyntheticConfig(n_variables=v, n_episodes=n,
                          decay_rates=[0.5] * v, obs_per_episode=6.0,
                          horizon=24.0, seed=seed, label_coeffs=[1.0] * v)
    ds = synthesize(cfg)
    return split_dataset(ds, ratios=(0.6, 0.2, 0.2), seed=seed)


def test_normalize_two_point_variable(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER +
                "pa,1.0,hr,0\npa,2.0,hr,2\npb,1.0,hr,0\npb,2.0,hr,2\npc,1.0,hr,1\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\npb,1\npc,0\n")
    ds = load_dataset(obs, lab)
    splits = dg.DatasetSplits(train=dg.Dataset(ds.variables, ds.episodes[:2], ds.t_max, 2),
                              val=dg.Dataset(ds.variables, ds.episodes[2:], ds.t_max, 2),
                              test=dg.Dataset(ds.variables, ds.episodes[2:], ds.t_max, 2))
    out = normalize_splits(splits)
    ep = out.train.episodes[0]
    np.testing.assert_allclose(ep.values[:, 0], [-1.0, 1.0])


def test_normalize_constant_variable_maps_to_zero(tmp_path):
    obs = write(tmp_path, "o.csv", OBS_HEADER + "pa,1.0,hr,5\npa,2.0,hr,5\n")
    lab = write(tmp_path, "l.csv", LAB_HEADER + "pa,0\n")
    ds = load_dataset(obs, lab)
    splits = dg.DatasetSplits(train=ds, val=ds, test=ds)
    out = normalize_splits(splits)
    np.testing.assert_array_equal(out.train.episodes[0].values[:, 0], [0.0, 0.0])
    assert out.train.norm_stds[0] == 1.0


def test_normalize_unobserved_variable_identity():
    means, stds = dg.training_stats(
        dg.Dataset(["a"], [], t_max=10.0, n_classes=2))
    assert means[0] == 0.0 and stds[0] == 1.0


# -- splitting -----------------------------------------------------------------------

def test_split_sizes_eight_one_one():
    cfg = SyntheticConfig(n_variables=2, n_episodes=10, decay_rates=[1.0, 1.0],
                          obs_per_episode=4.0, horizon=24.0, seed=0,
                          label_coeffs=[1.0, 1.0])
    ds = synthesize(cfg)
    splits = split_dataset(ds, ratios=(0.8, 0.1, 0.1), seed=0)
    assert (len(splits.train), len(splits.val), len(splits.test)) == (8, 1, 1)


def test_split_deterministic_and_partition():
    splits = make_synthetic_splits(seed=0)
    again = make_synthetic_splits(seed=0)
    for a, b in ((splits.train, again.train), (splits.val, again.val),
                 (splits.test, again.test)):
        assert [ep.patient_id for ep in a.episodes] == [ep.patient_id for ep in b.episodes]
    for seed in range(5):
        s = make_synthetic_splits(seed=seed)
        ids = [ep.patient_id for part in (s.train, s.val, s.test) for ep in part.episodes]
        assert len(ids) == len(set(ids)) == 20


def test_split_sizing_error():
    cfg = SyntheticConfig(n_variables=1, n_episodes=2, decay_rates=[1.0],
                          obs_per_episode=3.0, horizon=10.0, seed=0,
                          label_coeffs=[1.0])
    ds = synthesize(cfg)
    with pytest.raises(SizingError):
        split_dataset(ds, ratios=(0.8, 0.1, 0.1), seed=0)


def test_split_ratio_validation():
    ds = synthesize(SyntheticConfig(n_variables=1, n_episodes=5, decay_rates=[1.0],
                                    obs_per_episode=3.0, horizon=10.0, seed=0,
                                    label_coeffs=[1.0]))
    with pytest.raises(SizingError):
        split_dataset(ds, ratios=(0.5, 0.2, 0.2), seed=0)
    for ratios in ((0.25, 0.25, 0.25, 0.25), (0.5, 0.5)):
        with pytest.raises(SizingError, match="three numbers"):
            split_dataset(ds, ratios=ratios, seed=0)


@pytest.mark.parametrize("empty", ["train", "val", "test"])
def test_split_by_manifest_refuses_an_empty_split(empty):
    ds = synthesize(SyntheticConfig(n_variables=1, n_episodes=6, decay_rates=[1.0],
                                    obs_per_episode=3.0, horizon=10.0, seed=0,
                                    label_coeffs=[1.0]))
    names = [name for name in ("train", "val", "test") if name != empty]
    manifest = {ep.patient_id: names[i % 2] for i, ep in enumerate(ds.episodes)}
    with pytest.raises(SizingError, match=f"leaves the {empty} split empty"):
        dg.split_by_manifest(ds, manifest)


# -- leave variables out ----------------------------------------------------------------

def test_leave_out_hides_exact_count():
    splits = make_synthetic_splits(n=20, v=10, seed=2)
    masked, hidden = leave_variables_out(splits, rate=0.3, seed=0)
    assert len(hidden) == 3
    hidden_idx = [splits.train.variables.index(h) for h in hidden]
    for ds in (masked.val, masked.test):
        for ep in ds.episodes:
            assert ep.mask[:, hidden_idx].sum() == 0.0
            assert np.all(ep.values[:, hidden_idx] == 0.0)


def test_leave_out_training_untouched():
    splits = make_synthetic_splits(n=20, v=10, seed=2)
    masked, _ = leave_variables_out(splits, rate=0.5, seed=1)
    for before, after in zip(splits.train.episodes, masked.train.episodes):
        np.testing.assert_array_equal(before.mask, after.mask)
        np.testing.assert_array_equal(before.values, after.values)


def test_leave_out_zero_variables_warns_and_is_noop():
    splits = make_synthetic_splits(n=20, v=3, seed=2)
    with pytest.warns(UserWarning):
        masked, hidden = leave_variables_out(splits, rate=0.1, seed=0)
    assert hidden == []
    assert masked is splits


def test_leave_out_rate_validation():
    splits = make_synthetic_splits()
    with pytest.raises(DataValidationError):
        leave_variables_out(splits, rate=1.5, seed=0)


# -- synthesis -----------------------------------------------------------------------

def test_fast_rate_kills_lag_autocorrelation():
    # 1e5 pairs push the sampling noise well below the 0.01 bound
    rng = SplitMix64(1)
    xs, ys = [], []
    for i in range(100000):
        r = rng.fork(f"{i}")
        x0 = dg.ou_stationary_draw(0.0, 1.0, 50.0, r)
        x1 = dg.ou_step(x0, 1.0, 0.0, 1.0, 50.0, r)
        xs.append(x0)
        ys.append(x1)
    corr = np.corrcoef(xs, ys)[0, 1]
    assert abs(corr) < 0.01


def test_slow_rate_matches_closed_form():
    rng = SplitMix64(2)
    xs, ys = [], []
    for i in range(20000):
        r = rng.fork(f"{i}")
        x0 = dg.ou_stationary_draw(0.0, 1.0, 0.05, r)
        x1 = dg.ou_step(x0, 1.0, 0.0, 1.0, 0.05, r)
        xs.append(x0)
        ys.append(x1)
    corr = np.corrcoef(xs, ys)[0, 1]
    assert corr == pytest.approx(np.exp(-0.05), abs=0.02)


def test_poisson_observation_count_concentrates():
    cfg = SyntheticConfig(n_variables=1, n_episodes=200, decay_rates=[1.0],
                          obs_per_episode=12.0, missing_prob=0.0, horizon=48.0,
                          seed=3, label_coeffs=[1.0])
    ds = synthesize(cfg)
    total = sum(ep.mask.sum() for ep in ds.episodes)
    expected = 200 * 12.0
    assert abs(total - expected) <= 3.0 * np.sqrt(expected)


def test_synthesis_bit_reproducible():
    cfg = SyntheticConfig(n_variables=3, n_episodes=15, decay_rates=[0.5, 1.0, 2.0],
                          obs_per_episode=5.0, missing_prob=0.2, horizon=24.0,
                          seed=9, label_coeffs=[1.0, -1.0, 0.5])
    a = synthesize(cfg)
    b = synthesize(cfg)
    assert len(a) == len(b)
    for ea, eb in zip(a.episodes, b.episodes):
        assert ea.label == eb.label
        np.testing.assert_array_equal(ea.times, eb.times)
        np.testing.assert_array_equal(ea.values, eb.values)
        np.testing.assert_array_equal(ea.mask, eb.mask)
        np.testing.assert_array_equal(ea.delta_t, eb.delta_t)


def test_invalid_synthetic_configs_rejected():
    good = dict(n_variables=2, n_episodes=5, decay_rates=[1.0, 1.0],
                obs_per_episode=4.0, horizon=24.0, label_coeffs=[1.0, 1.0])
    with pytest.raises(SyntheticConfigError):
        synthesize(SyntheticConfig(**{**good, "decay_rates": [1.0, -1.0]}))
    with pytest.raises(SyntheticConfigError):
        synthesize(SyntheticConfig(**{**good, "missing_prob": 1.0}))
    with pytest.raises(SyntheticConfigError):
        synthesize(SyntheticConfig(**{**good, "label_coeffs": [1.0]}))
    with pytest.raises(SyntheticConfigError):
        synthesize(SyntheticConfig(**{**good, "label_summary": "median"}))


@pytest.mark.parametrize("change, message", [
    ({"means": [1.0]}, "means length must equal n_variables"),
    ({"means": [0.0, 0.0, 0.0]}, "means length must equal n_variables"),
    ({"noise_scales": [1.0]}, "noise_scales length must equal n_variables"),
    ({"noise_scales": [1.0, -0.5]}, "noise_scales must be >= 0, got [1.0, -0.5]"),
    ({"decay_rates": None}, "decay_rates must be a list, got None"),
    ({"means": 1.0}, "means must be a list, got 1.0"),
    ({"label_coeffs": 1.0}, "label_coeffs must be a list, got 1.0"),
    ({"label_bias": "x"}, "label_bias must be a real number, got 'x'"),
    ({"label_bias": [5.0, 0.0, 0.0]}, "label_bias must be a real number, got [5.0, 0.0, 0.0]"),
    ({"n_classes": 3, "label_coeffs": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
      "label_bias": [0.0, 1.0]},
     "multi-class label_bias must hold n_classes=3 numbers, got [0.0, 1.0]"),
    ({"n_classes": 3, "label_coeffs": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
      "label_bias": [0.0, 1.0, None]}, "label_bias[2] must be a real number, got None"),
])
def test_synthetic_lists_and_label_bias_are_refused_by_name(change, message):
    good = dict(n_variables=2, n_episodes=5, decay_rates=[1.0, 1.0],
                obs_per_episode=4.0, horizon=24.0, label_coeffs=[1.0, 1.0])
    with pytest.raises(SyntheticConfigError) as excinfo:
        synthesize(SyntheticConfig(**{**good, **change}))
    assert message in str(excinfo.value)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize("name", ["decay_rates", "means", "noise_scales", "label_coeffs"])
def test_synthetic_list_entries_must_be_finite(name, value):
    lists = dict(decay_rates=[1.0, 1.0], means=[0.0, 0.0], noise_scales=[1.0, 1.0],
                 label_coeffs=[1.0, 1.0])
    lists[name] = [lists[name][0], value]
    with pytest.raises(SyntheticConfigError) as excinfo:
        synthesize(SyntheticConfig(n_variables=2, n_episodes=5, **lists))
    assert str(excinfo.value) == f"{name}[1] must be finite, got {value}"


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_multiclass_label_coeff_rows_must_be_finite(value):
    with pytest.raises(SyntheticConfigError) as excinfo:
        synthesize(SyntheticConfig(n_variables=2, n_episodes=5, decay_rates=[1.0, 1.0],
                                   n_classes=3, label_bias=[0.0, 0.0, 0.0],
                                   label_coeffs=[[1.0, 0.0], [0.0, value], [1.0, 1.0]]))
    assert str(excinfo.value) == f"label_coeffs[1][1] must be finite, got {value}"


def test_multiclass_label_bias_per_class_and_zero_noise_are_accepted():
    cfg = SyntheticConfig(n_variables=2, n_episodes=5, decay_rates=[1.0, 1.0],
                          noise_scales=[0.0, 1.0], n_classes=3,
                          label_coeffs=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                          label_bias=[0.0, 1.0, -1.0])
    assert len(synthesize(cfg)) == 5


def test_csv_round_trip(tmp_path):
    cfg = SyntheticConfig(n_variables=3, n_episodes=12, decay_rates=[0.5, 1.0, 2.0],
                          obs_per_episode=5.0, missing_prob=0.1, horizon=24.0,
                          seed=5, label_coeffs=[1.0, -1.0, 0.5])
    ds = synthesize(cfg)
    obs_path = str(tmp_path / "obs.csv")
    lab_path = str(tmp_path / "lab.csv")
    dg.write_observations_csv(ds, obs_path)
    dg.write_labels_csv(ds, lab_path)
    reloaded = load_dataset(obs_path, lab_path, t_max=24.0)
    survivors = [ep for ep in ds.episodes if ep.mask.sum() > 0]
    assert len(reloaded) == len(survivors)
    for ea, eb in zip(survivors, reloaded.episodes):
        assert ea.patient_id == eb.patient_id
        assert ea.label == eb.label
        np.testing.assert_array_equal(ea.times, eb.times)
        np.testing.assert_array_equal(ea.values, eb.values)
        np.testing.assert_array_equal(ea.mask, eb.mask)
        np.testing.assert_array_equal(ea.delta_t, eb.delta_t)


csv_names = st.text(alphabet="abcdefghijXYZ0123456789_-.", min_size=1, max_size=6)


@st.composite
def csv_datasets(draw):
    """A dataset whose every step observes at least one variable, the
    episodes in patient order: what the CSV writers and the loader keep."""
    variables = draw(st.lists(csv_names, min_size=1, max_size=4, unique=True))
    t_max = draw(st.floats(0.5, 100.0))
    n_classes = draw(st.integers(2, 4))
    values = st.floats(allow_nan=False, allow_infinity=False)
    episodes = []
    for pid in sorted(draw(st.lists(csv_names, min_size=1, max_size=5, unique=True))):
        times = draw(st.lists(st.floats(0.0, t_max), min_size=1, max_size=5, unique=True))
        by_time = {t: {v: draw(values) for v in draw(st.lists(
                       st.integers(0, len(variables) - 1), min_size=1, unique=True))}
                   for t in times}
        label = draw(st.integers(0, n_classes - 1))
        episodes.append(dict_loader.episode(pid, by_time, len(variables), t_max, label))
    n_classes = max(2, max(ep.label for ep in episodes) + 1)
    return dg.Dataset(variables, episodes, t_max, n_classes)


@settings(max_examples=60, deadline=None)
@given(ds=csv_datasets())
def test_csv_round_trip_over_random_datasets(ds):
    with tempfile.TemporaryDirectory() as tmp:
        obs_path, lab_path = f"{tmp}/obs.csv", f"{tmp}/lab.csv"
        dg.write_observations_csv(ds, obs_path)
        dg.write_labels_csv(ds, lab_path)
        reloaded = load_dataset(obs_path, lab_path, t_max=ds.t_max, variables=ds.variables)
    assert reloaded.variables == ds.variables
    assert (reloaded.t_max, reloaded.n_classes) == (ds.t_max, ds.n_classes)
    assert len(reloaded) == len(ds)
    for ea, eb in zip(ds.episodes, reloaded.episodes):
        assert (ea.patient_id, ea.label) == (eb.patient_id, eb.label)
        for name in ("times", "values", "mask", "delta_t"):
            assert getattr(ea, name).tobytes() == getattr(eb, name).tobytes(), name
