"""Tests for spike dataset parsing, writing, and synthesis."""

import hashlib
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from mlcpsim import spikeio
from mlcpsim.fields import FieldError
from mlcpsim.spikeio import (
    ChannelCountError,
    ChannelRangeError,
    DatasetError,
    LabelRangeError,
    BadTimestampError,
    MissingManifestError,
    SpikeDataset,
    SynthParams,
    Trial,
    TrialIdError,
    gen_synthetic,
    parse_dataset,
    read_manifest,
    tuned_peak_rate,
    write_dataset,
)


def read_tree(root):
    """All file contents under a directory keyed by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def tree_sha256(root):
    """One digest over every file's relative path and contents under ``root``."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def test_empty_manifest_parses_to_zero_trials(tmp_path):
    (tmp_path / "manifest.csv").write_text("trial_id,label,onset_us,duration_us\n")
    ds = parse_dataset(tmp_path)
    assert ds.trials == []


def test_missing_manifest_raises(tmp_path):
    with pytest.raises(MissingManifestError) as excinfo:
        parse_dataset(tmp_path)
    assert "manifest.csv" in str(excinfo.value)


def test_single_trial_single_event(tmp_path):
    (tmp_path / "manifest.csv").write_text(
        "trial_id,label,onset_us,duration_us\nt0,1,1000000,2000000\n"
    )
    (tmp_path / "events").mkdir()
    (tmp_path / "events" / "t0.csv").write_text("time_us,channel\n500000,3\n")
    ds = parse_dataset(tmp_path)
    assert len(ds.trials) == 1
    trial = ds.trials[0]
    assert trial.id == "t0"
    assert trial.label == 1
    assert trial.onset == 1000000
    assert trial.duration == 2000000
    assert trial.times_us.tolist() == [500000]
    assert trial.channels.tolist() == [3]


def test_channel_out_of_range_rejected(tmp_path):
    (tmp_path / "manifest.csv").write_text(
        "trial_id,label,onset_us,duration_us\nt0,1,1000000,2000000\n"
    )
    (tmp_path / "meta.txt").write_text("channel_count = 128\nclass_count = 2\n")
    (tmp_path / "events").mkdir()
    (tmp_path / "events" / "t0.csv").write_text("time_us,channel\n10,200\n")
    with pytest.raises(ChannelRangeError) as excinfo:
        parse_dataset(tmp_path)
    # error names the offending file and line
    assert "t0.csv" in str(excinfo.value)
    assert ":2" in str(excinfo.value)


def test_unsorted_timestamps_rejected(tmp_path):
    (tmp_path / "manifest.csv").write_text(
        "trial_id,label,onset_us,duration_us\nt0,1,1000000,2000000\n"
    )
    (tmp_path / "events").mkdir()
    (tmp_path / "events" / "t0.csv").write_text("time_us,channel\n100,0\n50,0\n")
    with pytest.raises(BadTimestampError) as excinfo:
        parse_dataset(tmp_path)
    assert ":3" in str(excinfo.value)


def test_negative_timestamp_rejected(tmp_path):
    (tmp_path / "manifest.csv").write_text(
        "trial_id,label,onset_us,duration_us\nt0,1,1000000,2000000\n"
    )
    (tmp_path / "events").mkdir()
    (tmp_path / "events" / "t0.csv").write_text("time_us,channel\n-5,0\n")
    with pytest.raises(BadTimestampError):
        parse_dataset(tmp_path)


def test_label_out_of_range_rejected(tmp_path):
    (tmp_path / "manifest.csv").write_text(
        "trial_id,label,onset_us,duration_us\nt0,9,1000000,2000000\n"
    )
    (tmp_path / "meta.txt").write_text("channel_count = 4\nclass_count = 3\n")
    (tmp_path / "events").mkdir()
    (tmp_path / "events" / "t0.csv").write_text("time_us,channel\n")
    with pytest.raises(LabelRangeError) as excinfo:
        parse_dataset(tmp_path)
    assert "manifest.csv" in str(excinfo.value)


@pytest.mark.parametrize("trial_id", ["", "../t0", "a/b", "a\\b", "..", "t..0"])
def test_trial_id_that_is_not_a_plain_file_name_rejected(tmp_path, trial_id):
    # the parser would open events/<id>.csv: the id must not leave that directory
    (tmp_path / "manifest.csv").write_text(
        f"trial_id,label,onset_us,duration_us\nok,1,0,1000\n{trial_id},1,0,1000\n"
    )
    (tmp_path / "events").mkdir()
    (tmp_path / "events" / "ok.csv").write_text("time_us,channel\n")
    (tmp_path / "t0.csv").write_text("time_us,channel\n")
    with pytest.raises(TrialIdError) as excinfo:
        parse_dataset(tmp_path)
    assert "manifest.csv:3" in str(excinfo.value)
    ds = SpikeDataset([Trial(trial_id, 1, 0, 1000)], channel_count=1, class_count=1)
    with pytest.raises(TrialIdError):
        write_dataset(ds, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_malformed_row_names_line(tmp_path):
    (tmp_path / "manifest.csv").write_text(
        "trial_id,label,onset_us,duration_us\nt0,1,1000000\n"
    )
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(tmp_path)
    assert ":2" in str(excinfo.value)


def test_zero_rate_generator_emits_no_events():
    params = SynthParams(q=4, m=2, baseline_rate=0.0, peak_rate=0.0, trials_per_class=2, seed=1)
    ds = gen_synthetic(params)
    assert all(len(t.times_us) == 0 and len(t.channels) == 0 for t in ds.trials)


class _CountOnlyRng:
    """Takes the Poisson mean numpy would draw from, and draws no spikes."""

    def poisson(self, lam):
        np.random.default_rng(0).poisson(lam)  # one scalar: numpy's own limit check
        return 0


@pytest.mark.parametrize("peak_rate", [90.0, 0.3])
def test_synth_params_refuse_a_poisson_mean_exactly_when_numpy_does(peak_rate):
    # around the duration where the peak neuron's mean reaches numpy's limit;
    # no dataset is generated, so an accepted duration draws nothing
    params = SynthParams(baseline_rate=0.1, peak_rate=peak_rate)
    rate = tuned_peak_rate(params, 1, 1)
    edge_ms = spikeio.POISSON_LAM_MAX / rate * 1e3
    verdicts = set()
    for ms in edge_ms * (1 + np.arange(-40, 41) * 1e-17):
        try:
            spikeio._candidate_times(_CountOnlyRng(), params, rate, spikeio._us(ms))
            numpy_draws = True
        except ValueError as exc:
            assert str(exc) == "lam value too large"
            numpy_draws = False
        try:
            SynthParams(baseline_rate=0.1, peak_rate=peak_rate, trial_duration_ms=ms)
            accepted = True
        except FieldError as exc:
            assert "'trial_duration_ms' must be short enough that 'peak_rate'" in str(exc)
            accepted = False
        assert accepted == numpy_draws, ms
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_generator_trial_count_and_labels():
    params = SynthParams(q=6, m=3, trials_per_class=4, seed=2)
    ds = gen_synthetic(params)
    assert len(ds.trials) == 12
    assert sorted({t.label for t in ds.trials}) == [1, 2, 3]
    for t in ds.trials:
        assert t.duration == 2000000
        assert t.onset == 1000000


def test_generator_same_seed_identical():
    a = gen_synthetic(SynthParams(q=8, m=4, trials_per_class=2, seed=7))
    b = gen_synthetic(SynthParams(q=8, m=4, trials_per_class=2, seed=7))
    assert [(t.times_us.tolist(), t.channels.tolist()) for t in a.trials] == [
        (t.times_us.tolist(), t.channels.tolist()) for t in b.trials
    ]
    c = gen_synthetic(SynthParams(q=8, m=4, trials_per_class=2, seed=8))
    assert [t.times_us.tolist() for t in c.trials] != [t.times_us.tolist() for t in a.trials]


def test_constant_rate_mean_count():
    # Flat 100 Hz (baseline == peak) over 2 s: expect ~200 events per neuron.
    # With 40 neurons x 5 trials the sample mean has sigma = sqrt(200/200) = 1.
    params = SynthParams(
        q=40, m=1, baseline_rate=100.0, peak_rate=100.0, trials_per_class=5, seed=3
    )
    ds = gen_synthetic(params)
    counts = []
    for trial in ds.trials:
        per_channel = np.bincount(trial.channels, minlength=params.q)
        counts.extend(per_channel.tolist())
    mean = float(np.mean(counts))
    assert abs(mean - 200.0) < 3.0  # 3 sigma


def test_constant_rate_count_distribution_chi_square():
    # Goodness of fit of per-neuron spike counts against Poisson(mean 40),
    # pooled tails, 1% significance.
    from scipy import stats

    rate, dur_ms = 20.0, 2000.0
    mu = rate * dur_ms / 1000.0
    params = SynthParams(
        q=25,
        m=1,
        baseline_rate=rate,
        peak_rate=rate,
        trial_duration_ms=dur_ms,
        trials_per_class=48,
        seed=4,
    )
    ds = gen_synthetic(params)
    counts = np.concatenate(
        [np.bincount(t.channels, minlength=params.q) for t in ds.trials]
    )
    assert counts.size == 1200

    lo, hi = int(mu - 3 * math.sqrt(mu)), int(mu + 3 * math.sqrt(mu))
    edges = list(range(lo, hi + 1))
    observed = np.zeros(len(edges) + 1)
    expected = np.zeros(len(edges) + 1)
    observed[0] = np.sum(counts < lo)
    expected[0] = stats.poisson.cdf(lo - 1, mu) * counts.size
    for i, k in enumerate(edges, start=1):
        observed[i] = np.sum(counts == k)
        expected[i] = stats.poisson.pmf(k, mu) * counts.size
    observed[-1] += counts.size - observed.sum()
    expected[-1] += counts.size - expected.sum()
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(observed) - 1
    p = 1.0 - stats.chi2.cdf(chi2, dof)
    assert p > 0.01


def test_tuning_profile_monotone_in_class_distance():
    params = SynthParams(q=8, m=8, tuning_width=2.0)
    rates = [tuned_peak_rate(params, 1, c) for c in [1, 2, 3, 4, 5]]
    assert rates[0] == params.peak_rate
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[-1] == params.baseline_rate  # beyond tuning_width


def test_preferred_class_fires_most():
    params = SynthParams(q=12, m=4, trials_per_class=20, seed=5)
    ds = gen_synthetic(params)
    # neuron 0 prefers class 1; count its post-onset spikes per trial class
    totals = {c: 0 for c in range(1, 5)}
    for trial in ds.trials:
        mask = (trial.channels == 0) & (trial.times_us >= trial.onset)
        totals[trial.label] += int(np.sum(mask))
    assert totals[1] == max(totals.values())
    assert totals[3] == min(totals.values())  # opposite class on the ring


def test_roundtrip_byte_identical(tmp_path):
    params = SynthParams(q=10, m=3, trials_per_class=3, seed=6)
    ds = gen_synthetic(params)
    first = tmp_path / "first"
    second = tmp_path / "second"
    write_dataset(ds, first)
    reparsed = parse_dataset(first)
    assert reparsed.channel_count == ds.channel_count
    assert reparsed.class_count == ds.class_count
    write_dataset(reparsed, second)
    assert read_tree(first) == read_tree(second)


def test_parse_infers_counts_without_meta(tmp_path):
    ds = SpikeDataset(
        trials=[
            Trial("a", 2, 100, 1000, [10], [4]),
            Trial("b", 1, 100, 1000, [20], [1]),
        ],
        channel_count=5,
        class_count=2,
    )
    write_dataset(ds, tmp_path)
    (tmp_path / "meta.txt").unlink()
    reparsed = parse_dataset(tmp_path)
    assert reparsed.channel_count == 5  # max channel + 1
    assert reparsed.class_count == 2  # max label
    # a manifest without meta.txt reads with the inferred counts
    manifest = spikeio.read_manifest(tmp_path)
    assert (manifest.channel_count, manifest.class_count) == (5, 2)


def test_write_trials_checks_each_trial_before_writing_its_file(tmp_path):
    trials = [Trial("a", 1, 0, 100, [5], [0]), Trial("b", 1, 0, 100, [5], [3])]
    with pytest.raises(ChannelRangeError, match="trial 'b'"):
        spikeio.write_trials(tmp_path / "stream", iter(trials), 2, 1, {})
    assert (tmp_path / "stream" / "events" / "a.csv").is_file()
    assert not (tmp_path / "stream" / "events" / "b.csv").exists()
    assert not (tmp_path / "stream" / "manifest.csv").exists()
    # write_dataset checks every trial before it creates the directory
    with pytest.raises(ChannelRangeError, match="trial 'b'"):
        write_dataset(SpikeDataset(trials, 2, 1), tmp_path / "whole")
    assert not (tmp_path / "whole").exists()


def test_a_repeated_trial_id_is_refused_before_its_file_is_written(tmp_path):
    # one event file per id: a second trial 'a' would overwrite the first's
    trials = [Trial("a", 1, 0, 100, [5], [0]), Trial("b", 1, 0, 100, [6], [1]),
              Trial("a", 1, 0, 100, [7], [1])]
    with pytest.raises(TrialIdError, match="trial id 'a' repeats an earlier trial's"):
        spikeio.write_trials(tmp_path / "stream", iter(trials), 2, 1, {})
    first = tmp_path / "stream" / "events" / "a.csv"
    assert first.read_text() == "time_us,channel\n5,0\n"
    assert not (tmp_path / "stream" / "manifest.csv").exists()
    with pytest.raises(TrialIdError, match="trial id 'a' repeats an earlier trial's"):
        write_dataset(SpikeDataset(trials, 2, 1), tmp_path / "whole")
    assert not (tmp_path / "whole").exists()


@pytest.mark.parametrize("trial_id", ["a,b", "a\nb", "a\rb", "a\r\n"])
def test_a_trial_id_that_would_break_a_manifest_row_is_refused_before_its_file(tmp_path,
                                                                               trial_id):
    # a comma splits the row into five fields and a line break into two rows,
    # so the manifest written would not read back
    trials = [Trial("ok", 1, 0, 100, [5], [0]), Trial(trial_id, 1, 0, 100, [6], [1])]
    message = f"trial id {trial_id!r} contains ',' or a line break"
    with pytest.raises(TrialIdError) as excinfo:
        spikeio.write_trials(tmp_path / "stream", iter(trials), 2, 1, {})
    assert str(excinfo.value).startswith(message)
    assert [p.name for p in (tmp_path / "stream" / "events").iterdir()] == ["ok.csv"]
    assert not (tmp_path / "stream" / "manifest.csv").exists()
    with pytest.raises(TrialIdError):
        write_dataset(SpikeDataset(trials, 2, 1), tmp_path / "whole")
    assert not (tmp_path / "whole").exists()


def test_trial_ids_of_any_other_characters_round_trip(tmp_path):
    ids = ["a b", "a;b", "a.b", "t\u00e9", "tab\there", "\u0661", "-1", " pad "]
    trials = [Trial(trial_id, 1, 0, 100, [k], [0]) for k, trial_id in enumerate(ids)]
    assert spikeio.write_trials(tmp_path, iter(trials), 1, 1, {}) == len(ids)
    manifest = read_manifest(tmp_path)
    assert [row.id for row in manifest.trials] == ids
    for i, trial_id in enumerate(ids):
        assert manifest.index(trial_id) == i
        assert manifest.trial(i).times_us.tolist() == [i]


@pytest.mark.parametrize("key, value, what", [
    ("", "x", "is empty, holds '=' or starts with '#'"),
    ("x=y", "z", "is empty, holds '=' or starts with '#'"),
    ("#note", "x", "is empty, holds '=' or starts with '#'"),
    ("channel_count", "1", "is a count meta.txt declares"),
    ("class_count", "1", "is a count meta.txt declares"),
    (" pad ", "x", "or its value has surrounding whitespace"),
    ("pad", " x", "or its value has surrounding whitespace"),
    ("pad", "x\t", "or its value has surrounding whitespace"),
    ("a\nb", "x", "or its value holds a newline"),
    ("pad", "x\ry", "or its value holds a newline"),
])
def test_metadata_that_would_read_back_as_other_data_is_refused_before_writing(
        tmp_path, key, value, what):
    # each would read back as another entry, as none, or as a count: a
    # channel_count of 1 on a set of 2 channels read back as 1 channel
    with pytest.raises(DatasetError) as excinfo:
        spikeio.write_trials(tmp_path / "ds", iter([Trial("a", 1, 0, 100, [5], [1])]), 2, 1,
                             {"source": "x", key: value})
    assert str(excinfo.value) == f"metadata key {key!r} {what}"
    assert not (tmp_path / "ds").exists()


def test_metadata_of_plain_keys_and_values_round_trips(tmp_path):
    metadata = {"source": "a = b", "x.y": "#1", "empty": "", "k-2": "v  w"}
    spikeio.write_trials(tmp_path, iter([Trial("a", 1, 0, 100, [5], [1])]), 2, 1, metadata)
    manifest = read_manifest(tmp_path)
    assert (manifest.channel_count, manifest.class_count) == (2, 1)
    assert manifest.metadata == metadata


def test_only_ascii_digits_select_a_trial_by_index(tmp_path):
    trials = [Trial(trial_id, 1, 0, 2000, [5], [0]) for trial_id in ("a", "b", "c")]
    write_dataset(SpikeDataset(trials, channel_count=1, class_count=1), tmp_path)
    manifest = read_manifest(tmp_path)
    assert [manifest.index(s) for s in ("0", "2", "-0", "002")] == [0, 2, 0, 2]
    # "\u00b2" (superscript two) failed int(), and "\u0661" (Arabic-Indic one)
    # selected index 1
    for selector in ("\u00b2", "\u0661", "\uff11", "+1", " 1", "1 ", "1.0", "", "-"):
        with pytest.raises(DatasetError) as excinfo:
            manifest.index(selector)
        assert str(excinfo.value) == f"no trial with id {selector!r}"


def test_trial_coerces_events_to_int64_arrays():
    trial = Trial("t", 1, 0, 100, [3, 5], (0, 2))
    assert isinstance(trial.times_us, np.ndarray) and trial.times_us.dtype == np.int64
    assert isinstance(trial.channels, np.ndarray) and trial.channels.dtype == np.int64
    assert trial.times_us.tolist() == [3, 5]
    assert trial.channels.tolist() == [0, 2]
    empty = Trial("e", 1, 0, 100)
    assert empty.times_us.shape == (0,) and empty.channels.shape == (0,)
    assert empty.times_us.dtype == np.int64 and empty.channels.dtype == np.int64


def test_trial_rejects_mismatched_or_non_1d_events():
    with pytest.raises(ValueError, match="2 times but 1 channels"):
        Trial("t", 1, 0, 100, [3, 5], [0])
    with pytest.raises(ValueError, match="1-D"):
        Trial("t", 1, 0, 100, [[3, 5]], [[0, 1]])
    with pytest.raises(ValueError, match="1-D"):
        Trial("t", 1, 0, 100, 3, 0)


@pytest.mark.parametrize(
    "times, channels, error, message",
    [
        ([5, 9, 7], [0, 0, 0], BadTimestampError, "bad event time 7 after 9"),
        ([-2, 1], [0, 0], BadTimestampError, "bad event time -2 after -1"),
        ([1, 2, 1], [0, 3, 0], ChannelRangeError, "channel 3 outside [0, 3)"),
        ([1, 0], [-1, 0], ChannelRangeError, "channel -1 outside [0, 3)"),
    ],
)
def test_validate_names_first_bad_event(times, channels, error, message):
    ds = SpikeDataset([Trial("a", 1, 0, 10, times, channels)], channel_count=3, class_count=1)
    with pytest.raises(error) as excinfo:
        ds.validate()
    assert str(excinfo.value) == f"trial 'a': {message}"


# Digests of write_dataset(gen_synthetic(...)) trees, recorded from the
# row-by-row implementation; the array-based one must reproduce them.
SYNTH_TREE_SHA256 = {
    "defaults": (
        SynthParams(trials_per_class=2),
        "fbd2e2b65e65f9d474c8e483347ba74b3d246d827cf66c394f0c8ecdbe30d344",
    ),
    "degenerate_ramp": (
        SynthParams(
            q=7, m=3, baseline_rate=0.0, peak_rate=150.0, ramp_start_ms=-200.0,
            ramp_peak_ms=-200.0, decay_start_ms=150.0, decay_end_ms=150.0,
            trials_per_class=3, seed=11,
        ),
        "170abb641008066aa6710633df75048796a1d7ae5e20716699e0ac378cfa909e",
    ),
}


@pytest.mark.parametrize("name", sorted(SYNTH_TREE_SHA256))
def test_synth_and_write_bytes_locked(tmp_path, name):
    params, digest = SYNTH_TREE_SHA256[name]
    write_dataset(gen_synthetic(params), tmp_path)
    assert tree_sha256(tmp_path) == digest


def test_random_trials_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(20240)
    for case in range(40):
        q = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        trials = []
        for i in range(int(rng.integers(2, 6))):
            n = i if i < 2 else int(rng.integers(0, 60))  # an empty and a single-event trial
            span = int(rng.choice([10, 10**6, 2**62]))
            times = np.sort(rng.integers(0, span, size=n))
            duration = int(times[-1]) + 1 if n else 1000
            label = int(rng.integers(1, m + 1))
            channels = rng.integers(0, q, size=n)
            trials.append(Trial(f"t{i}", label, duration // 2, duration, times, channels))
        ds = SpikeDataset(trials, channel_count=q, class_count=m, metadata={"case": str(case)})
        first, second = tmp_path / f"{case}_first", tmp_path / f"{case}_second"
        write_dataset(ds, first)
        back = parse_dataset(first)
        for a, b in zip(ds.trials, back.trials):
            assert np.array_equal(a.times_us, b.times_us)
            assert np.array_equal(a.channels, b.channels)
        write_dataset(back, second)
        assert read_tree(first) == read_tree(second)


def _small_set(root, q=4, m=3):
    ds = gen_synthetic(SynthParams(q=q, m=m, trials_per_class=2, seed=21))
    write_dataset(ds, root)
    return ds


def _selected(root, selector, channel_count=None):
    """(index, trial) that ``selector`` names, as ``stream`` reads it."""
    manifest = read_manifest(root, channel_count)
    index = manifest.index(selector)
    return index, manifest.trial(index)


def test_the_manifest_selects_the_trial_parse_dataset_reads_at_that_index(tmp_path,
                                                                          monkeypatch):
    _small_set(tmp_path)
    manifest = tmp_path / "manifest.csv"
    lines = manifest.read_text().split("\n")
    manifest.write_text("\n".join(lines[:3] + ["", ""] + lines[3:5] + [""] + lines[5:]))
    full = parse_dataset(tmp_path)
    assert len(full.trials) == 6
    opened = []
    parse_events = spikeio._parse_events
    monkeypatch.setattr(spikeio, "_parse_events",
                        lambda path, q: opened.append(path.name) or parse_events(path, q))
    for index, trial in enumerate(full.trials):
        for selector in (str(index), trial.id):
            opened.clear()
            got_index, got = _selected(tmp_path, selector)
            assert opened == [f"{trial.id}.csv"]  # the manifest pass opens no event file
            assert got_index == index
            assert (got.id, got.label, got.onset, got.duration) == (
                trial.id, trial.label, trial.onset, trial.duration)
            assert np.array_equal(got.times_us, trial.times_us)
            assert np.array_equal(got.channels, trial.channels)
    for selector, message in (("6", "trial index 6 out of range [0, 6)"),
                              ("-1", "trial index -1 out of range [0, 6)"),
                              ("c09_r000", "no trial with id 'c09_r000'")):
        with pytest.raises(DatasetError, match=message.replace("[", r"\[").replace(")", r"\)")):
            _selected(tmp_path, selector)


def test_a_selected_trial_reads_no_other_event_file(tmp_path):
    ds = _small_set(tmp_path)
    (tmp_path / "events" / f"{ds.trials[0].id}.csv").write_text("time_us,channel\n5,x\n")
    (tmp_path / "events" / f"{ds.trials[2].id}.csv").unlink()
    index, trial = _selected(tmp_path, "1")
    assert (index, trial.id) == (1, ds.trials[1].id)
    with pytest.raises(DatasetError, match=f"{ds.trials[0].id}.csv:2"):
        _selected(tmp_path, ds.trials[0].id)
    with pytest.raises(DatasetError, match="event file not found"):
        _selected(tmp_path, "2")
    with pytest.raises(DatasetError, match=f"{ds.trials[0].id}.csv:2"):
        parse_dataset(tmp_path)


@pytest.mark.parametrize("row, error, message", [
    ("z,1,3000,2000", DatasetError, "trial 'z': onset 3000 outside [0, 2000]"),
    ("z,1,-1,2000", DatasetError, "trial 'z': onset -1 outside [0, 2000]"),
    ("z,4,0,2000", LabelRangeError, "label 4 outside [1, 3]"),
    ("z,0,0,2000", LabelRangeError, "label 0 outside [1, 3]"),
    ("z/y,1,0,2000", TrialIdError, "trial id 'z/y' is empty or contains '/', '\\' or '..'"),
    ("c01_r000,1,0,2000", TrialIdError, "trial id 'c01_r000' repeats an earlier trial's"),
    ("z,1,0", DatasetError, "expected 4 fields, got 3"),
])
def test_every_manifest_row_is_checked_before_any_event_file(tmp_path, row, error, message):
    # the bad row comes last and has no event file; the one-trial read of
    # trial 0 still names it, with its manifest line
    _small_set(tmp_path)
    with (tmp_path / "manifest.csv").open("a") as manifest:
        manifest.write(row + "\n")
    for read in (lambda: parse_dataset(tmp_path), lambda: _selected(tmp_path, "0")):
        with pytest.raises(error) as excinfo:
            read()
        assert str(excinfo.value) == f"{message} [{tmp_path / 'manifest.csv'}:8]"


def test_a_channel_count_is_held_against_meta_and_every_event(tmp_path):
    ds = _small_set(tmp_path / "ds", q=4)
    root = tmp_path / "ds"
    assert parse_dataset(root, 4).channel_count == 4
    for wrong in (3, 5):
        with pytest.raises(ChannelCountError, match=f"declares 4 channels where {wrong} are"):
            parse_dataset(root, wrong)
        with pytest.raises(ChannelCountError, match=f"declares 4 channels where {wrong} are"):
            _selected(root, "0", wrong)
    # without meta.txt the count is inferred, so only the events can differ
    (root / "meta.txt").unlink()
    assert parse_dataset(root).channel_count == 4
    assert parse_dataset(root, 6).channel_count == 6
    first = next(t for t in ds.trials if (t.channels == 3).any())
    line = 2 + int(np.flatnonzero(first.channels == 3)[0])
    with pytest.raises(ChannelRangeError) as excinfo:
        parse_dataset(root, 3)
    assert str(excinfo.value).startswith("channel 3 outside [0, 3)")
    with pytest.raises(ChannelRangeError) as excinfo:
        _selected(root, first.id, 3)
    assert str(excinfo.value).endswith(f"{first.id}.csv:{line}]")


def test_a_trial_id_of_digits_is_selected_by_id_before_index(tmp_path):
    trials = [Trial(trial_id, 1, 0, 2000, [5], [0]) for trial_id in ("100", "200", "1", "0")]
    write_dataset(SpikeDataset(trials, channel_count=1, class_count=1), tmp_path)
    manifest = read_manifest(tmp_path)
    # "100" is trial 0's id and out of range as an index; "1" and "0" are ids too
    assert [manifest.index(s) for s in ("100", "200", "1", "0", "3")] == [0, 1, 2, 3, 3]
    for selector, message in (("4", r"trial index 4 out of range \[0, 4\)"),
                              ("x", "no trial with id 'x'")):
        with pytest.raises(DatasetError, match=message):
            manifest.index(selector)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_lone_cr_event_files_read_as_lf_ones(tmp_path, newline):
    ds = _small_set(tmp_path)
    for trial in ds.trials[::2]:
        path = tmp_path / "events" / f"{trial.id}.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    got = parse_dataset(tmp_path)
    for want, trial in zip(ds.trials, got.trials):
        assert np.array_equal(trial.times_us, want.times_us)
        assert np.array_equal(trial.channels, want.channels)


@pytest.mark.parametrize("stand_in", ["missing", "directory", "fifo", "device"])
def test_a_missing_event_file_or_a_non_file_in_its_place_is_not_found(tmp_path, stand_in):
    ds = _small_set(tmp_path)
    path = tmp_path / "events" / f"{ds.trials[1].id}.csv"
    path.unlink()
    if stand_in == "directory":
        path.mkdir()
    elif stand_in == "fifo":  # a blocking open for reading waits for a writer
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        os.mkfifo(path)
        # a writer that opens and closes it, so that a reader that blocked
        # reads an empty file and fails the assertion instead of hanging
        writer = threading.Thread(target=lambda: open(path, "wb").close(), daemon=True)
        writer.start()
    elif stand_in == "device":  # /dev/null, as /dev/zero, which would read without end
        if not Path("/dev/null").exists():
            pytest.skip("no /dev/null on this platform")
        path.symlink_to("/dev/null")
    try:
        with pytest.raises(DatasetError) as excinfo:
            _selected(tmp_path, "1")
        assert str(excinfo.value) == f"event file not found [{path}]"
    finally:
        if stand_in == "fifo":  # a reader of our own lets the writer's open return
            fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
            writer.join(timeout=10)
            os.close(fd)
            assert not writer.is_alive()
