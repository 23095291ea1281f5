"""Tests for spike dataset parsing, writing, and synthesis."""

import hashlib
import math

import numpy as np
import pytest

from mlcpsim.spikeio import (
    ChannelRangeError,
    DatasetError,
    LabelRangeError,
    BadTimestampError,
    MissingManifestError,
    SpikeDataset,
    SynthParams,
    Trial,
    gen_synthetic,
    parse_dataset,
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
