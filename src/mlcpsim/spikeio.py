"""Spike-train dataset handling: loading, validation, writing, synthesis.

A dataset is a directory with a trial manifest and one event file per trial:

    manifest.csv          header ``trial_id,label,onset_us,duration_us``
    events/<trial_id>.csv header ``time_us,channel``
    meta.txt              ``key = value`` lines: channel_count, class_count,
                          plus free-form metadata

All files are UTF-8 with LF line endings and no quoting.  Timestamps are
integer microseconds from trial start.  Event rows are sorted non-decreasing
in time.  ``meta.txt`` is written by :func:`write_dataset` and read when
present; without it channel and class counts are inferred from the data.

In memory a trial's events are two parallel int64 arrays, ``times_us`` and
``channels``.  An event file is read in one of two tiers.  A body of
canonical rows (unsigned ASCII decimals of at most 18 digits, one comma per
row, LF line ends, the form :func:`write_dataset` writes) is read by numpy
in one pass and validated with array operations.  Any other body, or one
that fails a check, is scanned row by row with ``int()``, which gives the
same arrays or names the first bad row as ``file:line``.

The synthetic generator produces tuned inhomogeneous-Poisson trials as a
stand-in for recorded motor-cortex units: each neuron prefers one movement
class, fires at a baseline rate at rest and ramps to a tuned peak around
movement onset.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MANIFEST_NAME = "manifest.csv"
META_NAME = "meta.txt"
EVENTS_DIR = "events"

MANIFEST_HEADER = "trial_id,label,onset_us,duration_us"
EVENTS_HEADER = "time_us,channel"

_INT64_MAX = int(np.iinfo(np.int64).max)


class DatasetError(Exception):
    """Base error for dataset parsing/validation problems."""

    def __init__(self, message: str, path: Path | str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + loc)
        self.path = None if path is None else str(path)
        self.line = line


class MissingManifestError(DatasetError):
    """The dataset directory has no manifest file."""


class BadTimestampError(DatasetError):
    """An event timestamp is negative or out of order."""


class ChannelRangeError(DatasetError):
    """An event names a channel outside the configured channel count."""


class LabelRangeError(DatasetError):
    """A trial label is outside [1, class_count]."""


class TrialIdError(DatasetError):
    """A trial id is empty or could name a file outside the events directory."""


def _check_trial_id(trial_id: str, path: Path | None = None, line: int | None = None) -> None:
    """Trial ids name event files, so they may not be empty or hold a path step."""
    if not trial_id or any(bad in trial_id for bad in ("/", "\\", "..")):
        raise TrialIdError(
            f"trial id {trial_id!r} is empty or contains '/', '\\' or '..'", path, line
        )


def _event_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


@dataclass(eq=False)
class Trial:
    """A labeled trial of spike events.

    ``onset`` is the movement-onset time in microseconds from trial start
    (nominally 1 s); ``duration`` the trial length.  Event ``i`` is a spike
    on channel ``channels[i]`` at ``times_us[i]`` microseconds from trial
    start; both are 1-D int64 arrays of equal length, sorted non-decreasing
    in time.
    """

    id: str
    label: int
    onset: int
    duration: int
    times_us: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    channels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.times_us = _event_array(self.times_us, "times_us")
        self.channels = _event_array(self.channels, "channels")
        if len(self.times_us) != len(self.channels):
            raise ValueError(
                f"trial {self.id!r}: {len(self.times_us)} times but {len(self.channels)} channels"
            )


@dataclass
class SpikeDataset:
    """A set of labeled trials over ``channel_count`` channels and ``class_count`` classes."""

    trials: list[Trial]
    channel_count: int
    class_count: int
    metadata: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        for trial in self.trials:
            _check_trial_id(trial.id)
            if not (1 <= trial.label <= self.class_count):
                raise LabelRangeError(
                    f"trial {trial.id!r}: label {trial.label} outside [1, {self.class_count}]"
                )
            if not (0 <= trial.onset <= trial.duration):
                raise DatasetError(
                    f"trial {trial.id!r}: onset {trial.onset} outside [0, {trial.duration}]"
                )
            times, channels = trial.times_us, trial.channels
            prev = np.concatenate(([-1], times))[:-1]
            bad_time = (times < 0) | (times < prev)
            bad = np.flatnonzero(bad_time | (channels < 0) | (channels >= self.channel_count))
            if bad.size:
                i = bad[0]
                if bad_time[i]:
                    raise BadTimestampError(
                        f"trial {trial.id!r}: bad event time {times[i]} after {prev[i]}"
                    )
                raise ChannelRangeError(
                    f"trial {trial.id!r}: channel {channels[i]} outside [0, {self.channel_count})"
                )


@dataclass
class SynthParams:
    """Parameters of the tuned-Poisson synthetic dataset generator.

    Rates are in Hz; ramp times are milliseconds relative to movement onset
    (negative = before onset).  Each neuron's preferred class is assigned
    round-robin; the peak rate is attenuated by a raised cosine of the
    circular class distance over ``tuning_width`` classes.
    """

    q: int = 30  # input channels
    m: int = 12  # movement classes
    baseline_rate: float = 8.0  # Hz at rest
    peak_rate: float = 90.0  # Hz at the preferred class's peak
    tuning_width: float = 2.0  # raised-cosine half-width, in class distance
    ramp_start_ms: float = -300.0  # rate envelope, relative to onset
    ramp_peak_ms: float = -100.0
    decay_start_ms: float = 100.0
    decay_end_ms: float = 300.0
    onset_ms: float = 1000.0
    trial_duration_ms: float = 2000.0
    trials_per_class: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.q < 1 or self.m < 1:
            raise ValueError("q and m must be >= 1")
        if not (self.peak_rate >= self.baseline_rate >= 0.0):
            raise ValueError("need peak_rate >= baseline_rate >= 0")
        if self.trials_per_class < 1:
            raise ValueError("trials_per_class must be >= 1")
        if not (self.ramp_start_ms <= self.ramp_peak_ms <= self.decay_start_ms <= self.decay_end_ms):
            raise ValueError("need ramp_start <= ramp_peak <= decay_start <= decay_end")
        if self.tuning_width <= 0:
            raise ValueError("tuning_width must be positive")


def class_distance(a: int, b: int, m: int) -> int:
    """Circular distance between class labels ``a`` and ``b`` on a ring of ``m``."""
    d = abs(a - b) % m
    return min(d, m - d)


def tuned_peak_rate(params: SynthParams, neuron_class: int, trial_class: int) -> float:
    """Peak firing rate of a neuron for a given trial class.

    Raised-cosine attenuation: full ``peak_rate`` at distance 0, falling to
    ``baseline_rate`` at ``tuning_width`` classes away and beyond.
    """
    d = class_distance(neuron_class, trial_class, params.m)
    u = min(d / params.tuning_width, 1.0)
    atten = 0.5 * (1.0 + math.cos(math.pi * u))
    return params.baseline_rate + (params.peak_rate - params.baseline_rate) * atten


def rate_profile(params: SynthParams, peak, t_us) -> np.ndarray:
    """Programmed firing rate (Hz) at each time in ``t_us``, for neurons with tuned ``peak``.

    ``peak`` is a scalar or an array broadcastable to ``t_us``.  The profile
    is trapezoidal around the movement onset: baseline, a linear rise over
    [ramp_start, ramp_peak), a hold at the tuned peak through decay_start,
    then a linear return to baseline by decay_end.  Each segment is computed
    only where it applies, with the same float expressions for every element,
    so the result does not depend on how times are batched.
    """
    t = np.asarray(t_us, dtype=np.int64)
    peak = np.broadcast_to(np.asarray(peak, dtype=np.float64), t.shape)
    base = params.baseline_rate
    ramp_start = (params.onset_ms + params.ramp_start_ms) * 1000.0
    ramp_peak = (params.onset_ms + params.ramp_peak_ms) * 1000.0
    decay_start = (params.onset_ms + params.decay_start_ms) * 1000.0
    decay_end = (params.onset_ms + params.decay_end_ms) * 1000.0

    rate = np.full(t.shape, base, dtype=np.float64)
    inside = (t >= ramp_start) & (t < decay_end)
    rise = inside & (t < ramp_peak)
    hold = inside & ~rise & (t < decay_start)
    fall = inside & ~rise & ~hold
    frac = (t[rise] - ramp_start) / (ramp_peak - ramp_start)
    rate[rise] = base + (peak[rise] - base) * frac
    rate[hold] = peak[hold]
    frac = (t[fall] - decay_start) / (decay_end - decay_start)
    rate[fall] = peak[fall] + (base - peak[fall]) * frac
    return rate


def _candidate_times(
    rng: np.random.Generator, params: SynthParams, peak: float, duration_us: int
) -> tuple[np.ndarray, np.ndarray]:
    """One neuron's sorted candidate spike times (int us) and thinning draws.

    A candidate at time ``t`` is kept when its draw is below the programmed
    rate at ``t``.  Draws are uniform on [0, max rate).
    """
    rate_max = max(peak, params.baseline_rate)
    if rate_max <= 0.0 or duration_us <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    n = rng.poisson(rate_max * duration_us * 1e-6)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    times = rng.integers(0, duration_us, size=n)
    times.sort()
    return times, rng.random(n) * rate_max


def gen_synthetic(params: SynthParams) -> SpikeDataset:
    """Generate a tuned-Poisson dataset, deterministic in ``params.seed``.

    Trials are generated class-major (``trials_per_class`` trials for class 1,
    then class 2, ...), neurons in index order within a trial, so the random
    stream consumption is fixed.
    """
    params.validate()
    rng = np.random.default_rng(params.seed)
    duration_us = int(round(params.trial_duration_ms * 1000.0))
    onset_us = int(round(params.onset_ms * 1000.0))
    neurons = np.arange(params.q, dtype=np.int64)

    trials = []
    for cls in range(1, params.m + 1):
        peaks = [tuned_peak_rate(params, (j % params.m) + 1, cls) for j in range(params.q)]
        for rep in range(params.trials_per_class):
            drawn = [_candidate_times(rng, params, peak, duration_us) for peak in peaks]
            counts = [len(t) for t, _ in drawn]
            times = np.concatenate([t for t, _ in drawn])
            draws = np.concatenate([a for _, a in drawn])
            channels = np.repeat(neurons, counts)
            keep = draws < rate_profile(params, np.repeat(peaks, counts), times)
            times, channels = times[keep], channels[keep]
            order = np.lexsort((channels, times))
            trials.append(
                Trial(
                    id=f"c{cls:02d}_r{rep:03d}",
                    label=cls,
                    onset=onset_us,
                    duration=duration_us,
                    times_us=times[order],
                    channels=channels[order],
                )
            )
    metadata = {"source": "synthetic", "seed": str(params.seed)}
    ds = SpikeDataset(trials, channel_count=params.q, class_count=params.m, metadata=metadata)
    ds.validate()
    return ds


def _read_lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _parse_int(value: str, what: str, path: Path, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise DatasetError(f"bad {what}: {value!r}", path, line) from None


def _parse_meta(path: Path) -> tuple[int | None, int | None, dict[str, str]]:
    q = m = None
    metadata: dict[str, str] = {}
    for i, line in enumerate(_read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DatasetError(f"bad meta line: {line!r}", path, i)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key == "channel_count":
            q = _parse_int(value, "channel_count", path, i)
        elif key == "class_count":
            m = _parse_int(value, "class_count", path, i)
        else:
            metadata[key] = value
    return q, m, metadata


_BLANK_RUNS = re.compile(r"\n{2,}")
# Rows of two unsigned ASCII integers; 18 digits cannot overflow int64, so
# np.fromstring reads a matching body exactly as int() would.
_CANONICAL_BODY = re.compile(r"[0-9]{1,18},[0-9]{1,18}(?:\n[0-9]{1,18},[0-9]{1,18})*")


def _scan_rows(path: Path, lines: list[str], q: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Times and channels of event rows read one at a time with ``int()``.

    Reads every file whose body :func:`_parse_events` cannot take in one
    pass; the first bad row raises an error that names its file and line.
    """
    times, channels = [], []
    prev_time = -1
    for j, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DatasetError(f"expected 2 fields, got {len(parts)}", path, j)
        t = _parse_int(parts[0], "time_us", path, j)
        ch = _parse_int(parts[1], "channel", path, j)
        if t < 0:
            raise BadTimestampError(f"negative timestamp {t}", path, j)
        if t < prev_time:
            raise BadTimestampError(f"timestamp {t} after {prev_time}", path, j)
        if ch < 0 or (q is not None and ch >= q):
            raise ChannelRangeError(f"channel {ch} outside [0, {q})", path, j)
        if t > _INT64_MAX:
            raise BadTimestampError(f"timestamp {t} outside the int64 range", path, j)
        if ch > _INT64_MAX:
            raise ChannelRangeError(f"channel {ch} outside the int64 range", path, j)
        times.append(t)
        channels.append(ch)
        prev_time = t
    return np.array(times, dtype=np.int64), np.array(channels, dtype=np.int64)


def _parse_events(path: Path, q: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Times and channels of one event file.

    Blank rows are skipped.  A body of canonical rows (``time,channel``,
    unsigned ASCII digits, at most 18 each) is read in one pass by numpy and
    checked as a whole: times sorted, channels below ``q``.  Every other
    body, and one that fails a check, goes to the row-by-row scan.
    """
    text = path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    if header != EVENTS_HEADER:
        raise DatasetError(f"expected header {EVENTS_HEADER!r}", path, 1)
    body = body.strip("\n")
    if not body:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if "\n\n" in body:
        body = _BLANK_RUNS.sub("\n", body)
    if _CANONICAL_BODY.fullmatch(body):
        values = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",")
        times, channels = values[0::2], values[1::2]
        if not np.any(times[1:] < times[:-1]) and (q is None or channels.max() < q):
            return times, channels
    return _scan_rows(path, text.split("\n"), q)


def parse_dataset(root_path: str | Path) -> SpikeDataset:
    """Load and validate a dataset directory.

    Raises a distinct :class:`DatasetError` subclass naming file and line for
    a missing manifest, unsorted or negative timestamps, channels outside the
    channel count, and labels outside the class count.
    """
    root = Path(root_path)
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise MissingManifestError("manifest not found", manifest)

    meta_path = root / META_NAME
    q = m = None
    metadata: dict[str, str] = {}
    if meta_path.is_file():
        q, m, metadata = _parse_meta(meta_path)

    lines = _read_lines(manifest)
    if not lines or lines[0] != MANIFEST_HEADER:
        raise DatasetError(f"expected header {MANIFEST_HEADER!r}", manifest, 1)

    trials = []
    max_channel = -1
    max_label = 0
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DatasetError(f"expected 4 fields, got {len(parts)}", manifest, i)
        trial_id = parts[0]
        _check_trial_id(trial_id, manifest, i)
        label = _parse_int(parts[1], "label", manifest, i)
        onset = _parse_int(parts[2], "onset_us", manifest, i)
        duration = _parse_int(parts[3], "duration_us", manifest, i)
        if m is not None and not (1 <= label <= m):
            raise LabelRangeError(f"label {label} outside [1, {m}]", manifest, i)
        if label < 1:
            raise LabelRangeError(f"label {label} below 1", manifest, i)
        max_label = max(max_label, label)

        events_path = root / EVENTS_DIR / f"{trial_id}.csv"
        if not events_path.is_file():
            raise DatasetError("event file not found", events_path)
        times, channels = _parse_events(events_path, q)
        if len(channels):
            max_channel = max(max_channel, int(channels.max()))
        trials.append(Trial(trial_id, label, onset, duration, times, channels))

    if q is None:
        q = max(max_channel + 1, 1)
    if m is None:
        m = max(max_label, 1)
    ds = SpikeDataset(trials, channel_count=q, class_count=m, metadata=metadata)
    ds.validate()
    return ds


def write_dataset(dataset: SpikeDataset, root_path: str | Path) -> None:
    """Write a dataset directory (manifest, meta, per-trial event files).

    Output is deterministic: trial order is preserved, metadata keys are
    sorted, lines are LF-terminated.  Datasets written here round-trip
    byte-for-byte through :func:`parse_dataset`.
    """
    dataset.validate()
    root = Path(root_path)
    (root / EVENTS_DIR).mkdir(parents=True, exist_ok=True)

    manifest_lines = [MANIFEST_HEADER]
    for trial in dataset.trials:
        manifest_lines.append(f"{trial.id},{trial.label},{trial.onset},{trial.duration}")
    (root / MANIFEST_NAME).write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")

    meta_lines = [
        f"channel_count = {dataset.channel_count}",
        f"class_count = {dataset.class_count}",
    ]
    for key in sorted(dataset.metadata):
        value = dataset.metadata[key]
        if "\n" in key or "\n" in value:
            raise DatasetError(f"metadata entry {key!r} contains a newline")
        meta_lines.append(f"{key} = {value}")
    (root / META_NAME).write_text("\n".join(meta_lines) + "\n", encoding="utf-8")

    for trial in dataset.trials:
        rows = np.column_stack((trial.times_us, trial.channels))
        text = ("%d,%d\n" * len(rows)) % tuple(rows.ravel().tolist())
        path = root / EVENTS_DIR / f"{trial.id}.csv"
        path.write_text(f"{EVENTS_HEADER}\n{text}", encoding="utf-8")
