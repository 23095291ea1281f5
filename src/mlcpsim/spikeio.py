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

Reading and writing go one trial at a time.  :func:`read_manifest` reads and
checks the manifest and ``meta.txt``; it reads the event files, one at a
time, only to infer a channel count that neither declares.  Its ``Manifest``
is read as a ``SpikeDataset`` is (``Dataset``): ``trials`` gives each
trial's id, label, onset and duration, and ``trial(i)`` reads trial i's
events.  Every command reads a dataset so, holding one trial's events at a
time; :func:`parse_dataset` reads every trial into memory.  :func:`write_trials`
checks and writes each trial it is given before it takes the next, and
:func:`write_dataset` checks a whole dataset first and then writes it so;
:func:`synthetic_trials` makes synthetic trials one at a time, and
:func:`gen_synthetic` keeps them all.

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
import os
import re
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fields import FieldError, bounds, check_fields

MANIFEST_NAME = "manifest.csv"
META_NAME = "meta.txt"
EVENTS_DIR = "events"

MANIFEST_HEADER = "trial_id,label,onset_us,duration_us"
EVENTS_HEADER = "time_us,channel"

_INT64_MAX = int(np.iinfo(np.int64).max)
#: The largest mean ``Generator.poisson`` accepts (numpy's ``POISSON_LAM_MAX``).
POISSON_LAM_MAX = _INT64_MAX - math.sqrt(_INT64_MAX) * 10


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


class ChannelCountError(DatasetError):
    """A dataset declares a channel count other than the one it is read for."""


class TrialIdError(DatasetError):
    """A trial id is empty, holds a path step, ',' or a line break, or repeats one."""


def _check_trial_id(trial_id: str, seen: set, path: Path | None = None,
                    line: int | None = None) -> None:
    """Ids name event files and manifest rows: refuse one empty, with a path
    step, ',' or a line break, or in ``seen``; add it."""
    if not trial_id or any(bad in trial_id for bad in ("/", "\\", "..")):
        raise TrialIdError(
            f"trial id {trial_id!r} is empty or contains '/', '\\' or '..'", path, line
        )
    if any(bad in trial_id for bad in (",", "\n", "\r")):
        raise TrialIdError(f"trial id {trial_id!r} contains ',' or a line break", path, line)
    if trial_id in seen:
        raise TrialIdError(f"trial id {trial_id!r} repeats an earlier trial's", path, line)
    seen.add(trial_id)


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
        seen: set[str] = set()
        for trial in self.trials:
            _check_trial(trial, self.channel_count, self.class_count, seen)

    def trial(self, index: int) -> Trial:
        """Trial ``index``, as ``Manifest.trial`` reads it."""
        return self.trials[index]


def _check_trial(trial: Trial, channel_count: int, class_count: int, seen: set) -> None:
    """Raise the ``DatasetError`` of the first rule ``trial`` breaks after
    trials of ids ``seen``, in ``channel_count`` channels and ``class_count`` classes."""
    _check_trial_id(trial.id, seen)
    if not (1 <= trial.label <= class_count):
        raise LabelRangeError(f"trial {trial.id!r}: label {trial.label} outside [1, {class_count}]")
    if not (0 <= trial.onset <= trial.duration):
        raise DatasetError(
            f"trial {trial.id!r}: onset {trial.onset} outside [0, {trial.duration}]"
        )
    times, channels = trial.times_us, trial.channels
    prev = np.concatenate(([-1], times))[:-1]
    bad_time = (times < 0) | (times < prev)
    bad = np.flatnonzero(bad_time | (channels < 0) | (channels >= channel_count))
    if bad.size:
        i = bad[0]
        if bad_time[i]:
            raise BadTimestampError(
                f"trial {trial.id!r}: bad event time {times[i]} after {prev[i]}"
            )
        raise ChannelRangeError(
            f"trial {trial.id!r}: channel {channels[i]} outside [0, {channel_count})"
        )


@dataclass
class SynthParams:
    """Parameters of the tuned-Poisson synthetic dataset generator.

    Rates are in Hz; ramp times are milliseconds relative to movement onset
    (negative = before onset).  Each neuron's preferred class is assigned
    round-robin; the peak rate is attenuated by a raised cosine of the
    circular class distance over ``tuning_width`` classes.
    """

    q: int = bounds(30, ge=1)  # input channels
    m: int = bounds(12, ge=1)  # movement classes
    baseline_rate: float = bounds(8.0, ge=0.0)  # Hz at rest
    peak_rate: float = bounds(90.0, ge_field="baseline_rate")  # Hz at the preferred class's peak
    tuning_width: float = bounds(2.0, gt=0)  # raised-cosine half-width, in class distance
    ramp_start_ms: float = -300.0  # rate envelope, relative to onset, in this order
    ramp_peak_ms: float = bounds(-100.0, ge_field="ramp_start_ms")
    decay_start_ms: float = bounds(100.0, ge_field="ramp_peak_ms")
    decay_end_ms: float = bounds(300.0, ge_field="decay_start_ms")
    onset_ms: float = bounds(1000.0, ge=0.0)
    trial_duration_ms: float = bounds(2000.0, ge=0.0, ge_field="onset_ms")
    trials_per_class: int = bounds(10, ge=1)
    seed: int = bounds(0, ge=0)

    def __post_init__(self):
        check_fields(self)
        # each neuron's candidate count is one Poisson draw of this mean, as
        # ``_candidate_times`` computes it; numpy refuses one above its limit
        rate_max = max(tuned_peak_rate(self, 1, 1), self.baseline_rate)
        if not _poisson_mean(rate_max, _us(self.trial_duration_ms)) <= POISSON_LAM_MAX:
            raise FieldError("trial_duration_ms", f"short enough that {{}} ({rate_max:g} Hz) "
                             f"times it is a Poisson mean numpy can draw (at most "
                             f"{POISSON_LAM_MAX:.6g})", self.trial_duration_ms, "peak_rate")


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


def _us(ms: float) -> int:
    """A time in milliseconds as whole microseconds."""
    return int(round(ms * 1000.0))


def _poisson_mean(rate_max: float, duration_us: int) -> float:
    """Mean candidate count of a neuron at ``rate_max`` Hz over ``duration_us``."""
    return rate_max * duration_us * 1e-6


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
    n = rng.poisson(_poisson_mean(rate_max, duration_us))
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    times = rng.integers(0, duration_us, size=n)
    times.sort()
    return times, rng.random(n) * rate_max


def synthetic_trials(params: SynthParams) -> Iterator[Trial]:
    """The tuned-Poisson trials, made one at a time, deterministic in ``params.seed``.

    Trials are generated class-major (``trials_per_class`` trials for class 1,
    then class 2, ...), neurons in index order within a trial, so the random
    stream consumption is fixed.  The checks on ``SynthParams`` make every
    trial valid by construction.
    """
    rng = np.random.default_rng(params.seed)
    duration_us = _us(params.trial_duration_ms)
    onset_us = _us(params.onset_ms)
    neurons = np.arange(params.q, dtype=np.int64)

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
            yield Trial(
                id=f"c{cls:02d}_r{rep:03d}",
                label=cls,
                onset=onset_us,
                duration=duration_us,
                times_us=times[order],
                channels=channels[order],
            )


def synthetic_metadata(params: SynthParams) -> dict[str, str]:
    """The ``meta.txt`` entries of a synthetic dataset beside its counts."""
    return {"source": "synthetic", "seed": str(params.seed)}


def gen_synthetic(params: SynthParams) -> SpikeDataset:
    """Generate a tuned-Poisson dataset: every :func:`synthetic_trials` trial."""
    return SpikeDataset(list(synthetic_trials(params)), channel_count=params.q,
                        class_count=params.m, metadata=synthetic_metadata(params))


def _event_path(root: Path, trial_id: str) -> Path:
    return root / EVENTS_DIR / f"{trial_id}.csv"


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
    counts: dict[str, int] = {}
    metadata: dict[str, str] = {}
    for i, line in enumerate(_read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DatasetError(f"bad meta line: {line!r}", path, i)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in ("channel_count", "class_count"):
            counts[key] = _parse_int(value, key, path, i)
            if counts[key] < 1:
                raise DatasetError(f"{key} must be >= 1, got {counts[key]}", path, i)
        else:
            metadata[key] = value
    return counts.get("channel_count"), counts.get("class_count"), metadata


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


def _read_event_file(path: Path) -> bytes:
    """The bytes of the regular file ``path``, read with one open, one stat,
    reads to its end and one close; "event file not found" if it is missing
    or not a regular file (a directory, a FIFO or a device)."""
    try:  # non-blocking, so that a FIFO in the file's place cannot hang the open
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise DatasetError("event file not found", path) from None
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise DatasetError("event file not found", path)
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _parse_events(path: Path, q: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Times and channels of one event file.

    Blank rows are skipped.  A body of canonical rows (``time,channel``,
    unsigned ASCII digits, at most 18 each) is read in one pass by numpy and
    checked as a whole: times sorted, channels below ``q``.  Every other
    body, and one that fails a check, goes to the row-by-row scan.  The
    file's bytes are decoded to the text ``Path.read_text`` gives: UTF-8,
    ``\\r\\n`` and ``\\r`` read as ``\\n``.
    """
    text = _read_event_file(path).decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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


class TrialRow(NamedTuple):
    """One manifest row: a trial's fields without its events."""

    id: str
    label: int
    onset: int
    duration: int


@dataclass
class Manifest:
    """A dataset directory's trial list and ``meta.txt``, as
    :func:`read_manifest` reads and checks them.

    ``trials`` are the manifest's rows in file order, blank lines skipped,
    so row ``i`` is trial ``i`` of the dataset.  ``channel_count`` is the count
    events are checked against: the one ``meta.txt`` declares, else the one
    the reader was asked for, else one past the largest channel of any
    event.  ``class_count`` is the declared one, else the largest label.
    """

    root: Path
    trials: list[TrialRow]
    channel_count: int
    class_count: int
    metadata: dict[str, str]

    def trial(self, index: int) -> Trial:
        """Trial ``index`` with its events, read from its event file."""
        row = self.trials[index]
        return Trial(*row, *_parse_events(_event_path(self.root, row.id), self.channel_count))

    def index(self, selector: str) -> int:
        """The index of the trial that ``selector`` names by id, else by index."""
        ids = [row.id for row in self.trials]
        if selector in ids:
            return ids.index(selector)
        if re.fullmatch(r"-?[0-9]+", selector):  # ASCII digits alone
            if not (0 <= int(selector) < len(ids)):
                raise DatasetError(f"trial index {int(selector)} out of range [0, {len(ids)})")
            return int(selector)
        raise DatasetError(f"no trial with id {selector!r}")


#: A dataset as the pipeline reads it: ``trials``, and ``trial(i)``.
Dataset = SpikeDataset | Manifest


def read_manifest(root_path: str | Path, channel_count: int | None = None) -> Manifest:
    """Read and check a dataset's manifest and ``meta.txt``.

    Every row is checked: field count, unique trial id, integer fields,
    label at least 1 and within a declared class count, onset in [0, duration].
    ``channel_count``, if given, is the count the caller needs: a
    ``meta.txt`` that declares another raises :class:`ChannelCountError`.
    A channel count that neither gives is inferred in one pass over the
    event files, each read and dropped before the next.
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
    if channel_count is not None and q not in (None, channel_count):
        raise ChannelCountError(
            f"meta.txt declares {q} channels where {channel_count} are expected", meta_path)

    lines = _read_lines(manifest)
    if not lines or lines[0] != MANIFEST_HEADER:
        raise DatasetError(f"expected header {MANIFEST_HEADER!r}", manifest, 1)

    rows, seen = [], set()
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DatasetError(f"expected 4 fields, got {len(parts)}", manifest, i)
        trial_id = parts[0]
        _check_trial_id(trial_id, seen, manifest, i)
        label = _parse_int(parts[1], "label", manifest, i)
        onset = _parse_int(parts[2], "onset_us", manifest, i)
        duration = _parse_int(parts[3], "duration_us", manifest, i)
        if m is not None and not (1 <= label <= m):
            raise LabelRangeError(f"label {label} outside [1, {m}]", manifest, i)
        if label < 1:
            raise LabelRangeError(f"label {label} below 1", manifest, i)
        if not (0 <= onset <= duration):
            raise DatasetError(f"trial {trial_id!r}: onset {onset} outside [0, {duration}]",
                               manifest, i)
        rows.append(TrialRow(trial_id, label, onset, duration))
    q = channel_count if q is None else q
    if q is None:  # one past the largest channel of any event
        channels = (_parse_events(_event_path(root, row.id), None)[1] for row in rows)
        q = max([int(c.max()) + 1 for c in channels if len(c)], default=1)
    if m is None:
        m = max([row.label for row in rows], default=1)
    return Manifest(root, rows, q, m, metadata)


def parse_dataset(root_path: str | Path, channel_count: int | None = None) -> SpikeDataset:
    """Load and validate a dataset directory: :func:`read_manifest`, then
    every trial's event file, read into memory.

    Raises a distinct :class:`DatasetError` subclass naming file and line for
    a missing manifest, unsorted or negative timestamps, channels outside the
    channel count, and labels outside the class count.
    """
    manifest = read_manifest(root_path, channel_count)
    return SpikeDataset([manifest.trial(i) for i in range(len(manifest.trials))],
                        manifest.channel_count, manifest.class_count, manifest.metadata)


def write_trials(root_path: str | Path, trials: Iterable[Trial], channel_count: int,
                 class_count: int, metadata: dict[str, str]) -> int:
    """Write a dataset directory of ``trials``, one at a time, and return
    how many it wrote.

    Each trial is checked by :meth:`SpikeDataset.validate`'s rules and its
    event file written before the next is taken, so only one trial need be
    in memory; the manifest follows the last.  A bad trial raises after the
    files of the trials before it are written.  Output is deterministic:
    trial order is preserved, metadata keys are sorted, lines are
    LF-terminated.  A metadata entry that would not read back as itself is
    refused by its key before anything is written.
    """
    for key, value in sorted(metadata.items()):
        for bad, what in ((any(c in key + value for c in "\n\r"), "or its value holds a newline"),
                          (not key or "=" in key or key.startswith("#"),
                           "is empty, holds '=' or starts with '#'"),
                          (key in ("channel_count", "class_count"), "is a count meta.txt declares"),
                          (key != key.strip() or value != value.strip(),
                           "or its value has surrounding whitespace")):
            if bad:
                raise DatasetError(f"metadata key {key!r} {what}")
    root = Path(root_path)
    (root / EVENTS_DIR).mkdir(parents=True, exist_ok=True)

    meta_lines = [f"channel_count = {channel_count}", f"class_count = {class_count}"]
    meta_lines += [f"{key} = {metadata[key]}" for key in sorted(metadata)]
    (root / META_NAME).write_text("\n".join(meta_lines) + "\n", encoding="utf-8")

    manifest_lines, seen = [MANIFEST_HEADER], set()
    for trial in trials:
        _check_trial(trial, channel_count, class_count, seen)
        rows = np.column_stack((trial.times_us, trial.channels))
        text = ("%d,%d\n" * len(rows)) % tuple(rows.ravel().tolist())
        _event_path(root, trial.id).write_text(f"{EVENTS_HEADER}\n{text}", encoding="utf-8")
        manifest_lines.append(f"{trial.id},{trial.label},{trial.onset},{trial.duration}")
    (root / MANIFEST_NAME).write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    return len(manifest_lines) - 1


def write_dataset(dataset: SpikeDataset, root_path: str | Path) -> None:
    """Write a dataset directory (manifest, meta, per-trial event files):
    every trial is checked before anything is written, then
    :func:`write_trials` writes them.  Datasets written here round-trip
    byte-for-byte through :func:`parse_dataset`.
    """
    dataset.validate()
    write_trials(root_path, dataset.trials, dataset.channel_count, dataset.class_count,
                 dataset.metadata)
