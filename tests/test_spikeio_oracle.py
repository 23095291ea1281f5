"""Scalar oracles for the array-based spike I/O.

``oracle_parse_events`` is the row-by-row event-file parser that
``parse_dataset`` used before event files were parsed in one pass (with the
int64 range errors that ``parse_dataset`` raises for a time or channel
beyond int64), and
``rate_at`` is the scalar rate profile that ``rate_profile`` vectorizes.
Both live here only as references: the package must match them exactly,
down to the exception type and message and the bits of every rate.
"""

import importlib
import math
import pkgutil
import re

import numpy as np
import pytest

import mlcpsim
from mlcpsim import spikeio
from mlcpsim.cli import main
from mlcpsim.spikeio import (
    EVENTS_HEADER,
    BadTimestampError,
    ChannelRangeError,
    DatasetError,
    SynthParams,
    Trial,
    gen_synthetic,
    parse_dataset,
    rate_profile,
    tuned_peak_rate,
    write_dataset,
)


INT64_MAX = int(np.iinfo(np.int64).max)


def oracle_parse_events(path, q):
    """Row-by-row reference parse of one event file: (times, channels) lists."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != EVENTS_HEADER:
        raise DatasetError(f"expected header {EVENTS_HEADER!r}", path, 1)

    def parse_int(value, what, line):
        try:
            return int(value)
        except ValueError:
            raise DatasetError(f"bad {what}: {value!r}", path, line) from None

    times, channels = [], []
    prev_time = -1
    for j, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DatasetError(f"expected 2 fields, got {len(parts)}", path, j)
        t = parse_int(parts[0], "time_us", j)
        ch = parse_int(parts[1], "channel", j)
        if t < 0:
            raise BadTimestampError(f"negative timestamp {t}", path, j)
        if t < prev_time:
            raise BadTimestampError(f"timestamp {t} after {prev_time}", path, j)
        if ch < 0 or (q is not None and ch >= q):
            raise ChannelRangeError(f"channel {ch} outside [0, {q})", path, j)
        if t > INT64_MAX:
            raise BadTimestampError(f"timestamp {t} outside the int64 range", path, j)
        if ch > INT64_MAX:
            raise ChannelRangeError(f"channel {ch} outside the int64 range", path, j)
        times.append(t)
        channels.append(ch)
        prev_time = t
    return times, channels


def rate_at(params, peak, t_us):
    """Scalar reference for the trapezoidal rate profile at one time."""
    ramp_start = (params.onset_ms + params.ramp_start_ms) * 1000.0
    ramp_peak = (params.onset_ms + params.ramp_peak_ms) * 1000.0
    decay_start = (params.onset_ms + params.decay_start_ms) * 1000.0
    decay_end = (params.onset_ms + params.decay_end_ms) * 1000.0
    if t_us < ramp_start or t_us >= decay_end:
        return params.baseline_rate
    if t_us < ramp_peak:
        frac = (t_us - ramp_start) / (ramp_peak - ramp_start)
        return params.baseline_rate + (peak - params.baseline_rate) * frac
    if t_us < decay_start:
        return peak
    frac = (t_us - decay_start) / (decay_end - decay_start)
    return peak + (params.baseline_rate - peak) * frac


# ------------------------------------------------------------ event parser

EVENT_FILES = {
    "misaligned_rows": "time_us,channel\n1,2,3\n4\n",
    "trailing_comma": "time_us,channel\n5,\n",
    "empty_time_field": "time_us,channel\n,1\n",
    "one_field": "time_us,channel\n5\n",
    "three_fields_after_good_row": "time_us,channel\n1,0\n2,1,\n",
    "whitespace_only_row": "time_us,channel\n1,0\n \n",
    "blank_lines_in_middle": "time_us,channel\n\n1,0\n\n\n2,1\n\n3,2\n\n",
    "crlf_endings": "time_us,channel\r\n1,0\r\n2,3\r\n",
    "cr_endings": "time_us,channel\r1,0\r2,3\r",
    "no_final_newline": "time_us,channel\n1,0\n2,3",
    "leading_space": "time_us,channel\n 5,1\n",
    "plus_sign": "time_us,channel\n+5,1\n",
    "underscore_digits": "time_us,channel\n1_000,1\n",
    "non_ascii_digits": "time_us,channel\n٣,1\n",
    "decimal_point": "time_us,channel\n1.5,1\n",
    "bad_channel_token": "time_us,channel\n1,0\n2,x\n",
    "negative_time": "time_us,channel\n1,0\n-5,0\n",
    "huge_negative_time": "time_us,channel\n-99999999999999999999999,0\n",
    "unsorted_times": "time_us,channel\n100,0\n50,0\n",
    "equal_times": "time_us,channel\n7,1\n7,0\n7,3\n",
    "channel_equal_to_count": "time_us,channel\n1,3\n2,4\n",
    "bad_channel_before_bad_time": "time_us,channel\n5,0\n6,9\n4,0\n",
    "negative_channel_before_bad_time": "time_us,channel\n5,0\n6,-1\n4,0\n",
    "bad_time_before_bad_channel": "time_us,channel\n5,0\n4,9\n6,-1\n",
    "bad_time_and_channel_same_row": "time_us,channel\n5,0\n4,-1\n",
    "header_only": "time_us,channel\n",
    "header_without_newline": "time_us,channel",
    "empty_file": "",
    "wrong_header": "time,channel\n1,0\n",
    # boundaries of the canonical-row grammar the one-pass reader accepts
    "leading_zeros": "time_us,channel\n007,03\n",
    "eighteen_digit_time": "time_us,channel\n1,0\n999999999999999999,1\n",
    "int64_max_time": f"time_us,channel\n1,0\n{2**63 - 1},1\n",
    "one_past_int64_max_time": f"time_us,channel\n1,0\n{2**63},1\n",
    "one_past_int64_max_channel": f"time_us,channel\n1,{2**63}\n",
    "one_cr_ended_row": "time_us,channel\n1,0\n2,3\r\n4,1\n",
    "three_fields_in_last_row": "time_us,channel\n1,0\n2,1\n3,2,1\n",
}


def _write_one_trial(root, events_text, with_meta):
    (root / "manifest.csv").write_text(
        "trial_id,label,onset_us,duration_us\nt0,1,5,10\n", encoding="utf-8"
    )
    (root / "events").mkdir()
    (root / "events" / "t0.csv").write_bytes(events_text.encode("utf-8"))
    if with_meta:
        (root / "meta.txt").write_text("channel_count = 4\nclass_count = 2\n", encoding="utf-8")
    return root / "events" / "t0.csv"


def _outcome(fn):
    try:
        return fn()
    except DatasetError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("with_meta", [True, False], ids=["meta", "no_meta"])
@pytest.mark.parametrize("name", sorted(EVENT_FILES))
def test_parser_matches_row_by_row_oracle(tmp_path, name, with_meta):
    path = _write_one_trial(tmp_path, EVENT_FILES[name], with_meta)
    expected = _outcome(lambda: oracle_parse_events(path, 4 if with_meta else None))

    def parse():
        trial = parse_dataset(tmp_path).trials[0]
        assert trial.times_us.dtype == np.int64 and trial.channels.dtype == np.int64
        return trial.times_us.tolist(), trial.channels.tolist()

    assert _outcome(parse) == expected


def _canonical_rows(rng, big):
    """Sorted event rows as ``write_dataset`` formats them, values below 10**18."""
    n = int(rng.integers(1, 8))
    times = np.sort(rng.integers(0, 10**17 if big else 3000, size=n))
    return [[str(t), str(c)] for t, c in zip(times, rng.integers(0, 4, size=n))]


def _perturb(rng, rows):
    """Event-file text of ``rows`` with one random change to the canonical form."""
    i = int(rng.integers(len(rows)))
    f = int(rng.integers(2))
    field = rows[i][f]
    kind = int(rng.integers(18))
    if kind == 0:
        rows[i][f] = "0" * int(rng.integers(1, 20)) + field
    elif kind == 1:
        rows[i][f] = rng.choice(["+", "-", " ", "\t"]) + field
    elif kind == 2:
        rows[i][f] = field + rng.choice([" ", "\t", "\r", "\x0b", "\x0c"])
    elif kind == 3:
        rows[i][f] = field[:1] + "_" + field[1:] if len(field) > 1 else field + "_"
    elif kind == 4:
        rows[i][f] = field.replace(field[0], rng.choice(["\u0663", "\uff13", "\u0967"]), 1)
    elif kind == 5:
        rows[i][f] = rng.choice(["", "x", "1.0", "1e3", "0x1", "nan", "--1"])
    elif kind == 6:
        rows[i][f] = str(int(rng.choice([10**18, 2**63 - 1, 2**63, 2**64, 10**19 + 7])))
    elif kind == 7:
        rows[i].append(rng.choice(["", "1"]))
    elif kind == 8:
        rows[i] = [rows[i][0] + rows[i][1]]
    elif kind == 9:
        rows.insert(i, [""])  # a blank row
    elif kind == 10:
        rows[i] = [" "]
    elif kind == 11 and len(rows) > 1:
        rows[i], rows[-1] = rows[-1], rows[i]
        rows.insert(0, [str(10**17 + 1), "0"])  # out of order from the first row on
    elif kind == 12:
        rows[i][1] = str(int(rng.integers(4, 1000)))
    text = "time_us,channel\n" + "".join(",".join(r) + "\n" for r in rows)
    if kind == 13:
        text = text.rstrip("\n")
    elif kind == 14:
        text += "\n" * int(rng.integers(1, 4))
    elif kind == 15:
        text = text.replace("\n", "\r\n", 1 + int(rng.integers(len(rows) + 1)))
    elif kind == 16:
        text = text[:-1] + "\r"
    elif kind == 17:
        text = text.replace("\n", "\n\n", 1 + int(rng.integers(len(rows))))
    return text


@pytest.mark.parametrize("seed", range(4))
def test_parser_matches_oracle_on_perturbed_canonical_files(tmp_path, seed):
    rng = np.random.default_rng(seed)
    for case in range(60):
        with_meta = bool(rng.integers(2))
        text = _perturb(rng, _canonical_rows(rng, big=bool(rng.integers(2))))
        root = tmp_path / f"case{case}"
        root.mkdir()
        path = _write_one_trial(root, text, with_meta)
        expected = _outcome(lambda: oracle_parse_events(path, 4 if with_meta else None))

        def parse():
            trial = parse_dataset(root).trials[0]
            assert trial.times_us.dtype == np.int64 and trial.channels.dtype == np.int64
            return trial.times_us.tolist(), trial.channels.tolist()

        assert _outcome(parse) == expected, text


def test_written_event_files_take_the_one_pass_reader(tmp_path, monkeypatch):
    """Every event file ``write_dataset`` writes (values below 10**18) is read
    without the row-by-row scan; a typo in the grammar would fail here."""
    dataset = gen_synthetic(SynthParams(q=6, m=2, trials_per_class=3, seed=5))
    dataset.trials += [
        Trial("silent", 1, 5, 10),
        Trial("wide", 2, 5, 10, [0, 0, 7, 10**18 - 1], [5, 0, 0, 5]),
    ]
    write_dataset(dataset, tmp_path)

    def no_scan(path, lines, q):
        raise AssertionError(f"{path.name} fell back to the row-by-row scan")

    monkeypatch.setattr(spikeio, "_scan_rows", no_scan)
    again = parse_dataset(tmp_path)
    for got, want in zip(again.trials, dataset.trials, strict=True):
        assert np.array_equal(got.times_us, want.times_us)
        assert np.array_equal(got.channels, want.channels)


def test_module_patterns_use_no_python_3_11_syntax():
    """The package supports Python 3.10, whose ``re`` rejects possessive
    quantifiers (``x*+``, ``x{1,18}+``) and atomic groups (``(?>...)``) at
    compile time, so a module-level pattern using them breaks the import."""
    patterns = {}
    for info in pkgutil.iter_modules(mlcpsim.__path__):
        module = importlib.import_module(f"mlcpsim.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                patterns[f"{info.name}.{name}"] = value.pattern
    assert "spikeio._CANONICAL_BODY" in patterns
    for name, pattern in patterns.items():
        assert not re.search(r"[*+?}]\+|\(\?>", pattern), name


@pytest.mark.parametrize("with_meta", [True, False], ids=["meta", "no_meta"])
def test_time_beyond_int64_is_named_error(tmp_path, with_meta):
    _write_one_trial(tmp_path, "time_us,channel\n1,0\n99999999999999999999999,1\n", with_meta)
    with pytest.raises(BadTimestampError) as excinfo:
        parse_dataset(tmp_path)
    assert "int64" in str(excinfo.value)
    assert "t0.csv:3" in str(excinfo.value)


def test_channel_beyond_int64_is_named_error(tmp_path):
    _write_one_trial(tmp_path, "time_us,channel\n1,99999999999999999999999\n", with_meta=False)
    with pytest.raises(ChannelRangeError) as excinfo:
        parse_dataset(tmp_path)
    assert "t0.csv:2" in str(excinfo.value)


def test_train_reports_int64_overflow_as_data_error(tmp_path, capsys):
    data = tmp_path / "ds"
    gen = ["gen", "--out", str(data), "--set", "synth.q=4", "--set", "synth.m=2",
           "--set", "synth.trials_per_class=1"]
    assert main(gen) == 0
    events = data / "events" / "c01_r000.csv"
    events.write_text(events.read_text() + "99999999999999999999999,0\n")
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "model.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "c01_r000.csv:" in err and "int64" in err


# ------------------------------------------------------------ rate profile

PROFILE_PARAMS = {
    "default": SynthParams(),
    "ramp_start_eq_ramp_peak": SynthParams(ramp_start_ms=-200.0, ramp_peak_ms=-200.0),
    "decay_start_eq_decay_end": SynthParams(decay_start_ms=150.0, decay_end_ms=150.0),
    "zero_baseline": SynthParams(baseline_rate=0.0),
    "all_breakpoints_equal": SynthParams(
        baseline_rate=0.0, ramp_start_ms=0.0, ramp_peak_ms=0.0, decay_start_ms=0.0, decay_end_ms=0.0
    ),
    "fractional_breakpoints": SynthParams(
        onset_ms=1000.0003, ramp_start_ms=-299.9997, ramp_peak_ms=-100.0001,
        decay_start_ms=100.3, decay_end_ms=333.3333,
    ),
}


@pytest.mark.parametrize("name", sorted(PROFILE_PARAMS))
def test_rate_profile_matches_scalar_oracle_bit_for_bit(name):
    params = PROFILE_PARAMS[name]
    duration_us = int(round(params.trial_duration_ms * 1000.0))
    times = {0, duration_us - 1}
    for offset_ms in (params.ramp_start_ms, params.ramp_peak_ms,
                      params.decay_start_ms, params.decay_end_ms):
        b = (params.onset_ms + offset_ms) * 1000.0
        times.update(range(math.floor(b) - 1, math.ceil(b) + 2))
    rng = np.random.default_rng(11)
    times.update(rng.integers(0, duration_us, size=300).tolist())
    t = np.array(sorted(times), dtype=np.int64)
    peaks = sorted({tuned_peak_rate(params, 1, c) for c in range(1, params.m + 1)} | {0.0})

    for peak in peaks:
        expected = np.array([rate_at(params, peak, int(x)) for x in t])
        assert rate_profile(params, peak, t).tobytes() == expected.tobytes()
    # one peak per element, as the generator batches a whole trial
    per_event = rng.choice(peaks, size=t.size)
    expected = np.array([rate_at(params, p, int(x)) for p, x in zip(per_event, t)])
    assert rate_profile(params, per_event, t).tobytes() == expected.tobytes()
