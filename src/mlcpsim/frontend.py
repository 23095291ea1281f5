"""Digital input path: sub-window spike counters and moving-window outputs.

Each of up to 128 rows carries a 4-bit sub-window spike counter (saturating
at 15) and a 6-bit moving-window output computed incrementally as

    Q_n = Q_{n-1} + D_n - D_{n-5}

i.e. the sum of the current and previous four sub-window counts, clamped to
[0, 63].  One tick equals one sub-window (20 ms at the nominal input clock),
so the window spans 100 ms.

Rows are either *external* (counting spikes from an input channel) or
*delayed* (time-delay based dimension increase): a delayed row consumes the
previous row's sub-window count delayed by 1..5 sub-windows, selected by a
per-row delay code.  Chaining delayed rows yields a feature vector laid out
channel-major as

    [r_1(t_k), r_1(t_k - d), ..., r_1(t_k - (p-1)d), r_2(t_k), ...]

which multiplies the feature dimension by p without extra electrodes.

:func:`bin_events` counts a trial's events per (tick, channel) with one
``np.bincount`` over ``tick * n_channels + channel``.  :func:`run_counts`
computes the whole trial in one vectorized pass: delayed rows are copied
once per group of rows that share a chain depth and a delay, and the window
output is the sum of five shifted slices of the sub-window counts behind
four zero ticks.  The tests cross-check it against a stateful tick-by-tick
model of the same counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import FieldError, bounds, check_fields, check_values

MAX_ROWS = 128
SUBCOUNT_MAX = 15  # 4-bit sub-window counter
WINDOW_MAX = 63  # 6-bit window output
WINDOW_SUBCOUNT = 5  # sub-windows summed per output
SDL_MAX = 4  # delay code, decodes to 1..5 sub-windows


def whole_microseconds(t_s_ms: float) -> int:
    """Sub-window length ``t_s_ms`` in µs; a ``FieldError`` unless whole."""
    us = t_s_ms * 1000.0  # a decimal ms value is whole in µs up to float noise
    if not (1.0 <= us < 9e15 and abs(us - round(us)) <= 1e-9 * us):  # 9e15 < 2**53
        raise FieldError("t_s_ms", "a multiple of 0.001 (whole microseconds) >= 0.001 and "
                         "< 9e12", t_s_ms, "")
    return round(us)


@dataclass
class FrontendConfig:
    """Row configuration of the input path.

    ``s_ext[r]`` = 0 for an external row, 1 for a delayed row; ``sdl[r]`` is
    the delay code of a delayed row (0..4, decoding to a delay of ``sdl+1``
    sub-windows, 20-100 ms).  Row 0 must be external.
    """

    rows: int = bounds(ge=1, le=MAX_ROWS)
    s_ext: np.ndarray = field(default=None)  # type: ignore[assignment]
    sdl: np.ndarray = field(default=None)  # type: ignore[assignment]
    t_s_ms: float = bounds(20.0, gt=0)  # sub-window length, a whole number of µs

    def __post_init__(self):
        check_fields(self)
        self.t_s_us = whole_microseconds(self.t_s_ms)  # the one tick length, in µs
        if self.s_ext is None:
            self.s_ext = np.zeros(self.rows, dtype=np.int64)
        self.s_ext = np.asarray(self.s_ext, dtype=np.int64)
        if self.sdl is None:
            self.sdl = np.zeros(self.rows, dtype=np.int64)
        self.sdl = np.asarray(self.sdl, dtype=np.int64)
        if self.s_ext.shape != (self.rows,) or self.sdl.shape != (self.rows,):
            raise ValueError("s_ext and sdl must have one entry per row")
        if not np.isin(self.s_ext, [0, 1]).all():
            raise ValueError("s_ext entries must be 0 or 1")
        if self.s_ext[0] != 0:
            raise ValueError("row 0 has no previous row and must be external (S_ext=0)")
        if ((self.sdl < 0) | (self.sdl > SDL_MAX)).any():
            raise ValueError(f"sdl codes must be in [0, {SDL_MAX}]")
        self._external_rows = np.flatnonzero(self.s_ext == 0)
        # delayed rows grouped by (chain depth, delay), shallowest first: a
        # group's source rows are external or in an earlier group
        groups: dict[tuple[int, int], list[int]] = {}
        depth = 0
        for r in range(self.rows):
            depth = depth + 1 if self.s_ext[r] else 0
            if depth:
                groups.setdefault((depth, self.delay_of(r)), []).append(r)
        self.delay_groups = [(delay, np.array(group)) for (_, delay), group in sorted(groups.items())]

    @property
    def n_external(self) -> int:
        return len(self._external_rows)

    @property
    def external_rows(self) -> np.ndarray:
        """Row indices of external rows, in row order (channel k feeds the k-th)."""
        return self._external_rows

    def delay_of(self, row: int) -> int:
        """Decoded delay of a delayed row, in sub-windows (1..5)."""
        return int(self.sdl[row]) + 1

    def tick_end_ms(self, ticks) -> np.ndarray:
        """Time (ms from trial start) at which each tick's window output is
        read: the end of its most recent sub-window, ``(tick + 1) * t_s_ms``."""
        return (np.asarray(ticks) + 1) * self.t_s_ms

    @classmethod
    def tdbdi(cls, n_channels: int, p: int, link_delay: int = 5,
              t_s_ms: float = 20.0) -> "FrontendConfig":
        """Dimension-increase configuration: ``p`` rows per channel.

        Row ``j*p`` is external (channel j); the following ``p-1`` rows each
        delay their predecessor by ``link_delay`` sub-windows, so row
        ``j*p + l`` carries channel j delayed by ``l*link_delay``.
        """
        check_values(FrontendSettings, {"p": p, "link_delay": link_delay})
        rows = n_channels * p
        check_values(cls, {"rows": rows})  # before the per-row arrays
        s_ext = (np.arange(rows) % p != 0).astype(np.int64)
        return cls(rows=rows, s_ext=s_ext, sdl=s_ext * (link_delay - 1), t_s_ms=t_s_ms)


@dataclass
class FrontendSettings:
    """The ``frontend.*`` keys: ``FrontendConfig.tdbdi``'s layout."""

    mode: str = bounds("tdbdi", choices=("tdbdi",))
    p: int = bounds(1, ge=1)
    link_delay: int = bounds(5, ge=1, le=SDL_MAX + 1)  # sub-windows per delay link
    t_s_ms: float = bounds(20.0, like=(FrontendConfig, "t_s_ms"))

    def __post_init__(self):
        check_fields(self)
        whole_microseconds(self.t_s_ms)  # refuses a fraction of a µs


def bin_events(times_us: np.ndarray, channels: np.ndarray, n_channels: int, t_s_us: int,
               n_ticks: int) -> np.ndarray:
    """Bin spike events into per-tick per-channel counts, ``t_s_us`` µs per tick.

    Sub-windows are half-open: an event exactly on a tick boundary belongs to
    the later sub-window.  Events at or past ``n_ticks`` sub-windows are
    dropped.  A ``ValueError`` names the first event with a negative time or
    a channel outside ``[0, n_channels)``.
    """
    times = np.asarray(times_us, dtype=np.int64)
    channels = np.asarray(channels, dtype=np.int64)
    if len(times) and (times.min() < 0 or channels.min() < 0 or channels.max() >= n_channels):
        i = int(np.argmax((times < 0) | (channels < 0) | (channels >= n_channels)))
        raise ValueError(f"event {i} (time {times[i]} us, channel {channels[i]}) has a negative "
                         f"time or a channel outside [0, {n_channels})")
    # events at or past n_ticks are counted in one more tick, then dropped
    flat = np.minimum(times // t_s_us, n_ticks) * n_channels + channels
    size = n_ticks * n_channels
    return np.bincount(flat, minlength=size)[:size].reshape(n_ticks, n_channels)


def run_counts(config: FrontendConfig, channel_counts: np.ndarray) -> np.ndarray:
    """Vectorized whole-trial pass: (n_ticks, n_external) counts -> (n_ticks, rows) codes."""
    counts = np.asarray(channel_counts, dtype=np.int64)
    n_ticks = counts.shape[0]
    if counts.shape != (n_ticks, config.n_external):
        raise ValueError(
            f"expected (n_ticks, {config.n_external}) counts, got {counts.shape}"
        )
    # sub-window counts behind four zero ticks: padded[n + k] is D_{n-4+k}
    padded = np.zeros((n_ticks + WINDOW_SUBCOUNT - 1, config.rows), dtype=np.int64)
    d = padded[WINDOW_SUBCOUNT - 1:]
    d[:, config.external_rows] = np.minimum(SUBCOUNT_MAX, counts)
    for delay, rows in config.delay_groups:
        d[delay:, rows] = d[: max(n_ticks - delay, 0), rows - 1]
    window = d.copy()
    for k in range(WINDOW_SUBCOUNT - 1):
        window += padded[k : k + n_ticks]
    return np.minimum(WINDOW_MAX, window, out=window)


def tick_count(config: FrontendConfig, trial) -> int:
    """Sub-windows that cover a trial: the number of rows ``run_trial`` returns."""
    return -(-int(trial.duration) // config.t_s_us)


def run_trial(config: FrontendConfig, trial) -> np.ndarray:
    """Codes for one spike trial: (n_ticks, rows), one tick per sub-window."""
    n_ticks = tick_count(config, trial)
    counts = bin_events(trial.times_us, trial.channels, config.n_external, config.t_s_us, n_ticks)
    return run_counts(config, counts)

