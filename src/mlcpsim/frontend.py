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

:func:`run_counts` computes whole trials in one vectorized pass; the tests
cross-check it against a stateful tick-by-tick model of the same counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_ROWS = 128
SUBCOUNT_MAX = 15  # 4-bit sub-window counter
WINDOW_MAX = 63  # 6-bit window output
WINDOW_SUBCOUNT = 5  # sub-windows summed per output
SDL_MAX = 4  # delay code, decodes to 1..5 sub-windows


@dataclass
class FrontendConfig:
    """Row configuration of the input path.

    ``s_ext[r]`` = 0 for an external row, 1 for a delayed row; ``sdl[r]`` is
    the delay code of a delayed row (0..4, decoding to a delay of ``sdl+1``
    sub-windows, 20-100 ms).  Row 0 must be external.
    """

    rows: int
    s_ext: np.ndarray = field(default=None)  # type: ignore[assignment]
    sdl: np.ndarray = field(default=None)  # type: ignore[assignment]
    t_s_ms: float = 20.0  # sub-window length

    def __post_init__(self):
        if not (1 <= self.rows <= MAX_ROWS):
            raise ValueError(f"rows must be in [1, {MAX_ROWS}], got {self.rows}")
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
        if self.t_s_ms <= 0:
            raise ValueError("t_s_ms must be positive")

    @property
    def n_external(self) -> int:
        return int(np.sum(self.s_ext == 0))

    @property
    def external_rows(self) -> np.ndarray:
        """Row indices of external rows, in row order (channel k feeds the k-th)."""
        return np.flatnonzero(self.s_ext == 0)

    def delay_of(self, row: int) -> int:
        """Decoded delay of a delayed row, in sub-windows (1..5)."""
        return int(self.sdl[row]) + 1

    @classmethod
    def direct(cls, n_channels: int, t_s_ms: float = 20.0) -> "FrontendConfig":
        """All-external configuration: one row per input channel."""
        return cls(rows=n_channels, t_s_ms=t_s_ms)

    @classmethod
    def tdbdi(
        cls, n_channels: int, p: int, link_delay: int = 5, t_s_ms: float = 20.0
    ) -> "FrontendConfig":
        """Dimension-increase configuration: ``p`` rows per channel.

        Row ``j*p`` is external (channel j); the following ``p-1`` rows each
        delay their predecessor by ``link_delay`` sub-windows, so row
        ``j*p + l`` carries channel j delayed by ``l*link_delay``.
        """
        if p < 1:
            raise ValueError("p must be >= 1")
        if not (1 <= link_delay <= SDL_MAX + 1):
            raise ValueError(f"link_delay must be in [1, {SDL_MAX + 1}]")
        rows = n_channels * p
        s_ext = np.zeros(rows, dtype=np.int64)
        sdl = np.zeros(rows, dtype=np.int64)
        for j in range(n_channels):
            for l in range(1, p):
                s_ext[j * p + l] = 1
                sdl[j * p + l] = link_delay - 1
        return cls(rows=rows, s_ext=s_ext, sdl=sdl, t_s_ms=t_s_ms)


def bin_events(
    times_us: np.ndarray, channels: np.ndarray, n_channels: int, t_s_ms: float, n_ticks: int
) -> np.ndarray:
    """Bin spike events into per-tick per-channel counts.

    Sub-windows are half-open: an event exactly on a tick boundary belongs to
    the later sub-window.  Events at or past ``n_ticks`` sub-windows are
    dropped.
    """
    counts = np.zeros((n_ticks, n_channels), dtype=np.int64)
    if len(times_us) == 0:
        return counts
    t_s_us = t_s_ms * 1000.0
    ticks = (np.asarray(times_us, dtype=np.int64) // int(round(t_s_us))).astype(np.int64)
    keep = ticks < n_ticks
    np.add.at(counts, (ticks[keep], np.asarray(channels)[keep]), 1)
    return counts


def run_counts(config: FrontendConfig, channel_counts: np.ndarray) -> np.ndarray:
    """Vectorized whole-trial pass: (n_ticks, n_external) counts -> (n_ticks, rows) codes."""
    counts = np.asarray(channel_counts, dtype=np.int64)
    n_ticks = counts.shape[0]
    if counts.shape != (n_ticks, config.n_external):
        raise ValueError(
            f"expected (n_ticks, {config.n_external}) counts, got {counts.shape}"
        )
    d = np.zeros((n_ticks, config.rows), dtype=np.int64)
    d[:, config.external_rows] = np.minimum(SUBCOUNT_MAX, counts)
    for r in np.flatnonzero(config.s_ext == 1):
        delay = config.delay_of(r)
        d[delay:, r] = d[: max(n_ticks - delay, 0), r - 1]
    # behind five zero rows, csum[n + 5] - csum[n] sums sub-windows n-4 .. n
    csum = np.cumsum(np.vstack([np.zeros((WINDOW_SUBCOUNT, config.rows), dtype=np.int64), d]),
                     axis=0)
    return np.minimum(WINDOW_MAX, csum[WINDOW_SUBCOUNT:] - csum[:n_ticks])


def tick_count(config: FrontendConfig, trial) -> int:
    """Sub-windows that cover a trial: the number of rows ``run_trial`` returns."""
    return int(np.ceil(trial.duration / (config.t_s_ms * 1000.0)))


def run_trial(config: FrontendConfig, trial) -> np.ndarray:
    """Codes for one spike trial: (n_ticks, rows), one tick per sub-window."""
    n_ticks = tick_count(config, trial)
    counts = bin_events(trial.times_us, trial.channels, config.n_external, config.t_s_ms, n_ticks)
    return run_counts(config, counts)

