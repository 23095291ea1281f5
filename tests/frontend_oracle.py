"""Reference implementations for the front end.

``Frontend`` is the stateful tick-by-tick model of the input path that
``run_counts`` vectorizes over whole trials, and ``saturate_count`` the
scalar 4-bit counter clamp.  They live here only as references the package
must match exactly.
"""

import numpy as np

from mlcpsim.frontend import SUBCOUNT_MAX, WINDOW_MAX, WINDOW_SUBCOUNT, FrontendConfig


def saturate_count(count: int) -> int:
    """Clamp a sub-window spike count to the 4-bit counter range."""
    return min(SUBCOUNT_MAX, int(count))


class Frontend:
    """Stateful tick-by-tick model of the input path.

    ``step`` takes this tick's spike counts per external channel and returns
    the 6-bit window codes of all rows.  The window sum is tracked exactly
    (it cannot exceed 75 = 5x15) and clamped to 63 only at the output, so the
    incremental update always equals the brute-force sum of the last five
    sub-window counts.
    """

    def __init__(self, config: FrontendConfig):
        self.config = config
        self.reset()

    def reset(self) -> None:
        # hist[:, k] holds D_{n-1-k}; column 4 is D_{n-5}, about to drop out
        self.hist = np.zeros((self.config.rows, WINDOW_SUBCOUNT), dtype=np.int64)
        self.qsum = np.zeros(self.config.rows, dtype=np.int64)
        self.tick = 0

    def snapshot(self) -> tuple:
        return self.hist.copy(), self.qsum.copy(), self.tick

    def restore(self, state: tuple) -> None:
        hist, qsum, tick = state
        self.hist = hist.copy()
        self.qsum = qsum.copy()
        self.tick = tick

    def step(self, channel_counts: np.ndarray) -> np.ndarray:
        """Advance one sub-window; returns the code vector x in {0..63}^rows."""
        cfg = self.config
        counts = np.asarray(channel_counts, dtype=np.int64)
        if counts.shape != (cfg.n_external,):
            raise ValueError(
                f"expected {cfg.n_external} channel counts, got shape {counts.shape}"
            )
        if (counts < 0).any():
            raise ValueError("spike counts must be non-negative")

        d_new = np.zeros(cfg.rows, dtype=np.int64)
        d_new[cfg.external_rows] = np.minimum(SUBCOUNT_MAX, counts)
        # Delayed rows read the previous row's pre-update history, so a chain
        # of delayed rows accumulates its link delays.
        for r in np.flatnonzero(cfg.s_ext == 1):
            d_new[r] = self.hist[r - 1, self.config.delay_of(r) - 1]

        self.qsum += d_new - self.hist[:, WINDOW_SUBCOUNT - 1]
        self.hist[:, 1:] = self.hist[:, :-1]
        self.hist[:, 0] = d_new
        self.tick += 1
        return np.minimum(WINDOW_MAX, self.qsum)
