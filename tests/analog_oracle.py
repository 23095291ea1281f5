"""Reference implementations for the analog fabric.

``dac_current`` is the scalar lookup of one channel DAC that
``ChipInstance.dac_currents`` vectorizes, and ``normalize_hidden`` the
single-window normalization that ``normalize_rows`` applies row by row
(where a degenerate row passes through as zeros instead of raising
``DegenerateInputError``).  They live here only as references.
"""

import numpy as np

from mlcpsim.analog import DAC_CODES, ChipInstance


class DegenerateInputError(ValueError):
    """Normalization requested on an all-zero code or count vector."""


def dac_current(chip: ChipInstance, code: int, channel: int) -> float:
    """Output current (nA) of one channel DAC at one code."""
    if not (0 <= code < DAC_CODES):
        raise ValueError(f"code must be in [0, {DAC_CODES - 1}], got {code}")
    return float(chip.current_lut[channel, code])


def normalize_hidden(h: np.ndarray, x_codes: np.ndarray) -> np.ndarray:
    """Normalized counts h / (sum h / sum x); errors on degenerate input."""
    h = np.asarray(h, dtype=np.float64)
    sum_h = float(np.sum(h))
    sum_x = float(np.sum(x_codes))
    if sum_h <= 0.0 or sum_x <= 0.0:
        raise DegenerateInputError("normalization undefined for all-zero h or x")
    return h * (sum_x / sum_h)
