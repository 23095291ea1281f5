"""Reference implementations for the analog fabric.

``dac_currents`` -> ``mirror_multiply`` -> ``cco_count`` is the hidden layer
stage by stage, each stage a new array, as ``analog.hidden_layer`` computes
it in one pass: its counts, cast to float, must equal the pass's bit for
bit.  ``dac_current`` is the scalar lookup of one channel DAC that
``dac_currents`` vectorizes, and ``normalize_hidden`` the single-window
normalization that ``normalize_rows`` applies row by row (where a
degenerate row passes through as zeros instead of raising
``DegenerateInputError``).  ``dnl_tables`` draws a die's DNL tables one
channel at a time, redrawing a channel's table until it is accepted, as
``analog.build_chip`` draws them all in one call.  They live here only as
references.
"""

import numpy as np

from mlcpsim.analog import _FLOOR_EPS, DAC_CODES, AnalogParams, ChipInstance


class DegenerateInputError(ValueError):
    """Normalization requested on an all-zero code or count vector."""


def dnl_table(rng: np.random.Generator, bound: float) -> np.ndarray:
    """One channel's per-step DNL, redrawn until no tap current is negative."""
    if bound == 0.0:
        return np.zeros(DAC_CODES - 1)
    while True:
        steps = rng.uniform(-1.0, 1.0, size=DAC_CODES - 1)
        steps *= bound / np.max(np.abs(steps))
        if np.all(np.arange(1, DAC_CODES) + np.cumsum(steps) >= 0.0):
            return steps


def dnl_tables(seed: int, params: AnalogParams, d: int, l: int) -> np.ndarray:
    """The ``(d, 63)`` DNL tables of die ``seed``: after its ``(l, d)``
    mismatch draw, one :func:`dnl_table` per channel in channel order."""
    rng = np.random.default_rng(seed)
    rng.normal(params.mu_vt_mv, params.sigma_vt_mv, size=(l, d))
    return np.stack([dnl_table(rng, params.dnl_max_lsb) for _ in range(d)])


def dac_current(chip: ChipInstance, code: int, channel: int) -> float:
    """Output current (nA) of one channel DAC at one code."""
    if not (0 <= code < DAC_CODES):
        raise ValueError(f"code must be in [0, {DAC_CODES - 1}], got {code}")
    return float(chip.current_lut[channel, code])


def dac_currents(chip: ChipInstance, codes: np.ndarray) -> np.ndarray:
    """Currents (nA) for a full code vector or a (T, D) batch of them."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.min(initial=0) < 0 or codes.max(initial=0) >= DAC_CODES:
        raise ValueError("codes must be in [0, 63]")
    return chip.current_lut[np.arange(chip.d), codes]


def mirror_multiply(i_dac_na: np.ndarray, chip: ChipInstance,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Mirror each row current into all neurons: I_in = b + W @ I_dac (nA).

    Given an ``rng`` (noise on), the mirrored sum gets multiplicative
    Gaussian error at the configured SNR (the leak is not mirrored, so it is
    noise-free here).  Accepts a (D,) vector or a (T, D) batch.
    """
    summed = np.asarray(i_dac_na) @ chip.weights.T
    if rng is not None:
        rel = 10.0 ** (-chip.params.mirror_snr_db / 20.0)
        summed = summed * (1.0 + rng.normal(0.0, rel, size=summed.shape))
    return np.maximum(0.0, chip.params.b_na + summed)


def cco_frequency(i_in_na: np.ndarray, params: AnalogParams) -> np.ndarray:
    """Oscillation frequency (Hz) for input current (nA), before jitter.

    Default is the large-reset-current approximation f = I/(C_f*DVDD); the
    full form adds the reset phase and requires I_in < I_rst.
    """
    i_a = np.asarray(i_in_na, dtype=np.float64) * 1e-9
    tau = params.c_f_f * params.dvdd_v
    if not params.use_full_cco:
        return i_a / tau
    i_rst_a = params.i_rst_na * 1e-9
    if np.any(i_a >= i_rst_a):
        raise ValueError("full CCO model requires I_in < I_rst (oscillation stalls)")
    with np.errstate(divide="ignore"):
        period = np.where(i_a > 0, tau / np.where(i_a > 0, i_a, 1.0) + tau / (i_rst_a - i_a),
                          np.inf)
    return np.where(np.isinf(period), 0.0, 1.0 / period)


def cco_count(i_in_na: np.ndarray, params: AnalogParams,
              rng: np.random.Generator | None = None) -> np.ndarray:
    """Gated-counter output: min(stop, floor(alpha * f * t_cnt)), with jitter
    drawn from ``rng`` when one is given.  The clamp comes before the cast
    to int64, so a value at or past 2**63, or inf, saturates too."""
    value = params.alpha_supply * cco_frequency(i_in_na, params) * params.t_cnt_s
    if rng is not None and params.jitter_rel > 0:
        value = value * (1.0 + rng.normal(0.0, params.jitter_rel, size=np.shape(value)))
    counts = np.minimum(params.stop_value, np.floor(np.maximum(0.0, value) + _FLOOR_EPS))
    return counts.astype(np.int64)


def hidden_counts(x_codes: np.ndarray, chip: ChipInstance,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Integer counts h of the stages composed: noise is on when ``rng`` is
    given, drawn by the mirrors first, then by the counters."""
    return cco_count(mirror_multiply(dac_currents(chip, x_codes), chip, rng), chip.params, rng)


def normalize_hidden(h: np.ndarray, x_codes: np.ndarray) -> np.ndarray:
    """Normalized counts h / (sum h / sum x); errors on degenerate input."""
    h = np.asarray(h, dtype=np.float64)
    sum_h = float(np.sum(h))
    sum_x = float(np.sum(x_codes))
    if sum_h <= 0.0 or sum_x <= 0.0:
        raise DegenerateInputError("normalization undefined for all-zero h or x")
    return h * (sum_x / sum_h)
