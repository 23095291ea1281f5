"""Analog fabric model: DAC, mirror-array multiplier, CCO neurons, normalization.

The compute path per classification window is

    codes x -> per-row DAC currents -> mirror array (lognormal weights)
            -> per-neuron CCO frequency -> gated counter -> counts h

* The 6-bit current DAC splits a reference current: ideally
  ``I = I_ref * code / 64``, perturbed by a per-channel cumulative
  differential-nonlinearity table bounded at a configurable LSB worst case.
* Mirror weights come from threshold mismatch of the subthreshold mirror
  devices: ``w_ij = exp(dVt_ij / U_T)`` with dVt drawn normal, so the weight
  map is lognormal.  These fixed random weights are the hidden-layer input
  weights; only the digital output weights are ever trained.
* Each current-controlled-oscillator neuron integrates its summed current:
  ``f = I_in / (C_f * DVDD)``, counted over a gate window and clamped at a
  programmable stop value (saturating nonlinearity).  The optional full
  oscillator form includes the reset phase via ``I_rst``.
* Noise knobs: mirror SNR (multiplicative Gaussian on the mirrored sum) and
  counter jitter (multiplicative Gaussian on frequency).
* Output normalization divides counts by (sum h / sum x), cancelling any
  common supply/bias factor across neurons.

A :class:`ChipInstance` freezes one fabricated die: mismatch and DNL tables
are drawn once from a seed and are immutable afterwards, so every run on the
same chip sees the same weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

MAX_DIM = 128
DAC_CODES = 64  # 6-bit code, 0..63
COUNTER_BITS = 14
CHIP_FORMAT = "mlcpsim-chip"
CHIP_VERSION = 1

# Guard added before flooring so exact boundary frequencies (e.g. a current
# that lands on an integer count) are not knocked down by FP rounding.
_FLOOR_EPS = 1e-9


@dataclass
class AnalogParams:
    """Electrical and noise parameters of the analog fabric.

    Currents are in nA, capacitance in F, voltages in V, times in s.
    ``fmax_sel`` picks the counter stop value 2**(7 + sel), sel in 0..7.
    ``alpha_supply`` is a common multiplicative supply/bias factor on all
    CCO frequencies (what normalization is meant to cancel).
    """

    i_ref_na: float = 20.0  # DAC reference, 6-bit programmable
    c_f_f: float = 100e-15  # CCO integration cap
    dvdd_v: float = 0.6
    u_t_mv: float = 26.0  # thermal voltage at body temperature
    sigma_vt_mv: float = 16.5  # mirror threshold mismatch std
    mu_vt_mv: float = 0.0
    dnl_max_lsb: float = 3.0  # worst-case DAC DNL; 0 disables the table
    t_cnt_s: float = 0.010  # counter gate window
    fmax_sel: int = 7  # stop value selector
    jitter_rel: float = 0.0005  # counter jitter, relative std
    mirror_snr_db: float = 43.0
    b_na: float = 0.0  # per-neuron leak current added before the CCO
    alpha_supply: float = 1.0
    use_full_cco: bool = False  # include the reset phase in the period
    i_rst_na: float = 1000.0

    def validate(self) -> None:
        if not (1.0 <= self.i_ref_na <= 63.0):
            raise ValueError(f"i_ref_na must be in [1, 63], got {self.i_ref_na}")
        if not (0 <= self.fmax_sel <= 7):
            raise ValueError("fmax_sel must be in [0, 7]")
        if self.jitter_rel < 0:
            raise ValueError("jitter_rel must be >= 0")
        if self.dnl_max_lsb < 0:
            raise ValueError("dnl_max_lsb must be >= 0")
        if self.t_cnt_s <= 0 or self.c_f_f <= 0 or self.dvdd_v <= 0:
            raise ValueError("t_cnt_s, c_f_f, dvdd_v must be positive")
        if self.alpha_supply <= 0:
            raise ValueError("alpha_supply must be positive")
        if self.use_full_cco and self.i_rst_na <= 0:
            raise ValueError("i_rst_na must be positive")

    @property
    def stop_value(self) -> int:
        return 1 << (7 + self.fmax_sel)


class ChipInstance:
    """One fabricated die: frozen mismatch and DNL tables plus parameters.

    ``delta_vt_mv[i, j]`` is the threshold mismatch of the mirror feeding
    neuron i from input row j; ``weights = exp(delta_vt / U_T)``.
    ``dac_dnl_lsb[j, k]`` is channel j's DNL at code k+1 (codes 1..63).
    """

    def __init__(self, seed: int, params: AnalogParams, d: int, l: int,
                 delta_vt_mv: np.ndarray, dac_dnl_lsb: np.ndarray):
        params.validate()
        if not (1 <= d <= MAX_DIM and 1 <= l <= MAX_DIM):
            raise ValueError(f"dimensions must be in [1, {MAX_DIM}], got D={d}, L={l}")
        self.seed = seed
        self.params = params
        self.d = d
        self.l = l
        self.delta_vt_mv = np.array(delta_vt_mv, dtype=np.float64)
        self.dac_dnl_lsb = np.array(dac_dnl_lsb, dtype=np.float64)
        if self.delta_vt_mv.shape != (l, d):
            raise ValueError("delta_vt_mv must be (L, D)")
        if self.dac_dnl_lsb.shape != (d, DAC_CODES - 1):
            raise ValueError("dac_dnl_lsb must be (D, 63)")
        self.weights = np.exp(self.delta_vt_mv / params.u_t_mv)
        # current lookup: current_lut[j, code] in nA, code 0 -> 0
        inl = np.cumsum(self.dac_dnl_lsb, axis=1)
        effective = np.arange(DAC_CODES, dtype=np.float64)[None, :].repeat(d, axis=0)
        effective[:, 1:] += inl
        self.current_lut = np.maximum(0.0, params.i_ref_na * effective / DAC_CODES)
        for arr in (self.delta_vt_mv, self.dac_dnl_lsb, self.weights, self.current_lut):
            arr.setflags(write=False)

    def dac_currents(self, codes: np.ndarray) -> np.ndarray:
        """Currents (nA) for a full code vector or a (T, D) batch of them."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.min(initial=0) < 0 or codes.max(initial=0) >= DAC_CODES:
            raise ValueError("codes must be in [0, 63]")
        if codes.ndim == 1:
            return self.current_lut[np.arange(self.d), codes]
        return self.current_lut[np.arange(self.d)[None, :], codes]


def _draw_dnl(rng: np.random.Generator, bound: float) -> np.ndarray:
    """Per-step DNL for one channel: uniform draws rescaled to the worst-case bound.

    Redraws until the cumulative error keeps every tap current non-negative
    (a physical current splitter cannot sink below zero).
    """
    if bound == 0.0:
        return np.zeros(DAC_CODES - 1)
    for _ in range(1000):
        steps = rng.uniform(-1.0, 1.0, size=DAC_CODES - 1)
        steps *= bound / np.max(np.abs(steps))
        inl = np.cumsum(steps)
        if np.all(np.arange(1, DAC_CODES) + inl >= 0.0):
            return steps
    raise RuntimeError("could not draw a non-negative DNL table")  # pragma: no cover


def build_chip(seed: int, params: AnalogParams, d: int, l: int) -> ChipInstance:
    """Fabricate a chip: draw mismatch and DNL tables, deterministic in seed."""
    params.validate()
    if not (1 <= d <= MAX_DIM and 1 <= l <= MAX_DIM):
        raise ValueError(f"dimensions must be in [1, {MAX_DIM}], got D={d}, L={l}")
    rng = np.random.default_rng(seed)
    delta_vt = rng.normal(params.mu_vt_mv, params.sigma_vt_mv, size=(l, d))
    dnl = np.stack([_draw_dnl(rng, params.dnl_max_lsb) for _ in range(d)])
    return ChipInstance(seed, params, d, l, delta_vt, dnl)


def save_chip(chip: ChipInstance, path: str | Path) -> None:
    """Write a chip to a versioned JSON file (byte-deterministic)."""
    doc = {
        "format": CHIP_FORMAT,
        "version": CHIP_VERSION,
        "seed": chip.seed,
        "d": chip.d,
        "l": chip.l,
        "params": asdict(chip.params),
        "delta_vt_mv": chip.delta_vt_mv.tolist(),
        "dac_dnl_lsb": chip.dac_dnl_lsb.tolist(),
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )


def load_chip(path: str | Path) -> ChipInstance:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != CHIP_FORMAT:
        raise ValueError(f"not a chip file: {path}")
    if doc.get("version") != CHIP_VERSION:
        raise ValueError(f"unsupported chip file version {doc.get('version')}")
    params = AnalogParams(**doc["params"])
    return ChipInstance(
        doc["seed"], params, doc["d"], doc["l"],
        np.array(doc["delta_vt_mv"]), np.array(doc["dac_dnl_lsb"]),
    )


def mirror_multiply(
    i_dac_na: np.ndarray,
    chip: ChipInstance,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Mirror each row current into all neurons: I_in = b + W @ I_dac (nA).

    Given an ``rng`` (noise on), the mirrored sum gets multiplicative
    Gaussian error at the configured SNR (the leak is not mirrored, so it is
    noise-free here).  Accepts a (D,) vector or a (T, D) batch; returns (L,)
    or (T, L).
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
        period = np.where(i_a > 0, tau / np.where(i_a > 0, i_a, 1.0) + tau / (i_rst_a - i_a), np.inf)
    return np.where(np.isinf(period), 0.0, 1.0 / period)


def cco_count(
    i_in_na: np.ndarray,
    params: AnalogParams,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Gated-counter output: min(stop, floor(alpha * f * t_cnt)), with jitter
    drawn from ``rng`` when one is given."""
    value = params.alpha_supply * cco_frequency(i_in_na, params) * params.t_cnt_s
    if rng is not None and params.jitter_rel > 0:
        value = value * (1.0 + rng.normal(0.0, params.jitter_rel, size=np.shape(value)))
    counts = np.floor(np.maximum(0.0, value) + _FLOOR_EPS).astype(np.int64)
    return np.minimum(params.stop_value, counts)


def hidden_layer(
    x_codes: np.ndarray,
    chip: ChipInstance,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Hidden-layer counts h for one code vector (D,) or a batch (T, D).

    Composition DAC -> mirror array -> CCO counter; noise is on exactly when
    an ``rng`` is given, and without one this is a pure function of (x, chip).
    """
    i_dac = chip.dac_currents(x_codes)
    i_in = mirror_multiply(i_dac, chip, rng)
    return cco_count(i_in, chip.params, rng)


def normalize_rows(h_rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
    """Row-wise normalization for (T, L) counts against (T, D) codes.

    Degenerate rows (all-quiet input or all-zero counts) pass through as
    zeros rather than erroring: a silent window carries no scale to restore.
    """
    h_rows = np.asarray(h_rows, dtype=np.float64)
    sum_h = h_rows.sum(axis=1)
    sum_x = np.asarray(x_rows).sum(axis=1).astype(np.float64)
    ok = (sum_h > 0) & (sum_x > 0)
    factor = np.where(ok, sum_x / np.where(sum_h > 0, sum_h, 1.0), 0.0)
    return h_rows * factor[:, None]


def mismatch_map(chip: ChipInstance, probe_code: int = 8) -> np.ndarray:
    """(L, D) map of per-neuron counts with each input row driven alone.

    Each column j holds the noiseless counts when only row j carries
    ``probe_code``; the map is normalized to its median, so a mismatch-free
    chip gives all ones and a real one a lognormal spread.
    """
    if not (1 <= probe_code < DAC_CODES):
        raise ValueError("probe_code must be in [1, 63]")
    x = np.zeros((chip.d, chip.d), dtype=np.int64)
    np.fill_diagonal(x, probe_code)
    counts = hidden_layer(x, chip).T.astype(np.float64)
    median = float(np.median(counts))
    if median <= 0:
        raise ValueError("probe too weak: median count is zero")
    return counts / median


def write_mismatch_map(path: str | Path, map_values: np.ndarray) -> None:
    """Export a mismatch map as a ``neuron,row,value`` CSV."""
    lines = ["neuron,row,value"]
    for i in range(map_values.shape[0]):
        for j in range(map_values.shape[1]):
            lines.append(f"{i},{j},{float(map_values[i, j])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
