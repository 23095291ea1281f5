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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import (FieldError, bounds, check_fields, check_values,
                     read_versioned_json, write_versioned_json)

MAX_DIM = 128
FMAX_SEL_MAX = 7  # stop value selector range 0..7
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

    i_ref_na: float = bounds(20.0, ge=1.0, le=63.0)  # DAC reference, 6-bit programmable
    c_f_f: float = bounds(100e-15, gt=0)  # CCO integration cap
    dvdd_v: float = bounds(0.6, gt=0)
    u_t_mv: float = bounds(26.0, gt=0)  # thermal voltage at body temperature
    sigma_vt_mv: float = bounds(16.5, ge=0.0)  # mirror threshold mismatch std
    mu_vt_mv: float = 0.0
    dnl_max_lsb: float = bounds(3.0, ge=0.0)  # worst-case DAC DNL; 0 disables the table
    t_cnt_s: float = bounds(0.010, gt=0)  # counter gate window
    fmax_sel: int = bounds(7, ge=0, le=FMAX_SEL_MAX)  # stop value selector
    jitter_rel: float = bounds(0.0005, ge=0.0)  # counter jitter, relative std
    mirror_snr_db: float = 43.0
    b_na: float = 0.0  # per-neuron leak current added before the CCO
    alpha_supply: float = bounds(1.0, gt=0)
    use_full_cco: bool = False  # include the reset phase in the period
    i_rst_na: float = 1000.0  # > 0 with use_full_cco

    def __post_init__(self):
        check_fields(self)
        if self.use_full_cco and not self.i_rst_na > 0:
            raise FieldError("i_rst_na", "> 0 when {} is true", self.i_rst_na, "use_full_cco")

    @property
    def stop_value(self) -> int:
        return 1 << (7 + self.fmax_sel)


@dataclass(eq=False)
class ChipInstance:
    """One fabricated die: frozen mismatch and DNL tables plus parameters.

    ``delta_vt_mv[i, j]`` is the threshold mismatch of the mirror feeding
    neuron i from input row j; ``weights = exp(delta_vt / U_T)``.
    ``dac_dnl_lsb[j, k]`` is channel j's DNL at code k+1 (codes 1..63).
    """

    seed: int = bounds(ge=0)
    params: AnalogParams
    d: int = bounds(ge=1, le=MAX_DIM)
    l: int = bounds(ge=1, le=MAX_DIM)
    delta_vt_mv: np.ndarray
    dac_dnl_lsb: np.ndarray

    def __post_init__(self):
        check_fields(self)
        self.delta_vt_mv = np.array(self.delta_vt_mv, dtype=np.float64)
        self.dac_dnl_lsb = np.array(self.dac_dnl_lsb, dtype=np.float64)
        if self.delta_vt_mv.shape != (self.l, self.d):
            raise ValueError("delta_vt_mv must be (L, D)")
        if self.dac_dnl_lsb.shape != (self.d, DAC_CODES - 1):
            raise ValueError("dac_dnl_lsb must be (D, 63)")
        self.weights = np.exp(self.delta_vt_mv / self.params.u_t_mv)
        # current lookup: current_lut[j, code] in nA, code 0 -> 0
        inl = np.cumsum(self.dac_dnl_lsb, axis=1)
        effective = np.arange(DAC_CODES, dtype=np.float64)[None, :].repeat(self.d, axis=0)
        effective[:, 1:] += inl
        self.current_lut = np.maximum(0.0, self.params.i_ref_na * effective / DAC_CODES)
        for arr in (self.delta_vt_mv, self.dac_dnl_lsb, self.weights, self.current_lut):
            arr.setflags(write=False)


@dataclass
class ChipSettings:
    """The ``chip.*`` keys: the die to build, and ``mismatch_map``'s probe code."""

    seed: int = bounds(1, like=(ChipInstance, "seed"))
    d: int = bounds(0, ge=0, le=MAX_DIM)  # 0: the front end's row count (or synth.q standalone)
    l: int = bounds(60, like=(ChipInstance, "l"))
    probe_code: int = bounds(8, ge=1, le=DAC_CODES - 1)  # diagonal DAC code


def _draw_dnl(rng: np.random.Generator, bound: float, d: int) -> np.ndarray:
    """Per-step DNL tables of ``d`` channels: uniform draws rescaled to the
    worst-case bound.

    A table whose cumulative error would drive a tap current negative (a
    physical current splitter cannot sink below zero) is rejected and the
    next table drawn takes its place, so the stream is consumed exactly as by
    drawing each channel's table in turn until one is accepted.
    """
    if bound == 0.0:
        return np.zeros((d, DAC_CODES - 1))
    tables = np.zeros((0, DAC_CODES - 1))
    for _ in range(1000):
        steps = rng.uniform(-1.0, 1.0, size=(d - len(tables), DAC_CODES - 1))
        steps *= bound / np.max(np.abs(steps), axis=1, keepdims=True)
        inl = np.cumsum(steps, axis=1)
        tables = np.vstack([tables, steps[np.all(np.arange(1, DAC_CODES) + inl >= 0.0, axis=1)]])
        if len(tables) == d:
            return tables
    raise RuntimeError("could not draw non-negative DNL tables")  # pragma: no cover


def build_chip(seed: int, params: AnalogParams, d: int, l: int) -> ChipInstance:
    """Fabricate a chip: draw mismatch and DNL tables, deterministic in seed."""
    check_values(ChipInstance, {"seed": seed, "d": d, "l": l})  # before drawing (L, D) tables
    rng = np.random.default_rng(seed)
    delta_vt = rng.normal(params.mu_vt_mv, params.sigma_vt_mv, size=(l, d))
    return ChipInstance(seed, params, d, l, delta_vt, _draw_dnl(rng, params.dnl_max_lsb, d))


def save_chip(chip: ChipInstance, path: str | Path) -> None:
    """Write a chip to a versioned JSON file (byte-deterministic)."""
    write_versioned_json(path, CHIP_FORMAT, CHIP_VERSION, chip)


def load_chip(path: str | Path) -> ChipInstance:
    return read_versioned_json(path, CHIP_FORMAT, CHIP_VERSION, ChipInstance)


def draw_noise(chip: ChipInstance, rng: np.random.Generator, n_rows: int) -> tuple:
    """The multiplicative noise of ``n_rows`` ticks, drawn from ``rng``:
    mirror factors ``1 + N(0, 10^(-SNR/20))``, then counter-jitter factors
    ``1 + N(0, jitter_rel)``, each (n_rows, L).  The jitter is None (no draw)
    when ``jitter_rel`` is 0."""
    shape = (n_rows, chip.l)
    mirror = rng.normal(0.0, 10.0 ** (-chip.params.mirror_snr_db / 20.0), size=shape)
    mirror += 1.0
    if chip.params.jitter_rel == 0:
        return mirror, None
    jitter = rng.normal(0.0, chip.params.jitter_rel, size=shape)
    jitter += 1.0
    return mirror, jitter


def hidden_layer(x_codes: np.ndarray, chip: ChipInstance, noise: tuple | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Hidden-layer counts h, as floats, for one code vector (D,) or a batch (T, D).

    One pass DAC -> mirror array -> CCO counter over ``out`` (a new array
    when None): the DAC currents ``I`` of the codes, ``I_in = max(0, b +
    (W @ I) * mirror)``, then the count ``min(stop, floor(max(0, alpha * f *
    t_cnt * jitter) + eps))`` of the frequency ``f = I_in / (C_f * DVDD)`` (or
    the full form with its reset phase, which requires ``I_in < I_rst``).
    A count at or past the stop value, inf included, is the stop value.
    ``noise`` is None (noise off: a pure function of x and the chip) or the
    (mirror, jitter) factors of ``draw_noise``, a row for each row of x.
    """
    x = np.asarray(x_codes)
    if x.min(initial=0) < 0 or x.max(initial=0) >= DAC_CODES:
        raise ValueError("codes must be in [0, 63]")
    i_dac = np.take(chip.current_lut.ravel(), x + DAC_CODES * np.arange(chip.d))
    if out is None:
        out = np.empty(x.shape[:-1] + (chip.l,))
    np.matmul(i_dac, chip.weights.T, out=out)
    params = chip.params
    if noise is not None:
        out *= noise[0]
    out += params.b_na
    np.maximum(out, 0.0, out=out)
    out *= 1e-9  # nA -> A
    tau = params.c_f_f * params.dvdd_v
    if params.use_full_cco and np.any(out >= params.i_rst_na * 1e-9):
        raise ValueError("full CCO model requires I_in < I_rst (oscillation stalls)")
    with np.errstate(divide="ignore", over="ignore"):  # an infinite count is the stop value
        if params.use_full_cco:
            live = out > 0
            period = np.where(live, tau / np.where(live, out, 1.0)
                              + tau / (params.i_rst_na * 1e-9 - out), np.inf)
            np.divide(1.0, period, out=out)
            out[np.isinf(period)] = 0.0
        else:
            out /= tau
        out *= params.alpha_supply
        out *= params.t_cnt_s
        if noise is not None and noise[1] is not None:
            out *= noise[1]
    np.maximum(out, 0.0, out=out)
    out += _FLOOR_EPS
    np.minimum(out, params.stop_value, out=out)
    return np.floor(out, out=out)


def normalize_rows(h_rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
    """Row-wise normalization, in place, of (T, L) float counts against
    (T, D) codes; returns ``h_rows``.

    Degenerate rows (all-quiet input or all-zero counts) pass through as
    zeros rather than erroring: a silent window carries no scale to restore.
    """
    sum_h = h_rows.sum(axis=1)
    sum_x = np.asarray(x_rows).sum(axis=1).astype(np.float64)
    ok = (sum_h > 0) & (sum_x > 0)
    factor = np.where(ok, sum_x / np.where(sum_h > 0, sum_h, 1.0), 0.0)
    h_rows *= factor[:, None]
    return h_rows


def mismatch_map(chip: ChipInstance, probe_code: int = 8) -> np.ndarray:
    """(L, D) map of per-neuron counts with each input row driven alone.

    Each column j holds the noiseless counts when only row j carries
    ``probe_code``; the map is normalized to its median, so a mismatch-free
    chip gives all ones and a real one a lognormal spread.
    """
    check_values(ChipSettings, {"probe_code": probe_code})
    x = np.zeros((chip.d, chip.d), dtype=np.int64)
    np.fill_diagonal(x, probe_code)
    counts = hidden_layer(x, chip).T
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
