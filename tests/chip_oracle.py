"""A reference chip: one trial's spike events to its decoder outputs.

``chip_outputs`` walks a trial's events in time order with integer µs
arithmetic.  It counts each event into its sub-window by hand (sub-windows
are half-open, and an event at or past the end of the last tick is
dropped), steps ``frontend_oracle.Frontend`` once per tick, computes the
whole trial's counts with ``analog_oracle.hidden_counts`` on the trial's
noise stream ``trial_rng(noise_seed, index)`` (which draws, as the
``training`` docstring fixes, the trial's mirror factors, then its jitter
factors), normalizes each tick with ``analog_oracle.normalize_hidden`` (a
degenerate tick passes through as zeros) and applies the output weights as
correctly rounded sums (``math.fsum``).  ``tick_ops`` then runs the scalar
type and onset ops and ``decoder_oracle.TrackingFsm`` over those outputs.
The DAC, mirror and CCO stages are ``analog_oracle``'s array stages, not yet
plain per-neuron loops.  It lives here only as a reference the package must
match.
"""

import math
from dataclasses import dataclass

import numpy as np

from mlcpsim.training import trial_rng

from analog_oracle import DegenerateInputError, hidden_counts, normalize_hidden
from decoder_oracle import TrackingFsm, classify_type, onset_primary
from frontend_oracle import Frontend

#: The relative margin the package's outputs are held to: a sum of products
#: may round differently with its order, by far less than this times the sum
#: of the terms' magnitudes.
MARGIN = 1e-12


@dataclass
class ChipOutputs:
    """One trial through the reference chip, one row per tick."""

    codes: np.ndarray  # (T, D) window codes
    h: np.ndarray  # (T, L) hidden counts, normalized if asked
    o: np.ndarray  # (T, M+1) outputs
    margin: np.ndarray  # (T, M+1): MARGIN times the sum of each output's |terms|


def tick_counts(trial, n_channels: int, t_s_us: int) -> list:
    """Per-tick, per-channel event counts of ``trial``, its events walked
    in time order."""
    n_ticks = (int(trial.duration) + t_s_us - 1) // t_s_us
    counts = [[0] * n_channels for _ in range(n_ticks)]
    tick, end = 0, t_s_us  # the tick being filled and the µs at which it ends
    for time, channel in zip(trial.times_us.tolist(), trial.channels.tolist()):
        while tick < n_ticks and time >= end:
            tick, end = tick + 1, end + t_s_us
        if tick == n_ticks:  # this event and every later one lie past the last tick
            break
        counts[tick][channel] += 1
    return counts


def chip_outputs(trial, index: int, frontend, chip, beta: np.ndarray, normalize: bool,
                 noise_seed: int | None) -> ChipOutputs:
    """Trial ``index`` of a dataset from its events to its outputs ``h @ beta``."""
    t_s_us = round(frontend.t_s_ms * 1000)
    model = Frontend(frontend)
    codes = np.array([model.step(np.array(c, dtype=np.int64))
                      for c in tick_counts(trial, frontend.n_external, t_s_us)],
                     dtype=np.int64).reshape(-1, frontend.rows)
    h = hidden_counts(codes, chip, trial_rng(noise_seed, index)).astype(np.float64)
    if normalize:
        for k in range(len(h)):
            try:
                h[k] = normalize_hidden(h[k], codes[k])
            except DegenerateInputError:
                h[k] = 0.0
    o, margin = np.zeros((len(h), beta.shape[1])), np.zeros((len(h), beta.shape[1]))
    for k in range(len(h)):
        for c in range(beta.shape[1]):
            terms = [float(h[k, j]) * float(beta[j, c]) for j in range(beta.shape[0])]
            o[k, c] = math.fsum(terms)
            margin[k, c] = MARGIN * math.fsum(abs(t) for t in terms)
    return ChipOutputs(codes, h, o, margin)


def tick_ops(o: np.ndarray, model) -> tuple:
    """(s, g, g_track, f) per tick of outputs ``o`` under ``model``'s
    threshold and tracker."""
    fsm = TrackingFsm(model.lam, model.tau, model.tr_ms, model.frontend.t_s_ms)
    s = np.array([classify_type(row, model.m) for row in o], dtype=np.int64)
    g = np.array([onset_primary(float(v), model.theta) for v in o[:, model.m]], dtype=np.int64)
    g_track = np.array([fsm.step(int(bit)) for bit in g], dtype=np.int64)
    return s, g, g_track, g_track * s
