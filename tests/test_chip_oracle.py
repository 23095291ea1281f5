"""The stream path held to the reference chip of ``chip_oracle``, from spike
events to tracker bits, over seeded small configurations."""

import numpy as np
import pytest

from mlcpsim.analog import AnalogParams, build_chip
from mlcpsim.decoder import DecoderModel, decode_stream
from mlcpsim.frontend import FrontendConfig, run_trial
from mlcpsim.spikeio import SpikeDataset, Trial
from mlcpsim.training import hidden_stream, trial_rng

from chip_oracle import chip_outputs, tick_ops

CASES = 24


def _events(rng, n_ticks: int, n_channels: int, t_s_us: int, rate: float):
    """Sorted events: about ``rate`` per tick and channel, spread up to two
    ticks past the last, plus a few exactly on tick edges."""
    n = int(rng.poisson(rate * n_ticks * n_channels))
    times = rng.integers(0, (n_ticks + 2) * t_s_us, size=n)
    edges = rng.integers(0, n_ticks + 2, size=int(rng.integers(1, 2 * n_ticks + 2))) * t_s_us
    times = np.sort(np.concatenate([times, edges]))
    return times, rng.integers(0, n_channels, size=len(times))


def _case(k: int):
    """Case ``k``: a front end, chip, dataset, output weights and settings.
    ``k`` picks p and the sub-window length jointly (every pair in 9 cases),
    ``fmax_sel`` (every value in 8) and the switches; the rest is drawn."""
    rng = np.random.default_rng([29, k])
    n_channels, p = int(rng.integers(1, 5)), 1 + k % 3
    frontend = FrontendConfig.tdbdi(n_channels, p, link_delay=1 + k % 5,
                                    t_s_ms=(0.5, 19.999, 20.0)[k // 3 % 3])
    full_cco = k % 5 in (1, 3)
    params = AnalogParams(fmax_sel=k % 8, use_full_cco=full_cco,
                          i_rst_na=1e5 if full_cco else 1000.0,
                          b_na=float(rng.uniform(0.5, 5.0)) if k % 7 in (0, 2, 4) else 0.0,
                          i_ref_na=float(rng.uniform(1.0, 63.0)))
    chip = build_chip(int(rng.integers(0, 1000)), params, d=frontend.rows,
                      l=int(rng.integers(3, 13)))
    m = int(rng.integers(2, 4))
    t_s_us = frontend.t_s_us
    trials = []
    # shorter than the window (and than most delays), edge-heavy, dense
    for j, (lo, hi, rate) in enumerate([(1, 5, 3.0), (5, 30, 0.5), (10, 60, 12.0)]):
        n_ticks = int(rng.integers(lo, hi))  # the edge-heavy trial ends on a tick edge
        duration = (n_ticks - 1) * t_s_us + (t_s_us if j == 1 else int(rng.integers(1, t_s_us)))
        trials.append(Trial(f"k{k}_t{j}", int(rng.integers(1, m + 1)),
                            int(rng.integers(0, duration + 1)), duration,
                            *_events(rng, n_ticks, n_channels, t_s_us, rate)))
    dataset = SpikeDataset(trials, n_channels, m)
    tau = int(rng.integers(1, 9))
    settings = {"lam": int(rng.integers(1, tau + 1)), "tau": tau,
                "tr_ms": float(rng.choice([0.0, 0.5, 1.0, 2.5, 7.0, 100.0])) * frontend.t_s_ms,
                "normalize": k % 3 != 0}
    beta = rng.normal(size=(chip.l, m + 1))
    return frontend, chip, dataset, beta, settings, m, 7 + k if k % 2 == 0 else None


def _threshold(onset_outputs: np.ndarray) -> float:
    """A threshold halfway between two distinct onset outputs near their
    median, so G toggles and no output lies on it."""
    values = np.unique(onset_outputs)
    if len(values) < 2:
        return float(values[0]) + 1.0 if len(values) else 0.0
    mid = len(values) // 2
    return float((values[mid - 1] + values[mid]) / 2)


@pytest.mark.parametrize("k", range(CASES))
def test_stream_path_matches_the_reference_chip(k):
    frontend, chip, dataset, beta, settings, m, noise_seed = _case(k)
    ref = [chip_outputs(trial, i, frontend, chip, beta, settings["normalize"], noise_seed)
           for i, trial in enumerate(dataset.trials)]
    theta = _threshold(np.concatenate([r.o[:, m] for r in ref]))
    model = DecoderModel(beta, np.ones(chip.l, bool), m, theta=theta, chip_seed=chip.seed,
                         fmax_sel=chip.params.fmax_sel, frontend=frontend, **settings)
    for i, (trial, want) in enumerate(zip(dataset.trials, ref)):
        codes = run_trial(frontend, trial)
        assert np.array_equal(codes, want.codes)
        h = hidden_stream(codes, chip, model.normalize, trial_rng(noise_seed, i))
        assert np.array_equal(h, want.h)
        got = decode_stream(dataset, i, model, chip, noise_seed)
        assert np.all(np.abs(got.o - want.o) <= want.margin)
        s, g, g_track, f = tick_ops(want.o, model)
        # a bit is exact unless an output it reads lies within the margin of
        # its threshold or of the output it is ranked against
        ticks = np.arange(len(s))
        pair = want.margin[:, :m] + want.margin[ticks, s - 1][:, None]
        near = (want.o[ticks, s - 1][:, None] - want.o[:, :m] <= pair) & (pair > 0)
        near[ticks, s - 1] = False
        s_exact = ~near.any(axis=1)
        g_exact = ~((np.abs(want.o[:, m] - theta) <= want.margin[:, m]) & (want.margin[:, m] > 0))
        assert np.array_equal(got.s[s_exact], s[s_exact])
        assert np.array_equal(got.g[g_exact], g[g_exact])
        tracked = np.cumprod(g_exact).astype(bool)  # the ticks before any inexact G
        assert np.array_equal(got.g_track[tracked], g_track[tracked])
        both = tracked & s_exact
        assert np.array_equal(got.f[both], f[both])
