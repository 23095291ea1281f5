"""Tests for the analog fabric model (DAC, mirror array, CCO counters, normalization)."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from mlcpsim.analog import (
    AnalogParams,
    ChipInstance,
    build_chip,
    draw_noise,
    hidden_layer,
    load_chip,
    mismatch_map,
    normalize_rows,
    save_chip,
    write_mismatch_map,
)

from mlcpsim import training
from mlcpsim.frontend import FrontendConfig, run_trial
from mlcpsim.spikeio import SynthParams, gen_synthetic
from mlcpsim.training import hidden_rows, hidden_stream, trial_rng

from analog_oracle import (DegenerateInputError, cco_count, cco_frequency, dac_current,
                           dac_currents, dnl_tables, hidden_counts, mirror_multiply,
                           normalize_hidden)


def ideal_params(**overrides):
    """Noise-free, DNL-free parameter set for oracle tests."""
    defaults = dict(dnl_max_lsb=0.0, jitter_rel=0.0, sigma_vt_mv=0.0)
    defaults.update(overrides)
    return AnalogParams(**defaults)


def single_mirror_chip(delta_vt_mv):
    """1x1 chip with an exact mismatch value and no DNL."""
    params = ideal_params()
    return ChipInstance(0, params, 1, 1, np.array([[delta_vt_mv]]), np.zeros((1, 63)))


# ---------------------------------------------------------------- chip build

def test_zero_mismatch_gives_unit_weights():
    chip = build_chip(1, ideal_params(), d=8, l=8)
    assert np.array_equal(chip.weights, np.ones((8, 8)))


def test_log_weight_distribution():
    # sigma_vt=16.5 mV over U_T=26 mV: ln(w) should be normal with std 0.635
    chip = build_chip(2, AnalogParams(), d=128, l=128)
    ln_w = np.log(chip.weights).ravel()
    sigma = 16.5 / 26.0
    assert abs(ln_w.std() - sigma) < 0.011  # 3 sigma of the std estimator
    assert abs(chip.delta_vt_mv.mean()) < 0.6  # per-chip mean offset range
    _, p = stats.kstest(ln_w, "norm", args=(0.0, sigma))
    assert p > 0.01


def test_chip_deterministic_in_seed():
    a = build_chip(3, AnalogParams(), d=16, l=16)
    b = build_chip(3, AnalogParams(), d=16, l=16)
    c = build_chip(4, AnalogParams(), d=16, l=16)
    assert np.array_equal(a.delta_vt_mv, b.delta_vt_mv)
    assert np.array_equal(a.dac_dnl_lsb, b.dac_dnl_lsb)
    assert not np.array_equal(a.delta_vt_mv, c.delta_vt_mv)


def test_dimension_overflow_rejected():
    with pytest.raises(ValueError):
        build_chip(0, AnalogParams(), d=129, l=8)
    with pytest.raises(ValueError):
        build_chip(0, AnalogParams(), d=8, l=200)


def test_chip_arrays_immutable():
    chip = build_chip(5, AnalogParams(), d=4, l=4)
    with pytest.raises(ValueError):
        chip.weights[0, 0] = 2.0


def test_chip_roundtrip_byte_identical(tmp_path):
    chip = build_chip(6, AnalogParams(), d=12, l=10)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_chip(chip, p1)
    again = load_chip(p1)
    assert np.array_equal(again.weights, chip.weights)
    assert np.array_equal(again.current_lut, chip.current_lut)
    save_chip(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ----------------------------------------------------------------------- DAC

def test_dac_code_zero_is_zero_current():
    chip = build_chip(7, AnalogParams(), d=4, l=4)
    assert all(dac_current(chip, 0, ch) == 0.0 for ch in range(4))


def test_dac_ideal_midscale():
    chip = build_chip(8, ideal_params(i_ref_na=32.0), d=2, l=2)
    assert dac_current(chip, 32, 0) == pytest.approx(16.0)


def test_dac_measured_dnl_within_bound():
    chip = build_chip(9, AnalogParams(dnl_max_lsb=3.0), d=32, l=4)
    lsb = chip.params.i_ref_na / 64.0
    steps = np.diff(chip.current_lut, axis=1)
    measured = steps / lsb - 1.0
    assert np.max(np.abs(measured)) <= 3.0 + 1e-9
    # the rescaling pins the worst case at the bound
    assert np.max(np.abs(measured)) == pytest.approx(3.0)
    assert (chip.current_lut >= 0.0).all()


@pytest.mark.parametrize("bound", [0.0, 3.0, 20.0, 40.0])
def test_dnl_tables_drawn_in_one_call_match_the_per_channel_draws(bound):
    # at 20 and 40 LSB many tables are rejected and redrawn from the stream
    rng = np.random.default_rng(31)
    for seed in rng.integers(0, 2**32, size=40).tolist():
        d, l = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        params = AnalogParams(dnl_max_lsb=bound)
        want = dnl_tables(seed, params, d, l)
        got = build_chip(seed, params, d, l).dac_dnl_lsb
        assert got.shape == (d, 63) and np.array_equal(got, want)


def test_dac_currents_of_a_batch_are_its_rows_one_by_one():
    chip = build_chip(11, AnalogParams(), d=5, l=3)
    codes = np.random.default_rng(11).integers(0, 64, size=(7, 5))
    batch = dac_currents(chip, codes)
    assert batch.shape == (7, 5)
    assert np.array_equal(batch, np.stack([dac_currents(chip, row) for row in codes]))
    assert np.array_equal(dac_currents(chip, codes[2]),
                          [dac_current(chip, int(c), j) for j, c in enumerate(codes[2])])


def test_dac_code_range_checked():
    chip = build_chip(10, AnalogParams(), d=2, l=2)
    with pytest.raises(ValueError):
        dac_current(chip, 64, 0)
    with pytest.raises(ValueError):
        dac_currents(chip, np.array([1, -1]))
    for bad in ([1, -1], [64, 0], [[0, 0], [0, 64]]):
        with pytest.raises(ValueError, match=r"codes must be in \[0, 63\]"):
            hidden_layer(np.array(bad), chip)


# -------------------------------------------------------------- mirror array

def test_mirror_zero_input_zero_output():
    chip = build_chip(11, AnalogParams(), d=6, l=5)
    assert np.array_equal(mirror_multiply(np.zeros(6), chip), np.zeros(5))


def test_mirror_single_device_closed_form():
    # +26 mV mismatch at U_T=26 mV multiplies the current by e
    chip = single_mirror_chip(26.0)
    out = mirror_multiply(np.array([10.0]), chip)
    assert out[0] == pytest.approx(10.0 * math.e, rel=1e-12)


def test_mirror_leak_added():
    chip = ChipInstance(0, ideal_params(b_na=2.5), 1, 3, np.zeros((3, 1)), np.zeros((1, 63)))
    out = mirror_multiply(np.array([4.0]), chip)
    assert np.allclose(out, 6.5)


def test_mirror_noise_matches_snr():
    # 43 dB SNR -> relative error std 10^(-43/20) = 0.708%
    chip = build_chip(12, AnalogParams(), d=8, l=8)
    rng = np.random.default_rng(120)
    i_dac = dac_currents(chip, np.full(8, 40))
    clean = mirror_multiply(i_dac, chip)
    rel = []
    for _ in range(1000):
        noisy = mirror_multiply(i_dac, chip, rng=rng)
        rel.extend((noisy / clean - 1.0).tolist())
    target = 10.0 ** (-43.0 / 20.0)
    assert abs(np.std(rel) - target) < 0.15 * target


# ------------------------------------------------------------------ CCO

def test_cco_zero_current_zero_count():
    assert cco_count(np.array([0.0]), AnalogParams())[0] == 0


def test_cco_count_direct_evaluation():
    # 6 nA / (100 fF * 0.6 V) = 100 kHz; 10 ms gate -> 1000 counts
    params = ideal_params()
    assert int(cco_count(np.array([6.0]), params)[0]) == 1000


def test_cco_saturates_at_stop_value():
    for sel in range(8):
        params = ideal_params(fmax_sel=sel)
        assert params.stop_value == 2 ** (7 + sel)
        counts = cco_count(np.array([1e6]), params)
        assert int(counts[0]) == params.stop_value


def test_cco_counts_past_the_int64_range_saturate():
    # floor(1e30) and inf do not fit an int64: a cast before the clamp made
    # them -2**63, a negative count
    params = AnalogParams()
    assert cco_count(np.array([1e30, np.inf]), params).tolist() == [params.stop_value] * 2
    # in the pass: counts near 1e290 (C_f = 1e-300 F) and inf (the smallest
    # subnormal C_f, where the frequency overflows, with no warning)
    for c_f_f in (1e-300, 5e-324):
        chip = build_chip(3, AnalogParams(c_f_f=c_f_f), d=4, l=6)
        x = np.array([[40, 3, 0, 63], [0, 0, 0, 1]])
        h = hidden_layer(x, chip)
        assert (h == params.stop_value).all()
        with np.errstate(over="ignore"):
            assert np.array_equal(h, hidden_counts(x, chip))


def test_cco_jitter_bounded():
    # repeated noisy conversions: relative spread stays below the 0.1% bound
    # at low, medium, and high currents
    params = AnalogParams()
    rng = np.random.default_rng(121)
    for i_na in [6.0, 36.0, 90.0]:
        draws = np.array(
            [int(cco_count(np.array([i_na]), params, rng=rng)[0]) for _ in range(1000)]
        )
        rel_std = draws.std() / draws.mean()
        assert rel_std < 0.001
    # and at high counts it tracks the configured 0.05% within 2x
    assert 0.00025 < rel_std < 0.001


def test_cco_full_form_approaches_approximation():
    params_full = ideal_params(use_full_cco=True, i_rst_na=1e6)
    params_approx = ideal_params()
    i = np.array([10.0, 50.0])
    f_full = cco_frequency(i, params_full)
    f_approx = cco_frequency(i, params_approx)
    assert np.all(f_full < f_approx)
    assert np.allclose(f_full, f_approx, rtol=1e-4)


def test_cco_full_form_stall_rejected():
    params = ideal_params(use_full_cco=True, i_rst_na=20.0)
    with pytest.raises(ValueError):
        cco_frequency(np.array([25.0]), params)


# ----------------------------------------------------------- hidden layer

def test_hidden_all_zero_codes():
    chip = build_chip(13, AnalogParams(), d=10, l=12)
    assert np.array_equal(hidden_layer(np.zeros(10, dtype=int), chip), np.zeros(12, dtype=int))


def test_hidden_matches_closed_form_oracle():
    # noiseless counts == min(stop, floor(t_cnt/(C_f*DVDD) * (b + W @ I))),
    # checked on 100 random code vectors
    params = ideal_params(sigma_vt_mv=16.5, b_na=1.5, i_ref_na=20.0, fmax_sel=5)
    chip = build_chip(14, params, d=12, l=20)
    rng = np.random.default_rng(122)
    for _ in range(100):
        x = rng.integers(0, 64, size=12)
        h = hidden_layer(x, chip)
        i_in_na = params.b_na + chip.weights @ (params.i_ref_na * x / 64.0)
        expect = np.floor(
            i_in_na * 1e-9 / (params.c_f_f * params.dvdd_v) * params.t_cnt_s + 1e-9
        ).astype(int)
        assert np.array_equal(h, np.minimum(params.stop_value, expect))
        assert (h <= params.stop_value).all()


def test_hidden_batch_matches_single():
    chip = build_chip(15, AnalogParams(), d=8, l=6)
    rng = np.random.default_rng(123)
    xs = rng.integers(0, 64, size=(25, 8))
    batch = hidden_layer(xs, chip)
    singles = np.stack([hidden_layer(x, chip) for x in xs])
    assert np.array_equal(batch, singles)


def test_hidden_noiseless_is_pure():
    chip = build_chip(16, AnalogParams(), d=8, l=8)
    x = np.full(8, 30)
    assert np.array_equal(hidden_layer(x, chip), hidden_layer(x, chip))


def test_hidden_monotone_in_codes():
    # with DNL off, raising any code never lowers any count
    chip = build_chip(17, ideal_params(sigma_vt_mv=16.5), d=6, l=10)
    rng = np.random.default_rng(124)
    for _ in range(30):
        x = rng.integers(0, 60, size=6)
        h = hidden_layer(x, chip)
        bumped = x.copy()
        j = int(rng.integers(0, 6))
        bumped[j] = int(rng.integers(x[j], 64))
        assert (hidden_layer(bumped, chip) >= h).all()


def test_alpha_supply_scales_counts():
    base = ideal_params(sigma_vt_mv=10.0, alpha_supply=1.0, fmax_sel=7)
    doubled = ideal_params(sigma_vt_mv=10.0, alpha_supply=2.0, fmax_sel=7)
    chip1 = build_chip(18, base, d=6, l=8)
    chip2 = ChipInstance(18, doubled, 6, 8, chip1.delta_vt_mv, chip1.dac_dnl_lsb)
    rng = np.random.default_rng(125)
    for _ in range(20):
        x = rng.integers(0, 30, size=6)
        h1 = hidden_layer(x, chip1)
        h2 = hidden_layer(x, chip2)
        unclamped = h2 < doubled.stop_value
        diff = h2[unclamped] - 2 * h1[unclamped]
        assert np.all((diff >= 0) & (diff <= 1))


# ------------------------------------------- the one pass against the stages

def _random_chip(rng, case: int):
    """A chip of random size whose settings cycle through ``case``: every
    ``fmax_sel``, the full CCO form, a leak, a supply factor, and jitter on
    and off."""
    params = AnalogParams(i_ref_na=rng.uniform(1.0, 40.0), fmax_sel=case % 8,
                          b_na=rng.uniform(0.1, 3.0) if case % 3 else 0.0,
                          alpha_supply=rng.uniform(0.3, 3.0) if case % 5 else 1.0,
                          use_full_cco=case % 5 == 2, i_rst_na=1e4,
                          mirror_snr_db=rng.uniform(10.0, 50.0),
                          jitter_rel=0.0 if case % 6 == 5 else rng.uniform(1e-4, 1e-2))
    return build_chip(int(rng.integers(1 << 30)), params, d=int(rng.integers(1, 20)),
                      l=int(rng.integers(1, 30)))


def _stage_rows(codes, chip, normalize, noise_seed):
    """The oracle: each trial's stages, cast to float and normalized if asked."""
    rows = []
    for i, x in enumerate(codes):
        h = hidden_counts(x, chip, trial_rng(noise_seed, i)).astype(np.float64)
        rows.append(normalize_rows(h, x) if normalize else h)
    return np.concatenate(rows)


@pytest.mark.parametrize("case", range(24))
def test_the_hidden_pass_equals_the_stages_bit_for_bit(monkeypatch, case):
    # trials of 0 and 1 ticks among longer ones, uint8 and int64 codes,
    # noise on and off, normalization on and off; a small pass budget puts
    # several trials in some passes and leaves others longer than a pass
    rng = np.random.default_rng(1900 + case)
    chip = _random_chip(rng, case)
    noise_seed, normalize = (case if case % 2 else None), case % 4 < 2
    dtype = np.uint8 if case % 3 else np.int64
    lengths = rng.permutation([0, 1, *rng.integers(2, 60, size=6)])
    codes = [rng.integers(0, 64, size=(n, chip.d)).astype(dtype) for n in lengths]
    codes[0][:1] = 0  # a silent row, if the trial has one
    want = _stage_rows(codes, chip, normalize, noise_seed)
    monkeypatch.setattr(training, "_PASS_CELLS", int(rng.integers(1, 80)) * (chip.d + chip.l))
    got = hidden_rows(codes, lengths, chip, normalize, noise_seed)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    streams = [hidden_stream(x, chip, normalize, trial_rng(noise_seed, i))
               for i, x in enumerate(codes)]
    assert np.concatenate(streams).tobytes() == want.tobytes()


@pytest.mark.parametrize("l", [8, 10, 12])
def test_whole_trials_in_one_pass_keep_the_bits_of_their_streams(l):
    # several 100-tick trials share one product with the mirror weights; at
    # 60 rows and few neurons BLAS may round its sums in the last bit apart
    # from a 100-row product's, which the counter's floor removes
    rng = np.random.default_rng(1940 + l)
    chip = build_chip(l, AnalogParams(), d=60, l=l)
    codes = [rng.integers(0, 40, size=(100, 60), dtype=np.uint8) for _ in range(8)]
    assert training._PASS_CELLS // (60 + l) > 300  # three trials or more per pass
    got = hidden_rows(codes, [100] * 8, chip, True)
    want = np.concatenate([hidden_stream(x, chip, True) for x in codes])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise_seed", [None, 7])
def test_a_trial_longer_than_a_pass_is_made_in_one_pass(noise_seed):
    rng = np.random.default_rng(1950)
    chip = _random_chip(rng, 2)
    n = training._PASS_CELLS // (chip.d + chip.l) + 25
    codes = [rng.integers(0, 64, size=(k, chip.d)) for k in (3, n, 2)]
    want = _stage_rows(codes, chip, True, noise_seed)
    got = hidden_rows(codes, [3, n, 2], chip, True, noise_seed)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise_seed", [None, 11])
def test_marked_ticks_hold_their_stream_rows(noise_seed):
    # noise is drawn for every tick of a trial, so a marked tick's row has
    # the noise it has in the stream
    rng = np.random.default_rng(1960)
    chip = build_chip(19, AnalogParams(), d=6, l=9)
    lengths = np.array([30, 0, 12, 30, 5])
    ticks = rng.random(30) < 0.4
    codes = [rng.integers(0, 64, size=(n, chip.d)) for n in lengths]
    marked = [x[ticks[:len(x)]] for x in codes]
    got = hidden_rows(marked, lengths, chip, True, noise_seed,
                      ticks=(ticks, np.array([len(x) for x in marked])))
    want = _stage_rows(codes, chip, True, noise_seed)[np.concatenate([ticks[:n] for n in lengths])]
    assert got.tobytes() == want.tobytes()


def test_the_full_cco_stall_is_refused_by_the_pass_and_the_stages():
    params = ideal_params(use_full_cco=True, i_rst_na=20.0)
    chip = build_chip(5, params, d=2, l=3)
    x = np.array([[1, 1], [63, 63]])  # the second row sums about 39 nA
    for make in (hidden_layer, hidden_counts):
        with pytest.raises(ValueError, match="requires I_in < I_rst"):
            make(x, chip)


# ------------------------------------------------------------ normalization

def test_normalize_direct_example():
    h_norm = normalize_hidden(np.array([2.0, 4.0, 6.0]), np.array([1, 2, 3]))
    assert np.allclose(h_norm, [1.0, 2.0, 3.0])


def test_normalize_scale_invariant():
    rng = np.random.default_rng(126)
    h = rng.uniform(1.0, 100.0, size=16)
    x = rng.integers(1, 64, size=8)
    base = normalize_hidden(h, x)
    for alpha in [0.25, 3.0, 117.0]:
        assert np.allclose(normalize_hidden(alpha * h, x), base)


def test_normalize_degenerate_rejected():
    with pytest.raises(DegenerateInputError):
        normalize_hidden(np.zeros(4), np.array([1, 2]))
    with pytest.raises(DegenerateInputError):
        normalize_hidden(np.ones(4), np.zeros(3, dtype=int))


def test_normalize_rows_zero_rows_pass_through():
    h = np.array([[2.0, 2.0], [0.0, 0.0]])
    x = np.array([[2, 2], [0, 0]])
    out = normalize_rows(h, x)
    assert np.allclose(out[0], [2.0, 2.0])
    assert np.array_equal(out[1], [0.0, 0.0])


def test_normalize_rows_matches_single_window_oracle():
    rng = np.random.default_rng(128)
    h = rng.integers(0, 200, size=(40, 12)).astype(np.float64)
    x = rng.integers(0, 64, size=(40, 8))
    h[3], x[5], h[7], x[7] = 0.0, 0, 0.0, 0
    out = normalize_rows(h.copy(), x)  # scaled in place
    for h_row, x_row, got in zip(h, x, out):
        if h_row.sum() > 0 and x_row.sum() > 0:
            assert np.allclose(got, normalize_hidden(h_row, x_row), rtol=1e-13, atol=0)
        else:
            assert not got.any()


def test_supply_sweep_normalization_cancels():
    # raw counts scale ~1/DVDD; normalized outputs stay put to <0.1%
    rng = np.random.default_rng(127)
    x = rng.integers(10, 40, size=8)
    results = {}
    for dvdd in [0.6, 1.0, 2.5]:
        params = ideal_params(sigma_vt_mv=8.0, i_ref_na=18.0, dvdd_v=dvdd)
        chip = build_chip(19, params, d=8, l=12)
        h = hidden_layer(x, chip)
        results[dvdd] = (h, normalize_hidden(h, x))
    h06, n06 = results[0.6]
    h25, n25 = results[2.5]
    ratio = h06.astype(float) / h25.astype(float)
    assert np.allclose(ratio, 2.5 / 0.6, rtol=2e-3)
    for dvdd in [1.0, 2.5]:
        assert np.max(np.abs(results[dvdd][1] / n06 - 1.0)) < 1e-3


def test_normalized_counts_do_not_depend_on_alpha_supply_on_random_chips():
    # alpha_supply scales every count before the counter's floor, so on each
    # tick where no counter stops, the normalized row is the same up to that
    # floor: per neuron, counts/alpha and the alpha = 1 counts differ by less
    # than e = max(1, 1/alpha).  The same noise draws hold it with noise on.
    rng = np.random.default_rng(2016)
    for case in range(16):
        q = int(rng.integers(2, 10))
        data = gen_synthetic(SynthParams(q=q, m=2, trials_per_class=1, trial_duration_ms=1500.0,
                                         seed=int(rng.integers(1 << 30))))
        frontend = FrontendConfig.tdbdi(q, int(rng.integers(1, 3)),
                                        link_delay=int(rng.integers(1, 6)))
        codes = np.concatenate([run_trial(frontend, trial) for trial in data.trials])
        params = AnalogParams(i_ref_na=rng.uniform(1.0, 8.0), fmax_sel=int(rng.integers(5, 8)),
                              b_na=rng.uniform(0.0, 2.0), sigma_vt_mv=rng.uniform(0.0, 30.0))
        chip = build_chip(int(rng.integers(1 << 30)), params, d=frontend.rows,
                          l=int(rng.integers(4, 40)))
        alpha = float(rng.choice([rng.uniform(0.3, 1.0), rng.uniform(1.0, 3.0)]))
        scaled = dataclasses.replace(chip, params=dataclasses.replace(params, alpha_supply=alpha))
        seed = int(rng.integers(1 << 30))  # odd cases: noise on, the same draws for both
        h1, h_alpha = (hidden_layer(codes, c, draw_noise(c, np.random.default_rng(seed), len(codes))
                                    if case % 2 else None)
                       for c in (chip, scaled))
        live = ~((h1 == params.stop_value) | (h_alpha == params.stop_value)).any(axis=1)
        live &= (h1.sum(axis=1) > 0) & (h_alpha.sum(axis=1) > 0) & (codes.sum(axis=1) > 0)
        assert live.sum() >= len(codes) // 2
        # with a = h_alpha / alpha, b = h1 and S a row's sum over its L neurons,
        # ||a/S(a) - b/S(b)|| <= sqrt(L) e / S(a) + ||b|| L e / (S(a) S(b));
        # normalizing multiplies both by the row's code sum
        a, b, x = h_alpha[live] / alpha, h1[live].astype(np.float64), codes[live]
        e = max(1.0, 1.0 / alpha)
        s_a, s_b = a.sum(axis=1), b.sum(axis=1)
        bound = x.sum(axis=1) * e * (math.sqrt(chip.l) / s_a
                                     + np.linalg.norm(b, axis=1) * chip.l / (s_a * s_b))
        dev = np.linalg.norm(normalize_rows(h_alpha[live], x) - normalize_rows(b, x), axis=1)
        assert np.all(dev <= bound * (1 + 1e-9)), case


# ------------------------------------------------------------ mismatch map

def test_mismatch_map_uniform_chip_is_all_ones():
    chip = build_chip(20, ideal_params(), d=10, l=10)
    assert np.array_equal(mismatch_map(chip, probe_code=16), np.ones((10, 10)))


def test_mismatch_map_median_one_and_lognormal():
    params = AnalogParams(dnl_max_lsb=0.0, i_ref_na=20.0)
    chip = build_chip(21, params, d=128, l=128)
    m = mismatch_map(chip, probe_code=23)
    assert abs(np.median(m) - 1.0) < 1e-12
    sigma = params.sigma_vt_mv / params.u_t_mv
    _, p = stats.kstest(np.log(m.ravel()), "norm", args=(0.0, sigma))
    assert p > 0.01


def test_mismatch_map_csv_export(tmp_path):
    chip = build_chip(22, AnalogParams(), d=3, l=2)
    m = mismatch_map(chip, probe_code=20)
    out = tmp_path / "map.csv"
    write_mismatch_map(out, m)
    lines = out.read_text().splitlines()
    assert lines[0] == "neuron,row,value"
    assert len(lines) == 1 + 6
    parsed = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.allclose(parsed.reshape(2, 3), m)


def test_every_float_parameter_rejects_nan_and_infinities_by_name():
    AnalogParams()
    names = [f.name for f in dataclasses.fields(AnalogParams) if f.type == "float"]
    assert len(names) == 13
    for name in names:
        for value in (math.nan, math.inf, -math.inf):
            message = f"^'{name}' must be a finite number.*, got {json.dumps(value)}$"
            with pytest.raises(ValueError, match=message):
                AnalogParams(**{name: value})
            with pytest.raises(ValueError, match=name):
                build_chip(1, AnalogParams(**{name: value}), d=2, l=2)


@pytest.mark.parametrize("name, value", [
    ("u_t_mv", 0.0), ("u_t_mv", -26.0), ("sigma_vt_mv", -1.0), ("alpha_supply", 0.0),
    ("t_cnt_s", -0.01), ("c_f_f", 0.0), ("dvdd_v", -0.6), ("jitter_rel", -1e-9),
    ("dnl_max_lsb", -3.0), ("i_ref_na", 0.5), ("i_ref_na", 64.0), ("fmax_sel", 8),
])
def test_parameters_outside_their_range_are_rejected_by_name(name, value):
    with pytest.raises(ValueError, match=f"^'{name}' must be .*, got {value}$"):
        AnalogParams(**{name: value})
    # the boundary values the ranges admit
    AnalogParams(sigma_vt_mv=0.0, jitter_rel=0.0, dnl_max_lsb=0.0, i_ref_na=1.0)
    AnalogParams(i_ref_na=63.0, fmax_sel=0, mu_vt_mv=-5.0, b_na=-1.0, mirror_snr_db=-10.0)
