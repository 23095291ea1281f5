"""Tests for the analog fabric model (DAC, mirror array, CCO counters, normalization)."""

import math

import numpy as np
import pytest
from scipy import stats

from mlcpsim.analog import (
    AnalogParams,
    ChipInstance,
    build_chip,
    cco_count,
    cco_frequency,
    hidden_layer,
    load_chip,
    mirror_multiply,
    mismatch_map,
    normalize_rows,
    save_chip,
    write_mismatch_map,
)

from analog_oracle import DegenerateInputError, dac_current, normalize_hidden


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


def test_dac_code_range_checked():
    chip = build_chip(10, AnalogParams(), d=2, l=2)
    with pytest.raises(ValueError):
        dac_current(chip, 64, 0)
    with pytest.raises(ValueError):
        chip.dac_currents(np.array([1, -1]))


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
    i_dac = chip.dac_currents(np.full(8, 40))
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
    out = normalize_rows(h, x)
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
