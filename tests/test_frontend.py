"""Tests for the digital input path (sub-window counters, moving window, delays)."""

import numpy as np
import pytest

from mlcpsim.frontend import (
    FrontendConfig,
    bin_events,
    run_counts,
    run_trial,
    tick_count,
)
from mlcpsim.fields import FieldError
from mlcpsim.spikeio import Trial

from frontend_oracle import Frontend, saturate_count


def brute_force_codes(d_matrix):
    """Oracle: clamped 5-sub-window sliding sum, computed the slow way."""
    n_ticks, rows = d_matrix.shape
    q = np.zeros_like(d_matrix)
    for n in range(n_ticks):
        lo = max(0, n - 4)
        q[n] = np.minimum(63, d_matrix[lo : n + 1].sum(axis=0))
    return q


def stateful_run(config, counts):
    fe = Frontend(config)
    return np.array([fe.step(c) for c in counts])


def test_subwindow_counter_saturates():
    assert saturate_count(0) == 0
    assert saturate_count(7) == 7
    # 630 Hz into a 50 ms sub-window = 31.5 expected spikes; counter pins at 15
    assert saturate_count(31) == 15


def test_window_update_arithmetic():
    # Q_{n-1}=10, incoming D=3, outgoing D=1 -> 12
    config = FrontendConfig.tdbdi(1, 1)
    fe = Frontend(config)
    for d in [1, 2, 3, 4]:  # Q = 10 after these
        fe.step(np.array([d]))
    assert fe.qsum[0] == 10
    q = fe.step(np.array([3]))  # D_n=3 enters, D_{n-5}=0 leaves -> 13... no:
    # after 4 steps the window holds [4,3,2,1,0]; +3 -0 = 13
    assert q[0] == 13
    q = fe.step(np.array([0]))  # now the initial D=1 drops out
    assert q[0] == 12


def test_saturated_ramp_reaches_63_in_five_ticks():
    # Sustained saturated sub-windows: Q climbs 15,30,45,60,63 and holds
    config = FrontendConfig.tdbdi(1, 1)
    fe = Frontend(config)
    seen = [int(fe.step(np.array([99]))[0]) for _ in range(8)]
    assert seen == [15, 30, 45, 60, 63, 63, 63, 63]


def test_single_spike_visible_for_exactly_five_ticks():
    counts = np.zeros((20, 3), dtype=int)
    counts[6, 1] = 1
    codes = stateful_run(FrontendConfig.tdbdi(3, 1), counts)
    assert (codes[:, [0, 2]] == 0).all()
    assert codes[:, 1].tolist() == [0] * 6 + [1] * 5 + [0] * 9


def test_incremental_equals_brute_force_random_streams():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rows = int(rng.integers(1, 9))
        n_ticks = int(rng.integers(5, 60))
        # heavy-tailed counts so the 4-bit and 6-bit clamps are both exercised
        counts = rng.poisson(rng.uniform(0.2, 12.0), size=(n_ticks, rows))
        codes = stateful_run(FrontendConfig.tdbdi(rows, 1), counts)
        d = np.minimum(15, counts)
        assert np.array_equal(codes, brute_force_codes(d))


def test_batch_matches_stateful():
    rng = np.random.default_rng(12)
    config = FrontendConfig.tdbdi(4, 3, link_delay=2)
    counts = rng.poisson(3.0, size=(50, 4))
    assert np.array_equal(run_counts(config, counts), stateful_run(config, counts))


def test_batch_matches_stateful_on_random_configurations():
    # any row layout: delayed rows anywhere after row 0, mixed delay codes,
    # chains of delayed rows; counts heavy enough to hit both clamps
    rng = np.random.default_rng(19)
    sub_clamps = window_clamps = 0
    for _ in range(300):
        rows = int(rng.integers(1, 13))
        s_ext = np.concatenate([[0], rng.integers(0, 2, size=rows - 1)])
        config = FrontendConfig(rows=rows, s_ext=s_ext, sdl=rng.integers(0, 5, size=rows))
        n_ticks = int(rng.integers(0, 41))
        counts = rng.poisson(rng.uniform(0.5, 25.0), size=(n_ticks, config.n_external))
        want = stateful_run(config, counts).reshape(n_ticks, rows)
        codes = run_counts(config, counts)
        assert codes.dtype == np.int64 and np.array_equal(codes, want)
        sub_clamps += int(np.count_nonzero(counts > 15))
        window_clamps += int(np.count_nonzero(codes == 63))
    assert sub_clamps > 0 and window_clamps > 0


def test_batch_matches_stateful_on_trials_shorter_than_the_window_or_delay():
    # 0 ticks (a zero-duration trial) and trials shorter than the 5-tick
    # window or than a delayed row's accumulated delay
    rng = np.random.default_rng(18)
    for config in [FrontendConfig.tdbdi(4, 1), FrontendConfig.tdbdi(4, 3, link_delay=5)]:
        for n_ticks in range(0, 13):
            counts = rng.poisson(3.0, size=(n_ticks, 4))
            codes = run_counts(config, counts)
            assert codes.shape == (n_ticks, config.rows) and codes.dtype == np.int64
            want = stateful_run(config, counts).reshape(n_ticks, config.rows)
            assert np.array_equal(codes, want)
    empty = run_trial(FrontendConfig.tdbdi(4, 1), Trial("z", 1, 0, 0))
    assert empty.shape == (0, 4) and empty.dtype == np.int64


def test_monotone_saturation():
    # Adding spikes to any one sub-window never decreases any output code.
    rng = np.random.default_rng(13)
    config = FrontendConfig.tdbdi(2, 1)
    base = rng.poisson(4.0, size=(30, 2))
    q_base = run_counts(config, base)
    for _ in range(25):
        bumped = base.copy()
        t = int(rng.integers(0, 30))
        c = int(rng.integers(0, 2))
        bumped[t, c] += int(rng.integers(1, 30))
        assert (run_counts(config, bumped) >= q_base).all()


def test_delayed_row_is_exact_shift_of_source():
    # Delay code 1 decodes to 2 sub-windows (adds 40 ms at the 20 ms clock)
    rng = np.random.default_rng(14)
    config = FrontendConfig(
        rows=2, s_ext=np.array([0, 1]), sdl=np.array([0, 1])
    )
    counts = rng.poisson(5.0, size=(40, 1))
    codes = run_counts(config, counts)
    assert np.array_equal(codes[2:, 1], codes[:-2, 0])
    assert (codes[:2, 1] == 0).all()


def test_delay_one_subwindow_constant_input():
    config = FrontendConfig(rows=2, s_ext=np.array([0, 1]), sdl=np.array([0, 0]))
    counts = np.full((10, 1), 2)
    codes = run_counts(config, counts)
    assert np.array_equal(codes[1:, 1], codes[:-1, 0])


def test_chained_delays_accumulate():
    # Three-row chain with link delay 3: row 2 lags the source by 6 ticks.
    rng = np.random.default_rng(15)
    config = FrontendConfig(
        rows=3, s_ext=np.array([0, 1, 1]), sdl=np.array([0, 2, 2])
    )
    counts = rng.poisson(4.0, size=(60, 1))
    codes = run_counts(config, counts)
    assert np.array_equal(codes[3:, 1], codes[:-3, 0])
    assert np.array_equal(codes[6:, 2], codes[:-6, 0])


def test_tdbdi_feature_layout():
    # p=2 over 15 external channels: 30 features laid out channel-major as
    # [ch(t), ch(t - delay)] pairs.
    rng = np.random.default_rng(16)
    n, p, delay = 15, 2, 5
    config = FrontendConfig.tdbdi(n, p, link_delay=delay)
    assert config.rows == 30
    counts = rng.poisson(2.0, size=(80, n))
    codes = run_counts(config, counts)
    direct = run_counts(FrontendConfig.tdbdi(n, 1), counts)
    for j in range(n):
        assert np.array_equal(codes[:, j * p], direct[:, j])
        assert np.array_equal(codes[delay:, j * p + 1], direct[:-delay, j])


def test_tdbdi_rows_follow_the_per_row_rule():
    # row j*p is channel j's external row; each of the next p-1 rows delays
    # its predecessor by link_delay sub-windows (delay code link_delay - 1)
    for n, p, delay in [(1, 1, 1), (3, 1, 5), (4, 3, 2), (2, 5, 5), (64, 2, 3)]:
        config = FrontendConfig.tdbdi(n, p, link_delay=delay)
        for r in range(n * p):
            assert (config.s_ext[r], config.sdl[r]) == ((0, 0) if r % p == 0 else (1, delay - 1))
        assert config.s_ext.dtype == config.sdl.dtype == np.int64


def test_tick_end_ms_is_the_end_of_each_ticks_sub_window():
    config = FrontendConfig.tdbdi(2, 1, t_s_ms=12.5)
    assert np.array_equal(config.tick_end_ms(np.arange(4)), [12.5, 25.0, 37.5, 50.0])
    assert config.tick_end_ms(7) == 100.0
    # a window read at its end holds the events binned up to that time
    trial = Trial("t", 1, 0, 50_000, [12_499, 12_500], [0, 0])
    codes = run_trial(config, trial)
    assert codes[:, 0].tolist() == [1, 2, 2, 2]


def test_all_quiet_stream_gives_zero_vector():
    codes = stateful_run(FrontendConfig.tdbdi(5, 1), np.zeros((12, 5), dtype=int))
    assert (codes == 0).all()


def test_checkpoint_reproducible():
    rng = np.random.default_rng(17)
    config = FrontendConfig.tdbdi(3, 2, link_delay=4)
    counts = rng.poisson(3.0, size=(30, 3))
    fe = Frontend(config)
    out_full = []
    state = None
    for i, c in enumerate(counts):
        if i == 12:
            state = fe.snapshot()
        out_full.append(fe.step(c))
    fe.restore(state)
    out_resumed = [fe.step(c) for c in counts[12:]]
    assert np.array_equal(np.array(out_full[12:]), np.array(out_resumed))


def test_row0_must_be_external():
    with pytest.raises(ValueError):
        FrontendConfig(rows=2, s_ext=np.array([1, 0]), sdl=np.array([0, 0]))


def test_sdl_code_range_checked():
    with pytest.raises(ValueError):
        FrontendConfig(rows=2, s_ext=np.array([0, 1]), sdl=np.array([0, 5]))


def test_bin_events_half_open_boundaries():
    # An event exactly on a tick boundary belongs to the later sub-window.
    times = np.array([0, 19999, 20000, 39999, 40000])
    channels = np.zeros(5, dtype=int)
    counts = bin_events(times, channels, 1, 20_000, 3)
    assert counts[:, 0].tolist() == [2, 2, 1]


def test_bin_events_matches_a_per_event_count_on_random_events():
    # times drawn on, beside and between tick boundaries, some past the last tick
    rng = np.random.default_rng(23)
    for _ in range(200):
        n_channels, t_s_us = int(rng.integers(1, 9)), int(rng.integers(1, 50))
        n_ticks, n_events = int(rng.integers(0, 12)), int(rng.integers(0, 60))
        ticks = rng.integers(0, n_ticks + 3, size=n_events)
        times = ticks * t_s_us + rng.choice([0, 1, t_s_us - 1], size=n_events) % t_s_us
        channels = rng.integers(0, n_channels, size=n_events)
        want = np.zeros((n_ticks, n_channels), dtype=np.int64)
        for t, ch in zip(times.tolist(), channels.tolist()):
            if t // t_s_us < n_ticks:
                want[t // t_s_us, ch] += 1
        counts = bin_events(times, channels, n_channels, t_s_us, n_ticks)
        assert counts.dtype == np.int64 and np.array_equal(counts, want)


@pytest.mark.parametrize("times, channels, first", [
    ([5], [-1], "event 0 (time 5 us, channel -1)"),  # was counted on channel 2
    ([-30000], [0], "event 0 (time -30000 us, channel 0)"),  # was counted at tick 0
    ([5, 6, 7], [0, 3, 4], "event 1 (time 6 us, channel 3)"),  # would spill into tick 1
    ([5, -6, 25], [0, 0, 9], "event 1 (time -6 us, channel 0)"),
])
def test_bin_events_names_the_first_event_off_its_grid(times, channels, first):
    with pytest.raises(ValueError) as excinfo:
        bin_events(times, channels, 3, 20_000, 2)
    assert str(excinfo.value) == (f"{first} has a negative time or a channel outside [0, 3)")


@pytest.mark.parametrize("t_s_ms", [19.9996, 0.0004, 0.0, 1e300])
def test_a_tick_length_off_the_microsecond_grid_is_refused_by_name(t_s_ms):
    # 19.9996 ms would count ticks of 19,999.6 us but bin events in 20,000 us
    with pytest.raises(FieldError, match="^'t_s_ms' must be "):
        FrontendConfig.tdbdi(2, 1, t_s_ms=t_s_ms)


def test_the_default_tick_length_counts_ticks_as_the_float_formula_did():
    config = FrontendConfig.tdbdi(1, 1)
    assert config.t_s_us == 20_000
    durations = np.random.default_rng(5).integers(0, 10**8, size=2000).tolist()
    for d in durations + [0, 1, 19_999, 20_000, 20_001, 2_000_000]:
        assert tick_count(config, Trial("t", 1, 0, d)) == int(np.ceil(d / (20.0 * 1000.0)))
    times = np.random.default_rng(6).integers(0, 10**6, size=5000)
    counts = bin_events(times, np.zeros(5000, int), 1, config.t_s_us, 50)
    assert np.array_equal(counts[:, 0], np.bincount(times // int(round(20.0 * 1000.0)),
                                                    minlength=50))


@pytest.mark.parametrize("t_s_ms, t_s_us", [(20.0, 20_000), (12.5, 12_500), (0.001, 1),
                                            (0.007, 7), (0.1 + 0.2, 300)])
def test_tick_count_and_binning_share_one_whole_microsecond_tick(t_s_ms, t_s_us):
    config = FrontendConfig.tdbdi(1, 1, t_s_ms=t_s_ms)
    assert config.t_s_us == t_s_us and type(config.t_s_us) is int
    # a trial one microsecond past three ticks: four ticks, its last event in the fourth
    trial = Trial("t", 1, 0, 3 * t_s_us + 1, [3 * t_s_us - 1, 3 * t_s_us], [0, 0])
    assert tick_count(config, trial) == 4
    counts = bin_events(trial.times_us, trial.channels, 1, config.t_s_us, 4)
    assert counts[:, 0].tolist() == [0, 0, 1, 1]


def test_run_trial_codes():
    trial = Trial("t", 1, 50000, 100000, [5000, 25000, 25500], [0, 1, 1])
    codes = run_trial(FrontendConfig.tdbdi(2, 1), trial)
    assert codes.shape == (5, 2)
    assert codes[0].tolist() == [1, 0]
    assert codes[1].tolist() == [1, 2]
