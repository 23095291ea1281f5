"""Tests for runtime decoding: classifier, onset bits, tracking FSM, scoring."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mlcpsim import decoder
from mlcpsim.analog import AnalogParams, build_chip, hidden_layer, normalize_rows
from mlcpsim.decoder import (
    ChipMismatchError,
    DecoderModel,
    _window_levels,
    decode_stream,
    evaluate,
    load_model,
    plateau_votes,
    roc_sweep,
    save_model,
    score_onsets,
    split_dataset,
    write_roc_csv,
    write_stream_csv,
)
from mlcpsim.frontend import FrontendConfig, run_trial
from mlcpsim.spikeio import SpikeDataset, SynthParams, Trial, gen_synthetic
from mlcpsim.training import collect_H, fit_output_weights, hidden_rows

from decoder_oracle import (
    TrackingFsm,
    classify_type,
    majority_class,
    onset_primary,
    oracle_onset_scores,
    oracle_scores,
    per_threshold_scores,
    plateau_class,
    track,
)


def brute_force_track(g_bits, lam, tau, tr_ticks):
    """Reference tracker: windowed count + refractory, written from scratch."""
    out = []
    refractory_until = 0.0
    prev = 0
    for n, g in enumerate(g_bits):
        window = g_bits[max(0, n - tau + 1) : n + 1]
        raw = 1 if sum(window) >= lam and n >= refractory_until else 0
        if raw and not prev:
            refractory_until = n + tr_ticks
        prev = raw
        out.append(raw)
    return out


@pytest.fixture(scope="module")
def easy_setup():
    """Strongly tuned dataset + chip + T1-trained model (noiseless pipeline)."""
    ds = gen_synthetic(
        SynthParams(q=12, m=3, baseline_rate=4.0, peak_rate=100.0, trials_per_class=6, seed=70)
    )
    cfg = FrontendConfig.tdbdi(12, 1)
    chip = build_chip(71, AnalogParams(), d=12, l=24)
    hidden, targets = collect_H(ds, chip, cfg)
    w = fit_output_weights(hidden, targets, method="T1")
    model = DecoderModel(w.beta, w.support, 3, report=w.report, frontend=cfg, chip_seed=71)
    return ds, chip, model


# ---------------------------------------------------------------- type ops

def test_classify_type_examples():
    assert classify_type(np.array([0.1, 0.9, 0.3, 0.0]), m=3) == 2
    assert classify_type(np.array([0.4, 0.4, 0.4, 9.9]), m=3) == 1  # tie-break low


def test_classify_type_affine_invariant():
    rng = np.random.default_rng(72)
    for _ in range(1000):
        o = rng.normal(size=6)
        c = rng.uniform(0.01, 50.0)
        shift = rng.normal() * 10
        assert classify_type(o, 5) == classify_type(o * c + shift, 5)


def test_onset_threshold_strict():
    assert onset_primary(0.5, 0.5) == 0
    assert onset_primary(0.5 + 1e-12, 0.5) == 1
    # lowering theta never turns a 1 into a 0
    rng = np.random.default_rng(73)
    for _ in range(200):
        o = rng.normal()
        th_hi, th_lo = sorted((rng.normal(), rng.normal()), reverse=True)
        assert onset_primary(o, th_lo) >= onset_primary(o, th_hi)


# -------------------------------------------------------------- tracking FSM

def test_track_all_zero_stream():
    fsm = TrackingFsm(lam=6, tau=10, tr_ms=140.0, t_s_ms=20.0)
    assert all(fsm.step(0) == 0 for _ in range(50))


def test_track_fires_at_lambda_ones():
    fsm = TrackingFsm(lam=6, tau=10, tr_ms=1000.0, t_s_ms=20.0)
    got = [fsm.step(g) for g in [1, 1, 1, 1, 1, 1]]
    assert got == [0, 0, 0, 0, 0, 1]


def test_track_matches_brute_force_random():
    rng = np.random.default_rng(74)
    for _ in range(20):
        tau = int(rng.integers(1, 12))
        lam = int(rng.integers(1, tau + 1))
        tr_ticks = float(rng.choice([0.0, 1.0, 3.0, 7.0, 7.5]))
        n = 5000
        g = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int).tolist()
        fsm = TrackingFsm(lam, tau, tr_ms=tr_ticks * 20.0, t_s_ms=20.0)
        mine = [fsm.step(b) for b in g]
        assert mine == brute_force_track(g, lam, tau, tr_ticks)


def test_track_matches_brute_force_exhaustive():
    # every G string up to length 12, all (lam, tau<=4) pairs, a few refractories
    for tau in range(1, 5):
        for lam in range(1, tau + 1):
            for tr_ticks in (0.0, 2.0, 3.5):
                for length in range(1, 13):
                    for bits in range(1 << length):
                        g = [(bits >> i) & 1 for i in range(length)]
                        fsm = TrackingFsm(lam, tau, tr_ms=tr_ticks * 20.0, t_s_ms=20.0)
                        mine = [fsm.step(b) for b in g]
                        if mine != brute_force_track(g, lam, tau, tr_ticks):
                            raise AssertionError(
                                f"mismatch lam={lam} tau={tau} tr={tr_ticks} g={g}"
                            )


def test_track_refractory_spacing():
    rng = np.random.default_rng(75)
    for tr_ticks in (5.0, 9.0):
        g = (rng.random(3000) < 0.7).astype(int)
        fsm = TrackingFsm(lam=3, tau=6, tr_ms=tr_ticks * 20.0, t_s_ms=20.0)
        track = np.array([fsm.step(int(b)) for b in g])
        rising = np.flatnonzero((track == 1) & (np.concatenate([[0], track[:-1]]) == 0))
        assert (np.diff(rising) >= tr_ticks).all()


def test_track_parameter_validation():
    with pytest.raises(ValueError):
        TrackingFsm(lam=5, tau=4, tr_ms=0.0, t_s_ms=20.0)
    with pytest.raises(ValueError):
        TrackingFsm(lam=0, tau=4, tr_ms=0.0, t_s_ms=20.0)
    for lam, tau in [(5, 4), (0, 4)]:
        with pytest.raises(ValueError):
            track(np.zeros((1, 3), dtype=bool), lam, tau, 0.0)


def test_batched_track_matches_brute_force_exhaustive():
    # the exhaustive set of the FSM test, one batch per (lam, tau, tr, length)
    for tau in range(1, 5):
        for lam in range(1, tau + 1):
            for tr_ticks in (0.0, 2.0, 3.5):
                for length in range(1, 13):
                    bits = np.arange(1 << length)[:, None] >> np.arange(length) & 1
                    got = track(bits.astype(bool), lam, tau, tr_ticks)
                    assert got.shape == bits.shape
                    for row, g in zip(got, bits.tolist()):
                        if row.tolist() != brute_force_track(g, lam, tau, tr_ticks):
                            raise AssertionError(
                                f"mismatch lam={lam} tau={tau} tr={tr_ticks} g={g}"
                            )


def test_batched_track_matches_brute_force_random():
    rng = np.random.default_rng(78)
    n_ticks = 300
    for tr_ticks in (0.0, 0.5, 1.0, 1.5, 7.0, 7.5, float(n_ticks), n_ticks + 0.5):
        for _ in range(4):
            tau = int(rng.integers(1, 16))
            lam = int(rng.integers(1, tau + 1))
            g = rng.random((32, n_ticks)) < rng.uniform(0.1, 0.9, size=(32, 1))
            got = track(g, lam, tau, tr_ticks)
            for row, bits in zip(got, g.astype(int).tolist()):
                assert row.tolist() == brute_force_track(bits, lam, tau, tr_ticks)


# ------------------------------------------------------------ decode_stream

def test_silent_trial_decodes_to_zero(easy_setup):
    _, chip, model = easy_setup
    quiet = SpikeDataset([Trial("quiet", 1, 1000000, 2000000, [])], 12, 3)
    result = decode_stream(quiet, 0, model, chip)
    assert (result.f == 0).all()
    assert (result.g == 0).all()
    assert (result.o == 0).all()


def test_decode_equals_composed_ops(easy_setup):
    ds, chip, model = easy_setup
    trial = ds.trials[3]
    result = decode_stream(ds, 3, model, chip)
    # compose the stages by hand
    codes = run_trial(model.frontend, trial)
    h = hidden_layer(codes, chip).astype(float)
    h = normalize_rows(h, codes)
    o = h @ model.beta
    fsm = TrackingFsm(model.lam, model.tau, model.tr_ms, model.frontend.t_s_ms)
    for k in range(codes.shape[0]):
        assert np.array_equal(result.o[k], o[k])
        assert result.s[k] == classify_type(o[k], model.m)
        g = onset_primary(float(o[k, model.m]), model.theta)
        assert result.g[k] == g
        assert result.g_track[k] == fsm.step(g)
        assert result.f[k] == result.g_track[k] * result.s[k]


def test_decode_stream_tracks_like_the_batched_oracle(easy_setup):
    # decode_stream reads its window test from the scorer's levels; G_track
    # must be the tracker run on its own G bits, at whole and fractional
    # refractories, thresholds that fire often and rarely, and lam = tau
    ds, chip, model = easy_setup
    for theta, lam, tau, tr_ms in [(0.75, 6, 10, 140.0), (0.2, 1, 1, 0.0), (0.4, 3, 3, 30.0),
                                   (-5.0, 2, 7, 470.0), (0.9, 4, 12, 2000.0)]:
        variant = replace(model, theta=theta, lam=lam, tau=tau, tr_ms=tr_ms)
        for i in range(0, len(ds.trials), 3):
            result = decode_stream(ds, i, variant, chip)
            want = track(result.g[None, :].astype(bool), lam, tau, tr_ms / 20.0)[0]
            assert result.g_track.dtype == np.int64
            assert np.array_equal(result.g_track, want.astype(np.int64))


def test_f_identity_every_tick(easy_setup):
    ds, chip, model = easy_setup
    for i in range(6):
        result = decode_stream(ds, i, model, chip)
        assert np.array_equal(result.f, result.g_track * result.s)
        assert np.all((result.s >= 1) & (result.s <= model.m))


def test_strong_tuning_fires_near_onset(easy_setup):
    ds, chip, model = easy_setup
    trial = ds.trials[0]  # class 1
    result = decode_stream(ds, 0, model, chip)
    fired = result.f[result.f > 0]
    assert fired.size >= 1
    assert fired[0] == trial.label
    detections = result.detections_ms()
    assert np.any(np.abs(detections - 1000.0) <= 150.0)


def test_stream_csv_format(tmp_path, easy_setup):
    ds, chip, model = easy_setup
    result = decode_stream(ds, 0, model, chip)
    out = tmp_path / "stream.csv"
    write_stream_csv(out, result)
    lines = out.read_text().splitlines()
    assert lines[0] == "tick_ms,o_1,o_2,o_3,o_4,s,G,G_track,F"
    assert len(lines) == 1 + 100
    first = lines[1].split(",")
    assert first[0] == "20"
    assert len(first) == 9


# -------------------------------------------------------------- evaluation

def test_split_disjoint_stratified():
    ds = gen_synthetic(SynthParams(q=6, m=4, trials_per_class=10, seed=76))
    train, test = split_dataset(ds, test_fraction=0.3, seed=1)
    train_ids = {t.id for t in train.trials}
    test_ids = {t.id for t in test.trials}
    assert not train_ids & test_ids
    assert train_ids | test_ids == {t.id for t in ds.trials}
    for cls in range(1, 5):
        assert sum(t.label == cls for t in test.trials) == 3
    # deterministic in seed
    train2, test2 = split_dataset(ds, test_fraction=0.3, seed=1)
    assert [t.id for t in test2.trials] == [t.id for t in test.trials]


def _clockwork_dataset():
    """Deterministic 3-class set: every channel ticks at 10 Hz; the class's
    channel pair bursts at 250 Hz during 880-1120 ms.  No randomness, so a
    trained model decodes it perfectly and the scorer's outputs are exact."""
    baseline_us = [int(1000 * t) for t in range(50, 2000, 100)]
    burst_us = [int(1000 * t) for t in range(880, 1120, 4)]
    trials = []
    for cls in range(1, 4):
        for rep in range(4):
            events = []
            for ch in range(6):
                events.extend((t, ch) for t in baseline_us)
                if ch // 2 == cls - 1:
                    events.extend((t, ch) for t in burst_us)
            times, channels = zip(*sorted(events))
            trials.append(Trial(f"det_c{cls}_r{rep}", cls, 1_000_000, 2_000_000, times, channels))
    return SpikeDataset(trials, channel_count=6, class_count=3)


def test_perfect_predictor_scores():
    ds = _clockwork_dataset()
    cfg = FrontendConfig.tdbdi(6, 1)
    chip = build_chip(81, AnalogParams(), d=6, l=12)
    hidden, targets = collect_H(ds, chip, cfg)
    w = fit_output_weights(hidden, targets, method="T1")
    # long refractory: one detection per trial even though the burst outlives Tr=140
    model = DecoderModel(w.beta, w.support, 3, frontend=cfg, chip_seed=81, tr_ms=400.0,
                         report=w.report)
    # establish that this predictor really is perfect, trial by trial ...
    for i, trial in enumerate(ds.trials):
        res = decode_stream(ds, i, model, chip)
        dets = res.detections_ms()
        assert len(dets) == 1 and abs(dets[0] - 1000.0) <= 150.0
        plateau = res.s[(res.t_ms >= 900.0) & (res.t_ms <= 1100.0)]
        assert majority_class(plateau, m=3) == trial.label
    # ... so the report must score it as such
    report = evaluate(ds, model, chip)
    assert report.accuracy == 1.0
    assert report.tpr == 1.0
    assert report.fp_per_trial == 0.0
    assert report.n_trials == 12
    assert np.trace(report.confusion) == 12
    assert all(abs(l) <= 150.0 for l in report.latencies_ms)


def test_constant_class_predictor_chance_level(easy_setup):
    ds, chip, _ = easy_setup
    cfg = FrontendConfig.tdbdi(12, 1)
    beta = np.zeros((24, 4))
    beta[:, 0] = 1.0  # o_1 = sum(h) > 0 = all others -> always class 1
    model = DecoderModel(beta, np.ones(24, bool), m=3, frontend=cfg)
    report = evaluate(ds, model, chip)
    assert report.accuracy == pytest.approx(1.0 / 3.0)
    assert report.tpr == 0.0
    assert report.fp_per_trial == 0.0


def test_evaluate_deterministic_with_noise(easy_setup):
    ds, chip, model = easy_setup
    r1 = evaluate(ds, model, chip, noise_seed=9)
    r2 = evaluate(ds, model, chip, noise_seed=9)
    assert r1.accuracy == r2.accuracy
    assert np.array_equal(r1.confusion, r2.confusion)
    assert r1.latencies_ms == r2.latencies_ms


def test_evaluate_empty_rejected(easy_setup):
    ds, chip, model = easy_setup
    empty = type(ds)([], ds.channel_count, ds.class_count)
    with pytest.raises(ValueError):
        evaluate(empty, model, chip)
    with pytest.raises(ValueError, match="empty test set"):
        roc_sweep(empty, model, chip, theta_grid=[0.5])


def test_chip_shape_mismatch_is_named(easy_setup):
    ds, chip, model = easy_setup
    narrow = build_chip(chip.seed, chip.params, d=chip.d, l=chip.l - 4)
    for run in (lambda c: evaluate(ds, model, c), lambda c: decode_stream(ds, 0, model, c),
                lambda c: roc_sweep(ds, model, c, theta_grid=[0.5])):
        with pytest.raises(ChipMismatchError, match="L=24 neurons.*L=20"):
            run(narrow)
    wide = build_chip(chip.seed, chip.params, d=chip.d + 1, l=chip.l)
    with pytest.raises(ChipMismatchError, match="D=12 rows.*D=13"):
        evaluate(ds, model, wide)


def _burst(start_ms, end_ms, q=4):
    """Every channel spikes every 5 ms in [start_ms, end_ms)."""
    times = np.repeat(np.arange(start_ms * 1000, end_ms * 1000, 5000), q)
    return times, np.tile(np.arange(q), len(times) // q)


def test_ragged_trials_score_like_per_trial_oracle():
    # Trials of different lengths are tracked as one padded batch.  The onset
    # output is the window code sum (normalized h summed over all-ones
    # weights), so G is high exactly while a burst is in the window.
    trials = [
        Trial("long", 1, 1_000_000, 2_000_000, *_burst(940, 1200)),
        Trial("short", 2, 50_000, 90_000, *_burst(0, 90)),  # 5 ticks < tau
        Trial("tail", 2, 700_000, 930_000, *_burst(650, 930)),  # G high to the end
        Trial("quiet", 1, 1_000_000, 1_500_000),
    ]
    ds = SpikeDataset(trials, channel_count=4, class_count=2)
    chip = build_chip(5, AnalogParams(), d=4, l=8)
    beta = np.column_stack([np.random.default_rng(6).normal(size=(8, 2)), np.ones(8)])
    model = DecoderModel(beta, np.ones(8, bool), m=2, theta=20.0, lam=3, tau=6, tr_ms=140.0,
                         frontend=FrontendConfig.tdbdi(4, 1))
    # the tail trial's refractory runs out in the padding while its window
    # count is still >= lam, so an unmasked batch would detect there
    g = decode_stream(ds, 2, model, chip).g
    padded = track(np.concatenate([g, np.zeros(model.tau, int)])[None, :].astype(bool),
                   model.lam, model.tau, model.tr_ms / model.frontend.t_s_ms)[0]
    rising = padded & ~np.concatenate([[False], padded[:-1]])
    assert np.flatnonzero(rising).max() >= len(g)

    for tol_ms in (150.0, 400.0):  # the wider window holds several edges per trial
        report = evaluate(ds, model, chip, tol_ms=tol_ms)
        confusion, hits, fps, latencies = oracle_scores(ds, model, chip, model.theta, tol_ms)
        assert np.array_equal(report.confusion, confusion)
        assert (report.tpr, report.fp_per_trial) == (hits / 4, fps / 4)
        assert report.latencies_ms == latencies
        assert hits > 0
    thetas = [-1.0, 5.0, 20.0, 45.0, 1e9]
    for theta, tpr, fp in roc_sweep(ds, model, chip, theta_grid=thetas):
        _, hits, fps, _ = oracle_scores(ds, model, chip, theta)
        assert (tpr, fp) == (hits / 4, fps / 4)


def _onset_model(lam=6, tau=10, tr_ms=140.0, theta=0.75):
    """A model whose scoring depends only on its tracker settings: m = 1, so
    column 1 of a (T, 2) output is the onset output."""
    return DecoderModel(np.zeros((2, 2)), np.ones(2, bool), m=1, theta=theta, lam=lam, tau=tau,
                        tr_ms=tr_ms, frontend=FrontendConfig.tdbdi(2, 1))


def _random_onset_batch(rng, n_trials, max_ticks, all_empty=False):
    """Ragged trials with onset outputs on a quarter grid, so thresholds can
    equal output values exactly; a few outputs are NaN or +-inf, and some
    trials have no tick at all."""
    trials, outputs = [], []
    for i in range(n_trials):
        n_ticks = 0 if all_empty else int(rng.integers(0, max_ticks + 1))
        o = rng.integers(-4, 5, size=(n_ticks, 2)) / 4.0
        special = rng.random(n_ticks) < 0.05
        o[special, 1] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
        onset_us = int(rng.integers(0, max_ticks * 20_000 + 1))
        trials.append(Trial(f"t{i}", 1, onset_us, n_ticks * 20_000))
        outputs.append(o)
    return trials, outputs


def as_lists(scores):
    """``score_onsets`` results with each threshold's latencies as a list,
    once checked to be a 1-D float64 array."""
    for _, _, latencies in scores:
        assert isinstance(latencies, np.ndarray)
        assert latencies.dtype == np.float64 and latencies.ndim == 1
    return [(hits, fps, latencies.tolist()) for hits, fps, latencies in scores]


ORACLE_THETAS = [-np.inf, -1.0, -0.25, 0.0, 0.0, 0.25, 0.5, 0.5, 0.75, 1.0, np.inf]


@pytest.mark.parametrize("cells", [None, 7])  # the default grouping, and a tiny one
def test_one_pass_scorer_matches_per_threshold_and_per_trial_oracles(monkeypatch, cells):
    if cells is not None:  # groups and ranking chunks split mid-batch
        monkeypatch.setattr(decoder, "_TRACK_CELLS", cells)
    rng = np.random.default_rng(90)
    max_ticks = 40
    cases = 0
    for lam, tau in [(1, 1), (3, 3), (2, 5), (6, 10), (4, 4)]:  # lam == tau four times
        for tr_ticks in (0.0, 0.5, 7.5, max_ticks + 3.0):
            model = _onset_model(lam, tau, tr_ms=tr_ticks * 20.0)
            for tol_ms in (0.0, 400.0):
                for all_empty in (False, True):
                    trials, outputs = _random_onset_batch(rng, 12, max_ticks, all_empty)
                    got = as_lists(score_onsets(trials, outputs, model, ORACLE_THETAS, tol_ms))
                    assert got == per_threshold_scores(trials, outputs, model, ORACLE_THETAS,
                                                       tol_ms)
                    for theta, score in zip(ORACLE_THETAS, got):
                        assert score == oracle_onset_scores(trials, outputs, model, theta, tol_ms)
                    cases += sum(hits + fps for hits, fps, _ in got) > 0
    assert cases >= 20  # most batches detect something


@pytest.mark.parametrize("cells", [None, 7])  # whole-batch ranking, and one trial at a time
def test_window_levels_are_the_lam_th_largest_of_every_window(monkeypatch, cells):
    if cells is not None:
        monkeypatch.setattr(decoder, "_TRACK_CELLS", cells)
    rng = np.random.default_rng(93)
    # lam == tau three times; tau = 60 is longer than every trial
    for lam, tau in [(1, 1), (3, 3), (2, 5), (6, 10), (4, 4), (5, 60)]:
        model = _onset_model(lam, tau)
        for all_empty in (False, True):
            _, outputs = _random_onset_batch(rng, 12, 40, all_empty)
            levels = _window_levels(outputs, model)
            n_ticks = max(len(o) for o in outputs)
            assert levels.shape == (n_ticks, len(outputs))
            for b, o in enumerate(outputs):
                # NaN never exceeds a threshold, and ticks before the first pad with -inf
                onset = np.concatenate([np.full(tau - 1, -np.inf), o[:, 1]])
                onset[np.isnan(onset)] = -np.inf
                for n in range(len(o)):
                    want = sorted(onset[n:n + tau], reverse=True)[lam - 1]
                    assert levels[n, b] == want, (lam, tau, b, n)
                assert (levels[len(o):, b] == -np.inf).all()  # past its last tick


def test_scorer_threshold_equal_to_every_output_is_strict():
    # every onset output is 0.5: theta = 0.5 sees G = 0 throughout, just below it G = 1
    model = _onset_model(lam=2, tau=3, tr_ms=0.0)
    outputs = [np.full((30, 2), 0.5)]
    trials = [Trial("flat", 1, 20_000, 600_000)]
    [at, below] = as_lists(score_onsets(trials, outputs, model, [0.5, np.nextafter(0.5, 0.0)],
                                        150.0))
    assert at == (0, 0, [])
    assert below == (1, 0, [20.0])  # one edge at the second tick, 40 ms, 20 ms after onset


def test_roc_sweep_ignores_grid_order(easy_setup):
    ds, chip, model = easy_setup
    grid = np.linspace(-0.5, 1.5, 41)
    grid = np.concatenate([grid, grid[::5]])  # with duplicates
    shuffled = np.random.default_rng(91).permutation(grid)
    want = roc_sweep(ds, model, chip, theta_grid=np.sort(grid))
    assert roc_sweep(ds, model, chip, theta_grid=shuffled) == want
    # the scorer itself keeps each threshold's score in the order given
    outputs = [decode_stream(ds, i, model, chip).o for i in range(len(ds.trials))]
    by_theta = dict(zip(np.sort(grid), as_lists(score_onsets(ds.trials, outputs, model,
                                                             np.sort(grid), 150.0))))
    got = as_lists(score_onsets(ds.trials, outputs, model, shuffled, 150.0))
    assert got == [by_theta[theta] for theta in shuffled]


def test_roc_sweep_memory_does_not_grow_with_thresholds_times_ticks():
    # 2,000 thresholds x 480 trials x 100 ticks: a (thresholds, trials, ticks)
    # bool array alone would take 96 MB.  The peak is about 7 MB: the grouped
    # pass needs about 3 MB, and score_onsets returns each threshold's hit
    # latencies as one float array (3.5 MB here; as lists of Python floats,
    # which roc_sweep drops, they took about 13 MB and the peak 17 MB)
    ds = gen_synthetic(SynthParams(q=4, m=2, trials_per_class=240, seed=92))
    chip = build_chip(93, AnalogParams(), d=4, l=8)
    beta = np.column_stack([np.zeros((8, 2)), np.ones(8)])
    model = DecoderModel(beta, np.ones(8, bool), m=2, frontend=FrontendConfig.tdbdi(4, 1))
    tracemalloc.start()
    try:
        points = roc_sweep(ds, model, chip, theta_grid=np.linspace(0.0, 60.0, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == 2000 and points[0][1] > 0.0
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("tol_ms", [-5.0, np.nan])
def test_scorer_rejects_a_negative_or_nan_tolerance(easy_setup, tol_ms):
    ds, chip, model = easy_setup
    with pytest.raises(ValueError, match="tol_ms"):
        evaluate(ds, model, chip, tol_ms=tol_ms)
    with pytest.raises(ValueError, match="tol_ms"):
        roc_sweep(ds, model, chip, theta_grid=[0.5], tol_ms=tol_ms)


def test_scorer_rejects_an_infinite_tolerance_by_name(easy_setup):
    ds, chip, model = easy_setup
    with pytest.raises(ValueError, match="^'tol_ms' must be a finite number >= 0, got Infinity$"):
        evaluate(ds, model, chip, tol_ms=np.inf)


def test_scorer_rejects_nan_thresholds(easy_setup):
    ds, chip, model = easy_setup
    with pytest.raises(ValueError, match="NaN"):
        roc_sweep(ds, model, chip, theta_grid=[0.5, np.nan])


def test_majority_vote_tie_break():
    outputs = np.eye(5)[[1, 1, 2, 2]]  # classes 2, 2, 3, 3 of 4, and the onset column
    assert plateau_votes(outputs, [4, 0], m=4).tolist() == [2, 0]  # no ticks, no vote


def test_plateau_votes_are_each_trials_majority_class():
    # random runs of classes, many tied and some empty
    rng = np.random.default_rng(560)
    m = 4
    n_ticks = rng.integers(0, 7, size=400)
    s = rng.integers(1, m + 1, size=n_ticks.sum())
    outputs = np.hstack([np.eye(m)[s - 1], rng.normal(size=(len(s), 1))])  # s ranks first
    votes = plateau_votes(outputs, n_ticks, m)
    ties = 0
    for vote, end, n in zip(votes, np.cumsum(n_ticks), n_ticks):
        counts = np.bincount(s[end - n : end], minlength=m + 1)[1:]
        ties += n > 0 and (counts == counts.max()).sum() > 1
        assert vote == majority_class(s[end - n : end], m)
    assert ties > 50 and (n_ticks == 0).sum() > 20
    assert plateau_votes(np.zeros((0, m + 1)), [], m).shape == (0,)


def test_plateau_votes_equal_plateau_class_on_a_tie_and_without_a_plateau(easy_setup):
    _, _, model = easy_setup  # 3 classes; ticks 44..54 end on the plateau
    streams = []
    for n, classes in [(100, [3] * 5 + [2] * 5 + [1]),  # 2 and 3 tie: the vote is 2
                       (100, [1, 3, 3] + [2] * 8),
                       (40, [])]:  # the trial ends before trap.t1_ms: no vote
        o = np.zeros((n, model.m + 1))
        o[np.arange(n), np.arange(n) % model.m] = 1.0  # off the plateau, every class
        o[44:44 + len(classes)] = 0.0
        o[np.arange(44, 44 + len(classes)), np.array(classes, dtype=int) - 1] = 1.0
        streams.append(o)
    on = model.trap.on_plateau(model.frontend.tick_end_ms(np.arange(100)))
    plateau = [o[on[:len(o)]] for o in streams]
    votes = plateau_votes(np.concatenate(plateau), [len(o) for o in plateau], model.m)
    assert votes.tolist() == [plateau_class(o, model) for o in streams] == [2, 2, 0]


@pytest.mark.parametrize("noise_seed", [None, 9])
def test_plateau_rows_vote_like_plateau_class_on_full_streams(easy_setup, noise_seed):
    """The sweep's vote: the hidden rows of each test trial's plateau ticks
    alone (noise drawn for every tick), one product, one vectorized vote; a
    trial shorter than trap.t1_ms has no vote."""
    ds, chip, model = easy_setup
    short = Trial("short", 2, 0, 880_000, ds.trials[4].times_us, ds.trials[4].channels)
    trials = [ds.trials[0], short, *ds.trials[1:]]
    data = SpikeDataset(trials, ds.channel_count, ds.class_count, ds.metadata)
    codes = [run_trial(model.frontend, trial) for trial in trials]
    on = model.trap.on_plateau(model.frontend.tick_end_ms(np.arange(100)))
    plateau_codes = [x[on[:len(x)]] for x in codes]
    n_votes = np.array([len(x) for x in plateau_codes])
    h = hidden_rows(plateau_codes, [len(x) for x in codes], chip, model.normalize, noise_seed,
                    ticks=(on, n_votes))
    votes = plateau_votes(h @ model.beta, n_votes, model.m)
    want = [plateau_class(o, model) for o in decoder._output_streams(
        data, range(len(trials)), model, chip, noise_seed)]
    assert votes.tolist() == want
    assert want[1] == 0 and all(want[:1] + want[2:]) and len(set(want)) == model.m + 1


def test_trial_without_a_plateau_tick_is_wrong_whatever_its_label(easy_setup):
    """A zero-duration trial has no plateau tick, so it has no vote: it is
    scored wrong under either label and stays out of the confusion matrix."""
    ds, chip, model = easy_setup
    base = evaluate(ds, model, chip)
    for label in (1, 2):
        padded = SpikeDataset(ds.trials + [Trial("z0", label, 0, 0)], ds.channel_count,
                              ds.class_count)
        report = evaluate(padded, model, chip)
        assert report.accuracy == np.trace(base.confusion) / (len(ds.trials) + 1)
        assert np.array_equal(report.confusion, base.confusion)
        assert np.array_equal(oracle_scores(padded, model, chip, model.theta)[0], base.confusion)


# ---------------------------------------------------------------- ROC sweep

def test_roc_extremes(easy_setup):
    ds, chip, model = easy_setup
    sub = type(ds)(ds.trials[:6], ds.channel_count, ds.class_count)
    points = roc_sweep(sub, model, chip, theta_grid=[1e9, -1e9])
    by_theta = {round(t): (tpr, fp) for t, tpr, fp in points}
    assert by_theta[1000000000] == (0.0, 0.0)
    lo_tpr, lo_fp = by_theta[-1000000000]
    # G pinned high: every trial hits, and the cadence of refractory-limited
    # detections leaves plenty outside the truth window
    assert lo_tpr == 1.0
    assert lo_fp > 5.0


def test_roc_sorted_and_monotone_g(easy_setup):
    ds, chip, model = easy_setup
    sub = type(ds)(ds.trials[:4], ds.channel_count, ds.class_count)
    grid = [0.9, 0.3, 0.6]
    points = roc_sweep(sub, model, chip, theta_grid=grid)
    assert [p[0] for p in points] == sorted(grid)
    # pointwise threshold monotonicity of the primary bit
    for i in range(len(sub.trials)):
        o = decode_stream(sub, i, model, chip).o[:, model.m]
        for lo, hi in [(0.3, 0.6), (0.6, 0.9)]:
            assert np.all((o > lo).astype(int) >= (o > hi).astype(int))


def test_roc_csv(tmp_path):
    out = tmp_path / "roc.csv"
    write_roc_csv(out, [(0.1, 1.0, 2.5), (0.9, 0.5, 0.0)])
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,tpr,fp_per_trial"
    assert lines[1] == "0.1,1.0,2.5"


# ------------------------------------------------------------- model file

def test_model_roundtrip(tmp_path, easy_setup):
    ds, chip, model = easy_setup
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(model, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    r_orig = decode_stream(ds, 5, model, chip)
    r_load = decode_stream(ds, 5, loaded, chip)
    assert np.array_equal(r_orig.o, r_load.o)
    assert np.array_equal(r_orig.f, r_load.f)


def test_model_validation():
    cfg = FrontendConfig.tdbdi(4, 1)
    with pytest.raises(ValueError):
        DecoderModel(np.zeros((8, 3)), np.ones(8, bool), m=3, frontend=cfg)  # beta too narrow
    with pytest.raises(ValueError):
        DecoderModel(np.zeros((8, 4)), np.ones(8, bool), m=3, frontend=cfg, lam=11, tau=10)
    for bad in ({"theta": np.nan}, {"theta": np.inf}, {"tr_ms": np.nan}, {"tr_ms": np.inf},
                {"tr_ms": -1.0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            DecoderModel(np.zeros((8, 4)), np.ones(8, bool), m=3, frontend=cfg, **bad)


# ------------------------------------------------- normalization robustness

def test_supply_factor_does_not_move_predictions():
    # Noiseless, normalization on: per-tick normalized hidden vectors stay
    # within 0.5% and the predicted class is unchanged under a common supply
    # factor, except at ticks where the counter clamps (excluded, counted).
    # Tuned rates are held through the whole trial so every tick carries a
    # class margin, and the high baseline keeps every counter in the
    # thousands, where the +/-1 flooring error is far below those margins.
    # (At rest the class outputs are degenerate by design -- no margin -- so
    # argmax there is not a meaningful stability probe.)
    ds = gen_synthetic(
        SynthParams(
            q=12,
            m=3,
            baseline_rate=40.0,
            peak_rate=120.0,
            tuning_width=1.0,
            ramp_start_ms=-1000.0,
            ramp_peak_ms=-980.0,
            decay_start_ms=980.0,
            decay_end_ms=1000.0,
            trials_per_class=4,
            seed=77,
        )
    )
    cfg = FrontendConfig.tdbdi(12, 1)
    base_params = AnalogParams(i_ref_na=6.0)
    chip = build_chip(85, base_params, d=12, l=24)
    hidden, targets = collect_H(ds, chip, cfg)
    # a little ridge keeps ||beta|| small, so the class margin dwarfs the
    # o-perturbation the counter floor can induce
    w = fit_output_weights(hidden, targets, method="T1", ridge_lambda=30.0)
    model = DecoderModel(w.beta, w.support, 3, report=w.report, frontend=cfg, chip_seed=85)

    for i in (1, 5, 9):  # one per class
        codes = run_trial(cfg, ds.trials[i])
        results, h_raw = {}, {}
        for alpha in [0.5, 1.0, 2.0]:
            params = AnalogParams(**{**base_params.__dict__, "alpha_supply": alpha})
            alt_chip = build_chip(chip.seed, params, chip.d, chip.l)
            results[alpha] = decode_stream(ds, i, model, alt_chip)
            h_raw[alpha] = hidden_layer(codes, alt_chip)
        ref = results[1.0]
        ref_norm = normalize_rows(h_raw[1.0].copy(), codes)  # scaled in place
        for alpha in [0.5, 2.0]:
            clamped = (h_raw[alpha] == base_params.stop_value).any(axis=1) | (
                h_raw[1.0] == base_params.stop_value
            ).any(axis=1)
            excluded = int(clamped.sum())
            assert excluded < len(ref.s) // 2  # exclusion cannot swallow the test
            live = ~clamped
            # hidden vectors within 0.5% of the alpha=1 reference (floor effects)
            alt_norm = normalize_rows(h_raw[alpha], codes)
            scale = np.linalg.norm(ref_norm[live], axis=1)
            dev = np.linalg.norm(alt_norm[live] - ref_norm[live], axis=1)
            assert np.all(dev <= 0.005 * scale)
            assert np.array_equal(results[alpha].s[live], ref.s[live])
