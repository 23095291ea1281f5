"""Tests for runtime decoding: classifier, onset bits, tracking FSM, scoring."""

import numpy as np
import pytest

from mlcpsim.analog import AnalogParams, build_chip, hidden_layer, normalize_rows
from mlcpsim.decoder import (
    ChipMismatchError,
    DecoderModel,
    decode_stream,
    evaluate,
    load_model,
    majority_class,
    roc_sweep,
    save_model,
    split_dataset,
    track,
    write_roc_csv,
    write_stream_csv,
)
from mlcpsim.frontend import FrontendConfig, run_trial
from mlcpsim.spikeio import SpikeDataset, SynthParams, Trial, gen_synthetic
from mlcpsim.training import collect_H, fit_output_weights

from decoder_oracle import TrackingFsm, classify_type, onset_primary, oracle_scores


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
    cfg = FrontendConfig.direct(12)
    chip = build_chip(71, AnalogParams(), d=12, l=24)
    hidden, targets = collect_H(ds, chip, cfg)
    w = fit_output_weights(hidden, targets, method="T1")
    model = DecoderModel.from_training(w, m=3, frontend=cfg, chip_seed=71)
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
    trial = Trial("quiet", 1, 1000000, 2000000, [])
    result = decode_stream(trial, model, chip)
    assert (result.f == 0).all()
    assert (result.g == 0).all()
    assert (result.o == 0).all()


def test_decode_equals_composed_ops(easy_setup):
    ds, chip, model = easy_setup
    trial = ds.trials[3]
    result = decode_stream(trial, model, chip)
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


def test_f_identity_every_tick(easy_setup):
    ds, chip, model = easy_setup
    for trial in ds.trials[:6]:
        result = decode_stream(trial, model, chip)
        assert np.array_equal(result.f, result.g_track * result.s)
        assert np.all((result.s >= 1) & (result.s <= model.m))


def test_strong_tuning_fires_near_onset(easy_setup):
    ds, chip, model = easy_setup
    trial = ds.trials[0]  # class 1
    result = decode_stream(trial, model, chip)
    fired = result.f[result.f > 0]
    assert fired.size >= 1
    assert fired[0] == trial.label
    detections = result.detections_ms()
    assert np.any(np.abs(detections - 1000.0) <= 150.0)


def test_stream_csv_format(tmp_path, easy_setup):
    ds, chip, model = easy_setup
    result = decode_stream(ds.trials[0], model, chip)
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
    cfg = FrontendConfig.direct(6)
    chip = build_chip(81, AnalogParams(), d=6, l=12)
    hidden, targets = collect_H(ds, chip, cfg)
    w = fit_output_weights(hidden, targets, method="T1")
    # long refractory: one detection per trial even though the burst outlives Tr=140
    model = DecoderModel.from_training(w, m=3, frontend=cfg, chip_seed=81, tr_ms=400.0)
    # establish that this predictor really is perfect, trial by trial ...
    for trial in ds.trials:
        res = decode_stream(trial, model, chip)
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
    cfg = FrontendConfig.direct(12)
    beta = np.zeros((24, 4))
    beta[:, 0] = 1.0  # o_1 = sum(h) > 0 = all others -> always class 1
    model = DecoderModel(beta, np.ones(24, bool), m=3, frontend=cfg)
    report = evaluate(ds, model, chip)
    assert report.accuracy == pytest.approx(1.0 / 3.0)
    assert report.tpr == 0.0
    assert report.fp_per_trial == 0.0


def test_evaluate_deterministic_with_noise(easy_setup):
    ds, chip, model = easy_setup
    r1 = evaluate(ds, model, chip, noise_on=True, noise_seed=9)
    r2 = evaluate(ds, model, chip, noise_on=True, noise_seed=9)
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
    for run in (lambda c: evaluate(ds, model, c), lambda c: decode_stream(ds.trials[0], model, c),
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
                         frontend=FrontendConfig.direct(4))
    # the tail trial's refractory runs out in the padding while its window
    # count is still >= lam, so an unmasked batch would detect there
    g = decode_stream(trials[2], model, chip).g
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


def test_majority_vote_tie_break():
    assert majority_class(np.array([2, 2, 3, 3]), m=4) == 2
    assert majority_class(np.array([], dtype=int), m=4) == 0  # no ticks, no vote


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
    for trial in sub.trials:
        o = decode_stream(trial, model, chip).o[:, model.m]
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
    r_orig = decode_stream(ds.trials[5], model, chip)
    r_load = decode_stream(ds.trials[5], loaded, chip)
    assert np.array_equal(r_orig.o, r_load.o)
    assert np.array_equal(r_orig.f, r_load.f)


def test_model_validation():
    cfg = FrontendConfig.direct(4)
    with pytest.raises(ValueError):
        DecoderModel(np.zeros((8, 3)), np.ones(8, bool), m=3, frontend=cfg)  # beta too narrow
    with pytest.raises(ValueError):
        DecoderModel(np.zeros((8, 4)), np.ones(8, bool), m=3, frontend=cfg, lam=11, tau=10)


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
    cfg = FrontendConfig.direct(12)
    base_params = AnalogParams(i_ref_na=6.0)
    chip = build_chip(85, base_params, d=12, l=24)
    hidden, targets = collect_H(ds, chip, cfg)
    # a little ridge keeps ||beta|| small, so the class margin dwarfs the
    # o-perturbation the counter floor can induce
    w = fit_output_weights(hidden, targets, method="T1", ridge_lambda=30.0)
    model = DecoderModel.from_training(w, m=3, frontend=cfg, chip_seed=85)

    for trial in [ds.trials[1], ds.trials[5], ds.trials[9]]:  # one per class
        codes = run_trial(cfg, trial)
        results, h_raw = {}, {}
        for alpha in [0.5, 1.0, 2.0]:
            params = AnalogParams(**{**base_params.__dict__, "alpha_supply": alpha})
            alt_chip = build_chip(chip.seed, params, chip.d, chip.l)
            results[alpha] = decode_stream(trial, model, alt_chip)
            h_raw[alpha] = hidden_layer(codes, alt_chip)
        ref = results[1.0]
        ref_norm = normalize_rows(h_raw[1.0], codes)
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
