"""Acceptance suite: twelve headline checks, one test (= one report line) each.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
check.  Each check re-derives its expected values independently inside this
file (closed-form arithmetic, brute-force references, or an alternate solver)
rather than trusting the implementation under test.
"""

import itertools

import numpy as np
import pytest
from scipy import stats

from mlcpsim.analog import (
    AnalogParams,
    build_chip,
    cco_count,
    hidden_layer,
    mirror_multiply,
    normalize_rows,
)
from mlcpsim.budget import BudgetInputs, datarate_report, energy_report
from mlcpsim.cli import main
from mlcpsim.decoder import DecoderModel, decode_stream, evaluate, roc_sweep, split_dataset
from mlcpsim.frontend import FrontendConfig
from mlcpsim.spikeio import SpikeDataset, SynthParams, Trial, gen_synthetic
from mlcpsim.training import collect_H, fit_blocks, fit_output_weights

from decoder_oracle import TrackingFsm
from frontend_oracle import Frontend


# --------------------------------------------------------------- 1. energy

def test_c01_energy_budget_reproduction():
    e = energy_report(BudgetInputs(d=40, l=60, c=12))
    assert e.e_per_mac_stage1 == pytest.approx(3.45e-12, rel=0.01)
    assert e.e_per_classify_stage1 == pytest.approx(8.3e-9, rel=0.01)
    assert e.e_per_classify_total == pytest.approx(16.2e-9, rel=0.02)
    assert e.e_per_mac_combined == pytest.approx(5.2e-12, rel=0.02)
    full = energy_report(BudgetInputs(d=128, l=128, c=12))
    assert full.e_per_mac_combined == pytest.approx(1.46e-12, rel=0.10)


# ------------------------------------------------------------ 2. data rates

def test_c02_data_rate_reproduction():
    r = datarate_report(BudgetInputs(c=13, f_bio_hz=100.0, f_deco_hz=50.0))
    assert r.r_conv_bps == 8 * 256 * 100.0  # = 204.8 kbps
    assert r.r_prop_bps == 50.0 * 4  # = 200 bps at 13 classes
    assert r.r_raw_bps == 100 * 20e3 * 10  # = 20 Mbps


# -------------------------------------------------- 3. window counter oracle

def test_c03_window_counter_equals_brute_force():
    rng = np.random.default_rng(300)
    n_ticks, rows = 7813, 128  # just over 10^6 samples
    counts = rng.integers(0, 25, size=(n_ticks, rows))

    # brute force, written fresh: saturate each sub-window at 15, then a
    # 5-wide sliding sum clamped at 63
    sat = np.minimum(counts, 15)
    padded = np.vstack([np.zeros((4, rows), dtype=np.int64), sat])
    sliding = sum(padded[k : k + n_ticks] for k in range(5))
    expected = np.minimum(sliding, 63)

    fe = Frontend(FrontendConfig.direct(rows))
    got = np.stack([fe.step(counts[t]) for t in range(n_ticks)])
    assert np.array_equal(got, expected)


# ------------------------------------------------------ 4. delay exactness

def test_c04_delayed_rows_shift_source_exactly():
    rng = np.random.default_rng(400)
    counts = rng.integers(0, 20, size=(400, 1))
    for sdl_raw in range(5):
        delay = sdl_raw + 1
        cfg = FrontendConfig(
            rows=2,
            s_ext=np.array([0, 1]),
            sdl=np.array([0, sdl_raw]),
        )
        fe = Frontend(cfg)
        q = np.stack([fe.step(counts[t]) for t in range(400)])
        assert np.array_equal(q[delay:, 1], q[:-delay, 0])
        assert not q[:delay, 1].any()


# --------------------------------------------------- 5. mismatch statistics

def test_c05_mismatch_lognormal_statistics():
    chip = build_chip(500, AnalogParams(), d=128, l=128)
    ln_w = np.log(chip.weights).ravel()
    result = stats.kstest(ln_w, "norm", args=(0.0, 16.5 / 26.0))
    assert result.pvalue > 0.01
    assert abs(chip.delta_vt_mv.mean()) < 0.6  # mV


# ----------------------------------------------------- 6. noise calibration

def test_c06_noise_calibration():
    # mirror: multiplicative error at 43 dB SNR -> 0.708% relative std
    chip = build_chip(600, AnalogParams(sigma_vt_mv=0.0, dnl_max_lsb=0.0), d=1, l=1)
    rng = np.random.default_rng(601)
    outs = np.array(
        [mirror_multiply(np.array([10.0]), chip, rng=rng)[0] for _ in range(4000)]
    )
    rel = outs.std() / outs.mean()
    assert 0.5 * 0.00708 <= rel <= 2.0 * 0.00708

    # counter jitter: relative count std < 0.1% at currents spanning the range
    params = AnalogParams()
    rng = np.random.default_rng(602)
    for i_na in [6.0, 36.0, 90.0]:
        counts = np.array(
            [cco_count(np.array([i_na]), params, rng=rng)[0] for _ in range(100)]
        )
        assert counts.std() / counts.mean() < 1e-3


# ---------------------------------------------- 7. normalization invariance

def test_c07_supply_sweep_normalization_invariance():
    ds = gen_synthetic(
        SynthParams(
            q=12, m=3, baseline_rate=40.0, peak_rate=120.0, tuning_width=1.0,
            ramp_start_ms=-1000.0, ramp_peak_ms=-980.0,
            decay_start_ms=980.0, decay_end_ms=1000.0,
            trials_per_class=4, seed=700,
        )
    )
    cfg = FrontendConfig.direct(12)
    base = AnalogParams(i_ref_na=6.0)
    chip = build_chip(701, base, d=12, l=24)
    hidden, targets = collect_H(ds, chip, cfg)
    w = fit_output_weights(hidden, targets, method="T1", ridge_lambda=30.0)
    model = DecoderModel.from_training(w, m=3, frontend=cfg, chip_seed=701)

    from mlcpsim.frontend import run_trial

    for trial in [ds.trials[0], ds.trials[5], ds.trials[10]]:
        codes = run_trial(cfg, trial)
        streams, raw = {}, {}
        for alpha in [0.5, 1.0, 2.0]:
            params = AnalogParams(**{**base.__dict__, "alpha_supply": alpha})
            alt = build_chip(chip.seed, params, chip.d, chip.l)
            streams[alpha] = decode_stream(trial, model, alt)
            raw[alpha] = hidden_layer(codes, alt)
        ref_norm = normalize_rows(raw[1.0], codes)
        for alpha in [0.5, 2.0]:
            clamped = (raw[alpha] == base.stop_value).any(axis=1) | (
                raw[1.0] == base.stop_value
            ).any(axis=1)
            assert int(clamped.sum()) < len(codes) // 2  # excluded ticks are counted
            live = ~clamped
            alt_norm = normalize_rows(raw[alpha], codes)
            dev = np.linalg.norm(alt_norm[live] - ref_norm[live], axis=1)
            assert np.all(dev <= 0.005 * np.linalg.norm(ref_norm[live], axis=1))
            assert np.array_equal(streams[alpha].s[live], streams[1.0].s[live])


# -------------------------------------------------------- 8. trainer oracles

def _cd_lasso(h, t, lam, sweeps=20000, tol=1e-13):
    """Independent coordinate-descent solver for 0.5||h b - t||^2 + lam ||b||_1."""
    n, p = h.shape
    beta = np.zeros(p)
    col_sq = (h ** 2).sum(axis=0)
    resid = t.astype(float).copy()
    for _ in range(sweeps):
        delta = 0.0
        for j in range(p):
            if col_sq[j] == 0:
                continue
            rho = h[:, j] @ resid + col_sq[j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if new != beta[j]:
                resid -= h[:, j] * (new - beta[j])
                delta = max(delta, abs(new - beta[j]))
                beta[j] = new
        if delta < tol:
            break
    return beta


def _lasso_objective(h, t, beta, lam):
    return 0.5 * np.sum((h @ beta - t) ** 2) + lam * np.sum(np.abs(beta))


def test_c08_trainer_oracles():
    rng = np.random.default_rng(800)
    # T1 vs explicit SVD/normal-equation solutions, 100 random instances
    for _ in range(100):
        n, p = int(rng.integers(8, 41)), int(rng.integers(3, 21))
        h = rng.normal(size=(n, p))
        if rng.random() < 0.3 and p >= 2:  # force rank deficiency sometimes
            h[:, -1] = h[:, 0]
        t = rng.normal(size=(n, 2))
        got = fit_blocks([(h, t)]).beta
        u, s, vt = np.linalg.svd(h, full_matrices=False)
        keep = s > 1e-10 * s[0]
        want = vt[keep].T @ ((u[:, keep].T @ t) / s[keep, None])
        assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))
        lam_r = 0.7
        got_r = fit_blocks([(h, t)], ridge_lambda=lam_r).beta
        want_r = np.linalg.solve(h.T @ h + lam_r * np.eye(p), h.T @ t)
        assert np.linalg.norm(got_r - want_r) <= 1e-8 * max(1.0, np.linalg.norm(want_r))

    # T2 KKT + coordinate-descent objective parity on 20x6 instances
    for k in range(20):
        h = rng.normal(size=(20, 6))
        t = rng.normal(size=20)
        lam = float(rng.uniform(0.05, 0.7)) * np.max(np.abs(h.T @ t))
        beta = fit_blocks([(h, t[:, None])], "T2", l1_lambda=lam).beta[:, 0]
        grad = h.T @ (h @ beta - t)
        active = beta != 0.0
        assert np.all(np.abs(grad[active] + lam * np.sign(beta[active])) <= 1e-6 * max(1.0, lam))
        assert np.all(np.abs(grad[~active]) <= lam * (1 + 1e-6))
        beta_cd = _cd_lasso(h, t, lam)
        f_ours = _lasso_objective(h, t, beta, lam)
        f_cd = _lasso_objective(h, t, beta_cd, lam)
        assert abs(f_ours - f_cd) <= 1e-6 * max(1.0, abs(f_cd))


# ------------------------------------------------------- 9. decoding trends

def _restrict_channels(dataset, n):
    if n >= dataset.channel_count:
        return dataset
    trials = []
    for t in dataset.trials:
        keep = t.channels < n
        trials.append(Trial(t.id, t.label, t.onset, t.duration, t.times_us[keep], t.channels[keep]))
    return SpikeDataset(trials, n, dataset.class_count, dataset.metadata)


def test_c09_decoding_trends_on_synthetic_data():
    ds = gen_synthetic(SynthParams())  # 30 channels, 12 classes, 10 trials each
    train_set, test_set = split_dataset(ds, 0.3, seed=0)
    seeds = [1, 2, 3, 4, 5]

    def accuracy(l, n, p, seed, method="T1", **fit_kw):
        tr, te = _restrict_channels(train_set, n), _restrict_channels(test_set, n)
        fe = FrontendConfig.direct(n) if p == 1 else FrontendConfig.tdbdi(n, p)
        chip = build_chip(seed, AnalogParams(), d=fe.rows, l=l)
        hidden, targets = collect_H(tr, chip, fe)
        w = fit_output_weights(hidden, targets, method=method, **fit_kw)
        model = DecoderModel.from_training(w, m=ds.class_count, frontend=fe, chip_seed=seed)
        return evaluate(te, model, chip).accuracy, int(w.support.sum())

    # (a) more hidden neurons help: L=60 beats L=10 by >= 5 points (mean of 5 chips)
    acc10 = np.mean([accuracy(10, 30, 1, s)[0] for s in seeds])
    acc60 = np.mean([accuracy(60, 30, 1, s)[0] for s in seeds])
    assert acc60 - acc10 >= 0.05

    # (b) with 15 channels, delay-embedded rows do not hurt: p=2 >= p=1 (mean)
    acc_p1 = np.mean([accuracy(60, 15, 1, s)[0] for s in seeds])
    acc_p2 = np.mean([accuracy(60, 15, 2, s)[0] for s in seeds])
    assert acc_p2 >= acc_p1

    # (c) sparse training stays within 2 points of dense using <= 60% of neurons
    t2 = [accuracy(60, 30, 1, s, method="T2", target_sparsity=0.4, refit=True) for s in seeds]
    acc_t2 = np.mean([a for a, _ in t2])
    assert all(kept <= 36 for _, kept in t2)  # 60% of L=60
    assert acc_t2 >= acc60 - 0.02

    # (d) end-to-end accuracy on the separable 12-class set
    assert acc60 >= 0.90


# -------------------------------------------------------- 10. FSM equivalence

def _reference_track(g_bits, lam, tau, tr_ticks):
    """Windowed-count + refractory tracker, re-derived from the rules."""
    out, prev, refractory_until = [], 0, 0.0
    for n, g in enumerate(g_bits):
        window = g_bits[max(0, n - tau + 1) : n + 1]
        bit = 1 if sum(window) >= lam and n >= refractory_until else 0
        if bit and not prev:
            refractory_until = n + tr_ticks
        prev = bit
        out.append(bit)
    return out


def test_c10_tracking_fsm_equivalence():
    t_s = 20.0
    # exhaustive: every G string of length <= 12 for tau <= 4
    for tau in range(1, 5):
        for lam in range(1, tau + 1):
            for tr_ticks in [0.0, 2.0, 3.5]:
                fsm = TrackingFsm(lam, tau, tr_ms=tr_ticks * t_s, t_s_ms=t_s)
                for length in range(1, 13):
                    for bits in itertools.product((0, 1), repeat=length):
                        fsm.reset()
                        got = [fsm.step(g) for g in bits]
                        assert got == _reference_track(list(bits), lam, tau, tr_ticks)

    # randomized long-stream check at the published operating point
    rng = np.random.default_rng(1000)
    g_stream = (rng.random(100_000) < 0.35).astype(int).tolist()
    lam, tau, tr_ms = 6, 10, 140.0
    fsm = TrackingFsm(lam, tau, tr_ms, t_s)
    got = np.array([fsm.step(g) for g in g_stream])
    want = np.array(_reference_track(g_stream, lam, tau, tr_ms / t_s))
    assert np.array_equal(got, want)
    # no two detections closer than the refractory period
    rising = np.nonzero((got == 1) & (np.concatenate([[0], got[:-1]]) == 0))[0]
    assert np.all(np.diff(rising) >= tr_ms / t_s)


# ------------------------------------------------------------ 11. ROC sanity

def test_c11_roc_sweep_sanity():
    ds = gen_synthetic(
        SynthParams(q=8, m=2, baseline_rate=4.0, peak_rate=100.0, tuning_width=1.0,
                    trials_per_class=4, seed=1100)
    )
    cfg = FrontendConfig.direct(8)
    chip = build_chip(1101, AnalogParams(), d=8, l=16)
    hidden, targets = collect_H(ds, chip, cfg)
    w = fit_output_weights(hidden, targets, method="T1")
    model = DecoderModel.from_training(w, m=2, frontend=cfg, chip_seed=1101)

    grid = [1e9, 0.9, 0.6, 0.3, 0.0]
    points = roc_sweep(ds, model, chip, theta_grid=grid)
    assert [p[0] for p in points] == sorted(grid)
    by_theta = {t: (tpr, fp) for t, tpr, fp in points}
    assert by_theta[1e9] == (0.0, 0.0)  # threshold above every output
    # primary bit is pointwise monotone in theta on every trial
    for trial in ds.trials:
        onset_out = decode_stream(trial, model, chip).o[:, model.m]
        for lo, hi in zip(sorted(grid), sorted(grid)[1:]):
            assert np.all((onset_out > lo).astype(int) >= (onset_out > hi).astype(int))


# ------------------------------------------------------- 12. CLI determinism

def test_c12_cli_byte_determinism(tmp_path, capsys):
    gen_args = ["--set", "synth.q=8", "--set", "synth.m=2",
                "--set", "synth.trials_per_class=4", "--set", "synth.peak_rate=100",
                "--set", "synth.tuning_width=1.0"]
    small = ["--set", "chip.l=16"]

    def run(*argv):
        assert main(list(argv)) == 0
        capsys.readouterr()

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    outs = {}
    for rep in ("a", "b"):
        root = tmp_path / rep
        root.mkdir()
        ds, chip, mm = root / "ds", root / "chip.json", root / "mm.csv"
        model, report = root / "model.json", root / "report.json"
        stream, roc, sweep, bud = root / "s.csv", root / "roc.csv", root / "sw.csv", root / "b.json"
        run("gen", "--out", str(ds), "--seed", "3", *gen_args)
        run("chip", "--out", str(chip), "--dump", str(mm), "--seed", "3",
            "--set", "chip.d=8", *small)
        run("train", "--data", str(ds), "--out", str(model), "--seed", "3", *small)
        run("eval", "--data", str(ds), "--model", str(model), "--out", str(report),
            "--seed", "3", *small)
        run("stream", "--data", str(ds), "--model", str(model), "--out", str(stream),
            "--trial", "1", "--seed", "3", *small)
        run("roc", "--data", str(ds), "--model", str(model), "--out", str(roc),
            "--seed", "3", *small, "--set", "roc.points=5")
        run("sweep", "--data", str(ds), "--out", str(sweep), "--seed", "3",
            "--set", "sweep.l_grid=8,16", "--set", "sweep.chip_seeds=1,2",
            "--set", "split.test_fraction=0.25")
        run("budget", "--out", str(bud))
        outs[rep] = tree(root)
    assert outs["a"] == outs["b"]
