"""Tests for hidden-matrix collection and T1/T2 output-weight training."""

import tracemalloc

import numpy as np
import pytest

from mlcpsim.analog import AnalogParams, ChipInstance, build_chip, hidden_layer
from mlcpsim.frontend import FrontendConfig, run_trial, tick_count
from mlcpsim.spikeio import SpikeDataset, SynthParams, Trial, gen_synthetic
from mlcpsim import cli, training
from mlcpsim.config import resolve_config
from mlcpsim.training import (
    ConvergenceError,
    HiddenMatrix,
    OutputWeights,
    TargetSet,
    TrainingError,
    TrapezoidParams,
    collect_H,
    fit_blocks,
    fit_output_weights,
    hidden_stream,
    trapezoid,
)
from cli_oracle import _restrict_channels
from training_oracle import (
    eager_block_T2,
    eager_fit_T2,
    two_block_refit,
    lasso_interp,
    lasso_kkt_violation,
    lasso_lambda_max,
    lasso_path,
    trapezoid_scalar,
    type_targets,
)


def cd_lasso(h, t, lam, iters=5000, tol=1e-13):
    """Independent coordinate-descent solver for 1/2||hb-t||^2 + lam||b||_1."""
    n = h.shape[1]
    beta = np.zeros(n)
    col_sq = (h**2).sum(axis=0)
    r = t.astype(float).copy()
    for _ in range(iters):
        biggest = 0.0
        for j in range(n):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = h[:, j] @ r + col_sq[j] * old
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if new != old:
                r -= h[:, j] * (new - old)
                beta[j] = new
                biggest = max(biggest, abs(new - old))
        if biggest < tol:
            break
    return beta


def lasso_objective(h, t, beta, lam):
    return 0.5 * np.sum((h @ beta - t) ** 2) + lam * np.sum(np.abs(beta))


def row_ticks(hidden):
    """The tick within its trial of each row of H."""
    return np.concatenate([np.arange(n) for n in hidden.n_ticks])


def tiny_dataset(**overrides):
    kwargs = dict(q=6, m=2, trials_per_class=2, peak_rate=60.0, seed=40)
    kwargs.update(overrides)
    return gen_synthetic(SynthParams(**kwargs))


# ------------------------------------------------------------- trapezoid

def test_trapezoid_shape():
    p = TrapezoidParams(800, 900, 1100, 1200)
    assert trapezoid(1000.0, p) == 1.0
    assert trapezoid(500.0, p) == 0.0
    assert trapezoid(1500.0, p) == 0.0
    assert trapezoid(850.0, p) == pytest.approx(0.5)
    assert trapezoid(1150.0, p) == pytest.approx(0.5)
    assert trapezoid(900.0, p) == 1.0
    assert trapezoid(1100.0, p) == 1.0


def test_trapezoid_array_matches_scalar_oracle():
    # every tick of the default trapezoid at 20 ms, plus the breakpoints and
    # their neighbours, on the default and on degenerate ramps
    ticks = (np.arange(200) + 1) * 20.0
    for p in [TrapezoidParams(), TrapezoidParams(800, 800, 1100, 1200),
              TrapezoidParams(800, 900, 1100, 1100), TrapezoidParams(900, 900, 900, 900),
              TrapezoidParams(0, 0, 0, 50), TrapezoidParams(810, 905.5, 1013, 1187.25)]:
        edges = np.array([p.t0_ms, p.t1_ms, p.t2_ms, p.t3_ms])
        t = np.concatenate([ticks, edges, np.nextafter(edges, -np.inf),
                            np.nextafter(edges, np.inf)])
        got = trapezoid(t, p)
        want = np.array([trapezoid_scalar(x, p) for x in t])
        assert np.array_equal(got, want)


def test_the_plateau_test_is_the_closed_interval_where_membership_is_one():
    for p in [TrapezoidParams(), TrapezoidParams(810, 905.5, 1013, 1187.25),
              TrapezoidParams(800, 850, 850, 900)]:
        edges = np.array([p.t1_ms, p.t2_ms])
        t = np.concatenate([np.arange(0.0, 2000.0, 2.5), edges, np.nextafter(edges, -np.inf),
                            np.nextafter(edges, np.inf)])
        on = p.on_plateau(t)
        assert np.array_equal(on, (t >= p.t1_ms) & (t <= p.t2_ms))
        assert np.array_equal(on, trapezoid(t, p) == 1.0)


def test_plateau_policy_rows_are_the_plateau_ticks_on_the_clock():
    ds = tiny_dataset(trials_per_class=1)
    chip = build_chip(46, AnalogParams(), d=6, l=4)
    cfg = FrontendConfig.tdbdi(6, 1, t_s_ms=15.0)
    trap = TrapezoidParams(805, 900, 1005, 1100)
    hidden, targets = collect_H(ds, chip, cfg, sample_policy="plateau", trap=trap)
    assert np.array_equal(targets.type_rows, trap.on_plateau(cfg.tick_end_ms(row_ticks(hidden))))
    assert targets.type_rows.sum() == 2 * 8  # ticks 59..66 end at 900..1005 ms


def test_trapezoid_ordering_enforced():
    with pytest.raises(ValueError):
        TrapezoidParams(900, 800, 1100, 1200)


# -------------------------------------------------------------- collect_H

def test_collect_row_count_every_tick():
    ds = tiny_dataset()
    chip = build_chip(41, AnalogParams(), d=6, l=8)
    hidden, targets = collect_H(ds, chip, FrontendConfig.tdbdi(6, 1), sample_policy="all")
    # 4 trials x 2 s / 20 ms = 100 ticks each
    assert hidden.h.shape == (400, 8)
    assert hidden.n_ticks.tolist() == [100] * 4
    assert targets.m == 2 and targets.type_rows.all()
    assert np.array_equal(targets.labels, np.repeat([t.label for t in ds.trials], 100))
    assert np.array_equal(row_ticks(hidden), np.tile(np.arange(100), 4))


def test_collect_fills_H_like_a_stack_of_per_trial_streams():
    # a zero-tick trial in the middle and one whose duration is not a whole
    # number of sub-windows; codes given beforehand as uint8 or not at all
    base = tiny_dataset()
    odd = Trial("odd", 2, 0, 30_001, [5, 20_000, 30_000], [0, 3, 5])
    trials = base.trials[:2] + [Trial("z", 1, 0, 0), odd] + base.trials[2:]
    ds = SpikeDataset(trials, base.channel_count, base.class_count, base.metadata)
    cfg = FrontendConfig.tdbdi(6, 2, link_delay=2)
    chip = build_chip(44, AnalogParams(), d=cfg.rows, l=8)
    n_ticks = [tick_count(cfg, trial) for trial in trials]
    assert n_ticks[2:4] == [0, 2]
    assert n_ticks == [len(run_trial(cfg, trial)) for trial in trials]
    for noise_seed in (None, 5):
        want = np.vstack([
            hidden_stream(run_trial(cfg, trial), chip, True,
                          None if noise_seed is None else np.random.default_rng([5, idx]))
            for idx, trial in enumerate(trials)
        ])
        for codes in (None, [run_trial(cfg, trial).astype(np.uint8) for trial in trials]):
            hidden, targets = collect_H(ds, chip, cfg, noise_seed=noise_seed, codes=codes)
            assert np.array_equal(hidden.h, want)
            assert hidden.n_ticks.tolist() == n_ticks
            assert np.array_equal(targets.labels, np.repeat([t.label for t in trials], n_ticks))
            ticks = np.concatenate([np.arange(n) for n in n_ticks])
            assert np.array_equal(targets.t_onset, trapezoid(cfg.tick_end_ms(ticks),
                                                             TrapezoidParams()))


def test_collect_zero_spikes_gives_zero_h():
    ds = tiny_dataset(baseline_rate=0.0, peak_rate=0.0)
    chip = build_chip(42, AnalogParams(), d=6, l=8)
    hidden, _ = collect_H(ds, chip, FrontendConfig.tdbdi(6, 1))
    assert not hidden.h.any()


def test_collect_deterministic_with_noise():
    ds = tiny_dataset()
    chip = build_chip(43, AnalogParams(), d=6, l=8)
    cfg = FrontendConfig.tdbdi(6, 1)
    h1, _ = collect_H(ds, chip, cfg, noise_seed=5)
    h2, _ = collect_H(ds, chip, cfg, noise_seed=5)
    h3, _ = collect_H(ds, chip, cfg, noise_seed=6)
    assert np.array_equal(h1.h, h2.h)
    assert not np.array_equal(h1.h, h3.h)


def test_collect_dimension_mismatch_rejected():
    ds = tiny_dataset()
    chip = build_chip(44, AnalogParams(), d=7, l=8)
    with pytest.raises(TrainingError):
        collect_H(ds, chip, FrontendConfig.tdbdi(6, 1))
    with pytest.raises(TrainingError):
        collect_H(ds, chip, FrontendConfig.tdbdi(7, 1))


class _Unread(SpikeDataset):
    def trial(self, index):
        raise AssertionError(f"trial {index}'s events read")


def test_collect_takes_codes_of_fewer_channels_than_the_dataset_holds():
    # sweep codes each trial's first n channels itself: given those codes,
    # collect_H reads no event and collects the H of the n-channel set
    ds = tiny_dataset()  # 6 channels
    cfg = FrontendConfig.tdbdi(4, 2, link_delay=3)
    chip = build_chip(46, AnalogParams(), d=cfg.rows, l=8)
    narrow = _restrict_channels(ds, 4)
    want_h, want_t = collect_H(narrow, chip, cfg, noise_seed=5)
    codes = [run_trial(cfg, trial).astype(np.uint8) for trial in narrow.trials]
    unread = _Unread(ds.trials, ds.channel_count, ds.class_count)
    hidden, targets = collect_H(unread, chip, cfg, noise_seed=5, codes=codes)
    assert np.array_equal(hidden.h, want_h.h)
    assert np.array_equal(hidden.n_ticks, want_h.n_ticks)
    for name in ("labels", "m", "t_onset", "type_rows"):
        assert np.array_equal(getattr(targets, name), getattr(want_t, name)), name
    # reading the events itself, it still refuses the channel mismatch
    with pytest.raises(TrainingError, match="front end expects 4 channels, dataset has 6"):
        collect_H(ds, chip, cfg)


def test_collect_empty_dataset_rejected():
    ds = SpikeDataset(trials=[], channel_count=4, class_count=2)
    chip = build_chip(45, AnalogParams(), d=4, l=4)
    with pytest.raises(TrainingError):
        collect_H(ds, chip, FrontendConfig.tdbdi(4, 1))


def test_sample_policies_select_expected_rows():
    ds = tiny_dataset(trials_per_class=1)
    chip = build_chip(46, AnalogParams(), d=6, l=4)
    cfg = FrontendConfig.tdbdi(6, 1)
    _, t_unamb = collect_H(ds, chip, cfg, sample_policy="unambiguous")
    _, t_plateau = collect_H(ds, chip, cfg, sample_policy="plateau")
    _, t_all = collect_H(ds, chip, cfg, sample_policy="all")
    # per 100-tick trial: plateau ticks are (k+1)*20 in [900, 1100] -> 11 rows;
    # the two 100 ms ramps hold the remaining ambiguous ticks (4 each)
    assert int(t_plateau.type_rows.sum()) == 2 * 11
    assert int(t_unamb.type_rows.sum()) == 2 * (100 - 8)
    assert int(t_all.type_rows.sum()) == 200
    # onset targets ride the trapezoid on every policy
    assert t_all.t_onset.max() == 1.0
    assert t_all.t_onset.min() == 0.0


# ---------------------------------------------------------------------- T1

def test_t1_identity_h_returns_targets():
    t = np.random.default_rng(47).normal(size=(6, 3))
    w = fit_blocks([(np.eye(6), t)])
    assert np.allclose(w.beta, t, atol=1e-12)


def test_t1_matches_normal_equations_oracle():
    rng = np.random.default_rng(48)
    h = rng.normal(size=(50, 10))
    t = rng.normal(size=(50, 3))
    w = fit_blocks([(h, t)])
    oracle = np.linalg.solve(h.T @ h, h.T @ t)
    assert np.max(np.abs(w.beta - oracle)) / np.max(np.abs(oracle)) < 1e-8


def test_t1_min_norm_on_rank_deficient_h():
    rng = np.random.default_rng(49)
    h = rng.normal(size=(30, 8))
    h[:, 5] = h[:, 2]  # duplicated column
    t = rng.normal(size=30)
    w = fit_blocks([(h, t)])
    oracle = np.linalg.pinv(h) @ t
    assert np.allclose(w.beta[:, 0], oracle, atol=1e-10)
    # any least-squares solution differing by a null-space vector is longer
    null = np.zeros(8)
    null[5], null[2] = 1.0, -1.0
    other = w.beta[:, 0] + 0.3 * null
    assert np.allclose(h @ other, h @ w.beta[:, 0])
    assert np.linalg.norm(other) > np.linalg.norm(w.beta[:, 0])


def test_t1_residual_orthogonal_to_columns():
    rng = np.random.default_rng(50)
    h = rng.normal(size=(40, 12))
    t = rng.normal(size=(40, 4))
    w = fit_blocks([(h, t)])
    lhs = np.linalg.norm(h.T @ (h @ w.beta - t))
    assert lhs <= 1e-8 * np.linalg.norm(h.T @ t)


def test_t1_ridge_matches_oracle():
    rng = np.random.default_rng(51)
    h = rng.normal(size=(25, 6))
    t = rng.normal(size=(25, 2))
    lam = 3.7
    w = fit_blocks([(h, t)], ridge_lambda=lam)
    oracle = np.linalg.solve(h.T @ h + lam * np.eye(6), h.T @ t)
    assert np.allclose(w.beta, oracle, atol=1e-10)


def test_t1_all_zero_h_reported_not_fatal():
    w = fit_blocks([(np.zeros((10, 4)), np.ones((10, 2)))])
    assert not w.beta.any()
    assert w.report.get("degenerate") is True


# ---------------------------------------------------------------------- T2

def test_t2_all_zero_h_reported_not_fatal():
    t = np.random.default_rng(53).normal(size=(50, 3))
    for refit in (False, True):
        w = fit_blocks([(np.zeros((50, 6)), t)], "T2", target_sparsity=0.3, refit=refit)
        assert w.beta.shape == (6, 3) and not w.beta.any()
        assert np.sum(~w.support) == 6
        assert w.report["degenerate"] is True and w.report["l1_lambda"] == 0.0
    ds = tiny_dataset(baseline_rate=0.0, peak_rate=0.0)
    hidden, targets = collect_H(ds, build_chip(42, AnalogParams(), d=6, l=8),
                                FrontendConfig.tdbdi(6, 1))
    for method, kwargs in [("T1", {}), ("T2", {"target_sparsity": 0.3})]:
        w = fit_output_weights(hidden, targets, method=method, **kwargs)
        assert w.beta.shape == (8, 3) and not w.beta.any()
        assert np.sum(~w.support) == 8 and w.report["degenerate"] is True
    # a non-zero H does not carry the flag
    w = fit_blocks([(np.eye(6), np.ones(6))], "T2", target_sparsity=0.3)
    assert "degenerate" not in w.report


def test_t2_null_threshold():
    rng = np.random.default_rng(52)
    h = rng.normal(size=(20, 6))
    t = rng.normal(size=(20, 2))
    lam_max = max(lasso_lambda_max(h, t[:, k]) for k in range(2))
    w = fit_blocks([(h, t)], "T2", l1_lambda=lam_max * 1.0001)
    assert not w.beta.any()
    assert np.sum(~w.support) == 6


def test_t2_small_penalty_approaches_t1():
    rng = np.random.default_rng(53)
    h = rng.normal(size=(40, 8))
    t = rng.normal(size=(40, 3))
    w1 = fit_blocks([(h, t)])
    lam = 1e-7 * max(lasso_lambda_max(h, t[:, k]) for k in range(3))
    w2 = fit_blocks([(h, t)], "T2", l1_lambda=lam)
    rel = np.max(np.abs(w2.beta - w1.beta)) / np.max(np.abs(w1.beta))
    assert rel < 1e-4


def test_t2_satisfies_kkt():
    rng = np.random.default_rng(54)
    h = rng.normal(size=(20, 6))
    t = rng.normal(size=20)
    lam_max = lasso_lambda_max(h, t)
    for frac in [0.5, 0.1, 0.01]:
        lam = frac * lam_max
        lams, betas = lasso_path(h, t, lam_min=lam)
        assert lasso_kkt_violation(h, t, betas[-1], lam) < 1e-6


def test_t2_objective_matches_coordinate_descent():
    rng = np.random.default_rng(55)
    for trial in range(5):
        h = rng.normal(size=(20, 6))
        t = rng.normal(size=20)
        lam = rng.uniform(0.05, 0.5) * lasso_lambda_max(h, t)
        lams, betas = lasso_path(h, t, lam_min=lam)
        mine = lasso_objective(h, t, betas[-1], lam)
        oracle = lasso_objective(h, t, cd_lasso(h, t, lam), lam)
        assert abs(mine - oracle) <= 1e-6 * max(1.0, abs(oracle))


def test_t2_path_interpolation_consistent():
    rng = np.random.default_rng(56)
    h = rng.normal(size=(30, 10))
    t = rng.normal(size=30)
    lam_max = lasso_lambda_max(h, t)
    lams, betas = lasso_path(h, t, lam_min=lam_max * 1e-4)
    for lam in np.geomspace(lam_max * 0.9, lam_max * 2e-4, 7):
        direct = lasso_path(h, t, lam_min=lam)[1][-1]
        assert np.allclose(lasso_interp(lams, betas, lam), direct, atol=1e-8)


def test_t2_objective_bounded_by_t1():
    rng = np.random.default_rng(57)
    h = rng.normal(size=(30, 8))
    t = rng.normal(size=30)
    lam = 0.3 * lasso_lambda_max(h, t)
    beta1 = fit_blocks([(h, t)]).beta[:, 0]
    beta2 = fit_blocks([(h, t)], "T2", l1_lambda=lam).beta[:, 0]
    bound = lasso_objective(h, t, beta1, 0.0) + lam * np.sum(np.abs(beta1))
    assert lasso_objective(h, t, beta2, lam) <= bound + 1e-9


def test_t2_target_sparsity_reached():
    rng = np.random.default_rng(58)
    h = rng.normal(size=(60, 20))
    t = rng.normal(size=(60, 3))
    w = fit_blocks([(h, t)], "T2", target_sparsity=0.5)
    assert w.report["sparsity"] >= 0.5
    assert np.sum(~w.support) >= 10
    # pruned means the whole row is zero
    assert not w.beta[~w.support].any()
    assert np.all(w.beta[w.support].any(axis=1))


def test_t2_refit_keeps_support_and_reduces_residual():
    rng = np.random.default_rng(59)
    h = rng.normal(size=(50, 12))
    t = rng.normal(size=(50, 2))
    lam = 0.4 * max(lasso_lambda_max(h, t[:, k]) for k in range(2))
    plain = fit_blocks([(h, t)], "T2", l1_lambda=lam)
    refit = fit_blocks([(h, t)], "T2", l1_lambda=lam, refit=True)
    assert np.array_equal(plain.support, refit.support)
    assert not refit.beta[~refit.support].any()
    assert np.linalg.norm(h @ refit.beta - t) <= np.linalg.norm(h @ plain.beta - t) + 1e-12


def test_t2_requires_exactly_one_penalty_setting():
    h, t = np.eye(4), np.ones(4)
    with pytest.raises(TrainingError):
        fit_blocks([(h, t)], "T2")
    with pytest.raises(TrainingError):
        fit_blocks([(h, t)], "T2", l1_lambda=1.0, target_sparsity=0.5)


@pytest.mark.parametrize("method, kwargs", [
    ("T1", {"ridge_lambda": -1.0}),
    ("T1", {"ridge_lambda": float("nan")}),
    ("T2", {"l1_lambda": -5.0}),
    ("T2", {"l1_lambda": float("nan")}),
    ("T2", {"target_sparsity": 1.0}),
    ("T2", {"target_sparsity": float("nan")}),
    ("T1", {"ridge_lambda": float("inf")}),
    ("T2", {"l1_lambda": float("inf")}),
])
def test_negative_nan_or_out_of_range_penalty_rejected(method, kwargs):
    rng = np.random.default_rng(61)
    h = rng.normal(size=(40, 8))
    t = rng.normal(size=40)
    with pytest.raises(TrainingError, match=next(iter(kwargs))):
        fit_blocks([(h, t)], method, **kwargs)


def test_training_deterministic():
    rng = np.random.default_rng(60)
    h = rng.normal(size=(40, 10))
    t = rng.normal(size=(40, 3))
    a = fit_blocks([(h, t)], "T2", l1_lambda=0.2 * lasso_lambda_max(h, t[:, 0]))
    b = fit_blocks([(h, t)], "T2", l1_lambda=0.2 * lasso_lambda_max(h, t[:, 0]))
    assert np.array_equal(a.beta, b.beta)


# ----------------------------------------------------- pruning consistency

def test_pruned_neurons_removable_from_chip():
    # With normalization off, physically dropping pruned neurons from the
    # chip model must reproduce the zero-weight outputs: counter values match
    # exactly, the float readout to summation-order precision.
    ds = tiny_dataset()
    params = AnalogParams(jitter_rel=0.0)
    chip = build_chip(61, params, d=6, l=16)
    cfg = FrontendConfig.tdbdi(6, 1)
    hidden, targets = collect_H(ds, chip, cfg, normalize=False)
    w = fit_output_weights(hidden, targets, method="T2", target_sparsity=0.4)
    assert np.sum(~w.support) >= 0.4 * 16

    keep = w.support
    small = ChipInstance(
        chip.seed, params, 6, int(keep.sum()), chip.delta_vt_mv[keep], chip.dac_dnl_lsb
    )
    rng = np.random.default_rng(62)
    for _ in range(20):
        x = rng.integers(0, 40, size=6)
        h_full = hidden_layer(x, chip)
        h_masked = hidden_layer(x, small)
        assert np.array_equal(h_masked, h_full[keep])
        o_zero = h_full.astype(float) @ w.beta
        o_masked = h_masked.astype(float) @ w.beta[keep]
        assert np.allclose(o_zero, o_masked, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------ fit assembly

def test_fit_output_weights_shapes_and_blocks():
    ds = tiny_dataset()
    chip = build_chip(63, AnalogParams(), d=6, l=10)
    hidden, targets = collect_H(ds, chip, FrontendConfig.tdbdi(6, 1))
    w = fit_output_weights(hidden, targets, method="T1")
    assert w.beta.shape == (10, 3)  # 2 type columns + onset
    # type columns fit on the unambiguous rows only: residual orthogonality
    # holds there, not on all rows
    h_type, t_type = hidden.h[targets.type_rows], type_targets(targets)
    resid = h_type.T @ (h_type @ w.beta[:, :2] - t_type)
    assert np.linalg.norm(resid) <= 1e-6 * np.linalg.norm(h_type.T @ t_type)


def test_fit_t2_common_penalty_prunes_whole_neurons():
    ds = tiny_dataset()
    chip = build_chip(64, AnalogParams(), d=6, l=12)
    hidden, targets = collect_H(ds, chip, FrontendConfig.tdbdi(6, 1))
    w = fit_output_weights(hidden, targets, method="T2", target_sparsity=0.5)
    assert w.report["sparsity"] >= 0.5
    assert not w.beta[~w.support].any()
    again = fit_output_weights(hidden, targets, method="T2", target_sparsity=0.5)
    assert np.array_equal(w.beta, again.beta)


def _bits(w):
    return w.beta.tobytes(), w.support.tobytes(), list(w.report.items())


@pytest.mark.parametrize("policy", training.SAMPLE_POLICIES)
@pytest.mark.parametrize("ridge", [0.0, 3.0])
def test_t1_fit_that_may_overwrite_h_gives_the_shared_fits_bits(monkeypatch, policy, ridge):
    # a chunk of three rows, so the gather runs over many chunks
    monkeypatch.setattr(training, "_GATHER_BYTES", 3 * 10 * 8)
    ds = tiny_dataset(trials_per_class=3)
    chip = build_chip(65, AnalogParams(), d=6, l=10)
    hidden, targets = collect_H(ds, chip, FrontendConfig.tdbdi(6, 1), sample_policy=policy)
    rows = targets.type_rows
    assert rows.any() and (policy == "all") == rows.all()
    zero = HiddenMatrix(np.zeros_like(hidden.h), hidden.n_ticks)
    for h in (hidden, zero):
        shared = fit_output_weights(h, targets, ridge_lambda=ridge)
        own = HiddenMatrix(h.h.copy(), h.n_ticks)
        in_place = fit_output_weights(own, targets, ridge_lambda=ridge, overwrite_h=True)
        assert _bits(in_place) == _bits(shared)
        assert in_place.report.get("degenerate") is (True if h is zero else None)
        # the type rows now lead H, in order
        assert np.array_equal(own.h[: rows.sum()], h.h[rows])
    # T2 reads H once per block, so it never overwrites it
    own = HiddenMatrix(hidden.h.copy(), hidden.n_ticks)
    t2 = fit_output_weights(own, targets, "T2", target_sparsity=0.3, overwrite_h=True)
    assert np.array_equal(own.h, hidden.h)
    assert _bits(t2) == _bits(fit_output_weights(hidden, targets, "T2", target_sparsity=0.3))


@pytest.mark.parametrize("policy", training.SAMPLE_POLICIES)
@pytest.mark.parametrize("ridge", [0.0, 3.0])
def test_type_only_t1_fit_gives_the_full_fits_type_columns(policy, ridge):
    """A fit of the type block alone, also when it gathers the type rows in
    place, leaves the onset column zero.  At ridge 0 it solves the normal
    equations on the type rows, bit for bit, whose columns and residuals
    lie within cond(h.T h) eps of the full fit's; under ridge it has the
    full fit's type columns bit for bit.  T2 ignores ``type_only``."""
    ds = tiny_dataset(trials_per_class=3)
    chip = build_chip(65, AnalogParams(), d=6, l=10)
    hidden, targets = collect_H(ds, chip, FrontendConfig.tdbdi(6, 1), sample_policy=policy)
    m, rows = targets.m, targets.type_rows
    h, t = hidden.h[rows], type_targets(targets)
    w = np.linalg.eigvalsh(h.T @ h)
    assert w[0] > w[-1] * training.GRAM_CUTOFF  # the normal path runs
    tol = w[-1] / w[0] * np.finfo(float).eps
    full = fit_output_weights(hidden, targets, ridge_lambda=ridge)
    assert full.beta[:, m].any()
    for overwrite_h in (False, True):
        own = HiddenMatrix(hidden.h.copy(), hidden.n_ticks)
        typed = fit_output_weights(own, targets, ridge_lambda=ridge, overwrite_h=overwrite_h,
                                   type_only=True)
        assert typed.beta.shape == full.beta.shape
        assert not typed.beta[:, m].any()
        if ridge:
            assert typed.beta[:, :m].tobytes() == full.beta[:, :m].tobytes()
            assert typed.report["residuals"] == full.report["residuals"][:m]
        else:
            normal = np.linalg.solve(h.T @ h, h.T @ t)
            assert typed.beta[:, :m].tobytes() == normal.tobytes()
            assert np.abs(normal - full.beta[:, :m]).max() <= tol * np.abs(full.beta).max()
            residuals = np.array(full.report["residuals"][:m])
            assert np.all(np.abs(typed.report["residuals"] - residuals) <= tol * residuals)
        if overwrite_h:  # the type rows now lead H, in order
            assert np.array_equal(own.h[: rows.sum()], hidden.h[rows])
        else:
            assert np.array_equal(own.h, hidden.h)
    t2 = fit_output_weights(hidden, targets, "T2", target_sparsity=0.3, type_only=True)
    assert _bits(t2) == _bits(fit_output_weights(hidden, targets, "T2", target_sparsity=0.3))


def _counted_lstsq(monkeypatch) -> list:
    """The shapes of h that ``np.linalg.lstsq`` is called with from now on."""
    calls, lstsq = [], np.linalg.lstsq

    def counted(h, *args, **kwargs):
        calls.append(h.shape)
        return lstsq(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def test_type_only_t1_fit_on_two_identical_neurons_takes_lstsq(monkeypatch):
    """Two identical neuron columns make h.T h singular, so a type-only fit
    falls back to the full fit's minimum-norm solve and keeps its bits."""
    ds = tiny_dataset(trials_per_class=3)
    chip = build_chip(65, AnalogParams(), d=6, l=10)
    hidden, targets = collect_H(ds, chip, FrontendConfig.tdbdi(6, 1))
    hidden.h[:, 7] = hidden.h[:, 2]
    m = targets.m
    full = fit_output_weights(hidden, targets)
    calls = _counted_lstsq(monkeypatch)
    typed = fit_output_weights(hidden, targets, type_only=True)
    assert calls == [(targets.type_rows.sum(), 10)]
    assert typed.beta[:, :m].tobytes() == full.beta[:, :m].tobytes()
    assert typed.report["residuals"] == full.report["residuals"][:m]


def _fail_call(*args, **kwargs):
    raise AssertionError("lstsq called")


def test_a_well_conditioned_t1_block_solves_its_normal_equations(monkeypatch):
    rng = np.random.default_rng(52)
    h, t = rng.random((80, 12)), rng.random((80, 3))
    monkeypatch.setattr(np.linalg, "lstsq", _fail_call)
    w = fit_blocks([(h, t)], normal=True)
    assert w.beta.tobytes() == np.linalg.solve(h.T @ h, h.T @ t).tobytes()


@pytest.mark.parametrize("smallest, normal", [
    (training.GRAM_CUTOFF, False),  # the bound itself falls back
    (np.nextafter(training.GRAM_CUTOFF, 1.0), True),
    (np.nan, False),
    (-1.0, False),
])
def test_the_normal_equations_need_the_smallest_eigenvalue_strictly_above_the_bound(
        monkeypatch, smallest, normal):
    """The normal path runs when eigvalsh(h.T h) gives w[0] > w[-1] * GRAM_CUTOFF."""
    rng = np.random.default_rng(53)
    h, t = rng.random((40, 5)), rng.random((40, 2))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: np.array([smallest, 0.5, 1.0]))
    calls = _counted_lstsq(monkeypatch)
    beta = training._least_squares(h, t, normal=True)
    assert calls == ([] if normal else [h.shape])
    want = (np.linalg.solve(h.T @ h, h.T @ t) if normal
            else np.linalg.lstsq(h, t, rcond=training.SV_CUTOFF)[0])
    assert beta.tobytes() == want.tobytes()


@pytest.mark.parametrize("ridge", [0.0, 3.0])
def test_a_sweep_trainer_fits_t2_first_and_t1_type_rows_in_place(monkeypatch, ridge):
    """With both methods, T2 fits first and T1 last, so T1 may gather its
    type rows in place; the models still come back in ``methods`` order."""
    hidden, targets = search_problem(5, rows=30_000, l=64, m=3)
    fits = []

    def traced(hidden, *args, fit=cli.fit_output_weights, **kwargs):
        tracemalloc.start()
        try:
            return fit(hidden, *args, **kwargs)
        finally:
            fits.append((kwargs["method"], kwargs["overwrite_h"],
                         tracemalloc.get_traced_memory()[1] / hidden.h.nbytes))
            tracemalloc.stop()

    monkeypatch.setattr(cli, "fit_output_weights", traced)
    monkeypatch.setattr(cli, "collect_H", lambda *args, **kwargs: (hidden, targets))
    cfg = resolve_config(None, [f"train.ridge_lambda={ridge}", "train.target_sparsity=0.3"], None)
    chip = build_chip(1, AnalogParams(), d=4, l=64)
    models = cli._trainer(cfg, SpikeDataset([], 4, 3), FrontendConfig.tdbdi(4, 1),
                          ["T1", "T2"], type_only=True)(chip)
    assert [(method, overwrite) for method, overwrite, _ in fits] == [("T2", False), ("T1", True)]
    assert fits[1][2] < 0.5, fits
    assert [model.report["method"] for model in models] == ["T1", "T2"]
    assert models[0].beta[:, :3].any() and not models[0].beta[:, 3].any()


@pytest.mark.parametrize("ridge", [0.0, 3.0])
def test_a_single_t1_fit_in_train_copies_no_type_rows(monkeypatch, ridge):
    """The last fit of a ``_trainer`` may overwrite H, so a lone T1 fit
    gathers the type rows in place: its traced peak stays well below H's
    bytes, where a copy of the type rows would be most of them (lstsq's
    LAPACK buffers are not traced)."""
    hidden, targets = search_problem(5, rows=30_000, l=64, m=3)
    assert targets.type_rows.mean() > 0.8
    peaks = []

    def traced(hidden, *args, fit=cli.fit_output_weights, **kwargs):
        tracemalloc.start()
        try:
            return fit(hidden, *args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / hidden.h.nbytes)
            tracemalloc.stop()

    monkeypatch.setattr(cli, "fit_output_weights", traced)
    monkeypatch.setattr(cli, "collect_H", lambda *args, **kwargs: (hidden, targets))
    cfg = resolve_config(None, [f"train.ridge_lambda={ridge}"], None)
    chip = build_chip(1, AnalogParams(), d=4, l=64)
    [model] = cli._trainer(cfg, SpikeDataset([], 4, 3), FrontendConfig.tdbdi(4, 1), ["T1"])(chip)
    assert len(peaks) == 1 and peaks[0] < 0.5, peaks
    assert "train_accuracy" not in model.report  # only train keeps plateau rows to score on


def test_collect_H_holds_H_and_three_small_per_row_arrays():
    """Beyond H, each row holds its onset target, class label and type-row
    flag (17 bytes) and passing temporaries: no all-rows one-hot (here 64
    bytes a row) and no per-row trial or tick arrays."""
    ds = tiny_dataset(q=4, m=8, trials_per_class=10)
    chip = build_chip(66, AnalogParams(), d=4, l=16)
    tracemalloc.start()
    try:
        hidden, targets = collect_H(ds, chip, FrontendConfig.tdbdi(4, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = hidden.h.shape[0]
    assert rows == 8000 and targets.m == 8
    assert peak < hidden.h.nbytes + 32 * rows, (peak - hidden.h.nbytes) / rows


def test_hidden_matrix_rejects_a_negative_count_but_not_nan():
    h = np.ones((1000, 64))
    n_ticks = np.array([1000])
    tracemalloc.start()
    try:
        HiddenMatrix(h, n_ticks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * h.nbytes  # the check makes no H-sized mask
    h[2, 1] = -0.5
    with pytest.raises(TrainingError, match="cannot be negative"):
        HiddenMatrix(h, n_ticks)
    h[2, 1] = np.nan  # not flagged, as a comparison with NaN is false
    assert np.isnan(HiddenMatrix(h, n_ticks).h[2, 1])
    with pytest.raises(TrainingError, match=r"p = sum\(n_ticks\) >= 1"):
        HiddenMatrix(h, np.array([600, 300]))


def test_target_set_rejects_a_label_outside_its_classes():
    onset, rows = np.zeros(3), np.ones(3, bool)
    TargetSet(np.array([1, 3, 2]), 3, onset, rows)
    for bad in ([0, 1, 2], [1, 4, 2]):
        with pytest.raises(TrainingError, match="labels must lie in 1..3"):
            TargetSet(np.array(bad), 3, onset, rows)


# ------------------------------------------------- common-penalty search

def search_problem(seed, rows=70, l=14, m=3):
    """Nonnegative hidden matrix with one-hot type and trapezoid onset targets."""
    rng = np.random.default_rng(seed)
    h = rng.poisson(4.0, size=(rows, l)).astype(float)
    labels = rng.integers(1, m + 1, size=rows)
    tick = np.arange(rows) % 35
    membership = trapezoid((tick + 1) * 40.0, TrapezoidParams())
    type_rows = (membership == 0.0) | (membership == 1.0)
    hidden = HiddenMatrix(h, np.bincount(np.arange(rows) // 35))
    return hidden, TargetSet(labels, m, membership, type_rows)


@pytest.mark.parametrize("target", [0.0, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("refit", [False, True])
def test_search_equals_eager_oracle_fit_output_weights(target, refit):
    for seed in range(70, 74):
        hidden, targets = search_problem(seed)
        w = fit_output_weights(hidden, targets, method="T2", target_sparsity=target,
                               refit=refit)
        lam, beta = eager_fit_T2(hidden, targets, target, refit)
        assert w.report["l1_lambda"] == lam
        assert np.array_equal(w.beta, beta)


@pytest.mark.parametrize("target", [0.0, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("refit", [False, True])
def test_search_equals_eager_oracle_train_T2(target, refit):
    rng = np.random.default_rng(75)
    for _ in range(4):
        h = rng.normal(size=(40, 12))
        t = rng.normal(size=(40, 3))
        w = fit_blocks([(h, t)], "T2", target_sparsity=target, refit=refit)
        lam, beta = eager_block_T2(h, t, target, refit)
        assert w.report["l1_lambda"] == lam
        assert np.array_equal(w.beta, beta)


@pytest.mark.parametrize("frac", [1.2, 0.3, 0.05])
@pytest.mark.parametrize("refit", [False, True])
def test_fixed_penalty_on_two_blocks_equals_full_path_oracle(frac, refit):
    # every column's full path read at its end, then the two-block refit; at
    # 1.2 times its lam_max the onset column is zero and most type columns are not
    for seed in range(70, 74):
        hidden, targets = search_problem(seed)
        columns = output_columns(hidden, targets)
        lam = frac * lasso_lambda_max(*columns[-1])
        beta = np.stack([lasso_path(h, t, lam)[1][-1] for h, t in columns], axis=1)
        w = fit_output_weights(hidden, targets, method="T2", l1_lambda=lam, refit=refit)
        assert w.report["l1_lambda"] == lam
        assert np.array_equal(w.support, np.any(beta != 0.0, axis=1))
        assert np.array_equal(w.beta, two_block_refit(hidden, targets, beta) if refit else beta)


def test_search_with_a_column_below_the_global_lam_max():
    # column 1's path starts far below the grid's first points, and column 2
    # is all zero, so its path is the single breakpoint (0, 0)
    rng = np.random.default_rng(76)
    h = rng.normal(size=(40, 12))
    t = rng.normal(size=(40, 3))
    t[:, 1] *= 0.02
    t[:, 2] = 0.0
    lam_maxes = [lasso_lambda_max(h, t[:, k]) for k in range(3)]
    assert lam_maxes[1] < 0.1 * max(lam_maxes) and lam_maxes[2] == 0.0
    for target in [0.0, 0.3, 0.5, 0.9]:
        w = fit_blocks([(h, t)], "T2", target_sparsity=target)
        lam, beta = eager_block_T2(h, t, target)
        assert w.report["l1_lambda"] == lam
        assert np.array_equal(w.beta, beta)


def counting_events(monkeypatch, **kwargs):
    """Record, per homotopy the search starts, breakpoints read and whether it ended."""
    real = training._lasso_events
    log = []

    def counted(*args):
        entry = {"read": 0, "ended": False}
        log.append(entry)
        for event in real(*args, **kwargs):
            entry["read"] += 1
            yield event
        entry["ended"] = True

    monkeypatch.setattr(training, "_lasso_events", counted)
    return log


def output_columns(hidden, targets):
    """One (h, t) problem per output, as ``fit_output_weights`` poses them."""
    h_type, t_type = hidden.h[targets.type_rows], type_targets(targets)
    return [(h_type, t_type[:, k]) for k in range(t_type.shape[1])] + [
        (hidden.h, targets.t_onset)]


def full_paths(columns):
    lam_min = max(max(lasso_lambda_max(h, t) for h, t in columns) * 1e-6, 1e-12)
    return lam_min, [lasso_path(h, t, lam_min) for h, t in columns]


def test_search_stops_each_path_at_the_chosen_lambda(monkeypatch):
    hidden, targets = search_problem(77, rows=140, l=24)
    _, paths = full_paths(output_columns(hidden, targets))
    log = counting_events(monkeypatch)
    fit_output_weights(hidden, targets, method="T2", target_sparsity=0.3)
    assert len(log) == len(paths) == 4
    assert not all(entry["ended"] for entry in log)
    assert sum(entry["read"] for entry in log) < sum(len(lams) for lams, _ in paths)


def test_search_does_not_walk_a_path_below_the_chosen_lambda(monkeypatch):
    # A path that runs out of iterations only below the chosen lambda raised
    # ConvergenceError when every path was built in full; the lazy search
    # never computes that part and returns what the full paths give.
    hidden, targets = search_problem(78, rows=140, l=24)
    columns = output_columns(hidden, targets)
    lam_min, paths = full_paths(columns)
    lam, beta = eager_fit_T2(hidden, targets, 0.5)
    log = counting_events(monkeypatch)
    fit_output_weights(hidden, targets, method="T2", target_sparsity=0.5)
    max_iter = max(entry["read"] for entry in log) - 1  # events after lam_max
    longest = int(np.argmax([len(lams) for lams, _ in paths]))
    assert len(paths[longest][0]) - 1 > max_iter
    with pytest.raises(ConvergenceError):
        lasso_path(*columns[longest], lam_min, max_iter=max_iter)
    monkeypatch.undo()
    counting_events(monkeypatch, max_iter=max_iter)
    w = fit_output_weights(hidden, targets, method="T2", target_sparsity=0.5)
    assert w.report["l1_lambda"] == lam
    assert np.array_equal(w.beta, beta)


def test_walk_returns_last_breakpoint_once_its_path_has_ended():
    # Read below the end of a path, the walk gives the path's last breakpoint,
    # as lasso_interp does on the full path; above it, the interpolation.
    rng = np.random.default_rng(79)
    h = rng.normal(size=(30, 10))
    t = rng.normal(size=30)
    lam_max = lasso_lambda_max(h, t)
    lams, betas = lasso_path(h, t, lam_min=0.2 * lam_max)
    walk = training._PathWalk(h.T @ h, h.T @ t, 0.2 * lam_max)
    for lam in [1.5 * lam_max, lam_max, 0.7 * lam_max, 0.2 * lam_max, 0.1 * lam_max, 0.0]:
        assert np.array_equal(walk.at(lam), lasso_interp(lams, betas, lam))
    assert walk.ended
    assert np.array_equal(walk.at(0.0), betas[-1])
