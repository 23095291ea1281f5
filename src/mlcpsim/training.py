"""Hidden-matrix collection and output-weight training.

Only the digital output weights are ever trained; the hidden layer is the
chip's fixed random fabric.  Training therefore runs the full simulated
signal chain (front end, DAC, mirrors, CCO counters, optionally noise and
normalization) to collect the hidden matrix H, then solves for beta:

* T1 - least squares: the minimum-norm solution via a rank-revealing
  decomposition (or ridge regression for ridge_lambda > 0).
* T2 - L1-sparsified: per-output lasso solved by least-angle homotopy on
  the regularization path, with whole-neuron pruning (a hidden neuron is
  pruned only when its weight row is zero for every output) and an optional
  least-squares refit on the surviving neurons.

Targets: one-hot class rows for the M type outputs, and a trapezoid
membership (0 before movement, ramp up, 1 around onset, ramp down) for the
onset output.  By default the type outputs train only on ticks where the
membership is exactly 0 or 1, while the onset output trains on every tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analog import ChipInstance, hidden_layer, normalize_rows
from .frontend import FrontendConfig, run_trial, tick_count
from .spikeio import SpikeDataset

SV_CUTOFF = 1e-10  # relative singular-value cutoff for least squares

SAMPLE_POLICIES = ("unambiguous", "plateau", "all")


class TrainingError(Exception):
    """Raised when training cannot proceed (bad shapes, bad hyperparameters)."""


class ConvergenceError(TrainingError):
    """An iterative solver ran out of iterations before reaching its target."""


@dataclass
class TrapezoidParams:
    """Onset-membership trapezoid, in ms from trial start.

    0 before t0, linear rise to 1 at t1, flat to t2, linear fall to 0 at t3.
    Defaults bracket a 1 s movement onset.
    """

    t0_ms: float = 800.0
    t1_ms: float = 900.0
    t2_ms: float = 1100.0
    t3_ms: float = 1200.0

    def __post_init__(self):
        if not (self.t0_ms <= self.t1_ms <= self.t2_ms <= self.t3_ms):
            raise ValueError("trapezoid times must satisfy t0 <= t1 <= t2 <= t3")


def trapezoid(t_ms, params: TrapezoidParams) -> np.ndarray:
    """Membership values in [0, 1] at the times ``t_ms`` (array-like).

    A ramp is evaluated only where it applies, so a degenerate ramp
    (t0 == t1 or t2 == t3) never divides by zero.
    """
    p = params
    t = np.asarray(t_ms, dtype=np.float64)
    out = np.zeros(t.shape)
    inside = (t > p.t0_ms) & (t < p.t3_ms)
    plateau = inside & (t >= p.t1_ms) & (t <= p.t2_ms)
    rise = inside & (t < p.t1_ms)
    fall = inside & ~plateau & ~rise
    out[plateau] = 1.0
    out[rise] = (t[rise] - p.t0_ms) / (p.t1_ms - p.t0_ms)
    out[fall] = (p.t3_ms - t[fall]) / (p.t3_ms - p.t2_ms)
    return out


@dataclass
class HiddenMatrix:
    """Hidden responses, one row per sampled tick: h (p, L) plus row provenance."""

    h: np.ndarray
    trial_index: np.ndarray  # dataset trial index per row
    tick: np.ndarray  # tick within its trial per row

    def __post_init__(self):
        if self.h.ndim != 2 or self.h.shape[0] < 1:
            raise TrainingError("hidden matrix must be (p, L) with p >= 1")
        if (self.h < 0).any():
            raise TrainingError("hidden responses are counts and cannot be negative")


@dataclass
class TargetSet:
    """Training targets aligned with the hidden-matrix rows.

    ``t_type`` holds one-hot class rows, ``t_onset`` the trapezoid
    membership, and ``type_rows`` marks the rows the type outputs train on
    (the onset output always uses every row).
    """

    t_type: np.ndarray
    t_onset: np.ndarray
    type_rows: np.ndarray

    def __post_init__(self):
        if not np.allclose(self.t_type.sum(axis=1), 1.0):
            raise TrainingError("each type-target row must be one-hot")
        if ((self.t_onset < 0) | (self.t_onset > 1)).any():
            raise TrainingError("onset targets must lie in [0, 1]")


@dataclass
class OutputWeights:
    """Trained output weights: beta (L, M+1), columns 1..M type, last onset.

    ``support[i]`` is True when neuron i carries any nonzero weight; under T2
    the False rows are the pruned neurons.
    """

    beta: np.ndarray
    support: np.ndarray
    report: dict = field(default_factory=dict)

    @property
    def pruned_count(self) -> int:
        return int(np.sum(~self.support))


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), np.asarray(labels) - 1] = 1.0
    return out


def hidden_stream(codes: np.ndarray, chip: ChipInstance, normalize: bool,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """(T, L) hidden responses to one trial's (T, D) front-end codes, row
    normalized if asked; noise is on when ``rng`` is given."""
    h = hidden_layer(codes, chip, noise_on=rng is not None, rng=rng).astype(np.float64)
    return normalize_rows(h, codes) if normalize else h


def hidden_streams(codes, chip: ChipInstance, normalize: bool, noise_on: bool = False,
                   noise_seed: int = 0):
    """``hidden_stream`` of each trial's codes in turn; with noise on, trial
    ``i`` draws from ``default_rng([noise_seed, i])``, whatever else runs."""
    for idx, trial_codes in enumerate(codes):
        yield hidden_stream(trial_codes, chip, normalize,
                            np.random.default_rng([noise_seed, idx]) if noise_on else None)


def collect_H(
    dataset: SpikeDataset,
    chip: ChipInstance,
    frontend_cfg: FrontendConfig,
    noise_on: bool = False,
    sample_policy: str = "unambiguous",
    trap: TrapezoidParams | None = None,
    normalize: bool = True,
    noise_seed: int = 0,
    codes: list | None = None,
) -> tuple[HiddenMatrix, TargetSet]:
    """Run the simulated chain over a dataset and assemble (H, targets).

    One row per tick per trial; with noise on, each trial draws from its own
    counter-derived stream ``default_rng([noise_seed, trial_index])`` so
    results do not depend on evaluation order.  Row timestamps are the end
    of the tick's most recent sub-window.  ``codes``, when given, are the
    trials' front-end codes computed beforehand with ``frontend_cfg``.

    ``sample_policy`` selects the rows the type outputs train on:
    "unambiguous" (membership exactly 0 or 1), "plateau" (membership 1),
    or "all".
    """
    if sample_policy not in SAMPLE_POLICIES:
        raise TrainingError(f"unknown sample_policy {sample_policy!r}")
    if not dataset.trials:
        raise TrainingError("dataset has no trials")
    if frontend_cfg.n_external != dataset.channel_count:
        raise TrainingError(
            f"front end expects {frontend_cfg.n_external} channels, "
            f"dataset has {dataset.channel_count}"
        )
    if frontend_cfg.rows != chip.d:
        raise TrainingError(
            f"front end produces {frontend_cfg.rows} rows, chip takes {chip.d}"
        )
    trap = trap or TrapezoidParams()

    if codes is None:
        codes = (run_trial(frontend_cfg, trial) for trial in dataset.trials)
    n_ticks = np.array([tick_count(frontend_cfg, trial) for trial in dataset.trials])
    starts = np.cumsum(n_ticks) - n_ticks
    h_all = np.empty((int(n_ticks.sum()), chip.l))
    for h, start, n in zip(hidden_streams(codes, chip, normalize, noise_on, noise_seed),
                           starts, n_ticks):
        h_all[start : start + n] = h
    trial_index = np.repeat(np.arange(len(n_ticks)), n_ticks)
    tick = np.arange(len(trial_index)) - np.repeat(starts, n_ticks)
    membership = trapezoid((tick + 1) * frontend_cfg.t_s_ms, trap)
    labels = np.array([trial.label for trial in dataset.trials])[trial_index]
    if sample_policy == "unambiguous":
        type_rows = (membership == 0.0) | (membership == 1.0)
    elif sample_policy == "plateau":
        type_rows = membership == 1.0
    else:
        type_rows = np.ones(len(membership), dtype=bool)

    hidden = HiddenMatrix(h_all, trial_index, tick)
    targets = TargetSet(one_hot(labels, dataset.class_count), membership, type_rows)
    return hidden, targets


# ------------------------------------------------------------------ T1

def train_T1(h: np.ndarray, t: np.ndarray, ridge_lambda: float = 0.0) -> OutputWeights:
    """Least-squares output weights.

    ridge_lambda = 0 gives the minimum-L2-norm least-squares solution
    (singular values below ``SV_CUTOFF`` relative to the largest are
    treated as zero); ridge_lambda > 0 solves the regularized normal
    equations.  An all-zero H is reported, not fatal: beta = 0.
    """
    h = np.asarray(h, dtype=np.float64)
    t = np.atleast_2d(np.asarray(t, dtype=np.float64).T).T
    if h.ndim != 2 or h.shape[0] != t.shape[0]:
        raise TrainingError(f"shape mismatch: H {h.shape} vs T {t.shape}")
    if ridge_lambda < 0:
        raise TrainingError("ridge_lambda must be >= 0")

    report = {"method": "T1", "ridge_lambda": ridge_lambda}
    if not h.any():
        beta = np.zeros((h.shape[1], t.shape[1]))
        report["degenerate"] = True
    elif ridge_lambda == 0.0:
        beta, *_ = np.linalg.lstsq(h, t, rcond=SV_CUTOFF)
    else:
        gram = h.T @ h + ridge_lambda * np.eye(h.shape[1])
        beta = np.linalg.solve(gram, h.T @ t)
    report["residuals"] = np.linalg.norm(h @ beta - t, axis=0).tolist()
    support = np.any(beta != 0.0, axis=1)
    return OutputWeights(beta, support, report)


# ------------------------------------------------------------------ T2

def _lasso_events(
    gram: np.ndarray, corr0: np.ndarray, lam_min: float, max_iter: int | None = None
):
    """Breakpoints ``(lam, beta)`` of the homotopy path, made on demand.

    Runs on the Gram matrix h.T h and the correlations h.T t alone, so path
    cost does not grow with the number of training rows.  Yields the
    all-zero solution at lam_max first, then one breakpoint per event in
    descending lam, and last the solution at ``lam_min``; raises
    ``ConvergenceError`` if ``max_iter`` events do not reach ``lam_min``.
    """
    n = len(corr0)
    if max_iter is None:
        max_iter = 20 * n + 50
    beta = np.zeros(n)
    lam = float(np.max(np.abs(corr0))) if n else 0.0
    yield lam, beta.copy()
    if lam <= lam_min:
        return

    active: list[int] = []
    is_active = np.zeros(n, dtype=bool)
    signs = np.zeros(n)
    # the most correlated column enters exactly at lam_max
    first = int(np.argmax(np.abs(corr0)))
    signs[first] = 1.0 if corr0[first] > 0 else -1.0
    is_active[first] = True
    active.append(first)

    for _ in range(max_iter):
        if active:
            g_cols = gram[:, active]
            g_a = g_cols[active]
            s_a = signs[active]
            try:
                direction = np.linalg.solve(g_a, s_a)
            except np.linalg.LinAlgError:
                direction, *_ = np.linalg.lstsq(g_a, s_a, rcond=None)
            # inactive correlations are affine in lam: c_j = a_j + lam * b_j
            b_vec = g_cols @ direction
            a_vec = corr0 - g_cols @ beta[active] - lam * b_vec
        else:
            direction = np.zeros(0)
            b_vec = np.zeros(n)
            a_vec = corr0.copy()

        ceiling = lam * (1.0 - 1e-12)
        # next event: an inactive column joining ...
        with np.errstate(divide="ignore", invalid="ignore"):
            cand_pos = np.where(b_vec != 1.0, a_vec / (1.0 - b_vec), -np.inf)
            cand_neg = np.where(b_vec != -1.0, -a_vec / (1.0 + b_vec), -np.inf)
        cand_pos[is_active] = -np.inf
        cand_neg[is_active] = -np.inf
        cand_pos[~(cand_pos < ceiling)] = -np.inf
        cand_neg[~(cand_neg < ceiling)] = -np.inf
        joins = np.maximum(cand_pos, cand_neg)
        join_idx = int(np.argmax(joins)) if n else -1
        lam_join = float(joins[join_idx]) if n else -np.inf
        # ... or an active coefficient crossing zero
        lam_leave, leave_idx = -np.inf, -1
        for pos, i in enumerate(active):
            if direction[pos] != 0.0:
                cand = lam + beta[i] / direction[pos]
                if lam_leave < cand < ceiling:
                    lam_leave, leave_idx = cand, i

        lam_next = max(lam_join, lam_leave, lam_min)
        if active:
            beta[active] += (lam - lam_next) * direction
        lam = lam_next
        if lam_next == lam_min:
            yield lam, beta.copy()
            return
        if lam_leave >= lam_join:
            beta[leave_idx] = 0.0
            signs[leave_idx] = 0.0
            is_active[leave_idx] = False
            active.remove(leave_idx)
        else:
            c_at = a_vec[join_idx] + lam * b_vec[join_idx]
            signs[join_idx] = 1.0 if c_at > 0 else -1.0
            is_active[join_idx] = True
            active.append(join_idx)
        yield lam, beta.copy()

    raise ConvergenceError(
        f"lasso homotopy did not reach lam={lam_min:g} in {max_iter} events "
        f"(stalled at lam={lam:g} with {len(active)} active)"
    )


def lasso_path(
    h: np.ndarray, t: np.ndarray, lam_min: float, max_iter: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Homotopy path for min 1/2 ||h b - t||^2 + lam ||b||_1.

    Returns descending breakpoints ``lams`` and matching coefficient rows
    ``betas``; the solution is piecewise linear in lam between breakpoints,
    starting from all-zero at lam_max and ending at ``lam_min``.  Follows
    the least-angle recursion: between events the active coefficients move
    linearly in lam; an event either activates the most correlated inactive
    column or removes an active coefficient crossing zero.
    """
    h = np.asarray(h, dtype=np.float64)
    corr0 = h.T @ np.asarray(t, dtype=np.float64)
    lams, betas = zip(*_lasso_events(h.T @ h, corr0, lam_min, max_iter))
    return np.array(lams), np.array(betas)


def train_T2(
    h: np.ndarray,
    t: np.ndarray,
    l1_lambda: float | None = None,
    target_sparsity: float | None = None,
    refit: bool = False,
) -> OutputWeights:
    """L1-sparsified output weights with whole-neuron pruning.

    Exactly one of ``l1_lambda`` (shared penalty for every output column) or
    ``target_sparsity`` (desired pruned-neuron fraction; the smallest common
    penalty reaching it on the paths is used) must be given.  A neuron is
    pruned only when its row is zero across all columns.  With ``refit``,
    the surviving neurons get an unpenalized least-squares refit.
    """
    h = np.asarray(h, dtype=np.float64)
    t = np.atleast_2d(np.asarray(t, dtype=np.float64).T).T
    if h.ndim != 2 or h.shape[0] != t.shape[0]:
        raise TrainingError(f"shape mismatch: H {h.shape} vs T {t.shape}")
    if (l1_lambda is None) == (target_sparsity is None):
        raise TrainingError("give exactly one of l1_lambda or target_sparsity")

    n_cols = t.shape[1]
    if l1_lambda is not None:
        lam = float(l1_lambda)
        beta = np.stack([lasso_path(h, t[:, k], lam)[1][-1] for k in range(n_cols)], axis=1)
    else:
        lam, beta = _common_penalty_search([(h, t)], target_sparsity)

    support = np.any(beta != 0.0, axis=1)
    report = {
        "method": "T2",
        "l1_lambda": lam,
        "pruned": int(np.sum(~support)),
        "sparsity": float(np.mean(~support)),
        "refit": bool(refit),
    }
    if not h.any():
        report["degenerate"] = True
    if refit and support.any():
        refit_beta = np.zeros_like(beta)
        sub, *_ = np.linalg.lstsq(h[:, support], t, rcond=SV_CUTOFF)
        refit_beta[support] = sub
        beta = refit_beta
    report["residuals"] = np.linalg.norm(h @ beta - t, axis=0).tolist()
    return OutputWeights(beta, support, report)


class _PathWalk:
    """One column's homotopy, computed only as far down as it is read.

    ``at`` must be called with non-increasing penalties.  It returns the
    solution at that penalty, interpolated linearly between the breakpoints
    that bracket it, which are always the last two the walk has made; below
    the end of the path it returns the last breakpoint.
    """

    def __init__(self, gram: np.ndarray, corr0: np.ndarray, lam_min: float):
        self.events = _lasso_events(gram, corr0, lam_min)
        self.lam0, self.beta0 = self.hi = self.lo = next(self.events)
        self.ended = False

    def at(self, lam: float) -> np.ndarray:
        while not self.ended and self.lo[0] >= lam:
            step = next(self.events, None)
            self.ended = step is None
            if step is not None:
                self.hi, self.lo = self.lo, step
        (hi, b_hi), (lo, b_lo) = self.hi, self.lo
        if lam >= self.lam0:
            return self.beta0
        if lam <= lo:
            return b_lo
        frac = (hi - lam) / (hi - lo)  # hi >= lam > lo
        return b_hi + frac * (b_lo - b_hi)


def _common_penalty_search(blocks: list, target_sparsity: float) -> tuple[float, np.ndarray]:
    """Smallest grid penalty whose solution prunes ``target_sparsity`` of the neurons.

    ``blocks`` holds (h, t) pairs, t of shape (rows, k); every column of t
    is one output, and the columns of a block share h and its Gram matrix.
    The grid is 80 log-spaced penalties from the largest lam_max down to
    lam_max * 1e-6, walked in descending order up to the first penalty that
    is no longer sparse enough; each column's path is computed only down to
    the penalty read last.  Returns that penalty and the (L, outputs) beta.
    """
    if not (0.0 <= target_sparsity < 1.0):
        raise TrainingError("target_sparsity must be in [0, 1)")
    columns = []
    for h, t in blocks:
        h, t = np.asarray(h, dtype=np.float64), np.asarray(t, dtype=np.float64)
        gram = h.T @ h
        columns += [(gram, h.T @ t[:, k]) for k in range(t.shape[1])]
    lam_max = max(float(np.max(np.abs(corr))) if len(corr) else 0.0 for _, corr in columns)
    if lam_max == 0.0:  # no column correlates with its target: beta = 0 at every penalty
        return 0.0, np.zeros((len(columns[0][1]), len(columns)))
    lam_min = max(lam_max * 1e-6, 1e-12)
    walks = [_PathWalk(gram, corr, lam_min) for gram, corr in columns]
    # at grid[0] = lam_max every column is zero, so the first point always passes
    for cand in np.geomspace(lam_max, lam_min, 80):
        b = np.stack([walk.at(cand) for walk in walks], axis=1)
        if np.mean(~np.any(b != 0.0, axis=1)) < target_sparsity:
            break
        lam, beta = cand, b
    return lam, beta


# ------------------------------------------------------------ full assembly

def fit_output_weights(
    hidden: HiddenMatrix,
    targets: TargetSet,
    method: str = "T1",
    ridge_lambda: float = 0.0,
    l1_lambda: float | None = None,
    target_sparsity: float | None = None,
    refit: bool = False,
) -> OutputWeights:
    """Train all M+1 output columns against a collected hidden matrix.

    Type columns use the rows selected by the sample policy; the onset
    column uses every row.  Under T2 a common penalty spans both blocks so
    whole-neuron pruning stays meaningful.
    """
    h_type = hidden.h[targets.type_rows]
    t_type = targets.t_type[targets.type_rows]
    h_all, t_onset = hidden.h, targets.t_onset
    if h_type.shape[0] == 0:
        raise TrainingError("sample policy selected no rows for the type outputs")

    if method == "T1":
        w_type = train_T1(h_type, t_type, ridge_lambda)
        w_onset = train_T1(h_all, t_onset, ridge_lambda)
        beta = np.hstack([w_type.beta, w_onset.beta])
        report = {
            "method": "T1",
            "ridge_lambda": ridge_lambda,
            "residuals": w_type.report["residuals"] + w_onset.report["residuals"],
        }
        if not h_all.any():
            report["degenerate"] = True
        support = np.any(beta != 0.0, axis=1)
        return OutputWeights(beta, support, report)

    if method != "T2":
        raise TrainingError(f"unknown training method {method!r}")

    if l1_lambda is not None:
        w_type = train_T2(h_type, t_type, l1_lambda=l1_lambda)
        w_onset = train_T2(h_all, t_onset, l1_lambda=l1_lambda)
        lam = float(l1_lambda)
        beta = np.hstack([w_type.beta, w_onset.beta])
    else:
        if target_sparsity is None:
            raise TrainingError("T2 needs l1_lambda or target_sparsity")
        blocks = [(h_type, t_type), (h_all, t_onset[:, None])]
        lam, beta = _common_penalty_search(blocks, target_sparsity)

    support = np.any(beta != 0.0, axis=1)
    if refit and support.any():
        refit_beta = np.zeros_like(beta)
        sub_type, *_ = np.linalg.lstsq(h_type[:, support], t_type, rcond=SV_CUTOFF)
        sub_onset, *_ = np.linalg.lstsq(h_all[:, support], t_onset, rcond=SV_CUTOFF)
        refit_beta[support, : t_type.shape[1]] = sub_type
        refit_beta[support, -1] = sub_onset
        beta = refit_beta
    resid_type = np.linalg.norm(h_type @ beta[:, :-1] - t_type, axis=0)
    resid_onset = np.linalg.norm(h_all @ beta[:, -1] - t_onset)
    report = {
        "method": "T2",
        "l1_lambda": float(lam),
        "pruned": int(np.sum(~support)),
        "sparsity": float(np.mean(~support)),
        "refit": bool(refit),
        "residuals": resid_type.tolist() + [float(resid_onset)],
    }
    if not h_all.any():
        report["degenerate"] = True
    return OutputWeights(beta, support, report)
