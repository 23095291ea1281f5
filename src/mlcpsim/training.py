"""Hidden-matrix collection and output-weight training.

Only the digital output weights are ever trained; the hidden layer is the
chip's fixed random fabric.  Training therefore runs the full simulated
signal chain (front end, DAC, mirrors, CCO counters, optionally noise and
normalization) to collect the hidden matrix H, then solves for beta.  One
trainer, ``fit_blocks``, fits (h, t) blocks that share the hidden neurons;
``fit_output_weights`` passes it the type block and the onset block.

* T1 - least squares: the minimum-norm solution via a rank-revealing
  decomposition (or ridge regression for ridge_lambda > 0).
* T2 - L1-sparsified: per-output lasso solved by least-angle homotopy at one
  penalty for every output (given, or searched for a target sparsity), with
  whole-neuron pruning (a hidden neuron is pruned only when its weight row
  is zero for every output) and an optional least-squares refit on the
  surviving neurons.

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
    h = hidden_layer(codes, chip, rng).astype(np.float64)
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


# ----------------------------------------------------------- lasso path

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


def _common_penalty_search(columns: list, target_sparsity: float) -> tuple[float, np.ndarray]:
    """Smallest grid penalty whose solution prunes ``target_sparsity`` of the neurons.

    ``columns`` holds one (Gram, correlations) pair per output.  The grid is
    80 log-spaced penalties from the largest lam_max down to lam_max * 1e-6,
    walked in descending order up to the first penalty that is no longer
    sparse enough; each column's path is computed only down to the penalty
    read last.  Returns that penalty and the (L, outputs) beta.
    """
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


# ------------------------------------------------------------ the trainer

def _least_squares(h: np.ndarray, t: np.ndarray, ridge_lambda: float = 0.0) -> np.ndarray:
    """(L, k) beta minimizing ||h beta - t||^2 + ridge_lambda ||beta||^2: the
    minimum-norm solution for ridge_lambda = 0 (singular values below
    ``SV_CUTOFF`` relative to the largest count as zero), else the solution
    of the regularized normal equations.  An all-zero h gives beta = 0.
    """
    if not h.any():
        return np.zeros((h.shape[1], t.shape[1]))
    if ridge_lambda == 0.0:
        return np.linalg.lstsq(h, t, rcond=SV_CUTOFF)[0]
    return np.linalg.solve(h.T @ h + ridge_lambda * np.eye(h.shape[1]), h.T @ t)


def fit_blocks(
    blocks: list,
    method: str = "T1",
    ridge_lambda: float = 0.0,
    l1_lambda: float | None = None,
    target_sparsity: float | None = None,
    refit: bool = False,
) -> OutputWeights:
    """Output weights for (h, t) blocks that share the hidden neurons.

    Each block pairs an (n, L) hidden matrix, L the same in every block,
    with (n,) or (n, k) targets; beta holds the blocks' columns in order.
    T1 is least squares per block (ridge for ridge_lambda > 0).  T2 reads
    every column's lasso path at one penalty: ``l1_lambda``, or the one the
    common-penalty search picks for ``target_sparsity`` (give exactly one).
    A neuron is pruned when its row is zero in every column, and ``refit``
    refits each block on the surviving neurons by least squares.  The
    report flags ``degenerate`` when every h is all zero (beta is then 0).
    """
    blocks = [(np.asarray(h, dtype=np.float64), np.atleast_2d(np.asarray(t, dtype=np.float64).T).T)
              for h, t in blocks]
    for h, t in blocks:
        if h.ndim != 2 or h.shape[0] != t.shape[0]:
            raise TrainingError(f"shape mismatch: H {h.shape} vs T {t.shape}")
    widths = sorted({h.shape[1] for h, _ in blocks})
    if len(widths) != 1:
        raise TrainingError(f"blocks must share one hidden width L, got {widths}")

    if method == "T1":
        if not ridge_lambda >= 0:  # NaN too
            raise TrainingError("ridge_lambda must be >= 0")
        beta = np.hstack([_least_squares(h, t, ridge_lambda) for h, t in blocks])
        report = {"method": "T1", "ridge_lambda": ridge_lambda}
    elif method == "T2":
        if (l1_lambda is None) == (target_sparsity is None):
            raise TrainingError("T2 takes exactly one of l1_lambda or target_sparsity")
        if l1_lambda is not None and not l1_lambda >= 0:
            raise TrainingError("l1_lambda must be >= 0")
        if target_sparsity is not None and not 0.0 <= target_sparsity < 1.0:
            raise TrainingError("target_sparsity must be in [0, 1)")
        columns = []  # one (Gram, correlations) pair per output
        for h, t in blocks:
            gram = h.T @ h
            columns += [(gram, h.T @ t[:, k]) for k in range(t.shape[1])]
        if target_sparsity is None:
            lam = float(l1_lambda)
            beta = np.stack([_PathWalk(gram, corr, lam).at(lam) for gram, corr in columns], axis=1)
        else:
            lam, beta = _common_penalty_search(columns, target_sparsity)
        report = {"method": "T2", "l1_lambda": float(lam), "refit": bool(refit)}
    else:
        raise TrainingError(f"unknown training method {method!r}")
    support = np.any(beta != 0.0, axis=1)

    splits = np.cumsum([t.shape[1] for _, t in blocks])[:-1]  # np.split gives views
    if method == "T2":
        report.update(pruned=int(np.sum(~support)), sparsity=float(np.mean(~support)))
        if refit and support.any():
            beta = np.zeros_like(beta)
            for (h, t), b in zip(blocks, np.split(beta, splits, axis=1)):
                b[support] = _least_squares(h[:, support], t)
    report["residuals"] = np.concatenate([
        np.linalg.norm(h @ b - t, axis=0)
        for (h, t), b in zip(blocks, np.split(beta, splits, axis=1))
    ]).tolist()
    if not any(h.any() for h, _ in blocks):
        report["degenerate"] = True
    return OutputWeights(beta, support, report)


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

    Two blocks share the neurons: the type columns on the rows the sample
    policy selected, and the onset column on every row.  Under T2 one
    penalty spans both blocks, so whole-neuron pruning stays meaningful.
    """
    h_type = hidden.h[targets.type_rows]
    if h_type.shape[0] == 0:
        raise TrainingError("sample policy selected no rows for the type outputs")
    blocks = [(h_type, targets.t_type[targets.type_rows]), (hidden.h, targets.t_onset)]
    return fit_blocks(blocks, method, ridge_lambda, l1_lambda, target_sparsity, refit)
