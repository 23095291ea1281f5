"""Reference implementations for the training module.

``trapezoid_scalar`` is the per-tick onset membership that ``collect_H``
evaluates as one array expression.  ``lasso_path`` is the full homotopy path
of one output, every breakpoint down to ``lam_min``; ``fit_blocks`` reads
only as much of it as the penalty it needs.  ``eager_block_T2`` and
``eager_fit_T2`` are the target-sparsity searches that ``fit_blocks`` on one
block and ``fit_output_weights`` ran before the common-penalty search walked
each homotopy lazily: they build every column's full ``lasso_path`` first,
then read it on the 80-point grid with ``lasso_interp``.
``lasso_lambda_max`` and ``lasso_kkt_violation`` are checks on a lasso
solution, and ``type_targets`` the one-hot type targets of a ``TargetSet``.
They live here only as references the package must match exactly.
"""

import numpy as np

from mlcpsim import training
from mlcpsim.training import SV_CUTOFF, TrapezoidParams


def trapezoid_scalar(t_ms: float, params: TrapezoidParams) -> float:
    """Membership value in [0, 1] at time ``t_ms``."""
    p = params
    if t_ms <= p.t0_ms or t_ms >= p.t3_ms:
        return 0.0
    if p.t1_ms <= t_ms <= p.t2_ms:
        return 1.0
    if t_ms < p.t1_ms:
        return (t_ms - p.t0_ms) / (p.t1_ms - p.t0_ms)
    return (p.t3_ms - t_ms) / (p.t3_ms - p.t2_ms)


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
    lams, betas = zip(*training._lasso_events(h.T @ h, corr0, lam_min, max_iter))
    return np.array(lams), np.array(betas)


def lasso_lambda_max(h: np.ndarray, t: np.ndarray) -> float:
    """Smallest penalty that forces the lasso solution for target ``t`` to zero."""
    return float(np.max(np.abs(h.T @ t))) if h.size else 0.0


def lasso_interp(lams: np.ndarray, betas: np.ndarray, lam: float) -> np.ndarray:
    """Solution at any penalty on a computed path (piecewise linear in lam)."""
    if lam >= lams[0]:
        return np.zeros(betas.shape[1])
    if lam <= lams[-1]:
        return betas[-1].copy()
    k = int(np.searchsorted(-lams, -lam, side="right"))  # lams descending
    lo, hi = lams[k], lams[k - 1]
    frac = (hi - lam) / (hi - lo) if hi > lo else 1.0
    return betas[k - 1] + frac * (betas[k] - betas[k - 1])


def lasso_kkt_violation(h: np.ndarray, t: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """Worst violation of the lasso optimality conditions (0 at an exact optimum)."""
    grad = h.T @ (h @ beta - t)
    viol = 0.0
    for j in range(len(beta)):
        if beta[j] == 0.0:
            viol = max(viol, abs(grad[j]) - lam)
        else:
            viol = max(viol, abs(grad[j] + lam * np.sign(beta[j])))
    return viol


def type_targets(targets) -> np.ndarray:
    """One-hot rows of the type rows' class labels: what the type outputs fit."""
    return np.eye(targets.m)[targets.labels[targets.type_rows] - 1]


def eager_search(columns, target_sparsity):
    """(lam, beta) of the grid search over full paths, one (h, t) per output."""
    lam_max = max(lasso_lambda_max(h, t) for h, t in columns)
    lam_min = max(lam_max * 1e-6, 1e-12)
    paths = [lasso_path(h, t, lam_min) for h, t in columns]
    grid = np.geomspace(lam_max, lam_min, 80)
    lam, beta = grid[0], None
    for cand in grid:  # descending: stop at the smallest lam still sparse enough
        b = np.stack([lasso_interp(*path, cand) for path in paths], axis=1)
        pruned = float(np.mean(~np.any(b != 0.0, axis=1)))
        if pruned >= target_sparsity:
            lam, beta = cand, b
        else:
            break
    if beta is None:
        beta = np.stack([lasso_interp(*path, lam) for path in paths], axis=1)
    return lam, beta


def eager_block_T2(h, t, target_sparsity, refit=False):
    """(l1_lambda, beta) that ``fit_blocks([(h, t)], "T2", target_sparsity=...)`` must give."""
    h = np.asarray(h, dtype=np.float64)
    t = np.atleast_2d(np.asarray(t, dtype=np.float64).T).T
    lam, beta = eager_search([(h, t[:, k]) for k in range(t.shape[1])], target_sparsity)
    support = np.any(beta != 0.0, axis=1)
    if refit and support.any():
        beta = np.zeros_like(beta)
        beta[support], *_ = np.linalg.lstsq(h[:, support], t, rcond=SV_CUTOFF)
    return lam, beta


def eager_fit_T2(hidden, targets, target_sparsity, refit=False):
    """(l1_lambda, beta) that ``fit_output_weights(method="T2", ...)`` must give."""
    h_type, t_type = hidden.h[targets.type_rows], type_targets(targets)
    h_all, t_onset = hidden.h, targets.t_onset
    columns = [(h_type, t_type[:, k]) for k in range(t_type.shape[1])]
    lam, beta = eager_search(columns + [(h_all, t_onset)], target_sparsity)
    return float(lam), two_block_refit(hidden, targets, beta) if refit else beta


def two_block_refit(hidden, targets, beta):
    """``beta`` refit on its nonzero rows as ``fit_output_weights`` refits it:
    type columns on the type rows, the onset column on every row."""
    h_type, t_type = hidden.h[targets.type_rows], type_targets(targets)
    support = np.any(beta != 0.0, axis=1)
    if not support.any():
        return beta
    beta = np.zeros_like(beta)
    beta[support, :-1], *_ = np.linalg.lstsq(h_type[:, support], t_type, rcond=SV_CUTOFF)
    beta[support, -1], *_ = np.linalg.lstsq(hidden.h[:, support], targets.t_onset, rcond=SV_CUTOFF)
    return beta
