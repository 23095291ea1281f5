"""Hidden-matrix collection and output-weight training.

Only the digital output weights are ever trained; the hidden layer is the
chip's fixed random fabric.  Training therefore runs the full simulated
signal chain (front end, DAC, mirrors, CCO counters, optionally noise and
normalization) to collect the hidden matrix H, then solves for beta.  One
trainer, ``fit_blocks``, fits (h, t) blocks that share the hidden neurons;
``fit_output_weights`` passes it the type block and the onset block.  T1
fits the onset block first, so a caller that owns H may let the type rows
be gathered to the front of H in place rather than copied; a lone T1 fit
then peaks at about twice H's bytes (H and LAPACK's copy), or at H's bytes
for a caller that reads only the type columns: T1 then fits the type block
alone, on its Gram matrix while cond(h.T h) < 1 / ``GRAM_CUTOFF``.

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

Runtime noise follows one contract, in training as in decoding: trial i of
a dataset draws from ``trial_rng(noise_seed, i)`` alone, for all T of its
ticks at once whichever ticks are kept, in ``analog.draw_noise``'s order:
the (T, L) mirror factors, then the (T, L) counter-jitter factors (none
when ``jitter_rel`` is 0), each row by row in tick order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analog import ChipInstance, draw_noise, hidden_layer, normalize_rows
from .fields import FieldError, bounds, check_fields, check_values
from .frontend import FrontendConfig, run_trial, tick_count
from .spikeio import Dataset

SV_CUTOFF = 1e-10  # relative singular-value cutoff for least squares
GRAM_CUTOFF = 1e-10  # smallest eigenvalue of h.T h, relative, that the normal equations take
_GATHER_BYTES = 1 << 20  # the largest copy ``_gather_rows`` makes
#: Cells, per row D codes plus L counts, that one hidden-layer pass of
#: ``hidden_rows`` covers: whole trials at a time (or one longer trial), so
#: the pass's temporaries stay small whatever the dataset.
_PASS_CELLS = 1 << 15

SAMPLE_POLICIES = ("unambiguous", "plateau", "all")
METHODS = ("T1", "T2")


@dataclass
class TrainSettings:
    """The ``train.*`` keys; a penalty below 0 is unset, as in ``fit_blocks``."""

    method: str = bounds("T1", choices=METHODS)
    ridge_lambda: float = bounds(0.0, ge=0.0)
    l1_lambda: float = -1.0
    target_sparsity: float = bounds(-1.0, lt=1.0)
    refit: bool = False
    sample_policy: str = bounds("unambiguous", choices=SAMPLE_POLICIES)
    noise_on: bool = False
    noise_seed: int = bounds(0, ge=0)


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
    t1_ms: float = bounds(900.0, ge_field="t0_ms")
    t2_ms: float = bounds(1100.0, ge_field="t1_ms")
    t3_ms: float = bounds(1200.0, ge_field="t2_ms")

    def __post_init__(self):
        check_fields(self)

    def on_plateau(self, t_ms) -> np.ndarray:
        """Whether each time ``t_ms`` lies on the plateau [t1, t2]: the
        ticks the type vote reads, in training as in decoding."""
        t = np.asarray(t_ms)
        return (t >= self.t1_ms) & (t <= self.t2_ms)


def trapezoid(t_ms, params: TrapezoidParams) -> np.ndarray:
    """Membership values in [0, 1] at the times ``t_ms`` (array-like).

    A ramp is evaluated only where it applies, so a degenerate ramp
    (t0 == t1 or t2 == t3) never divides by zero.
    """
    p = params
    t = np.asarray(t_ms, dtype=np.float64)
    out = np.zeros(t.shape)
    inside = (t > p.t0_ms) & (t < p.t3_ms)
    plateau = inside & p.on_plateau(t)
    rise = inside & (t < p.t1_ms)
    fall = inside & ~plateau & ~rise
    out[plateau] = 1.0
    out[rise] = (t[rise] - p.t0_ms) / (p.t1_ms - p.t0_ms)
    out[fall] = (p.t3_ms - t[fall]) / (p.t3_ms - p.t2_ms)
    return out


@dataclass
class HiddenMatrix:
    """Hidden responses h (p, L): every trial's ticks in trial order,
    ``n_ticks[i]`` rows for trial i."""

    h: np.ndarray
    n_ticks: np.ndarray

    def __post_init__(self):
        if self.h.ndim != 2 or not 1 <= self.h.shape[0] == np.sum(self.n_ticks):
            raise TrainingError("hidden matrix must be (p, L) with p = sum(n_ticks) >= 1")
        if self.h.min(initial=0.0) < 0:  # a reduction: no H-sized mask; NaN is not flagged
            raise TrainingError("hidden responses are counts and cannot be negative")


@dataclass
class TargetSet:
    """Training targets aligned with the hidden-matrix rows: each row's
    class ``labels`` (1..m), whose one-hot rows the type outputs fit on the
    rows ``type_rows`` marks, and the trapezoid membership ``t_onset`` the
    onset output fits on every row."""

    labels: np.ndarray
    m: int
    t_onset: np.ndarray
    type_rows: np.ndarray

    def __post_init__(self):
        if not 1 <= self.labels.min(initial=1) <= self.labels.max(initial=1) <= self.m:
            raise TrainingError(f"class labels must lie in 1..{self.m}")
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


def hidden_stream(codes: np.ndarray, chip: ChipInstance, normalize: bool,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """(T, L) hidden responses to one trial's (T, D) front-end codes, row
    normalized if asked; noise is on when ``rng`` is given."""
    h = hidden_layer(codes, chip, None if rng is None else draw_noise(chip, rng, len(codes)))
    return normalize_rows(h, codes) if normalize else h


def trial_rng(noise_seed: int | None, index: int) -> np.random.Generator | None:
    """The noise stream of the trial at ``index``, whatever else runs; None
    (noise off) when ``noise_seed`` is None."""
    return None if noise_seed is None else np.random.default_rng([noise_seed, index])


def hidden_rows(codes, n_ticks: np.ndarray, chip: ChipInstance, normalize: bool,
                noise_seed: int | None = None, ticks: tuple | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """The ``hidden_stream`` rows of trials, in trial order, written into
    ``out`` (a new array when None).

    ``codes`` yields each trial's front-end codes: all ``n_ticks[i]`` ticks
    of trial i, or with ``ticks``, ``(mask, counts)`` over tick numbers as
    ``decoder.plateau_ticks`` gives, only the ``counts[i]`` ticks the mask
    marks.  Trial i draws noise for all of its ticks from
    ``trial_rng(noise_seed, i)`` (None: noise off), so a row holds the noise
    it has in the trial's stream.  The rows are made whole trials at a time,
    at most ``_PASS_CELLS`` cells (or one trial) per ``hidden_layer`` pass.
    BLAS may round a mirror sum in its last bit differently with the number
    of rows in the product; the counter's floor removes that difference
    unless the sum lies within that bit of a count boundary.
    """
    n_ticks = np.asarray(n_ticks)
    ticks, rows = (None, n_ticks) if ticks is None else ticks
    if out is None:
        out = np.empty((int(rows.sum()), chip.l))
    codes, ends, per_pass = iter(codes), np.cumsum(rows), _PASS_CELLS // (chip.d + chip.l)
    lo = start = 0  # the first trial of a pass, and its first row
    while lo < len(rows):  # trials lo..hi-1 in one pass
        hi = max(lo + 1, int(np.searchsorted(ends, start + per_pass, side="right")))
        x = np.concatenate([next(codes) for _ in range(lo, hi)])
        noise = None
        if noise_seed is not None:
            draws = [draw_noise(chip, trial_rng(noise_seed, i), n_ticks[i]) for i in range(lo, hi)]
            if ticks is not None:  # each trial's marked ticks
                draws = [[None if f is None else f[ticks[:len(f)]] for f in pair] for pair in draws]
            noise = tuple(None if parts[0] is None else np.concatenate(parts)
                          for parts in zip(*draws))
        h = hidden_layer(x, chip, noise, out=out[start : ends[hi - 1]])
        if normalize:
            normalize_rows(h, x)
        lo, start = hi, ends[hi - 1]
    return out


def collect_H(dataset: Dataset, chip: ChipInstance, frontend_cfg: FrontendConfig,
              noise_seed: int | None = None, sample_policy: str = "unambiguous",
              trap: TrapezoidParams | None = None, normalize: bool = True,
              codes: list | None = None,
              out: np.ndarray | None = None) -> tuple[HiddenMatrix, TargetSet]:
    """Run the simulated chain over a dataset and assemble (H, targets).

    ``dataset`` is a ``SpikeDataset`` or a ``Manifest``: the
    labels and trial lengths come from its ``trials``, and each trial's
    events from ``dataset.trial(i)`` only as the hidden layer reaches it, so
    a manifest's event files are read one at a time and dropped.  One row
    per tick, every trial's ticks in trial order (``n_ticks`` rows each),
    the rows ``hidden_rows`` makes: with a ``noise_seed``
    (None: noise off), trial i draws from its own counter-derived stream
    ``trial_rng(noise_seed, i)`` so results do not depend on evaluation
    order.  Row timestamps are ``frontend_cfg.tick_end_ms``.
    ``codes``, when given, are the trials' front-end codes computed
    beforehand with ``frontend_cfg`` (no event is read, so the front end may
    take fewer channels than ``dataset``, as in ``sweep``; without codes the
    channel counts must match); ``out``, when given, a float64 buffer
    whose first rows x L values become H, so H can be collected again on
    another chip without a new allocation.

    ``sample_policy`` selects the rows the type outputs train on:
    "unambiguous" (membership exactly 0 or 1), "plateau" (membership 1),
    or "all".
    """
    check_values(TrainSettings, {"sample_policy": sample_policy})
    trials = dataset.trials
    if not trials:
        raise TrainingError("dataset has no trials")
    if codes is None and frontend_cfg.n_external != dataset.channel_count:
        raise TrainingError(f"front end expects {frontend_cfg.n_external} channels, "
                            f"dataset has {dataset.channel_count}")
    if frontend_cfg.rows != chip.d:
        raise TrainingError(f"front end produces {frontend_cfg.rows} rows, chip takes {chip.d}")
    trap = trap or TrapezoidParams()

    if codes is None:
        codes = (run_trial(frontend_cfg, dataset.trial(i)) for i in range(len(trials)))
    n_ticks = np.array([tick_count(frontend_cfg, trial) for trial in trials])
    rows = int(n_ticks.sum())
    if out is not None:
        out = out[: rows * chip.l].reshape(rows, chip.l)
    h = hidden_rows(codes, n_ticks, chip, normalize, noise_seed, out=out)
    # tick k of every trial ends at the same time, so one trial's worth of
    # memberships, as long as the longest, serves every trial
    ticks_membership = trapezoid(frontend_cfg.tick_end_ms(np.arange(n_ticks.max())), trap)
    membership = np.concatenate([ticks_membership[:n] for n in n_ticks])
    labels = np.repeat([trial.label for trial in trials], n_ticks)
    type_rows = np.ones(len(membership), bool) if sample_policy == "all" else membership == 1.0
    if sample_policy == "unambiguous":
        type_rows |= membership == 0.0
    targets = TargetSet(labels, dataset.class_count, membership, type_rows)
    return HiddenMatrix(h, n_ticks), targets


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

def _least_squares(h: np.ndarray, t: np.ndarray, ridge_lambda: float = 0.0,
                   normal: bool = False) -> np.ndarray:
    """(L, k) beta minimizing ||h beta - t||^2 + ridge_lambda ||beta||^2: the
    solution of the regularized normal equations, or for ridge_lambda = 0
    the minimum-norm solution (singular values below ``SV_CUTOFF`` relative
    to the largest count as zero; LAPACK copies h).  With ``normal``, the
    normal equations serve ridge_lambda = 0 too while h.T h's eigenvalues
    have min > max * ``GRAM_CUTOFF`` (a NaN fails).  An all-zero h gives 0.
    """
    if not h.any():
        return np.zeros((h.shape[1], t.shape[1]))
    if ridge_lambda == 0.0 and not normal:
        return np.linalg.lstsq(h, t, rcond=SV_CUTOFF)[0]
    gram = h.T @ h
    if ridge_lambda == 0.0:
        w = np.linalg.eigvalsh(gram)  # ascending
        if not w[0] > w[-1] * GRAM_CUTOFF:
            return np.linalg.lstsq(h, t, rcond=SV_CUTOFF)[0]
    return np.linalg.solve(gram + ridge_lambda * np.eye(h.shape[1]), h.T @ t)


def check_penalties(method: str, ridge_lambda: float = 0.0, l1_lambda: float | None = None,
                    target_sparsity: float | None = None) -> tuple:
    """(l1_lambda, target_sparsity) as ``fit_blocks`` fits ``method``, an
    unset one (None or below 0) as None.  A ``TrainingError`` names a
    setting outside its ``TrainSettings`` domain; T2 takes exactly one of
    the two."""
    try:
        check_values(TrainSettings, {name: value for name, value in [
            ("method", method), ("ridge_lambda", ridge_lambda), ("l1_lambda", l1_lambda),
            ("target_sparsity", target_sparsity)] if value is not None})
    except FieldError as exc:
        raise TrainingError(str(exc)) from None
    l1_lambda, target_sparsity = (None if value is None or value < 0 else value
                                  for value in (l1_lambda, target_sparsity))
    if method == "T2" and (l1_lambda is None) == (target_sparsity is None):
        raise TrainingError("T2 takes exactly one of l1_lambda or target_sparsity")
    return l1_lambda, target_sparsity


def _block(block) -> tuple:
    """One block as float arrays (h, t), t as (n, k); built if it is a function."""
    h, t = block() if callable(block) else block
    h = np.asarray(h, dtype=np.float64)
    t = np.atleast_2d(np.asarray(t, dtype=np.float64).T).T
    if h.ndim != 2 or h.shape[0] != t.shape[0]:
        raise TrainingError(f"shape mismatch: H {h.shape} vs T {t.shape}")
    return h, t


def _check_width(widths: list) -> None:
    if len(set(widths)) != 1:
        raise TrainingError(f"blocks must share one hidden width L, got {sorted(set(widths))}")


def fit_blocks(
    blocks: list,
    method: str = "T1",
    ridge_lambda: float = 0.0,
    l1_lambda: float | None = None,
    target_sparsity: float | None = None,
    refit: bool = False,
    normal: bool = False,
) -> OutputWeights:
    """Output weights for (h, t) blocks that share the hidden neurons.

    Each block pairs an (n, L) hidden matrix, L the same in every block,
    with (n,) or (n, k) targets; beta holds the blocks' columns in order.
    A block may also be a function that returns it.  T1 is least squares
    per block (ridge for ridge_lambda > 0; ``normal`` as ``_least_squares``
    takes it), one block at a time, the blocks given as pairs first: a
    function is called only after they are fitted, so the h it returns may
    overwrite theirs.  T2, which ignores ``normal``, builds every block first,
    then reads every column's lasso path at one penalty: ``l1_lambda``, or
    the one the common-penalty search picks for ``target_sparsity`` (set
    exactly one; None or below 0 is unset).  A neuron is pruned when its row
    is zero in every column, and ``refit`` refits each block on the
    surviving neurons by least squares.  The report flags ``degenerate``
    when every h is all zero (beta is then 0).
    """
    l1_lambda, target_sparsity = check_penalties(method, ridge_lambda, l1_lambda, target_sparsity)
    if method == "T1":
        fitted = [None] * len(blocks)  # (beta, residuals, whether h is nonzero) per block
        for k in sorted(range(len(blocks)), key=lambda k: callable(blocks[k])):
            h, t = _block(blocks[k])
            b = _least_squares(h, t, ridge_lambda, normal)
            fitted[k] = b, np.linalg.norm(h @ b - t, axis=0), h.any()
        betas, residuals, nonzero = zip(*fitted)
        _check_width([b.shape[0] for b in betas])
        beta = np.hstack(betas)
        support = np.any(beta != 0.0, axis=1)
        report = {"method": "T1", "ridge_lambda": ridge_lambda}
    else:
        blocks = [_block(block) for block in blocks]
        _check_width([h.shape[1] for h, _ in blocks])
        columns = []  # one (Gram, correlations) pair per output
        for h, t in blocks:
            gram = h.T @ h
            columns += [(gram, h.T @ t[:, k]) for k in range(t.shape[1])]
        if target_sparsity is None:
            lam = float(l1_lambda)
            beta = np.stack([_PathWalk(gram, corr, lam).at(lam) for gram, corr in columns], axis=1)
        else:
            lam, beta = _common_penalty_search(columns, target_sparsity)
        support = np.any(beta != 0.0, axis=1)
        report = {"method": "T2", "l1_lambda": float(lam), "refit": bool(refit),
                  "pruned": int(np.sum(~support)), "sparsity": float(np.mean(~support))}
        splits = np.cumsum([t.shape[1] for _, t in blocks])[:-1]  # np.split gives views
        if refit and support.any():
            beta = np.zeros_like(beta)
            for (h, t), b in zip(blocks, np.split(beta, splits, axis=1)):
                b[support] = _least_squares(h[:, support], t)
        betas = np.split(beta, splits, axis=1)
        residuals = [np.linalg.norm(h @ b - t, axis=0) for (h, t), b in zip(blocks, betas)]
        nonzero = [h.any() for h, _ in blocks]
    report["residuals"] = np.concatenate(residuals).tolist()
    if not any(nonzero):
        report["degenerate"] = True
    return OutputWeights(beta, support, report)


def _gather_rows(h: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Move the rows ``rows`` marks to the front of ``h``, in order and in
    place, and return that view.  No row moves past its own index, so a
    forward pass in chunks of ``_GATHER_BYTES`` reads no overwritten row."""
    index = np.flatnonzero(rows)
    step = max(1, _GATHER_BYTES // (h.shape[1] * h.itemsize or 1))
    for start in range(0, len(index), step):
        part = index[start : start + step]
        h[start : start + len(part)] = h[part]
    return h[: len(index)]


def fit_output_weights(
    hidden: HiddenMatrix,
    targets: TargetSet,
    method: str = "T1",
    ridge_lambda: float = 0.0,
    l1_lambda: float | None = None,
    target_sparsity: float | None = None,
    refit: bool = False,
    overwrite_h: bool = False,
    type_only: bool = False,
) -> OutputWeights:
    """Train all M+1 output columns against a collected hidden matrix.

    Two blocks share the neurons: the type columns on the rows the sample
    policy selected, and the onset column on every row.  Under T2 one
    penalty spans both blocks, so whole-neuron pruning stays meaningful.

    ``overwrite_h`` lets a T1 fit take the type rows out of ``hidden.h``
    itself: T1 fits the onset column on all of H first, so the type rows can
    then be gathered to the front of H in place instead of copied.
    ``type_only`` lets a T1 fit solve the type block alone, on its Gram
    matrix while well conditioned (``_least_squares``' ``normal``), and
    leave the onset column zero: the type columns agree with the full fit's
    to about cond(h.T h) eps (in bits under ridge or past the bound), and
    the residuals and ``degenerate`` cover the type block only.  T2 reads H
    once per block and ignores both.
    """
    rows = targets.type_rows
    if not rows.any():
        raise TrainingError("sample policy selected no rows for the type outputs")
    t1 = method == "T1"

    def type_block():  # under T1, built after the onset fit
        h = _gather_rows(hidden.h, rows) if overwrite_h and t1 else hidden.h[rows]
        return h, np.eye(targets.m)[targets.labels[rows] - 1]  # one-hot class rows

    blocks = [type_block] if type_only and t1 else [type_block, (hidden.h, targets.t_onset)]
    w = fit_blocks(blocks, method, ridge_lambda, l1_lambda, target_sparsity, refit, type_only)
    if len(blocks) == 1:  # a zero onset column
        w.beta = np.pad(w.beta, ((0, 0), (0, 1)))
    return w
