"""Per-tick, per-trial and per-threshold oracles for the batched decoder.

``TrackingFsm`` is the tick-by-tick tracker that ``track`` batches (``track``
runs ``decoder._track_steps`` over a (streams, ticks) batch of G bits, whose
window counts come from one cumulative sum; ``decode_stream`` used it before
it read its window test from ``_window_levels`` as the scorer does),
``classify_type`` and ``onset_primary`` are the scalar per-tick ops that
``decode_stream`` vectorizes, and ``oracle_scores`` decodes every trial on
its own and scores it by the per-trial rules that ``evaluate`` and
``roc_sweep`` followed before trials were tracked as one batch
(``oracle_onset_scores`` is its onset half, on given outputs).
``per_threshold_scores`` is the scorer that tracked all trials as one batch
but made one pass through the ticks per threshold, before
``decoder.score_onsets`` tracked every threshold in one pass, and
``majority_class`` the one-trial vote that ``decoder.plateau_votes`` casts
for many trials at once (``plateau_class`` casts it over one decoded
trial's plateau ticks, as ``evaluate`` did trial by trial).  They live here
only as references the package must match exactly.
"""

import numpy as np

from mlcpsim.analog import hidden_layer, normalize_rows
from mlcpsim.decoder import _track_steps
from mlcpsim.frontend import run_trial


def majority_class(s_ticks: np.ndarray, m: int) -> int:
    """Majority vote with lowest-class tie-break; 0 (no vote) if no ticks."""
    if len(s_ticks) == 0:
        return 0
    counts = np.bincount(s_ticks, minlength=m + 1)
    return int(np.argmax(counts[1:])) + 1


def plateau_class(outputs: np.ndarray, model) -> int:
    """Type vote of one trial from its per-tick outputs (row i is tick i):
    the majority class over the ticks whose window ends on the trapezoid
    plateau, 0 (no vote) if it has none."""
    t_ms = (np.arange(len(outputs)) + 1) * model.frontend.t_s_ms
    s = np.array([classify_type(row, model.m) for row in outputs], dtype=np.int64)
    plateau = (t_ms >= model.trap.t1_ms) & (t_ms <= model.trap.t2_ms)
    return majority_class(s[plateau], model.m)


def track(g: np.ndarray, lam: int, tau: int, tr_ticks: float) -> np.ndarray:
    """G_track for a (B, T) batch of G bit streams, one stream per row.

    A tick's output is high when at least ``lam`` of the last ``tau`` G bits
    are high and the tick is past the row's refractory deadline; each rising
    edge pushes that deadline ``tr_ticks`` ahead.
    """
    if not (1 <= lam <= tau):
        raise ValueError("need 1 <= lam <= tau")
    g = np.asarray(g, dtype=bool)
    n_rows, n_ticks = g.shape
    csum = np.zeros((n_rows, tau + n_ticks), dtype=np.int64)
    np.cumsum(g, axis=1, out=csum[:, tau:])
    counts = np.ascontiguousarray((csum[:, tau:] - csum[:, :n_ticks]).T)
    out = np.zeros((n_ticks, n_rows), dtype=bool)
    for n, cur, _ in _track_steps(counts, [lam - 1], tr_ticks):  # count > lam - 1
        out[n] = cur[0]
    return out.T


def classify_type(o: np.ndarray, m: int) -> int:
    """Predicted class 1..M: argmax over the type outputs, lowest index on ties."""
    return int(np.argmax(o[:m])) + 1


def onset_primary(o_onset: float, theta: float) -> int:
    """Primary onset bit: strictly above threshold."""
    return int(o_onset > theta)


class TrackingFsm:
    """Windowed-count onset tracker with refractory.

    Feeds on the per-tick G bit; emits G_track.  The bit goes high when at
    least ``lam`` of the last ``tau`` G bits (current included) are high and
    the tick is past the refractory deadline; each rising edge pushes the
    deadline ``tr_ms`` ahead, so detections can never crowd closer than that.
    """

    def __init__(self, lam: int, tau: int, tr_ms: float, t_s_ms: float):
        if not (1 <= lam <= tau):
            raise ValueError("need 1 <= lam <= tau")
        self.lam = lam
        self.tau = tau
        self.tr_ticks = tr_ms / t_s_ms
        self.reset()

    def reset(self) -> None:
        self.history = [0] * self.tau  # last tau G bits, newest last
        self.refractory_until = 0.0
        self.tick = 0
        self.prev_out = 0

    def step(self, g: int) -> int:
        self.history.pop(0)
        self.history.append(1 if g else 0)
        out = 1 if sum(self.history) >= self.lam and self.tick >= self.refractory_until else 0
        if out and not self.prev_out:
            self.refractory_until = self.tick + self.tr_ticks
        self.prev_out = out
        self.tick += 1
        return out


def oracle_onset_scores(trials, outputs, model, theta, tol_ms=150.0):
    """Onset scores of each trial's (T, M+1) outputs alone at one threshold:
    (hits, fps, latencies), tracked tick by tick with ``TrackingFsm``.  A
    trial is hit when any detection lies within ``tol_ms`` of its onset
    (latency of the first such one); every other detection is a false
    positive."""
    hits = fps = 0
    latencies = []
    for trial, o in zip(trials, outputs):
        t_ms = (np.arange(len(o)) + 1) * model.frontend.t_s_ms
        fsm = TrackingFsm(model.lam, model.tau, model.tr_ms, model.frontend.t_s_ms)
        g_track = np.array([fsm.step(onset_primary(v, theta)) for v in o[:, model.m]], dtype=int)
        rising = (g_track == 1) & (np.concatenate([[0], g_track[:-1]]) == 0)
        detections = t_ms[rising]
        onset_ms = trial.onset / 1000.0
        in_window = np.abs(detections - onset_ms) <= tol_ms
        if in_window.any():
            hits += 1
            latencies.append(float(detections[in_window][0] - onset_ms))
        fps += int(np.sum(~in_window))
    return hits, fps, latencies


def oracle_scores(dataset, model, chip, theta, tol_ms=150.0):
    """Score every trial alone at one threshold: (confusion, hits, fps, latencies).

    Each trial runs front end, hidden layer, normalization and output layer
    by hand, gets its type by the plateau majority class and is scored for
    onsets by ``oracle_onset_scores``.
    """
    confusion = np.zeros((dataset.class_count, dataset.class_count), dtype=np.int64)
    outputs = []
    for trial in dataset.trials:
        codes = run_trial(model.frontend, trial)
        h = hidden_layer(codes, chip).astype(np.float64)
        if model.normalize:
            h = normalize_rows(h, codes)
        o = h @ model.beta
        outputs.append(o)
        if vote := plateau_class(o, model):  # a trial with no plateau tick has no vote
            confusion[trial.label - 1, vote - 1] += 1
    return (confusion, *oracle_onset_scores(dataset.trials, outputs, model, theta, tol_ms))


def per_threshold_scores(trials, outputs, model, thetas, tol_ms):
    """(hits, false positives, hit latencies in ms) per threshold, one
    ``track`` pass per threshold over all trials as one (trials, ticks)
    batch padded with G = 0 past each trial's end; edges in the padding are
    ignored."""
    lengths = np.array([len(o) for o in outputs])
    valid = np.arange(lengths.max()) < lengths[:, None]
    onset_out = np.full(valid.shape, -np.inf)
    onset_out[valid] = np.concatenate([o[:, model.m] for o in outputs])
    onsets_ms = np.array([trial.onset / 1000.0 for trial in trials])
    t_ms = (np.arange(valid.shape[1]) + 1) * model.frontend.t_s_ms
    in_window = np.abs(t_ms - onsets_ms[:, None]) <= tol_ms
    tr_ticks = model.tr_ms / model.frontend.t_s_ms
    scores = []
    for theta in thetas:
        g_track = track(onset_out > theta, model.lam, model.tau, tr_ticks)
        rising = g_track & valid
        rising[:, 1:] &= ~g_track[:, :-1]
        rows, cols = np.nonzero(rising & in_window)
        first = np.flatnonzero(np.diff(rows, prepend=-1))  # first hit of each hit trial
        latencies = (t_ms[cols[first]] - onsets_ms[rows[first]]).tolist()
        scores.append((len(first), int(np.count_nonzero(rising)) - len(rows), latencies))
    return scores
