"""Per-tick and per-trial oracles for the batched decoder.

``TrackingFsm`` is the tick-by-tick tracker that ``decoder.track`` batches,
``classify_type`` and ``onset_primary`` are the scalar per-tick ops that
``decode_stream`` vectorizes, and ``oracle_scores`` decodes every trial on
its own and scores it by the per-trial rules that ``evaluate`` and
``roc_sweep`` followed before trials were tracked as one batch.  They live
here only as references the package must match exactly.
"""

import numpy as np

from mlcpsim.analog import hidden_layer, normalize_rows
from mlcpsim.decoder import majority_class
from mlcpsim.frontend import run_trial


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


def oracle_scores(dataset, model, chip, theta, tol_ms=150.0):
    """Score every trial alone at one threshold: (confusion, hits, fps, latencies).

    Each trial runs front end, hidden layer, normalization and output layer
    by hand, is tracked tick by tick with ``TrackingFsm``, and is scored by
    the per-trial rules: plateau majority class, a hit when any detection
    lies within ``tol_ms`` of the onset (latency of the first such one),
    every other detection a false positive.
    """
    confusion = np.zeros((dataset.class_count, dataset.class_count), dtype=np.int64)
    hits = fps = 0
    latencies = []
    for trial in dataset.trials:
        codes = run_trial(model.frontend, trial)
        h = hidden_layer(codes, chip).astype(np.float64)
        if model.normalize:
            h = normalize_rows(h, codes)
        o = h @ model.beta
        t_ms = (np.arange(len(o)) + 1) * model.frontend.t_s_ms
        s = np.array([classify_type(row, model.m) for row in o], dtype=np.int64)
        plateau = (t_ms >= model.trap.t1_ms) & (t_ms <= model.trap.t2_ms)
        vote = majority_class(s[plateau], model.m)
        if vote:  # a trial with no plateau tick has no vote
            confusion[trial.label - 1, vote - 1] += 1
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
    return confusion, hits, fps, latencies
