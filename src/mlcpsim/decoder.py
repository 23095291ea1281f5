"""Runtime decoding and evaluation.

Per 20 ms tick the decoder computes the M+1 output values
``o = beta^T h`` from the (optionally normalized) hidden counts, then:

* type: ``s = argmax(o_1..o_M)`` (lowest index wins ties), classes 1..M;
* onset: ``G = 1`` iff the onset output strictly exceeds the threshold;
* tracking: ``G_track = 1`` iff at least ``lam`` of the last ``tau`` G bits
  are high and the refractory window from the previous detection (``Tr`` ms)
  has expired; each G_track rising edge re-arms the refractory timer;
* combined: ``F = G_track * s`` - the class label exactly when a tracked
  onset fires, else 0.

``track`` runs the tracker over a (streams, ticks) batch of G bits: one
cumulative sum gives the window counts and only the refractory state steps
through time.

Evaluation scores movement type per trial by majority vote of the per-tick
class over the membership plateau, and onset detection by matching G_track
events against a tolerance window around the true onset (events outside it
count as false positives).  ``score_onsets`` tracks all trials of an
``evaluate`` or ``roc_sweep`` call as one padded batch per threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .analog import ChipInstance
from .frontend import FrontendConfig, run_trial
from .spikeio import SpikeDataset, Trial
from .training import OutputWeights, TrapezoidParams, hidden_stream, hidden_streams

MODEL_FORMAT = "mlcpsim-model"
MODEL_VERSION = 1


@dataclass
class DecoderModel:
    """Everything needed to run the decoder: weights, thresholds, layout.

    ``beta`` is (L, M+1); columns 1..M drive the classifier and the last
    column the onset regressor.  ``chip_seed`` records which fabricated die
    the weights were trained against.
    """

    beta: np.ndarray
    support: np.ndarray
    m: int
    theta: float = 0.75
    lam: int = 6  # required high ticks in the tracking window
    tau: int = 10  # tracking window length, ticks
    tr_ms: float = 140.0  # refractory after a detection
    normalize: bool = True
    chip_seed: int = 0
    fmax_sel: int = 7
    frontend: FrontendConfig = None  # type: ignore[assignment]
    trap: TrapezoidParams = field(default_factory=TrapezoidParams)
    report: dict = field(default_factory=dict)

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.support = np.asarray(self.support, dtype=bool)
        if self.beta.ndim != 2 or self.beta.shape[1] != self.m + 1:
            raise ValueError(f"beta must be (L, {self.m + 1}), got {self.beta.shape}")
        if not (1 <= self.lam <= self.tau):
            raise ValueError("need 1 <= lam <= tau")
        if self.tr_ms < 0:
            raise ValueError("tr_ms must be >= 0")
        if self.frontend is None:
            raise ValueError("model needs a frontend configuration")

    @classmethod
    def from_training(
        cls, weights: OutputWeights, m: int, frontend: FrontendConfig, **kwargs
    ) -> "DecoderModel":
        return cls(weights.beta, weights.support, m, frontend=frontend,
                   report=weights.report, **kwargs)


def save_model(model: DecoderModel, path: str | Path) -> None:
    """Write a decoder model to a versioned JSON file (byte-deterministic)."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "m": model.m,
        "theta": model.theta,
        "lam": model.lam,
        "tau": model.tau,
        "tr_ms": model.tr_ms,
        "normalize": model.normalize,
        "chip_seed": model.chip_seed,
        "fmax_sel": model.fmax_sel,
        "frontend": {
            "rows": model.frontend.rows,
            "s_ext": model.frontend.s_ext.tolist(),
            "sdl": model.frontend.sdl.tolist(),
            "t_s_ms": model.frontend.t_s_ms,
        },
        "trap": asdict(model.trap),
        "beta": model.beta.tolist(),
        "support": model.support.astype(int).tolist(),
        "report": model.report,
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )


def load_model(path: str | Path) -> DecoderModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a model file: {path}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model file version {doc.get('version')}")
    fe = doc["frontend"]
    frontend = FrontendConfig(
        rows=fe["rows"], s_ext=np.array(fe["s_ext"]), sdl=np.array(fe["sdl"]),
        t_s_ms=fe["t_s_ms"],
    )
    return DecoderModel(
        beta=np.array(doc["beta"]),
        support=np.array(doc["support"], dtype=bool),
        m=doc["m"],
        theta=doc["theta"],
        lam=doc["lam"],
        tau=doc["tau"],
        tr_ms=doc["tr_ms"],
        normalize=doc["normalize"],
        chip_seed=doc["chip_seed"],
        fmax_sel=doc["fmax_sel"],
        frontend=frontend,
        trap=TrapezoidParams(**doc["trap"]),
        report=doc["report"],
    )


# ----------------------------------------------------------------- decode

class ChipMismatchError(ValueError):
    """The chip does not have the shape the model was trained against."""


def _check_chip(model: DecoderModel, chip: ChipInstance) -> None:
    """Raise ``ChipMismatchError`` unless the chip's D and L match the model."""
    d, l = model.frontend.rows, model.beta.shape[0]
    if (d, l) != (chip.d, chip.l):
        raise ChipMismatchError(f"model needs a chip with D={d} rows and L={l} neurons "
                                f"(beta rows), chip has D={chip.d}, L={chip.l}")


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
    ready = np.ascontiguousarray((csum[:, tau:] - csum[:, :n_ticks] >= lam).T)
    out = np.zeros_like(ready)
    until = np.zeros(n_rows)
    prev = np.zeros(n_rows, dtype=bool)
    for n in range(n_ticks):
        cur = ready[n] & (until <= n)
        until[cur & ~prev] = n + tr_ticks
        out[n] = prev = cur
    return out.T


@dataclass
class DecodeResult:
    """Per-tick decoder outputs for one stream."""

    t_ms: np.ndarray  # end-of-window timestamps
    o: np.ndarray  # (T, M+1)
    s: np.ndarray  # predicted class per tick, 1..M
    g: np.ndarray
    g_track: np.ndarray
    f: np.ndarray

    def detections_ms(self) -> np.ndarray:
        """Timestamps of G_track rising edges."""
        rising = (self.g_track == 1) & (np.concatenate([[0], self.g_track[:-1]]) == 0)
        return self.t_ms[rising]


def decode_stream(trial: Trial, model: DecoderModel, chip: ChipInstance,
                  rng: np.random.Generator | None = None) -> DecodeResult:
    """Decode one spike trial end to end; noise is on when ``rng`` is given."""
    _check_chip(model, chip)
    o = hidden_stream(run_trial(model.frontend, trial), chip, model.normalize, rng) @ model.beta
    s = np.argmax(o[:, : model.m], axis=1) + 1
    g = (o[:, model.m] > model.theta).astype(np.int64)
    tr_ticks = model.tr_ms / model.frontend.t_s_ms
    g_track = track(g[None, :], model.lam, model.tau, tr_ticks)[0].astype(np.int64)
    t_ms = (np.arange(len(o)) + 1) * model.frontend.t_s_ms
    return DecodeResult(t_ms, o, s, g, g_track, g_track * s)


def write_stream_csv(path: str | Path, result: DecodeResult) -> None:
    """Stream output CSV: ``tick_ms,o_1..o_{M+1},s,G,G_track,F``."""
    n_out = result.o.shape[1]
    header = "tick_ms," + ",".join(f"o_{k}" for k in range(1, n_out + 1)) + ",s,G,G_track,F"
    lines = [header]
    for i in range(len(result.t_ms)):
        o_txt = ",".join(repr(float(v)) for v in result.o[i])
        lines.append(
            f"{result.t_ms[i]:g},{o_txt},{result.s[i]},{result.g[i]},"
            f"{result.g_track[i]},{result.f[i]}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ------------------------------------------------------------- evaluation

@dataclass
class EvalReport:
    """Scores over a test set: type accuracy plus onset detection quality."""

    accuracy: float
    confusion: np.ndarray  # [true-1, predicted-1]
    tpr: float
    fp_per_trial: float
    latencies_ms: list
    n_trials: int
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "tpr": self.tpr,
            "fp_per_trial": self.fp_per_trial,
            "latencies_ms": self.latencies_ms,
            "n_trials": self.n_trials,
            "metadata": self.metadata,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def split_dataset(dataset: SpikeDataset, test_fraction: float, seed: int
                  ) -> tuple[SpikeDataset, SpikeDataset]:
    """Deterministic stratified train/test split (per-class shuffle)."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in range(1, dataset.class_count + 1):
        members = [i for i, t in enumerate(dataset.trials) if t.label == cls]
        order = rng.permutation(len(members))
        n_test = max(1, int(round(test_fraction * len(members)))) if members else 0
        for pos, k in enumerate(order):
            (test_idx if pos < n_test else train_idx).append(members[k])
    train = SpikeDataset([dataset.trials[i] for i in sorted(train_idx)],
                         dataset.channel_count, dataset.class_count, dict(dataset.metadata))
    test = SpikeDataset([dataset.trials[i] for i in sorted(test_idx)],
                        dataset.channel_count, dataset.class_count, dict(dataset.metadata))
    return train, test


def majority_class(s_ticks: np.ndarray, m: int) -> int:
    """Majority vote with lowest-class tie-break; 0 (no vote) if no ticks."""
    if len(s_ticks) == 0:
        return 0
    counts = np.bincount(s_ticks, minlength=m + 1)
    return int(np.argmax(counts[1:])) + 1


def plateau_class(outputs: np.ndarray, model: DecoderModel) -> int:
    """Type vote of one trial: the majority class of its per-tick outputs
    over the ticks whose window ends on the membership plateau
    [``trap.t1_ms``, ``trap.t2_ms``].  A trial with no plateau tick (one
    that ends before ``t1_ms``) has no vote (0), so it is scored wrong
    whatever its label, in training as in evaluation."""
    t_ms = (np.arange(len(outputs)) + 1) * model.frontend.t_s_ms
    plateau = (t_ms >= model.trap.t1_ms) & (t_ms <= model.trap.t2_ms)
    return majority_class(np.argmax(outputs[plateau, : model.m], axis=1) + 1, model.m)


def _output_streams(dataset: SpikeDataset, model: DecoderModel, chip: ChipInstance,
                    noise_on: bool, noise_seed: int) -> list[np.ndarray]:
    """(T, M+1) decoder outputs per trial; with noise on, trial ``i`` draws
    from ``default_rng([noise_seed, i])``, so outputs do not depend on order."""
    if not dataset.trials:
        raise ValueError("cannot evaluate an empty test set")
    _check_chip(model, chip)
    codes = (run_trial(model.frontend, trial) for trial in dataset.trials)
    return [h @ model.beta for h in hidden_streams(codes, chip, model.normalize, noise_on,
                                                   noise_seed)]


def score_onsets(trials: list[Trial], outputs: list[np.ndarray], model: DecoderModel,
                 thetas: list[float], tol_ms: float) -> list[tuple[int, int, list[float]]]:
    """(hits, false positives, hit latencies in ms) per threshold.

    A trial is hit when a G_track rising edge lies within ``tol_ms`` of its
    onset (the latency is the first such edge's); every other rising edge is
    a false positive.  All trials are tracked as one (trials, ticks) batch
    per threshold, padded with G = 0 past each trial's end; edges in the
    padding are ignored.
    """
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


def evaluate(dataset: SpikeDataset, model: DecoderModel, chip: ChipInstance,
             noise_on: bool = False, noise_seed: int = 0,
             tol_ms: float = 150.0, outputs: list | None = None) -> EvalReport:
    """Score a test set.

    Type accuracy is the fraction of trials whose ``plateau_class`` vote
    matches the label (a trial with no vote is wrong and stays out of the
    confusion matrix); TPR the fraction with a detection within ``tol_ms``
    of the true onset; detections outside that window count as false
    positives.  With noise on, each trial uses its own counter-derived
    stream, so scores are independent of evaluation order.  ``outputs``, if
    given, are the trials' (T, M+1) decoder outputs, already computed.
    """
    if outputs is None:
        outputs = _output_streams(dataset, model, chip, noise_on, noise_seed)
    confusion = np.zeros((dataset.class_count, dataset.class_count), dtype=np.int64)
    for trial, o in zip(dataset.trials, outputs):
        if vote := plateau_class(o, model):
            confusion[trial.label - 1, vote - 1] += 1
    [(hits, fps, latencies)] = score_onsets(dataset.trials, outputs, model, [model.theta], tol_ms)
    n = len(dataset.trials)
    return EvalReport(
        accuracy=float(np.trace(confusion)) / n,
        confusion=confusion,
        tpr=hits / n,
        fp_per_trial=fps / n,
        latencies_ms=latencies,
        n_trials=n,
        metadata={"aggregation": "per-trial plateau majority", "tol_ms": tol_ms},
    )


def roc_sweep(dataset: SpikeDataset, model: DecoderModel, chip: ChipInstance,
              theta_grid: np.ndarray, noise_on: bool = False, noise_seed: int = 0,
              tol_ms: float = 150.0) -> list[tuple[float, float, float]]:
    """(theta, TPR, FP/trial) over a threshold grid, sorted by theta.

    The hidden-layer streams do not depend on theta, so they are computed
    once per trial and only the thresholding and tracking are re-run.
    """
    thetas = sorted(float(t) for t in np.asarray(theta_grid).ravel())
    if not thetas:
        raise ValueError("theta grid is empty")
    outputs = _output_streams(dataset, model, chip, noise_on, noise_seed)
    scores = score_onsets(dataset.trials, outputs, model, thetas, tol_ms)
    n = len(dataset.trials)
    return [(theta, hits / n, fps / n) for theta, (hits, fps, _) in zip(thetas, scores)]


def write_roc_csv(path: str | Path, points: list[tuple[float, float, float]]) -> None:
    """ROC CSV: ``theta,tpr,fp_per_trial``."""
    lines = ["theta,tpr,fp_per_trial"]
    for theta, tpr, fp in points:
        lines.append(f"{theta!r},{tpr!r},{fp!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
