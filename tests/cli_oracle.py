"""Per-point oracle for the ``sweep`` command.

``oracle_sweep`` runs the grid the way ``cmd_sweep`` did before work was
shared across grid points: every (method, L, n, p, chip seed) point builds
its own front end and chip, collects its own H straight from the spike
trials, fits one model and evaluates it on the test split with its own
hidden streams.  It lives here only as a reference the command must match
byte for byte.
"""

import itertools

import numpy as np

from mlcpsim.analog import build_chip
from mlcpsim.cli import _frontend_from_cfg
from mlcpsim.config import parse_int_list, parse_str_list, section
from mlcpsim.decoder import DecoderModel, evaluate, split_dataset
from mlcpsim.spikeio import SpikeDataset, Trial, parse_dataset
from mlcpsim.training import collect_H, fit_output_weights


def _restrict_channels(dataset: SpikeDataset, n: int) -> SpikeDataset:
    """Keep only channels < n (the synthetic layout spreads classes evenly)."""
    if n >= dataset.channel_count:
        return dataset
    trials = [Trial(t.id, t.label, t.onset, t.duration, t.times_us[t.channels < n],
                    t.channels[t.channels < n]) for t in dataset.trials]
    return SpikeDataset(trials, n, dataset.class_count, dataset.metadata)


def _point_model(cfg, method, hidden, targets, frontend, m, chip):
    l1, sparsity = cfg["train.l1_lambda"], cfg["train.target_sparsity"]
    weights = fit_output_weights(
        hidden, targets, method=method, ridge_lambda=cfg["train.ridge_lambda"],
        l1_lambda=None if l1 < 0 else l1,
        target_sparsity=None if sparsity < 0 else sparsity, refit=cfg["train.refit"])
    return DecoderModel(
        weights.beta, weights.support, m, frontend=frontend, report=weights.report,
        theta=cfg["decoder.theta"], lam=cfg["decoder.lam"], tau=cfg["decoder.tau"],
        tr_ms=cfg["decoder.tr_ms"], normalize=cfg["decoder.normalize"],
        chip_seed=chip.seed, fmax_sel=chip.params.fmax_sel, trap=section(cfg, "trap"))


def oracle_sweep(cfg: dict, data) -> tuple[str, list[str]]:
    """(CSV text, accuracy notes in print order) of a sweep, point by point."""
    dataset = parse_dataset(data)
    train_set, test_set = split_dataset(dataset, cfg["split.test_fraction"], cfg["split.seed"])
    lines = ["method,l,n,p,accuracy_mean,accuracy_std"]
    notes = []
    for method, l, n, p in itertools.product(
            parse_str_list(cfg["sweep.methods"]), parse_int_list(cfg["sweep.l_grid"]),
            parse_int_list(cfg["sweep.n_grid"]), parse_int_list(cfg["sweep.p_grid"])):
        n_eff = n or dataset.channel_count
        sub_train = _restrict_channels(train_set, n_eff)
        sub_test = _restrict_channels(test_set, n_eff)
        frontend = _frontend_from_cfg(cfg, n_eff, p=p)
        accs = []
        for seed in parse_int_list(cfg["sweep.chip_seeds"]):
            chip = build_chip(seed, section(cfg, "analog"), frontend.rows, l)
            hidden, targets = collect_H(
                sub_train, chip, frontend,
                noise_seed=cfg["train.noise_seed"] if cfg["train.noise_on"] else None,
                sample_policy=cfg["train.sample_policy"], trap=section(cfg, "trap"),
                normalize=cfg["decoder.normalize"])
            model = _point_model(cfg, method, hidden, targets, frontend,
                                 dataset.class_count, chip)
            noise_seed = cfg["decoder.noise_seed"] if cfg["decoder.noise_on"] else None
            report = evaluate(sub_test, model, chip, noise_seed=noise_seed,
                              tol_ms=cfg["decoder.tol_ms"])
            accs.append(report.accuracy)
        mean, std = float(np.mean(accs)), float(np.std(accs))
        lines.append(f"{method},{l},{n_eff},{p},{mean!r},{std!r}")
        notes.append(f"# {method} l={l} n={n_eff} p={p}: accuracy {mean:.4f} +/- {std:.4f}")
    return "\n".join(lines) + "\n", notes
