"""Command-line interface tying the pipeline together.

Subcommands: ``gen`` (synthetic dataset), ``chip`` (instantiate and dump a
die), ``train``, ``eval``, ``stream`` (per-tick decode CSV), ``roc``,
``sweep`` (accuracy grids over L / channels / delay-rows / method), and
``budget``.

Conventions:

* Every command echoes its fully resolved configuration to stdout as
  config-file text; informational lines are ``#`` comments, so the echo can
  be saved and passed back via ``--config`` to reproduce the run.
* Primary outputs (files) are byte-deterministic: same command, config, and
  seeds give identical bytes.  No timestamps are embedded anywhere.
* Exit codes: 0 success, 1 usage error, 2 data/validation error,
  3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import shutil
import sys
from pathlib import Path

import numpy as np

from .analog import (
    AnalogParams,
    DegenerateInputError,
    build_chip,
    load_chip,
    mismatch_map,
    save_chip,
    write_mismatch_map,
)
from .budget import BudgetInputs, budget_json, budget_report, format_budget
from .config import (
    ConfigError,
    echo_config,
    parse_int_list,
    parse_str_list,
    resolve_config,
)
from .decoder import (
    DecoderModel,
    decode_stream,
    evaluate,
    load_model,
    majority_class,
    roc_sweep,
    save_model,
    split_dataset,
    write_roc_csv,
    write_stream_csv,
)
from .frontend import FrontendConfig
from .spikeio import (
    DatasetError,
    SpikeDataset,
    SynthParams,
    Trial,
    gen_synthetic,
    parse_dataset,
    write_dataset,
)
from .training import (
    ConvergenceError,
    TrainingError,
    TrapezoidParams,
    collect_H,
    fit_output_weights,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad command line: wrong flags, missing arguments, refusal to overwrite."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); route to exit code 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="config file of key = value lines")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )
    common.add_argument(
        "--seed", type=int, help="set synth.seed and chip.seed in one stroke"
    )
    common.add_argument("--out", help="primary output path")
    common.add_argument(
        "--force", action="store_true", help="overwrite an existing output"
    )

    parser = _Parser(prog="mlcpsim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd")

    sub.add_parser("gen", parents=[common], help="generate a synthetic spike dataset")

    p_chip = sub.add_parser("chip", parents=[common], help="instantiate a chip and save it")
    p_chip.add_argument("--dump", metavar="CSV", help="also write the mismatch map")

    p_train = sub.add_parser("train", parents=[common], help="train output weights")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--chip", help="chip file (default: build from chip.seed)")

    p_eval = sub.add_parser("eval", parents=[common], help="score a model on a dataset")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--chip", help="chip file (default: rebuild from the model's seed)")

    p_stream = sub.add_parser("stream", parents=[common], help="per-tick decode of one trial")
    p_stream.add_argument("--data", required=True)
    p_stream.add_argument("--model", required=True)
    p_stream.add_argument("--chip")
    p_stream.add_argument("--trial", help="trial index or id (default: stream.trial)")

    p_roc = sub.add_parser("roc", parents=[common], help="onset-threshold ROC sweep")
    p_roc.add_argument("--data", required=True)
    p_roc.add_argument("--model", required=True)
    p_roc.add_argument("--chip")

    p_sweep = sub.add_parser("sweep", parents=[common], help="accuracy over parameter grids")
    p_sweep.add_argument("--data", required=True)

    sub.add_parser("budget", parents=[common], help="energy and data-rate report")
    return parser


# ------------------------------------------------------------- plumbing

def _echo(cfg: dict) -> None:
    print("# resolved configuration (reusable via --config)")
    print(echo_config(cfg))


def _note(message: str) -> None:
    print(f"# {message}")


def _require_out(args) -> Path:
    if not args.out:
        raise UsageError("this command requires --out")
    return Path(args.out)


def _fresh_path(path: Path, force: bool, directory: bool = False) -> Path:
    """Refuse to overwrite unless forced; with force, clear directories."""
    if path.exists():
        if not force:
            raise UsageError(f"{path} exists; pass --force to overwrite")
        if directory and path.is_dir():
            shutil.rmtree(path)
    return path


def _synth_from_cfg(cfg: dict) -> SynthParams:
    return SynthParams(
        q=cfg["synth.q"],
        m=cfg["synth.m"],
        baseline_rate=cfg["synth.baseline_rate"],
        peak_rate=cfg["synth.peak_rate"],
        tuning_width=cfg["synth.tuning_width"],
        ramp_start_ms=cfg["synth.ramp_start_ms"],
        ramp_peak_ms=cfg["synth.ramp_peak_ms"],
        decay_start_ms=cfg["synth.decay_start_ms"],
        decay_end_ms=cfg["synth.decay_end_ms"],
        onset_ms=cfg["synth.onset_ms"],
        trial_duration_ms=cfg["synth.trial_duration_ms"],
        trials_per_class=cfg["synth.trials_per_class"],
        seed=cfg["synth.seed"],
    )


def _analog_from_cfg(cfg: dict) -> AnalogParams:
    fields = (
        "i_ref_na c_f_f dvdd_v u_t_mv sigma_vt_mv mu_vt_mv dnl_max_lsb "
        "t_cnt_s fmax_sel jitter_rel mirror_snr_db b_na alpha_supply "
        "use_full_cco i_rst_na"
    ).split()
    return AnalogParams(**{name: cfg[f"analog.{name}"] for name in fields})


def _trap_from_cfg(cfg: dict) -> TrapezoidParams:
    return TrapezoidParams(
        t0_ms=cfg["trap.t0_ms"],
        t1_ms=cfg["trap.t1_ms"],
        t2_ms=cfg["trap.t2_ms"],
        t3_ms=cfg["trap.t3_ms"],
    )


def _frontend_from_cfg(cfg: dict, n_channels: int, p: int | None = None) -> FrontendConfig:
    t_s = cfg["frontend.t_s_ms"]
    p = cfg["frontend.p"] if p is None else p
    if cfg["frontend.mode"] == "direct" or p == 1:
        return FrontendConfig.direct(n_channels, t_s_ms=t_s)
    if cfg["frontend.mode"] != "tdbdi":
        raise ConfigError(f"unknown frontend.mode {cfg['frontend.mode']!r}")
    return FrontendConfig.tdbdi(n_channels, p, link_delay=cfg["frontend.link_delay"], t_s_ms=t_s)


def _chip_for(cfg: dict, d: int, seed: int | None = None, l: int | None = None):
    return build_chip(
        cfg["chip.seed"] if seed is None else seed,
        _analog_from_cfg(cfg),
        d=d,
        l=cfg["chip.l"] if l is None else l,
    )


def _fit_kwargs(cfg: dict) -> dict:
    l1 = cfg["train.l1_lambda"]
    sparsity = cfg["train.target_sparsity"]
    return {
        "method": cfg["train.method"],
        "ridge_lambda": cfg["train.ridge_lambda"],
        "l1_lambda": None if l1 < 0 else l1,
        "target_sparsity": None if sparsity < 0 else sparsity,
        "refit": cfg["train.refit"],
    }


def _model_from_weights(cfg: dict, weights, frontend, m: int, chip) -> DecoderModel:
    return DecoderModel.from_training(
        weights,
        m=m,
        frontend=frontend,
        theta=cfg["decoder.theta"],
        lam=cfg["decoder.lam"],
        tau=cfg["decoder.tau"],
        tr_ms=cfg["decoder.tr_ms"],
        normalize=cfg["decoder.normalize"],
        chip_seed=chip.seed,
        fmax_sel=chip.params.fmax_sel,
        trap=_trap_from_cfg(cfg),
    )


def _training_accuracy(hidden, targets, dataset, beta, m: int) -> float:
    """Per-trial plateau-majority accuracy of the type outputs on the
    training set itself (an optimistic sanity figure, stored in the report)."""
    plateau = targets.t_onset == 1.0
    scores = hidden.h @ beta[:, :m]
    s = np.argmax(scores, axis=1) + 1
    correct = total = 0
    for idx, trial in enumerate(dataset.trials):
        rows = plateau & (hidden.trial_index == idx)
        if not rows.any():
            continue
        total += 1
        correct += majority_class(s[rows], m) == trial.label
    if total == 0:
        raise TrainingError("no plateau rows to score training accuracy on")
    return correct / total


def _train_model(cfg: dict, dataset: SpikeDataset, chip) -> DecoderModel:
    frontend = _frontend_from_cfg(cfg, dataset.channel_count)
    hidden, targets = collect_H(
        dataset,
        chip,
        frontend,
        noise_on=cfg["train.noise_on"],
        sample_policy=cfg["train.sample_policy"],
        trap=_trap_from_cfg(cfg),
        normalize=cfg["decoder.normalize"],
        noise_seed=cfg["train.noise_seed"],
    )
    weights = fit_output_weights(hidden, targets, **_fit_kwargs(cfg))
    weights.report["train_accuracy"] = _training_accuracy(
        hidden, targets, dataset, weights.beta, dataset.class_count
    )
    return _model_from_weights(cfg, weights, frontend, dataset.class_count, chip)


def _load_runtime(cfg: dict, args) -> tuple[SpikeDataset, DecoderModel, object]:
    """Dataset + model + chip for the eval/stream/roc commands."""
    dataset = parse_dataset(args.data)
    model = load_model(args.model)
    if args.chip:
        chip = load_chip(args.chip)
    else:
        params = _analog_from_cfg(cfg)
        if params.fmax_sel != model.fmax_sel:
            params = AnalogParams(**{**params.__dict__, "fmax_sel": model.fmax_sel})
        chip = build_chip(model.chip_seed, params, d=model.frontend.rows, l=model.beta.shape[0])
    return dataset, model, chip


def _pick_trial(dataset: SpikeDataset, selector: str) -> tuple[int, Trial]:
    if selector.lstrip("-").isdigit():
        idx = int(selector)
        if not (0 <= idx < len(dataset.trials)):
            raise DatasetError(f"trial index {idx} out of range [0, {len(dataset.trials)})")
        return idx, dataset.trials[idx]
    for idx, trial in enumerate(dataset.trials):
        if trial.id == selector:
            return idx, trial
    raise DatasetError(f"no trial with id {selector!r}")


def _restrict_channels(dataset: SpikeDataset, n: int) -> SpikeDataset:
    """Keep only channels < n (the synthetic layout spreads classes evenly)."""
    if n >= dataset.channel_count:
        return dataset
    trials = []
    for t in dataset.trials:
        keep = t.channels < n
        trials.append(Trial(t.id, t.label, t.onset, t.duration, t.times_us[keep], t.channels[keep]))
    return SpikeDataset(trials, n, dataset.class_count, dataset.metadata)


# ------------------------------------------------------------- commands

def cmd_gen(args, cfg: dict) -> int:
    out = _fresh_path(_require_out(args), args.force, directory=True)
    dataset = gen_synthetic(_synth_from_cfg(cfg))
    write_dataset(dataset, out)
    _echo(cfg)
    _note(f"wrote {len(dataset.trials)} trials to {out}")
    return EXIT_OK


def cmd_chip(args, cfg: dict) -> int:
    out = _fresh_path(_require_out(args), args.force)
    d = cfg["chip.d"] or cfg["synth.q"]
    chip = _chip_for(cfg, d=d)
    save_chip(chip, out)
    _echo(cfg)
    _note(f"wrote chip (D={chip.d}, L={chip.l}, seed={chip.seed}) to {out}")
    if args.dump:
        dump = _fresh_path(Path(args.dump), args.force)
        write_mismatch_map(dump, mismatch_map(chip, probe_code=cfg["chip.probe_code"]))
        _note(f"wrote mismatch map to {dump}")
    return EXIT_OK


def cmd_train(args, cfg: dict) -> int:
    out = _fresh_path(_require_out(args), args.force)
    dataset = parse_dataset(args.data)
    frontend = _frontend_from_cfg(cfg, dataset.channel_count)
    if args.chip:
        chip = load_chip(args.chip)
    else:
        chip = _chip_for(cfg, d=frontend.rows)
    model = _train_model(cfg, dataset, chip)
    save_model(model, out)
    _echo(cfg)
    _note(f"trained {cfg['train.method']} on {len(dataset.trials)} trials")
    _note(f"train_accuracy = {model.report['train_accuracy']:.4f}")
    _note(f"pruned = {int(np.sum(~model.support))} of {model.support.size} neurons")
    _note(f"wrote model to {out}")
    return EXIT_OK


def cmd_eval(args, cfg: dict) -> int:
    dataset, model, chip = _load_runtime(cfg, args)
    report = evaluate(
        dataset,
        model,
        chip,
        noise_on=cfg["decoder.noise_on"],
        noise_seed=cfg["decoder.noise_seed"],
        tol_ms=cfg["decoder.tol_ms"],
    )
    _echo(cfg)
    _note(f"accuracy = {report.accuracy:.4f} over {report.n_trials} trials")
    _note(f"onset tpr = {report.tpr:.4f}, fp/trial = {report.fp_per_trial:.4f}")
    if args.out:
        out = _fresh_path(Path(args.out), args.force)
        out.write_text(report.to_json())
        _note(f"wrote report to {out}")
    else:
        sys.stdout.write(report.to_json())
    return EXIT_OK


def cmd_stream(args, cfg: dict) -> int:
    out = _fresh_path(_require_out(args), args.force)
    dataset, model, chip = _load_runtime(cfg, args)
    selector = args.trial if args.trial is not None else cfg["stream.trial"]
    idx, trial = _pick_trial(dataset, selector)
    rng = (
        np.random.default_rng([cfg["decoder.noise_seed"], idx])
        if cfg["decoder.noise_on"]
        else None
    )
    result = decode_stream(trial, model, chip, noise_on=cfg["decoder.noise_on"], rng=rng)
    write_stream_csv(out, result)
    _echo(cfg)
    _note(f"streamed trial {trial.id} ({len(result.t_ms)} ticks) to {out}")
    return EXIT_OK


def cmd_roc(args, cfg: dict) -> int:
    out = _fresh_path(_require_out(args), args.force)
    dataset, model, chip = _load_runtime(cfg, args)
    if cfg["roc.points"] < 1:
        raise ConfigError("roc.points must be >= 1")
    grid = np.linspace(cfg["roc.theta_min"], cfg["roc.theta_max"], cfg["roc.points"])
    points = roc_sweep(
        dataset,
        model,
        chip,
        theta_grid=grid,
        noise_on=cfg["decoder.noise_on"],
        noise_seed=cfg["decoder.noise_seed"],
        tol_ms=cfg["decoder.tol_ms"],
    )
    write_roc_csv(out, points)
    _echo(cfg)
    _note(f"wrote {len(points)} ROC points to {out}")
    return EXIT_OK


def cmd_sweep(args, cfg: dict) -> int:
    out = _fresh_path(_require_out(args), args.force)
    dataset = parse_dataset(args.data)
    train_set, test_set = split_dataset(dataset, cfg["split.test_fraction"], cfg["split.seed"])
    methods = parse_str_list(cfg["sweep.methods"])
    l_grid = parse_int_list(cfg["sweep.l_grid"])
    n_grid = parse_int_list(cfg["sweep.n_grid"])
    p_grid = parse_int_list(cfg["sweep.p_grid"])
    seeds = parse_int_list(cfg["sweep.chip_seeds"])
    if not (methods and l_grid and n_grid and p_grid and seeds):
        raise ConfigError("sweep grids must be non-empty")

    lines = ["method,l,n,p,accuracy_mean,accuracy_std"]
    for method, l, n, p in itertools.product(methods, l_grid, n_grid, p_grid):
        n_eff = n or dataset.channel_count
        sub_train = _restrict_channels(train_set, n_eff)
        sub_test = _restrict_channels(test_set, n_eff)
        frontend = _frontend_from_cfg(cfg, n_eff, p=p)
        point_cfg = dict(cfg)
        point_cfg["train.method"] = method
        accs = []
        for seed in seeds:
            chip = _chip_for(cfg, d=frontend.rows, seed=seed, l=l)
            hidden, targets = collect_H(
                sub_train,
                chip,
                frontend,
                noise_on=cfg["train.noise_on"],
                sample_policy=cfg["train.sample_policy"],
                trap=_trap_from_cfg(cfg),
                normalize=cfg["decoder.normalize"],
                noise_seed=cfg["train.noise_seed"],
            )
            weights = fit_output_weights(hidden, targets, **_fit_kwargs(point_cfg))
            model = _model_from_weights(cfg, weights, frontend, dataset.class_count, chip)
            report = evaluate(
                sub_test,
                model,
                chip,
                noise_on=cfg["decoder.noise_on"],
                noise_seed=cfg["decoder.noise_seed"],
                tol_ms=cfg["decoder.tol_ms"],
            )
            accs.append(report.accuracy)
        mean, std = float(np.mean(accs)), float(np.std(accs))
        lines.append(f"{method},{l},{n_eff},{p},{mean!r},{std!r}")
        _note(f"{method} l={l} n={n_eff} p={p}: accuracy {mean:.4f} +/- {std:.4f}")
    out.write_text("\n".join(lines) + "\n")
    _echo(cfg)
    _note(f"wrote {len(lines) - 1} sweep points to {out}")
    return EXIT_OK


def cmd_budget(args, cfg: dict) -> int:
    fields = (
        "d l c f_class_hz p_analog_w p_digital_w e_mac_digital_j f_bio_hz "
        "f_deco_hz address_bits channel_count raw_channels raw_sample_rate_hz "
        "raw_resolution_bits"
    ).split()
    inputs = BudgetInputs(**{name: cfg[f"budget.{name}"] for name in fields})
    report = budget_report(inputs)
    _echo(cfg)
    for line in format_budget(report).splitlines():
        _note(line)
    if args.out:
        out = _fresh_path(Path(args.out), args.force)
        out.write_text(budget_json(report) + "\n")
        _note(f"wrote budget JSON to {out}")
    return EXIT_OK


COMMANDS = {
    "gen": cmd_gen,
    "chip": cmd_chip,
    "train": cmd_train,
    "eval": cmd_eval,
    "stream": cmd_stream,
    "roc": cmd_roc,
    "sweep": cmd_sweep,
    "budget": cmd_budget,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd is None:
            raise UsageError("a subcommand is required (see --help)")
        cfg = resolve_config(args.config, args.set, args.seed)
        return COMMANDS[args.cmd](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (np.linalg.LinAlgError, DegenerateInputError, ConvergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DatasetError, TrainingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
