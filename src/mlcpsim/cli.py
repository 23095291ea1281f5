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
    build_chip,
    load_chip,
    mismatch_map,
    save_chip,
    write_mismatch_map,
)
from .budget import budget_json, budget_report, format_budget
from .config import (
    DECODER_KEYS,
    ConfigError,
    echo_config,
    parse_int_list,
    parse_str_list,
    resolve_config,
    section,
)
from .decoder import (
    DecoderModel,
    decode_stream,
    evaluate,
    load_model,
    plateau_class,
    roc_sweep,
    save_model,
    split_dataset,
    write_roc_csv,
    write_stream_csv,
)
from .frontend import FrontendConfig, run_trial
from .spikeio import (
    DatasetError,
    SpikeDataset,
    Trial,
    gen_synthetic,
    parse_dataset,
    write_dataset,
)
from .training import (
    ConvergenceError,
    TrainingError,
    collect_H,
    fit_output_weights,
    hidden_streams,
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


def _frontend_from_cfg(cfg: dict, n_channels: int, p: int | None = None) -> FrontendConfig:
    t_s = cfg["frontend.t_s_ms"]
    p = cfg["frontend.p"] if p is None else p
    if cfg["frontend.mode"] not in ("direct", "tdbdi"):
        raise ConfigError(f"unknown frontend.mode {cfg['frontend.mode']!r} "
                          "(expected direct or tdbdi)")
    if cfg["frontend.mode"] == "direct" or p == 1:
        return FrontendConfig.direct(n_channels, t_s_ms=t_s)
    return FrontendConfig.tdbdi(n_channels, p, link_delay=cfg["frontend.link_delay"], t_s_ms=t_s)


def _chip_for(cfg: dict, d: int, seed: int | None = None, l: int | None = None):
    return build_chip(
        cfg["chip.seed"] if seed is None else seed,
        section(cfg, "analog"),
        d=d,
        l=cfg["chip.l"] if l is None else l,
    )


def _train_models(cfg: dict, dataset: SpikeDataset, chip, frontend, methods: list,
                  codes: list | None = None) -> tuple:
    """(hidden, one model per training method): H is collected once
    on the chip, from ``codes`` if the trials' front-end codes are given."""
    hidden, targets = collect_H(
        dataset,
        chip,
        frontend,
        noise_on=cfg["train.noise_on"],
        sample_policy=cfg["train.sample_policy"],
        trap=section(cfg, "trap"),
        normalize=cfg["decoder.normalize"],
        noise_seed=cfg["train.noise_seed"],
        codes=codes,
    )
    l1, sparsity = cfg["train.l1_lambda"], cfg["train.target_sparsity"]
    models = []
    for method in methods:
        weights = fit_output_weights(
            hidden,
            targets,
            method=method,
            ridge_lambda=cfg["train.ridge_lambda"],
            l1_lambda=None if l1 < 0 else l1,
            target_sparsity=None if sparsity < 0 else sparsity,
            refit=cfg["train.refit"],
        )
        models.append(DecoderModel.from_training(
            weights,
            m=dataset.class_count,
            frontend=frontend,
            chip_seed=chip.seed,
            fmax_sel=chip.params.fmax_sel,
            trap=section(cfg, "trap"),
            **{name: cfg[f"decoder.{name}"] for name in DECODER_KEYS},
        ))
    return hidden, models


def _load_runtime(cfg: dict, args) -> tuple[SpikeDataset, DecoderModel, object]:
    """Dataset + model + chip for the eval/stream/roc commands."""
    dataset = parse_dataset(args.data)
    model = load_model(args.model)
    if args.chip:
        chip = load_chip(args.chip)
    else:
        params = section(cfg, "analog")
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
    dataset = gen_synthetic(section(cfg, "synth"))
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
    chip = load_chip(args.chip) if args.chip else _chip_for(cfg, d=frontend.rows)
    hidden, [model] = _train_models(cfg, dataset, chip, frontend, [cfg["train.method"]])
    # an optimistic sanity figure: the evaluation vote on the training set itself
    bounds = np.searchsorted(hidden.trial_index, np.arange(1, len(dataset.trials)))
    scores = np.split(hidden.h @ model.beta[:, : model.m], bounds)
    correct = sum(plateau_class(o, model) == t.label for o, t in zip(scores, dataset.trials))
    model.report["train_accuracy"] = correct / len(dataset.trials)
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
    result = decode_stream(trial, model, chip, rng=rng)
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
    if cfg["frontend.mode"] == "direct" and max(p_grid) > 1:
        raise ConfigError(f"sweep.p_grid has p={max(p_grid)}, but frontend.mode=direct builds "
                          "one row per channel; set frontend.mode=tdbdi or sweep.p_grid=1")

    # H depends on the data, the front end and the chip, never on the trainer:
    # codes are computed once per (n, p) and hidden streams once per chip
    accuracy = {}
    for n in n_grid:
        n_eff = n or dataset.channel_count
        sub_train = _restrict_channels(train_set, n_eff)
        sub_test = _restrict_channels(test_set, n_eff)
        for p in p_grid:
            frontend = _frontend_from_cfg(cfg, n_eff, p=p)
            # codes are 0..63, so uint8 holds them exactly
            train_codes = [run_trial(frontend, t).astype(np.uint8) for t in sub_train.trials]
            test_codes = [run_trial(frontend, t).astype(np.uint8) for t in sub_test.trials]
            for l, seed in itertools.product(l_grid, seeds):
                chip = _chip_for(cfg, d=frontend.rows, seed=seed, l=l)
                # keep no reference to H, or two chips' H would be alive at once
                models = _train_models(cfg, sub_train, chip, frontend, methods, train_codes)[1]
                streams = list(hidden_streams(test_codes, chip, cfg["decoder.normalize"],
                                              cfg["decoder.noise_on"], cfg["decoder.noise_seed"]))
                for method, model in zip(methods, models):
                    report = evaluate(sub_test, model, chip, tol_ms=cfg["decoder.tol_ms"],
                                      outputs=[h @ model.beta for h in streams])
                    accuracy[method, l, n_eff, p, seed] = report.accuracy
                del streams  # before the next chip's

    lines = ["method,l,n,p,accuracy_mean,accuracy_std"]
    for method, l, n, p in itertools.product(methods, l_grid, n_grid, p_grid):
        n_eff = n or dataset.channel_count
        accs = [accuracy[method, l, n_eff, p, seed] for seed in seeds]
        mean, std = float(np.mean(accs)), float(np.std(accs))
        lines.append(f"{method},{l},{n_eff},{p},{mean!r},{std!r}")
        _note(f"{method} l={l} n={n_eff} p={p}: accuracy {mean:.4f} +/- {std:.4f}")
    out.write_text("\n".join(lines) + "\n")
    _echo(cfg)
    _note(f"wrote {len(lines) - 1} sweep points to {out}")
    return EXIT_OK


def cmd_budget(args, cfg: dict) -> int:
    report = budget_report(section(cfg, "budget"))
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
    except (np.linalg.LinAlgError, ConvergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DatasetError, TrainingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
