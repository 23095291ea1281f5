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
* Exit codes: 0 success, 1 usage error, 2 data/validation error (or a run
  too large for memory), 3 numerical failure.
* Every key's domain is checked before any file is read.  The checks that
  need the data follow it, each by its key: ``sweep.n_grid`` against the
  channel count, the rows per channel against 128, ``chip.d`` against the
  front end's rows, a split that leaves ``sweep`` no training trial, and
  T2's one penalty, all before H is collected.  A setting that no part of
  the run would use is refused by its key rather than echoed: a
  ``frontend.link_delay`` where every front end has one row per channel
  (checked against a model's rows once the model is read), and in
  ``sweep`` a ``chip.l``, ``frontend.p`` or ``chip.seed`` that its grids
  replace.
* Every output path (``--out``, ``chip``'s ``--dump``) is checked before any
  work.  One that is missing (but in ``eval`` and ``budget``), exists without
  ``--force``, is of the wrong kind, lies in no directory (``gen`` makes its
  own) or names another output or an input is a usage error.
* Every command holds one trial's events at a time: ``gen`` writes each
  trial as it is made, and the others read the manifest first and each
  event file only when the front end reaches that trial (``stream`` reads
  its one trial's, ``sweep`` each trial's once, coded by every front end of
  its grid), so a bad event file exits 2, naming its line, before any
  output is written.
"""

from __future__ import annotations

import argparse
import itertools
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .analog import (ChipInstance, build_chip, load_chip, mismatch_map, save_chip,
                     write_mismatch_map)
from .budget import budget_json, budget_report, format_budget
from .config import (DECODER_KEYS, DEFAULTS, ConfigError, echo_config, format_value,
                     parse_int_list, parse_str_list, resolve_config, section)
from .decoder import (DecoderModel, check_chip, decode_stream, evaluate, load_model,
                      plateau_ticks, plateau_votes, roc_sweep, save_model, split_dataset,
                      write_roc_csv, write_stream_csv)
from .fields import FieldError, check_values, under
from .frontend import MAX_ROWS, FrontendConfig, run_trial, tick_count
from .spikeio import (ChannelCountError, ChannelRangeError, Dataset, DatasetError, read_manifest,
                      synthetic_metadata, synthetic_trials, write_trials)
from .training import (ConvergenceError, TrainingError, check_penalties, collect_H,
                       fit_output_weights, hidden_rows)

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
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
    common.add_argument("--seed", type=int, help="set synth.seed and chip.seed in one stroke")
    common.add_argument("--out", help="primary output path")
    common.add_argument("--force", action="store_true", help="overwrite an existing output")

    parser = _Parser(prog="mlcpsim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd")

    sub.add_parser("gen", parents=[common], help="generate a synthetic spike dataset")

    p_chip = sub.add_parser("chip", parents=[common], help="instantiate a chip and save it")
    p_chip.add_argument("--dump", metavar="CSV", help="also write the mismatch map")

    p_train = sub.add_parser("train", parents=[common], help="train output weights")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--chip", help="chip file (default: build from chip.seed)")

    decode = {"eval": "score a model on a dataset", "stream": "per-tick decode of one trial",
              "roc": "onset-threshold ROC sweep"}
    for name, text in decode.items():
        p_decode = sub.add_parser(name, parents=[common], help=text)
        p_decode.add_argument("--data", required=True)
        p_decode.add_argument("--model", required=True)
        p_decode.add_argument("--chip", help="chip file (default: rebuild from the model's seed)")
        if name == "stream":
            p_decode.add_argument("--trial", help="trial id, else index (default: stream.trial)")

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


def _check_outputs(args) -> None:
    """The output rule of the conventions above; ``gen --force`` clears the old set."""
    if not args.out and args.cmd not in ("eval", "budget"):
        raise UsageError("this command requires --out")
    names = ("out", "dump", "data", "model", "chip", "config")  # the outputs first
    paths = [(f"--{name}", Path(path)) for name in names if (path := getattr(args, name, None))]
    directory = args.cmd == "gen"  # gen's one output is a dataset directory
    for i, (flag, path) in enumerate(paths):
        if flag not in ("--out", "--dump"):
            break
        for other, other_path in paths[i + 1:]:
            if path.resolve() == other_path.resolve():
                raise UsageError(f"{flag} {path} and {other} {other_path} name one path")
        if not path.exists():
            if not (directory or path.parent.is_dir()):
                raise UsageError(f"{flag} {path}: its directory {path.parent} does not exist")
        elif path.is_dir() != directory:
            raise UsageError(f"{flag} {path} is {'not ' * directory}a directory")
        elif not args.force:
            raise UsageError(f"{path} exists; pass --force to overwrite")
        elif directory:  # forced: gen writes its dataset afresh
            shutil.rmtree(path)


def _frontend_from_cfg(cfg: dict, n_channels: int, p: int | None = None,
                       p_key: str = "frontend.p", source: str = "the dataset") -> FrontendConfig:
    """The ``frontend.*`` front end on ``n_channels`` channels (over ``MAX_ROWS``
    refused as ``source``'s), ``p`` rows per channel (default: ``frontend.p``;
    one that the row limit refuses is named by ``p_key``)."""
    if n_channels > MAX_ROWS:  # too many at one row per channel
        raise ConfigError(f"{source} gives {n_channels} channels, but a chip has at most "
                          f"{MAX_ROWS} rows, one or more per channel")
    fe = section(cfg, "frontend")
    p = fe.p if p is None else p
    if n_channels * p > MAX_ROWS:  # p rows per channel are too many
        raise FieldError(p_key, f"an integer >= 1 and <= {MAX_ROWS // n_channels} on "
                         f"{n_channels} channels", p, "")
    return FrontendConfig.tdbdi(n_channels, p, fe.link_delay, fe.t_s_ms)


def _refuse_unused_link_delay(cfg: dict, p_values: list, p_key: str) -> None:
    """Refuse a ``frontend.link_delay`` other than its default when every
    front end of the run (``p_values`` rows per channel, set by ``p_key``)
    has one row per channel, so no row is delayed."""
    default = DEFAULTS["frontend.link_delay"]
    if cfg["frontend.link_delay"] != default and max(p_values) == 1:
        raise FieldError("frontend.link_delay", f"{default} where {{}} is 1, which delays no row",
                         cfg["frontend.link_delay"], p_key)


def _noise_seed(cfg: dict, name: str) -> int | None:
    """``name.noise_seed`` (train or decoder) if ``name.noise_on``, else None."""
    return cfg[f"{name}.noise_seed"] if cfg[f"{name}.noise_on"] else None


def _trainer(cfg: dict, dataset: Dataset, frontend, methods: list, codes: list | None = None,
             score: bool = False, out: np.ndarray | None = None, type_only: bool = False):
    """Check the T2 penalties, then return ``train(chip)``: one model per
    training method, in ``methods`` order, fitted on one H collected on the chip
    (from ``codes``, the trials' front-end codes, if given) into ``out`` (None:
    a new H per chip).  T2 fits first, so the last fit, which may overwrite H,
    is a T1 fit whenever there is one.  ``score`` adds ``train_accuracy`` to
    each report: the evaluation vote on the training set itself, an optimistic
    figure.  ``type_only`` leaves a T1 model's onset column zero
    (``fit_output_weights``)."""
    penalties = {name: cfg[f"train.{name}"]
                 for name in ("ridge_lambda", "l1_lambda", "target_sparsity")}
    for method in methods:
        check_penalties(method, **penalties)
    noise_seed, policy = _noise_seed(cfg, "train"), cfg["train.sample_policy"]
    trap, m = section(cfg, "trap"), dataset.class_count
    decoder = {name: cfg[f"decoder.{name}"] for name in DECODER_KEYS}

    def train(chip) -> list:
        hidden, targets = collect_H(dataset, chip, frontend, noise_seed=noise_seed,
                                    sample_policy=policy, trap=trap,
                                    normalize=cfg["decoder.normalize"], codes=codes, out=out)
        if score:  # the plateau rows, taken before the last fit may reorder H
            labels = np.array([trial.label for trial in dataset.trials])
            on, n_votes = plateau_ticks(trap, frontend, hidden.n_ticks)
            plateau = hidden.h[np.concatenate([on[:n] for n in hidden.n_ticks])]
        models = [None] * len(methods)
        order = sorted(range(len(methods)), key=lambda i: methods[i] == "T1")
        for i in order:  # no later fit reads H, so the last may overwrite it
            w = fit_output_weights(hidden, targets, method=methods[i], refit=cfg["train.refit"],
                                   overwrite_h=i == order[-1], type_only=type_only, **penalties)
            if score:
                votes = plateau_votes(plateau @ w.beta[:, :m], n_votes, m)
                w.report["train_accuracy"] = np.count_nonzero(votes == labels) / len(labels)
            models[i] = DecoderModel(w.beta, w.support, m, frontend=frontend,
                                     chip_seed=chip.seed, fmax_sel=chip.params.fmax_sel,
                                     trap=trap, report=w.report, **decoder)
        return models

    return train


def _resolve(cfg: dict, sources: dict) -> None:
    """Set each key that a source fixes (``sources`` is ``{source: {key:
    value}}``, chip file first) to its value there, the one the run uses, so
    the echo shows it.  A setting other than the key's default and that
    value, or two sources that disagree, is an error."""
    fixed = {}  # key -> the source that set it
    for source, values in sources.items():
        for key, value in values.items():
            if key in fixed and cfg[key] != value:
                raise ConfigError(f"the {fixed[key]}'s {key} = {format_value(cfg[key])} differs "
                                  f"from the {source}'s {format_value(value)}")
            if key not in fixed and cfg[key] not in (DEFAULTS[key], value):
                if source == "front end":  # its one key, chip.d, whose default 0 defers to it
                    raise FieldError(key, f"0 or the front end's row count {value}", cfg[key], "")
                raise ConfigError(f"{key} = {format_value(cfg[key])} differs from the {source}'s "
                                  f"{format_value(value)}; the {source}'s value is used, so drop "
                                  f"the setting or make another {source} with it")
            cfg[key], fixed[key] = type(DEFAULTS[key])(value), source


def _chip(cfg: dict, path: str | None, d: int, model: DecoderModel | None = None):
    """The run's chip: the chip file at ``path``, else the chip of the
    ``analog.*`` and ``chip.*`` keys, built after ``_resolve`` has set the
    keys that the chip file, the ``model`` and a front end of ``d`` rows fix."""
    chip, sources = load_chip(path) if path else None, {}
    if chip:
        if model:  # a chip of another shape is named by both D or both L
            check_chip(model, chip)
        sources["chip file"] = {**{f"analog.{k}": v for k, v in asdict(chip.params).items()},
                                "chip.seed": chip.seed, "chip.d": chip.d, "chip.l": chip.l}
    if model:
        fe = model.frontend
        p = fe.rows // fe.n_external
        sources["model"] = {
            **{f"decoder.{k}": getattr(model, k) for k in DECODER_KEYS},
            **{f"trap.{k}": v for k, v in asdict(model.trap).items()},
            "analog.fmax_sel": model.fmax_sel, "chip.seed": model.chip_seed,
            "chip.l": model.beta.shape[0], "frontend.p": p, "frontend.t_s_ms": fe.t_s_ms,
            **({"frontend.link_delay": fe.delay_of(1)} if p > 1 else {})}
    _resolve(cfg, {**sources, "front end": {"chip.d": d}})
    if model:  # the model's p, now in cfg
        _refuse_unused_link_delay(cfg, [cfg["frontend.p"]], "frontend.p")
    if chip:
        return chip
    params = section(cfg, "analog")
    with under("chip."):
        return build_chip(cfg["chip.seed"], params, d=cfg["chip.d"], l=cfg["chip.l"])


@contextmanager
def _load_runtime(cfg: dict, args):
    """(dataset, model, chip, noise seed) for the eval/stream/roc decode in
    the ``with`` block: the manifest, whose event files the decode reads,
    and must match the model's front end in channel count, in
    ``meta.txt`` and in every event.  The chip is the ``--chip`` file or the
    model's (``_chip``)."""
    model = load_model(args.model)
    chip = _chip(cfg, args.chip, model.frontend.rows, model)
    channels = model.frontend.n_external
    try:
        yield read_manifest(args.data, channels), model, chip, _noise_seed(cfg, "decoder")
    except (ChannelCountError, ChannelRangeError) as exc:
        raise ChannelCountError(f"the model's front end takes {channels} channels: {exc}") from exc


def _grid_codes(view: Dataset, frontends: dict, ticks: np.ndarray | None = None) -> dict:
    """``{(n, p): codes}``: each trial's uint8 codes (0..63, so exact) on
    ``frontends[n, p]``, from its events on channels < n (the synthetic
    layout spreads classes evenly); with ``ticks``, a mask over tick numbers,
    only the ticks it marks.  Each trial is read once and dropped."""
    codes = {key: [] for key in frontends}
    for trial in map(view.trial, range(len(view.trials))):
        for (n, p), frontend in frontends.items():
            keep = trial.channels < n
            x = run_trial(frontend, replace(trial, times_us=trial.times_us[keep],
                                            channels=trial.channels[keep]))
            codes[n, p].append((x if ticks is None else x[ticks[:len(x)]]).astype(np.uint8))
    for key, parts in codes.items():  # one array per front end, split by trial: kept
        # as many small arrays, the codes fragment the heap (a higher peak RSS)
        codes[key] = np.split(np.concatenate(parts), np.cumsum([len(x) for x in parts])[:-1])
    return codes


# ------------------------------------------------------------- commands

def cmd_gen(args, cfg: dict) -> int:
    params = section(cfg, "synth")
    n = write_trials(args.out, synthetic_trials(params), params.q, params.m,
                     synthetic_metadata(params))
    _echo(cfg)
    _note(f"wrote {n} trials to {args.out}")
    return EXIT_OK


def cmd_chip(args, cfg: dict) -> int:
    try:  # synth.q sets the chip's D when chip.d is 0
        check_values(ChipInstance, {"d": cfg["chip.d"] or cfg["synth.q"]})
    except FieldError as exc:
        raise FieldError("synth.q", *exc.args[1:]) from None
    chip = _chip(cfg, None, cfg["chip.d"] or cfg["synth.q"])
    # the map, if asked for, before anything is written
    values = mismatch_map(chip, probe_code=cfg["chip.probe_code"]) if args.dump else None
    save_chip(chip, args.out)
    _echo(cfg)
    _note(f"wrote chip (D={chip.d}, L={chip.l}, seed={chip.seed}) to {args.out}")
    if args.dump:
        write_mismatch_map(args.dump, values)
        _note(f"wrote mismatch map to {args.dump}")
    return EXIT_OK


def cmd_train(args, cfg: dict) -> int:
    _refuse_unused_link_delay(cfg, [cfg["frontend.p"]], "frontend.p")
    dataset = read_manifest(args.data)  # events are read as H is collected
    frontend = _frontend_from_cfg(cfg, dataset.channel_count)
    chip = _chip(cfg, args.chip, frontend.rows)
    [model] = _trainer(cfg, dataset, frontend, [cfg["train.method"]], score=True)(chip)
    save_model(model, args.out)
    _echo(cfg)
    _note(f"trained {cfg['train.method']} on {len(dataset.trials)} trials")
    _note(f"train_accuracy = {model.report['train_accuracy']:.4f}")
    _note(f"pruned = {int(np.sum(~model.support))} of {model.support.size} neurons")
    _note(f"wrote model to {args.out}")
    return EXIT_OK


def cmd_eval(args, cfg: dict) -> int:
    with _load_runtime(cfg, args) as (dataset, model, chip, noise_seed):
        report = evaluate(dataset, model, chip, noise_seed=noise_seed, tol_ms=cfg["decoder.tol_ms"])
    _echo(cfg)
    _note(f"accuracy = {report.accuracy:.4f} over {report.n_trials} trials")
    _note(f"onset tpr = {report.tpr:.4f}, fp/trial = {report.fp_per_trial:.4f}")
    if args.out:
        Path(args.out).write_text(report.to_json())
        _note(f"wrote report to {args.out}")
    else:
        sys.stdout.write(report.to_json())
    return EXIT_OK


def cmd_stream(args, cfg: dict) -> int:
    if args.trial is not None:  # so the echo names the trial streamed
        cfg["stream.trial"] = args.trial
    with _load_runtime(cfg, args) as (dataset, model, chip, noise_seed):
        idx = dataset.index(cfg["stream.trial"])
        result = decode_stream(dataset, idx, model, chip, noise_seed)
    write_stream_csv(args.out, result)
    _echo(cfg)
    _note(f"streamed trial {dataset.trials[idx].id} ({len(result.t_ms)} ticks) to {args.out}")
    return EXIT_OK


def cmd_roc(args, cfg: dict) -> int:
    grid = np.linspace(cfg["roc.theta_min"], cfg["roc.theta_max"], cfg["roc.points"])
    with _load_runtime(cfg, args) as (dataset, model, chip, noise_seed):
        points = roc_sweep(dataset, model, chip, theta_grid=grid, noise_seed=noise_seed,
                           tol_ms=cfg["decoder.tol_ms"])
    write_roc_csv(args.out, points)
    _echo(cfg)
    _note(f"wrote {len(points)} ROC points to {args.out}")
    return EXIT_OK


def cmd_sweep(args, cfg: dict) -> int:
    methods = parse_str_list(cfg["sweep.methods"])
    l_grid, n_grid, p_grid, seeds = (parse_int_list(cfg[f"sweep.{key}"])
                                     for key in ("l_grid", "n_grid", "p_grid", "chip_seeds"))
    # every point takes these from the grid instead; a chip.seed that --seed
    # set may name a point's seed, which the echo then shows
    for key, grid, also in (("chip.l", "sweep.l_grid", []), ("frontend.p", "sweep.p_grid", []),
                            ("chip.seed", "sweep.chip_seeds", seeds)):
        if cfg[key] != DEFAULTS[key] and cfg[key] not in also:
            raise FieldError(key, f"{DEFAULTS[key]} in a sweep, which runs every point of {{}}"
                             + (", or one of its items" if also else ""), cfg[key], grid)
    _refuse_unused_link_delay(cfg, p_grid, "sweep.p_grid")
    dataset = read_manifest(args.data)
    train_set, test_set = split_dataset(dataset, cfg["split.test_fraction"], cfg["split.seed"])
    channels = dataset.channel_count
    n_grid = [n or channels for n in n_grid]  # 0 = every channel
    for i, n in enumerate(n_grid):
        if n > channels or n in n_grid[:i]:
            raise FieldError("sweep.n_grid", f"an integer >= 0 and <= {channels} (0 is "
                             f"{channels}), each listed once", n, "")
    noise_seed = _noise_seed(cfg, "decoder")
    frontends = {(n, p): _frontend_from_cfg(cfg, n, p, "sweep.p_grid", "sweep.n_grid")
                 for n, p in itertools.product(n_grid, p_grid)}
    for frontend in frontends.values():  # every grid point's chip has its front end's rows
        _resolve(dict(cfg), {"front end": {"chip.d": frontend.rows}})
    if not train_set.trials:
        raise ConfigError(f"split.test_fraction = {cfg['split.test_fraction']!r} leaves no "
                          "training trials: the split keeps at least one test trial per class")

    # H depends on the data, the front end and the chip, never on the trainer:
    # each trial is read once and coded once per (n, p), and hidden rows are
    # made once per chip, each H into one buffer.  The type vote reads only
    # plateau ticks, so only those test codes are kept.
    first = frontends[n_grid[0], p_grid[0]]  # every front end has the same tick
    test_ticks = np.array([tick_count(first, t) for t in test_set.trials])
    on, n_votes = plateau_ticks(section(cfg, "trap"), first, test_ticks)
    train_codes = _grid_codes(train_set, frontends)
    test_codes = _grid_codes(test_set, frontends, on)
    buffer = np.empty(sum(tick_count(first, t) for t in train_set.trials) * max(l_grid))
    accuracy, labels = {}, np.array([trial.label for trial in test_set.trials])
    for (n, p), frontend in frontends.items():
        train = _trainer(cfg, train_set, frontend, methods, train_codes.pop((n, p)), out=buffer,
                         type_only=True)
        codes = test_codes.pop((n, p))
        for l, seed in itertools.product(l_grid, seeds):
            chip = _chip({**cfg, "chip.seed": seed, "chip.l": l}, None, frontend.rows)
            models = train(chip)
            h = hidden_rows(codes, test_ticks, chip, cfg["decoder.normalize"], noise_seed,
                            ticks=(on, n_votes))
            for method, model in zip(methods, models):  # the type vote alone
                right = plateau_votes(h @ model.beta, n_votes, dataset.class_count) == labels
                accuracy[method, l, n, p, seed] = np.count_nonzero(right) / len(labels)
            del h, models  # before the next chip's

    lines = ["method,l,n,p,accuracy_mean,accuracy_std"]
    for method, l, n, p in itertools.product(methods, l_grid, n_grid, p_grid):
        accs = [accuracy[method, l, n, p, seed] for seed in seeds]
        mean, std = float(np.mean(accs)), float(np.std(accs))
        lines.append(f"{method},{l},{n},{p},{mean!r},{std!r}")
        _note(f"{method} l={l} n={n} p={p}: accuracy {mean:.4f} +/- {std:.4f}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    _echo(cfg)
    _note(f"wrote {len(lines) - 1} sweep points to {args.out}")
    return EXIT_OK


def cmd_budget(args, cfg: dict) -> int:
    inputs = section(cfg, "budget")
    with under("budget."):
        report = budget_report(inputs)
    _echo(cfg)
    for line in format_budget(report).splitlines():
        _note(line)
    if args.out:
        Path(args.out).write_text(budget_json(report) + "\n")
        _note(f"wrote budget JSON to {args.out}")
    return EXIT_OK


COMMANDS = {"gen": cmd_gen, "chip": cmd_chip, "train": cmd_train, "eval": cmd_eval,
            "stream": cmd_stream, "roc": cmd_roc, "sweep": cmd_sweep, "budget": cmd_budget}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd is None:
            raise UsageError("a subcommand is required (see --help)")
        cfg = resolve_config(args.config, args.set, args.seed)
        _check_outputs(args)
        return COMMANDS[args.cmd](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (np.linalg.LinAlgError, ConvergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DatasetError, TrainingError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
