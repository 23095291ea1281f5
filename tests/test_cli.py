"""End-to-end tests of the command-line surface (in-process via main)."""

import ast
import contextlib
import dataclasses
import importlib.util
import io
import json
import re
import shutil
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from mlcpsim import cli, decoder, spikeio, training
from mlcpsim.analog import AnalogParams, build_chip, load_chip
from mlcpsim.cli import main
from mlcpsim.config import parse_config_text, resolve_config
from mlcpsim.decoder import load_model
from mlcpsim.training import collect_H
from cli_oracle import oracle_sweep
from decoder_oracle import plateau_class
from test_files import DEFECT_CASES, write_defective

EASY_GEN = [
    "--set", "synth.q=8",
    "--set", "synth.m=2",
    "--set", "synth.trials_per_class=4",
    "--set", "synth.peak_rate=100",
    "--set", "synth.baseline_rate=4",
    "--set", "synth.tuning_width=1.0",
]
SMALL_CHIP = ["--set", "chip.l=16"]


def read_tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def easy_run(tmp_path, capsys):
    """Dataset + trained model on a separable 2-class set."""
    ds = tmp_path / "ds"
    model = tmp_path / "model.json"
    assert run(capsys, "gen", "--out", str(ds), "--seed", "3", *EASY_GEN)[0] == 0
    assert run(capsys, "train", "--data", str(ds), "--out", str(model),
               "--seed", "3", *SMALL_CHIP)[0] == 0
    return ds, model


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "subcommand" in err


def test_unrecognized_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "budget", "--bogus")
    assert code == 1


def test_unknown_config_key_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--out", str(tmp_path / "x"), "--set", "nope=1")
    assert code == 2
    assert "unknown configuration key" in err


def test_bad_value_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--out", str(tmp_path / "x"), "--set", "synth.q=abc")
    assert code == 2


def test_missing_dataset_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "train", "--data", str(tmp_path / "nowhere"),
                       "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert "nowhere" in err


def test_gen_deterministic_and_overwrite_guard(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "gen", "--out", str(a), "--seed", "5", *EASY_GEN)[0] == 0
    assert run(capsys, "gen", "--out", str(b), "--seed", "5", *EASY_GEN)[0] == 0
    assert read_tree(a) == read_tree(b)
    # refuses silently clobbering, then --force allows it
    code, _, err = run(capsys, "gen", "--out", str(a), "--seed", "5", *EASY_GEN)
    assert code == 1 and "--force" in err
    assert run(capsys, "gen", "--out", str(a), "--seed", "5", "--force", *EASY_GEN)[0] == 0
    assert read_tree(a) == read_tree(b)


def test_seed_flag_matches_explicit_seed_keys(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "gen", "--out", str(a), "--seed", "11", *EASY_GEN)[0] == 0
    assert run(capsys, "gen", "--out", str(b), "--set", "synth.seed=11", *EASY_GEN)[0] == 0
    assert read_tree(a) == read_tree(b)


def test_echo_is_reusable_config(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--out", str(tmp_path / "ds"), "--seed", "9", *EASY_GEN)
    assert code == 0
    echoed = parse_config_text(out)  # '#' lines are comments, so stdout parses whole
    expected = resolve_config(None, [a for a in EASY_GEN if a != "--set"], seed=9)
    assert echoed == expected
    # and feeding the echo back reproduces the dataset
    cfg_file = tmp_path / "echo.cfg"
    cfg_file.write_text(out)
    assert run(capsys, "gen", "--out", str(tmp_path / "ds2"), "--config", str(cfg_file))[0] == 0
    assert read_tree(tmp_path / "ds") == read_tree(tmp_path / "ds2")


@pytest.mark.parametrize("cmd, extra", [("train", []), ("eval", []), ("roc", []), ("stream", []),
                                        ("stream", ["--trial", "1"])],
                         ids=["train", "eval", "roc", "stream", "stream --trial 1"])
def test_echo_of_a_chip_train_or_decode_run_is_reusable_config(capsys, tmp_path, shared_run, cmd,
                                                               extra):
    ds, model = shared_run
    chip = tmp_path / "chip.json"  # the row count of 8 channels at p = 2
    assert run(capsys, "chip", "--out", str(chip), "--seed", "5", "--set", "chip.d=16",
               "--set", "chip.l=12")[0] == 0
    argv = (["train", "--data", str(ds), "--chip", str(chip), "--set", "frontend.mode=tdbdi",
             "--set", "frontend.p=2"]
            if cmd == "train" else [cmd, "--data", str(ds), "--model", str(model)])
    code, echo, _ = run(capsys, *argv, *extra, "--out", str(tmp_path / "a"))
    assert code == 0
    cfg_file = tmp_path / "echo.cfg"
    cfg_file.write_text(echo)
    code, again, _ = run(capsys, *argv[:5], "--config", str(cfg_file), "--out", str(tmp_path / "b"))
    assert code == 0
    assert again.replace(str(tmp_path / "b"), "") == echo.replace(str(tmp_path / "a"), "")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_chip_dump_and_roundtrip(capsys, tmp_path):
    chip_file, mm = tmp_path / "chip.json", tmp_path / "mm.csv"
    code, _, _ = run(capsys, "chip", "--out", str(chip_file), "--dump", str(mm),
                     "--seed", "7", "--set", "chip.d=6", "--set", "chip.l=10")
    assert code == 0
    chip = load_chip(chip_file)
    assert (chip.seed, chip.d, chip.l) == (7, 6, 10)
    lines = mm.read_text().splitlines()
    assert lines[0] == "neuron,row,value"
    assert len(lines) == 1 + 6 * 10
    values = [float(line.split(",")[2]) for line in lines[1:]]  # plain numbers
    assert all(v > 0 for v in values)


@pytest.mark.parametrize("dump", ["same", "dot", "absolute"])
def test_chip_refuses_a_dump_onto_its_own_out_file(capsys, tmp_path, monkeypatch, dump):
    monkeypatch.chdir(tmp_path)
    dump = {"same": "chip.json", "dot": "./chip.json", "absolute": str(tmp_path / "chip.json")}[dump]
    keys = ["--seed", "7", "--set", "chip.d=6", "--set", "chip.l=10"]
    code, _, err = run(capsys, "chip", "--out", "chip.json", "--dump", dump, *keys)
    assert code == 1 and "--dump" in err and "--out" in err, err
    assert not (tmp_path / "chip.json").exists()
    # with --force over a chip file, the chip is kept
    assert run(capsys, "chip", "--out", "chip.json", *keys)[0] == 0
    chip = (tmp_path / "chip.json").read_bytes()
    assert run(capsys, "chip", "--out", "chip.json", "--dump", dump, "--force", *keys)[0] == 1
    assert (tmp_path / "chip.json").read_bytes() == chip


#: One minimal argv per command, its inputs placeholders that no refused run
#: may read; each run also reads ``--config cfg.txt``, which sets nothing.
MINIMAL_ARGV = {"gen": ["gen"], "chip": ["chip"],
                "train": ["train", "--data", "ds", "--chip", "c.json"],
                **{cmd: [cmd, "--data", "ds", "--model", "m.json", "--chip", "c.json"]
                   for cmd in ("eval", "stream", "roc")},
                "sweep": ["sweep", "--data", "ds"], "budget": ["budget"]}
#: The calls that start a command's work once its outputs are checked.
WORK = ("read_manifest", "synthetic_trials", "write_trials", "build_chip", "load_chip",
        "save_chip", "mismatch_map", "load_model", "budget_report")


def _output_refusals(argv: list) -> list:
    """(case, the argv's output flags, a word of the refusal) for each output
    path that the output rule refuses in a run of ``argv``."""
    directory = argv[0] == "gen"
    same_kind, other_kind = ("olddir", "old.json") if directory else ("old.json", "olddir")
    cases = [("exists", ["--out", same_kind], "--force"),
             ("wrong kind", ["--out", other_kind, "--force"], "directory")]
    if argv[0] not in ("eval", "budget"):
        cases.append(("missing", [], "requires --out"))
    if not directory:
        cases.append(("no directory", ["--out", "nodir/x", "--force"], "nodir"))
    cases += [(f"names {flag}", ["--out", path, "--force"], flag)
              for flag, path in zip(argv[1::2], argv[2::2])]
    if argv[0] == "chip":
        dumps = [("exists", ["old.json"], "--force"),
                 ("wrong kind", ["olddir", "--force"], "directory"),
                 ("no directory", ["nodir/map.csv"], "nodir"),
                 ("names --out", ["./new.json"], "--out"),
                 ("names --config", ["cfg.txt", "--force"], "--config")]
        cases += [(f"--dump {case}", ["--out", "new.json", "--dump", *paths], word)
                  for case, paths, word in dumps]
    return cases


def _tree(root: Path) -> dict:
    """Every path under ``root``, directories too (unlike ``read_tree``), and
    each file's bytes."""
    return {p.relative_to(root): p.is_file() and p.read_bytes() for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("cmd", cli.COMMANDS)
def test_every_refused_output_is_refused_before_any_work(capsys, tmp_path, monkeypatch, cmd):
    monkeypatch.chdir(tmp_path)
    for name in WORK:
        monkeypatch.setattr(cli, name, lambda *_, name=name, **__: pytest.fail(f"{name} ran"))
    (tmp_path / "ds").mkdir()
    (tmp_path / "olddir").mkdir()
    for name in ("ds/manifest.csv", "olddir/kept", "m.json", "c.json", "old.json"):
        (tmp_path / name).write_text(name)
    (tmp_path / "cfg.txt").write_text("# sets nothing\n")
    argv = [*MINIMAL_ARGV[cmd], "--config", "cfg.txt"]  # a new command needs its argv
    before = _tree(tmp_path)
    for case, outputs, word in _output_refusals(argv):
        code, out, err = run(capsys, *argv, *outputs)
        assert (code, out) == (1, "") and word in err, (case, code, err)
        assert _tree(tmp_path) == before, case
    # and a fresh output passes the check, so the work starts
    with pytest.raises(pytest.fail.Exception):
        main([*argv, "--out", "new.json"])


def test_train_reports_high_accuracy_on_easy_set(easy_run):
    _, model_path = easy_run
    model = load_model(model_path)
    assert model.report["train_accuracy"] >= 0.95
    assert model.report["method"] == "T1"


def test_train_t2_respects_sparsity_target(capsys, tmp_path, easy_run):
    ds, _ = easy_run
    out = tmp_path / "t2.json"
    code, _, _ = run(capsys, "train", "--data", str(ds), "--out", str(out), "--seed", "3",
                     *SMALL_CHIP, "--set", "train.method=T2",
                     "--set", "train.target_sparsity=0.5")
    assert code == 0
    model = load_model(out)
    assert int(model.support.sum()) <= 8  # <= (1 - 0.5) * 16 neurons


def test_eval_writes_deterministic_report(capsys, tmp_path, easy_run):
    ds, model = easy_run
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (r1, r2):
        code, _, _ = run(capsys, "eval", "--data", str(ds), "--model", str(model),
                         "--out", str(out), "--seed", "3", *SMALL_CHIP)
        assert code == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["accuracy"] >= 0.9
    assert report["n_trials"] == 8


def test_eval_without_out_prints_json(capsys, easy_run):
    ds, model = easy_run
    code, out, _ = run(capsys, "eval", "--data", str(ds), "--model", str(model),
                       "--seed", "3", *SMALL_CHIP)
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert 0.0 <= payload["accuracy"] <= 1.0


def _eval_of_a_four_class_model(capsys, tmp_path, set_m: int) -> list:
    """The ``eval`` command line of a 4-class model on an ``set_m``-class set."""
    ds, model, other = tmp_path / "ds", tmp_path / "model.json", tmp_path / "other"
    small = ["--set", "synth.q=8", "--set", "synth.trials_per_class=5"]
    assert run(capsys, "gen", "--out", str(ds), "--seed", "3", "--set", "synth.m=4", *small)[0] == 0
    assert run(capsys, "train", "--data", str(ds), "--out", str(model), *SMALL_CHIP)[0] == 0
    assert run(capsys, "gen", "--out", str(other), "--seed", "4", "--set", f"synth.m={set_m}",
               *small)[0] == 0
    return ["eval", "--data", str(other), "--model", str(model), "--out", str(tmp_path / "r")]


def test_eval_scores_a_set_of_fewer_classes_in_the_models_matrix(capsys, tmp_path):
    assert run(capsys, *_eval_of_a_four_class_model(capsys, tmp_path, 2))[0] == 0
    report = json.loads((tmp_path / "r").read_text())
    confusion = np.array(report["confusion"])
    assert confusion.shape == (4, 4) and not confusion[2:].any()
    assert report["n_trials"] == 10 and report["accuracy"] == np.trace(confusion) / 10


def test_eval_refuses_a_label_above_the_models_classes_before_decoding(capsys, tmp_path,
                                                                        monkeypatch):
    argv = _eval_of_a_four_class_model(capsys, tmp_path, 6)
    monkeypatch.setattr(decoder, "_output_streams", _fail("a trial decoded"))
    code, _, err = run(capsys, *argv)
    first = next(row.id for row in spikeio.read_manifest(tmp_path / "other").trials
                 if row.label > 4)
    assert code == 2 and repr(first) in err and "M = 4" in err, err
    assert not (tmp_path / "r").exists()


def test_stream_csv_shape_and_determinism(capsys, tmp_path, easy_run):
    ds, model = easy_run
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (s1, s2):
        code, _, _ = run(capsys, "stream", "--data", str(ds), "--model", str(model),
                         "--out", str(out), "--trial", "1", "--seed", "3", *SMALL_CHIP)
        assert code == 0
    assert s1.read_bytes() == s2.read_bytes()
    lines = s1.read_text().splitlines()
    assert lines[0] == "tick_ms,o_1,o_2,o_3,s,G,G_track,F"
    assert len(lines) == 1 + 100  # 2 s trial at 20 ms ticks


def test_stream_selects_by_trial_id(capsys, tmp_path, easy_run):
    ds, model = easy_run
    by_idx, by_id = tmp_path / "i.csv", tmp_path / "n.csv"
    assert run(capsys, "stream", "--data", str(ds), "--model", str(model), "--out", str(by_idx),
               "--trial", "0", "--seed", "3", *SMALL_CHIP)[0] == 0
    assert run(capsys, "stream", "--data", str(ds), "--model", str(model), "--out", str(by_id),
               "--trial", "c01_r000", "--seed", "3", *SMALL_CHIP)[0] == 0
    assert by_idx.read_bytes() == by_id.read_bytes()
    code, _, err = run(capsys, "stream", "--data", str(ds), "--model", str(model),
                       "--out", str(tmp_path / "x.csv"), "--trial", "zzz", "--seed", "3",
                       *SMALL_CHIP)
    assert code == 2 and "zzz" in err


def test_stream_prints_each_tick_time_exactly(capsys, tmp_path):
    # a 19.999 ms tick is whole in µs; tick 51 ends at 1019.949 ms, not 1019.95
    ds, model, csv = tmp_path / "ds", tmp_path / "m.json", tmp_path / "s.csv"
    assert run(capsys, "gen", "--out", str(ds), "--seed", "3", *EASY_GEN,
               "--set", "synth.trial_duration_ms=2100")[0] == 0
    assert run(capsys, "train", "--data", str(ds), "--out", str(model), "--seed", "3",
               *SMALL_CHIP, "--set", "frontend.t_s_ms=19.999")[0] == 0
    assert run(capsys, "stream", "--data", str(ds), "--model", str(model),
               "--out", str(csv))[0] == 0
    times = [line.split(",")[0] for line in csv.read_text().splitlines()[1:]]
    assert len(times) > 101
    assert [Decimal(t) for t in times] == [Decimal((k + 1) * 19999) / 1000
                                           for k in range(len(times))]
    assert all(re.fullmatch(r"\d+(\.\d*[1-9])?", t) for t in times)  # no trailing zero or "."
    assert len(set(times)) == len(times)


def test_roc_grid_rows_sorted(capsys, tmp_path, easy_run):
    ds, model = easy_run
    out = tmp_path / "roc.csv"
    code, _, _ = run(capsys, "roc", "--data", str(ds), "--model", str(model),
                     "--out", str(out), "--seed", "3", *SMALL_CHIP,
                     "--set", "roc.points=8")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,tpr,fp_per_trial"
    assert len(lines) == 1 + 8
    thetas = [float(line.split(",")[0]) for line in lines[1:]]
    assert thetas == sorted(thetas)


def test_sweep_shape_and_determinism(capsys, tmp_path, easy_run):
    ds, _ = easy_run
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    sweep_args = ["--set", "sweep.l_grid=8,16", "--set", "sweep.chip_seeds=1,2",
                  "--set", "split.test_fraction=0.25"]
    for out in (s1, s2):
        code, _, _ = run(capsys, "sweep", "--data", str(ds), "--out", str(out), *sweep_args)
        assert code == 0
    assert s1.read_bytes() == s2.read_bytes()
    lines = s1.read_text().splitlines()
    assert lines[0] == "method,l,n,p,accuracy_mean,accuracy_std"
    assert len(lines) == 3
    assert lines[1].startswith("T1,8,8,1,")
    assert lines[2].startswith("T1,16,8,1,")


def test_sweep_equals_per_point_oracle(capsys, tmp_path):
    # codes shared per (n, p) and hidden streams shared per chip by T1, T2
    # and the test set must give what every point computed alone gave; at a
    # 12 dB mirror SNR the noisy streams move most accuracies, so each trial
    # must draw the same values as when computed alone
    ds, out = tmp_path / "ds", tmp_path / "sweep.csv"
    gen = ["--set", "synth.q=8", "--set", "synth.m=3", "--set", "synth.trials_per_class=6"]
    assert run(capsys, "gen", "--out", str(ds), "--seed", "4", *gen)[0] == 0
    sets = ["sweep.methods=T1,T2", "train.target_sparsity=0.3", "sweep.n_grid=5,0",
            "sweep.p_grid=1,2", "frontend.mode=tdbdi", "sweep.l_grid=8,12",
            "sweep.chip_seeds=1,2", "train.noise_on=true", "decoder.noise_on=true",
            "split.test_fraction=0.5", "analog.mirror_snr_db=12"]
    code, text, _ = run(capsys, "sweep", "--data", str(ds), "--out", str(out),
                        *[arg for s in sets for arg in ("--set", s)])
    assert code == 0
    want_csv, want_notes = oracle_sweep(resolve_config(None, sets), ds)
    assert out.read_text() == want_csv
    assert [line for line in text.splitlines() if ": accuracy " in line] == want_notes
    assert len(want_notes) == 16


def test_train_t2_on_a_silent_dataset_is_degenerate_not_an_error(capsys, tmp_path):
    ds, model = tmp_path / "ds", tmp_path / "m.json"
    assert run(capsys, "gen", "--out", str(ds), "--seed", "3", *EASY_GEN,
               "--set", "synth.peak_rate=0", "--set", "synth.baseline_rate=0")[0] == 0
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(model), "--seed", "3",
                       *SMALL_CHIP, "--set", "train.method=T2",
                       "--set", "train.target_sparsity=0.3")
    assert code == 0 and "Geometric" not in err
    saved = load_model(model)
    assert not saved.beta.any() and not saved.support.any()
    assert saved.report["degenerate"] is True


@pytest.mark.parametrize("normalize", ["true", "false"])
def test_train_on_counts_past_the_int64_range_saturates_every_counter(capsys, tmp_path,
                                                                      normalize):
    """At C_f = 1e-300 F every count is near 1e290, past what an int64
    holds: each saturates at the stop value 16384, so no neuron is pruned
    and no count is negative."""
    ds, model = tmp_path / "ds", tmp_path / "m.json"
    assert run(capsys, "gen", "--out", str(ds), "--seed", "3", "--set", "synth.q=8",
               "--set", "synth.m=2", "--set", "synth.trials_per_class=4")[0] == 0
    code, text, err = run(capsys, "train", "--data", str(ds), "--out", str(model),
                          *SMALL_CHIP, "--set", "analog.c_f_f=1e-300",
                          "--set", f"decoder.normalize={normalize}")
    assert code == 0, err
    assert "# pruned = 0 of 16 neurons" in text.splitlines()
    beta = load_model(model).beta
    if normalize == "false":  # H is 16384 everywhere: the minimum-norm beta has equal rows
        assert np.allclose(beta, beta[0], rtol=1e-9, atol=0)


def test_train_accuracy_votes_like_eval_when_no_trial_reaches_the_plateau(capsys, tmp_path):
    """Trials of 880 ms end before trap.t1_ms = 900 ms: with no plateau tick
    no trial has a vote, so every one is wrong, in training as in evaluation."""
    ds, model, report = tmp_path / "ds", tmp_path / "m.json", tmp_path / "r.json"
    assert run(capsys, "gen", "--out", str(ds), "--set", "synth.trial_duration_ms=880",
               "--set", "synth.onset_ms=500", "--set", "synth.trials_per_class=3")[0] == 0
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(model), *SMALL_CHIP)
    assert code == 0, err
    accuracy = load_model(model).report["train_accuracy"]
    assert accuracy == 0.0  # 12 classes, 3 trials each, none with a vote
    assert run(capsys, "eval", "--data", str(ds), "--model", str(model),
               "--out", str(report))[0] == 0
    assert json.loads(report.read_text())["accuracy"] == accuracy


@pytest.mark.parametrize("noise", ["false", "true"])
def test_train_accuracy_is_the_vote_of_each_trial_on_its_rows_of_H(capsys, tmp_path, noise):
    """A four-neuron chip classifies its own training set imperfectly; the
    reported accuracy is the share of trials whose plateau vote, taken
    trial by trial on that trial's rows of H times beta, is its label."""
    ds, model_path = tmp_path / "ds", tmp_path / "m.json"
    assert run(capsys, "gen", "--out", str(ds), "--seed", "3", "--set", "synth.q=8",
               "--set", "synth.m=4", "--set", "synth.trials_per_class=5")[0] == 0
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(model_path), "--seed", "3",
                       "--set", "chip.l=4", "--set", f"train.noise_on={noise}",
                       "--set", "train.noise_seed=11")
    assert code == 0, err
    model = load_model(model_path)
    dataset = spikeio.parse_dataset(ds)
    chip = build_chip(3, AnalogParams(), d=model.frontend.rows, l=4)
    hidden, _ = collect_H(dataset, chip, model.frontend, noise_seed=11 if noise == "true" else None)
    ends = np.cumsum(hidden.n_ticks)
    right = [plateau_class(hidden.h[end - n : end] @ model.beta, model) == trial.label
             for trial, end, n in zip(dataset.trials, ends, hidden.n_ticks)]
    assert 0 < np.mean(right) < 1
    assert model.report["train_accuracy"] == np.count_nonzero(right) / len(right)


def test_numeric_failures_map_to_exit_3(capsys, monkeypatch):
    import mlcpsim.cli as cli
    from mlcpsim.training import ConvergenceError

    def explode(args, cfg):
        raise ConvergenceError("homotopy ran out of iterations")

    monkeypatch.setitem(cli.COMMANDS, "budget", explode)
    code, _, err = run(capsys, "budget")
    assert code == 3
    assert "numerical failure" in err

    def singular(args, cfg):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setitem(cli.COMMANDS, "budget", singular)
    assert run(capsys, "budget")[0] == 3


def test_budget_prints_golden_line_and_json(capsys, tmp_path):
    out = tmp_path / "b.json"
    code, text, _ = run(capsys, "budget", "--out", str(out))
    assert code == 0
    assert "3.45 pJ/MAC" in text
    payload = json.loads(out.read_text())
    assert payload["energy"]["e_per_mac_stage1"] == pytest.approx(3.45e-12)


def test_roc_on_zero_trial_dataset_is_data_error(capsys, tmp_path, easy_run):
    _, model = easy_run
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "manifest.csv").write_text("trial_id,label,onset_us,duration_us\n")
    for cmd, extra in (("eval", []), ("roc", ["--out", str(tmp_path / "roc.csv")])):
        code, _, err = run(capsys, cmd, "--data", str(empty), "--model", str(model),
                           "--seed", "3", *SMALL_CHIP, *extra)
        assert code == 2
        assert "error: cannot evaluate an empty test set" in err


@pytest.mark.parametrize("cmd", ["eval", "roc", "stream"])
@pytest.mark.parametrize("chip_set, sizes", [("chip.l=20", ("L=16", "L=20")),
                                             ("chip.d=9", ("D=8", "D=9"))])
def test_chip_shape_mismatch_is_named_data_error(capsys, tmp_path, easy_run, cmd, chip_set, sizes):
    ds, model = easy_run
    chip = tmp_path / "chip.json"
    assert run(capsys, "chip", "--out", str(chip), "--seed", "3", "--set", "chip.d=8",
               *SMALL_CHIP, "--set", chip_set)[0] == 0
    code, _, err = run(capsys, cmd, "--data", str(ds), "--model", str(model), "--chip", str(chip),
                       "--out", str(tmp_path / "out"), "--seed", "3", *SMALL_CHIP)
    assert code == 2
    assert all(size in err for size in sizes)


def test_sweep_p_above_one_in_direct_mode_is_rejected(capsys, tmp_path, easy_run):
    ds, _ = easy_run
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--data", str(ds), "--out", str(out), "--seed", "3",
                       "--set", "frontend.mode=direct", "--set", "sweep.p_grid=1,2",
                       "--set", "sweep.l_grid=8")
    assert code == 2
    assert "'frontend.mode' must be one of tdbdi, got \"direct\"" in err, err
    assert not out.exists()


def test_frontend_mode_selects_no_front_end(capsys, tmp_path, shared_run):
    ds, model = shared_run  # trained at the defaults, --seed 3
    extra = ["frontend.mode=tdbdi", "frontend.p=1"]
    out = tmp_path / "model.json"
    assert run(capsys, "train", "--data", str(ds), "--out", str(out), "--seed", "3",
               *SMALL_CHIP, *[arg for setting in extra for arg in ("--set", setting)])[0] == 0
    assert out.read_bytes() == model.read_bytes(), extra
    # at p = 1 no row is delayed, so a link delay would be echoed and ignored
    out = tmp_path / "delayed.json"
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(out), "--seed", "3",
                       *SMALL_CHIP, *[arg for setting in extra for arg in ("--set", setting)],
                       "--set", "frontend.link_delay=2")
    assert code == 2
    assert err.startswith("error: 'frontend.link_delay' must be 5 where 'frontend.p' is 1"), err
    assert not out.exists()
    out = tmp_path / "refused.json"
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(out),
                       "--set", "frontend.mode=direct")
    assert code == 2
    assert err.startswith("error: 'frontend.mode' must be one of tdbdi, got \"direct\""), err
    assert not out.exists()


def test_frontend_p_alone_sets_the_rows_per_channel(capsys, tmp_path, shared_run):
    ds, _ = shared_run  # 8 channels
    out = tmp_path / "model.json"
    assert run(capsys, "train", "--data", str(ds), "--out", str(out), "--seed", "3",
               *SMALL_CHIP, "--set", "frontend.p=3")[0] == 0
    assert load_model(out).frontend.rows == 24


def test_sweep_refuses_a_channel_count_listed_twice_once_as_zero(capsys, tmp_path, monkeypatch,
                                                                  shared_run):
    ds, _ = shared_run  # 8 channels
    monkeypatch.setattr(cli, "collect_H", _fail("H collected"))
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--data", str(ds), "--out", str(out),
                       "--set", "sweep.n_grid=0,8", "--set", "sweep.l_grid=8",
                       "--set", "sweep.chip_seeds=1")
    assert code == 2
    assert err.startswith("error: 'sweep.n_grid' must be an integer >= 0 and <= 8 (0 is 8), "
                          "each listed once, got 8"), err
    assert not out.exists()


def test_sweep_takes_chip_d_only_as_every_grid_points_row_count(capsys, tmp_path, monkeypatch,
                                                                shared_run):
    ds, _ = shared_run  # 8 channels
    base = ["sweep", "--data", str(ds), "--set", "sweep.l_grid=8", "--set", "sweep.chip_seeds=1"]
    outs = [tmp_path / "auto.csv", tmp_path / "eight.csv"]
    for out, d in zip(outs, [0, 8]):
        assert run(capsys, *base, "--out", str(out), "--set", f"chip.d={d}")[0] == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    monkeypatch.setattr(cli, "collect_H", _fail("H collected"))
    out = tmp_path / "refused.csv"
    for extra, rows in [(["--set", "chip.d=100"], 8),
                        (["--set", "chip.d=8", "--set", "frontend.mode=tdbdi",
                          "--set", "sweep.p_grid=1,2"], 16)]:
        code, _, err = run(capsys, *base, "--out", str(out), *extra)
        assert code == 2 and f"'chip.d' must be 0 or the front end's row count {rows}" in err
        assert not out.exists()


@pytest.mark.parametrize("setting, grid", [("chip.l=16", "sweep.l_grid"),
                                           ("frontend.p=3", "sweep.p_grid")])
def test_sweep_refuses_a_chip_l_or_frontend_p_that_its_grid_replaces(capsys, tmp_path, monkeypatch,
                                                                      shared_run, setting, grid):
    # every point runs on the grid's values, so a setting of the key would be
    # echoed and ignored
    ds, _ = shared_run
    monkeypatch.setattr(cli, "read_manifest", _fail("the dataset read"))
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--data", str(ds), "--out", str(out), "--seed", "3",
                       "--set", setting)
    key, value = setting.split("=")
    assert code == 2
    assert err.startswith(f"error: '{key}' must be ") and f"'{grid}', got {value}" in err, err
    assert not out.exists()


def test_sweep_refuses_a_chip_seed_that_no_point_uses(capsys, tmp_path, monkeypatch, shared_run):
    # --seed sets chip.seed too: a seed of sweep.chip_seeds is one that some
    # point runs on, so the echo may show it; any other is refused
    ds, _ = shared_run
    base = ["sweep", "--data", str(ds), "--set", "sweep.l_grid=8", "--set", "sweep.chip_seeds=1,2"]
    seeded, free = tmp_path / "seeded.csv", tmp_path / "free.csv"
    code, text, _ = run(capsys, *base, "--out", str(seeded), "--seed", "2")
    assert code == 0 and "\nchip.seed = 2\n" in text
    assert run(capsys, *base, "--out", str(free))[0] == 0
    assert seeded.read_bytes() == free.read_bytes()
    monkeypatch.setattr(cli, "read_manifest", _fail("the dataset read"))
    out = tmp_path / "refused.csv"
    code, _, err = run(capsys, *base, "--out", str(out), "--seed", "3")
    assert code == 2
    assert err.startswith("error: 'chip.seed' must be 1 in a sweep, which runs every point of "
                          "'sweep.chip_seeds', or one of its items, got 3"), err
    assert not out.exists()


def test_sweep_refuses_a_link_delay_only_where_no_point_delays_a_row(capsys, tmp_path,
                                                                      monkeypatch, shared_run):
    ds, _ = shared_run
    base = ["sweep", "--data", str(ds), "--set", "sweep.l_grid=8", "--set", "sweep.chip_seeds=1",
            "--set", "frontend.link_delay=2"]
    assert run(capsys, *base, "--out", str(tmp_path / "delayed.csv"),
               "--set", "sweep.p_grid=1,2")[0] == 0
    monkeypatch.setattr(cli, "read_manifest", _fail("the dataset read"))
    out = tmp_path / "refused.csv"
    code, _, err = run(capsys, *base, "--out", str(out))
    assert code == 2
    assert err.startswith("error: 'frontend.link_delay' must be 5 where 'sweep.p_grid' is 1, "
                          "which delays no row, got 2"), err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["eval", "roc", "stream"])
def test_decoding_a_one_row_per_channel_model_refuses_a_link_delay(capsys, tmp_path, monkeypatch,
                                                                   shared_run, cmd):
    ds, model = shared_run  # frontend.p = 1
    monkeypatch.setattr(cli, "read_manifest", _fail("the dataset read"))
    out = tmp_path / "out"
    code, _, err = run(capsys, cmd, "--data", str(ds), "--model", str(model), "--out", str(out),
                       "--seed", "3", *SMALL_CHIP, "--set", "frontend.link_delay=2")
    assert code == 2
    assert err.startswith("error: 'frontend.link_delay' must be 5 where 'frontend.p' is 1"), err
    assert not out.exists()


def _manifest_ids(ds: Path) -> list[str]:
    return [line.split(",")[0] for line in (ds / "manifest.csv").read_text().splitlines()[1:]]


def _count_opens(monkeypatch) -> list:
    """The event files read from now on, by name, in order."""
    opened = []
    parse_events = spikeio._parse_events
    monkeypatch.setattr(spikeio, "_parse_events",
                        lambda path, q: opened.append(path.name) or parse_events(path, q))
    return opened


def test_train_reads_each_event_file_once_as_it_collects_h(capsys, tmp_path, monkeypatch,
                                                           shared_run):
    source, model = shared_run  # trained at the defaults, --seed 3
    ds = tmp_path / "ds"
    shutil.copytree(source, ds)
    files = [f"{trial_id}.csv" for trial_id in _manifest_ids(ds)]
    opened = _count_opens(monkeypatch)
    base = ["train", "--data", str(ds), "--seed", "3", *SMALL_CHIP]
    out = tmp_path / "model.json"
    assert run(capsys, *base, "--out", str(out))[0] == 0
    assert opened == files
    assert out.read_bytes() == model.read_bytes()
    # without meta.txt, one read-only pass finds the channel count first
    (ds / "meta.txt").unlink()
    opened.clear()
    out = tmp_path / "inferred.json"
    assert run(capsys, *base, "--out", str(out))[0] == 0
    assert opened == files * 2
    assert out.read_bytes() == model.read_bytes()


def test_sweep_reads_each_event_file_once_for_every_front_end(capsys, tmp_path, monkeypatch,
                                                              shared_run):
    # every (n, p) front end codes the trial read once: the training half's
    # files first, then the test half's, each in manifest order
    source, _ = shared_run
    ds = tmp_path / "ds"
    shutil.copytree(source, ds)
    ids = _manifest_ids(ds)
    halves = decoder.split_dataset(spikeio.read_manifest(ds), 0.3, 0)
    files = [f"{row.id}.csv" for half in halves for row in half.trials]
    assert sorted(files) == sorted(f"{trial_id}.csv" for trial_id in ids)
    opened = _count_opens(monkeypatch)
    base = ["sweep", "--data", str(ds), "--set", "sweep.l_grid=8", "--set", "sweep.chip_seeds=1",
            "--set", "sweep.n_grid=4,0", "--set", "sweep.p_grid=1,2"]
    out = tmp_path / "sweep.csv"
    assert run(capsys, *base, "--out", str(out))[0] == 0
    assert opened == files
    # without meta.txt, one read-only pass finds the channel count first
    (ds / "meta.txt").unlink()
    opened.clear()
    inferred = tmp_path / "inferred.csv"
    assert run(capsys, *base, "--out", str(inferred))[0] == 0
    assert opened == [f"{trial_id}.csv" for trial_id in ids] + files
    assert inferred.read_bytes() == out.read_bytes()
    # a corrupt event file exits 2 by its line, before the CSV is written
    (ds / "events" / files[-1]).write_text("time_us,channel\n5,0\n3,0\n")
    code, _, err = run(capsys, *base, "--set", "sweep.n_grid=8", "--out", str(tmp_path / "bad"))
    assert code == 2 and f"{files[-1]}:3]" in err, err
    assert not (tmp_path / "bad").exists()


def test_the_cli_binds_no_whole_set_reader():
    # every command reads a dataset through read_manifest, one trial at a time
    for name in ("parse_dataset", "SpikeDataset", "gen_synthetic", "write_dataset",
                 "_restrict_channels"):
        assert not hasattr(cli, name), name


def test_the_cli_binds_no_part_of_the_decode_path():
    # which noise stream a trial draws, and the chain that decodes it, live in
    # the decoder's one decode path
    for name in ("trial_rng", "hidden_stream", "hidden_layer"):
        assert not hasattr(cli, name), name


def test_only_the_output_check_tests_a_path():
    # main checks every output path once, before the command; no command
    # tests a path itself
    tree = ast.parse(Path(cli.__file__).read_text())
    testers = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               for call in ast.walk(node) if isinstance(call, ast.Call)
               and (getattr(call.func, "attr", None) in ("exists", "is_dir", "resolve")
                    or getattr(call.func, "id", None) == "_fresh_path")}
    assert testers == {"_check_outputs"}


def test_train_names_a_corrupt_event_file_met_while_collecting_h(capsys, tmp_path, monkeypatch,
                                                                 shared_run):
    source, _ = shared_run
    ds = tmp_path / "ds"
    shutil.copytree(source, ds)
    ids = _manifest_ids(ds)
    middle = len(ids) // 2
    (ds / "events" / f"{ids[middle]}.csv").write_text("time_us,channel\n5,0\n3,0\n")
    opened = _count_opens(monkeypatch)
    coded = []  # the trials whose front-end codes were made before the error
    run_trial = training.run_trial
    monkeypatch.setattr(training, "run_trial",
                        lambda fe, trial: coded.append(trial.id) or run_trial(fe, trial))
    out = tmp_path / "model.json"
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(out), "--seed", "3",
                       *SMALL_CHIP)
    assert code == 2
    assert f"{ids[middle]}.csv:3]" in err, err
    assert opened == [f"{trial_id}.csv" for trial_id in ids[: middle + 1]]
    assert coded == ids[:middle]
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["eval", "roc", "stream"])
def test_decoding_reads_each_event_file_as_its_trial_is_coded(capsys, tmp_path, monkeypatch,
                                                              shared_run, cmd):
    # each file is read once, just before its trial is coded, so one
    # trial's events are held at a time; stream reads its own trial's alone
    ds, model = shared_run
    log = _count_opens(monkeypatch)
    run_trial = decoder.run_trial
    monkeypatch.setattr(decoder, "run_trial",
                        lambda fe, trial: log.append(trial.id) or run_trial(fe, trial))
    code, _, err = run(capsys, cmd, "--data", str(ds), "--model", str(model), "--seed", "3",
                       *SMALL_CHIP, "--set", "stream.trial=3", "--out", str(tmp_path / "out"))
    assert code == 0, err
    ids = _manifest_ids(ds)[3:4] if cmd == "stream" else _manifest_ids(ds)
    assert log == [step for trial_id in ids for step in (f"{trial_id}.csv", trial_id)]


def _command(cmd: str, ds: Path, model: Path) -> list[str]:
    """``cmd`` on ``ds`` at the shared run's settings; decode commands read ``model``."""
    return [cmd, "--data", str(ds), *([] if cmd == "train" else ["--model", str(model)]),
            "--seed", "3", *SMALL_CHIP]


@pytest.mark.parametrize("cmd", ["train", "eval", "roc"])
def test_each_event_file_is_opened_once_by_the_os(capsys, tmp_path, monkeypatch, shared_run,
                                                  cmd):
    ds, model = shared_run
    events = ds / "events"
    opened = []
    os_open = spikeio.os.open
    monkeypatch.setattr(spikeio.os, "open", lambda path, *a, **k: opened.append(Path(path))
                        or os_open(path, *a, **k))
    code, _, err = run(capsys, *_command(cmd, ds, model), "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert [path.name for path in opened if path.parent == events] == [
        f"{trial_id}.csv" for trial_id in _manifest_ids(ds)]


@pytest.mark.parametrize("cmd", ["train", "eval", "roc", "stream"])
@pytest.mark.parametrize("defect", ["missing", "directory", "invalid utf-8"])
def test_an_unreadable_event_file_exits_2(capsys, tmp_path, shared_run, cmd, defect):
    source, model = shared_run
    ds = tmp_path / "ds"
    shutil.copytree(source, ds)
    path = ds / "events" / f"{_manifest_ids(ds)[0]}.csv"
    path.unlink()
    if defect == "directory":
        path.mkdir()
    elif defect == "invalid utf-8":
        path.write_bytes(b"time_us,channel\n5,0\n\xff6,1\n")
    code, _, err = run(capsys, *_command(cmd, ds, model), "--out", str(tmp_path / "out"))
    assert code == 2
    want = "can't decode byte 0xff" if defect == "invalid utf-8" else "event file not found"
    assert err.startswith("error: ") and want in err, err
    assert not (tmp_path / "out").exists()


def test_train_refuses_a_manifest_that_lists_a_trial_twice(capsys, tmp_path, monkeypatch,
                                                           shared_run):
    source, _ = shared_run
    ds = tmp_path / "ds"
    shutil.copytree(source, ds)
    manifest = ds / "manifest.csv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + [lines[1]]) + "\n")
    opened = _count_opens(monkeypatch)
    out = tmp_path / "model.json"
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(out), "--seed", "3",
                       *SMALL_CHIP)
    assert code == 2
    assert f"trial id '{lines[1].split(',')[0]}' repeats an earlier trial's" in err, err
    assert f"manifest.csv:{len(lines) + 1}]" in err
    assert opened == [] and not out.exists()


def test_sweep_scores_the_type_vote_alone(capsys, tmp_path, monkeypatch, shared_run):
    # sweep writes type accuracy only: no onset is scored
    def scored(*args, **kwargs):
        raise AssertionError("sweep scored onsets")
    for module, name in [(cli, "evaluate"), (decoder, "score_onsets")]:
        monkeypatch.setattr(module, name, scored)
    ds, _ = shared_run
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--data", str(ds), "--out", str(out),
                       "--set", "sweep.l_grid=8", "--set", "sweep.chip_seeds=1")
    assert code == 0, err
    assert out.read_text().startswith("method,l,n,p,accuracy_mean,accuracy_std\nT1,8,8,1,")


def test_sweep_solves_one_least_squares_per_t1_point_whatever_the_method_order(
        capsys, tmp_path, monkeypatch, shared_run):
    """Only the type columns feed the score, so a T1 point solves the type
    block alone: one least-squares solve per T1 point, none for T2 (no
    refit).  The order of ``sweep.methods`` moves no method's row."""
    calls, least_squares = [], training._least_squares

    def counted(h, *args, **kwargs):
        calls.append(h.shape)
        return least_squares(h, *args, **kwargs)

    monkeypatch.setattr(training, "_least_squares", counted)
    ds, _ = shared_run
    rows = {}
    for methods in ("T1,T2", "T2,T1"):
        out = tmp_path / f"{methods}.csv"
        calls.clear()
        code, _, err = run(capsys, "sweep", "--data", str(ds), "--out", str(out),
                           "--set", f"sweep.methods={methods}", "--set", "sweep.l_grid=8",
                           "--set", "sweep.chip_seeds=1", "--set", "train.target_sparsity=0.3")
        assert code == 0, err
        assert len(calls) == 1, calls
        _, *lines = out.read_text().splitlines()
        rows[methods] = dict(line.split(",", 1) for line in lines)
    assert rows["T1,T2"] == rows["T2,T1"] and set(rows["T1,T2"]) == {"T1", "T2"}


def test_more_channels_than_chip_rows_are_refused_by_the_channel_count(capsys, tmp_path,
                                                                      monkeypatch):
    ds, out = tmp_path / "ds", tmp_path / "out"
    assert run(capsys, "gen", "--out", str(ds), "--set", "synth.q=129", "--set", "synth.m=2",
               "--set", "synth.trials_per_class=2")[0] == 0
    monkeypatch.setattr(cli, "collect_H", _fail("H collected"))
    for cmd, source in [("train", "the dataset"), ("sweep", "sweep.n_grid")]:
        code, _, err = run(capsys, cmd, "--data", str(ds), "--out", str(out),
                           "--set", "sweep.n_grid=100,0")
        assert code == 2
        assert f"{source} gives 129 channels, but a chip has at most 128 rows" in err, err
        assert not out.exists()


def test_sweep_refuses_a_split_that_leaves_no_training_trial(capsys, tmp_path, monkeypatch):
    ds, out = tmp_path / "ds", tmp_path / "sweep.csv"  # one trial per class, kept for test
    assert run(capsys, "gen", "--out", str(ds), "--set", "synth.q=4", "--set", "synth.m=2",
               "--set", "synth.trials_per_class=1")[0] == 0
    monkeypatch.setattr(cli, "collect_H", _fail("H collected"))
    code, _, err = run(capsys, "sweep", "--data", str(ds), "--out", str(out))
    assert code == 2
    assert "split.test_fraction = 0.3 leaves no training trials" in err, err
    assert not out.exists()


BOTH_T2_PENALTIES = ["--set", "train.l1_lambda=0.5", "--set", "train.target_sparsity=0.3"]


@pytest.mark.parametrize("cmd, extra", [("train", [*SMALL_CHIP, "--set", "train.method=T2"]),
                                        ("sweep", ["--set", "sweep.methods=T1,T2",
                                                   "--set", "sweep.l_grid=8"])])
def test_conflicting_t2_penalties_are_a_data_error(capsys, tmp_path, easy_run, cmd, extra):
    ds, _ = easy_run
    out = tmp_path / "out"
    code, _, err = run(capsys, cmd, "--data", str(ds), "--out", str(out), "--seed", "3",
                       *BOTH_T2_PENALTIES, *extra)
    assert code == 2
    assert "l1_lambda" in err and "target_sparsity" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd, extra", [("train", SMALL_CHIP),
                                        ("sweep", ["--set", "sweep.l_grid=8"])])
def test_t1_ignores_the_t2_penalties(capsys, tmp_path, easy_run, cmd, extra):
    ds, _ = easy_run
    code, _, _ = run(capsys, cmd, "--data", str(ds), "--out", str(tmp_path / "out"), "--seed", "3",
                     *BOTH_T2_PENALTIES, *extra)
    assert code == 0


def test_bench_tracer_finds_every_function_it_wraps():
    # bench/spans.py wraps package functions by name and skips a name it
    # cannot find, so a renamed function would read zero in its metrics
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_train_and_eval_accept_a_zero_duration_trial(capsys, tmp_path, easy_run):
    ds, _ = easy_run
    with (ds / "manifest.csv").open("a") as manifest:
        manifest.write("z0,1,0,0\n")
    (ds / "events" / "z0.csv").write_text("time_us,channel\n")
    model = tmp_path / "m.json"
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(model),
                       "--seed", "3", *SMALL_CHIP)
    assert code == 0 and "broadcast" not in err
    code, _, err = run(capsys, "eval", "--data", str(ds), "--model", str(model),
                       "--seed", "3", *SMALL_CHIP)
    assert code == 0 and "broadcast" not in err


@pytest.mark.parametrize("cmd, extra", [("train", ["--set", "frontend.p=1"]),
                                        ("sweep", ["--set", "sweep.l_grid=8"])])
def test_misspelled_frontend_mode_rejected_at_p_one(capsys, tmp_path, easy_run, cmd, extra):
    ds, _ = easy_run
    out = tmp_path / "out"
    code, _, err = run(capsys, cmd, "--data", str(ds), "--out", str(out), "--seed", "3",
                       *SMALL_CHIP, "--set", "frontend.mode=tdbd", *extra)
    assert code == 2
    assert "'frontend.mode' must be one of tdbdi, got \"tdbd\"" in err
    assert not out.exists()


def test_trial_id_with_a_path_step_is_data_error(capsys, tmp_path, easy_run):
    ds, _ = easy_run
    with (ds / "manifest.csv").open("a") as manifest:
        manifest.write("../outside,1,0,1000\n")
    (ds / "outside.csv").write_text("time_us,channel\n")
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(tmp_path / "m.json"),
                       "--seed", "3", *SMALL_CHIP)
    assert code == 2
    assert "trial id '../outside'" in err and "manifest.csv:" in err


@pytest.mark.parametrize("key, value", [("decoder.theta", "nan"), ("decoder.tr_ms", "nan"),
                                        ("decoder.tr_ms", "inf")])
def test_train_rejects_a_non_finite_threshold_or_refractory(capsys, tmp_path, easy_run,
                                                            key, value):
    ds, _ = easy_run
    out = tmp_path / "m.json"
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(out), "--seed", "3",
                       *SMALL_CHIP, "--set", f"{key}={value}")
    assert code == 2
    assert key.split(".")[1] in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("field, token", [("theta", "NaN"), ("tr_ms", "Infinity")])
def test_model_file_with_a_non_finite_threshold_or_refractory_is_rejected(
        capsys, tmp_path, easy_run, field, token):
    ds, model = easy_run
    doc = json.loads(model.read_text())
    doc[field] = float(token)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert token in bad.read_text()
    with pytest.raises(ValueError, match=field):
        load_model(bad)
    code, _, err = run(capsys, "eval", "--data", str(ds), "--model", str(bad), "--seed", "3",
                       *SMALL_CHIP)
    assert code == 2 and field in err


@pytest.mark.parametrize("cmd, setting, named", [
    ("eval", "decoder.tol_ms=-5", "tol_ms"),
    ("eval", "decoder.tol_ms=nan", "tol_ms"),
    ("roc", "decoder.tol_ms=-5", "tol_ms"),
    ("roc", "decoder.tol_ms=nan", "tol_ms"),
    ("roc", "roc.theta_min=nan", "NaN"),
])
def test_bad_tolerance_or_nan_threshold_is_data_error(capsys, tmp_path, easy_run, cmd, setting,
                                                     named):
    ds, model = easy_run
    out = tmp_path / "out"
    code, _, err = run(capsys, cmd, "--data", str(ds), "--model", str(model), "--out", str(out),
                       "--seed", "3", *SMALL_CHIP, "--set", setting)
    assert code == 2 and named in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["eval", "roc", "stream"])
def test_runtime_commands_echo_and_decode_with_the_models_decoder_keys(capsys, tmp_path,
                                                                       easy_run, cmd):
    ds, _ = easy_run
    model = tmp_path / "m.json"
    assert run(capsys, "train", "--data", str(ds), "--out", str(model), "--seed", "3",
               *SMALL_CHIP, "--set", "decoder.theta=0.5", "--set", "decoder.tau=8")[0] == 0
    base = [cmd, "--data", str(ds), "--model", str(model), "--seed", "3", *SMALL_CHIP]
    # unset, or set to the model's value: the echo shows what decoding uses
    for extra in ([], ["--set", "decoder.theta=0.5"]):
        code, text, _ = run(capsys, *base, "--out", str(tmp_path / "out"), "--force", *extra)
        assert code == 0
        echoed = parse_config_text(text)
        assert (echoed["decoder.theta"], echoed["decoder.tau"]) == (0.5, 8)
        assert echoed["decoder.lam"] == 6
    # set to something else: refused, naming the key and both values
    out = tmp_path / "refused"
    code, _, err = run(capsys, *base, "--out", str(out), "--set", "decoder.theta=0.0")
    assert code == 2
    assert "decoder.theta = 0.0" in err and "0.5" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["eval", "roc", "stream"])
def test_runtime_commands_adopt_the_models_trap_and_stop_value(capsys, tmp_path, monkeypatch,
                                                               shared_run, cmd):
    ds, _ = shared_run
    model = tmp_path / "m.json"
    assert run(capsys, "train", "--data", str(ds), "--out", str(model), "--seed", "3",
               *SMALL_CHIP, "--set", "trap.t1_ms=850", "--set", "analog.fmax_sel=3")[0] == 0
    base = [cmd, "--data", str(ds), "--model", str(model), "--seed", "3", *SMALL_CHIP]
    # unset, or set to the model's values: the echo shows what decoding uses,
    # and the outputs are the same bytes
    outputs = []
    for extra in ([], ["--set", "trap.t1_ms=850", "--set", "analog.fmax_sel=3"]):
        out = tmp_path / f"out{len(outputs)}"
        code, text, _ = run(capsys, *base, "--out", str(out), *extra)
        assert code == 0
        echoed = parse_config_text(text)
        assert (echoed["trap.t1_ms"], echoed["analog.fmax_sel"]) == (850.0, 3)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    if cmd == "eval":  # decoded on the model's stop value and plateau
        m = load_model(model)
        chip = build_chip(m.chip_seed, AnalogParams(fmax_sel=3), d=m.frontend.rows, l=16)
        want = decoder.evaluate(spikeio.parse_dataset(ds), m, chip)
        assert outputs[0] == want.to_json().encode()
    # set to something else: refused before decoding, naming the key
    monkeypatch.setattr(decoder, "_output_streams", _fail("decoder outputs computed"))
    monkeypatch.setattr(cli, "decode_stream", _fail("the trial decoded"))
    out = tmp_path / "refused"
    for setting, named in [("analog.fmax_sel=6", "analog.fmax_sel = 6 differs from the model's 3"),
                           ("trap.t1_ms=880", "trap.t1_ms = 880.0 differs from the model's 850.0")]:
        code, _, err = run(capsys, *base, "--out", str(out), "--set", setting)
        assert code == 2 and named in err
        assert not out.exists()


@pytest.mark.parametrize("cmd", ["eval", "roc", "stream"])
def test_runtime_commands_without_a_chip_file_adopt_the_models_chip_seed_and_l(
        capsys, tmp_path, monkeypatch, shared_run, cmd):
    ds, model = shared_run  # trained with --seed 3 on chip.l = 16
    base = [cmd, "--data", str(ds), "--model", str(model)]
    code, text, _ = run(capsys, *base, "--out", str(tmp_path / "out"))
    assert code == 0
    echoed = parse_config_text(text)
    assert (echoed["chip.seed"], echoed["chip.l"]) == (3, 16)
    # the row count of the model's direct front end, one row per channel
    assert (echoed["chip.d"], echoed["frontend.p"], echoed["frontend.t_s_ms"]) == (8, 1, 20.0)
    monkeypatch.setattr(decoder, "_output_streams", _fail("decoder outputs computed"))
    monkeypatch.setattr(cli, "decode_stream", _fail("the trial decoded"))
    out = tmp_path / "refused"
    for setting, named in [("chip.seed=5", "chip.seed = 5 differs from the model's 3"),
                           ("chip.l=40", "chip.l = 40 differs from the model's 16"),
                           ("chip.d=100", "'chip.d' must be 0 or the front end's row count 8, "
                                          "got 100"),
                           ("frontend.p=3", "frontend.p = 3 differs from the model's 1"),
                           ("frontend.t_s_ms=10",
                            "frontend.t_s_ms = 10.0 differs from the model's 20.0")]:
        code, _, err = run(capsys, *base, "--out", str(out), "--set", setting)
        assert code == 2 and named in err
        assert not out.exists()


def test_train_takes_chip_d_only_as_the_front_ends_row_count(capsys, tmp_path, shared_run):
    ds, _ = shared_run  # 8 channels, so a direct front end has 8 rows
    out = tmp_path / "model.json"
    base = ["train", "--data", str(ds), "--out", str(out), "--seed", "3", *SMALL_CHIP]
    code, _, err = run(capsys, *base, "--set", "chip.d=100")
    assert code == 2 and "'chip.d' must be 0 or the front end's row count 8, got 100" in err
    assert not out.exists()
    assert run(capsys, *base, "--set", "chip.d=8")[0] == 0
    assert len(load_model(out).frontend.s_ext) == 8


def test_a_run_too_large_for_memory_exits_2_with_one_line(capsys, tmp_path, monkeypatch,
                                                          shared_run):
    ds, _ = shared_run

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 268. GiB for an array with shape (35913941, 1000)")

    monkeypatch.setattr(cli, "collect_H", too_large)
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert err == "error: Unable to allocate 268. GiB for an array with shape (35913941, 1000)\n"


@pytest.mark.parametrize("cmd, key", [("train", "train.noise_seed"),
                                      ("sweep", "train.noise_seed"),
                                      ("sweep", "decoder.noise_seed"),
                                      ("eval", "decoder.noise_seed"),
                                      ("roc", "decoder.noise_seed"),
                                      ("stream", "decoder.noise_seed")])
@pytest.mark.parametrize("noise_on", ["true", "false"])
def test_a_negative_noise_seed_is_refused_by_its_key(capsys, tmp_path, monkeypatch, shared_run,
                                                     cmd, key, noise_on):
    ds, model = shared_run
    monkeypatch.setattr(cli, "collect_H", _fail("H collected"))
    monkeypatch.setattr(decoder, "_output_streams", _fail("decoder outputs computed"))
    monkeypatch.setattr(cli, "decode_stream", _fail("the trial decoded"))
    out = tmp_path / "out"
    runtime = ["--model", str(model)] if cmd in ("eval", "roc", "stream") else []
    section = key.split(".")[0]
    code, _, err = run(capsys, cmd, "--data", str(ds), *runtime, "--out", str(out),
                       "--seed", "3", *SMALL_CHIP, "--set", f"{section}.noise_on={noise_on}",
                       "--set", f"{key}=-3")
    assert code == 2
    assert f"'{key}' must be an integer >= 0, got -3" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd, setting, key", [
    ("chip", "chip.seed=-1", "chip.seed"),
    ("chip", "chip.d=200", "chip.d"),
    ("chip", "synth.q=200", "synth.q"),  # the chip's D when chip.d is 0
    ("train", "chip.l=0", "chip.l"),
    ("train", "chip.seed=-1", "chip.seed"),
    ("sweep", "sweep.chip_seeds=2,-1", "sweep.chip_seeds"),
    ("sweep", "sweep.l_grid=8,0", "sweep.l_grid"),
    ("sweep", "sweep.n_grid=-1", "sweep.n_grid"),
    ("sweep", "sweep.n_grid=9", "sweep.n_grid"),  # the dataset has 8 channels
    ("sweep", "split.seed=-1", "split.seed"),
    ("sweep", "chip.d=-1", "chip.d"),
])
def test_chip_sweep_and_split_values_are_named_by_their_key(capsys, tmp_path, monkeypatch,
                                                           shared_run, cmd, setting, key):
    ds, _ = shared_run
    monkeypatch.setattr(cli, "collect_H", _fail("H collected"))
    out = tmp_path / "out"
    data = [] if cmd == "chip" else ["--data", str(ds)]
    chip_l = [] if cmd == "sweep" else SMALL_CHIP  # a sweep takes L from sweep.l_grid
    code, _, err = run(capsys, cmd, *data, "--out", str(out), *chip_l, "--set", setting)
    assert code == 2
    assert err.startswith(f"error: '{key}' must be an integer >= ")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["eval", "roc", "stream"])
def test_runtime_commands_echo_the_chip_files_parameters(capsys, tmp_path, monkeypatch,
                                                         easy_run, cmd):
    ds, model = easy_run
    chip = tmp_path / "chip.json"
    assert run(capsys, "chip", "--out", str(chip), "--seed", "3", "--set", "synth.q=8",
               *SMALL_CHIP, "--set", "analog.i_ref_na=5")[0] == 0
    base = [cmd, "--data", str(ds), "--model", str(model), "--chip", str(chip), "--seed", "3",
            *SMALL_CHIP]
    # unset, or set to the chip file's value: the echo shows what decoding uses
    for extra in ([], ["--set", "analog.i_ref_na=5"]):
        code, text, _ = run(capsys, *base, "--out", str(tmp_path / "out"), "--force", *extra)
        assert code == 0
        echoed = parse_config_text(text)
        assert (echoed["analog.i_ref_na"], echoed["analog.alpha_supply"]) == (5.0, 1.0)
    # without --seed and chip.l set, the echo shows the chip file's die
    code, text, _ = run(capsys, *base[:7], "--out", str(tmp_path / "out"), "--force")
    echoed = parse_config_text(text)
    assert code == 0 and (echoed["chip.seed"], echoed["chip.d"], echoed["chip.l"]) == (3, 8, 16)
    # set to something else, NaN too: refused before decoding, naming the key
    monkeypatch.setattr(decoder, "_output_streams", _fail("decoder outputs computed"))
    monkeypatch.setattr(cli, "decode_stream", _fail("the trial decoded"))
    out = tmp_path / "refused"
    for setting, named in [("analog.alpha_supply=nan",
                            "'analog.alpha_supply' must be a finite number > 0, got NaN"),
                           ("analog.i_ref_na=7", "analog.i_ref_na = 7.0 differs from the chip file's")]:
        code, _, err = run(capsys, *base, "--out", str(out), "--set", setting)
        assert code == 2
        assert named in err
        assert not out.exists()
    # a chip file of another die than the model's (trained on seed 3, fmax_sel 7)
    other = tmp_path / "other.json"
    for chip_set, named in [(["--seed", "4"], "chip.seed = 4 differs from the model's 3"),
                            (["--seed", "3", "--set", "analog.fmax_sel=3"],
                             "analog.fmax_sel = 3 differs from the model's 7")]:
        assert run(capsys, "chip", "--out", str(other), "--force", "--set", "synth.q=8",
                   *SMALL_CHIP, *chip_set)[0] == 0
        code, _, err = run(capsys, *base[:5], "--chip", str(other), "--out", str(out))
        assert code == 2 and f"the chip file's {named}" in err
        assert not out.exists()


def test_train_with_a_chip_file_refuses_a_differing_analog_setting(capsys, tmp_path,
                                                                   monkeypatch, easy_run):
    ds, _ = easy_run
    chip = tmp_path / "chip.json"
    assert run(capsys, "chip", "--out", str(chip), "--seed", "3", "--set", "synth.q=8",
               *SMALL_CHIP)[0] == 0
    out = tmp_path / "m.json"
    argv = ["train", "--data", str(ds), "--chip", str(chip), "--out", str(out), "--seed", "3",
            *SMALL_CHIP]
    code, text, _ = run(capsys, *argv, "--set", "analog.i_ref_na=20")  # the chip's value
    assert code == 0 and parse_config_text(text)["analog.i_ref_na"] == 20.0
    # without --seed and chip.l set, the echo shows the chip file's die
    code, text, _ = run(capsys, *argv[:7], "--force")
    echoed = parse_config_text(text)
    assert code == 0 and (echoed["chip.seed"], echoed["chip.d"], echoed["chip.l"]) == (3, 8, 16)
    monkeypatch.setattr(cli, "collect_H", _fail("H collected"))
    for value, named in [("nan", "'analog.alpha_supply' must be a finite number > 0, got NaN"),
                         ("2", "analog.alpha_supply = 2.0 differs from the chip file's 1.0")]:
        code, _, err = run(capsys, *argv, "--force", "--set", f"analog.alpha_supply={value}")
        assert code == 2
        assert named in err
    for setting, named in [("chip.seed=9", "chip.seed = 9 differs from the chip file's 3"),
                           ("chip.l=40", "chip.l = 40 differs from the chip file's 16")]:
        code, _, err = run(capsys, *argv[:7], "--force", "--set", setting)
        assert code == 2 and named in err
    # a chip file whose D is not the row count of the 8-channel direct front end
    wide, refused = tmp_path / "wide.json", tmp_path / "refused.json"
    assert run(capsys, "chip", "--out", str(wide), "--seed", "3", "--set", "chip.d=9",
               *SMALL_CHIP)[0] == 0
    code, _, err = run(capsys, "train", "--data", str(ds), "--chip", str(wide),
                       "--out", str(refused))
    assert code == 2 and "the chip file's chip.d = 9 differs from the front end's 8" in err
    assert not refused.exists()


@pytest.mark.parametrize("kind, name", DEFECT_CASES)
def test_eval_with_a_defective_model_or_chip_file_is_data_error(capsys, tmp_path, easy_run,
                                                                kind, name):
    ds, model = easy_run
    chip = tmp_path / "chip.json"
    assert run(capsys, "chip", "--out", str(chip), "--seed", "3", "--set", "synth.q=8",
               *SMALL_CHIP)[0] == 0
    argv = ["eval", "--data", str(ds), "--seed", "3", *SMALL_CHIP]
    assert run(capsys, *argv, "--model", str(model), "--chip", str(chip))[0] == 0
    files = {"model": model, "chip": chip}
    bad = tmp_path / "bad.json"
    named = write_defective(files[kind], bad, kind, name)
    files[kind] = bad
    code, _, err = run(capsys, *argv, "--model", str(files["model"]), "--chip", str(files["chip"]))
    assert code == 2
    assert f"{bad}: " in err and named in err


def _fail(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} before the settings were checked")
    return fail


@pytest.mark.parametrize("trials", [0, 2], ids=["empty", "two-trials"])
@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("key, line", [("channel_count", 2), ("class_count", 3)])
def test_a_meta_count_below_one_names_meta_txt_and_its_line(capsys, tmp_path, monkeypatch,
                                                             key, line, count, trials):
    ds, out = tmp_path / "ds", tmp_path / "m.json"
    (ds / "events").mkdir(parents=True)
    (ds / "manifest.csv").write_text("trial_id,label,onset_us,duration_us\n"
                                     + "".join(f"t{i},1,0,2000000\n" for i in range(trials)))
    for i in range(trials):
        (ds / "events" / f"t{i}.csv").write_text("time_us,channel\n10,0\n")
    meta = {"channel_count": 4, "class_count": 2, key: count}
    (ds / "meta.txt").write_text("# counts\n" + "".join(f"{k} = {v}\n" for k, v in meta.items()))
    monkeypatch.setattr(cli, "collect_H", _fail("H collected"))
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(out), *SMALL_CHIP)
    assert code == 2
    assert f"{key} must be >= 1, got {count} [{ds / 'meta.txt'}:{line}]" in err
    assert not out.exists()


def _keeps_finite(value: str) -> str:
    return f"a value that keeps the report's '{value}' finite"


@pytest.mark.parametrize("sets, key, domain", [
    (["budget.raw_sample_rate_hz=1e308"], "raw_sample_rate_hz", _keeps_finite("rates.r_raw_bps")),
    (["budget.f_bio_hz=1e300", "budget.channel_count=1000000000"], "f_bio_hz",
     _keeps_finite("rates.r_conv_bps")),
    (["budget.f_class_hz=1e-320"], "f_class_hz", _keeps_finite("energy.e_per_classify_stage1")),
    (["budget.d=10", "budget.e_mac_digital_j=1e308"], "e_mac_digital_j",
     _keeps_finite("energy.e_per_classify_total")),
    # an integer past what a float holds exactly never reaches the arithmetic
    ([f"budget.d={10 ** 400}"], "d", f"an integer >= 1 and <= {2 ** 53}"),
    (["budget.d=10", f"budget.raw_channels={2 ** 53 + 1}"], "raw_channels",
     f"an integer >= 1 and <= {2 ** 53}"),
])
def test_budget_that_overflows_names_the_value_and_its_input(capsys, tmp_path, sets, key, domain):
    out = tmp_path / "b.json"
    code, _, err = run(capsys, "budget", "--out", str(out),
                       *[arg for s in sets for arg in ("--set", s)])
    assert code == 2
    assert f"'budget.{key}' must be {domain}, got " in err
    assert not out.exists()


# 90 Hz over 1.03e20 ms is a mean just past numpy's 9.22e18; never run an
# accepted duration this long, which would draw without bound
@pytest.mark.parametrize("duration", ["1e300", "1.03e20"])
def test_gen_refuses_a_poisson_mean_past_numpys_limit_by_name(capsys, tmp_path, monkeypatch,
                                                             duration):
    out = tmp_path / "ds"
    monkeypatch.setattr(cli, "synthetic_trials", _fail("the dataset generated"))
    code, _, err = run(capsys, "gen", "--out", str(out), "--set", "synth.q=2",
                       "--set", "synth.m=2", "--set", "synth.trials_per_class=1",
                       "--set", f"synth.trial_duration_ms={duration}")
    assert code == 2
    assert "'synth.trial_duration_ms' must be short enough that 'synth.peak_rate' (90 Hz)" in err
    assert err.rstrip().endswith(f"got {float(duration)!r}")
    assert not out.exists()


@pytest.mark.parametrize("cmd, setting, named", [
    ("eval", "decoder.tol_ms=-5", "tol_ms"),
    ("roc", "decoder.tol_ms=nan", "tol_ms"),
    ("roc", "roc.theta_min=nan", "NaN"),
])
def test_bad_scoring_settings_are_rejected_before_outputs_are_computed(
        capsys, tmp_path, monkeypatch, easy_run, cmd, setting, named):
    ds, model = easy_run
    monkeypatch.setattr(decoder, "_output_streams", _fail("decoder outputs computed"))
    code, _, err = run(capsys, cmd, "--data", str(ds), "--model", str(model),
                       "--out", str(tmp_path / "out"), "--seed", "3", *SMALL_CHIP,
                       "--set", setting)
    assert code == 2 and named in err


@pytest.mark.parametrize("cmd, setting, named", [
    ("train", "decoder.theta=nan", "theta"),
    ("train", "decoder.lam=11", "lam"),
    ("train", "decoder.tr_ms=-1", "tr_ms"),
    ("sweep", "decoder.theta=inf", "theta"),
])
def test_bad_decoder_keys_are_rejected_before_H_is_collected(capsys, tmp_path, monkeypatch,
                                                             easy_run, cmd, setting, named):
    ds, _ = easy_run
    monkeypatch.setattr(cli, "collect_H", _fail("H collected"))
    out = tmp_path / "out"
    code, _, err = run(capsys, cmd, "--data", str(ds), "--out", str(out), "--seed", "3",
                       *SMALL_CHIP, "--set", "sweep.l_grid=8", "--set", setting)
    assert code == 2 and named in err
    assert not out.exists()


def test_noisy_stream_outputs_are_the_ones_eval_scores(capsys, tmp_path, monkeypatch, easy_run):
    ds, model = easy_run
    base = ["--data", str(ds), "--model", str(model), "--seed", "3", *SMALL_CHIP,
            "--set", "decoder.noise_seed=5"]
    scored = []
    score_onsets = decoder.score_onsets

    def spy(trials, outputs, *args):
        scored.extend(outputs)
        return score_onsets(trials, outputs, *args)

    monkeypatch.setattr(decoder, "score_onsets", spy)
    assert run(capsys, "eval", *base, "--set", "decoder.noise_on=true")[0] == 0

    def streamed(idx, *extra):
        out = tmp_path / "stream.csv"
        assert run(capsys, "stream", *base, "--trial", str(idx), "--out", str(out), "--force",
                   *extra)[0] == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        cols = [k for k, name in enumerate(header) if name.startswith("o_")]
        return np.array([[float(row[k]) for k in cols] for row in rows])

    for idx in (0, 5):
        assert np.array_equal(streamed(idx, "--set", "decoder.noise_on=true"), scored[idx])
    assert not np.array_equal(streamed(5), scored[5])  # the noise is on


def test_a_streamed_trial_draws_the_noise_of_its_index(capsys, tmp_path, shared_run):
    ds, model_file = shared_run
    out, k = tmp_path / "stream.csv", 5
    assert run(capsys, "stream", "--data", str(ds), "--model", str(model_file), "--trial", str(k),
               "--set", "decoder.noise_on=true", "--set", "decoder.noise_seed=5",
               "--out", str(out))[0] == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    cols = [c for c, name in enumerate(header) if name.startswith("o_")]
    streamed = np.array([[float(row[c]) for c in cols] for row in rows])
    manifest, model = spikeio.read_manifest(ds), load_model(model_file)
    chip = build_chip(model.chip_seed, AnalogParams(), model.frontend.rows, model.beta.shape[0])
    [want] = decoder._output_streams(manifest, [k], model, chip, 5)
    assert np.array_equal(streamed, want)
    # a one-trial view of the manifest would decode trial k on index 0's stream
    view = dataclasses.replace(manifest, trials=[manifest.trials[k]])
    [on_index_0] = decoder._output_streams(view, [0], model, chip, 5)
    assert not np.array_equal(streamed, on_index_0)


@pytest.fixture(scope="module")
def shared_run(tmp_path_factory):
    """The easy dataset and model, made once for the tests that only read them."""
    root = tmp_path_factory.mktemp("shared")
    ds, model = root / "ds", root / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--out", str(ds), "--seed", "3", *EASY_GEN]) == 0
        assert main(["train", "--data", str(ds), "--out", str(model), "--seed", "3",
                     *SMALL_CHIP]) == 0
    return ds, model


def test_stream_reads_only_the_trial_it_decodes(capsys, tmp_path, monkeypatch, shared_run):
    source, model = shared_run
    ds = tmp_path / "ds"
    shutil.copytree(source, ds)
    manifest = ds / "manifest.csv"
    header, *rows = manifest.read_text().splitlines()
    manifest.write_text("\n".join([header, "", *rows[:3], "", "", *rows[3:]]) + "\n")
    base = ["--data", str(ds), "--model", str(model), "--seed", "3", *SMALL_CHIP,
            "--set", "decoder.noise_on=true"]
    scored = []
    score_onsets = decoder.score_onsets
    monkeypatch.setattr(decoder, "score_onsets",
                        lambda trials, outputs, *a: scored.extend(outputs)
                        or score_onsets(trials, outputs, *a))
    assert run(capsys, "eval", *base)[0] == 0
    opened = _count_opens(monkeypatch)
    out = tmp_path / "stream.csv"

    def stream():
        opened.clear()
        return run(capsys, "stream", *base, "--trial", "5", "--out", str(out), "--force")

    # trial 5 is the fifth row after the blank lines, and draws trial 5's noise
    assert stream()[0] == 0
    assert opened == ["c02_r001.csv"]
    header, *lines = [line.split(",") for line in out.read_text().splitlines()]
    cols = [k for k, name in enumerate(header) if name.startswith("o_")]
    assert np.array_equal([[float(row[k]) for k in cols] for row in lines], scored[5])
    want = out.read_bytes()
    # another trial's corrupt or missing event file is not read by stream ...
    (ds / "events" / "c01_r002.csv").write_text("time_us,channel\n5,0\n3,0\n")
    (ds / "events" / "c02_r003.csv").unlink()
    assert stream()[0] == 0 and out.read_bytes() == want
    # ... but eval and roc still read and check every file
    for cmd in ("eval", "roc"):
        code, _, err = run(capsys, cmd, *base, "--out", str(tmp_path / cmd))
        assert code == 2 and "c01_r002.csv:3" in err
    # the trial's own corrupt file is an error that names its line
    (ds / "events" / "c02_r001.csv").write_text("time_us,channel\n5,0\n6,zero\n")
    out.unlink()
    code, _, err = run(capsys, "stream", *base, "--trial", "5", "--out", str(out))
    assert code == 2 and "c02_r001.csv:3" in err and "channel" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["eval", "roc", "stream"])
@pytest.mark.parametrize("q", [6, 10])
def test_decode_commands_reject_a_dataset_of_another_channel_count(capsys, tmp_path, monkeypatch,
                                                                  shared_run, cmd, q):
    _, model = shared_run  # its front end takes 8 channels
    ds, bare = tmp_path / "ds", tmp_path / "bare"
    assert run(capsys, "gen", "--out", str(ds), "--seed", "3", *EASY_GEN,
               "--set", f"synth.q={q}")[0] == 0
    shutil.copytree(ds, bare)
    (bare / "meta.txt").unlink()
    out = tmp_path / "out"
    argv = [cmd, "--model", str(model), "--out", str(out), "--seed", "3", *SMALL_CHIP]
    # without meta.txt the channel count is inferred: only an event on a
    # channel the front end does not have is an error
    code, _, err = run(capsys, *argv, "--data", str(bare))
    if q < 8:
        assert code == 0, err
        out.unlink()
    else:
        assert code == 2 and "front end takes 8 channels" in err
        assert "outside [0, 8)" in err and ".csv:" in err
    monkeypatch.setattr(decoder, "_output_streams", _fail("decoder outputs computed"))
    monkeypatch.setattr(cli, "decode_stream", _fail("the trial decoded"))
    code, _, err = run(capsys, *argv, "--data", str(ds))
    assert code == 2
    assert f"front end takes 8 channels: meta.txt declares {q} channels" in err
    assert not out.exists()


ANALOG_FLOATS = [f.name for f in dataclasses.fields(AnalogParams) if f.type == "float"]


def test_non_finite_analog_settings_are_rejected_naming_their_key(capsys, tmp_path, monkeypatch,
                                                                  shared_run):
    ds, model = shared_run
    monkeypatch.setattr(decoder, "_output_streams", _fail("decoder outputs computed"))
    monkeypatch.setattr(cli, "collect_H", _fail("H collected"))
    assert "alpha_supply" in ANALOG_FLOATS and len(ANALOG_FLOATS) == 13
    for name in ANALOG_FLOATS:
        for value, shown in (("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity")):
            code, _, err = run(capsys, "eval", "--data", str(ds), "--model", str(model),
                               "--seed", "3", *SMALL_CHIP, "--set", f"analog.{name}={value}")
            assert code == 2 and f"'analog.{name}' must be a finite number" in err
            assert err.rstrip().endswith(f"got {shown}")
    code, _, err = run(capsys, "train", "--data", str(ds), "--out", str(tmp_path / "m.json"),
                       "--seed", "3", *SMALL_CHIP, "--set", "analog.alpha_supply=nan")
    assert code == 2 and "'analog.alpha_supply' must be a finite number > 0, got NaN" in err


@pytest.mark.parametrize("key", ["roc.theta_min", "roc.theta_max"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_roc_bounds_are_named_before_any_work(capsys, tmp_path, monkeypatch, key,
                                                         value):
    monkeypatch.setattr(cli, "_load_runtime", _fail("the model or the data read"))
    out = tmp_path / "roc.csv"
    code, _, err = run(capsys, "roc", "--data", str(tmp_path / "none"), "--model",
                       str(tmp_path / "none.json"), "--out", str(out), "--set", f"{key}={value}")
    assert code == 2
    shown = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[value]
    assert f"'{key}' must be a finite number, got {shown}" in err
    assert not out.exists()
