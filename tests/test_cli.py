"""End-to-end tests of the command-line surface (in-process via main)."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from mlcpsim.analog import load_chip
from mlcpsim.cli import main
from mlcpsim.config import parse_config_text, resolve_config
from mlcpsim.decoder import load_model
from cli_oracle import oracle_sweep

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
        code, _, _ = run(capsys, "sweep", "--data", str(ds), "--out", str(out),
                         "--seed", "3", *sweep_args)
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
    code, text, _ = run(capsys, "sweep", "--data", str(ds), "--out", str(out), "--seed", "4",
                        *[arg for s in sets for arg in ("--set", s)])
    assert code == 0
    want_csv, want_notes = oracle_sweep(resolve_config(None, sets, seed=4), ds)
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
                       "--set", "sweep.p_grid=1,2", "--set", "sweep.l_grid=8")
    assert code == 2
    assert "sweep.p_grid" in err and "frontend.mode=direct" in err
    assert not out.exists()


BOTH_T2_PENALTIES = ["--set", "train.l1_lambda=0.5", "--set", "train.target_sparsity=0.3"]


@pytest.mark.parametrize("cmd, extra", [("train", ["--set", "train.method=T2"]),
                                        ("sweep", ["--set", "sweep.methods=T1,T2",
                                                   "--set", "sweep.l_grid=8"])])
def test_conflicting_t2_penalties_are_a_data_error(capsys, tmp_path, easy_run, cmd, extra):
    ds, _ = easy_run
    out = tmp_path / "out"
    code, _, err = run(capsys, cmd, "--data", str(ds), "--out", str(out), "--seed", "3",
                       *SMALL_CHIP, *BOTH_T2_PENALTIES, *extra)
    assert code == 2
    assert "l1_lambda" in err and "target_sparsity" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd, extra", [("train", []), ("sweep", ["--set", "sweep.l_grid=8"])])
def test_t1_ignores_the_t2_penalties(capsys, tmp_path, easy_run, cmd, extra):
    ds, _ = easy_run
    code, _, _ = run(capsys, cmd, "--data", str(ds), "--out", str(tmp_path / "out"), "--seed", "3",
                     *SMALL_CHIP, *BOTH_T2_PENALTIES, *extra)
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
    assert "frontend.mode" in err and "'tdbd'" in err
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
