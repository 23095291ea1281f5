"""Field domains: every parameter key, file field and dataclass field is
checked by the one rule on its dataclass, NaN-safe, and the error names the
key the value came from."""

import dataclasses
import json
import math

import numpy as np
import pytest

from mlcpsim import cli, spikeio
from mlcpsim.analog import AnalogParams, ChipInstance, build_chip, load_chip, save_chip
from mlcpsim.budget import BudgetInputs
from mlcpsim.cli import main
from mlcpsim.config import DECODER_KEYS, SECTIONS
from mlcpsim.decoder import DecoderModel, load_model, save_model
from mlcpsim.fields import FieldError
from mlcpsim.frontend import FrontendConfig
from mlcpsim.spikeio import SynthParams
from mlcpsim.training import TrapezoidParams
from test_files import golden_chip, golden_model


def below(x: float) -> str:
    return repr(math.nextafter(x, -math.inf))


def above(x: float) -> str:
    return repr(math.nextafter(x, math.inf))


#: Every checked key: the command (or commands) that read it, and values
#: outside its domain, just past its edges where it has them (each key also
#: gets NaN and both infinities).  The edges of the ordered fields are their
#: neighbours' defaults.  ``stream.trial`` names any trial index or id, so
#: only the dataset can refuse it.
EDGES = {
    "synth.q": ("gen", ["0"]),
    "synth.m": ("gen", ["0"]),
    "synth.baseline_rate": ("gen", [below(0.0)]),
    "synth.peak_rate": ("gen", [below(8.0)]),
    "synth.tuning_width": ("gen", ["0.0", "-0.0", below(0.0)]),
    "synth.ramp_start_ms": ("gen", [above(-100.0)]),
    "synth.ramp_peak_ms": ("gen", [below(-300.0), above(100.0)]),
    "synth.decay_start_ms": ("gen", [below(-100.0), above(300.0)]),
    "synth.decay_end_ms": ("gen", [below(100.0)]),
    "synth.onset_ms": ("gen", [below(0.0), above(2000.0)]),
    "synth.trial_duration_ms": ("gen", [below(0.0), below(1000.0)]),
    "synth.trials_per_class": ("gen", ["0"]),
    "synth.seed": ("gen", ["-1"]),
    "analog.i_ref_na": ("train", [below(1.0), above(63.0)]),
    "analog.c_f_f": ("train", ["0.0", below(0.0)]),
    "analog.dvdd_v": ("train", ["0.0", below(0.0)]),
    "analog.u_t_mv": ("train", ["0.0", below(0.0)]),
    "analog.sigma_vt_mv": ("train", [below(0.0)]),
    "analog.mu_vt_mv": ("train", []),
    "analog.dnl_max_lsb": ("train", [below(0.0)]),
    "analog.t_cnt_s": ("train", ["0.0", below(0.0)]),
    "analog.fmax_sel": ("train", ["-1", "8"]),
    "analog.jitter_rel": ("train", [below(0.0)]),
    "analog.mirror_snr_db": ("train", []),
    "analog.b_na": ("train", []),
    "analog.alpha_supply": ("train", ["0.0", below(0.0)]),
    "analog.use_full_cco": ("train", ["2"]),
    "analog.i_rst_na": ("train", []),
    "trap.t0_ms": ("train", [above(900.0)]),
    "trap.t1_ms": ("train", [below(800.0), above(1100.0)]),
    "trap.t2_ms": ("train", [below(900.0), above(1200.0)]),
    "trap.t3_ms": ("train", [below(1100.0)]),
    "budget.d": ("budget", ["0"]),
    "budget.l": ("budget", ["0"]),
    "budget.c": ("budget", ["1"]),
    "budget.f_class_hz": ("budget", ["0.0", below(0.0)]),
    "budget.p_analog_w": ("budget", ["0.0", below(0.0)]),
    "budget.p_digital_w": ("budget", ["0.0", below(0.0)]),
    "budget.e_mac_digital_j": ("budget", ["0.0", below(0.0)]),
    "budget.f_bio_hz": ("budget", ["0.0", below(0.0)]),
    "budget.f_deco_hz": ("budget", ["0.0", below(0.0)]),
    "budget.address_bits": ("budget", ["0"]),
    "budget.channel_count": ("budget", ["0"]),
    "budget.raw_channels": ("budget", ["0"]),
    "budget.raw_sample_rate_hz": ("budget", ["0.0", below(0.0)]),
    "budget.raw_resolution_bits": ("budget", ["0"]),
    "decoder.theta": ("train", []),
    "decoder.lam": ("train", ["0", "11"]),
    "decoder.tau": ("train", ["0", "5"]),
    "decoder.tr_ms": ("train", [below(0.0)]),
    "decoder.normalize": ("train", ["2"]),
    "frontend.t_s_ms": ("train", ["0.0", below(0.0), "0.0004", "19.9996", "1e300"]),
    "frontend.mode": ("train", ["tdbd", "direct"]),
    "frontend.p": ("train", ["0"]),
    "frontend.link_delay": ("train", ["0", "6"]),
    "chip.d": ("train", ["-1", "5"]),
    "chip.probe_code": ("chip", ["0", "64"]),
    "train.ridge_lambda": ("train", [below(0.0)]),
    "train.method": ("train", ["T3"]),
    "train.sample_policy": ("train", ["every"]),
    "split.test_fraction": ("sweep", ["0.0", "1.0", "1.5"]),
    "sweep.p_grid": ("sweep", ["0", "1,0"]),
    "sweep.methods": ("sweep", ["T1,T3", "T1,T1", ""]),
    "decoder.tol_ms": (("eval", "sweep"), [below(0.0)]),  # sweep echoes it
    "chip.seed": ("chip", ["-1"]),
    "chip.l": ("chip", ["0", "129"]),
    "train.l1_lambda": ("train", []),
    "train.target_sparsity": ("train", ["1.0"]),
    "train.refit": ("train", ["2"]),
    "train.noise_on": ("train", ["2"]),
    "train.noise_seed": ("train", ["-1"]),
    "decoder.noise_on": ("eval", ["2"]),
    "decoder.noise_seed": ("eval", ["-1"]),
    "split.seed": ("sweep", ["-1"]),
    "stream.trial": ((), []),
    "roc.theta_min": ("roc", []),
    "roc.theta_max": ("roc", []),
    "roc.points": ("roc", ["0"]),
    "sweep.l_grid": ("sweep", ["", "0", "129", "8,x", "8,8"]),
    "sweep.n_grid": ("sweep", ["", "-1", "0,0"]),
    "sweep.chip_seeds": ("sweep", ["", "-1", "1,1"]),
}
#: ``train`` settings whose domain depends on another key, or that leave
#: the setting unset when negative: (key, settings).
TRAIN_ONLY = [
    ("train.l1_lambda", ["train.method=T2", "train.l1_lambda=inf"]),
    ("train.target_sparsity", ["train.method=T2", "train.target_sparsity=1.0"]),
    ("frontend.p", ["frontend.mode=tdbdi", "frontend.p=200"]),
]
#: (command, key, settings), each named by its settings, after its command
#: when that is not the first of an ``EDGES`` key read by two.
CASES = ([pytest.param(command, key, [f"{key}={value}"],
                       id=f"{key}={value}" if i == 0 else f"{command} {key}={value}")
          for key, (commands, values) in EDGES.items()
          for i, command in enumerate([commands] if isinstance(commands, str) else commands)
          for value in ["nan", "inf", "-inf", *values]]
         + [pytest.param("train", key, settings, id=" ".join(settings))
            for key, settings in TRAIN_ONLY])


def test_the_sweep_covers_every_section_and_decoder_key():
    keys = {f"{name}.{f.name}" for name, cls in SECTIONS.items() for f in dataclasses.fields(cls)}
    keys |= {f"decoder.{name}" for name in DECODER_KEYS}
    assert keys <= set(EDGES)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fields") / "ds"
    assert main(["gen", "--out", str(root), "--set", "synth.q=4", "--set", "synth.m=2",
                 "--set", "synth.trials_per_class=1"]) == 0
    return root


@pytest.fixture(scope="module")
def tiny_model(tiny_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("fields") / "model.json"
    assert main(["train", "--data", str(tiny_dataset), "--out", str(path)]) == 0
    return path


def _fail(*args, **kwargs):
    raise AssertionError("expensive work started before the settings were checked")


@pytest.mark.parametrize("command, key, settings", CASES)
def test_each_setting_outside_its_domain_exits_2_naming_its_key(capsys, tmp_path, monkeypatch,
                                                                 tiny_dataset, tiny_model,
                                                                 command, key, settings):
    for name in ("synthetic_trials", "collect_H", "budget_report", "evaluate"):
        monkeypatch.setattr(cli, name, _fail)
    out = tmp_path / "out"
    decode = ["--data", str(tiny_dataset), "--model", str(tiny_model)]
    argv = [command, "--out", str(out)] + {"train": ["--data", str(tiny_dataset)],
                                           "sweep": ["--data", str(tiny_dataset)],
                                           "eval": decode, "roc": decode,
                                           "chip": ["--dump", str(tmp_path / "map.csv")]
                                           }.get(command, [])
    for setting in settings:
        argv += ["--set", setting]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"'{key}'" in err or f"bad value for {key}:" in err
    assert "Traceback" not in err
    assert not out.exists()


#: For each command, a setting outside its domain of a key it does not read.
FOREIGN = {"gen": "roc.points=0", "chip": "train.method=T9", "train": "chip.probe_code=0",
           "eval": "sweep.methods=T1,T1", "stream": "split.seed=-5",
           "roc": "train.sample_policy=bogus", "sweep": "roc.theta_max=inf",
           "budget": "frontend.mode=tdbd"}


def _order_cases():
    """(key, settings) of each field declared >= another field of its class:
    its value just below that field's default."""
    for prefix, cls in [*SECTIONS.items(), ("decoder", DecoderModel)]:
        for f in dataclasses.fields(cls):
            if low := f.metadata.get("ge_field"):
                limit = cls.__dataclass_fields__[low].default
                value = limit - 1 if f.type == "int" else below(limit)
                yield f"{prefix}.{f.name}", [f"{prefix}.{f.name}={value}"]


#: (key, settings) of every rule across keys, each within its own domain.
CROSS = [*_order_cases(),
         ("analog.i_rst_na", ["analog.use_full_cco=true", "analog.i_rst_na=0"]),
         ("analog.i_rst_na", ["analog.use_full_cco=true", f"analog.i_rst_na={below(0.0)}"]),
         ("synth.trial_duration_ms", ["synth.peak_rate=1e19"]),  # a Poisson mean too large
         ("frontend.t_s_ms", ["frontend.t_s_ms=19.9996"]),
         ("frontend.mode", ["frontend.mode=direct", "frontend.p=2"])]


@pytest.mark.parametrize("command, key, settings",
                         [pytest.param(command, setting.split("=")[0], [setting], id=command)
                          for command, setting in FOREIGN.items()]
                         + [pytest.param(command, key, settings,
                                         id=f"{command} {' '.join(settings)}")
                            for key, settings in CROSS for command in FOREIGN])
def test_every_command_refuses_any_key_outside_its_domain_before_reading_a_file(
        capsys, tmp_path, monkeypatch, command, key, settings):
    for module, name in [(cli, "read_manifest"), (spikeio, "read_manifest"),
                         (cli, "synthetic_trials")]:
        monkeypatch.setattr(module, name, _fail)
    missing = tmp_path / "missing"
    argv = [command, "--out", str(tmp_path / "out")]
    for setting in settings:
        argv += ["--set", setting]
    if command in ("train", "sweep", "eval", "stream", "roc"):
        argv += ["--data", str(missing)]
    if command in ("eval", "stream", "roc"):
        argv += ["--model", str(missing / "model.json")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: '{key}' must be "), err
    assert not any(tmp_path.iterdir())


def test_the_order_cases_are_read_from_the_declarations():
    assert {key for key, _ in _order_cases()} >= {
        "synth.peak_rate", "synth.ramp_peak_ms", "synth.decay_start_ms", "synth.decay_end_ms",
        "synth.trial_duration_ms", "trap.t1_ms", "trap.t2_ms", "trap.t3_ms", "decoder.tau"}


def _scalar_paths(cls, prefix=""):
    """(key path, annotated kind) of every scalar field of ``cls`` and of
    the dataclasses nested in it."""
    for f in dataclasses.fields(cls):
        nested = {"params": AnalogParams, "frontend": FrontendConfig, "trap": TrapezoidParams}
        if f.type in ("float", "int", "bool"):
            yield prefix + f.name, f.type
        elif f.name in nested:
            yield from _scalar_paths(nested[f.name], f"{prefix}{f.name}.")


#: JSON values of the wrong type for a field of each kind.
WRONG = {"float": ["1", True, None, math.nan, -math.inf],
         "int": [1.5, 1.0, True, "1"],
         "bool": [1, 0, "true", None]}
FILE_CASES = [(kind, path, value)
              for kind, cls in (("model", DecoderModel), ("chip", ChipInstance))
              for path, scalar in _scalar_paths(cls) for value in WRONG[scalar]]


@pytest.mark.parametrize("kind, path, value", FILE_CASES)
def test_a_wrong_typed_value_in_any_file_field_is_named(tmp_path, kind, path, value):
    save, load, make = {"model": (save_model, load_model, golden_model),
                        "chip": (save_chip, load_chip, golden_chip)}[kind]
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save(make(), good)
    doc = json.loads(good.read_text())
    *outer, name = path.split(".")
    target = doc
    for step in outer:
        target = target[step]
    target[name] = value
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load(bad)
    assert str(info.value).startswith(f"{bad}: '{path}' must be ")
    assert str(info.value).endswith(f", got {json.dumps(value)}")


def _valid_instances():
    frontend = FrontendConfig.tdbdi(2, 2)
    return [AnalogParams(), SynthParams(), BudgetInputs(), TrapezoidParams(), frontend,
            DecoderModel(np.zeros((3, 3)), np.ones(3, bool), 2, frontend=frontend),
            build_chip(1, AnalogParams(), d=2, l=3)]


#: A value of the wrong kind for each annotated scalar kind.
NOT_OF_KIND = {"float": math.nan, "int": True, "bool": 1}


@pytest.mark.parametrize("obj", _valid_instances(), ids=lambda obj: type(obj).__name__)
def test_every_scalar_field_of_every_parameter_class_is_checked(obj):
    fields = dataclasses.fields(obj)
    # a field added later is either a checked scalar or a known container
    assert all(f.type in NOT_OF_KIND or f.type in ("np.ndarray", "dict", "AnalogParams",
                                                   "FrontendConfig", "TrapezoidParams")
               for f in fields), [f.type for f in fields]
    for f in fields:
        if f.type in NOT_OF_KIND:
            with pytest.raises(FieldError, match=f"^'{f.name}' must be "):
                dataclasses.replace(obj, **{f.name: NOT_OF_KIND[f.type]})


def test_build_chip_and_tdbdi_check_sizes_before_building_arrays():
    with pytest.raises(FieldError, match="^'seed' must be an integer >= 0, got -1$"):
        build_chip(-1, AnalogParams(), d=2, l=2)
    with pytest.raises(FieldError, match="^'l' must be an integer >= 1 and <= 128, got 10000$"):
        build_chip(1, AnalogParams(), d=2, l=10_000)
    with pytest.raises(FieldError, match="^'rows' must be an integer >= 1 and <= 128, got 200$"):
        FrontendConfig.tdbdi(100, 2)


def test_cross_field_errors_name_both_fields_under_their_prefix():
    with pytest.raises(FieldError) as info:
        TrapezoidParams(t0_ms=950.0)
    assert str(info.value) == "'t1_ms' must be >= 't0_ms' (950.0), got 900.0"
    assert str(info.value.under("trap.")) == (
        "'trap.t1_ms' must be >= 'trap.t0_ms' (950.0), got 900.0")
    with pytest.raises(FieldError, match="^'i_rst_na' must be > 0 when 'use_full_cco' is true"):
        AnalogParams(use_full_cco=True, i_rst_na=-1.0)
    AnalogParams(use_full_cco=False, i_rst_na=-1.0)  # unused without the full CCO form
