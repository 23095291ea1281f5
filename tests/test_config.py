"""Tests for the flat key = value configuration layer."""

import typing
from dataclasses import fields

import pytest

from mlcpsim.config import (
    DECODER_KEYS,
    DEFAULTS,
    SECTIONS,
    ConfigError,
    coerce,
    echo_config,
    load_config,
    parse_config_text,
    parse_int_list,
    resolve_config,
    section,
)
from mlcpsim.decoder import DecoderModel


def test_resolve_without_inputs_is_defaults():
    assert resolve_config() == DEFAULTS


def test_parse_comments_blanks_and_assignments():
    text = """
    # a comment line
    synth.q = 12   # trailing comment

    decoder.theta = 0.5
    frontend.mode = tdbdi
    analog.use_full_cco = yes
    """
    cfg = parse_config_text(text)
    assert cfg == {
        "synth.q": 12,
        "decoder.theta": 0.5,
        "frontend.mode": "tdbdi",
        "analog.use_full_cco": True,
    }


def test_unknown_key_rejected_with_location():
    with pytest.raises(ConfigError, match="myfile:2"):
        parse_config_text("synth.q = 5\nbogus.key = 1\n", source="myfile")
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config_text("bogus.key = 1\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("synth.q\n")


def test_type_coercion_and_errors():
    assert coerce("synth.q", " 7 ") == 7
    assert coerce("decoder.theta", "1e-1") == 0.1
    assert coerce("train.method", "T2") == "T2"
    for raw, value in [("true", True), ("0", False), ("Off", False), ("YES", True)]:
        assert coerce("decoder.normalize", raw) is value
    with pytest.raises(ConfigError, match="synth.q"):
        coerce("synth.q", "7.5")
    with pytest.raises(ConfigError, match="boolean"):
        coerce("decoder.normalize", "maybe")


def test_set_overrides_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("synth.q = 5\nchip.l = 20\n")
    cfg = resolve_config(path, sets=["synth.q=9"])
    assert cfg["synth.q"] == 9  # --set wins over the file
    assert cfg["chip.l"] == 20  # file wins over the default
    assert cfg["synth.m"] == DEFAULTS["synth.m"]


def test_bad_set_syntax():
    with pytest.raises(ConfigError, match="key=value"):
        resolve_config(sets=["synth.q"])


def test_seed_sets_generator_and_chip():
    cfg = resolve_config(seed=42)
    assert cfg["synth.seed"] == 42
    assert cfg["chip.seed"] == 42


def test_echo_roundtrip_exact():
    cfg = resolve_config(
        sets=[
            "synth.baseline_rate=7.25",
            "analog.use_full_cco=true",
            "train.method=T2",
            "sweep.l_grid=5,10",
            "decoder.tr_ms=142.5",
        ]
    )
    # echoed text parses back to the identical configuration
    assert parse_config_text(echo_config(cfg)) == cfg


def test_load_config_from_disk(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("roc.points = 7\n")
    assert load_config(path) == {"roc.points": 7}


def test_int_list_parsing():
    assert parse_int_list("10, 20,40") == [10, 20, 40]
    assert parse_int_list("") == []
    with pytest.raises(ConfigError):
        parse_int_list("10,x")


def _field_keys(prefix, cls, names=None):
    """(key, field default, annotated type) of every config-backed field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return [(f"{prefix}.{f.name}", f.default, hints[f.name]) for f in fields(cls)
            if names is None or f.name in names]


def test_section_and_decoder_keys_are_the_dataclass_fields():
    backed = [row for name, cls in SECTIONS.items() for row in _field_keys(name, cls)]
    backed += _field_keys("decoder", DecoderModel, DECODER_KEYS)
    assert len(backed) == len({key for key, _, _ in backed}) == 46 + len(DECODER_KEYS)
    assert {f"decoder.{name}" for name in DECODER_KEYS} <= {key for key, _, _ in backed}
    for key, default, hint in backed:
        # the default's type is what coerce parses, so it must be the annotated one
        assert type(DEFAULTS[key]) is hint, key
        assert DEFAULTS[key] == default, key
    section_keys = {key for key in DEFAULTS if key.split(".")[0] in SECTIONS}
    assert section_keys == {key for key, _, _ in backed if not key.startswith("decoder.")}


def test_section_of_the_defaults_is_the_default_instance():
    cfg = resolve_config()
    for name, cls in SECTIONS.items():
        assert section(cfg, name) == cls()
    cfg = resolve_config(sets=["analog.fmax_sel=3", "trap.t1_ms=950"])
    assert section(cfg, "analog").fmax_sel == 3
    assert section(cfg, "trap").t1_ms == 950.0


def test_unknown_section_keys_rejected():
    for key in ("analog.bogus", "trap.t4_ms", "budget.D", "decoder.chip_seed", "decoder.m"):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            resolve_config(sets=[f"{key}=1"])
