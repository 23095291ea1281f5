"""Flat ``key = value`` run configuration with typed defaults.

Every tunable across the package has a namespaced key; a config file (or
``--set`` override) may only assign known keys, and values are coerced to
the default's type.  The ``synth.*``, ``analog.*``, ``trap.*`` and
``budget.*`` keys are the fields of their parameter classes, and the model
``decoder.*`` keys are fields of ``DecoderModel``: their defaults live on
those dataclasses, and ``section`` builds a parameter object from its keys.
``echo_config`` renders a resolved configuration as config-file text, so a
run's echoed configuration can be fed straight back in to reproduce it.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .analog import AnalogParams
from .budget import BudgetInputs
from .decoder import DecoderModel
from .fields import under
from .spikeio import SynthParams
from .training import TrapezoidParams


class ConfigError(ValueError):
    """Unknown key, malformed line, or a value of the wrong type."""


#: Config sections that are parameter classes: one ``section.field`` key per field.
SECTIONS = {
    "synth": SynthParams,  # synthetic dataset generator
    "analog": AnalogParams,  # analog fabric
    "trap": TrapezoidParams,  # onset-membership trapezoid, ms from trial start
    "budget": BudgetInputs,  # power/energy/data-rate budget
}

#: The ``DecoderModel`` fields that ``decoder.<name>`` keys set.
DECODER_KEYS = ("theta", "lam", "tau", "tr_ms", "normalize")

#: Every supported key with its default value; types are taken from here.
DEFAULTS: dict[str, object] = {
    **{f"{name}.{f.name}": f.default for name, cls in SECTIONS.items() for f in fields(cls)},
    **{f"decoder.{f.name}": f.default for f in fields(DecoderModel) if f.name in DECODER_KEYS},
    # front end layout
    "frontend.mode": "direct",  # direct | tdbdi
    "frontend.p": 2,  # rows per channel under tdbdi
    "frontend.link_delay": 5,  # sub-windows per delay link
    "frontend.t_s_ms": 20.0,  # sub-window period
    # chip instantiation
    "chip.seed": 1,
    "chip.d": 0,  # 0 = take the front end's row count (or synth.q standalone)
    "chip.l": 60,
    "chip.probe_code": 8,  # diagonal DAC code for the mismatch map
    # training
    "train.method": "T1",  # T1 | T2
    "train.ridge_lambda": 0.0,
    "train.l1_lambda": -1.0,  # < 0 = unset
    "train.target_sparsity": -1.0,  # < 0 = unset
    "train.refit": False,
    "train.sample_policy": "unambiguous",  # unambiguous | plateau | all
    "train.noise_on": False,
    "train.noise_seed": 0,
    # runtime decoder scoring
    "decoder.tol_ms": 150.0,  # onset truth window for scoring
    "decoder.noise_on": False,
    "decoder.noise_seed": 0,
    # train/test splitting (sweep)
    "split.test_fraction": 0.3,
    "split.seed": 0,
    # streaming decode
    "stream.trial": "0",  # trial index or trial id
    # ROC sweep
    "roc.theta_min": 0.0,
    "roc.theta_max": 1.5,
    "roc.points": 20,
    # accuracy sweep grids (comma-separated)
    "sweep.l_grid": "10,20,40,60",
    "sweep.n_grid": "0",  # 0 = all dataset channels
    "sweep.p_grid": "1",
    "sweep.methods": "T1",
    "sweep.chip_seeds": "1,2,3,4,5",
}


def section(cfg: dict[str, object], name: str):
    """The parameter object of section ``name``, built from its keys in
    ``cfg``; a value outside its field's domain is named by its key."""
    cls = SECTIONS[name]
    with under(f"{name}."):
        return cls(**{f.name: cfg[f"{name}.{f.name}"] for f in fields(cls)})


_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def coerce(key: str, raw: str) -> object:
    """Convert a raw string to the key's type, or raise ConfigError."""
    if key not in DEFAULTS:
        raise ConfigError(f"unknown configuration key {key!r}")
    default = DEFAULTS[key]
    raw = raw.strip()
    try:
        if isinstance(default, bool):  # must precede int: bool is an int subclass
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse ``key = value`` lines; ``#`` starts a comment; blank lines skip."""
    out: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        try:
            out[key.strip()] = coerce(key.strip(), raw)
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from exc
    return out


def load_config(path: str | Path) -> dict[str, object]:
    path = Path(path)
    return parse_config_text(path.read_text(), source=str(path))


def resolve_config(
    config_path: str | Path | None = None,
    sets: list[str] | tuple[str, ...] = (),
    seed: int | None = None,
) -> dict[str, object]:
    """Defaults <- config file <- --set overrides <- --seed convenience.

    ``--seed`` assigns the generator and chip seeds in one stroke; the
    individual keys stay available for finer control.
    """
    cfg = dict(DEFAULTS)
    if config_path is not None:
        cfg.update(load_config(config_path))
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg[key.strip()] = coerce(key.strip(), raw)
    if seed is not None:
        cfg["synth.seed"] = int(seed)
        cfg["chip.seed"] = int(seed)
    return cfg


def format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: dict[str, object]) -> str:
    """Render a configuration as config-file text, keys sorted."""
    return "\n".join(f"{key} = {format_value(cfg[key])}" for key in sorted(cfg))


def parse_int_list(raw: str, key: str = "") -> list[int]:
    """Comma-separated integers; empty string means the empty list.  An
    error names ``key``, the setting ``raw`` came from, if given."""
    items = [part.strip() for part in raw.split(",") if part.strip()]
    try:
        return [int(item) for item in items]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {raw!r}{key and f' for {key!r}'}: {exc}") from exc


def parse_str_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]
