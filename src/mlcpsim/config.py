"""Flat ``key = value`` run configuration with typed, checked defaults.

Every tunable across the package has a namespaced key; a config file (or
``--set`` override) may only assign known keys, and values are coerced to
the default's type.  Every key is a field of a dataclass, declared once with
its default and its domain (``fields.bounds``): each section's keys are the
fields of its class in ``SECTIONS``, and the model ``decoder.*`` keys
(``DECODER_KEYS``) are fields of ``DecoderModel``.  ``resolve_config``
refuses a value outside its field's domain or its class's rules by its key,
before a command reads any file; ``section`` builds a section's object.
``echo_config`` renders a resolved configuration as config-file text, so a
run's echoed configuration can be fed straight back in to reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .analog import AnalogParams, ChipInstance, ChipSettings
from .budget import BudgetInputs
from .decoder import DecoderModel, ScoringSettings, SplitSettings
from .fields import bounds, check_values, parse_str_list, under
from .frontend import FrontendSettings
from .spikeio import SynthParams
from .training import TrainSettings, TrapezoidParams


class ConfigError(ValueError):
    """Unknown key, malformed line, or a value of the wrong type."""


@dataclass
class StreamSettings:
    """The ``stream.*`` key: the trial ``stream`` decodes, by id, else by index."""

    trial: str = "0"


@dataclass
class RocSettings:
    """The ``roc.*`` keys: ``points`` thresholds from ``theta_min`` to ``theta_max``."""

    theta_min: float = 0.0
    theta_max: float = 1.5
    points: int = bounds(20, ge=1)


@dataclass
class SweepSettings:
    """The ``sweep.*`` grids, each a comma-separated list of distinct items."""

    l_grid: str = bounds("10,20,40,60", grid="int", like=(ChipInstance, "l"))
    n_grid: str = bounds("0", grid="int", ge=0)  # 0 = all dataset channels
    p_grid: str = bounds("1", grid="int", like=(FrontendSettings, "p"))
    methods: str = bounds("T1", grid="str", like=(TrainSettings, "method"))
    chip_seeds: str = bounds("1,2,3,4,5", grid="int", like=(ChipInstance, "seed"))


#: Config sections, each a dataclass: one ``section.field`` key per field.
SECTIONS = {
    "synth": SynthParams,  # synthetic dataset generator
    "analog": AnalogParams,  # analog fabric
    "trap": TrapezoidParams,  # onset-membership trapezoid, ms from trial start
    "budget": BudgetInputs,  # power/energy/data-rate budget
    "frontend": FrontendSettings,  # front-end layout
    "chip": ChipSettings,  # chip instantiation
    "train": TrainSettings,  # training
    "decoder": ScoringSettings,  # runtime decoder scoring and noise
    "split": SplitSettings,  # train/test splitting (sweep)
    "stream": StreamSettings,  # streaming decode
    "roc": RocSettings,  # ROC sweep
    "sweep": SweepSettings,  # accuracy sweep grids
}

#: The ``DecoderModel`` fields that ``decoder.<name>`` keys set.
DECODER_KEYS = ("theta", "lam", "tau", "tr_ms", "normalize")

#: (prefix, dataclass, fields) of every key: the sections and the model keys.
_DECLARED = [(name, cls, fields(cls)) for name, cls in SECTIONS.items()] + [
    ("decoder", DecoderModel, [f for f in fields(DecoderModel) if f.name in DECODER_KEYS])]

#: Every supported key with its default value; types are taken from here.
DEFAULTS: dict[str, object] = {f"{name}.{f.name}": f.default
                               for name, _, declared in _DECLARED for f in declared}


def section(cfg: dict[str, object], name: str):
    """The parameter object of section ``name``, built from its keys in
    ``cfg``; a value outside its field's domain is named by its key."""
    cls = SECTIONS[name]
    with under(f"{name}."):
        return cls(**{f.name: cfg[f"{name}.{f.name}"] for f in fields(cls)})


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def coerce(key: str, raw: str) -> object:
    """Convert a raw string to the key's type, or raise ConfigError."""
    if key not in DEFAULTS:
        raise ConfigError(f"unknown configuration key {key!r}")
    default, raw = DEFAULTS[key], raw.strip()
    try:
        if isinstance(default, bool):  # bool(raw) would make any word true
            if raw.lower() not in _BOOLS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOLS[raw.lower()]
        return type(default)(raw)
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
    individual keys stay available for finer control.  Raises ``FieldError``
    naming the first key outside its field's domain, then its class's rules.
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
        cfg["synth.seed"] = cfg["chip.seed"] = int(seed)
    for name, cls, declared in _DECLARED:  # a value outside its domain, by its key
        with under(f"{name}."):
            check_values(cls, {f.name: cfg[f"{name}.{f.name}"] for f in declared})
    for name in SECTIONS:  # then the rules a class checks as it is built
        section(cfg, name)
    return cfg


def format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def echo_config(cfg: dict[str, object]) -> str:
    """Render a configuration as config-file text, keys sorted."""
    return "\n".join(f"{key} = {format_value(cfg[key])}" for key in sorted(cfg))


def parse_int_list(raw: str) -> list[int]:
    """Comma-separated integers; empty string means the empty list."""
    try:
        return [int(item) for item in parse_str_list(raw)]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {raw!r}: {exc}") from exc
