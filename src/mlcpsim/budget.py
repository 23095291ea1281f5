"""Power, energy-efficiency, and telemetry data-rate calculators.

All quantities are plain deterministic arithmetic over SI units (joules,
watts, bits per second).  The first classification stage is the in-chip
random projection (D x L multiply-accumulates amortizing a fixed analog +
digital power draw at the classification rate); the second stage is the
trained output layer ((M+1) x L MACs at a fixed digital energy per MAC).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

from .fields import FieldError, bounds, check_fields


#: The largest integer input.  A float holds every integer up to it exactly,
#: so the arithmetic never meets an integer too large to convert to a float.
INT_MAX = 2**53


@dataclass(frozen=True)
class BudgetInputs:
    """Dimensions, rates, and device constants for the budget arithmetic."""

    d: int = bounds(40, ge=1, le=INT_MAX)  # input channels into the projection stage
    l: int = bounds(60, ge=1, le=INT_MAX)  # hidden neurons
    c: int = bounds(12, ge=2, le=INT_MAX)  # output classes (second-stage columns)
    f_class_hz: float = bounds(50.0, gt=0)  # classification rate
    p_analog_w: float = bounds(360e-9, gt=0)  # fixed analog-domain power
    p_digital_w: float = bounds(54e-9, gt=0)  # on-chip digital power
    e_mac_digital_j: float = bounds(11e-12, gt=0)  # second-stage energy per MAC
    f_bio_hz: float = bounds(100.0, gt=0)  # per-channel event rate on the telemetry link
    f_deco_hz: float = bounds(50.0, gt=0)  # decoder output rate
    address_bits: int = bounds(8, ge=1, le=INT_MAX)
    channel_count: int = bounds(256, ge=1, le=INT_MAX)
    raw_channels: int = bounds(100, ge=1, le=INT_MAX)
    raw_sample_rate_hz: float = bounds(20e3, gt=0)
    raw_resolution_bits: int = bounds(10, ge=1, le=INT_MAX)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class EnergyBudget:
    """Per-classification and per-MAC energies (joules)."""

    e_per_classify_stage1: float
    e_per_mac_stage1: float
    e_per_classify_total: float
    e_per_mac_combined: float


@dataclass(frozen=True)
class DataRates:
    """Telemetry rates (bits per second) at three processing depths."""

    r_raw_bps: float  # digitized broadband samples
    r_conv_bps: float  # spike events as address-coded packets
    r_prop_bps: float  # decoded class labels only


@dataclass(frozen=True)
class BudgetReport:
    """Combined energy + data-rate report with the inputs that produced it."""

    inputs: BudgetInputs
    energy: EnergyBudget
    rates: DataRates


def energy_report(inputs: BudgetInputs) -> EnergyBudget:
    """Energy per classification and per MAC for both stages.

    Stage 1 amortizes the fixed chip power over classifications and over
    its d*l MACs; the full pipeline adds c*l second-stage MACs at a fixed
    digital energy each.
    """
    e_stage1 = (inputs.p_analog_w + inputs.p_digital_w) / inputs.f_class_hz
    macs_stage1 = inputs.d * inputs.l
    macs_stage2 = inputs.c * inputs.l
    e_total = e_stage1 + macs_stage2 * inputs.e_mac_digital_j
    return EnergyBudget(
        e_per_classify_stage1=e_stage1,
        e_per_mac_stage1=e_stage1 / macs_stage1,
        e_per_classify_total=e_total,
        e_per_mac_combined=e_total / (macs_stage1 + macs_stage2),
    )


def datarate_report(inputs: BudgetInputs) -> DataRates:
    """Telemetry bit rates: raw waveforms, address-coded events, labels."""
    # ceil(log2 c) bits per emitted label, exactly, via integer arithmetic
    label_bits = (inputs.c - 1).bit_length()
    return DataRates(
        r_raw_bps=inputs.raw_channels * inputs.raw_sample_rate_hz * inputs.raw_resolution_bits,
        r_conv_bps=inputs.address_bits * inputs.channel_count * inputs.f_bio_hz,
        r_prop_bps=inputs.f_deco_hz * label_bits,
    )


def budget_report(inputs: BudgetInputs) -> BudgetReport:
    """The energy and data rates of ``inputs``.  Finite inputs can still
    overflow the arithmetic: a report value that is not finite raises a
    ``FieldError`` naming it and the input it comes from, the first one that
    makes it finite when set back to its default."""
    report = BudgetReport(inputs=inputs, energy=energy_report(inputs), rates=datarate_report(inputs))
    for group, compute in (("energy", energy_report), ("rates", datarate_report)):
        for name, value in asdict(getattr(report, group)).items():
            if not math.isfinite(value):
                changed = [f for f in fields(inputs) if getattr(inputs, f.name) != f.default]
                fixes = [f.name for f in changed
                         if math.isfinite(getattr(compute(replace(inputs, **{f.name: f.default})), name))]
                key = (fixes or [changed[0].name])[0]
                raise FieldError(key, f"a value that keeps the report's '{group}.{name}' finite",
                                 getattr(inputs, key), "")
    return report


def _si(value: float, unit: str) -> str:
    """Engineering-notation rendering for sub-unit values: 3.45 pJ, 414.00 nW."""
    for scale, prefix in [(1.0, ""), (1e-3, "m"), (1e-6, "u"), (1e-9, "n"), (1e-12, "p")]:
        if value >= scale:
            return f"{value / scale:.2f} {prefix}{unit}"
    return f"{value / 1e-15:.2f} f{unit}"


def _rate(bps: float) -> str:
    """Bit-rate rendering: 20.00 Mbps, 204.80 kbps, 200.00 bps."""
    for scale, unit in [(1e6, "Mbps"), (1e3, "kbps")]:
        if bps >= scale:
            return f"{bps / scale:.2f} {unit}"
    return f"{bps:.2f} bps"


def format_budget(report: BudgetReport) -> str:
    """Aligned, human-readable text table of the full budget."""
    inp, e, r = report.inputs, report.energy, report.rates
    rows = [
        ("dimensions (d x l, c)", f"{inp.d} x {inp.l}, {inp.c}"),
        ("classification rate", f"{inp.f_class_hz:g} Hz"),
        ("stage-1 power", _si(inp.p_analog_w + inp.p_digital_w, "W")),
        ("energy/classify (stage 1)", _si(e.e_per_classify_stage1, "J")),
        ("energy/MAC (stage 1)", _si(e.e_per_mac_stage1, "J/MAC")),
        ("energy/classify (total)", _si(e.e_per_classify_total, "J")),
        ("energy/MAC (combined)", _si(e.e_per_mac_combined, "J/MAC")),
        ("raw waveform rate", _rate(r.r_raw_bps)),
        ("event-address rate", _rate(r.r_conv_bps)),
        ("decoded-label rate", _rate(r.r_prop_bps)),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def budget_json(report: BudgetReport) -> str:
    """Byte-deterministic JSON rendering of the full budget."""
    return json.dumps(asdict(report), sort_keys=True, separators=(",", ":"))
