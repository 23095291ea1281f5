"""The model, chip and eval-report JSON formats: exact bytes, and what the
readers reject.

The golden inputs are literal arrays, so no LAPACK or RNG result is involved
and the expected bytes hold on every platform.
"""

import json

import numpy as np
import pytest

from mlcpsim.analog import AnalogParams, ChipInstance, load_chip, save_chip
from mlcpsim.decoder import DecoderModel, EvalReport, load_model, save_model
from mlcpsim.frontend import FrontendConfig
from mlcpsim.training import TrapezoidParams


def golden_model() -> DecoderModel:
    return DecoderModel(
        beta=np.array([[0.5, -1.25, 0.1 + 0.2], [1e-12, 3.0, -0.0], [2.5, 0.0, 1.0 / 3.0]]),
        support=np.array([True, False, True]), m=2, theta=0.6, lam=3, tau=7, tr_ms=120.0,
        normalize=False, chip_seed=11, fmax_sel=5,
        frontend=FrontendConfig.tdbdi(2, 2, link_delay=3, t_s_ms=25.0),
        trap=TrapezoidParams(700.0, 850.0, 1150.0, 1300.5),
        report={"lambda": 0.1 + 0.2, "pruned": 1, "degenerate": False,
                "residual": [0.1, 1e-300], "train_accuracy": 2 / 3})


def golden_chip() -> ChipInstance:
    dnl = np.zeros((2, 63))
    dnl[0, :4] = [0.25, -0.5, 0.1 + 0.2, 1.0 / 3.0]
    dnl[1, 60] = -1.5
    return ChipInstance(5, AnalogParams(i_ref_na=12.5, fmax_sel=3, b_na=0.1 + 0.2), 2, 3,
                        np.array([[1.5, -2.25], [0.0, 1e-3], [-0.1, 0.1 + 0.2]]), dnl)


GOLDEN_MODEL = (
    b'{"beta":[[0.5,-1.25,0.30000000000000004],[1e-12,3.0,-0.0],[2.5,0.0,0.3333333333333333]],'
    b'"chip_seed":11,"fmax_sel":5,"format":"mlcpsim-model",'
    b'"frontend":{"rows":4,"s_ext":[0,1,0,1],"sdl":[0,2,0,2],"t_s_ms":25.0},'
    b'"lam":3,"m":2,"normalize":false,'
    b'"report":{"degenerate":false,"lambda":0.30000000000000004,"pruned":1,'
    b'"residual":[0.1,1e-300],"train_accuracy":0.6666666666666666},'
    b'"support":[1,0,1],"tau":7,"theta":0.6,"tr_ms":120.0,'
    b'"trap":{"t0_ms":700.0,"t1_ms":850.0,"t2_ms":1150.0,"t3_ms":1300.5},"version":1}\n'
)

GOLDEN_CHIP = (
    b'{"d":2,"dac_dnl_lsb":[[0.25,-0.5,0.30000000000000004,0.3333333333333333,'
    + b"0.0," * 58 + b'0.0],[' + b"0.0," * 60 + b'-1.5,0.0,0.0]],'
    b'"delta_vt_mv":[[1.5,-2.25],[0.0,0.001],[-0.1,0.30000000000000004]],'
    b'"format":"mlcpsim-chip","l":3,'
    b'"params":{"alpha_supply":1.0,"b_na":0.30000000000000004,"c_f_f":1e-13,'
    b'"dnl_max_lsb":3.0,"dvdd_v":0.6,"fmax_sel":3,"i_ref_na":12.5,"i_rst_na":1000.0,'
    b'"jitter_rel":0.0005,"mirror_snr_db":43.0,"mu_vt_mv":0.0,"sigma_vt_mv":16.5,'
    b'"t_cnt_s":0.01,"u_t_mv":26.0,"use_full_cco":false},"seed":5,"version":1}\n'
)

GOLDEN_REPORT = (
    '{\n  "accuracy": 0.30000000000000004,\n'
    '  "confusion": [\n    [\n      3,\n      1\n    ],\n    [\n      0,\n      2\n    ]\n  ],\n'
    '  "fp_per_trial": 0.3333333333333333,\n'
    '  "latencies_ms": [\n    20.0,\n    -40.0,\n    0.30000000000000004\n  ],\n'
    '  "metadata": {\n    "aggregation": "per-trial plateau majority",\n    "tol_ms": 150.0\n  },\n'
    '  "n_trials": 6,\n  "tpr": 0.8333333333333334\n}\n'
)


def test_model_file_bytes_are_golden(tmp_path):
    path = tmp_path / "m.json"
    save_model(golden_model(), path)
    assert path.read_bytes() == GOLDEN_MODEL
    save_model(load_model(path), path)
    assert path.read_bytes() == GOLDEN_MODEL


def test_chip_file_bytes_are_golden(tmp_path):
    path = tmp_path / "c.json"
    save_chip(golden_chip(), path)
    assert path.read_bytes() == GOLDEN_CHIP
    save_chip(load_chip(path), path)
    assert path.read_bytes() == GOLDEN_CHIP


def test_eval_report_json_is_golden():
    report = EvalReport(accuracy=0.1 + 0.2, confusion=np.array([[3, 1], [0, 2]]), tpr=5 / 6,
                        fp_per_trial=1 / 3, latencies_ms=[20.0, -40.0, 0.1 + 0.2], n_trials=6,
                        metadata={"aggregation": "per-trial plateau majority", "tol_ms": 150.0})
    assert report.to_json() == GOLDEN_REPORT


def _drop(key):
    return lambda doc: doc.pop(key)


#: One defect per case: (edit of a valid document, or "list" to wrap it in
#: a list; text the error names beside the file)
DEFECTS = {
    "model": {
        "format": (lambda doc: doc.update(format="mlcpsim-chip"), "not a mlcpsim-model file"),
        "version": (lambda doc: doc.update(version=2), "mlcpsim-model version 2"),
        "list": ("list", "not a JSON object"),
        "missing": (_drop("tau"), "missing key 'tau'"),
        "unknown": (lambda doc: doc.update(extra=1), "unknown key 'extra'"),
        "unknown-trap": (lambda doc: doc["trap"].update(t4_ms=0.0), "unknown key 'trap.t4_ms'"),
        "unknown-frontend": (lambda doc: doc["frontend"].update(p=2),
                             "unknown key 'frontend.p'"),
        "missing-frontend": (lambda doc: doc["frontend"].pop("sdl"),
                             "missing key 'frontend.sdl'"),
        "trap-list": (lambda doc: doc.update(trap=[700.0]), "'trap' is not a JSON object"),
        "wrong-type": (lambda doc: doc.update(tau="10"),
                       "'tau' must be an integer >= 1, got \"10\""),
        "string-bool": (lambda doc: doc.update(normalize="false"),
                        "'normalize' must be a boolean, got \"false\""),
        "fractional-int": (lambda doc: doc.update(lam=2.5),
                           "'lam' must be an integer >= 1, got 2.5"),
        "bool-int": (lambda doc: doc.update(m=True), "'m' must be an integer >= 1, got true"),
        "bool-version": (lambda doc: doc.update(version=True), "mlcpsim-model version True"),
        "string-float-frontend": (lambda doc: doc["frontend"].update(t_s_ms="20"),
                                  "'frontend.t_s_ms' must be a finite number > 0, got \"20\""),
    },
    "chip": {
        "format": (lambda doc: doc.update(format="mlcpsim-model"), "not a mlcpsim-chip file"),
        "version": (_drop("version"), "mlcpsim-chip version None"),
        "list": ("list", "not a JSON object"),
        "missing": (_drop("dac_dnl_lsb"), "missing key 'dac_dnl_lsb'"),
        "unknown-params": (lambda doc: doc["params"].update(vdd=1.0),
                           "unknown key 'params.vdd'"),
        "missing-params": (lambda doc: doc["params"].pop("u_t_mv"),
                           "missing key 'params.u_t_mv'"),
        "nan-params": (lambda doc: doc["params"].update(alpha_supply=float("nan")),
                       "'params.alpha_supply' must be a finite number > 0, got NaN"),
        "bool-float-params": (lambda doc: doc["params"].update(i_ref_na=True),
                              "'params.i_ref_na' must be a finite number >= 1.0 and <= 63.0, "
                              "got true"),
        "float-seed": (lambda doc: doc.update(seed=1.0), "'seed' must be an integer >= 0, got 1.0"),
    },
}
DEFECT_CASES = [(kind, name) for kind, cases in DEFECTS.items() for name in cases]


def write_defective(source, target, kind: str, name: str) -> str:
    """Copy the JSON file ``source`` to ``target`` with the defect
    ``DEFECTS[kind][name]``; returns the text its error must name."""
    mutate, named = DEFECTS[kind][name]
    doc = json.loads(source.read_text())
    if mutate == "list":
        doc = [doc]
    else:
        mutate(doc)
    target.write_text(json.dumps(doc))
    return named


@pytest.mark.parametrize("kind, name", DEFECT_CASES)
def test_readers_reject_a_defective_file_naming_it_and_the_key(tmp_path, kind, name):
    save, load, make = {"model": (save_model, load_model, golden_model),
                        "chip": (save_chip, load_chip, golden_chip)}[kind]
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save(make(), good)
    named = write_defective(good, bad, kind, name)
    with pytest.raises(ValueError) as info:
        load(bad)
    assert str(info.value).startswith(f"{bad}: ")
    assert named in str(info.value)
