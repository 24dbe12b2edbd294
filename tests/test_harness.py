"""Config parsing, CLI exit codes, CSV schemas, runners, checkpoints, determinism."""

import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reachlab
from reachlab import complexity, diffusion, landscape, tasks
from reachlab.errors import ConfigError, SchemaError, SimulationError
from reachlab.harness import experiments
from reachlab.harness.bundle import ResultBundle
from reachlab.harness.cli import main as cli_main
from reachlab.harness.config import KINDS, build_trainer, parse_config
from reachlab.harness.io import (
    CSV_SCHEMAS,
    PlotSet,
    canonical_json,
    validate_csv,
    validate_path_csv,
    write_csv,
    write_path_csv,
)

KRAMERS_RAW = {
    "seed": 1,
    "potential": {"name": "double_well_1d"},
    "w0": [-1.0],
    "target": [1.0],
    "radius": 0.2,
    "d_grid": [0.25, 0.3, 0.4],
    "dt": 5e-3,
    "max_steps": 20000,
    "n_runs": 4,
}

LABEL_RAW = {
    "seed": 3,
    "model": {"family": "multinomial-logistic", "input_dim": 2, "n_classes": 3},
    "data": {"n_samples": 60, "separation": 2.5},
    "corruption_grid": [0.0, 0.3, 0.6],
    "beta": 0.02,
    "prior_scale2": 1.0,
    "trainer": {"step_size": 0.3, "max_iters": 3000, "grad_tol": 1e-7},
    "sgd": {"eta": 0.1, "batch_size": 8, "max_steps": 8000},
    "n_runs": 4,
    "threshold_extra": 0.15,
}

FINETUNE_RAW = {
    "seed": 2,
    "model": {"family": "multinomial-logistic", "input_dim": 2, "n_classes": 3},
    "data": {"n_samples": 60, "separation": 2.5},
    "tasks": [
        {"label": "full", "corruption": 0.0},
        {"label": "pair", "keep_classes": [0, 1]},
    ],
    "beta": 0.02,
    "prior_scale2": 1.0,
    "trainer": {"step_size": 0.3, "max_iters": 3000, "grad_tol": 1e-7},
    "sgd": {"eta": 0.1, "batch_size": 8, "max_steps": 5000},
    "n_runs": 4,
    "threshold_extra": 0.1,
}


SCATTER_RAW = {
    "seed": 3,
    "model": {"family": "multinomial-logistic", "input_dim": 2, "n_classes": 3},
    "data": {"n_samples": 60, "separation": 2.5},
    "tasks": [
        {"label": "clean", "corruption": 0.0},
        {"label": "mid", "corruption": 0.4},
        {"label": "high", "corruption": 0.8},
    ],
    "beta": 0.02,
    "prior_scale2": 1.0,
    "trainer": {"step_size": 0.3, "max_iters": 3000, "grad_tol": 1e-7},
    "sgd": {"eta": 0.1, "batch_size": 8, "max_steps": 8000},
    "n_runs": 4,
    "threshold_extra": 0.15,
}

STRUCTURE_RAW = {
    "seed": 1,
    "model": {"family": "multinomial-logistic", "input_dim": 1, "n_classes": 2},
    "data": {"n_samples": 30, "separation": 10.0},
    "beta_grid": [1e6, 30.0, 0.3, 3e-4],
    "prior_scale2": 0.01,
    "trainer": {"step_size": 0.5, "max_iters": 20000, "grad_tol": 1e-10},
}

ACTION_RAW = {
    "seed": 0,
    "potential": {"name": "quadratic", "a": [1.0, 2.0]},
    "start": [1.2, -0.8],
    "end": [float(1.2 * np.exp(-1.5)), float(-0.8 * np.exp(-3.0))],
    "duration": 1.5,
    "n_knots": 61,
    "D": 0.001,
}

BATCH_RAW = {
    "seed": 4,
    "model": {"family": "multinomial-logistic", "input_dim": 2, "n_classes": 3},
    "data": {"n_samples": 30, "separation": 2.0},
    "batch_grid": [4, 8, 16],
    "eta": 0.05,
    "max_steps": 2000,
    "n_runs": 3,
    "noise_draws": 400,
    "trainer": {"step_size": 0.5, "max_iters": 1000, "grad_tol": 1e-7, "init_scale": 0.5},
    "threshold_extra": 0.1,
}

# one small config per experiment kind
MINI_RAW = {
    "kramers-sweep": KRAMERS_RAW,
    "label-sweep": LABEL_RAW,
    "batch-sweep": BATCH_RAW,
    "complexity-scatter": SCATTER_RAW,
    "finetune-matrix": FINETUNE_RAW,
    "structure-curve": STRUCTURE_RAW,
    "action-check": ACTION_RAW,
}

# sha256 of every file each mini config writes (bundle.json without timing);
# a change that moves one must say which output changed and why
FROZEN_OUTPUTS = {
    "kramers-sweep": {
        "bundle.json": "91696985770abff26700fcbfdf77cd6cdbc8d07a1db67db102cdd885dadabf09",
        "kramers_sweep.csv": "ae69bcaf69f3a0ea583d4b7d60dd253e4d8b0c6dceb4eefefd529ad1fa619c56",
        "plots/arrhenius.dat": "aacb3e9fb75d9414f00025617d5980a40eea1e614160a6032a7e5e34a199bade",
        "plots/arrhenius_fit.dat": "189dd9bd6d083eef09a530914733bcc689cba99ee61d1858bf0e091a987bbb16",
        "plots/manifest.json": "b449e63334a5d006796081e93deeed705d96fb9c213f21c2d303e5f10fc8d3bc",
    },
    "label-sweep": {
        "bundle.json": "82bc201ddc33c95114d0f2fa29603c5eab06007bb3889ff50895cfd04f3a5a6c",
        "label_sweep.csv": "218250b176df304e0a895f0dd1f5ed16349c6b20235663dcdfa32d1fdeb398f2",
        "plots/complexity_vs_rho.dat": "d22af321d96a05b90388a3aa8a76c8a9d1005a97a63e761fc54a068b54a6afa6",
        "plots/manifest.json": "d99fe7269771e223b8f5ac64f8c9d56bbf4e15d861217d2c8c2f244a70873d24",
        "plots/time_vs_complexity.dat": "eef8d8494ddab95b4969207f77ad8a8364d9fd78291562b964b3f716a5c4458b",
        "plots/time_vs_rho.dat": "2d3ad096e51fac742a760849d69c4abf3fb4edbde6a7f22f5d15913abcf537d3",
    },
    "batch-sweep": {
        "batch_sweep.csv": "b11eb4c9fa4ba372fc5d1017118dc897b487f3d7fe019388507ebca8cf60b982",
        "bundle.json": "71c3b7340e72948657af455b332ecd3b843c4c5b6d8671e066e7988e33479ff9",
        "plots/batch_sweep.dat": "bce799d51bc9f234f9d7991ba8f81d79ea5dc268aa1af833d2bed3059b3cc035",
        "plots/manifest.json": "e7915591dac2754e54d8dcd5161a8d3916265c5f629bcbbfe90b1de46fa8895f",
    },
    "complexity-scatter": {
        "bundle.json": "4b34d15336109bc9db122bf3224e4798c9d15bd919ef6f995f066eff13801c18",
        "complexity_scatter.csv": "3f9c662b022aced8d68b69d8a19a64367264eb0ea108f207ee30fa6dd947a0fa",
        "plots/complexity_scatter.dat": "97d2df176f393b9e2e7bd5bcd7983902bd63279a25c0a093bc8df1bffdc5e12b",
        "plots/manifest.json": "d6bd110fb5f690d659069793aecaa14e8ccabfdffd9d15d99ed1e64c94481dbd",
    },
    "finetune-matrix": {
        "bundle.json": "01d8874e8575f52b97a878e126e4ef253b63340428d2d734618f38d7295a688c",
        "checkpoint/cell_0_0.json": "8388b0027ba715505e54026c7577b9aa46c32e06b1e72a11917c71c5edc1e927",
        "checkpoint/cell_0_1.json": "5f0d12e2683b7cbbfecffdb031387b2d1f07fe7df779775d2092e2aa93878704",
        "checkpoint/cell_1_0.json": "4f31c2089c823aea44649380df158e5967000c073c9cfdceaca9560dd24dd250",
        "checkpoint/cell_1_1.json": "106d3e4beceba6ec9a4b5f37f316e4ab70d79674f6e8382438ffb3a6a76cd217",
        "finetune_distances.csv": "a08b3a09fda09f49f086e2f7e557e35c3c334eb2288415eaae23ae0ca2225943",
        "finetune_scatter.csv": "d11ee0f63221a186ecaeba7d602591c2a277d8d5c672a1a3d0fc5e668f419908",
        "finetune_times.csv": "b2127ab04af1fcd0cc02d7c070fc9f5972694bf36ca4ce24daa43e9608cc54df",
        "plots/manifest.json": "35f85aa5c244d255bcf25fde8ea2c776cd4d147db26af95526329f416cab106e",
        "plots/transfer_scatter.dat": "fb137d7e7adf1cdc135f2ad667cab334506018831db8db10840091660d1c9e95",
    },
    "structure-curve": {
        "bundle.json": "9501b327235b0781fa8446ebf5ac7e7e3d313e8be3d90e046288b2df28f1ca38",
        "plots/manifest.json": "8efaf30017bba159dea60025bf47ecf4c15d7ab7119add2ad39668211b734788",
        "plots/structure_curve.dat": "8ed7fbfe448158ffeedd488ca99264a265157f637889195dc2a91fcd65a3e03c",
        "structure_curve.csv": "d61b21dd86b89f2f96a4d90040d7515858cbdfce0a674cdceda2c650f7875996",
    },
    "action-check": {
        "action_check.csv": "ddaf7e557bef0a8b64b63dc1b4c23218a585051c7092542e8fa76aabcba2366e",
        "action_path.csv": "68b13ede5731ae70e9b51a8c88dd8ae6d87f3e2e82d64f1448e1838bd605f187",
        "bundle.json": "33b960e5beb1df6649b2efeea01893668795ee847ee02f199057f55ed6f7d93f",
        "plots/manifest.json": "688c0ea61a90eb94c863399dd18c3b38b5b8be25c18f46fedd62a0b5dab140ec",
        "plots/optimal_path.dat": "abb67d2722fa59f17ba55721fdc961b3c10adf3fb88066f5fb7b154ace483594",
    },
}


def _output_digests(out_dir):
    """sha256 of every file a run wrote; bundle.json is hashed without timing."""
    digests = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            if rel == "bundle.json":
                data = canonical_json(ResultBundle.load(path).result_fields()).encode()
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
            digests[rel] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.fixture(scope="module")
def mini_outputs(tmp_path_factory):
    """Each mini config run once with one worker: kind -> {file: sha256}."""
    root = tmp_path_factory.mktemp("mini")
    for kind, raw in MINI_RAW.items():
        experiments.run_experiment(parse_config(kind, dict(raw)), str(root / kind), workers=1)
    return {kind: _output_digests(str(root / kind)) for kind in MINI_RAW}


# -- parse_config -------------------------------------------------------------------


def test_parse_rejects_unknown_kind_and_shape():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        parse_config("frobnicate", {"seed": 0})
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("kramers-sweep", [1, 2])


def test_parse_rejects_kind_mismatch():
    raw = dict(KRAMERS_RAW, kind="label-sweep")
    with pytest.raises(ConfigError, match="kind"):
        parse_config("kramers-sweep", raw)


def test_parse_accepts_matching_kind_key():
    cfg = parse_config("kramers-sweep", dict(KRAMERS_RAW, kind="kramers-sweep"))
    assert cfg.kind == "kramers-sweep"
    assert cfg.seed == 1


def test_parse_requires_a_seed():
    raw = {k: v for k, v in KRAMERS_RAW.items() if k != "seed"}
    with pytest.raises(ConfigError, match="seed"):
        parse_config("kramers-sweep", raw)
    with pytest.raises(ConfigError, match="seed"):
        parse_config("kramers-sweep", dict(KRAMERS_RAW, seed=-1))
    cfg = parse_config("kramers-sweep", raw, seed_override=9)
    assert cfg.seed == 9


def test_parse_seed_override_beats_the_file():
    cfg = parse_config("kramers-sweep", dict(KRAMERS_RAW), seed_override=7)
    assert cfg.seed == 7


def test_parse_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config("kramers-sweep", dict(KRAMERS_RAW, typo=1))
    raw = {k: v for k, v in KRAMERS_RAW.items() if k != "d_grid"}
    with pytest.raises(ConfigError, match="d_grid"):
        parse_config("kramers-sweep", raw)


def test_parse_fills_defaults():
    raw = {k: v for k, v in KRAMERS_RAW.items() if k not in ("radius", "n_runs")}
    cfg = parse_config("kramers-sweep", raw)
    assert cfg.params["radius"] == 0.1
    assert cfg.params["n_runs"] == 500


def test_parse_type_checks_fields():
    with pytest.raises(ConfigError, match="number"):
        parse_config("kramers-sweep", dict(KRAMERS_RAW, dt="small"))
    with pytest.raises(ConfigError, match="integer"):
        parse_config("kramers-sweep", dict(KRAMERS_RAW, max_steps=2.5))
    with pytest.raises(ConfigError, match="list"):
        parse_config("kramers-sweep", dict(KRAMERS_RAW, d_grid=0.1))
    # bool is not an acceptable integer even though Python subclasses it
    with pytest.raises(ConfigError):
        parse_config("kramers-sweep", dict(KRAMERS_RAW, n_runs=True))


def test_parse_cross_validates_dimensions_and_grids():
    with pytest.raises(ConfigError, match="dimension"):
        parse_config("kramers-sweep", dict(KRAMERS_RAW, w0=[-1.0, 0.0]))
    with pytest.raises(ConfigError, match="distinct"):
        parse_config("kramers-sweep", dict(KRAMERS_RAW, d_grid=[0.1, 0.1, 0.1]))
    with pytest.raises(ConfigError, match="corruption_grid"):
        parse_config("label-sweep", dict(LABEL_RAW, corruption_grid=[0.0, 0.5, 1.5]))
    with pytest.raises(ConfigError, match="descending"):
        parse_config(
            "structure-curve",
            {
                "seed": 0,
                "model": LABEL_RAW["model"],
                "data": LABEL_RAW["data"],
                "beta_grid": [0.1, 1.0],
                "prior_scale2": 1.0,
            },
        )


def test_parse_checks_nested_objects():
    with pytest.raises(ConfigError, match="model"):
        parse_config("label-sweep", dict(LABEL_RAW, model={"family": "multinomial-logistic"}))
    with pytest.raises(ConfigError, match="trainer"):
        parse_config("label-sweep", dict(LABEL_RAW, trainer={"step": 0.1}))
    with pytest.raises(ConfigError, match="sgd"):
        parse_config("label-sweep", dict(LABEL_RAW, sgd={"eta": 0.1}))
    bad = dict(FINETUNE_RAW, tasks=[{"label": "a"}, {"label": "a"}])
    with pytest.raises(ConfigError, match="distinct"):
        parse_config("finetune-matrix", bad)
    bad = dict(FINETUNE_RAW, tasks=[{"label": "a", "keep_classes": [0, 7]}, {"label": "b"}])
    with pytest.raises(ConfigError, match="keep_classes"):
        parse_config("finetune-matrix", bad)


def test_parse_rejects_oversized_batches():
    with pytest.raises(ConfigError, match="n_samples"):
        parse_config(
            "batch-sweep",
            {
                "seed": 0,
                "model": LABEL_RAW["model"],
                "data": {"n_samples": 20, "separation": 2.0},
                "batch_grid": [4, 8, 64],
                "eta": 0.05,
                "max_steps": 100,
            },
        )


# A value past each key's bound (positive, >= k or in [0, 1]); a grid gets
# one bad entry.  A (object, key) pair is set inside that object, in the
# first task spec for "tasks".
_OUT_OF_BOUNDS = {
    "radius": 0.0, "dt": -5e-3, "d_grid": [0.25, 0.3, -0.4], "max_steps": 0, "n_runs": 0,
    "duration": 0.0, "D": -0.1, "n_knots": 2, "maxiter": 0,
    "beta": 0.0, "beta_grid": [1.0, 0.0], "prior_scale2": -1.0, "threshold_extra": -1.0,
    "corruption": 1.5, "corruption_grid": [0.0, 0.3, -0.1],
    "batch_grid": [0, 8, 16], "eta": 0.0, "noise_draws": 1,
    ("data", "n_samples"): 0, ("data", "separation"): -2.5,
    ("tasks", "label"): "", ("tasks", "corruption"): -0.5, ("tasks", "keep_classes"): [-1, 0],
}
_BOUND_CASES = [
    pytest.param(kind, key, id=f"{kind}-{'.'.join(key) if isinstance(key, tuple) else key}")
    for kind, raw in MINI_RAW.items()
    for key in _OUT_OF_BOUNDS
    if (key[0] if isinstance(key, tuple) else key) in parse_config(kind, dict(raw)).params
]


@pytest.mark.parametrize("kind, key", _BOUND_CASES)
def test_every_bound_a_kind_declares_is_checked_at_parse_time(kind, key):
    raw = copy.deepcopy(MINI_RAW[kind])
    if isinstance(key, tuple):
        obj, name = key
        (raw[obj][0] if obj == "tasks" else raw[obj])[name] = _OUT_OF_BOUNDS[key]
    else:
        name = key
        raw[key] = _OUT_OF_BOUNDS[key]
    with pytest.raises(ConfigError, match=re.escape(name)):
        parse_config(kind, raw)


def test_snapshot_reparses_to_the_same_config():
    cfg = parse_config("label-sweep", dict(LABEL_RAW))
    snap = cfg.snapshot()
    again = parse_config(snap["kind"], snap)
    assert again == cfg


def _num(lo, hi):
    """A number in [lo, hi]; ints too, since float keys accept them."""
    ints = st.integers(int(np.ceil(lo)), int(np.floor(hi))) if np.ceil(lo) <= hi else st.nothing()
    return st.one_of(st.floats(lo, hi), ints)


def _pos(hi=1e3):
    return _num(1e-6, hi)


def _maybe(strats):
    """An object with any subset of the given optional keys."""
    return st.fixed_dictionaries({}, optional=strats)


_POTENTIALS = st.one_of(
    st.fixed_dictionaries({"name": st.just("double_well_1d")}, optional={"scale": _pos()}),
    st.fixed_dictionaries({"name": st.just("quadratic"), "a": st.lists(_num(0, 10), min_size=1, max_size=3)}),
    st.fixed_dictionaries({
        "name": st.just("channel_2d"),
        "a": st.just({"name": "double_well_1d"}),
        "b": st.just({"name": "polynomial_1d", "coeffs": [2.5, 0.0, 4.0]}),
    }),
)


@st.composite
def _model_and_data(draw):
    # blob data needs n_classes <= input_dim + 1 and n_samples >= n_classes
    input_dim = draw(st.integers(1, 4))
    model = {"family": draw(st.sampled_from(["multinomial-logistic", "mlp-1-hidden"])),
             "input_dim": input_dim, "n_classes": draw(st.integers(2, min(4, input_dim + 1)))}
    if model["family"] == "mlp-1-hidden":
        model["hidden"] = draw(st.integers(1, 8))
        model.update(draw(_maybe({"activation": st.sampled_from(["tanh", "softplus"])})))
    model.update(draw(_maybe({"weight_decay": _num(0, 1)})))
    data = {"n_samples": draw(st.integers(model["n_classes"], 200)), "separation": draw(_pos(10))}
    return model, data


_TRAINER = _maybe({"step_size": _pos(), "max_iters": st.integers(1, 10**4),
                   "grad_tol": _num(0, 1), "init_scale": _num(0, 1)})
_SGD = st.fixed_dictionaries({"eta": _pos(), "batch_size": st.integers(1, 50),
                              "max_steps": st.integers(1, 10**5)})
_RUNS = {"n_runs": st.integers(1, 50), "threshold_extra": _pos()}


def _grid(lo, hi, n):
    return st.lists(_num(lo, hi), min_size=n, max_size=n + 3, unique_by=float)


@st.composite
def _tasks(draw, n_classes):
    labels = draw(st.lists(st.text(min_size=1, max_size=5), min_size=2, max_size=4, unique=True))
    classes = st.lists(st.integers(0, n_classes - 1), min_size=1, unique=True)
    return [dict(label=lab, **draw(_maybe({"keep_classes": classes, "corruption": _num(0, 1)})))
            for lab in labels]


@st.composite
def _raw_config(draw, kind):
    """A random valid raw config of one kind."""
    raw = {"seed": draw(st.integers(0, 2**32))}
    if kind in ("kramers-sweep", "action-check"):
        pot = draw(_POTENTIALS)
        dim = landscape.from_config(pot).dim
        point = st.lists(_num(-2, 2), min_size=dim, max_size=dim)
        raw["potential"] = pot
        if kind == "kramers-sweep":
            raw.update(w0=draw(point), target=draw(point), d_grid=draw(_grid(1e-3, 1, 3)),
                       dt=draw(_pos(1)), max_steps=draw(st.integers(1, 10**5)))
            raw.update(draw(_maybe({"radius": _pos(1), "n_runs": st.integers(1, 500)})))
            # a start inside the target ball is rejected
            gap2 = sum((a - b) ** 2 for a, b in zip(raw["w0"], raw["target"]))
            assume(gap2 > raw.get("radius", 0.1) ** 2)
        else:
            raw.update(start=draw(point), end=draw(point), duration=draw(_pos(10)),
                       n_knots=draw(st.integers(3, 200)), D=draw(_pos(1)))
            raw.update(draw(_maybe({"optimize": st.booleans(), "maxiter": st.integers(1, 5000)})))
        return raw
    model, data = draw(_model_and_data())
    raw.update(model=model, data=data)
    raw.update(draw(_maybe({"trainer": _TRAINER})))
    if kind == "structure-curve":
        raw["beta_grid"] = sorted(draw(_grid(1e-4, 1e6, 2)), key=float, reverse=True)
        raw["prior_scale2"] = draw(_pos())
        raw.update(draw(_maybe({"corruption": _num(0, 1)})))
    elif kind == "batch-sweep":
        raw["batch_grid"] = draw(st.lists(st.integers(1, data["n_samples"]), min_size=3, max_size=5))
        raw.update(eta=draw(_pos()), max_steps=draw(st.integers(1, 10**5)))
        raw.update(draw(_maybe({"noise_draws": st.integers(2, 5000), **_RUNS})))
    else:
        raw.update(beta=draw(_pos()), prior_scale2=draw(_pos()), sgd=draw(_SGD))
        raw.update(draw(_maybe(_RUNS)))
        if kind == "label-sweep":
            raw["corruption_grid"] = draw(_grid(0, 1, 3))
        else:
            raw["tasks"] = draw(_tasks(model["n_classes"]))
    return raw


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_snapshot_round_trips_for_random_valid_configs(kind, data):
    # a bundle stores the snapshot as JSON; rerun parses it back
    cfg = parse_config(kind, data.draw(_raw_config(kind)))
    snap = json.loads(json.dumps(cfg.snapshot()))
    again = parse_config(kind, snap)
    assert again.snapshot() == cfg.snapshot()
    assert again == cfg


# -- CSV schemas ----------------------------------------------------------------------


def test_write_csv_round_trips_and_validates(tmp_path):
    p = tmp_path / "kramers_sweep.csv"
    rows = [(0.1, 10.0, 54.2, 38.0, 1 / 54.2, 500, 0)]
    write_csv(str(p), "kramers_sweep.csv", rows)
    validate_csv(str(p), "kramers_sweep.csv")


def test_validate_csv_rejects_header_drift(tmp_path):
    p = tmp_path / "kramers_sweep.csv"
    p.write_text("D,inv_D,mean_time\n0.1,10,54\n")
    with pytest.raises(SchemaError, match="header"):
        validate_csv(str(p), "kramers_sweep.csv")


def test_validate_csv_rejects_bad_cells(tmp_path):
    cols = ",".join(c for c, _ in CSV_SCHEMAS["kramers_sweep.csv"])
    p = tmp_path / "kramers_sweep.csv"
    p.write_text(f"{cols}\n0.1,10,inf,38,0.02,500,0\n")
    with pytest.raises(SchemaError, match="finite"):
        validate_csv(str(p), "kramers_sweep.csv")
    p.write_text(f"{cols}\n0.1,10,54,38,0.02,many,0\n")
    with pytest.raises(SchemaError, match="integer"):
        validate_csv(str(p), "kramers_sweep.csv")
    p.write_text(f"{cols}\n0.1,10,54\n")
    with pytest.raises(SchemaError, match="cells"):
        validate_csv(str(p), "kramers_sweep.csv")


def test_validate_csv_allows_declared_optional_floats(tmp_path):
    p = tmp_path / "finetune_times.csv"
    write_csv(str(p), "finetune_times.csv", [("a", "b", None, None, 4, 4)])
    text = p.read_text().strip().split("\n")[1]
    assert text == "a,b,,,4,4"


def test_write_csv_rejects_wrong_row_width(tmp_path):
    with pytest.raises(SchemaError, match="cells"):
        write_csv(str(tmp_path / "kramers_sweep.csv"), "kramers_sweep.csv", [(1.0, 2.0)])


_GOOD_ROW = (0.1, 10.0, 54.2, 38.0, 1 / 54.2, 500, 0)


def _csv_writer(path, second):
    write_csv(str(path), "kramers_sweep.csv", [_GOOD_ROW, second])


def _path_writer(path, second):
    write_path_csv(str(path), [0.0, 0.1], [[1.0, 2.0], second])


def _plot_writer(path, second):
    PlotSet(str(path.parent.parent)).add(path.name, ["x", "y"], [(1.0, 2.0), second])


@pytest.mark.parametrize("writer, good, bad", [
    (_csv_writer, _GOOD_ROW, (1.0, 2.0)),  # rejected while the text is built
    (_csv_writer, _GOOD_ROW, (0.1, 10.0, float("inf"), 38.0, 0.02, 500, 0)),  # by the validator
    (_path_writer, [1.5, 2.5], [1.0]),
    (_path_writer, [1.5, 2.5], [1.0, float("nan")]),
    (_plot_writer, (3.0, 4.0), (3.0, "x")),
], ids=["csv-width", "csv-validate", "path-width", "path-validate", "plot"])
def test_a_writer_failing_after_its_first_row_leaves_the_final_path_alone(tmp_path, writer, good, bad):
    (tmp_path / "plots").mkdir()
    path = tmp_path / "plots" / "out"
    with pytest.raises((SchemaError, ValueError)):
        writer(path, bad)
    assert not path.exists()
    writer(path, good)
    before = path.read_bytes()
    with pytest.raises((SchemaError, ValueError)):
        writer(path, bad)
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]  # no temp file left


def test_a_crash_before_the_rename_keeps_the_previous_manifest(tmp_path, monkeypatch):
    plots = PlotSet(str(tmp_path))
    plots.add("a.dat", ["x"], [(1.0,)])
    before = open(plots.finish()).read()
    plots.add("b.dat", ["x"], [(2.0,)])

    def crash(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(KeyboardInterrupt):
        plots.finish()
    monkeypatch.undo()
    assert (tmp_path / "plots" / "manifest.json").read_text() == before


def test_validate_csv_requires_registered_schema(tmp_path):
    p = tmp_path / "anything.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaError, match="schema"):
        validate_csv(str(p), "anything.csv")


def test_path_csv_validator(tmp_path):
    p = tmp_path / "path.csv"
    p.write_text("t,w0,w1\n0,1,2\n0.1,1,2\n")
    validate_path_csv(str(p))
    p.write_text("t,x,y\n0,1,2\n")
    with pytest.raises(SchemaError, match="header"):
        validate_path_csv(str(p))
    p.write_text("t,w0\n0,nan\n")
    with pytest.raises(SchemaError, match="finite"):
        validate_path_csv(str(p))
    p.write_text("t,w0\n0,abc\n")
    with pytest.raises(SchemaError, match="column 'w0' must be a float"):
        validate_path_csv(str(p))


def test_canonical_json_is_sorted_and_rejects_nan():
    assert canonical_json({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


# -- runners ---------------------------------------------------------------------------


def test_kramers_runner_outputs(tmp_path):
    cfg = parse_config("kramers-sweep", dict(KRAMERS_RAW))
    b = experiments.run_experiment(cfg, str(tmp_path))
    assert len(b.records) == 3
    assert not b.flags
    assert b.summary["barrier"] is not None
    assert b.summary["barrier_if_half_exponent"] == pytest.approx(2 * b.summary["barrier"])
    # faster escapes at larger D
    means = [r["mean_time"] for r in b.records]
    assert means[0] > means[2]
    validate_csv(str(tmp_path / "kramers_sweep.csv"), "kramers_sweep.csv")
    man = json.loads((tmp_path / "plots" / "manifest.json").read_text())
    assert {e["file"] for e in man["files"]} == {"arrhenius.dat", "arrhenius_fit.dat"}
    again = ResultBundle.load(str(tmp_path / "bundle.json"))
    assert again.same_results(b)


def test_label_runner_outputs(tmp_path):
    cfg = parse_config("label-sweep", dict(LABEL_RAW))
    b = experiments.run_experiment(cfg, str(tmp_path))
    assert len(b.records) == 3
    assert b.summary["cbeta_increasing_in_rho"] is True
    assert all(r["descent_converged"] for r in b.records)
    assert all(r["n_censored"] == 0 for r in b.records)
    validate_csv(str(tmp_path / "label_sweep.csv"), "label_sweep.csv")
    # thresholds sit a fixed margin above the estimated floor
    for r in b.records:
        assert r["threshold"] == pytest.approx(r["min_loss"] + 0.15)


def test_scatter_runner_outputs(tmp_path):
    cfg = parse_config("complexity-scatter", dict(SCATTER_RAW))
    b = experiments.run_experiment(cfg, str(tmp_path))
    assert [r["label"] for r in b.records] == ["clean", "mid", "high"]
    assert b.summary["spearman_cbeta_time"] is not None
    validate_csv(str(tmp_path / "complexity_scatter.csv"), "complexity_scatter.csv")


def test_structure_runner_outputs(tmp_path):
    cfg = parse_config("structure-curve", dict(STRUCTURE_RAW))
    b = experiments.run_experiment(cfg, str(tmp_path))
    assert b.summary["monotone_loss_in_kl"] is True
    assert b.summary["expected_loss_at_beta_max"] == pytest.approx(
        b.summary["log_n_classes"], abs=0.05)
    validate_csv(str(tmp_path / "structure_curve.csv"), "structure_curve.csv")


def test_action_runner_outputs(tmp_path):
    cfg = parse_config("action-check", dict(ACTION_RAW))
    b = experiments.run_experiment(cfg, str(tmp_path))
    assert [r["path"] for r in b.records] == ["straight", "optimized"]
    assert b.summary["optimizer_converged"] is True
    # relaxing toward the gradient flow must lower the cost
    assert b.summary["action_drop"] > 0
    validate_csv(str(tmp_path / "action_check.csv"), "action_check.csv")
    validate_path_csv(str(tmp_path / "action_path.csv"))
    raw2 = dict(ACTION_RAW, optimize=False)
    b2 = experiments.run_experiment(parse_config("action-check", raw2), str(tmp_path / "no_opt"))
    assert [r["path"] for r in b2.records] == ["straight"]
    assert "optimized_total" not in b2.summary


def test_finetune_runner_direction_and_checkpoints(tmp_path):
    cfg = parse_config("finetune-matrix", dict(FINETUNE_RAW))
    out = tmp_path / "run"
    b = experiments.run_experiment(cfg, str(out))
    labels = b.summary["labels"]
    assert labels == ["full", "pair"]
    times = b.summary["median_times"]
    # the subset task is free after the full task, but not the reverse
    assert times[0][1] < times[1][0]
    d = b.summary["distances"]
    assert d[0][1] < d[1][0]
    assert b.timing["cells_reused"] == 0
    for name in ("finetune_times.csv", "finetune_distances.csv", "finetune_scatter.csv"):
        validate_csv(str(out / name), name)
    assert len(os.listdir(out / "checkpoint")) == 4

    # a second run over the same directory reuses every cell
    b2 = experiments.run_experiment(cfg, str(out))
    assert b2.timing["cells_reused"] == 4
    assert b2.same_results(b)

    # invalidate one cell: only that one is recomputed, results unchanged
    os.remove(out / "checkpoint" / "cell_1_0.json")
    b3 = experiments.run_experiment(cfg, str(out))
    assert b3.timing["cells_reused"] == 3
    assert b3.same_results(b)

    # a different config hash ignores stale checkpoints entirely
    cfg2 = parse_config("finetune-matrix", dict(FINETUNE_RAW, seed=5))
    b4 = experiments.run_experiment(cfg2, str(out))
    assert b4.timing["cells_reused"] == 0


def test_finetune_truncated_checkpoint_is_recomputed(tmp_path):
    cfg = parse_config("finetune-matrix", dict(FINETUNE_RAW))
    out = tmp_path / "run"
    b = experiments.run_experiment(cfg, str(out))
    ck = out / "checkpoint"
    assert sorted(os.listdir(ck)) == [f"cell_{i}_{j}.json" for i in range(2) for j in range(2)]
    whole = (ck / "cell_0_1.json").read_text()
    # a cell file cut short (a crash mid-write) is ignored and recomputed
    (ck / "cell_0_1.json").write_text(whole[: len(whole) // 2])
    b2 = experiments.run_experiment(cfg, str(out))
    assert b2.timing["cells_reused"] == 3
    assert b2.same_results(b)
    assert (ck / "cell_0_1.json").read_text() == whole
    assert len(os.listdir(ck)) == 4  # no temporary files left behind


def test_finetune_abort_keeps_the_cells_it_finished(tmp_path, monkeypatch):
    cfg = parse_config("finetune-matrix", dict(FINETUNE_RAW))
    out = tmp_path / "run"
    real, calls = experiments.diffusion.convergence_time, []

    def abort_on_the_third_cell(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("killed mid-sweep")
        return real(*args)

    monkeypatch.setattr(experiments.diffusion, "convergence_time", abort_on_the_third_cell)
    with pytest.raises(RuntimeError, match="mid-sweep"):
        experiments.run_experiment(cfg, str(out))
    monkeypatch.undo()
    assert sorted(os.listdir(out / "checkpoint")) == ["cell_0_0.json", "cell_0_1.json"]
    b = experiments.run_experiment(cfg, str(out))
    assert b.timing["cells_reused"] == 2
    assert b.same_results(experiments.run_experiment(cfg, str(tmp_path / "fresh")))


def test_bundles_are_deterministic_across_workers(tmp_path):
    # 3 workers deal the 4 points into uneven groups; D = 1e-4 censors, and
    # its flag keeps its key and text whichever group holds it
    cfg = parse_config("kramers-sweep", dict(KRAMERS_RAW, d_grid=[0.3, 1e-4, 0.4, 0.25]))
    b1 = experiments.run_experiment(cfg, str(tmp_path / "w1"), workers=1)
    assert [r["D"] for r in b1.records] == [0.3, 0.4, 0.25]
    assert b1.flags == {
        "D=0.0001": "SimulationError: all 4 runs censored at 20000 steps; "
        "increase max_steps or D, or move the target"
    }
    for workers in (2, 3, 4):
        b = experiments.run_experiment(cfg, str(tmp_path / f"w{workers}"), workers=workers)
        assert canonical_json(b.result_fields()) == canonical_json(b1.result_fields()), workers


def test_rerun_reproduces_a_bundle_from_its_snapshot(tmp_path):
    cfg = parse_config("kramers-sweep", dict(KRAMERS_RAW))
    b1 = experiments.run_experiment(cfg, str(tmp_path / "a"))
    b2 = experiments.rerun(str(tmp_path / "a" / "bundle.json"), str(tmp_path / "b"))
    assert b2.same_results(b1)
    assert b2.timing != {} and b1.timing != {}


def test_every_kind_writes_its_frozen_outputs(mini_outputs):
    for kind in MINI_RAW:
        assert mini_outputs[kind] == FROZEN_OUTPUTS[kind], kind


def test_runners_and_csv_schemas_cover_every_kind(mini_outputs):
    assert set(experiments.RUNNERS) == set(KINDS)
    written = {os.path.basename(f) for files in mini_outputs.values() for f in files}
    assert set(CSV_SCHEMAS) <= written


# -- CLI --------------------------------------------------------------------------------


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _modules_after(code, timeout=120):
    """Run ``code`` in a fresh interpreter; return its last stdout line."""
    src = os.path.dirname(os.path.dirname(reachlab.__file__))
    return subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=timeout,
    ).stdout.strip().splitlines()[-1]


def test_cli_import_defers_scipy_optimize_and_stats():
    # only action-check descends, only the summaries fit or rank and only
    # --workers > 1 starts a process pool, so the CLI must not pay for these
    # imports before it knows the kind and the worker count; and main pins
    # BLAS threads, so numpy must not load before it runs
    deferred = (
        "scipy.optimize", "scipy.stats", "concurrent.futures.process", "multiprocessing",
        "socket", "logging", "numpy",
    )
    code = (
        "import sys, reachlab, reachlab.harness.cli; "
        f"print(sorted(m for m in {deferred!r} if m in sys.modules))"
    )
    assert _modules_after(code) == "[]"


def test_importing_the_packages_loads_nothing():
    # the package __init__s import no submodule and no numpy: the CLI pins
    # BLAS threads after ``python -m reachlab.harness.cli`` has run them
    code = (
        "import sys, reachlab, reachlab.harness; "
        "print(sorted(m for m in sys.modules if m.startswith('reachlab') or m == 'numpy'))"
    )
    assert _modules_after(code) == str(["reachlab", "reachlab._version", "reachlab.harness"])


def test_kramers_sweep_runs_without_task_or_action_modules(tmp_path):
    cfg = _write_json(tmp_path / "k.json", dict(KRAMERS_RAW, n_runs=2))
    unused = ("reachlab.complexity", "reachlab.tasks", "reachlab.action")
    code = (
        "import sys; from reachlab.harness.cli import main; "
        f"assert main(['kramers-sweep', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0; "
        f"print(sorted(m for m in {unused!r} if m in sys.modules))"
    )
    assert _modules_after(code, timeout=300) == "[]"
    assert json.loads((tmp_path / "out" / "bundle.json").read_text())["records"]


def test_action_check_runs_without_scipy_optimize(tmp_path):
    # L-BFGS-B runs on scipy's compiled core alone; the scipy.optimize
    # package would pull in scipy.linalg and scipy.sparse with it, and an
    # action-check needs neither the scipy package nor the task modules
    cfg = _write_json(tmp_path / "action.json", ACTION_RAW)
    heavy = (
        "scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy", "numpy.polynomial",
        "reachlab.complexity", "reachlab.tasks", "reachlab.rates",
    )
    code = (
        "import sys; from reachlab.harness.cli import main; "
        f"assert main(['action-check', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0; "
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    assert _modules_after(code, timeout=300) == "[]"
    assert json.loads((tmp_path / "out" / "bundle.json").read_text())["records"]


def test_summary_kinds_run_without_scipy_stats(tmp_path):
    # the Arrhenius fit and the rank correlation are numpy code now, and
    # the escape medians skip np.median, which imports numpy.ma (1.3 MB)
    src = os.path.dirname(os.path.dirname(reachlab.__file__))
    runs = []
    for kind, raw in (("kramers-sweep", KRAMERS_RAW), ("label-sweep", LABEL_RAW)):
        cfg = _write_json(tmp_path / f"{kind}.json", raw)
        runs.append(f"main([{kind!r}, '--config', {cfg!r}, '--out', {str(tmp_path / kind)!r}])")
    code = (
        "import sys; from reachlab.harness.cli import main; "
        f"assert [{', '.join(runs)}] == [0, 0]; "
        "print([m for m in ('scipy.stats', 'numpy.ma') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    assert out.strip().splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "kramers-sweep" / "bundle.json").read_text())["summary"]


def test_heap_pin_is_a_no_op_without_mallopt(tmp_path, monkeypatch):
    import ctypes

    from reachlab.harness import cli

    if sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallopt"):
        assert cli._pin_heap()
    monkeypatch.setattr(ctypes, "CDLL", lambda *a, **k: object())  # a libc without mallopt
    assert cli._pin_heap() is False
    cfgp = _write_json(tmp_path / "k.json", KRAMERS_RAW)
    assert cli_main(["kramers-sweep", "--config", cfgp, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "bundle.json").exists()


def _two_call_task_descents(params, seed, model, data, name):
    """The task cell's descents as two separate calls, as before stacking:
    (threshold, min_loss, c_beta, both converged)."""
    task = tasks.Task(data, model)
    trainer = build_trainer(params["trainer"], experiments._sub_seed(seed, experiments._TRAIN))
    W, converged, _ = complexity.train_minimizers(task, trainer, 4, name=name)
    losses = tasks.loss_many(task, W)
    r = int(np.argmin(losses))
    w_mean, mean_ok, _ = complexity.train_posterior_mean(
        data, model, params["beta"], params["prior_scale2"], trainer, name=name
    )
    rep = complexity.c_beta(task, w_mean, params["beta"], params["prior_scale2"])
    return float(losses[r] + params["threshold_extra"]), float(losses[r]), rep.total, bool(
        converged[r] and mean_ok
    )


_MLP_LABEL_RAW = dict(
    LABEL_RAW,
    model={"family": "mlp-1-hidden", "input_dim": 2, "n_classes": 3, "hidden": 6, "weight_decay": 0.05},
    trainer={"step_size": 0.3, "max_iters": 700, "grad_tol": 1e-3, "init_scale": 0.3},
)  # restarts that stop early or run out of budget, and a best restart other than 0


@pytest.mark.parametrize("raw", [LABEL_RAW, _MLP_LABEL_RAW], ids=["logistic", "mlp"])
def test_task_cell_stack_equals_the_two_call_path(raw, monkeypatch):
    # the SGD half of the cell is not under test: a stub stands in for it
    stub = diffusion.EscapeStats.from_times([3.0], 1)
    monkeypatch.setattr(experiments.diffusion, "convergence_time", lambda *a: stub)
    cfg = parse_config("label-sweep", raw)
    params, seed = cfg.params, cfg.seed
    flags = set()
    for k, rho in enumerate(params["corruption_grid"]):
        model, base = experiments._base_dataset(params, seed)
        if rho > 0:
            data = tasks.corrupt_labels(base, rho, experiments._sub_seed(seed, experiments._CORRUPT))
        else:
            data = base
        rec, _, ok = experiments._task_cell(params, seed, k, model, data, f"rho={rho:g}")
        want = _two_call_task_descents(params, seed, model, data, f"rho={rho:g}")
        assert (rec["threshold"], rec["min_loss"], rec["c_beta"], ok) == want
        flags.add(ok)
    assert flags == ({True} if raw is LABEL_RAW else {True, False})


_RANKED = st.one_of(st.floats(-1e6, 1e6), st.integers(0, 3).map(float))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_RANKED, _RANKED), min_size=3, max_size=12))
def test_spearman_reproduces_scipy(pairs):
    from scipy import stats

    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on constant input
        rho = float(stats.spearmanr(xs, ys).statistic)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = experiments._spearman(xs, ys)
    assert got == (rho if np.isfinite(rho) else None)


def test_spearman_degenerate_inputs_give_none():
    assert experiments._spearman([1.0, 2.0], [2.0, 1.0]) is None
    assert experiments._spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert experiments._spearman([1.0, 2.0, 3.0], [1.0, float("nan"), 3.0]) is None
    assert experiments._spearman([1.0, 2.0, 2.0, 3.0], [4.0, 3.0, 3.0, 1.0]) == -1.0


def test_cli_success_exit_zero(tmp_path, capsys):
    raw = {
        "seed": 0,
        "potential": {"name": "quadratic", "a": [1.0, 2.0]},
        "start": [1.0, 1.0],
        "end": [0.1, 0.1],
        "duration": 1.0,
        "n_knots": 21,
        "D": 0.05,
        "optimize": False,
    }
    cfgp = _write_json(tmp_path / "cfg.json", raw)
    rc = cli_main(["action-check", "--config", cfgp, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "1 record(s)" in capsys.readouterr().out
    assert (tmp_path / "out" / "bundle.json").exists()


def test_cli_seed_flag_overrides_config(tmp_path):
    raw = dict(KRAMERS_RAW, d_grid=[0.25, 0.3, 0.4], n_runs=2, max_steps=5000)
    cfgp = _write_json(tmp_path / "cfg.json", raw)
    rc = cli_main(["kramers-sweep", "--config", cfgp, "--out", str(tmp_path / "o1"), "--seed", "11"])
    assert rc == 0
    b = ResultBundle.load(str(tmp_path / "o1" / "bundle.json"))
    assert b.config["seed"] == 11


def test_cli_rejects_bad_configs_with_exit_two(tmp_path, capsys):
    rc = cli_main(["kramers-sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["kramers-sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2
    warped = _write_json(tmp_path / "warped.json", dict(KRAMERS_RAW, typo=1))
    assert cli_main(["kramers-sweep", "--config", warped, "--out", str(tmp_path)]) == 2
    ok = _write_json(tmp_path / "ok.json", dict(KRAMERS_RAW))
    assert cli_main(["kramers-sweep", "--config", ok, "--out", str(tmp_path), "--workers", "0"]) == 2
    # outside the ball, but the radius squares to inf
    huge = _write_json(tmp_path / "huge.json", dict(KRAMERS_RAW, w0=[-1e200], radius=2e154))
    assert cli_main(["kramers-sweep", "--config", huge, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err  # every rejection explains itself on stderr


@pytest.mark.parametrize("key, value", [
    ("D", float("nan")),
    ("duration", float("inf")),
    ("start", [1.2, float("-inf")]),
    ("potential", {"name": "quadratic", "a": [1.0, float("nan")]}),
])
def test_cli_rejects_non_finite_numbers_with_exit_two(tmp_path, capsys, key, value):
    # json.load reads NaN and Infinity; they must fail the schema, not the run
    cfgp = _write_json(tmp_path / "cfg.json", dict(ACTION_RAW, **{key: value}))
    out = tmp_path / "out"
    assert cli_main(["action-check", "--config", cfgp, "--out", str(out)]) == 2
    assert "must be a finite number" in capsys.readouterr().err
    assert not out.exists()


_MLP_MODEL = {"family": "mlp-1-hidden", "input_dim": 2, "n_classes": 3, "hidden": 4, "activation": "tanh"}


@pytest.mark.parametrize("obj, key, value, base", [
    ("model", "n_classes", 3.0, LABEL_RAW["model"]),
    ("model", "input_dim", 2.0, LABEL_RAW["model"]),
    ("model", "hidden", 2.5, _MLP_MODEL),
    ("model", "weight_decay", True, LABEL_RAW["model"]),
    ("sgd", "max_steps", 2.5, LABEL_RAW["sgd"]),
    ("sgd", "batch_size", True, LABEL_RAW["sgd"]),
    ("sgd", "eta", True, LABEL_RAW["sgd"]),
    ("trainer", "max_iters", 2.5, LABEL_RAW["trainer"]),
    ("trainer", "max_iters", True, LABEL_RAW["trainer"]),
    ("trainer", "step_size", True, LABEL_RAW["trainer"]),
    ("trainer", "grad_tol", True, LABEL_RAW["trainer"]),
    ("trainer", "init_scale", True, LABEL_RAW["trainer"]),
])
def test_cli_rejects_mistyped_sub_object_fields_with_exit_two(tmp_path, capsys, obj, key, value, base):
    # counts must be integers and reals must be numbers; a bool is neither
    cfgp = _write_json(tmp_path / "cfg.json", dict(LABEL_RAW, **{obj: dict(base, **{key: value})}))
    out = tmp_path / "out"
    assert cli_main(["label-sweep", "--config", cfgp, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {obj}: {key} must be")
    assert not out.exists()


def test_cli_rejects_an_out_of_bounds_run_count_with_exit_two(tmp_path, capsys):
    # n_runs = 0 used to pass the parser and flag every batch-sweep cell
    cfgp = _write_json(tmp_path / "cfg.json", dict(BATCH_RAW, n_runs=0))
    out = tmp_path / "out"
    assert cli_main(["batch-sweep", "--config", cfgp, "--out", str(out)]) == 2
    assert "n_runs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("potential", [
    {"name": "quadratic"},
    {"name": [0]},
    {"name": "quadratic", "a": "x"},
    {"name": "channel_2d", "a": {"name": "double_well_1d"}, "b": {"name": "double_well_1d"},
     "u_box": [1.0]},
], ids=["missing-a", "list-name", "string-a", "short-u_box"])
def test_cli_rejects_malformed_potentials_with_exit_two(tmp_path, capsys, potential):
    # these escaped the parser as KeyError, TypeError, ValueError and
    # IndexError, and the CLI exited 1 with a traceback
    cfgp = _write_json(tmp_path / "cfg.json", dict(ACTION_RAW, potential=potential))
    out = tmp_path / "out"
    assert cli_main(["action-check", "--config", cfgp, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: potential:")
    assert not out.exists()


@pytest.mark.parametrize("kind", [k for k, raw in MINI_RAW.items() if "model" in raw])
@pytest.mark.parametrize("model, n_samples, message", [
    ({"input_dim": 2, "n_classes": 3}, 2, "n_samples must be >= n_classes (3), got 2"),
    ({"input_dim": 3, "n_classes": 5}, 60, "5 classes need input_dim >= 4, got 3"),
], ids=["n_samples", "input_dim"])
def test_cli_rejects_blob_data_it_cannot_generate_with_exit_two(tmp_path, capsys, kind, model, n_samples, message):
    # both used to pass the parser, then flag every cell and exit 0
    raw = copy.deepcopy(MINI_RAW[kind])
    raw["model"].update(model)
    raw["data"]["n_samples"] = n_samples
    cfgp = _write_json(tmp_path / "cfg.json", raw)
    out = tmp_path / "out"
    assert cli_main([kind, "--config", cfgp, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_pins_openblas_threads_unless_the_caller_did(tmp_path, monkeypatch):
    cfgp = _write_json(tmp_path / "cfg.json", dict(ACTION_RAW, optimize=False))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert cli_main(["action-check", "--config", cfgp, "--out", str(tmp_path / "a")]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert cli_main(["action-check", "--config", cfgp, "--out", str(tmp_path / "b")]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_cli_abort_note_is_serialized_before_its_file_opens(tmp_path, monkeypatch):
    from reachlab.harness import cli

    def failing_run(cfg, out_dir, workers=1):
        raise SimulationError("stopped")

    def unserializable(obj):
        raise ValueError("Out of range float values are not JSON compliant")

    monkeypatch.setattr(cli, "run_experiment", failing_run)
    monkeypatch.setattr(cli, "canonical_json", unserializable)
    cfgp = _write_json(tmp_path / "cfg.json", dict(ACTION_RAW, optimize=False))
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        cli_main(["action-check", "--config", cfgp, "--out", str(out)])
    assert not (out / "aborted.json").exists()


# The channel-action benchmark workload's config, and the sha256 of its
# canonical result fields (the bundle without timing) at seed 0: a change
# that moves it must say which result changed and why.
CHANNEL_ACTION_RAW = {
    "seed": 0,
    "potential": {
        "name": "channel_2d",
        "a": {"name": "double_well_1d"},
        "b": {"name": "polynomial_1d", "coeffs": [2.5, 0.0, 4.0]},
    },
    "start": [-1.0, 0.0],
    "end": [1.0, 0.0],
    "duration": 4.0,
    "n_knots": 33,
    "D": 0.1,
    "maxiter": 1500,
}
CHANNEL_ACTION_DIGEST = "e7eb5a9d6ab5ccbc97107890745d65af92e54ca3874a8039e6f0314cebaf92f7"


def _result_digest(out_dir):
    """sha256 of the written bundle's result fields, as the benchmark digests them."""
    with open(out_dir / "bundle.json") as fh:
        bundle = json.load(fh)
    fields = {k: v for k, v in bundle.items() if k != "timing"}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def test_channel_action_result_digest_is_pinned(tmp_path):
    experiments.run_experiment(parse_config("action-check", dict(CHANNEL_ACTION_RAW)), str(tmp_path))
    assert _result_digest(tmp_path) == CHANNEL_ACTION_DIGEST


# The langevin-escape benchmark workload's config and its pinned digest at
# seed 0, under the same rule.
LANGEVIN_ESCAPE_RAW = {
    "seed": 0,
    "potential": {"name": "double_well_1d"},
    "w0": [-1.0],
    "target": [1.0],
    "radius": 0.1,
    "d_grid": [0.15, 0.2, 0.25, 0.3],
    "dt": 0.002,
    "max_steps": 30000,
    "n_runs": 100,
}
LANGEVIN_ESCAPE_DIGEST = "d9952d4138dcd0e526e5f51f626d5b962ef39633fc1d35eaeae0a8b530fb7032"


def test_langevin_escape_result_digest_is_pinned(tmp_path):
    experiments.run_experiment(parse_config("kramers-sweep", dict(LANGEVIN_ESCAPE_RAW)), str(tmp_path))
    assert _result_digest(tmp_path) == LANGEVIN_ESCAPE_DIGEST


# The sgd-label-sweep and fullbatch-structure benchmark workloads' configs
# and their pinned digests (seeds 5 and 1).  The CLI runs them with the BLAS
# thread variables unset: it must pin numpy's OpenBLAS itself, or on a
# multi-core machine eigvalsh changes the last bits of the results.
_BENCH_MLP = {"family": "mlp-1-hidden", "input_dim": 3, "n_classes": 4, "hidden": 50, "activation": "tanh"}
SGD_LABEL_SWEEP_RAW = {
    "seed": 5,
    "model": _BENCH_MLP,
    "data": {"n_samples": 100, "separation": 2.5},
    "corruption_grid": [0.0, 0.25, 0.5],
    "beta": 0.02,
    "prior_scale2": 1.0,
    "trainer": {"step_size": 0.3, "max_iters": 1000, "grad_tol": 1e-6, "init_scale": 0.1},
    "sgd": {"eta": 0.1, "batch_size": 10, "max_steps": 50000},
    "n_runs": 4,
    "threshold_extra": 0.1,
}
FULLBATCH_STRUCTURE_RAW = {
    "seed": 1,
    "model": _BENCH_MLP,
    "data": {"n_samples": 800, "separation": 2.5},
    "corruption": 0.25,
    "beta_grid": [1.0, 0.1, 0.02, 0.005],
    "prior_scale2": 1.0,
    "trainer": {"step_size": 0.3, "max_iters": 2000, "grad_tol": 1e-6, "init_scale": 0.1},
}


@pytest.mark.parametrize("kind, raw, digest", [
    ("label-sweep", SGD_LABEL_SWEEP_RAW, "593bbb7b8415b9743c36bf27d2f8800ccdda96407075bea67f64f520fcb117a9"),
    ("structure-curve", FULLBATCH_STRUCTURE_RAW, "d2b63df929057dfd5cbfab39fd3afe4660da4f4805c6e2f5eb52e1f1db4e7318"),
], ids=["sgd-label-sweep", "fullbatch-structure"])
def test_cli_reproduces_pinned_digests_with_blas_threads_unset(tmp_path, kind, raw, digest):
    src = os.path.dirname(os.path.dirname(reachlab.__file__))
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    cfg = _write_json(tmp_path / "cfg.json", raw)
    subprocess.run(
        [sys.executable, "-m", "reachlab.harness.cli", kind, "--config", cfg, "--out", str(tmp_path / "out")],
        env=dict(env, PYTHONPATH=src), capture_output=True, check=True, timeout=300,
    )
    assert _result_digest(tmp_path / "out") == digest


def test_cli_rejects_a_start_inside_the_target(tmp_path, capsys):
    # every passage time would be 0, and the Arrhenius fit takes log(mean time)
    cfgp = _write_json(tmp_path / "cfg.json", dict(KRAMERS_RAW, w0=[1.0]))
    out = tmp_path / "out"
    assert cli_main(["kramers-sweep", "--config", cfgp, "--out", str(out)]) == 2
    assert "inside the target" in capsys.readouterr().err
    assert not out.exists()


def test_cli_compares_huge_distances_without_overflow(tmp_path, capsys):
    # squaring a radius or a distance above ~1.3e154 overflows a float
    cfgp = _write_json(tmp_path / "r.json", dict(KRAMERS_RAW, radius=2e154))
    assert cli_main(["kramers-sweep", "--config", cfgp, "--out", str(tmp_path / "r")]) == 2
    assert "inside the target" in capsys.readouterr().err
    # and a start that far out has no finite potential: rejected, unwarned
    raw = dict(KRAMERS_RAW, w0=[-1e200], max_steps=200, n_runs=2)
    cfgp = _write_json(tmp_path / "w.json", raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["kramers-sweep", "--config", cfgp, "--out", str(tmp_path / "w")]) == 2
    assert "w0: the potential and its gradient must be finite" in capsys.readouterr().err


def test_cli_flags_censored_cells_but_still_succeeds(tmp_path, capsys):
    # noise too weak to cross the barrier: cells are flagged, not fatal
    raw = dict(KRAMERS_RAW, d_grid=[1e-4, 2e-4, 3e-4], max_steps=200, n_runs=2)
    cfgp = _write_json(tmp_path / "cfg.json", raw)
    out = tmp_path / "out"
    rc = cli_main(["kramers-sweep", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    assert "3 cell(s) flagged" in capsys.readouterr().out
    b = ResultBundle.load(str(out / "bundle.json"))
    assert b.records == [] and len(b.flags) == 3
    assert b.summary["fit"] is None


def test_cli_runtime_failure_exit_three_with_note(tmp_path, capsys):
    # schema-valid, but the layered model refuses a zero starting scale
    raw = {
        "seed": 0,
        "model": {
            "family": "mlp-1-hidden",
            "input_dim": 1,
            "n_classes": 2,
            "hidden": 4,
            "activation": "tanh",
        },
        "data": {"n_samples": 20, "separation": 4.0},
        "beta_grid": [10.0, 1.0],
        "prior_scale2": 1.0,
        "trainer": {"step_size": 0.3, "max_iters": 200, "grad_tol": 1e-6},
    }
    cfgp = _write_json(tmp_path / "cfg.json", raw)
    out = tmp_path / "out"
    rc = cli_main(["structure-curve", "--config", cfgp, "--out", str(out)])
    assert rc == 3
    note = json.loads((out / "aborted.json").read_text())
    assert note["kind"] == "structure-curve"
    assert note["config"]["seed"] == 0
    assert "init_scale" in note["error"]
    assert capsys.readouterr().err.startswith("error: experiment failed")


def test_cli_schema_failure_leaves_no_bundle(tmp_path, monkeypatch):
    # bundle.json is written last, so its presence means the run finished
    def broken_write_csv(path, name, rows):
        raise SchemaError(f"{name}: rejected")

    monkeypatch.setattr(experiments, "write_csv", broken_write_csv)
    cfgp = _write_json(tmp_path / "cfg.json", dict(ACTION_RAW, optimize=False))
    out = tmp_path / "out"
    rc = cli_main(["action-check", "--config", cfgp, "--out", str(out)])
    assert rc == 3
    assert json.loads((out / "aborted.json").read_text())["kind"] == "action-check"
    assert not (out / "bundle.json").exists()


def test_cli_rerun_into_a_used_directory_replaces_the_outcome(tmp_path, monkeypatch):
    # succeed, fail, succeed into one directory: only the latest outcome stays
    cfgp = _write_json(tmp_path / "cfg.json", dict(ACTION_RAW, optimize=False))
    out = tmp_path / "out"
    argv = ["action-check", "--config", cfgp, "--out", str(out)]
    assert cli_main(argv) == 0
    assert (out / "bundle.json").exists() and not (out / "aborted.json").exists()

    def broken_write_csv(path, name, rows):
        raise SchemaError(f"{name}: rejected")

    with monkeypatch.context() as m:
        m.setattr(experiments, "write_csv", broken_write_csv)
        assert cli_main(argv) == 3
    assert (out / "aborted.json").exists() and not (out / "bundle.json").exists()

    assert cli_main(argv) == 0
    assert (out / "bundle.json").exists() and not (out / "aborted.json").exists()
