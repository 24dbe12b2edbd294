"""Experiment config parsing with strict schemas.

Every recognised key is listed per experiment kind; anything else is
rejected so a typo fails fast (CLI exit 2) instead of silently running
a default.  Parsed configs are plain JSON-compatible dicts with the
defaults filled in, so a config snapshot embedded in a result bundle
round-trips through this parser unchanged.
"""

import math
from dataclasses import dataclass

from .. import landscape
from ..complexity import TrainerConfig
from ..diffusion import SGDConfig
from ..errors import ConfigError, ContractError
from ..tasks import ModelSpec

@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: kind, global seed, normalized parameters."""

    kind: str
    seed: int
    params: dict

    def snapshot(self):
        """JSON-ready copy that re-parses to an identical config."""
        return {"kind": self.kind, "seed": self.seed, **self.params}


@dataclass(frozen=True)
class _Field:
    check: str  # int | float | str | bool | floats | ints | dict | dicts
    required: bool = True
    default: object = None
    min_len: int = 0


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v):
    return _is_int(v) or isinstance(v, float)


def _check_finite(kind, path, v):
    """Reject NaN and +-Infinity anywhere in ``v``.

    JSON has neither, but ``json.load`` accepts both; a non-finite
    number would pass range checks like ``D <= 0`` and fail mid-run.
    """
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"{kind}: {path} must be a finite number, got {v!r}")
    if isinstance(v, dict):
        for k, x in v.items():
            _check_finite(kind, f"{path}.{k}", x)
    elif isinstance(v, list):
        for i, x in enumerate(v):
            _check_finite(kind, f"{path}[{i}]", x)


def _coerce(kind, key, f, v):
    where = f"{kind}: key {key!r}"
    if f.check == "int":
        if not _is_int(v):
            raise ConfigError(f"{where} must be an integer, got {v!r}")
        return v
    if f.check == "float":
        if not _is_num(v):
            raise ConfigError(f"{where} must be a number, got {v!r}")
        return float(v)
    if f.check == "str":
        if not isinstance(v, str):
            raise ConfigError(f"{where} must be a string, got {v!r}")
        return v
    if f.check == "bool":
        if not isinstance(v, bool):
            raise ConfigError(f"{where} must be a boolean, got {v!r}")
        return v
    if f.check in ("floats", "ints", "dicts"):
        if not isinstance(v, list) or len(v) < f.min_len:
            raise ConfigError(f"{where} must be a list with >= {f.min_len} entries")
        if f.check == "floats":
            if not all(_is_num(x) for x in v):
                raise ConfigError(f"{where} must hold numbers only")
            return [float(x) for x in v]
        if f.check == "ints":
            if not all(_is_int(x) for x in v):
                raise ConfigError(f"{where} must hold integers only")
            return list(v)
        if not all(isinstance(x, dict) for x in v):
            raise ConfigError(f"{where} must hold objects only")
        return [dict(x) for x in v]
    if f.check == "dict":
        if not isinstance(v, dict):
            raise ConfigError(f"{where} must be an object, got {type(v).__name__}")
        return dict(v)
    raise AssertionError(f"unknown field check {f.check!r}")


# Sub-object key sets shared by several kinds.  The model declares the
# label space and input width; blob data inherits both, so a config
# cannot quietly describe a dataset its model can't score.
_MODEL_KEYS = {"family", "input_dim", "n_classes", "weight_decay", "hidden", "activation"}
_DATA_KEYS = {"n_samples", "separation"}
_TRAINER_KEYS = {"step_size", "max_iters", "grad_tol", "init_scale"}
_SGD_KEYS = {"eta", "batch_size", "max_steps"}
_TASKSPEC_KEYS = {"label", "keep_classes", "corruption"}


def build_model(d):
    if not isinstance(d, dict):
        raise ConfigError("model must be an object")
    extra = set(d) - _MODEL_KEYS
    if extra:
        raise ConfigError(f"model: unknown keys {sorted(extra)}")
    try:
        return ModelSpec(**d)
    except (ContractError, TypeError) as exc:
        raise ConfigError(f"model: {exc}") from exc


def check_data(d):
    if not isinstance(d, dict):
        raise ConfigError("data must be an object")
    extra = set(d) - _DATA_KEYS
    if extra:
        raise ConfigError(f"data: unknown keys {sorted(extra)}")
    for k in _DATA_KEYS:
        if k not in d:
            raise ConfigError(f"data: missing key {k!r}")
    if not _is_int(d["n_samples"]) or d["n_samples"] < 1:
        raise ConfigError("data: n_samples must be a positive integer")
    if not _is_num(d["separation"]) or d["separation"] <= 0:
        raise ConfigError("data: separation must be positive")
    return {"n_samples": d["n_samples"], "separation": float(d["separation"])}


def build_trainer(d, seed):
    if not isinstance(d, dict):
        raise ConfigError("trainer must be an object")
    extra = set(d) - _TRAINER_KEYS
    if extra:
        raise ConfigError(f"trainer: unknown keys {sorted(extra)}")
    try:
        return TrainerConfig(seed=seed, **d)
    except (ContractError, TypeError) as exc:
        raise ConfigError(f"trainer: {exc}") from exc


def build_sgd(d, batch_size=None):
    if not isinstance(d, dict):
        raise ConfigError("sgd must be an object")
    keys = _SGD_KEYS - ({"batch_size"} if batch_size is not None else set())
    extra = set(d) - keys
    if extra:
        raise ConfigError(f"sgd: unknown keys {sorted(extra)}")
    missing = keys - set(d)
    if missing:
        raise ConfigError(f"sgd: missing keys {sorted(missing)}")
    try:
        if batch_size is not None:
            return SGDConfig(batch_size=batch_size, **d)
        return SGDConfig(**d)
    except (ContractError, TypeError) as exc:
        raise ConfigError(f"sgd: {exc}") from exc


def check_taskspec(n_classes, spec):
    if not isinstance(spec, dict):
        raise ConfigError("task spec must be an object")
    extra = set(spec) - _TASKSPEC_KEYS
    if extra:
        raise ConfigError(f"task spec: unknown keys {sorted(extra)}")
    if "label" not in spec or not isinstance(spec["label"], str) or not spec["label"]:
        raise ConfigError("task spec: needs a nonempty string 'label'")
    out = {"label": spec["label"], "keep_classes": None, "corruption": 0.0}
    if spec.get("keep_classes") is not None:  # null is the snapshot's "all classes"
        ks = spec["keep_classes"]
        if (
            not isinstance(ks, list)
            or not ks
            or not all(_is_int(k) and 0 <= k < n_classes for k in ks)
            or len(set(ks)) != len(ks)
        ):
            raise ConfigError(
                f"task spec {spec['label']!r}: keep_classes must be distinct ints in [0, {n_classes})"
            )
        out["keep_classes"] = sorted(ks)
    if "corruption" in spec:
        rho = spec["corruption"]
        if not _is_num(rho) or not 0.0 <= rho <= 1.0:
            raise ConfigError(f"task spec {spec['label']!r}: corruption must lie in [0, 1]")
        out["corruption"] = float(rho)
    return out


def check_potential(d):
    try:
        return landscape.from_config(d)
    except ContractError as exc:
        raise ConfigError(f"potential: {exc}") from exc


_SCHEMAS = {
    "kramers-sweep": {
        "potential": _Field("dict"),
        "w0": _Field("floats", min_len=1),
        "target": _Field("floats", min_len=1),
        "radius": _Field("float", required=False, default=0.1),
        "d_grid": _Field("floats", min_len=3),
        "dt": _Field("float"),
        "max_steps": _Field("int"),
        "n_runs": _Field("int", required=False, default=500),
    },
    "label-sweep": {
        "model": _Field("dict"),
        "data": _Field("dict"),
        "corruption_grid": _Field("floats", min_len=3),
        "beta": _Field("float"),
        "prior_scale2": _Field("float"),
        "trainer": _Field("dict", required=False, default={}),
        "sgd": _Field("dict"),
        "n_runs": _Field("int", required=False, default=20),
        "threshold_extra": _Field("float", required=False, default=0.1),
    },
    "batch-sweep": {
        "model": _Field("dict"),
        "data": _Field("dict"),
        "batch_grid": _Field("ints", min_len=3),
        "eta": _Field("float"),
        "max_steps": _Field("int"),
        "n_runs": _Field("int", required=False, default=20),
        "noise_draws": _Field("int", required=False, default=2000),
        "trainer": _Field("dict", required=False, default={}),
        "threshold_extra": _Field("float", required=False, default=0.1),
    },
    "complexity-scatter": {
        "model": _Field("dict"),
        "data": _Field("dict"),
        "tasks": _Field("dicts", min_len=2),
        "beta": _Field("float"),
        "prior_scale2": _Field("float"),
        "trainer": _Field("dict", required=False, default={}),
        "sgd": _Field("dict"),
        "n_runs": _Field("int", required=False, default=20),
        "threshold_extra": _Field("float", required=False, default=0.1),
    },
    "finetune-matrix": {
        "model": _Field("dict"),
        "data": _Field("dict"),
        "tasks": _Field("dicts", min_len=2),
        "beta": _Field("float"),
        "prior_scale2": _Field("float"),
        "trainer": _Field("dict", required=False, default={}),
        "sgd": _Field("dict"),
        "n_runs": _Field("int", required=False, default=20),
        "threshold_extra": _Field("float", required=False, default=0.1),
    },
    "structure-curve": {
        "model": _Field("dict"),
        "data": _Field("dict"),
        "corruption": _Field("float", required=False, default=0.0),
        "beta_grid": _Field("floats", min_len=2),
        "prior_scale2": _Field("float"),
        "trainer": _Field("dict", required=False, default={}),
    },
    "action-check": {
        "potential": _Field("dict"),
        "start": _Field("floats", min_len=1),
        "end": _Field("floats", min_len=1),
        "duration": _Field("float"),
        "n_knots": _Field("int"),
        "D": _Field("float"),
        "optimize": _Field("bool", required=False, default=True),
        "maxiter": _Field("int", required=False, default=1500),
    },
}

KINDS = tuple(_SCHEMAS)


def _cross_validate(kind, seed, p):
    """Kind-specific consistency checks beyond per-field typing."""
    if kind == "kramers-sweep":
        pot = check_potential(p["potential"])
        if len(p["w0"]) != pot.dim or len(p["target"]) != pot.dim:
            raise ConfigError(f"w0/target must have the potential's dimension ({pot.dim})")
        if p["radius"] <= 0 or p["dt"] <= 0:
            raise ConfigError("radius and dt must be positive")
        if sum((a - b) ** 2 for a, b in zip(p["w0"], p["target"])) <= p["radius"] ** 2:
            raise ConfigError("w0 lies inside the target ball; every passage time would be 0")
        if any(d <= 0 for d in p["d_grid"]) or len(set(p["d_grid"])) < 3:
            raise ConfigError("d_grid needs >= 3 distinct positive values")
        if p["max_steps"] < 1 or p["n_runs"] < 1:
            raise ConfigError("max_steps and n_runs must be >= 1")
        return
    if kind == "action-check":
        pot = check_potential(p["potential"])
        if len(p["start"]) != pot.dim or len(p["end"]) != pot.dim:
            raise ConfigError(f"start/end must have the potential's dimension ({pot.dim})")
        if p["duration"] <= 0 or p["D"] <= 0:
            raise ConfigError("duration and D must be positive")
        if p["n_knots"] < 3:
            raise ConfigError("n_knots must be >= 3")
        if p["maxiter"] < 1:
            raise ConfigError("maxiter must be >= 1")
        return

    model = build_model(p["model"])
    p["data"] = check_data(p["data"])
    build_trainer(p["trainer"], seed)
    if kind == "structure-curve":
        bg = p["beta_grid"]
        if any(b <= 0 for b in bg) or any(a <= b for a, b in zip(bg, bg[1:])):
            raise ConfigError("beta_grid must be positive and strictly descending")
        if not 0.0 <= p["corruption"] <= 1.0:
            raise ConfigError("corruption must lie in [0, 1]")
    elif kind == "batch-sweep":
        if any(b < 1 for b in p["batch_grid"]):
            raise ConfigError("batch sizes must be >= 1")
        if any(b > p["data"]["n_samples"] for b in p["batch_grid"]):
            raise ConfigError("batch sizes cannot exceed n_samples")
        if p["eta"] <= 0 or p["max_steps"] < 1 or p["noise_draws"] < 2:
            raise ConfigError("need eta > 0, max_steps >= 1, noise_draws >= 2")
        build_sgd({"eta": p["eta"], "max_steps": p["max_steps"]}, batch_size=1)
    else:
        build_sgd(p["sgd"])
    if kind == "label-sweep":
        grid = p["corruption_grid"]
        if any(not 0.0 <= r <= 1.0 for r in grid):
            raise ConfigError("corruption_grid must lie inside [0, 1]")
        if len(set(grid)) != len(grid):
            raise ConfigError("corruption_grid values must be distinct")
    if kind in ("complexity-scatter", "finetune-matrix"):
        specs = [check_taskspec(model.n_classes, s) for s in p["tasks"]]
        labels = [s["label"] for s in specs]
        if len(set(labels)) != len(labels):
            raise ConfigError("task labels must be distinct")
        p["tasks"] = specs
    if kind in ("label-sweep", "complexity-scatter", "finetune-matrix"):
        if p["beta"] <= 0 or p["prior_scale2"] <= 0:
            raise ConfigError("beta and prior_scale2 must be positive")
        if p["threshold_extra"] <= 0:
            raise ConfigError("threshold_extra must be positive")
        if p["n_runs"] < 1:
            raise ConfigError("n_runs must be >= 1")
    if kind == "structure-curve" and p["prior_scale2"] <= 0:
        raise ConfigError("prior_scale2 must be positive")


def parse_config(kind, raw, seed_override=None):
    """Validate a raw JSON object against the schema for ``kind``.

    ``seed_override`` (the CLI flag) wins over a 'seed' key in the file;
    one of the two must be present.
    """
    if kind not in _SCHEMAS:
        raise ConfigError(f"unknown experiment kind {kind!r}; known: {sorted(_SCHEMAS)}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    raw = dict(raw)
    file_kind = raw.pop("kind", None)
    if file_kind is not None and file_kind != kind:
        raise ConfigError(f"config file says kind {file_kind!r} but {kind!r} was requested")
    seed = raw.pop("seed", None)
    if seed_override is not None:
        seed = seed_override
    if not _is_int(seed) or seed < 0:
        raise ConfigError("a non-negative integer seed is required (config key or --seed)")

    schema = _SCHEMAS[kind]
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"{kind}: unknown keys {sorted(unknown)}")
    params = {}
    for key, f in schema.items():
        if key in raw:
            _check_finite(kind, key, raw[key])
            params[key] = _coerce(kind, key, f, raw[key])
        elif f.required:
            raise ConfigError(f"{kind}: missing required key {key!r}")
        else:
            params[key] = f.default if not isinstance(f.default, dict) else dict(f.default)
    _cross_validate(kind, seed, params)
    return ExperimentConfig(kind, seed, params)
