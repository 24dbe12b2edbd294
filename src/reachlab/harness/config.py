"""Experiment config parsing with strict schemas.

Every recognised key is listed per experiment kind; anything else is
rejected so a typo fails fast (CLI exit 2) instead of silently running
a default.  Parsed configs are plain JSON-compatible dicts with the
defaults filled in, so a config snapshot embedded in a result bundle
round-trips through this parser unchanged.

One mechanism checks every key: ``_fields`` types the top level, the
``data`` object and each task spec against their schemas, and applies
the one bound ``_BOUNDS`` states for each key name.  The model, trainer
and SGD objects are checked by the dataclasses that own them
(``_build``), and ``_cross_validate`` keeps only the checks that relate
keys to each other.  Each builder imports the science module that owns
its dataclass, so parsing a config loads only what its kind runs.
"""

import dataclasses
import math

from ..errors import ConfigError, ContractError


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: kind, global seed, normalized parameters."""

    kind: str
    seed: int
    params: dict

    def snapshot(self):
        """JSON-ready copy that re-parses to an identical config."""
        return {"kind": self.kind, "seed": self.seed, **self.params}


_REQUIRED = object()  # the default of a key the config must give


@dataclasses.dataclass(frozen=True)
class _Field:
    check: object  # a _TYPES name, a nested object's schema, or [either] for a list
    default: object = _REQUIRED
    min_len: int = 0


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v):
    return _is_int(v) or isinstance(v, float)


_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_num, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
}


def _at_least(n):
    return (lambda v: v >= n), f">= {n}"


_POSITIVE = (lambda v: v > 0), "positive"
_UNIT = (lambda v: 0.0 <= v <= 1.0), "in [0, 1]"

# One bound per key name, wherever a kind or object declares the key; a
# list key bounds each entry.
_BOUNDS = {
    **dict.fromkeys(
        ("radius", "dt", "d_grid", "duration", "D", "beta", "beta_grid", "prior_scale2",
         "threshold_extra", "eta", "separation"),
        _POSITIVE,
    ),
    **dict.fromkeys(("corruption", "corruption_grid"), _UNIT),
    **dict.fromkeys(("max_steps", "n_runs", "maxiter", "n_samples", "batch_grid"), _at_least(1)),
    "noise_draws": _at_least(2),
    "n_knots": _at_least(3),
    "keep_classes": _at_least(0),
    "label": (bool, "nonempty"),
}


def _check_finite(where, v):
    """Reject NaN and +-Infinity anywhere in ``v``.

    JSON has neither, but ``json.load`` accepts both; a non-finite
    number would pass range checks like ``D <= 0`` and fail mid-run.
    """
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"{where} must be a finite number, got {v!r}")
    if isinstance(v, dict):
        for k, x in v.items():
            _check_finite(f"{where}.{k}", x)
    elif isinstance(v, list):
        for i, x in enumerate(v):
            _check_finite(f"{where}[{i}]", x)


def _value(where, key, check, v):
    """One value of ``key`` in object ``where``, checked and normalized."""
    if isinstance(check, dict):
        return _fields(key, v, check)
    is_type, what = _TYPES[check]
    if not is_type(v):
        raise ConfigError(f"{where}: {key} must be {what}, got {v!r}")
    in_bounds, bound = _BOUNDS.get(key, (None, None))
    if in_bounds is not None and not in_bounds(v):
        raise ConfigError(f"{where}: {key} must be {bound}, got {v!r}")
    return float(v) if check == "float" else dict(v) if check == "dict" else v


def _fields(where, raw, schema):
    """Object ``raw`` checked against ``schema``, with its defaults filled in."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {type(raw).__name__}")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    out = {}
    for key, f in schema.items():
        v = raw.get(key, f.default)
        if v is _REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        if key not in raw or (v is None and f.default is None):  # null: a None default's snapshot
            out[key] = dict(v) if isinstance(v, dict) else v  # a fresh {} per config
        elif isinstance(f.check, list):
            if not isinstance(v, list) or len(v) < f.min_len:
                raise ConfigError(f"{where}: {key} must be a list with >= {f.min_len} entries")
            out[key] = [_value(where, key, f.check[0], x) for x in v]
        else:
            out[key] = _value(where, key, f.check, v)
    return out


def _build(where, d, cls, **fixed):
    """Dataclass ``cls`` from object ``d``; its fields not in ``fixed`` are the keys."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    unknown = set(d) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in d]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    try:
        return cls(**d, **fixed)
    except ContractError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_model(d):
    from ..tasks import ModelSpec

    return _build("model", d, ModelSpec)


def build_trainer(d, seed):
    from ..complexity import TrainerConfig

    return _build("trainer", d, TrainerConfig, seed=seed)


def build_sgd(d, **fixed):
    from ..diffusion import SGDConfig

    return _build("sgd", d, SGDConfig, **fixed)


def check_potential(d):
    from .. import landscape

    try:
        return landscape.from_config(d)
    except ContractError as exc:
        raise ConfigError(f"potential: {exc}") from exc


# The model declares the label space and input width; blob data inherits
# both, so a config cannot quietly describe a dataset its model can't score.
_DATA = {"n_samples": _Field("int"), "separation": _Field("float")}
_TASK_SPEC = {
    "label": _Field("str"),
    "keep_classes": _Field(["int"], None, min_len=1),  # None: all classes
    "corruption": _Field("float", 0.0),
}
# the keys of every kind that trains a model on blob data
_TASK_BASE = {"model": _Field("dict"), "data": _Field(_DATA), "trainer": _Field("dict", {})}
# the keys label-sweep, complexity-scatter and finetune-matrix share
_TASK_KEYS = {
    **_TASK_BASE,
    "beta": _Field("float"),
    "prior_scale2": _Field("float"),
    "sgd": _Field("dict"),
    "n_runs": _Field("int", 20),
    "threshold_extra": _Field("float", 0.1),
}

_SCHEMAS = {
    "kramers-sweep": {
        "potential": _Field("dict"),
        "w0": _Field(["float"], min_len=1),
        "target": _Field(["float"], min_len=1),
        "radius": _Field("float", 0.1),
        "d_grid": _Field(["float"], min_len=3),
        "dt": _Field("float"),
        "max_steps": _Field("int"),
        "n_runs": _Field("int", 500),
    },
    "label-sweep": {**_TASK_KEYS, "corruption_grid": _Field(["float"], min_len=3)},
    "batch-sweep": {
        **_TASK_BASE,
        "batch_grid": _Field(["int"], min_len=3),
        "eta": _Field("float"),
        "max_steps": _Field("int"),
        "n_runs": _Field("int", 20),
        "noise_draws": _Field("int", 2000),
        "threshold_extra": _Field("float", 0.1),
    },
    "complexity-scatter": {**_TASK_KEYS, "tasks": _Field([_TASK_SPEC], min_len=2)},
    "finetune-matrix": {**_TASK_KEYS, "tasks": _Field([_TASK_SPEC], min_len=2)},
    "structure-curve": {
        **_TASK_BASE,
        "corruption": _Field("float", 0.0),
        "beta_grid": _Field(["float"], min_len=2),
        "prior_scale2": _Field("float"),
    },
    "action-check": {
        "potential": _Field("dict"),
        "start": _Field(["float"], min_len=1),
        "end": _Field(["float"], min_len=1),
        "duration": _Field("float"),
        "n_knots": _Field("int"),
        "D": _Field("float"),
        "optimize": _Field("bool", True),
        "maxiter": _Field("int", 1500),
    },
}

KINDS = tuple(_SCHEMAS)


def _cross_validate(seed, p):
    """The checks that relate keys to each other, and the nested builds."""
    if "potential" in p:
        dim = check_potential(p["potential"]).dim
        a, b = ("w0", "target") if "w0" in p else ("start", "end")
        if len(p[a]) != dim or len(p[b]) != dim:
            raise ConfigError(f"{a}/{b} must have the potential's dimension ({dim})")
    if "w0" in p:
        if math.dist(p["w0"], p["target"]) <= p["radius"]:
            raise ConfigError("w0 lies inside the target ball; every passage time would be 0")
        if len(set(p["d_grid"])) < 3:
            raise ConfigError("d_grid needs >= 3 distinct values")
    if "model" in p:
        model = build_model(p["model"])
        n_classes, dim, n = model.n_classes, model.input_dim, p["data"]["n_samples"]
        if n_classes > dim + 1:  # blob centers sit on a regular simplex
            raise ConfigError(f"model: {n_classes} classes need input_dim >= {n_classes - 1}, got {dim}")
        if n < n_classes:  # and every class gets a sample
            raise ConfigError(f"data: n_samples must be >= n_classes ({n_classes}), got {n}")
        build_trainer(p["trainer"], seed)
    if "sgd" in p:
        build_sgd(p["sgd"])
    bg = p.get("beta_grid", ())
    if any(a <= b for a, b in zip(bg, bg[1:])):
        raise ConfigError("beta_grid must be strictly descending")
    if any(b > p["data"]["n_samples"] for b in p.get("batch_grid", ())):
        raise ConfigError("batch sizes cannot exceed n_samples")
    grid = p.get("corruption_grid", ())
    if len(set(grid)) != len(grid):
        raise ConfigError("corruption_grid values must be distinct")
    specs = p.get("tasks", ())
    for s in specs:
        ks = s["keep_classes"]
        if ks is not None:
            if max(ks) >= n_classes or len(set(ks)) != len(ks):
                raise ConfigError(
                    f"task spec {s['label']!r}: keep_classes must be distinct ints in [0, {n_classes})"
                )
            s["keep_classes"] = sorted(ks)
    if len({s["label"] for s in specs}) != len(specs):
        raise ConfigError("task labels must be distinct")


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
    for key, v in raw.items():
        _check_finite(f"{kind}: {key}", v)
    params = _fields(kind, raw, _SCHEMAS[kind])
    _cross_validate(seed, params)
    return ExperimentConfig(kind, seed, params)
