"""Experiment files: the JSON spec that the ``demix`` commands run.

Every block rejects keys it does not know and values of the wrong type,
naming the key, so a malformed spec fails before any work starts.  A
block's keys are the arguments of what it builds: the fields of a settings
class, the fields of the model, or the arguments of the constructor that
a ``kind`` names.  In the model and ``bandwidth`` blocks text is valid
only as a ``kind`` or ``type`` tag, and every other value is a number or
a list or object of them.
"""

from __future__ import annotations

import dataclasses
import json

from .kde import BandwidthSchedule
from .measures import require_finite, require_int, require_positive_finite
from .mixfit import DenoiseConfig, ProjectionConfig
from .regfit import X_GRID_POINTS, MdeConfig
from .synth import MixedRegressionModel, VanillaMixtureModel

_SPEC_KEYS = {"model", "n", "seeds", "configs", "out"}
_REGRESSION_CONFIG_KEYS = {"mde", "x0", "n_x_grid", "window"}
_CONFIG_KEYS = {"bandwidth", "projection", "denoise",
                *_REGRESSION_CONFIG_KEYS}
_TYPE_NAMES = {"int": "an integer", "float": "a number", "str": "a string"}


def _check_model_values(value, name: str) -> None:
    """Raise ``ValueError`` naming the key unless every value under
    ``value`` is a finite number, or text under a ``kind`` or ``type``
    key.  ``json.load`` parses NaN and Infinity, so finiteness is checked
    here."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not (key in ("kind", "type") and isinstance(item, str)):
                _check_model_values(item, f"{name}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_model_values(item, f"{name}[{i}]")
    else:
        require_finite(value, name)


def model_from_json_obj(obj: dict):
    """Dispatch a type-tagged model object to its class."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("model must be a JSON object with a 'type' tag")
    _check_model_values(obj, "model")
    tag = obj["type"]
    if tag == "mixed_regression":
        return MixedRegressionModel.from_json_obj(obj)
    if tag == "vanilla_mixture":
        return VanillaMixtureModel.from_json_obj(obj)
    raise ValueError(f"unknown model type {tag!r}")


def _whole(value) -> bool:
    # JSON numbers parse to exactly int or float; bool is excluded.
    return type(value) is int or type(value) is float and value.is_integer()


def _parse_seeds(raw, name: str) -> tuple:
    """Seeds from a spec's JSON list or a flag's comma-separated text: at
    least one, all distinct nonnegative integers."""
    if isinstance(raw, str):
        try:
            raw = [int(s) for s in raw.split(",")]
        except ValueError:
            raise ValueError(f"{name} must be comma-separated integers, "
                             f"got {raw!r}") from None
    if (not raw or any(type(s) is not int or s < 0 for s in raw)
            or len(set(raw)) != len(raw)):
        raise ValueError(f"{name} must be a nonempty list of distinct "
                         f"nonnegative integers, got {raw!r}")
    return tuple(raw)


def _setting(value, annotation: str, name: str):
    """``value`` if it has the type a settings field is annotated with,
    a whole float turned int for an int field; bool is not a number."""
    kind = annotation.split(" |")[0]
    if not (value is None and annotation.endswith("None")
            or kind == "int" and _whole(value)
            or kind == "float" and type(value) in (int, float)
            or kind == "str" and isinstance(value, str)):
        raise ValueError(f"{name} must be {_TYPE_NAMES[kind]}, "
                         f"got {value!r}")
    return int(value) if kind == "int" and value is not None else value


def _build_config(cls, obj, name: str):
    """The settings dataclass ``cls`` built from the spec block ``name``,
    whose keys must be fields of ``cls`` and whose values must match the
    fields' types.

    The settings classes start each ``ValueError`` with the field at
    fault, so the message names it as ``name.field``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(types)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    kwargs = {key: _setting(value, types[key], f"{name}.{key}")
              for key, value in obj.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{name}.{exc}") from None


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a generating model, sample sizes, seeds, settings.

    Every fit uses the model's own component count and noise scale; the
    settings fields are the only estimator settings a command uses.
    """

    model: object
    n_values: tuple
    seeds: tuple
    bandwidth: BandwidthSchedule | None = None
    projection: ProjectionConfig | None = None
    denoise: DenoiseConfig | None = None
    mde: MdeConfig | None = None
    x0: float | None = None
    n_x_grid: int = X_GRID_POINTS
    window: float | None = None
    out: str | None = None

    def __post_init__(self):
        n = self.n_values
        if not n or min(n) < 1 or len(set(n)) != len(n):
            raise ValueError(f"n must hold one or more distinct positive "
                             f"sample sizes, got {list(n)!r}")
        require_int(self.n_x_grid, "n_x_grid", least=1)
        if self.x0 is not None:
            require_finite(self.x0, "x0")
        if self.window is not None:
            require_positive_finite(self.window, "window")

    @property
    def kind(self) -> str:
        if isinstance(self.model, MixedRegressionModel):
            return "regression"
        return "mixture"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentSpec":
        unknown = set(obj) - _SPEC_KEYS
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        model = model_from_json_obj(obj["model"])

        raw_n = obj.get("n", [])
        if isinstance(raw_n, (int, float)):
            raw_n = [raw_n]
        n_values = [_setting(v, "int", "n") for v in raw_n]

        seeds = obj.get("seeds")
        if not isinstance(seeds, list):
            raise ValueError("spec needs a 'seeds' list")
        configs = obj.get("configs", {})
        if not isinstance(configs, dict):
            raise ValueError("configs must be a JSON object")
        unknown = set(configs) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        regression_only = set(configs) & _REGRESSION_CONFIG_KEYS
        if regression_only and not isinstance(model, MixedRegressionModel):
            raise ValueError(f"config keys {sorted(regression_only)} apply "
                             f"only to a mixed_regression model")
        settings = {key: _build_config(cfg_cls, configs[key], key)
                    for key, cfg_cls in (("projection", ProjectionConfig),
                                         ("denoise", DenoiseConfig),
                                         ("mde", MdeConfig))
                    if key in configs}
        if isinstance(model, MixedRegressionModel):
            try:
                (settings.get("mde") or MdeConfig()).check_sweep(model.k)
            except ValueError as exc:
                raise ValueError(f"mde.{exc}") from None
        if "bandwidth" in configs:
            block = configs["bandwidth"]
            if not isinstance(block, dict):
                raise ValueError("bandwidth must be a JSON object")
            _check_model_values(block, "bandwidth")
            settings["bandwidth"] = BandwidthSchedule.from_json_obj(
                block, "bandwidth")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        for key in ("x0", "n_x_grid", "window"):
            if key in configs:
                settings[key] = _setting(configs[key], types[key], key)
        if "out" in obj:
            settings["out"] = _setting(obj["out"], types["out"], "out")
        return cls(
            model=model,
            n_values=tuple(sorted(n_values)),
            seeds=_parse_seeds(seeds, "seeds"),
            **settings,
        )


def _load_spec(path: str | None, seeds: str | None) -> ExperimentSpec:
    """The spec in file ``path``, its seeds replaced by the ``--seeds``
    text when that is given."""
    if not path:
        raise ValueError("this command needs --spec <file>")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {path}: invalid JSON ({exc})")
    try:
        spec = ExperimentSpec.from_json_obj(obj)
    except KeyError as exc:
        raise ValueError(f"spec file {path}: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"spec file {path}: {exc}") from None
    if seeds is None:
        return spec
    return dataclasses.replace(spec, seeds=_parse_seeds(seeds, "--seeds"))
