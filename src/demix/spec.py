"""Experiment files: the JSON spec that the ``demix`` commands run.

Every block rejects keys it does not know and values of the wrong type,
naming the key, so a malformed spec fails before any work starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math

from .kde import BandwidthSchedule
from .mixfit import DenoiseConfig, ProjectionConfig
from .regfit import X_GRID_POINTS, MdeConfig
from .synth import MixedRegressionModel, VanillaMixtureModel

_SPEC_KEYS = {"model", "n", "seeds", "configs", "out"}
_CONFIG_KEYS = {"bandwidth", "projection", "denoise", "mde",
                "x0", "n_x_grid", "window"}
_TYPE_NAMES = {"int": "an integer", "float": "a number", "str": "a string"}


def model_from_json_obj(obj: dict):
    """Dispatch a type-tagged model object to its class."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("model must be a JSON object with a 'type' tag")
    tag = obj["type"]
    if tag == "mixed_regression":
        return MixedRegressionModel.from_json_obj(obj)
    if tag == "vanilla_mixture":
        return VanillaMixtureModel.from_json_obj(obj)
    raise ValueError(f"unknown model type {tag!r}")


def _whole(value) -> bool:
    # JSON numbers parse to exactly int or float; bool is excluded.
    return type(value) is int or type(value) is float and value.is_integer()


def _positive_int(value, name: str) -> int:
    """``value`` as an int, if it is a whole number of at least 1."""
    if not _whole(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _optional_number(value, name: str, positive: bool = False):
    """``value`` if it is None or a finite number, positive if asked."""
    low = 0 if positive else -math.inf
    # JSON numbers parse to exactly int or float; bool is excluded.
    if value is not None and not (type(value) in (int, float)
                                  and low < value < math.inf):
        raise ValueError(f"{name} must be a "
                         f"{'positive' if positive else 'finite'} number, "
                         f"got {value!r}")
    return value


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


def _parse_config(cls, obj, name: str) -> dict:
    """Keyword arguments for the settings dataclass ``cls`` from the spec
    block ``name``, whose keys must be fields of ``cls`` and whose values
    must match the fields' types."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(types)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    return {key: _setting(value, types[key], f"{name}.{key}")
            for key, value in obj.items()}


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a generating model, sample sizes, seeds, settings.

    ``k`` and ``sigma`` default to the model's own values; command-line
    flags may override any field for misspecification studies.
    """

    model: object
    n_values: tuple
    seeds: tuple
    k: int
    sigma: float
    bandwidth: BandwidthSchedule | None = None
    projection: ProjectionConfig | None = None
    denoise: DenoiseConfig | None = None
    mde: MdeConfig | None = None
    x0: float | None = None
    n_x_grid: int = X_GRID_POINTS
    window: float | None = None
    out: str | None = None

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
        n_values = [_positive_int(v, "n") for v in raw_n]
        if not n_values:
            raise ValueError("spec needs at least one sample size in 'n'")
        if len(set(n_values)) != len(n_values):
            raise ValueError(f"n must hold distinct sample sizes, "
                             f"got {raw_n!r}")

        seeds = obj.get("seeds")
        if not isinstance(seeds, list):
            raise ValueError("spec needs a 'seeds' list")
        configs = obj.get("configs", {})
        if not isinstance(configs, dict):
            raise ValueError("configs must be a JSON object")
        unknown = set(configs) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings = {key: cfg_cls(**_parse_config(cfg_cls, configs[key], key))
                    for key, cfg_cls in (("projection", ProjectionConfig),
                                         ("denoise", DenoiseConfig),
                                         ("mde", MdeConfig))
                    if key in configs}
        if "bandwidth" in configs:
            settings["bandwidth"] = BandwidthSchedule.from_json_obj(
                _parse_config(BandwidthSchedule, configs["bandwidth"],
                              "bandwidth"))
        if "n_x_grid" in configs:
            settings["n_x_grid"] = _positive_int(configs["n_x_grid"],
                                                 "n_x_grid")
        x0 = _optional_number(configs.get("x0"), "x0")
        window = _optional_number(configs.get("window"), "window",
                                  positive=True)
        out = obj.get("out")
        if out is not None and not isinstance(out, str):
            raise ValueError(f"out must be a path string, got {out!r}")

        return cls(
            model=model,
            n_values=tuple(sorted(n_values)),
            seeds=_parse_seeds(seeds, "seeds"),
            k=model.k,
            sigma=model.sigma,
            x0=x0,
            window=window,
            out=out,
            **settings,
        )


def _apply_overrides(spec: ExperimentSpec,
                     args: argparse.Namespace) -> ExperimentSpec:
    """Fold command-line flags into the loaded spec."""
    updates = {}
    if args.seeds is not None:
        updates["seeds"] = _parse_seeds(args.seeds, "--seeds")
    if args.K is not None:
        if args.K < 1:
            raise ValueError("--K must be at least 1")
        updates["k"] = args.K
    if args.sigma is not None:
        if not 0 < args.sigma < math.inf:
            raise ValueError("--sigma must be positive")
        updates["sigma"] = args.sigma

    proj_kw = {key: value for key, value in (("L", args.L), ("M", args.M))
               if value is not None}
    if proj_kw:
        updates["projection"] = dataclasses.replace(
            spec.projection or ProjectionConfig(), **proj_kw)

    if (args.delta is not None or args.threshold is not None
            or args.auto_schedule):
        base = spec.denoise or DenoiseConfig()
        delta = args.delta if args.delta is not None else base.delta
        t = args.threshold if args.threshold is not None else base.t
        schedule = "auto" if args.auto_schedule else "manual"
        updates["denoise"] = DenoiseConfig(schedule=schedule,
                                           delta=delta, t=t)

    bw_kw = {key: value for key, value in (("c", args.bandwidth_c),
                                           ("exponent", args.bandwidth_exp))
             if value is not None}
    if bw_kw:
        updates["bandwidth"] = BandwidthSchedule.power_law(**bw_kw)

    return dataclasses.replace(spec, **updates) if updates else spec


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    if not args.spec:
        raise ValueError("this command needs --spec <file>")
    try:
        with open(args.spec) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {args.spec}: invalid JSON ({exc})")
    try:
        spec = ExperimentSpec.from_json_obj(obj)
    except KeyError as exc:
        raise ValueError(f"spec file {args.spec}: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"spec file {args.spec}: {exc}") from None
    return _apply_overrides(spec, args)
