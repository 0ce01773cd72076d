"""Experiment configuration: one JSON document, validated strictly.

Unknown keys are rejected anywhere in the tree, every field is type-checked,
and defaults fill whatever the file omits. The effective (default-filled)
config is hashed so every report can name the exact configuration that
produced it. Two packaged presets ship with the library: ``preset-localise``
(per-layer attribution comparison) and ``preset-detect`` (frozen-backbone
detection comparison).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .data import SHAPE_KINDS, ShapeSpec
from .errors import ConfigError, ShapeError, SpecError
from .network import NetworkSpec, build_six_layer_net
from .training import TrainConfig

PRESETS = {
    "preset-localise": "localise.json",
    "preset-detect": "detect.json",
}


def _trainer_section(**defaults) -> dict:
    """Schema of a trainer section: ``TrainConfig``'s fields but ``seed``, with
    ``TrainConfig``'s defaults except those ``defaults`` overrides."""
    return {f.name: (type(f.default), defaults.get(f.name, f.default))
            for f in fields(TrainConfig) if f.name != "seed"}


SCHEMA = {
    "seed": (int, 7),
    "out_dir": (str, "runs/out"),
    "jobs": (int, 1),
    "dataset": {
        "n_images": (int, 600),
        "image_edge": (int, 32),
        "class_count": (int, 3),
        "size_range": ("int_pair", [10, 16]),
        "intensity_range": ("float_pair", [0.7, 1.0]),
        "noise": (float, 0.2),
        "distractors": (int, 0),
        "channels": (int, 1),
        "split_fractions": ("float_triple", [0.7, 0.15, 0.15]),
    },
    "model": {
        "widths": ("int_list", [8, 8, 16, 16, 32, 32]),
        "kernel": (int, 3),
    },
    "train": {
        "k": (int, 6),
        "e2e": _trainer_section(),
        "cascade": _trainer_section(),
        "probe": _trainer_section(epochs=10, lr=0.1, batch_size=64),
    },
    "explain": {
        "methods": ("str_list", ["grad_cam"]),
        "taps": ("int_list", [2, 3, 4, 5]),
        "percentile": (float, 90.0),
        "sigma": (float, 2.0),
        "lime": {
            "n_samples": (int, 150),
            "ridge_lambda": (float, 1.0),
            "keep_prob": (float, 0.5),
            "top_k": (int, 4),
            "patch_edge": (int, 8),
        },
    },
    "detect": {
        "S": (int, 7),
        "B": (int, 2),
        "tap": (int, 4),
        "conf_threshold": (float, 0.05),
        "nms_iou": (float, 0.5),
        "head_seeds": (int, 1),
        "lambda_coord": (float, 5.0),
        "lambda_noobj": (float, 0.5),
        "train": _trainer_section(epochs=12, lr=0.08, patience=4),
    },
    "granulometry": {
        "max_size": (int, 8),
        "percentile": (float, 90.0),
    },
}

METHODS = ("saliency", "grad_cam", "lime")
TAP_COUNT = 6  # one tap per conv layer of the six-layer net


def _check_leaf(path: str, kind, value):
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected integer, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected number, got {value!r}")
        return float(value)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string, got {value!r}")
        return value
    if kind == "int_list":
        if not isinstance(value, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise ConfigError(f"{path}: expected a list of integers, got {value!r}")
        return list(value)
    if kind == "str_list":
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{path}: expected a list of strings, got {value!r}")
        return list(value)
    if kind == "int_pair":
        v = _check_leaf(path, "int_list", value)
        if len(v) != 2:
            raise ConfigError(f"{path}: expected two integers, got {value!r}")
        return v
    if kind == "float_pair" or kind == "float_triple":
        want = 2 if kind == "float_pair" else 3
        if not isinstance(value, list) or len(value) != want or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            raise ConfigError(f"{path}: expected {want} numbers, got {value!r}")
        return [float(v) for v in value]
    raise AssertionError(f"unknown schema kind {kind!r}")


def _merge(schema: dict, given: dict, path: str = "") -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {given!r}")
    for key in given:
        if key not in schema:
            raise ConfigError(f"unknown config key: {path + key!r}")
    out = {}
    for key, entry in schema.items():
        here = f"{path}{key}"
        if isinstance(entry, dict):
            out[key] = _merge(entry, given.get(key, {}), here + ".")
        else:
            kind, default = entry
            out[key] = _check_leaf(here, kind, given[key]) if key in given else default
    return out


def check_taps(where: str, taps: list[int]) -> list[int]:
    """``taps`` unchanged if each is a tap of the six-layer net (1..6) and none
    repeats; otherwise a ``ConfigError`` naming ``where``."""
    for i, tap in enumerate(taps):
        if not 1 <= tap <= TAP_COUNT:
            raise ConfigError(f"{where}: tap {tap} out of range 1..{TAP_COUNT}")
        if tap in taps[:i]:
            raise ConfigError(f"{where}: tap {tap} repeated")
    return taps


def check_methods(where: str, methods: list[str]) -> list[str]:
    """``methods`` unchanged if each is one of ``METHODS``, once; else a ``ConfigError``."""
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ConfigError(f"{where}: unknown method {m!r} (use {METHODS})")
        if m in methods[:i]:
            raise ConfigError(f"{where}: method {m!r} repeated")
    return methods


def check_grid(spec: NetworkSpec, S: int, tap: int) -> None:
    """A ``ConfigError`` unless an S x S detection grid fits the feature map at ``tap``."""
    hw = spec.tap_shape(tap)[1:]
    if not 1 <= S <= min(hw):
        raise ConfigError(f"detect.S = {S} does not fit the {hw} feature map at tap {tap}")


def check_k(where: str, k: int) -> int:
    """Cascade part count ``k`` unchanged if in 1..6, else a ``ConfigError``."""
    if not 1 <= k <= TAP_COUNT:
        raise ConfigError(f"{where}: must be in 1..{TAP_COUNT}, got {k}")
    return k


def shape_spec(dataset: dict) -> ShapeSpec:
    """The generator settings of a ``dataset`` section."""
    return ShapeSpec(
        image_edge=dataset["image_edge"], size_range=tuple(dataset["size_range"]),
        intensity_range=tuple(dataset["intensity_range"]), noise=dataset["noise"],
        distractors=dataset["distractors"], channels=dataset["channels"])


def _require(where: str, value, ok: bool, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{where}: must be {rule}, got {value}")


def _semantic_checks(cfg: dict) -> NetworkSpec:
    """The config's network, once every semantic rule holds."""
    if len(cfg["model"]["widths"]) != TAP_COUNT:
        raise ConfigError(f"model.widths: exactly {TAP_COUNT} channel widths required")
    explain, lime, dcfg = cfg["explain"], cfg["explain"]["lime"], cfg["detect"]
    data, kernel = cfg["dataset"], cfg["model"]["kernel"]
    try:
        shape_spec(data)
    except ShapeError as e:
        raise ConfigError(f"dataset: {e}") from None
    kinds = len(SHAPE_KINDS)
    _require("dataset.class_count", data["class_count"], 1 <= data["class_count"] <= kinds,
             f"in 1..{kinds}")
    fractions = data["split_fractions"]
    _require("dataset.split_fractions", fractions,
             min(fractions) >= 0 and abs(sum(fractions) - 1.0) <= 1e-9, ">= 0, summing to 1")
    _require("model.kernel", kernel, kernel >= 1 and kernel % 2 == 1, "a positive odd number")
    at_least_one = [("model.widths", w) for w in cfg["model"]["widths"]] + [
        ("dataset.n_images", data["n_images"]), ("jobs", cfg["jobs"]),
        ("detect.head_seeds", dcfg["head_seeds"]), ("detect.B", dcfg["B"]),
        ("explain.lime.n_samples", lime["n_samples"]), ("explain.lime.top_k", lime["top_k"]),
        ("granulometry.max_size", cfg["granulometry"]["max_size"])]
    for where, value in at_least_one:
        _require(where, value, value >= 1, ">= 1")
    for section in ("explain", "granulometry"):
        p = cfg[section]["percentile"]
        _require(f"{section}.percentile", p, 0 < p < 100, "in (0, 100)")
    _require("explain.sigma", explain["sigma"], explain["sigma"] >= 0, ">= 0")
    _require("explain.lime.ridge_lambda", lime["ridge_lambda"], lime["ridge_lambda"] > 0, "> 0")
    _require("explain.lime.keep_prob", lime["keep_prob"], 0 < lime["keep_prob"] < 1, "in (0, 1)")
    edge = data["image_edge"]
    # one patch admits only the all-on and all-off masks: LIME localises nothing
    _require("explain.lime.patch_edge", lime["patch_edge"], 1 <= lime["patch_edge"] <= edge // 2,
             f"in 1..{edge // 2} (dataset.image_edge // 2)")
    for key in ("nms_iou", "conf_threshold"):
        _require(f"detect.{key}", dcfg[key], 0 <= dcfg[key] <= 1, "in [0, 1]")
    for key in ("lambda_coord", "lambda_noobj"):
        _require(f"detect.{key}", dcfg[key], dcfg[key] >= 0, ">= 0")
    check_methods("explain.methods", explain["methods"])
    check_k("train.k", cfg["train"]["k"])
    for section, trainer in [("train", "e2e"), ("train", "cascade"), ("train", "probe"),
                             ("detect", "train")]:
        try:
            TrainConfig(**cfg[section][trainer])
        except SpecError as e:
            raise ConfigError(f"{section}.{trainer}: {e}") from None
    check_taps("explain.taps", explain["taps"])
    check_taps("detect.tap", [dcfg["tap"]])
    try:
        spec = build_six_layer_net((data["channels"], edge, edge), data["class_count"],
                                   cfg["model"]["widths"], kernel)
    except SpecError as e:
        raise ConfigError(f"dataset.image_edge: {e}") from None
    check_grid(spec, dcfg["S"], dcfg["tap"])
    return spec


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    hash: str
    spec: NetworkSpec

    def __getitem__(self, key):
        return self.raw[key]

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def out_dir(self) -> Path:
        return Path(self.raw["out_dir"])


def _config_text(source: str | Path) -> str:
    name = str(source)
    if name in PRESETS:
        return resources.files("layerlens.presets").joinpath(PRESETS[name]).read_text("utf-8")
    path = Path(source)
    if not path.is_file():
        raise ConfigError(f"config file not found: {source}")
    return path.read_text("utf-8")


def load_config(source: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse, default-fill and validate; ``overrides`` (top-level keys set by
    flags) win where they are not None."""
    try:
        given = json.loads(_config_text(source))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    cfg = _merge(SCHEMA, given)
    cfg.update({k: v for k, v in (overrides or {}).items() if v is not None})
    spec = _semantic_checks(cfg)
    # jobs is an execution detail: outputs must not depend on worker count
    hashed = {k: v for k, v in cfg.items() if k != "jobs"}
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return ExperimentConfig(cfg, digest, spec)
