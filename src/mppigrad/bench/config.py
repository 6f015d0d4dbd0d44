"""Versioned YAML run configuration for the benchmark harness.

A config document has a `version: 1` header, an `experiment` id, and nested
sections whose defaults are filled in here so that every emitted snapshot is
fully resolved (re-runnable with no reference to the original file).
"""

from __future__ import annotations

import copy
import itertools
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np
import yaml

from ..errors import ConfigError
from ..optimizer import PgdConfig
from ..problems import DubinsSpec, LqrSpec, double_integrator

SCHEMA_VERSION = 1
EXPERIMENTS = ("lqr", "dubins", "theory")


def _spec_defaults(spec) -> Dict[str, Any]:
    """A problem spec's fields as plain YAML scalars and nested lists."""
    return {k: np.asarray(v).tolist() for k, v in asdict(spec).items()}


_LQR_DEFAULTS: Dict[str, Any] = {
    "problem": _spec_defaults(double_integrator()),
    "sampling": {"sigma2": 1.0e-4, "tau": 1.0},
    "optimizer": {"n_samples": 1000, "iterations": 2000, "antithetic": True},
    "grid": {"eta": [1.0, "rule"]},
    "fd": {"enabled": False, "h": 1.0e-3, "alpha": 1.0e-3, "budget_evals": 220_000},
    "seeds": [0, 1, 2],
}

_DUBINS_DEFAULTS: Dict[str, Any] = {
    "problem": _spec_defaults(DubinsSpec()),
    "sampling": {"sigma2": 0.25, "tau": 4.0},
    "optimizer": {"n_samples": 1024, "eta": 1.0, "antithetic": True},
    "sim_steps": 40,
    "grid": {"k": [1, 5, 10]},
    "seeds": [0, 1, 2],
}

_THEORY_DEFAULTS: Dict[str, Any] = {"inject_bug": False}  # its battery reads no seed

_DEFAULTS = {"lqr": _LQR_DEFAULTS, "dubins": _DUBINS_DEFAULTS, "theory": _THEORY_DEFAULTS}

# the grid axes each runner sweeps, each with the default of the setting it
# sweeps: the config rejects other axes, `RunConfig.cells` reads no others
_GRID_AXES: Dict[str, Dict[str, Any]] = {
    "lqr": {**_LQR_DEFAULTS["sampling"], "eta": 1.0},
    "dubins": {"k": _DUBINS_DEFAULTS["grid"]["k"][0]},
    "theory": {},
}

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _deep_merge(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


class _SnapshotDumper(yaml.SafeDumper):
    """Block style for the document's own mapping, even when every value is a scalar.

    Inner collections of scalars stay in flow style (`seeds: [0, 1, 2]`).
    """

    document_started = False

    def represent_mapping(self, tag, mapping, flow_style=None):
        if not self.document_started:  # the first mapping is the document itself
            self.document_started, flow_style = True, False
        return super().represent_mapping(tag, mapping, flow_style)


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved run configuration (defaults merged, overrides applied)."""

    experiment: str
    resolved: Dict[str, Any]

    @property
    def seeds(self) -> List[int]:
        return list(self.resolved["seeds"])

    @property
    def out_dir(self) -> Optional[str]:
        return self.resolved.get("out")

    def section(self, name: str) -> Dict[str, Any]:
        return self.resolved.get(name, {})

    def cells(self) -> List[Dict[str, Any]]:
        """The run's grid cells in order, the last axis of `_GRID_AXES` fastest.

        An LQR axis the grid leaves out takes its `sampling` value, and those
        sampling axes become floats; `eta` and `k` cells stay as written.
        """
        grid, sampling = self.section("grid"), self.section("sampling")
        axes = _GRID_AXES[self.experiment]
        values = [grid[key] if key in grid else [sampling[key]] for key in axes]
        return [
            {key: float(value) if key in sampling else value for key, value in zip(axes, cell)}
            for cell in itertools.product(*values)
        ]

    def snapshot(self) -> Dict[str, Any]:
        doc = copy.deepcopy(self.resolved)
        doc["version"] = SCHEMA_VERSION
        doc["experiment"] = self.experiment
        return doc

    def write_snapshot(self, path: Union[str, Path]) -> None:
        from .records import _write_text  # here, so that loading a config loads no records

        _write_text(
            Path(path),
            yaml.dump(
                self.snapshot(), Dumper=_SnapshotDumper, sort_keys=True, default_flow_style=None
            ),
        )


def pgd_config(optimizer: Dict[str, Any], eta: Any, k: int) -> PgdConfig:
    """One job's optimizer settings: its own step size and iteration count, the rest shared."""
    return PgdConfig(
        eta=float(eta), k=k, n_samples=optimizer["n_samples"], antithetic=optimizer["antithetic"]
    )


def _validate(doc: Dict[str, Any]) -> None:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version {version!r} (expected {SCHEMA_VERSION})")
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")


def _fits(value: Any, default: Any) -> bool:
    """A bool takes only a bool; an int a non-bool int; a float a finite non-bool number."""
    if isinstance(default, bool) or isinstance(value, bool):  # YAML true is an int subclass
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):  # an int beyond the float range would overflow float()
        if isinstance(value, int):
            return abs(value) <= sys.float_info.max
        return isinstance(value, float) and math.isfinite(value)
    return isinstance(value, type(default))


def _check_types(experiment: str, resolved: Dict[str, Any]) -> None:
    """Hold every value to the type of its default, the one rule for all keys.

    A key the defaults lack is an error (so a misspelt or retired key never
    goes silently unread), a mapping default takes a mapping, and a list
    default a list whose items follow the rule of its first item.  A grid
    axis follows the default of the setting it sweeps, and an LQR eta cell
    may also be the string 'rule'.
    """
    grid = {axis: [value] for axis, value in _GRID_AXES[experiment].items()}
    template = {**_DEFAULTS[experiment], "grid": grid, "out": ""}

    def walk(value: Any, default: Any, path: str) -> None:
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path} must be a mapping, got {value!r}")
            prefix = f"{path}." if path else ""
            unknown = [key for key in value if key not in default]
            if unknown and path == "grid":
                raise ConfigError(
                    f"grid axis {unknown[0]!r} is not swept by the {experiment} experiment "
                    f"(it sweeps {', '.join(default) or 'nothing'})"
                )
            if unknown:
                raise ConfigError(f"unknown config key '{prefix}{unknown[0]}'")
            for key, item in value.items():
                walk(item, default[key], f"{prefix}{key}")
        elif isinstance(default, list):
            if not isinstance(value, list):
                raise ConfigError(f"{path} must be a list, got {value!r}")
            for i, item in enumerate(value):
                walk(item, default[0], f"{path}[{i}]")
        elif value == "rule" and experiment == "lqr" and path.startswith("grid.eta["):
            return  # resolved to 1/L_sigma per cell
        elif not _fits(value, default):
            raise ConfigError(f"{path} must be {_KINDS[type(default)]}, got {value!r}")

    walk(resolved, template, "")


def _check_ranges(experiment: str, resolved: Dict[str, Any]) -> None:
    """Checks beyond the type rule: seeds, grid axes (non-empty, no repeats), positive settings.

    Theory has neither seeds nor grid axes, so it has nothing to check here.
    """
    if experiment == "theory":
        return
    seeds = resolved["seeds"]
    grid = resolved.get("grid", {})
    for key, values in [("seeds", seeds), *((f"grid.{k}", v) for k, v in grid.items())]:
        if not values:
            raise ConfigError(f"{key} must be a non-empty list")
        repeats = [value for i, value in enumerate(values) if value in values[:i]]
        if repeats:  # a repeat only reruns its cells, under record names that may collide
            raise ConfigError(f"{key} lists {repeats[0]!r} twice")
    if min(seeds) < 0:  # the Philox counter streams take only non-negative keys
        raise ConfigError(f"seeds must be non-negative, got {min(seeds)}")
    if max(seeds) >= 2**64:  # the Philox key holds the seed in 64 bits
        raise ConfigError(f"seeds must be below 2**64, got {max(seeds)}")
    sampling = resolved["sampling"]
    for key in ("sigma2", "tau"):  # each swept value as written, or the setting it defaults to
        for value in grid.get(key, [sampling[key]]):
            if not value > 0:
                raise ConfigError(f"sampling.{key} must be positive, got {value!r}")
    if experiment == "dubins" and resolved["sim_steps"] < 1:
        raise ConfigError("sim_steps must be >= 1")
    if experiment == "lqr":
        for eta in grid["eta"]:
            if eta != "rule" and not eta > 0:
                raise ConfigError(f"eta cell {eta!r} must be positive or the string 'rule'")
        fd = resolved["fd"]
        for key in ("h", "alpha"):
            if not fd[key] > 0:
                raise ConfigError(f"fd.{key} must be finite and positive, got {fd[key]!r}")
    _check_builds(experiment, resolved)


def _check_builds(experiment: str, resolved: Dict[str, Any]) -> None:
    """Build the problem spec and optimizer configs that the run will build.

    Their constructors own the value checks (horizon, matrix shapes, time
    step, an odd sample count under antithetic sampling, ...), so a bad value
    fails here as a ConfigError instead of a traceback from a worker thread.
    """
    try:
        optimizer = resolved["optimizer"]
        if experiment == "lqr":
            spec = LqrSpec(**resolved["problem"])
            pgd_config(optimizer, 1.0, optimizer["iterations"])  # eta cells are checked above
        else:
            DubinsSpec(**resolved["problem"])
            for k in resolved["grid"]["k"]:
                pgd_config(optimizer, optimizer["eta"], k)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {experiment} config: {exc}") from exc
    if experiment == "lqr":
        budget, least = resolved["fd"]["budget_evals"], spec.horizon * spec.control_dim + 1
        if budget < least:  # one projected FD iteration costs n_controls + 1 evaluations
            raise ConfigError(
                f"fd.budget_evals must be an integer >= {least} (one FD iteration), got {budget!r}"
            )


def load_config(
    path: Union[str, Path],
    seed_override: Optional[int] = None,
    out_override: Optional[str] = None,
    grid_overrides: Optional[Dict[str, list]] = None,
) -> RunConfig:
    """Load, validate, and resolve a config file; apply CLI overrides."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past Python's digit limit
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    _validate(doc)
    experiment = doc["experiment"]
    user = {k: v for k, v in doc.items() if k not in ("version", "experiment")}
    if seed_override is not None:
        if experiment == "theory":
            raise ConfigError("--seed does not apply to the theory experiment: it reads no seed")
        user["seeds"] = [int(seed_override)]
    if out_override is not None:
        user["out"] = str(out_override)
    resolved = _deep_merge(_DEFAULTS[experiment], user)
    if grid_overrides and isinstance(resolved.get("grid", {}), dict):  # else the walk rejects it
        resolved["grid"] = {**resolved.get("grid", {}), **grid_overrides}
    _check_types(experiment, resolved)
    _check_ranges(experiment, resolved)
    return RunConfig(experiment=experiment, resolved=resolved)


def parse_grid_override(text: str) -> tuple[str, list]:
    """Parse a CLI `key=v1,v2,...` grid override; values go through YAML."""
    if "=" not in text:
        raise ConfigError(f"grid override {text!r} must look like key=v1,v2,...")
    key, _, raw = text.partition("=")
    key = key.strip()
    try:
        values = [yaml.safe_load(tok) for tok in raw.split(",") if tok.strip() != ""]
    except (yaml.YAMLError, ValueError) as exc:  # as in `load_config`
        raise ConfigError(f"grid override {key!r} is not valid YAML: {exc}") from exc
    if not key or not values:
        raise ConfigError(f"grid override {text!r} must name a key and at least one value")
    return key, values
