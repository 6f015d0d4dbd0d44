"""Versioned YAML run configuration for the benchmark harness.

A config document has a `version: 1` header, an `experiment` id, and nested
sections whose defaults are filled in here so that every emitted snapshot is
fully resolved (re-runnable with no reference to the original file).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np
import yaml

from ..errors import ConfigError
from ..optimizer import PgdConfig
from ..problems import DEFAULT_OBSTACLES

SCHEMA_VERSION = 1
EXPERIMENTS = ("lqr", "dubins", "theory")

_LQR_DEFAULTS: Dict[str, Any] = {
    "problem": {"horizon": 10},
    "sampling": {"sigma2": 1.0e-4, "tau": 1.0},
    "optimizer": {
        "n_samples": 1000,
        "iterations": 2000,
        "antithetic": True,
        "eps_stat": 0.0,
        "max_retries": 5,
    },
    "grid": {"eta": [1.0, "rule"]},
    "fd": {"enabled": False, "h": 1.0e-3, "alpha": 1.0e-3, "budget_evals": 220_000},
    "seeds": [0, 1, 2],
}

_DUBINS_DEFAULTS: Dict[str, Any] = {
    "problem": {
        "speed": 4.0,
        "dt": 0.1,
        "horizon": 20,
        "x0": [0.0, 0.0, float(np.pi / 2)],
        "target": [6.0, 6.0, 0.0],
        "q_weights": [1.0, 1.0, 0.01],
        "r_weight": 0.001,
        "w_max": float(1.5 * np.pi),
        "obstacles": [list(row) for row in DEFAULT_OBSTACLES],
    },
    "sampling": {"sigma2": 0.25, "tau": 4.0},
    "optimizer": {
        "n_samples": 1024,
        "eta": 1.0,
        "antithetic": True,
        "eps_stat": 0.0,
        "max_retries": 5,
    },
    "sim_steps": 40,
    "grid": {"k": [1, 5, 10]},
    "seeds": [0, 1, 2],
}

_THEORY_DEFAULTS: Dict[str, Any] = {"inject_bug": False, "seeds": [0]}

_DEFAULTS = {"lqr": _LQR_DEFAULTS, "dubins": _DUBINS_DEFAULTS, "theory": _THEORY_DEFAULTS}


def _deep_merge(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


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

    def grid(self, key: str, fallback: list) -> list:
        return list(self.resolved.get("grid", {}).get(key, fallback))

    def snapshot(self) -> Dict[str, Any]:
        doc = copy.deepcopy(self.resolved)
        doc["version"] = SCHEMA_VERSION
        doc["experiment"] = self.experiment
        return doc

    def write_snapshot(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            yaml.safe_dump(self.snapshot(), sort_keys=True, default_flow_style=None),
            encoding="utf-8",
        )


def pgd_config(optimizer: Dict[str, Any], eta: Any, k: Any) -> PgdConfig:
    """One job's optimizer settings: its own step size and iteration count, the rest shared.

    Counts must be real integers, `eta` and `eps_stat` finite real numbers and
    `antithetic` a real boolean: `int()` would read YAML `true` as 1 and
    truncate 200.9, `float(True)` is 1.0, and `bool("false")` is True.
    """
    for name, value in (
        ("iteration count", k),
        ("optimizer.n_samples", optimizer["n_samples"]),
        ("optimizer.max_retries", optimizer["max_retries"]),
    ):
        if not _is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name, value in (("optimizer.eta", eta), ("optimizer.eps_stat", optimizer["eps_stat"])):
        if not _finite_real(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    antithetic = optimizer["antithetic"]
    if not isinstance(antithetic, bool):
        raise ConfigError(f"optimizer.antithetic must be true or false, got {antithetic!r}")
    return PgdConfig(
        eta=float(eta),
        k=k,
        n_samples=optimizer["n_samples"],
        antithetic=antithetic,
        eps_stat=float(optimizer["eps_stat"]),
        max_retries=optimizer["max_retries"],
    )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # YAML true is an int subclass


def _finite_real(value: Any) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _finite_positive(value: Any) -> bool:
    return _finite_real(value) and value > 0


def _validate(doc: Dict[str, Any]) -> None:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version {version!r} (expected {SCHEMA_VERSION})")
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")


def _validate_resolved(experiment: str, resolved: Dict[str, Any]) -> None:
    seeds = resolved.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(_is_int(s) for s in seeds):
        raise ConfigError("seeds must be a non-empty list of integers")
    if min(seeds) < 0:  # the Philox counter streams take only non-negative keys
        raise ConfigError(f"seeds must be non-negative, got {min(seeds)}")
    for key, values in resolved.get("grid", {}).items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid entry {key!r} must be a non-empty list")
    if experiment == "theory":
        return
    for key in ("sigma2", "tau"):
        for value in resolved.get("grid", {}).get(key, [resolved["sampling"][key]]):
            if not _finite_positive(value):
                raise ConfigError(f"sampling.{key} must be positive, got {value!r}")
    if experiment == "lqr":
        # the grid cells, and optimizer.eta: the cell when the grid has none
        for eta in [*resolved["grid"].get("eta", []), resolved["optimizer"].get("eta", 1.0)]:
            if eta != "rule" and not _finite_positive(eta):
                raise ConfigError(f"eta cell {eta!r} must be positive or the string 'rule'")
    steps = resolved.get("sim_steps", 1)
    if experiment == "dubins" and not (_is_int(steps) and steps >= 1):
        raise ConfigError("sim_steps must be >= 1")
    _check_builds(experiment, resolved)


def _check_builds(experiment: str, resolved: Dict[str, Any]) -> None:
    """Build the problem spec and optimizer configs that the run will build.

    Their constructors own the value checks (horizon, matrix shapes, time
    step, an odd sample count under antithetic sampling, ...), so a bad value
    fails here as a ConfigError instead of a traceback from a worker thread.
    """
    from . import dubins, lqr  # local: both runner modules import this one

    try:
        optimizer = resolved["optimizer"]
        if experiment == "lqr":
            spec = lqr._build_spec(resolved["problem"])
            pgd_config(optimizer, 1.0, optimizer["iterations"])  # eta cells are checked above
        else:
            dubins.build_spec(resolved["problem"])
            for k in resolved.get("grid", {}).get("k", [1]):
                pgd_config(optimizer, optimizer["eta"], k)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {experiment} config: {exc}") from exc
    if experiment == "lqr":
        _check_fd(resolved["fd"], spec.horizon * spec.control_dim)


def _check_fd(fd: Dict[str, Any], n_controls: int) -> None:
    """Finite positive step sizes, and a budget for at least one FD iteration."""
    for key in ("h", "alpha"):
        try:
            value = float(fd[key])
        except (TypeError, ValueError):
            value = float("nan")
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"fd.{key} must be finite and positive, got {fd[key]!r}")
    budget = fd["budget_evals"]
    # one projected FD iteration costs n_controls + 1 evaluations
    if not isinstance(budget, int) or budget < n_controls + 1:
        raise ConfigError(
            f"fd.budget_evals must be an integer >= {n_controls + 1} "
            f"(one FD iteration), got {budget!r}"
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
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    _validate(doc)
    experiment = doc["experiment"]
    user = {k: v for k, v in doc.items() if k not in ("version", "experiment")}
    resolved = _deep_merge(_DEFAULTS[experiment], user)
    if seed_override is not None:
        resolved["seeds"] = [int(seed_override)]
    if out_override is not None:
        resolved["out"] = str(out_override)
    if grid_overrides:
        resolved.setdefault("grid", {})
        for key, values in grid_overrides.items():
            resolved["grid"][key] = values
    _validate_resolved(experiment, resolved)
    return RunConfig(experiment=experiment, resolved=resolved)


def parse_grid_override(text: str) -> tuple[str, list]:
    """Parse a CLI `key=v1,v2,...` grid override; values go through YAML."""
    if "=" not in text:
        raise ConfigError(f"grid override {text!r} must look like key=v1,v2,...")
    key, _, raw = text.partition("=")
    key = key.strip()
    values = [yaml.safe_load(tok) for tok in raw.split(",") if tok.strip() != ""]
    if not key or not values:
        raise ConfigError(f"grid override {text!r} must name a key and at least one value")
    return key, values
