"""Benchmark harness: configs, experiment drivers, record emission, CLI.

The five entry points load their module at first access (PEP 562), so
`from mppigrad.bench import load_config` loads the config layer alone: no
runner, no `qp`, no `analysis`.
"""

from importlib import import_module

_HOMES = {
    "RunConfig": "config",
    "load_config": "config",
    "run_dubins": "dubins",
    "run_lqr": "lqr",
    "emit": "records",
}


def __getattr__(name: str):
    if name not in _HOMES:  # so `from mppigrad.bench import lqr` imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
