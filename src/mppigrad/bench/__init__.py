"""Benchmark harness: configs, experiment drivers, record emission, CLI."""

from .config import RunConfig, load_config
from .dubins import run_dubins
from .lqr import run_lqr
from .records import emit
