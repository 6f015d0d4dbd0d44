"""Closed-loop Dubins car benchmark over inner-iteration counts.

For each K in the grid and each seed, the receding-horizon driver replans a
T-step turn-rate sequence with K sampled optimizer steps per simulation step,
applies the first control, and advances the car.  Reported metrics are the
average realized stage cost, the sample acceptance rate, and a safety flag
(true when the realized path stays clear of every obstacle and the loop never
aborted).
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

import numpy as np

from ..optimizer import receding_horizon
from ..problems import DubinsSpec, dubins_clear, dubins_problem, dubins_stage_cost
from ..sampling import GaussianPolicy
from .config import RunConfig, pgd_config
from .records import RunRecord

Array = np.ndarray


def _one_cell(spec: DubinsSpec, cfg: RunConfig, cell: Dict[str, Any], seed: int) -> RunRecord:
    t_start = time.perf_counter()
    sampling_cfg = cfg.section("sampling")
    opt_cfg = cfg.section("optimizer")
    pgd = pgd_config(opt_cfg, opt_cfg["eta"], cell["k"])
    policy = GaussianPolicy(
        np.zeros(spec.horizon), float(sampling_cfg["sigma2"]), float(sampling_cfg["tau"])
    )

    def family(state: Optional[Array], candidate: Optional[Array]):
        rooted = spec if state is None else dataclasses.replace(spec, x0=np.asarray(state))
        return dubins_problem(rooted, known_candidate=candidate)

    trace = receding_horizon(
        family,
        policy,
        pgd,
        sim_steps=int(cfg.resolved["sim_steps"]),
        seed=seed,
        stage_cost=lambda x, u: dubins_stage_cost(spec, x, u),
        clip_control=lambda u: np.clip(u, -spec.w_max, spec.w_max),
    )

    record = RunRecord(
        experiment="dubins", cell=dict(cell), seed=seed, config_snapshot=cfg.snapshot()
    )
    running = 0.0
    for step in trace.steps:
        running += step.stage_cost
        record.rows.append(
            {
                "k": step.index,
                "gap": step.stage_cost,
                "grad_norm_P": step.grad_norm_p,
                "ess": step.ess,
                "acceptance": step.acceptance,
                "best_cost": running / (step.index + 1),
                "ms": step.ms,
            }
        )
        record.plot_rows.append(
            {
                "step": step.index,
                "px": float(step.state[0]),
                "py": float(step.state[1]),
                "stage_cost": step.stage_cost,
            }
        )
    states = [s.state for s in trace.steps]
    clear = all(dubins_clear(spec, x) for x in states)
    terminal_err = (
        float(np.linalg.norm(states[-1][:2] - spec.target[:2])) if states else float("nan")
    )
    record.flagged = trace.unsafe
    record.flag_reason = trace.abort_reason
    record.summary = {
        "average_cost": trace.average_cost,
        "acceptance_rate": trace.acceptance_rate,
        "ess_min": min((s.ess_min for s in trace.steps), default=float("nan")),
        "retries": sum(s.retries for s in trace.steps),
        "nonfinite_costs": sum(s.nonfinite for s in trace.steps),
        "safe": bool(clear and not trace.unsafe),
        "terminal_position_error": terminal_err,
        "steps_completed": len(trace.steps),
        "csv_semantics": "k=sim step, gap=stage cost, best_cost=running average cost",
        "runtime_seconds": time.perf_counter() - t_start,
    }
    return record


def run_dubins(cfg: RunConfig, max_workers: int = 4) -> List[RunRecord]:
    """All (K, seed) cells of the closed-loop study, run concurrently."""
    spec = DubinsSpec(**cfg.section("problem"))  # the spec converts its arrays itself
    jobs = [(cell, seed) for cell in cfg.cells() for seed in cfg.seeds]
    with ThreadPoolExecutor(max_workers=min(max_workers, len(jobs))) as pool:
        return list(pool.map(lambda job: _one_cell(spec, cfg, job[0], job[1]), jobs))
