"""Closed-loop Dubins car benchmark over inner-iteration counts.

For each K in the grid and each seed, `_one_cell` drives the car in a
receding-horizon loop: at every simulation step it re-roots the T-step
turn-rate problem at the current state, takes K sampled optimizer steps from
the previous plan shifted by one step and zero-padded, applies the first
control clipped to the rate limit, and advances the car.  Reported metrics
are the average realized stage cost, the sample acceptance rate, and a safety
flag (true when the realized path stays clear of every obstacle and the loop
never aborted).  If no feasible plan exists or sampling aborts, the loop stops
and the partial record is flagged.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List

import numpy as np

from .. import optimizer
from ..errors import InfeasibleProblemError
from ..problems import DubinsSpec, dubins_clear, dubins_problem, dubins_stage_cost
from ..sampling import GaussianPolicy
from .config import RunConfig, pgd_config
from .jobs import map_jobs
from .records import RunRecord


def _one_cell(spec: DubinsSpec, cfg: RunConfig, cell: Dict[str, Any], seed: int) -> RunRecord:
    t_start = time.perf_counter()
    sampling_cfg = cfg.section("sampling")
    opt_cfg = cfg.section("optimizer")
    pgd = pgd_config(opt_cfg, opt_cfg["eta"], cell["k"])
    policy = GaussianPolicy(
        np.zeros(spec.horizon), float(sampling_cfg["sigma2"]), float(sampling_cfg["tau"])
    )
    record = RunRecord(
        experiment="dubins", cell=dict(cell), seed=seed, config_snapshot=cfg.snapshot()
    )
    abort = ""
    warm = policy.mean.copy()
    state = spec.x0
    states, inner_records = [], []
    total = 0.0
    for s in range(int(cfg.resolved["sim_steps"])):
        t0 = time.perf_counter()
        try:
            # looked up as a module global, where the benchmark tracer patches it
            problem = dubins_problem(dataclasses.replace(spec, x0=state), known_candidate=warm)
        except InfeasibleProblemError as err:
            abort = f"step {s}: {err}"
            break
        # offset the RNG iteration by s * k so no two sim steps share a noise stream
        [(solved, inner)] = optimizer.run(
            problem, [(policy.with_mean(warm), pgd)], seed, s * pgd.k
        )
        if inner.abort is not None:
            abort = f"step {s}: {inner.abort}"
            break
        u0 = np.clip(solved.mean[:1], -spec.w_max, spec.w_max)
        state = spec.step(state, u0)
        cost = dubins_stage_cost(spec, state, u0)  # charged on (next state, applied control)
        total += cost
        states.append(state)
        inner_records += inner.records
        record.add_row(
            s,
            cost,
            grad_norm_P=float(inner.records[-1].grad_norm_p),
            ess=float(inner.column("ess").mean()),
            acceptance=float(inner.column("acceptance").mean()),
            best_cost=total / (s + 1),
            ms=(time.perf_counter() - t0) * 1e3,
        )
        record.plot_rows.append(
            {"step": s, "px": float(state[0]), "py": float(state[1]), "stage_cost": cost}
        )
        warm = np.concatenate([solved.mean[1:], np.zeros(1)])

    clear = all(dubins_clear(spec, x) for x in states)
    terminal_err = (
        float(np.linalg.norm(states[-1][:2] - spec.target[:2])) if states else float("nan")
    )
    record.flag_reason = abort
    nan, rows = float("nan"), record.rows
    record.summary = {
        "average_cost": float(np.mean([r["gap"] for r in rows])) if rows else nan,
        "acceptance_rate": float(np.mean([r["acceptance"] for r in rows])) if rows else nan,
        "ess_min": min((float(r.ess) for r in inner_records), default=nan),
        "retries": sum(r.retries for r in inner_records),
        "nonfinite_costs": sum(r.nonfinite for r in inner_records),
        "safe": bool(clear and not abort),
        "terminal_position_error": terminal_err,
        "steps_completed": len(states),
        "csv_semantics": "k=sim step, gap=stage cost, best_cost=running average cost",
        "runtime_seconds": time.perf_counter() - t_start,
    }
    return record


def run_dubins(cfg: RunConfig, max_workers: int = 4) -> List[RunRecord]:
    """All (K, seed) cells of the closed-loop study, up to `max_workers` at once.

    One job per (K, seed) cell.  A one-job run (or `max_workers=1`) runs in
    the calling thread with no pool, so it sees the caller's numpy error
    state, where a pool thread starts from numpy's default
    (`bench.jobs.map_jobs`); the CLI sets none.
    """
    spec = DubinsSpec(**cfg.section("problem"))  # the spec converts its arrays itself
    jobs = [(cell, seed) for cell in cfg.cells() for seed in cfg.seeds]
    return map_jobs(lambda job: _one_cell(spec, cfg, job[0], job[1]), jobs, max_workers)
