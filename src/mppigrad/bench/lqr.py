"""Constrained linear-quadratic benchmark: optimality-gap curves vs the QP oracle.

Each cell of the (sigma2, tau, eta, seed) grid runs the sampled optimizer from
the zero mean and reports the gap between the rolled-out cost of the current
mean and the verified QP optimum.  The step size per cell is either the
classical eta = 1 or the rule eta = 1/L_sigma with L_sigma computed in closed
form from the lifted quadratic.  Optionally a projected finite-difference
baseline is run at an equal objective-evaluation budget.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List

import numpy as np

from .. import analysis, qp
from ..errors import AllInfeasibleError, ConvergenceError, InfeasibleProblemError, NotSpdError
from ..optimizer import run, step_size_rule
from ..problems import LqrSpec, TrajectoryProblem, double_integrator, lqr_problem
from ..sampling import GaussianPolicy
from .config import RunConfig, pgd_config
from .records import RunRecord


def _build_spec(problem_cfg: Dict[str, Any]) -> LqrSpec:
    return dataclasses.replace(double_integrator(), **problem_cfg)  # LqrSpec converts its arrays


def _solve_oracle(lifted: qp.QpProblem) -> Dict[str, float]:
    """The optimal trajectory cost and the weak-duality gap that certifies it."""
    solution = qp.solve_verified(lifted)
    return {
        "f_star": solution.f_star + lifted.constant,
        "oracle_duality_gap": solution.duality_gap,
    }


def _one_cell(
    problem: TrajectoryProblem,
    lifted: qp.QpProblem,
    oracle: Dict[str, float],
    cfg: RunConfig,
    cell: Dict[str, Any],
    seed: int,
) -> RunRecord:
    t_start = time.perf_counter()
    sigma2, tau = float(cell["sigma2"]), float(cell["tau"])
    smooth = analysis.l_sigma_quadratic(sigma2, lifted.q, tau)
    if cell["eta"] == "rule":
        eta, rule = step_size_rule(smooth.l_sigma), "one_over_l_sigma"
    else:
        eta, rule = float(cell["eta"]), "fixed"
    opt_cfg = cfg.section("optimizer")
    pgd = pgd_config(opt_cfg, eta, opt_cfg["iterations"])
    policy = GaussianPolicy(np.zeros(problem.n_controls), sigma2, tau)
    record = RunRecord(
        experiment="lqr", cell=dict(cell), seed=seed, config_snapshot=cfg.snapshot()
    )
    try:
        final_policy, trace = run(problem, policy, pgd, seed)
    except AllInfeasibleError as err:
        record.flagged = True
        record.flag_reason = f"optimizer abort: {err}"
        record.summary = {"eta_resolved": eta, "rule": rule, "l_sigma": smooth.l_sigma}
        return record

    means = np.array([r.mean for r in trace.records] + [final_policy.mean])
    costs, feasible = problem.evaluate_batch(means)
    gaps = costs - oracle["f_star"]
    n = pgd.n_samples
    for r, gap in zip(trace.records, gaps[:-1]):
        record.rows.append(
            {
                "k": r.k,
                "gap": float(gap),
                "grad_norm_P": r.grad_norm_p,
                "ess": r.ess,
                "acceptance": r.acceptance,
                "best_cost": r.best_cost,
                "ms": r.ms,
            }
        )
        record.plot_rows.append(
            {"iteration": r.k, "evaluations": (r.k + 1) * n, "gap": float(gap)}
        )
    record.summary = {
        **oracle,
        "eta_resolved": eta,
        "rule": rule,
        "l_sigma": smooth.l_sigma,
        "l_sigma_method": smooth.method,
        "final_gap": float(gaps[-1]),
        "min_gap": float(gaps.min()),
        "final_cost": float(costs[-1]),
        "mean_acceptance": float(trace.column("acceptance").mean()),
        "ess_min": float(trace.column("ess").min()),
        "retries": int(sum(r.retries for r in trace.records)),
        "nonfinite_costs": sum(r.nonfinite for r in trace.records),
        "infeasible_mean_iterations": [int(i) for i in np.nonzero(~feasible)[0]],
        "iterations": len(trace),
        "evaluations": len(trace) * n,
        "runtime_seconds": time.perf_counter() - t_start,
    }
    return record


def _fd_record(
    problem: TrajectoryProblem, lifted: qp.QpProblem, oracle: Dict[str, float], cfg: RunConfig
) -> RunRecord:
    t_start = time.perf_counter()
    fd_cfg = cfg.section("fd")
    budget = int(fd_cfg["budget_evals"])
    iters = budget // (problem.n_controls + 1)
    projector = qp.FeasibleSetProjector(lifted)
    record = RunRecord(
        experiment="lqr", cell={"method": "fd"}, seed=0, config_snapshot=cfg.snapshot()
    )
    try:
        trace = analysis.fd_baseline(
            problem,
            np.zeros(problem.n_controls),
            h=float(fd_cfg["h"]),
            alpha=float(fd_cfg["alpha"]),
            iters=iters,
            projector=projector,
        )
    except ConvergenceError as err:
        record.flagged = True
        record.flag_reason = f"projection failure: {err}"
        return record
    gaps = trace.costs - oracle["f_star"]
    per = trace.evals_per_iteration
    nan = float("nan")
    for k, gap in enumerate(gaps):
        record.rows.append(
            {
                "k": k,
                "gap": float(gap),
                "grad_norm_P": nan,
                "ess": nan,
                "acceptance": nan,
                "best_cost": float(trace.costs[k]),
                "ms": nan,
            }
        )
        record.plot_rows.append({"iteration": k, "evaluations": k * per, "gap": float(gap)})
    record.summary = {
        **oracle,
        "h": float(fd_cfg["h"]),
        "alpha": float(fd_cfg["alpha"]),
        # projected gradient descent on the quadratic diverges above 2
        "alpha_lambda_max": float(fd_cfg["alpha"]) * float(np.linalg.eigvalsh(lifted.q)[-1]),
        "final_gap": float(gaps[-1]),
        "min_gap": float(gaps.min()),
        "iterations": iters,
        "evaluations": trace.total_evaluations,
        "runtime_seconds": time.perf_counter() - t_start,
    }
    return record


def run_lqr(cfg: RunConfig, max_workers: int = 4) -> List[RunRecord]:
    """All grid cells (concurrently) plus the optional FD baseline record.

    The QP oracle is solved once and certified by weak duality before any
    cell runs; an oracle failure returns one flagged record in place of all
    others (the CLI maps that to its oracle-failure exit code).
    """
    spec = _build_spec(cfg.section("problem"))
    lifted = qp.lift(spec)
    try:
        oracle = _solve_oracle(lifted)
    except (ConvergenceError, InfeasibleProblemError, NotSpdError) as err:
        bad = RunRecord(
            experiment="lqr",
            cell={"method": "oracle"},
            seed=0,
            config_snapshot=cfg.snapshot(),
            flagged=True,
            flag_reason=f"qp oracle failure: {err}",
        )
        return [bad]

    problem = lqr_problem(spec, lifted)  # frozen, and `evaluate` is pure: the threads share it
    sampling_cfg = cfg.section("sampling")
    cells = [
        {"sigma2": float(s2), "tau": float(tau), "eta": eta}
        for s2 in cfg.grid("sigma2", [sampling_cfg["sigma2"]])
        for tau in cfg.grid("tau", [sampling_cfg["tau"]])
        for eta in cfg.grid("eta", [cfg.section("optimizer").get("eta", 1.0)])
    ]
    jobs = [(cell, seed) for cell in cells for seed in cfg.seeds]
    with ThreadPoolExecutor(max_workers=min(max_workers, len(jobs))) as pool:
        records = list(
            pool.map(
                lambda job: _one_cell(problem, lifted, oracle, cfg, job[0], job[1]), jobs
            )
        )
    if cfg.section("fd").get("enabled", False):
        records.append(_fd_record(problem, lifted, oracle, cfg))
    return records
