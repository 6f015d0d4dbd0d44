"""Constrained linear-quadratic benchmark: optimality-gap curves vs the QP oracle.

Each cell of the (sigma2, tau, eta, seed) grid runs the sampled optimizer from
the zero mean and reports the gap between the rolled-out cost of the current
mean and the verified QP optimum.  The step size per cell is either the
classical eta = 1 or the rule eta = 1/L_sigma with L_sigma computed in closed
form from the lifted quadratic.  The cells of one seed run in lockstep on
that seed's base normals (common random numbers), each record bitwise the
one its cell gives alone.  Optionally a projected finite-difference
baseline is run at an equal objective-evaluation budget.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from .. import analysis, qp
from ..errors import ConvergenceError, InfeasibleProblemError, NotSpdError, StepSizeError
from ..optimizer import OptimizerTrace, run, step_size_rule
from ..problems import LqrSpec, TrajectoryProblem, lqr_problem
from ..sampling import GaussianPolicy
from .config import RunConfig, pgd_config
from .jobs import map_jobs
from .records import RunRecord


def _build_spec(problem_cfg: Dict[str, Any]) -> LqrSpec:
    return LqrSpec(**problem_cfg)  # the spec converts its arrays itself


class _Lane:
    """A grid cell's start policy and optimizer settings, with its resolved step size."""

    def __init__(
        self, problem: TrajectoryProblem, lifted: qp.QpProblem, cfg: RunConfig, cell: Dict[str, Any]
    ):
        self.cell = cell
        self.l_sigma = analysis.l_sigma_quadratic(cell["sigma2"], lifted.q, cell["tau"])
        if cell["eta"] == "rule":
            self.eta, self.rule = step_size_rule(self.l_sigma), "one_over_l_sigma"
        else:
            self.eta, self.rule = float(cell["eta"]), "fixed"
        opt_cfg = cfg.section("optimizer")
        self.pgd = pgd_config(opt_cfg, self.eta, opt_cfg["iterations"])
        self.policy = GaussianPolicy(np.zeros(problem.n_controls), cell["sigma2"], cell["tau"])


def _seed_records(
    problem: TrajectoryProblem,
    oracle: Dict[str, float],
    cfg: RunConfig,
    lanes: List[_Lane],
    seed: int,
) -> List[RunRecord]:
    """One record per cell for one seed; the cells step in lockstep on the seed's noise."""
    t_start = time.perf_counter()
    results = run(problem, [(lane.policy, lane.pgd) for lane in lanes], seed)
    return [
        _cell_record(problem, oracle, cfg, lane, seed, final_policy, trace, t_start)
        for lane, (final_policy, trace) in zip(lanes, results)
    ]


def _cell_record(
    problem: TrajectoryProblem,
    oracle: Dict[str, float],
    cfg: RunConfig,
    lane: _Lane,
    seed: int,
    final_policy: GaussianPolicy,
    trace: OptimizerTrace,
    t_start: float,
) -> RunRecord:
    record = RunRecord(
        experiment="lqr", cell=dict(lane.cell), seed=seed, config_snapshot=cfg.snapshot()
    )
    record.summary = {"eta_resolved": lane.eta, "rule": lane.rule, "l_sigma": lane.l_sigma}
    if trace.abort is not None:
        record.flag_reason = f"optimizer abort: {trace.abort}"
        return record

    means = np.array([r.mean for r in trace.records] + [final_policy.mean])
    costs, feasible = problem.evaluate_batch(means)
    gaps = costs - oracle["f_star"]
    n = lane.pgd.n_samples
    evaluations = 0  # cumulative; each all-infeasible retry scores another n samples
    for r, gap in zip(trace.records, gaps[:-1]):
        evaluations += (1 + r.retries) * n
        record.add_row(r.k, float(gap), r.grad_norm_p, r.ess, r.acceptance, r.best_cost, r.ms)
        record.plot_rows.append(
            {"iteration": r.k, "evaluations": evaluations, "gap": float(gap)}
        )
    record.summary |= {
        **oracle,
        "l_sigma_method": "closed_form_quadratic",
        "final_gap": float(gaps[-1]),
        "min_gap": float(gaps.min()),
        "final_cost": float(costs[-1]),
        "mean_acceptance": float(trace.column("acceptance").mean()),
        "ess_min": float(trace.column("ess").min()),
        "retries": int(sum(r.retries for r in trace.records)),
        "nonfinite_costs": sum(r.nonfinite for r in trace.records),
        "infeasible_mean_iterations": [int(i) for i in np.nonzero(~feasible)[0]],
        "iterations": len(trace),
        "evaluations": evaluations,
        "runtime_seconds": time.perf_counter() - t_start,
    }
    return record


def _fd_record(
    problem: TrajectoryProblem, lifted: qp.QpProblem, oracle: Dict[str, float], cfg: RunConfig
) -> RunRecord:
    t_start = time.perf_counter()
    fd_cfg = cfg.section("fd")
    budget = int(fd_cfg["budget_evals"])
    per = problem.n_controls + 1  # evaluations per FD iteration
    iters = budget // per
    projector = qp.FeasibleSetProjector(lifted)
    record = RunRecord(
        experiment="lqr", cell={"method": "fd"}, seed=0, config_snapshot=cfg.snapshot()
    )
    try:
        costs, _ = analysis.fd_baseline(
            problem,
            np.zeros(problem.n_controls),
            h=float(fd_cfg["h"]),
            alpha=float(fd_cfg["alpha"]),
            iters=iters,
            projector=projector,
        )
    except FloatingPointError as err:
        record.flag_reason = f"fd failure: {err}"
        return record
    except (ConvergenceError, InfeasibleProblemError) as err:
        record.flag_reason = f"projection failure: {err}"
        return record
    gaps = costs - oracle["f_star"]
    for k, gap in enumerate(gaps):
        record.add_row(k, float(gap), best_cost=float(costs[k]))  # no sampler columns
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
        "evaluations": iters * per,
        "runtime_seconds": time.perf_counter() - t_start,
    }
    return record


def _failure(cfg: RunConfig, method: str, reason: str) -> List[RunRecord]:
    """One flagged record, named by the failed `method`, in place of all others."""
    return [
        RunRecord(
            experiment="lqr",
            cell={"method": method},
            seed=0,
            config_snapshot=cfg.snapshot(),
            flag_reason=reason,
        )
    ]


def run_lqr(cfg: RunConfig, max_workers: int = 4) -> List[RunRecord]:
    """All grid cells plus the optional FD baseline record.

    One job per seed runs every cell of that seed in lockstep (`optimizer.run`
    with one lane per cell), so the cells share each iteration's base
    normals; up to `max_workers` seeds run concurrently.  A one-seed run (or
    `max_workers=1`) runs in the calling thread with no pool, so it sees the
    caller's numpy error state, where a pool thread starts from numpy's
    default (`bench.jobs.map_jobs`); the CLI sets none.

    The QP oracle is lifted, solved once and certified by weak duality before
    any cell runs.  An oracle failure (a lifted cost that overflows is one),
    a start the sampler cannot use (the zero control sequence outside the
    constraint set), or a cell whose closed-form L_sigma cannot be formed (a
    temperature or variance so small that Sigma^-1 + Q/tau overflows) or whose
    rule step 1/L_sigma overflows returns one flagged record in place of all
    others (the CLI maps that to exit code 2).
    """
    spec = _build_spec(cfg.section("problem"))
    try:
        lifted = qp.lift(spec)
        solution = qp.solve_verified(lifted)
    except (ConvergenceError, InfeasibleProblemError, NotSpdError) as err:
        return _failure(cfg, "oracle", f"qp oracle failure: {err}")
    # the optimal trajectory cost and the weak-duality gap that certifies it
    oracle = {
        "f_star": solution.f_star + lifted.constant,
        "oracle_duality_gap": solution.duality_gap,
    }

    try:
        problem = lqr_problem(lifted)  # frozen, and `evaluate` is pure: the threads share it
    except InfeasibleProblemError as err:
        reason = f"start failure: the zero control sequence is infeasible: {err}"
        return _failure(cfg, "start", reason)
    try:
        lanes = [_Lane(problem, lifted, cfg, cell) for cell in cfg.cells()]
    except (NotSpdError, StepSizeError) as err:
        return _failure(cfg, "l_sigma", f"l_sigma failure: {err}")
    by_seed = map_jobs(
        lambda seed: _seed_records(problem, oracle, cfg, lanes, seed), cfg.seeds, max_workers
    )
    records = [record for by_cell in zip(*by_seed) for record in by_cell]  # cell, then seed
    if cfg.section("fd")["enabled"]:
        records.append(_fd_record(problem, lifted, oracle, cfg))
    return records
