"""Preconditioned gradient iteration on the smoothed objective.

One step draws a batch from the current Gaussian policy, forms self-normalized
weights, and moves the mean along the estimated preconditioned gradient.  The
preconditioner is the natural one, Sigma/tau, the only one under which the
paper recovers MPPI: the step is the relaxed update
mu <- (1-eta) mu + eta * (weighted sample mean), and at eta = 1 it reduces
exactly to the classical weighted-mean update.  An exact mode replaces the
Monte Carlo tilted mean with an oracle so the descent inequality can be
checked without sampling noise, and a receding-horizon driver turns the
one-shot optimizer into a closed-loop controller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import AllInfeasibleError, InfeasibleProblemError, UnsupportedProblemError
from .problems import TrajectoryProblem
from .sampling import (
    GaussianPolicy,
    SampleBatch,
    WeightSummary,
    draw,
    evaluate,
    weigh,
    weighted_mean,
)

Array = np.ndarray

@dataclass(frozen=True)
class PgdConfig:
    """Step size and sampling budget for the iteration.

    The preconditioner is always the natural one, P = Sigma/tau, under which
    the update is covariance-free and eta = 1 is the classical MPPI update.
    `eps_stat` > 0 enables early stopping once the preconditioned gradient
    norm, averaged over `stat_window` iterations, falls below it.
    """

    eta: float = 1.0
    k: int = 1
    n_samples: int = 1000
    eps_stat: float = 0.0
    stat_window: int = 5
    antithetic: bool = True
    max_retries: int = 5
    inflation: float = 2.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"step size must be positive, got {self.eta}")
        if self.k < 1:
            raise ValueError("iteration count must be >= 1")
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples per iteration")
        if self.antithetic and self.n_samples % 2:
            raise ValueError(f"antithetic sampling needs an even n_samples, got {self.n_samples}")
        if self.max_retries < 0 or self.inflation <= 1.0:
            raise ValueError("retries must be >= 0 and inflation factor > 1")


@dataclass
class IterationRecord:
    k: int
    mean: Array
    grad_norm_p: float
    ess: float
    acceptance: float
    best_cost: float
    free_energy: float
    ms: float
    retries: int = 0


@dataclass
class OptimizerTrace:
    records: List[IterationRecord] = field(default_factory=list)

    def column(self, name: str) -> Array:
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    def __len__(self) -> int:
        return len(self.records)


def grad_estimate(policy: GaussianPolicy, batch: SampleBatch, summary: WeightSummary) -> Array:
    """Plug-in gradient -tau * Sigma^{-1} (weighted sample mean - mean)."""
    delta = weighted_mean(batch, summary) - policy.mean
    return -policy.tau * policy.solve(delta)


def _grad_norm_p(policy: GaussianPolicy, grad: Array) -> float:
    """Norm |g|_P = sqrt(g' P g) under the natural preconditioner P = Sigma/tau."""
    return float(np.sqrt(max(grad @ policy.cov_mul(grad) / policy.tau, 0.0)))


def _apply_update(policy: GaussianPolicy, eta: float, wmean: Array) -> Array:
    """mu - eta P grad with P = Sigma/tau, i.e. (1 - eta) mu + eta * wmean."""
    if eta == 1.0:
        return wmean.copy()  # bitwise the classical weighted-mean update
    return (1.0 - eta) * policy.mean + eta * wmean


def _sample_weighted(
    problem: TrajectoryProblem,
    policy: GaussianPolicy,
    config: PgdConfig,
    seed: int,
    iteration: int,
):
    """Draw/evaluate/weigh with all-infeasible retries under inflated noise."""
    sampler = policy
    for retry in range(config.max_retries + 1):
        batch = draw(
            sampler, config.n_samples, seed, iteration, antithetic=config.antithetic, retry=retry
        )
        evaluate(batch, problem)
        try:
            summary = weigh(batch, sampler.tau)
        except AllInfeasibleError:
            if retry == config.max_retries:
                raise
            sampler = sampler.inflate(config.inflation)
            continue
        return sampler, batch, summary, retry
    raise AssertionError("unreachable")


def pgd_step(
    problem: TrajectoryProblem,
    policy: GaussianPolicy,
    config: PgdConfig,
    seed: int,
    iteration: int = 0,
) -> tuple[GaussianPolicy, IterationRecord]:
    """One sampled preconditioned step; returns the updated policy and record.

    On an all-infeasible batch the draw is retried (new counter-based stream)
    with covariance inflated by the configured factor; the inflated covariance
    applies to that step's sampling only — the returned policy keeps the
    original covariance.
    """
    t0 = time.perf_counter()
    sampler, batch, summary, retries = _sample_weighted(problem, policy, config, seed, iteration)
    grad = grad_estimate(sampler, batch, summary)
    new_mean = _apply_update(sampler, config.eta, weighted_mean(batch, summary))
    flags = batch.feasible_flags
    record = IterationRecord(
        k=iteration,
        mean=policy.mean.copy(),
        grad_norm_p=_grad_norm_p(sampler, grad),
        ess=summary.effective_sample_size,
        acceptance=summary.acceptance_rate,
        best_cost=float(batch.costs[flags].min()),
        free_energy=float(-sampler.tau * summary.log_mean_weight),
        ms=(time.perf_counter() - t0) * 1e3,
        retries=retries,
    )
    return policy.with_mean(new_mean), record


def run(
    problem: TrajectoryProblem,
    policy: GaussianPolicy,
    config: PgdConfig,
    seed: int,
    iter_offset: int = 0,
) -> tuple[GaussianPolicy, OptimizerTrace]:
    """Up to K sampled steps with optional windowed stationarity stopping.

    `iter_offset` shifts the RNG iteration counter so nested uses (e.g. the
    receding-horizon loop) never reuse a noise stream.  If sampling aborts,
    the partial trace is attached to the raised error as `.trace`.
    """
    trace = OptimizerTrace()
    try:
        for k in range(config.k):
            policy, record = pgd_step(problem, policy, config, seed, iter_offset + k)
            record.k = k
            trace.records.append(record)
            if config.eps_stat > 0 and len(trace) >= config.stat_window:
                recent = trace.column("grad_norm_p")[-config.stat_window :]
                if float(recent.mean()) <= config.eps_stat:
                    break
    except AllInfeasibleError as err:
        err.trace = trace
        raise
    return policy, trace


def run_exact(oracle, policy: GaussianPolicy, config: PgdConfig) -> tuple[GaussianPolicy, OptimizerTrace]:
    """Deterministic iteration using an exact tilted-mean oracle.

    `oracle` must expose tilted_mean(mean) and free_energy(mean) for the
    policy's fixed covariance and temperature (see the analysis module).  The
    trace records the exact free energy and exact preconditioned gradient
    norm at each iterate, which is what the descent-inequality checks consume.
    """
    for attr in ("tilted_mean", "free_energy"):
        if not hasattr(oracle, attr):
            raise UnsupportedProblemError(
                f"oracle of type {type(oracle).__name__} lacks {attr}(); "
                "exact mode needs a closed-form or quadrature oracle"
            )
    trace = OptimizerTrace()
    for k in range(config.k):
        t0 = time.perf_counter()
        m = oracle.tilted_mean(policy.mean)
        grad = -policy.tau * policy.solve(m - policy.mean)
        norm_p = _grad_norm_p(policy, grad)
        trace.records.append(
            IterationRecord(
                k=k,
                mean=policy.mean.copy(),
                grad_norm_p=norm_p,
                ess=float("nan"),
                acceptance=float("nan"),
                best_cost=float("nan"),
                free_energy=float(oracle.free_energy(policy.mean)),
                ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        policy = policy.with_mean(_apply_update(policy, config.eta, m))
        if config.eps_stat > 0 and norm_p <= config.eps_stat:
            break
    return policy, trace


def step_size_rule(l_sigma: float) -> float:
    """Midpoint of the admissible interval (0, 2/L): eta = 1/L."""
    if l_sigma <= 0:
        raise ValueError(f"smoothness constant must be positive, got {l_sigma}")
    return 1.0 / float(l_sigma)


# ---------------------------------------------------------------------------
# Receding horizon
# ---------------------------------------------------------------------------


@dataclass
class ClosedLoopStep:
    index: int
    state: Array
    control: Array
    stage_cost: float
    acceptance: float
    ess: float
    grad_norm_p: float
    ms: float
    retries: int  # all-infeasible retries over the step's inner iterations
    ess_min: float  # smallest ESS over the step's inner iterations
    plan: Array = None  # the solved open-loop mean this step executed from


@dataclass
class ClosedLoopTrace:
    steps: List[ClosedLoopStep] = field(default_factory=list)
    unsafe: bool = False
    abort_reason: str = ""

    @property
    def average_cost(self) -> float:
        return float(np.mean([s.stage_cost for s in self.steps])) if self.steps else float("nan")

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean([s.acceptance for s in self.steps])) if self.steps else float("nan")

    def column(self, name: str) -> Array:
        return np.array([getattr(s, name) for s in self.steps], dtype=float)


def receding_horizon(
    family: Callable[[Array, Optional[Array]], TrajectoryProblem],
    policy: GaussianPolicy,
    config: PgdConfig,
    sim_steps: int,
    seed: int,
    stage_cost: Callable[[Array, Array], float],
    clip_control: Optional[Callable[[Array], Array]] = None,
) -> ClosedLoopTrace:
    """Closed-loop driver: optimize, apply the first control, shift, repeat.

    `family(state, warm_candidate)` re-roots the open-loop problem at the
    current state (the candidate may seed its known-feasible search).  The
    warm start for step s+1 drops the applied block of step s's solution and
    zero-pads the tail.  Stage cost is charged on (next state, applied
    control).  If the optimizer aborts or no feasible plan exists, the loop
    stops and the partial trace is flagged unsafe.
    """
    d = policy.dim  # flat mean length; control block size recovered per problem
    trace = ClosedLoopTrace()
    warm = policy.mean.copy()
    state = None
    for s in range(sim_steps):
        t0 = time.perf_counter()
        try:
            problem = family(state, warm)
        except InfeasibleProblemError as err:
            trace.unsafe = True
            trace.abort_reason = f"step {s}: {err}"
            break
        if state is None:
            state = np.asarray(problem.initial_state, dtype=float)
        if problem.n_controls != d:
            raise ValueError("policy dimension does not match the problem family")
        m = problem.control_dim
        try:
            solved, inner = run(problem, policy.with_mean(warm), config, seed, iter_offset=s * config.k)
        except AllInfeasibleError as err:
            trace.unsafe = True
            trace.abort_reason = f"step {s}: {err}"
            break
        u0 = solved.mean[:m].copy()
        if clip_control is not None:
            u0 = clip_control(u0)
        state = np.asarray(problem.dynamics(state, u0), dtype=float)
        trace.steps.append(
            ClosedLoopStep(
                index=s,
                state=state.copy(),
                control=u0,
                stage_cost=float(stage_cost(state, u0)),
                acceptance=float(inner.column("acceptance").mean()),
                ess=float(inner.column("ess").mean()),
                grad_norm_p=float(inner.records[-1].grad_norm_p),
                ms=(time.perf_counter() - t0) * 1e3,
                retries=sum(r.retries for r in inner.records),
                ess_min=float(inner.column("ess").min()),
                plan=solved.mean.copy(),
            )
        )
        warm = np.concatenate([solved.mean[m:], np.zeros(m)])
    return trace
