"""Preconditioned gradient iteration on the smoothed objective.

One step draws a batch from the current Gaussian policy, forms self-normalized
weights, and moves the mean along the estimated preconditioned gradient.  The
preconditioner is the natural one, Sigma/tau, the only one under which the
paper recovers MPPI: the step is the relaxed update
mu <- (1-eta) mu + eta * (weighted sample mean), and at eta = 1 it reduces
exactly to the classical weighted-mean update.  An exact mode replaces the
Monte Carlo tilted mean with an oracle so the descent inequality can be
checked without sampling noise.  The sampled `run` steps several
(policy, config) lanes of one seed in lockstep, so the lanes read each
iteration's base normals from one draw.  The closed loop that replans with
`run` at every simulation step lives in the Dubins benchmark runner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import AllInfeasibleError, UnsupportedProblemError
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

INFLATION = 2.0  # covariance factor per all-infeasible retry
MAX_RETRIES = 5  # all-infeasible retries per step; the Philox key keeps 8 bits for the index


@dataclass(frozen=True)
class PgdConfig:
    """Step size and sampling budget for the iteration.

    The preconditioner is always the natural one, P = Sigma/tau, under which
    the update is covariance-free and eta = 1 is the classical MPPI update.
    """

    eta: float = 1.0
    k: int = 1
    n_samples: int = 1000
    antithetic: bool = True

    def __post_init__(self):
        if not 0 < self.eta < np.inf:  # also false for NaN
            raise ValueError(f"step size must be positive, got {self.eta}")
        if self.k < 1:
            raise ValueError("iteration count must be >= 1")
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples per iteration")
        if self.antithetic and self.n_samples % 2:
            raise ValueError(f"antithetic sampling needs an even n_samples, got {self.n_samples}")


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
    nonfinite: int = 0  # samples of the weighed batch whose cost is NaN or infinite


@dataclass
class OptimizerTrace:
    records: List[IterationRecord] = field(default_factory=list)
    abort: Optional[AllInfeasibleError] = None  # why sampling stopped before all k steps

    def column(self, name: str) -> Array:
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    def __len__(self) -> int:
        return len(self.records)


def grad_estimate(policy: GaussianPolicy, batch: SampleBatch, summary: WeightSummary) -> Array:
    """Plug-in gradient -tau * Sigma^{-1} (weighted sample mean - mean), for `bias_probe`."""
    delta = weighted_mean(batch, summary) - policy.mean
    return -policy.tau * policy.solve(delta)


def _grad_norm_p(policy: GaussianPolicy, delta: Array) -> float:
    """|g|_P for g = -tau Sigma^{-1} delta and P = Sigma/tau: sqrt(tau delta' Sigma^{-1} delta)."""
    return float(np.sqrt(max(policy.tau * (delta @ policy.solve(delta)), 0.0)))


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
    normals: Optional[dict],
):
    """Draw/evaluate/weigh with all-infeasible retries under inflated noise."""
    sampler = policy
    for retry in range(MAX_RETRIES + 1):
        batch = draw(
            sampler,
            config.n_samples,
            seed,
            iteration,
            antithetic=config.antithetic,
            retry=retry,
            normals=normals,
        )
        evaluate(batch, problem)
        try:
            return sampler, batch, weigh(batch, sampler.tau), retry
        except AllInfeasibleError:
            if retry == MAX_RETRIES:
                raise
            sampler = sampler.inflate(INFLATION)


def pgd_step(
    problem: TrajectoryProblem,
    policy: GaussianPolicy,
    config: PgdConfig,
    seed: int,
    iteration: int = 0,
    normals: Optional[dict] = None,
) -> tuple[GaussianPolicy, IterationRecord]:
    """One sampled preconditioned step; returns the updated policy and record.

    On an all-infeasible batch the draw is retried (new counter-based stream)
    up to `MAX_RETRIES` times, with covariance inflated by the factor
    `INFLATION` per retry; the inflated covariance applies to that step's
    sampling only — the returned policy keeps the original covariance.
    `normals` is the base-normal cache handed to every `draw` (see there).
    """
    t0 = time.perf_counter()
    sampler, batch, summary, retries = _sample_weighted(
        problem, policy, config, seed, iteration, normals
    )
    wmean = weighted_mean(batch, summary)
    new_mean = _apply_update(policy, config.eta, wmean)
    finite = np.isfinite(batch.costs)  # `weigh` counts the rest as infeasible
    record = IterationRecord(
        k=iteration,
        mean=policy.mean.copy(),
        grad_norm_p=_grad_norm_p(sampler, wmean - policy.mean),
        ess=summary.effective_sample_size,
        acceptance=summary.acceptance_rate,
        best_cost=float(batch.costs[batch.feasible_flags & finite].min()),
        free_energy=float(-sampler.tau * summary.log_mean_weight),
        ms=(time.perf_counter() - t0) * 1e3,
        retries=retries,
        nonfinite=int(np.count_nonzero(~finite)),
    )
    return policy.with_mean(new_mean), record


def run(
    problem: TrajectoryProblem,
    lanes: Sequence[Tuple[GaussianPolicy, PgdConfig]],
    seed: int,
    iter_offset: int = 0,
) -> List[Tuple[GaussianPolicy, OptimizerTrace]]:
    """K sampled steps from each lane's policy; returns each lane's final policy and trace.

    A lane is a (policy, config) pair.  The lanes step in lockstep on one
    seed, so at each iteration they share the base normals z of every retry
    index (common random numbers): the first lane that needs a block draws
    it, and the others build their own samples mean + Sigma^{1/2} z from the
    same block.  Each lane's result is bitwise the one it gets alone, which
    needs equal `n_samples`, `antithetic` and policy dimension in every lane.
    `iter_offset` shifts the RNG iteration counter so nested uses (e.g. the
    Dubins closed loop) never reuse a noise stream.  If sampling aborts
    in a lane, that lane stops with its partial trace and the error as the
    trace's `abort`; the other lanes go on.
    """
    if not lanes:
        raise ValueError("run needs at least one (policy, config) lane")
    shared = {(c.n_samples, c.antithetic, p.dim) for p, c in lanes}
    if len(shared) > 1:
        raise ValueError(
            "lanes share their base normals, so they must agree on n_samples, antithetic "
            f"and policy dimension; got (n_samples, antithetic, dim) in {sorted(shared)}"
        )
    policies = [policy for policy, _ in lanes]
    traces = [OptimizerTrace() for _ in lanes]
    for k in range(max(config.k for _, config in lanes)):
        normals: dict = {}  # this iteration's base-normal blocks, one per retry index
        for i, (_, config) in enumerate(lanes):
            trace = traces[i]
            if k >= config.k or trace.abort is not None:
                continue
            try:
                policies[i], record = pgd_step(
                    problem, policies[i], config, seed, iter_offset + k, normals
                )
            except AllInfeasibleError as err:
                trace.abort = err
                continue
            record.k = k
            trace.records.append(record)
    return list(zip(policies, traces))


def run_exact(oracle, policy: GaussianPolicy, config: PgdConfig) -> tuple[GaussianPolicy, OptimizerTrace]:
    """Deterministic iteration using an exact tilt oracle.

    `oracle.moments(mean)` gives the tilted mean and log Z for the policy's
    fixed covariance and temperature (see the analysis module); it is called
    once per iterate.  The trace records the exact free energy -tau log Z and
    the exact preconditioned gradient norm, which the descent checks consume.
    """
    if not hasattr(oracle, "moments"):
        raise UnsupportedProblemError(
            f"oracle of type {type(oracle).__name__} lacks moments(), which gives the "
            "tilted_mean and log Z; exact mode needs a closed-form or quadrature oracle"
        )
    trace = OptimizerTrace()
    for k in range(config.k):
        t0 = time.perf_counter()
        tilt = oracle.moments(policy.mean)
        trace.records.append(
            IterationRecord(
                k=k,
                mean=policy.mean.copy(),
                grad_norm_p=_grad_norm_p(policy, tilt.mean - policy.mean),
                ess=float("nan"),
                acceptance=float("nan"),
                best_cost=float("nan"),
                free_energy=float(-policy.tau * tilt.log_z),
                ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        policy = policy.with_mean(_apply_update(policy, config.eta, tilt.mean))
    return policy, trace


def step_size_rule(l_sigma: float) -> float:
    """Midpoint of the admissible interval (0, 2/L): eta = 1/L."""
    if l_sigma <= 0:
        raise ValueError(f"smoothness constant must be positive, got {l_sigma}")
    return 1.0 / float(l_sigma)
