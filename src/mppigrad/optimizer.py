"""Preconditioned gradient iteration on the smoothed objective.

One step draws a batch from the current Gaussian policy, forms self-normalized
weights, and moves the mean along the estimated preconditioned gradient.  The
preconditioner is the natural one, Sigma/tau, the only one under which the
paper recovers MPPI: the step is the relaxed update
mu <- (1-eta) mu + eta * (weighted sample mean), and at eta = 1 it reduces
exactly to the classical weighted-mean update.  An exact mode replaces the
Monte Carlo tilted mean with an oracle so the descent inequality can be
checked without sampling noise.  The sampled `run` steps several
(policy, config) lanes of one seed in lockstep, so lanes that sample alike
read each iteration's base normals from one draw.  The closed loop that
replans with `run` at every simulation step lives in the Dubins benchmark
runner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import AllInfeasibleError, NotSpdError, StepSizeError
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
    `INFLATION` per retry, and fewer if the next inflation would overflow;
    the inflated covariance applies to that step's sampling only — the
    returned policy keeps the original covariance.
    `normals` is the base-normal cache handed to every `draw` (see there).
    """
    t0 = time.perf_counter()
    sampler = policy
    for retries in range(MAX_RETRIES + 1):
        batch = draw(
            sampler,
            config.n_samples,
            seed,
            iteration,
            antithetic=config.antithetic,
            retry=retries,
            normals=normals,
        )
        evaluate(batch, problem)
        try:
            summary = weigh(batch, sampler.tau)
            break
        except AllInfeasibleError as err:
            if retries == MAX_RETRIES:
                raise
            try:
                sampler = sampler.inflate(INFLATION)
            except NotSpdError:  # the inflated covariance is not finite: give up on the batch
                raise err from None
    wmean = weighted_mean(batch, summary)
    new_mean = _apply_update(policy, config.eta, wmean)
    record = IterationRecord(
        k=iteration,
        mean=policy.mean.copy(),
        grad_norm_p=_grad_norm_p(sampler, wmean - policy.mean),
        ess=summary.effective_sample_size,
        acceptance=summary.acceptance_rate,
        best_cost=summary.best_cost,
        free_energy=float(-sampler.tau * summary.log_mean_weight),
        ms=(time.perf_counter() - t0) * 1e3,
        retries=retries,
        nonfinite=summary.nonfinite,
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
    same block.  `draw` keys a block by sample count, dimension and
    antithetic flag too, so lanes may differ in any setting, and each lane's
    result is bitwise the one it gets alone.  `iter_offset` shifts the RNG
    iteration counter so nested uses (e.g. the Dubins closed loop) never
    reuse a noise stream.  If sampling aborts in a lane, that lane stops with
    its partial trace and the error as the trace's `abort`; the other lanes
    go on.
    """
    if not lanes:
        raise ValueError("run needs at least one (policy, config) lane")
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


def run_exact(oracle, config: PgdConfig) -> tuple[GaussianPolicy, OptimizerTrace]:
    """Deterministic iteration from `oracle.policy` using an exact `TiltOracle`.

    The oracle's policy is the start and fixes the covariance and temperature
    of every iterate, so the metric P = Sigma/tau of the records is the one
    the tilt was formed under.  `oracle.moments(mean)` is called once per
    iterate; the trace records the exact free energy -tau log Z and the exact
    preconditioned gradient norm, which the descent checks consume.  Only
    `config.eta` and `config.k` are read.
    """
    policy = oracle.policy
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
    """Midpoint of the admissible interval (0, 2/L): eta = 1/L; finite, or StepSizeError."""
    eta = 1.0 / float(l_sigma) if l_sigma > 0 else float("nan")
    if not np.isfinite(eta):  # L_sigma not positive, NaN, or too small to invert
        raise StepSizeError(f"eta = 1/L_sigma is not a finite positive step for L_sigma = {l_sigma}")
    return eta
