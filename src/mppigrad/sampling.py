"""Fixed-covariance Gaussian sampling and self-normalized cost weighting.

This is the estimator layer: draw control-sequence samples from N(mu, Sigma),
score them with exp(-cost/tau) masked by feasibility, and form the normalized
weights, effective sample size, and acceptance rate that drive the optimizer
and the benchmark reports.  All weight arithmetic is done in the log domain
with max-subtraction, which is exact for the normalized quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import AllInfeasibleError, DimensionMismatchError, NotSpdError
from .problems import TrajectoryProblem

Array = np.ndarray
CovLike = Union[float, Array]

_NEG_INF = float("-inf")


def batch_rng(seed: int, iteration: int = 0, retry: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, iteration, retry).

    Each (seed, iteration, retry) triple owns an independent stream, so
    results do not depend on how work is scheduled across iterations or
    workers, and a retry after an all-infeasible batch gets fresh noise.
    """
    if not 0 <= retry < 256:
        raise ValueError("retry index must be in [0, 256)")
    key = (int(seed) << 64) + (int(iteration) << 8) + int(retry)
    return np.random.Generator(np.random.Philox(key=key))


class GaussianPolicy:
    """N(mean, Sigma) over flat control sequences, with temperature tau.

    The covariance may be a positive scalar (sigma^2 I), a positive vector
    (diagonal), or a full SPD matrix; solves and square-root products use the
    cheapest representation available.  The representation is private: other
    modules go through the methods below.
    """

    def __init__(self, mean: Array, cov: CovLike, tau: float):
        self.mean = np.asarray(mean, dtype=float).copy()
        if self.mean.ndim != 1:
            raise ValueError("mean must be a flat vector")
        if tau <= 0:
            raise ValueError(f"temperature must be positive, got {tau}")
        self.tau = float(tau)
        self._init_cov(cov)

    def _init_cov(self, cov: CovLike):
        d = self.mean.shape[0]
        cov_arr = np.asarray(cov, dtype=float)
        if cov_arr.ndim == 0:
            if cov_arr <= 0:
                raise NotSpdError("scalar covariance must be positive")
            self._kind = "scalar"
            self._sigma2 = float(cov_arr)
        elif cov_arr.ndim == 1:
            if cov_arr.shape[0] != d:
                raise DimensionMismatchError(d, cov_arr.shape[0], "diagonal covariance")
            if (cov_arr <= 0).any():
                raise NotSpdError("diagonal covariance must be strictly positive")
            self._kind = "diag"
            self._diag = cov_arr.copy()
        elif cov_arr.ndim == 2:
            if cov_arr.shape != (d, d):
                raise DimensionMismatchError(d * d, cov_arr.size, "covariance matrix")
            if not np.allclose(cov_arr, cov_arr.T, atol=1e-10):
                raise NotSpdError("covariance must be symmetric")
            try:
                self._chol = np.linalg.cholesky(cov_arr)
            except np.linalg.LinAlgError as exc:
                raise NotSpdError(f"covariance is not positive definite: {exc}") from exc
            self._kind = "full"
            self._full = cov_arr.copy()
        else:
            raise ValueError("covariance must be scalar, vector, or matrix")

    # -- representation-aware linear algebra --------------------------------

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def cov_matrix(self) -> Array:
        if self._kind == "scalar":
            return self._sigma2 * np.eye(self.dim)
        if self._kind == "diag":
            return np.diag(self._diag)
        return self._full.copy()

    def cov_eig_range(self) -> tuple[float, float]:
        """(smallest, largest) eigenvalue of Sigma."""
        if self._kind == "scalar":
            return self._sigma2, self._sigma2
        if self._kind == "diag":
            return float(self._diag.min()), float(self._diag.max())
        w = np.linalg.eigvalsh(self._full)
        return float(w[0]), float(w[-1])

    def sqrt_mul(self, z: Array) -> Array:
        """Rows of z mapped through a square root of Sigma (z @ L^T)."""
        if self._kind == "scalar":
            return np.sqrt(self._sigma2) * z
        if self._kind == "diag":
            return z * np.sqrt(self._diag)
        return z @ self._chol.T

    def cov_mul(self, v: Array) -> Array:
        """Sigma v (single vector or rows of an (n, dim) array)."""
        if self._kind == "scalar":
            return self._sigma2 * v
        if self._kind == "diag":
            return self._diag * v
        return v @ self._full.T if v.ndim == 2 else self._full @ v

    def solve(self, v: Array) -> Array:
        """Sigma^{-1} v without forming the inverse.

        Accepts a single vector or an (n, dim) stack of row vectors (the
        scalar/diagonal representations broadcast; the full one transposes).
        """
        if self._kind == "scalar":
            return v / self._sigma2
        if self._kind == "diag":
            return v / self._diag
        if v.ndim == 1:
            return np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, v))
        return np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, v.T)).T

    def logdet(self) -> float:
        """log det Sigma."""
        if self._kind == "scalar":
            return self.dim * np.log(self._sigma2)
        if self._kind == "diag":
            return float(np.log(self._diag).sum())
        return 2.0 * float(np.log(np.diag(self._chol)).sum())

    def log_density(self, u: Array) -> Union[float, Array]:
        """log N(u; mean, Sigma) of one point, or of each row of an (n, dim) array."""
        u = np.asarray(u, dtype=float)
        diff = np.atleast_2d(u) - self.mean
        quad = np.einsum("ij,ij->i", diff, self.solve(diff))
        log_pi = -0.5 * (quad + self.logdet() + self.dim * np.log(2.0 * np.pi))
        return float(log_pi[0]) if u.ndim == 1 else log_pi

    # -- derived policies ----------------------------------------------------

    def _cov_param(self) -> CovLike:
        return {"scalar": lambda: self._sigma2, "diag": lambda: self._diag, "full": lambda: self._full}[
            self._kind
        ]()

    def with_mean(self, mean: Array) -> "GaussianPolicy":
        return GaussianPolicy(mean, self._cov_param(), self.tau)

    def inflate(self, factor: float) -> "GaussianPolicy":
        """Same mean and temperature with covariance scaled by `factor`."""
        cov = self._cov_param()
        return GaussianPolicy(self.mean, cov * factor, self.tau)


@dataclass
class SampleBatch:
    """One iteration's worth of samples plus (once evaluated) their scores."""

    samples: Array
    seed: int
    iteration: int
    retry: int = 0
    antithetic: bool = False
    costs: Optional[Array] = None
    feasible_flags: Optional[Array] = None

    @property
    def n(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class WeightSummary:
    normalized_weights: Array
    effective_sample_size: float
    acceptance_rate: float
    log_mean_weight: float


def draw(
    policy: GaussianPolicy,
    n: int,
    seed: int,
    iteration: int = 0,
    antithetic: bool = False,
    retry: int = 0,
) -> SampleBatch:
    """Draw n samples from the policy (samples only; evaluate separately).

    With antithetic=True (n even) the batch is built from n/2 base normals z
    as mean +/- Sigma^{1/2} z, so rows j and j + n/2 mirror through the mean.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    if antithetic and n % 2:
        raise ValueError("antithetic batches need an even sample count")
    rng = batch_rng(seed, iteration, retry)
    if antithetic:
        z = rng.standard_normal((n // 2, policy.dim))
        z = np.concatenate([z, -z], axis=0)
    else:
        z = rng.standard_normal((n, policy.dim))
    samples = policy.mean + policy.sqrt_mul(z)
    return SampleBatch(
        samples=samples, seed=seed, iteration=iteration, retry=retry, antithetic=antithetic
    )


def evaluate(batch: SampleBatch, problem: TrajectoryProblem) -> SampleBatch:
    """Fill in costs and feasibility flags for every sample, in place.

    One call of the problem's batch evaluator scores the whole batch, so the
    samples are rolled out once.
    """
    batch.costs, batch.feasible_flags = problem.evaluate_batch(batch.samples)
    return batch


def weigh(batch: SampleBatch, tau: float) -> WeightSummary:
    """Self-normalized weights w_j ∝ exp(-cost_j/tau) over feasible samples.

    A sample whose cost is not finite counts as infeasible: one NaN or -inf
    cost would otherwise make every weight NaN.  Raises AllInfeasibleError
    when no sample is feasible, leaving the retry decision to the caller.
    """
    if batch.costs is None or batch.feasible_flags is None:
        raise ValueError("batch must be evaluated before weighing")
    costs = np.asarray(batch.costs, dtype=float)
    flags = np.asarray(batch.feasible_flags, dtype=bool) & np.isfinite(costs)
    n = batch.n
    if not flags.any():
        raise AllInfeasibleError(n, batch.iteration)
    log_w = np.where(flags, -costs / tau, _NEG_INF)
    shift = log_w[flags].max()
    raw = np.exp(log_w - shift)  # exp(-inf - shift) is exactly 0
    total = raw.sum()
    normalized = raw / total
    ess = 1.0 / float((normalized**2).sum())
    return WeightSummary(
        normalized_weights=normalized,
        effective_sample_size=ess,
        acceptance_rate=float(flags.mean()),
        log_mean_weight=float(shift + np.log(total) - np.log(n)),
    )


def weighted_mean(batch: SampleBatch, summary: WeightSummary) -> Array:
    """Convex combination sum_j w_j u^{(j)} of the feasible samples."""
    return summary.normalized_weights @ batch.samples
