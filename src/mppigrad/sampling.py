"""Fixed-covariance Gaussian sampling and self-normalized cost weighting.

This is the estimator layer: draw control-sequence samples from N(mu, Sigma),
score them with exp(-cost/tau) masked by feasibility, and form the normalized
weights, effective sample size, and acceptance rate that drive the optimizer
and the benchmark reports.  All weight arithmetic is done in the log domain
with max-subtraction, which is exact for the normalized quantities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import AllInfeasibleError, DimensionMismatchError, NotSpdError
from .problems import TrajectoryProblem

Array = np.ndarray
CovLike = Union[float, Array]

_NEG_INF = float("-inf")
_WORD = (1 << 64) - 1


def batch_rng(seed: int, iteration: int = 0, retry: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, iteration, retry).

    Each (seed, iteration, retry) triple owns an independent stream, so
    results do not depend on how work is scheduled across iterations or
    workers, and a retry after an all-infeasible batch gets fresh noise.
    The 128-bit key is Philox's whole state, so it is handed over as two
    64-bit words: the stream equals `Generator(Philox(key=key))`, without
    the OS entropy read that `Philox` spends on a seed sequence it discards.
    """
    if not 0 <= retry < 256:
        raise ValueError("retry index must be in [0, 256)")
    key = (int(seed) << 64) + (int(iteration) << 8) + int(retry)
    if not 0 <= key < 1 << 128:
        raise ValueError(f"seed {seed} and iteration {iteration} give no Philox key in [0, 2**128)")
    words = np.array([key & _WORD, key >> 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key_type()(words)))


@functools.cache
def _philox_key_type() -> type:
    """The seed type that carries a Philox key as it is.

    Built at the first draw, not at import: importing `numpy.random` at
    module import would add its load time to every config load.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """A seed sequence whose state is the key: Philox asks it for two
        64-bit words and keeps them as its key."""

        def __init__(self, words: Array):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> Array:
            return self.words

    return PhiloxKey


class GaussianPolicy:
    """N(mean, Sigma) over flat control sequences, with temperature tau.

    A positive scalar (sigma^2 I) or vector (diagonal) covariance is kept as
    the vector of variances, so square-root products and solves are
    elementwise; a full SPD matrix is kept with its Cholesky factor.  The
    noise scale sqrt(Sigma) of a diagonal is taken once, here: a Python
    float when every variance is equal (numpy multiplies by a scalar about
    three times as fast as it broadcasts a vector, with the same bits), the
    vector of standard deviations otherwise.  The representation is private:
    other modules go through the methods below.
    """

    def __init__(self, mean: Array, cov: CovLike, tau: float):
        self.mean = np.asarray(mean, dtype=float).copy()
        if self.mean.ndim != 1:
            raise ValueError("mean must be a flat vector")
        if not 0 < tau < np.inf:  # also false for NaN
            raise ValueError(f"temperature must be positive, got {tau}")
        self.tau = float(tau)
        d = self.mean.shape[0]
        cov_arr = np.asarray(cov, dtype=float)
        if not np.isfinite(cov_arr).all():
            raise NotSpdError("covariance must be finite")
        self._chol = None  # set only for a full matrix
        if cov_arr.ndim < 2:
            if cov_arr.ndim == 1 and cov_arr.shape[0] != d:
                raise DimensionMismatchError(d, cov_arr.shape[0], "diagonal covariance")
            if (cov_arr <= 0).any():
                raise NotSpdError("variances must be strictly positive")
            self._cov = np.full(d, cov_arr)  # sigma^2 I or the diagonal, as variances
            scale = np.sqrt(self._cov)
            self._scale = float(scale[0]) if scale.size and (scale == scale[0]).all() else scale
        elif cov_arr.ndim == 2:
            if cov_arr.shape != (d, d):
                raise DimensionMismatchError(d * d, cov_arr.size, "covariance matrix")
            if not np.allclose(cov_arr, cov_arr.T, atol=1e-10):
                raise NotSpdError("covariance must be symmetric")
            try:
                self._chol = np.linalg.cholesky(cov_arr)
            except np.linalg.LinAlgError as exc:
                raise NotSpdError(f"covariance is not positive definite: {exc}") from exc
            self._cov = cov_arr.copy()
        else:
            raise ValueError("covariance must be scalar, vector, or matrix")

    # -- representation-aware linear algebra --------------------------------

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def cov_matrix(self) -> Array:
        return np.diag(self._cov) if self._chol is None else self._cov.copy()

    def sqrt_mul(self, z: Array) -> Array:
        """Rows of z mapped through a square root of Sigma (z @ L^T)."""
        if self._chol is None:
            return z * self._scale
        return z @ self._chol.T

    def solve(self, v: Array) -> Array:
        """Sigma^{-1} v without forming the inverse.

        Accepts a single vector or an (n, dim) stack of row vectors (the
        variance vector broadcasts; the Cholesky solves transpose).
        """
        if self._chol is None:
            return v / self._cov
        return np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, v.T)).T

    def logdet(self) -> float:
        """log det Sigma."""
        if self._chol is None:
            return float(np.log(self._cov).sum())
        return 2.0 * float(np.log(np.diag(self._chol)).sum())

    def log_density(self, u: Array) -> Union[float, Array]:
        """log N(u; mean, Sigma) of one point, or of each row of an (n, dim) array."""
        u = np.asarray(u, dtype=float)
        diff = np.atleast_2d(u) - self.mean
        quad = np.einsum("ij,ij->i", diff, self.solve(diff))
        log_pi = -0.5 * (quad + self.logdet() + self.dim * np.log(2.0 * np.pi))
        return float(log_pi[0]) if u.ndim == 1 else log_pi

    # -- derived policies ----------------------------------------------------

    def with_mean(self, mean: Array) -> "GaussianPolicy":
        """The same policy moved to a mean of the same length; shares the validated covariance."""
        mean = np.asarray(mean, dtype=float)
        if mean.shape != self.mean.shape:
            raise DimensionMismatchError(self.dim, mean.size, "mean")
        moved = object.__new__(type(self))
        moved.__dict__.update(self.__dict__)
        moved.mean = mean.copy()
        return moved

    def inflate(self, factor: float) -> "GaussianPolicy":
        """Same mean and temperature with covariance scaled by `factor`; NotSpdError on overflow."""
        with np.errstate(over="ignore"):  # the constructor rejects a non-finite covariance
            return GaussianPolicy(self.mean, self._cov * factor, self.tau)


@dataclass
class SampleBatch:
    """One iteration's worth of samples plus (once evaluated) their scores."""

    samples: Array
    iteration: int
    retry: int = 0
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
    best_cost: float = float("nan")  # least cost over the usable samples
    nonfinite: int = 0  # samples whose cost is NaN or infinite


def draw(
    policy: GaussianPolicy,
    n: int,
    seed: int,
    iteration: int = 0,
    antithetic: bool = False,
    retry: int = 0,
    normals: Optional[dict] = None,
) -> SampleBatch:
    """Draw n samples from the policy (samples only; evaluate separately).

    The samples are mean + Sigma^{1/2} z for base normals z from the
    (seed, iteration, retry) stream.  With antithetic=True (n even) z is n/2
    normals followed by their negatives, so rows j and j + n/2 mirror
    through the mean.  `normals`, if given, is a cache of z blocks shared by
    several draws: a block is generated once per (seed, iteration, retry, n,
    dim, antithetic), stored read-only, and read by every later draw with
    that key, so policies that differ only in mean or covariance sample with
    common random numbers.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    if antithetic and n % 2:
        raise ValueError("antithetic batches need an even sample count")
    key = (seed, iteration, retry, n, policy.dim, antithetic)
    z = None if normals is None else normals.get(key)
    if z is None:
        rng = batch_rng(seed, iteration, retry)
        z = np.empty((n, policy.dim))
        if antithetic:
            rng.standard_normal(out=z[: n // 2])
            np.negative(z[: n // 2], out=z[n // 2 :])
        else:
            rng.standard_normal(out=z)
        z.flags.writeable = False
        if normals is not None:
            normals[key] = z
    samples = policy.sqrt_mul(z)
    samples += policy.mean
    return SampleBatch(samples=samples, iteration=iteration, retry=retry)


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
    cost would otherwise make every weight NaN.  The usable mask (feasible
    and finite) is built once; when every sample is usable no -inf is
    masked in, no non-finite cost is counted, and the shifted log-weights
    are exponentiated in place.  The shift, the largest usable -cost/tau,
    is read off the least usable cost as -(best/tau): x -> fl(x/tau) is
    monotone for tau > 0 and negation is exact, so this is max(-cost/tau)
    bit for bit, without a pass over the batch.  When it overflows, the
    weights are exp(-(cost - least cost)/tau), the tau -> 0 limit, reached
    without a numpy overflow warning, and `log_mean_weight` keeps its true
    value, +-inf.  The summary also carries the least usable cost and the
    count of non-finite costs.  Raises AllInfeasibleError when no sample is
    feasible, leaving the retry decision to the caller.
    """
    if batch.costs is None or batch.feasible_flags is None:
        raise ValueError("batch must be evaluated before weighing")
    costs = np.asarray(batch.costs, dtype=float)
    finite = np.isfinite(costs)
    usable = np.asarray(batch.feasible_flags, dtype=bool) & finite
    n = batch.n
    n_usable = np.count_nonzero(usable)
    if not n_usable:
        raise AllInfeasibleError(n, batch.iteration)
    every = n_usable == n
    best = float(np.minimum.reduce(costs if every else costs[usable]))
    shift = -(best / tau)  # a float division past the range is +-inf, with no warning
    if tau < 1.0:  # only a divisor below 1 takes a finite -cost past the float range
        with np.errstate(over="ignore"):  # to -+inf, the tau -> 0 limit below
            log_w = np.divide(costs, -tau)  # fl(c/-tau) = fl(-c/tau): negation is exact
    else:
        log_w = np.divide(costs, -tau)
    if not every:
        log_w[~usable] = _NEG_INF
    if math.isfinite(shift):
        if best < 0.0:  # shift > 0: a usable -cost/tau far below it leaves the range, to -inf
            with np.errstate(over="ignore"):
                log_w -= shift
        else:
            log_w -= shift
        raw = np.exp(log_w, out=log_w)  # exp(-inf - shift) is exactly 0
    else:  # inf - inf would make every weight NaN
        with np.errstate(over="ignore"):  # a -(cost - least cost)/tau past the range is -inf
            raw = np.exp(np.where(usable, best - costs, _NEG_INF) / tau)
    total = np.add.reduce(raw)
    normalized = raw / total
    ess = 1.0 / float(np.add.reduce(np.square(normalized, out=raw)))
    return WeightSummary(
        normalized_weights=normalized,
        effective_sample_size=ess,
        acceptance_rate=float(n_usable / n),
        # log of a float, not an int: the same float64 loop, without numpy's integer conversion
        log_mean_weight=float(shift + np.log(total) - np.log(float(n))),
        best_cost=best,
        nonfinite=0 if every else n - int(np.count_nonzero(finite)),
    )


def weighted_mean(batch: SampleBatch, summary: WeightSummary) -> Array:
    """Convex combination sum_j w_j u^{(j)} of the feasible samples."""
    return summary.normalized_weights @ batch.samples
