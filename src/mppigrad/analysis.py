"""Exact oracles and theory checks for the smoothed objective.

Everything here is deterministic: closed-form Gibbs-tilt statistics for
quadratic costs, Simpson quadrature for arbitrary 1-D/2-D costs on boxes,
the objective's Hessian and its preconditioned form, smoothness constants
(closed form, diameter bound, numeric), the projected finite-difference
baseline, the estimator bias probe, and the variational identity check.
These are the second routes that the sampled optimizer is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (
    AllInfeasibleError,
    DimensionMismatchError,
    NotSpdError,
    QuadratureError,
    UnsupportedProblemError,
)
from .optimizer import grad_estimate
from .problems import TrajectoryProblem
from .sampling import GaussianPolicy, SampleBatch, batch_rng, weigh

Array = np.ndarray


# ---------------------------------------------------------------------------
# Closed forms for quadratic costs (unconstrained tilt)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TiltedGaussian:
    """Gaussian statistics of the tilt pi(u) exp(-f0(u)/tau) for quadratic f0."""

    precision: Array
    mean: Array
    cov: Array


def _as_quadratic(q, c, d: int) -> tuple[Array, Array]:
    q = np.atleast_2d(np.asarray(q, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if q.shape != (d, d) or c.shape != (d,):
        raise DimensionMismatchError(d, q.shape[0], "quadratic cost")
    if not np.allclose(q, q.T, atol=1e-10):
        raise ValueError("quadratic cost matrix must be symmetric")
    return q, c


def tilted_moments_quadratic(policy: GaussianPolicy, q, c) -> TiltedGaussian:
    """Exact tilt of N(mean, Sigma) by exp(-(u'Qu/2 + c'u)/tau).

    Posterior precision Sigma^{-1} + Q/tau, posterior mean solving it against
    Sigma^{-1} mean - c/tau.  The covariance does not depend on the mean.
    """
    d = policy.dim
    q, c = _as_quadratic(q, c, d)
    sigma = policy.cov_matrix()
    sigma_inv = np.linalg.inv(sigma)
    lam = sigma_inv + q / policy.tau
    lam = 0.5 * (lam + lam.T)
    if np.linalg.eigvalsh(lam).min() <= 0:
        raise NotSpdError("tilted precision is not positive definite")
    cov = np.linalg.inv(lam)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (sigma_inv @ policy.mean - c / policy.tau)
    return TiltedGaussian(precision=lam, mean=mean, cov=cov)


def free_energy_quadratic(policy: GaussianPolicy, q, c) -> float:
    """Closed-form -tau log Z for a quadratic cost without constraints.

    log Z = 1/2 h' Lam^{-1} h - 1/2 mu' Sigma^{-1} mu - 1/2 logdet(Sigma Lam)
    with Lam = Sigma^{-1} + Q/tau and h = Sigma^{-1} mu - c/tau.
    """
    d = policy.dim
    q, c = _as_quadratic(q, c, d)
    tau = policy.tau
    sigma = policy.cov_matrix()
    sigma_inv = np.linalg.inv(sigma)
    lam = sigma_inv + q / tau
    h = sigma_inv @ policy.mean - c / tau
    sign, logdet = np.linalg.slogdet(sigma @ lam)
    if sign <= 0:
        raise NotSpdError("Sigma * Lambda has nonpositive determinant")
    log_z = 0.5 * float(h @ np.linalg.solve(lam, h)) - 0.5 * float(
        policy.mean @ (sigma_inv @ policy.mean)
    ) - 0.5 * float(logdet)
    return -tau * log_z


def grad_f_quadratic(policy: GaussianPolicy, q, c) -> Array:
    """Exact gradient -tau Sigma^{-1}(tilted mean - mean) for quadratic f0."""
    tilt = tilted_moments_quadratic(policy, q, c)
    return -policy.tau * policy.solve(tilt.mean - policy.mean)


class QuadraticOracle:
    """Exact tilted-mean / free-energy oracle for run_exact on quadratics.

    Covariance and temperature come from the template policy; the mean
    argument of each method is the iterate.
    """

    def __init__(self, policy: GaussianPolicy, q, c):
        self._template = policy
        self.q, self.c = _as_quadratic(q, c, policy.dim)
        tilt = tilted_moments_quadratic(policy, self.q, self.c)
        self.tilted_cov = tilt.cov  # mean-independent

    def _at(self, mean: Array) -> GaussianPolicy:
        return self._template.with_mean(mean)

    def tilted_mean(self, mean: Array) -> Array:
        return tilted_moments_quadratic(self._at(mean), self.q, self.c).mean

    def free_energy(self, mean: Array) -> float:
        return free_energy_quadratic(self._at(mean), self.q, self.c)

    def grad(self, mean: Array) -> Array:
        return grad_f_quadratic(self._at(mean), self.q, self.c)

    def hessian(self, mean: Array) -> Array:
        return hessian_f_gaussian(self._at(mean), self.tilted_cov)

    def l_sigma(self) -> float:
        return l_sigma_quadratic(self._template.cov_matrix(), self.q, self._template.tau).l_sigma


# ---------------------------------------------------------------------------
# Quadrature oracle (1-D / 2-D boxes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Dyadic Simpson refinement control: start/stop cell counts, tolerance."""

    rel_tol: float = 1e-8
    start_cells: int = 64
    max_cells_1d: int = 2**20
    max_cells_2d: int = 2**12


@dataclass(frozen=True)
class QuadratureMoments:
    mean: Array
    cov: Array
    log_z: float
    cells_per_axis: int


def _simpson_weights(lo: float, hi: float, cells: int) -> tuple[Array, Array]:
    nodes = np.linspace(lo, hi, cells + 1)
    w = np.ones(cells + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (hi - lo) / cells / 3.0
    return nodes, w


def _tilted_grid_pass(f0, box_lo, box_hi, policy: GaussianPolicy, cells: int) -> QuadratureMoments:
    d = policy.dim
    if d == 1:
        nodes, w = _simpson_weights(box_lo[0], box_hi[0], cells)
        pts = nodes[:, None]
        weights = w
    else:
        n0, w0 = _simpson_weights(box_lo[0], box_hi[0], cells)
        n1, w1 = _simpson_weights(box_lo[1], box_hi[1], cells)
        g0, g1 = np.meshgrid(n0, n1, indexing="ij")
        pts = np.stack([g0.ravel(), g1.ravel()], axis=1)
        weights = np.outer(w0, w1).ravel()

    log_g = policy.log_density(pts) - np.asarray(f0(pts), dtype=float) / policy.tau

    shift = float(log_g.max())
    density = weights * np.exp(log_g - shift)
    z0 = float(density.sum())
    if z0 <= 0:
        raise QuadratureError("integrand vanished on the whole grid", last_estimate=float("nan"))
    mean = (density @ pts) / z0
    centered = pts - mean
    cov = (density[:, None] * centered).T @ centered / z0
    return QuadratureMoments(
        mean=mean, cov=0.5 * (cov + cov.T), log_z=shift + np.log(z0), cells_per_axis=cells
    )


def tilted_moments_quadrature(
    f0: Callable[[Array], Array],
    box_lo,
    box_hi,
    policy: GaussianPolicy,
    grid: GridSpec = GridSpec(),
) -> QuadratureMoments:
    """Simpson moments of the constrained tilt on a 1-D/2-D box.

    `f0` must accept an (n, d) array of points and return n costs.  The cell
    count doubles until log Z, the mean, and the covariance all move by less
    than the relative tolerance; exceeding the cap raises QuadratureError
    carrying the last estimate.
    """
    d = policy.dim
    if d not in (1, 2):
        raise UnsupportedProblemError(f"quadrature oracle supports 1 or 2 dims, got {d}")
    box_lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    box_hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    if box_lo.shape != (d,) or box_hi.shape != (d,):
        raise DimensionMismatchError(d, box_lo.size, "quadrature box")
    if not (np.all(np.isfinite(box_lo)) and np.all(np.isfinite(box_hi))):
        raise ValueError("quadrature box must be bounded")
    cap = grid.max_cells_1d if d == 1 else grid.max_cells_2d

    cells = grid.start_cells
    prev = _tilted_grid_pass(f0, box_lo, box_hi, policy, cells)
    while cells < cap:
        cells *= 2
        cur = _tilted_grid_pass(f0, box_lo, box_hi, policy, cells)
        dz = abs(cur.log_z - prev.log_z) / (1.0 + abs(cur.log_z))
        dm = float(np.max(np.abs(cur.mean - prev.mean))) / (1.0 + float(np.max(np.abs(cur.mean))))
        dc = float(np.max(np.abs(cur.cov - prev.cov))) / (1.0 + float(np.max(np.abs(cur.cov))))
        if max(dz, dm, dc) < grid.rel_tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"no convergence at {cells} cells per axis", last_estimate=prev.log_z
    )


def free_energy_quadrature(
    f0: Callable[[Array], Array],
    box_lo,
    box_hi,
    policy: GaussianPolicy,
    grid: GridSpec = GridSpec(),
) -> float:
    """-tau log integral_C pi(u) exp(-f0(u)/tau) du by refined Simpson."""
    return -policy.tau * tilted_moments_quadrature(f0, box_lo, box_hi, policy, grid).log_z


class QuadratureOracle:
    """Exact-mode oracle backed by quadrature; works for any smooth 1-D/2-D f0."""

    def __init__(self, f0, box_lo, box_hi, policy: GaussianPolicy, grid: GridSpec = GridSpec()):
        self.f0 = f0
        self.box_lo = box_lo
        self.box_hi = box_hi
        self.grid = grid
        self._template = policy

    def _moments(self, mean: Array) -> QuadratureMoments:
        return tilted_moments_quadrature(
            self.f0, self.box_lo, self.box_hi, self._template.with_mean(mean), self.grid
        )

    def tilted_mean(self, mean: Array) -> Array:
        return self._moments(mean).mean

    def free_energy(self, mean: Array) -> float:
        return -self._template.tau * self._moments(mean).log_z


# ---------------------------------------------------------------------------
# Hessians and smoothness constants
# ---------------------------------------------------------------------------


def hessian_f_gaussian(policy: GaussianPolicy, cov_tilt: Array) -> Array:
    """Hessian in the mean: tau * Sigma^{-1} (Sigma - Cov_tilt) Sigma^{-1}."""
    cov_tilt = np.atleast_2d(np.asarray(cov_tilt, dtype=float))
    d = policy.dim
    if cov_tilt.shape != (d, d):
        raise DimensionMismatchError(d * d, cov_tilt.size, "tilted covariance")
    sigma_inv = np.linalg.inv(policy.cov_matrix())
    h = policy.tau * (sigma_inv - sigma_inv @ cov_tilt @ sigma_inv)
    return 0.5 * (h + h.T)


def preconditioned_hessian(policy: GaussianPolicy, cov_tilt: Array) -> Array:
    """I - Sigma^{-1/2} Cov_tilt Sigma^{-1/2}: temperature-free curvature."""
    cov_tilt = np.atleast_2d(np.asarray(cov_tilt, dtype=float))
    d = policy.dim
    if cov_tilt.shape != (d, d):
        raise DimensionMismatchError(d * d, cov_tilt.size, "tilted covariance")
    w, v = np.linalg.eigh(policy.cov_matrix())
    if w.min() <= 0:
        raise NotSpdError("policy covariance is not positive definite")
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    m = np.eye(d) - inv_sqrt @ cov_tilt @ inv_sqrt
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class SmoothnessEstimate:
    l_sigma: float
    method: str


@dataclass(frozen=True)
class DiameterBound(SmoothnessEstimate):
    d2_metric: float = 0.0
    unit_step_admissible: bool = False
    cov_rule_satisfied: bool = False
    route: str = ""


def l_sigma_quadratic(cov, q, tau: float) -> SmoothnessEstimate:
    """Exact smoothness constant for a quadratic cost (unconstrained tilt).

    The spectral norm of I - Sigma^{-1/2} (Sigma^{-1} + Q/tau)^{-1}
    Sigma^{-1/2}, computed by symmetric eigendecomposition.
    """
    policy = GaussianPolicy(np.zeros(np.atleast_2d(np.asarray(q)).shape[0]), cov, tau)
    tilt = tilted_moments_quadratic(policy, q, np.zeros(policy.dim))
    m = preconditioned_hessian(policy, tilt.cov)
    l = float(np.max(np.abs(np.linalg.eigvalsh(m))))
    return SmoothnessEstimate(l_sigma=l, method="closed_form_quadratic")


def l_sigma_scalar(sigma2: float, q, tau: float) -> float:
    """Simplified constant for Sigma = sigma^2 I: 1 - tau/(tau + sigma^2 lmax(Q))."""
    lam_max = float(np.max(np.linalg.eigvalsh(np.atleast_2d(np.asarray(q, dtype=float)))))
    return 1.0 - tau / (tau + sigma2 * lam_max)


def l_sigma_numeric(
    f0,
    box_lo,
    box_hi,
    policy: GaussianPolicy,
    mean_grid: Sequence[Array],
    grid: GridSpec = GridSpec(),
) -> SmoothnessEstimate:
    """sup over a mean grid of the truncated-tilt preconditioned curvature norm.

    This is the constraint-aware route: the tilt covariance comes from box
    quadrature, so truncation by the feasible set is included (unlike the
    quadratic closed form, which ignores it).  The supremum is over the
    supplied grid of means only — choose it to bracket the curvature peak.
    """
    worst = 0.0
    for mean in mean_grid:
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        mom = tilted_moments_quadrature(f0, box_lo, box_hi, policy.with_mean(mean), grid)
        m = preconditioned_hessian(policy.with_mean(mean), mom.cov)
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(m)))))
    return SmoothnessEstimate(l_sigma=worst, method="numeric_hessian")


def l_sigma_diameter_bound(cov, box_lo, box_hi) -> DiameterBound:
    """Theorem-style certificate max{1, D^2/4 - 1} from the box diameter.

    D is the feasible-set diameter in the Sigma^{-1} metric: exact over
    corner differences when Sigma is scalar/diagonal, otherwise bounded by
    the Euclidean diameter over sqrt(lmin(Sigma)).  Also reports whether the
    unit step is certified (D^2 < 12) and whether the sufficient covariance
    rule lmin(Sigma) >= D_euclidean^2 / 12 holds.
    """
    box_lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    box_hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    if not (np.all(np.isfinite(box_lo)) and np.all(np.isfinite(box_hi))):
        raise ValueError("diameter bound needs a bounded box")
    if np.any(box_hi < box_lo):
        raise ValueError("box upper bounds must dominate lower bounds")
    edges = box_hi - box_lo
    d = box_lo.shape[0]
    lam_min, _ = GaussianPolicy(np.zeros(d), cov, 1.0).cov_eig_range()  # validates cov
    d2_euclid = float(edges @ edges)
    if np.ndim(cov) < 2:  # scalar or diagonal Sigma
        d2_metric = float((edges**2 / np.asarray(cov, dtype=float)).sum())
        route = "diagonal_exact"
    else:
        d2_metric = d2_euclid / lam_min
        route = "lambda_min"
    bound = max(1.0, d2_metric / 4.0 - 1.0)
    return DiameterBound(
        l_sigma=bound,
        method="diameter_bound",
        d2_metric=d2_metric,
        unit_step_admissible=d2_metric < 12.0,
        cov_rule_satisfied=lam_min >= d2_euclid / 12.0,
        route=route,
    )


def max_two_point_variance(diameter: float, n_pos: int = 41, n_prob: int = 41) -> float:
    """Brute-force max variance of two-point distributions on [0, D].

    The grid includes the endpoints and p = 1/2, so the maximizer (mass split
    evenly between 0 and D, variance D^2/4) is attained exactly.
    """
    pos = np.linspace(0.0, diameter, n_pos)
    probs = np.linspace(0.0, 1.0, n_prob)
    a = pos[:, None, None]
    b = pos[None, :, None]
    p = probs[None, None, :]
    var = p * (1.0 - p) * (a - b) ** 2
    return float(var.max())


# ---------------------------------------------------------------------------
# Finite-difference baseline
# ---------------------------------------------------------------------------


@dataclass
class FdTrace:
    costs: Array
    final_u: Array
    evals_per_iteration: int

    @property
    def total_evaluations(self) -> int:
        return self.evals_per_iteration * (len(self.costs) - 1)


def fd_baseline(
    problem: TrajectoryProblem,
    u0: Array,
    h: float,
    alpha: float,
    iters: int,
    projector: Optional[Callable[[Array], Array]] = None,
) -> FdTrace:
    """Projected gradient descent with forward-difference gradients.

    Each iteration evaluates the objective at the base point and at d*T
    coordinate perturbations of scale h, steps with size alpha, and projects
    back onto the feasible set (a qp.FeasibleSetProjector, an exact LDP
    solve, for the constrained linear-quadratic case; identity when omitted).
    Projector errors propagate.  On a quadratic with Hessian Q the iteration
    is stable only for alpha * lambda_max(Q) < 2.  Deterministic.
    """
    n = problem.n_controls
    u = np.asarray(u0, dtype=float).copy()
    eye_h = h * np.eye(n)
    costs = np.empty(iters + 1)
    for it in range(iters):
        pts = np.vstack([u[None, :], u[None, :] + eye_h])
        vals = problem.batch_objective(pts)
        costs[it] = vals[0]
        grad = (vals[1:] - vals[0]) / h
        u = u - alpha * grad
        if projector is not None:
            u = projector(u)
    costs[iters] = problem.objective(u)
    return FdTrace(costs=costs, final_u=u, evals_per_iteration=n + 1)


# ---------------------------------------------------------------------------
# Bias probe for the self-normalized estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiasProbeRow:
    n: int
    trials: int
    bias_norm: float
    ci_half_width: float
    exact_grad_norm: float


def bias_probe(
    problem: TrajectoryProblem,
    policy: GaussianPolicy,
    exact_grad: Array,
    n_list: Sequence[int],
    trials: int,
    seed: int,
) -> List[BiasProbeRow]:
    """Estimate |E[ghat_N] - grad F| for each sample size, with a 95% CI.

    Within a trial the same base normals serve every N (prefix subsets), so
    the comparison across sample sizes uses common random numbers.  Plain
    i.i.d. draws (no antithetic coupling) keep the per-trial estimators
    exchangeable.  Each prefix is weighed and turned into a gradient as the
    optimizer does it (`weigh`, `grad_estimate`); trials whose prefix has no
    feasible sample are dropped.
    """
    n_list = sorted(int(n) for n in n_list)
    n_max = n_list[-1]
    exact = np.asarray(exact_grad, dtype=float)
    estimates: dict[int, list[Array]] = {n: [] for n in n_list}
    for trial in range(trials):
        rng = batch_rng(seed, iteration=trial)
        z = rng.standard_normal((n_max, policy.dim))
        samples = policy.mean + policy.sqrt_mul(z)
        costs, flags = problem.evaluate_batch(samples)
        for n in n_list:
            prefix = SampleBatch(samples[:n], seed, trial, costs=costs[:n], feasible_flags=flags[:n])
            try:
                summary = weigh(prefix, policy.tau)
            except AllInfeasibleError:
                continue
            estimates[n].append(grad_estimate(policy, prefix, summary))
    rows = []
    for n in n_list:
        g = np.array(estimates[n])
        mean_g = g.mean(axis=0)
        se = g.std(axis=0, ddof=1) / np.sqrt(g.shape[0])
        rows.append(
            BiasProbeRow(
                n=n,
                trials=g.shape[0],
                bias_norm=float(np.linalg.norm(mean_g - exact)),
                ci_half_width=float(1.96 * np.linalg.norm(se)),
                exact_grad_norm=float(np.linalg.norm(exact)),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Variational identity check
# ---------------------------------------------------------------------------


def gibbs_identity_check(
    f0: Callable[[Array], Array],
    box_lo,
    box_hi,
    policy: GaussianPolicy,
    rho: Callable[[Array], Array],
    cells: int = 2**14,
) -> float:
    """Residual of: E_rho[f0] + tau KL(rho || pi) = F(pi) + tau KL(rho || tilt).

    Both sides evaluated by Simpson quadrature on the box for a 1-D policy.
    `rho` returns an unnormalized nonnegative density on query points; it is
    normalized on the grid.  Returns the absolute difference of the sides.
    """
    if policy.dim != 1:
        raise UnsupportedProblemError("identity check is implemented in 1-D")
    lo = float(np.atleast_1d(box_lo)[0])
    hi = float(np.atleast_1d(box_hi)[0])
    nodes, w = _simpson_weights(lo, hi, cells)
    pts = nodes[:, None]
    tau = policy.tau

    rho_vals = np.asarray(rho(pts), dtype=float)
    if (rho_vals < 0).any():
        raise ValueError("rho must be nonnegative on the box")
    mass = float(w @ rho_vals)
    if mass <= 0:
        raise ValueError("rho has no mass on the box; not absolutely continuous here")
    rho_vals = rho_vals / mass

    f_vals = np.asarray(f0(pts), dtype=float)
    log_pi = policy.log_density(pts)
    log_tilt_un = log_pi - f_vals / tau
    shift = log_tilt_un.max()
    z = float(w @ np.exp(log_tilt_un - shift))
    log_z = shift + np.log(z)
    log_tilt = log_tilt_un - log_z  # normalized Gibbs tilt on the box

    support = rho_vals > 0
    def expect(vals: Array) -> float:
        return float(w[support] @ (rho_vals[support] * vals[support]))

    e_f = expect(f_vals)
    kl_pi = expect(np.log(rho_vals, where=support, out=np.zeros_like(rho_vals)) - log_pi)
    kl_tilt = expect(np.log(rho_vals, where=support, out=np.zeros_like(rho_vals)) - log_tilt)
    lhs = e_f + tau * kl_pi
    rhs = -tau * log_z + tau * kl_tilt
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Structured check reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    quantity: str
    exact: float
    estimate: float
    abs_err: float
    rel_err: float
    tolerance: float
    passed: bool


def check_row(quantity: str, exact: float, estimate: float, tolerance: float, relative: bool = True) -> CheckRow:
    abs_err = abs(exact - estimate)
    rel_err = abs_err / (1.0 + abs(exact))
    err = rel_err if relative else abs_err
    return CheckRow(
        quantity=quantity,
        exact=float(exact),
        estimate=float(estimate),
        abs_err=float(abs_err),
        rel_err=float(rel_err),
        tolerance=float(tolerance),
        passed=bool(err <= tolerance),
    )
