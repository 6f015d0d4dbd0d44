"""Exact oracles and theory checks for the smoothed objective.

Everything here is deterministic.  The free energy, gradient and Hessian
of the objective are statistics of one Gibbs tilt, kept in one record,
`TiltMoments` (mean, covariance, log Z), with two exact routes: closed form
for quadratic costs (`QuadraticOracle`) and Simpson quadrature for arbitrary
1-D/2-D costs on boxes (`QuadratureOracle`).  Exact mode (`run_exact`) takes
either oracle and starts from its `policy`; either gives L_Sigma at a mean as
`oracle.l_sigma(mean)`.  Also here: the preconditioned Hessian,
smoothness constants (closed form, diameter bound, numeric), the projected
finite-difference baseline (`fd_baseline` returns `(costs, final_u)`), the
estimator bias probe, and the variational identity check.  These are the
second routes that the sampled optimizer is validated against.  The three
routines that take a box check it one way, when called.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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
from .problems import TrajectoryProblem, _check_controls
from .sampling import GaussianPolicy, SampleBatch, draw, evaluate, weigh

Array = np.ndarray


# ---------------------------------------------------------------------------
# The Gibbs tilt and its two exact routes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TiltMoments:
    """Mean, covariance and log normalizer of the tilt pi(u) exp(-f0(u)/tau) on the feasible set."""

    mean: Array
    cov: Array
    log_z: float


class TiltOracle:
    """Exact-mode oracle: free energy, gradient, Hessian and L_Sigma read off one tilt record.

    Subclasses set `policy` (fixed covariance and temperature; each method's
    mean argument is the iterate) and implement `moments(mean) -> TiltMoments`.
    `run_exact` starts from `policy.mean` and measures every iterate with
    this policy's Sigma and tau, the ones the tilt is formed under.
    """

    def free_energy(self, mean: Array) -> float:
        return -self.policy.tau * self.moments(mean).log_z

    def grad(self, mean: Array) -> Array:
        """-tau Sigma^{-1} (tilted mean - mean)."""
        return -self.policy.tau * self.policy.solve(self.moments(mean).mean - mean)

    def hessian(self, mean: Array) -> Array:
        return hessian_f_gaussian(self.policy, self.moments(mean).cov)

    def l_sigma(self, mean: Array) -> float:
        """Spectral norm of the preconditioned Hessian at `mean` (symmetric eigendecomposition)."""
        m = preconditioned_hessian(self.policy, self.moments(mean).cov)
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))


class QuadraticOracle(TiltOracle):
    """Closed-form tilt for f0(u) = u'Qu/2 + c'u without constraints.

    The tilted precision is Lam = Sigma^{-1} + Q/tau.  Sigma^{-1}, Lam and
    the tilt covariance Lam^{-1} do not depend on the mean, so they are
    formed once here; log det(Sigma Lam), which only log Z reads, at the
    first `moments` call.
    """

    def __init__(self, policy: GaussianPolicy, q, c):
        d = policy.dim
        q = np.atleast_2d(np.asarray(q, dtype=float))
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if q.shape != (d, d) or c.shape != (d,):
            raise DimensionMismatchError(d, q.shape[0], "quadratic cost")
        if not np.allclose(q, q.T, atol=1e-10):
            raise ValueError("quadratic cost matrix must be symmetric")
        self.policy = policy
        sigma = policy.cov_matrix()
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
            self._sigma_inv = np.linalg.inv(sigma)
            lam = self._sigma_inv + q / policy.tau
            lam = 0.5 * (lam + lam.T)
        if not np.isfinite(lam).all():  # a tiny tau or variance overflows Sigma^{-1} + Q/tau
            raise NotSpdError(
                f"tilted precision Sigma^-1 + Q/tau is not finite for tau = {policy.tau:g} "
                f"and Sigma with least variance {float(np.diag(sigma).min()):g}"
            )
        if np.linalg.eigvalsh(lam).min() <= 0:
            raise NotSpdError("tilted precision is not positive definite")
        cov = np.linalg.inv(lam)
        self.tilted_cov = 0.5 * (cov + cov.T)
        self.tilted_cov.setflags(write=False)  # every moments() record shares it
        self._c_over_tau = c / policy.tau
        self._sigma, self._lam = sigma, lam

    @functools.cached_property
    def _logdet(self) -> float:
        """log det(Sigma Lam); Sigma and Lam are both SPD, so the determinant is positive."""
        return float(np.linalg.slogdet(self._sigma @ self._lam)[1])

    def moments(self, mean: Array) -> TiltMoments:
        """Tilted mean Lam^{-1} h with h = Sigma^{-1} mu - c/tau, and log Z.

        log Z = h' Lam^{-1} h / 2 - mu' Sigma^{-1} mu / 2 - log det(Sigma Lam) / 2.
        """
        mu = self.policy.with_mean(mean).mean  # checks the length
        s = self._sigma_inv @ mu
        h = s - self._c_over_tau
        tilted = self.tilted_cov @ h
        log_z = 0.5 * float(h @ tilted) - 0.5 * float(mu @ s) - 0.5 * self._logdet
        return TiltMoments(mean=tilted, cov=self.tilted_cov, log_z=log_z)


START_CELLS = 64  # cells per axis of the first Simpson pass
MAX_CELLS_1D = 2**20  # refinement caps, in cells per axis
MAX_CELLS_2D = 2**12
GIBBS_CELLS = 2**14  # Simpson cells of the variational identity check


def _simpson_weights(lo: float, hi: float, cells: int) -> tuple[Array, Array]:
    nodes = np.linspace(lo, hi, cells + 1)
    w = np.ones(cells + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (hi - lo) / cells / 3.0
    return nodes, w


def _simpson_tilt(log_pi: Array, f_vals: Array, tau: float, weights: Array):
    """Log tilt log pi - f0/tau on Simpson nodes, node masses, their sum z0, and log Z.

    The masses are weights * exp(log tilt - max), so z0 = Z exp(-max) cannot overflow.
    """
    log_g = log_pi - f_vals / tau
    shift = float(log_g.max())
    density = weights * np.exp(log_g - shift)
    z0 = float(density.sum())
    if z0 <= 0:
        raise QuadratureError("integrand vanished on the whole grid", last_estimate=float("nan"))
    return log_g, density, z0, shift + np.log(z0)


def _box(box_lo, box_hi, d: int) -> tuple[Array, Array]:
    """A box as two float arrays of length d: finite, upper bounds dominating lower."""
    lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    if lo.shape != (d,) or hi.shape != (d,):
        raise DimensionMismatchError(d, lo.size if lo.shape != (d,) else hi.size, "box")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("box must be bounded")
    if np.any(hi < lo):
        raise ValueError("box upper bounds must dominate lower bounds")
    return lo, hi


class QuadratureOracle(TiltOracle):
    """Exact-mode oracle: Simpson moments of the constrained tilt on a 1-D/2-D box.

    `f0` must accept an (n, d) array of points and return n costs.  The
    dimension and the box are checked here, once.  `moments` doubles the
    cell count from `START_CELLS` until log Z, the mean and the covariance
    all move by less than `rel_tol`; exceeding the cap raises QuadratureError
    carrying the last estimate.
    """

    def __init__(self, f0, box_lo, box_hi, policy: GaussianPolicy, rel_tol: float = 1e-8):
        if policy.dim not in (1, 2):
            raise UnsupportedProblemError(f"quadrature supports 1 or 2 dims, got {policy.dim}")
        self.box_lo, self.box_hi = _box(box_lo, box_hi, policy.dim)
        if np.any(self.box_hi == self.box_lo):  # Simpson weights vanish on a flat axis
            raise ValueError("quadrature needs a box of positive width on every axis")
        self.f0 = f0
        self.rel_tol = rel_tol
        self.policy = policy

    def _grid_pass(self, policy: GaussianPolicy, cells: int) -> TiltMoments:
        nodes, weights = _simpson_weights(self.box_lo[0], self.box_hi[0], cells)
        pts = nodes[:, None]
        if policy.dim == 2:  # tensor grid, first axis slowest
            n1, w1 = _simpson_weights(self.box_lo[1], self.box_hi[1], cells)
            pts = np.column_stack([np.repeat(nodes, n1.size), np.tile(n1, nodes.size)])
            weights = np.outer(weights, w1).ravel()
        f_vals = np.asarray(self.f0(pts), dtype=float)
        _, density, z0, log_z = _simpson_tilt(policy.log_density(pts), f_vals, policy.tau, weights)
        mean = (density @ pts) / z0
        centered = pts - mean
        cov = (density[:, None] * centered).T @ centered / z0
        return TiltMoments(mean=mean, cov=0.5 * (cov + cov.T), log_z=log_z)

    def moments(self, mean: Array) -> TiltMoments:
        policy = self.policy.with_mean(mean)
        cap = MAX_CELLS_1D if policy.dim == 1 else MAX_CELLS_2D  # module globals, read per call
        cells = START_CELLS
        prev = self._grid_pass(policy, cells)
        while cells < cap:
            cells *= 2
            cur = self._grid_pass(policy, cells)
            dz = abs(cur.log_z - prev.log_z) / (1.0 + abs(cur.log_z))
            dm = float(np.max(np.abs(cur.mean - prev.mean))) / (1.0 + float(np.max(np.abs(cur.mean))))
            dc = float(np.max(np.abs(cur.cov - prev.cov))) / (1.0 + float(np.max(np.abs(cur.cov))))
            if max(dz, dm, dc) < self.rel_tol:
                return cur
            prev = cur
        raise QuadratureError(f"no convergence at {cells} cells per axis", last_estimate=prev.log_z)


# ---------------------------------------------------------------------------
# Hessians and smoothness constants
# ---------------------------------------------------------------------------


def _tilt_cov_arg(policy: GaussianPolicy, cov_tilt) -> Array:
    cov_tilt = np.atleast_2d(np.asarray(cov_tilt, dtype=float))
    if cov_tilt.shape != (policy.dim, policy.dim):
        raise DimensionMismatchError(policy.dim**2, cov_tilt.size, "tilted covariance")
    return cov_tilt


def hessian_f_gaussian(policy: GaussianPolicy, cov_tilt: Array) -> Array:
    """Hessian in the mean: tau * Sigma^{-1} (Sigma - Cov_tilt) Sigma^{-1}."""
    cov_tilt = _tilt_cov_arg(policy, cov_tilt)
    sigma_inv = np.linalg.inv(policy.cov_matrix())
    h = policy.tau * (sigma_inv - sigma_inv @ cov_tilt @ sigma_inv)
    return 0.5 * (h + h.T)


def preconditioned_hessian(policy: GaussianPolicy, cov_tilt: Array) -> Array:
    """I - Sigma^{-1/2} Cov_tilt Sigma^{-1/2}: temperature-free curvature."""
    cov_tilt = _tilt_cov_arg(policy, cov_tilt)
    w, v = np.linalg.eigh(policy.cov_matrix())
    if w.min() <= 0:
        raise NotSpdError("policy covariance is not positive definite")
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    m = np.eye(policy.dim) - inv_sqrt @ cov_tilt @ inv_sqrt
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class DiameterBound:
    l_sigma: float
    d2_metric: float


def l_sigma_quadratic(cov, q, tau: float) -> float:
    """Exact smoothness constant for a quadratic cost (unconstrained tilt).

    The spectral norm of I - Sigma^{-1/2} (Sigma^{-1} + Q/tau)^{-1}
    Sigma^{-1/2}, which does not depend on the mean, so no tilt record (and
    no log Z) is formed.
    """
    policy = GaussianPolicy(np.zeros(np.atleast_2d(np.asarray(q)).shape[0]), cov, tau)
    oracle = QuadraticOracle(policy, q, np.zeros(policy.dim))
    m = preconditioned_hessian(policy, oracle.tilted_cov)
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


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
    rel_tol: float = 1e-8,
) -> float:
    """sup over a mean grid of the truncated-tilt preconditioned curvature norm.

    This is the constraint-aware route: the tilt covariance comes from box
    quadrature, so truncation by the feasible set is included (unlike the
    quadratic closed form, which ignores it).  The supremum is over the
    supplied grid of means only — choose it to bracket the curvature peak.
    """
    oracle = QuadratureOracle(f0, box_lo, box_hi, policy, rel_tol)
    return max([0.0] + [oracle.l_sigma(np.atleast_1d(mean)) for mean in mean_grid])


def l_sigma_diameter_bound(cov, box_lo, box_hi) -> DiameterBound:
    """Theorem-style certificate max{1, D^2/4 - 1} from the box diameter.

    D is the feasible-set diameter in the Sigma^{-1} metric: exact over
    corner differences when Sigma is scalar/diagonal, otherwise bounded by
    the Euclidean diameter over sqrt(lmin(Sigma)); D^2 is reported as
    `d2_metric`.  The unit step is certified (bound < 2) exactly when D^2 < 12.
    """
    box_lo, box_hi = _box(box_lo, box_hi, np.size(box_lo))
    edges = box_hi - box_lo
    policy = GaussianPolicy(np.zeros(edges.size), cov, 1.0)  # validates cov
    if np.ndim(cov) < 2:  # scalar or diagonal Sigma
        d2_metric = float((edges**2 / np.asarray(cov, dtype=float)).sum())
    else:
        d2_metric = float(edges @ edges) / float(np.linalg.eigvalsh(policy.cov_matrix()).min())
    return DiameterBound(l_sigma=max(1.0, d2_metric / 4.0 - 1.0), d2_metric=d2_metric)


def max_two_point_variance(diameter: float) -> float:
    """Brute-force max variance of two-point distributions on [0, D].

    The 41-point grids include the endpoints and p = 1/2, so the maximizer
    (mass split evenly between 0 and D, variance D^2/4) is attained exactly.
    """
    pos = np.linspace(0.0, diameter, 41)
    probs = np.linspace(0.0, 1.0, 41)
    a = pos[:, None, None]
    b = pos[None, :, None]
    p = probs[None, None, :]
    var = p * (1.0 - p) * (a - b) ** 2
    return float(var.max())


# ---------------------------------------------------------------------------
# Finite-difference baseline
# ---------------------------------------------------------------------------


def fd_baseline(
    problem: TrajectoryProblem,
    u0: Array,
    h: float,
    alpha: float,
    iters: int,
    projector: Optional[Callable[[Array], Array]] = None,
) -> tuple[Array, Array]:
    """Projected gradient descent with forward-difference gradients.

    Each iteration evaluates the objective at the base point and at d*T
    coordinate perturbations of scale h, steps with size alpha, and projects
    back onto the feasible set (a qp.FeasibleSetProjector, an exact LDP
    solve, for the constrained linear-quadratic case; identity when omitted).
    Projector errors propagate, and a step that leaves the iterate non-finite
    (an overflowing alpha or h) raises FloatingPointError naming its iteration.
    On a quadratic with Hessian Q the iteration is stable only for
    alpha * lambda_max(Q) < 2.  Deterministic.  Returns the iters + 1 costs
    (the last at the final iterate) and the final iterate.
    """
    n = problem.n_controls
    u = np.asarray(u0, dtype=float).copy()
    eye_h = h * np.eye(n)
    pts = np.empty((n + 1, n))  # the base point, then its n perturbations
    costs = np.empty(iters + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the step's check
        for it in range(iters):
            pts[0] = u
            np.add(u, eye_h, out=pts[1:])
            vals = problem.batch_objective(pts)
            costs[it] = vals[0]
            grad = (vals[1:] - vals[0]) / h
            stepped = u - alpha * grad
            if not np.isfinite(stepped).all():
                raise FloatingPointError(f"FD iterate is not finite after step {it}")
            u = stepped if projector is None else projector(stepped)
    costs[iters] = problem.batch_objective(_check_controls(u, n, "final FD iterate")[None, :])[0]
    return costs, u


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
    exchangeable.  Each trial draws and scores its batch, and each prefix is
    weighed and turned into a gradient, as the optimizer does it (`draw`,
    `evaluate`, `weigh`, `grad_estimate`); trials whose prefix has no
    feasible sample are dropped.  The largest N must be at least 2, as `draw`
    requires; smaller N are prefixes of its batch.
    """
    n_list = sorted(int(n) for n in n_list)
    n_max = n_list[-1]
    if n_max < 2:
        raise ValueError(f"the largest sample size in n_list must be at least 2, got {n_list}")
    exact = np.asarray(exact_grad, dtype=float)
    estimates: dict[int, list[Array]] = {n: [] for n in n_list}
    for trial in range(trials):
        batch = evaluate(draw(policy, n_max, seed, iteration=trial), problem)
        samples, costs, flags = batch.samples, batch.costs, batch.feasible_flags
        for n in n_list:
            prefix = SampleBatch(samples[:n], trial, costs=costs[:n], feasible_flags=flags[:n])
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
) -> float:
    """Residual of: E_rho[f0] + tau KL(rho || pi) = F(pi) + tau KL(rho || tilt).

    Both sides evaluated by Simpson quadrature on the box for a 1-D policy.
    `rho` returns an unnormalized nonnegative density on query points; it is
    normalized on the grid.  Returns the absolute difference of the sides.
    """
    if policy.dim != 1:
        raise UnsupportedProblemError("identity check is implemented in 1-D")
    (lo,), (hi,) = _box(box_lo, box_hi, 1)
    if hi == lo:
        raise ValueError("quadrature needs a box of positive width")
    nodes, w = _simpson_weights(lo, hi, GIBBS_CELLS)
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
    log_g, _, _, log_z = _simpson_tilt(log_pi, f_vals, tau, w)
    log_tilt = log_g - log_z  # normalized Gibbs tilt on the box

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
