"""Theory check battery: every identity and inequality, with residuals.

Each check produces a row (quantity, exact, estimate, abs/rel error,
tolerance, pass/fail); the suite passes when all rows do.  The
`inject_bug` flag flips the sign of the exact gradient inside the
gradient-consistency check — a self-test proving the harness can fail.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

import numpy as np

from .. import analysis, qp
from ..analysis import CheckRow, GridSpec, check_row
from ..optimizer import PgdConfig, run_exact
from ..problems import double_integrator, lqr_problem, lqr_stage_cost, rollout
from ..sampling import GaussianPolicy, SampleBatch, weigh
from .config import RunConfig
from .records import _write_text

_TIGHT = GridSpec(rel_tol=1e-10)


def _quadratic_f0(q: float, c: float):
    return lambda pts: 0.5 * q * pts[:, 0] ** 2 + c * pts[:, 0]


def _grad_hessian_checks(inject_bug: bool) -> List[CheckRow]:
    q, c = 1.2, 0.3
    policy = GaussianPolicy([0.4], 0.5, 0.7)
    f0 = _quadratic_f0(q, c)
    box = ([-12.0], [12.0])

    def f_hat(mu: float) -> float:
        return analysis.free_energy_quadrature(f0, *box, policy.with_mean([mu]), _TIGHT)

    h = 0.01
    g_fd = (f_hat(0.4 + h) - f_hat(0.4 - h)) / (2 * h)
    oracle = analysis.QuadraticOracle(policy, q, c)
    g_exact = float(oracle.grad(policy.mean)[0])
    if inject_bug:
        g_exact = -g_exact
    rows = [check_row("gradient_vs_quadrature_fd", g_exact, g_fd, 1e-5)]

    hh = 0.05
    h_fd = (f_hat(0.4 + hh) - 2 * f_hat(0.4) + f_hat(0.4 - hh)) / hh**2
    h_exact = float(oracle.hessian(policy.mean)[0, 0])
    rows.append(check_row("hessian_vs_quadrature_fd", h_exact, h_fd, 1e-4))

    # temperature cancellation: P^{1/2} H P^{1/2} vs I - S^{-1/2} Cov S^{-1/2}
    worst = 0.0
    for tau in (0.3, 0.9, 17.0):
        pol = GaussianPolicy([0.1, -0.2], np.array([[0.6, 0.1], [0.1, 0.3]]), tau)
        pol_oracle = analysis.QuadraticOracle(pol, np.array([[2.0, 0.4], [0.4, 1.1]]), np.zeros(2))
        hess = pol_oracle.hessian(pol.mean)
        w, v = np.linalg.eigh(pol.cov_matrix() / tau)
        p_half = (v * np.sqrt(w)) @ v.T
        via_hessian = p_half @ hess @ p_half
        direct = analysis.preconditioned_hessian(pol, pol_oracle.tilted_cov)
        worst = max(worst, float(np.max(np.abs(via_hessian - direct))))
    rows.append(check_row("temperature_cancellation", 0.0, worst, 1e-12, relative=False))
    return rows


def _descent_checks() -> List[CheckRow]:
    q = np.array([[3.0, 0.5], [0.5, 1.0]])
    c = np.array([0.4, -0.2])
    policy = GaussianPolicy([1.5, -2.0], np.array([0.6, 0.3]), 0.9)
    oracle = analysis.QuadraticOracle(policy, q, c)
    l_sigma = oracle.l_sigma()
    rows: List[CheckRow] = []
    for frac in (1.0, 1.8):
        eta = frac / l_sigma
        cfg = PgdConfig(eta=eta, k=60, n_samples=2)
        final, trace = run_exact(oracle, policy, cfg)
        f_vals = np.append(trace.column("free_energy"), oracle.free_energy(final.mean))
        norms = trace.column("grad_norm_p")
        factor = eta * (1.0 - eta * l_sigma / 2.0)
        slack = (f_vals[:-1] - f_vals[1:]) - factor * norms**2
        rows.append(
            check_row(
                f"descent_slack_eta_{frac:.1f}_over_l", 0.0, min(float(slack.min()), 0.0), 1e-9, relative=False
            )
        )
        # ergodic stationarity at the final K
        mu_star = np.linalg.solve(
            np.eye(2) - oracle.tilted_cov @ np.linalg.inv(policy.cov_matrix()),
            -oracle.tilted_cov @ c / policy.tau,
        )
        f_star = oracle.free_energy(mu_star)
        bound = (f_vals[0] - f_star) / (len(norms) * factor)
        excess = max(float(norms.min() ** 2 - bound), 0.0)
        rows.append(
            check_row(f"ergodic_bound_eta_{frac:.1f}_over_l", 0.0, excess, 1e-9, relative=False)
        )
    return rows


def _certificate_checks() -> List[CheckRow]:
    rows = []
    cases = [(1.0, 4.0, 1.0), (np.sqrt(2.0), 8.0, 1.0), (np.sqrt(5.0), 20.0, 4.0)]
    for half_width, d2, expected in cases:
        est = analysis.l_sigma_diameter_bound(1.0, [-half_width], [half_width])
        rows.append(check_row(f"diameter_bound_d2_{d2:g}", expected, est.l_sigma, 1e-12))
        rows.append(
            check_row(
                f"diameter_metric_d2_{d2:g}", d2, est.d2_metric, 1e-12
            )
        )
    rows.append(
        check_row("two_point_max_variance", 1.0, analysis.max_two_point_variance(2.0), 1e-12)
    )
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        sigma2 = float(rng.uniform(0.05, 3.0))
        tau = float(rng.uniform(0.1, 5.0))
        a = rng.standard_normal((3, 3))
        qmat = a @ a.T
        scalar = analysis.l_sigma_scalar(sigma2, qmat, tau)
        eig = analysis.l_sigma_quadratic(sigma2 * np.ones(3), qmat, tau).l_sigma
        worst = max(worst, abs(scalar - eig))
    rows.append(check_row("l_sigma_two_routes", 0.0, worst, 1e-12, relative=False))
    return rows


def _gibbs_checks() -> List[CheckRow]:
    f0 = _quadratic_f0(1.6, 0.1)
    policy = GaussianPolicy([0.3], 0.4, 0.9)
    box = ([-4.0], [4.0])

    def tilt_density(pts):
        return np.exp(policy.log_density(pts) - f0(pts) / policy.tau)

    def pi_restricted(pts):
        return np.exp(policy.log_density(pts))

    def shifted_gaussian(pts):
        return np.exp(-0.5 * (pts[:, 0] - 0.8) ** 2 / 0.3)

    rows = []
    for name, rho in (
        ("gibbs_identity_tilt", tilt_density),
        ("gibbs_identity_pi_restricted", pi_restricted),
        ("gibbs_identity_shifted", shifted_gaussian),
    ):
        res = analysis.gibbs_identity_check(f0, *box, policy, rho)
        rows.append(check_row(name, 0.0, res, 1e-6, relative=False))
    return rows


def _weight_checks() -> List[CheckRow]:
    samples = np.zeros((4, 1))
    costs = np.array([3.0, 5.0, 4.0, 3.5])
    flags = np.ones(4, dtype=bool)

    def summary_for(tau, costs_in):
        batch = SampleBatch(samples=samples, iteration=0)
        batch.costs = costs_in
        batch.feasible_flags = flags
        return weigh(batch, tau)

    rows = []
    s = summary_for(1.3, costs)
    rows.append(
        check_row("weight_normalization", 1.0, float(s.normalized_weights.sum()), 1e-12, relative=False)
    )
    s_shift = summary_for(1.3, costs + 1000.0)
    rows.append(
        check_row(
            "weight_shift_stability",
            0.0,
            float(np.max(np.abs(s.normalized_weights - s_shift.normalized_weights))),
            1e-12,
            relative=False,
        )
    )
    hot = summary_for(1e12, costs)
    rows.append(
        check_row(
            "weight_high_temperature_uniform",
            0.0,
            float(np.max(np.abs(hot.normalized_weights - 0.25))),
            1e-9,
            relative=False,
        )
    )
    cold = summary_for(1e-9, costs)
    rows.append(
        check_row("weight_low_temperature_argmin", 1.0, float(cold.normalized_weights[0]), 1e-12)
    )
    return rows


def _lift_checks() -> List[CheckRow]:
    # The direct side steps the dynamics one transition at a time, so it
    # shares nothing with the response map M that the lift is built from.
    spec = double_integrator()
    problem = lqr_problem(spec)
    lifted = qp.lift(spec)
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.0, 1.0, size=(100, lifted.dim))

    def stepwise_cost(row: np.ndarray) -> float:
        controls = row.reshape(spec.horizon, spec.control_dim)
        return sum(lqr_stage_cost(spec, x, c) for x, c in zip(rollout(problem, row)[1:], controls))

    direct = np.array([stepwise_cost(row) for row in u])
    via_qp = 0.5 * np.einsum("ij,jk,ik->i", u, lifted.q, u) + u @ lifted.c + lifted.constant
    worst = float(np.max(np.abs(direct - via_qp) / (1.0 + np.abs(direct))))
    return [check_row("qp_lift_identity", 0.0, worst, 1e-10, relative=False)]


def run_theory_suite(cfg: RunConfig) -> tuple[List[CheckRow], bool]:
    inject = bool(cfg.resolved.get("inject_bug", False))
    rows: List[CheckRow] = []
    rows += _grad_hessian_checks(inject)
    rows += _descent_checks()
    rows += _certificate_checks()
    rows += _gibbs_checks()
    rows += _weight_checks()
    rows += _lift_checks()
    return rows, all(r.passed for r in rows)


def format_report(rows: List[CheckRow]) -> str:
    width = max(len(r.quantity) for r in rows)
    lines = [
        f"{'check':<{width}}  {'exact':>13}  {'estimate':>13}  {'abs_err':>10}  {'rel_err':>10}  {'tol':>8}  result"
    ]
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.quantity:<{width}}  {r.exact:>13.6g}  {r.estimate:>13.6g}  "
            f"{r.abs_err:>10.3e}  {r.rel_err:>10.3e}  {r.tolerance:>8.1e}  {status}"
        )
    return "\n".join(lines)


def emit_report(rows: List[CheckRow], out_dir) -> Optional[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "theory_report.json"
    doc = [r.__dict__ for r in rows]
    _write_text(path, json.dumps(doc, indent=2) + "\n")
    _write_text(out / "theory_report.txt", format_report(rows) + "\n")
    return path
