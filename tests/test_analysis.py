"""Oracles and certificates: tilted moments, quadrature, smoothness, probes."""

from pathlib import Path

import numpy as np
import pytest

from mppigrad import analysis, qp
from mppigrad.bench.config import load_config
from mppigrad.bench.lqr import _build_spec
from mppigrad.errors import (
    ConvergenceError,
    NotSpdError,
    QuadratureError,
    UnsupportedProblemError,
)
from mppigrad.problems import TrajectoryProblem, lqr_problem
from mppigrad.sampling import GaussianPolicy, SampleBatch, batch_rng

WIDE = 1e-10  # Simpson refinement tolerance on the wide boxes


def quadratic_batch(q, c):
    q = np.atleast_2d(np.asarray(q, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return lambda pts: 0.5 * np.einsum("ni,ij,nj->n", pts, q, pts) + pts @ c


# ---------------------------------------------------------------------------
# closed-form tilt
# ---------------------------------------------------------------------------


def test_conjugate_tilt_mean_and_variance():
    sigma2, tau, mu = 0.5, 1.5, 2.0
    policy = GaussianPolicy(np.array([mu]), sigma2, tau)
    tilt = analysis.QuadraticOracle(policy, 1.0, 0.0).moments(policy.mean)
    assert tilt.mean[0] == pytest.approx(tau * mu / (tau + sigma2), abs=1e-14)
    assert tilt.cov[0, 0] == pytest.approx(sigma2 * tau / (tau + sigma2), abs=1e-14)


def test_zero_cost_tilt_is_the_policy():
    policy = GaussianPolicy(np.array([1.0, -2.0]), np.array([0.5, 2.0]), 0.7)
    tilt = analysis.QuadraticOracle(policy, np.zeros((2, 2)), np.zeros(2)).moments(policy.mean)
    np.testing.assert_allclose(tilt.mean, policy.mean, atol=1e-14)
    np.testing.assert_allclose(tilt.cov, policy.cov_matrix(), atol=1e-14)


def test_high_temperature_tilt_ignores_the_cost():
    policy = GaussianPolicy(np.array([3.0]), 1.0, tau=1e12)
    tilt = analysis.QuadraticOracle(policy, 5.0, 2.0).moments(policy.mean)
    assert tilt.mean[0] == pytest.approx(3.0, abs=1e-9)


def test_indefinite_tilt_precision_is_rejected():
    policy = GaussianPolicy(np.zeros(1), 1.0, tau=1.0)
    with pytest.raises(NotSpdError, match="tilted precision"):
        analysis.QuadraticOracle(policy, -10.0, 0.0).moments(policy.mean)


def test_tilt_covariance_does_not_depend_on_the_mean():
    q = np.array([[2.0, 0.3], [0.3, 1.0]])
    for mu in (np.zeros(2), np.array([5.0, -7.0])):
        policy = GaussianPolicy(mu, np.array([0.5, 1.5]), 0.8)
        tilt = analysis.QuadraticOracle(policy, q, np.array([1.0, 0.0])).moments(policy.mean)
        np.testing.assert_allclose(
            tilt.cov,
            analysis.QuadraticOracle(policy.with_mean(np.zeros(2)), q, np.zeros(2))
            .moments(np.zeros(2))
            .cov,
            atol=1e-14,
        )


def test_gradient_matches_fd_of_closed_form_free_energy():
    q = np.array([[2.0, 0.4], [0.4, 1.5]])
    c = np.array([0.3, -0.7])
    policy = GaussianPolicy(np.array([0.8, -0.4]), np.array([[0.9, 0.2], [0.2, 0.6]]), 1.3)
    g = analysis.QuadraticOracle(policy, q, c).grad(policy.mean)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (
            analysis.QuadraticOracle(policy, q, c).free_energy(policy.mean + e)
            - analysis.QuadraticOracle(policy, q, c).free_energy(policy.mean - e)
        ) / (2 * h)
        assert g[i] == pytest.approx(fd, abs=1e-7)


def test_gradient_vanishes_at_the_unconstrained_optimum():
    policy = GaussianPolicy(np.zeros(2), 1.0, tau=2.0)
    np.testing.assert_allclose(
        analysis.QuadraticOracle(policy, np.diag([1.0, 3.0]), np.zeros(2)).grad(policy.mean),
        0.0,
        atol=1e-14,
    )


def test_quadratic_oracle_hessian_matches_fd_of_gradient():
    policy = GaussianPolicy(np.array([0.5, -1.0]), np.array([0.7, 1.2]), 0.9)
    oracle = analysis.QuadraticOracle(policy, np.array([[1.5, 0.2], [0.2, 0.8]]), np.array([0.1, 0.4]))
    hess = oracle.hessian(policy.mean)
    np.testing.assert_allclose(hess, hess.T, atol=1e-14)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        col = (oracle.grad(policy.mean + e) - oracle.grad(policy.mean - e)) / (2 * h)
        np.testing.assert_allclose(hess[:, i], col, atol=1e-6)


def test_quadratic_oracle_scalar_smoothness_agrees_with_formula():
    policy = GaussianPolicy(np.zeros(3), 0.7, tau=1.3)
    oracle = analysis.QuadraticOracle(policy, 2.0 * np.eye(3), np.zeros(3))
    assert oracle.l_sigma() == pytest.approx(analysis.l_sigma_scalar(0.7, 2.0, 1.3), abs=1e-12)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def test_free_cost_on_a_wide_box_has_zero_free_energy():
    policy = GaussianPolicy(np.array([0.2]), 1.0, tau=0.7)
    free = analysis.QuadratureOracle(lambda pts: np.zeros(len(pts)), [-30.0], [30.0], policy, WIDE)
    f = free.free_energy(policy.mean)
    assert f == pytest.approx(0.0, abs=1e-8)


def test_free_energy_dominates_the_minimum_cost():
    policy = GaussianPolicy(np.array([0.5]), 0.8, tau=0.3)
    f0 = lambda pts: (pts[:, 0] - 1.0) ** 2 + 0.25
    f = analysis.QuadratureOracle(f0, [-8.0], [8.0], policy, WIDE).free_energy(policy.mean)
    assert f >= 0.25


def test_quadrature_matches_closed_form_on_a_wide_box_1d():
    sigma2, tau, q, c = 0.6, 1.2, 1.5, -0.4
    policy = GaussianPolicy(np.array([0.9]), sigma2, tau)
    mom = analysis.tilted_moments_quadrature(quadratic_batch(q, c), [-25.0], [25.0], policy, WIDE)
    exact = analysis.QuadraticOracle(policy, q, c).moments(policy.mean)
    np.testing.assert_allclose(mom.mean, exact.mean, atol=1e-8)
    np.testing.assert_allclose(mom.cov, exact.cov, atol=1e-8)
    quadrature = analysis.QuadratureOracle(quadratic_batch(q, c), [-25.0], [25.0], policy, WIDE)
    f = quadrature.free_energy(policy.mean)
    exact_f = analysis.QuadraticOracle(policy, q, c).free_energy(policy.mean)
    assert f == pytest.approx(exact_f, abs=1e-8)


def test_quadrature_matches_closed_form_on_a_wide_box_2d():
    q = np.array([[1.2, 0.3], [0.3, 0.8]])
    c = np.array([0.2, -0.1])
    policy = GaussianPolicy(np.array([0.4, -0.6]), np.array([[0.7, 0.15], [0.15, 0.5]]), 0.9)
    mom = analysis.tilted_moments_quadrature(
        quadratic_batch(q, c), [-12.0, -12.0], [12.0, 12.0], policy, 1e-9
    )
    exact = analysis.QuadraticOracle(policy, q, c).moments(policy.mean)
    np.testing.assert_allclose(mom.mean, exact.mean, atol=1e-6)
    np.testing.assert_allclose(mom.cov, exact.cov, atol=1e-6)
    assert mom.log_z == pytest.approx(exact.log_z, abs=1e-6)


def test_truncation_shrinks_the_tilt_variance():
    policy = GaussianPolicy(np.zeros(1), 4.0, tau=1.0)
    mom = analysis.tilted_moments_quadrature(
        lambda pts: np.zeros(len(pts)), [-0.1], [0.1], policy, WIDE
    )
    assert mom.cov[0, 0] < 4.0
    assert abs(mom.mean[0]) <= 0.1


def test_quadrature_cell_cap_raises_with_last_estimate(monkeypatch):
    monkeypatch.setattr(analysis, "START_CELLS", 4)
    monkeypatch.setattr(analysis, "MAX_CELLS_1D", 8)
    policy = GaussianPolicy(np.zeros(1), 1.0, tau=1.0)
    tiny = 1e-14
    with pytest.raises(QuadratureError, match="8 cells") as err:
        analysis.tilted_moments_quadrature(
            lambda pts: np.cos(40.0 * pts[:, 0]), [-3.0], [3.0], policy, tiny
        )
    assert np.isfinite(err.value.last_estimate)


def test_quadrature_rejects_three_dims_and_unbounded_boxes():
    with pytest.raises(UnsupportedProblemError, match="1 or 2"):
        analysis.tilted_moments_quadrature(
            lambda pts: np.zeros(len(pts)), [-1.0] * 3, [1.0] * 3,
            GaussianPolicy(np.zeros(3), 1.0, 1.0),
        )
    with pytest.raises(ValueError, match="bounded"):
        analysis.tilted_moments_quadrature(
            lambda pts: np.zeros(len(pts)), [-np.inf], [1.0],
            GaussianPolicy(np.zeros(1), 1.0, 1.0),
        )


def test_quadrature_oracle_gradient_matches_closed_form():
    sigma2, tau, q, c = 0.5, 2.0, 1.0, 0.3
    policy = GaussianPolicy(np.array([1.2]), sigma2, tau)
    oracle = analysis.QuadratureOracle(quadratic_batch(q, c), [-20.0], [20.0], policy, WIDE)
    # the gradient is -tau Sigma^{-1} (tilted mean - mean), so the tilted means carry it
    np.testing.assert_allclose(
        oracle.moments(policy.mean).mean,
        analysis.QuadraticOracle(policy, q, c).moments(policy.mean).mean,
        atol=1e-8,
    )


# ---------------------------------------------------------------------------
# curvature and smoothness certificates
# ---------------------------------------------------------------------------


def test_hessian_vanishes_when_tilt_equals_policy():
    policy = GaussianPolicy(np.zeros(2), np.array([[1.0, 0.3], [0.3, 2.0]]), 0.8)
    np.testing.assert_allclose(
        analysis.hessian_f_gaussian(policy, policy.cov_matrix()), 0.0, atol=1e-12
    )
    np.testing.assert_allclose(
        analysis.preconditioned_hessian(policy, policy.cov_matrix()), 0.0, atol=1e-12
    )


def test_scalar_preconditioned_curvature_equals_smoothness_formula():
    sigma2, tau, q = 0.7, 1.3, 2.0
    policy = GaussianPolicy(np.zeros(1), sigma2, tau)
    tilt = analysis.QuadraticOracle(policy, q, 0.0).moments(policy.mean)
    m = analysis.preconditioned_hessian(policy, tilt.cov)
    assert m[0, 0] == pytest.approx(analysis.l_sigma_scalar(sigma2, q, tau), abs=1e-14)


def test_smoothness_closed_form_routes_agree():
    est = analysis.l_sigma_quadratic(0.7, 2.0 * np.eye(2), 1.3)
    assert est.method == "closed_form_quadratic"
    assert est.l_sigma == pytest.approx(analysis.l_sigma_scalar(0.7, 2.0, 1.3), abs=1e-12)
    assert analysis.l_sigma_quadratic(1.0, np.zeros((2, 2)), 1.0).l_sigma == pytest.approx(0.0, abs=1e-14)


def test_numeric_smoothness_reduces_to_closed_form_without_truncation():
    sigma2, tau, q = 0.7, 1.3, 2.0
    est = analysis.l_sigma_numeric(
        lambda pts: 0.5 * q * pts[:, 0] ** 2, [-40.0], [40.0],
        GaussianPolicy(np.zeros(1), sigma2, tau), [np.zeros(1)],
    )
    assert est.method == "numeric_hessian"
    assert est.l_sigma == pytest.approx(analysis.l_sigma_scalar(sigma2, q, tau), abs=1e-9)


def test_numeric_smoothness_on_the_double_well_exceeds_one():
    # frozen instance used by the long-step counterexample: the curvature
    # peak between the wells pushes the constant above 1
    policy = GaussianPolicy(np.array([0.9]), 0.4, tau=0.25)
    est = analysis.l_sigma_numeric(
        lambda pts: 2.0 * (pts[:, 0] ** 2 - 1.0) ** 2, [-2.0], [2.0],
        policy, np.linspace(-1.5, 1.5, 61)[:, None],
    )
    assert est.l_sigma > 1.0
    assert est.l_sigma == pytest.approx(1.2050711138631893, rel=1e-9)


def test_diameter_bound_cases():
    # metric diameter 4 and 8 both certify the floor value 1, so the unit step
    for width2 in (4.0, 8.0):
        b = analysis.l_sigma_diameter_bound(1.0, [0.0], [np.sqrt(width2)])
        assert b.l_sigma == pytest.approx(1.0, abs=1e-12)
    # diameter^2 = 20 crosses the elbow: bound 4, unit step not certified
    b = analysis.l_sigma_diameter_bound(1.0, [0.0], [np.sqrt(20.0)])
    assert b.l_sigma == pytest.approx(4.0, abs=1e-12)
    assert b.method == "diameter_bound"


def test_diameter_bound_routes():
    # diagonal Sigma: exact over the corners; full Sigma: Euclidean over lmin
    exact = analysis.l_sigma_diameter_bound(np.array([1.0, 4.0]), [0.0, 0.0], [2.0, 2.0])
    assert exact.d2_metric == pytest.approx(4.0 / 1.0 + 4.0 / 4.0, abs=1e-12)
    full = analysis.l_sigma_diameter_bound(
        np.array([[1.0, 0.5], [0.5, 1.0]]), [0.0, 0.0], [1.0, 1.0]
    )
    assert full.d2_metric == pytest.approx(2.0 / 0.5, abs=1e-12)


def test_diameter_bound_rejects_bad_boxes():
    with pytest.raises(ValueError, match="bounded"):
        analysis.l_sigma_diameter_bound(1.0, [0.0], [np.inf])
    with pytest.raises(ValueError, match="dominate"):
        analysis.l_sigma_diameter_bound(1.0, [1.0], [0.0])


def test_two_point_variance_attains_the_quarter_square():
    assert analysis.max_two_point_variance(2.0) == pytest.approx(1.0, abs=1e-12)
    assert analysis.max_two_point_variance(3.0) == pytest.approx(2.25, abs=1e-12)


# ---------------------------------------------------------------------------
# finite-difference baseline
# ---------------------------------------------------------------------------


def quadratic_problem(q, c, feasible_radius=np.inf):
    q = np.asarray(q, dtype=float)
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    batch = quadratic_batch(q, c)
    return TrajectoryProblem(
        control_dim=n,
        horizon=1,
        initial_state=np.zeros(1),
        dynamics=lambda x, u: x,
        evaluate=lambda U: (batch(U), np.linalg.norm(U, axis=1) <= feasible_radius),
        known_feasible=np.zeros(n),
    )


def test_fd_baseline_solves_an_unconstrained_quadratic():
    q = np.diag([1.0, 2.0, 4.0])
    c = np.array([0.5, -1.0, 2.0])
    prob = quadratic_problem(q, c)
    trace = analysis.fd_baseline(prob, np.zeros(3), h=1e-6, alpha=0.2, iters=400)
    np.testing.assert_allclose(trace.final_u, -np.linalg.solve(q, c), atol=1e-3)
    assert trace.costs[-1] < trace.costs[0]
    assert trace.evals_per_iteration == 4
    assert trace.total_evaluations == 400 * 4


def test_fd_baseline_stays_put_at_the_optimum():
    q = np.diag([1.0, 2.0])
    c = np.array([0.3, -0.4])
    star = -np.linalg.solve(q, c)
    trace = analysis.fd_baseline(quadratic_problem(q, c), star, h=1e-6, alpha=0.2, iters=50)
    np.testing.assert_allclose(trace.final_u, star, atol=1e-4)


def test_fd_baseline_applies_the_projector():
    q = np.eye(2)
    c = np.array([-10.0, 0.0])  # unconstrained pull far outside the box
    trace = analysis.fd_baseline(
        quadratic_problem(q, c), np.zeros(2), h=1e-6, alpha=0.5, iters=30,
        projector=lambda u: np.clip(u, -1.0, 1.0),
    )
    assert np.all(np.abs(trace.final_u) <= 1.0)
    assert trace.final_u[0] == pytest.approx(1.0, abs=1e-9)


def test_fd_baseline_propagates_projector_failures():
    def broken(u):
        raise ConvergenceError("projection failed", best=u, residual=1.0)

    with pytest.raises(ConvergenceError, match="projection"):
        analysis.fd_baseline(
            quadratic_problem(np.eye(2), np.ones(2)), np.zeros(2),
            h=1e-6, alpha=0.5, iters=3, projector=broken,
        )


def _fd_stacked_reference(problem, u0, h, alpha, iters, projector=None):
    """The FD loop as first written: a fresh stacked batch per iteration, and
    the final iterate scored on its own as a one-row batch."""
    n = problem.n_controls
    u = np.asarray(u0, dtype=float).copy()
    eye_h = h * np.eye(n)
    costs = np.empty(iters + 1)
    for it in range(iters):
        vals = problem.batch_objective(np.vstack([u[None, :], u[None, :] + eye_h]))
        costs[it] = vals[0]
        u = u - alpha * ((vals[1:] - vals[0]) / h)
        if projector is not None:
            u = projector(u)
    costs[iters] = problem.batch_objective(u[None, :])[0]
    return costs, u


@pytest.mark.parametrize("projected", [True, False], ids=["projected", "free"])
@pytest.mark.parametrize(
    "config, iters",
    [("perfbench/configs/lqr_fd.yaml", None), ("configs/lqr.yaml", 2000)],
    ids=["lqr_fd_workload", "desk_steps_2000_iterations"],
)
def test_fd_baseline_matches_the_stacked_reference_bitwise(config, iters, projected):
    cfg = load_config(Path(__file__).resolve().parents[1] / config)
    fd = cfg.section("fd")
    spec = _build_spec(cfg.section("problem"))
    lifted = qp.lift(spec)
    problem = lqr_problem(spec, lifted)
    n = problem.n_controls
    iters = iters or fd["budget_evals"] // (n + 1)
    projector = qp.FeasibleSetProjector(lifted) if projected else None
    args = (problem, np.zeros(n), fd["h"], fd["alpha"], iters, projector)
    trace = analysis.fd_baseline(*args)
    costs, final_u = _fd_stacked_reference(*args)
    assert np.array_equal(trace.costs, costs)
    assert np.array_equal(trace.final_u, final_u)


def test_fd_baseline_rejects_a_nonfinite_final_iterate():
    with pytest.raises(ValueError, match="final FD iterate contains non-finite entries"):
        analysis.fd_baseline(
            quadratic_problem(np.eye(2), np.ones(2)), np.zeros(2), h=1e-6, alpha=0.5, iters=1,
            projector=lambda u: np.full_like(u, np.nan),
        )


# ---------------------------------------------------------------------------
# bias probe
# ---------------------------------------------------------------------------


def _probe_draw_reference(policy, n, seed, iteration):
    """The probe's own draw as first written, before it shared `sampling.draw`."""
    z = batch_rng(seed, iteration=iteration).standard_normal((n, policy.dim))
    return SampleBatch(policy.mean + policy.sqrt_mul(z), iteration)


@pytest.mark.parametrize(
    "cov",
    [0.3, np.array([0.2, 0.5, 1.1]), np.array([[0.6, 0.1, 0.0], [0.1, 0.4, 0.2], [0.0, 0.2, 0.9]])],
    ids=["scalar", "diagonal", "full"],
)
def test_bias_probe_rows_match_its_own_draw_bitwise(monkeypatch, cov):
    policy = GaussianPolicy(np.array([0.2, -0.1, 0.4]), cov, tau=0.5)
    prob = quadratic_problem(np.diag([1.0, 2.0, 0.5]), np.array([0.3, 0.0, -0.2]), 1.5)

    def probe():
        return analysis.bias_probe(prob, policy, np.zeros(3), n_list=[8, 64], trials=40, seed=7)

    rows = probe()
    monkeypatch.setattr(analysis, "draw", _probe_draw_reference)
    assert rows == probe()


def test_bias_probe_is_unbiased_for_constant_cost():
    # constant cost makes the weights exactly uniform, so the estimator is a
    # plain sample average: zero bias up to the trial CI
    prob = TrajectoryProblem(
        control_dim=1, horizon=2, initial_state=np.zeros(1),
        dynamics=lambda x, u: x, known_feasible=np.zeros(2),
        evaluate=lambda U: (np.ones(U.shape[0]), np.ones(U.shape[0], bool)),
    )
    policy = GaussianPolicy(np.array([0.3, -0.1]), 0.8, tau=1.0)
    rows = analysis.bias_probe(prob, policy, np.zeros(2), n_list=[100, 1000], trials=200, seed=11)
    assert [r.n for r in rows] == [100, 1000]
    for row in rows:
        assert row.trials == 200
        assert row.exact_grad_norm == 0.0
        assert row.bias_norm <= row.ci_half_width


def test_bias_probe_detects_small_sample_bias():
    # sharp weights (low temperature) + self-normalization: O(1/N) bias that
    # is CI-separated from the N=5000 row (calibrated at trials=1600)
    sigma2, tau, q, c = 0.5, 0.25, 2.0, 0.5
    policy = GaussianPolicy(np.array([1.0]), sigma2, tau)
    prob = quadratic_problem(np.array([[q]]), np.array([c]), feasible_radius=3.0)
    mom = analysis.tilted_moments_quadrature(
        quadratic_batch(q, c), [-3.0], [3.0], policy, 1e-12
    )
    exact = -tau / sigma2 * (mom.mean - policy.mean)
    rows = analysis.bias_probe(prob, policy, exact, n_list=[50, 5000], trials=1600, seed=0)
    small, large = rows
    assert small.bias_norm - small.ci_half_width > large.bias_norm + large.ci_half_width
    assert large.bias_norm < small.bias_norm / 5.0


def test_bias_probe_counts_a_nan_cost_as_infeasible():
    # rows above 1.5 cost NaN while flagged feasible; the probe must give
    # exactly what it gives when those rows are flagged infeasible instead
    policy = GaussianPolicy(np.array([1.0]), 0.5, tau=0.25)
    batch = quadratic_batch(2.0, 0.5)
    nan_costs = lambda U: (np.where(U[:, 0] > 1.5, np.nan, batch(U)), np.abs(U[:, 0]) <= 3.0)
    flagged = lambda U: (batch(U), (np.abs(U[:, 0]) <= 3.0) & (U[:, 0] <= 1.5))
    probes = [
        analysis.bias_probe(
            TrajectoryProblem(
                control_dim=1, horizon=1, initial_state=np.zeros(1),
                dynamics=lambda x, u: x, known_feasible=np.zeros(1), evaluate=evaluate,
            ),
            policy, np.array([0.1]), n_list=[20, 200], trials=100, seed=3,
        )
        for evaluate in (nan_costs, flagged)
    ]
    for row in probes[0]:
        assert np.isfinite(row.bias_norm) and np.isfinite(row.ci_half_width)
    assert probes[0] == probes[1]


def test_bias_probe_needs_a_largest_sample_size_of_two():
    policy = GaussianPolicy(np.array([1.0]), 0.5, tau=0.25)
    prob = TrajectoryProblem(
        control_dim=1, horizon=1, initial_state=np.zeros(1), dynamics=lambda x, u: x,
        known_feasible=np.zeros(1), evaluate=lambda U: (U[:, 0] ** 2, np.ones(len(U), bool)),
    )
    with pytest.raises(ValueError, match=r"n_list must be at least 2, got \[1\]"):
        analysis.bias_probe(prob, policy, np.zeros(1), n_list=[1], trials=4, seed=0)
    # a one-sample prefix of a larger draw is still a row
    rows = analysis.bias_probe(prob, policy, np.zeros(1), n_list=[8, 1], trials=4, seed=0)
    assert [row.n for row in rows] == [1, 8]


# ---------------------------------------------------------------------------
# variational identity
# ---------------------------------------------------------------------------


def test_gibbs_identity_holds_for_assorted_densities():
    policy = GaussianPolicy(np.array([0.4]), 0.9, tau=0.8)
    f0 = lambda pts: 0.7 * pts[:, 0] ** 2 + 0.2 * pts[:, 0]
    rhos = [
        lambda pts: np.exp(-((pts[:, 0] - 0.3) ** 2)),
        lambda pts: np.ones(len(pts)),
        lambda pts: np.exp(-((pts[:, 0] - 1.0) ** 2)) + 0.5 * np.exp(-((pts[:, 0] + 1.0) ** 2)),
    ]
    for rho in rhos:
        assert analysis.gibbs_identity_check(f0, [-6.0], [6.0], policy, rho) <= 1e-6


def test_gibbs_identity_input_validation():
    policy = GaussianPolicy(np.array([0.0]), 1.0, tau=1.0)
    f0 = lambda pts: pts[:, 0] ** 2
    with pytest.raises(ValueError, match="nonnegative"):
        analysis.gibbs_identity_check(f0, [-2.0], [2.0], policy, lambda pts: pts[:, 0])
    with pytest.raises(ValueError, match="no mass"):
        analysis.gibbs_identity_check(f0, [-2.0], [2.0], policy, lambda pts: np.zeros(len(pts)))
    with pytest.raises(UnsupportedProblemError):
        analysis.gibbs_identity_check(
            f0, [-2.0, -2.0], [2.0, 2.0], GaussianPolicy(np.zeros(2), 1.0, 1.0),
            lambda pts: np.ones(len(pts)),
        )


# ---------------------------------------------------------------------------
# check rows
# ---------------------------------------------------------------------------


def test_check_row_relative_and_absolute_modes():
    row = analysis.check_row("thing", exact=1.0, estimate=1.0 + 5e-7, tolerance=1e-6)
    assert row.passed
    assert row.abs_err == pytest.approx(5e-7)
    assert row.rel_err == pytest.approx(5e-7 / 2.0)
    strict = analysis.check_row("thing", 1.0, 1.0 + 5e-7, tolerance=1e-7, relative=False)
    assert not strict.passed
