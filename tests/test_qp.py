"""QP lift, verified reference solve, and feasible-set projection."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, minimize

from mppigrad import qp
from mppigrad.errors import ConvergenceError, InfeasibleProblemError, NotSpdError
from mppigrad.problems import (
    LqrSpec,
    double_integrator,
    lqr_response,
    lqr_stage_cost,
    rollout,
)


def _spec_t1():
    return LqrSpec(
        a=[[1.0, 1.0], [0.0, 1.0]],
        b=[[0.5], [1.0]],
        q=[[2.0, 0.0], [0.0, 2.0]],
        r=[[2.0]],
        x0=[2.5, 0.0],
        horizon=1,
        u_min=[-1.0],
        u_max=[1.0],
        x_min=[-5.0, -1.0],
        x_max=[5.0, 1.0],
    )


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------


def test_lift_horizon_one_hand_formulas():
    spec = _spec_t1()
    lifted = qp.lift(spec)
    a, b, q, r = spec.a, spec.b, spec.q, spec.r
    np.testing.assert_allclose(lifted.lin_mat, b, atol=1e-15)
    # the state band is shifted by the free response A x0
    np.testing.assert_allclose(lifted.lin_lo, spec.x_min - a @ spec.x0, atol=1e-15)
    np.testing.assert_allclose(lifted.lin_hi, spec.x_max - a @ spec.x0, atol=1e-15)
    np.testing.assert_allclose(lifted.q, b.T @ q @ b + r, atol=1e-14)
    np.testing.assert_allclose(lifted.c, b.T @ q @ (a @ spec.x0), atol=1e-14)


def test_lift_zero_dynamics_reduces_to_control_penalty():
    spec = LqrSpec(
        a=np.zeros((2, 2)),
        b=np.zeros((2, 1)),
        q=[[2.0, 0.0], [0.0, 2.0]],
        r=[[3.0]],
        x0=[1.0, 1.0],
        horizon=4,
        u_min=[-1.0],
        u_max=[1.0],
        x_min=[-5.0, -5.0],
        x_max=[5.0, 5.0],
    )
    lifted = qp.lift(spec)
    np.testing.assert_allclose(lifted.q, 3.0 * np.eye(4), atol=1e-15)
    np.testing.assert_array_equal(lifted.c, np.zeros(4))


def test_lift_identity_on_random_controls():
    # the direct side steps the dynamics, sharing nothing with the lift's M
    spec = double_integrator()
    lifted = qp.lift(spec)
    assert lifted.q.shape == (10, 10)
    rng = np.random.default_rng(2)
    u = rng.uniform(-1.0, 1.0, size=(100, 10))
    direct = np.array(
        [
            sum(lqr_stage_cost(spec, x, c) for x, c in zip(rollout(spec, row)[1:], row[:, None]))
            for row in u
        ]
    )
    quad = 0.5 * np.einsum("ij,jk,ik->i", u, lifted.q, u) + u @ lifted.c + lifted.constant
    np.testing.assert_allclose(
        np.abs(direct - quad), 0.0, atol=1e-9 * (1.0 + np.abs(direct).max())
    )


def test_lift_states_match_affine_map():
    spec = double_integrator()
    lifted = qp.lift(spec)
    rng = np.random.default_rng(8)
    u = rng.uniform(-1, 1, 10)
    stacked = lifted.lin_mat @ u + lqr_response(spec)[1]
    rolled = rollout(spec, u)[1:].ravel()
    np.testing.assert_allclose(stacked, rolled, atol=1e-12)


# ---------------------------------------------------------------------------
# solve_reference / solve_verified
# ---------------------------------------------------------------------------


def test_solve_box_identity_center():
    prob = qp.QpProblem(q=np.eye(3), c=np.zeros(3), lb=-np.ones(3), ub=np.ones(3))
    sol = qp.solve_reference(prob)
    np.testing.assert_allclose(sol.u_star, np.zeros(3), atol=1e-8)
    assert sol.f_star == pytest.approx(0.0, abs=1e-12)


def test_solve_box_clipped_coordinate():
    c = np.zeros(3)
    c[0] = -3.0
    prob = qp.QpProblem(q=np.eye(3), c=c, lb=-np.ones(3), ub=np.ones(3))
    sol = qp.solve_reference(prob)
    assert sol.u_star[0] == pytest.approx(1.0, abs=1e-8)
    assert sol.f_star == pytest.approx(-2.5, abs=1e-8)


def test_solve_diagonal_matches_clipped_analytic_solution():
    """Diagonal Q on a box separates per coordinate: u* = clip(-c/q, lb, ub)."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        d = rng.uniform(0.2, 4.0, n)
        c = rng.uniform(-3.0, 3.0, n)
        lb = rng.uniform(-2.0, -0.5, n)
        ub = rng.uniform(0.5, 2.0, n)
        prob = qp.QpProblem(q=np.diag(d), c=c, lb=lb, ub=ub)
        sol = qp.solve_reference(prob)
        np.testing.assert_allclose(sol.u_star, np.clip(-c / d, lb, ub), atol=1e-7)
        assert prob.violation(sol.u_star) <= 1e-8


def _kkt_residual(prob, sol):
    """Largest of stationarity |Qu + c - G'lam|, complementarity |lam_i (Gu - h)_i|, violation."""
    u, lam, g = sol.u_star, sol.lam, prob.g
    slack = g @ u - prob.h
    return max(
        float(np.max(np.abs(prob.q @ u + prob.c - g.T @ lam))),
        float(np.max(np.abs(lam * slack), initial=0.0)),
        float(np.max(-slack, initial=0.0)),
    )


def test_reference_solution_on_benchmark_is_feasible_and_verified():
    lifted = qp.lift(double_integrator())
    sol = qp.solve_verified(lifted)
    ref = qp.solve_reference(lifted)
    assert lifted.violation(sol.u_star) <= 1e-8
    assert _kkt_residual(lifted, sol) <= 1e-8
    # the certificate returns the reference solution unchanged
    np.testing.assert_array_equal(sol.u_star, ref.u_star)
    assert sol.f_star == ref.f_star
    assert np.isnan(ref.duality_gap) and abs(sol.duality_gap) <= 1e-9
    assert sol.lam.shape == (lifted.h.size,) and sol.lam.min() >= 0.0
    # state constraints are genuinely active here: the unconstrained minimum
    # would violate the velocity band
    unconstrained = np.linalg.solve(lifted.q, -lifted.c)
    assert lifted.violation(unconstrained) > 1e-3


def test_solver_agrees_with_external_route_on_benchmark():
    lifted = qp.lift(double_integrator())
    ref = qp.solve_reference(lifted)
    res = minimize(
        lambda v: 0.5 * v @ lifted.q @ v + lifted.c @ v,
        np.full(lifted.dim, 0.3),
        jac=lambda v: lifted.q @ v + lifted.c,
        bounds=Bounds(lifted.lb, lifted.ub),
        constraints=[LinearConstraint(lifted.lin_mat, lifted.lin_lo, lifted.lin_hi)],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 2000},
    )
    assert abs(ref.f_star - res.fun) <= 1e-6 * (1.0 + abs(ref.f_star))


def _trust_constr_value(prob):
    """f* by scipy's interior trust-region method, which does not use `QpProblem.g`.

    The default barrier schedule stops up to 3e-5 (relative) above f* on the
    random problems below; a small starting barrier and `barrier_tol` keep it
    within 3e-7 on them.
    """
    constraints = []
    if prob.lin_mat is not None:
        constraints.append(LinearConstraint(prob.lin_mat, prob.lin_lo, prob.lin_hi))
    res = minimize(
        prob.value,
        np.clip(np.zeros(prob.dim), prob.lb, prob.ub),
        jac=lambda v: prob.q @ v + prob.c,
        hess=lambda v: prob.q,
        bounds=Bounds(prob.lb, prob.ub),
        constraints=constraints,
        method="trust-constr",
        options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 5000,
                 "initial_barrier_parameter": 1e-4, "barrier_tol": 1e-12},
    )
    return float(res.fun)


@pytest.mark.parametrize("horizon", [10, 30])
def test_reference_agrees_with_trust_constr_on_benchmark(horizon):
    lifted = qp.lift(double_integrator(horizon=horizon))
    f_ref = qp.solve_reference(lifted).f_star
    assert abs(f_ref - _trust_constr_value(lifted)) <= 1e-6 * (1.0 + abs(f_ref))


def test_reference_agrees_with_trust_constr_on_random_definite_qps():
    """Boxes and bands with some infinite bounds, checked by a route without `QpProblem.g`."""
    rng = np.random.default_rng(12)
    for _ in range(8):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        root = rng.normal(size=(n, n))
        a = rng.normal(size=(m, n))
        lb, ub = -rng.uniform(0.2, 2.0, n), rng.uniform(0.2, 2.0, n)
        center = a @ rng.uniform(lb, ub)
        lin_lo, lin_hi = center - rng.uniform(0.0, 1.0, m), center + rng.uniform(0.1, 1.0, m)
        lb[rng.random(n) < 0.3] = -np.inf
        ub[rng.random(n) < 0.3] = np.inf
        lin_lo[rng.random(m) < 0.3] = -np.inf
        lin_hi[rng.random(m) < 0.3] = np.inf
        prob = qp.QpProblem(
            q=root @ root.T + 0.1 * np.eye(n), c=rng.normal(scale=3.0, size=n),
            lb=lb, ub=ub, lin_mat=a, lin_lo=lin_lo, lin_hi=lin_hi,
        )
        sol = qp.solve_verified(prob)
        assert abs(sol.f_star - _trust_constr_value(prob)) <= 1e-6 * (1.0 + abs(sol.f_star))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda sol: dataclasses.replace(sol, u_star=sol.u_star + 1e-3),
        lambda sol: dataclasses.replace(sol, lam=2.0 * sol.lam),
        lambda sol: dataclasses.replace(sol, lam=np.full_like(sol.lam, np.nan)),
    ],
    ids=["shifted_u", "doubled_lam", "nan_lam"],
)
def test_certificate_rejects_a_wrong_solution(monkeypatch, corrupt):
    lifted = qp.lift(double_integrator())
    honest = qp.solve_reference
    monkeypatch.setattr(qp, "solve_reference", lambda prob: corrupt(honest(prob)))
    with pytest.raises(ConvergenceError, match="not certified") as err:
        qp.solve_verified(lifted)
    assert err.value.best.shape == (10,)
    assert not err.value.residual <= 1e-6


def test_infeasible_linear_constraints_detected():
    prob = qp.QpProblem(
        q=np.eye(1),
        c=np.zeros(1),
        lb=np.array([-1.0]),
        ub=np.array([1.0]),
        lin_mat=np.array([[1.0]]),
        lin_lo=np.array([10.0]),
        lin_hi=np.array([11.0]),
    )
    with pytest.raises(InfeasibleProblemError):
        qp.solve_reference(prob)


def test_nonconvergence_carries_best_iterate(monkeypatch):
    def capped(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(qp, "nnls", capped)
    lifted = qp.lift(double_integrator())
    projector = qp.FeasibleSetProjector(lifted)
    for solve in (lambda: qp.solve_reference(lifted), lambda: projector(np.full(10, 5.0))):
        with pytest.raises(ConvergenceError, match="NNLS") as err:
            solve()
        # NNLS leaves no iterate behind, so the one carried is all NaN
        assert err.value.best.shape == (10,)
        assert np.isnan(err.value.best).all()
        assert err.value.residual > 0


def test_singular_semidefinite_q_is_rejected():
    # Q = 0 passes QpProblem's semidefinite check but has no Cholesky factor
    prob = qp.QpProblem(q=np.zeros((2, 2)), c=np.ones(2), lb=-np.ones(2), ub=np.ones(2))
    with pytest.raises(NotSpdError, match="positive definite"):
        qp.solve_reference(prob)


def test_qp_problem_validation():
    with pytest.raises(NotSpdError, match="symmetric"):
        qp.QpProblem(
            q=np.array([[1.0, 0.5], [0.0, 1.0]]),
            c=np.zeros(2),
            lb=-np.ones(2),
            ub=np.ones(2),
        )
    with pytest.raises(NotSpdError, match="semidefinite"):
        qp.QpProblem(
            q=np.array([[1.0, 0.0], [0.0, -2.0]]),
            c=np.zeros(2),
            lb=-np.ones(2),
            ub=np.ones(2),
        )
    with pytest.raises(ValueError, match="shape"):
        qp.QpProblem(q=np.eye(2), c=np.zeros(3), lb=-np.ones(2), ub=np.ones(2))


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_projection_of_interior_point_is_identity():
    lifted = qp.lift(double_integrator())
    proj = qp.FeasibleSetProjector(lifted)
    inside = np.zeros(10)
    np.testing.assert_allclose(proj(inside), inside, atol=1e-7)


def test_projection_box_only_is_clipping():
    prob = qp.QpProblem(q=np.eye(4), c=np.zeros(4), lb=-np.ones(4), ub=np.ones(4))
    point = np.array([2.0, -3.0, 0.5, 1.0])
    proj = qp.FeasibleSetProjector(prob)
    np.testing.assert_allclose(proj(point), np.clip(point, -1, 1), atol=1e-7)


def test_projection_matches_scipy_on_benchmark_set():
    """LDP projection vs an independent solver on the full box+state set."""
    lifted = qp.lift(double_integrator())
    proj = qp.FeasibleSetProjector(lifted)
    rng = np.random.default_rng(4)
    for _ in range(3):
        p = rng.uniform(-2.0, 2.0, 10)
        ours = proj(p)
        res = minimize(
            lambda v: 0.5 * np.sum((v - p) ** 2),
            np.clip(p, lifted.lb, lifted.ub),
            jac=lambda v: v - p,
            bounds=Bounds(lifted.lb, lifted.ub),
            constraints=[LinearConstraint(lifted.lin_mat, lifted.lin_lo, lifted.lin_hi)],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 2000},
        )
        np.testing.assert_allclose(ours, res.x, atol=2e-5)
        assert lifted.violation(ours) <= 1e-6


def test_projector_is_reusable_across_points():
    lifted = qp.lift(double_integrator())
    proj = qp.FeasibleSetProjector(lifted)
    a = proj(np.full(10, 5.0))
    b = proj(np.full(10, 5.0))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# properties on random boxes and linear bands
# ---------------------------------------------------------------------------

TOL = 1e-9  # absolute, on data of order one


@st.composite
def box_and_band(draw, with_band=True):
    """A feasible QpProblem on a random box and band, plus a point to project.

    The band holds A u0 for a u0 inside the box, so the set is never empty.
    Zero widths make band rows equalities, at most n - 1 of them; every other
    row is open on both sides of u0.  So the set never shrinks to a point that
    only exact arithmetic can hit (`test_equality_and_tight_rows_pinning_a_point`
    covers point sets).
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5)) if with_band else 0
    rng = np.random.default_rng(seed)
    lb = -rng.uniform(0.0, 2.0, n)
    ub = rng.uniform(0.0, 2.0, n)
    lin = {}
    if m:
        a = rng.normal(size=(m, n))
        center = a @ rng.uniform(lb, ub)
        below, above = rng.choice([0.3, 1.0], (2, m))
        equality = rng.random(m) < 1.0 / 3.0
        equality[n - 1 :] = False
        below[equality] = above[equality] = 0.0
        lin = dict(lin_mat=a, lin_lo=center - below, lin_hi=center + above)
    prob = qp.QpProblem(q=np.eye(n), c=np.zeros(n), lb=lb, ub=ub, **lin)
    return prob, rng.uniform(-4.0, 4.0, n)


def test_equality_and_tight_rows_pinning_a_point():
    """An equality row and two rows tight at u0, opposed along its line, leave {u0}."""
    u0 = np.array([0.2, 0.1])
    a = np.array([[1.0, 0.3], [0.5, 1.0], [0.7, -1.0]])
    lo = a @ u0
    hi = lo + np.array([0.0, 1.0, 1.0])
    box = dict(lb=-np.ones(2), ub=np.ones(2), lin_mat=a, lin_lo=lo, lin_hi=hi)
    proj = qp.FeasibleSetProjector(qp.QpProblem(q=np.eye(2), c=np.zeros(2), **box))
    np.testing.assert_allclose(proj(np.array([0.9, -0.7])), u0, atol=TOL)
    rng = np.random.default_rng(3)
    for _ in range(200):
        root = rng.normal(size=(2, 2))
        q = root @ root.T + 0.1 * np.eye(2)
        prob = qp.QpProblem(q=q, c=rng.normal(scale=3.0, size=2), **box)
        sol = qp.solve_reference(prob)
        assert prob.violation(sol.u_star) <= TOL
        np.testing.assert_allclose(sol.u_star, u0, atol=1e-6)


@settings(max_examples=80, deadline=None)
@given(box_and_band())
def test_projection_is_idempotent(case):
    prob, point = case
    proj = qp.FeasibleSetProjector(prob)
    once = proj(point)
    np.testing.assert_allclose(proj(once), once, atol=TOL)


@settings(max_examples=80, deadline=None)
@given(box_and_band())
def test_projection_satisfies_kkt_conditions(case):
    """With G u >= h: lam >= 0, lam_i (G u - h)_i = 0 and u - p = G'lam."""
    prob, point = case
    g, h = prob.g, prob.h
    x, lam = qp._ldp(g, h - g @ point)
    u = qp.FeasibleSetProjector(prob)(point)
    np.testing.assert_array_equal(u, point + x)
    slack = g @ u - h
    assert lam.min() >= 0.0
    assert slack.min() >= -TOL
    assert np.abs(lam * slack).max() <= TOL * (1.0 + lam.max())
    np.testing.assert_allclose(u - point, g.T @ lam, atol=TOL)


@settings(max_examples=80, deadline=None)
@given(box_and_band(with_band=False), st.lists(st.booleans(), min_size=12, max_size=12))
def test_projection_onto_a_box_is_clipping(case, unbounded):
    prob, point = case
    n = prob.dim
    lb = np.where(unbounded[:n], -np.inf, prob.lb)
    ub = np.where(unbounded[6 : 6 + n], np.inf, prob.ub)
    box = qp.QpProblem(q=np.eye(n), c=np.zeros(n), lb=lb, ub=ub)
    np.testing.assert_allclose(qp.FeasibleSetProjector(box)(point), np.clip(point, lb, ub), atol=TOL)


@settings(max_examples=60, deadline=None)
@given(box_and_band(), st.integers(0, 2**32 - 1))
def test_reference_solve_satisfies_kkt_on_random_definite_q(case, seed):
    """Small KKT residual, and no feasible point does better than f*."""
    prob, _ = case
    n = prob.dim
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(n, n))
    definite = qp.QpProblem(
        q=root @ root.T + 0.1 * np.eye(n), c=rng.normal(scale=3.0, size=n),
        lb=prob.lb, ub=prob.ub, lin_mat=prob.lin_mat, lin_lo=prob.lin_lo, lin_hi=prob.lin_hi,
    )
    sol = qp.solve_reference(definite)
    scale = 1.0 + np.abs(definite.q).max() + np.abs(definite.c).max()
    assert _kkt_residual(definite, sol) <= 1e-8 * scale
    proj = qp.FeasibleSetProjector(definite)
    for p in rng.uniform(-4.0, 4.0, (20, n)):
        assert sol.f_star <= definite.value(proj(p)) + 1e-9 * scale
