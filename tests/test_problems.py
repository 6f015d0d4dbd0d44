"""Problem definitions: rollouts, costs, feasibility, and the two benchmarks."""

from functools import partial

import numpy as np
import pytest

from mppigrad import problems
from mppigrad.errors import DimensionMismatchError, InfeasibleProblemError
from mppigrad.problems import (
    DubinsSpec,
    LqrSpec,
    double_integrator,
    dubins_clear,
    dubins_evaluate_batch,
    dubins_problem,
    dubins_stage_cost,
    lqr_problem,
    lqr_stage_cost,
    rollout,
)


def stepwise_cost(problem, stage_cost, u):
    """Reference cost: the dynamics stepped one transition at a time."""
    controls = u.reshape(problem.horizon, problem.control_dim)
    return sum(stage_cost(x, c) for x, c in zip(rollout(problem, u)[1:], controls))


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


def test_lqr_zero_input_state_is_fixed():
    # A (2.5, 0) = (2.5, 0): zero input leaves the state pinned
    prob = lqr_problem(double_integrator())
    states = rollout(prob, np.zeros(10))
    assert states.shape == (11, 2)
    np.testing.assert_array_equal(states, np.tile([2.5, 0.0], (11, 1)))


def test_lqr_single_impulse_hand_value():
    prob = lqr_problem(double_integrator())
    u = np.zeros(10)
    u[0] = 1.0
    states = rollout(prob, u)
    np.testing.assert_allclose(states[1], [3.0, 1.0], rtol=0, atol=1e-15)


def test_dubins_straight_line_motion():
    spec = DubinsSpec(obstacles=np.empty((0, 3)))
    prob = dubins_problem(spec)
    states = rollout(prob, np.zeros(20))
    # heading pi/2: px frozen, py up by v*dt = 0.4 per step
    np.testing.assert_allclose(states[:, 0], 0.0, atol=1e-14)
    np.testing.assert_allclose(states[:, 1], 0.4 * np.arange(21), atol=1e-12)
    np.testing.assert_allclose(states[:, 2], np.pi / 2, atol=0)


def test_rollout_dimension_mismatch_names_lengths():
    prob = lqr_problem(double_integrator())
    with pytest.raises(DimensionMismatchError) as err:
        rollout(prob, np.zeros(7))
    assert err.value.expected == 10
    assert err.value.actual == 7
    assert "10" in str(err.value) and "7" in str(err.value)


def test_rollout_rejects_nonfinite_controls():
    prob = lqr_problem(double_integrator())
    u = np.zeros(10)
    u[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        rollout(prob, u)


def test_rollout_is_deterministic_bitwise():
    prob = lqr_problem(double_integrator())
    u = np.random.default_rng(0).uniform(-1, 1, 10)
    a = rollout(prob, u)
    b = rollout(prob, u)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# LQR objective / feasibility
# ---------------------------------------------------------------------------


def test_lqr_zero_control_cost_62_5():
    spec = double_integrator()
    assert lqr_problem(spec).batch_objective(np.zeros((1, 10)))[0] == pytest.approx(62.5, abs=1e-12)


def test_lqr_zero_state_zero_control_costs_nothing():
    spec = LqrSpec(
        a=[[1.0, 1.0], [0.0, 1.0]],
        b=[[0.5], [1.0]],
        q=[[2.0, 0.0], [0.0, 2.0]],
        r=[[2.0]],
        x0=[0.0, 0.0],
        horizon=10,
        u_min=[-1.0],
        u_max=[1.0],
        x_min=[-5.0, -1.0],
        x_max=[5.0, 1.0],
    )
    assert lqr_problem(spec).batch_objective(np.zeros((1, 10)))[0] == 0.0


def test_lqr_objective_matches_qp_lift_on_random_u():
    from mppigrad import qp

    spec = double_integrator()
    lifted = qp.lift(spec)
    rng = np.random.default_rng(11)
    u = rng.uniform(-1.0, 1.0, size=(100, 10))
    prob = lqr_problem(spec)
    direct = np.array([stepwise_cost(prob, partial(lqr_stage_cost, spec), row) for row in u])
    quad = 0.5 * np.einsum("ij,jk,ik->i", u, lifted.q, u) + u @ lifted.c + lifted.constant
    np.testing.assert_allclose(direct, quad, rtol=1e-10, atol=1e-10)


def test_lqr_problem_builds_when_the_lifted_hessian_is_singular():
    # two identical inputs and R = 0: Q_qp cannot tell them apart, so it is
    # singular; the evaluator must not need a factor of it
    from mppigrad import qp

    spec = LqrSpec(
        a=[[1.0, 1.0], [0.0, 1.0]],
        b=[[0.5, 0.5], [1.0, 1.0]],
        q=[[2.0, 0.0], [0.0, 2.0]],
        r=np.zeros((2, 2)),
        x0=[1.0, 0.0],
        horizon=4,
        u_min=[-1.0, -1.0],
        u_max=[1.0, 1.0],
        x_min=[-5.0, -1.0],
        x_max=[5.0, 1.0],
    )
    assert np.linalg.eigvalsh(qp.lift(spec).q).min() < 1e-10
    prob = lqr_problem(spec)
    U = np.random.default_rng(2).uniform(-0.3, 0.3, size=(20, 8))
    expected = [stepwise_cost(prob, partial(lqr_stage_cost, spec), row) for row in U]
    np.testing.assert_allclose(prob.batch_objective(U), expected, rtol=1e-12, atol=1e-14)


def test_lqr_feasibility_box_and_state_bounds():
    spec = double_integrator()
    prob = lqr_problem(spec)
    bad = np.zeros(10)
    bad[0] = 1.5  # violates |u| <= 1
    # constant max thrust drives velocity past the x_max bound of 1
    flags = prob.batch_feasible(np.vstack([np.zeros(10), bad, np.ones(10)]))
    np.testing.assert_array_equal(flags, [True, False, False])


def test_lqr_batch_paths_agree_with_scalar_paths():
    spec = double_integrator()
    prob = lqr_problem(spec)
    rng = np.random.default_rng(5)
    U = rng.uniform(-1, 1, size=(20, 10))
    batch_costs = prob.batch_objective(U)
    batch_flags = prob.batch_feasible(U)
    for row, cost, flag in zip(U, batch_costs, batch_flags):
        assert prob.batch_objective(row[None, :])[0] == pytest.approx(cost, rel=1e-12)
        assert prob.batch_feasible(row[None, :])[0] == flag


def test_lqr_one_pass_evaluator_matches_stepwise_rollout():
    # uniform draws from the control box: many rows break the state bounds
    spec = double_integrator()
    prob = lqr_problem(spec)
    rng = np.random.default_rng(23)
    U = rng.uniform(spec.u_min[0], spec.u_max[0], size=(400, 10))
    costs, flags = prob.evaluate_batch(U)
    stage = partial(lqr_stage_cost, spec)
    expected_costs = [stepwise_cost(prob, stage, row) for row in U]
    expected_flags = []
    for row in U:
        states = rollout(prob, row)[1:]
        in_box = np.all((row >= spec.u_min) & (row <= spec.u_max))
        expected_flags.append(in_box and np.all((states >= spec.x_min) & (states <= spec.x_max)))
    np.testing.assert_allclose(costs, expected_costs, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(flags, expected_flags)
    assert 0.05 < flags.mean() < 0.5


# ---------------------------------------------------------------------------
# Dubins objective / feasibility
# ---------------------------------------------------------------------------


def test_dubins_one_pass_evaluator_matches_stepwise_rollout():
    spec = DubinsSpec()
    prob = dubins_problem(spec)
    rng = np.random.default_rng(29)
    W = rng.uniform(-spec.w_max, spec.w_max, size=(300, 20))
    W[::5, 7] = 1.02 * spec.w_max  # every fifth row breaks the rate bound
    costs, flags = prob.evaluate_batch(W)
    stage = partial(dubins_stage_cost, spec)
    expected_costs = [stepwise_cost(prob, stage, row) for row in W]
    expected_flags = [
        np.all(np.abs(row) <= spec.w_max)
        and all(dubins_clear(spec, x) for x in rollout(prob, row)[1:])
        for row in W
    ]
    np.testing.assert_allclose(costs, expected_costs, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(flags, expected_flags)
    assert 0.1 < flags.mean() < 0.8


def test_feasible_search_picks_the_first_feasible_candidate_in_order():
    # the obstacle sits ahead and a little left: no turning collides, and
    # several constant turns clear it, so the search order decides the pick
    spec = DubinsSpec(obstacles=np.array([[-0.3, 2.0, 1.0]]), horizon=10)
    blocked = np.zeros(10)
    candidates = [blocked, np.zeros(10)] + [
        np.full(10, sign * frac * spec.w_max) for frac in (0.25, 0.5, 0.75, 1.0) for sign in (1, -1)
    ]
    one_at_a_time = [bool(dubins_evaluate_batch(spec, c[None, :])[1][0]) for c in candidates]
    assert not one_at_a_time[0] and sum(one_at_a_time) > 1
    first = candidates[one_at_a_time.index(True)]
    prob = dubins_problem(spec, known_candidate=blocked)
    np.testing.assert_array_equal(prob.known_feasible, first)


def test_dubins_parked_at_target_costs_nothing():
    spec = DubinsSpec(
        speed=0.0,
        x0=np.array([6.0, 6.0, 0.0]),
        target=np.array([6.0, 6.0, 0.0]),
        obstacles=np.empty((0, 3)),
    )
    cost = dubins_evaluate_batch(spec, np.zeros((1, 20)))[0][0]
    assert cost == 0.0


def test_dubins_single_step_control_term():
    spec = DubinsSpec(horizon=1, obstacles=np.empty((0, 3)))
    w0 = 0.7
    cost = dubins_evaluate_batch(spec, np.array([[w0]]))[0][0]
    state = problems.dubins_states_batch(spec, np.array([[w0]]))[0, 0]
    err = state - spec.target
    expected = err**2 @ spec.q_weights + 0.001 * w0**2
    assert cost == pytest.approx(expected, rel=1e-12)
    # and the control term is really in there
    assert cost - dubins_evaluate_batch(spec, np.zeros((1, 1)))[0][0] != 0.0


def test_dubins_obstacle_hit_is_infeasible():
    # one obstacle sitting directly on the straight-ahead path
    spec = DubinsSpec(obstacles=np.array([[0.0, 2.0, 0.5]]))
    flags = dubins_evaluate_batch(spec, np.zeros((1, 20)))[1]
    assert not flags[0]


def test_dubins_turn_rate_bound_is_checked():
    spec = DubinsSpec(obstacles=np.empty((0, 3)))
    w = np.zeros((1, 20))
    w[0, 4] = spec.w_max * 1.01
    assert not dubins_evaluate_batch(spec, w)[1][0]


def test_feasibility_monotone_under_obstacle_removal():
    full = DubinsSpec()
    reduced = DubinsSpec(obstacles=full.obstacles[:-2])
    rng = np.random.default_rng(19)
    W = rng.uniform(-full.w_max, full.w_max, size=(200, 20))
    with_all = dubins_evaluate_batch(full, W)[1]
    with_fewer = dubins_evaluate_batch(reduced, W)[1]
    # removing obstacles can only enlarge the feasible set
    assert np.all(with_fewer >= with_all)


def test_dubins_batch_rollout_matches_scalar_dynamics():
    spec = DubinsSpec(obstacles=np.empty((0, 3)))
    prob = dubins_problem(spec)
    rng = np.random.default_rng(3)
    w = rng.uniform(-1.0, 1.0, 20)
    scalar_states = rollout(prob, w)[1:]
    batch_states = problems.dubins_states_batch(spec, w[None, :])[0]
    np.testing.assert_allclose(batch_states, scalar_states, rtol=1e-12, atol=1e-12)


def test_dubins_clear_single_state():
    spec = DubinsSpec()
    assert problems.dubins_clear(spec, np.array([0.0, 0.0, 0.0]))
    inside = np.array([0.6, 5.4, 1.0])  # center of the first wall circle
    assert not problems.dubins_clear(spec, inside)


# ---------------------------------------------------------------------------
# construction-time validation
# ---------------------------------------------------------------------------


def square_problem(evaluate, known_feasible):
    return problems.TrajectoryProblem(
        control_dim=1,
        horizon=2,
        initial_state=np.zeros(1),
        dynamics=lambda x, u: x + u,
        evaluate=evaluate,
        known_feasible=known_feasible,
    )


def test_trajectory_problem_rejects_infeasible_certificate():
    never = lambda U: (np.einsum("ij,ij->i", U, U), np.zeros(U.shape[0], bool))
    for certificate in (np.zeros(2), np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 2.0]])):
        with pytest.raises(InfeasibleProblemError):
            square_problem(never, certificate)


def test_trajectory_problem_rejects_nonfinite_objective_on_certificate():
    with pytest.raises(ValueError, match="finite"):
        square_problem(lambda U: (np.full(U.shape[0], np.inf), np.ones(U.shape[0], bool)), np.zeros(2))
    # a stack: the first row is infeasible, the first feasible one costs +inf,
    # and a finite feasible row after it does not rescue the certificate
    stack = np.array([[5.0, 5.0], [1.0, 1.0], [0.0, 0.0]])
    evaluate = lambda U: (np.where(U[:, 0] == 1.0, np.inf, 0.0), U[:, 0] < 2.0)
    with pytest.raises(ValueError, match="finite"):
        square_problem(evaluate, stack)
    np.testing.assert_array_equal(square_problem(evaluate, stack[[0, 2]]).known_feasible, [0.0, 0.0])


def test_dubins_build_scores_its_certificate_once(monkeypatch):
    calls = []
    real = problems.dubins_evaluate_batch
    monkeypatch.setattr(
        problems, "dubins_evaluate_batch", lambda spec, U: calls.append(len(U)) or real(spec, U)
    )
    for candidate in (None, np.zeros(20)):
        calls.clear()
        dubins_problem(DubinsSpec(), known_candidate=candidate)
        assert len(calls) == 1


def test_lqr_spec_validates_stage_matrices():
    with pytest.raises(ValueError, match="symmetric"):
        LqrSpec(
            a=np.eye(2),
            b=[[0.5], [1.0]],
            q=[[1.0, 0.3], [0.0, 1.0]],
            r=[[1.0]],
            x0=[0.0, 0.0],
            horizon=3,
            u_min=[-1.0],
            u_max=[1.0],
            x_min=[-5.0, -5.0],
            x_max=[5.0, 5.0],
        )
    with pytest.raises(ValueError, match="positive semidefinite"):
        LqrSpec(
            a=np.eye(2),
            b=[[0.5], [1.0]],
            q=[[-1.0, 0.0], [0.0, 1.0]],
            r=[[1.0]],
            x0=[0.0, 0.0],
            horizon=3,
            u_min=[-1.0],
            u_max=[1.0],
            x_min=[-5.0, -5.0],
            x_max=[5.0, 5.0],
        )


def test_dubins_spec_validation():
    with pytest.raises(ValueError):
        DubinsSpec(dt=0.0)
    with pytest.raises(ValueError):
        DubinsSpec(speed=-1.0)
    with pytest.raises(ValueError, match="cx, cy, radius"):
        DubinsSpec(obstacles=np.ones((2, 4)))


def test_dubins_problem_feasible_search_uses_candidate():
    # a wall dead ahead: zero turning collides, but a caller-supplied hard
    # right turn is feasible and should be adopted as the certificate
    spec = DubinsSpec(obstacles=np.array([[0.0, 2.0, 1.0]]), horizon=10)
    candidate = np.full(10, -0.9 * spec.w_max)
    assert dubins_evaluate_batch(spec, candidate[None, :])[1][0]
    prob = dubins_problem(spec, known_candidate=candidate)
    np.testing.assert_array_equal(prob.known_feasible, candidate)
    # a non-finite or misshapen candidate is skipped, not an error
    default = dubins_problem(spec).known_feasible
    for bad in (np.full(10, np.nan), np.zeros(3)):
        np.testing.assert_array_equal(dubins_problem(spec, known_candidate=bad).known_feasible, default)


def test_dubins_problem_raises_when_boxed_in():
    # start inside an obstacle: every rolled-out state is in collision
    spec = DubinsSpec(obstacles=np.array([[0.0, 0.0, 50.0]]), horizon=5)
    with pytest.raises(InfeasibleProblemError):
        dubins_problem(spec)


# ---------------------------------------------------------------------------
# reference equivalence: the row-major evaluators the batch forms replaced
# ---------------------------------------------------------------------------


def row_major_lqr_evaluate(lifted, controls):
    """Box and band checked row by row, reduced along each 10- or 20-wide row."""
    quad = np.einsum("ij,ij->i", controls @ lifted.q, controls)
    costs = 0.5 * quad + controls @ lifted.c + lifted.constant
    band = controls @ lifted.lin_mat.T
    ok = ((controls >= lifted.lb) & (controls <= lifted.ub)).all(axis=1)
    ok &= ((band >= lifted.lin_lo) & (band <= lifted.lin_hi)).all(axis=1)
    return costs, ok


def stacked_dubins_states(spec, W):
    """Three separate cumsums, then an (N, T, 3) stack."""
    theta = spec.x0[2] + spec.dt * np.cumsum(W, axis=1)
    theta_path = np.concatenate([np.full((W.shape[0], 1), spec.x0[2]), theta[:, :-1]], axis=1)
    px = spec.x0[0] + spec.speed * spec.dt * np.cumsum(np.cos(theta_path), axis=1)
    py = spec.x0[1] + spec.speed * spec.dt * np.cumsum(np.sin(theta_path), axis=1)
    return np.stack([px, py, theta], axis=2)


def stacked_dubins_evaluate(spec, W):
    X = stacked_dubins_states(spec, W)
    err = X - spec.target
    costs = (err**2 @ spec.q_weights).sum(axis=1) + spec.r_weight * (W**2).sum(axis=1)
    ok = np.abs(W) <= spec.w_max
    px, py = X[:, :, 0], X[:, :, 1]
    for cx, cy, radius in spec.obstacles:
        ok &= (px - cx) ** 2 + (py - cy) ** 2 > radius**2
    return costs, ok.all(axis=1)


def _with_edge_rows(batch, edge_rows):
    """Overwrite the first rows of a batch with edge cases (as many as fit)."""
    batch = batch.copy()
    k = min(len(batch), len(edge_rows))
    batch[:k] = edge_rows[:k]
    return batch


# u_0 = 1 sits on the control box and drives the velocity exactly onto its
# band bound (v_1 = 1); [0.5, 0.5] meets the band bound (v_2 = 1) from inside
# the box; the next two rows sit one ulp past those bounds
LQR_EDGE_ROWS = np.array(
    [
        [1.0, -1.0] + [0.0] * 8,
        [0.5, 0.5, -0.5, -0.5] + [0.0] * 6,
        [np.nextafter(1.0, 2.0), -1.0] + [0.0] * 8,
        [0.5, 0.5 + 2.0**-52, -0.5, -0.5] + [0.0] * 6,  # v_2 = nextafter(1, 2)
        [0.0, np.nan] + [0.0] * 8,
        [np.inf] + [0.0] * 9,
        [0.0] * 9 + [-np.inf],
        [0.3, np.inf, -np.inf] + [0.0] * 7,
    ]
)


@pytest.mark.parametrize("n", [1, 9, 128, 1000])
def test_lqr_constraint_major_check_equals_the_row_major_one_bitwise(n):
    from mppigrad import qp

    spec = double_integrator()
    lifted = qp.lift(spec)
    prob = lqr_problem(spec, lifted)
    rng = np.random.default_rng(n)
    for scale in (0.05, 0.4, 1.5):
        batch = _with_edge_rows(rng.normal(0.0, scale, (n, 10)), LQR_EDGE_ROWS[::-1])
        with np.errstate(invalid="ignore", over="ignore"):
            costs, flags = prob.evaluate_batch(batch)
            want_costs, want_flags = row_major_lqr_evaluate(lifted, batch)
        assert np.array_equal(costs, want_costs, equal_nan=True)
        assert np.array_equal(flags, want_flags)
    with np.errstate(invalid="ignore", over="ignore"):
        flags = prob.batch_feasible(LQR_EDGE_ROWS)
    assert flags.tolist() == [True, True] + [False] * 6


@pytest.mark.parametrize("obstacles", [DubinsSpec().obstacles, np.empty((0, 3))],
                         ids=["desk_obstacles", "no_obstacles"])
@pytest.mark.parametrize("n", [1, 9, 128, 1000])
def test_dubins_one_buffer_rollout_equals_the_stacked_one_bitwise(n, obstacles):
    spec = DubinsSpec(obstacles=obstacles)
    edge = np.zeros((4, spec.horizon))
    edge[0] = spec.w_max  # on the rate bound
    edge[1, 3] = np.nan
    edge[2, 0] = np.inf
    edge[3, 5] = -np.inf
    rng = np.random.default_rng(n)
    for scale in (0.3, 2.0, 8.0):
        batch = _with_edge_rows(rng.normal(0.0, scale, (n, spec.horizon)), edge)
        with np.errstate(invalid="ignore", over="ignore"):
            costs, flags = dubins_evaluate_batch(spec, batch)
            want_costs, want_flags = stacked_dubins_evaluate(spec, batch)
            states = problems.dubins_states_batch(spec, batch)
            want_states = stacked_dubins_states(spec, batch)
        assert np.array_equal(costs, want_costs, equal_nan=True)
        assert np.array_equal(flags, want_flags)
        assert np.array_equal(states, want_states, equal_nan=True)
