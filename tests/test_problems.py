"""Problem definitions: rollouts, costs, feasibility, and the two benchmarks."""

import dataclasses
import inspect
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from mppigrad import problems
from mppigrad.errors import DimensionMismatchError, InfeasibleProblemError
from mppigrad.problems import (
    DubinsSpec,
    LqrSpec,
    TrajectoryProblem,
    double_integrator,
    dubins_clear,
    dubins_evaluate_batch,
    dubins_problem,
    dubins_stage_cost,
    lqr_problem,
    lqr_stage_cost,
    rollout,
)
from mppigrad.qp import lift


def stepwise_cost(spec, stage_cost, u):
    """Reference cost: the spec's dynamics stepped one transition at a time."""
    controls = u.reshape(spec.horizon, spec.control_dim)
    return sum(stage_cost(x, c) for x, c in zip(rollout(spec, u)[1:], controls))


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


def test_lqr_zero_input_state_is_fixed():
    # A (2.5, 0) = (2.5, 0): zero input leaves the state pinned
    states = rollout(double_integrator(), np.zeros(10))
    assert states.shape == (11, 2)
    np.testing.assert_array_equal(states, np.tile([2.5, 0.0], (11, 1)))


def test_lqr_single_impulse_hand_value():
    u = np.zeros(10)
    u[0] = 1.0
    states = rollout(double_integrator(), u)
    np.testing.assert_allclose(states[1], [3.0, 1.0], rtol=0, atol=1e-15)


def test_dubins_straight_line_motion():
    states = rollout(DubinsSpec(obstacles=np.empty((0, 3))), np.zeros(20))
    # heading pi/2: px frozen, py up by v*dt = 0.4 per step
    np.testing.assert_allclose(states[:, 0], 0.0, atol=1e-14)
    np.testing.assert_allclose(states[:, 1], 0.4 * np.arange(21), atol=1e-12)
    np.testing.assert_allclose(states[:, 2], np.pi / 2, atol=0)


def test_rollout_dimension_mismatch_names_lengths():
    with pytest.raises(DimensionMismatchError) as err:
        rollout(double_integrator(), np.zeros(7))
    assert err.value.expected == 10
    assert err.value.actual == 7
    assert "10" in str(err.value) and "7" in str(err.value)


def test_rollout_rejects_nonfinite_controls():
    u = np.zeros(10)
    u[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        rollout(double_integrator(), u)


def test_rollout_is_deterministic_bitwise():
    spec = double_integrator()
    u = np.random.default_rng(0).uniform(-1, 1, 10)
    a = rollout(spec, u)
    b = rollout(spec, u)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# LQR objective / feasibility
# ---------------------------------------------------------------------------


def test_lqr_zero_control_cost_62_5():
    prob = lqr_problem(lift(double_integrator()))
    assert prob.batch_objective(np.zeros((1, 10)))[0] == pytest.approx(62.5, abs=1e-12)


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
    assert lqr_problem(lift(spec)).batch_objective(np.zeros((1, 10)))[0] == 0.0


def test_lqr_objective_matches_qp_lift_on_random_u():
    spec = double_integrator()
    lifted = lift(spec)
    rng = np.random.default_rng(11)
    u = rng.uniform(-1.0, 1.0, size=(100, 10))
    direct = np.array([stepwise_cost(spec, partial(lqr_stage_cost, spec), row) for row in u])
    quad = 0.5 * np.einsum("ij,jk,ik->i", u, lifted.q, u) + u @ lifted.c + lifted.constant
    np.testing.assert_allclose(direct, quad, rtol=1e-10, atol=1e-10)


def test_lqr_problem_builds_when_the_lifted_hessian_is_singular():
    # two identical inputs and R = 0: Q_qp cannot tell them apart, so it is
    # singular; the evaluator must not need a factor of it
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
    assert np.linalg.eigvalsh(lift(spec).q).min() < 1e-10
    prob = lqr_problem(lift(spec))
    U = np.random.default_rng(2).uniform(-0.3, 0.3, size=(20, 8))
    expected = [stepwise_cost(spec, partial(lqr_stage_cost, spec), row) for row in U]
    np.testing.assert_allclose(prob.batch_objective(U), expected, rtol=1e-12, atol=1e-14)


def test_lqr_feasibility_box_and_state_bounds():
    prob = lqr_problem(lift(double_integrator()))
    bad = np.zeros(10)
    bad[0] = 1.5  # violates |u| <= 1
    # constant max thrust drives velocity past the x_max bound of 1
    flags = prob.batch_feasible(np.vstack([np.zeros(10), bad, np.ones(10)]))
    np.testing.assert_array_equal(flags, [True, False, False])


def test_lqr_batch_paths_agree_with_scalar_paths():
    prob = lqr_problem(lift(double_integrator()))
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
    prob = lqr_problem(lift(spec))
    rng = np.random.default_rng(23)
    U = rng.uniform(spec.u_min[0], spec.u_max[0], size=(400, 10))
    costs, flags = prob.evaluate_batch(U)
    stage = partial(lqr_stage_cost, spec)
    expected_costs = [stepwise_cost(spec, stage, row) for row in U]
    expected_flags = []
    for row in U:
        states = rollout(spec, row)[1:]
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
    expected_costs = [stepwise_cost(spec, stage, row) for row in W]
    expected_flags = [
        np.all(np.abs(row) <= spec.w_max)
        and all(dubins_clear(spec, x) for x in rollout(spec, row)[1:])
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
    pos, heading = problems._dubins_rollout(spec, np.array([[w0]]))
    state = np.array([pos[0, 0, 0], pos[1, 0, 0], heading[0, 0]])
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
    rng = np.random.default_rng(3)
    w = rng.uniform(-1.0, 1.0, 20)
    scalar_states = rollout(spec, w)[1:]
    pos, heading = problems._dubins_rollout(spec, w[None, :])
    batch_states = np.column_stack([pos[0, 0], pos[1, 0], heading[0]])
    np.testing.assert_allclose(batch_states, scalar_states, rtol=1e-12, atol=1e-12)


def test_dubins_clear_single_state():
    spec = DubinsSpec()
    assert problems.dubins_clear(spec, np.array([0.0, 0.0, 0.0]))
    inside = np.array([0.6, 5.4, 1.0])  # center of the first wall circle
    assert not problems.dubins_clear(spec, inside)


# ---------------------------------------------------------------------------
# construction-time validation
# ---------------------------------------------------------------------------


def test_trajectory_problem_rejects_infeasible_certificate():
    never = lambda U: (np.einsum("ij,ij->i", U, U), np.zeros(U.shape[0], bool))
    for certificate in (np.zeros(2), np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 2.0]])):
        with pytest.raises(InfeasibleProblemError):
            TrajectoryProblem(never, certificate)


def test_trajectory_problem_rejects_nonfinite_objective_on_certificate():
    never_finite = lambda U: (np.full(U.shape[0], np.inf), np.ones(U.shape[0], bool))
    with pytest.raises(InfeasibleProblemError, match="finite"):
        TrajectoryProblem(never_finite, np.zeros(2))
    # a stack: the first row is infeasible, the first feasible one costs +inf,
    # and a finite feasible row after it does not rescue the certificate
    stack = np.array([[5.0, 5.0], [1.0, 1.0], [0.0, 0.0]])
    evaluate = lambda U: (np.where(U[:, 0] == 1.0, np.inf, 0.0), U[:, 0] < 2.0)
    with pytest.raises(InfeasibleProblemError, match="finite"):
        TrajectoryProblem(evaluate, stack)
    prob = TrajectoryProblem(evaluate, stack[[0, 2]])
    np.testing.assert_array_equal(prob.known_feasible, [0.0, 0.0])


def test_trajectory_problem_takes_its_dimension_from_its_certificate():
    only_row_two = lambda U: (U.sum(axis=1), U[:, 0] > 0.0)
    stack = np.array([[-1.0, 0.0, 0.0, 0.0], [2.0, 1.0, 0.0, -1.0]])
    prob = TrajectoryProblem(only_row_two, known_feasible=stack)
    np.testing.assert_array_equal(prob.known_feasible, stack[1])
    assert prob.n_controls == 4
    with pytest.raises(ValueError, match="3-D"):
        TrajectoryProblem(only_row_two, known_feasible=stack[None])


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


def test_lqr_spec_accepts_equal_bounds_that_pin_a_coordinate():
    pinned = dataclasses.replace(
        double_integrator(), u_min=[0.5], u_max=[0.5], x_min=[-5.0, 0.0], x_max=[5.0, 0.0]
    )
    assert pinned.u_min[0] == pinned.u_max[0] and pinned.x_min[1] == pinned.x_max[1]
    with pytest.raises(ValueError, match="u_min must not exceed u_max: coordinate 0"):
        dataclasses.replace(pinned, u_min=[np.nextafter(0.5, 1.0)])


def test_dubins_spec_validation():
    with pytest.raises(ValueError):
        DubinsSpec(dt=0.0)
    with pytest.raises(ValueError):
        DubinsSpec(speed=-1.0)
    with pytest.raises(ValueError, match="cx, cy, radius"):
        DubinsSpec(obstacles=np.ones((2, 4)))
    with pytest.raises(ValueError, match="r_weight must be non-negative"):
        DubinsSpec(r_weight=-5e-324)
    with pytest.raises(ValueError, match="q_weights must be non-negative"):
        DubinsSpec(q_weights=[1.0, 1.0, -0.01])
    DubinsSpec(r_weight=0.0, q_weights=[0.0, 0.0, 0.0])  # zero weights stay legal
    # the largest control cost r_weight * w_max^2 * horizon must be finite, formed as the
    # evaluators form it (w^2 before r_weight), so a zero weight hides no overflowing w_max^2
    overflowing = ({"r_weight": 1e308}, {"w_max": 1e308},
                   {"r_weight": 1.0, "w_max": 1e150, "horizon": 10**10},
                   {"r_weight": 0.0, "w_max": 1e308})
    for fields in overflowing:
        with pytest.raises(ValueError, match="largest control cost .* is not finite"):
            DubinsSpec(**fields)
    DubinsSpec(r_weight=0.0, w_max=1e150)  # zero control cost at any finite w_max^2 * horizon
    DubinsSpec(r_weight=1.0, w_max=1e150, horizon=20)


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
    lifted = lift(double_integrator())
    prob = lqr_problem(lifted)
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


def _edge_cases():
    """(spec, controls, flag): a box or band bound met exactly, then passed by one ulp."""
    desk = double_integrator()
    wide = dataclasses.replace(desk, x_min=[-5.0, -2.0], x_max=[5.0, 2.0])  # u alone binds
    up, down = np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)
    zeros = [0.0] * 10
    yield wide, [1.0, -1.0] + zeros[2:], True  # u_0 = u_max
    yield wide, [up, -1.0] + zeros[2:], False
    yield wide, zeros[1:] + [-1.0], True  # u_9 = u_min
    yield wide, zeros[1:] + [down], False
    yield desk, [0.5, 0.5, -0.5, -0.5] + zeros[4:], True  # v_2 = x_max[1]
    yield desk, [0.5, 0.5 + 2.0**-52, -0.5, -0.5] + zeros[4:], False  # v_2 = nextafter(1, 2)
    yield desk, [-0.5, -0.5, 0.5, 0.5] + zeros[4:], True  # v_2 = x_min[1]
    yield desk, [-0.5, -0.5 - 2.0**-52, 0.5, 0.5] + zeros[4:], False
    # p_1 = p_2 = 2.75 = x_max[0], then the position falls; and the bound one ulp lower
    braking = [0.5, -1.0] + zeros[2:]
    yield dataclasses.replace(desk, x_max=[2.75, 1.0]), braking, True
    yield dataclasses.replace(desk, x_max=[np.nextafter(2.75, 0.0), 1.0]), braking, False


@pytest.mark.parametrize("n", [1, 9, 1000])
def test_lqr_stacked_rows_flag_box_and_band_edges_as_the_rollout_does(n):
    # each case alone and tiled through a batch of n rows (one row takes numpy's
    # matrix-vector route); costs and flags against the stepwise rollout
    for spec, controls, flag in _edge_cases():
        u = np.array(controls)
        states = rollout(spec, u)[1:]
        in_box = bool(np.all((u >= spec.u_min) & (u <= spec.u_max)))
        in_band = bool(np.all((states >= spec.x_min) & (states <= spec.x_max)))
        assert (in_box and in_band) == flag
        prob = lqr_problem(lift(spec))
        costs, flags = prob.evaluate_batch(np.tile(u, (n, 1)))
        assert flags.tolist() == [flag] * n
        want = stepwise_cost(spec, partial(lqr_stage_cost, spec), u)
        np.testing.assert_allclose(costs, want, rtol=1e-12, atol=0)


def _assert_equals_row_major(prob, lifted, batch):
    with np.errstate(invalid="ignore", over="ignore"):
        costs, flags = prob.evaluate_batch(batch)
        want_costs, want_flags = row_major_lqr_evaluate(lifted, batch)
    assert np.array_equal(costs, want_costs, equal_nan=True)
    assert np.array_equal(flags, want_flags)


# the sampler's N, the cell record's K+1 and FD's n+1 sizes, and the certificate's 1
ALTERNATING_SIZES = (1000, 251, 11, 1, 1000, 11, 251, 1)


def test_lqr_bound_blocks_follow_the_batch_size_bitwise():
    lifted = lift(double_integrator())
    prob = lqr_problem(lifted)
    rng = np.random.default_rng(22)
    for n in ALTERNATING_SIZES:
        batch = _with_edge_rows(rng.normal(0.0, 0.4, (n, 10)), LQR_EDGE_ROWS)
        _assert_equals_row_major(prob, lifted, batch)
    bound_blocks = inspect.getclosurevars(prob.evaluate).nonlocals["bound_blocks"]
    n_rows = lifted.dim + lifted.lin_mat.shape[0]
    for n in set(ALTERNATING_SIZES):
        for block in bound_blocks(n):
            assert block.shape == (n_rows, n) and block.flags.c_contiguous
            assert not block.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0.0


def test_lqr_bound_blocks_are_shared_by_threads():
    lifted = lift(double_integrator())
    prob = lqr_problem(lifted)
    rng = np.random.default_rng(23)
    batches = [
        _with_edge_rows(rng.normal(0.0, 0.4, (n, 10)), LQR_EDGE_ROWS)
        for n in ALTERNATING_SIZES * 4
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [
                pool.submit(_assert_equals_row_major, prob, lifted, batch)
                for batch in batches[::-1] + batches
            ]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("obstacles", [DubinsSpec().obstacles, np.empty((0, 3))],
                         ids=["desk_obstacles", "no_obstacles"])
@pytest.mark.parametrize("n", [1, 9, 128, 1000])
def test_dubins_one_buffer_rollout_equals_the_stacked_one_bitwise(n, obstacles):
    specs = (
        DubinsSpec(obstacles=obstacles),
        # theta_0 = -0.0 (sin gives -0.0) from a signed-zero start; a one-step horizon
        DubinsSpec(obstacles=obstacles, x0=[-0.0, -0.0, -0.0], target=[-0.0, 1.0, 0.0]),
        DubinsSpec(obstacles=obstacles, horizon=1),
    )
    rng = np.random.default_rng(n)
    for spec in specs:
        edge = np.zeros((4, spec.horizon))
        edge[0] = spec.w_max  # on the rate bound
        edge[1, min(3, spec.horizon - 1)] = np.nan
        edge[2, 0] = np.inf
        edge[3, min(5, spec.horizon - 1)] = -np.inf
        for scale in (0.3, 2.0, 8.0):
            batch = _with_edge_rows(rng.normal(0.0, scale, (n, spec.horizon)), edge)
            with np.errstate(invalid="ignore", over="ignore"):
                pos, heading = problems._dubins_rollout(spec, batch)
                costs, flags = dubins_evaluate_batch(spec, batch)
                want_states = stacked_dubins_states(spec, batch)
                want_costs, want_flags = stacked_dubins_evaluate(spec, batch)
            assert pos.shape == (2, n, spec.horizon) and heading.shape == (n, spec.horizon)
            for got, want in ((pos[0], want_states[:, :, 0]), (pos[1], want_states[:, :, 1]),
                              (heading, want_states[:, :, 2])):
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()
            assert np.array_equal(costs, want_costs, equal_nan=True)
            assert np.array_equal(flags, want_flags)


# ---------------------------------------------------------------------------
# the obstacle broad phase against testing every disc
# ---------------------------------------------------------------------------


def _broad_phase_cases():
    """(spec, batch) params; the reference tests every disc at every point."""
    rng = np.random.default_rng(28)
    horizon = 12
    edge = np.zeros((3, horizon))
    edge[0, 4] = np.nan  # a NaN row from step 5 on
    edge[1, 0] = np.inf
    edge[2, 7] = -np.inf

    def batch(n, scale=1.0, edge_rows=np.empty((0, horizon))):
        return _with_edge_rows(rng.normal(0.0, scale, (n, horizon)), edge_rows)

    near_path = [[0.0, 2.0, 1.0], [0.5, 4.0, 0.3]]  # straddled by the batch's box
    far = [[50.0, 0.0, 1.0], [-40.0, 3.0, 2.0], [0.0, 60.0, 0.5], [1.0e308, -1.0e308, 1.0]]
    cases = []
    for name, obstacles in (("far_discs", far), ("straddled_discs", near_path),
                            ("far_and_straddled", far + near_path)):
        spec = DubinsSpec(horizon=horizon, obstacles=obstacles)
        for n in (1, 128):
            for scale in (0.3, 4.0):
                cases.append(pytest.param(spec, batch(n, scale), id=f"{name}-n{n}-s{scale}"))
        cases.append(pytest.param(spec, batch(16, 2.0, edge), id=f"{name}-edge_rows"))
        cases.append(pytest.param(spec, edge[:1], id=f"{name}-nan_row_alone"))
    cases.append(pytest.param(DubinsSpec(horizon=horizon, obstacles=[]), batch(16),
                              id="no_obstacles"))
    # a small disc deep inside a wide box, on the straight rows' path
    inside = DubinsSpec(horizon=horizon, obstacles=[[0.0, 1.2, 0.3]])
    cases.append(pytest.param(inside, batch(64, 4.0, np.zeros((8, horizon))),
                              id="disc_inside_a_wide_box"))
    # a centre on the path, so the underflowing r^2 meets a zero or tiny distance
    for radius in (5e-324, 1e-160):
        spec = DubinsSpec(horizon=horizon, obstacles=[[0.0, 0.4, radius], [0.0, 0.8, radius]])
        cases.append(pytest.param(spec, batch(32, 0.3, np.zeros((1, horizon))),
                                  id=f"radius_{radius}"))
        for offset in (0.0, 1e-162, 1e-160, 2e-160):
            parked = DubinsSpec(speed=0.0, horizon=3, x0=[offset, 0.4, 0.0],
                                obstacles=[[0.0, 0.4, radius]])
            cases.append(pytest.param(parked, np.zeros((1, 3)),
                                      id=f"radius_{radius}-parked_{offset}"))
    # speed * dt overflows: heading 0 puts every x at +inf and every y at 0 * inf = NaN
    blown = DubinsSpec(speed=1e308, dt=10.0, horizon=4, x0=[0.0, 0.0, 0.0],
                       obstacles=[[0.0, 50.0, 1.0], [-50.0, 0.0, 1.0]])
    cases.append(pytest.param(blown, np.zeros((1, 4)), id="inf_x_nan_y_row"))
    cases.append(pytest.param(blown, rng.normal(0.0, 1.0, (8, 4)), id="overflowing_batch"))
    nan_x = DubinsSpec(horizon=horizon, x0=[np.nan, 0.0, np.pi / 2], obstacles=[[0.0, 50.0, 1.0]])
    cases.append(pytest.param(nan_x, batch(4), id="nan_x_plane"))
    # centres a config cannot hold: NaN and infinite
    for cx, cy in ((np.nan, 50.0), (50.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)):
        spec = DubinsSpec(horizon=horizon, obstacles=[[cx, cy, 1.0]])
        cases.append(pytest.param(spec, batch(4), id=f"centre_{cx}_{cy}"))
    return cases


@pytest.mark.parametrize("spec, batch", _broad_phase_cases())
def test_dubins_broad_phase_equals_testing_every_disc_bitwise(spec, batch):
    with np.errstate(all="ignore"):
        costs, flags = dubins_evaluate_batch(spec, batch)
        want_costs, want_flags = stacked_dubins_evaluate(spec, batch)
    assert np.array_equal(costs, want_costs, equal_nan=True)
    assert np.array_equal(flags, want_flags)


def test_dubins_tangent_state_is_not_clear():
    """d^2 = r^2 exactly: the strict test keeps the state out; one ulp of d further is clear."""
    for x, clear in ((1.0, False), (1.0 - 2.0**-52, True)):  # d = 2 - x = 1, then 1 + 2^-52
        spec = DubinsSpec(speed=0.0, horizon=5, x0=[x, 3.0, 0.0], obstacles=[[2.0, 3.0, 1.0]])
        for evaluate in (dubins_evaluate_batch, stacked_dubins_evaluate):
            assert evaluate(spec, np.zeros((2, 5)))[1].tolist() == [clear, clear]


def test_dubins_broad_phase_skips_a_far_disc_before_its_squares_overflow():
    spec = DubinsSpec(obstacles=[[1.0e308, -1.0e308, 1.0], [-1.0e308, 0.0, 0.5]])
    batch = np.random.default_rng(5).normal(0.0, 1.0, (64, spec.horizon))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, flags = dubins_evaluate_batch(spec, batch)
    assert flags.all()


def test_dubins_broad_phase_holds_on_random_discs_and_batches():
    """Radii from the subnormal range to 3, centres near and far, batches of 1 to 64 rows."""
    rng = np.random.default_rng(2028)
    for trial in range(60):
        n_discs = int(rng.integers(0, 7))
        centres = rng.normal(2.0, 4.0, (n_discs, 2)) * 10.0 ** rng.integers(0, 3, (n_discs, 1))
        radii = 10.0 ** rng.uniform(-323.0, 0.5, n_discs)
        spec = DubinsSpec(horizon=10, speed=float(rng.choice([0.0, 1.0, 4.0, 1e300])),
                          obstacles=np.column_stack([centres, radii]) if n_discs else [])
        batch = rng.normal(0.0, float(rng.choice([0.1, 1.0, 6.0])), (int(rng.integers(1, 65)), 10))
        with np.errstate(all="ignore"):
            costs, flags = dubins_evaluate_batch(spec, batch)
            want_costs, want_flags = stacked_dubins_evaluate(spec, batch)
        assert np.array_equal(costs, want_costs, equal_nan=True), trial
        assert np.array_equal(flags, want_flags), trial


def _parked_flags(spec, state):
    """The evaluator's flag and `dubins_clear` on one state, parked there at speed 0."""
    parked = dataclasses.replace(spec, speed=0.0, horizon=1, x0=[state[0], state[1], 0.0])
    [flag] = dubins_evaluate_batch(parked, np.zeros((1, 1)))[1].tolist()
    return flag, dubins_clear(parked, np.array([state[0], state[1], 0.0]))


def test_dubins_clear_and_the_evaluator_agree_on_tangent_states():
    """Both routes compare with the same r2, numpy's scalar radius**2, an ulp off r * r at times."""
    r = 0.20375587553322855  # r * r = 0.04151645681431253 > r**2 = 0.04151645681431252
    assert float(np.float64(r) ** 2) < r * r
    spec = DubinsSpec(obstacles=[[0.0, 0.0, r]])
    assert _parked_flags(spec, (r, 0.0)) == (True, True)
    rng = np.random.default_rng(2029)
    split = 0
    for radius in 10.0 ** rng.uniform(-3.0, 1.0, 2000):
        centre = rng.normal(0.0, 3.0, 2)
        spec = DubinsSpec(obstacles=[[centre[0], centre[1], radius]])
        for state in ((centre[0] + radius, centre[1]), (centre[0], centre[1] - radius)):
            flag, clear = _parked_flags(spec, state)
            assert flag == clear, (radius, centre, state)
            split += flag
    assert 0 < split  # some tangent states are clear by one ulp of r2


def test_dubins_clear_squares_no_far_centre():
    spec = DubinsSpec(obstacles=[[1.0e308, 0.0, 0.5], [-1.0e308, -1.0e308, 1.0],
                                 [0.0, 1.0e308, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dubins_clear(spec, np.array([0.0, 0.0, 0.0]))
        assert dubins_clear(spec, np.array([1.0e300, -1.0e300, 1.0]))
        assert not dubins_clear(spec, np.array([1.0e308, 0.25, 0.0]))
        assert not dubins_clear(spec, np.array([np.nan, 0.0, 0.0]))
