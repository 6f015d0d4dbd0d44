"""Discrete-time trajectory problems over flattened control sequences.

A control sequence is a flat vector u of length d*T (d inputs per step, T
steps, step-major: u = [u_0, u_1, ..., u_{T-1}]). Stage costs follow the
convention that controls u_0..u_{T-1} are paid together with the states
x_1..x_T they produce; the fixed initial state x_0 is not penalized and not
constraint-checked (it is not controllable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from .errors import DimensionMismatchError, InfeasibleProblemError

if TYPE_CHECKING:
    from .qp import QpProblem

Array = np.ndarray


def _check_controls(u: Array, expected: int, what: str = "control sequence") -> Array:
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.shape[0] != expected:
        raise DimensionMismatchError(expected, int(u.size), what)
    if not np.isfinite(u).all():
        raise ValueError(f"{what} contains non-finite entries")
    return u


@dataclass(frozen=True)
class TrajectoryProblem:
    """A finite-horizon control problem exposed through one batch evaluator.

    `evaluate` maps an (N, d*T) array of flat control sequences to their
    costs, shape (N,), and their hard feasibility flags, shape (N,): control
    bounds and any state constraints, checked at the discrete states
    x_1..x_T.  `evaluate_batch` is the one scoring route, so a batch is
    rolled out once.  Its views `batch_objective` and `batch_feasible` stay
    only because perfbench's tracer wraps them as its `problems.eval` layer
    (the FD baseline scores through `batch_objective` for it); they go when
    the tracer wraps `evaluate_batch`.  A certified feasible control
    sequence must be supplied at construction so the weighted-sampling
    machinery is never started on an empty feasible set.  `known_feasible`
    may also stack candidate rows in order of preference: one call scores
    them all, and the first feasible row is kept as the certificate.
    """

    control_dim: int
    horizon: int
    initial_state: Array
    dynamics: Callable[[Array, Array], Array]
    evaluate: Callable[[Array], Tuple[Array, Array]]
    known_feasible: Array

    def __post_init__(self):
        object.__setattr__(self, "initial_state", np.asarray(self.initial_state, dtype=float))
        stack = np.atleast_2d(np.array(self.known_feasible, dtype=float))
        if stack.ndim != 2 or stack.shape[1] != self.n_controls:
            raise DimensionMismatchError(self.n_controls, int(stack[0].size), "known-feasible row")
        if not np.isfinite(stack).all():
            raise ValueError("known-feasible row contains non-finite entries")
        costs, flags = self.evaluate_batch(stack)
        if not flags.any():
            raise InfeasibleProblemError(
                "no registered known-feasible control sequence passes the feasibility check"
            )
        first = int(np.argmax(flags))
        object.__setattr__(self, "known_feasible", stack[first])
        if not np.isfinite(costs[first]):
            raise ValueError("objective is not finite on the known-feasible sequence")

    @property
    def n_controls(self) -> int:
        return self.control_dim * self.horizon

    def evaluate_batch(self, controls: Array) -> Tuple[Array, Array]:
        """Costs and feasibility flags of each row of an (N, d*T) array."""
        costs, flags = self.evaluate(np.asarray(controls, dtype=float))
        return np.asarray(costs, dtype=float), np.asarray(flags, dtype=bool)

    def batch_objective(self, controls: Array) -> Array:
        return self.evaluate_batch(controls)[0]

    def batch_feasible(self, controls: Array) -> Array:
        return self.evaluate_batch(controls)[1]


def rollout(problem: TrajectoryProblem, controls: Array) -> Array:
    """Roll the dynamics forward; returns states of shape (T+1, n), x_0 first."""
    u = _check_controls(controls, problem.n_controls)
    d = problem.control_dim
    x = np.asarray(problem.initial_state, dtype=float)
    states = np.empty((problem.horizon + 1, x.shape[0]))
    states[0] = x
    for t in range(problem.horizon):
        x = problem.dynamics(x, u[t * d : (t + 1) * d])
        states[t + 1] = x
    return states


# ---------------------------------------------------------------------------
# Linear-quadratic problem with box state/control constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LqrSpec:
    """Linear dynamics x_{t+1} = Ax_t + Bu_t with quadratic stage costs.

    The cost is the half-quadratic form
        J(u) = 1/2 sum_{t=1..T} x_t' Q x_t + 1/2 sum_{t=0..T-1} u_t' R u_t,
    and the constraint set is the control box [u_min, u_max]^... intersected
    with per-coordinate state bounds applied to x_1..x_T.
    """

    a: Array
    b: Array
    q: Array
    r: Array
    x0: Array
    horizon: int
    u_min: Array
    u_max: Array
    x_min: Array
    x_max: Array

    def __post_init__(self):
        for name in ("a", "b", "q", "r", "x0", "u_min", "u_max", "x_min", "x_max"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n, m = self.b.shape
        if self.a.shape != (n, n):
            raise ValueError(f"A must be ({n},{n}), got {self.a.shape}")
        for mat, dim, name in ((self.q, n, "Q"), (self.r, m, "R")):
            if mat.shape != (dim, dim):
                raise ValueError(f"{name} must be ({dim},{dim}), got {mat.shape}")
            if not np.allclose(mat, mat.T, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(mat).min() < -1e-10:
                raise ValueError(f"{name} must be positive semidefinite")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @property
    def state_dim(self) -> int:
        return self.b.shape[0]

    @property
    def control_dim(self) -> int:
        return self.b.shape[1]


def double_integrator(horizon: int = 10) -> LqrSpec:
    """The benchmark double integrator: position/velocity state, scalar force.

    Stage matrices 2*I make the half-quadratic cost equal the plain squared
    norms sum(|x_t|^2 + |u_t|^2); from x0 = (2.5, 0) the zero sequence costs
    10 * 2.5^2 = 62.5 over the default horizon.
    """
    return LqrSpec(
        a=[[1.0, 1.0], [0.0, 1.0]],
        b=[[0.5], [1.0]],
        q=[[2.0, 0.0], [0.0, 2.0]],
        r=[[2.0]],
        x0=[2.5, 0.0],
        horizon=horizon,
        u_min=[-1.0],
        u_max=[1.0],
        x_min=[-5.0, -1.0],
        x_max=[5.0, 1.0],
    )


def lqr_response(spec: LqrSpec) -> Tuple[Array, Array]:
    """The stacked states x = (x_1..x_T) as the affine map x = M u + b.

    Block (t, j) of M is A^(t-1-j) B for j < t, and b stacks the free
    response A^t x0.  `qp.lift` builds the lifted quadratic and the state
    band from it; the LQR evaluator reads both through the lift.
    """
    n, m, T = spec.state_dim, spec.control_dim, spec.horizon
    powers = [np.eye(n)]
    for _ in range(T):
        powers.append(spec.a @ powers[-1])

    big_m = np.zeros((T * n, T * m))
    b = np.empty(T * n)
    for t in range(1, T + 1):
        b[(t - 1) * n : t * n] = powers[t] @ spec.x0
        for j in range(t):
            big_m[(t - 1) * n : t * n, j * m : (j + 1) * m] = powers[t - 1 - j] @ spec.b
    return big_m, b


def lqr_problem(spec: LqrSpec, lifted: Optional["QpProblem"] = None) -> TrajectoryProblem:
    """The LQR problem as a view of its QP lift (`qp.lift`).

    The trajectory cost is exactly 1/2 u'Q_qp u + c'u + constant, and the
    constraint set is the lift's control box plus lin_lo <= M u <= lin_hi, so
    the cost formula and the bounds exist only in the lift.  A batch U costs
    one product with Q_qp and one with M (for the state band); Q_qp is used
    as it is, never factored, so a positive semidefinite R stays admissible.
    A caller that already holds `lift(spec)` passes it as `lifted`.

    Feasibility is checked constraint-major: the box rows (U') and the band
    rows (M U') fill one (n_box + n_band, N) array that is compared with the
    stacked bounds and reduced along its long contiguous axis.
    """
    from .qp import lift  # local: qp imports this module

    if lifted is None:
        lifted = lift(spec)
    n_box = lifted.dim
    lo = np.concatenate([lifted.lb, lifted.lin_lo])[:, None]
    hi = np.concatenate([lifted.ub, lifted.lin_hi])[:, None]

    def evaluate(controls: Array) -> Tuple[Array, Array]:
        quad = np.einsum("ij,ij->i", controls @ lifted.q, controls)
        costs = 0.5 * quad + controls @ lifted.c + lifted.constant
        rows = np.empty((lo.shape[0], controls.shape[0]))
        rows[:n_box] = controls.T
        np.matmul(lifted.lin_mat, controls.T, out=rows[n_box:])
        ok = rows >= lo
        ok &= rows <= hi
        return costs, ok.all(axis=0)

    return TrajectoryProblem(
        control_dim=spec.control_dim,
        horizon=spec.horizon,
        initial_state=spec.x0,
        dynamics=lambda x, u: spec.a @ x + spec.b @ u,
        evaluate=evaluate,
        known_feasible=np.zeros(lifted.dim),
    )


def lqr_stage_cost(spec: LqrSpec, x_next: Array, u: Array) -> float:
    """Cost paid for one transition: the state it produces plus the control."""
    x_next = np.asarray(x_next, dtype=float)
    u = np.asarray(u, dtype=float)
    return float(0.5 * x_next @ spec.q @ x_next + 0.5 * u @ spec.r @ u)


# ---------------------------------------------------------------------------
# Dubins car with circular obstacles
# ---------------------------------------------------------------------------

# Stand-in obstacle field: a diagonal wall between start and goal with
# passable gaps near the ends. Overridable through DubinsSpec/config.
DEFAULT_OBSTACLES = (
    (0.6, 5.4, 0.6),
    (1.5, 4.5, 0.6),
    (2.4, 3.6, 0.6),
    (3.6, 2.4, 0.6),
    (4.5, 1.5, 0.6),
    (5.4, 0.6, 0.6),
)


@dataclass(frozen=True)
class DubinsSpec:
    """Constant-speed planar car steered by its turn rate.

    State is (px, py, heading); the single control w_t is the turn rate,
    bounded by |w_t| <= w_max. Dynamics (Euler step):
        x_{t+1} = x_t + dt * (v cos(theta_t), v sin(theta_t), w_t).
    Stage cost |x_t - target|^2_Q + r * w^2 with diagonal Q weights; heading
    error is the plain difference (no angle wrapping). Obstacles are circles
    (cx, cy, radius); a trajectory is feasible when every discrete state
    x_1..x_T lies strictly outside all of them.
    """

    speed: float = 4.0
    dt: float = 0.1
    horizon: int = 20
    x0: Array = field(default_factory=lambda: np.array([0.0, 0.0, np.pi / 2]))
    target: Array = field(default_factory=lambda: np.array([6.0, 6.0, 0.0]))
    q_weights: Array = field(default_factory=lambda: np.array([1.0, 1.0, 0.01]))
    r_weight: float = 0.001
    w_max: float = 1.5 * np.pi
    obstacles: Array = field(default_factory=lambda: np.array(DEFAULT_OBSTACLES))

    def __post_init__(self):
        for name in ("x0", "target", "q_weights", "obstacles"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.obstacles.size == 0:
            object.__setattr__(self, "obstacles", np.empty((0, 3)))
        if self.obstacles.ndim != 2 or self.obstacles.shape[1] != 3:
            raise ValueError("obstacles must be rows of (cx, cy, radius)")
        if self.w_max <= 0 or self.dt <= 0 or self.speed < 0:
            raise ValueError("dt and w_max must be positive, speed non-negative")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


def _dubins_rollout(spec: DubinsSpec, controls: Array) -> Tuple[Array, Array]:
    """Positions of x_1..x_T as one (2, N, T) array (px plane, py plane) and
    headings of x_1..x_T as an (N, T) view; one cumsum integrates both planes."""
    n, horizon = controls.shape
    heading = np.empty((n, horizon + 1))  # theta_0..theta_T
    heading[:, 0] = spec.x0[2]
    np.cumsum(controls, axis=1, out=heading[:, 1:])
    heading[:, 1:] *= spec.dt
    heading[:, 1:] += spec.x0[2]
    pos = np.empty((2, n, horizon))
    np.cos(heading[:, :-1], out=pos[0])
    np.sin(heading[:, :-1], out=pos[1])
    np.cumsum(pos, axis=2, out=pos)
    pos *= spec.speed * spec.dt
    pos += spec.x0[:2, None, None]
    return pos, heading[:, 1:]


def dubins_states_batch(spec: DubinsSpec, controls: Array) -> Array:
    """Vectorized rollout; returns x_1..x_T with shape (N, T, 3)."""
    pos, heading = _dubins_rollout(spec, np.asarray(controls, dtype=float))
    return np.stack([pos[0], pos[1], heading], axis=2)


def dubins_evaluate_batch(spec: DubinsSpec, controls: Array) -> Tuple[Array, Array]:
    """Costs and feasibility flags from one rollout, checking one obstacle at a time."""
    W = np.asarray(controls, dtype=float)
    pos, heading = _dubins_rollout(spec, W)
    err = np.empty(heading.shape + (3,))
    np.subtract(pos[0], spec.target[0], out=err[:, :, 0])
    np.subtract(pos[1], spec.target[1], out=err[:, :, 1])
    np.subtract(heading, spec.target[2], out=err[:, :, 2])
    np.square(err, out=err)
    costs = (err @ spec.q_weights).sum(axis=1) + spec.r_weight * (W**2).sum(axis=1)
    ok = np.abs(W) <= spec.w_max  # per step, reduced over the horizon once at the end
    px, py = pos
    for cx, cy, radius in spec.obstacles:
        ok &= (px - cx) ** 2 + (py - cy) ** 2 > radius**2
    return costs, ok.all(axis=1)


def dubins_stage_cost(spec: DubinsSpec, x_next: Array, u: Array) -> float:
    err = np.asarray(x_next, dtype=float) - spec.target
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return float(err**2 @ spec.q_weights + spec.r_weight * (u @ u))


def dubins_clear(spec: DubinsSpec, state: Array) -> bool:
    """True when a single state lies strictly outside every obstacle."""
    if spec.obstacles.shape[0] == 0:
        return True
    d2 = ((np.asarray(state)[:2] - spec.obstacles[:, :2]) ** 2).sum(axis=1)
    return bool((d2 > spec.obstacles[:, 2] ** 2).all())


def dubins_problem(spec: DubinsSpec, known_candidate: Optional[Array] = None) -> TrajectoryProblem:
    """Build the TrajectoryProblem; `known_candidate` seeds the feasible search
    (useful when re-rooting at a mid-flight state with a warm-started plan)."""

    def dyn(x: Array, u: Array) -> Array:
        return x + spec.dt * np.array(
            [spec.speed * np.cos(x[2]), spec.speed * np.sin(x[2]), float(u[0])]
        )

    return TrajectoryProblem(
        control_dim=1,
        horizon=spec.horizon,
        initial_state=spec.x0,
        dynamics=dyn,
        evaluate=lambda U: dubins_evaluate_batch(spec, U),
        known_feasible=_find_feasible_controls(spec, extra=known_candidate),
    )


# constant-turn certificate candidates, as fractions of the rate limit
_TURN_FRACTIONS = np.array([0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 1.0, -1.0])


def _find_feasible_controls(spec: DubinsSpec, extra: Optional[Array] = None) -> Array:
    """Candidate turn-rate sequences, in the order the certificate search tries them.

    A caller-supplied candidate (when it has the right shape and finite
    entries), no turning, then constant turns at graded fractions of the rate
    limit in both directions.  `TrajectoryProblem` scores the stack in one
    batch and keeps the first feasible row, or fails loudly.
    """
    T = spec.horizon
    turns = np.concatenate([[0.0], _TURN_FRACTIONS * spec.w_max])
    stack = np.repeat(turns[:, None], T, axis=1)
    if extra is not None and np.shape(extra) == (T,):
        stack = np.vstack([np.asarray(extra, dtype=float), stack])
    return stack[np.isfinite(stack).all(axis=1)]
