"""Discrete-time trajectory problems over flattened control sequences.

A control sequence is a flat vector u of length d*T (d inputs per step, T
steps, step-major: u = [u_0, u_1, ..., u_{T-1}]). Stage costs follow the
convention that controls u_0..u_{T-1} are paid together with the states
x_1..x_T they produce; the fixed initial state x_0 is not penalized and not
constraint-checked (it is not controllable).

The sampler sees a problem only as a `TrajectoryProblem`: a batch evaluator
and a feasible certificate.  Each spec owns its dynamics (`spec.step`), and
`rollout(spec, u)` steps them as the reference the evaluators are checked by.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import DimensionMismatchError, InfeasibleProblemError

Array = np.ndarray


def _float_array(name: str, value) -> Array:
    """A spec field as a float array; a ragged or non-numeric value names its field."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a rectangular array of numbers") from exc


def _check_controls(u: Array, expected: int, what: str = "control sequence") -> Array:
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.shape[0] != expected:
        raise DimensionMismatchError(expected, int(u.size), what)
    if not np.isfinite(u).all():
        raise ValueError(f"{what} contains non-finite entries")
    return u


@dataclass(frozen=True)
class TrajectoryProblem:
    """A finite-horizon control problem: one batch evaluator and its certificate.

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
    them all, and the first feasible row is kept as the certificate.  The
    kept row fixes the problem's dimension, `n_controls`.
    """

    evaluate: Callable[[Array], Tuple[Array, Array]]
    known_feasible: Array

    def __post_init__(self):
        stack = np.atleast_2d(np.array(self.known_feasible, dtype=float))
        if stack.ndim != 2:
            raise ValueError(f"known-feasible candidates must be a row or rows, not {stack.ndim}-D")
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
            raise InfeasibleProblemError("objective is not finite on the known-feasible sequence")

    @property
    def n_controls(self) -> int:
        return self.known_feasible.shape[0]

    def evaluate_batch(self, controls: Array) -> Tuple[Array, Array]:
        """Costs and feasibility flags of each row of an (N, d*T) array."""
        costs, flags = self.evaluate(np.asarray(controls, dtype=float))
        return np.asarray(costs, dtype=float), np.asarray(flags, dtype=bool)

    def batch_objective(self, controls: Array) -> Array:
        return self.evaluate_batch(controls)[0]

    def batch_feasible(self, controls: Array) -> Array:
        return self.evaluate_batch(controls)[1]


def rollout(spec: Union[LqrSpec, DubinsSpec], controls: Array) -> Array:
    """Step `spec.step` forward from `spec.x0`; returns states of shape (T+1, n), x_0 first."""
    d = spec.control_dim
    u = _check_controls(controls, d * spec.horizon)
    x = spec.x0
    states = np.empty((spec.horizon + 1, x.shape[0]))
    states[0] = x
    for t in range(spec.horizon):
        x = spec.step(x, u[t * d : (t + 1) * d])
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
            object.__setattr__(self, name, _float_array(name, getattr(self, name)))
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
        for name, dim in (("x0", n), ("x_min", n), ("x_max", n), ("u_min", m), ("u_max", m)):
            shape = getattr(self, name).shape
            if shape != (dim,):
                raise ValueError(f"{name} must have length {dim}, got shape {shape}")
        for lo_name, hi_name in (("u_min", "u_max"), ("x_min", "x_max")):
            lo, hi = getattr(self, lo_name), getattr(self, hi_name)
            inverted = np.flatnonzero(lo > hi)  # equal bounds pin a coordinate, which is legal
            if inverted.size:
                i = int(inverted[0])
                raise ValueError(
                    f"{lo_name} must not exceed {hi_name}: coordinate {i} has "
                    f"{lo_name} {lo[i]} > {hi_name} {hi[i]}"
                )
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @property
    def state_dim(self) -> int:
        return self.b.shape[0]

    @property
    def control_dim(self) -> int:
        return self.b.shape[1]

    def step(self, x: Array, u: Array) -> Array:
        return self.a @ x + self.b @ u


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
    response A^t x0.  Each of the T distinct blocks A^k B is one product,
    copied into every block row that holds it.  `qp.lift` builds the lifted
    quadratic and the state band from it; the LQR evaluator reads both
    through the lift.
    """
    n, m, T = spec.state_dim, spec.control_dim, spec.horizon
    powers = [np.eye(n)]
    for _ in range(T):
        powers.append(spec.a @ powers[-1])
    blocks = [power @ spec.b for power in powers[:T]]  # A^k B, each formed once

    big_m = np.zeros((T * n, T * m))
    b = np.empty(T * n)
    for t in range(1, T + 1):
        b[(t - 1) * n : t * n] = powers[t] @ spec.x0
        for j in range(t):
            big_m[(t - 1) * n : t * n, j * m : (j + 1) * m] = blocks[t - 1 - j]
    return big_m, b


def lqr_problem(lifted) -> TrajectoryProblem:
    """The LQR problem as a view of its QP lift, `lqr_problem(qp.lift(spec))`.

    The trajectory cost is exactly 1/2 u'Q_qp u + c'u + constant, and the
    constraint set is the lift's control box plus lin_lo <= M u <= lin_hi, so
    the cost formula and the bounds exist only in the lift.  A batch U costs
    one product with Q_qp and one with [I; M] (for the box and the state
    band); Q_qp is used as it is, never factored, so a positive semidefinite
    R stays admissible.
    The zero control sequence is the certificate.

    Feasibility is checked constraint-major: the box rows (U') and the band
    rows (M U') are one product of the stacked [I; M], formed once and kept
    read-only, with U'.  Its identity rows are U' exactly (x * 1 plus
    zeros) for finite x; a row with a NaN or an infinity reads infeasible
    against finite bounds (0 * inf is NaN).  The (n_box + n_band, N)
    product is compared with bound blocks of the same shape and reduced
    along its long contiguous axis.  numpy compares two contiguous blocks
    about three times as fast as it broadcasts a bound column, so the lower
    and upper blocks are built once per batch size (a run uses a few: the
    sample count, the cell record's K+1 means, FD's n+1 points, the single
    certificate) and kept read-only, which lets worker threads share them.
    """
    rows_of = np.vstack([np.eye(lifted.dim), lifted.lin_mat])  # [I; M]
    rows_of.flags.writeable = False
    lo = np.concatenate([lifted.lb, lifted.lin_lo])[:, None]
    hi = np.concatenate([lifted.ub, lifted.lin_hi])[:, None]

    @functools.lru_cache(maxsize=8)
    def bound_blocks(n: int) -> Tuple[Array, Array]:
        blocks = np.repeat(lo, n, axis=1), np.repeat(hi, n, axis=1)
        for block in blocks:
            block.flags.writeable = False
        return blocks

    def evaluate(controls: Array) -> Tuple[Array, Array]:
        costs = np.einsum("ij,ij->i", controls @ lifted.q, controls)
        costs *= 0.5  # 0.5 u'Qu + c'u + constant, summed left to right in place
        costs += controls @ lifted.c
        costs += lifted.constant
        rows = rows_of @ controls.T
        lo_block, hi_block = bound_blocks(controls.shape[0])
        ok = rows >= lo_block
        ok &= rows <= hi_block
        return costs, np.logical_and.reduce(ok, axis=0)

    return TrajectoryProblem(evaluate=evaluate, known_feasible=np.zeros(lifted.dim))


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
    control_dim = 1  # the turn rate; a class attribute, not a field

    def __post_init__(self):
        for name in ("x0", "target", "q_weights", "obstacles"):
            object.__setattr__(self, name, _float_array(name, getattr(self, name)))
        if self.obstacles.size == 0:
            object.__setattr__(self, "obstacles", np.empty((0, 3)))
        if self.obstacles.ndim != 2 or self.obstacles.shape[1] != 3:
            raise ValueError("obstacles must be rows of (cx, cy, radius)")
        if not (self.obstacles[:, 2] > 0).all():
            raise ValueError("every obstacle radius must be positive")
        for name in ("x0", "target", "q_weights"):
            shape = getattr(self, name).shape
            if shape != (3,):
                raise ValueError(f"{name} must have length 3, got shape {shape}")
        if not (self.q_weights >= 0).all():
            raise ValueError(f"q_weights must be non-negative, got {self.q_weights.tolist()}")
        if not self.r_weight >= 0:
            raise ValueError(f"r_weight must be non-negative, got {self.r_weight!r}")
        if self.w_max <= 0 or self.dt <= 0 or self.speed < 0:
            raise ValueError("dt and w_max must be positive, speed non-negative")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        # plain products (a Python float's ** 2 raises OverflowError instead of giving inf),
        # r_weight last as in the evaluators, so a zero weight meets an infinite w^2 as NaN
        if not math.isfinite(self.w_max * self.w_max * self.horizon * self.r_weight):
            raise ValueError(
                f"the largest control cost r_weight * w_max^2 * horizon is not finite: r_weight "
                f"{self.r_weight!r}, w_max {self.w_max!r}, horizon {self.horizon!r}"
            )
        # each disc once per spec, as (cx, cy, r2, finite centre) in Python floats, r2 by
        # numpy's scalar power (an ulp off r * r at times); not a field, which config
        # records would list
        discs = tuple(
            (cx, cy, float(radius**2), math.isfinite(cx) and math.isfinite(cy))
            for (cx, cy, _), radius in zip(self.obstacles.tolist(), self.obstacles[:, 2])
        )
        object.__setattr__(self, "_discs", discs)
        # the four stage-cost weights (q_x, q_y, q_theta, r), in the evaluator's plane order
        weights = np.append(self.q_weights, self.r_weight)
        weights.flags.writeable = False
        object.__setattr__(self, "_weights", weights)

    def step(self, x: Array, u: Array) -> Array:
        return x + self.dt * np.array(
            [self.speed * np.cos(x[2]), self.speed * np.sin(x[2]), float(u[0])]
        )


@functools.lru_cache(maxsize=8)
def _prefix_operators(horizon: int) -> Tuple[Array, Array]:
    """U_T, the (T, T) upper-triangular ones, and the ones vector of length T.

    `A @ U_T` holds the prefix sums of A's rows (column t sums columns
    0..t), and `A @ ones` their totals, each as one BLAS call.  Formed once
    per horizon and kept read-only, so worker threads share them.
    """
    ops = np.triu(np.ones((horizon, horizon))), np.ones(horizon)
    for op in ops:
        op.flags.writeable = False
    return ops


def _dubins_rollout(spec: DubinsSpec, controls: Array) -> Tuple[Array, Array]:
    """Positions of x_1..x_T as one (2, N, T) array (px plane, py plane) and
    headings of x_1..x_T as a contiguous (N, T) array.

    Both integrations are prefix sums formed as products with U_T
    (`_prefix_operators`): the headings are (controls @ U_T) * dt + theta_0;
    cos and sin of theta_0..theta_{T-1} fill the two planes, theta_0's column
    from one scalar, and one stacked product integrates both.  A NaN or an
    infinite control reaches every step of its row (0 * inf in the product),
    not only the steps from the bad one on.
    """
    n, horizon = controls.shape
    upper, _ = _prefix_operators(horizon)
    theta0 = spec.x0[2]
    heading = controls @ upper  # theta_1..theta_T
    heading *= spec.dt
    heading += theta0
    turns = np.empty((2, n, horizon))
    turns[0, :, 0] = np.cos(theta0)
    turns[1, :, 0] = np.sin(theta0)
    np.cos(heading[:, :-1], out=turns[0, :, 1:])
    np.sin(heading[:, :-1], out=turns[1, :, 1:])
    pos = turns @ upper
    pos *= spec.speed * spec.dt
    pos[0] += spec.x0[0]
    pos[1] += spec.x0[1]
    return pos, heading


def _near_discs(spec: DubinsSpec, lo_x: float, hi_x: float, lo_y: float, hi_y: float):
    """(cx, cy, r2) of each disc that the box [lo_x, hi_x] x [lo_y, hi_y] does not clear.

    A disc is skipped when the box's nearest point lies strictly outside it,
    `gx * gx + gy * gy > r2` in Python floats.  The skip is exact: rounding
    is monotone and sign-symmetric, so no point of the box has a smaller
    computed squared distance.  A NaN or an infinity in the box or in a
    disc's centre skips nothing.
    """
    finite_box = all(map(math.isfinite, (lo_x, hi_x, lo_y, hi_y)))
    for cx, cy, r2, finite_centre in spec._discs:
        if finite_box and finite_centre:
            gx = max(0.0, lo_x - cx, cx - hi_x)
            gy = max(0.0, lo_y - cy, cy - hi_y)
            if gx * gx + gy * gy > r2:
                continue
        yield cx, cy, r2


def dubins_evaluate_batch(spec: DubinsSpec, controls: Array) -> Tuple[Array, Array]:
    """Costs and feasibility flags from one rollout, obstacles in a broad and a narrow phase.

    The cost squares the x, y and heading errors and the turn rates into
    four (N, T) planes; one product with a ones vector totals all 4N rows
    over the horizon, and one product with (q_x, q_y, q_theta, r) weighs the
    four totals of each row.  The broad phase takes the bounding box of every
    position in the batch once and skips each disc that the box already
    clears (`_near_discs`); the narrow phase tests every point against each
    remaining disc, in one squared-distance buffer per call.
    """
    W = np.asarray(controls, dtype=float)
    pos, heading = _dubins_rollout(spec, W)
    n, horizon = W.shape
    _, ones = _prefix_operators(horizon)
    planes = np.empty((4, n, horizon))
    np.subtract(pos[0], spec.target[0], out=planes[0])
    np.subtract(pos[1], spec.target[1], out=planes[1])
    np.subtract(heading, spec.target[2], out=planes[2])
    planes[3] = W
    np.square(planes, out=planes)
    costs = spec._weights @ (planes.reshape(4 * n, horizon) @ ones).reshape(4, n)
    ok = np.abs(W) <= spec.w_max  # per step, reduced over the horizon once at the end
    px, py = pos
    lo_x, lo_y = pos.min(axis=(1, 2), initial=np.inf).tolist()  # initial: an empty batch
    hi_x, hi_y = pos.max(axis=(1, 2), initial=-np.inf).tolist()
    d2 = dy = None  # allocated by the first disc that reaches the narrow phase
    for cx, cy, r2 in _near_discs(spec, lo_x, hi_x, lo_y, hi_y):
        d2 = np.subtract(px, cx, out=d2)
        np.square(d2, out=d2)
        dy = np.subtract(py, cy, out=dy)
        np.square(dy, out=dy)
        d2 += dy
        ok &= d2 > r2
    return costs, ok.all(axis=1)


def dubins_stage_cost(spec: DubinsSpec, x_next: Array, u: Array) -> float:
    err = np.asarray(x_next, dtype=float) - spec.target
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return float(err**2 @ spec.q_weights + spec.r_weight * (u @ u))


def dubins_clear(spec: DubinsSpec, state: Array) -> bool:
    """True when a single state lies strictly outside every obstacle.

    The evaluator's disc test on a one-point box, so both compare with the
    same r2 and a far centre's distance is never squared.  On a finite state
    and centre the box skip alone decides; only a disc it does not skip, or
    a non-finite state or centre, reaches the point test.
    """
    x, y = np.asarray(state, dtype=float)[:2].tolist()
    return all(
        (x - cx) * (x - cx) + (y - cy) * (y - cy) > r2
        for cx, cy, r2 in _near_discs(spec, x, x, y, y)
    )


def dubins_problem(spec: DubinsSpec, known_candidate: Optional[Array] = None) -> TrajectoryProblem:
    """Build the TrajectoryProblem; `known_candidate` seeds the feasible search
    (useful when re-rooting at a mid-flight state with a warm-started plan)."""
    return TrajectoryProblem(
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
