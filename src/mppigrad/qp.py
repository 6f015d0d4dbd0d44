"""Convex QP lift of the box-constrained linear-quadratic problem.

The trajectory cost of an `LqrSpec` is an exact quadratic in the stacked
control vector once states are eliminated through x = M u + b.  `lift(spec)`
builds that quadratic, the one input of `problems.lqr_problem`.  Both QPs the
benchmark needs are solved with one exact, finite active-set method:
least-distance programming (LDP) by non-negative least squares (Lawson &
Hanson, *Solving Least Squares Problems*, 1974, ch. 23).  Projection onto the
joint box-plus-linear feasible set (for the FD baseline) is an LDP problem as
it stands; the reference solve becomes one after a Cholesky change of
variables.  The reference value is certified by weak duality before it is
trusted as an optimality-gap reference: the solver's multipliers give a lower
bound on the optimum that shares only the problem data with the solver.

scipy is imported only where a QP is solved (the LQR oracle and the FD
projector), so loading a config, a Dubins run and the theory suite never pay
for `scipy.linalg` or `scipy.optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ConvergenceError, InfeasibleProblemError, NotSpdError
from .problems import LqrSpec, lqr_response

AGREEMENT = 1e-6  # largest relative duality gap and violation `solve_verified` certifies

Array = np.ndarray


@dataclass(frozen=True)
class QpProblem:
    """min 1/2 u'Qu + c'u  over  lb <= u <= ub,  lin_lo <= A u <= lin_hi.

    `constant` is the affine offset dropped by the lift (1/2 b'Qbar b), so the
    original trajectory cost is value(u) + constant.  `g` and `h` hold all
    constraints as g u >= h (box, then band), rows bounded by -inf dropped.
    """

    q: Array
    c: Array
    lb: Array
    ub: Array
    lin_mat: Optional[Array] = None
    lin_lo: Optional[Array] = None
    lin_hi: Optional[Array] = None
    constant: float = 0.0
    g: Array = field(init=False, repr=False)
    h: Array = field(init=False, repr=False)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        n = q.shape[0]
        object.__setattr__(self, "q", q)
        for name in ("c", "lb", "ub"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
            object.__setattr__(self, name, v)
        if not (np.isfinite(q).all() and np.isfinite(self.c).all() and np.isfinite(self.constant)):
            raise NotSpdError("Q_qp, c and the constant must be finite")
        if not np.allclose(q, q.T, atol=1e-10):
            raise NotSpdError("Q_qp must be symmetric")
        if np.linalg.eigvalsh(q).min() < -1e-8:
            raise NotSpdError("Q_qp must be positive semidefinite")
        if self.lin_mat is not None:
            a = np.asarray(self.lin_mat, dtype=float)
            lo = np.asarray(self.lin_lo, dtype=float)
            hi = np.asarray(self.lin_hi, dtype=float)
            if a.ndim != 2 or a.shape[1] != n or lo.shape != (a.shape[0],) or hi.shape != lo.shape:
                raise ValueError("inconsistent linear constraint dimensions")
            object.__setattr__(self, "lin_mat", a)
            object.__setattr__(self, "lin_lo", lo)
            object.__setattr__(self, "lin_hi", hi)
        eye = np.eye(n)
        blocks, bounds = [eye, -eye], [self.lb, -self.ub]
        if self.lin_mat is not None:
            blocks += [self.lin_mat, -self.lin_mat]
            bounds += [self.lin_lo, -self.lin_hi]
        g, h = np.vstack(blocks), np.concatenate(bounds)
        keep = h != -np.inf
        object.__setattr__(self, "g", g[keep])
        object.__setattr__(self, "h", h[keep])

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def value(self, u: Array) -> float:
        u = np.asarray(u, dtype=float)
        return float(0.5 * u @ self.q @ u + self.c @ u)

    def violation(self, u: Array) -> float:
        """Infinity-norm constraint violation of a candidate point."""
        return float(np.max(self.h - self.g @ np.asarray(u, dtype=float), initial=0.0))


@dataclass(frozen=True)
class QpSolution:
    """u*, f* = value(u*), and the multipliers lam of `QpProblem`'s g u >= h, row by row.

    `duality_gap` is f(u*) - d(lam), set once `solve_verified` certifies u*.
    """

    u_star: Array
    f_star: float
    lam: Array
    duality_gap: float = float("nan")


def lift(spec: LqrSpec) -> QpProblem:
    """Eliminate states from an LqrSpec, yielding the equivalent QP.

    With x = (x_1..x_T) stacked, x = M u + b is the response map of
    `problems.lqr_response` (block (t, j) of M is A^(t-1-j) B for j < t, b
    stacks the free response A^t x0).  Then

        J(u) = 1/2 u'(M'Qbar M + Rbar)u + (M'Qbar b)'u + 1/2 b'Qbar b,

    and the state box becomes the linear range constraint on M u.  This is
    the only place the LQR cost and constraint set are written down:
    `problems.lqr_problem` evaluates samples through the returned QP.
    """
    T = spec.horizon
    big_m, b = lqr_response(spec)
    q_bar = np.kron(np.eye(T), spec.q)
    r_bar = np.kron(np.eye(T), spec.r)
    q_qp = big_m.T @ q_bar @ big_m + r_bar
    q_qp = 0.5 * (q_qp + q_qp.T)
    c = big_m.T @ (q_bar @ b)

    return QpProblem(
        q=q_qp,
        c=c,
        lb=np.tile(spec.u_min, T),
        ub=np.tile(spec.u_max, T),
        lin_mat=big_m,
        lin_lo=np.tile(spec.x_min, T) - b,
        lin_hi=np.tile(spec.x_max, T) - b,
        constant=float(0.5 * b @ q_bar @ b),
    )


def nnls(a: Array, b: Array) -> Tuple[Array, float]:
    """scipy's NNLS, min |a z - b| over z >= 0; `_ldp` calls it through this name."""
    from scipy.optimize import nnls as scipy_nnls  # local: scipy.optimize loads only here

    return scipy_nnls(a, b)


def _ldp(g: Array, h: Array) -> Tuple[Array, Array]:
    """min |x| s.t. g x >= h; returns x and its multipliers lam.

    With z >= 0 the NNLS solution of [g'; h'] z = e_last, lam = z / (1 - h'z)
    and x = g'lam (Lawson & Hanson 1974, ch. 23).  The NNLS residual is
    1/sqrt(1 + |x|^2), so one below sqrt(eps) (|x| > 6.7e7) is read as zero:
    the constraints are inconsistent.  A set that is a single point is a
    limit of this test: rounding can leave the point outside the computed
    rows, and then it too is reported as inconsistent.  NNLS stopping at its
    iteration cap, or an input that is not finite, raises ConvergenceError.
    """
    n = g.shape[1]
    if h.size == 0:  # unconstrained; scipy's nnls aborts the process on zero columns
        return np.zeros(n), np.zeros(0)
    target = np.zeros(n + 1)
    target[n] = 1.0
    try:
        z, rnorm = nnls(np.vstack([g.T, h]), target)
    except RuntimeError as err:
        raise ConvergenceError(
            f"NNLS did not finish: {err}", best=np.full(n, np.nan), residual=np.inf
        ) from err
    except ValueError as err:  # scipy's finite check: g p overflows for a finite p near 1e305
        raise ConvergenceError(
            f"NNLS input is not finite: {err}", best=np.full(n, np.nan), residual=np.inf
        ) from err
    if rnorm <= np.sqrt(np.finfo(float).eps):
        raise InfeasibleProblemError(
            f"constraints are inconsistent: LDP residual {rnorm:.3e} vanishes"
        )
    lam = z / (1.0 - h @ z)
    return g.T @ lam, lam


def solve_reference(qp: QpProblem) -> QpSolution:
    """Exact reference QP solve: one LDP after a Cholesky change of variables.

    With Q = R'R and x = R u + R^-T c the objective is 1/2|x|^2 - 1/2 c'Q^-1 c,
    so the QP is min |x| s.t. G R^-1 x >= h + G Q^-1 c, with the same
    multipliers lam.  Nothing here checks the result: `solve_verified`
    certifies it.

    Raises NotSpdError when Q is not positive definite, InfeasibleProblemError
    when the constraints are inconsistent, and ConvergenceError when NNLS
    stops at its iteration cap.
    """
    from scipy.linalg import LinAlgError, cholesky, solve_triangular  # local: see the module doc

    g, h = qp.g, qp.h
    try:
        r = cholesky(qp.q)
    except LinAlgError as err:
        raise NotSpdError(f"reference solve needs a positive definite Q_qp: {err}") from err
    shift = solve_triangular(r, qp.c, trans="T")
    g_x = solve_triangular(r, g.T, trans="T").T
    x, lam = _ldp(g_x, h + g_x @ shift)
    u = solve_triangular(r, x - shift)
    return QpSolution(u_star=u, f_star=qp.value(u), lam=lam)


def solve_verified(qp: QpProblem) -> QpSolution:
    """Solve once and certify the solution by weak duality.

    For any lam >= 0, d(lam) = lam'h - 1/2 v'Q^-1 v with v = G'lam - c is a
    lower bound on f*, and a feasible u gives the upper bound f(u) (Boyd &
    Vandenberghe, *Convex Optimization*, 2004, sec. 5.2).  So f(u*) - d(lam)
    and violation(u*) bracket the true optimum whatever produced (u*, lam).
    Q^-1 v is an LU solve, not the solver's Cholesky factor, so the check
    shares only (Q, c, G, h) with `solve_reference`.  A relative gap or a
    violation beyond `AGREEMENT` raises instead of returning a number that
    would silently corrupt every optimality gap downstream.
    """
    ref = solve_reference(qp)
    g, h = qp.g, qp.h
    lam = np.maximum(ref.lam, 0.0)
    v = g.T @ lam - qp.c
    dual = float(lam @ h - 0.5 * v @ np.linalg.solve(qp.q, v))
    primal = qp.value(ref.u_star)
    gap = primal - dual
    violation = qp.violation(ref.u_star)
    rel_gap = abs(gap) / (1.0 + abs(primal))
    if not (rel_gap <= AGREEMENT and violation <= AGREEMENT):  # NaN fails too
        raise ConvergenceError(
            f"QP solution not certified: f(u*) = {primal:.12g}, dual bound {dual:.12g}, "
            f"violation {violation:.3e}",
            best=ref.u_star,
            residual=max(rel_gap, violation),
        )
    return replace(ref, f_star=primal, duality_gap=gap)


class FeasibleSetProjector:
    """Euclidean projection onto {u: lb<=u<=ub, lin_lo<=A u<=lin_hi}.

    In the offset x = u - p, min 1/2|u-p|^2 s.t. G u >= h is the LDP problem
    min |x| s.t. G x >= h - G p.  The problem stacks (G, h) once, so projecting many
    points against the same constraint set repeats only the NNLS solve.
    """

    def __init__(self, qp: QpProblem):
        self._g, self._h = qp.g, qp.h

    def __call__(self, point: Array) -> Array:
        p = np.asarray(point, dtype=float)
        return p + _ldp(self._g, self._h - self._g @ p)[0]
