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

Everything here is numpy: the NNLS is Lawson and Hanson's algorithm on the
normal equations of the LDP, with its small passive-set system solved in
Python floats, and the change of variables uses `numpy.linalg`.  No run path
imports scipy; the tests use it as an independent second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ConvergenceError, InfeasibleProblemError, NotSpdError
from .problems import LqrSpec, lqr_response

AGREEMENT = 1e-6  # largest relative duality gap and violation `solve_verified` certifies
_EPS = float(np.finfo(float).eps)
# NNLS: a new column whose squared distance from the passive span is at most
# this share of its squared length is dependent.  The Gram form computes that
# distance to a few roundings of the length (under 1.2e-15 of it for a column
# already in the span, in random tests); 64 eps leaves room above that.
DEPENDENT = 64.0 * _EPS
_HUGE = 2.0**500  # NNLS: an |h_j| beyond this is scaled down before h_i h_j is formed
_VANISHING = math.sqrt(_EPS)  # `_ldp` reads an NNLS residual this small as zero

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


def nnls(g: Array, h: Array, gram: Optional[Array] = None) -> Tuple[Array, float]:
    """Lawson-Hanson NNLS of the LDP problem: min |E z - e| over z >= 0.

    E = [g'; h'] has one column e_j = (g_j, h_j) per row of g, and e is the
    last unit vector, so E'E = gram + h h' with gram = g g' (formed here when
    not given) and E'e = h.  This is algorithm NNLS of Lawson & Hanson (1974,
    ch. 23) on those normal equations: z = 0 is optimal when no h_j is
    positive; otherwise the column with the largest w_j = e_j'(e - E z) joins
    the passive set if it is independent of it (its squared distance from
    their span exceeds `DEPENDENT` times |e_j|^2) and its least-squares
    coefficient is positive, and an inner loop steps back toward the last
    non-negative z, dropping the columns that reach zero, until the passive
    least-squares solution is positive.  The passive system is small, so it
    is solved in Python floats through a Cholesky factor that grows by one
    row per new column; w = h (1 - h'z) - gram z costs one mat-vec.

    Returns z and the residual |E z - e|, formed from its parts g'z and
    h'z - 1, so that it stays accurate as it vanishes.  Raises ValueError
    when h is not finite, and RuntimeError after 3m inner iterations, m the
    number of columns.  When some h_i h_j could overflow, h and gram are
    first scaled by a power of two, and z scales back exactly.
    """
    m, n = g.shape
    z = np.zeros(m)
    if not m:
        return z, 1.0
    t = int(h.argmax())
    top, bottom = h[t], h[h.argmin()]
    scale = 1.0
    if not (-_HUGE <= bottom and top <= _HUGE):  # not finite, or h_i h_j could overflow
        if not np.isfinite(h).all():
            raise ValueError("array must not contain infs or NaNs")
        scale = math.ldexp(1.0, -math.frexp(max(top, -bottom))[1])
        h, top = h * scale, top * scale
        gram = (g @ g.T if gram is None else gram) * (scale * scale)
    if not top > 0.0:  # every row already holds: z = 0 (the first test of NNLS)
        return z, 1.0
    if gram is None:
        gram = g @ g.T
    w = h.copy()
    passive: list = []  # columns in the order they joined
    coef: list = []  # z on them
    rows: list = []  # lower Cholesky factor of (gram + h h') on the passive set
    u: list = []  # rows^-1 h_passive, so that z_hat = rows'^-1 u

    gram_at, h_at = gram.item, h.item

    def extend(t):
        """Row of the factor for column t after the passive set, or None if t is dependent."""
        ht = h_at(t)
        r = []
        rr = ru = 0.0
        for j, row, uj in zip(passive, rows, u):
            v = gram_at(j, t) + h_at(j) * ht
            for a, b in zip(row, r):
                v -= a * b
            v /= row[-1]
            r.append(v)
            rr += v * v
            ru += v * uj
        mtt = gram_at(t, t) + ht * ht
        s = mtt - rr
        if not s > DEPENDENT * mtt:
            return None
        d = math.sqrt(s)
        r.append(d)
        return r, (ht - ru) / d

    it, cap, full, sigma = 0, 3 * m, min(m, n + 1), 0.0
    while len(passive) < full and w[t] > 0.0:  # else the Kuhn-Tucker conditions hold
        new = extend(t)
        if new is None or not new[1] > 0.0:  # dependent, or z_t would not be positive
            w[t] = 0.0
            t = int(w.argmax())
            continue
        passive.append(t)
        coef.append(0.0)
        rows.append(new[0])
        u.append(new[1])
        while True:
            it += 1
            if it > cap:
                raise RuntimeError("Maximum number of iterations reached.")
            z_hat = list(u)
            for i in range(len(u) - 1, -1, -1):
                v = z_hat[i]
                for k in range(i + 1, len(u)):
                    v -= rows[k][i] * z_hat[k]
                z_hat[i] = v / rows[i][i]
            if min(z_hat) > 0.0:
                coef = z_hat
                break
            # step from coef toward z_hat until the first coefficient reaches zero
            alpha, first = 2.0, 0
            for i, (c, v) in enumerate(zip(coef, z_hat)):
                if v <= 0.0 and c / (c - v) < alpha:
                    alpha, first = c / (c - v), i
            coef = [c + alpha * (v - c) for c, v in zip(coef, z_hat)]
            coef[first] = 0.0
            kept = [c > 0.0 for c in coef]
            for j, k in zip(passive, kept):
                if not k:
                    z[j] = 0.0
            cut = kept.index(False)
            moved = [j for j, k in zip(passive[cut:], kept[cut:]) if k]
            coef = [c for c, k in zip(coef, kept) if k]
            del passive[cut:], rows[cut:], u[cut:]
            for j in moved:  # the factor rows after the first column dropped are rebuilt
                new = extend(j)
                if new is None:
                    raise RuntimeError("passive columns became dependent")
                passive.append(j)
                rows.append(new[0])
                u.append(new[1])
        sigma = 0.0
        for j, c in zip(passive, coef):
            z[j] = c
            sigma += h_at(j) * c
        w = h * (1.0 - sigma)
        w -= gram @ z
        for j in passive:
            w[j] = 0.0
        t = int(w.argmax())
    gz = g.T @ z
    rnorm = math.hypot(scale * math.sqrt(float(gz @ gz)), sigma - 1.0)
    if scale != 1.0:
        z *= scale
    return z, rnorm


def _ldp(g: Array, h: Array, gram: Optional[Array] = None) -> Tuple[Array, Array]:
    """min |x| s.t. g x >= h; returns x and its multipliers lam.

    With z >= 0 the NNLS solution of [g'; h'] z = e_last, lam = z / (1 - h'z)
    and x = g'lam (Lawson & Hanson 1974, ch. 23).  `gram` is g g', passed by
    a caller that solves many problems with the same g.  The NNLS residual is
    1/sqrt(1 + |x|^2), so one below sqrt(eps) (|x| > 6.7e7) is read as zero:
    the constraints are inconsistent.  A set that is a single point is a
    limit of this test: rounding can leave the point outside the computed
    rows, and then it too is reported as inconsistent.  NNLS stopping at its
    iteration cap, or an h that is not finite, raises ConvergenceError.  With
    no rows at all, NNLS has nothing to do and x = 0.
    """
    n = g.shape[1]
    try:
        z, rnorm = nnls(g, h, gram)
    except RuntimeError as err:
        raise ConvergenceError(
            f"NNLS did not finish: {err}", best=np.full(n, np.nan), residual=np.inf
        ) from err
    except ValueError as err:  # g p overflows for a finite p near 1e305
        raise ConvergenceError(
            f"NNLS input is not finite: {err}", best=np.full(n, np.nan), residual=np.inf
        ) from err
    if rnorm <= _VANISHING:
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
    g, h = qp.g, qp.h
    try:
        low = np.linalg.cholesky(qp.q)  # Q = low low', so R = low'
    except np.linalg.LinAlgError as err:
        raise NotSpdError(f"reference solve needs a positive definite Q_qp: {err}") from err
    shift = np.linalg.solve(low, qp.c)
    g_x = np.linalg.solve(low, g.T).T
    x, lam = _ldp(g_x, h + g_x @ shift)
    u = np.linalg.solve(low.T, x - shift)
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
    min |x| s.t. G x >= h - G p.  The projector forms G and its Gram matrix
    G G' once, so projecting many points against the same constraint set
    repeats only the mat-vec G p and the NNLS solve, and a point that already
    satisfies every row ends at NNLS's first test.
    """

    def __init__(self, qp: QpProblem):
        self._g, self._h = qp.g, qp.h
        self._gram = self._g @ self._g.T

    def __call__(self, point: Array) -> Array:
        p = np.asarray(point, dtype=float)
        return p + _ldp(self._g, self._h - self._g @ p, self._gram)[0]
