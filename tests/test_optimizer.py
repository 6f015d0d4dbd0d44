"""Preconditioned iteration: updates, exact mode, retries, lockstep lanes."""

import dataclasses

import numpy as np
import pytest

from mppigrad import analysis, optimizer
from mppigrad.errors import AllInfeasibleError, UnsupportedProblemError
from mppigrad.optimizer import (
    PgdConfig,
    grad_estimate,
    pgd_step,
    run,
    run_exact,
    step_size_rule,
)
from mppigrad.problems import TrajectoryProblem, double_integrator, lqr_problem
from mppigrad.sampling import GaussianPolicy, SampleBatch, draw, weigh, weighted_mean


def box_problem_1d(width, objective=lambda u: float(u[0] ** 2)):
    """Scalar toy problem: cost on u, feasible iff |u| <= width."""
    return TrajectoryProblem(
        control_dim=1,
        horizon=1,
        initial_state=np.zeros(1),
        dynamics=lambda x, u: x + u,
        evaluate=lambda U: (np.array([objective(row) for row in U]), np.abs(U[:, 0]) <= width),
        known_feasible=np.zeros(1),
    )


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="step size"):
        PgdConfig(eta=0.0)
    with pytest.raises(ValueError, match="step size"):
        PgdConfig(eta=-0.5)
    for bad_eta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="step size"):
            PgdConfig(eta=bad_eta)
    with pytest.raises(ValueError):
        PgdConfig(k=0)
    with pytest.raises(ValueError):
        PgdConfig(n_samples=1)
    with pytest.raises(ValueError, match="even"):
        PgdConfig(n_samples=7, antithetic=True)
    assert PgdConfig(n_samples=7, antithetic=False).n_samples == 7


# ---------------------------------------------------------------------------
# grad_estimate
# ---------------------------------------------------------------------------


def test_grad_zero_when_weighted_mean_is_mean():
    policy = GaussianPolicy(np.array([0.7, -0.2]), 0.5, tau=1.3)
    offsets = np.array([[1.0, 0.5], [-1.0, -0.5]])
    batch = SampleBatch(samples=policy.mean + offsets, iteration=0)
    batch.costs = np.zeros(2)
    batch.feasible_flags = np.ones(2, bool)
    s = weigh(batch, policy.tau)
    np.testing.assert_allclose(grad_estimate(policy, batch, s), 0.0, atol=1e-12)


def test_grad_conjugate_case_within_mc_interval():
    sigma2, tau, mu = 0.5, 1.5, 2.0
    policy = GaussianPolicy(np.array([mu]), sigma2, tau)
    batch = draw(policy, 10_000, seed=2)
    batch.costs = 0.5 * batch.samples[:, 0] ** 2
    batch.feasible_flags = np.ones(10_000, bool)
    s = weigh(batch, tau)
    g = grad_estimate(policy, batch, s)[0]
    exact = -tau * (tau * mu / (tau + sigma2) - mu) / sigma2
    wm = weighted_mean(batch, s)[0]
    se_mean = np.sqrt(np.sum(s.normalized_weights**2 * (batch.samples[:, 0] - wm) ** 2))
    se_grad = tau / sigma2 * se_mean
    assert abs(g - exact) <= 3.0 * se_grad


def test_grad_matches_quadrature_fd_pooled():
    """Pooled MC gradient vs central differences of the quadrature free energy.

    A single draw sits at the 1e-3 noise floor, so the estimate is pooled over
    30 frozen seeds (measured pooled error ~1e-4, an order under tolerance).
    """
    sigma2, tau, q, c, mu = 0.5, 2.0, 1.0, 0.3, 1.2
    policy = GaussianPolicy(np.array([mu]), sigma2, tau)
    f0 = lambda pts: 0.5 * q * pts[:, 0] ** 2 + c * pts[:, 0]
    quadrature = analysis.QuadratureOracle(f0, [-20.0], [20.0], policy, 1e-10)

    def free_energy(m):
        return quadrature.free_energy([m])

    h = 1e-3
    g_fd = (free_energy(mu + h) - free_energy(mu - h)) / (2 * h)

    estimates = []
    for seed in range(30):
        batch = draw(policy, 2_000_000, seed=seed, antithetic=True)
        batch.costs = f0(batch.samples)
        batch.feasible_flags = np.abs(batch.samples[:, 0]) <= 20.0
        s = weigh(batch, tau)
        estimates.append(grad_estimate(policy, batch, s)[0])
    pooled = float(np.mean(estimates))
    assert abs(pooled - g_fd) <= 1e-3 * abs(g_fd)


# ---------------------------------------------------------------------------
# pgd_step
# ---------------------------------------------------------------------------


def test_unit_step_reduces_to_weighted_mean_bitwise():
    prob = lqr_problem(double_integrator())
    policy = GaussianPolicy(np.zeros(10), 1e-4, tau=1.0)
    cfg = PgdConfig(eta=1.0, n_samples=128, antithetic=True)
    new_policy, _ = pgd_step(prob, policy, cfg, seed=4, iteration=2)
    # reproduce the internal batch and compare exactly
    batch = draw(policy, 128, seed=4, iteration=2, antithetic=True)
    batch.costs = prob.batch_objective(batch.samples)
    batch.feasible_flags = prob.batch_feasible(batch.samples)
    s = weigh(batch, policy.tau)
    assert np.array_equal(new_policy.mean, weighted_mean(batch, s))


def test_half_step_is_midpoint():
    prob = lqr_problem(double_integrator())
    policy = GaussianPolicy(np.zeros(10), 1e-4, tau=1.0)
    cfg = PgdConfig(eta=0.5, n_samples=128)
    new_policy, _ = pgd_step(prob, policy, cfg, seed=4, iteration=0)
    batch = draw(policy, 128, seed=4, iteration=0, antithetic=True)
    batch.costs = prob.batch_objective(batch.samples)
    batch.feasible_flags = prob.batch_feasible(batch.samples)
    wm = weighted_mean(batch, weigh(batch, policy.tau))
    np.testing.assert_array_equal(new_policy.mean, 0.5 * policy.mean + 0.5 * wm)


def test_vanishing_step_leaves_mean_in_place():
    # eta = 0 itself is rejected by the config (invariant eta > 0); the
    # no-movement limit is realized by a vanishing step instead
    prob = lqr_problem(double_integrator())
    policy = GaussianPolicy(np.full(10, 0.05), 1e-4, tau=1.0)
    cfg = PgdConfig(eta=1e-12, n_samples=64)
    new_policy, _ = pgd_step(prob, policy, cfg, seed=0)
    np.testing.assert_allclose(new_policy.mean, policy.mean, atol=1e-12)


def test_explicit_natural_preconditioner_matches_relaxed_form():
    """The relaxed update is mu - eta P g with P = Sigma/tau written out as a matrix."""
    prob = lqr_problem(double_integrator())
    sigma2, tau, eta = 1e-4, 1.0, 0.7
    policy = GaussianPolicy(np.zeros(10), sigma2, tau)
    cfg = PgdConfig(eta=eta, n_samples=256)
    new_policy, record = pgd_step(prob, policy, cfg, seed=6)
    batch = draw(policy, 256, seed=6, iteration=0, antithetic=True)
    batch.costs, batch.feasible_flags = prob.evaluate_batch(batch.samples)
    g = grad_estimate(policy, batch, weigh(batch, tau))
    p_mat = sigma2 / tau * np.eye(10)
    np.testing.assert_allclose(new_policy.mean, policy.mean - eta * p_mat @ g, atol=1e-12)
    assert record.grad_norm_p == pytest.approx(np.sqrt(g @ p_mat @ g), rel=1e-10)


def test_step_forms_the_weighted_mean_once(monkeypatch):
    calls = []

    def counted(batch, summary):
        calls.append(batch.iteration)
        return weighted_mean(batch, summary)

    monkeypatch.setattr(optimizer, "weighted_mean", counted)
    policy = GaussianPolicy(np.zeros(10), 1e-4, tau=1.0)
    pgd_step(lqr_problem(double_integrator()), policy, PgdConfig(n_samples=64), seed=0)
    assert calls == [0]


def test_record_carries_pre_update_iterate():
    prob = lqr_problem(double_integrator())
    mu0 = np.full(10, 0.01)
    policy = GaussianPolicy(mu0, 1e-4, tau=1.0)
    _, record = pgd_step(prob, policy, PgdConfig(n_samples=64), seed=0)
    np.testing.assert_array_equal(record.mean, mu0)
    assert record.ess >= 1.0
    assert 0.0 < record.acceptance <= 1.0


def test_retry_inflates_sampling_but_returns_original_covariance():
    # mean sits 3 sigma outside the feasible band; the first batch is all
    # infeasible and inflation is needed (seed frozen after measuring retries)
    prob = box_problem_1d(0.2)
    policy = GaussianPolicy(np.array([0.5]), 0.01, tau=1.0)
    cfg = PgdConfig(eta=1.0, n_samples=64, antithetic=True)
    new_policy, record = pgd_step(prob, policy, cfg, seed=1)
    assert record.retries == 2 < optimizer.MAX_RETRIES
    assert new_policy.cov_eig_range() == (0.01, 0.01)  # inflation was sampling-only
    assert abs(new_policy.mean[0]) <= 0.2  # landed on a feasible mean


def test_retries_exhausted_raises_with_trace(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_RETRIES", 3)
    prob = box_problem_1d(1e-6)
    policy = GaussianPolicy(np.array([5.0]), 0.01, tau=1.0)
    cfg = PgdConfig(n_samples=16)
    [(final, trace)] = run(prob, [(policy, cfg)], seed=0)
    assert isinstance(trace.abort, AllInfeasibleError)
    assert len(trace) == 0  # failed on the very first iteration
    assert np.array_equal(final.mean, policy.mean)


def nan_share_problem():
    """Cost u'u, except NaN on rows 1, 5, 9, ... and +inf on rows 3, 11, 19, ...

    Rows 2, 6, 10, ... are flagged infeasible with a finite cost, so they
    must not be counted.  The one-row known-feasible check sees row 0 only.
    """

    def evaluate(controls):
        costs = np.einsum("ij,ij->i", controls, controls)
        costs[1::4] = np.nan
        costs[3::8] = np.inf
        flags = np.ones(controls.shape[0], bool)
        flags[2::4] = False
        return costs, flags

    return TrajectoryProblem(
        control_dim=1, horizon=2, initial_state=np.zeros(1), dynamics=lambda x, u: x + u,
        evaluate=evaluate, known_feasible=np.zeros(2),
    )


def test_records_count_the_nonfinite_costs_of_each_batch():
    # 64 rows: 16 NaN (1::4) and 8 inf (3::8)
    policy = GaussianPolicy(np.zeros(2), 0.1, tau=1.0)
    [(_, trace)] = run(nan_share_problem(), [(policy, PgdConfig(k=3, n_samples=64))], seed=0)
    assert [r.nonfinite for r in trace.records] == [24, 24, 24]
    assert all(np.isfinite(r.best_cost) for r in trace.records)  # weigh's mask, not NaN
    [(_, clean)] = run(box_problem_1d(1.0), [(GaussianPolicy(np.zeros(1), 0.01, tau=1.0),
                                              PgdConfig(k=2, n_samples=16))], seed=0)
    assert [r.nonfinite for r in clean.records] == [0, 0]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_is_deterministic_and_length_bounded():
    prob = lqr_problem(double_integrator())
    policy = GaussianPolicy(np.zeros(10), 1e-4, tau=1.0)
    cfg = PgdConfig(k=7, n_samples=128)
    [(pa, ta)] = run(prob, [(policy, cfg)], seed=3)
    [(pb, tb)] = run(prob, [(policy, cfg)], seed=3)
    assert len(ta) == 7
    assert np.array_equal(pa.mean, pb.mean)
    for ra, rb in zip(ta.records, tb.records):
        assert np.array_equal(ra.mean, rb.mean)
        assert ra.grad_norm_p == rb.grad_norm_p


def test_run_single_step_equals_pgd_step():
    prob = lqr_problem(double_integrator())
    policy = GaussianPolicy(np.zeros(10), 1e-4, tau=1.0)
    cfg = PgdConfig(k=1, n_samples=128)
    [(via_run, _)] = run(prob, [(policy, cfg)], seed=5)
    via_step, _ = pgd_step(prob, policy, cfg, seed=5, iteration=0)
    assert np.array_equal(via_run.mean, via_step.mean)


def test_iter_offset_changes_the_noise_stream():
    prob = lqr_problem(double_integrator())
    policy = GaussianPolicy(np.zeros(10), 1e-4, tau=1.0)
    cfg = PgdConfig(k=1, n_samples=64)
    [(a, _)] = run(prob, [(policy, cfg)], seed=0, iter_offset=0)
    [(b, _)] = run(prob, [(policy, cfg)], seed=0, iter_offset=17)
    assert not np.array_equal(a.mean, b.mean)


def _same_trace(a, b):
    """Equal record by record, bit for bit, except the wall-clock `ms`."""
    assert len(a) == len(b) and type(a.abort) is type(b.abort)
    for ra, rb in zip(a.records, b.records):
        da, db = dataclasses.asdict(ra), dataclasses.asdict(rb)
        assert np.array_equal(da.pop("mean"), db.pop("mean"))
        da.pop("ms"), db.pop("ms")
        assert da == db


def test_lockstep_lanes_equal_lone_runs_and_an_abort_stops_only_its_lane():
    # lane 1 starts outside the box and exhausts its retries at iteration 0
    prob = box_problem_1d(0.2)
    lanes = [
        (GaussianPolicy(np.array([0.1]), 0.01, tau=1.0), PgdConfig(k=4, n_samples=64)),
        (GaussianPolicy(np.array([50.0]), 0.01, tau=1.0), PgdConfig(k=4, n_samples=64)),
        (GaussianPolicy(np.array([-0.1]), 0.04, tau=2.0), PgdConfig(eta=0.5, k=6, n_samples=64)),
    ]
    together = run(prob, lanes, seed=1)
    assert isinstance(together[1][1].abort, AllInfeasibleError) and len(together[1][1]) == 0
    assert [len(trace) for _, trace in together] == [4, 0, 6]
    for lane, (final, trace) in zip(lanes, together):
        [(alone_final, alone)] = run(prob, [lane], seed=1)
        assert np.array_equal(final.mean, alone_final.mean)
        _same_trace(trace, alone)


@pytest.mark.parametrize("other", [
    (GaussianPolicy(np.zeros(2), 0.1, tau=1.0), PgdConfig(n_samples=32)),
    (GaussianPolicy(np.zeros(2), 0.1, tau=1.0), PgdConfig(n_samples=64, antithetic=False)),
    (GaussianPolicy(np.zeros(3), 0.1, tau=1.0), PgdConfig(n_samples=64)),
], ids=["n_samples", "antithetic", "dimension"])
def test_run_rejects_lanes_that_cannot_share_their_noise(other):
    lane = (GaussianPolicy(np.zeros(2), 0.1, tau=1.0), PgdConfig(n_samples=64))
    with pytest.raises(ValueError, match="must agree on n_samples, antithetic and policy dim"):
        run(nan_share_problem(), [lane, other], seed=0)
    with pytest.raises(ValueError, match="at least one"):
        run(nan_share_problem(), [], seed=0)


# ---------------------------------------------------------------------------
# run_exact
# ---------------------------------------------------------------------------


def test_exact_conjugate_geometric_decay():
    sigma2, tau, mu0 = 0.4, 1.1, 3.0
    policy = GaussianPolicy(np.array([mu0]), sigma2, tau)
    oracle = analysis.QuadraticOracle(policy, 1.0, 0.0)
    cfg = PgdConfig(eta=1.0, k=50, n_samples=2)
    _, trace = run_exact(oracle, policy, cfg)
    ratio = tau / (tau + sigma2)
    expected = mu0 * ratio ** np.arange(50)
    np.testing.assert_allclose(trace.column("mean").ravel(), expected, atol=1e-10)


def test_exact_descent_inside_admissible_band():
    policy = GaussianPolicy(np.array([1.5, -2.0]), np.array([0.6, 0.3]), 0.9)
    oracle = analysis.QuadraticOracle(
        policy, np.array([[3.0, 0.5], [0.5, 1.0]]), np.array([0.4, -0.2])
    )
    eta = 1.0 / oracle.l_sigma()
    final, trace = run_exact(oracle, policy, PgdConfig(eta=eta, k=40, n_samples=2))
    f = np.append(trace.column("free_energy"), oracle.free_energy(final.mean))
    assert np.all(np.diff(f) <= 1e-12)


def test_exact_divergence_when_step_credits_exceed_two():
    # sigma2*q = 9*tau makes L = 0.9; eta = 4/L drives |mu| by x3 per step
    policy = GaussianPolicy(np.array([0.5]), 1.0, tau=1.0)
    oracle = analysis.QuadraticOracle(policy, 9.0, 0.0)
    l_sigma = oracle.l_sigma()
    assert l_sigma == pytest.approx(0.9, abs=1e-12)
    _, trace = run_exact(oracle, policy, PgdConfig(eta=4.0 / l_sigma, k=12, n_samples=2))
    means = trace.column("mean").ravel()
    np.testing.assert_allclose(means[1:] / means[:-1], -3.0, atol=1e-9)
    f = trace.column("free_energy")
    assert np.any(np.diff(f) > 0)  # non-monotone: the step is way too long


def test_exact_mode_needs_an_oracle():
    policy = GaussianPolicy(np.zeros(1), 1.0, tau=1.0)
    with pytest.raises(UnsupportedProblemError, match="tilted_mean"):
        run_exact(object(), policy, PgdConfig(n_samples=2))


def test_exact_mode_reads_one_tilt_record_per_iterate(monkeypatch):
    calls = []
    quadrature = analysis.tilted_moments_quadrature

    def counting(*args, **kwargs):
        calls.append(1)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(analysis, "tilted_moments_quadrature", counting)
    policy = GaussianPolicy(np.array([0.8]), 0.4, tau=0.9)
    oracle = analysis.QuadratureOracle(lambda pts: 0.5 * pts[:, 0] ** 2, [-10.0], [10.0], policy)
    _, trace = run_exact(oracle, policy, PgdConfig(eta=1.0, k=40, n_samples=2))
    assert len(trace) == 40
    assert len(calls) == 40


def test_exact_mode_accepts_quadrature_oracle():
    policy = GaussianPolicy(np.array([0.8]), 0.4, tau=0.9)
    oracle = analysis.QuadratureOracle(
        lambda pts: 0.5 * pts[:, 0] ** 2, [-10.0], [10.0], policy
    )
    _, trace = run_exact(oracle, policy, PgdConfig(eta=1.0, k=5, n_samples=2))
    closed = analysis.QuadraticOracle(policy, 1.0, 0.0)
    _, trace_closed = run_exact(closed, policy, PgdConfig(eta=1.0, k=5, n_samples=2))
    np.testing.assert_allclose(
        trace.column("mean"), trace_closed.column("mean"), atol=1e-7
    )


# ---------------------------------------------------------------------------
# step size rule
# ---------------------------------------------------------------------------


def test_step_size_rule_values():
    assert step_size_rule(0.1) == pytest.approx(10.0)
    assert step_size_rule(2.0) == pytest.approx(0.5)
    assert step_size_rule(1.0) == 1.0
    with pytest.raises(ValueError):
        step_size_rule(0.0)
    with pytest.raises(ValueError):
        step_size_rule(-1.0)
