"""Gaussian draws, counter-based streams, and self-normalized weighting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mppigrad import sampling
from mppigrad.errors import AllInfeasibleError, DimensionMismatchError, NotSpdError
from mppigrad.problems import double_integrator, lqr_problem
from mppigrad.sampling import (
    GaussianPolicy,
    SampleBatch,
    batch_rng,
    draw,
    evaluate,
    weigh,
    weighted_mean,
)


def _weighed(costs, flags=None, tau=1.0, samples=None):
    costs = np.asarray(costs, dtype=float)
    n = costs.shape[0]
    if samples is None:
        samples = np.zeros((n, 1))
    batch = SampleBatch(samples=samples, iteration=0)
    batch.costs = costs
    batch.feasible_flags = np.ones(n, bool) if flags is None else np.asarray(flags, bool)
    return batch, weigh(batch, tau)


# ---------------------------------------------------------------------------
# policy representations
# ---------------------------------------------------------------------------


def test_policy_representations_agree():
    mean = np.array([0.3, -1.2, 0.7])
    diag = np.array([0.5, 2.0, 1.3])
    scalar = GaussianPolicy(mean, 0.5, tau=1.0)
    as_diag = GaussianPolicy(mean, np.full(3, 0.5), tau=1.0)
    as_full = GaussianPolicy(mean, 0.5 * np.eye(3), tau=1.0)
    z = np.random.default_rng(0).standard_normal((4, 3))
    for other in (as_diag, as_full):
        np.testing.assert_allclose(other.cov_matrix(), scalar.cov_matrix(), atol=1e-15)
        np.testing.assert_allclose(other.sqrt_mul(z), scalar.sqrt_mul(z), atol=1e-12)
        np.testing.assert_allclose(other.solve(z), scalar.solve(z), atol=1e-12)
    # non-trivial diagonal vs its dense form
    pd = GaussianPolicy(mean, diag, tau=2.0)
    pf = GaussianPolicy(mean, np.diag(diag), tau=2.0)
    u = np.array([1.0, 0.0, -2.0])
    np.testing.assert_allclose(pd.log_density(u), pf.log_density(u), rtol=1e-13)
    np.testing.assert_allclose(pd.solve(u - mean), pf.solve(u - mean), rtol=1e-13)


def test_policy_rejects_bad_covariance_and_temperature():
    with pytest.raises(NotSpdError):
        GaussianPolicy(np.zeros(2), -0.1, tau=1.0)
    with pytest.raises(NotSpdError):
        GaussianPolicy(np.zeros(2), np.array([1.0, 0.0]), tau=1.0)
    with pytest.raises(NotSpdError):
        GaussianPolicy(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), tau=1.0)
    with pytest.raises(NotSpdError, match="symmetric"):
        GaussianPolicy(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), tau=1.0)
    with pytest.raises(ValueError, match="positive"):
        GaussianPolicy(np.zeros(2), 1.0, tau=0.0)
    with pytest.raises(DimensionMismatchError):
        GaussianPolicy(np.zeros(2), np.ones(3), tau=1.0)
    for bad_cov in (np.nan, np.inf, np.array([1.0, np.nan])):
        with pytest.raises(NotSpdError):
            GaussianPolicy(np.zeros(2), bad_cov, tau=1.0)
    for bad_tau in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            GaussianPolicy(np.zeros(2), 1.0, tau=bad_tau)


def test_scalar_and_variance_vector_draw_and_solve_bitwise_alike():
    scalar = GaussianPolicy(np.array([0.3, -1.2, 0.7]), 1e-4, tau=1.0)
    vector = GaussianPolicy(scalar.mean, np.full(3, 1e-4), tau=1.0)
    a, b = draw(scalar, 64, seed=5, antithetic=True), draw(vector, 64, seed=5, antithetic=True)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(scalar.solve(a.samples), vector.solve(a.samples))


@pytest.mark.parametrize(
    "cov", [0.5, np.array([0.5, 2.0]), np.array([[0.8, 0.25], [0.25, 0.5]])],
    ids=["scalar", "diag", "full"],
)
def test_with_mean_rejects_a_mean_of_another_length(cov):
    policy = GaussianPolicy(np.zeros(2), cov, tau=1.0)
    assert np.array_equal(policy.with_mean([1.0, 2.0]).mean, [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        policy.with_mean(np.zeros(3))


def test_score_trivial_cases_and_fd():
    """The u-gradient of log N(u; mu, S) is -S^{-1}(u - mu), minus the score in mu."""
    policy = GaussianPolicy(np.array([0.5, -0.3]), np.eye(2), tau=1.0)
    mode = policy.log_density(policy.mean)
    assert mode == pytest.approx(-np.log(2.0 * np.pi), rel=1e-15)
    e1 = np.array([1.0, 0.0])
    assert policy.log_density(policy.mean + e1) == pytest.approx(mode - 0.5, rel=1e-15)

    full = GaussianPolicy(
        np.array([0.1, 0.4]), np.array([[0.8, 0.25], [0.25, 0.5]]), tau=1.0
    )
    u = np.array([0.9, -0.6])
    h = 1e-6
    fd = np.empty(2)
    for i in range(2):
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (full.log_density(up) - full.log_density(dn)) / (2 * h)
    np.testing.assert_allclose(-full.solve(u - full.mean), fd, atol=1e-6)


@pytest.mark.parametrize(
    "cov",
    [
        0.7,
        np.array([0.5, 2.0, 1.3]),
        np.array([[0.8, 0.25, 0.1], [0.25, 0.5, 0.0], [0.1, 0.0, 1.1]]),
    ],
    ids=["scalar", "diag", "full"],
)
def test_log_density_batches_rows(cov):
    policy = GaussianPolicy(np.array([0.3, -1.2, 0.7]), cov, tau=1.0)
    pts = np.random.default_rng(11).standard_normal((9, 3))
    batched = policy.log_density(pts)
    assert batched.shape == (9,)
    rowwise = np.array([policy.log_density(p) for p in pts])
    assert all(isinstance(policy.log_density(p), float) for p in pts)
    np.testing.assert_allclose(batched, rowwise, rtol=1e-14)
    # and against the dense formula with an explicit inverse and determinant
    sigma = policy.cov_matrix()
    diff = pts - policy.mean
    dense = -0.5 * (
        np.einsum("ij,jk,ik->i", diff, np.linalg.inv(sigma), diff)
        + np.linalg.slogdet(sigma)[1]
        + 3 * np.log(2.0 * np.pi)
    )
    np.testing.assert_allclose(batched, dense, rtol=1e-12)


def test_inflate_scales_covariance_only():
    policy = GaussianPolicy(np.array([1.0, 2.0]), np.array([0.5, 0.25]), tau=3.0)
    fat = policy.inflate(2.0)
    np.testing.assert_array_equal(fat.mean, policy.mean)
    assert fat.tau == policy.tau
    np.testing.assert_allclose(fat.cov_matrix(), 2.0 * policy.cov_matrix(), atol=1e-15)


# ---------------------------------------------------------------------------
# draw
# ---------------------------------------------------------------------------


def test_draw_is_deterministic_bitwise():
    policy = GaussianPolicy(np.zeros(4), 0.7, tau=1.0)
    a = draw(policy, 64, seed=9, iteration=3, antithetic=True)
    b = draw(policy, 64, seed=9, iteration=3, antithetic=True)
    assert np.array_equal(a.samples, b.samples)


def test_draw_streams_differ_across_counters():
    policy = GaussianPolicy(np.zeros(4), 0.7, tau=1.0)
    base = draw(policy, 32, seed=9, iteration=3).samples
    assert not np.array_equal(base, draw(policy, 32, seed=10, iteration=3).samples)
    assert not np.array_equal(base, draw(policy, 32, seed=9, iteration=4).samples)
    assert not np.array_equal(base, draw(policy, 32, seed=9, iteration=3, retry=1).samples)


def test_antithetic_pairs_mirror_through_mean():
    policy = GaussianPolicy(np.array([1.5, -2.0]), np.array([0.3, 1.7]), tau=1.0)
    batch = draw(policy, 100, seed=0, antithetic=True)
    pair_means = 0.5 * (batch.samples[:50] + batch.samples[50:])
    np.testing.assert_allclose(pair_means, np.tile(policy.mean, (50, 1)), atol=1e-14)


def test_draw_argument_validation():
    policy = GaussianPolicy(np.zeros(2), 1.0, tau=1.0)
    with pytest.raises(ValueError, match="even"):
        draw(policy, 7, seed=0, antithetic=True)
    with pytest.raises(ValueError, match="at least 2"):
        draw(policy, 1, seed=0)
    with pytest.raises(ValueError, match="retry"):
        batch_rng(0, 0, retry=256)


def test_empirical_covariance_within_five_percent():
    cov = np.array([[1.0, 0.4], [0.4, 0.8]])
    policy = GaussianPolicy(np.zeros(2), cov, tau=1.0)
    batch = draw(policy, 100_000, seed=1)
    emp = np.cov(batch.samples.T)
    assert np.linalg.norm(emp - cov) <= 0.05 * np.linalg.norm(cov)


# ---------------------------------------------------------------------------
# weigh / weighted_mean
# ---------------------------------------------------------------------------


def test_equal_costs_give_uniform_weights():
    _, s = _weighed(np.full(8, 3.7))
    np.testing.assert_allclose(s.normalized_weights, np.full(8, 0.125), atol=1e-15)
    assert s.effective_sample_size == pytest.approx(8.0, abs=1e-12)
    assert s.acceptance_rate == 1.0


def test_two_sample_hand_weights():
    tau = 1.3
    _, s = _weighed(np.array([0.0, tau * np.log(2.0)]), tau=tau)
    np.testing.assert_allclose(s.normalized_weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_single_feasible_sample_dominates():
    _, s = _weighed(np.array([5.0, 1.0, 2.0, 9.0]), flags=[False, True, False, False])
    np.testing.assert_array_equal(s.normalized_weights, [0.0, 1.0, 0.0, 0.0])
    assert s.effective_sample_size == pytest.approx(1.0)
    assert s.acceptance_rate == pytest.approx(0.25)


def test_all_infeasible_raises():
    batch = SampleBatch(samples=np.zeros((4, 1)), iteration=7)
    batch.costs = np.ones(4)
    batch.feasible_flags = np.zeros(4, bool)
    with pytest.raises(AllInfeasibleError) as err:
        weigh(batch, 1.0)
    assert err.value.n_samples == 4
    assert err.value.iteration == 7


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_cost_counts_as_infeasible(bad):
    batch, s = _weighed(np.array([1.0, bad, 2.0, 3.0]))
    assert np.isfinite(s.normalized_weights).all()
    assert s.normalized_weights[1] == 0.0
    assert s.acceptance_rate == 0.75
    _, clean = _weighed(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(s.normalized_weights[[0, 2, 3]], clean.normalized_weights)


def test_all_non_finite_costs_raise_all_infeasible():
    with pytest.raises(AllInfeasibleError):
        _weighed(np.full(4, np.inf))
    with pytest.raises(AllInfeasibleError):
        _weighed(np.array([np.nan, np.inf, -np.inf]))


def test_unevaluated_batch_rejected():
    batch = SampleBatch(samples=np.zeros((4, 1)), iteration=0)
    with pytest.raises(ValueError, match="evaluated"):
        weigh(batch, 1.0)


def test_weights_normalize_and_shift_is_exact():
    rng = np.random.default_rng(14)
    costs = rng.uniform(0.0, 50.0, 256)
    _, s = _weighed(costs, tau=0.7)
    assert abs(s.normalized_weights.sum() - 1.0) <= 1e-12
    _, s_shift = _weighed(costs + 1000.0, tau=0.7)
    np.testing.assert_allclose(
        s_shift.normalized_weights, s.normalized_weights, atol=1e-12
    )
    # on a dyadic cost grid the +1024 shift is exact in floating point, so
    # max-subtraction makes the weights literally bitwise identical
    dyadic = np.floor(costs * 2**20) / 2**20
    _, a = _weighed(dyadic, tau=1.0)
    _, b = _weighed(dyadic + 1024.0, tau=1.0)
    np.testing.assert_array_equal(a.normalized_weights, b.normalized_weights)
    # log-mean-weight follows the shift exactly: log E[e^{-(c+a)/tau}] = -a/tau + ...
    assert s_shift.log_mean_weight == pytest.approx(
        s.log_mean_weight - 1000.0 / 0.7, rel=1e-12
    )


def test_temperature_limits():
    costs = np.array([3.0, 5.0, 3.0, 8.0])  # tied minimum at indices 0 and 2
    _, hot = _weighed(costs, tau=1e12)
    np.testing.assert_allclose(hot.normalized_weights, 0.25, atol=1e-9)
    _, cold = _weighed(costs, tau=1e-12)
    np.testing.assert_allclose(cold.normalized_weights, [0.5, 0.0, 0.5, 0.0], atol=1e-15)


def test_extreme_costs_do_not_overflow():
    _, s = _weighed(np.array([1e6, 2e6, 3e6]), tau=1e-3)
    assert np.isfinite(s.normalized_weights).all()
    assert s.normalized_weights[0] == pytest.approx(1.0)


def test_weighted_mean_trivial_cases():
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((5, 3))
    batch, s = _weighed(np.full(5, 2.0), samples=samples)
    np.testing.assert_allclose(weighted_mean(batch, s), samples.mean(axis=0), atol=1e-14)

    batch2, s2 = _weighed(
        np.array([0.0, 1e9, 1e9]), samples=samples[:3], tau=1e-6
    )
    np.testing.assert_array_equal(weighted_mean(batch2, s2), samples[0])


def test_weighted_mean_stays_in_sample_hull():
    policy = GaussianPolicy(np.zeros(3), 1.0, tau=0.5)
    batch = draw(policy, 128, seed=3)
    batch.costs = np.einsum("ij,ij->i", batch.samples, batch.samples)
    batch.feasible_flags = np.ones(128, bool)
    s = weigh(batch, policy.tau)
    wm = weighted_mean(batch, s)
    feas = batch.samples
    assert np.all(wm <= feas.max(axis=0) + 1e-12)
    assert np.all(wm >= feas.min(axis=0) - 1e-12)


def test_conjugate_weighted_mean_within_mc_interval():
    """1-D quadratic tilt: weighted mean ~ tau*mu/(tau+sigma2) at N = 1e4."""
    sigma2, tau, mu = 0.5, 1.5, 2.0
    policy = GaussianPolicy(np.array([mu]), sigma2, tau)
    batch = draw(policy, 10_000, seed=12)
    batch.costs = 0.5 * batch.samples[:, 0] ** 2  # f0 = u^2/2, so Q = 1
    batch.feasible_flags = np.ones(10_000, bool)
    s = weigh(batch, tau)
    wm = weighted_mean(batch, s)[0]
    exact = tau * mu / (tau + sigma2)
    se = np.sqrt(np.sum(s.normalized_weights**2 * (batch.samples[:, 0] - wm) ** 2))
    assert abs(wm - exact) <= 3.0 * se


def test_evaluate_fills_costs_and_flags():
    prob = lqr_problem(double_integrator())
    policy = GaussianPolicy(np.zeros(10), 1e-4, tau=1.0)
    batch = evaluate(draw(policy, 16, seed=0), prob)
    assert batch.costs.shape == (16,)
    assert batch.feasible_flags.dtype == bool
    np.testing.assert_allclose(batch.costs, prob.batch_objective(batch.samples))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@st.composite
def scored_batch(draw, max_n=40):
    """Samples in up to 4 dims with bounded costs and at least one feasible row."""
    n = draw(st.integers(2, max_n))
    dim = draw(st.integers(1, 4))
    costs = draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flags[draw(st.integers(0, n - 1))] = True
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, dim))
    tau = draw(st.floats(0.1, 10.0))
    return samples, np.array(costs), np.array(flags), tau


def _weigh_scored(samples, costs, flags, tau):
    batch = SampleBatch(samples=samples, iteration=0)
    batch.costs = costs
    batch.feasible_flags = flags
    return batch, weigh(batch, tau)


@settings(max_examples=100, deadline=None)
@given(scored_batch(), st.floats(-1e3, 1e3))
def test_weights_are_invariant_to_a_cost_shift(case, shift):
    samples, costs, flags, tau = case
    _, s = _weigh_scored(samples, costs, flags, tau)
    _, shifted = _weigh_scored(samples, costs + shift, flags, tau)
    # -(c + a)/tau carries rounding of order eps (|c| + |a|) / tau <= 3e-11
    np.testing.assert_allclose(shifted.normalized_weights, s.normalized_weights, atol=1e-10)
    assert shifted.effective_sample_size == pytest.approx(s.effective_sample_size, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(scored_batch())
def test_weights_are_normalized_over_the_feasible_samples(case):
    samples, costs, flags, tau = case
    _, s = _weigh_scored(samples, costs, flags, tau)
    w = s.normalized_weights
    assert abs(w.sum() - 1.0) <= 1e-12
    assert w.min() >= 0.0
    assert np.all(w[~flags] == 0.0)
    assert 1.0 - 1e-12 <= s.effective_sample_size <= flags.sum() * (1.0 + 1e-12)
    assert s.acceptance_rate == flags.mean()


@settings(max_examples=100, deadline=None)
@given(scored_batch(), st.integers(0, 2**32 - 1))
def test_weighted_mean_lies_in_the_hull_of_the_feasible_samples(case, seed):
    """No supporting half-space of the feasible samples excludes the weighted mean."""
    samples, costs, flags, tau = case
    batch, s = _weigh_scored(samples, costs, flags, tau)
    wm = weighted_mean(batch, s)
    dim = samples.shape[1]
    directions = np.vstack(
        [np.eye(dim), -np.eye(dim), np.random.default_rng(seed).normal(size=(16, dim))]
    )
    support = (samples[flags] @ directions.T).max(axis=0)
    scale = 1.0 + np.abs(samples).max() * np.abs(directions).sum(axis=1)
    assert np.all(directions @ wm <= support + 1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 32),
    st.integers(1, 5),
    st.sampled_from(["scalar", "diag", "full"]),
)
def test_antithetic_rows_reflect_through_the_mean(seed, half, dim, kind):
    rng = np.random.default_rng(seed)
    mean = rng.uniform(-10.0, 10.0, dim)
    if kind == "scalar":
        cov = rng.uniform(0.01, 4.0)
    elif kind == "diag":
        cov = rng.uniform(0.01, 4.0, dim)
    else:
        root = rng.normal(size=(dim, dim))
        cov = root @ root.T + 0.1 * np.eye(dim)
    policy = GaussianPolicy(mean, cov, tau=1.0)
    samples = draw(policy, 2 * half, seed=seed % 1000, iteration=3, antithetic=True).samples
    offsets = samples - mean
    # each row is mean + x rounded, so the offsets mirror up to eps * |row|
    tol = 4e-16 * (np.abs(mean).max() + np.abs(offsets).max())
    np.testing.assert_allclose(offsets[:half], -offsets[half:], rtol=0, atol=tol)
