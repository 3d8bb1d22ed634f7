from __future__ import annotations

import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import stats

import jumpvol as jv
import jumpvol.gibbs as engine
from jumpvol import volatility
from jumpvol.errors import ParameterError, SizeError
from jumpvol.volatility import discount_plan, discount_scan


def test_single_step_update():
    cfg = jv.ModelConfig(omega=0.9, a0=0.1, b0=0.1)
    fs = jv.forward_filter(np.array([2.0, 2.0]), 0.0, np.zeros(2), np.ones(2), cfg)
    assert fs.a[1] == pytest.approx(0.59, abs=1e-12)
    assert fs.b[1] == pytest.approx(2.09, abs=1e-12)


def test_zero_residuals_geometric_recursion():
    omega, a0, b0 = 0.85, 0.2, 0.3
    n = 40
    cfg = jv.ModelConfig(omega=omega, a0=a0, b0=b0)
    fs = jv.forward_filter(np.full(n, 1.5), 1.5, np.zeros(n), np.ones(n), cfg)
    t = np.arange(1, n + 1)
    np.testing.assert_allclose(fs.b[1:], omega**t * b0, rtol=1e-10)
    np.testing.assert_allclose(
        fs.a[1:], omega**t * a0 + 0.5 * (1 - omega**t) / (1 - omega), rtol=1e-10
    )


def test_three_step_hand_recursion():
    cfg = jv.ModelConfig(omega=0.9, a0=0.1, b0=0.1)
    y = np.array([1.0, -1.0, 2.0])
    gamma = np.array([1.0, 2.0, 0.5])
    fs = jv.forward_filter(y, 0.0, np.zeros(3), gamma, cfg)

    # independent step-by-step oracle
    a, b = 0.1, 0.1
    expect_a, expect_b = [], []
    for t in range(3):
        a = 0.9 * a + 0.5
        b = 0.9 * b + gamma[t] * y[t] ** 2 / 2.0
        expect_a.append(a)
        expect_b.append(b)
    np.testing.assert_allclose(fs.a[1:], expect_a, rtol=1e-12)
    np.testing.assert_allclose(fs.b[1:], expect_b, rtol=1e-12)
    np.testing.assert_allclose(fs.a[1:], [0.59, 1.031, 1.4279], atol=1e-12)
    np.testing.assert_allclose(fs.b[1:], [0.59, 1.531, 2.3779], atol=1e-12)


def test_forward_filter_deterministic():
    cfg = jv.default_config()
    y = np.linspace(-1.0, 1.5, 30)
    gamma = np.linspace(0.5, 2.0, 30)
    fs1 = jv.forward_filter(y, 0.1, np.zeros(30), gamma, cfg)
    fs2 = jv.forward_filter(y, 0.1, np.zeros(30), gamma, cfg)
    np.testing.assert_array_equal(fs1.a, fs2.a)
    np.testing.assert_array_equal(fs1.b, fs2.b)


def test_forward_filter_accepts_returns_series():
    cfg = jv.default_config()
    series = jv.ReturnsSeries(np.array([0.5, -0.4, 0.2]))
    fs = jv.forward_filter(series, 0.0, np.zeros(3), np.ones(3), cfg)
    assert fs.n == 3


def test_length_mismatch_raises():
    cfg = jv.default_config()
    with pytest.raises(SizeError):
        jv.forward_filter(np.zeros(5), 0.0, np.zeros(4), np.ones(5), cfg)
    with pytest.raises(SizeError):
        jv.forward_filter(np.zeros(5), 0.0, np.zeros(5), np.ones(6), cfg)


def test_nonpositive_mixture_rejected():
    cfg = jv.default_config()
    with pytest.raises(ParameterError):
        jv.forward_filter(np.zeros(3), 0.0, np.zeros(3), np.array([1.0, 0.0, 1.0]), cfg)


def test_backward_sample_refuses_a_state_from_another_omega(rng):
    fs = jv.forward_filter(np.array([1.0, -2.0, 0.5]), 0.0, np.zeros(3), np.ones(3),
                           jv.ModelConfig(omega=0.9))
    with pytest.raises(ParameterError, match="omega"):
        jv.backward_sample(fs, jv.ModelConfig(omega=0.95), rng)


@pytest.mark.parametrize("b, error, match", [
    (np.ones(3), SizeError, "shape"),
    (np.array([1.0, np.inf, 1.0, 1.0]), ParameterError, "finite"),
    (np.array([1.0, 1.0, np.nan, 1.0]), ParameterError, "finite"),
    (np.array([1.0, 1.0, 0.0, 1.0]), ParameterError, "> 0"),
    (np.array([1.0, 1.0, 1.0, -2.0]), ParameterError, "> 0"),
], ids=["length", "inf", "nan", "zero", "negative"])
def test_filter_state_refuses_bad_rates(b, error, match):
    """The public FilterState checks the rates the sweep's kernels take unchecked."""
    plan = discount_plan(0.9, 0.1, 3)
    assert jv.FilterState(plan, np.ones(4)).n == 3
    with pytest.raises(error, match=match):
        jv.FilterState(plan, b)


def test_rate_floor_with_long_zero_stretch():
    cfg = jv.ModelConfig(omega=0.9, a0=0.1, b0=1e-250)
    n = 900
    fs = jv.forward_filter(np.zeros(n), 0.0, np.zeros(n), np.ones(n), cfg)
    assert np.all(fs.b > 0)


def test_backward_unit_discount_constant_path(rng):
    cfg = jv.ModelConfig(omega=1.0)
    fs = jv.forward_filter(np.array([1.0, -2.0, 0.5, 0.3]), 0.0, np.zeros(4), np.ones(4), cfg)
    lam = jv.backward_sample(fs, cfg, rng)
    assert np.all(lam == lam[-1])
    assert lam[-1] > 0


def test_backward_path_positive_and_reproducible():
    cfg = jv.default_config()
    y = np.sin(np.linspace(0.0, 8.0, 200))
    fs = jv.forward_filter(y, 0.0, np.zeros(200), np.ones(200), cfg)
    lam1 = jv.backward_sample(fs, cfg, jv.RngStream(5))
    lam2 = jv.backward_sample(fs, cfg, jv.RngStream(5))
    np.testing.assert_array_equal(lam1, lam2)
    assert np.all(lam1 > 0)


def test_single_point_marginal_moments():
    cfg = jv.ModelConfig(omega=0.9, a0=0.1, b0=0.1)
    fs = jv.forward_filter(np.array([1.3]), 0.0, np.zeros(1), np.ones(1), cfg)
    a1, b1 = fs.a[1], fs.b[1]
    rng = jv.RngStream(31)
    draws = np.array([jv.backward_sample(fs, cfg, rng)[0] for _ in range(100_000)])
    mean, var = a1 / b1, a1 / b1**2
    kurt = 6.0 / a1
    assert abs(np.mean(draws) - mean) < 4.0 * np.sqrt(var / draws.size)
    assert abs(np.var(draws, ddof=1) - var) < 4.0 * var * np.sqrt((kurt + 2.0) / draws.size)


@pytest.fixture(scope="module")
def two_point_draws():
    cfg = jv.ModelConfig(omega=0.9, a0=0.5, b0=0.5)
    fs = jv.forward_filter(np.array([1.0, -0.5]), 0.0, np.zeros(2), np.ones(2), cfg)
    rng = jv.RngStream(77)
    draws = np.array([jv.backward_sample(fs, cfg, rng) for _ in range(20_000)])
    return cfg, fs, draws


class TestJointConsistencyTwoPoints:
    """Backward draws on n=2: terminal marginal is the filtered gamma and the
    innovation mean matches its gamma parameters."""

    @pytest.fixture
    def setup(self, two_point_draws):
        return two_point_draws

    def test_terminal_marginal_ks(self, setup):
        cfg, fs, draws = setup
        result = stats.kstest(draws[:, 1], stats.gamma(a=fs.a[2], scale=1.0 / fs.b[2]).cdf)
        assert result.pvalue > 0.001

    def test_innovation_mean(self, setup):
        cfg, fs, draws = setup
        eta = draws[:, 0] - cfg.omega * draws[:, 1]
        expected = (1.0 - cfg.omega) * fs.a[1] / fs.b[1]
        se = np.std(eta, ddof=1) / np.sqrt(eta.size)
        assert abs(np.mean(eta) - expected) < 4.0 * se

    def test_conditional_mean_identity(self, setup):
        # E[lam_1 | lam_2] = omega*lam_2 + (1-omega)*a_1/b_1 for every draw set
        cfg, fs, draws = setup
        resid = draws[:, 0] - cfg.omega * draws[:, 1]
        assert np.all(resid >= 0.0)


def _loop_scan(increments, omega, start):
    out, x = [], start
    for u in increments:
        x = omega * x + u
        out.append(x)
    return np.array(out)


@pytest.mark.parametrize("omega", [0.05, 0.5, 0.9, 0.999, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 5000, 50_000, "L-1", "L", "L+1"])
def test_discount_scan_matches_loop(omega, n):
    if isinstance(n, str):
        # Around the block length L of a long series, where the scan switches
        # between one block and several.
        n = discount_plan(omega, 0.1, 200_000).block + int(n[1:] or 0)
    gen = np.random.default_rng(n)
    u = gen.uniform(0.0, 2.0, n)
    for first in range(0, n, max(n // 5, 1)):
        u[first : first + min(100, n // 10)] = 0.0
    plan = discount_plan(omega, 0.1, n)
    for m in {n, n - 1}:
        np.testing.assert_allclose(
            discount_scan(u[:m], plan, 0.7), _loop_scan(u[:m], omega, 0.7), rtol=1e-12
        )


def test_scan_in_a_reused_buffer_ignores_what_it_held():
    """The sweep runs its scans in buffers it reuses: infinities that an
    earlier use left past the increments, or in the carries' scratch,
    change no value and raise no warning (pytest turns one into a
    failure)."""
    plan = discount_plan(0.9, 0.1, 2500)
    assert plan.neg.size == 3 * plan.block  # several blocks, the last one padded
    u = np.random.default_rng(3).uniform(0.0, 2.0, 2400)
    stale = np.full(plan.neg.size, np.inf)
    stale[1::2] = -np.inf
    got = volatility._discount_scan(u, plan, 0.7, stale, stale[::-1].copy())
    np.testing.assert_array_equal(got, discount_scan(u, plan, 0.7))


@pytest.mark.parametrize("omega", [0.05, 0.5, 0.9, 0.999, 1.0])
@pytest.mark.parametrize("a0", [0.1, 4.0])
def test_plan_shapes_and_head(omega, a0):
    n = 3000
    plan = discount_plan(omega, a0, n)
    with localcontext() as ctx:
        ctx.prec = 60
        w, a, ref_a, ref_shapes = Decimal(omega), Decimal(a0), [a0], []
        for t in range(1, n + 1):
            a = w * a + Decimal("0.5")
            ref_a.append(float(a))
            if t < n:
                ref_shapes.append(float((1 - w) * a))
    ref_shapes = np.array(ref_shapes)
    np.testing.assert_allclose(plan.a, ref_a, rtol=1e-13)
    # 1/2 + omega^t ((1-omega) a0 - 1/2) is rounded once near 1/2: absolute accuracy.
    np.testing.assert_allclose(plan.shapes, ref_shapes, rtol=0, atol=2e-16)
    off_half = np.flatnonzero(ref_shapes != 0.5)
    head = off_half[-1] + 1 if off_half.size else 0
    # head is the first (0-based, t = head + 1) innovation from which (1-omega) a_t == 1/2.
    assert plan.head == head
    assert np.all(plan.shapes[plan.head :] == 0.5)
    # The head's gammas are drawn at lift with exponent decay; every shape is
    # positive below omega = 1 and 0 at it, where the head draws nothing.
    assert (plan.shapes.min() > 0.0) == (omega < 1.0)
    np.testing.assert_array_equal(plan.lift, plan.shapes[: plan.head] + 1.0)
    np.testing.assert_array_equal(plan.decay, -1.0 / plan.shapes[: plan.head] if omega < 1.0
                                  else np.zeros(plan.head))
    if omega < 0.999:
        assert plan.head < n // 5
    with pytest.raises(ValueError):
        plan.shapes[0] = 1.0


def test_backward_innovations_past_head_are_half_shape_gammas():
    cfg = jv.ModelConfig(omega=0.5, a0=0.1, b0=0.1)
    n = 300
    y = np.sin(np.linspace(0.0, 12.0, n))
    fs = jv.forward_filter(y, 0.0, np.zeros(n), np.ones(n), cfg)
    head = fs.plan.head
    assert 0 < head < n - 100
    rng = jv.RngStream(2024)
    t = np.arange(head + 1, n)  # 1-based times of the Z^2/(2b) innovations
    scaled = []
    for _ in range(150):
        lam = jv.backward_sample(fs, cfg, rng)
        eta = lam[t - 1] - cfg.omega * lam[t]
        scaled.append(2.0 * fs.b[t] * eta)
    # 2 b eta ~ Gamma(1/2, rate 1/2) = chi-square with one degree of freedom.
    result = stats.kstest(np.concatenate(scaled), stats.chi2(1).cdf)
    assert result.pvalue > 0.001


def _head_draws_by_backward_sample(plan, rng, rows, monkeypatch):
    """Rows of head gammas that the public backward_sample passes to its kernel."""
    cfg = jv.ModelConfig(omega=plan.omega)
    y = np.sin(np.arange(plan.n, dtype=float))
    fs = jv.forward_filter(y, 0.0, np.zeros(plan.n), np.ones(plan.n), cfg)
    kernel, drawn = volatility._backward_sample, []

    def spy(plan, b, rng, gammas, *args):
        drawn.append(gammas.copy())
        return kernel(plan, b, rng, gammas, *args)

    monkeypatch.setattr(volatility, "_backward_sample", spy)
    for _ in range(rows):
        jv.backward_sample(fs, cfg, rng)
    return np.array(drawn)


def _head_draws_by_ring(plan, rng, rows, monkeypatch):
    """Rows of head gammas from the Gibbs sweep's variate ring, two rows a chunk."""
    ring = engine._VariateRing(rng, plan, 15.5, 2, -(-rows // 2), None)
    return np.concatenate([ring.take()[0].copy() for _ in range(-(-rows // 2))])[:rows]


@pytest.mark.parametrize("draw", [_head_draws_by_backward_sample, _head_draws_by_ring],
                         ids=["backward_sample", "ring"])
@pytest.mark.parametrize("omega", [0.9, 0.99])
def test_head_innovations_are_gammas_at_the_plan_shapes(omega, draw, monkeypatch):
    """The head's standard gammas, drawn as Gamma(alpha + 1) U^(1/alpha), follow
    Gamma(alpha) at every shape of the plan (0.059 to 1/2 at omega = 0.9,
    0.006 to 1/2 at 0.99): their gamma CDF values are uniform, pooled over
    about 400,000 draws, and so are the draws at the smallest shape alone."""
    plan = discount_plan(omega, 0.1, 4000)
    assert 0 < plan.head < plan.n - 1 and plan.shapes[0] < 0.06
    rows = -(-400_000 // plan.head)
    draws = draw(plan, jv.RngStream(11, 2), rows, monkeypatch)
    assert draws.shape == (rows, plan.head)
    assert np.all(draws >= 0.0)
    cdf = stats.gamma.cdf(draws, plan.shapes[: plan.head])
    assert stats.kstest(cdf.ravel(), "uniform").pvalue > 0.001
    assert stats.kstest(draws[:, 0], stats.gamma(plan.shapes[0]).cdf).pvalue > 0.001


def test_zero_innovation_shapes_draw_exact_zeros():
    """At omega = 1 every innovation shape is 0: the head's variates are exact
    zeros, from the kernel and from the ring, with no warning of any kind,
    and the public backward_sample returns a constant path."""
    n = 600
    plan = discount_plan(1.0, 0.1, n)
    assert plan.head == n - 1 and not plan.shapes.any()
    cfg = jv.ModelConfig(omega=1.0)
    y = np.sin(np.arange(n, dtype=float))
    fs = jv.forward_filter(y, 0.0, np.zeros(n), np.ones(n), cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        head = volatility.innovation_variates(plan, jv.RngStream(3), np.full(plan.head, np.nan),
                                              np.full(plan.head, np.nan))
        ring = engine._VariateRing(jv.RngStream(3), plan, 15.5, 4, 3, None)
        slots = [ring.take()[0].copy() for _ in range(3)]
        lam = jv.backward_sample(fs, cfg, jv.RngStream(3))
    assert np.all(head == 0.0)
    assert all(np.all(slot == 0.0) for slot in slots)
    assert np.all(lam == lam[-1]) and lam[-1] > 0.0


@pytest.mark.parametrize("omega, n", [(0.99, 300), (0.9, 5000)])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_filter_refuses_non_finite_increments_anywhere(omega, n, bad):
    """The sweep's filter checks only the last rate for finiteness: the
    increments are non-negative, so an inf or a NaN at any point, within
    or across scan blocks, reaches it."""
    cfg = jv.ModelConfig(omega=omega)
    plan = discount_plan(omega, cfg.a0, n)
    assert (plan.block == n) == (omega == 0.99)
    gen = np.random.default_rng(n)
    resid, mixture = gen.normal(0.0, 1.0, n), gen.gamma(15.0, 1.0 / 15.0, n)
    out, scratch = np.empty(1 + plan.neg.size), np.empty(n)
    assert np.isfinite(volatility._forward_filter(resid, mixture, plan, cfg.b0, out,
                                                  scratch)).all()
    for t in (0, n // 2, n - 1):
        hit = resid.copy()
        hit[t] = bad
        with pytest.raises(ParameterError, match="finite"):
            volatility._forward_filter(hit, mixture, plan, cfg.b0, out, scratch)
