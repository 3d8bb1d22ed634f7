from __future__ import annotations

import math
import warnings
import zlib

import numpy as np
import pytest

import jumpvol as jv
from jumpvol.conditionals import (
    _jump_indicator_posterior,
    _logistic,
    jump_indicator_posterior,
    jump_mean_posterior,
    jump_prob_posterior,
    jump_size_posterior,
    jump_var_posterior,
    mixture_posterior,
    mu_posterior,
)
from jumpvol.errors import SizeError
from oracles import ALL_CHECKS, jump_indicator_error

TV_TOL = 1e-4
EMPTY = np.array([])


class TestMuPosterior:
    def test_empty_conditioning_recovers_prior_exactly(self):
        priors = jv.Priors(mu_mean=1.7, mu_var=3.3)
        assert mu_posterior(EMPTY, EMPTY, EMPTY, EMPTY, priors) == (1.7, 3.3)

    def test_flat_prior_single_observation(self):
        priors = jv.Priors(mu_mean=0.0, mu_var=1e12)
        mean, var = mu_posterior(
            np.array([3.0]), np.array([0.0]), np.array([1.0]), np.array([1.0]), priors
        )
        assert mean == pytest.approx(3.0, rel=1e-9)
        assert var == pytest.approx(1.0, rel=1e-9)

    def test_two_observation_hand_oracle(self):
        priors = jv.Priors(mu_mean=0.0, mu_var=100.0)
        mean, var = mu_posterior(
            np.array([1.0, 2.0]), np.zeros(2), np.ones(2), np.ones(2), priors
        )
        # conjugate-normal oracle: V = 1/(1/C0 + sum w), M = V * sum w*(y - J)
        expect_var = 1.0 / (0.01 + 2.0)
        expect_mean = expect_var * 3.0
        assert var == pytest.approx(expect_var, rel=1e-12)
        assert mean == pytest.approx(expect_mean, rel=1e-12)
        assert var == pytest.approx(0.497512, abs=5e-7)
        assert mean == pytest.approx(1.492537, abs=5e-7)

    def test_sample_uses_posterior(self, rng):
        priors = jv.Priors(mu_mean=0.0, mu_var=1e-12)
        draw = jv.sample_mu(np.array([5.0]), np.zeros(1), np.ones(1), np.ones(1), priors, rng)
        assert abs(draw) < 1e-4  # pinned to the prior mean by the tiny prior variance


class TestMixturePosterior:
    def test_zero_residual(self):
        cfg = jv.ModelConfig(nu=30.0)
        shape, rates = mixture_posterior(np.array([1.0]), 1.0, np.zeros(1), np.ones(1), cfg)
        assert shape == 15.5
        assert rates[0] == 15.0

    def test_unit_residual_precision_two(self):
        cfg = jv.ModelConfig(nu=30.0)
        shape, rates = mixture_posterior(
            np.array([1.0]), 0.0, np.zeros(1), np.array([2.0]), cfg
        )
        assert shape == 15.5
        assert rates[0] == 16.0

    def test_path_is_independent_per_point(self, rng):
        cfg = jv.ModelConfig(nu=10.0)
        y = np.array([0.0, 5.0])
        draws = np.array(
            [jv.sample_mixture_path(y, 0.0, np.zeros(2), np.ones(2), cfg, jv.RngStream(s))
             for s in range(2000)]
        )
        # larger residual pushes the mixture weight down
        assert np.mean(draws[:, 1]) < np.mean(draws[:, 0])


class TestJumpMeanPosterior:
    def test_no_jumps_recovers_prior_exactly(self):
        priors = jv.Priors(jump_mean_mean=-1.25, jump_mean_var=7.5)
        assert jump_mean_posterior(EMPTY, 4.0, priors) == (-1.25, 7.5)

    def test_single_jump_arithmetic(self):
        priors = jv.Priors(jump_mean_mean=0.0, jump_mean_var=100.0)
        mean, var = jump_mean_posterior(np.array([4.0]), 25.0, priors)
        assert mean == pytest.approx(3.2, abs=1e-12)
        assert var == pytest.approx(20.0, abs=1e-12)

    def test_three_jump_hand_oracle(self):
        priors = jv.Priors(jump_mean_mean=1.0, jump_mean_var=4.0)
        xi = np.array([-1.0, -2.0, -3.0])  # mean -2
        mean, var = jump_mean_posterior(xi, 2.0, priors)
        assert mean == pytest.approx((1.0 * 2.0 + 4.0 * 3 * -2.0) / (2.0 + 3 * 4.0), rel=1e-12)
        assert mean == pytest.approx(-1.571429, abs=5e-7)
        assert var == pytest.approx(0.571429, abs=5e-7)


class TestJumpVarPosterior:
    def test_no_jumps_recovers_prior_exactly(self):
        priors = jv.Priors(jump_var_shape=0.1, jump_var_scale=0.1)
        assert jump_var_posterior(EMPTY, -2.5, priors) == (0.1, 0.1)

    def test_two_jump_arithmetic(self):
        priors = jv.Priors(jump_var_shape=0.1, jump_var_scale=0.1)
        shape, scale = jump_var_posterior(np.array([3.0, 5.0]), 4.0, priors)
        assert shape == pytest.approx(1.1, abs=1e-12)
        assert scale == pytest.approx(1.1, abs=1e-12)


class TestJumpSizePosterior:
    def test_equal_precision_average(self):
        means, variances = jump_size_posterior(
            np.array([2.0]), 0.0, np.ones(1), np.ones(1), 0.0, 1.0
        )
        assert means[0] == pytest.approx(1.0, abs=1e-12)
        assert variances[0] == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_prior_collapses_to_jump_mean(self, rng):
        draws = jv.sample_jump_sizes(
            np.array([10.0, -4.0]), 0.0, np.ones(2), np.ones(2), -2.5, 0.0, rng
        )
        np.testing.assert_array_equal(draws, [-2.5, -2.5])

    def test_zero_jump_var_gives_jump_mean_exactly(self):
        gen = np.random.default_rng(11)
        y, lam = gen.normal(0.0, 5.0, 400), gen.lognormal(0.0, 2.0, 400)
        gam = gen.gamma(2.0, 1.0, 400)
        for jump_mean in (-2.5, 0.0, 3.7e-3):
            means, variances = jump_size_posterior(y, 0.3, lam, gam, jump_mean, 0.0)
            assert np.all(means == jump_mean) and np.all(variances == 0.0)

    def test_matches_variance_form(self):
        """The weights form agrees with (m s + c v) / (v + s) and v s / (v + s),
        s = 1 / (mixture * precision)."""
        gen = np.random.default_rng(12)
        for scale in (1e-3, 1.0, 50.0):
            y, mu = gen.normal(0.0, scale, 500), float(gen.normal(0.0, scale))
            lam, gam = gen.lognormal(0.0, 3.0, 500), gen.gamma(2.0, 0.5, 500)
            jump_mean, jump_var = float(gen.normal(0.0, scale)), float(gen.gamma(1.0, scale ** 2))
            means, variances = jump_size_posterior(y, mu, lam, gam, jump_mean, jump_var)
            s, c = 1.0 / (gam * lam), y - mu
            np.testing.assert_allclose(means, (jump_mean * s + c * jump_var) / (jump_var + s),
                                       rtol=1e-12, atol=1e-14 * scale)
            np.testing.assert_allclose(variances, jump_var * s / (jump_var + s), rtol=1e-12)

    def test_hand_oracle(self):
        # jump_mean -2.5, jump_var 16, obs var 4, centered obs -10
        means, variances = jump_size_posterior(
            np.array([-10.0]), 0.0, np.array([0.25]), np.ones(1), -2.5, 16.0
        )
        assert means[0] == pytest.approx((-2.5 * 4.0 + -10.0 * 16.0) / 20.0, abs=1e-12)
        assert means[0] == pytest.approx(-8.5, abs=1e-12)
        assert variances[0] == pytest.approx(3.2, abs=1e-12)


class TestJumpIndicatorProbs:
    def test_zero_size_gives_prior_probability(self):
        for rho in (0.015, 0.3, 0.9):
            p = jv.jump_indicator_probs(
                np.array([1.2]), 0.7, np.ones(1), np.ones(1), np.zeros(1), rho
            )
            assert p[0] == pytest.approx(rho, abs=1e-12)

    def test_degenerate_rho(self):
        y = np.array([0.5, -2.0])
        args = (y, 0.0, np.ones(2), np.ones(2), np.ones(2))
        np.testing.assert_array_equal(jv.jump_indicator_probs(*args, 0.0), [0.0, 0.0])
        np.testing.assert_array_equal(jv.jump_indicator_probs(*args, 1.0), [1.0, 1.0])

    def test_density_ratio_oracle(self):
        # rho=0.5, centered obs 2, size 2, unit variance: p = 1/(1 + exp(-2))
        p = jv.jump_indicator_probs(
            np.array([2.0]), 0.0, np.ones(1), np.ones(1), np.array([2.0]), 0.5
        )
        assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)
        assert p[0] == pytest.approx(0.880797, abs=5e-7)

    def test_probs_in_unit_interval_and_monotone_in_rho(self):
        gen = np.random.default_rng(4)
        for _ in range(25):
            n = int(gen.integers(1, 30))
            y = gen.normal(0.0, 2.0, n)
            lam = gen.uniform(0.2, 3.0, n)
            gam = gen.uniform(0.2, 3.0, n)
            xi = gen.normal(0.0, 3.0, n)
            mu = gen.normal()
            previous = np.zeros(n)
            for rho in (0.01, 0.1, 0.4, 0.8, 0.99):
                p = jv.jump_indicator_probs(y, mu, lam, gam, xi, rho)
                assert np.all(p >= 0.0) and np.all(p <= 1.0)
                assert np.all(p >= previous - 1e-12)
                previous = p

    def test_extreme_values_stay_finite(self):
        p = jv.jump_indicator_probs(
            np.array([500.0]), 0.0, np.ones(1), np.ones(1), np.array([500.0]), 0.015
        )
        assert p[0] == pytest.approx(1.0)

    def test_logistic_never_warns_and_saturates(self):
        z = np.array([-1e300, -800.0, -700.0, -40.0, 0.0, 40.0, 800.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = _logistic(z, np.empty_like(z))
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert p[4] == 0.5
        np.testing.assert_array_equal(p[5:], 1.0)
        assert p[0] == p[1] == p[2] == pytest.approx(1.0 / (1.0 + math.exp(700.0)), rel=1e-12)

    def test_logistic_matches_abs_form(self):
        """exp(-|z|) / (1 + exp(-|z|)) below zero and 1 / (1 + exp(-|z|)) above."""
        z = np.linspace(-700.0, 700.0, 20001)
        e = np.exp(-np.abs(z))
        want = np.where(z < 0.0, e / (1.0 + e), 1.0 / (1.0 + e))
        np.testing.assert_array_max_ulp(_logistic(z, np.empty_like(z)), want, maxulp=4)


class TestJumpIndicatorPosterior:
    def test_hand_oracle(self):
        # rho 0.5, c = jump_mean = 0, w 1, jump_var 3: the odds are
        # phi(0; 0, 4) / phi(0; 0, 1) = 1/2, so p = 1/3.
        p = jump_indicator_posterior(np.array([0.7]), 0.7, np.ones(1), np.ones(1), 0.0, 3.0, 0.5)
        assert p[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_numerical_integration_over_the_jump_size(self):
        gen = np.random.default_rng(zlib.crc32(b"jump_indicator_posterior"))
        for _ in range(5):
            assert jump_indicator_error(gen) <= 1e-10

    def test_degenerate_rho(self):
        args = (np.array([0.5, -2.0]), 0.0, np.ones(2), np.ones(2), -1.0, 2.0)
        np.testing.assert_array_equal(jump_indicator_posterior(*args, 0.0), [0.0, 0.0])
        np.testing.assert_array_equal(jump_indicator_posterior(*args, 1.0), [1.0, 1.0])

    def test_extreme_scales_stay_finite(self):
        """w over 10 decades, jump_var from 1e-8 to 1e4, c from a tenth of an
        observation's sd to a huge jump: finite probabilities in [0, 1]
        without a RuntimeWarning, exact at rho = 0 and 1.  The kernel given
        the four rho as one (4, n) block, a row each, gives the same bits."""
        gen = np.random.default_rng(11)
        n = 3000
        weights = 10.0 ** gen.uniform(-5.0, 5.0, n)
        centered = gen.normal(0.0, 1.0, n) * 10.0 ** gen.uniform(-1.0, 3.0, n) / np.sqrt(weights)
        rhos = (0.0, 1e-4, 0.5, 1.0)
        for jump_var in 10.0 ** np.arange(-8.0, 5.0):
            for jump_mean in (-3.0, 0.0, 2.5):
                rows = []
                for rho in rhos:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        p = jump_indicator_posterior(centered, 0.0, weights, np.ones(n),
                                                     jump_mean, jump_var, rho)
                    assert np.all((p >= 0.0) & (p <= 1.0)), (jump_var, jump_mean, rho)
                    if rho in (0.0, 1.0):
                        np.testing.assert_array_equal(p, rho)
                    else:
                        assert 0.0 < p.max() and p.min() < 1.0
                    rows.append(p)
                block = np.tile(centered, (len(rhos), 1))
                column = np.ones((len(rhos), 1))
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got = _jump_indicator_posterior(
                        np.tile(weights, (len(rhos), 1)), block, jump_mean * column,
                        jump_var * column, np.array(rhos)[:, None], block,
                        (np.empty_like(block), np.empty_like(block)))
                np.testing.assert_array_equal(got, rows)


class TestThreshold:
    def test_strict_inequality_at_boundary(self):
        probs = np.array([0.69, 0.70, 0.71])
        np.testing.assert_array_equal(jv.apply_jump_threshold(probs, 0.7), [0, 0, 1])

    def test_all_zero(self):
        np.testing.assert_array_equal(jv.apply_jump_threshold(np.zeros(4), 0.7), np.zeros(4))

    def test_mixed(self):
        np.testing.assert_array_equal(jv.apply_jump_threshold(np.array([0.95, 0.1]), 0.7), [1, 0])


class TestJumpProbPosterior:
    def test_counting(self):
        priors = jv.Priors(jump_prob_a=2.0, jump_prob_b=40.0)
        ind = np.zeros(100, dtype=int)
        ind[:3] = 1
        assert jump_prob_posterior(ind, priors) == (5.0, 137.0)

    def test_no_jumps(self):
        priors = jv.Priors(jump_prob_a=2.0, jump_prob_b=40.0)
        assert jump_prob_posterior(np.zeros(55, dtype=int), priors) == (2.0, 95.0)

    def test_large_series(self):
        priors = jv.Priors(jump_prob_a=2.0, jump_prob_b=40.0)
        ind = np.zeros(5055, dtype=int)
        ind[:21] = 1
        assert jump_prob_posterior(ind, priors) == (23.0, 5074.0)


# Each public function taking paths aligned with y: a call from a dict of
# paths, and the names of the paths it checks against y.
_PATH_CALLS = {
    "mu_posterior": (lambda p: mu_posterior(
        p["y"], p["jumps"], p["precision"], p["mixture"], jv.Priors()),
        ("jumps", "precision", "mixture")),
    "sample_mu": (lambda p: jv.sample_mu(
        p["y"], p["jumps"], p["precision"], p["mixture"], jv.Priors(), jv.RngStream(1)),
        ("jumps", "precision", "mixture")),
    "mixture_posterior": (lambda p: mixture_posterior(
        p["y"], 0.0, p["jumps"], p["precision"], jv.default_config()),
        ("jumps", "precision")),
    "sample_mixture_path": (lambda p: jv.sample_mixture_path(
        p["y"], 0.0, p["jumps"], p["precision"], jv.default_config(), jv.RngStream(1)),
        ("jumps", "precision")),
    "jump_size_posterior": (lambda p: jump_size_posterior(
        p["y"], 0.0, p["precision"], p["mixture"], 0.0, 1.0),
        ("precision", "mixture")),
    "sample_jump_sizes": (lambda p: jv.sample_jump_sizes(
        p["y"], 0.0, p["precision"], p["mixture"], 0.0, 1.0, jv.RngStream(1)),
        ("precision", "mixture")),
    "jump_indicator_probs": (lambda p: jv.jump_indicator_probs(
        p["y"], 0.0, p["precision"], p["mixture"], p["jump_sizes"], 0.5),
        ("precision", "mixture", "jump_sizes")),
    "jump_indicator_posterior": (lambda p: jump_indicator_posterior(
        p["y"], 0.0, p["precision"], p["mixture"], 0.0, 1.0, 0.5),
        ("precision", "mixture")),
    "forward_filter": (lambda p: jv.forward_filter(
        p["y"], 0.0, p["jumps"], p["mixture"], jv.default_config()),
        ("jumps", "mixture")),
    "conditional_log_lik": (lambda p: jv.conditional_log_lik(
        p["y"], 0.0, p["jumps"], p["precision"], p["mixture"]),
        ("jumps", "precision", "mixture")),
}


@pytest.mark.parametrize(
    "name,path", [(name, path) for name, (_, paths) in _PATH_CALLS.items() for path in paths]
)
def test_shape_mismatches_raise(name, path):
    call = _PATH_CALLS[name][0]
    paths = {"y": np.full(3, 0.5), "jumps": np.zeros(3), "precision": np.ones(3),
             "mixture": np.ones(3), "jump_sizes": np.zeros(3)}
    call(paths)
    paths[path] = paths[path][:2]
    with pytest.raises(SizeError, match=f"{path} shape"):
        call(paths)


@pytest.mark.parametrize("name,check", ALL_CHECKS)
def test_grid_oracle_total_variation(name, check):
    gen = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(3):
        tv = check(gen)
        assert tv < TV_TOL, f"{name}: TV {tv:.2e} >= {TV_TOL}"
