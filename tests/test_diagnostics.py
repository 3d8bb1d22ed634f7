from __future__ import annotations

import math

import numpy as np
import pytest

import jumpvol as jv
from jumpvol.diagnostics import _conditional_log_lik, merge_latent
from jumpvol.errors import ParameterError, SizeError


class TestConditionalLogLik:
    def test_single_point_at_mode_with_two_pi_variance(self):
        # mixture*precision = 1/(2*pi) so the variance is 2*pi and the
        # density at the mode is exactly -ln(2*pi)
        value = jv.conditional_log_lik(
            np.array([0.3]), 0.3, np.zeros(1), np.array([1.0 / (2.0 * math.pi)]), np.ones(1)
        )
        assert value == pytest.approx(-math.log(2.0 * math.pi), abs=1e-12)
        assert value == pytest.approx(-1.837877, abs=5e-7)

    def test_standard_normal_at_mode(self):
        value = jv.conditional_log_lik(np.array([1.0]), 0.0, np.ones(1), np.ones(1), np.ones(1))
        assert value == pytest.approx(-0.918939, abs=5e-7)

    def test_additivity_over_independent_blocks(self):
        gen = np.random.default_rng(11)
        y = gen.normal(size=20)
        jumps = gen.normal(size=20) * 0.3
        lam = gen.uniform(0.5, 2.0, 20)
        gam = gen.uniform(0.5, 2.0, 20)
        total = jv.conditional_log_lik(y, 0.1, jumps, lam, gam)
        first = jv.conditional_log_lik(y[:8], 0.1, jumps[:8], lam[:8], gam[:8])
        second = jv.conditional_log_lik(y[8:], 0.1, jumps[8:], lam[8:], gam[8:])
        assert total == pytest.approx(first + second, rel=1e-12)

    def test_permutation_invariance(self):
        gen = np.random.default_rng(12)
        y = gen.normal(size=15)
        jumps = gen.normal(size=15)
        lam = gen.uniform(0.5, 2.0, 15)
        gam = gen.uniform(0.5, 2.0, 15)
        perm = gen.permutation(15)
        assert jv.conditional_log_lik(y, 0.0, jumps, lam, gam) == pytest.approx(
            jv.conditional_log_lik(y[perm], 0.0, jumps[perm], lam[perm], gam[perm]), rel=1e-12
        )

    def test_matches_density_helper(self):
        y = np.array([0.4, -1.2])
        lam = np.array([2.0, 0.5])
        gam = np.array([1.5, 1.0])
        expected = float(
            np.sum(jv.log_normal_density(y, 0.05, 1.0 / (gam * lam)))
        )
        assert jv.conditional_log_lik(y, 0.05, np.zeros(2), lam, gam) == pytest.approx(expected)

    @pytest.mark.parametrize("n", [2, 252, 6241])
    def test_kernel_matches_summed_densities(self, n):
        """The six-pass kernel the sweep calls against the summed log densities.
        Given a block of draws, a row each with its mu in a column, it gives
        each row's value bit for bit."""
        gen = np.random.default_rng(n)
        y, jumps = gen.standard_t(4.0, n), gen.normal(-2.0, 3.0, n) * (gen.random(n) < 0.05)
        weights = gen.gamma(4.0, 0.25, n) * gen.gamma(15.0, 1.0 / 15.0, n)
        expected = float(np.add.reduce(jv.log_normal_density(y, 0.1 + jumps, 1.0 / weights)))
        got = _conditional_log_lik(y - jumps, 0.1, weights, np.empty(n))
        assert type(got) is float and got == pytest.approx(expected, rel=1e-12)
        mus = np.array([[0.1], [-0.3], [2.0]])
        block = np.stack([y - jumps, y, y + jumps])
        scales = np.stack([weights, weights[::-1], 2.0 * weights])
        rows = [_conditional_log_lik(row, mu, w, np.empty(n))
                for row, mu, w in zip(block, mus[:, 0], scales)]
        np.testing.assert_array_equal(_conditional_log_lik(block, mus, scales, block.copy()), rows)

    def test_domain_errors(self):
        with pytest.raises(SizeError):
            jv.conditional_log_lik(np.zeros(3), 0.0, np.zeros(2), np.ones(3), np.ones(3))
        with pytest.raises(ParameterError):
            jv.conditional_log_lik(np.zeros(2), 0.0, np.zeros(2), np.array([1.0, 0.0]), np.ones(2))

    def test_rejects_non_finite_or_multidimensional_returns(self):
        with pytest.raises(ParameterError):
            jv.conditional_log_lik(np.array([np.nan, 1.0]), 0.0, np.zeros(2), np.ones(2), np.ones(2))
        with pytest.raises(SizeError):
            jv.conditional_log_lik(np.zeros((1, 2)), 0.0, np.zeros((1, 2)), np.ones((1, 2)),
                                   np.ones((1, 2)))


class TestBic:
    def test_zero_loglik(self):
        assert jv.compute_bic(0.0, 2, 100) == pytest.approx(2.0 * math.log(100.0), rel=1e-12)
        assert jv.compute_bic(0.0, 2, 100) == pytest.approx(9.210340, abs=5e-7)

    def test_daily_index_scale(self):
        assert jv.compute_bic(-5972.0, 8, 5055) == pytest.approx(11944 + 8 * math.log(5055))
        assert jv.compute_bic(-5972.0, 8, 5055) == pytest.approx(12012.2, abs=0.05)

    def test_simulated_scale(self):
        assert jv.compute_bic(-5783.0, 8, 5000) == pytest.approx(11634.2, abs=0.1)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            jv.compute_bic(0.0, 0, 100)
        with pytest.raises(ParameterError):
            jv.compute_bic(0.0, 2, 0)
        with pytest.raises(ParameterError):
            jv.compute_bic(math.nan, 2, 100)


class TestDic:
    def test_constant_deviance(self):
        dic, p_d = jv.compute_dic(np.full(50, 123.4), 123.4)
        assert p_d == pytest.approx(0.0, abs=1e-10)
        assert dic == pytest.approx(123.4, abs=1e-10)

    def test_simple_arithmetic(self):
        dic, p_d = jv.compute_dic(np.array([100.0, 120.0]), 100.0)
        assert p_d == 10.0
        assert dic == 120.0

    def test_algebraic_identity(self):
        gen = np.random.default_rng(13)
        for _ in range(10):
            draws = gen.uniform(50.0, 150.0, int(gen.integers(2, 40)))
            at_mean = float(gen.uniform(50.0, 150.0))
            dic, p_d = jv.compute_dic(draws, at_mean)
            assert dic == pytest.approx(at_mean + 2.0 * p_d, rel=1e-14)
            assert dic == pytest.approx(2.0 * float(np.mean(draws)) - at_mean, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(SizeError):
            jv.compute_dic(np.array([]), 1.0)


class TestCoverage:
    def test_degenerate_band(self):
        x = np.array([1.0, 2.0, 3.0])
        assert jv.coverage(x, x, x) == 1.0

    def test_all_outside(self):
        true = np.array([10.0, 12.0])
        assert jv.coverage(true, np.zeros(2), np.ones(2)) == 0.0

    def test_half(self):
        true = np.array([0.5, 5.0])
        assert jv.coverage(true, np.zeros(2), np.ones(2)) == 0.5


class TestEss:
    def test_iid_trace(self):
        gen = np.random.default_rng(14)
        trace = gen.normal(size=10_000)
        value = jv.ess(trace)
        assert 8_000 <= value <= 12_000

    def test_ar1_autocorrelation_time(self):
        gen = np.random.default_rng(15)
        n, phi = 40_000, 0.9
        noise = gen.normal(size=n)
        trace = np.empty(n)
        trace[0] = noise[0]
        for t in range(1, n):
            trace[t] = phi * trace[t - 1] + noise[t]
        expected = n * (1 - phi) / (1 + phi)
        assert abs(jv.ess(trace) - expected) < 0.3 * expected

    def test_constant_trace(self):
        assert jv.ess(np.full(500, 3.3)) == 500.0

    def test_short_trace(self):
        assert jv.ess(np.array([1.0, 2.0])) == 2.0


class TestPsrf:
    def test_identical_stationary_chains(self):
        gen = np.random.default_rng(16)
        trace = gen.normal(size=10_000)
        assert jv.psrf([trace, trace.copy(), trace.copy()]) == pytest.approx(1.0, abs=0.01)

    def test_shifted_chains_flagged(self):
        gen = np.random.default_rng(17)
        a = gen.normal(size=2_000)
        b = gen.normal(size=2_000) + 5.0
        assert jv.psrf([a, b]) > 1.5

    def test_single_chain_split(self):
        gen = np.random.default_rng(18)
        assert jv.psrf([gen.normal(size=4_000)]) == pytest.approx(1.0, abs=0.05)

    def test_needs_enough_draws(self):
        with pytest.raises(SizeError):
            jv.psrf([np.array([1.0, 2.0])])


@pytest.fixture(scope="module")
def fitted(small_sim):
    spec = jv.RunSpec(iterations=600, burn_in=200, thin_lag=2, n_chains=2, seed=5)
    chains = jv.run_multi(small_sim.returns, jv.default_config(), spec)
    report = jv.build_report(chains, small_sim.returns)
    return chains, report


class TestBuildReport:

    def test_dic_identity_holds_exactly(self, fitted):
        _, report = fitted
        assert report.dic == pytest.approx(report.deviance_at_mean + 2.0 * report.p_d, rel=1e-14)

    def test_bic_uses_best_draw(self, fitted):
        chains, report = fitted
        best = max(float(np.max(c.log_lik)) for c in chains)
        assert report.bic == pytest.approx(jv.compute_bic(best, 8, len(chains[0].latent)))
        assert report.k == 8

    def test_param_table(self, fitted):
        _, report = fitted
        names = [p.name for p in report.params]
        assert names == ["mu", "jump_prob", "jump_mean", "jump_var"]
        for p in report.params:
            assert p.ess > 0
            assert p.mcse == pytest.approx(p.sd / math.sqrt(p.ess))

    def test_no_jump_variant_k_and_params(self, small_sim):
        spec = jv.RunSpec(iterations=300, burn_in=100, thin_lag=1, seed=5)
        chains = [jv.run_chain(small_sim.returns, jv.ModelConfig(jumps_enabled=False), spec)]
        report = jv.build_report(chains, small_sim.returns)
        assert report.k == 4
        assert [p.name for p in report.params] == ["mu"]

    def test_k_override(self, small_sim):
        spec = jv.RunSpec(iterations=200, burn_in=50, thin_lag=1, seed=5)
        chains = [jv.run_chain(small_sim.returns, jv.ModelConfig(jumps_enabled=False), spec)]
        assert jv.build_report(chains, small_sim.returns, k=3).k == 3

    def test_jump_and_no_jump_chains_refused(self, fitted, small_sim):
        spec = jv.RunSpec(iterations=20, burn_in=5, thin_lag=1, seed=5)
        no_jump = jv.run_chain(small_sim.returns, jv.ModelConfig(jumps_enabled=False), spec)
        with pytest.raises(ParameterError, match="disagree on the model"):
            jv.build_report([fitted[0][0], no_jump], small_sim.returns)

    def test_merge_latent_averages(self, fitted):
        chains, _ = fitted
        merged = merge_latent(chains)
        expected = 0.5 * (chains[0].latent.var_mean + chains[1].latent.var_mean)
        np.testing.assert_allclose(merged.var_mean, expected, rtol=1e-12)
