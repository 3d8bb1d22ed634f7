from __future__ import annotations

import dataclasses
import itertools
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

import jumpvol as jv
import jumpvol.gibbs as engine
from jumpvol import conditionals, diagnostics, volatility
from jumpvol.errors import NumericalError, ParameterError, SizeError


class TestRunSpec:
    def test_retained_count(self):
        assert jv.RunSpec(iterations=10).n_retained == 10
        assert jv.RunSpec(iterations=300_000, burn_in=60_000, thin_lag=11).n_retained == 21_818
        assert jv.RunSpec(iterations=30_000, burn_in=6_000, thin_lag=3).n_retained == 8_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"iterations": 10, "burn_in": 10},
            {"iterations": 10, "burn_in": -1},
            {"iterations": 10, "thin_lag": 0},
            {"iterations": 10, "burn_in": 9, "thin_lag": 5},
            {"iterations": 10, "n_chains": 0},
            {"iterations": 10, "seed": -1},
        ],
    )
    def test_invalid_specs_rejected_before_running(self, kwargs):
        with pytest.raises(ParameterError):
            jv.RunSpec(**kwargs)


class TestDefaultInit:
    def test_constant_series_falls_back_to_unit_precision(self):
        params, path = jv.default_init(np.full(30, 2.5), jv.default_config())
        assert params.mu == 2.5
        assert np.all(path.precision == 1.0)

    def test_sample_mean_and_pooled_variance(self, small_sim):
        y = small_sim.returns
        params, path = jv.default_init(y, jv.default_config())
        assert params.mu == pytest.approx(float(np.mean(y.returns)), abs=1e-12)
        assert path.precision[0] == pytest.approx(1.0 / np.var(y.returns, ddof=1), rel=1e-12)
        assert np.all(path.mixture == 1.0)
        assert np.all(path.jump_ind == 0)
        assert np.all(path.jump_size == 0.0)

    def test_prior_means_for_jump_block(self):
        params, _ = jv.default_init(np.array([0.1, -0.2, 0.3]), jv.default_config())
        assert params.jump_prob == pytest.approx(2.0 / 42.0)
        assert params.jump_mean == 0.0
        assert params.jump_var == pytest.approx(0.1 / 1.1)


class TestRunChain:
    def test_draw_count(self, small_sim):
        spec = jv.RunSpec(iterations=10, burn_in=0, thin_lag=1, seed=1)
        out = jv.run_chain(small_sim.returns, jv.default_config(), spec)
        assert out.n_draws == 10
        assert out.log_lik.shape == (10,)

    def test_thinning_counts(self, small_sim):
        spec = jv.RunSpec(iterations=53, burn_in=11, thin_lag=4, seed=1)
        out = jv.run_chain(small_sim.returns, jv.default_config(), spec)
        assert out.n_draws == (53 - 11) // 4

    def test_no_jump_reduction(self, small_sim):
        spec = jv.RunSpec(iterations=40, burn_in=10, thin_lag=1, seed=2)
        out = jv.run_chain(small_sim.returns, jv.ModelConfig(jumps_enabled=False), spec)
        assert list(out.draws) == ["chain", "iteration", "mu", "log_lik"]
        assert np.all(out.latent.mean_jump == 0.0)
        assert np.all(out.latent.freq_jump == 0.0)
        assert np.all(out.latent.prob_jump == 0.0)

    def test_bit_identical_reruns(self, small_sim):
        spec = jv.RunSpec(iterations=60, burn_in=20, thin_lag=2, seed=33)
        cfg = jv.default_config()
        a = jv.run_chain(small_sim.returns, cfg, spec)
        b = jv.run_chain(small_sim.returns, cfg, spec)
        assert list(a.draws) == list(b.draws)
        for name in a.draws:
            np.testing.assert_array_equal(a.draws[name], b.draws[name])
        np.testing.assert_array_equal(a.latent.var_mean, b.latent.var_mean)
        np.testing.assert_array_equal(a.latent.var_lo95, b.latent.var_lo95)

    def test_different_seeds_differ(self, small_sim):
        cfg = jv.default_config()
        a = jv.run_chain(small_sim.returns, cfg, jv.RunSpec(iterations=30, seed=1))
        b = jv.run_chain(small_sim.returns, cfg, jv.RunSpec(iterations=30, seed=2))
        assert not np.array_equal(a.mu, b.mu)

    def test_explicit_init_used(self, small_sim):
        y = small_sim.returns
        n = len(y)
        params = jv.StaticParams(mu=9.99, jump_prob=0.2, jump_mean=1.0, jump_var=2.0)
        path = jv.LatentPath(
            precision=np.full(n, 5.0),
            mixture=np.ones(n),
            jump_size=np.zeros(n),
            jump_ind=np.zeros(n, dtype=np.int64),
        )
        spec = jv.RunSpec(iterations=1, burn_in=0, thin_lag=1, seed=1, init=[(params, path)])
        out = jv.run_chain(y, jv.default_config(), spec)
        # the first mu draw conditions on the supplied precision path
        assert out.n_draws == 1

    def test_init_length_validated(self, small_sim):
        params = jv.StaticParams(mu=0.0, jump_prob=0.1, jump_mean=0.0, jump_var=1.0)
        path = jv.LatentPath(
            precision=np.ones(3), mixture=np.ones(3),
            jump_size=np.zeros(3), jump_ind=np.zeros(3, dtype=np.int64),
        )
        spec = jv.RunSpec(iterations=5, seed=1, init=[(params, path)])
        with pytest.raises(SizeError):
            jv.run_chain(small_sim.returns, jv.default_config(), spec)

    def test_short_series_rejected(self):
        with pytest.raises(SizeError):
            jv.run_chain(np.array([0.1]), jv.default_config(), jv.RunSpec(iterations=5))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_abort_reports_iteration(self):
        y = np.array([1e200, -1e200, 1e200, -1e200])
        with pytest.raises(NumericalError, match="iteration 1"):
            jv.run_chain(y, jv.default_config(), jv.RunSpec(iterations=5, seed=1))

    def test_latent_draw_retention(self, small_sim):
        spec = jv.RunSpec(iterations=12, burn_in=4, thin_lag=2, seed=9, keep_latent_draws=True)
        out = jv.run_chain(small_sim.returns, jv.default_config(), spec)
        assert out.latent_draws is not None and len(out.latent_draws) == out.n_draws
        pairs = list(out.iter_draws())
        assert len(pairs) == out.n_draws
        params0, path0 = pairs[0]
        assert isinstance(params0, jv.StaticParams)
        assert len(path0) == len(small_sim.returns)

    def test_bands_exact_over_every_draw_past_the_buffer(self, small_sim):
        spec = jv.RunSpec(iterations=200, burn_in=50, seed=4, keep_latent_draws=True)
        out = jv.run_chain(small_sim.returns, jv.default_config(), spec)
        assert out.n_draws > len(engine._LatentAccumulator(1, out.n_draws).tails)
        draws = np.stack([1.0 / path.precision for path in out.latent_draws])
        lo, hi = np.quantile(draws.astype(np.float32), [0.025, 0.975], axis=0)
        np.testing.assert_array_equal(out.latent.var_lo95, lo)
        np.testing.assert_array_equal(out.latent.var_hi95, hi)
        np.testing.assert_array_equal(out.latent.sd_lo95, np.sqrt(lo))
        np.testing.assert_array_equal(out.latent.sd_hi95, np.sqrt(hi))

    def test_stationarity_smoke_initialized_at_truth(self, small_sim, small_sim_config):
        sc = small_sim_config
        truth = jv.StaticParams(
            mu=sc.mu, jump_prob=sc.jump_prob, jump_mean=sc.jump_mean, jump_var=sc.jump_sd**2
        )
        path = jv.LatentPath(
            precision=1.0 / small_sim.true_variance,
            mixture=small_sim.true_mixture,
            jump_size=small_sim.true_jumps.copy(),
            jump_ind=small_sim.true_jump_times.copy(),
        )
        spec = jv.RunSpec(iterations=500, burn_in=0, thin_lag=1, seed=77, init=[(truth, path)])
        out = jv.run_chain(small_sim.returns, jv.default_config(), spec)
        for name, true_value in (
            ("mu", sc.mu),
            ("jump_prob", sc.jump_prob),
            ("jump_mean", sc.jump_mean),
            ("jump_var", sc.jump_sd**2),
        ):
            draws = out.draws[name]
            spread = float(np.std(draws, ddof=1))
            assert abs(float(np.mean(draws)) - true_value) <= 4.0 * spread, name


class TestSweepOrder:
    def test_conditioning_values_follow_update_order(self, small_sim, monkeypatch):
        """Instrumented sweep: the precision block sees the current iteration's
        mu but the previous iteration's mixture and jumps; the jump-size
        mean/variance blocks see the previous iteration's sizes."""
        import jumpvol.gibbs as engine

        log = {"mu_out": [], "filter_resid": [], "filter_mixture": [], "mixture_out": [],
               "jump_sizes_out": [], "ind_out": [], "jump_mean_sizes_in": []}

        real_sample_mu = engine.sample_mu
        real_forward = engine.forward_filter
        real_mixture = engine.sample_mixture_path
        real_sizes = engine.sample_jump_sizes
        real_jump_mean = engine.sample_jump_mean
        real_threshold = engine.apply_jump_threshold

        def spy_mu(weights, shifted, priors, rng):
            out = real_sample_mu(weights, shifted, priors, rng)
            log["mu_out"].append(out)
            return out

        def spy_forward(resid, mixture, cfg):
            log["filter_resid"].append(np.array(resid, copy=True))
            log["filter_mixture"].append(np.array(mixture, copy=True))
            return real_forward(resid, mixture, cfg)

        def spy_mixture(resid, precision, cfg, rng):
            out = real_mixture(resid, precision, cfg, rng)
            log["mixture_out"].append(np.array(out, copy=True))
            return out

        def spy_sizes(centered, variance, jump_mean, jump_var, rng):
            out = real_sizes(centered, variance, jump_mean, jump_var, rng)
            log["jump_sizes_out"].append(np.array(out, copy=True))
            return out

        def spy_jump_mean(sizes, jump_var, priors, rng):
            log["jump_mean_sizes_in"].append(np.array(sizes, copy=True))
            return real_jump_mean(sizes, jump_var, priors, rng)

        def spy_threshold(probs, threshold):
            out = real_threshold(probs, threshold)
            log["ind_out"].append(np.array(out, copy=True))
            return out

        monkeypatch.setattr(engine, "sample_mu", spy_mu)
        monkeypatch.setattr(engine, "forward_filter", spy_forward)
        monkeypatch.setattr(engine, "sample_mixture_path", spy_mixture)
        monkeypatch.setattr(engine, "sample_jump_sizes", spy_sizes)
        monkeypatch.setattr(engine, "sample_jump_mean", spy_jump_mean)
        monkeypatch.setattr(engine, "apply_jump_threshold", spy_threshold)

        spec = jv.RunSpec(iterations=4, burn_in=0, thin_lag=1, seed=6)
        jv.run_chain(small_sim.returns, jv.default_config(), spec)

        y = small_sim.returns.returns
        jumps = np.zeros(len(y))  # the default start declares no jumps
        for j in range(4):
            # precision block conditions on this iteration's mu draw and on
            # the previous iteration's jumps
            np.testing.assert_array_equal(log["filter_resid"][j], y - log["mu_out"][j] - jumps)
            jumps = log["jump_sizes_out"][j] * log["ind_out"][j]
        for j in range(1, 4):
            # ... and on the previous iteration's mixture path
            np.testing.assert_array_equal(log["filter_mixture"][j], log["mixture_out"][j - 1])
        # first iteration conditions on the initial unit mixture
        np.testing.assert_array_equal(log["filter_mixture"][0], np.ones(len(small_sim.returns)))
        for j in range(1, 4):
            # jump-size mean block sees sizes drawn in the previous iteration
            previous = set(log["jump_sizes_out"][j - 1].tolist())
            assert all(v in previous for v in log["jump_mean_sizes_in"][j].tolist())


def _reference_chain(y, cfg, spec):
    """run_chain's sweep, written with the public checked stage functions.

    Chain 0 from the default start, every stage in the documented order,
    drawing from an equal-seeded stream.  Returns the draws table and the
    retained latent paths.
    """
    rng = jv.RngStream(spec.seed, stream_id=0)
    params, path = jv.default_init(y, cfg)
    mu, jump_prob = params.mu, params.jump_prob
    jump_mean, jump_var = params.jump_mean, params.jump_var
    precision, mixture = path.precision, path.mixture
    jump_size, jump_ind = path.jump_size, path.jump_ind
    jumps = jump_size * jump_ind
    priors = cfg.priors
    rows, paths = [], []
    for j in range(1, spec.iterations + 1):
        mu = conditionals.sample_mu(y, jumps, precision, mixture, priors, rng)
        fs = volatility.forward_filter(y, mu, jumps, mixture, cfg)
        precision = volatility.backward_sample(fs, cfg, rng)
        mixture = conditionals.sample_mixture_path(y, mu, jumps, precision, cfg, rng)
        if cfg.jumps_enabled:
            observed = jump_size[jump_ind == 1]
            jump_mean = conditionals.sample_jump_mean(observed, jump_var, priors, rng)
            jump_var = conditionals.sample_jump_var(observed, jump_mean, priors, rng)
            jump_size = conditionals.sample_jump_sizes(
                y, mu, precision, mixture, jump_mean, jump_var, rng
            )
            probs = conditionals.jump_indicator_probs(
                y, mu, precision, mixture, jump_size, jump_prob
            )
            jump_ind = conditionals.apply_jump_threshold(probs, cfg.jump_threshold)
            jumps = jump_size * jump_ind
            jump_prob = conditionals.sample_jump_prob(jump_ind, priors, rng)
        if j > spec.burn_in and (j - spec.burn_in) % spec.thin_lag == 0:
            log_lik = diagnostics.conditional_log_lik(y, mu, jumps, precision, mixture)
            rows.append(dict(chain=0, iteration=j, mu=mu, jump_prob=jump_prob,
                             jump_mean=jump_mean, jump_var=jump_var, log_lik=log_lik))
            paths.append((precision, mixture, jump_size, jump_ind))
    return rows, paths


@pytest.mark.parametrize("n", [2, 252, 1200])
@pytest.mark.parametrize("omega", [0.05, 0.9, 1.0])
@pytest.mark.parametrize("jumps_enabled", [True, False])
def test_sweep_equals_public_stage_functions(n, omega, jumps_enabled):
    """The sweep, with its workspace arrays formed once, draws bit for bit what
    the public stage functions draw when called in the documented order."""
    y = jv.simulate(jv.SimConfig(n=n, seed=n, jump_prob=0.05)).returns.returns
    cfg = jv.ModelConfig(omega=omega, jumps_enabled=jumps_enabled)
    spec = jv.RunSpec(iterations=31, burn_in=4, thin_lag=3, seed=8, keep_latent_draws=True)
    out = jv.run_chain(y, cfg, spec)
    rows, paths = _reference_chain(y, cfg, spec)
    assert out.n_draws == len(rows) == 9
    for name, column in out.draws.items():
        np.testing.assert_array_equal(column, [row[name] for row in rows], err_msg=name)
    for got, want in zip(out.latent_draws, paths):
        for got_path, want_path in zip(
            (got.precision, got.mixture, got.jump_size, got.jump_ind), want
        ):
            np.testing.assert_array_equal(got_path, want_path)
    if jumps_enabled and n > 2 and omega > 0.05:
        # The jump block ran with declared jumps, not only the empty-set
        # branch.  (At omega = 0.05 the precision follows each observation,
        # and the short run at n = 252 declares none.)
        assert any(p.jump_ind.any() for p in out.latent_draws)


class TestRunMulti:
    def test_single_chain_equals_run_chain(self, small_sim):
        spec = jv.RunSpec(iterations=25, burn_in=5, thin_lag=1, n_chains=1, seed=3)
        multi = jv.run_multi(small_sim.returns, jv.default_config(), spec)
        single = jv.run_chain(small_sim.returns, jv.default_config(), spec)
        assert len(multi) == 1
        np.testing.assert_array_equal(multi[0].mu, single.mu)

    def test_chains_distinct(self, small_sim):
        spec = jv.RunSpec(iterations=25, burn_in=5, thin_lag=1, n_chains=3, seed=3)
        chains = jv.run_multi(small_sim.returns, jv.default_config(), spec)
        for k, c in enumerate(chains):
            np.testing.assert_array_equal(c.draws["chain"], np.full(c.n_draws, k))
        for a, b in itertools.combinations(chains, 2):
            assert not np.array_equal(a.mu, b.mu)

    def test_cross_chain_posterior_agreement(self, small_sim):
        spec = jv.RunSpec(iterations=900, burn_in=300, thin_lag=1, n_chains=3, seed=1234)
        chains = jv.run_multi(small_sim.returns, jv.default_config(), spec)
        means = [float(np.mean(c.mu)) for c in chains]
        for i, j in itertools.combinations(range(3), 2):
            se = np.sqrt(
                np.var(chains[i].mu, ddof=1) / jv.ess(chains[i].mu)
                + np.var(chains[j].mu, ddof=1) / jv.ess(chains[j].mu)
            )
            assert abs(means[i] - means[j]) <= 3.0 * se

    def test_worker_count_is_capped_by_usable_cpus(self):
        assert engine._worker_count(1) == 1
        assert 1 <= engine._worker_count(10**6) <= (os.cpu_count() or 1)

    @pytest.mark.parametrize("workers", [1, 3], ids=["one_thread", "three_threads"])
    @pytest.mark.parametrize("cfg, thin_lag", [
        (jv.default_config(), 1),
        (jv.ModelConfig(jumps_enabled=False), 1),
        (jv.default_config(), 3),
    ], ids=["jump", "no_jump", "thin3"])
    def test_threaded_chains_equal_serial_chains(self, small_sim, monkeypatch, cfg, thin_lag,
                                                 workers):
        spec = jv.RunSpec(iterations=60, burn_in=10, thin_lag=thin_lag, n_chains=3, seed=5)
        serial = [jv.run_chain(small_sim.returns, cfg, spec, chain_id=k) for k in range(3)]
        # One thread for all chains, or one per chain (more than the cores
        # of a small machine), with frequent thread switches.
        monkeypatch.setattr(engine, "_worker_count", lambda n_chains: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = jv.run_multi(small_sim.returns, cfg, spec)
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == 3
        for got, want in zip(threaded, serial):
            assert list(got.draws) == list(want.draws)
            for name in want.draws:
                np.testing.assert_array_equal(got.draws[name], want.draws[name])
            for field in dataclasses.fields(want.latent):
                np.testing.assert_array_equal(getattr(got.latent, field.name),
                                              getattr(want.latent, field.name))

    @staticmethod
    def _stage_spy(monkeypatch, on_sweep, workers=None):
        """Count the sweeps of each chain; on_sweep(chain_id, sweep) runs first.

        The chains run on `workers` threads, one per chain by default.
        """
        sweeps = {}
        sample_mu = engine.sample_mu

        def spy(*args):
            k = args[-1].stream_id
            sweeps[k] = sweeps.get(k, 0) + 1
            on_sweep(k, sweeps[k])
            return sample_mu(*args)

        monkeypatch.setattr(engine, "_worker_count", lambda n_chains: workers or n_chains)
        monkeypatch.setattr(engine, "sample_mu", spy)
        return sweeps

    # Long enough that a chain that is not stopped runs for many seconds.
    _LONG = jv.RunSpec(iterations=100_000, thin_lag=1_000, n_chains=3, seed=2)

    def test_failing_chain_stops_the_others(self, small_sim, monkeypatch):
        def fail(k, sweep):
            if k == 1 and sweep == 5:
                raise FloatingPointError("overflow in a stage")

        sweeps = self._stage_spy(monkeypatch, fail)
        threads = threading.active_count()
        with pytest.raises(NumericalError, match="chain 1: sampler failed at iteration 5"):
            jv.run_multi(small_sim.returns, jv.default_config(), self._LONG)
        assert threading.active_count() == threads
        assert sweeps[1] == 5
        assert all(count < self._LONG.iterations for count in sweeps.values())

    def test_failing_chain_on_one_thread_starts_no_later_chain(self, small_sim, monkeypatch):
        def fail(k, sweep):
            if k == 0 and sweep == 5:
                raise FloatingPointError("overflow in a stage")

        sweeps = self._stage_spy(monkeypatch, fail, workers=1)
        with pytest.raises(NumericalError, match="chain 0: sampler failed at iteration 5"):
            jv.run_multi(small_sim.returns, jv.default_config(), self._LONG)
        assert sweeps == {0: 5}

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_interrupt_stops_every_chain(self, small_sim, monkeypatch):
        def interrupt(k, sweep):
            if k == 0 and sweep == 5:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        sweeps = self._stage_spy(monkeypatch, interrupt)
        with pytest.raises(KeyboardInterrupt):
            jv.run_multi(small_sim.returns, jv.default_config(), self._LONG)
        # A thread that the interrupt caught in start() is not joined by
        # run_multi; it ends before its first sweep.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and any(
            thread.name.startswith("jumpvol-chains-") for thread in threading.enumerate()
        ):
            time.sleep(0.01)
        assert not any(thread.name.startswith("jumpvol-chains-")
                       for thread in threading.enumerate())
        assert all(count < self._LONG.iterations for count in sweeps.values())


def _band_edge_counts():
    """Draw counts one short of, equal to and one past the first trim of the band buffer."""
    def rows(m):
        keep = engine._tail_rows(m)
        return 2 * keep + max(engine._BAND_BATCH, keep)

    return [m for m in range(1, 500) if abs(m - rows(m)) <= 1]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 9, 41, *_band_edge_counts(), 350, 1000])
def test_accumulator_bands_equal_numpy_quantiles(m):
    gen = np.random.default_rng(m)
    precision = gen.lognormal(0.0, 1.0, (m, 6))
    precision[:, 1] = np.round(precision[:, 1], 1) + 0.1  # ties
    precision[:, 2] = np.linspace(1.0, 5.0, m)            # extremes arrive last
    precision[:, 3] = np.linspace(5.0, 1.0, m)            # ... and first
    precision[:, 4] = 2.0
    acc = engine._LatentAccumulator(6, m)
    zeros = np.zeros(6)
    for row in precision:
        acc.add(row, zeros, zeros, zeros, zeros)
    got = acc.summary()
    want = np.quantile((1.0 / precision).astype(np.float32), [0.025, 0.975], axis=0)
    assert got.var_lo95.dtype == want.dtype
    np.testing.assert_array_equal(got.var_lo95, want[0])
    np.testing.assert_array_equal(got.var_hi95, want[1])
    assert len(acc.tails) <= 3 * acc.keep + engine._BAND_BATCH


def _valid_state(n=300, mu=0.1):
    gen = np.random.default_rng(42)
    cfg = jv.default_config()
    ind = (gen.random(n) < 0.05).astype(np.int64)
    sizes = gen.normal(-2.0, 2.0, n)
    y = gen.normal(0.0, 1.0, n) + sizes * ind
    precision = gen.gamma(4.0, 0.25, n)
    mixture = gen.gamma(15.0, 1.0 / 15.0, n)
    jumps = sizes * ind
    return {
        "cfg": cfg,
        "priors": cfg.priors,
        "y": y,
        "precision": precision,
        "mixture": mixture,
        "sizes": sizes,
        "ind": ind,
        "jumps": jumps,
        "observed": sizes[ind == 1],
        # the sweep's workspace arrays at this state, for mu = 0.1
        "weights": mixture * precision,
        "variance": 1.0 / (mixture * precision),
        "shifted": y - jumps,
        "centered": y - mu,
        "resid": y - mu - jumps,
    }


# Arguments of each stage from a valid state and a stream: as a caller passes
# them to the public function and, where they differ, as the sweep passes them
# to the kernel.
_STAGES = {
    "sample_mu": (conditionals, lambda s, r: (
        s["y"], s["jumps"], s["precision"], s["mixture"], s["priors"], r), lambda s, r: (
        s["weights"], s["shifted"], s["priors"], r)),
    "forward_filter": (volatility, lambda s, r: (
        s["y"], 0.1, s["jumps"], s["mixture"], s["cfg"]), lambda s, r: (
        s["resid"], s["mixture"], s["cfg"])),
    "backward_sample": (volatility, lambda s, r: (
        jv.forward_filter(s["y"], 0.1, s["jumps"], s["mixture"], s["cfg"]), s["cfg"], r)),
    "sample_mixture_path": (conditionals, lambda s, r: (
        s["y"], 0.1, s["jumps"], s["precision"], s["cfg"], r), lambda s, r: (
        s["resid"], s["precision"], s["cfg"], r)),
    "sample_jump_mean": (conditionals, lambda s, r: (s["observed"], 3.0, s["priors"], r)),
    "sample_jump_var": (conditionals, lambda s, r: (s["observed"], -2.0, s["priors"], r)),
    "sample_jump_sizes": (conditionals, lambda s, r: (
        s["y"], 0.1, s["precision"], s["mixture"], -2.0, 3.0, r), lambda s, r: (
        s["centered"], s["variance"], -2.0, 3.0, r)),
    "jump_indicator_probs": (conditionals, lambda s, r: (
        s["y"], 0.1, s["precision"], s["mixture"], s["sizes"], 0.05), lambda s, r: (
        s["centered"], s["precision"], s["mixture"], s["sizes"], 0.05)),
    "apply_jump_threshold": (conditionals, lambda s, r: (np.linspace(0.0, 1.0, 300), 0.7)),
    "sample_jump_prob": (conditionals, lambda s, r: (s["ind"], s["priors"], r)),
    "conditional_log_lik": (diagnostics, lambda s, r: (
        s["y"], 0.1, s["jumps"], s["precision"], s["mixture"]), lambda s, r: (
        s["y"], 0.1, s["jumps"], s["variance"])),
}


@pytest.mark.parametrize("name", sorted(_STAGES))
def test_sweep_kernel_matches_public_function(name):
    """The stage the sweep calls is the unchecked kernel of the public function:
    the arrays the sweep forms from the same state and the same seed give
    bit-identical results and generator state."""
    module, args, *kernel_args = _STAGES[name]
    kernel_args = kernel_args[0] if kernel_args else args
    kernel, public = getattr(engine, name), getattr(module, name)
    assert kernel is not public
    state = _valid_state()
    rng_kernel, rng_public = jv.RngStream(5, 1), jv.RngStream(5, 1)
    got, want = kernel(*kernel_args(state, rng_kernel)), public(*args(state, rng_public))
    if isinstance(want, jv.FilterState):
        assert got.plan is want.plan
        got, want = got.b, want.b
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want
    assert rng_kernel.generator.random() == rng_public.generator.random()
