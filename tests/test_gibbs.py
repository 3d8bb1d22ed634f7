from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import jumpvol as jv
import jumpvol.gibbs as engine
from jumpvol import conditionals, diagnostics, volatility
from jumpvol.errors import NumericalError, ParameterError, SizeError

_PARAMS = jv.StaticParams(mu=0.0, jump_prob=0.1, jump_mean=0.0, jump_var=1.0)
_PATH = jv.LatentPath(precision=np.ones(3), mixture=np.ones(3), jump_size=np.zeros(3),
                      jump_ind=np.zeros(3, dtype=np.int64))


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

    @pytest.mark.parametrize("init", [
        [("a", "b")],
        5,
        [(_PARAMS,)],
        [(_PATH, _PARAMS)],
        (_PARAMS, _PATH),
        [(_PARAMS, _PATH), None],
    ], ids=["strings", "int", "one_tuple", "swapped", "unwrapped", "none_entry"])
    def test_init_entries_must_be_pairs(self, init):
        with pytest.raises(ParameterError, match="init must be a sequence of"):
            jv.RunSpec(iterations=5, init=init)


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

    def test_no_jump_fit_refuses_an_initial_jump(self, small_sim):
        """A no-jump fit would carry a jump of its start, fixed, through every sweep."""
        y = small_sim.returns
        n = len(y)
        path = jv.LatentPath(precision=np.ones(n), mixture=np.ones(n),
                             jump_size=np.zeros(n), jump_ind=np.zeros(n, dtype=np.int64))
        jumpy = dataclasses.replace(path, jump_size=np.full(n, 5.0),
                                    jump_ind=np.eye(1, n, 3, dtype=np.int64)[0])
        spec = jv.RunSpec(iterations=5, n_chains=2, seed=1,
                          init=[(_PARAMS, path), (_PARAMS, jumpy)])
        no_jumps = jv.ModelConfig(jumps_enabled=False)
        assert jv.run_chain(y, no_jumps, spec).n_draws == 5
        assert jv.run_chain(y, jv.default_config(), spec, chain_id=1).n_draws == 5
        with pytest.raises(ParameterError, match="chain 1: the initial path has jumps"):
            jv.run_multi(y, no_jumps, spec)

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
        n = len(small_sim.returns)
        kept = out.latent_draws
        assert list(kept) == [f.name for f in dataclasses.fields(jv.LatentPath)]
        for name, rows in kept.items():
            assert rows.shape == (out.n_draws, n), name
            assert rows.dtype == (np.int64 if name == "jump_ind" else np.float64), name
        # Row i is the state of row i of draws: a valid LatentPath whose
        # jumps give back the retained log-likelihood of that draw.
        for i in range(out.n_draws):
            path = jv.LatentPath(**{name: rows[i] for name, rows in kept.items()})
            assert len(path) == n
            log_lik = jv.conditional_log_lik(
                small_sim.returns, out.mu[i], path.jumps, path.precision, path.mixture
            )
            assert log_lik == out.log_lik[i]
        assert jv.run_chain(small_sim.returns, jv.default_config(), jv.RunSpec(
            iterations=12, burn_in=4, thin_lag=2, seed=9)).latent_draws is None

    def test_bands_exact_over_every_draw_past_the_buffer(self, small_sim):
        spec = jv.RunSpec(iterations=200, burn_in=50, seed=4, keep_latent_draws=True)
        out = jv.run_chain(small_sim.returns, jv.default_config(), spec)
        assert out.n_draws > len(engine._LatentAccumulator(1, out.n_draws).tails)
        draws = 1.0 / out.latent_draws["precision"]
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
        mean/variance blocks see the previous iteration's declared sizes.  The
        jump sizes and indicators come at the candidates alone, so they are
        mapped back to t through the candidates' times."""
        import jumpvol.gibbs as engine

        log = {"mu_out": [], "filter_resid": [], "filter_mixture": [], "mixture_out": [],
               "candidates": [], "jump_sizes_out": [], "ind_out": [], "jump_mean_sizes_in": []}

        real_sample_mu = engine.sample_mu
        real_forward = engine.forward_filter
        real_mixture = engine.sample_mixture_path
        real_candidates = engine._jump_candidates
        real_sizes = engine.sample_jump_sizes
        real_jump_mean = engine.sample_jump_mean
        real_threshold = engine.apply_jump_threshold

        def spy_mu(weights, shifted, priors, work, rng):
            out = real_sample_mu(weights, shifted, priors, work, rng)
            log["mu_out"].append(out)
            return out

        def spy_forward(resid, mixture, plan, b0, rates, scratch):
            log["filter_resid"].append(np.array(resid, copy=True))
            log["filter_mixture"].append(np.array(mixture, copy=True))
            return real_forward(resid, mixture, plan, b0, rates, scratch)

        def spy_mixture(resid, precision, cfg, variates, path):
            out = real_mixture(resid, precision, cfg, variates, path)
            log["mixture_out"].append(np.array(out, copy=True))
            return out

        def spy_candidates(*args):
            found = real_candidates(*args)
            log["candidates"].append(found.copy())
            return found

        def spy_sizes(centered, weights, jump_mean, jump_var, variates, path, work):
            out = real_sizes(centered, weights, jump_mean, jump_var, variates, path, work)
            log["jump_sizes_out"].append(np.array(out, copy=True))
            return out

        def spy_jump_mean(sizes, jump_var, priors, rng):
            log["jump_mean_sizes_in"].append(np.array(sizes, copy=True))
            return real_jump_mean(sizes, jump_var, priors, rng)

        def spy_threshold(probs, threshold, mask):
            out = real_threshold(probs, threshold, mask)
            log["ind_out"].append(np.array(out, copy=True))
            return out

        monkeypatch.setattr(engine, "sample_mu", spy_mu)
        monkeypatch.setattr(engine, "forward_filter", spy_forward)
        monkeypatch.setattr(engine, "sample_mixture_path", spy_mixture)
        monkeypatch.setattr(engine, "_jump_candidates", spy_candidates)
        monkeypatch.setattr(engine, "sample_jump_sizes", spy_sizes)
        monkeypatch.setattr(engine, "sample_jump_mean", spy_jump_mean)
        monkeypatch.setattr(engine, "apply_jump_threshold", spy_threshold)

        spec = jv.RunSpec(iterations=4, burn_in=0, thin_lag=1, seed=6)
        jv.run_chain(small_sim.returns, jv.default_config(), spec)

        y = small_sim.returns.returns
        drawn = iter(zip(log["jump_sizes_out"], log["ind_out"]))
        jumps = np.zeros(len(y))  # the default start declares no jumps
        declared_sizes = np.empty(0)
        for j in range(4):
            # precision block conditions on this iteration's mu draw and on
            # the previous iteration's jumps
            np.testing.assert_array_equal(log["filter_resid"][j], y - log["mu_out"][j] - jumps)
            # jump-size mean block sees the sizes declared in the previous iteration
            np.testing.assert_array_equal(log["jump_mean_sizes_in"][j], declared_sizes)
            jumps, declared_sizes = np.zeros(len(y)), np.empty(0)
            found = log["candidates"][j]
            if found.size:
                sizes, ind = next(drawn)
                assert sizes.shape == ind.shape == found.shape
                jumps[found[ind]] = declared_sizes = sizes[ind]
        assert next(drawn, None) is None
        assert any(len(sizes) for sizes in log["jump_mean_sizes_in"])
        for j in range(1, 4):
            # ... and on the previous iteration's mixture path
            np.testing.assert_array_equal(log["filter_mixture"][j], log["mixture_out"][j - 1])
        # first iteration conditions on the initial unit mixture
        np.testing.assert_array_equal(log["filter_mixture"][0], np.ones(len(small_sim.returns)))


def _logit(p):
    return math.log(p) - math.log1p(-p)


def _candidates(weights, centered, jump_prob, threshold, margin=1.0 - 1e-9):
    """Where the threshold rule can declare a jump: w c^2 > 2 (logit(threshold) -
    logit(rho)) margin, or every t when that gap is <= 0."""
    gap = _logit(threshold) - _logit(jump_prob)
    if gap <= 0.0:
        return np.arange(weights.size)
    return np.flatnonzero(weights * centered * centered > 2.0 * gap * margin)


def _reference_chain(y, cfg, spec):
    """run_chain's sweep, written with the public checked stage functions.

    Chain 0 from spec.init's first start or the default one, every stage in
    the documented order, drawing from an equal-seeded stream.  On a jump
    fit the jump sizes' normals at the candidates come from rng.jump_normals
    and the others from an unrelated generator, which no output may read.
    Returns the draws table and the retained latent paths, whose jump_size
    rows are the jumps.
    """
    rng = jv.RngStream(spec.seed, stream_id=0)
    unrelated = np.random.default_rng(12345)
    params, path = spec.init[0] if spec.init else jv.default_init(y, cfg)
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
            means, variances = conditionals.jump_size_posterior(
                y, mu, precision, mixture, jump_mean, jump_var)
            variates = unrelated.standard_normal(len(y))
            found = _candidates(mixture * precision, y - mu, jump_prob, cfg.jump_threshold)
            variates[found] = rng.jump_normals.standard_normal(found.size)
            jump_size = means + np.sqrt(variances) * variates
            probs = conditionals.jump_indicator_probs(
                y, mu, precision, mixture, jump_size, jump_prob
            )
            jump_ind = conditionals.apply_jump_threshold(probs, cfg.jump_threshold)
            assert jump_ind.dtype == np.int64
            jumps = jump_size * jump_ind
            jump_prob = conditionals.sample_jump_prob(jump_ind, priors, rng)
        if j > spec.burn_in and (j - spec.burn_in) % spec.thin_lag == 0:
            log_lik = diagnostics.conditional_log_lik(y, mu, jumps, precision, mixture)
            rows.append(dict(chain=0, iteration=j, mu=mu, jump_prob=jump_prob,
                             jump_mean=jump_mean, jump_var=jump_var, log_lik=log_lik))
            paths.append((precision, mixture, jumps, jump_ind))
    return rows, paths


@pytest.mark.parametrize("n", [2, 252, 999, 1000, 1200])
@pytest.mark.parametrize("omega", [0.05, 0.9, 1.0])
@pytest.mark.parametrize("jumps_enabled", [True, False])
def test_sweep_equals_public_stage_functions(n, omega, jumps_enabled, monkeypatch):
    """The sweep, with its workspace arrays formed once, draws bit for bit what
    the public stage functions draw when called in the documented order, and
    returns no array that shares memory with the workspace.  Every sweep of
    a jump fit, kept or not, runs the jump stages on the candidates alone,
    and draws what the public stages draw with every size drawn; a sweep
    without a candidate skips them."""
    y = jv.simulate(jv.SimConfig(n=n, seed=n, jump_prob=0.05)).returns.returns
    cfg = jv.ModelConfig(omega=omega, jumps_enabled=jumps_enabled)
    buffers = _spy_stage_arrays(monkeypatch)
    sizes, calls = engine.sample_jump_sizes, []
    monkeypatch.setattr(engine, "sample_jump_sizes",
                        lambda centered, *args: calls.append(centered.size) or
                        sizes(centered, *args))
    found = _spy_candidates(monkeypatch)
    for thin_lag in (1, 3):
        calls.clear()
        found.clear()
        spec = jv.RunSpec(iterations=31, burn_in=4, thin_lag=thin_lag, seed=8,
                          keep_latent_draws=True)
        out = jv.run_chain(y, cfg, spec)
        _check_equals_reference(out, *_reference_chain(y, cfg, spec), buffers)
        assert len(found) == (spec.iterations if jumps_enabled else 0)
        assert calls == [size for size in found if size]
        assert n < 252 or max(calls, default=0) < n // 10
        if jumps_enabled and n > 2 and omega > 0.05:
            # The jump block ran with declared jumps, not only the empty-set
            # branch.  (At omega = 0.05 the precision follows each observation,
            # and the short run at n = 252 declares none.)
            assert out.latent_draws["jump_ind"].any()


_INTRADAY_LAW = dict(mu=0.0, jump_prob=0.0087, jump_mean=-0.02, jump_sd=0.05, theta=0.002,
                     sigma_v=0.002)


@pytest.mark.parametrize("thin_lag", [1, 3])
def test_quiet_series_sweeps_without_candidates_equal_reference(thin_lag, monkeypatch):
    """On the intraday law the jump sd is about the returns' own sd, and many
    sweeps find no candidate.  Such a sweep skips the jump stages and resets
    only the last sweep's jumps; a sweep that starts with no declared jump
    filters centered in place of resid.  The chain still draws bit for bit
    what the public stage functions draw, both where the sweep before an
    empty C declared jumps and where it declared none."""
    n = 1200
    y = jv.simulate(jv.SimConfig(n=n, seed=3, **_INTRADAY_LAW)).returns.returns
    cfg = jv.default_config()
    buffers = _spy_stage_arrays(monkeypatch)
    found = _spy_candidates(monkeypatch)
    declared, sample_jump_prob = [], engine.sample_jump_prob
    monkeypatch.setattr(engine, "sample_jump_prob",
                        lambda count, *args: declared.append(count) or
                        sample_jump_prob(count, *args))
    spec = jv.RunSpec(iterations=31, burn_in=4, thin_lag=thin_lag, seed=8,
                      keep_latent_draws=True)
    out = jv.run_chain(y, cfg, spec)
    _check_equals_reference(out, *_reference_chain(y, cfg, spec), buffers)
    empty_after = [declared[j - 1] > 0 for j in range(1, spec.iterations) if not found[j]]
    assert True in empty_after and False in empty_after
    assert out.latent_draws["jump_ind"].any()


def test_initial_undeclared_sizes_change_no_draw(monkeypatch):
    """An initial path's undeclared negative sizes change no draw of a jump
    fit, kept jump paths included, where the first sweep finds no candidate
    and skips the jump stages: no -0.0 reaches the kept jumps."""
    n = 1200
    y = jv.simulate(jv.SimConfig(n=n, seed=3, **_INTRADAY_LAW)).returns.returns
    cfg = jv.default_config()
    params, path = jv.default_init(y, cfg)
    params = dataclasses.replace(params, jump_prob=1e-3)  # the first sweep finds no candidate
    signed = dataclasses.replace(path, jump_size=np.full(n, -1.0))
    spec = jv.RunSpec(iterations=12, seed=8, keep_latent_draws=True)
    found = _spy_candidates(monkeypatch)
    outs = [jv.run_chain(y, cfg, dataclasses.replace(spec, init=[(params, start)]))
            for start in (path, signed)]
    assert found[0] == found[spec.iterations] == 0
    for name, column in outs[0].draws.items():
        np.testing.assert_array_equal(outs[1].draws[name], column, err_msg=name)
    for name, rows in outs[0].latent_draws.items():
        assert outs[1].latent_draws[name].tobytes() == rows.tobytes(), name
    kept = outs[1].latent_draws
    assert not np.signbit(kept["jump_size"][kept["jump_ind"] == 0]).any()


def test_no_jump_fit_ignores_undeclared_initial_sizes():
    """A no-jump fit from a start that holds negative sizes but declares no
    jump draws and keeps what it does from zero sizes, bit for bit: no
    undeclared time reaches the jump sums or the kept indicators."""
    n = 300
    y = jv.simulate(jv.SimConfig(n=n, seed=1)).returns.returns
    cfg = jv.ModelConfig(jumps_enabled=False)
    params, path = jv.default_init(y, cfg)
    signed = dataclasses.replace(path, jump_size=np.full(n, -1.0))
    spec = jv.RunSpec(iterations=12, seed=8, keep_latent_draws=True)
    outs = [jv.run_chain(y, cfg, dataclasses.replace(spec, init=[(params, start)]))
            for start in (path, signed)]
    for name, column in outs[0].draws.items():
        np.testing.assert_array_equal(outs[1].draws[name], column, err_msg=name)
    for name, rows in outs[0].latent_draws.items():
        assert outs[1].latent_draws[name].tobytes() == rows.tobytes(), name
    assert outs[1].latent.mean_jump.tobytes() == np.zeros(n).tobytes()


def test_initial_declared_jumps_equal_reference(monkeypatch):
    """A jump fit from a start that declares jumps, and holds negative sizes
    where it declares none, draws bit for bit what the public stage functions
    draw from that start: the first sweep's mu, filter, mixture path and
    jump mean read the initial jumps."""
    n = 252
    y = jv.simulate(jv.SimConfig(n=n, seed=n, jump_prob=0.05)).returns.returns
    cfg = jv.default_config()
    params, path = jv.default_init(y, cfg)
    ind = (np.abs(y - y.mean()) > 2.0 * y.std()).astype(np.int64)
    start = dataclasses.replace(path, jump_size=np.where(ind == 1, y - y.mean(), -1.0),
                                jump_ind=ind)
    assert 0 < ind.sum() < n // 10
    buffers = _spy_stage_arrays(monkeypatch)
    spec = jv.RunSpec(iterations=12, seed=8, keep_latent_draws=True, init=[(params, start)])
    out = jv.run_chain(y, cfg, spec)
    _check_equals_reference(out, *_reference_chain(y, cfg, spec), buffers)


def _spy_candidates(monkeypatch):
    """Record the size of each sweep's candidate set C."""
    sizes, candidates = [], engine._jump_candidates

    def spy(*args):
        found = candidates(*args)
        sizes.append(found.size)
        return found

    monkeypatch.setattr(engine, "_jump_candidates", spy)
    return sizes


def _check_equals_reference(out, rows, paths, buffers):
    assert out.n_draws == len(rows)
    for name, column in out.draws.items():
        np.testing.assert_array_equal(column, [row[name] for row in rows], err_msg=name)
        assert column.dtype == (np.int64 if name in ("chain", "iteration") else np.float64), name
    for i, want in enumerate(paths):
        for (name, kept), want_path in zip(out.latent_draws.items(), want):
            np.testing.assert_array_equal(kept[i], want_path, err_msg=name)
            assert kept.dtype == want_path.dtype, name
    assert out.latent_draws["jump_ind"].dtype == np.int64
    assert all(kept.dtype == np.float64 for name, kept in out.latent_draws.items()
               if name != "jump_ind")
    returned = [*out.draws.values(), *out.latent_draws.values(),
                *(getattr(out.latent, f.name) for f in dataclasses.fields(out.latent))]
    assert buffers
    assert not any(np.shares_memory(arr, buf) for arr in returned for buf in buffers.values())
    freq = out.latent_draws["jump_ind"].mean(axis=0)
    assert out.latent.freq_jump.dtype == freq.dtype == np.float64
    np.testing.assert_array_equal(out.latent.freq_jump, freq)


@pytest.mark.parametrize("n", [252, 1200])
@pytest.mark.parametrize("thin_lag", [1, 3])
def test_prob_jump_is_the_mean_of_each_kept_rows_posterior(n, thin_lag):
    """prob_jump is, bit for bit, the mean over kept draws of the public
    jump_indicator_posterior evaluated at each kept row's own state: its mu,
    jump_prob, jump_mean, jump_var, precision and mixture.  A no-jump fit
    reports prob_jump = 0."""
    y = jv.simulate(jv.SimConfig(n=n, seed=n, jump_prob=0.05)).returns.returns
    spec = jv.RunSpec(iterations=40, burn_in=4, thin_lag=thin_lag, seed=8,
                      keep_latent_draws=True)
    out = jv.run_chain(y, jv.default_config(), spec)
    kept = out.latent_draws
    probs = np.array([conditionals.jump_indicator_posterior(
        y, out.mu[i], kept["precision"][i], kept["mixture"][i], out.jump_mean[i],
        out.jump_var[i], out.jump_prob[i]) for i in range(out.n_draws)])
    np.testing.assert_array_equal(out.latent.prob_jump, np.mean(probs, axis=0))
    prob = out.latent.prob_jump
    assert ((0.0 <= prob) & (prob <= 1.0)).all() and ((0.05 < prob) & (prob < 0.95)).any()
    assert kept["jump_ind"].any()
    np.testing.assert_array_equal(kept["jump_size"] != 0.0, kept["jump_ind"] == 1)
    no_jumps = jv.run_chain(y, jv.ModelConfig(jumps_enabled=False), spec)
    np.testing.assert_array_equal(no_jumps.latent.prob_jump, 0.0)


@pytest.mark.parametrize("threshold", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_candidates_hold_every_declared_jump(threshold):
    """Fuzz of the candidate rule: the threshold rule on every t declares nothing
    outside C = {w c^2 > 2 (logit(threshold) - logit(rho)) (1 - 1e-9)}, at
    points placed within 1e-17 to 1e-1 of the bound, with xi within the
    same relative distance of c (where the log-odds peak), w over 10
    decades and rho in (1e-4, 0.6).  The rule is tight: with the margin
    flipped to 1 + 1e-9 it misses declared jumps."""
    gen = np.random.default_rng(int(threshold * 100))
    n = 2000
    cutoff = engine._logit(threshold)
    score, mask, work = _stale(n), _stale(n, bool), _work(n)
    declared_total = close_misses = 0
    for rho in np.concatenate([gen.uniform(1e-4, 0.6, 24), [threshold, 1e-4]]):
        gap = cutoff - engine._logit(rho)
        weights = 10.0 ** gen.uniform(-5.0, 5.0, n)
        near = gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(-17.0, -1.0, n)
        span = 2.0 * abs(gap) if gap else 1.0
        centered = gen.choice([-1.0, 1.0], n) * np.sqrt(span * (1.0 + near) / weights)
        sizes = centered * (1.0 + gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(-17.0, -1.0, n))
        found = engine._jump_candidates(weights, centered, rho, cutoff, score, mask)
        assert np.all(np.diff(found) > 0)
        log_odds = engine.jump_indicator_probs(weights, centered, sizes, rho, work)
        declared = np.flatnonzero(engine.apply_jump_threshold(log_odds, cutoff, _stale(n, bool)))
        assert np.isin(declared, found).all(), f"rho={rho}"
        np.testing.assert_array_equal(found, _candidates(weights, centered, rho, threshold))
        if gap <= 0.0:
            np.testing.assert_array_equal(found, np.arange(n))
        else:
            flipped = _candidates(weights, centered, rho, threshold, margin=1.0 + 1e-9)
            close_misses += np.setdiff1d(declared, flipped).size
        declared_total += declared.size
    assert declared_total > n
    assert close_misses > 0


def test_candidates_at_jump_probabilities_zero_and_one():
    """rho = 0 declares nothing and makes no candidate; rho = 1 declares
    every point and makes every point a candidate."""
    n = 50
    weights, centered = np.full(n, 2.0), np.linspace(-3.0, 3.0, n)
    args = (0.0, 0.0, _stale(n), _stale(n, bool))  # jump_prob, logit(0.5), scratch
    assert engine._jump_candidates(weights, centered, *args).size == 0
    args = (1.0, *args[1:])
    np.testing.assert_array_equal(engine._jump_candidates(weights, centered, *args),
                                  np.arange(n))


def _spy_stage_arrays(monkeypatch):
    """Record every array the sweep passes to a stage, the workspace among them."""
    seen = {}

    def spy(stage):
        def recorded(*args):
            for arg in args:
                for arr in arg if isinstance(arg, tuple) else (arg,):
                    if isinstance(arr, np.ndarray):
                        seen[id(arr)] = arr
            return stage(*args)
        return recorded

    for name in _STAGES:
        monkeypatch.setattr(engine, name, spy(getattr(engine, name)))
    return seen


@pytest.mark.parametrize("omega, paths", [(0.9, 0.25), (0.99, 0.25)])
def test_sweep_transient_memory(omega, paths, monkeypatch):
    """After warm-up the stages of a sweep write into the chain's workspace:
    from the first stage of a sweep to its last, new memory at n = 5,000
    stays below `paths` n-length float64 arrays.  On a sweep that keeps its
    draw (a retained block of one draw at this n) the window closes after the
    retained step (the log-likelihood, then the jump probabilities), on the
    others after the jump probability draw.
    At omega = 0.9 the scans run in blocks and add their carries from a
    scratch array; at 0.99 one block covers the series.  Either way nothing
    path-sized is allocated (0.04 paths measured)."""
    n = 5000
    y = jv.simulate(jv.SimConfig(n=n, seed=3)).returns.returns
    monkeypatch.setattr(engine, "_HELPER_MIN_N", 10**9)  # no helper allocating beside it
    assert engine._block_rows(n, 15) == 1
    first, last = engine.sample_mu, engine.sample_jump_prob
    retained = engine.jump_indicator_posterior
    start, peaks, kept = [], [], []

    def spy_first(*args):
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])
        return first(*args)

    def spy_last(*args):
        drawn = last(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start[-1])
        return drawn

    def spy_retained(*args):  # the sweep's last stage when it keeps its draw
        probs = retained(*args)
        peaks[-1] = tracemalloc.get_traced_memory()[1] - start[-1]
        kept.append(len(peaks))
        return probs

    monkeypatch.setattr(engine, "sample_mu", spy_first)
    monkeypatch.setattr(engine, "sample_jump_prob", spy_last)
    monkeypatch.setattr(engine, "jump_indicator_posterior", spy_retained)
    tracemalloc.start()
    try:
        out = jv.run_chain(y, jv.ModelConfig(omega=omega),
                           jv.RunSpec(iterations=30, thin_lag=2, seed=2))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 30
    assert kept == list(range(2, 31, 2))
    assert out.latent.freq_jump.any()
    assert max(peaks[5:]) < paths * 8 * n


def test_chain_peak_memory():
    """run_chain's traced peak at n = 5,000 (200 kept draws, helper off) stays
    at most 1.8 MB above its start.  The largest scratch is the band buffer
    (28 float32 rows, 0.56 MB) and the variate slot (256 kB); the chain
    holds no initial path, probabilities, accumulator scratch or xi path
    beside its workspace, and forms the summary after the sweeps' workspace
    and slot are freed.  Measured 1.62 MB, against 2.26 MB with 32-row band
    batches and those four arrays."""
    n = 5000
    y = jv.simulate(jv.SimConfig(n=n, seed=8)).returns.returns
    cfg = jv.default_config()
    engine.discount_plan(cfg.omega, cfg.a0, n)  # the shared plan is cached: not the chain's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with pytest.MonkeyPatch.context() as m:
            _force_helper(m, False)
            out = jv.run_chain(y, cfg, jv.RunSpec(iterations=400, burn_in=200, seed=1))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert out.n_draws == 200 and out.latent.freq_jump.any()
    assert peak <= 1.8e6


def test_retained_block_memory_within_budget():
    """At n = 252 a chain keeps 18 retained draws in its block before it
    summarizes them.  Its traced peak exceeds that of a chain summarizing each
    draw at once (a one-row budget) by more than half the block's budget of
    256 kB and by no more than the budget: seven rows of 17 more draws, 240 kB."""
    n = 252
    y = jv.simulate(jv.SimConfig(n=n, seed=8)).returns.returns
    cfg = jv.default_config()
    spec = jv.RunSpec(iterations=400, burn_in=100, thin_lag=2, seed=1)
    engine.discount_plan(cfg.omega, cfg.a0, n)  # the shared plan is cached: not the chain's

    def peak(block_values):
        with pytest.MonkeyPatch.context() as m:
            _force_helper(m, False)
            m.setattr(engine, "_BLOCK_VALUES", block_values)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                jv.run_chain(y, cfg, spec)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

    budget = 8 * engine._BLOCK_VALUES
    assert engine._block_rows(n, spec.n_retained) == 18
    assert budget / 2 < peak(engine._BLOCK_VALUES) - peak(1) <= budget


def test_nonfinite_log_lik_mid_block_is_reported_first(monkeypatch):
    """A retained sweep whose log-likelihood is not finite is reported by its
    iteration, as it would be if each draw were summarized at once: the
    sweeps after it in its retained block run before the block is
    summarized, and a failure of one of them is not what the chain reports."""
    n = 252
    y = jv.simulate(jv.SimConfig(n=n, seed=n, jump_prob=0.05)).returns.returns
    spec = jv.RunSpec(iterations=40, burn_in=4, thin_lag=2, seed=3)
    assert engine._block_rows(n, spec.n_retained) == spec.n_retained  # one block
    bad_draw, failing_sweep = 2, 13  # the third draw is sweep 4 + 3 * 2 = 10
    retained, sample_mu, seen, sweeps = engine.conditional_log_lik, engine.sample_mu, [0], [0]

    def spy_retained(*args):
        ll = retained(*args)
        rows = np.atleast_1d(ll).copy()
        if seen[0] <= bad_draw < seen[0] + rows.size:
            rows[bad_draw - seen[0]] = np.nan
        seen[0] += rows.size
        return rows if np.ndim(ll) else float(rows[0])

    def failing_mu(*args):
        sweeps[0] += 1
        if sweeps[0] == failing_sweep:
            raise FloatingPointError("overflow in a stage")
        return sample_mu(*args)

    monkeypatch.setattr(engine, "conditional_log_lik", spy_retained)
    monkeypatch.setattr(engine, "sample_mu", failing_mu)
    with pytest.raises(NumericalError) as err:
        jv.run_chain(y, jv.default_config(), spec)
    assert str(err.value) == "chain 0: non-finite log-likelihood at iteration 10"
    assert sweeps[0] == failing_sweep
    assert seen[0] == 4  # sweeps 6, 8, 10 and 12, summarized after sweep 13 failed


def _force_helper(monkeypatch, on: bool, chunk_variates=None):
    """Force the helper thread of the variate ring on or off; returns the list
    of rings whose slots a helper thread filled, by helper name."""
    monkeypatch.setattr(engine, "_HELPER_MIN_N", 0 if on else 10**9)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 64 if on else 1)
    if chunk_variates is not None:
        monkeypatch.setattr(engine, "_CHUNK_VARIATES", chunk_variates)
    helpers = []
    fill = engine._VariateRing._fill

    def spy(self, slot):
        name = threading.current_thread().name
        if name.startswith("jumpvol-variates-") and not hasattr(self, "_spied"):
            self._spied = True
            helpers.append(name)
        return fill(self, slot)

    monkeypatch.setattr(engine._VariateRing, "_fill", spy)
    return helpers


def _helpers_alive():
    return [t.name for t in threading.enumerate() if t.name.startswith("jumpvol-")]


@pytest.mark.parametrize("n", [2, 252, 1200])
@pytest.mark.parametrize("omega", [0.05, 0.9, 1.0])
@pytest.mark.parametrize("jumps_enabled", [True, False])
def test_helper_thread_changes_no_draw(n, omega, jumps_enabled, monkeypatch):
    """A chain draws the same with its variates drawn on a helper thread as in
    the sweep's own thread, and for any chunk size (here one to three sweeps
    a chunk inline, twice that with a helper, with a partly used last chunk)."""
    y = jv.simulate(jv.SimConfig(n=n, seed=n, jump_prob=0.05)).returns.returns
    cfg = jv.ModelConfig(omega=omega, jumps_enabled=jumps_enabled)
    spec = jv.RunSpec(iterations=31, burn_in=4, thin_lag=3, seed=8, keep_latent_draws=True)
    two_sweeps = 2 * (3 * n - 1)

    def run(helper, chunk_variates=None):
        with monkeypatch.context() as m:
            started = _force_helper(m, helper, chunk_variates)
            out = jv.run_chain(y, cfg, spec)
        assert len(started) == helper
        assert not _helpers_alive()
        return out

    want = run(False)
    for got in (run(True), run(True, two_sweeps), run(False, two_sweeps), run(True, 1)):
        for name, column in want.draws.items():
            np.testing.assert_array_equal(got.draws[name], column, err_msg=name)
        for field in dataclasses.fields(want.latent):
            np.testing.assert_array_equal(getattr(got.latent, field.name),
                                          getattr(want.latent, field.name))
        for name, rows in want.latent_draws.items():
            np.testing.assert_array_equal(got.latent_draws[name], rows, err_msg=name)


@pytest.mark.parametrize("n", [2, 7, 252, 999, 1200])
@pytest.mark.parametrize("jumps_enabled", [True, False])
@pytest.mark.parametrize("n_chains", [1, 3])
@pytest.mark.parametrize("helper", [True, False])
def test_band_batch_and_chunk_size_change_no_draw(n, jumps_enabled, n_chains, helper,
                                                  monkeypatch):
    """The band buffer's batch, the variate slots' size and the retained
    block's budget set only how much scratch a chain holds: with 16-row or
    32-row batches and 2^15-variate chunks, or with retained blocks of one
    draw, a fit draws, keeps and summarizes what it does with 64 rows, 2^16
    variates and the default blocks (18 draws at n = 252, 4 at n = 999, all
    200 at n <= 23).  200 kept draws trim the buffer several times each way."""
    y = jv.simulate(jv.SimConfig(n=n, seed=n, jump_prob=0.05)).returns.returns
    cfg = jv.ModelConfig(jumps_enabled=jumps_enabled)
    spec = jv.RunSpec(iterations=250, burn_in=50, n_chains=n_chains, seed=8,
                      keep_latent_draws=True)
    _force_helper(monkeypatch, helper)

    def run(band_batch, chunk_variates, block_values=engine._BLOCK_VALUES):
        with monkeypatch.context() as m:
            m.setattr(engine, "_BAND_BATCH", band_batch)
            m.setattr(engine, "_CHUNK_VARIATES", chunk_variates)
            m.setattr(engine, "_BLOCK_VALUES", block_values)
            return jv.run_multi(y, cfg, spec)

    assert engine._block_rows(n, spec.n_retained) == {2: 200, 7: 200, 252: 18, 999: 4,
                                                      1200: 3}[n]
    large = run(64, 2**16)
    for small in (run(16, 2**15), run(32, 2**15), run(64, 2**16, block_values=1)):
        for got, want in zip(small, large, strict=True):
            for name, column in want.draws.items():
                np.testing.assert_array_equal(got.draws[name], column, err_msg=name)
            for field in dataclasses.fields(want.latent):
                np.testing.assert_array_equal(getattr(got.latent, field.name),
                                              getattr(want.latent, field.name),
                                              err_msg=field.name)
            for name, rows in want.latent_draws.items():
                np.testing.assert_array_equal(got.latent_draws[name], rows, err_msg=name)
    if jumps_enabled:
        assert any(chain.latent_draws["jump_ind"].any() for chain in large)


@pytest.mark.parametrize("n", [252, 1200])
@pytest.mark.parametrize("jumps_enabled", [True, False])
@pytest.mark.parametrize("helper", [True, False])
def test_thinning_selects_draws_and_changes_none(n, jumps_enabled, helper, monkeypatch):
    """The work done only for retained sweeps (the jump probabilities, the
    log-likelihood, the accumulator) never feeds back into the chain: thinned
    by 3, a chain keeps rows 3, 6, ... of the same chain thinned by 1."""
    y = jv.simulate(jv.SimConfig(n=n, seed=n, jump_prob=0.05)).returns.returns
    cfg = jv.ModelConfig(jumps_enabled=jumps_enabled)
    _force_helper(monkeypatch, helper)

    def run(thin_lag):
        spec = jv.RunSpec(iterations=40, burn_in=4, thin_lag=thin_lag, seed=8,
                          keep_latent_draws=True)
        return jv.run_chain(y, cfg, spec)

    every, thinned = run(1), run(3)
    assert thinned.n_draws == 12
    for name, column in every.draws.items():
        np.testing.assert_array_equal(thinned.draws[name], column[2::3], err_msg=name)
    for name, rows in every.latent_draws.items():
        np.testing.assert_array_equal(thinned.latent_draws[name], rows[2::3], err_msg=name)
    if jumps_enabled:
        assert every.latent_draws["jump_ind"].any()


def test_helper_threads_under_stress_change_no_draw(small_sim, monkeypatch):
    """Three chains in turn, each with a helper refilling its ring every
    sweep, with frequent thread switches, draw what the chains draw without
    helpers."""
    spec = jv.RunSpec(iterations=60, burn_in=10, n_chains=3, seed=5)
    with monkeypatch.context() as m:
        _force_helper(m, False)
        serial = [jv.run_chain(small_sim.returns, jv.default_config(), spec, chain_id=k)
                  for k in range(3)]
    started = _force_helper(monkeypatch, True, chunk_variates=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        helped = jv.run_multi(small_sim.returns, jv.default_config(), spec)
    finally:
        sys.setswitchinterval(interval)
    assert started == [f"jumpvol-variates-{k}" for k in range(3)]
    assert not _helpers_alive()
    for got, want in zip(helped, serial):
        for name in want.draws:
            np.testing.assert_array_equal(got.draws[name], want.draws[name])
        np.testing.assert_array_equal(got.latent.var_mean, want.latent.var_mean)


class TestHelperThread:
    """Every helper thread is joined, however run_chain ends."""

    def test_size_and_spare_cpu_rule(self, small_sim, monkeypatch):
        """A chain starts a helper on a series of at least _HELPER_MIN_N points
        when the process may use two CPUs."""
        started = _force_helper(monkeypatch, True)
        spec = jv.RunSpec(iterations=5, seed=1)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
        jv.run_chain(small_sim.returns, jv.default_config(), spec)  # no spare CPU
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "_HELPER_MIN_N", len(small_sim.returns) + 1)
        jv.run_chain(small_sim.returns, jv.default_config(), spec)  # too short
        assert started == []
        monkeypatch.setattr(engine, "_HELPER_MIN_N", len(small_sim.returns))
        jv.run_chain(small_sim.returns, jv.default_config(), spec)
        assert len(started) == 1

    def test_joined_on_return(self, small_sim, monkeypatch):
        started = _force_helper(monkeypatch, True, chunk_variates=1)
        jv.run_chain(small_sim.returns, jv.default_config(), jv.RunSpec(iterations=20, seed=1))
        assert len(started) == 1
        assert not _helpers_alive()

    def test_failure_on_the_helper_is_raised_by_run_chain(self, small_sim, monkeypatch):
        helpers = _force_helper(monkeypatch, True, chunk_variates=1)
        fill, fills = engine._VariateRing._fill, []

        def fail_third(self, slot):
            fills.append(threading.current_thread().name)
            if len(fills) == 3:
                raise MemoryError("no room for the variates")
            return fill(self, slot)

        monkeypatch.setattr(engine._VariateRing, "_fill", fail_third)
        with pytest.raises(MemoryError, match="no room"):
            jv.run_chain(small_sim.returns, jv.default_config(), TestRunMulti._LONG)
        assert len(helpers) == 1 and fills[2].startswith("jumpvol-variates-")
        assert not _helpers_alive()

    def test_helper_fills_every_chunk_to_the_end_of_a_long_fit(self, small_sim, monkeypatch):
        """A chain keeps its helper from its first chunk to its last: with the
        threads' CPU clocks reading 0 and each fill taking 10 ms, a fit that
        runs well past 100 ms still fills every chunk on its helper, joins it
        and draws what the inline chain draws."""
        spec = jv.RunSpec(iterations=30, burn_in=4, seed=3, keep_latent_draws=True)
        with monkeypatch.context() as m:
            _force_helper(m, False)
            want = jv.run_chain(small_sim.returns, jv.default_config(), spec)
        helpers = _force_helper(monkeypatch, True, chunk_variates=1)
        monkeypatch.setattr(time, "thread_time", lambda: 0.0)
        fill, fillers = engine._VariateRing._fill, []

        def slow(self, slot):
            fillers.append(threading.current_thread().name)
            time.sleep(0.01)
            return fill(self, slot)

        monkeypatch.setattr(engine._VariateRing, "_fill", slow)
        start = time.perf_counter()
        got = jv.run_chain(small_sim.returns, jv.default_config(), spec)
        assert time.perf_counter() - start > 0.25
        assert helpers == ["jumpvol-variates-0"]
        assert fillers == ["jumpvol-variates-0"] * spec.iterations  # one sweep a chunk
        assert not _helpers_alive()
        for name, column in want.draws.items():
            np.testing.assert_array_equal(got.draws[name], column, err_msg=name)
        for name, rows in want.latent_draws.items():
            np.testing.assert_array_equal(got.latent_draws[name], rows, err_msg=name)

    @staticmethod
    def _fail_at_sweep(monkeypatch, sweep, exc):
        calls = []
        sample_mu = engine.sample_mu

        def spy(*args):
            calls.append(None)
            if len(calls) == sweep:
                raise exc
            return sample_mu(*args)

        monkeypatch.setattr(engine, "sample_mu", spy)
        return calls

    def test_joined_on_numerical_error(self, small_sim, monkeypatch):
        started = _force_helper(monkeypatch, True, chunk_variates=1)
        self._fail_at_sweep(monkeypatch, 5, FloatingPointError("overflow in a stage"))
        with pytest.raises(NumericalError, match="iteration 5"):
            jv.run_chain(small_sim.returns, jv.default_config(), TestRunMulti._LONG)
        assert len(started) == 1
        assert not _helpers_alive()

    def test_joined_on_interrupt(self, small_sim, monkeypatch):
        started = _force_helper(monkeypatch, True, chunk_variates=1)
        calls = self._fail_at_sweep(monkeypatch, 5, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            jv.run_chain(small_sim.returns, jv.default_config(), TestRunMulti._LONG)
        assert len(calls) == 5 and len(started) == 1
        assert not _helpers_alive()

    @staticmethod
    def _run_multi_until_chain_1_raises(small_sim, monkeypatch, exc, raised, match=None):
        """Three chains with helpers, chain 1 raising exc at its fifth sweep:
        run_multi raises `raised`, chain 0 has run, chain 2 never starts and
        no thread is left."""
        started = _force_helper(monkeypatch, True, chunk_variates=1)

        def fail(k, sweep):
            if k == 1 and sweep == 5:
                raise exc

        sweeps = TestRunMulti._stage_spy(monkeypatch, fail)
        spec = jv.RunSpec(iterations=40, n_chains=3, seed=2)
        with pytest.raises(raised, match=match):
            jv.run_multi(small_sim.returns, jv.default_config(), spec)
        assert sweeps == {0: spec.iterations, 1: 5}
        assert started == ["jumpvol-variates-0", "jumpvol-variates-1"]
        assert not _helpers_alive()

    def test_joined_when_run_multi_stops_on_a_failing_chain(self, small_sim, monkeypatch):
        self._run_multi_until_chain_1_raises(small_sim, monkeypatch,
                                             FloatingPointError("overflow in a stage"),
                                             NumericalError, "chain 1: sampler failed at iteration 5")

    def test_joined_when_run_multi_is_interrupted(self, small_sim, monkeypatch):
        """Ctrl-C in a sweep ends run_multi with the chain's helper joined."""
        self._run_multi_until_chain_1_raises(small_sim, monkeypatch, KeyboardInterrupt(),
                                             KeyboardInterrupt)


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

    @pytest.mark.parametrize("helpers", [True, False], ids=["helpers", "no_helpers"])
    def test_two_cpus_run_chains_with_helpers_in_turn(self, small_sim, monkeypatch, helpers):
        """On two CPUs, the chains run one after another on the calling thread,
        each drawing its variates on its helper when its series is long
        enough, and draw what each chain draws alone.  run_multi starts no
        thread but the helpers."""
        y = small_sim.returns
        runs = [(cfg, jv.RunSpec(iterations=60, burn_in=10, thin_lag=thin_lag, n_chains=3,
                                 seed=5, keep_latent_draws=True))
                for cfg, thin_lag in [(jv.default_config(), 1),
                                      (jv.ModelConfig(jumps_enabled=False), 1),
                                      (jv.default_config(), 3)]]
        with monkeypatch.context() as m:
            _force_helper(m, False)
            serial = [[jv.run_chain(y, cfg, spec, chain_id=k) for k in range(3)]
                      for cfg, spec in runs]
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        # The series is just long enough for helpers, or one point short.
        monkeypatch.setattr(engine, "_HELPER_MIN_N", len(y) if helpers else len(y) + 1)
        monkeypatch.setattr(engine, "_CHUNK_VARIATES", 1)
        run_chain, start = engine.run_chain, threading.Thread.start
        calls, started = [], []

        def spy_chain(*args, **kwargs):
            calls.append((threading.current_thread(), kwargs["chain_id"]))
            return run_chain(*args, **kwargs)

        def spy_start(thread):
            started.append(thread.name)
            return start(thread)

        for (cfg, spec), alone in zip(runs, serial):
            calls.clear()
            started.clear()
            with monkeypatch.context() as m:
                m.setattr(engine, "run_chain", spy_chain)
                m.setattr(threading.Thread, "start", spy_start)
                got = jv.run_multi(y, cfg, spec)
            assert calls == [(threading.current_thread(), k) for k in range(3)]
            assert started == ([f"jumpvol-variates-{k}" for k in range(3)] if helpers else [])
            assert not _helpers_alive()
            for chain, want in zip(got, alone):
                assert list(chain.draws) == list(want.draws)
                for name, column in want.draws.items():
                    np.testing.assert_array_equal(chain.draws[name], column, err_msg=name)
                for field in dataclasses.fields(want.latent):
                    np.testing.assert_array_equal(getattr(chain.latent, field.name),
                                                  getattr(want.latent, field.name))
                for name, rows in want.latent_draws.items():
                    np.testing.assert_array_equal(chain.latent_draws[name], rows, err_msg=name)

    @pytest.mark.parametrize("workers", [1, 3], ids=["one_thread", "three_threads"])
    @pytest.mark.parametrize("cfg, thin_lag", [
        (jv.default_config(), 1),
        (jv.ModelConfig(jumps_enabled=False), 1),
        (jv.default_config(), 3),
    ], ids=["jump", "no_jump", "thin3"])
    def test_threaded_chains_equal_serial_chains(self, small_sim, monkeypatch, cfg, thin_lag,
                                                 workers):
        """run_multi draws what run_chain draws alone on one thread, whether the
        host runs one thread at a time (no helpers) or three (a helper beside
        each chain), with frequent thread switches."""
        spec = jv.RunSpec(iterations=60, burn_in=10, thin_lag=thin_lag, n_chains=3, seed=5)
        with monkeypatch.context() as m:
            _force_helper(m, False)
            serial = [jv.run_chain(small_sim.returns, cfg, spec, chain_id=k) for k in range(3)]
        monkeypatch.setattr(engine, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(engine, "_HELPER_MIN_N", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = jv.run_multi(small_sim.returns, cfg, spec)
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == 3
        assert not _helpers_alive()
        for got, want in zip(threaded, serial):
            assert list(got.draws) == list(want.draws)
            for name in want.draws:
                np.testing.assert_array_equal(got.draws[name], want.draws[name])
            for field in dataclasses.fields(want.latent):
                np.testing.assert_array_equal(getattr(got.latent, field.name),
                                              getattr(want.latent, field.name))

    @staticmethod
    def _stage_spy(monkeypatch, on_sweep):
        """Count the sweeps of each chain; on_sweep(chain_id, sweep) runs first."""
        sweeps = {}
        sample_mu = engine.sample_mu

        def spy(*args):
            k = args[-1].stream_id
            sweeps[k] = sweeps.get(k, 0) + 1
            on_sweep(k, sweeps[k])
            return sample_mu(*args)

        monkeypatch.setattr(engine, "sample_mu", spy)
        return sweeps

    # Long enough that a chain that did not end at its failure would run for
    # many seconds.
    _LONG = jv.RunSpec(iterations=100_000, thin_lag=1_000, n_chains=3, seed=2)

    def test_failing_chain_on_one_thread_starts_no_later_chain(self, small_sim, monkeypatch):
        def fail(k, sweep):
            if k == 0 and sweep == 5:
                raise FloatingPointError("overflow in a stage")

        sweeps = self._stage_spy(monkeypatch, fail)
        with pytest.raises(NumericalError, match="chain 0: sampler failed at iteration 5"):
            jv.run_multi(small_sim.returns, jv.default_config(), self._LONG)
        assert sweeps == {0: 5}
        assert not _helpers_alive()


def _band_edge_counts(band_batch):
    """Draw counts one short of, equal to and one past the first trim of a
    band buffer that takes band_batch rows between trims."""
    def rows(m):
        keep = engine._tail_rows(m)
        return 2 * keep + max(band_batch, keep)

    return [m for m in range(1, 500) if abs(m - rows(m)) <= 1]


# The edges of the present batch, and of the 32-row and 64-row batches that
# test_band_batch_and_chunk_size_change_no_draw checks against.
@pytest.mark.parametrize("m", sorted({1, 2, 3, 4, 9, 41, *_band_edge_counts(engine._BAND_BATCH),
                                      *_band_edge_counts(32), *_band_edge_counts(64), 350, 1000,
                                      1300, 1301, 2050, 4001}))
def test_accumulator_bands_equal_numpy_quantiles(m):
    """The bands equal numpy's quantiles for any draw count: past 1,300 draws
    the tails keep more rows than a batch, and the buffer takes `keep` rows
    between two trims.  The trims sort int32 keys; column 6 puts float32 +0,
    subnormals, the largest finite values and +inf near both bands, where a
    key that ordered otherwise than its value would move a band."""
    gen = np.random.default_rng(m)
    precision = gen.lognormal(0.0, 1.0, (m, 7))
    precision[:, 1] = np.round(precision[:, 1], 1) + 0.1  # ties
    precision[:, 2] = np.linspace(1.0, 5.0, m)            # extremes arrive last
    precision[:, 3] = np.linspace(5.0, 1.0, m)            # ... and first
    precision[:, 4] = 2.0
    # Column 6's 1/precision by rank: 2% each round in float32 to +0, to
    # subnormals, to the largest finite values and to +inf, so the bands read
    # subnormals and large values with +0 and +inf in the trims beside them.
    rank = gen.permutation(m) / m
    precision[:, 6] = 1.0 / np.select(
        [rank < 0.02, rank < 0.04, rank < 0.96, rank < 0.98],
        [1e-300, gen.choice([1e-45, 1e-42, 1e-40, 1e-39], m), precision[:, 6],
         gen.choice([1e38, 3e38], m)], 1e300)
    acc = engine._LatentAccumulator(7, m, rows=5)
    with np.errstate(over="ignore"):  # 1e300 becomes +inf in float32
        for start in range(0, m, 5):  # blocks of five draws: the buffer fills mid-block
            block = precision[start:start + 5]
            acc.precision[1:len(block) + 1] = block
            acc.add(len(block), np.array([], dtype=np.intp), np.array([]))
        draws = (1.0 / precision).astype(np.float32)
    got = acc.summary()
    want = np.quantile(draws, [0.025, 0.975], axis=0)
    if m >= 350:
        assert {0.0, np.inf} <= set(draws[:, 6]) and 0.0 < want[0, 6] < np.finfo(np.float32).tiny
        assert want[1, 6] > 1e37
    assert got.var_lo95.dtype == want.dtype
    np.testing.assert_array_equal(got.var_lo95, want[0])
    np.testing.assert_array_equal(got.var_hi95, want[1])
    assert len(acc.tails) <= 3 * acc.keep + engine._BAND_BATCH
    if m >= 1300:
        assert acc.keep > engine._BAND_BATCH and len(acc.tails) == 3 * acc.keep


@pytest.mark.parametrize("m", [1, 7, 350])
def test_accumulator_jump_sums_equal_dense_path_sums(m):
    """Jumps added at the declared times alone give the sums of the whole paths, bit for bit.

    The whole jumps path, declared * sizes, holds -0.0 wherever a negative
    size is not declared; the sums at the declared times alone never do.
    """
    n = 40
    gen = np.random.default_rng(m)
    acc = engine._LatentAccumulator(n, m, rows=3)
    acc.precision[1:] = acc.mixture[1:] = 1.0
    sum_jump, sum_ind = np.zeros(n), np.zeros(n, dtype=np.int64)
    block = []
    for i in range(m):
        declared = gen.random(n) < 0.3
        declared[:2] = True, False  # one time always a jump, one never
        sizes = gen.normal(0.0, 3.0, n)
        jumps = declared.astype(float) * sizes
        sum_jump += jumps
        sum_ind += declared
        at = np.flatnonzero(declared)
        block.append((at, sizes[at]))
        if len(block) == 3 or i == m - 1:  # the draws' times in turn: t = 0 in every draw
            at_all, sizes_all = (np.concatenate(part) for part in zip(*block))
            acc.add(len(block), at_all, sizes_all)
            block = []
    assert np.any((jumps == 0) & np.signbit(jumps)) and not np.signbit(sum_jump[1])
    got = acc.summary()
    np.testing.assert_array_equal(got.mean_jump, sum_jump / m)
    np.testing.assert_array_equal(got.freq_jump, sum_ind / m)
    assert got.freq_jump.dtype == (sum_ind / m).dtype


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
        "shifted": y - jumps,
        "centered": y - mu,
        "resid": y - mu - jumps,
    }


def _filtered(s):
    return jv.forward_filter(s["y"], 0.1, s["jumps"], s["mixture"], s["cfg"])


def _innovations(plan, rng):
    head = volatility.innovation_variates(plan, rng, _stale(plan.head), _stale(plan.head))
    return head, rng.normals.standard_normal(plan.n - 1 - plan.head)


def _stale(size, dtype=float):
    """A workspace buffer holding what an earlier stage left: NaN, -1 or True."""
    return np.full(size, {float: np.nan, np.int64: -1, bool: True}[dtype], dtype=dtype)


def _work(n=300):
    return _stale(n), _stale(n)


def _plan(s):
    """The plan the sweep holds for a 300-point state."""
    return volatility.discount_plan(s["cfg"].omega, s["cfg"].a0, 300)


def _scan(s):
    """A scan buffer for the plan of a 300-point state."""
    return _stale(_plan(s).neg.size)


# Arguments of each stage from a valid state and a stream: as a caller passes
# them to the public function and, where they differ, as the sweep passes them
# to the kernel.  The kernels of the array stages take standard variates, which
# the sweep draws from the stream's child generators in this order, and write
# into workspace buffers that hold stale values.
_STAGES = {
    "sample_mu": (conditionals, lambda s, r: (
        s["y"], s["jumps"], s["precision"], s["mixture"], s["priors"], r), lambda s, r: (
        s["weights"], s["shifted"], s["priors"], _stale(300), r)),
    "forward_filter": (volatility, lambda s, r: (
        s["y"], 0.1, s["jumps"], s["mixture"], s["cfg"]), lambda s, r: (
        s["resid"], s["mixture"], _plan(s), s["cfg"].b0, np.append(np.nan, _scan(s)),
        _stale(300))),
    "backward_sample": (volatility, lambda s, r: (_filtered(s), s["cfg"], r), lambda s, r: (
        _plan(s), _filtered(s).b, r, *_innovations(_plan(s), r), _stale(300), _scan(s))),
    "sample_mixture_path": (conditionals, lambda s, r: (
        s["y"], 0.1, s["jumps"], s["precision"], s["cfg"], r), lambda s, r: (
        s["resid"], s["precision"], s["cfg"],
        r.mixture_gammas.standard_gamma(0.5 * s["cfg"].nu + 0.5, len(s["y"])), _stale(300))),
    "sample_jump_mean": (conditionals, lambda s, r: (s["observed"], 3.0, s["priors"], r)),
    "sample_jump_var": (conditionals, lambda s, r: (s["observed"], -2.0, s["priors"], r)),
    "sample_jump_sizes": (conditionals, lambda s, r: (
        s["y"], 0.1, s["precision"], s["mixture"], -2.0, 3.0, r), lambda s, r: (
        s["centered"], s["weights"], -2.0, 3.0, r.normals.standard_normal(len(s["y"])),
        _stale(300), _work())),
    "jump_indicator_probs": (conditionals, lambda s, r: (
        s["y"], 0.1, s["precision"], s["mixture"], s["sizes"], 0.05), lambda s, r: (
        s["weights"], s["centered"], s["sizes"], 0.05, _work())),
    "jump_indicator_posterior": (conditionals, lambda s, r: (
        s["y"], 0.1, s["precision"], s["mixture"], -2.0, 3.0, 0.05), lambda s, r: (
        s["weights"], s["centered"], -2.0, 3.0, 0.05, _stale(300), _work())),
    "apply_jump_threshold": (conditionals, lambda s, r: (np.linspace(0.0, 1.0, 300), 0.7),
                             lambda s, r: (np.linspace(0.0, 1.0, 300), 0.7,
                                           _stale(300, np.int64))),
    "sample_jump_prob": (conditionals, lambda s, r: (s["ind"], s["priors"], r), lambda s, r: (
        s["observed"].size, 300, s["priors"], r)),
    "conditional_log_lik": (diagnostics, lambda s, r: (
        s["y"], 0.1, s["jumps"], s["precision"], s["mixture"]), lambda s, r: (
        s["shifted"], 0.1, s["weights"], _stale(300))),
}


def _result(out):
    return out.b if isinstance(out, jv.FilterState) else out


@pytest.mark.parametrize("name", sorted(_STAGES))
def test_sweep_kernel_matches_public_function(name):
    """The stage the sweep calls is the unchecked kernel of the public function:
    the arrays the sweep forms from the same state and the same seed give
    bit-identical results and states of both generators.  The public function
    returns fresh arrays: a second call leaves the first result as it was."""
    module, args, *kernel_args = _STAGES[name]
    kernel_args = kernel_args[0] if kernel_args else args
    kernel, public = getattr(engine, name), getattr(module, name)
    assert kernel is not public
    state = _valid_state()
    rng_kernel, rng_public = jv.RngStream(5, 1), jv.RngStream(5, 1)
    got, want = kernel(*kernel_args(state, rng_kernel)), public(*args(state, rng_public))
    if name == "jump_indicator_probs":  # the kernel returns the log-odds, the public p
        got = conditionals._logistic(got, _stale(300))
    if isinstance(want, jv.FilterState):
        assert want.plan is _plan(state)  # the plan the kernel was given
    got, want = _result(got), _result(want)
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want
    for child in ("generator", "gammas", "normals", "exponentials", "mixture_gammas",
                  "jump_normals"):
        assert getattr(rng_kernel, child).random() == getattr(rng_public, child).random(), child
    first = np.copy(want)
    again = _result(public(*args(state, jv.RngStream(5, 1))))
    np.testing.assert_array_equal(want, first)
    np.testing.assert_array_equal(again, first)
    assert not np.shares_memory(again, want)


@pytest.mark.parametrize("threshold", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_threshold_on_log_odds_declares_what_probabilities_declare(threshold):
    """The sweep compares the log-odds with logit(threshold); the public
    functions compare the probability with the threshold.  Both declare the
    same points, at large log-odds of both signs, at zero jump sizes and at
    jump probabilities near and at 0 and 1."""
    gen = np.random.default_rng(int(threshold * 100))
    n = 400
    cutoff = engine._logit(threshold)
    for rho in (0.0, 1e-12, 1e-4, 0.02, 0.3, 0.9, 1.0 - 1e-12, 1.0):
        for scale in (0.1, 1.0, 30.0):
            y = gen.normal(0.0, scale, n)
            mu = float(gen.normal())
            precision = gen.lognormal(0.0, 2.0, n)
            mixture = gen.gamma(2.0, 0.5, n)
            sizes = gen.normal(0.0, scale, n)
            sizes[::7] = 0.0
            work, mask = _work(n), _stale(n, bool)
            log_odds = engine.jump_indicator_probs(mixture * precision, y - mu, sizes, rho, work)
            assert log_odds is work[0]
            got = engine.apply_jump_threshold(log_odds, cutoff, mask)
            assert got is mask
            want = jv.apply_jump_threshold(
                jv.jump_indicator_probs(y, mu, precision, mixture, sizes, rho), threshold)
            np.testing.assert_array_equal(got, want, err_msg=f"rho={rho} scale={scale}")
            np.testing.assert_array_equal(mask, want == 1)
            if scale == 30.0 and 0.0 < rho < 1.0:
                assert log_odds.min() < -1000 and log_odds.max() > 1000
