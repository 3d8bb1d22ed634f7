from __future__ import annotations

import math

import numpy as np
import pytest

import jumpvol as jv
from jumpvol.errors import ParameterError
from jumpvol.rng import RngStream, sample_normal


def test_frozen_dynamics():
    sc = jv.SimConfig(n=50, sigma_v=0.0, kappa=0.0, v0=0.37, seed=1)
    sim = jv.simulate(sc)
    np.testing.assert_array_equal(sim.true_variance, np.full(50, 0.37))


def test_full_mean_reversion_in_one_step():
    sc = jv.SimConfig(n=25, kappa=1.0, delta=1.0, sigma_v=0.0, theta=0.8, v0=0.2, seed=1)
    sim = jv.simulate(sc)
    np.testing.assert_allclose(sim.true_variance, np.full(25, 0.8), rtol=1e-12)


def test_default_start_is_long_run_level():
    assert jv.SimConfig().start_variance == 0.8
    assert jv.SimConfig(v0=0.25).start_variance == 0.25


def test_daily_scale_monte_carlo_bands():
    sc = jv.SimConfig(n=5000, seed=8)
    sim = jv.simulate(sc)
    r = sim.returns.returns

    freq = float(np.mean(sim.true_jump_times))
    assert abs(freq - 0.015) < 4.0 * math.sqrt(0.015 * 0.985 / 5000)

    se_mean = float(np.std(r, ddof=1)) / math.sqrt(r.size)
    assert abs(float(np.mean(r)) - 0.05) < 4.0 * se_mean + abs(float(np.mean(sim.true_jumps)))

    # mixture weights average one, so conditional variance tracks the variance path
    assert abs(float(np.mean(sim.true_mixture)) - 1.0) < 4.0 * math.sqrt(2.0 / 30.0 / 5000)

    # slow mean reversion keeps the variance path near its long-run level
    assert abs(float(np.mean(sim.true_variance)) - 0.8) < 0.15


def test_bit_reproducible():
    a = jv.simulate(jv.SimConfig(n=300, seed=123))
    b = jv.simulate(jv.SimConfig(n=300, seed=123))
    np.testing.assert_array_equal(a.returns.returns, b.returns.returns)
    np.testing.assert_array_equal(a.true_variance, b.true_variance)
    np.testing.assert_array_equal(a.true_jumps, b.true_jumps)
    np.testing.assert_array_equal(a.true_mixture, b.true_mixture)
    c = jv.simulate(jv.SimConfig(n=300, seed=124))
    assert not np.array_equal(a.returns.returns, c.returns.returns)


@pytest.mark.parametrize("sc", [
    jv.SimConfig(n=6241, seed=1),
    jv.SimConfig(n=2000, theta=0.01, kappa=0.0, sigma_v=0.5, v0=0.01, seed=2),  # floored
], ids=["daily", "floored"])
def test_variance_path_equals_the_array_loop(sc):
    """The variance recursion over Python floats gives, bit for bit, the loop
    that indexes the shock arrays step by step."""
    rng = RngStream(sc.seed)
    e1 = sample_normal(np.zeros(sc.n), np.ones(sc.n), rng)
    e2 = sample_normal(np.zeros(sc.n), np.ones(sc.n), rng)
    want = np.empty(sc.n)
    prev = sc.start_variance
    load1 = sc.corr * sc.sigma_v * math.sqrt(sc.delta)
    load2 = sc.sigma_v * math.sqrt((1.0 - sc.corr**2) * sc.delta)
    for t in range(sc.n):
        prev = (prev + sc.kappa * sc.delta * (sc.theta - prev)
                + math.sqrt(prev) * (load1 * e1[t] + load2 * e2[t]))
        want[t] = max(prev, 1e-8)
        prev = want[t]
    got = jv.simulate(sc).true_variance
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert sc.seed == 1 or np.any(want == 1e-8)


def test_jump_construction():
    sim = jv.simulate(jv.SimConfig(n=2000, jump_prob=0.2, seed=5))
    no_jump = sim.true_jump_times == 0
    assert np.all(sim.true_jumps[no_jump] == 0.0)
    assert np.any(sim.true_jumps != 0.0)


def test_variance_floor_engages_only_when_needed():
    # strongly noisy variance dynamics drive the Euler path to the floor
    sc = jv.SimConfig(n=2000, theta=0.01, kappa=0.0, sigma_v=0.5, v0=0.01, seed=2)
    sim = jv.simulate(sc)
    assert np.all(sim.true_variance > 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"jump_prob": 0.0},
        {"jump_prob": 1.0},
        {"jump_sd": 0.0},
        {"nu": -1.0},
        {"delta": 0.0},
        {"theta": -0.5},
        {"corr": 1.0},
        {"v0": 0.0},
        {"sigma_v": -0.1},
    ],
)
def test_invalid_sim_configs(kwargs):
    with pytest.raises(ParameterError):
        jv.SimConfig(**kwargs)
