"""Acceptance suite.

Each test exercises one exit criterion end to end at its stated tolerance
and prints a single pass/fail line (written to the real stdout so the lines
survive pytest capture).  The heavy daily-scale fits are shared across the
first four criteria.

The recovery fits use a jump-declaration threshold of 0.5: the declaration
cutoff is meant to be set so that the number of declared jumps tracks the
jump intensity estimate, and on sparse-jump daily-scale data 0.5 achieves
that while the stricter real-data default (0.7) under-declares moderate
jumps by construction.
"""

from __future__ import annotations

import sys
import time
import zlib

import numpy as np
import pytest

import jumpvol as jv
from jumpvol import io as jio
from jumpvol.cli import main
from jumpvol.model import STATIC_NAMES
from gir import run_gir
from oracles import ALL_CHECKS

DAILY_SEED = 8
FIT_SEED = 99
Z_CUTOFF_1PCT = 2.5758293035489004


@pytest.fixture
def announce(capsys):
    """Print one pass/fail line per criterion through pytest's capture."""

    def _announce(number: int, name: str, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        with capsys.disabled():
            print(line, file=sys.stderr, flush=True)

    return _announce


@pytest.fixture(scope="module")
def daily_sim():
    return jv.simulate(
        jv.SimConfig(
            n=5000, mu=0.05, jump_prob=0.015, jump_mean=-2.5, jump_sd=4.0,
            nu=30.0, delta=1.0, theta=0.8, kappa=0.015, sigma_v=0.1, corr=0.4,
            seed=DAILY_SEED,
        )
    )


@pytest.fixture(scope="module")
def recovery_fits(daily_sim):
    spec = jv.RunSpec(iterations=30_000, burn_in=6_000, thin_lag=3, seed=FIT_SEED)
    cfg_jump = jv.ModelConfig(jump_threshold=0.5)
    cfg_nojump = jv.ModelConfig(jump_threshold=0.5, jumps_enabled=False)

    start = time.perf_counter()
    chain_jump = jv.run_chain(daily_sim.returns, cfg_jump, spec)
    wall_jump = time.perf_counter() - start
    start = time.perf_counter()
    chain_nojump = jv.run_chain(daily_sim.returns, cfg_nojump, spec)
    wall_nojump = time.perf_counter() - start

    return {
        "jump": chain_jump,
        "nojump": chain_nojump,
        "report_jump": jv.build_report([chain_jump], daily_sim.returns),
        "report_nojump": jv.build_report([chain_nojump], daily_sim.returns),
        "wall_jump": wall_jump,
        "wall_nojump": wall_nojump,
    }


def test_01_simulation_recovery(recovery_fits, announce):
    chain = recovery_fits["jump"]
    mu_hat = float(np.mean(chain.mu))
    rho_hat = float(np.mean(chain.jump_prob))
    jump_mean_hat = float(np.mean(chain.jump_mean))
    jump_sd_hat = float(np.mean(np.sqrt(chain.jump_var)))
    wall = recovery_fits["wall_jump"]

    checks = {
        "mu": abs(mu_hat - 0.05) <= 0.011,
        "jump_prob": abs(rho_hat - 0.015) <= 0.0072,
        "jump_mean": abs(jump_mean_hat + 2.5) <= 1.9,
        "jump_sd": abs(jump_sd_hat - 4.0) <= 2.3,
        "runtime": wall <= 900.0,
    }
    detail = (
        f"mu={mu_hat:.4f} rho={rho_hat:.5f} jump_mean={jump_mean_hat:.3f} "
        f"jump_sd={jump_sd_hat:.3f} wall={wall:.0f}s"
    )
    announce(1, "simulation recovery", all(checks.values()), detail)
    assert all(checks.values()), (checks, detail)


def test_02_credibility_coverage(daily_sim, recovery_fits, announce):
    latent = recovery_fits["jump"].latent
    cov = jv.coverage(daily_sim.true_variance, latent.var_lo95, latent.var_hi95)
    ok = cov >= 0.90
    announce(2, "95% band coverage of true variance", ok, f"coverage={cov:.4f}")
    assert ok


def test_03_model_comparison(recovery_fits, announce):
    rj, rn = recovery_fits["report_jump"], recovery_fits["report_nojump"]
    directional = rj.bic < rn.bic and rj.dic < rn.dic
    bands = (
        abs(rj.bic - 11_634.0) <= 0.05 * 11_634.0
        and abs(rn.bic - 12_669.0) <= 0.05 * 12_669.0
        and abs(rj.dic - 12_139.0) <= 0.05 * 12_139.0
        and abs(rn.dic - 13_938.0) <= 0.05 * 13_938.0
    )
    detail = (
        f"BIC {rj.bic:.0f} vs {rn.bic:.0f}, DIC {rj.dic:.0f} vs {rn.dic:.0f} "
        f"(k={rj.k}/{rn.k}, plug-in max logL {rj.log_lik_max:.0f}/{rn.log_lik_max:.0f})"
    )
    announce(3, "information criteria favor the jump model", directional and bands, detail)
    assert directional, detail
    assert bands, detail


def test_04_volatility_attenuation(recovery_fits, announce):
    mean_jumpmodel = float(np.mean(recovery_fits["jump"].latent.var_mean))
    mean_nojump = float(np.mean(recovery_fits["nojump"].latent.var_mean))
    ok = mean_jumpmodel <= mean_nojump
    announce(
        4, "jump component attenuates volatility", ok,
        f"mean variance {mean_jumpmodel:.4f} (jumps) vs {mean_nojump:.4f} (no jumps)",
    )
    assert ok


def test_05_conjugacy_oracles(announce):
    start = time.perf_counter()
    worst = 0.0
    for name, check in ALL_CHECKS:
        gen = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(3):
            tv = check(gen)
            worst = max(worst, tv)
            assert tv < 1e-4, (name, tv)
    wall = time.perf_counter() - start
    ok = wall < 60.0
    announce(
        5, "conditional posteriors match grid oracles", ok,
        f"worst TV={worst:.2e} over {3 * len(ALL_CHECKS)} settings in {wall:.1f}s",
    )
    assert ok


def test_06_getting_it_right(announce):
    scores = run_gir(seed=101)
    worst = max(max(abs(z1), abs(z2)) for z1, z2 in scores.values())
    ok = worst < Z_CUTOFF_1PCT
    detail = "; ".join(
        f"{name} z=({z1:+.2f},{z2:+.2f})" for name, (z1, z2) in scores.items()
    )
    announce(6, "joint distribution test (1% level)", ok, detail)
    assert ok, scores


def test_07_convergence_speed(daily_sim, announce):
    spec = jv.RunSpec(iterations=1_000, burn_in=200, thin_lag=1, n_chains=3, seed=4242)
    chains = jv.run_multi(daily_sim.returns, jv.ModelConfig(jump_threshold=0.5), spec)
    factors = {
        name: jv.psrf([c.draws[name] for c in chains])
        for name in STATIC_NAMES
    }
    ok = all(value < 1.1 for value in factors.values())
    detail = " ".join(f"{k}={v:.3f}" for k, v in factors.items())
    announce(7, "dispersed chains converge within 1000 iterations", ok, f"split PSRF {detail}")
    assert ok, factors


def test_08_intraday_speed_envelope(announce):
    sim = jv.simulate(
        jv.SimConfig(
            n=6_241, mu=0.0, jump_prob=0.0087, jump_mean=-0.02, jump_sd=0.05,
            nu=30.0, theta=0.002, kappa=0.015, sigma_v=0.002, corr=0.4, seed=17,
        )
    )
    spec = jv.RunSpec(iterations=10_000, burn_in=6_000, thin_lag=2, seed=7)
    start = time.perf_counter()
    chain = jv.run_chain(sim.returns, jv.default_config(), spec)
    wall = time.perf_counter() - start
    ok = wall <= 60.0 and chain.n_draws == 2_000
    announce(
        8, "intraday-scale fit speed", ok,
        f"n=6241, 10k iterations in {wall:.1f}s ({chain.n_draws} draws)",
    )
    assert ok


def test_09_cli_determinism(tmp_path, announce):
    sim_path = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "300", "--seed", "5", "--output", str(sim_path)]) == 0
    data = jio.read_sim_csv(sim_path)
    returns_path = tmp_path / "returns.csv"
    lines = ["timestamp,log_return_pct"] + [
        f"t{i},{jio.fmt17(value)}" for i, value in enumerate(data["return"])
    ]
    returns_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    fit_args = [
        "fit", "--input", str(returns_path), "--iterations", "200", "--burn-in", "50",
        "--thin", "2", "--chains", "2", "--seed", "31",
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(fit_args + ["--output-dir", str(dir_a)]) == 0
    assert main(fit_args + ["--output-dir", str(dir_b)]) == 0

    identical = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in ("draws.csv", "latent_summary.csv", "report.json")
    )
    sim_b = tmp_path / "sim_b.csv"
    assert main(["simulate", "--n", "300", "--seed", "5", "--output", str(sim_b)]) == 0
    identical = identical and sim_path.read_bytes() == sim_b.read_bytes()
    announce(9, "seeded CLI reruns are byte-identical", identical, "fit + simulate outputs")
    assert identical
