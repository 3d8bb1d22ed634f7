from __future__ import annotations

import math
import zlib

import numpy as np
import pytest
from scipy import stats

import jumpvol as jv
from jumpvol.errors import ParameterError

N_MOMENT = 1_000_000
N_KS = 20_000
KS_LEVEL = 0.001


def _draws(family: str, params, rng, size):
    if family == "gamma":
        return jv.sample_gamma(*params, rng, size=size)
    if family == "normal":
        return jv.sample_normal(*params, rng, size=size)
    if family == "beta":
        return jv.sample_beta(*params, rng, size=size)
    if family == "invgamma":
        return jv.sample_inverse_gamma(*params, rng, size=size)
    raise AssertionError(family)


def _scipy_dist(family: str, params):
    if family == "gamma":
        shape, rate = params
        return stats.gamma(a=shape, scale=1.0 / rate)
    if family == "normal":
        mean, var = params
        return stats.norm(mean, math.sqrt(var))
    if family == "beta":
        return stats.beta(*params)
    if family == "invgamma":
        shape, scale = params
        return stats.invgamma(a=shape, scale=scale)
    raise AssertionError(family)


# Settings chosen so scipy's analytic kurtosis (used for the variance SE) is
# finite; the gamma row includes a shape below one.
MOMENT_CASES = [
    ("gamma", (1.0, 1.0)),
    ("gamma", (15.0, 15.0)),
    ("gamma", (0.59, 2.09)),
    ("normal", (0.0, 1.0)),
    ("normal", (3.2, 20.0)),
    ("normal", (-2.5, 16.0)),
    ("beta", (1.0, 1.0)),
    ("beta", (2.0, 40.0)),
    ("beta", (5.0, 137.0)),
    ("invgamma", (6.0, 10.0)),
    ("invgamma", (9.0, 4.0)),
    ("invgamma", (12.0, 30.0)),
]


@pytest.mark.parametrize("family,params", MOMENT_CASES)
def test_first_two_moments_match_analytic(family, params, make_rng):
    rng = make_rng(zlib.crc32(f"{family}-{params}".encode()))
    draws = _draws(family, (np.full(N_MOMENT, params[0]), np.full(N_MOMENT, params[1])), rng, None)
    mean, var, kurt = _scipy_dist(family, params).stats(moments="mvk")
    mean, var, kurt = float(mean), float(var), float(kurt)

    se_mean = math.sqrt(var / N_MOMENT)
    assert abs(np.mean(draws) - mean) < 4.0 * se_mean

    se_var = var * math.sqrt((kurt + 2.0) / N_MOMENT)
    assert abs(np.var(draws, ddof=1) - var) < 4.0 * se_var


# Scalar parameter types; each draws what the array path draws for the same value.
SCALAR_KINDS = {
    "float": float,
    "int": int,
    "numpy_float64": np.float64,
    "numpy_float32": np.float32,
    "zero_d_array": np.asarray,
}


@pytest.mark.parametrize("kind", sorted(SCALAR_KINDS))
@pytest.mark.parametrize(
    "family,params", [case for case in MOMENT_CASES if case[0] in ("normal", "beta")]
)
def test_scalar_draw_is_a_float_equal_to_the_array_draw(family, params, kind):
    values = [SCALAR_KINDS[kind](p) for p in params]
    scalar_rng, array_rng = jv.RngStream(11, 2), jv.RngStream(11, 2)
    for _ in range(20):
        got = _draws(family, values, scalar_rng, None)
        want = _draws(family, [np.array([float(v)]) for v in values], array_rng, None)
        assert type(got) is float
        assert got == want[0]


def test_gamma_mean_examples(make_rng):
    # Unit-shape/rate gamma is exponential with mean one.
    rng = make_rng(7)
    exp_draws = jv.sample_gamma(np.ones(100_000), np.ones(100_000), rng)
    assert abs(np.mean(exp_draws) - 1.0) < 0.01

    rng = make_rng(8)
    draws = jv.sample_gamma(np.full(N_MOMENT, 0.59), np.full(N_MOMENT, 2.09), rng)
    expected = 0.59 / 2.09
    se = math.sqrt(0.59 / 2.09**2 / N_MOMENT)
    assert abs(np.mean(draws) - expected) < 4.0 * se


KS_CASES = [
    ("gamma", (0.59, 2.09)),
    ("gamma", (0.05, 1.0)),
    ("gamma", (15.0, 15.0)),
    ("normal", (0.0, 1.0)),
    ("normal", (-2.5, 16.0)),
    ("normal", (3.2, 20.0)),
    ("beta", (1.0, 1.0)),
    ("beta", (2.0, 40.0)),
    ("beta", (0.5, 0.5)),
    ("invgamma", (0.8, 0.5)),
    ("invgamma", (3.0, 2.0)),
    ("invgamma", (9.0, 4.0)),
]


@pytest.mark.parametrize("family,params", KS_CASES)
def test_ks_against_analytic_cdf(family, params, make_rng):
    rng = make_rng(zlib.crc32(f"ks-{family}-{params}".encode()))
    draws = _draws(family, (np.full(N_KS, params[0]), np.full(N_KS, params[1])), rng, None)
    result = stats.kstest(draws, _scipy_dist(family, params).cdf)
    assert result.pvalue > KS_LEVEL


@pytest.mark.parametrize("p", [0.015, 0.5, 0.9])
def test_bernoulli_frequency(p, make_rng):
    rng = make_rng(zlib.crc32(f"bern-{p}".encode()))
    draws = jv.sample_bernoulli(np.full(N_KS, p), rng)
    k = int(np.sum(draws))
    assert stats.binomtest(k, N_KS, p).pvalue > KS_LEVEL
    assert abs(k / N_KS - p) < 4.0 * math.sqrt(p * (1 - p) / N_KS)


def test_bernoulli_degenerate(make_rng):
    rng = make_rng(3)
    assert all(jv.sample_bernoulli(0.0, rng) == 0 for _ in range(200))
    assert all(jv.sample_bernoulli(1.0, rng) == 1 for _ in range(200))


def test_reproducibility_bitwise():
    def sequence(stream: jv.RngStream):
        return (
            jv.sample_gamma(2.0, 3.0, stream),
            jv.sample_normal(1.0, 4.0, stream),
            jv.sample_beta(2.0, 40.0, stream),
            jv.sample_inverse_gamma(3.0, 2.0, stream),
            jv.sample_bernoulli(0.4, stream),
            tuple(jv.sample_gamma(np.full(5, 0.7), np.full(5, 1.3), jv.RngStream(9, 9))),
        )

    assert sequence(jv.RngStream(42, 1)) == sequence(jv.RngStream(42, 1))


def test_distinct_streams_differ():
    a = jv.sample_normal(0.0, 1.0, jv.RngStream(42, 0))
    b = jv.sample_normal(0.0, 1.0, jv.RngStream(42, 1))
    assert a != b


# The first raw outputs and the first standard normal of RngStream(seed,
# stream_id).generator, pinned when the child streams were added: the scalar
# draws and everything synthetic.simulate draws keep their stream.
_GENERATOR_PINS = {
    (0, 0): ([17394127715520444142, 5835390491061343638], 0.735955670177038),
    (42, 1): ([8623682774590505111, 856830905295172750], -1.3401775973994274),
    (20230817, 3): ([2409297017107670888, 2559594330042824173], -0.44297000274690074),
    (2**64 - 1, 2**64 - 1): ([7097014041879349551, 9127158305087064115], 0.02272911914165153),
}


@pytest.mark.parametrize("seed,stream_id", sorted(_GENERATOR_PINS))
def test_generator_keeps_its_stream(seed, stream_id):
    raw, normal = _GENERATOR_PINS[seed, stream_id]
    stream = jv.RngStream(seed, stream_id)
    assert stream.generator.bit_generator.random_raw(2).tolist() == raw
    assert stream.generator.standard_normal() == normal


_CHILDREN = ("gammas", "normals", "exponentials", "mixture_gammas", "jump_normals")


def _first(gen):
    return tuple(gen.bit_generator.random_raw(4).tolist())


@pytest.mark.parametrize("seed", [0, 42, 20230817])
def test_child_streams_differ_from_every_generator(seed):
    """The five child streams are streams of their own: their first outputs
    match neither each other nor the generator of any stream id tried."""
    streams = [jv.RngStream(seed, k) for k in range(8)]
    generators = {_first(jv.RngStream(seed, k).generator) for k in range(8)}
    children = [_first(getattr(s, name)) for s in streams for name in _CHILDREN]
    assert len(set(children)) == len(children)
    assert not generators & set(children)
    assert [_first(getattr(jv.RngStream(seed, 3), name)) for name in _CHILDREN] == \
        children[15:20]


@pytest.mark.parametrize("seed,stream_id", sorted(_GENERATOR_PINS))
def test_child_streams_keep_their_spawn_keys(seed, stream_id):
    """Child i of RngStream(seed, k) is an SFC64 generator seeded from child i
    of SeedSequence(seed, spawn_key=(k,)), spawn key (k, i), in the order
    gammas, normals, exponentials, mixture_gammas, jump_normals; generator
    stays PCG64."""
    stream = jv.RngStream(seed, stream_id)
    assert type(stream.generator.bit_generator) is np.random.PCG64
    for i, name in enumerate(_CHILDREN):
        assert type(getattr(stream, name).bit_generator) is np.random.SFC64, name
        want = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(stream_id, i))))
        assert _first(getattr(stream, name)) == _first(want), name
    normals = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(stream_id,)).spawn(5)[1]))
    np.testing.assert_array_equal(jv.RngStream(seed, stream_id).normals.standard_normal(50),
                                  normals.standard_normal(50))


def test_gamma_shape_zero_is_point_mass(rng):
    assert jv.sample_gamma(0.0, 2.0, rng) == 0.0
    mixed = jv.sample_gamma(np.array([0.0, 1.0, 0.0]), np.array([1.0, 1.0, 5.0]), rng)
    assert mixed[0] == 0.0 and mixed[2] == 0.0 and mixed[1] > 0.0


def test_parameter_domain_errors(rng):
    with pytest.raises(ParameterError):
        jv.sample_gamma(-0.1, 1.0, rng)
    with pytest.raises(ParameterError):
        jv.sample_gamma(1.0, 0.0, rng)
    with pytest.raises(ParameterError):
        jv.sample_normal(0.0, -1.0, rng)
    with pytest.raises(ParameterError):
        jv.sample_beta(0.0, 1.0, rng)
    with pytest.raises(ParameterError):
        jv.sample_inverse_gamma(1.0, -2.0, rng)
    with pytest.raises(ParameterError):
        jv.sample_bernoulli(1.5, rng)
    with pytest.raises(ParameterError):
        jv.log_normal_density(0.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        jv.sample_normal(math.nan, 1.0, rng)


def test_normal_zero_variance_is_exact(rng):
    assert jv.sample_normal(0.0, 0.0, rng) == 0.0
    assert jv.sample_normal(-7.25, 0.0, rng) == -7.25


def test_normal_spread_matches_stated_sd(make_rng):
    rng = make_rng(55)
    draws = jv.sample_normal(np.full(100_000, -2.5), np.full(100_000, 16.0), rng)
    se = 4.0 / math.sqrt(2.0 * 100_000)
    assert abs(np.std(draws, ddof=1) - 4.0) < 4.0 * se


def test_inverse_gamma_mean(make_rng):
    rng = make_rng(56)
    draws = jv.sample_inverse_gamma(np.full(N_MOMENT, 3.0), np.full(N_MOMENT, 2.0), rng)
    # mean scale/(shape-1) = 1; SE from the (heavy-tailed but finite) variance.
    se = math.sqrt(1.0 / N_MOMENT)  # var = 1 for shape 3, scale 2
    assert abs(np.mean(draws) - 1.0) < 4.0 * se


def test_log_normal_density_values():
    assert jv.log_normal_density(0.0, 0.0, 1.0) == pytest.approx(-0.9189385332046727, abs=1e-12)
    for var in (0.25, 1.0, 7.5):
        assert jv.log_normal_density(1.3, 1.3, var) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi * var), abs=1e-12
        )
    # direct formula oracle: -0.5*ln(4*pi) - 1/4
    expected = -0.5 * math.log(4.0 * math.pi) - 0.25
    assert expected == pytest.approx(-1.5155121234846454, abs=1e-12)
    assert jv.log_normal_density(1.0, 0.0, 2.0) == pytest.approx(expected, abs=1e-12)


def test_log_normal_density_vectorized():
    out = jv.log_normal_density(np.array([0.0, 1.0]), 0.0, np.array([1.0, 2.0]))
    assert out.shape == (2,)
    assert out[0] == pytest.approx(jv.log_normal_density(0.0, 0.0, 1.0))
    assert out[1] == pytest.approx(jv.log_normal_density(1.0, 0.0, 2.0))


def test_stream_id_validation():
    with pytest.raises(ParameterError):
        jv.RngStream(-1)
    with pytest.raises(ParameterError):
        jv.RngStream(0, 2**64)
    with pytest.raises(ParameterError):
        jv.RngStream(1.5)  # type: ignore[arg-type]
