"""The benchmark's reference computations reproduce closed forms."""

import math

import numpy as np
import pytest

import oracles


def test_flat_curve_auc_is_alpha1_times_364():
    # alpha2 = alpha5 = 0 leaves the constant curve alpha1 over [1, 365]
    draws = np.array([[0.3, 0.0, 0.12, 120.0, 0.0, 0.10, 280.0, 1e-3],
                      [0.71, 0.0, 0.9, 30.0, 0.0, 0.02, 350.0, 1e-3]])
    got = oracles.midpoint_auc(draws)
    np.testing.assert_allclose(got, draws[:, 0] * 364.0, rtol=1e-12)


def test_midpoint_auc_matches_closed_form_of_one_logistic():
    # with the crossover day past 365 the whole range is the spring branch,
    # whose integral is a softplus difference
    a1, a2, a3, a4, a6, a7 = 0.1, 0.6, 0.05, 150.0, 0.9, 400.0
    assert oracles.crossover(a3, a4, a6, a7) > 365.0
    draws = np.array([[a1, a2, a3, a4, 0.0, a6, a7]])

    def softplus(x):
        return math.log1p(math.exp(-abs(x))) + max(x, 0.0)
    want = a1 * 364.0 + a2 / a3 * (softplus(a3 * (365.0 - a4))
                                   - softplus(a3 * (1.0 - a4)))
    assert oracles.midpoint_auc(draws)[0] == pytest.approx(want, rel=1e-9)


def test_curve_is_continuous_at_the_crossover():
    a = (0.2, 0.55, 0.12, 120.0, 4e-4, 0.10, 280.0)
    d = oracles.crossover(a[2], a[3], a[5], a[6])
    left = oracles.curve(d, a)
    right = a[0] + (a[1] - a[4] * d) * oracles.logistic(a[5] * (a[6] - d))
    assert left == pytest.approx(right, rel=1e-14)


CASES = [(0.31, 0.3, 0.002), (0.05, 0.2, 0.01), (0.97, 0.9, 0.003),
         (0.5, 0.02, 0.004), (0.01, 0.98, 0.002)]


@pytest.mark.parametrize("y,mu,s2", CASES)
def test_log_densities_match_mpmath(y, mu, s2):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 50
    Y, M, S2 = mp.mpf(y), mp.mpf(mu), mp.mpf(s2)
    normal = -mp.log(2 * mp.pi * S2) / 2 - (Y - M) ** 2 / (2 * S2)
    sd = mp.sqrt(S2)
    mass = mp.ncdf((1 - M) / sd) - mp.ncdf((0 - M) / sd)
    phi = 1 / S2
    p, q = M * phi, (1 - M) * phi
    beta = (mp.loggamma(phi) - mp.loggamma(p) - mp.loggamma(q)
            + (p - 1) * mp.log(Y) + (q - 1) * mp.log(1 - Y))
    for got, want in ((oracles.normal_logpdf(y, mu, s2), normal),
                      (oracles.tnormal_logpdf(y, mu, s2),
                       normal - mp.log(mass)),
                      (oracles.beta_logpdf(y, mu, s2), beta)):
        assert got == pytest.approx(float(want), rel=1e-12, abs=1e-12)


def test_densities_are_minus_inf_off_support():
    assert oracles.tnormal_logpdf(1.2, 0.5, 0.01) == -math.inf
    assert oracles.beta_logpdf(0.5, 1.0, 0.01) == -math.inf
    assert oracles.beta_logpdf(0.0, 0.5, 0.01) == -math.inf


def test_pixel_seed_frozen_values():
    frozen = [((0, 0, 0, 40), 16294208416658607535),
              ((42, 3, 7, 40), 7198425102519719689),
              ((2**63, 39, 39, 40), 14225242671697879753)]
    for args, want in frozen:
        assert oracles.splitmix64_seed(*args) == want


def test_quantile_is_numpys_default_interpolation():
    rng = np.random.default_rng(3)
    for n in (2, 10, 1001):
        x = np.sort(rng.normal(size=n))
        for p in (0.025, 0.5, 0.975):
            assert oracles.quantile(x, p) == pytest.approx(
                float(np.quantile(x, p)), rel=1e-14, abs=1e-15)


def test_retained_count_is_the_subsample_arithmetic():
    for n, start, thin in ((50_000, 25_000, 25), (5_000, 2_000, 3),
                           (200, 101, 10), (2_000, 1_001, 1)):
        assert oracles.retained_count(n, start, thin) == len(
            range(start, n + 1, thin))


def test_prior_support_is_strict():
    inside = [0.2, 0.5, 0.1, 120.0, 0.0, 0.1, 280.0, 0.003]
    assert oracles.in_prior_support(inside)
    for i, v in ((1, 0.8), (3, 280.0), (4, 0.01), (6, 365.0), (7, 0.0)):
        bad = list(inside)
        bad[i] = v
        assert not oracles.in_prior_support(bad)
