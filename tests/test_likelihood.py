"""Tests for the likelihood module (log-densities, sampling, simulation)."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from helpers import (
    SIM_CURVE,
    chain_from_rows,
    draw_support_rows,
    gl_integral,
    py_beta_logpdf,
    py_curve_value,
    py_normal_logpdf,
    py_tn_logpdf,
)

from lspfit import (
    CurveParams,
    IndexBounds,
    LikelihoodKind,
    NoiseParam,
    ObservationSeries,
    curve_value,
    fitted_samples,
    log_density,
    predictive_draw,
    predictive_samples,
    series_log_likelihood,
    simulate_series,
)

NORMAL = LikelihoodKind.normal()
BETA = LikelihoodKind.beta()
TN01 = LikelihoodKind.truncated_normal(0.0, 1.0)

# Frozen extended-precision reference values (40-digit arithmetic).
TN_LOGPDF_HALF = 0.04097780049094957755250   # y=0.5, mu=0.5, s2=1, [0,1]
TN_LOGPDF_EDGE = 0.90759297507802933530480   # y=0.82, mu=0.95, s2=0.01, [0,1]
TN_MEAN_ORACLE = 0.61279619579643662759484   # mu=0.9, s2=0.25, [0,1]
BETA_LOGPDF_ORACLE = -16.97610202135833719495  # y=0.3, mu=0.6, s2=0.01


class TestLogDensity:
    def test_normal_unit_height_peak(self):
        assert log_density(NORMAL, 0.5, 0.5, 1.0 / (2.0 * math.pi)) == (
            pytest.approx(0.0, abs=1e-15)
        )

    def test_normal_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y, mu = rng.uniform(0, 1, 2)
            s2 = rng.uniform(1e-4, 0.5)
            assert log_density(NORMAL, y, mu, s2) == pytest.approx(
                py_normal_logpdf(y, mu, s2), rel=1e-13
            )

    def test_beta_uniform_case_is_zero(self):
        # sigma2=0.5 means precision 2, shapes (1, 1): the uniform density.
        assert log_density(BETA, 0.3, 0.5, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_beta_extended_precision_oracle(self):
        assert log_density(BETA, 0.3, 0.6, 0.01) == pytest.approx(
            BETA_LOGPDF_ORACLE, rel=1e-14
        )

    def test_beta_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.uniform(0.01, 0.99)
            mu = rng.uniform(0.05, 0.95)
            s2 = rng.uniform(1e-3, 0.4)
            assert log_density(BETA, y, mu, s2) == pytest.approx(
                py_beta_logpdf(y, mu, s2), rel=1e-12
            )

    def test_beta_zero_density_encodings(self):
        assert log_density(BETA, 0.0, 0.5, 0.01) == -math.inf
        assert log_density(BETA, 1.0, 0.5, 0.01) == -math.inf
        assert log_density(BETA, -0.1, 0.5, 0.01) == -math.inf
        # Mean outside (0,1) encodes a Metropolis rejection, not an error.
        assert log_density(BETA, 0.5, 0.0, 0.01) == -math.inf
        assert log_density(BETA, 0.5, 1.0, 0.01) == -math.inf
        assert log_density(BETA, 0.5, -0.2, 0.01) == -math.inf
        assert log_density(BETA, 0.5, 1.2, 0.01) == -math.inf

    def test_tn_extended_precision_oracles(self):
        assert log_density(TN01, 0.5, 0.5, 1.0) == pytest.approx(
            TN_LOGPDF_HALF, rel=1e-13
        )
        assert log_density(TN01, 0.82, 0.95, 0.01) == pytest.approx(
            TN_LOGPDF_EDGE, rel=1e-13
        )

    def test_tn_matches_scalar_oracle_mean_outside_bounds(self):
        # The truncation mass must stay accurate when mu leaves [a, b].
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = rng.uniform(0.0, 1.0)
            mu = rng.uniform(-0.5, 1.5)
            s2 = rng.uniform(1e-3, 0.3)
            assert log_density(TN01, y, mu, s2) == pytest.approx(
                py_tn_logpdf(y, mu, s2, 0.0, 1.0), rel=1e-11
            )

    def test_tn_outside_support(self):
        assert log_density(TN01, 1.2, 0.5, 0.01) == -math.inf
        assert log_density(TN01, -0.01, 0.5, 0.01) == -math.inf
        # Endpoints belong to the support.
        assert math.isfinite(log_density(TN01, 0.0, 0.5, 0.04))
        assert math.isfinite(log_density(TN01, 1.0, 0.5, 0.04))

    def test_normal_vs_tn_agreement_away_from_bounds(self):
        # With the mean deep inside the interval the truncation mass is
        # negligible and the two log-densities coincide.
        for y in (0.3, 0.5, 0.7):
            n = log_density(NORMAL, y, 0.5, 0.05**2)
            t = log_density(TN01, y, 0.5, 0.05**2)
            assert abs(n - t) < 1e-10

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            log_density(NORMAL, 0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            log_density(NORMAL, 0.5, 0.5, -1.0)
        with pytest.raises(ValueError):
            LikelihoodKind.truncated_normal(1.0, 1.0)
        with pytest.raises(ValueError):
            LikelihoodKind.truncated_normal(1.0, 0.0)
        with pytest.raises(ValueError):
            NoiseParam(0.0)


class TestDensityNormalisation:
    def test_beta_integrates_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu = rng.uniform(0.2, 0.8)
            phi = rng.uniform(5.0, 500.0)
            s2 = 1.0 / phi

            def dens(ys):
                return np.array([math.exp(log_density(BETA, y, mu, s2)) for y in ys])

            assert gl_integral(dens, 0.0, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_tn_integrates_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            mu = rng.uniform(-0.2, 1.2)
            s2 = rng.uniform(1e-3, 0.25)

            def dens(ys):
                return np.array([math.exp(log_density(TN01, y, mu, s2)) for y in ys])

            assert gl_integral(dens, 0.0, 1.0) == pytest.approx(1.0, abs=1e-6)


class TestSeriesLogLikelihood:
    def test_sum_of_zero_terms(self):
        # A flat curve at the observed value with unit-height normal noise.
        p = CurveParams(0.5, 0.0, 0.1, 120.0, 0.0, 0.1, 280.0)
        s = ObservationSeries(np.array([100.0, 200.0]), np.array([0.5, 0.5]))
        got = series_log_likelihood(NORMAL, s, p, 1.0 / (2.0 * math.pi))
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_single_out_of_bounds_value_dominates(self):
        p = SIM_CURVE
        s = ObservationSeries(np.array([100.0, 200.0]), np.array([0.5, 1.2]))
        assert series_log_likelihood(TN01, s, p, 0.01) == -math.inf

    def test_beta_boundary_observation_dominates(self):
        p = SIM_CURVE
        s = ObservationSeries(np.array([100.0, 200.0]), np.array([0.5, 1.0]))
        assert series_log_likelihood(BETA, s, p, 0.01) == -math.inf

    @pytest.mark.parametrize("kind", [NORMAL, BETA, TN01],
                             ids=["normal", "beta", "tnormal"])
    def test_term_by_term_summation_oracle(self, kind):
        rng = np.random.default_rng(5)
        doys = np.sort(rng.uniform(1.0, 365.0, 10))
        values = rng.uniform(0.05, 0.95, 10)
        s = ObservationSeries(doys, values)
        for row in draw_support_rows(rng, 10):
            p = CurveParams(*row[:7])
            s2 = float(row[7])
            want = sum(
                log_density(kind, float(y), py_curve_value(float(t), *row[:7]), s2)
                for t, y in zip(doys, values)
            )
            got = series_log_likelihood(kind, s, p, s2)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            series_log_likelihood(
                NORMAL,
                ObservationSeries(np.array([]), np.array([])),
                SIM_CURVE,
                0.01,
            )

    def test_series_validation(self):
        with pytest.raises(ValueError):
            ObservationSeries(np.array([0.5]), np.array([0.5]))  # doy < 1
        with pytest.raises(ValueError):
            ObservationSeries(np.array([367.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            ObservationSeries(np.array([100.0]), np.array([np.nan]))
        with pytest.raises(ValueError):
            ObservationSeries(np.array([100.0, 200.0]), np.array([0.5]))


class TestPredictiveDraw:
    def test_normal_degenerate_limit(self):
        rng = np.random.default_rng(6)
        draws = np.array(
            [predictive_draw(NORMAL, 0.4, 1e-12, rng) for _ in range(10_000)]
        )
        assert draws.std() < 1e-5
        assert abs(draws.mean() - 0.4) < 1e-5

    def test_beta_uniform_mean(self):
        rng = np.random.default_rng(7)
        draws = np.array(
            [predictive_draw(BETA, 0.5, 0.5, rng) for _ in range(100_000)]
        )
        assert abs(draws.mean() - 0.5) < 0.01
        assert np.all((draws > 0.0) & (draws < 1.0))

    def test_tn_mean_matches_analytic_oracle(self):
        rng = np.random.default_rng(8)
        draws = np.array(
            [predictive_draw(TN01, 0.9, 0.25, rng) for _ in range(100_000)]
        )
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - TN_MEAN_ORACLE) < 3.0 * se
        assert np.all((draws >= 0.0) & (draws <= 1.0))

    def test_beta_mean_outside_unit_interval_is_error(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            predictive_draw(BETA, 1.2, 0.01, rng)
        with pytest.raises(ValueError):
            predictive_draw(BETA, 0.0, 0.01, rng)

    def test_invalid_sigma2_is_error(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            predictive_draw(NORMAL, 0.5, -0.1, rng)


class TestSimulateSeries:
    DOYS = [30.0, 90.0, 150.0, 210.0, 270.0, 330.0]

    @pytest.mark.parametrize("kind", [NORMAL, BETA, TN01],
                             ids=["normal", "beta", "tnormal"])
    def test_noiseless_limit_recovers_curve(self, kind):
        rng = np.random.default_rng(11)
        s = simulate_series(kind, SIM_CURVE, 1e-12, self.DOYS, rng)
        want = np.array([py_curve_value(t, *SIM_CURVE.to_array()) for t in self.DOYS])
        assert np.max(np.abs(s.values - want)) < 1e-5

    def test_same_seed_identical(self):
        a = simulate_series(BETA, SIM_CURVE, 0.003, self.DOYS,
                            np.random.Generator(np.random.Philox(key=17)))
        b = simulate_series(BETA, SIM_CURVE, 0.003, self.DOYS,
                            np.random.Generator(np.random.Philox(key=17)))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.doys, b.doys)

    def test_beta_mean_at_fixed_day(self):
        rng = np.random.default_rng(12)
        t0 = 180.0
        s = simulate_series(BETA, SIM_CURVE, 0.003, [t0] * 10_000, rng)
        mu = py_curve_value(t0, *SIM_CURVE.to_array())
        se = s.values.std(ddof=1) / math.sqrt(len(s))
        assert abs(s.values.mean() - mu) < 3.0 * se

    def test_doys_validated(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            simulate_series(NORMAL, SIM_CURVE, 0.003, [0.0], rng)
        with pytest.raises(ValueError):
            simulate_series(NORMAL, SIM_CURVE, 0.003, [], rng)

    def test_custom_bounds_flow_into_series(self):
        rng = np.random.default_rng(14)
        b = IndexBounds(-0.5, 1.5)
        s = simulate_series(NORMAL, SIM_CURVE, 0.003, self.DOYS, rng, bounds=b)
        assert s.bounds == b


def reference_draw(kind, mu, s2, rng):
    """One predictive draw taken straight from numpy, as a plain loop would."""
    if kind.kind == "normal":
        return mu + math.sqrt(s2) * rng.standard_normal()
    if kind.kind == "tnormal":
        sd = math.sqrt(s2)
        fa = ndtr((kind.a - mu) / sd)
        fb = ndtr((kind.b - mu) / sd)
        x = mu + sd * float(ndtri(fa + rng.random() * (fb - fa)))
        return min(max(x, kind.a), kind.b)
    phi = 1.0 / s2
    return rng.beta(mu * phi, (1.0 - mu) * phi)


class TestDrawOrder:
    """Array draws consume the generator exactly as one draw per value, in
    order: the outputs and the generator state afterwards match a loop."""

    KINDS = [NORMAL, BETA, LikelihoodKind.truncated_normal(0.1, 0.7)]
    IDS = ["normal", "beta", "tnormal"]

    @staticmethod
    def loop(kind, mus, s2s, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        out = [reference_draw(kind, float(m), float(s2), rng)
               for m, s2 in zip(mus, np.broadcast_to(s2s, np.shape(mus)))]
        return np.array(out), rng.random()

    @pytest.mark.parametrize("kind", KINDS, ids=IDS)
    def test_simulate_series(self, kind):
        doys = np.arange(3.0, 366.0, 7.0)
        for seed, s2 in ((1, 1e-4), (2, 3e-3), (3, 0.05)):
            rng = np.random.Generator(np.random.Philox(key=seed))
            got = simulate_series(kind, SIM_CURVE, s2, doys, rng).values
            want, after = self.loop(kind, curve_value(doys, SIM_CURVE), s2,
                                    seed)
            assert got.tobytes() == want.tobytes()
            assert rng.random() == after

    @pytest.mark.parametrize("kind", KINDS, ids=IDS)
    def test_predictive_samples(self, kind):
        rows = draw_support_rows(np.random.default_rng(21), 300)
        rows[:, 4] = 0.0  # curve values stay inside (0, 1) for the Beta
        chain = chain_from_rows(rows)
        for seed, t0 in ((4, 60.0), (5, 200.0)):
            rng = np.random.Generator(np.random.Philox(key=seed))
            got = predictive_samples(chain, kind, t0, rng)
            want, after = self.loop(kind, fitted_samples(chain, t0),
                                    rows[:, 7], seed)
            assert got.tobytes() == want.tobytes()
            assert rng.random() == after

    @pytest.mark.parametrize("kind", KINDS, ids=IDS)
    def test_predictive_draw(self, kind):
        mus = np.linspace(0.02, 0.98, 97)
        s2s = np.geomspace(1e-4, 0.2, 97)
        rng = np.random.Generator(np.random.Philox(key=6))
        got = np.array([predictive_draw(kind, float(m), float(s2), rng)
                        for m, s2 in zip(mus, s2s)])
        want, after = self.loop(kind, mus, s2s, 6)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == after
