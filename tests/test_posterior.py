"""Tests for posterior summarisation and derived-quantity propagation."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from helpers import (
    chain_from_rows,
    draw_support_rows,
    mp_auc,
    py_crossover,
    py_curve_value,
    riemann_auc,
)

from lspfit import (
    LikelihoodKind,
    QuadratureConfig,
    auc_samples,
    crossover_samples,
    curve_max_samples,
    fitted_samples,
    functional_samples,
    predictive_samples,
    season_length_samples,
    summarize,
    write_summary_csv,
)
from lspfit.posterior import sample_sd

NORMAL = LikelihoodKind.normal()
TN01 = LikelihoodKind.truncated_normal(0.0, 1.0)


def support_chain(seed: int, n: int = 50):
    rng = np.random.default_rng(seed)
    return chain_from_rows(draw_support_rows(rng, n))


class TestSummarize:
    def test_small_example(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.mean == 3.0
        assert s.median == 3.0
        assert s.sd == pytest.approx(math.sqrt(2.5), rel=1e-15)
        # Linear interpolation of order statistics (type-7).
        assert s.q025 == pytest.approx(1.1, rel=1e-15)
        assert s.q975 == pytest.approx(4.9, rel=1e-15)

    def test_constant_list(self):
        s = summarize([0.7] * 100)
        assert s.mean == 0.7
        assert s.sd == 0.0
        assert s.q025 == s.median == s.q975 == 0.7

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            summarize([1.0])
        with pytest.raises(ValueError):
            summarize([])

    def test_sd_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_sd(np.array([0.5]), 0.5)

    def test_quantile_ordering_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = summarize(rng.normal(size=101))
            assert s.q025 <= s.median <= s.q975

    def test_seeded_normal_against_inverse_cdf(self):
        # Spec-sized check: 1001 draws, then a tighter large-sample check.
        for n, seed in ((1001, 1), (200_001, 2)):
            draws = np.random.default_rng(seed).standard_normal(n)
            s = summarize(draws)
            for p, got in ((0.025, s.q025), (0.5, s.median), (0.975, s.q975)):
                want = norm.ppf(p)
                # Asymptotic sd of the sample quantile.
                band = 4.0 * math.sqrt(p * (1 - p) / n) / norm.pdf(want)
                assert abs(got - want) < band
            assert abs(s.mean) < 4.0 / math.sqrt(n)
            assert abs(s.sd - 1.0) < 4.0 * math.sqrt(2.0 / n)


class TestSampleFunctionals:
    def test_fitted_loop_oracle(self):
        ch = support_chain(3)
        for t in (1.0, 120.5, 207.0, 365.0):
            got = fitted_samples(ch, t)
            want = np.array([py_curve_value(t, *row[:7]) for row in ch.samples])
            assert np.max(np.abs(got - want)) < 1e-12

    def test_fitted_half_amplitude(self):
        rng = np.random.default_rng(4)
        rows = draw_support_rows(rng, 30)
        rows[:, 4] = 0.0
        rows[:, 3] = 150.0  # common alpha4 so one t works for every row
        rows[:, 6] = rng.uniform(200.0, 300.0, 30)
        ch = chain_from_rows(rows)
        got = fitted_samples(ch, 150.0)
        want = rows[:, 0] + rows[:, 1] / 2.0
        assert np.max(np.abs(got - want)) < 1e-12

    def test_constant_chain_constant_fit(self):
        rows = np.tile([0.2, 0.5, 0.1, 120.0, 0.0, 0.1, 280.0, 3e-3], (10, 1))
        ch = chain_from_rows(rows)
        vals = fitted_samples(ch, 200.0)
        assert np.all(vals == vals[0])

    def test_season_length(self):
        rows = np.tile([0.2, 0.5, 0.1, 120.0, 0.0, 0.1, 280.0, 3e-3], (5, 1))
        ch = chain_from_rows(rows)
        assert np.all(season_length_samples(ch) == 160.0)
        ch2 = support_chain(5)
        want = ch2.samples[:, 6] - ch2.samples[:, 3]
        assert np.array_equal(season_length_samples(ch2), want)
        assert np.all(season_length_samples(ch2) >= 0.0)

    def test_curve_max(self):
        rows = np.tile([0.2, 0.6, 0.1, 120.0, 0.0, 0.1, 280.0, 3e-3], (5, 1))
        assert np.all(curve_max_samples(chain_from_rows(rows)) ==
                      pytest.approx(0.8, abs=1e-15))
        ch = support_chain(6)
        assert np.array_equal(curve_max_samples(ch),
                              ch.samples[:, 0] + ch.samples[:, 1])
        assert np.all(curve_max_samples(ch) <= 1.0 + 1e-12)

    def test_crossover_loop_oracle(self):
        ch = support_chain(7)
        got = crossover_samples(ch)
        want = np.array([py_crossover(r[2], r[3], r[5], r[6]) for r in ch.samples])
        assert np.max(np.abs(got - want)) < 1e-10

    def test_dispatch_table(self):
        ch = support_chain(8)
        assert np.array_equal(functional_samples(ch, "alpha3"), ch.samples[:, 2])
        assert np.array_equal(functional_samples(ch, "sigma2"), ch.samples[:, 7])
        assert np.array_equal(functional_samples(ch, "season_length"),
                              season_length_samples(ch))
        assert np.array_equal(functional_samples(ch, "delta"),
                              crossover_samples(ch))
        with pytest.raises(ValueError, match="functional"):
            functional_samples(ch, "greenness")


def _oracle_rows():
    """Corner curves for the closed-form AUC: every rate on each branch
    (against 0.1 on the other, and on both), both trend signs, inflections
    at the ends of either test interval, coinciding, and ordinary; then a
    negative spring rate, and a spring rate of 0 with a steep trend."""
    rates = (0.0, 1e-12, 1e-9, 1e-6, 2e-5, 3e-5, 1e-2, 1.0)
    pairs = {(r, 0.1) for r in rates} | {(0.1, r) for r in rates}
    pairs |= {(r, r) for r in rates[1:]}
    rows = [[0.2, 0.5, a3, a4, a5, a6, a7, 1e-3]
            for a3, a6 in sorted(pairs) for a5 in (-0.01, 0.01)
            for a4, a7 in ((1.0, 365.0), (100.0, 200.0), (200.0, 200.0),
                           (120.0, 280.0))]
    rows.append([0.2, 0.5, -0.01, 120.0, 0.005, 0.1, 280.0, 1e-3])
    rows.append([0.2, 0.5, 0.0, 120.0, 0.005, 0.1, 280.0, 1e-3])
    return np.array(rows)


class TestAuc:
    def test_constant_curve_exact(self):
        rows = np.tile([0.25, 0.0, 0.1, 120.0, 0.0, 0.1, 280.0, 3e-3], (5, 1))
        auc = auc_samples(chain_from_rows(rows))
        assert np.all(auc == 91.0)

    def test_riemann_oracle(self):
        rng = np.random.default_rng(9)
        rows = draw_support_rows(rng, 5)
        got = auc_samples(chain_from_rows(rows))
        want = riemann_auc(rows, cells=200_000)
        rel = np.abs(got - want) / np.abs(want)
        assert rel.max() < 1e-5

    def test_linear_plateau_limit(self):
        # Saturated rates and a flat mid-season: the curve is alpha1
        # outside [alpha4, alpha7] and alpha1+alpha2 well inside, with
        # ~unit-width logistic ramps; the Riemann oracle is authoritative.
        rows = np.array([[0.2, 0.5, 1.0, 100.0, 0.0, 1.0, 300.0, 3e-3]])
        got = auc_samples(chain_from_rows(rows))
        want = riemann_auc(rows, cells=400_000)
        assert abs(got[0] - want[0]) / want[0] < 1e-6
        # Coarse plateau arithmetic: baseline everywhere + amplitude
        # over the ~200-day season.
        assert got[0] == pytest.approx(0.2 * 364 + 0.5 * 200, rel=0.01)

    def test_alpha1_shift_monotonicity(self):
        rng = np.random.default_rng(10)
        rows = draw_support_rows(rng, 20)
        rows[:, 0] = np.minimum(rows[:, 0], 0.5)
        shifted = rows.copy()
        shifted[:, 0] += 0.1
        a = auc_samples(chain_from_rows(rows))
        b = auc_samples(chain_from_rows(shifted))
        assert np.max(np.abs((b - a) - 0.1 * 364.0)) < 1e-9

    def test_order_preserving_and_permutation(self):
        rng = np.random.default_rng(11)
        rows = draw_support_rows(rng, 40)
        perm = rng.permutation(40)
        a = auc_samples(chain_from_rows(rows))
        b = auc_samples(chain_from_rows(rows[perm]))
        assert np.array_equal(b, a[perm])
        sa, sb = summarize(a), summarize(b)
        assert (sa.median, sa.q025, sa.q975) == (sb.median, sb.q025, sb.q975)

    def test_custom_interval(self):
        rows = np.tile([0.25, 0.0, 0.1, 120.0, 0.0, 0.1, 280.0, 3e-3], (2, 1))
        q = QuadratureConfig(100.0, 200.0)
        assert np.all(auc_samples(chain_from_rows(rows), q) == 0.25 * 100.0)

    def test_quadrature_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(365.0, 1.0)  # inverted interval

    def test_degenerate_rates_error(self):
        rows = np.tile([0.2, 0.5, 0.1, 120.0, 0.0, 0.1, 280.0, 3e-3], (3, 1))
        for a6 in (-0.1, -0.2):  # alpha3 + alpha6 zero, then negative
            rows[1, 5] = a6
            with pytest.raises(ValueError, match="degenerate rates"):
                auc_samples(chain_from_rows(rows))

    @pytest.mark.parametrize("t_lo,t_hi", [(1.0, 365.0), (100.0, 200.0)])
    def test_mpmath_oracle(self, t_lo, t_hi):
        rows = _oracle_rows()
        got = auc_samples(chain_from_rows(rows), QuadratureConfig(t_lo, t_hi))
        want = np.array([mp_auc(row, t_lo, t_hi) for row in rows])
        assert np.all(np.isfinite(got))
        rel = np.abs(got - want) / np.abs(want)
        assert rel.max() <= 1e-9, rows[np.argmax(rel)]


class TestPredictive:
    def test_noiseless_limit_equals_fitted(self):
        rng = np.random.default_rng(12)
        rows = draw_support_rows(rng, 30)
        rows[:, 7] = 1e-12
        ch = chain_from_rows(rows)
        pred = predictive_samples(ch, NORMAL, 180.0, np.random.default_rng(1))
        fit = fitted_samples(ch, 180.0)
        assert np.max(np.abs(pred - fit)) < 1e-5

    def test_tn_draws_stay_in_bounds(self):
        rng = np.random.default_rng(13)
        rows = draw_support_rows(rng, 200)
        rows[:, 7] = 0.05
        ch = chain_from_rows(rows)
        pred = predictive_samples(ch, TN01, 150.0, np.random.default_rng(2))
        assert np.all((pred >= 0.0) & (pred <= 1.0))

    def test_variance_decomposition(self):
        # With sigma2 constant across draws, Var(pred - fitted) = sigma2.
        rng = np.random.default_rng(14)
        rows = draw_support_rows(rng, 20_000)
        rows[:, 7] = 3e-3
        ch = chain_from_rows(rows)
        pred = predictive_samples(ch, NORMAL, 210.0, np.random.default_rng(3))
        fit = fitted_samples(ch, 210.0)
        noise_var = np.var(pred - fit, ddof=1)
        assert abs(noise_var - 3e-3) < 2.5e-4

    def test_deterministic_given_rng_state(self):
        ch = support_chain(15)
        a = predictive_samples(ch, NORMAL, 100.0, np.random.default_rng(9))
        b = predictive_samples(ch, NORMAL, 100.0, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestSummaryCsv:
    def test_round_trip(self, tmp_path):
        entries = [
            ("alpha1", summarize([0.1, 0.2, 0.3, 0.4])),
            ("auc", summarize([90.0, 91.0, 92.0, 93.0])),
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(entries, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "quantity,mean,sd,median,q025,q975"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "alpha1"
        assert float(first[1]) == entries[0][1].mean
        assert float(first[3]) == entries[0][1].median
