"""Tests for the random-walk Metropolis sampler module."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import inv_boxcox

from helpers import (
    PHENO_TUNING,
    SIM_CURVE,
    default_spec,
    make_series,
    py_curve_value,
    standard_starting,
)

from lspfit import (
    Chain,
    ChainConfig,
    CurveParams,
    LikelihoodKind,
    NoiseParam,
    ObservationSeries,
    ParamVector,
    TuningSpec,
    in_support,
    log_posterior,
    read_chain_csv,
    run_chain,
    subsample_indices,
    write_chain_csv,
)
import lspfit.sampler
from lspfit.likelihood import _math_log
from lspfit.sampler import (PREDRAW_CHUNK, _predraw_chunks, philox_generator,
                            run_lockstep)

NORMAL = LikelihoodKind.normal()
BETA = LikelihoodKind.beta()
KINDS = [NORMAL, LikelihoodKind.truncated_normal(0.0, 1.0), BETA]

# 0.999 quantile of the chi-square distribution with 7 degrees of freedom.
CHI2_999_DF7 = 24.322

TINY = 1e-15


def tiny_tuning(**overrides) -> TuningSpec:
    vals = dict(alpha1=TINY, alpha2=TINY, alpha3=TINY, alpha4=TINY,
                alpha5=TINY, alpha6=TINY, alpha7=TINY, sigma2=TINY)
    vals.update(overrides)
    return TuningSpec(**vals)


class TestSubsampleIndices:
    def test_stock_retention_bookkeeping(self):
        cfg = ChainConfig(50_000, sub_start=25_000, sub_end=50_000, sub_thin=25)
        idx = subsample_indices(cfg)
        assert len(idx) == 1001
        assert idx[0] == 25_000
        assert idx[-1] == 50_000

    def test_identity_subsampling(self):
        cfg = ChainConfig(10, sub_start=1, sub_end=10, sub_thin=1)
        assert list(subsample_indices(cfg)) == list(range(1, 11))

    def test_sequence_arithmetic(self):
        cfg = ChainConfig(10, sub_start=3, sub_end=10, sub_thin=4)
        assert list(subsample_indices(cfg)) == [3, 7]

    def test_defaults_cover_whole_chain(self):
        cfg = ChainConfig(7)
        assert list(subsample_indices(cfg)) == [1, 2, 3, 4, 5, 6, 7]


class TestConfigValidation:
    def test_bad_configs(self):
        with pytest.raises(ValueError):
            ChainConfig(0)
        with pytest.raises(ValueError):
            ChainConfig(100, sub_start=0)
        with pytest.raises(ValueError):
            ChainConfig(100, sub_start=50, sub_end=40)
        with pytest.raises(ValueError):
            ChainConfig(100, sub_end=101)
        with pytest.raises(ValueError):
            ChainConfig(100, sub_thin=0)
        with pytest.raises(ValueError):
            ChainConfig(100, batch_len=0)
        with pytest.raises(ValueError):
            ChainConfig(100, batch_len=101)
        with pytest.raises(ValueError):
            ChainConfig(100, sub_start=True)

    def test_bad_tuning(self):
        with pytest.raises(ValueError):
            TuningSpec(0.0, 1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            TuningSpec(1, 1, 1, -0.1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            TuningSpec(1, 1, 1, 1, 1, 1, 1, float("nan"))


@pytest.fixture(scope="module")
def beta_series():
    return make_series(BETA, SIM_CURVE, 0.003, [float(d) for d in range(8, 361, 16)], 101)


@pytest.fixture(scope="module")
def spec():
    return default_spec()


class TestLogPosterior:
    def test_outside_support(self, beta_series, spec):
        v = ParamVector(CurveParams(0.2, 0.9, 0.25, 100, 1e-4, 0.25, 200),
                        NoiseParam(4e-3))
        assert log_posterior(BETA, beta_series, spec, v) == -math.inf

    def test_component_sum_oracle(self, beta_series, spec):
        from lspfit import log_prior, series_log_likelihood

        v = standard_starting()
        want = (log_prior(spec, v)
                + series_log_likelihood(BETA, beta_series, v.curve, v.noise))
        got = log_posterior(BETA, beta_series, spec, v)
        assert got == pytest.approx(want, rel=1e-12)

    def test_duplicate_observation_adds_one_term(self, beta_series, spec):
        from lspfit import log_density

        v = standard_starting()
        t_star, y_star = 120.0, 0.61
        doys = np.append(beta_series.doys, t_star)
        values = np.append(beta_series.values, y_star)
        bigger = ObservationSeries(doys, values)
        mu = py_curve_value(t_star, *v.curve.to_array())
        delta = log_density(BETA, y_star, mu, v.noise.sigma2)
        assert log_posterior(BETA, bigger, spec, v) == pytest.approx(
            log_posterior(BETA, beta_series, spec, v) + delta, rel=1e-12
        )


class TestRunChain:
    def test_retained_count_bookkeeping(self, beta_series, spec):
        cfg = ChainConfig(200, sub_start=100, sub_end=200, sub_thin=10, seed=1)
        ch = run_chain(BETA, beta_series, spec, standard_starting(),
                       PHENO_TUNING, cfg)
        assert ch.retained_count == 11
        assert ch.samples.shape == (11, 8)

    def test_determinism(self, beta_series, spec):
        cfg = ChainConfig(2000, sub_start=1001, seed=33)
        a = run_chain(BETA, beta_series, spec, standard_starting(), PHENO_TUNING, cfg)
        b = run_chain(BETA, beta_series, spec, standard_starting(), PHENO_TUNING, cfg)
        assert np.array_equal(a.samples, b.samples)
        assert a.acc_overall == b.acc_overall
        assert a.acc_last_batch == b.acc_last_batch
        c = run_chain(BETA, beta_series, spec, standard_starting(), PHENO_TUNING,
                      ChainConfig(2000, sub_start=1001, seed=34))
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("n", [1, 100, PREDRAW_CHUNK, PREDRAW_CHUNK + 37,
                                   2 * PREDRAW_CHUNK + 1])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
    def test_matches_contract_reference_loop(self, beta_series, spec, kind,
                                             n):
        # The determinism contract drawn as two whole blocks, one iteration
        # at a time through the public log_posterior; run_chain takes the
        # same stream in chunks, so the lengths take part of one chunk, fill
        # it, and cross one and two chunk boundaries.
        seed = 2**63 + 5
        batch = min(50, n)
        cfg = ChainConfig(n, sub_start=max(1, n // 2), sub_thin=3, seed=seed,
                          batch_len=batch)
        rng = np.random.Generator(np.random.Philox(key=seed))
        steps = rng.standard_normal((n, 8)) * PHENO_TUNING.to_array()
        log_u = np.log(rng.random(n))
        theta = standard_starting().to_array()
        z = math.log(theta[7])
        lp = log_posterior(kind, beta_series, spec, standard_starting())
        kept, accepted = [], []
        for i in range(n):
            prop = theta + steps[i]
            zp = z + steps[i, 7]
            prop[7] = math.exp(zp)
            lpp = log_posterior(kind, beta_series, spec,
                                ParamVector.from_array(prop))
            accepted.append(log_u[i] < lpp - lp + (zp - z))
            if accepted[-1]:
                theta, z, lp = prop, zp, lpp
            kept.append(theta)
        ch = run_chain(kind, beta_series, spec, standard_starting(),
                       PHENO_TUNING, cfg)
        assert np.array_equal(ch.samples,
                              np.array(kept)[subsample_indices(cfg) - 1])
        assert ch.acc_overall == sum(accepted) / n
        assert ch.acc_last_batch == sum(accepted[-batch:]) / batch

    @pytest.mark.parametrize("n, built", [
        (1, 3), (PREDRAW_CHUNK, 3), (PREDRAW_CHUNK + 1, 6)])
    def test_one_generator_per_chain_of_one_chunk(self, monkeypatch, n,
                                                  built):
        seeds = []

        def counted(seed):
            seeds.append(seed)
            return philox_generator(seed)
        monkeypatch.setattr(lspfit.sampler, "philox_generator", counted)
        chunks = list(_predraw_chunks([4, 5, 6], PHENO_TUNING, n))
        assert len(seeds) == built
        assert sum(len(log_u) for _, log_u in chunks) == n

    # a sigma2 near 0 or near 1e300 also overflows inside the block prior
    # and likelihood, with a warning; the step is rejected all the same
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
    def test_overflowing_step_is_rejected_in_both_loops(self, spec, kind):
        # Log-scale sigma2 steps of sd 500 take z' past ~709.78, where exp
        # overflows, and below ~-745, where it underflows to 0. Both loops
        # reject such a step and run on, with equal chains.
        n, seeds = 300, [3, 2**64 - 1, 12345]
        tuning = replace(PHENO_TUNING, sigma2=500.0)
        doys = np.arange(8.0, 361.0, 16.0)
        rows = [make_series(kind, SIM_CURVE, 0.003, doys, s) for s in seeds]
        start = standard_starting()
        cfg = ChainConfig(n, sub_start=1, seed=0, batch_len=50)
        samples, acc, acc_batch = run_lockstep(
            kind, np.array([r.doys for r in rows]),
            np.array([r.values for r in rows]), spec, start, tuning, cfg,
            seeds)
        for b, (series, seed) in enumerate(zip(rows, seeds)):
            ch = run_chain(kind, series, spec, start, tuning,
                           replace(cfg, seed=seed))
            assert np.array_equal(samples[b], ch.samples)
            assert acc[b] == ch.acc_overall
            assert acc_batch[b] == ch.acc_last_batch
            # the proposals z' = z + dz of the chain's own draws
            z = np.log(np.append(start.noise.sigma2, ch.samples[:-1, 7]))
            dz = philox_generator(seed).standard_normal((n, 8))[:, 7] * 500.0
            assert (z + dz > 710.0).any() and (z + dz < -746.0).any()
            s2 = ch.samples[:, 7]
            assert np.all((s2 > 0) & np.isfinite(s2))

    def test_support_closure(self, beta_series, spec):
        cfg = ChainConfig(3000, sub_start=1, seed=2)
        ch = run_chain(BETA, beta_series, spec, standard_starting(),
                       PHENO_TUNING, cfg)
        for row in ch.samples:
            v = ParamVector(CurveParams(*row[:7]), NoiseParam(float(row[7])))
            assert in_support(spec, v)

    def test_null_proposals(self, beta_series, spec):
        cfg = ChainConfig(2000, sub_start=1001, seed=3)
        start = standard_starting()
        ch = run_chain(BETA, beta_series, spec, start, tiny_tuning(), cfg)
        assert ch.acc_overall >= 0.999
        dev = np.abs(ch.samples - start.to_array()[None, :])
        assert dev.max() < 1e-9

    def test_acceptance_bookkeeping_exact(self, beta_series, spec):
        cfg = ChainConfig(300, sub_start=1, sub_end=300, sub_thin=1,
                          seed=4, batch_len=50)
        start = standard_starting()
        ch = run_chain(BETA, beta_series, spec, start, PHENO_TUNING, cfg)
        states = np.vstack([start.to_array()[None, :], ch.samples])
        changed = np.any(states[1:] != states[:-1], axis=1)
        assert ch.acc_overall == changed.sum() / 300.0
        assert ch.acc_last_batch == changed[-50:].sum() / 50.0
        # The regime check: acceptance is neither stuck nor runaway.
        assert 0.0 < ch.acc_overall < 1.0

    def test_starting_outside_support_is_error(self, beta_series, spec):
        bad = ParamVector(CurveParams(0.2, 0.9, 0.25, 100, 1e-4, 0.25, 200),
                          NoiseParam(4e-3))
        with pytest.raises(ValueError, match="starting"):
            run_chain(BETA, beta_series, spec, bad, PHENO_TUNING,
                      ChainConfig(100))

    def test_conjugate_sigma2_posterior(self, spec):
        # With the curve parameters pinned (near-zero proposals) and a
        # Normal likelihood, sigma2 | y is exactly inverse-Gamma with
        # shape a + n/2 and scale b + SS/2.
        doys = [float(d) for d in range(10, 361, 12)]
        series = make_series(NORMAL, SIM_CURVE, 0.003, doys, 77)
        n = len(series)
        truth = SIM_CURVE.to_array()
        ss = sum(
            (y - py_curve_value(t, *truth)) ** 2
            for t, y in zip(series.doys, series.values)
        )
        a_post = 2.0 + n / 2.0
        b_post = 1e-3 + ss / 2.0
        want_mean = b_post / (a_post - 1.0)

        start = ParamVector(SIM_CURVE, NoiseParam(0.002))
        cfg = ChainConfig(40_000, sub_start=10_001, sub_thin=4, seed=5)
        ch = run_chain(NORMAL, series, spec, start,
                       tiny_tuning(sigma2=0.1), cfg)
        draws = ch.samples[:, 7]
        assert len(draws) == 7500
        # Curve parameters stayed pinned.
        assert np.max(np.abs(ch.samples[:, :7] - truth[None, :])) < 1e-9

        batches = draws.reshape(75, 100).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(draws.mean() - want_mean) < 4.0 * se

    def test_detailed_balance_against_grid_quadrature(self, spec):
        # One observation, alpha1 free, everything else pinned by
        # near-zero proposals: the retained alpha1 histogram must match
        # the directly normalised target computed by dense quadrature.
        series = ObservationSeries(np.array([180.0]), np.array([0.5]))
        pinned = (0.3, 0.2, 120.0, 0.0, 0.2, 280.0, 0.02)
        start = ParamVector(CurveParams(0.3, *pinned[:6]), NoiseParam(pinned[6]))
        cfg = ChainConfig(200_000, sub_start=5_001, sub_thin=50, seed=6)
        ch = run_chain(NORMAL, series, spec, start,
                       tiny_tuning(alpha1=0.3), cfg)
        a1 = ch.samples[:, 0]
        n_kept = len(a1)

        # Unnormalised log target on a dense alpha1 grid over (0, 0.7).
        lo, hi = 0.0, 0.7
        grid = lo + (np.arange(7000) + 0.5) * (hi - lo) / 7000

        def log_target(x: float, with_normalizer: bool) -> float:
            v = ParamVector(CurveParams(x, *pinned[:6]), NoiseParam(pinned[6]))
            lp = log_posterior(NORMAL, series, spec, v)
            if not with_normalizer:
                lp += math.log(1.0 - x)  # cancel the dependent term
            return lp

        def bin_probs(with_normalizer: bool) -> np.ndarray:
            lw = np.array([log_target(x, with_normalizer) for x in grid])
            w = np.exp(lw - lw.max())
            p = w.reshape(8, -1).sum(axis=1)
            return p / p.sum()

        edges = np.linspace(lo, hi, 9)
        counts, _ = np.histogram(a1, bins=edges)
        assert counts.sum() == n_kept

        expected = n_kept * bin_probs(with_normalizer=True)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_999_DF7

        # Power check: dropping the dependent normaliser from the target
        # must be detected by the same statistic.
        wrong = n_kept * bin_probs(with_normalizer=False)
        chi2_wrong = float(np.sum((counts - wrong) ** 2 / wrong))
        assert chi2_wrong > CHI2_999_DF7


class TestLibmTwins:
    """The block paths take libm's log and exp through scipy, where
    run_chain takes them through math; a platform where the two differ in
    any bit must fail here rather than let brick pixels drift from
    run_chain."""

    def test_block_log_is_math_log(self):
        rng = np.random.default_rng(0)
        tiny = np.finfo(np.float64).tiny  # the smallest normal double
        x = np.concatenate([
            10.0 ** rng.uniform(-12.0, 1.0, 400_000),  # sigma2
            1.0 - rng.random(300_000),  # gamma2 - alpha1 in (0, 1]
            364.0 * (1.0 - rng.random(300_000)),  # alpha7 - alpha4_lo
            [5e-324, 1e-310, np.nextafter(tiny, 0.0), tiny,
             np.nextafter(tiny, 1.0), 1.0, np.finfo(np.float64).max],
        ])
        want = np.array(list(map(math.log, x.tolist())))
        assert np.array_equal(_math_log(x).view(np.int64), want.view(np.int64))

    def test_block_exp_is_math_exp(self):
        rng = np.random.default_rng(1)
        z = np.concatenate([
            rng.uniform(-30.0, 5.0, 1_000_000),
            np.linspace(-746.0, -744.0, 2001),  # down through subnormals to 0
            np.linspace(709.0, 709.782712893384, 2001),  # up to DBL_MAX
        ])
        want = np.array(list(map(math.exp, z.tolist())))
        assert np.array_equal(inv_boxcox(z, 0.0).view(np.int64),
                              want.view(np.int64))

    def test_block_exp_overflows_to_inf(self):
        with pytest.raises(OverflowError):
            math.exp(709.79)
        assert np.all(inv_boxcox(np.array([709.79, 1e5]), 0.0) == math.inf)


class TestChainCsv:
    def test_round_trip_bit_exact(self, beta_series, spec, tmp_path):
        cfg = ChainConfig(500, sub_start=251, seed=9)
        ch = run_chain(BETA, beta_series, spec, standard_starting(),
                       PHENO_TUNING, cfg)
        path = tmp_path / "chain.csv"
        write_chain_csv(ch, path)
        back = read_chain_csv(path)
        assert np.array_equal(back.samples, ch.samples)
        header = path.read_text().splitlines()[0]
        assert header == "alpha1,alpha2,alpha3,alpha4,alpha5,alpha6,alpha7,sigma2"

    def test_acceptance_not_stored_in_csv(self, tmp_path):
        ch = Chain.from_samples(np.random.default_rng(0).uniform(size=(5, 8)))
        path = tmp_path / "c.csv"
        write_chain_csv(ch, path)
        back = read_chain_csv(path)
        assert back.acc_overall is None
        assert back.acc_last_batch is None

    def test_wrong_header_is_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_chain_csv(path)

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_chain_csv(path)
