"""Acceptance gate: ten end-to-end checks of the fitting pipeline.

Each test exercises one published behaviour guarantee at a fixed tolerance
and wall-clock budget, and reports a one-line PASS/FAIL verdict through the
``criterion`` fixture (printed in the terminal summary). Statistical checks
use frozen seeds and compare against closed-form or brute-force references
computed independently of the library code under test.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    DOYS_25,
    FINE_TUNING,
    PHENO_TUNING,
    SIM_CURVE,
    WIDE_TUNING,
    chain_from_rows,
    default_spec,
    draw_support_rows,
    gl_integral,
    interior_truth,
    make_series,
    riemann_auc,
    standard_starting,
)
from lspfit import (
    Brick,
    ChainConfig,
    CurveParams,
    LikelihoodKind,
    NoiseParam,
    ObservationSeries,
    ParamVector,
    autumn,
    crossover,
    curve_value,
    fit_brick,
    pixel_seed,
    read_brick,
    run_chain,
    spring,
    summarize,
    write_brick,
)
from lspfit.brick import ingest_long_csv
from lspfit.likelihood import log_density
from lspfit.posterior import QuadratureConfig, functional_samples
from lspfit.sampler import TuningSpec, subsample_indices

NORMAL = LikelihoodKind.normal()
BETA = LikelihoodKind.beta()
TN01 = LikelihoodKind.truncated_normal(0.0, 1.0)


def batch_mean_se(x: np.ndarray, n_batches: int = 200) -> float:
    """Monte-Carlo standard error of the mean of a correlated sequence."""
    means = x.reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


# ---------------------------------------------------------------------------
# criterion 1: stock retention bookkeeping and single-fit speed
# ---------------------------------------------------------------------------

def test_criterion_01_stock_retention_and_speed(criterion):
    cap = 1.0
    desc = "50000-iteration fit retains exactly 1001 draws in under 1 s"
    passed = False
    t0 = time.perf_counter()
    try:
        cfg = ChainConfig(n_samples=50_000, sub_start=25_000, sub_end=50_000,
                          sub_thin=25, seed=1)
        idx = subsample_indices(cfg)
        assert idx.size == 1001
        assert idx[0] == 25_000 and idx[-1] == 50_000

        series = make_series(NORMAL, SIM_CURVE, 0.001,
                             [100.0, 200.0, 300.0], seed=11)
        chain = run_chain(NORMAL, series, default_spec(), standard_starting(),
                          PHENO_TUNING, cfg)
        assert chain.samples.shape == (1001, 8)
        elapsed = time.perf_counter() - t0
        assert elapsed < cap
        passed = True
    finally:
        criterion(1, desc, passed, time.perf_counter() - t0, cap)


# ---------------------------------------------------------------------------
# criterion 2: the two curve branches agree at the crossover day
# ---------------------------------------------------------------------------

def test_criterion_02_branches_meet_at_crossover(criterion):
    cap = 5.0
    desc = "10^4 random curves: branch gap at the crossover day < 1e-10"
    passed = False
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(2026)
        rows = draw_support_rows(rng, 10_000)
        worst = 0.0
        for row in rows:
            p = CurveParams(*row[:7])
            d = crossover(p)
            worst = max(worst, abs(spring(d, p) - autumn(d, p)))
        assert worst < 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed < cap
        passed = True
    finally:
        criterion(2, desc, passed, time.perf_counter() - t0, cap)


# ---------------------------------------------------------------------------
# criterion 3: noise-variance draws match the closed-form conjugate posterior
# ---------------------------------------------------------------------------

def test_criterion_03_conjugate_noise_posterior(criterion):
    cap = 30.0
    desc = ("pinned-curve normal fit: sigma2 mean and variance within "
            "3 MC SE of the conjugate inverse-Gamma")
    passed = False
    t0 = time.perf_counter()
    try:
        doys = np.arange(6.0, 366.0, 12.0)  # 30 days
        assert doys.size == 30
        series = make_series(NORMAL, SIM_CURVE, 0.002, doys, seed=33)
        spec = default_spec(ig_scale=1e-3)

        # freeze the curve at the truth so sigma2 sees a fixed residual vector
        starting = ParamVector(SIM_CURVE, NoiseParam(0.003))
        tuning = TuningSpec(*([1e-15] * 7), sigma2=0.5)

        cfg = ChainConfig(n_samples=110_000, sub_start=10_001,
                          sub_end=110_000, sub_thin=5, seed=303)
        chain = run_chain(NORMAL, series, spec, starting, tuning, cfg)
        x = chain.samples[:, 7]
        assert x.size == 20_000
        # the curve block really was pinned
        assert np.max(np.abs(chain.samples[:, :7] -
                             np.asarray(SIM_CURVE.to_array()))) < 1e-9

        resid = series.values - curve_value(series.doys, SIM_CURVE)
        ss = float(np.dot(resid, resid))
        shape = 2.0 + 0.5 * series.values.size
        scale = 1e-3 + 0.5 * ss
        mean_true = scale / (shape - 1.0)
        var_true = scale**2 / ((shape - 1.0) ** 2 * (shape - 2.0))

        se_mean = batch_mean_se(x)
        assert abs(x.mean() - mean_true) < 3.0 * se_mean

        centred_sq = (x - x.mean()) ** 2
        se_var = batch_mean_se(centred_sq)
        assert abs(np.var(x, ddof=1) - var_true) < 3.0 * se_var

        elapsed = time.perf_counter() - t0
        assert elapsed < cap
        passed = True
    finally:
        criterion(3, desc, passed, time.perf_counter() - t0, cap)


# ---------------------------------------------------------------------------
# criterion 4: frequentist coverage of the 95% intervals
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_04_interval_coverage(criterion):
    cap = 600.0
    desc = ("200 Beta-noise series: 95% interval coverage of alpha1, alpha2, "
            "alpha4, alpha7 each in [88%, 99%]")
    passed = False
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(44)
        spec = default_spec(ig_scale=1e-3)
        starting = standard_starting(alpha4=120.0, alpha7=250.0, sigma2=3e-3)
        params = (("alpha1", 0), ("alpha2", 1), ("alpha4", 3), ("alpha7", 6))
        hits = {name: 0 for name, _ in params}

        for i in range(200):
            truth = interior_truth(rng)
            series = make_series(BETA, truth, 0.003, DOYS_25, seed=4000 + i)
            cfg = ChainConfig(n_samples=100_000, sub_start=50_001,
                              sub_end=100_000, sub_thin=50, seed=8800 + i)
            chain = run_chain(BETA, series, spec, starting, WIDE_TUNING, cfg)
            assert chain.samples.shape[0] == 1000
            truth_vec = truth.to_array()
            for name, j in params:
                s = summarize(chain.samples[:, j])
                hits[name] += s.q025 <= truth_vec[j] <= s.q975

        for name, _ in params:
            coverage = hits[name] / 200.0
            assert 0.88 <= coverage <= 0.99, (name, coverage)

        elapsed = time.perf_counter() - t0
        assert elapsed < cap
        passed = True
    finally:
        criterion(4, desc, passed, time.perf_counter() - t0, cap)


# ---------------------------------------------------------------------------
# shared panel of 100 single-pixel series for criteria 5 and 7
# ---------------------------------------------------------------------------

PANEL_CONFIG = ChainConfig(n_samples=20_000, sub_start=10_001,
                           sub_end=20_000, sub_thin=10, seed=0)


@pytest.fixture(scope="module")
def pixel_panel():
    """100 Beta-noise series (values inside [0.1, 0.9]) and their Beta fits."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    spec = default_spec(ig_scale=1e-3)
    starting = standard_starting(alpha4=120.0, alpha7=250.0, sigma2=2e-3)
    truths, series_list, beta_chains = [], [], []
    for i in range(100):
        for attempt in range(100):
            truth = interior_truth(rng)
            series = make_series(BETA, truth, 0.002, DOYS_25,
                                 seed=5500 + 137 * i + attempt)
            if np.all((series.values >= 0.1) & (series.values <= 0.9)):
                break
        truths.append(truth)
        series_list.append(series)
        cfg = replace(PANEL_CONFIG, seed=7700 + i)
        beta_chains.append(run_chain(BETA, series, spec, starting,
                                     FINE_TUNING, cfg))
    return {
        "truths": truths,
        "series": series_list,
        "beta_chains": beta_chains,
        "spec": spec,
        "starting": starting,
        "build_seconds": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# criterion 5: normal and Beta fits agree on the transition days
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_05_likelihoods_agree(pixel_panel, criterion):
    cap = 600.0
    desc = ("100 pixels: correlation of posterior-median alpha4 and alpha7 "
            "between normal and Beta fits > 0.99")
    passed = False
    t0 = time.perf_counter()
    try:
        med_beta = np.array([[np.median(ch.samples[:, j]) for j in (3, 6)]
                             for ch in pixel_panel["beta_chains"]])
        med_norm = np.empty_like(med_beta)
        for i, series in enumerate(pixel_panel["series"]):
            cfg = replace(PANEL_CONFIG, seed=7900 + i)
            chain = run_chain(NORMAL, series, pixel_panel["spec"],
                              pixel_panel["starting"], FINE_TUNING, cfg)
            med_norm[i] = [np.median(chain.samples[:, j]) for j in (3, 6)]

        for k in range(2):
            corr = np.corrcoef(med_beta[:, k], med_norm[:, k])[0, 1]
            assert corr > 0.99, corr

        elapsed = time.perf_counter() - t0 + pixel_panel["build_seconds"]
        assert elapsed < cap
        passed = True
    finally:
        elapsed = time.perf_counter() - t0 + pixel_panel["build_seconds"]
        criterion(5, desc, passed, elapsed, cap)


# ---------------------------------------------------------------------------
# criterion 6: closed-form day-1..365 integral against a brute-force Riemann sum
# ---------------------------------------------------------------------------

def test_criterion_06_quadrature_accuracy(criterion):
    cap = 30.0
    desc = ("100 random curves: closed-form AUC within 1e-6 relative of a "
            "10^6-cell Riemann sum; flat curve is exact")
    passed = False
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(66)
        rows = draw_support_rows(rng, 100)
        closed = functional_samples(chain_from_rows(rows), "auc",
                                    q=QuadratureConfig())
        brute = riemann_auc(rows, cells=1_000_000)
        assert np.min(np.abs(brute)) > 0.5  # relative error is well posed
        rel = np.abs(closed - brute) / np.abs(brute)
        assert np.max(rel) < 1e-6

        # zero seasonal amplitude: the curve is the constant alpha1, whose
        # day-1..365 integral must come out exactly as alpha1 * 364
        flat = np.tile([0.25, 0.0, 0.12, 120.0, 0.0, 0.10, 280.0, 1e-3],
                       (3, 1))
        auc = functional_samples(chain_from_rows(flat), "auc",
                                 q=QuadratureConfig())
        assert np.all(auc == 0.25 * 364.0)

        elapsed = time.perf_counter() - t0
        assert elapsed < cap
        passed = True
    finally:
        criterion(6, desc, passed, time.perf_counter() - t0, cap)


# ---------------------------------------------------------------------------
# criterion 7: stock proposal scales land in the acceptance-rate window
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_07_acceptance_window(pixel_panel, criterion):
    cap = 300.0
    desc = ("tight stock proposal scales: overall acceptance in "
            "[0.20, 0.50] on >= 90 of 100 pixels")
    passed = False
    t0 = time.perf_counter()
    try:
        rates = [ch.acc_overall for ch in pixel_panel["beta_chains"]]
        inside = sum(0.20 <= r <= 0.50 for r in rates)
        assert inside >= 90, (inside, min(rates), max(rates))

        elapsed = time.perf_counter() - t0 + pixel_panel["build_seconds"]
        assert elapsed < cap
        passed = True
    finally:
        elapsed = time.perf_counter() - t0 + pixel_panel["build_seconds"]
        criterion(7, desc, passed, elapsed, cap)


# ---------------------------------------------------------------------------
# criterion 8: brick fits are worker-count invariant (and scale if they can)
# ---------------------------------------------------------------------------

def test_criterion_08_brick_worker_invariance(criterion):
    cap = 900.0
    cores = os.cpu_count() or 1
    desc = ("40x40 brick: workers 1/2/4 give bit-identical per-pixel chains "
            "and grids")
    desc += ("; 2-worker speedup <= 0.6x" if cores >= 4
             else f" (speedup clause skipped: {cores}-core host)")
    passed = False
    t0 = time.perf_counter()
    try:
        doys = np.arange(30.0, 360.0, 30.0)  # 11 days
        values = np.empty((40, 40, doys.size), dtype=np.float32)
        for r in range(40):
            for c in range(40):
                series = make_series(BETA, SIM_CURVE, 0.003, doys,
                                     seed=pixel_seed(808, r, c, 40))
                values[r, c] = series.values
        brick = Brick(values=values, doys=doys)

        cfg = ChainConfig(n_samples=1500, sub_start=751, sub_end=1500,
                          sub_thin=5, seed=808)
        spec = default_spec(ig_scale=1e-3)
        results, walls = {}, {}
        for w in (1, 2, 4):
            w0 = time.perf_counter()
            results[w] = fit_brick(brick, BETA, spec, standard_starting(),
                                   PHENO_TUNING, cfg, workers=w,
                                   functionals=("alpha4", "season_length",
                                                "auc"),
                                   statistics=("median", "sd", "width95"),
                                   keep_samples=True)
            walls[w] = time.perf_counter() - w0

        assert results[1].skipped == ()
        for w in (2, 4):
            assert np.array_equal(results[1].samples, results[w].samples)
            assert np.array_equal(results[1].acceptance, results[w].acceptance)
            assert np.array_equal(results[1].n_obs, results[w].n_obs)
            assert list(results[1].grids) == list(results[w].grids)
            for key, grid in results[1].grids.items():
                assert np.array_equal(grid, results[w].grids[key]), key

        if cores >= 4:
            assert walls[2] <= 0.6 * walls[1], walls

        elapsed = time.perf_counter() - t0
        assert elapsed < cap
        passed = True
    finally:
        criterion(8, desc, passed, time.perf_counter() - t0, cap)


# ---------------------------------------------------------------------------
# criterion 9: bounded-noise densities are proper
# ---------------------------------------------------------------------------

def test_criterion_09_densities_integrate_to_one(criterion):
    cap = 10.0
    desc = ("Beta and truncated-normal densities integrate to 1 +- 1e-6 "
            "for 50 random (mean, variance) pairs each")
    passed = False
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(99)
        for _ in range(50):
            mu = rng.uniform(0.2, 0.8)
            sigma2 = 1.0 / rng.uniform(5.0, 500.0)

            def beta_dens(ys):
                return np.array([math.exp(log_density(BETA, y, mu, sigma2))
                                 for y in ys])

            assert abs(gl_integral(beta_dens, 0.0, 1.0) - 1.0) < 1e-6

        for _ in range(50):
            mu = rng.uniform(-0.2, 1.2)
            sigma2 = rng.uniform(1e-3, 0.25)

            def tn_dens(ys):
                return np.array([math.exp(log_density(TN01, y, mu, sigma2))
                                 for y in ys])

            assert abs(gl_integral(tn_dens, 0.0, 1.0) - 1.0) < 1e-6

        elapsed = time.perf_counter() - t0
        assert elapsed < cap
        passed = True
    finally:
        criterion(9, desc, passed, time.perf_counter() - t0, cap)


# ---------------------------------------------------------------------------
# criterion 10: storage round trip and long-CSV ingestion layout
# ---------------------------------------------------------------------------

def test_criterion_10_storage_and_ingest(criterion, tmp_path):
    cap = 5.0
    desc = ("brick files round-trip bit-exactly; long CSV with NA lands in "
            "the expected missing-value layout")
    passed = False
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(1010)
        values = rng.uniform(0.0, 1.0, size=(5, 7, 11)).astype(np.float32)
        values[rng.uniform(size=values.shape) < 0.2] = np.nan
        doys = np.sort(rng.uniform(1.0, 365.0, size=11))
        brick = Brick(values=values, doys=doys, georef=(1.5, -2.25, 0.125))
        path = tmp_path / "rt.lspb"
        write_brick(brick, path)
        back = read_brick(path)
        assert back.values.tobytes() == brick.values.tobytes()
        assert back.doys.tobytes() == brick.doys.tobytes()
        assert back.georef == brick.georef

        csv_path = tmp_path / "obs.csv"
        csv_path.write_text(
            "pixel,x,y,sat,year,doy,evi\n"
            "0,10,60,terra,2020,50,0.21\n"
            "1,20,60,terra,2020,50,NA\n"
            "2,10,50,aqua,2020,50,0.23\n"
            "3,20,50,terra,2020,50,0.24\n"
            "0,10,60,terra,2020,150,0.61\n"
            "2,10,50,aqua,2020,150,0.63\n"
            "3,20,50,terra,2020,150,NA\n"
        )
        got = ingest_long_csv(csv_path)
        assert got.values.shape == (2, 2, 2)
        assert list(got.doys) == [50.0, 150.0]
        # row 0 is the northernmost row (y = 60); the NA entry and the
        # absent pixel-1/day-150 cell must surface as missing values
        v = got.values
        assert v[0, 0, 0] == np.float32(0.21)
        assert np.isnan(v[0, 1, 0])
        assert v[1, 0, 0] == np.float32(0.23)
        assert v[1, 1, 0] == np.float32(0.24)
        assert v[0, 0, 1] == np.float32(0.61)
        assert np.isnan(v[0, 1, 1])
        assert v[1, 0, 1] == np.float32(0.63)
        assert np.isnan(v[1, 1, 1])
        assert got.georef == (10.0, 60.0, 10.0)  # x origin, top-row y, cell

        elapsed = time.perf_counter() - t0
        assert elapsed < cap
        passed = True
    finally:
        criterion(10, desc, passed, time.perf_counter() - t0, cap)
