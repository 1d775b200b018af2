"""Tests for the raster-brick module: format, ingestion, parallel fitting."""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    PHENO_TUNING,
    SIM_CURVE,
    default_spec,
    py_pixel_seed,
    standard_starting,
)

from lspfit import (
    Brick,
    ChainConfig,
    LikelihoodKind,
    fit_brick,
    ingest_long_csv,
    pixel_seed,
    read_brick,
    run_chain,
    simulate_series,
    summarize,
    summarize_brick,
    write_brick,
)
import lspfit.brick
from lspfit import ObservationSeries
from lspfit.brick import LOCKSTEP_MIN, grid_to_brick, write_grid_csv
from lspfit.sampler import PREDRAW_CHUNK

BETA = LikelihoodKind.beta()

# Frozen outputs of the documented 64-bit mixing function.
PIXEL_SEED_FROZEN = [
    ((0, 0, 0, 40), 16294208416658607535),
    ((42, 3, 7, 40), 7198425102519719689),
    ((2**63, 39, 39, 40), 14225242671697879753),
]


def random_brick(seed: int, rows=3, cols=4, layers=5, georef=None,
                 nan_frac=0.2) -> Brick:
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.05, 0.95, (rows, cols, layers))
    vals[rng.uniform(size=vals.shape) < nan_frac] = np.nan
    doys = np.sort(rng.uniform(1.0, 365.0, layers))
    return Brick(vals, doys, georef=georef)


def synthetic_brick(rows: int, cols: int, doys, sigma2=0.003, seed=7,
                    georef=None) -> Brick:
    vals = np.empty((rows, cols, len(doys)), dtype=np.float32)
    for r in range(rows):
        for c in range(cols):
            rng = np.random.Generator(
                np.random.Philox(key=pixel_seed(seed, r, c, cols)))
            s = simulate_series(BETA, SIM_CURVE, sigma2, doys, rng)
            vals[r, c, :] = s.values.astype(np.float32)
    return Brick(vals, np.asarray(doys, dtype=float), georef=georef)


class TestPixelSeed:
    def test_frozen_values(self):
        for (base, r, c, cols), want in PIXEL_SEED_FROZEN:
            assert pixel_seed(base, r, c, cols) == want

    def test_matches_reference_mixer(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            base = int(rng.integers(0, 2**63))
            r = int(rng.integers(0, 5000))
            c = int(rng.integers(0, 5000))
            cols = int(rng.integers(1, 5001))
            assert pixel_seed(base, r, c, cols) == py_pixel_seed(base, r, c, cols)

    def test_neighbouring_pixels_distinct(self):
        seeds = {pixel_seed(0, r, c, 100) for r in range(20) for c in range(20)}
        assert len(seeds) == 400

    def test_order_independence_of_layout(self):
        # (row, col) enters only through the flattened pixel index.
        assert pixel_seed(5, 2, 3, 10) == pixel_seed(5, 0, 23, 10)


class TestBrickType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Brick(np.zeros((2, 2)), np.array([100.0]))  # not 3-d
        with pytest.raises(ValueError):
            Brick(np.zeros((2, 2, 2)), np.array([100.0]))  # doys length
        with pytest.raises(ValueError):
            Brick(np.zeros((2, 2, 1)), np.array([367.0]))  # doy range

    def test_float32_storage(self):
        b = Brick(np.full((1, 1, 1), 0.1, dtype=np.float64), np.array([50.0]))
        assert b.values.dtype == np.float32
        assert b.values[0, 0, 0] == np.float32(0.1)


class TestLspbFormat:
    HEADER_BYTES = 4 + 2 + 12 + 1 + 24  # magic, version, dims, flag, georef

    def test_minimal_file_layout(self, tmp_path):
        b = Brick(np.full((1, 1, 1), 0.5), np.array([120.0]))
        path = tmp_path / "one.lspb"
        write_brick(b, path)
        assert os.path.getsize(path) == self.HEADER_BYTES + 8 + 4
        back = read_brick(path)
        assert back.values[0, 0, 0] == 0.5
        assert back.doys[0] == 120.0
        assert back.georef is None

    def test_round_trip_randomised(self, tmp_path):
        for i, georef in enumerate([None, (1000.0, 2000.0, 30.0)]):
            b = random_brick(i, rows=4, cols=3, layers=6, georef=georef)
            path = tmp_path / f"b{i}.lspb"
            write_brick(b, path)
            back = read_brick(path)
            assert back.values.dtype == np.float32
            assert np.array_equal(back.values, b.values, equal_nan=True)
            assert np.array_equal(back.doys, b.doys)
            assert back.georef == b.georef

    def test_all_missing_pixel_round_trips(self, tmp_path):
        vals = np.full((2, 2, 3), 0.4)
        vals[0, 1, :] = np.nan
        b = Brick(vals, np.array([50.0, 150.0, 250.0]))
        path = tmp_path / "m.lspb"
        write_brick(b, path)
        back = read_brick(path)
        assert np.all(np.isnan(back.values[0, 1]))
        assert np.array_equal(back.values, b.values, equal_nan=True)

    def test_read_errors(self, tmp_path):
        b = random_brick(3)
        path = tmp_path / "x.lspb"
        write_brick(b, path)
        raw = path.read_bytes()

        bad_magic = tmp_path / "bad_magic.lspb"
        bad_magic.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(ValueError, match="magic"):
            read_brick(bad_magic)

        bad_version = tmp_path / "bad_version.lspb"
        bad_version.write_bytes(raw[:4] + b"\x02\x00" + raw[6:])
        with pytest.raises(ValueError, match="version"):
            read_brick(bad_version)

        truncated = tmp_path / "short.lspb"
        truncated.write_bytes(raw[:-1])
        with pytest.raises(ValueError, match="truncated"):
            read_brick(truncated)

        trailing = tmp_path / "long.lspb"
        trailing.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            read_brick(trailing)


def write_csv(tmp_path, rows, header="pixel,x,y,sat,year,doy,evi"):
    path = tmp_path / "obs.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestIngest:
    def test_small_grid(self, tmp_path):
        rows = []
        val = 0.1
        for doy in (50, 150, 250):
            for x in (10, 20):
                for y in (40, 50):
                    rows.append(f"p,{x},{y},S2A,2019,{doy},{val:.2f}")
                    val += 0.01
        path = write_csv(tmp_path, rows)
        b = ingest_long_csv(path)
        assert (b.values.shape, list(b.doys)) == ((2, 2, 3), [50.0, 150.0, 250.0])
        # Row 0 is the larger y (north-up); columns ascend with x.
        assert b.values[0, 0, 0] == np.float32(0.11)  # (x=10, y=50, doy=50)
        assert b.values[1, 0, 0] == np.float32(0.10)  # (x=10, y=40)
        assert b.values[0, 1, 0] == np.float32(0.13)  # (x=20, y=50)
        # Inferred georef: x origin, y origin (max y), cell size.
        assert b.georef == (10.0, 50.0, 10.0)

    def test_na_and_parse_failures_become_missing(self, tmp_path):
        path = write_csv(tmp_path, [
            "p,10,40,S2A,2019,50,0.5",
            "p,20,40,S2A,2019,50,NA",
            "p,10,40,S2A,2019,150,bogus",
            "p,20,40,S2A,2019,150,0.7",
        ])
        b = ingest_long_csv(path)
        assert b.values.shape == (1, 2, 2)
        assert b.values[0, 0, 0] == np.float32(0.5)
        assert np.isnan(b.values[0, 1, 0])
        assert np.isnan(b.values[0, 0, 1])

    def test_missing_cells_default_missing(self, tmp_path):
        path = write_csv(tmp_path, [
            "p,10,40,S2A,2019,50,0.5",
            "p,20,40,S2A,2019,150,0.7",
        ])
        b = ingest_long_csv(path)
        assert np.isnan(b.values[0, 1, 0])
        assert np.isnan(b.values[0, 0, 1])

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path, [
            "p,10,40,S2A,2019,50,0.5",
            "p,not-a-number,40,S2A,2019,150,0.7",
        ])
        with pytest.raises(ValueError, match="line 3"):
            ingest_long_csv(path)

    def test_leap_day_is_accepted(self, tmp_path):
        path = write_csv(tmp_path, [
            "p,10,40,S2A,2020,365,0.4",
            "p,10,40,S2A,2020,366,0.45",
            "p,20,40,S2A,2020,366,0.5",
        ])
        b = ingest_long_csv(path)
        assert list(b.doys) == [365.0, 366.0]
        assert b.values[0, 0, 1] == np.float32(0.45)
        assert b.values[0, 1, 1] == np.float32(0.5)
        annual = ingest_long_csv(path, mode="annual")
        assert list(annual[2020].doys) == [365.0, 366.0]

    def test_day_past_366_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path, [
            "p,10,40,S2A,2020,366,0.5",
            "p,10,40,S2A,2020,367,0.5",
        ])
        with pytest.raises(ValueError, match="line 3"):
            ingest_long_csv(path)

    def test_short_row_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path, ["p,10,40,S2A,2019,50,0.5", "p,10"])
        with pytest.raises(ValueError, match="line 3"):
            ingest_long_csv(path)

    def test_missing_required_column(self, tmp_path):
        path = write_csv(tmp_path, ["10,40,50,0.5"], header="x,y,doy,ndvi")
        with pytest.raises(ValueError, match="evi"):
            ingest_long_csv(path)
        b = ingest_long_csv(path, value_col="ndvi")
        assert b.values[0, 0, 0] == np.float32(0.5)

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("pixel,x,y,sat,year,doy,evi\n")
        with pytest.raises(ValueError, match="no data"):
            ingest_long_csv(path)

    def test_irregular_grid_is_error(self, tmp_path):
        path = write_csv(tmp_path, [
            "p,10,40,S2A,2019,50,0.5",
            "p,20,40,S2A,2019,50,0.6",
            "p,35,40,S2A,2019,50,0.7",
        ])
        with pytest.raises(ValueError, match="lattice"):
            ingest_long_csv(path)

    def test_lattice_with_gap_column(self, tmp_path):
        # x = 10, 20, 40 is a valid lattice with an absent column at 30.
        path = write_csv(tmp_path, [
            "p,10,40,S2A,2019,50,0.5",
            "p,20,40,S2A,2019,50,0.6",
            "p,40,40,S2A,2019,50,0.7",
        ])
        b = ingest_long_csv(path)
        assert b.values.shape == (1, 4, 1)
        assert np.isnan(b.values[0, 2, 0])

    def test_pooled_same_doy_across_years(self, tmp_path):
        path = write_csv(tmp_path, [
            "p,10,40,S2A,2019,100,0.4",
            "p,10,40,S2A,2020,100,0.6",
            "p,10,40,S2A,2020,50,0.5",
        ])
        b = ingest_long_csv(path, mode="pooled")
        # Layers keyed by (year, doy): 2019/100, 2020/50, 2020/100.
        assert list(b.doys) == [100.0, 50.0, 100.0]
        assert list(b.values[0, 0, :]) == [np.float32(0.4), np.float32(0.5),
                                           np.float32(0.6)]

    def test_annual_mode_splits_years(self, tmp_path):
        path = write_csv(tmp_path, [
            "p,10,40,S2A,2019,100,0.4",
            "p,10,40,S2A,2020,100,0.6",
            "p,10,40,S2A,2020,150,0.7",
        ])
        by_year = ingest_long_csv(path, mode="annual")
        assert sorted(by_year) == [2019, 2020]
        assert by_year[2019].values.shape == (1, 1, 1)
        assert by_year[2020].values.shape == (1, 1, 2)
        assert by_year[2020].values[0, 0, 1] == np.float32(0.7)

    def test_duplicate_record_last_wins(self, tmp_path):
        path = write_csv(tmp_path, [
            "p,10,40,S2A,2019,100,0.4",
            "p,10,40,S2B,2019,100,0.9",
        ])
        b = ingest_long_csv(path)
        assert b.values[0, 0, 0] == np.float32(0.9)

    def test_clamp_eps(self, tmp_path):
        path = write_csv(tmp_path, [
            "p,10,40,S2A,2019,50,0.0",
            "p,20,40,S2A,2019,50,1.0",
        ])
        raw = ingest_long_csv(path)
        assert raw.values[0, 0, 0] == 0.0 and raw.values[0, 1, 0] == 1.0
        clamped = ingest_long_csv(path, clamp_eps=1e-6)
        assert clamped.values[0, 0, 0] == np.float32(1e-6)
        assert clamped.values[0, 1, 0] == np.float32(1.0 - 1e-6)

    def test_round_trip_through_lspb(self, tmp_path):
        path = write_csv(tmp_path, [
            f"p,{x},{y},S2A,2019,{d},0.{x}{y}"
            for x in (10, 20) for y in (40, 50) for d in (60, 180)
        ])
        b = ingest_long_csv(path)
        lspb = tmp_path / "rt.lspb"
        write_brick(b, lspb)
        back = read_brick(lspb)
        assert np.array_equal(back.values, b.values, equal_nan=True)
        assert np.array_equal(back.doys, b.doys)


DOYS = [float(d) for d in range(8, 361, 16)]


@pytest.fixture(scope="module")
def spec():
    return default_spec()


@pytest.fixture(scope="module")
def fit_inputs(spec):
    brick = synthetic_brick(2, 3, DOYS, seed=99)
    cfg = ChainConfig(1200, sub_start=601, sub_thin=4, seed=99)
    return brick, cfg


class TestFitBrick:
    def test_worker_count_invariance(self, spec, fit_inputs):
        brick, cfg = fit_inputs
        kw = dict(kind=BETA, spec=spec, starting=standard_starting(),
                  tuning=PHENO_TUNING, config=cfg)
        r1 = fit_brick(brick, workers=1, **kw)
        r2 = fit_brick(brick, workers=2, **kw)
        r5 = fit_brick(brick, workers=5, **kw)
        for other in (r2, r5):
            assert np.array_equal(np.asarray(r1.samples), np.asarray(other.samples),
                                  equal_nan=True)
            assert np.array_equal(r1.acceptance, other.acceptance, equal_nan=True)
            assert np.array_equal(r1.n_obs, other.n_obs)
            assert r1.skipped == other.skipped

    def test_single_pixel_equivalence(self, spec, fit_inputs):
        brick, cfg = fit_inputs
        r = fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING, cfg)
        row, col = 1, 2
        from lspfit import ObservationSeries

        series = ObservationSeries(brick.doys.astype(float),
                                   brick.values[row, col].astype(np.float64))
        direct = run_chain(
            BETA, series, spec, standard_starting(), PHENO_TUNING,
            replace(cfg, seed=pixel_seed(cfg.seed, row, col, brick.cols)),
        )
        assert np.array_equal(direct.samples, np.asarray(r.samples[row, col]))
        assert r.acceptance[row, col, 0] == direct.acc_overall
        assert r.acceptance[row, col, 1] == direct.acc_last_batch

    def test_mask_and_min_obs_skips(self, spec, fit_inputs):
        brick, cfg = fit_inputs
        vals = np.array(brick.values)
        vals[0, 1, :] = np.nan          # empty pixel
        vals[1, 0, 5:] = np.nan         # 5 observations < min_obs
        poked = Brick(vals, brick.doys)
        mask = np.ones((2, 3), dtype=bool)
        mask[0, 0] = False
        r = fit_brick(poked, BETA, spec, standard_starting(), PHENO_TUNING,
                      cfg, mask=mask, min_obs=9)
        fitted = r.fitted_mask()
        assert not fitted[0, 0]          # masked out
        assert not fitted[0, 1] and not fitted[1, 0]
        assert fitted[0, 2] and fitted[1, 1] and fitted[1, 2]
        skipped = {(s[0], s[1]): s[2] for s in r.skipped}
        assert set(skipped) == {(0, 1), (1, 0)}
        assert "9" in skipped[(1, 0)]    # reason mentions the threshold
        assert np.all(np.isnan(np.asarray(r.samples)[0, 0]))
        assert np.isnan(r.acceptance[0, 0, 0])
        assert r.n_obs[1, 0] == 5 and r.n_obs[0, 2] == len(DOYS)
        assert r.chain_at(0, 0) is None

    def test_fully_masked(self, spec, fit_inputs):
        brick, cfg = fit_inputs
        mask = np.zeros((2, 3), dtype=bool)
        r = fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING,
                      cfg, mask=mask)
        assert not r.fitted_mask().any()
        assert np.all(np.isnan(r.acceptance))

    def test_mask_shape_mismatch(self, spec, fit_inputs):
        brick, cfg = fit_inputs
        with pytest.raises(ValueError, match="mask"):
            fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING,
                      cfg, mask=np.ones((3, 2), dtype=bool))

    def test_missing_layers_leave_pixel_unchanged(self, spec, fit_inputs):
        brick, cfg = fit_inputs
        r0 = fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING, cfg)
        vals = np.concatenate(
            [np.array(brick.values), np.full((2, 3, 2), np.nan, np.float32)],
            axis=2,
        )
        doys = np.concatenate([brick.doys, [5.0, 6.0]])
        r1 = fit_brick(Brick(vals, doys), BETA, spec, standard_starting(),
                       PHENO_TUNING, cfg)
        assert np.array_equal(np.asarray(r0.samples), np.asarray(r1.samples),
                              equal_nan=True)

    def test_memmap_spill_matches_in_memory(self, spec, fit_inputs):
        brick, cfg = fit_inputs
        kw = dict(kind=BETA, spec=spec, starting=standard_starting(),
                  tuning=PHENO_TUNING, config=cfg)
        in_mem = fit_brick(brick, **kw)
        spilled = fit_brick(brick, mem_budget_mb=1e-4, **kw)
        assert isinstance(spilled.samples, np.memmap)
        assert not isinstance(in_mem.samples, np.memmap)
        assert np.array_equal(np.asarray(in_mem.samples),
                              np.asarray(spilled.samples), equal_nan=True)

    def test_per_pixel_error_logged_not_raised(self, spec, fit_inputs):
        # A pixel whose observations sit outside (0, 1) gives the Beta
        # chain a -inf starting likelihood... values equal to 1.0 are
        # representable; the starting point is still in support, so fitting
        # proceeds. Instead make the failure structural: all-NaN rows are
        # already covered, so use a value of exactly 1.0 with clamp off and
        # check the fit simply runs (log-density -inf is a rejection, not
        # an error). The skipped log stays empty.
        brick, cfg = fit_inputs
        vals = np.array(brick.values)
        vals[0, 0, 0] = 1.0
        r = fit_brick(Brick(vals, brick.doys), BETA, spec, standard_starting(),
                      PHENO_TUNING, cfg)
        assert r.fitted_mask()[0, 0]
        assert r.skipped == ()


def lockstep_brick() -> Brick:
    """A 4x5 brick over DOYS with one count group of LOCKSTEP_MIN + 2 pixels
    with every day, one of LOCKSTEP_MIN + 1 pixels with 15 days that differ
    from pixel to pixel, one of LOCKSTEP_MIN - 1 pixels with 9 days, and
    single pixels with 10 to 22 days. Pixel (0, 1) has a value of exactly
    1.0 and pixel (0, 2) one of 1.2."""
    rng = np.random.default_rng(41)
    vals = np.array(synthetic_brick(4, 5, DOYS, seed=41).values)
    sizes = [LOCKSTEP_MIN + 2, LOCKSTEP_MIN + 1, LOCKSTEP_MIN - 1]
    counts = [23] * sizes[0] + [15] * sizes[1] + [9] * sizes[2]
    counts += [10, 12, 14, 16, 18, 20, 21, 22][:20 - len(counts)]
    assert len(counts) == 20
    for i, k in enumerate(counts):
        r, c = divmod(i, 5)
        drop = rng.choice(len(DOYS), len(DOYS) - k, replace=False)
        vals[r, c, drop] = np.nan
    vals[0, 1, 3] = 1.0
    vals[0, 2, 4] = 1.2
    return Brick(vals, DOYS)


class TestLockstep:
    # rows whose log-target is -inf before and after a step reject quietly
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", [
        LikelihoodKind.normal(), LikelihoodKind.truncated_normal(0.0, 1.0),
        BETA], ids=lambda k: k.kind)
    def test_every_pixel_equals_run_chain(self, spec, kind, monkeypatch):
        brick = lockstep_brick()
        n = PREDRAW_CHUNK + 37  # crosses a pre-draw chunk boundary
        cfg = ChainConfig(n, sub_start=n // 2, sub_thin=3, seed=17,
                          batch_len=50)
        lockstep_calls = []

        def counted(*args):  # counts lockstep calls that return
            out = run_lockstep(*args)
            lockstep_calls.append(len(args[-1]))
            return out
        run_lockstep = lspfit.brick.run_lockstep
        monkeypatch.setattr(lspfit.brick, "run_lockstep", counted)
        results = [fit_brick(brick, kind, spec, standard_starting(),
                             PHENO_TUNING, cfg, workers=w) for w in (1, 2)]
        # the two groups at or above the crossover ran in lockstep, with no
        # fallback to run_chain
        assert sorted(lockstep_calls) == [LOCKSTEP_MIN + 1, LOCKSTEP_MIN + 2]

        for row in range(brick.rows):
            for col in range(brick.cols):
                keep = np.isfinite(brick.values[row, col])
                series = ObservationSeries(
                    brick.doys[keep],
                    brick.values[row, col, keep].astype(np.float64))
                direct = run_chain(kind, series, spec, standard_starting(),
                                   PHENO_TUNING,
                                   replace(cfg, seed=pixel_seed(
                                       cfg.seed, row, col, brick.cols)))
                for r in results:
                    assert np.array_equal(r.samples[row, col], direct.samples)
                    assert r.acceptance[row, col, 0] == direct.acc_overall
                    assert r.acceptance[row, col, 1] == direct.acc_last_batch
        for r in results:
            assert r.skipped == ()
        if kind.kind != "normal":  # the data the model cannot produce
            assert results[0].acceptance[0, 2, 0] == 0.0
        if kind is BETA:
            assert results[0].acceptance[0, 1, 0] == 0.0

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched block function reaches pool "
                               "workers only through fork")
    def test_dead_worker_is_logged_not_raised(self, spec, fit_inputs,
                                              monkeypatch):
        brick, cfg = fit_inputs
        vals = np.array(synthetic_brick(2, LOCKSTEP_MIN, DOYS, seed=3).values)
        vals[1, :, 0] = np.nan  # two count groups: two blocks
        brick = Brick(vals, DOYS)
        kw = dict(kind=BETA, spec=spec, starting=standard_starting(),
                  tuning=PHENO_TUNING, config=cfg)
        serial = fit_brick(brick, **kw)
        fit_block = lspfit.brick._fit_block

        def dying(task, ctx):
            if (0, 0) in task[0]:
                os._exit(1)
            return fit_block(task, ctx)
        monkeypatch.setattr(lspfit.brick, "_fit_block", dying)
        r = fit_brick(brick, workers=2, **kw)

        skipped = {(s[0], s[1]): s[2] for s in r.skipped}
        assert {(0, c) for c in range(LOCKSTEP_MIN)} <= set(skipped)
        assert all("BrokenProcessPool" in why for why in skipped.values())
        fitted = r.fitted_mask()
        assert set(zip(*np.nonzero(~fitted))) == set(skipped)
        assert np.array_equal(np.asarray(r.samples)[fitted],
                              np.asarray(serial.samples)[fitted])
        assert np.array_equal(r.acceptance[fitted], serial.acceptance[fitted])


@pytest.fixture(scope="module")
def result(spec):
    brick = synthetic_brick(2, 2, DOYS, seed=5, georef=(500.0, 800.0, 10.0))
    cfg = ChainConfig(1500, sub_start=751, sub_thin=4, seed=5)
    return fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING, cfg)


class TestSummarizeBrick:
    def test_matches_per_pixel_loop(self, result):
        from lspfit import functional_samples

        for functional in ("alpha4", "season_length", "auc"):
            grids = {st: summarize_brick(result, functional, st)
                     for st in ("mean", "sd", "median", "q025", "q975",
                                "width95")}
            for r in range(2):
                for c in range(2):
                    vec = functional_samples(result.chain_at(r, c), functional)
                    s = summarize(vec)
                    assert grids["width95"][r, c] == s.q975 - s.q025
                    for st in ("mean", "sd", "median", "q025", "q975"):
                        assert grids[st][r, c] == getattr(s, st), st

    def test_unknown_names(self, result):
        with pytest.raises(ValueError, match="functional"):
            summarize_brick(result, "verdancy", "median")
        with pytest.raises(ValueError, match="statistic"):
            summarize_brick(result, "alpha1", "mode")

    def test_constant_chains_give_zero_sd(self, result):
        from lspfit.brick import BrickFitResult

        samples = np.asarray(result.samples).copy()
        samples[:] = samples[:, :, :1, :]  # every retained draw identical
        const = BrickFitResult(samples=samples, acceptance=result.acceptance,
                               n_obs=result.n_obs, skipped=(), georef=None)
        sd = summarize_brick(const, "alpha1", "sd")
        assert np.all(sd == 0.0)
        auc_med = summarize_brick(const, "auc", "median")
        assert np.all(np.isfinite(auc_med))

    def test_constant_curve_auc_identity(self, result):
        from lspfit.brick import BrickFitResult

        samples = np.asarray(result.samples).copy()
        samples[..., 0] = 0.25
        samples[..., 1] = 0.0
        samples[..., 4] = 0.0
        const = BrickFitResult(samples=samples, acceptance=result.acceptance,
                               n_obs=result.n_obs, skipped=(), georef=None)
        auc = summarize_brick(const, "auc", "median")
        assert np.all(auc == 0.25 * 364.0)

    def test_unfitted_pixels_are_missing(self, spec):
        brick = synthetic_brick(1, 2, DOYS, seed=6)
        mask = np.array([[True, False]])
        cfg = ChainConfig(800, sub_start=401, sub_thin=4, seed=6)
        r = fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING,
                      cfg, mask=mask)
        grid = summarize_brick(r, "alpha1", "median")
        assert np.isfinite(grid[0, 0])
        assert np.isnan(grid[0, 1])


class TestGridExport:
    def test_grid_csv_and_lspb(self, tmp_path):
        grid = np.array([[1.5, np.nan], [2.5, 3.5]])
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path, georef=(100.0, 200.0, 10.0))
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,x,y,value"
        assert lines[1].split(",") == ["0", "0", "100", "200", "1.5"]
        assert lines[2].split(",")[-1] == "NA"
        assert lines[3].split(",")[:4] == ["1", "0", "100", "190"]

        b = grid_to_brick(grid, georef=(100.0, 200.0, 10.0))
        assert b.values.shape == (2, 2, 1)
        assert np.isnan(b.values[0, 1, 0])
        assert b.georef == (100.0, 200.0, 10.0)
