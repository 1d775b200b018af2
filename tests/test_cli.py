"""End-to-end tests for the command-line interface.

Most tests drive the argparse entry point in-process (``lspfit.cli.main``)
so exit codes, emitted files, and sidecar metadata can be checked cheaply;
two tests exercise the installed console script and ``python -m`` forms.
"""

import csv
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from helpers import (
    PHENO_TUNING,
    chain_from_rows,
    draw_support_rows,
    py_curve_value,
    standard_starting,
)
from lspfit.brick import Brick, fit_brick, pixel_seed, read_brick, write_brick
from lspfit.cli import main
from lspfit.posterior import QuadratureConfig, functional_samples, summarize
from lspfit.sampler import ChainConfig, read_chain_csv, write_chain_csv

CURVE_ARG = "0.2,0.55,0.12,120,0.0004,0.1,280"
CURVE = (0.2, 0.55, 0.12, 120.0, 0.0004, 0.10, 280.0)


def run_cli(argv):
    return main([str(a) for a in argv])


def read_summary(path):
    """Parse a quantity,mean,sd,median,q025,q975 CSV into a dict of dicts."""
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            name = row.pop("quantity")
            out[name] = {k: float(v) for k, v in row.items()}
    return out


def read_samples(path):
    with open(path) as fh:
        header = fh.readline().strip()
        values = [float(line) for line in fh if line.strip()]
    return header, np.asarray(values)


def read_grid_csv(path):
    """Parse a row,col,x,y,value grid CSV into a dense array (NaN for NA)."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            val = math.nan if rec["value"] == "NA" else float(rec["value"])
            rows.append((int(rec["row"]), int(rec["col"]), val))
    nrow = max(r for r, _, _ in rows) + 1
    ncol = max(c for _, c, _ in rows) + 1
    grid = np.full((nrow, ncol), np.nan)
    for r, c, v in rows:
        grid[r, c] = v
    return grid


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A simulated Beta series and a short fit of it, shared by read-only tests."""
    d = tmp_path_factory.mktemp("cli")
    rc = run_cli(["simulate", "--out", d / "sim", "--curve", CURVE_ARG,
                  "--sigma2", "0.003", "--doys", "8:360:16", "--seed", "7",
                  "--likelihood", "beta"])
    assert rc == 0
    rc = run_cli(["fit", "--input", d / "sim.csv", "--out", d / "fit",
                  "--ig", "2,0.001", "--n-samples", "4000", "--sub-start", "2001",
                  "--sub-thin", "4", "--seed", "11"])
    assert rc == 0
    return d


class TestSimulate:
    def test_output_files_and_truth_sidecar(self, workdir):
        assert (workdir / "sim.csv").exists()
        header = (workdir / "sim.csv").read_text().splitlines()[0]
        assert header == "pixel,x,y,doy,evi"

        truth = json.loads((workdir / "sim_truth.json").read_text())
        assert truth["curve"]["alpha4"] == 120.0
        assert truth["sigma2"] == 0.003
        assert truth["likelihood"] == "beta"
        assert truth["doys"] == [float(t) for t in range(8, 361, 16)]

        meta = json.loads((workdir / "sim_meta.json").read_text())
        assert meta["command"] == "simulate"
        assert meta["seed"] == 7

    def test_same_seed_same_bytes(self, tmp_path):
        for name, seed in [("a", 3), ("b", 3), ("c", 4)]:
            rc = run_cli(["simulate", "--out", tmp_path / name, "--curve", CURVE_ARG,
                          "--sigma2", "0.002", "--doys", "10:360:20", "--seed", seed])
            assert rc == 0
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        c = (tmp_path / "c.csv").read_bytes()
        assert a == b
        assert a != c

    def test_noiseless_limit_recovers_curve(self, tmp_path):
        rc = run_cli(["simulate", "--out", tmp_path / "nl", "--curve", CURVE_ARG,
                      "--sigma2", "1e-12", "--likelihood", "normal",
                      "--doys", "1:365:8", "--seed", "2"])
        assert rc == 0
        data = np.loadtxt(tmp_path / "nl.csv", delimiter=",", skiprows=1)
        for _, _, _, doy, value in data:
            # values pass through float32 storage, so allow single-precision slack
            assert abs(value - py_curve_value(doy, *CURVE)) < 1e-5

    def test_beta_noise_has_correct_mean(self, tmp_path):
        # 10^4 independent draws of the same day: the sample mean must sit
        # within 4 standard errors of the curve value.
        rc = run_cli(["simulate", "--out", tmp_path / "mc", "--curve", CURVE_ARG,
                      "--sigma2", "0.003", "--likelihood", "beta",
                      "--doys", "180", "--grid", "100,100", "--seed", "12"])
        assert rc == 0
        data = np.loadtxt(tmp_path / "mc.csv", delimiter=",", skiprows=1)
        values = data[:, 4]
        assert values.shape == (10_000,)
        mu = py_curve_value(180.0, *CURVE)
        var = mu * (1.0 - mu) / (1.0 + 1.0 / 0.003)
        se = math.sqrt(var / values.size)
        assert abs(values.mean() - mu) < 4 * se

    def test_grid_brick_matches_csv(self, tmp_path):
        rc = run_cli(["simulate", "--out", tmp_path / "g", "--curve", CURVE_ARG,
                      "--sigma2", "0.004", "--doys", "50,150,250",
                      "--grid", "2,3", "--georef", "10,50,10", "--seed", "5"])
        assert rc == 0
        brick = read_brick(tmp_path / "g.lspb")
        assert brick.values.shape == (2, 3, 3)
        assert brick.georef == (10.0, 50.0, 10.0)
        assert list(brick.doys) == [50.0, 150.0, 250.0]

        data = np.loadtxt(tmp_path / "g.csv", delimiter=",", skiprows=1)
        assert data.shape == (18, 5)
        for pix, _, _, doy, value in data:
            r, c = divmod(int(pix), 3)
            k = [50.0, 150.0, 250.0].index(doy)
            assert brick.values[r, c, k] == np.float32(value)


class TestConfigAndMeta:
    def test_config_file_with_flag_override(self, tmp_path, workdir):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "# comment line\n"
            "n-samples = 400\n"
            "seed = 9\n"
            "likelihood = normal\n"
            "\n"
            "sub_start = 201\n"
        )
        rc = run_cli(["fit", "--config", cfg, "--input", workdir / "sim.csv",
                      "--out", tmp_path / "fc", "--ig", "2,0.001",
                      "--n-samples", "600"])
        assert rc == 0
        meta = json.loads((tmp_path / "fc_meta.json").read_text())
        # the explicit flag beats the file; file values beat built-in defaults
        assert meta["config"]["n_samples"] == 600
        assert meta["config"]["sub_start"] == 201
        assert meta["config"]["likelihood"] == "normal"
        assert meta["seed"] == 9

    @pytest.mark.parametrize("line, key", [("n-sampels = 5", "n-sampels"),
                                           ("panels = 10", "panels"),
                                           ("prior_alpha1 = 0,1", None)])
    def test_unknown_config_key_exits_2(self, tmp_path, workdir, capsys,
                                        line, key):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"seed = 3\n{line}\n")
        rc = run_cli(["fit-brick", "--config", cfg, "--input",
                      workdir / "sim.csv", "--out", tmp_path / "o",
                      "--ig", "2,0.001", "--n-samples", "100",
                      "--sub-start", "51", "--min-obs", "5"])
        err = capsys.readouterr().err
        if key is None:  # a keyed prefix of fit-brick is a known key
            assert rc == 0
            return
        assert rc == 2
        assert f"{cfg}:2: unknown config key {key!r}" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_config_key_of_another_command_exits_2(self, tmp_path, workdir,
                                                   capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("workers = 2\n")  # a fit-brick option, not a fit one
        rc = run_cli(["fit", "--config", cfg, "--input", workdir / "sim.csv",
                      "--out", tmp_path / "fc", "--ig", "2,0.001",
                      "--n-samples", "100"])
        assert rc == 2
        assert "unknown config key 'workers'" in capsys.readouterr().err

    def test_fit_meta_fields(self, workdir):
        meta = json.loads((workdir / "fit_meta.json").read_text())
        assert meta["command"] == "fit"
        assert meta["seed"] == 11
        assert meta["generator"] == "philox4x64"
        assert meta["retained"] == 500
        assert 0.0 < meta["acceptance"]["overall"] <= 1.0
        assert meta["numerics"]["chain_csv_digits"] == 17
        assert meta["numerics"]["tuning_scale"] == "sd"
        assert "quantile_convention" in meta["numerics"]
        assert "sigma2_proposal" in meta["numerics"]
        assert meta["config"]["n_samples"] == 4000
        assert "format_version" in meta

    def test_unknown_start_key_exits_2(self, workdir, tmp_path, capsys):
        rc = run_cli(["fit", "--input", workdir / "sim.csv", "--out", tmp_path / "x",
                      "--ig", "2,0.001", "--start", "bogus=1", "--n-samples", "50"])
        assert rc == 2
        assert "unknown start key" in capsys.readouterr().err

    def test_start_outside_support_exits_2(self, workdir, tmp_path, capsys):
        rc = run_cli(["fit", "--input", workdir / "sim.csv", "--out", tmp_path / "x",
                      "--ig", "2,0.001", "--start", "alpha4=250",
                      "--start", "alpha7=200", "--n-samples", "50"])
        assert rc == 2
        assert "starting values" in capsys.readouterr().err

    def test_missing_ig_scale_exits_2(self, workdir, tmp_path, capsys):
        rc = run_cli(["fit", "--input", workdir / "sim.csv",
                      "--out", tmp_path / "x", "--n-samples", "50"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestFit:
    def test_default_retention_bookkeeping(self, workdir, tmp_path):
        # the stock settings (50000 iterations, retain from 25000, stride 25)
        # must leave exactly 1001 rows in the chain CSV
        rc = run_cli(["fit", "--input", workdir / "sim.csv", "--out", tmp_path / "d",
                      "--ig", "2,0.001", "--seed", "1"])
        assert rc == 0
        lines = (tmp_path / "d_chain.csv").read_text().splitlines()
        assert len(lines) == 1 + 1001
        meta = json.loads((tmp_path / "d_meta.json").read_text())
        assert meta["retained"] == 1001

    def test_summary_file_matches_chain(self, workdir):
        chain = read_chain_csv(workdir / "fit_chain.csv")
        summary = read_summary(workdir / "fit_summary.csv")
        names = ["alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6",
                 "alpha7", "sigma2"]
        assert list(summary) == names
        for j, name in enumerate(names):
            direct = summarize(chain.samples[:, j])
            assert summary[name]["mean"] == direct.mean
            assert summary[name]["sd"] == direct.sd
            assert summary[name]["median"] == direct.median
            assert summary[name]["q025"] == direct.q025
            assert summary[name]["q975"] == direct.q975

    def test_progress_goes_to_stderr(self, workdir, tmp_path, capsys):
        rc = run_cli(["fit", "--input", workdir / "sim.csv", "--out", tmp_path / "p",
                      "--ig", "2,0.001", "--n-samples", "300", "--sub-start", "151"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "fitting 23 observations" in captured.err
        assert "acceptance: overall" in captured.err
        assert captured.out == ""

    def test_pixel_selector(self, tmp_path):
        rc = run_cli(["simulate", "--out", tmp_path / "g", "--curve", CURVE_ARG,
                      "--sigma2", "0.003", "--doys", "10:360:10",
                      "--grid", "2,2", "--seed", "8"])
        assert rc == 0
        rc = run_cli(["fit", "--input", tmp_path / "g.csv", "--pixel", "3",
                      "--out", tmp_path / "p3", "--ig", "2,0.001",
                      "--n-samples", "400", "--sub-start", "201"])
        assert rc == 0
        assert (tmp_path / "p3_chain.csv").exists()


class TestSummarize:
    def test_stdout_matches_fit_summary_file(self, workdir, capsys):
        rc = run_cli(["summarize", "--chain", workdir / "fit_chain.csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == (workdir / "fit_summary.csv").read_text()

    def test_appended_functionals(self, workdir, capsys, tmp_path):
        rc = run_cli(["summarize", "--chain", workdir / "fit_chain.csv",
                      "--functionals", "season_length,auc"])
        assert rc == 0
        out = capsys.readouterr().out
        path = tmp_path / "s.csv"
        path.write_text(out)
        summary = read_summary(path)
        assert list(summary)[-2:] == ["season_length", "auc"]

        chain = read_chain_csv(workdir / "fit_chain.csv")
        sl = summarize(functional_samples(chain, "season_length"))
        auc = summarize(functional_samples(chain, "auc", q=QuadratureConfig()))
        assert summary["season_length"]["mean"] == sl.mean
        assert summary["season_length"]["median"] == sl.median
        assert summary["auc"]["mean"] == auc.mean
        assert summary["auc"]["sd"] == auc.sd


@pytest.fixture(scope="module")
def const_chain(tmp_path_factory):
    """A chain whose rows are all identical: every functional is a constant.

    The curve has zero seasonal amplitude, so its value is alpha1 = 0.25
    everywhere, the day-1..365 integral is exactly 0.25 * 364, and the
    season bounds are the alpha4/alpha7 values themselves.
    """
    d = tmp_path_factory.mktemp("const")
    row = np.array([0.25, 0.0, 0.12, 120.0, 0.0, 0.10, 280.0, 0.01])
    rows = np.tile(row, (40, 1))
    write_chain_csv(chain_from_rows(rows), d / "chain.csv")
    return d / "chain.csv"


class TestDerive:
    def test_constant_chain_summary_values(self, const_chain, tmp_path):
        rc = run_cli(["derive", "--chain", const_chain, "--out", tmp_path / "c",
                      "--functionals", "season_length,curve_max,auc,delta,fitted",
                      "--at", "180"])
        assert rc == 0
        summary = read_summary(tmp_path / "c_derived_summary.csv")
        assert summary["season_length"]["mean"] == 160.0
        assert summary["season_length"]["sd"] == 0.0
        assert summary["curve_max"]["median"] == 0.25
        assert summary["auc"]["mean"] == 0.25 * 364.0
        assert summary["fitted@180"]["mean"] == 0.25
        expected_delta = (0.12 * 120.0 + 0.10 * 280.0) / 0.22
        assert abs(summary["delta"]["median"] - expected_delta) < 1e-12

    def test_default_functionals(self, const_chain, tmp_path):
        rc = run_cli(["derive", "--chain", const_chain, "--out", tmp_path / "d"])
        assert rc == 0
        summary = read_summary(tmp_path / "d_derived_summary.csv")
        assert list(summary) == ["season_length", "curve_max", "auc", "delta"]

    def test_samples_files(self, const_chain, tmp_path):
        rc = run_cli(["derive", "--chain", const_chain, "--out", tmp_path / "s",
                      "--functionals", "season_length,fitted", "--at", "180",
                      "--samples"])
        assert rc == 0
        header, values = read_samples(tmp_path / "s_season_length_samples.csv")
        assert header == "season_length"
        assert values.shape == (40,)
        assert np.all(values == 160.0)
        header, values = read_samples(tmp_path / "s_fitted_180_samples.csv")
        assert header == "fitted@180"
        assert np.all(values == 0.25)

    def test_samples_match_library_output(self, tmp_path):
        rng = np.random.default_rng(77)
        rows = draw_support_rows(rng, 20)
        write_chain_csv(chain_from_rows(rows), tmp_path / "chain.csv")
        rc = run_cli(["derive", "--chain", tmp_path / "chain.csv",
                      "--out", tmp_path / "r", "--functionals", "auc,season_length",
                      "--samples"])
        assert rc == 0
        chain = read_chain_csv(tmp_path / "chain.csv")
        _, auc = read_samples(tmp_path / "r_auc_samples.csv")
        expected = functional_samples(chain, "auc", q=QuadratureConfig())
        assert np.array_equal(auc, expected)
        _, sl = read_samples(tmp_path / "r_season_length_samples.csv")
        assert np.array_equal(sl, functional_samples(chain, "season_length"))

    def test_fitted_requires_at(self, const_chain, tmp_path, capsys):
        rc = run_cli(["derive", "--chain", const_chain, "--out", tmp_path / "x",
                      "--functionals", "fitted"])
        assert rc == 2
        assert "--at" in capsys.readouterr().err

    def test_unknown_functional_exits_2(self, const_chain, tmp_path, capsys):
        rc = run_cli(["derive", "--chain", const_chain, "--out", tmp_path / "x",
                      "--functionals", "greenness"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_chain_exits_2(self, tmp_path, capsys):
        rc = run_cli(["derive", "--chain", tmp_path / "nope.csv",
                      "--out", tmp_path / "x"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_predictive_draws(self, const_chain, tmp_path):
        for name, seed in [("a", 5), ("b", 5), ("c", 6)]:
            rc = run_cli(["derive", "--chain", const_chain, "--out", tmp_path / name,
                          "--functionals", "predictive", "--at", "120",
                          "--likelihood", "tnormal", "--seed", seed, "--samples"])
            assert rc == 0
        a = (tmp_path / "a_predictive_120_samples.csv").read_bytes()
        b = (tmp_path / "b_predictive_120_samples.csv").read_bytes()
        c = (tmp_path / "c_predictive_120_samples.csv").read_bytes()
        assert a == b
        assert a != c
        header, values = read_samples(tmp_path / "a_predictive_120_samples.csv")
        assert header == "predictive@120"
        # truncated-normal noise around 0.25 stays inside the unit interval
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert values.std() > 0.0


@pytest.fixture(scope="module")
def sim_brick(tmp_path_factory):
    d = tmp_path_factory.mktemp("brick")
    rc = run_cli(["simulate", "--out", d / "g", "--curve", CURVE_ARG,
                  "--sigma2", "0.003", "--doys", "30:360:30",
                  "--grid", "2,3", "--georef", "10,50,10", "--seed", "3"])
    assert rc == 0
    return d / "g.lspb"


class TestFitBrick:
    def test_worker_count_does_not_change_results(self, sim_brick, tmp_path):
        args = ["fit-brick", "--input", sim_brick, "--ig", "2,0.001",
                "--n-samples", "400", "--sub-start", "201", "--sub-thin", "2",
                "--min-obs", "5", "--functionals", "alpha4,alpha7",
                "--statistics", "median"]
        rc = run_cli(args + ["--out", tmp_path / "w1", "--workers", "1"])
        assert rc == 0
        rc = run_cli(args + ["--out", tmp_path / "w4", "--workers", "4"])
        assert rc == 0
        for name in ["alpha4_median.csv", "alpha7_median.csv",
                     "acceptance_overall.csv", "skipped.csv"]:
            assert (tmp_path / f"w1_{name}").read_bytes() == \
                (tmp_path / f"w4_{name}").read_bytes()
        grid = read_grid_csv(tmp_path / "w1_alpha4_median.csv")
        assert grid.shape == (2, 3)
        assert np.all(np.isfinite(grid))
        assert np.all((grid > 1.0) & (grid < 365.0))

    def test_masked_pixel_left_unfitted(self, tmp_path):
        values = np.full((1, 2, 10), 0.5, dtype=np.float32)
        doys = np.linspace(20.0, 340.0, 10)
        write_brick(Brick(values=values, doys=doys), tmp_path / "b.lspb")
        mask = Brick(values=np.array([[[1.0], [0.0]]], dtype=np.float32),
                     doys=np.array([1.0]))
        write_brick(mask, tmp_path / "m.lspb")
        rc = run_cli(["fit-brick", "--input", tmp_path / "b.lspb",
                      "--mask", tmp_path / "m.lspb", "--out", tmp_path / "o",
                      "--ig", "2,0.001", "--n-samples", "100", "--sub-start", "51",
                      "--functionals", "alpha1", "--statistics", "median"])
        assert rc == 0
        grid = read_grid_csv(tmp_path / "o_alpha1_median.csv")
        assert np.isfinite(grid[0, 0])
        assert np.isnan(grid[0, 1])
        # a masked-out pixel is excluded up front, not reported as skipped
        assert (tmp_path / "o_skipped.csv").read_text().strip() == "row,col,reason"

    def test_sparse_pixel_skipped_with_reason(self, tmp_path, capsys):
        values = np.full((1, 1, 3), 0.5, dtype=np.float32)
        write_brick(Brick(values=values, doys=np.array([50.0, 150.0, 250.0])),
                    tmp_path / "b.lspb")
        rc = run_cli(["fit-brick", "--input", tmp_path / "b.lspb",
                      "--out", tmp_path / "o", "--ig", "2,0.001",
                      "--n-samples", "100", "--sub-start", "51",
                      "--functionals", "alpha1", "--statistics", "median"])
        assert rc == 0
        assert "skipped 1" in capsys.readouterr().err
        lines = (tmp_path / "o_skipped.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,0,")
        assert "9" in lines[1]
        grid = read_grid_csv(tmp_path / "o_alpha1_median.csv")
        assert np.isnan(grid[0, 0])

    def test_sd_with_one_retained_draw_exits_2_before_fitting(
            self, sim_brick, tmp_path, capsys):
        rc = run_cli(["fit-brick", "--input", sim_brick, "--out", tmp_path / "o",
                      "--ig", "2,0.001", "--n-samples", "200",
                      "--sub-start", "200", "--sub-thin", "1", "--min-obs", "5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sd needs at least 2 retained draws" in err
        assert "fitting brick" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("names, message", [
        (["--functionals", "alpha4,verdancy", "--statistics", "median"],
         "unknown functional 'verdancy'"),
        (["--functionals", "alpha4", "--statistics", "median,mode"],
         "unknown statistic 'mode'"),
    ])
    def test_unknown_summary_name_exits_2_before_fitting(
            self, sim_brick, tmp_path, capsys, names, message):
        rc = run_cli(["fit-brick", "--input", sim_brick, "--out", tmp_path / "o",
                      "--ig", "2,0.001", "--n-samples", "100",
                      "--sub-start", "51", "--min-obs", "5", *names])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "fitting brick" not in err
        assert list(tmp_path.iterdir()) == []

    def test_skipped_reason_round_trips_through_csv(self, sim_brick, tmp_path,
                                                    monkeypatch):
        import dataclasses

        import lspfit.cli as cli

        reason = 'bad value "1,5", then, a quote"'

        def fit_with_reason(*args, **kwargs):
            result = fit_brick(*args, **kwargs)
            return dataclasses.replace(result, skipped=((1, 2, reason),))

        monkeypatch.setattr(cli, "fit_brick", fit_with_reason)
        rc = run_cli(["fit-brick", "--input", sim_brick, "--out", tmp_path / "o",
                      "--ig", "2,0.001", "--n-samples", "100",
                      "--sub-start", "51", "--min-obs", "5",
                      "--functionals", "alpha1", "--statistics", "median"])
        assert rc == 0
        with open(tmp_path / "o_skipped.csv", newline="") as fh:
            records = list(csv.reader(fh))
        assert records == [["row", "col", "reason"], ["1", "2", reason]]

    def test_fully_masked_warns_and_exits_zero(self, tmp_path, capsys):
        values = np.full((1, 2, 10), 0.5, dtype=np.float32)
        doys = np.linspace(20.0, 340.0, 10)
        write_brick(Brick(values=values, doys=doys), tmp_path / "b.lspb")
        mask = Brick(values=np.zeros((1, 2, 1), dtype=np.float32),
                     doys=np.array([1.0]))
        write_brick(mask, tmp_path / "m.lspb")
        rc = run_cli(["fit-brick", "--input", tmp_path / "b.lspb",
                      "--mask", tmp_path / "m.lspb", "--out", tmp_path / "o",
                      "--ig", "2,0.001", "--n-samples", "100", "--sub-start", "51"])
        assert rc == 0
        assert "fitted 0 pixel(s)" in capsys.readouterr().err

    def test_annual_mode_tags_outputs_by_year(self, tmp_path):
        rng = np.random.default_rng(21)
        lines = ["pixel,x,y,sat,year,doy,evi"]
        for year in (2019, 2020):
            for doy in range(20, 340, 25):
                value = py_curve_value(float(doy), *CURVE) + rng.normal(0, 0.01)
                lines.append(f"0,5,5,terra,{year},{doy},{value:.6f}")
        (tmp_path / "obs.csv").write_text("\n".join(lines) + "\n")
        rc = run_cli(["fit-brick", "--input", tmp_path / "obs.csv", "--annual",
                      "--out", tmp_path / "a", "--ig", "2,0.001",
                      "--n-samples", "200", "--sub-start", "101", "--min-obs", "5",
                      "--likelihood", "normal", "--functionals", "alpha4",
                      "--statistics", "median"])
        assert rc == 0
        for year in (2019, 2020):
            grid = read_grid_csv(tmp_path / f"a_y{year}_alpha4_median.csv")
            assert grid.shape == (1, 1)
            assert np.isfinite(grid[0, 0])

    def test_save_samples_npz(self, sim_brick, tmp_path):
        rc = run_cli(["fit-brick", "--input", sim_brick, "--out", tmp_path / "s",
                      "--ig", "2,0.001", "--n-samples", "200", "--sub-start", "101",
                      "--sub-thin", "2", "--min-obs", "5", "--save-samples"])
        assert rc == 0
        with np.load(tmp_path / "s_samples.npz") as z:
            assert set(z.keys()) == {"samples", "acceptance", "n_obs"}
            assert z["samples"].shape == (2, 3, 50, 8)
            assert z["acceptance"].shape == (2, 3, 2)
            assert np.all(z["n_obs"] == 12)

    def test_grid_csv_matches_library_fit(self, sim_brick, tmp_path):
        rc = run_cli(["fit-brick", "--input", sim_brick, "--out", tmp_path / "m",
                      "--ig", "2,0.001", "--n-samples", "300", "--sub-start", "151",
                      "--sub-thin", "3", "--min-obs", "5", "--seed", "17",
                      "--functionals", "alpha4", "--statistics", "median"])
        assert rc == 0
        grid = read_grid_csv(tmp_path / "m_alpha4_median.csv")

        # replay one pixel through the library with the derived per-pixel seed
        from helpers import default_spec
        from lspfit.likelihood import LikelihoodKind, ObservationSeries
        from lspfit.sampler import run_chain

        brick = read_brick(sim_brick)
        r, c = 1, 2
        series = ObservationSeries(doys=brick.doys.astype(float),
                                   values=brick.values[r, c].astype(float))
        cfg = ChainConfig(n_samples=300, sub_start=151, sub_thin=3,
                          seed=pixel_seed(17, r, c, 3))
        chain = run_chain(LikelihoodKind.beta(), series,
                          default_spec(ig_scale=0.001),
                          standard_starting(), PHENO_TUNING, cfg)
        direct = summarize(chain.samples[:, 3])
        assert grid[r, c] == float(f"{direct.median:.17g}")


class TestEntryPoints:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_panels_option_is_gone(self, capsys):
        # the AUC is exact, so there is no quadrature panel count to set
        with pytest.raises(SystemExit) as exc:
            main(["fit-brick", "--panels", "10", "--input", "x.lspb"])
        assert exc.value.code == 2
        assert "--panels" in capsys.readouterr().err

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "lspfit.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "fit-brick" in proc.stdout

    def test_console_script(self):
        exe = shutil.which("lspfit")
        assert exe is not None
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: lspfit")
