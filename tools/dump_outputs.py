"""Write a fixed set of lspfit outputs under OUTDIR, for byte comparison.

Run it once per source tree and compare the two directories::

    PYTHONPATH=treeA/src python3 tools/dump_outputs.py /tmp/a
    PYTHONPATH=treeB/src python3 tools/dump_outputs.py /tmp/b
    diff -r /tmp/a /tmp/b

Every command runs inside OUTDIR with relative paths, so ``*_meta.json``
files name the same ``out``, ``input`` and ``mask`` on both trees; an empty
``diff -r`` means the two trees produce the same bytes. What is written:

* ``chains/``: ``run_chain`` draws and acceptance for the three likelihoods
  on seeds 0, 11, 12345 and 2**63 + 5, and ``series_log_likelihood`` and
  ``log_posterior`` at every tenth draw, as hex floats; and every draw of a
  100-iteration chain per likelihood, which fits in one pre-draw chunk;
* ``simulate/``: ``lspfit simulate --grid 3,3``;
* ``brick/``: ``lspfit fit-brick --save-samples`` with every functional and
  statistic, for ``--workers`` 1 and 2, on a one-group brick of more than one
  lockstep block and on a multi-group brick with a mask, and the one-group
  brick again without ``--save-samples``, whose grid CSVs are checked to
  equal those of the run with it, byte for byte; and the one-group brick
  with ``--save-samples``, ``--n-samples 100`` and ``--sub-start 1`` (one
  pre-draw chunk, every draw kept);
* ``csv/``: a small long CSV with an ``NA``, a duplicate record, day 366 and
  two years; its ``ingest_long_csv`` bricks (pooled, pooled with
  ``clamp_eps``, annual) written as LSPB; and ``lspfit fit-brick`` on it,
  pooled with ``--clamp-beta-eps 1e-6`` and ``--annual`` with a mask;
* ``fit/``: ``lspfit fit``, the standard output of ``lspfit summarize``,
  ``lspfit derive --samples`` with its default and with every functional;
* ``help/``: the ``--help`` text of every subcommand at 80 columns.

It takes under a minute on a 2-core host.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import os
import sys

import numpy as np

os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal

from lspfit import (Brick, ChainConfig, CurveParams, IndexBounds,  # noqa: E402
                    LikelihoodKind, NoiseParam, ObservationSeries,
                    ParamVector, TuningSpec, default_priors,
                    ingest_long_csv, log_posterior, read_brick, run_chain,
                    series_log_likelihood, simulate_series, write_brick)
from lspfit.cli import main  # noqa: E402
from lspfit.posterior import FUNCTIONALS, STATISTICS  # noqa: E402

SEEDS = (0, 11, 12345, 2**63 + 5)
KINDS = {
    "normal": LikelihoodKind.normal(),
    "tnormal": LikelihoodKind.truncated_normal(0.0, 1.0),
    "beta": LikelihoodKind.beta(),
}
TRUTH = (0.2, 0.55, 0.12, 120.0, 4e-4, 0.10, 280.0)
SIGMA2 = 0.003
START = ParamVector(CurveParams(0.2, 0.5, 0.25, 100.0, 1e-4, 0.25, 200.0),
                    NoiseParam(1e-3))
TUNING = TuningSpec(0.001, 0.01, 0.01, 0.5, 1e-4, 0.01, 1.0, 0.1)
IG = "2,0.001"
SHORT_CHAIN = ["--n-samples", "1100", "--sub-start", "601", "--sub-thin", "10"]


def run(argv, stdout=None) -> None:
    """Run ``lspfit ARGV``; fail on a nonzero exit status."""
    with contextlib.redirect_stdout(stdout or sys.stdout):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"lspfit {' '.join(argv)} exited with {status}")


def hexes(values) -> str:
    return "".join(f"{float(v).hex()}\n" for v in values)


def dump_chains() -> None:
    os.makedirs("chains")
    doys = np.arange(8.0, 361.0, 16.0)
    spec = default_priors(IndexBounds(0.0, 1.0), ig_scale=1e-3)
    for name, kind in KINDS.items():
        series = simulate_series(kind, CurveParams(*TRUTH), SIGMA2, doys,
                                 np.random.Generator(np.random.Philox(key=7)))
        for seed in SEEDS:
            config = ChainConfig(n_samples=3000, sub_start=1001,
                                 sub_thin=4, seed=seed)
            chain = run_chain(kind, series, spec, START, TUNING, config)
            stem = f"chains/{name}_{seed}"
            np.save(f"{stem}_samples.npy", chain.samples)
            draws = [ParamVector.from_array(d) for d in chain.samples[::10]]
            with open(f"{stem}.txt", "w", encoding="utf-8") as fh:
                fh.write(hexes([chain.acc_overall, chain.acc_last_batch]))
                fh.write(hexes(series_log_likelihood(
                    kind, ObservationSeries(series.doys, series.values),
                    v.curve, v.noise) for v in draws))
                fh.write(hexes(log_posterior(kind, series, spec, v)
                               for v in draws))
        chain = run_chain(kind, series, spec, START, TUNING,
                          ChainConfig(n_samples=100, seed=SEEDS[-1]))
        np.save(f"chains/{name}_short_samples.npy", chain.samples)
        with open(f"chains/{name}_short.txt", "w", encoding="utf-8") as fh:
            fh.write(hexes([chain.acc_overall, chain.acc_last_batch]))


def dump_simulate() -> None:
    os.makedirs("simulate")
    run(["simulate", "--out", "simulate/sim", "--seed", "5",
         "--curve", ",".join(map(str, TRUTH)), "--sigma2", str(SIGMA2),
         "--doys", "8:360:16", "--grid", "3,3", "--georef", "500,900,30"])


def dump_bricks() -> None:
    os.makedirs("brick")
    # one observation count on 17 x 16 pixels: two lockstep blocks
    run(["simulate", "--out", "brick/one", "--seed", "3",
         "--curve", ",".join(map(str, TRUTH)), "--sigma2", str(SIGMA2),
         "--doys", "8:360:16", "--grid", "17,16"])
    # count groups of 18, 6, 4 and 2 pixels (lockstep from 4, run_chain
    # below), three pixels under --min-obs, an empty one and a masked corner
    full = read_brick("brick/one.lspb")
    vals = np.array(full.values[:6, :6])
    vals[1, :, 3] = np.nan
    vals[2, :4, 5:7] = np.nan
    vals[3, :2, 0:3] = np.nan
    vals[4, :3, 2:15] = np.nan
    vals[5, 5, :] = np.nan
    write_brick(Brick(vals, full.doys, (100.0, 600.0, 30.0)),
                "brick/multi.lspb")
    mask = np.ones((6, 6, 1), dtype=np.float32)
    mask[0, 4:, 0] = 0.0
    write_brick(Brick(mask, np.array([1.0])), "brick/mask.lspb")

    request = ["--functionals", ",".join(FUNCTIONALS),
               "--statistics", ",".join(STATISTICS)]
    everything = [*request, "--save-samples"]
    for workers in (1, 2):
        run(["fit-brick", "--input", "brick/one.lspb",
             "--out", f"brick/one_w{workers}", "--seed", "17", "--ig", IG,
             "--workers", str(workers), *SHORT_CHAIN, *everything])
        run(["fit-brick", "--input", "brick/multi.lspb",
             "--out", f"brick/multi_w{workers}", "--seed", str(2**63 + 1),
             "--ig", IG, "--workers", str(workers),
             "--mask", "brick/mask.lspb", "--min-obs", "12", "--lspb-grids",
             *SHORT_CHAIN, *everything])
    run(["fit-brick", "--input", "brick/one.lspb", "--out",
         "brick/one_nosamples", "--seed", "17", "--ig", IG, "--workers", "1",
         *SHORT_CHAIN, *request])
    run(["fit-brick", "--input", "brick/one.lspb", "--out", "brick/one_short",
         "--seed", "17", "--ig", IG, "--workers", "1", "--n-samples", "100",
         "--sub-start", "1", "--save-samples"])
    # the grid CSVs of every functional and statistic, the two acceptance
    # grids and the skipped log
    grids = [name.removeprefix("one_w1") for name in os.listdir("brick")
             if name.startswith("one_w1_") and name.endswith(".csv")]
    assert len(grids) == len(FUNCTIONALS) * len(STATISTICS) + 3, grids
    differ = [g for g in sorted(grids)
              if not filecmp.cmp(f"brick/one_w1{g}",
                                 f"brick/one_nosamples{g}", shallow=False)]
    if differ:
        raise SystemExit("fit-brick without --save-samples wrote other "
                         f"bytes: {', '.join(differ)}")


def dump_csv() -> None:
    """Ingest and fit a long CSV of a 4 x 3 grid made from
    ``brick/one.lspb``: 2019 takes rows 0-3 and 2020 rows 4-7 of its first
    three columns, on days 8 to 360; 2020 also has day 366. Pixel (0, 0)
    has an ``NA``, a 1.0 and a duplicate record, and pixel (0, 1) a value
    below 0."""
    os.makedirs("csv")
    full = read_brick("brick/one.lspb")
    lines = ["pixel,x,y,sat,year,doy,evi"]
    for year in (2019, 2020):
        doys = list(full.doys) + ([366.0] if year == 2020 else [])
        for r in range(4):
            for c in range(3):
                vals = full.values[r + 4 * (year - 2019), c]
                # day 366 takes day 8's value
                for doy, v in zip(doys, np.append(vals, vals[0])):
                    lines.append(f"p{r}{c},{500 + 30 * c},{900 - 30 * r},S2A,"
                                 f"{year},{doy:g},{v:.6f}")
    lines[5] = lines[5].rsplit(",", 1)[0] + ",NA"
    lines[7] = lines[7].rsplit(",", 1)[0] + ",1.0"
    lines[30] = lines[30].rsplit(",", 1)[0] + ",-0.02"
    lines.append(lines[9].rsplit(",", 1)[0] + ",0.5")  # duplicate: last wins
    with open("csv/long.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    write_brick(ingest_long_csv("csv/long.csv"), "csv/pooled.lspb")
    write_brick(ingest_long_csv("csv/long.csv", clamp_eps=1e-6),
                "csv/pooled_clamped.lspb")
    for year, brick in ingest_long_csv("csv/long.csv", mode="annual").items():
        write_brick(brick, f"csv/annual_{year}.lspb")
    mask = np.ones((4, 3, 1), dtype=np.float32)
    mask[3, 2, 0] = 0.0
    write_brick(Brick(mask, np.array([1.0])), "csv/mask.lspb")

    run(["fit-brick", "--input", "csv/long.csv", "--out", "csv/pooled",
         "--seed", "23", "--ig", IG, "--clamp-beta-eps", "1e-6",
         *SHORT_CHAIN, "--statistics", "median,sd,q025", "--save-samples"])
    run(["fit-brick", "--input", "csv/long.csv", "--out", "csv/annual",
         "--seed", "23", "--ig", IG, "--annual", "--mask", "csv/mask.lspb",
         "--clamp-beta-eps", "1e-6", *SHORT_CHAIN, "--save-samples"])


def dump_fit() -> None:
    os.makedirs("fit")
    series = "simulate/sim.csv"
    for kind in KINDS:
        run(["fit", "--input", series, "--pixel", "4", "--out", f"fit/{kind}",
             "--seed", "11", "--likelihood", kind, "--ig", IG,
             "--n-samples", "4000", "--sub-start", "2001", "--sub-thin", "5"])
    chain = "fit/beta_chain.csv"
    out = io.StringIO()
    run(["summarize", "--chain", chain,
         "--functionals", "season_length,curve_max,auc,delta"], stdout=out)
    with open("fit/summarize_stdout.csv", "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    run(["derive", "--chain", chain, "--out", "fit/derive_default",
         "--seed", "3", "--samples"])
    run(["derive", "--chain", chain, "--out", "fit/derive_all", "--seed", "3",
         "--likelihood", "beta", "--at", "100,180.5", "--samples",
         "--functionals", ",".join(FUNCTIONALS) + ",fitted,predictive"])


def dump_help() -> None:
    os.makedirs("help")
    for command in ("simulate", "fit", "fit-brick", "summarize", "derive"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.suppress(SystemExit):
            main([command, "--help"])
        with open(f"help/{command}.txt", "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())


def main_dump(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    if os.listdir(outdir):
        raise SystemExit(f"{outdir} is not empty")
    os.chdir(outdir)
    dump_help()
    dump_chains()
    dump_simulate()
    dump_bricks()
    dump_csv()
    dump_fit()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: dump_outputs.py OUTDIR")
    main_dump(sys.argv[1])
