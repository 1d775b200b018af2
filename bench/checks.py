"""Output checks for each benchmark operation.

Each check returns a list of problems; an empty list means the output is
right. References come from ``oracles`` (independent arithmetic) or from
properties the method must have; lspfit is called only where the check is
about that call itself (the log-likelihood against its oracle, and a
brick pixel against a serial ``run_chain``).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracles

LOGLIK_RTOL = 1e-9
AUC_RTOL = 1e-6
EXACT_RTOL = 1e-12
# Posterior medians of alpha4 and alpha7 against the simulation truth. On
# the README quickstart series, fits with seeds 11 to 14 put every median
# within 2.5 days of the truth, about one posterior standard deviation.
TRUTH_TOL_DAYS = 6.0


@dataclass(frozen=True)
class ChainSpec:
    n_samples: int
    sub_start: int
    sub_thin: int

    def argv(self):
        return ["--n-samples", str(self.n_samples),
                "--sub-start", str(self.sub_start),
                "--sub-thin", str(self.sub_thin)]

    @property
    def retained(self) -> int:
        return oracles.retained_count(self.n_samples, self.sub_start,
                                      self.sub_thin)


def _close(got: float, want: float, rtol: float) -> bool:
    """Agreement to ``rtol`` relative, or absolute below magnitude 1."""
    return abs(got - want) <= rtol * max(1.0, abs(want))


def read_table(path):
    """Header and float rows of a CSV; ``NA`` becomes NaN."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = [[math.nan if v == "NA" else float(v) for v in r] for r in rows[1:]]
    return rows[0], np.array(data, dtype=np.float64).reshape(len(data), -1)


def read_summary(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    head = rows[0]
    return {r[0]: dict(zip(head[1:], map(float, r[1:]))) for r in rows[1:]}


def check_fit(prefix: str, kind: str, series, spec: ChainSpec,
              loglik) -> list[str]:
    """``lspfit fit`` output: draw count, prior support, likelihood.

    ``loglik(kind, draw)`` is the program's series log-likelihood at a draw;
    it is compared with the pure-``math`` oracle on a sample of draws.
    """
    problems = []
    head, draws = read_table(f"{prefix}_chain.csv")
    if head != ["alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6",
                "alpha7", "sigma2"]:
        problems.append(f"chain header {head}")
    if draws.shape != (spec.retained, 8):
        return problems + [f"chain shape {draws.shape}, want "
                           f"({spec.retained}, 8)"]
    outside = sum(not oracles.in_prior_support(d) for d in draws)
    if outside:
        problems.append(f"{outside} draws outside the prior support")
    for i in (0, spec.retained // 2, spec.retained - 1):
        want = oracles.series_loglik(kind, series.doys, series.values,
                                     draws[i])
        got = loglik(kind, draws[i])
        if not abs(got - want) <= LOGLIK_RTOL * abs(want):
            problems.append(f"log-likelihood at draw {i}: {got!r} vs "
                            f"oracle {want!r}")
    with open(f"{prefix}_meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("retained") != spec.retained:
        problems.append(f"meta retained {meta.get('retained')}")
    if not 0.0 < meta["acceptance"]["overall"] < 1.0:
        problems.append(f"acceptance {meta['acceptance']['overall']}")
    return problems


def check_truth(prefix: str, truth) -> list[str]:
    """Posterior medians of alpha4 and alpha7 from ``lspfit fit`` lie within
    TRUTH_TOL_DAYS of the simulation ``truth`` (alpha1..alpha7)."""
    _, draws = read_table(f"{prefix}_chain.csv")
    problems = []
    for name, col in (("alpha4", 3), ("alpha7", 6)):
        median = oracles.quantile(np.sort(draws[:, col]), 0.5)
        if not abs(median - truth[col]) <= TRUTH_TOL_DAYS:
            problems.append(f"posterior median of {name} {median:.1f}, "
                            f"truth {truth[col]:g}")
    return problems


def _samples(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return np.array([float(v) for v in fh], dtype=np.float64)


def check_derive(prefix: str, chain_path: str, days, auc_draws=3) -> list[str]:
    """``lspfit derive`` on a Beta chain, with ``--samples``.

    season_length and curve_max are exact column arithmetic, delta its
    closed form, fitted values the oracle curve, predictive draws lie in
    (0, 1), AUC agrees with a midpoint sum on a few draws, and each
    summary median is the median of its samples.
    """
    problems = []
    _, draws = read_table(chain_path)
    a = draws.T
    exact = {
        "season_length": a[6] - a[3],
        "curve_max": a[0] + a[1],
    }
    for name, want in exact.items():
        got = _samples(f"{prefix}_{name}_samples.csv")
        if not np.array_equal(got, want):
            problems.append(f"{name} samples differ from the chain columns")
    delta = _samples(f"{prefix}_delta_samples.csv")
    for i, d in enumerate(draws):
        if not _close(delta[i], oracles.crossover(d[2], d[3], d[5], d[6]),
                      EXACT_RTOL):
            problems.append(f"delta at draw {i}: {delta[i]!r}")
            break
    auc = _samples(f"{prefix}_auc_samples.csv")
    idx = np.linspace(0, len(draws) - 1, auc_draws).astype(int)
    ref = oracles.midpoint_auc(draws[idx])
    for i, want in zip(idx, ref):
        if not _close(auc[i], want, AUC_RTOL):
            problems.append(f"auc at draw {i}: {auc[i]!r} vs {want!r}")
    summary = read_summary(f"{prefix}_derived_summary.csv")
    for t in days:
        fitted = _samples(f"{prefix}_fitted_{t:g}_samples.csv")
        for i in (0, len(draws) - 1):
            if not _close(fitted[i], oracles.curve(t, draws[i]), EXACT_RTOL):
                problems.append(f"fitted@{t:g} at draw {i}: {fitted[i]!r}")
        pred = _samples(f"{prefix}_predictive_{t:g}_samples.csv")
        if pred.size != len(draws) or not ((pred > 0.0) & (pred < 1.0)).all():
            problems.append(f"predictive@{t:g} draws outside (0, 1)")
        for name, vec in ((f"fitted@{t:g}", fitted),
                          (f"predictive@{t:g}", pred)):
            exact[name] = vec
    exact["delta"], exact["auc"] = delta, auc
    for name, vec in exact.items():
        want = oracles.quantile(np.sort(vec), 0.5)
        got = summary.get(name, {}).get("median", math.nan)
        if not _close(got, want, EXACT_RTOL):
            problems.append(f"summary median of {name}: {got!r} vs {want!r}")
    return problems


def _grid_problems(path, rows, cols, georef) -> tuple[list[str], np.ndarray]:
    head, t = read_table(path)
    name = os.path.basename(path)
    if (head != ["row", "col", "x", "y", "value"]
            or t.shape != (rows * cols, 5)):
        return [f"{name}: header {head}, shape {t.shape}"], None
    r, c = np.divmod(np.arange(rows * cols), cols)
    x0, y0, cell = georef
    if not (np.array_equal(t[:, 0], r) and np.array_equal(t[:, 1], c)):
        return [f"{name}: row/col order"], None
    xs = np.array([x0 + ci * cell for ci in c.tolist()])
    ys = np.array([y0 - ri * cell for ri in r.tolist()])
    if not (np.array_equal(t[:, 2], xs) and np.array_equal(t[:, 3], ys)):
        return [f"{name}: x, y off the georef formula"], None
    if not np.isfinite(t[:, 4]).all():
        return [f"{name}: NA on a fitted pixel"], None
    return [], t[:, 4].reshape(rows, cols)


def _statistic(vec, statistic: str) -> float:
    s = np.sort(vec)
    if statistic == "width95":
        return oracles.quantile(s, 0.975) - oracles.quantile(s, 0.025)
    p = {"median": 0.5, "q025": 0.025, "q975": 0.975}[statistic]
    return oracles.quantile(s, p)


FUNCTIONAL_COLUMNS = {"alpha4": lambda d: d[:, 3], "alpha7": lambda d: d[:, 6],
                      "season_length": lambda d: d[:, 6] - d[:, 3],
                      "auc": oracles.midpoint_auc}


def check_fit_brick(prefix: str, brick, functionals, statistics, pixels,
                    serial_chain) -> list[str]:
    """``lspfit fit-brick`` output with ``--save-samples``.

    Every pixel is fitted; grids follow the georef formula; on the sampled
    ``pixels`` the saved chain equals ``serial_chain(row, col)`` (a serial
    ``run_chain`` seeded by the oracle's splitmix64) bit for bit, and every
    grid value matches the statistic of that chain (AUC through the
    midpoint oracle). width95 equals q975 - q025 on every pixel.
    """
    rows, cols, _ = brick.values.shape
    problems = []
    with open(f"{prefix}_meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta["fitted_pixels"] != rows * cols or meta["skipped_pixels"] != 0:
        problems.append(f"fitted {meta['fitted_pixels']}, skipped "
                        f"{meta['skipped_pixels']}")
    with open(f"{prefix}_skipped.csv", encoding="utf-8") as fh:
        if fh.read() != "row,col,reason\n":
            problems.append("skipped log is not empty")
    grids = {}
    for fn in functionals:
        for st in statistics:
            bad, grid = _grid_problems(f"{prefix}_{fn}_{st}.csv", rows, cols,
                                       brick.georef)
            problems += bad
            if grid is not None:
                grids[fn, st] = grid
    for which in ("overall", "last_batch"):
        problems += _grid_problems(f"{prefix}_acceptance_{which}.csv", rows,
                                   cols, brick.georef)[0]
    with np.load(f"{prefix}_samples.npz") as npz:
        saved = npz["samples"]
    for fn in functionals:
        if {(fn, "q025"), (fn, "q975"), (fn, "width95")} <= grids.keys():
            diff = grids[fn, "q975"] - grids[fn, "q025"]
            if not np.allclose(grids[fn, "width95"], diff, rtol=EXACT_RTOL,
                               atol=0.0):
                problems.append(f"{fn}: width95 != q975 - q025")
    for r, c in pixels:
        chain = serial_chain(r, c)
        if not np.array_equal(saved[r, c], chain):
            problems.append(f"pixel ({r}, {c}) differs from its serial chain")
            continue
        vectors = {fn: FUNCTIONAL_COLUMNS[fn](chain) for fn in functionals}
        for (fn, st), grid in grids.items():
            want = _statistic(vectors[fn], st)
            rtol = AUC_RTOL if fn == "auc" else EXACT_RTOL
            if not _close(grid[r, c], want, rtol):
                problems.append(f"{fn} {st} at ({r}, {c}): {grid[r, c]!r} "
                                f"vs {want!r}")
    return problems


def _brick_problems(got, values, doys, georef, what: str) -> list[str]:
    problems = []
    if got.values.shape != values.shape:
        return [f"{what}: shape {got.values.shape}, want {values.shape}"]
    if not np.array_equal(got.values, values, equal_nan=True):
        bad = int((~((got.values == values)
                     | (np.isnan(got.values) & np.isnan(values)))).sum())
        problems.append(f"{what}: {bad} cells differ from the written values")
    if not np.array_equal(got.doys, doys):
        problems.append(f"{what}: layer days differ")
    if tuple(got.georef or ()) != tuple(georef):
        problems.append(f"{what}: georef {got.georef}, want {georef}")
    return problems


def check_ingest_pooled(brick, csv_input) -> list[str]:
    """Every cell holds the written value, or NaN for NA or no row."""
    return _brick_problems(brick, csv_input.values, csv_input.layer_doys,
                           csv_input.georef, "pooled")


def check_ingest_annual(bricks, csv_input) -> list[str]:
    if sorted(bricks) != list(csv_input.years):
        return [f"annual years {sorted(bricks)}"]
    n = csv_input.days_per_year
    problems = []
    for yi, year in enumerate(csv_input.years):
        layers = slice(yi * n, (yi + 1) * n)
        problems += _brick_problems(bricks[year],
                                    csv_input.values[:, :, layers],
                                    csv_input.layer_doys[layers],
                                    csv_input.georef, f"annual {year}")
    return problems


def check_roundtrip(path, written, read) -> list[str]:
    """LSPB round trip: exact size, bit-identical values, days and georef."""
    rows, cols, layers = written.values.shape
    size = 4 + 2 + 12 + 1 + 24 + 8 * layers + 4 * rows * cols * layers
    problems = []
    if os.path.getsize(path) != size:
        problems.append(f"LSPB size {os.path.getsize(path)}, want {size}")
    if (read.values.shape != written.values.shape or not np.array_equal(
            read.values.view(np.uint32), written.values.view(np.uint32))):
        problems.append("LSPB values are not bit-identical")
    if (not np.array_equal(read.doys, written.doys)
            or read.georef != written.georef):
        problems.append("LSPB days or georef changed")
    return problems


def is_leap_fault(exc: Exception, leap) -> bool:
    """Today's leap-day fault: ``ingest_long_csv`` rejects the first day-366
    record of ``leap`` (an ``inputs.LeapCsv``) as a malformed row."""
    return (isinstance(exc, ValueError) and str(exc).startswith(
        f"malformed row at line {leap.first_line}: doy must be in [1, 365]"))


def check_leap(brick, leap_values: dict) -> list[str]:
    """The 2020 day-366 layer holds the value written for each pixel."""
    layers = np.flatnonzero(brick.doys == 366.0)
    if layers.size != 1:
        return [f"{layers.size} layers with day 366"]
    problems = []
    for (r, c), v in leap_values.items():
        if brick.values[r, c, layers[0]] != np.float32(v):
            problems.append(f"day 366 at ({r}, {c}): "
                            f"{brick.values[r, c, layers[0]]!r}, want {v}")
    return problems
