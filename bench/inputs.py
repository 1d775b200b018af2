"""Seeded input generators: one observation series, Beta bricks, long CSVs.

Every generator draws from a numpy Generator that the caller derives from
the workload seed, so one seed gives the same files. Bricks and CSVs are
written by this module's own code, not by lspfit, so the program's readers
are checked against an independent writer. The single series is made with
lspfit's ``simulate_series``, as in the README quickstart; its cost is part
of the benchmark's set-up time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

import oracles

# README quickstart curve: baseline 0.2, amplitude 0.55, green-up near day
# 120, senescence near day 280; Beta noise with sigma2 = 0.003.
TRUTH = (0.2, 0.55, 0.12, 120.0, 4e-4, 0.10, 280.0)
SIGMA2 = 0.003
SERIES_DOYS = np.arange(8.0, 361.0, 16.0)  # 23 observations, every 16 days
QUICKSTART_KEY = 7  # the README quickstart's Philox key for the series

GEOREF = (-78.5, 36.0, 1.0 / 2048.0)  # binary-exact cell: coordinates
                                      # round-trip through text exactly
CSV_YEARS = (2019, 2020)
CSV_DOYS = tuple(range(1, 362, 8))    # 46 acquisitions a year
CSV_NA_SHARE = 0.03                   # written as "NA"
CSV_DROP_SHARE = 0.02                 # no row at all

LEAP_ROWS, LEAP_COLS = 2, 3
BRICK_MAX_MISSING = 8  # layers a brick pixel may lose: 15..23 remain


@dataclass(frozen=True)
class Series:
    path: str
    doys: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class BrickInput:
    path: str
    values: np.ndarray  # (rows, cols, layers) float32, NaN = missing
    doys: np.ndarray
    georef: tuple


@dataclass(frozen=True)
class LeapCsv:
    path: str
    values: dict     # (row, col) -> value written for 2020 day 366
    first_line: int  # line number of the first day-366 record


@dataclass(frozen=True)
class LongCsv:
    path: str
    rows_written: int
    values: np.ndarray  # (rows, cols, years*days) float32, pooled layer order
    layer_doys: np.ndarray
    years: tuple
    days_per_year: int
    georef: tuple


def write_series(path, key: int) -> Series:
    """Simulate the quickstart curve with lspfit and write it as a CSV.

    ``key`` is the Philox key of the simulation, as in the README
    quickstart (which uses QUICKSTART_KEY).
    """
    from lspfit import CurveParams, LikelihoodKind, simulate_series

    program_rng = np.random.Generator(np.random.Philox(key=key))
    s = simulate_series(LikelihoodKind.beta(), CurveParams(*TRUTH), SIGMA2,
                        SERIES_DOYS, program_rng)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pixel,x,y,doy,evi\n")
        for d, v in zip(s.doys.tolist(), s.values.tolist()):
            fh.write(f"0,0,0,{d!r},{v!r}\n")
    return Series(str(path), s.doys.copy(), s.values.copy())


def write_lspb(path, values, doys, georef) -> None:
    """LSPB version 1: magic, u16 version, u32 rows/cols/layers, georef flag
    and three float64, float64 days, then float32 values (layer innermost)."""
    rows, cols, layers = values.shape
    with open(path, "wb") as fh:
        fh.write(b"LSPB")
        fh.write(struct.pack("<HIIIB", 1, rows, cols, layers, 1))
        fh.write(struct.pack("<3d", *georef))
        fh.write(np.asarray(doys, dtype="<f8").tobytes())
        fh.write(np.asarray(values, dtype="<f4").tobytes())


def write_brick(path, rng: np.random.Generator, rows: int,
                cols: int) -> BrickInput:
    """A Beta brick on the series days with per-pixel curves and gaps.

    Each pixel's curve is the quickstart curve jittered within a few days
    and a few hundredths, and each pixel loses 0..BRICK_MAX_MISSING of its
    23 layers at random, so observation counts differ between pixels.
    """
    shape = (rows, cols, 1)
    a1 = rng.uniform(0.15, 0.25, shape)
    a2 = rng.uniform(0.45, 0.60, shape)
    a3 = rng.uniform(0.08, 0.16, shape)
    a4 = rng.uniform(110.0, 130.0, shape)
    a5 = rng.uniform(0.0, 6e-4, shape)
    a6 = rng.uniform(0.07, 0.13, shape)
    a7 = rng.uniform(270.0, 290.0, shape)
    mu = oracles.curve_array(SERIES_DOYS[None, None, :], a1, a2, a3, a4, a5,
                             a6, a7)
    phi = 1.0 / SIGMA2
    values = rng.beta(mu * phi, (1.0 - mu) * phi).astype(np.float32)
    n = SERIES_DOYS.size
    missing = rng.integers(0, BRICK_MAX_MISSING + 1, size=(rows, cols, 1))
    rank = np.argsort(rng.random((rows, cols, n)), axis=2).argsort(axis=2)
    values[rank < missing] = np.nan
    write_lspb(path, values, SERIES_DOYS, GEOREF)
    return BrickInput(str(path), values, SERIES_DOYS.copy(), GEOREF)


def write_long_csv(path, rng: np.random.Generator, rows: int,
                   cols: int) -> LongCsv:
    """A ``pixel,x,y,sat,year,doy,evi`` roster over two years.

    Values are k/10000 written with four decimals; a share of records say
    ``NA`` and a share are left out entirely. Both must come back missing.
    """
    years, n_days = CSV_YEARS, len(CSV_DOYS)
    n_pix = rows * cols
    k = rng.integers(1000, 9001, size=(len(years), n_pix, n_days))
    na = rng.random(k.shape) < CSV_NA_SHARE
    keep = rng.random(k.shape) >= CSV_DROP_SHARE
    text = [f"0.{v:04d}" for v in range(10000)]
    x0, y0, cell = GEOREF
    prefix = [f"{r * cols + c},{x0 + c * cell!r},{y0 - r * cell!r},"
              f"{'L8' if (r + c) % 2 else 'S2'},"
              for r in range(rows) for c in range(cols)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pixel,x,y,sat,year,doy,evi\n")
        for yi, year in enumerate(years):
            lines = []
            for p in range(n_pix):
                head = f"{prefix[p]}{year},"
                lines.extend(
                    f"{head}{d},{'NA' if bad else text[v]}\n"
                    for d, v, bad, kept in zip(CSV_DOYS, k[yi, p].tolist(),
                                               na[yi, p].tolist(),
                                               keep[yi, p].tolist())
                    if kept)
            fh.writelines(lines)

    written = np.where(keep & ~na, k / 10000.0, np.nan).astype(np.float32)
    # (year, pixel, day) -> (row, col, year*days + day): pooled layer order
    values = written.transpose(1, 0, 2).reshape(rows, cols, -1)
    layer_doys = np.tile(np.asarray(CSV_DOYS, dtype=np.float64), len(years))
    return LongCsv(str(path), int(keep.sum()), values, layer_doys, years,
                   n_days, GEOREF)


def write_leap_csv(path) -> LeapCsv:
    """A small fixed roster whose 2020 records include day 366.

    The file does not depend on the seed.
    """
    x0, y0, cell = GEOREF
    leap, lines = {}, ["pixel,x,y,sat,year,doy,evi"]
    first_line = None
    for r in range(LEAP_ROWS):
        for c in range(LEAP_COLS):
            p = r * LEAP_COLS + c
            xy = f"{p},{x0 + c * cell!r},{y0 - r * cell!r},L8"
            for year, days in ((2019, range(1, 362, 16)),
                               (2020, list(range(1, 362, 16)) + [366])):
                for d in days:
                    v = 0.2 + 0.001 * (d % 300) + 0.01 * p
                    lines.append(f"{xy},{year},{d},{v:.4f}")
                    if d == 366 and first_line is None:
                        first_line = len(lines)
            leap[(r, c)] = float(f"{0.2 + 0.001 * 66 + 0.01 * p:.4f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return LeapCsv(str(path), leap, first_line)
