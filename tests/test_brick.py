"""Tests for the raster-brick module: format, ingestion, parallel fitting."""

import csv
import io
import logging
import math
import multiprocessing
import os
import threading
import tracemalloc
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
    CurveParams,
    LikelihoodKind,
    NoiseParam,
    ParamVector,
    fit_brick,
    functional_samples,
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
from lspfit.brick import (BLOCK_CAP, LOCKSTEP_MIN, STATISTICS, grid_to_brick,
                          write_grid_csv)
from lspfit.posterior import FUNCTIONALS
from lspfit.sampler import PREDRAW_CHUNK, run_lockstep

BETA = LikelihoodKind.beta()
KINDS = [LikelihoodKind.normal(), LikelihoodKind.truncated_normal(0.0, 1.0),
         BETA]

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
        size = len(raw)  # 43 header bytes, 5 days, 3 x 4 x 5 values
        assert size == self.HEADER_BYTES + 8 * 5 + 4 * 60

        for name, data, message in [
            ("bad_magic", b"NOPE" + raw[4:],
             "bad magic bytes b'NOPE'; not an LSPB file"),
            ("bad_version", raw[:4] + b"\x02\x00" + raw[6:],
             "unsupported format version 2; this reader handles version 1"),
            ("short", raw[:-1],
             f"truncated file: expected {size} bytes, got {size - 1}"),
            ("header", raw[:10],
             "truncated file: 10 bytes is too short for an LSPB header"),
            ("long", raw + b"\x00",
             f"trailing data: expected {size} bytes, got {size + 1}"),
        ]:
            bad = tmp_path / f"{name}.lspb"
            bad.write_bytes(data)
            with pytest.raises(ValueError) as exc:
                read_brick(bad)
            assert str(exc.value) == message

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_read_from_a_pipe(self, tmp_path):
        b = random_brick(4, georef=(1.0, 2.0, 0.5))
        write_brick(b, tmp_path / "b.lspb")
        raw = (tmp_path / "b.lspb").read_bytes()
        size = len(raw)
        for data, message in [
            (raw, None),
            (raw[:-1], f"truncated file: expected {size} bytes, got {size - 1}"),
            (raw + b"\x00", f"trailing data: expected {size} bytes, got "
                            f"{size + 1}"),
        ]:
            fifo = tmp_path / "pipe.lspb"
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_bytes, args=(data,))
            writer.start()
            try:
                if message is None:
                    back = read_brick(fifo)
                    assert back.values.tobytes() == b.values.tobytes()
                    assert back.georef == b.georef
                else:
                    with pytest.raises(ValueError) as exc:
                        read_brick(fifo)
                    assert str(exc.value) == message
            finally:
                writer.join(timeout=10)
                fifo.unlink()
            assert not writer.is_alive()


def write_csv(tmp_path, rows, header="pixel,x,y,sat,year,doy,evi"):
    path = tmp_path / "obs.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def random_long_csv(rng) -> tuple[str, bool]:
    """A random long CSV: shuffled columns, a lattice with one to four x
    and y values (with a gap from three on), NA, unparseable, out-of-range and padded values, repeated
    records, blank lines and quoted fields; and whether it has a year
    column."""
    has_year = bool(rng.integers(2))
    names = ["x", "y", "doy", "evi", "sat"] + (["year"] if has_year else [])
    names = [names[i] for i in rng.permutation(len(names))]
    cell = float(rng.choice([0.5, 1.0, 30.0]))
    steps = [0, 1, 3, 4]  # a lattice line with no record at step 2
    xs = [-100.0 + cell * i for i in steps[:rng.integers(1, 5)]]
    ys = [40.0 + cell * i for i in steps[:rng.integers(1, 5)]]
    texts = ["0.25", "0.7", "NA", "bogus", "", " 0.5 ", "1_0", "0", "1",
             "-0.2", "1.3", "inf", "nan", "0.99999999", "1e-9"]
    lines = [",".join(names)]
    records = []
    for _ in range(rng.integers(1, 60)):
        rec = {"x": repr(float(rng.choice(xs))),
               "y": repr(float(rng.choice(ys))),
               "doy": str(rng.choice(["1", "100", "100.5", "200", "366"])),
               "evi": str(rng.choice(texts)),
               "sat": str(rng.choice(["S2", "L8", "S2,A"])),
               "year": str(rng.choice(["2019", "2020", " 2021"]))}
        if records and rng.random() < 0.2:  # the same cell and layer again
            rec = dict(records[rng.integers(len(records))],
                       evi=str(rng.choice(texts)))
        records.append(rec)
        fields = [f'"{rec[n]}"' if "," in rec[n] or rng.random() < 0.2
                  else rec[n] for n in names]
        lines.append(",".join(fields))
        if rng.random() < 0.1:
            lines.append("")
    return "\n".join(lines) + "\n", has_year


def dict_pivot(text: str, mode: str, clamp_eps):
    """The expected ingest of ``text``, one record at a time into a dict
    (later records overwrite earlier ones): ``{year or None: (values,
    doys, georef)}``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    at = {name: header.index(name) for name in header}
    cells = {}
    for row in reader:
        if not row:
            continue
        year = int(row[at["year"]]) if "year" in at else 0
        try:
            v = float(row[at["evi"]])
        except ValueError:
            v = math.nan
        if clamp_eps is not None and math.isfinite(v):
            v = clamp_eps if v <= 0 else 1 - clamp_eps if v >= 1 else v
        key = (float(row[at["x"]]), float(row[at["y"]]), year,
               float(row[at["doy"]]))
        cells[key] = v

    def lattice(coords):
        u = sorted(set(coords))
        base = min((b - a for a, b in zip(u, u[1:])), default=None)
        pos = {c: 0 if base is None else round((c - u[0]) / base) for c in u}
        return pos, max(pos.values()) + 1, base

    x_pos, n_cols, cell_x = lattice(k[0] for k in cells)
    y_pos, n_rows, cell_y = lattice(k[1] for k in cells)
    cell = cell_x if cell_x is not None else cell_y
    georef = (None if cell is None
              else (min(k[0] for k in cells), max(k[1] for k in cells), cell))
    groups = ([None] if mode == "pooled"
              else sorted({k[2] for k in cells}))
    out = {}
    for group in groups:
        layers = sorted({(k[2], k[3]) for k in cells
                         if group in (None, k[2])})
        values = np.full((n_rows, n_cols, len(layers)), np.nan, np.float32)
        for (x, y, year, doy), v in cells.items():
            if group in (None, year):
                values[n_rows - 1 - y_pos[y], x_pos[x],
                       layers.index((year, doy))] = v
        out[group] = (values, [d for _, d in layers], georef)
    return out



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

    # each would give data a Beta likelihood cannot produce: 0 keeps 0 and 1,
    # -0.1 gives -0.1 and 1.1, 0.7 swaps the bounds to 0.7 and 0.3
    @pytest.mark.parametrize("eps", [0.0, -0.1, 0.5, 0.7, math.nan])
    def test_clamp_eps_outside_open_interval_is_error(self, tmp_path, eps):
        path = write_csv(tmp_path, ["p,10,40,S2A,2019,50,1.0"])
        with pytest.raises(ValueError,
                           match=r"clamp_eps must lie in \(0, 0\.5\)"):
            ingest_long_csv(path, clamp_eps=eps)

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

    @pytest.mark.parametrize("seed", range(12))
    def test_randomised_against_dict_pivot(self, tmp_path, monkeypatch, seed):
        # chunks of 5 rows, so records and duplicates straddle chunk edges
        monkeypatch.setattr(lspfit.brick, "CSV_CHUNK", 5)
        rng = np.random.default_rng(seed)
        text, has_year = random_long_csv(rng)
        path = tmp_path / "obs.csv"
        path.write_text(text, newline="")
        for clamp_eps in (None, 1e-3):
            modes = ("pooled", "annual") if has_year else ("pooled",)
            for mode in modes:
                got = ingest_long_csv(path, mode=mode, clamp_eps=clamp_eps)
                want = dict_pivot(text, mode, clamp_eps)
                if mode == "pooled":
                    got = {None: got}
                assert list(got) == list(want)
                for key, (values, doys, georef) in want.items():
                    b = got[key]
                    assert b.values.dtype == np.float32
                    assert b.values.shape == values.shape
                    assert b.values.tobytes() == values.tobytes()
                    assert b.doys.tolist() == doys
                    assert b.georef == georef

    @pytest.mark.parametrize("row, message", [
        ("p,10,40,S2A,2019,50", "expected 7 fields, got 6"),
        ("p,10,40,S2A,2019,50,0.5,extra", "expected 7 fields, got 8"),
        ("p,10,40,S2A,2019,fifty,0.5", "unparseable doy field"),
        ("p,10,40,S2A,2019,0.5,0.5", "doy must be in [1, 366]"),
        ("p,10,40,S2A,2019,nan,0.5", "doy must be in [1, 366]"),
        ("p,10,40,S2A,2019.0,50,0.5", "unparseable year field"),
        (f"p,10,40,S2A,{2**63},50,0.5", "unparseable year field"),
        ("p,ten,40,S2A,2019,50,0.5", "unparseable x/y field"),
        ("p,10,inf,S2A,2019,50,0.5", "coordinates must be finite"),
    ], ids=["short", "long", "doy", "doy-range", "doy-nan", "year",
            "year-int64", "x", "y-inf"])
    def test_bad_row_past_first_chunk_names_its_line(self, tmp_path, row,
                                                     message):
        # blank lines before the bad row still count as lines
        n = lspfit.brick.CSV_CHUNK + 37
        rows = [f"p,{10 + 10 * (i % 3)},40,S2A,2019,{1 + i % 300},0.5"
                for i in range(n)]
        rows[100:100] = ["", ""]
        path = write_csv(tmp_path, rows + ["", row] + rows[:3])
        with pytest.raises(ValueError) as exc:
            ingest_long_csv(path)
        # header, n rows, three blank lines, then the bad row
        assert str(exc.value) == f"malformed row at line {n + 5}: {message}"

    @pytest.mark.parametrize("rows, line, message", [
        # a bad x on line 3 comes before a bad year on line 4
        (["p,ten,40,S2A,2019,50,0.5", "p,10,40,S2A,20x9,50,0.5"], 3,
         "unparseable x/y field"),
        # a bad year on line 3 comes before a short row on line 4
        (["p,10,40,S2A,20x9,50,0.5", "p,10,40"], 3, "unparseable year field"),
        # a short row on line 3 comes before a bad doy on line 4
        (["p,10,40", "p,10,40,S2A,2019,500,0.5"], 3,
         "expected 7 fields, got 3"),
        # one row failing doy, year and x names the doy
        (["p,ten,40,S2A,20x9,zero,0.5"], 3, "unparseable doy field"),
        # an unparseable doy is not also reported as out of range
        (["p,10,40,S2A,2019,-,0.5"], 3, "unparseable doy field"),
    ], ids=["x-before-year", "year-before-short", "short-before-doy",
            "doy-first-in-row", "doy-parse-before-range"])
    def test_first_bad_row_in_file_order(self, tmp_path, rows, line,
                                         message):
        path = write_csv(tmp_path, ["p,10,40,S2A,2019,20,0.5"] + rows)
        with pytest.raises(ValueError) as exc:
            ingest_long_csv(path)
        assert str(exc.value) == f"malformed row at line {line}: {message}"

    def test_memory_per_record(self, tmp_path):
        # 120 x 120 pixels x 8 days = 115 200 records of a 0.46 MB brick
        xs, ys, days = np.meshgrid(np.arange(120), np.arange(120),
                                   np.arange(8, 361, 45), indexing="ij")
        n = xs.size
        vals = np.random.default_rng(5).integers(1000, 9000, n)
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pixel,x,y,sat,year,doy,evi\n")
            fh.writelines(f"{x * 120 + y},{x * 30},{y * 30},S2,2019,{d},0.{v}\n"
                          for x, y, d, v in zip(xs.ravel().tolist(),
                                                ys.ravel().tolist(),
                                                days.ravel().tolist(),
                                                vals.tolist()))
        tracemalloc.start()
        try:
            b = ingest_long_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b.values.shape == (120, 120, 8)
        assert peak / n <= 150, f"{peak / n:.0f} bytes per record"


DOYS = [float(d) for d in range(8, 361, 16)]
EVERY_GRID = dict(functionals=FUNCTIONALS, statistics=STATISTICS)


def assert_grids_equal(a: dict, b: dict) -> None:
    """The same (functional, statistic) keys, and bit-identical grids."""
    assert list(a) == list(b)
    for key, grid in a.items():
        assert np.array_equal(grid, b[key], equal_nan=True), key


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
                  tuning=PHENO_TUNING, config=cfg, keep_samples=True,
                  **EVERY_GRID)
        r1 = fit_brick(brick, workers=1, **kw)
        r2 = fit_brick(brick, workers=2, **kw)
        r5 = fit_brick(brick, workers=5, **kw)
        for other in (r2, r5):
            assert np.array_equal(r1.samples, other.samples, equal_nan=True)
            assert_grids_equal(r1.grids, other.grids)
            assert np.array_equal(r1.acceptance, other.acceptance, equal_nan=True)
            assert np.array_equal(r1.n_obs, other.n_obs)
            assert r1.skipped == other.skipped

    def test_single_pixel_equivalence(self, spec, fit_inputs):
        brick, cfg = fit_inputs
        r = fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING, cfg,
                      keep_samples=True)
        row, col = 1, 2
        from lspfit import ObservationSeries

        series = ObservationSeries(brick.doys.astype(float),
                                   brick.values[row, col].astype(np.float64))
        direct = run_chain(
            BETA, series, spec, standard_starting(), PHENO_TUNING,
            replace(cfg, seed=pixel_seed(cfg.seed, row, col, brick.cols)),
        )
        assert np.array_equal(direct.samples, r.samples[row, col])
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
                      cfg, mask=mask, min_obs=9, keep_samples=True)
        fitted = r.fitted_mask()
        assert not fitted[0, 0]          # masked out
        assert not fitted[0, 1] and not fitted[1, 0]
        assert fitted[0, 2] and fitted[1, 1] and fitted[1, 2]
        skipped = {(s[0], s[1]): s[2] for s in r.skipped}
        assert set(skipped) == {(0, 1), (1, 0)}
        assert "9" in skipped[(1, 0)]    # reason mentions the threshold
        assert np.all(np.isnan(r.samples[0, 0]))
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

    @pytest.mark.parametrize("caller", ["fit_brick", "run_lockstep",
                                        "run_chain"])
    def test_start_outside_support_names_the_values(self, spec, fit_inputs,
                                                    caller):
        brick, cfg = fit_inputs
        bad = ParamVector(CurveParams(0.2, 0.9, 0.25, 100.0, 1e-4, 0.25,
                                      200.0), NoiseParam(4e-3))
        t = np.tile(brick.doys, (2, 1))
        y = brick.values[0, :2].astype(np.float64)
        calls = {
            "fit_brick": lambda: fit_brick(brick, BETA, spec, bad,
                                           PHENO_TUNING, cfg),
            "run_lockstep": lambda: run_lockstep(BETA, t, y, spec, bad,
                                                 PHENO_TUNING, cfg, [1, 2]),
            "run_chain": lambda: run_chain(BETA, ObservationSeries(t[0], y[0]),
                                           spec, bad, PHENO_TUNING, cfg),
        }
        message = ("starting values must lie strictly inside the prior "
                   "support: alpha=[0.2, 0.9, 0.25, 100.0, 0.0001, 0.25, "
                   "200.0], sigma2=0.004")
        with pytest.raises(ValueError) as err:
            calls[caller]()
        assert str(err.value) == message

    def test_missing_layers_leave_pixel_unchanged(self, spec, fit_inputs):
        brick, cfg = fit_inputs
        r0 = fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING, cfg,
                       keep_samples=True)
        vals = np.concatenate(
            [np.array(brick.values), np.full((2, 3, 2), np.nan, np.float32)],
            axis=2,
        )
        doys = np.concatenate([brick.doys, [5.0, 6.0]])
        r1 = fit_brick(Brick(vals, doys), BETA, spec, standard_starting(),
                       PHENO_TUNING, cfg, keep_samples=True)
        assert np.array_equal(r0.samples, r1.samples, equal_nan=True)

    def test_grids_without_samples_equal_grids_with(self, spec, fit_inputs):
        brick, cfg = fit_inputs
        mask = np.ones((2, 3), dtype=bool)
        mask[0, 1] = False
        kw = dict(kind=BETA, spec=spec, starting=standard_starting(),
                  tuning=PHENO_TUNING, config=cfg, mask=mask, **EVERY_GRID)
        kept = fit_brick(brick, keep_samples=True, **kw)
        r = fit_brick(brick, **kw)
        assert r.samples is None
        assert list(r.grids) == [(fn, st) for fn in FUNCTIONALS
                                 for st in STATISTICS]
        assert_grids_equal(r.grids, kept.grids)
        assert np.array_equal(r.acceptance, kept.acceptance, equal_nan=True)
        assert (r.rows, r.cols, r.retained_count) == (2, 3, 150)
        assert r.chain_at(0, 1) is None  # masked: no draws needed
        with pytest.raises(ValueError, match="keep_samples=True"):
            r.chain_at(0, 0)
        with pytest.raises(ValueError, match="keep_samples=True"):
            summarize_brick(r, "alpha4", "median")

    @pytest.mark.parametrize("request_, message", [
        (dict(functionals=["alpha4", "verdancy"], statistics=["median"]),
         "unknown functional 'verdancy'"),
        (dict(functionals=["alpha4"], statistics=["median", "mode"]),
         "unknown statistic 'mode'"),
        (dict(functionals=["alpha4"], statistics=["median", "sd"],
              config=ChainConfig(1200, sub_start=1200, seed=99)),
         "statistic sd needs at least 2 retained draws"),
    ], ids=["functional", "statistic", "sd-one-draw"])
    def test_bad_request_raises_before_any_chain(self, spec, fit_inputs,
                                                 monkeypatch, request_,
                                                 message):
        brick, cfg = fit_inputs

        def unreachable(*args):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(lspfit.brick, "run_lockstep", unreachable)
        monkeypatch.setattr(lspfit.brick, "run_chain", unreachable)
        kw = {"config": cfg, **request_}
        with pytest.raises(ValueError) as err:
            fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING,
                      **kw)
        assert message in str(err.value)

    def test_memory_scales_with_fitted_pixels(self, spec):
        # a 4 x 4 mask of a 200 x 200 x 23 brick: a dense cube of its draws
        # would take 200 * 200 * 20 draws * 64 bytes = 51 MB
        rows = cols = 200
        values = np.random.default_rng(3).uniform(
            0.1, 0.9, (rows, cols, len(DOYS))).astype(np.float32)
        brick = Brick(values, DOYS)
        mask = np.zeros((rows, cols), dtype=bool)
        mask[100:104, 50:54] = True
        cfg = ChainConfig(60, sub_start=21, sub_thin=2, seed=4)
        tracemalloc.start()
        try:
            r = fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING,
                          cfg, mask=mask, functionals=["alpha4", "auc"],
                          statistics=["median", "sd"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.retained_count == 20 and r.fitted_mask().sum() == 16
        assert np.isfinite(r.grids["auc", "sd"][mask]).all()
        bound = 64 * 16 * 20 + 16 * values.size + 2**20
        assert peak <= bound, f"peak {peak} bytes > {bound}"

    def test_per_pixel_error_logged_not_raised(self, spec, fit_inputs):
        # A value of exactly 1.0 is data the Beta likelihood cannot produce:
        # the log-target is -inf at the start and at every proposal, which
        # rejects rather than raises. The pixel keeps its starting vector
        # with acceptance 0, counts as fitted and is not listed in skipped.
        # A pixel whose chain raises is test_failing_pixel_is_skipped_alone.
        brick, cfg = fit_inputs
        vals = np.array(brick.values)
        vals[0, 0, 0] = 1.0
        r = fit_brick(Brick(vals, brick.doys), BETA, spec, standard_starting(),
                      PHENO_TUNING, cfg)
        assert r.fitted_mask()[0, 0]
        assert r.skipped == ()
        assert r.acceptance[0, 0, 0] == 0.0

    def test_failing_pixel_is_skipped_alone(self, spec, fit_inputs,
                                            monkeypatch):
        # lockstep fails on the block, then run_chain raises for one pixel
        # of the pixel-by-pixel refit
        brick, cfg = fit_inputs
        kw = dict(kind=BETA, spec=spec, starting=standard_starting(),
                  tuning=PHENO_TUNING, config=cfg, keep_samples=True,
                  **EVERY_GRID)
        normal = fit_brick(brick, **kw)
        bad_seed = pixel_seed(cfg.seed, 1, 2, brick.cols)
        chain = lspfit.brick.run_chain

        def failing_lockstep(*args):
            raise FloatingPointError("overflow in exp")

        def failing_chain(*args):
            if args[-1].seed == bad_seed:
                raise ZeroDivisionError("no draws")
            return chain(*args)
        monkeypatch.setattr(lspfit.brick, "run_lockstep", failing_lockstep)
        monkeypatch.setattr(lspfit.brick, "run_chain", failing_chain)
        r = fit_brick(brick, **kw)

        assert r.skipped == ((1, 2, "ZeroDivisionError: no draws"),)
        fitted = r.fitted_mask()
        assert set(zip(*np.nonzero(~fitted))) == {(1, 2)}
        assert np.all(np.isnan(r.samples[1, 2]))
        assert np.all(np.isnan(r.acceptance[1, 2]))
        assert np.array_equal(r.samples[fitted], normal.samples[fitted])
        assert np.array_equal(r.acceptance[fitted], normal.acceptance[fitted])
        assert r.grids.keys() == normal.grids.keys()
        for key, grid in r.grids.items():
            assert np.isnan(grid[1, 2]), key
            assert np.array_equal(grid[fitted], normal.grids[key][fitted]), key


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


def assert_every_pixel_equals_run_chain(spec, kind, n, monkeypatch):
    """Fit ``lockstep_brick`` with ``n``-iteration chains on 1 and 2
    workers, and check that its two large groups ran in lockstep and that
    every pixel equals its own ``run_chain``."""
    brick = lockstep_brick()
    cfg = ChainConfig(n, sub_start=n // 2, sub_thin=3, seed=17, batch_len=50)
    lockstep_calls = []

    def counted(*args):  # counts lockstep calls that return
        out = run_lockstep(*args)
        lockstep_calls.append(len(args[-1]))
        return out
    run_lockstep = lspfit.brick.run_lockstep
    monkeypatch.setattr(lspfit.brick, "run_lockstep", counted)
    results = [fit_brick(brick, kind, spec, standard_starting(),
                         PHENO_TUNING, cfg, workers=w, keep_samples=True)
               for w in (1, 2)]
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


class TestLockstep:
    # rows whose log-target is -inf before and after a step reject quietly
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
    def test_every_pixel_equals_run_chain(self, spec, kind, monkeypatch):
        # crosses a pre-draw chunk boundary
        assert_every_pixel_equals_run_chain(spec, kind, PREDRAW_CHUNK + 37,
                                            monkeypatch)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
    def test_one_chunk_pixels_equal_run_chain(self, spec, kind, monkeypatch):
        # one pre-draw chunk: each chain's one generator draws every value
        assert_every_pixel_equals_run_chain(spec, kind, 100, monkeypatch)

    def test_lockstep_failure_is_logged_and_refit(self, spec, fit_inputs,
                                                  monkeypatch, caplog):
        brick, cfg = fit_inputs
        kw = dict(kind=BETA, spec=spec, starting=standard_starting(),
                  tuning=PHENO_TUNING, config=cfg, workers=1,
                  keep_samples=True, **EVERY_GRID)
        normal = fit_brick(brick, **kw)

        def failing(*args):
            raise FloatingPointError("overflow in exp")
        monkeypatch.setattr(lspfit.brick, "run_lockstep", failing)
        with caplog.at_level(logging.WARNING, logger="lspfit.brick"):
            r = fit_brick(brick, **kw)

        # one block of every pixel: one warning, then the same chains
        logged = [rec.getMessage() for rec in caplog.records
                  if rec.name == "lspfit.brick"]
        assert len(logged) == 1
        assert "FloatingPointError: overflow in exp" in logged[0]
        assert f"block of {brick.rows * brick.cols} pixels" in logged[0]
        assert np.array_equal(r.samples, normal.samples, equal_nan=True)
        assert_grids_equal(r.grids, normal.grids)
        assert np.array_equal(r.acceptance, normal.acceptance, equal_nan=True)
        assert r.skipped == ()

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
                  tuning=PHENO_TUNING, config=cfg, keep_samples=True,
                  **EVERY_GRID)
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
        assert np.array_equal(r.samples[fitted], serial.samples[fitted])
        assert np.array_equal(r.acceptance[fitted], serial.acceptance[fitted])
        assert r.grids.keys() == serial.grids.keys()
        for key, grid in r.grids.items():
            assert np.isnan(grid[~fitted]).all(), key
            assert np.array_equal(grid[fitted], serial.grids[key][fitted]), key


@pytest.fixture(scope="module")
def result(spec):
    brick = synthetic_brick(2, 2, DOYS, seed=5, georef=(500.0, 800.0, 10.0))
    cfg = ChainConfig(1500, sub_start=751, sub_thin=4, seed=5)
    return fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING, cfg,
                     keep_samples=True)


@pytest.fixture(scope="module")
def wide_result(spec):
    """A fit of more than BLOCK_CAP pixels on short chains, with pixel
    (0, 0) masked, pixel (0, 1) skipped for too few observations, and pixel
    (1, 1) with fewer observations than the rest, alone in its block; it
    keeps its samples and has every grid."""
    side = 17
    vals = np.array(synthetic_brick(side, side, DOYS, seed=13).values)
    vals[0, 1, 5:] = np.nan
    vals[1, 1, 0] = np.nan
    mask = np.ones((side, side), dtype=bool)
    mask[0, 0] = False
    cfg = ChainConfig(80, sub_start=41, sub_thin=2, seed=13)
    r = fit_brick(Brick(vals, DOYS), BETA, spec, standard_starting(),
                  PHENO_TUNING, cfg, mask=mask, keep_samples=True,
                  **EVERY_GRID)
    fitted = r.fitted_mask()
    assert not fitted[0, 0] and not fitted[0, 1]
    assert fitted.sum() > BLOCK_CAP
    return r


class TestSummarizeBrick:
    def test_matches_per_pixel_loop(self, wide_result):
        fitted = wide_result.fitted_mask()
        for functional in FUNCTIONALS:
            grids = {st: summarize_brick(wide_result, functional, st)
                     for st in STATISTICS}
            for st, grid in grids.items():
                assert np.isnan(grid[~fitted]).all(), (functional, st)
            for r, c in zip(*np.nonzero(fitted)):
                s = summarize(functional_samples(wide_result.chain_at(r, c),
                                                 functional))
                assert grids["width95"][r, c] == s.q975 - s.q025, functional
                for st in ("mean", "sd", "median", "q025", "q975"):
                    assert grids[st][r, c] == getattr(s, st), (functional, st)

    def test_equals_the_grids_of_the_fit(self, wide_result):
        for (functional, st), grid in wide_result.grids.items():
            assert np.array_equal(summarize_brick(wide_result, functional, st),
                                  grid, equal_nan=True), (functional, st)

    def test_sequence_of_statistics(self, wide_result, monkeypatch):
        calls = []

        def counted(chain, functional, q=None):
            calls.append(chain.retained_count)
            return functional_samples(chain, functional, q)
        monkeypatch.setattr(lspfit.brick, "functional_samples", counted)
        names = ["width95", "mean", "median"]
        grids = summarize_brick(wide_result, "auc", names)
        # the AUC is evaluated once per chunk of at most BLOCK_CAP pixels
        n_fit = int(wide_result.fitted_mask().sum())
        m = wide_result.retained_count
        assert calls == [BLOCK_CAP * m, (n_fit - BLOCK_CAP) * m]
        assert list(grids) == names
        for st, grid in grids.items():
            assert np.array_equal(grid, summarize_brick(wide_result, "auc", st),
                                  equal_nan=True)

    def test_unknown_names(self, result):
        with pytest.raises(ValueError, match="functional"):
            summarize_brick(result, "verdancy", "median")
        with pytest.raises(ValueError, match="statistic"):
            summarize_brick(result, "alpha1", "mode")

    def test_constant_chains_give_zero_sd(self, result):
        samples = result.samples.copy()
        samples[:] = samples[:, :, :1, :]  # every retained draw identical
        const = replace(result, samples=samples)
        sd = summarize_brick(const, "alpha1", "sd")
        assert np.all(sd == 0.0)
        auc_med = summarize_brick(const, "auc", "median")
        assert np.all(np.isfinite(auc_med))

    def test_constant_curve_auc_identity(self, result):
        samples = result.samples.copy()
        samples[..., 0] = 0.25
        samples[..., 1] = 0.0
        samples[..., 4] = 0.0
        const = replace(result, samples=samples)
        auc = summarize_brick(const, "auc", "median")
        assert np.all(auc == 0.25 * 364.0)

    def test_unfitted_pixels_are_missing(self, spec):
        brick = synthetic_brick(1, 2, DOYS, seed=6)
        mask = np.array([[True, False]])
        cfg = ChainConfig(800, sub_start=401, sub_thin=4, seed=6)
        r = fit_brick(brick, BETA, spec, standard_starting(), PHENO_TUNING,
                      cfg, mask=mask, keep_samples=True)
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

    @pytest.mark.parametrize("georef", [None, (100.0, 200.0, 10.0),
                                        (-78.5, 36.1, 0.0003)])
    def test_matches_the_per_cell_writer(self, tmp_path, georef):
        grid = np.array([
            [1.5, np.nan, np.inf, -np.inf, -0.0],
            [5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e-300, 0.1],
            [1 / 3, -2.5, 1e16 + 2, 123456789.123456789, 0.0],
        ])
        with np.errstate(over="ignore"):
            single = grid.astype(np.float32)  # 1e300 becomes inf
        for values in (grid, grid.T, single, grid[:1]):
            path = tmp_path / "grid.csv"
            write_grid_csv(values, path, georef)
            assert path.read_text() == per_cell_grid_csv(values, georef)


def per_cell_grid_csv(grid, georef) -> str:
    """The text write_grid_csv has always written, formatted cell by cell."""
    out = ["row,col,x,y,value\n"]
    for r in range(grid.shape[0]):
        for c in range(grid.shape[1]):
            if georef is not None:
                x = georef[0] + c * georef[2]
                y = georef[1] - r * georef[2]
            else:
                x, y = float(c), float(r)
            v = grid[r, c]
            sval = "NA" if not np.isfinite(v) else f"{v:.17g}"
            out.append(f"{r},{c},{x:.17g},{y:.17g},{sval}\n")
    return "".join(out)
