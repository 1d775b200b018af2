"""Raster bricks: data model, binary round-trip, CSV ingestion, parallel fitting.

A Brick is a rows x cols x layers stack of vegetation-index values with one
day-of-year per layer and NaN as the missing marker. Fitting gives every
requested pixel an independent Metropolis chain on its non-missing
(doy, value) pairs, seeded by a splitmix64 mix of the base seed and the
pixel's linear index. Pixels are grouped by observation count and each group
is cut into blocks of at most ``BLOCK_CAP`` pixels, whose chains advance in
lockstep (:func:`lspfit.sampler.run_lockstep`); a group of fewer than
``LOCKSTEP_MIN`` pixels is fitted pixel by pixel with
:func:`lspfit.sampler.run_chain`. Either way each pixel's chain is the one
``run_chain`` gives for its seed, and seeds depend only on (row, col), so
results are bit-identical for any worker count, block cut and scheduling
order. Each block is reduced to the requested grid values where it is
fitted, so a fit holds draws only for the blocks in flight unless it is
asked to keep them.

The on-disk `LSPB` format is fixed bit-exactly:

* magic bytes ``LSPB``; format version as u16 little-endian,
* rows, cols, layers as u32 little-endian,
* a georeference flag byte (0 or 1) followed by three float64
  (x-origin, y-origin, cell size; zeros when the flag is 0),
* the per-layer days of year as float64,
* the values as little-endian float32, row-major with layer innermost
  (row, then col, then layer); missing values are quiet NaN.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import stat
import struct
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from itertools import islice, repeat
from operator import attrgetter, itemgetter

import numpy as np

from .curve import _check_doys, _in_doy_range
from .likelihood import LikelihoodKind, ObservationSeries
from .prior import ParamVector, PriorSpec, _FlatPrior
from .posterior import (
    FUNCTIONALS,
    STATISTICS,
    QuadratureConfig,
    functional_samples,
    sample_statistics,
)
from .sampler import (_MASK64, Chain, ChainConfig, TuningSpec, _check_start,
                      run_chain, run_lockstep, subsample_indices)

__all__ = [
    "Brick",
    "BrickFitResult",
    "pixel_seed",
    "write_brick",
    "read_brick",
    "ingest_long_csv",
    "fit_brick",
    "summarize_brick",
    "write_grid_csv",
    "grid_to_brick",
    "STATISTICS",
]

_log = logging.getLogger("lspfit.brick")

_MAGIC = b"LSPB"
_VERSION = 1
_GAMMA = 0x9E3779B97F4A7C15

# Most pixels one lockstep block holds. A Beta block on 23 days cost, per
# pixel and iteration, 5.6 us at 32 pixels, 3.5 at 128, 3.2 at 256, 3.0 at
# 512 and 3.0 at 1 024 (best of 7 on a 2-core host, CHANGES.md): 256 is
# within 8% of the best while a block's pre-draws stay at 19 MB.
BLOCK_CAP = 256
# Fewest pixels of one observation count fitted in lockstep. Per pixel and
# iteration, blocks of 3 cost 24 us and blocks of 4 18 us, against 22 us for
# run_chain on the same host and series (CHANGES.md).
LOCKSTEP_MIN = 4


@dataclass(frozen=True)
class Brick:
    """A rows x cols x layers VI stack with per-layer day-of-year metadata.

    Parameters
    ----------
    values : array-like
        Shape (rows, cols, layers); stored as float32 with NaN marking
        missing observations.
    doys : array-like
        Day of year per layer, each in [1, 366].
    georef : tuple or None
        Optional (x-origin, y-origin, cell-size) in map units.
    """

    values: np.ndarray
    doys: np.ndarray
    georef: tuple[float, float, float] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float32)
        doys = _check_doys(self.doys)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "doys", doys)
        if values.ndim != 3 or min(values.shape) < 1:
            raise ValueError(
                f"values must be a non-empty (rows, cols, layers) array, "
                f"got shape {values.shape}"
            )
        if doys.ndim != 1 or doys.size != values.shape[2]:
            raise ValueError(
                f"doys length {doys.size} must equal layer count "
                f"{values.shape[2]}"
            )
        if self.georef is not None:
            g = tuple(float(v) for v in self.georef)
            if len(g) != 3 or not all(np.isfinite(g)):
                raise ValueError(
                    "georef must be three finite numbers (x0, y0, cell)"
                )
            object.__setattr__(self, "georef", g)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def layers(self) -> int:
        return self.values.shape[2]


def pixel_seed(base_seed: int, row: int, col: int, cols: int) -> int:
    """Derive a pixel's 64-bit chain seed from the base seed and its position.

    The derivation is fixed bit-exactly so independent implementations can
    reproduce per-pixel chains. With ``index = row*cols + col`` and all
    arithmetic modulo 2**64::

        state = base_seed + (index + 1) * 0x9E3779B97F4A7C15
        state ^= state >> 30;  state *= 0xBF58476D1CE4E5B9
        state ^= state >> 27;  state *= 0x94D049BB133111EB
        state ^= state >> 31

    (the splitmix64 finalizer applied to the (index+1)-th stream increment;
    the +1 keeps pixel (0, 0) from reusing the base seed's own stream). The
    result depends only on (base_seed, row, col, cols), never on scheduling.
    """
    index = row * cols + col
    z = (int(base_seed) + (index + 1) * _GAMMA) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def write_brick(brick: Brick, path) -> None:
    """Write a Brick in the LSPB binary format (see module docstring)."""
    flag = 0 if brick.georef is None else 1
    g = brick.georef if brick.georef is not None else (0.0, 0.0, 0.0)
    header = struct.pack(
        "<4sHIIIB3d", _MAGIC, _VERSION, brick.rows, brick.cols, brick.layers,
        flag, g[0], g[1], g[2],
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(brick.doys.astype("<f8").tobytes())
        fh.write(np.ascontiguousarray(brick.values, dtype="<f4").tobytes())


def read_brick(path) -> Brick:
    """Read an LSPB file; the exact inverse of :func:`write_brick`.

    The days and values are read straight into their final arrays.

    Raises
    ------
    ValueError
        bad magic bytes, unsupported format version, or a truncated or
        oversized file.
    """
    head_size = struct.calcsize("<4sHIIIB3d")
    with open(path, "rb") as fh:
        head = fh.read(head_size)
        if len(head) < head_size:
            raise ValueError(f"truncated file: {len(head)} bytes is too short "
                             "for an LSPB header")
        magic, version, rows, cols, layers, flag, gx, gy, gc = struct.unpack(
            "<4sHIIIB3d", head
        )
        if magic != _MAGIC:
            raise ValueError(f"bad magic bytes {magic!r}; not an LSPB file")
        if version != _VERSION:
            raise ValueError(
                f"unsupported format version {version}; this reader handles "
                f"version {_VERSION}"
            )
        expected = head_size + 8 * layers + 4 * rows * cols * layers
        # a regular file's size is checked before the arrays are allocated;
        # a pipe's is counted as it is read
        st = os.fstat(fh.fileno())
        size = st.st_size if stat.S_ISREG(st.st_mode) else expected
        if size == expected:
            doys = np.empty(layers, dtype="<f8")
            values = np.empty((rows, cols, layers), dtype="<f4")
            size = (head_size + fh.readinto(doys) + fh.readinto(values)
                    + len(fh.read()))
    if size != expected:
        kind = "truncated file" if size < expected else "trailing data"
        raise ValueError(f"{kind}: expected {expected} bytes, got {size}")
    georef = (gx, gy, gc) if flag else None
    return Brick(values, doys, georef)


# Data rows of a long CSV parsed per chunk; its row lists are the only
# per-row Python objects held. A pooled ingest of the bench's 0.73 M-row CSV
# took, median of 7 on a 2-core host, 1.25 s at 256 rows, 1.44 s at 512,
# 1.85 s at 1 024, 1.72 s at 2 048, 2.4 s at 16 384 and 4.5 s at 65 536
# (CHANGES.md); a larger chunk keeps more row objects alive at once.
CSV_CHUNK = 256


def _parse_column(strings, convert, dtype):
    """``convert`` applied to every string as a ``dtype`` array, and the
    mask of strings it fails on (ValueError, or a value that ``dtype`` cannot
    hold); failed entries hold 0."""
    n = len(strings)
    try:
        return np.fromiter(map(convert, strings), dtype, n), np.zeros(n, bool)
    except (ValueError, OverflowError):
        pass
    out, bad = np.zeros(n, dtype), np.zeros(n, bool)
    for i, s in enumerate(strings):
        try:
            out[i] = convert(s)
        except (ValueError, OverflowError):
            bad[i] = True
    return out, bad


def _float_or_nan(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        return math.nan


def _csv_chunks(reader, n_fields: int, doy_i: int, value_i: int,
                year_i: int | None = None, xy: tuple | None = None):
    """Yield the non-empty data rows of a long observation CSV read by
    ``reader`` (a ``csv.reader`` past the header), ``CSV_CHUNK`` rows at a
    time, as ``(fields, cols)``: ``fields`` holds one tuple of strings per
    CSV column, and ``cols`` the typed columns ``doy`` (float64), ``value``
    (float64, NaN where unparseable), ``year`` (int64, when ``year_i`` is
    given) and ``x`` and ``y`` (float64, when ``xy`` gives their indices).

    Both :func:`ingest_long_csv` and ``lspfit fit`` read rows through here,
    so they reject the same rows with the same messages. The first bad row
    in file order raises ``ValueError("malformed row at line N: ...")``,
    naming the first of these it fails: ``n_fields`` fields, a doy that
    parses, a doy in [1, 366], a year that parses as an int64, x and y that
    parse, and finite x and y.
    """
    line_num = map(attrgetter("line_num"), repeat(reader))
    numbered = filter(itemgetter(0), zip(reader, line_num))
    while chunk := list(islice(numbered, CSV_CHUNK)):
        rows, lines = zip(*chunk)
        wrong = np.fromiter(map(len, rows), np.intp, len(rows)) != n_fields
        n = int(wrong.argmax()) if wrong.any() else len(rows)
        fields = list(zip(*rows[:n])) if n else [()] * n_fields
        doy, bad = _parse_column(fields[doy_i], float, np.float64)
        checks = [(bad, "unparseable doy field"),
                  (~_in_doy_range(doy), "doy must be in [1, 366]")]
        cols = {"doy": doy, "value": np.fromiter(
            map(_float_or_nan, fields[value_i]), np.float64, n)}
        if year_i is not None:
            cols["year"], bad = _parse_column(fields[year_i], int, np.int64)
            checks.append((bad, "unparseable year field"))
        if xy is not None:
            (cols["x"], bad_x), (cols["y"], bad_y) = (
                _parse_column(fields[i], float, np.float64) for i in xy)
            checks += [
                (bad_x | bad_y, "unparseable x/y field"),
                (~(np.isfinite(cols["x"]) & np.isfinite(cols["y"])),
                 "coordinates must be finite"),
            ]
        failed = np.logical_or.reduce([bad for bad, _ in checks])
        if failed.any():
            i = int(failed.argmax())
            message = next(msg for bad, msg in checks if bad[i])
            raise ValueError(f"malformed row at line {lines[i]}: {message}")
        if n < len(rows):
            raise ValueError(
                f"malformed row at line {lines[n]}: expected {n_fields} "
                f"fields, got {len(rows[n])}"
            )
        yield fields, cols


def _lattice_positions(coords, axis: str):
    """Map coordinates onto integer lattice positions.

    Gaps between the sorted distinct coordinates must be integer multiples
    of the smallest gap (1e-6 relative tolerance), so missing interior
    rows/columns are fine but off-lattice points are an error. Returns
    (position of each coordinate, count, cell or None).
    """
    u, inverse = np.unique(coords, return_inverse=True)
    if u.size == 1:
        return inverse, 1, None
    gaps = np.diff(u)
    base = float(gaps.min())
    if base <= 0:
        raise ValueError(f"irregular grid: duplicate {axis} coordinates")
    rel = (u - u[0]) / base
    pos = np.round(rel)
    if np.max(np.abs(rel - pos)) > 1e-6 * max(1.0, float(pos[-1])):
        raise ValueError(
            f"irregular grid: {axis} coordinates do not lie on a regular "
            f"lattice (seen {u.tolist()[:8]}...)"
        )
    return pos.astype(np.intp)[inverse], int(pos[-1]) + 1, base


def _layers(year, doy):
    """``(layer, layer_year, layer_doy)``: each record's layer, the rank of
    its (year, doy) pair among the distinct pairs sorted by year, then doy,
    and the year and doy of each layer."""
    order = np.lexsort((doy, year))
    year, doy = year[order], doy[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (year[1:] != year[:-1]) | (doy[1:] != doy[:-1])
    layer = np.empty(order.size, dtype=np.intp)
    layer[order] = np.cumsum(first) - 1
    return layer, year[first], doy[first]


def _scatter(slot, value, size: int) -> np.ndarray:
    """A float32 array of ``size`` holding at each slot the value of the last
    record (in file order) that names it, and NaN where none does. The
    winning record is chosen by index, so the result does not depend on the
    order in which numpy writes repeated indices."""
    last = np.full(size, -1, dtype=np.intp)
    np.maximum.at(last, slot, np.arange(slot.size))
    out = np.full(size, np.nan, dtype=np.float32)
    hit = last >= 0
    out[hit] = value[last[hit]]
    return out


def ingest_long_csv(path, *, value_col="evi", x_col="x", y_col="y",
                    doy_col="doy", year_col="year", mode="pooled",
                    clamp_eps: float | None = None):
    """Pivot a long observation CSV into a Brick (or one Brick per year).

    The header must name the x, y, doy, and value columns (defaults match
    ``pixel,x,y,sat,year,doy,evi`` files; extra columns are ignored). Cells
    come from the regular grid inferred from the distinct x and y values
    (x ascending -> columns, y descending -> rows). Unparseable or ``NA``
    VI values become missing markers, never errors. A structurally broken
    row (wrong field count, unparseable x/y/doy/year, a year outside int64,
    doy outside [1, 366]) is an error naming the line number. When two
    records name the same cell and layer, the later one in the file wins.

    Rows are read in chunks of ``CSV_CHUNK`` into typed columns (x, y and
    doy float64, year int64, value float32), so memory holds about 36
    bytes per record, not a Python object per record, plus the brick and,
    while it is filled, an index array twice its size.

    Parameters
    ----------
    mode : str
        ``"pooled"``: one Brick whose layers are the distinct (year, doy)
        pairs, sorted, each layer carrying its doy as metadata (so the same
        doy observed in two years stays two layers); returns a Brick.
        ``"annual"``: one Brick per year with layers = that year's distinct
        doys; returns a dict mapping year to Brick and requires the year
        column.
    clamp_eps : float, optional
        When set, finished values <= 0 are raised to ``clamp_eps`` and
        values >= 1 lowered to ``1 - clamp_eps`` (for Beta-likelihood
        fitting of data that touches its bounds); it must lie in
        (0, 0.5). Default: no clamping.

    Raises
    ------
    ValueError
        ``clamp_eps`` outside (0, 0.5), empty file, missing required
        columns, malformed rows (with line number), or off-lattice
        coordinates.
    """
    if mode not in ("pooled", "annual"):
        raise ValueError(f"mode must be 'pooled' or 'annual', got {mode!r}")
    if clamp_eps is not None and not 0.0 < clamp_eps < 0.5:
        raise ValueError(f"clamp_eps must lie in (0, 0.5), got {clamp_eps}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty file: {path}") from None
        header = [h.strip() for h in header]
        col_idx = {}
        for name, required in ((x_col, True), (y_col, True), (doy_col, True),
                               (value_col, True), (year_col, False)):
            if name in header:
                col_idx[name] = header.index(name)
            elif required:
                raise ValueError(
                    f"missing required column {name!r}; header has {header}"
                )
        has_year = year_col in col_idx
        if mode == "annual" and not has_year:
            raise ValueError(
                f"annual mode requires a {year_col!r} column; header has "
                f"{header}"
            )

        parts = {"x": [], "y": [], "doy": [], "value": [], "year": []}
        for _, cols in _csv_chunks(reader, len(header), col_idx[doy_col],
                                   col_idx[value_col], col_idx.get(year_col),
                                   (col_idx[x_col], col_idx[y_col])):
            v = cols["value"]
            if clamp_eps is not None:
                finite = np.isfinite(v)
                v[finite & (v <= 0.0)] = clamp_eps
                v[finite & (v >= 1.0)] = 1.0 - clamp_eps
            cols["value"] = v.astype(np.float32)
            for name, col in cols.items():
                parts[name].append(col)

    if not parts["doy"]:
        raise ValueError(f"no data rows in {path}")
    # one column at a time, so at most one column is held twice
    x = np.concatenate(parts.pop("x"))
    col, n_cols, cell_x = _lattice_positions(x, "x")
    y = np.concatenate(parts.pop("y"))
    row, n_rows, cell_y = _lattice_positions(y, "y")
    cell = cell_x if cell_x is not None else cell_y
    georef = (float(x.min()), float(y.max()), cell) if cell is not None else None
    del x, y
    cell_index = (n_rows - 1 - row) * n_cols + col
    del row, col
    year = (np.concatenate(parts.pop("year")) if has_year
            else np.zeros(cell_index.size, dtype=np.int64))
    layer, layer_year, layer_doy = _layers(year,
                                           np.concatenate(parts.pop("doy")))
    value = np.concatenate(parts.pop("value"))

    def build(records, layers):
        doys = layer_doy[layers]
        slot = cell_index[records] * doys.size + (layer[records] - layers.start)
        vals = _scatter(slot, value[records], n_rows * n_cols * doys.size)
        return Brick(vals.reshape(n_rows, n_cols, doys.size), doys, georef)

    if mode == "pooled":
        return build(slice(None), slice(0, layer_doy.size))
    years, starts = np.unique(layer_year, return_index=True)
    ends = [*starts[1:].tolist(), layer_year.size]
    return {yr: build(year == yr, slice(lo, hi))
            for yr, lo, hi in zip(years.tolist(), starts.tolist(), ends)}


@dataclass(frozen=True)
class BrickFitResult:
    """Per-pixel grids and bookkeeping from :func:`fit_brick`.

    ``grids`` maps each requested (functional, statistic) pair to its
    (rows, cols) grid; ``acceptance`` has shape (rows, cols, 2) holding the
    overall and last-batch acceptance fractions; ``n_obs`` counts each
    pixel's non-missing observations; ``skipped`` lists (row, col, reason)
    for every requested pixel that was not fitted; ``retained_count`` is the
    number of draws each chain retains. ``samples`` holds the (rows, cols,
    retained, 8) draws when the fit kept them, and is None otherwise.
    Unfitted pixels are NaN in every array.
    """

    grids: dict
    acceptance: np.ndarray
    n_obs: np.ndarray
    skipped: tuple
    retained_count: int
    samples: np.ndarray | None = None
    georef: tuple[float, float, float] | None = None

    @property
    def rows(self) -> int:
        return self.acceptance.shape[0]

    @property
    def cols(self) -> int:
        return self.acceptance.shape[1]

    def fitted_mask(self) -> np.ndarray:
        """Boolean grid: True where a chain was fitted."""
        return np.isfinite(self.acceptance[:, :, 0])

    def _draws(self) -> np.ndarray:
        if self.samples is None:
            raise ValueError("this result holds no draws; fit the brick with "
                             "keep_samples=True")
        return self.samples

    def chain_at(self, row: int, col: int) -> Chain | None:
        """The pixel's Chain, or None if it was not fitted. A fitted pixel's
        chain needs a result that kept its samples."""
        acc = self.acceptance[row, col]
        if not np.isfinite(acc[0]):
            return None
        return Chain(np.array(self._draws()[row, col]), float(acc[0]),
                     float(acc[1]))


def _check_request(functionals, statistics, retained: int) -> None:
    """Raise ValueError naming the first unknown functional or statistic, or
    for the sd statistic with fewer than 2 retained draws."""
    for fn in functionals:
        if fn not in FUNCTIONALS:
            raise ValueError(
                f"unknown functional {fn!r}; expected one of {FUNCTIONALS}"
            )
    for st in statistics:
        if st not in STATISTICS:
            raise ValueError(
                f"unknown statistic {st!r}; expected one of {STATISTICS}"
            )
    if "sd" in statistics and retained < 2:
        raise ValueError("statistic sd needs at least 2 retained draws")


def _block_grids(draws, functionals, statistics, q=None) -> dict:
    """``{(functional, statistic): (P,) values}`` of the ``(P, M, 8)`` draws
    of P >= 1 pixels. Each functional is evaluated once on all P*M draws and
    every statistic is reduced from that, as
    :func:`lspfit.posterior.sample_statistics` does for one pixel, so each
    value equals ``summarize`` on that pixel's draws bit for bit."""
    flat = Chain(draws.reshape(-1, 8))
    out = {}
    for fn in functionals:
        v = functional_samples(flat, fn, q).reshape(draws.shape[:2])
        for st, values in sample_statistics(v, statistics).items():
            out[fn, st] = values
    return out


def _fit_block_pooled(task, ctx):
    # looks _fit_block up at call time, so a patch made before the pool
    # forks reaches the workers
    return _fit_block(task, ctx)


def _fit_block(task, ctx):
    """Fit one block of pixels sharing an observation count and reduce it.

    Returns the block record ``(cells, acceptance, values, draws, errors)``
    of the block's fitted pixels: their (row, col) cells, their ``(P, 2)``
    overall and last-batch acceptance, their grid values from
    :func:`_block_grids`, their ``(P, M, 8)`` draws if the request keeps
    samples (else None), and a ``(row, col, reason)`` entry for every pixel
    whose chain raised. If ``run_lockstep`` raises, the block is refitted
    pixel by pixel with ``run_chain``, so one bad pixel fails alone."""
    cells, t, y, seeds = task
    kind, spec, starting, tuning, config, request = ctx
    if len(cells) >= LOCKSTEP_MIN:
        try:
            draws, acc, acc_batch = run_lockstep(
                kind, t, y, spec, starting, tuning, config, seeds)
        except Exception as exc:  # refit pixel by pixel below
            _log.warning("lockstep failed on a block of %d pixels (%s: %s); "
                         "refitting them pixel by pixel", len(cells),
                         type(exc).__name__, exc)
        else:
            return _block_record(cells, draws,
                                 np.stack([acc, acc_batch], axis=1), [],
                                 request)
    fitted, chains, errors = [], [], []
    for i, (r, c) in enumerate(cells):
        try:
            chains.append(run_chain(kind, ObservationSeries(t[i], y[i]), spec,
                                    starting, tuning,
                                    replace(config, seed=seeds[i])))
        except Exception as exc:
            errors.append((r, c, f"{type(exc).__name__}: {exc}"))
            continue
        fitted.append((r, c))
    m = subsample_indices(config).size
    draws = np.array([ch.samples for ch in chains]).reshape(len(chains), m, 8)
    acceptance = np.array([(ch.acc_overall, ch.acc_last_batch)
                           for ch in chains]).reshape(len(chains), 2)
    return _block_record(fitted, draws, acceptance, errors, request)


def _block_record(cells, draws, acceptance, errors, request):
    functionals, statistics, q, keep_samples = request
    values = _block_grids(draws, functionals, statistics, q) if cells else {}
    return cells, acceptance, values, draws if keep_samples else None, errors


def _block_task(brick, finite, cells, base_seed):
    """``(cells, t, y, seeds)`` of a block of pixels with one observation
    count: their days and values as ``(B, count)`` float64 arrays."""
    rows, cols = cells[:, 0], cells[:, 1]
    sel = finite[rows, cols]
    shape = (len(cells), int(sel[0].sum()))
    t = np.broadcast_to(brick.doys, sel.shape)[sel].reshape(shape)
    y = brick.values[rows, cols][sel].reshape(shape).astype(np.float64)
    cells = [tuple(rc) for rc in cells.tolist()]
    seeds = [pixel_seed(base_seed, r, c, brick.cols) for r, c in cells]
    return cells, t, y, seeds


def _fit_pooled(tasks, ctx, workers):
    """Yield the block record of every block task from a process pool, with
    at most ``2 * workers`` blocks in flight. If a worker dies, the blocks
    that finished are kept and every pixel of the others is logged as
    failed."""
    pool = ProcessPoolExecutor(max_workers=workers)
    inflight = {}  # future -> the cells of its block

    def unfinished(cells, exc):
        reason = f"BrokenProcessPool: block not finished: {exc}"
        return [], None, {}, None, [(r, c, reason) for r, c in cells]

    def record(fut, cells):
        try:
            return fut.result()
        except BrokenProcessPool as exc:
            return unfinished(cells, exc)

    try:
        for task in tasks:
            while len(inflight) >= 2 * workers:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for fut in done:
                    yield record(fut, inflight.pop(fut))
            try:
                inflight[pool.submit(_fit_block_pooled, task, ctx)] = task[0]
            except BrokenProcessPool as exc:
                yield unfinished(task[0], exc)
        for fut in list(inflight):
            yield record(fut, inflight.pop(fut))
    finally:
        pool.shutdown()


def fit_brick(brick: Brick, kind: LikelihoodKind, spec: PriorSpec,
              starting: ParamVector, tuning: TuningSpec, config: ChainConfig,
              mask: np.ndarray | None = None, workers: int = 1,
              min_obs: int = 9, functionals=(), statistics=(),
              q: QuadratureConfig | None = None,
              keep_samples: bool = False) -> BrickFitResult:
    """Fit every requested pixel's chain and reduce it to grids;
    deterministic for any worker count.

    Each unmasked pixel with at least ``min_obs`` non-missing observations
    gets the chain :func:`run_chain` gives on its (doy, value) pairs, seeded
    with ``pixel_seed(config.seed, row, col, cols)``. Pixels are fitted in
    blocks of one observation count (see the module docstring), and each
    block is reduced to its grid values where it was fitted, so without
    ``keep_samples`` draws exist only for the blocks in flight. A pixel that
    is skipped (too few observations) or fails is logged in ``skipped`` with
    a reason and left as NaN in the outputs; the run never aborts on a
    pixel, nor on a pool worker that dies.

    Parameters
    ----------
    mask : bool array (rows, cols), optional
        True marks pixels to fit; default all.
    workers : int
        Process count for parallel fitting. Output is bit-identical for any
        value because pixel seeds depend only on pixel position.
    min_obs : int
        Minimum observation count to attempt a fit (>= 1).
    functionals, statistics : sequences of str
        The grids of ``result.grids``: one per (functional, statistic) pair,
        each value the one :func:`summarize_brick` gives. Default none.
    q : QuadratureConfig, optional
        The integration range of ``auc``.
    keep_samples : bool
        Also return the draws as ``result.samples``, a dense (rows, cols,
        retained, 8) float64 array of the whole brick.

    Raises
    ------
    ValueError
        Dimension mismatch between mask and brick, invalid worker or
        min_obs counts, a starting vector outside the prior support, an
        unknown functional or statistic, or sd with fewer than 2 retained
        draws; all before any chain runs.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if min_obs < 1:
        raise ValueError(f"min_obs must be >= 1, got {min_obs}")
    rows, cols = brick.rows, brick.cols
    if mask is None:
        mask = np.ones((rows, cols), dtype=bool)
    else:
        mask = np.asarray(mask)
        if mask.shape != (rows, cols) or mask.dtype != np.bool_:
            raise ValueError(
                f"mask must be a boolean ({rows}, {cols}) array, got "
                f"{mask.dtype} {mask.shape}"
            )
    _check_start(_FlatPrior(spec), starting.to_array().tolist())
    functionals, statistics = tuple(functionals), tuple(statistics)
    m = subsample_indices(config).size
    _check_request(functionals, statistics, m)

    grids = {(fn, st): np.full((rows, cols), np.nan)
             for fn in functionals for st in statistics}
    acceptance = np.full((rows, cols, 2), np.nan)
    samples = np.full((rows, cols, m, 8), np.nan) if keep_samples else None

    finite = np.isfinite(brick.values)
    n_obs_all = finite.sum(axis=2).astype(np.int32)
    n_obs = np.where(mask, n_obs_all, 0).astype(np.int32)

    cells = np.argwhere(mask)  # row-major
    counts = n_obs_all[mask]
    few = counts < min_obs
    skipped = [(r, c, f"too few observations: {k} < min_obs {min_obs}")
               for (r, c), k in zip(cells[few].tolist(), counts[few].tolist())]
    cells, counts = cells[~few], counts[~few]
    # one group per observation count, each in row-major order, cut into
    # near-equal blocks of at most BLOCK_CAP pixels, largest groups first,
    # so the pool ends on small blocks
    order = np.argsort(counts, kind="stable")
    _, starts = np.unique(counts[order], return_index=True)
    groups = np.split(cells[order], starts[1:]) if cells.size else []
    blocks = [part for group in sorted(groups, key=len, reverse=True)
              for part in np.array_split(group, -(-len(group) // BLOCK_CAP))]
    tasks = (_block_task(brick, finite, block, config.seed)
             for block in blocks)

    ctx = (kind, spec, starting, tuning, config,
           (functionals, statistics, q, keep_samples))
    if workers == 1 or len(blocks) <= 1:
        records = (_fit_block(task, ctx) for task in tasks)
    else:
        records = _fit_pooled(tasks, ctx, min(workers, len(blocks)))
    for block_cells, block_acceptance, values, draws, errors in records:
        skipped.extend(errors)
        if not block_cells:
            continue
        at = tuple(np.transpose(block_cells))
        acceptance[at] = block_acceptance
        for key, v in values.items():
            grids[key][at] = v
        if samples is not None:
            samples[at] = draws

    return BrickFitResult(grids, acceptance, n_obs, tuple(sorted(skipped)),
                          m, samples, brick.georef)


def summarize_brick(result: BrickFitResult, functional: str, statistic,
                    q: QuadratureConfig | None = None):
    """Grids of posterior statistics of one derived functional, from a
    result that kept its samples.

    ``functional`` is any name accepted by
    :func:`lspfit.posterior.functional_samples`; ``statistic`` is one of
    mean, sd (n-1 denominator), median, q025, q975, or width95
    (q975 - q025), which gives one grid, or a sequence of them, which gives
    a dict mapping each to its grid. The fitted pixels are reduced by
    :func:`_block_grids` in chunks of at most ``BLOCK_CAP``, the reduction
    :func:`fit_brick` applies to each block, so every value equals both
    ``summarize`` on that pixel's draws and the same grid of
    ``result.grids``, bit for bit. Unfitted pixels are NaN.

    Raises
    ------
    ValueError
        Unknown functional or statistic name, sd with fewer than 2 retained
        draws, or a result without samples.
    """
    names = (statistic,) if isinstance(statistic, str) else tuple(statistic)
    _check_request((functional,), names, result.retained_count)
    samples = result._draws()
    grids = {st: np.full((result.rows, result.cols), np.nan) for st in names}
    rows, cols = np.nonzero(result.fitted_mask())
    for lo in range(0, rows.size, BLOCK_CAP):
        r, c = rows[lo:lo + BLOCK_CAP], cols[lo:lo + BLOCK_CAP]
        block = _block_grids(samples[r, c], (functional,), names, q)
        for (_, st), values in block.items():
            grids[st][r, c] = values
    return grids[statistic] if isinstance(statistic, str) else grids


def write_grid_csv(grid: np.ndarray, path,
                   georef: tuple[float, float, float] | None = None) -> None:
    """Write a (rows, cols) grid as long CSV with columns row,col,x,y,value.

    x and y come from the georeference (x = x0 + col*cell,
    y = y0 - row*cell); without one, x = col and y = row. Numbers are
    written as ``f"{v:.17g}"``, and cells that are not finite as ``NA``.
    Each x and y is formatted once, and the values are read as one list.
    """
    grid = np.asarray(grid)
    rows, cols = grid.shape
    if georef is None:
        x, y = np.arange(cols, dtype=float), np.arange(rows, dtype=float)
    else:
        x = georef[0] + np.arange(cols) * georef[2]
        y = georef[1] - np.arange(rows) * georef[2]
    col_x = [f"{c},{v:.17g}" for c, v in enumerate(x.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,col,x,y,value\n")
        for r, (yr, line) in enumerate(zip(y.tolist(), grid.tolist())):
            row_y = f",{yr:.17g},"
            fh.writelines(f"{r},{cx}{row_y}{v:.17g}\n" if math.isfinite(v)
                          else f"{r},{cx}{row_y}NA\n"
                          for cx, v in zip(col_x, line))


def grid_to_brick(grid: np.ndarray,
                  georef: tuple[float, float, float] | None = None) -> Brick:
    """Wrap a (rows, cols) grid as a single-layer Brick (doy placeholder 1).

    Note the LSPB payload is float32, so this export rounds float64 grids.
    """
    grid = np.asarray(grid, dtype=np.float64)
    return Brick(grid[:, :, None].astype(np.float32), np.array([1.0]), georef)
