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
order.

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

import math
import os
import struct
import tempfile
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from .curve import _check_doys, _in_doy_range
from .likelihood import LikelihoodKind, ObservationSeries
from .prior import ParamVector, PriorSpec, _FlatPrior
from .posterior import (
    FUNCTIONALS,
    QuadratureConfig,
    functional_samples,
    sample_mean,
    sample_sd,
)
from .sampler import (_MASK64, Chain, ChainConfig, TuningSpec, run_chain,
                      run_lockstep, subsample_indices)

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

_MAGIC = b"LSPB"
_VERSION = 1
_GAMMA = 0x9E3779B97F4A7C15

STATISTICS = ("mean", "sd", "median", "q025", "q975", "width95")

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

    Raises
    ------
    ValueError
        bad magic bytes, unsupported format version, or a truncated or
        oversized file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head_size = struct.calcsize("<4sHIIIB3d")
    if len(data) < head_size:
        raise ValueError(f"truncated file: {len(data)} bytes is too short "
                         "for an LSPB header")
    magic, version, rows, cols, layers, flag, gx, gy, gc = struct.unpack(
        "<4sHIIIB3d", data[:head_size]
    )
    if magic != _MAGIC:
        raise ValueError(f"bad magic bytes {magic!r}; not an LSPB file")
    if version != _VERSION:
        raise ValueError(
            f"unsupported format version {version}; this reader handles "
            f"version {_VERSION}"
        )
    expected = head_size + 8 * layers + 4 * rows * cols * layers
    if len(data) < expected:
        raise ValueError(
            f"truncated file: expected {expected} bytes, got {len(data)}"
        )
    if len(data) > expected:
        raise ValueError(
            f"trailing data: expected {expected} bytes, got {len(data)}"
        )
    off = head_size
    doys = np.frombuffer(data, dtype="<f8", count=layers, offset=off).copy()
    off += 8 * layers
    values = np.frombuffer(data, dtype="<f4", count=rows * cols * layers,
                           offset=off).copy().reshape(rows, cols, layers)
    georef = (gx, gy, gc) if flag else None
    return Brick(values, doys, georef)


def _lattice_positions(coords, axis: str):
    """Map sorted unique coordinates onto integer lattice positions.

    Gaps must be integer multiples of the smallest gap (1e-6 relative
    tolerance), so missing interior rows/columns are fine but off-lattice
    points are an error. Returns (positions dict, count, cell or None).
    """
    u = np.unique(coords)
    if u.size == 1:
        return {float(u[0]): 0}, 1, None
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
    count = int(pos[-1]) + 1
    return {float(c): int(p) for c, p in zip(u, pos)}, count, base


def ingest_long_csv(path, *, value_col="evi", x_col="x", y_col="y",
                    doy_col="doy", year_col="year", mode="pooled",
                    clamp_eps: float | None = None):
    """Pivot a long observation CSV into a Brick (or one Brick per year).

    The header must name the x, y, doy, and value columns (defaults match
    ``pixel,x,y,sat,year,doy,evi`` files; extra columns are ignored). Cells
    come from the regular grid inferred from the distinct x and y values
    (x ascending -> columns, y descending -> rows). Unparseable or ``NA``
    VI values become missing markers, never errors. A structurally broken
    row (wrong field count, unparseable x/y/doy/year, doy outside [1, 366])
    is an error naming the line number.

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
        fitting of data that touches its bounds). Default: no clamping.

    Raises
    ------
    ValueError
        empty file, missing required columns, malformed rows (with line
        number), or off-lattice coordinates.
    """
    import csv

    if mode not in ("pooled", "annual"):
        raise ValueError(f"mode must be 'pooled' or 'annual', got {mode!r}")
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

        records = []
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"malformed row at line {line}: expected "
                    f"{len(header)} fields, got {len(row)}"
                )
            try:
                x = float(row[col_idx[x_col]])
                y = float(row[col_idx[y_col]])
                doy = float(row[col_idx[doy_col]])
            except ValueError:
                raise ValueError(
                    f"malformed row at line {line}: unparseable "
                    "x/y/doy field"
                ) from None
            if not (math.isfinite(x) and math.isfinite(y)
                    and _in_doy_range(doy)):
                raise ValueError(
                    f"malformed row at line {line}: doy must be in "
                    f"[1, 366] and coordinates finite"
                )
            year = None
            if has_year:
                try:
                    year = int(row[col_idx[year_col]])
                except ValueError:
                    raise ValueError(
                        f"malformed row at line {line}: unparseable "
                        "year field"
                    ) from None
            try:
                v = float(row[col_idx[value_col]])
            except ValueError:
                v = math.nan
            records.append((x, y, year, doy, v))

    if not records:
        raise ValueError(f"no data rows in {path}")

    xs = np.array([r[0] for r in records])
    ys = np.array([r[1] for r in records])
    x_pos, n_cols, cell_x = _lattice_positions(xs, "x")
    y_pos, n_rows, cell_y = _lattice_positions(ys, "y")
    cell = cell_x if cell_x is not None else cell_y
    georef = (float(xs.min()), float(ys.max()), cell) if cell is not None else None

    def build(recs):
        keys = sorted({(r[2] if r[2] is not None else 0, r[3]) for r in recs})
        layer_of = {k: i for i, k in enumerate(keys)}
        doys = np.array([k[1] for k in keys], dtype=np.float64)
        vals = np.full((n_rows, n_cols, len(keys)), np.nan, dtype=np.float32)
        for x, y, year, doy, v in recs:
            r = n_rows - 1 - y_pos[y]
            c = x_pos[x]
            li = layer_of[(year if year is not None else 0, doy)]
            if clamp_eps is not None and math.isfinite(v):
                if v <= 0.0:
                    v = clamp_eps
                elif v >= 1.0:
                    v = 1.0 - clamp_eps
            vals[r, c, li] = v
        return Brick(vals, doys, georef)

    if mode == "pooled":
        return build(records)
    years = sorted({r[2] for r in records})
    return {yr: build([r for r in records if r[2] == yr]) for yr in years}


@dataclass(frozen=True)
class BrickFitResult:
    """Per-pixel chains and bookkeeping from :func:`fit_brick`.

    ``samples`` has shape (rows, cols, retained, 8) with NaN across unfitted
    pixels; ``acceptance`` has shape (rows, cols, 2) holding the overall and
    last-batch acceptance fractions; ``n_obs`` counts each pixel's
    non-missing observations; ``skipped`` lists (row, col, reason) for every
    requested pixel that was not fitted.
    """

    samples: np.ndarray
    acceptance: np.ndarray
    n_obs: np.ndarray
    skipped: tuple
    georef: tuple[float, float, float] | None = None

    @property
    def rows(self) -> int:
        return self.samples.shape[0]

    @property
    def cols(self) -> int:
        return self.samples.shape[1]

    @property
    def retained_count(self) -> int:
        return self.samples.shape[2]

    def fitted_mask(self) -> np.ndarray:
        """Boolean grid: True where a chain was fitted."""
        return np.isfinite(self.acceptance[:, :, 0])

    def chain_at(self, row: int, col: int) -> Chain | None:
        """The pixel's Chain, or None if it was not fitted."""
        acc = self.acceptance[row, col]
        if not np.isfinite(acc[0]):
            return None
        return Chain(np.array(self.samples[row, col]), float(acc[0]),
                     float(acc[1]))


_WORKER_CTX = None


def _init_worker(ctx):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _fit_block_pooled(task):
    return _fit_block(task, _WORKER_CTX)


def _fit_pixel(r, c, t, y, seed, ctx):
    kind, spec, starting, tuning, config = ctx
    try:
        chain = run_chain(kind, ObservationSeries(t, y), spec, starting,
                          tuning, replace(config, seed=seed))
        return (r, c, chain.samples, chain.acc_overall, chain.acc_last_batch,
                None)
    except Exception as exc:
        return (r, c, None, math.nan, math.nan, f"{type(exc).__name__}: {exc}")


def _fit_block(task, ctx):
    """Fit one block of pixels sharing an observation count; returns one
    ``(row, col, samples, acc_overall, acc_last_batch, error)`` per pixel."""
    cells, t, y, seeds = task
    if len(cells) >= LOCKSTEP_MIN:
        kind, spec, starting, tuning, config = ctx
        try:
            samples, acc, acc_batch = run_lockstep(
                kind, t, y, spec, starting, tuning, config, seeds)
            return [(r, c, samples[i], acc[i], acc_batch[i], None)
                    for i, (r, c) in enumerate(cells)]
        except Exception:
            pass  # refit pixel by pixel below, logging each pixel's own error
    return [_fit_pixel(r, c, t[i], y[i], seeds[i], ctx)
            for i, (r, c) in enumerate(cells)]


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


def _unfinished(cells, exc):
    reason = f"BrokenProcessPool: block not finished: {exc}"
    return [(r, c, None, math.nan, math.nan, reason) for r, c in cells]


def _fit_pooled(tasks, ctx, workers):
    """Yield the per-pixel results of every block task from a process pool,
    with at most ``2 * workers`` blocks in flight. If a worker dies, the
    blocks that finished are kept and every pixel of the others is logged
    as failed."""
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(ctx,))
    inflight = {}  # future -> the cells of its block

    def results(fut, cells):
        try:
            return fut.result()
        except BrokenProcessPool as exc:
            return _unfinished(cells, exc)

    try:
        for task in tasks:
            while len(inflight) >= 2 * workers:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for fut in done:
                    yield from results(fut, inflight.pop(fut))
            try:
                inflight[pool.submit(_fit_block_pooled, task)] = task[0]
            except BrokenProcessPool as exc:
                yield from _unfinished(task[0], exc)
        for fut in list(inflight):
            yield from results(fut, inflight.pop(fut))
    finally:
        pool.shutdown()


def fit_brick(brick: Brick, kind: LikelihoodKind, spec: PriorSpec,
              starting: ParamVector, tuning: TuningSpec, config: ChainConfig,
              mask: np.ndarray | None = None, workers: int = 1,
              min_obs: int = 9,
              mem_budget_mb: float = 512.0) -> BrickFitResult:
    """Fit every requested pixel's chain; deterministic for any worker count.

    Each unmasked pixel with at least ``min_obs`` non-missing observations
    gets the chain :func:`run_chain` gives on its (doy, value) pairs, seeded
    with ``pixel_seed(config.seed, row, col, cols)``. Pixels are fitted in
    blocks of one observation count (see the module docstring). A pixel that
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
    mem_budget_mb : float
        When the samples array would exceed this, it is backed by a
        temporary on-disk memmap (deleted when the result is garbage
        collected) instead of process memory.

    Raises
    ------
    ValueError
        Dimension mismatch between mask and brick, invalid worker or
        min_obs counts, or a starting vector outside the prior support.
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
    if not _FlatPrior(spec).in_support(*starting.to_array().tolist()):
        raise ValueError(
            "starting values must lie strictly inside the prior support"
        )

    m = subsample_indices(config).size
    nbytes = rows * cols * m * 8 * 8
    if nbytes > mem_budget_mb * 2**20:
        fd, tmp_path = tempfile.mkstemp(suffix=".lspfit-samples.dat")
        os.close(fd)
        samples = np.memmap(tmp_path, dtype=np.float64, mode="w+",
                            shape=(rows, cols, m, 8))
    else:
        tmp_path = None
        samples = np.empty((rows, cols, m, 8), dtype=np.float64)
    samples[:] = np.nan
    acceptance = np.full((rows, cols, 2), np.nan, dtype=np.float64)
    skipped = []

    finite = np.isfinite(brick.values)
    n_obs_all = finite.sum(axis=2).astype(np.int32)
    n_obs = np.where(mask, n_obs_all, 0).astype(np.int32)

    groups = {}  # observation count -> requested pixels
    for r, c in zip(*np.nonzero(mask)):
        r, c, k = int(r), int(c), int(n_obs_all[r, c])
        if k < min_obs:
            skipped.append(
                (r, c, f"too few observations: {k} < min_obs {min_obs}")
            )
            continue
        groups.setdefault(k, []).append((r, c))
    # each group cut into near-equal blocks of at most BLOCK_CAP pixels,
    # largest groups first, so the pool ends on small blocks
    blocks = [part for cells in sorted(groups.values(), key=len, reverse=True)
              for part in np.array_split(np.array(cells),
                                         -(-len(cells) // BLOCK_CAP))]
    tasks = (_block_task(brick, finite, cells, config.seed)
             for cells in blocks)

    ctx = (kind, spec, starting, tuning, config)
    if workers == 1 or len(blocks) <= 1:
        it = (res for task in tasks for res in _fit_block(task, ctx))
    else:
        it = _fit_pooled(tasks, ctx, min(workers, len(blocks)))

    for r, c, chain_samples, acc, acc_batch, err in it:
        if err is not None:
            skipped.append((r, c, err))
            continue
        samples[r, c] = chain_samples
        acceptance[r, c, 0] = acc
        acceptance[r, c, 1] = acc_batch

    result = BrickFitResult(samples, acceptance, n_obs,
                            tuple(sorted(skipped)), brick.georef)
    if tmp_path is not None:
        weakref.finalize(result, _cleanup_memmap, tmp_path)
    return result


def _cleanup_memmap(path):
    try:
        os.unlink(path)
    except OSError:
        pass


def _check_summary_names(functionals, statistics) -> None:
    """Raise ValueError naming the first unknown functional or statistic."""
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


def summarize_brick(result: BrickFitResult, functional: str, statistic: str,
                    q: QuadratureConfig | None = None) -> np.ndarray:
    """Grid of one posterior statistic of one derived functional.

    ``functional`` is any name accepted by
    :func:`lspfit.posterior.functional_samples`; ``statistic`` is one of
    mean, sd (n-1 denominator), median, q025, q975, or width95
    (q975 - q025). Unfitted pixels are NaN.

    Raises
    ------
    ValueError
        Unknown functional or statistic name.
    """
    _check_summary_names((functional,), (statistic,))
    grid = np.full((result.rows, result.cols), np.nan, dtype=np.float64)
    fitted = result.fitted_mask()
    for r in range(result.rows):
        for c in range(result.cols):
            if not fitted[r, c]:
                continue
            vec = functional_samples(result.chain_at(r, c), functional, q)
            if statistic == "mean":
                grid[r, c] = sample_mean(vec)
            elif statistic == "sd":
                grid[r, c] = sample_sd(vec, sample_mean(vec))
            elif statistic == "median":
                grid[r, c] = np.quantile(vec, 0.5)
            elif statistic == "q025":
                grid[r, c] = np.quantile(vec, 0.025)
            elif statistic == "q975":
                grid[r, c] = np.quantile(vec, 0.975)
            else:
                lo, hi = np.quantile(vec, [0.025, 0.975])
                grid[r, c] = hi - lo
    return grid


def write_grid_csv(grid: np.ndarray, path,
                   georef: tuple[float, float, float] | None = None) -> None:
    """Write a (rows, cols) grid as long CSV with columns row,col,x,y,value.

    x and y come from the georeference (x = x0 + col*cell,
    y = y0 - row*cell); without one, x = col and y = row. Values use 17
    significant digits; NaN cells are written as ``NA``.
    """
    grid = np.asarray(grid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,col,x,y,value\n")
        for r in range(grid.shape[0]):
            for c in range(grid.shape[1]):
                if georef is not None:
                    x = georef[0] + c * georef[2]
                    y = georef[1] - r * georef[2]
                else:
                    x, y = float(c), float(r)
                v = grid[r, c]
                sval = "NA" if not np.isfinite(v) else f"{v:.17g}"
                fh.write(f"{r},{c},{x:.17g},{y:.17g},{sval}\n")


def grid_to_brick(grid: np.ndarray,
                  georef: tuple[float, float, float] | None = None) -> Brick:
    """Wrap a (rows, cols) grid as a single-layer Brick (doy placeholder 1).

    Note the LSPB payload is float32, so this export rounds float64 grids.
    """
    grid = np.asarray(grid, dtype=np.float64)
    return Brick(grid[:, :, None].astype(np.float32), np.array([1.0]), georef)
