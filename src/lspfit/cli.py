"""Command-line interface: simulate, fit, fit-brick, summarize, derive.

Configuration is flat key=value pairs. Every option can come from a config
file (``--config``, lines of ``key = value``, ``#`` comments) or a flag;
flags override the file. The fully resolved configuration, the seed, and the
random generator family are echoed to a JSON metadata sidecar next to every
output set, so each run is reproducible from its artifacts alone.

Progress and diagnostics go to standard error; data goes to files (or
standard output where noted). Exit status is nonzero for validation and IO
failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .brick import (Brick, _check_summary_names, fit_brick,
                    grid_to_brick, ingest_long_csv, pixel_seed, read_brick,
                    summarize_brick, write_brick, write_grid_csv)
from .curve import CurveParams, IndexBounds
from .likelihood import LikelihoodKind, NoiseParam, ObservationSeries, simulate_series
from .posterior import (FUNCTIONALS, QuadratureConfig, format_summary_csv,
                        functional_samples, predictive_samples, fitted_samples,
                        summarize, write_summary_csv)
from .prior import ParamVector, default_priors, override_priors
from .sampler import (ChainConfig, GENERATOR_FAMILY, TuningSpec,
                      philox_generator, read_chain_csv, run_chain,
                      subsample_indices, write_chain_csv)

FORMAT_VERSION = 1

PARAM_KEYS = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6",
              "alpha7", "sigma2")

DEFAULT_STARTING = {
    "alpha1": 0.2, "alpha2": 0.5, "alpha3": 0.25, "alpha4": 100.0,
    "alpha5": 0.0001, "alpha6": 0.25, "alpha7": 200.0, "sigma2": 0.001,
}

DEFAULT_TUNING = {
    "alpha1": 0.001, "alpha2": 0.01, "alpha3": 0.01, "alpha4": 0.5,
    "alpha5": 0.0001, "alpha6": 0.01, "alpha7": 1.0, "sigma2": 0.1,
}

OVERRIDABLE_PRIORS = ("alpha1", "alpha3", "alpha5", "alpha6", "alpha7")

# options whose config-file keys are PREFIX_NAME, read by _Options.keyed
KEYED_PREFIXES = ("prior", "start", "tune")


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{what} must be two comma-separated numbers, "
                         f"got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_keyed(entries, allowed, what: str) -> dict:
    out = {}
    for entry in entries or ():
        if "=" not in entry:
            raise ValueError(f"{what} entries look like KEY=VALUE, got {entry!r}")
        key, _, val = entry.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ValueError(f"unknown {what} key {key!r}; expected one of "
                             f"{tuple(allowed)}")
        out[key] = val.strip()
    return out


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    s = str(text).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_doys(text: str) -> np.ndarray:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"doys range must be START:END:STEP, got {text!r}"
            )
        start, end, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("doys range step must be > 0")
        return np.arange(start, end + 1e-9, step, dtype=np.float64)
    return np.array([float(p) for p in text.split(",")], dtype=np.float64)


def _read_config_file(path, known) -> dict[str, str]:
    """Config-file entries, keyed like argparse dests; ValueError naming the
    file and the key for a key that is not in ``known`` and not under one of
    its keyed prefixes (``prior_``, ``start_``, ``tune_``)."""
    keyed = known & set(KEYED_PREFIXES)
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key = value, got {raw.strip()!r}"
                )
            key, _, val = line.partition("=")
            name = key.strip().replace("-", "_")
            if name not in known and name.partition("_")[0] not in keyed:
                raise ValueError(
                    f"{path}:{lineno}: unknown config key {key.strip()!r}"
                )
            out[name] = val.strip()
    return out


class _Options:
    """Merged view of flags over config-file entries over defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        known = set(vars(args)) - {"command", "config"}
        self.file = (_read_config_file(args.config, known) if args.config
                     else {})
        self.resolved = {}

    def get(self, key: str, default=None, parse=lambda s: s):
        flag = getattr(self.args, key, None)
        if flag is not None:
            val = parse(flag) if isinstance(flag, str) else flag
        elif key in self.file:
            val = parse(self.file[key])
        else:
            val = default
        self.resolved[key] = val
        return val

    def keyed(self, prefix: str, flag_entries, allowed) -> dict[str, str]:
        merged = {}
        for k, v in self.file.items():
            if k.startswith(prefix + "_"):
                name = k[len(prefix) + 1:]
                if name not in allowed:
                    raise ValueError(
                        f"unknown config key {k!r}; {prefix} keys are "
                        f"{tuple(allowed)}"
                    )
                merged[name] = v
        merged.update(_parse_keyed(flag_entries, allowed, prefix))
        self.resolved.update({f"{prefix}_{k}": v for k, v in merged.items()})
        return merged


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--out", help="output path prefix")
    p.add_argument("--seed", type=int, help="64-bit RNG seed (default 0)")


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--likelihood", choices=("normal", "tnormal", "beta"),
                   help="observation model (default beta)")
    p.add_argument("--gamma", metavar="LO,HI",
                   help="index bounds gamma1,gamma2 (default 0,1)")
    p.add_argument("--tn-bounds", metavar="A,B", dest="tn_bounds",
                   help="truncation interval for tnormal (default = gamma)")


def _add_fit(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ig", metavar="SHAPE,SCALE",
                   help="inverse-Gamma prior for sigma2; the scale is "
                        "required (e.g. 2,0.001)")
    p.add_argument("--prior", action="append", metavar="KEY=LO,HI",
                   help="override a fixed prior interval "
                        f"({', '.join(OVERRIDABLE_PRIORS)})")
    p.add_argument("--alpha4-lower", dest="alpha4_lower", type=float,
                   help="lower bound of the alpha4 interval (default 1; the "
                        "upper bound always tracks alpha7)")
    p.add_argument("--start", action="append", metavar="KEY=V",
                   help="override a starting value (alpha1..alpha7, sigma2)")
    p.add_argument("--tune", action="append", metavar="KEY=V",
                   help="override a proposal standard deviation "
                        "(alpha1..alpha7, sigma2; sigma2 is log-scale)")
    p.add_argument("--n-samples", dest="n_samples", type=int,
                   help="Metropolis iterations (default 50000)")
    p.add_argument("--sub-start", dest="sub_start", type=int,
                   help="first retained iteration (default 25000)")
    p.add_argument("--sub-end", dest="sub_end", type=int,
                   help="last candidate iteration (default n-samples)")
    p.add_argument("--sub-thin", dest="sub_thin", type=int,
                   help="retention stride (default 25)")
    p.add_argument("--batch-len", dest="batch_len", type=int,
                   help="trailing window for the last-batch acceptance "
                        "rate (default 100)")


def _add_quad(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quad-lo", dest="quad_lo", type=float,
                   help="AUC integration lower day (default 1)")
    p.add_argument("--quad-hi", dest="quad_hi", type=float,
                   help="AUC integration upper day (default 365)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lspfit",
        description="Bayesian double-logistic phenology fitting for bounded "
                    "vegetation-index series and raster bricks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic observations")
    _add_common(p)
    _add_model(p)
    p.add_argument("--curve", metavar="A1,...,A7",
                   help="true curve parameters (7 comma-separated numbers)")
    p.add_argument("--sigma2", type=float, help="true noise variance")
    p.add_argument("--doys", help="observation days: list '8,24,...' or "
                                  "range 'START:END:STEP'")
    p.add_argument("--grid", metavar="R,C",
                   help="replicate over an R x C pixel grid with per-pixel "
                        "reseeding and also write an LSPB brick")
    p.add_argument("--georef", metavar="X0,Y0,CELL",
                   help="georeference for the simulated grid")

    p = sub.add_parser("fit", help="fit one observation series")
    _add_common(p)
    _add_model(p)
    _add_fit(p)
    p.add_argument("--input", help="long CSV of observations")
    p.add_argument("--pixel", help="pixel-column selector")
    p.add_argument("--year", type=int, help="year-column selector")
    p.add_argument("--value-col", dest="value_col",
                   help="VI value column name (default evi)")

    p = sub.add_parser("fit-brick", help="fit every pixel of a brick")
    _add_common(p)
    _add_model(p)
    _add_fit(p)
    _add_quad(p)
    p.add_argument("--input", help="LSPB brick or long CSV")
    p.add_argument("--pooled", action="store_true", default=None,
                   help="pool all years into one brick (default)")
    p.add_argument("--annual", action="store_true", default=None,
                   help="fit each year separately")
    p.add_argument("--clamp-beta-eps", dest="clamp_beta_eps", type=float,
                   help="nudge ingested values <=0 / >=1 into "
                        "[eps, 1-eps] (default off)")
    p.add_argument("--value-col", dest="value_col",
                   help="VI value column name for CSV input (default evi)")
    p.add_argument("--mask", help="LSPB single-layer mask: fit pixels whose "
                                  "value is finite and nonzero")
    p.add_argument("--workers", type=int, help="process count (default 1)")
    p.add_argument("--min-obs", dest="min_obs", type=int,
                   help="minimum observations per pixel (default 9)")
    p.add_argument("--mem-budget-mb", dest="mem_budget_mb", type=float,
                   help="spill per-pixel samples to a memmap beyond this "
                        "(default 512)")
    p.add_argument("--functionals",
                   help="comma list of grid functionals (default the 8 "
                        "parameters)")
    p.add_argument("--statistics",
                   help="comma list of grid statistics (default median,sd)")
    p.add_argument("--lspb-grids", dest="lspb_grids", action="store_true",
                   default=None, help="also export grids as LSPB bricks")
    p.add_argument("--save-samples", dest="save_samples", action="store_true",
                   default=None,
                   help="save all per-pixel retained samples to an .npz")

    p = sub.add_parser("summarize", help="summarize a chain CSV")
    _add_common(p)
    _add_quad(p)
    p.add_argument("--chain", help="chain CSV from fit")
    p.add_argument("--functionals",
                   help="extra derived functionals to append "
                        f"(of {', '.join(FUNCTIONALS[8:])})")

    p = sub.add_parser("derive", help="derived-quantity posteriors from a chain")
    _add_common(p)
    _add_model(p)
    _add_quad(p)
    p.add_argument("--chain", help="chain CSV from fit")
    p.add_argument("--functionals",
                   help="comma list of season_length, curve_max, auc, delta, "
                        "fitted, predictive (default all but the bands)")
    p.add_argument("--at", help="comma list of days for fitted/predictive")
    p.add_argument("--samples", action="store_true", default=None,
                   help="also write one samples CSV per functional")

    return parser


def _likelihood_kind(opt: _Options) -> tuple[LikelihoodKind, IndexBounds]:
    gamma = opt.get("gamma", (0.0, 1.0),
                    lambda s: _parse_pair(s, "--gamma"))
    bounds = IndexBounds(*gamma)
    name = opt.get("likelihood", "beta")
    if name != "tnormal":
        opt.get("tn_bounds", None)
        return LikelihoodKind(name), bounds
    tb = opt.get("tn_bounds", gamma, lambda s: _parse_pair(s, "--tn-bounds"))
    return LikelihoodKind.truncated_normal(*tb), bounds


def _prior_spec(opt: _Options, bounds: IndexBounds):
    ig = opt.get("ig", None, lambda s: _parse_pair(s, "--ig"))
    if ig is None:
        raise ValueError(
            "the sigma2 prior is required: pass --ig SHAPE,SCALE "
            "(for VI noise on (0,1), 2,0.001 is a reasonable choice)"
        )
    spec = default_priors(bounds, ig_scale=ig[1])
    spec = override_priors(spec, sigma2_ig=ig)
    raw = opt.keyed("prior", opt.args.prior, OVERRIDABLE_PRIORS)
    overrides = {k: _parse_pair(v, f"prior {k}") for k, v in raw.items()}
    a4lo = opt.get("alpha4_lower", None)
    if a4lo is not None:
        overrides["alpha4_lo"] = float(a4lo)
    if overrides:
        spec = override_priors(spec, **overrides)
    return spec


def _starting(opt: _Options) -> ParamVector:
    raw = opt.keyed("start", opt.args.start, PARAM_KEYS)
    vals = dict(DEFAULT_STARTING)
    vals.update({k: float(v) for k, v in raw.items()})
    return ParamVector(
        CurveParams(*[vals[k] for k in PARAM_KEYS[:7]]),
        NoiseParam(vals["sigma2"]),
    )


def _tuning(opt: _Options) -> TuningSpec:
    raw = opt.keyed("tune", opt.args.tune, PARAM_KEYS)
    vals = dict(DEFAULT_TUNING)
    vals.update({k: float(v) for k, v in raw.items()})
    return TuningSpec(**vals)


def _chain_config(opt: _Options, seed: int) -> ChainConfig:
    n = opt.get("n_samples", 50000, int)
    return ChainConfig(
        n_samples=n,
        sub_start=opt.get("sub_start", min(25000, n), int),
        sub_end=opt.get("sub_end", n, int),
        sub_thin=opt.get("sub_thin", 25, int),
        seed=seed,
        batch_len=opt.get("batch_len", min(100, n), int),
    )


def _quad_config(opt: _Options) -> QuadratureConfig:
    return QuadratureConfig(
        t_lo=opt.get("quad_lo", 1.0, float),
        t_hi=opt.get("quad_hi", 365.0, float),
    )


def _write_meta(opt: _Options, out_prefix: str, command: str, seed: int,
                extra: dict | None = None) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "generator": GENERATOR_FAMILY,
        "seed": seed,
        "numerics": {
            "tuning_scale": "sd",
            "sigma2_proposal": "log-scale random walk with Jacobian "
                               "correction",
            "quantile_convention": "linear interpolation between order "
                                   "statistics (type 7)",
            "chain_csv_digits": 17,
        },
        "config": {k: _jsonable(v) for k, v in sorted(opt.resolved.items())},
    }
    if extra:
        meta.update(extra)
    with open(f"{out_prefix}_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _require(opt: _Options, key: str, flag: str):
    val = opt.get(key, None)
    if val is None:
        raise ValueError(f"{flag} is required")
    return val


def cmd_simulate(opt: _Options) -> int:
    out = _require(opt, "out", "--out")
    seed = opt.get("seed", 0, int)
    kind, bounds = _likelihood_kind(opt)
    curve_txt = _require(opt, "curve", "--curve")
    parts = [float(p) for p in str(curve_txt).split(",")]
    if len(parts) != 7:
        raise ValueError(f"--curve needs 7 numbers, got {len(parts)}")
    params = CurveParams(*parts)
    sigma2 = float(_require(opt, "sigma2", "--sigma2"))
    doys = _parse_doys(str(_require(opt, "doys", "--doys")))
    grid = opt.get("grid", None, lambda s: _parse_pair(s, "--grid"))
    georef = opt.get("georef", None,
                     lambda s: tuple(float(p) for p in s.split(",")))
    if georef is not None and len(georef) != 3:
        raise ValueError("--georef needs X0,Y0,CELL")

    if grid is None:
        rows, cols = 1, 1
    else:
        rows, cols = int(grid[0]), int(grid[1])
        if rows < 1 or cols < 1:
            raise ValueError(f"--grid needs positive R,C, got {grid}")

    csv_path = f"{out}.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("pixel,x,y,doy,evi\n")
        vals = np.full((rows, cols, doys.size), np.nan, dtype=np.float32)
        for r in range(rows):
            for c in range(cols):
                rng = philox_generator(
                    seed if grid is None else pixel_seed(seed, r, c, cols))
                series = simulate_series(kind, params, sigma2, doys, rng,
                                         bounds)
                vals[r, c, :] = series.values.astype(np.float32)
                if georef is not None:
                    x = georef[0] + c * georef[2]
                    y = georef[1] - r * georef[2]
                else:
                    x, y = float(c), float(rows - 1 - r)
                pid = r * cols + c
                for d, v in zip(doys, vals[r, c]):
                    fh.write(f"{pid},{x:.17g},{y:.17g},{d:.17g},{v:.9g}\n")
    _progress(f"wrote {csv_path} ({rows * cols} pixel(s), {doys.size} days)")

    if grid is not None:
        brick = Brick(vals, doys, georef)
        write_brick(brick, f"{out}.lspb")
        _progress(f"wrote {out}.lspb")

    truth = {
        "curve": {k: getattr(params, k) for k in PARAM_KEYS[:7]},
        "sigma2": sigma2,
        "likelihood": kind.kind,
        "doys": doys.tolist(),
        "grid": [rows, cols],
    }
    with open(f"{out}_truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_meta(opt, out, "simulate", seed)
    return 0


def _load_series(opt: _Options, bounds: IndexBounds) -> ObservationSeries:
    import csv as _csv

    path = _require(opt, "input", "--input")
    pixel_sel = opt.get("pixel", None)
    year_sel = opt.get("year", None, int)
    value_col = opt.get("value_col", "evi")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"empty file: {path}") from None
        need = {"doy", value_col}
        missing = need - set(header)
        if missing:
            raise ValueError(
                f"missing required column(s) {sorted(missing)} in {header}"
            )
        idx = {name: header.index(name) for name in header}
        doys, values, coords = [], [], set()
        n_missing = 0
        for row in reader:
            if not row:
                continue
            if pixel_sel is not None:
                if "pixel" not in idx:
                    raise ValueError("--pixel given but no pixel column")
                if row[idx["pixel"]].strip() != str(pixel_sel):
                    continue
            if year_sel is not None:
                if "year" not in idx:
                    raise ValueError("--year given but no year column")
                if int(row[idx["year"]]) != year_sel:
                    continue
            if "x" in idx and "y" in idx:
                coords.add((row[idx["x"]], row[idx["y"]]))
            try:
                v = float(row[idx[value_col]])
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                n_missing += 1
                continue
            doys.append(float(row[idx["doy"]]))
            values.append(v)
    if len(coords) > 1 and pixel_sel is None:
        raise ValueError(
            f"selectors matched {len(coords)} distinct pixels; use --pixel "
            "or --year to isolate one series"
        )
    if not doys:
        raise ValueError("no usable observations after filtering")
    if n_missing:
        _progress(f"dropped {n_missing} missing observation(s)")
    return ObservationSeries(np.array(doys), np.array(values), bounds)


def cmd_fit(opt: _Options) -> int:
    out = _require(opt, "out", "--out")
    seed = opt.get("seed", 0, int)
    kind, bounds = _likelihood_kind(opt)
    spec = _prior_spec(opt, bounds)
    starting = _starting(opt)
    tuning = _tuning(opt)
    config = _chain_config(opt, seed)
    series = _load_series(opt, bounds)
    _progress(f"fitting {len(series)} observations, "
              f"{config.n_samples} iterations")
    chain = run_chain(kind, series, spec, starting, tuning, config)
    write_chain_csv(chain, f"{out}_chain.csv")
    entries = [(name, summarize(chain.samples[:, i]))
               for i, name in enumerate(PARAM_KEYS)]
    write_summary_csv(entries, f"{out}_summary.csv")
    _progress(
        f"acceptance: overall {chain.acc_overall:.4f} "
        f"({100 * chain.acc_overall:.1f}%), last batch "
        f"{chain.acc_last_batch:.4f}"
    )
    _write_meta(opt, out, "fit", seed, {
        "acceptance": {"overall": chain.acc_overall,
                       "last_batch": chain.acc_last_batch},
        "retained": chain.retained_count,
    })
    return 0


def _load_mask(path, rows, cols) -> np.ndarray:
    mb = read_brick(path)
    if (mb.rows, mb.cols) != (rows, cols) or mb.layers != 1:
        raise ValueError(
            f"mask shape ({mb.rows}, {mb.cols}, {mb.layers}) does not match "
            f"brick ({rows}, {cols}, 1)"
        )
    vals = mb.values[:, :, 0]
    return np.isfinite(vals) & (vals != 0)


def cmd_fit_brick(opt: _Options) -> int:
    out = _require(opt, "out", "--out")
    seed = opt.get("seed", 0, int)
    kind, bounds = _likelihood_kind(opt)
    spec = _prior_spec(opt, bounds)
    starting = _starting(opt)
    tuning = _tuning(opt)
    config = _chain_config(opt, seed)
    quad = _quad_config(opt)
    workers = opt.get("workers", 1, int)
    min_obs = opt.get("min_obs", 9, int)
    budget = opt.get("mem_budget_mb", 512.0, float)
    annual = opt.get("annual", False, _parse_bool)
    pooled_flag = opt.get("pooled", None, _parse_bool)
    if pooled_flag and annual:
        raise ValueError("--pooled and --annual are mutually exclusive")
    clamp = opt.get("clamp_beta_eps", None, float)
    value_col = opt.get("value_col", "evi")
    functionals = [fn.strip() for fn in
                   str(opt.get("functionals", ",".join(PARAM_KEYS))).split(",")]
    statistics = [st.strip() for st in
                  str(opt.get("statistics", "median,sd")).split(",")]
    _check_summary_names(functionals, statistics)
    if "sd" in statistics and subsample_indices(config).size < 2:
        raise ValueError("statistic sd needs at least 2 retained draws")
    lspb_grids = opt.get("lspb_grids", False, _parse_bool)
    save_samples = opt.get("save_samples", False, _parse_bool)

    path = str(_require(opt, "input", "--input"))
    if path.endswith(".lspb"):
        if annual:
            raise ValueError("--annual applies to CSV ingestion only")
        bricks = {None: read_brick(path)}
    else:
        ingested = ingest_long_csv(path, value_col=value_col,
                                   mode="annual" if annual else "pooled",
                                   clamp_eps=clamp)
        bricks = ingested if annual else {None: ingested}

    for year, brk in bricks.items():
        tag = "" if year is None else f"_y{year}"
        prefix = out + tag
        mask_path = opt.get("mask", None)
        mask = (None if mask_path is None
                else _load_mask(mask_path, brk.rows, brk.cols))
        _progress(
            f"fitting brick{tag or ''}: {brk.rows}x{brk.cols} pixels, "
            f"{brk.layers} layers, workers={workers}"
        )
        result = fit_brick(brk, kind, spec, starting, tuning, config,
                           mask=mask, workers=workers, min_obs=min_obs,
                           mem_budget_mb=budget)
        n_fit = int(result.fitted_mask().sum())
        if n_fit == 0:
            _progress(f"warning: no pixels fitted{tag or ''}")
        _progress(f"fitted {n_fit} pixel(s), skipped {len(result.skipped)}")

        for fn in functionals:
            for st in statistics:
                grid = summarize_brick(result, fn, st, quad)
                gpath = f"{prefix}_{fn}_{st}.csv"
                write_grid_csv(grid, gpath, result.georef)
                if lspb_grids:
                    write_brick(grid_to_brick(grid, result.georef),
                                f"{prefix}_{fn}_{st}.lspb")
        write_grid_csv(result.acceptance[:, :, 0],
                       f"{prefix}_acceptance_overall.csv", result.georef)
        write_grid_csv(result.acceptance[:, :, 1],
                       f"{prefix}_acceptance_last_batch.csv", result.georef)
        with open(f"{prefix}_skipped.csv", "w", encoding="utf-8") as fh:
            fh.write("row,col,reason\n")
            csv.writer(fh, lineterminator="\n",
                       quoting=csv.QUOTE_NONNUMERIC).writerows(result.skipped)
        if save_samples:
            np.savez_compressed(
                f"{prefix}_samples.npz",
                samples=np.asarray(result.samples),
                acceptance=result.acceptance,
                n_obs=result.n_obs,
            )
        _write_meta(opt, prefix, "fit-brick", seed, {
            "fitted_pixels": n_fit,
            "skipped_pixels": len(result.skipped),
            "retained": result.retained_count,
        })
    return 0


def cmd_summarize(opt: _Options) -> int:
    path = _require(opt, "chain", "--chain")
    chain = read_chain_csv(path)
    quad = _quad_config(opt)
    extra = opt.get("functionals", None)
    entries = [(name, summarize(chain.samples[:, i]))
               for i, name in enumerate(PARAM_KEYS)]
    if extra:
        for fn in str(extra).split(","):
            fn = fn.strip()
            entries.append((fn, summarize(functional_samples(chain, fn, quad))))
    out = opt.get("out", None)
    if out is None:
        sys.stdout.write(format_summary_csv(entries))
    else:
        write_summary_csv(entries, f"{out}_summary.csv")
        seed = opt.get("seed", 0, int)
        _write_meta(opt, str(out), "summarize", seed)
    return 0


def cmd_derive(opt: _Options) -> int:
    out = _require(opt, "out", "--out")
    seed = opt.get("seed", 0, int)
    chain = read_chain_csv(_require(opt, "chain", "--chain"))
    quad = _quad_config(opt)
    want = str(opt.get("functionals",
                       "season_length,curve_max,auc,delta")).split(",")
    at_days = opt.get("at", None, lambda s: [float(p) for p in s.split(",")])
    save_samples = opt.get("samples", False, _parse_bool)
    kind = None

    entries = []
    sample_files = []
    for fn in (w.strip() for w in want):
        if fn in ("fitted", "predictive"):
            if not at_days:
                raise ValueError(f"functional {fn!r} needs --at DAY[,DAY...]")
            for t0 in at_days:
                if fn == "fitted":
                    vec = fitted_samples(chain, t0)
                else:
                    if kind is None:
                        kind, _ = _likelihood_kind(opt)
                    rng = philox_generator(seed)
                    vec = predictive_samples(chain, kind, t0, rng)
                name = f"{fn}@{t0:g}"
                entries.append((name, summarize(vec)))
                if save_samples:
                    sample_files.append((f"{out}_{fn}_{t0:g}_samples.csv",
                                         name, vec))
        else:
            vec = functional_samples(chain, fn, quad)
            entries.append((fn, summarize(vec)))
            if save_samples:
                sample_files.append((f"{out}_{fn}_samples.csv", fn, vec))
    write_summary_csv(entries, f"{out}_derived_summary.csv")
    for path, name, vec in sample_files:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{name}\n")
            for v in vec:
                fh.write(f"{v:.17g}\n")
    _write_meta(opt, out, "derive", seed)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "fit-brick": cmd_fit_brick,
    "summarize": cmd_summarize,
    "derive": cmd_derive,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opt = _Options(args)
        return _COMMANDS[args.command](opt)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
