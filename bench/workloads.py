"""The four workloads: their inputs, operations, checks and metrics.

Every round of every workload runs the same operation types in the same
order: ``lspfit fit`` for each likelihood, ``lspfit derive``, ``lspfit
fit-brick``, CSV ingest in pooled and annual mode and an LSPB round trip
(plus, on ``single-fit``, the fits of the README quickstart series and, on
``ingest``, the leap-year file). A workload is defined by the sizes it gives
them. It runs its own operations at full size and the rest at a small fixed
size, because every untraced run must report every end-to-end metric; on a
workload that does not target a metric, the metric is measured on that
small operation (see README.md).
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
import hostspeed
import inputs
import oracles
from checks import ChainSpec


@dataclass(frozen=True)
class BrickSpec:
    rows: int
    cols: int
    chain: ChainSpec
    functionals: tuple
    statistics: tuple
    pool: bool = False  # one worker per core; otherwise --workers 1


@dataclass(frozen=True)
class WorkloadSpec:
    fit: ChainSpec
    brick: BrickSpec
    csv_grid: tuple  # (rows, cols) of the long CSV's pixel lattice
    leap: bool
    quickstart: bool = False  # also fit the README quickstart series


FULL_FIT = ChainSpec(50_000, 25_000, 25)   # README quickstart: 1001 draws
SMALL_FIT = ChainSpec(10_000, 5_000, 5)    # also 1001 draws
ALL_FUNCTIONALS = ("alpha4", "alpha7", "season_length", "auc")
SMALL_BRICK = BrickSpec(6, 6, ChainSpec(200, 101, 10), ALL_FUNCTIONALS,
                        ("median",))
SMALL_CSV = (30, 30)

WORKLOADS = {
    "single-fit": WorkloadSpec(FULL_FIT, SMALL_BRICK, SMALL_CSV, False,
                               quickstart=True),
    "brick-fit": WorkloadSpec(
        SMALL_FIT,
        BrickSpec(40, 40, ChainSpec(100, 51, 5), ("alpha4", "alpha7"),
                  ("median",), pool=True),
        SMALL_CSV, False),
    "brick-summary": WorkloadSpec(
        SMALL_FIT,
        BrickSpec(2, 2, ChainSpec(1_000, 1, 1), ALL_FUNCTIONALS,
                  ("median", "q025", "q975", "width95")),
        SMALL_CSV, False),
    "ingest": WorkloadSpec(SMALL_FIT, SMALL_BRICK, (90, 90), True),
}

KINDS = ("normal", "tnormal", "beta")
DERIVE_DAYS = (120.0, 180.0, 240.0)
DERIVE_REPEATS = 3  # a derive takes about 0.15 s: repeat it to average
IG = "2,0.001"
QUICKSTART_FIT_SEED = 11  # the README command-line quickstart's fit seed
CHECKED_PIXELS = 2  # brick pixels re-run serially per round

# The CLI's documented starting values and proposal scales (README,
# "Defaults worth knowing"), used for the serial reference chains.
STARTING = (0.2, 0.5, 0.25, 100.0, 1e-4, 0.25, 200.0, 1e-3)
TUNING = (0.001, 0.01, 0.01, 0.5, 1e-4, 0.01, 1.0, 0.1)

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "fit_normal_s": "s",
    "fit_tnormal_s": "s",
    "fit_beta_s": "s",
    "derive_s": "s",
    "brick_pixels_per_s": "pixels/s",
    "ingest_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}


# The cores this run may use, read before any pinning narrows them.
CPUS = tuple(sorted(os.sched_getaffinity(0)))


@dataclass
class Op:
    name: str
    run: object             # () -> output, timed
    check: object           # output -> list of problems, untimed
    known_fault: object = None  # exception -> True if it is the tracked
                                # fault; any other exception is unexpected
    pinned: bool = True     # runs in this process alone, so it is pinned
    metric: str = ""        # timing group in round_metrics; default: name
    watch: object = None    # output -> notes reported but not counted


@dataclass
class Outcome:
    name: str
    metric: str
    seconds: float  # wall time as measured
    scaled: float   # the same at the nominal host speed (see hostspeed)
    error: str | None
    problems: list
    tracked: bool = False  # the error is the fault the benchmark tracks
    notes: tuple = ()

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    @property
    def unexpected(self) -> bool:
        return bool(self.problems) or (self.error is not None
                                       and not self.tracked)


def workers() -> int:
    return len(CPUS)


def pin(cpus) -> None:
    os.sched_setaffinity(0, cpus)


class Runner:
    """Inputs and operations of one workload in one working directory."""

    def __init__(self, name: str, workdir: str, seed: int, tracer=None):
        import lspfit.brick
        import lspfit.cli

        self.spec = WORKLOADS[name]
        self.dir = workdir
        self.seed = seed
        self.tracer = tracer
        self.cli = lspfit.cli
        self.brick_mod = lspfit.brick
        self.pick = np.random.default_rng([seed, 1])  # checked pixels
        self.results = {}
        self._probe = ((), 0.0)  # (cores, seconds) of the last speed probe

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def setup(self) -> None:
        """Write every input file; the same seed writes the same files."""
        rng = np.random.default_rng(self.seed)
        self.fit_seed, self.derive_seed, self.brick_seed = (
            int(v) for v in rng.integers(0, 2**63, size=3))
        self.series = inputs.write_series(self.path("series.csv"),
                                          int(rng.integers(0, 2**63)))
        self.quickstart = (
            inputs.write_series(self.path("quickstart.csv"),
                                inputs.QUICKSTART_KEY)
            if self.spec.quickstart else None)
        b = self.spec.brick
        self.brick = inputs.write_brick(self.path("brick.lspb"), rng, b.rows,
                                        b.cols)
        self.csv = inputs.write_long_csv(self.path("long.csv"), rng,
                                         *self.spec.csv_grid)
        self.leap = (inputs.write_leap_csv(self.path("leap.csv"))
                     if self.spec.leap else None)

    # -- operations ------------------------------------------------------

    def _main(self, argv) -> None:
        main = self.cli.main
        if self.tracer is not None:
            main = self.tracer.span("cli.main", main)
        status = main(argv)
        if status != 0:
            raise RuntimeError(f"lspfit {argv[0]} exited with {status}")

    def _model(self, kind: str, series=None):
        from lspfit import (LikelihoodKind, ObservationSeries)
        series = self.series if series is None else series
        lk = (LikelihoodKind.truncated_normal(0.0, 1.0) if kind == "tnormal"
              else getattr(LikelihoodKind, kind)())
        return lk, ObservationSeries(series.doys, series.values)

    def loglik(self, kind: str, draw, series=None) -> float:
        from lspfit import CurveParams, series_log_likelihood
        lk, obs = self._model(kind, series)
        return series_log_likelihood(lk, obs, CurveParams(*draw[:7]),
                                     float(draw[7]))

    def serial_chain(self, r: int, c: int) -> np.ndarray:
        """The brick pixel's chain from a serial ``run_chain`` call."""
        from lspfit import (ChainConfig, CurveParams, IndexBounds,
                            LikelihoodKind, NoiseParam, ObservationSeries,
                            ParamVector, TuningSpec, default_priors, run_chain)
        b = self.spec.brick
        vals = self.brick.values[r, c]
        keep = np.isfinite(vals)
        series = ObservationSeries(self.brick.doys[keep],
                                   vals[keep].astype(np.float64))
        config = ChainConfig(
            n_samples=b.chain.n_samples, sub_start=b.chain.sub_start,
            sub_thin=b.chain.sub_thin,
            seed=oracles.splitmix64_seed(self.brick_seed, r, c, b.cols))
        start = ParamVector(CurveParams(*STARTING[:7]),
                            NoiseParam(STARTING[7]))
        chain = run_chain(LikelihoodKind.beta(), series,
                          default_priors(IndexBounds(0.0, 1.0), ig_scale=1e-3),
                          start, TuningSpec(*TUNING), config)
        return chain.samples

    def fit_prefix(self, kind: str, quickstart: bool = False) -> str:
        return self.path(f"{'quickstart' if quickstart else 'fit'}_{kind}")

    def _fit_op(self, kind: str, quickstart: bool = False) -> Op:
        """``lspfit fit`` on the seeded series, or on the README quickstart
        series with its fit seed.

        Only the quickstart fit must put the posterior medians near the
        truth: from the CLI's default start a chain on some seeded series
        stays away from it (CHANGES.md), so on the seeded series a miss is
        reported in the run's info line but not counted.
        """
        prefix = self.fit_prefix(kind, quickstart)
        series = self.quickstart if quickstart else self.series
        seed = QUICKSTART_FIT_SEED if quickstart else self.fit_seed
        argv = ["fit", "--input", series.path, "--out", prefix,
                "--seed", str(seed), "--likelihood", kind,
                "--ig", IG, *self.spec.fit.argv()]
        if kind == "tnormal":
            argv += ["--tn-bounds", "0,1"]

        def check(_):
            problems = checks.check_fit(
                prefix, kind, series, self.spec.fit,
                lambda k, d: self.loglik(k, d, series))
            if quickstart:
                problems += checks.check_truth(prefix, inputs.TRUTH)
            return problems
        truth = None if quickstart else (
            lambda _: checks.check_truth(prefix, inputs.TRUTH))
        name = f"fit.{kind}"
        return Op(f"{name}.quickstart" if quickstart else name,
                  lambda: self._main(argv), check, metric=name, watch=truth)

    def _derive_op(self) -> Op:
        prefix = self.path("derive")
        chain = self.fit_prefix("beta") + "_chain.csv"
        argv = ["derive", "--chain", chain, "--out", prefix,
                "--seed", str(self.derive_seed), "--likelihood", "beta",
                "--functionals",
                "season_length,curve_max,auc,delta,fitted,predictive",
                "--at", ",".join(f"{d:g}" for d in DERIVE_DAYS), "--samples"]
        return Op("derive", lambda: self._main(argv),
                  lambda _: checks.check_derive(prefix, chain, DERIVE_DAYS))

    def _brick_argv(self, prefix: str):
        b = self.spec.brick
        return ["fit-brick", "--input", self.brick.path, "--out", prefix,
                "--seed", str(self.brick_seed),
                "--workers", str(workers() if b.pool else 1),
                "--likelihood", "beta", "--ig", IG, *b.chain.argv(),
                "--functionals", ",".join(b.functionals),
                "--statistics", ",".join(b.statistics), "--save-samples"]

    def _fit_brick_op(self) -> Op:
        b = self.spec.brick
        prefix = self.path("brick")

        def check(_):
            flat = self.pick.choice(b.rows * b.cols, CHECKED_PIXELS,
                                    replace=False)
            pixels = [divmod(int(i), b.cols) for i in flat]
            return checks.check_fit_brick(prefix, self.brick, b.functionals,
                                          b.statistics, pixels,
                                          self.serial_chain)
        # pool workers inherit this process's cores when they start
        return Op("fit-brick", lambda: self._main(self._brick_argv(prefix)),
                  check, pinned=not b.pool)

    def _ingest_ops(self) -> list:
        lb = self.brick_mod
        lspb = self.path("roundtrip.lspb")

        def ingest(mode):
            self.results[mode] = lb.ingest_long_csv(self.csv.path, mode=mode)
            return self.results[mode]

        def roundtrip():
            lb.write_brick(self.results["pooled"], lspb)
            return lb.read_brick(lspb)

        ops = [
            Op("ingest.pooled", lambda: ingest("pooled"),
               lambda out: checks.check_ingest_pooled(out, self.csv)),
            Op("ingest.annual", lambda: ingest("annual"),
               lambda out: checks.check_ingest_annual(out, self.csv)),
            Op("ingest.roundtrip", roundtrip,
               lambda out: checks.check_roundtrip(lspb, self.results["pooled"],
                                                  out)),
        ]
        if self.leap is not None:
            ops.append(Op(
                "ingest.leap",
                lambda: lb.ingest_long_csv(self.leap.path, mode="pooled"),
                lambda out: checks.check_leap(out, self.leap.values),
                known_fault=lambda e: checks.is_leap_fault(e, self.leap)))
        return ops

    def ops(self) -> list:
        fits = [self._fit_op(k) for k in KINDS]
        if self.spec.quickstart:
            fits += [self._fit_op(k, quickstart=True) for k in KINDS]
        return (fits + [self._derive_op()] * DERIVE_REPEATS
                + [self._fit_brick_op()] + self._ingest_ops())

    # -- running ---------------------------------------------------------

    def run_op(self, op: Op, cpu: int) -> Outcome:
        """Run ``op`` on core ``cpu`` (all cores if unpinned), then check it.

        Host-speed probes on the same cores bracket the operation; the probe
        after one operation serves as the probe before the next one on the
        same cores.
        """
        cores = (cpu,) if op.pinned else CPUS
        before = (self._probe[1] if self._probe[0] == cores
                  else hostspeed.probe(cores))
        pin(set(cores))
        t0 = time.perf_counter()
        tracked = False
        try:
            out, error = op.run(), None
        except Exception as exc:  # an operation failure is a result
            out, error = None, f"{type(exc).__name__}: {exc}"
            tracked = op.known_fault is not None and op.known_fault(exc)
        seconds = time.perf_counter() - t0
        self._probe = (cores, hostspeed.probe(cores))
        scaled = seconds * hostspeed.scale(before, self._probe[1])
        metric = op.metric or op.name
        if error is not None:
            if not tracked:
                print(f"{op.name}: {error}", file=sys.stderr)
            return Outcome(op.name, metric, seconds, scaled, error, [],
                           tracked)
        try:
            problems = op.check(out)
        except Exception as exc:  # an output the check cannot even read
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        for p in problems:
            print(f"{op.name}: {p}", file=sys.stderr)
        notes = tuple(op.watch(out)) if op.watch is not None else ()
        return Outcome(op.name, metric, seconds, scaled, None, problems,
                       notes=notes)


def round_metrics(outcomes, runner: Runner, scaled: bool = True) -> dict:
    """End-to-end metrics of one round (all but set-up and memory)."""
    times = {}
    for o in outcomes:
        value = o.scaled if scaled else o.seconds
        times.setdefault(o.metric, []).append(value)
    t = {name: statistics.median(v) for name, v in times.items()}
    b = runner.spec.brick
    return {
        "fit_normal_s": t["fit.normal"],
        "fit_tnormal_s": t["fit.tnormal"],
        "fit_beta_s": t["fit.beta"],
        "derive_s": t["derive"],
        "brick_pixels_per_s": b.rows * b.cols / t["fit-brick"],
        "ingest_rows_per_s": 2 * runner.csv.rows_written
        / (t["ingest.pooled"] + t["ingest.annual"]),
    }
