"""Traced runs: spans around calls into lspfit, and per-layer metrics.

The tracer replaces public functions in the namespaces that call them
(``lspfit.cli`` for the commands, ``lspfit.brick`` for direct ingest and
LSPB calls) with wrappers that record a span: name, operation, parent span,
start and end. Spans stay in memory. Layers whose calls happen inside a
chain's inner loop (curve, likelihood, prior) cannot be wrapped without
distorting them, so they are timed by direct calls into their public
functions after the rounds, on the workload's own series and draws.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

import inputs
from workloads import DERIVE_DAYS, KINDS, Runner, workers

PATCHES = {
    "lspfit.cli": {
        "sampler": ("run_chain", "read_chain_csv", "write_chain_csv"),
        "posterior": ("summarize", "write_summary_csv", "functional_samples",
                      "fitted_samples", "predictive_samples"),
        "brick": ("fit_brick", "read_brick", "write_brick", "summarize_brick",
                  "write_grid_csv"),
    },
    "lspfit.brick": {
        "brick": ("ingest_long_csv", "write_brick", "read_brick"),
    },
}

FUNCTIONALS = ("alpha4", "alpha7", "season_length", "auc")

PER_LAYER = {  # name -> (unit, better)
    "curve.value_us": ("us", "lower"),
    "curve.nodes_us": ("us", "lower"),
    **{f"likelihood.loglik_us.{k}": ("us", "lower") for k in KINDS},
    "likelihood.simulate_ms": ("ms", "lower"),
    "prior.log_prior_us": ("us", "lower"),
    **{f"sampler.iter_us.{k}": ("us", "lower") for k in KINDS},
    **{f"sampler.overhead_us.{k}": ("us", "lower") for k in KINDS},
    "sampler.predraw_ms": ("ms", "lower"),
    "sampler.iterations": ("count", "higher"),
    **{f"sampler.acceptance.{k}": ("ratio", "higher") for k in KINDS},
    "posterior.auc_ms": ("ms", "lower"),
    "posterior.predictive_ms": ("ms", "lower"),
    "posterior.fitted_us": ("us", "lower"),
    "posterior.summarize_us": ("us", "lower"),
    "brick.fit_s": ("s", "lower"),
    "brick.pixel_chain_ms": ("ms", "lower"),
    "brick.parallel_efficiency": ("ratio", "higher"),
    **{f"brick.summarize_grid_ms.{f}": ("ms", "lower") for f in FUNCTIONALS},
    "brick.write_grid_csv_ms": ("ms", "lower"),
    "brick.ingest_s.pooled": ("s", "lower"),
    "brick.ingest_s.annual": ("s", "lower"),
    "brick.write_brick_ms": ("ms", "lower"),
    "brick.read_brick_ms": ("ms", "lower"),
    "brick.samples_mb": ("MB", "lower"),
    "brick.pixels_fitted": ("count", "higher"),
    "brick.pixels_skipped": ("count", "lower"),
    "cli.fit_overhead_ms": ("ms", "lower"),
    "cli.fit_brick_overhead_s": ("s", "lower"),
}

TIMED_PIXELS = 8  # pixels whose chains are timed serially


class Tracer:
    """Records a span per wrapped call; ``op`` labels the current operation."""

    def __init__(self):
        self.spans = []  # [name, op, parent index, start, end]
        self.op = None
        self.last = {}   # span name -> result of the last call
        self._stack = []
        self._patched = []

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = [name, self.op, self._stack[-1] if self._stack else None,
                   perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                self._stack.pop()
            self.last[name] = out
            return out
        return traced

    def install(self) -> None:
        import importlib
        for module_name, layers in PATCHES.items():
            module = importlib.import_module(module_name)
            for layer, names in layers.items():
                for fname in names:
                    orig = getattr(module, fname)
                    self._patched.append((module, fname, orig))
                    setattr(module, fname, self.span(f"{layer}.{fname}", orig))

    def uninstall(self) -> None:
        for module, fname, orig in reversed(self._patched):
            setattr(module, fname, orig)
        self._patched.clear()

    def durations(self, name: str, op: str | None = None) -> list:
        return [s[4] - s[3] for s in self.spans
                if s[0] == name and (op is None or s[1][1] == op)]

    def by_op(self, op: str) -> dict:
        """{round: {span name: summed duration}} for one operation."""
        out = {}
        for name, (rnd, opname), _, start, end in self.spans:
            if opname == op:
                d = out.setdefault(rnd, {})
                d[name] = d.get(name, 0.0) + end - start
        return out


def per_call(fn, items, repeats: int = 3) -> float:
    """Median over ``repeats`` of the mean seconds of ``fn(item)``."""
    means = []
    for _ in range(repeats):
        t0 = perf_counter()
        for item in items:
            fn(item)
        means.append((perf_counter() - t0) / len(items))
    return statistics.median(means)


def _median(values) -> float:
    return float(statistics.median(values))


def per_layer_metrics(tracer: Tracer, runner: Runner, rounds: int) -> dict:
    """Every PER_LAYER metric, from the spans and from direct calls."""
    from lspfit import (Chain, CurveParams, IndexBounds, LikelihoodKind,
                        NoiseParam, ObservationSeries, ParamVector,
                        auc_samples, curve_value, default_priors,
                        fitted_samples, log_prior, predictive_samples,
                        series_log_likelihood, simulate_series,
                        summarize, summarize_brick)
    m = {}
    spec = runner.spec
    doys = runner.series.doys
    series = ObservationSeries(doys, runner.series.values)
    draws = {k: np.loadtxt(runner.fit_prefix(k) + "_chain.csv", delimiter=",",
                           skiprows=1) for k in KINDS}
    beta = [CurveParams(*d[:7]) for d in draws["beta"]]

    m["curve.value_us"] = 1e6 * per_call(lambda p: curve_value(doys, p), beta)
    nodes = np.linspace(1.0, 365.0, 2913)
    m["curve.nodes_us"] = 1e6 * per_call(lambda p: curve_value(nodes, p),
                                         beta[::10])
    for k in KINDS:
        lk = runner._model(k)[0]
        items = [(CurveParams(*d[:7]), float(d[7])) for d in draws[k]]
        m[f"likelihood.loglik_us.{k}"] = 1e6 * per_call(
            lambda it: series_log_likelihood(lk, series, *it), items)
    truth = CurveParams(*inputs.TRUTH)
    def philox(seed):
        return np.random.Generator(np.random.Philox(key=seed))
    m["likelihood.simulate_ms"] = 1e3 * per_call(
        lambda s: simulate_series(LikelihoodKind.beta(), truth, inputs.SIGMA2,
                                  doys, philox(s)),
        range(20))
    prior = default_priors(IndexBounds(0.0, 1.0), ig_scale=1e-3)
    vectors = [ParamVector(CurveParams(*d[:7]), NoiseParam(float(d[7])))
               for d in draws["beta"]]
    m["prior.log_prior_us"] = 1e6 * per_call(lambda v: log_prior(prior, v),
                                             vectors)

    n = spec.fit.n_samples
    for k in KINDS:
        iter_us = 1e6 * _median(tracer.durations("sampler.run_chain",
                                                 f"fit.{k}")) / n
        m[f"sampler.iter_us.{k}"] = iter_us
        m[f"sampler.overhead_us.{k}"] = (iter_us - m["prior.log_prior_us"]
                                         - m[f"likelihood.loglik_us.{k}"])
        with open(runner.fit_prefix(k) + "_meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        m[f"sampler.acceptance.{k}"] = meta["acceptance"]["overall"]

    def predraw(seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        rng.standard_normal((50_000, 8))
        rng.random(50_000)
    m["sampler.predraw_ms"] = 1e3 * per_call(predraw, range(5))
    m["sampler.iterations"] = n * len(
        tracer.durations("sampler.run_chain")) / rounds

    chain = Chain(draws["beta"])
    m["posterior.auc_ms"] = 1e3 * per_call(auc_samples, [chain])
    m["posterior.predictive_ms"] = 1e3 * per_call(
        lambda s: predictive_samples(chain, LikelihoodKind.beta(), 180.0,
                                     philox(s)),
        range(3))
    m["posterior.fitted_us"] = 1e6 * per_call(
        lambda t: fitted_samples(chain, t), DERIVE_DAYS)
    m["posterior.summarize_us"] = 1e6 * per_call(
        lambda col: summarize(chain.samples[:, col]), range(8))

    fit_s = _median(tracer.durations("brick.fit_brick"))
    result = tracer.last["brick.fit_brick"]
    b = spec.brick
    m["brick.fit_s"] = fit_s
    pick = np.random.default_rng([runner.seed, 2]).choice(
        b.rows * b.cols, min(TIMED_PIXELS, b.rows * b.cols), replace=False)
    pixel_s = per_call(lambda i: runner.serial_chain(*divmod(int(i), b.cols)),
                       pick, repeats=1)
    m["brick.pixel_chain_ms"] = 1e3 * pixel_s
    fitted = int(result.fitted_mask().sum())
    m["brick.pixels_fitted"] = fitted
    m["brick.pixels_skipped"] = len(result.skipped)
    used = workers() if b.pool else 1
    m["brick.parallel_efficiency"] = pixel_s * fitted / (used * fit_s)
    m["brick.samples_mb"] = (b.rows * b.cols * b.chain.retained * 8 * 8
                             / 2**20)
    for f in FUNCTIONALS:
        m[f"brick.summarize_grid_ms.{f}"] = 1e3 * per_call(
            lambda r: summarize_brick(r, f, "median"), [result], repeats=1)
    m["brick.write_grid_csv_ms"] = 1e3 * _median(
        tracer.durations("brick.write_grid_csv"))

    for mode in ("pooled", "annual"):
        m[f"brick.ingest_s.{mode}"] = _median(
            tracer.durations("brick.ingest_long_csv", f"ingest.{mode}"))
    for io in ("write", "read"):
        m[f"brick.{io}_brick_ms"] = 1e3 * _median(
            tracer.durations(f"brick.{io}_brick", "ingest.roundtrip"))

    m["cli.fit_overhead_ms"] = 1e3 * _median(
        d["cli.main"] - d["sampler.run_chain"]
        for k in KINDS for d in tracer.by_op(f"fit.{k}").values())
    stages = ("brick.read_brick", "brick.fit_brick", "brick.summarize_brick",
              "brick.write_grid_csv")
    m["cli.fit_brick_overhead_s"] = _median(
        d["cli.main"] - sum(d.get(s, 0.0) for s in stages)
        for d in tracer.by_op("fit-brick").values())
    return m
