"""Block random-walk Metropolis sampler over (alpha1..alpha7, log sigma2).

Every iteration proposes all eight coordinates at once: each curve parameter
moves on its natural scale by a Normal step with the per-parameter tuning
standard deviation, and the variance moves on the log scale,
``z' = log(sigma2) + N(0, tuning_sigma2^2)``. The log acceptance ratio is
``log_posterior(proposed) - log_posterior(current) + (z' - z)``; the final
``(z' - z)`` term is the change-of-variable (Jacobian) correction for
proposing on the log scale. Out-of-support proposals get log-prior -inf and
are rejected through the same comparison, which preserves the exact target.
So does a ``z'`` whose ``exp`` overflows: its ``sigma2`` is inf.

Determinism contract: the generator is ``numpy.random.Generator`` backed by
``numpy.random.Philox`` keyed *directly* with the 64-bit ``config.seed`` (no
seed-sequence scrambling). Exactly two blocks are drawn, in this order:
``standard_normal((n_samples, 8))`` for the proposal steps, then
``random(n_samples)`` for the acceptance uniforms. Identical inputs and seed
therefore produce bit-identical chains on any platform with IEEE-754 doubles.

Both loops below take these draws in chunks of ``PREDRAW_CHUNK`` iterations
(:func:`_predraw_chunks`): chunked ``standard_normal`` calls reproduce the
single ``(n_samples, 8)`` call. One generator draws the first chunk of
normals, skips the rest of them and then draws the uniforms; a copy of its
state after the first chunk draws the later chunks of normals. So a chain's
memory does not grow with ``n_samples``, and a chain of one chunk draws each
normal once.
:func:`run_chain` runs one chain. :func:`run_lockstep` runs one chain per row
of a block of equally long series: all chains advance one iteration
together, through one batched log-target call over the ``(B, 8)`` block of
proposals, and each row stays bit-identical to :func:`run_chain` with its
own seed. At one chain the lockstep loop is slower than :func:`run_chain`,
so single series keep the one-chain loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import inv_boxcox

from .likelihood import LikelihoodKind, ObservationSeries, loglik_fn
from .prior import PARAM_NAMES, ParamVector, PriorSpec, _FlatPrior

__all__ = [
    "TuningSpec",
    "ChainConfig",
    "Chain",
    "GENERATOR_FAMILY",
    "CHAIN_CSV_HEADER",
    "philox_generator",
    "log_posterior",
    "run_chain",
    "run_lockstep",
    "subsample_indices",
    "write_chain_csv",
    "read_chain_csv",
]

GENERATOR_FAMILY = "philox4x64"
CHAIN_CSV_HEADER = ",".join(PARAM_NAMES)

_MASK64 = (1 << 64) - 1

# Iterations of pre-draws held per chain at a time: 72 bytes each, so a
# lockstep block of 256 chains holds 19 MB of them.
PREDRAW_CHUNK = 1024


def philox_generator(seed: int) -> np.random.Generator:
    """The contract's generator: Philox keyed directly with the low 64 bits
    of ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


@dataclass(frozen=True)
class TuningSpec:
    """Proposal standard deviations, one per sampled coordinate.

    alpha1..alpha7 are natural-scale standard deviations; sigma2 is the
    standard deviation of the log-scale step on z = log(sigma2). All must be
    strictly positive (pin a coordinate with a tiny value like 1e-15 instead
    of zero).
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    alpha5: float
    alpha6: float
    alpha7: float
    sigma2: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(
                    f"tuning standard deviation {name} must be finite and > 0, "
                    f"got {v}"
                )

    def to_array(self) -> np.ndarray:
        return np.array(
            [self.alpha1, self.alpha2, self.alpha3, self.alpha4,
             self.alpha5, self.alpha6, self.alpha7, self.sigma2],
            dtype=np.float64,
        )


@dataclass(frozen=True)
class ChainConfig:
    """Chain length, sub-sampling window, seed, and acceptance window.

    Iterations are numbered 1..n_samples; iterations
    ``sub_start, sub_start + sub_thin, ...`` up to ``sub_end`` are retained.
    ``sub_end`` defaults to ``n_samples``. ``batch_len`` is the length of the
    trailing window used for the last-batch acceptance rate; it defaults to
    100, capped at ``n_samples`` for short chains.
    """

    n_samples: int
    sub_start: int = 1
    sub_end: int | None = None
    sub_thin: int = 1
    seed: int = 0
    batch_len: int | None = None

    def __post_init__(self):
        if self.sub_end is None:
            object.__setattr__(self, "sub_end", self.n_samples)
        if self.batch_len is None:
            object.__setattr__(
                self, "batch_len",
                min(100, self.n_samples) if isinstance(self.n_samples, int) else 100,
            )
        for name in ("n_samples", "sub_start", "sub_end", "sub_thin",
                     "batch_len"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not (1 <= self.sub_start <= self.sub_end <= self.n_samples):
            raise ValueError(
                f"need 1 <= sub_start <= sub_end <= n_samples, got "
                f"({self.sub_start}, {self.sub_end}, {self.n_samples})"
            )
        if self.sub_thin < 1:
            raise ValueError(f"sub_thin must be >= 1, got {self.sub_thin}")
        if not (1 <= self.batch_len <= self.n_samples):
            raise ValueError(
                f"batch_len must be in [1, n_samples], got {self.batch_len}"
            )
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class Chain:
    """Retained posterior draws plus acceptance bookkeeping.

    ``samples`` is an (M, 8) float64 array with columns alpha1..alpha7,
    sigma2 (sigma2 on the natural scale). Acceptance rates are fractions in
    [0, 1]; they are None for chains reconstructed from a CSV export.
    """

    samples: np.ndarray
    acc_overall: float | None = None
    acc_last_batch: float | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2 or samples.shape[1] != 8:
            raise ValueError(
                f"samples must be an (M, 8) array, got shape {samples.shape}"
            )

    @property
    def retained_count(self) -> int:
        return self.samples.shape[0]

    @classmethod
    def from_samples(cls, samples) -> "Chain":
        return cls(np.asarray(samples, dtype=np.float64))


def subsample_indices(config: ChainConfig) -> np.ndarray:
    """1-based retained iteration numbers: sub_start, +thin, ... <= sub_end."""
    return np.arange(config.sub_start, config.sub_end + 1, config.sub_thin,
                     dtype=np.int64)


def _retained(config: ChainConfig):
    """Whether the state after iteration i is retained, for i in
    0..n_samples (0 never is), and the retained count."""
    indices = subsample_indices(config)
    retain = np.zeros(config.n_samples + 1, dtype=bool)
    retain[indices] = True
    return retain.tolist(), indices.size


def log_posterior(kind: LikelihoodKind, series: ObservationSeries,
                  spec: PriorSpec, v: ParamVector) -> float:
    """Unnormalized log target: series log-likelihood plus log-prior.

    Returns -inf outside the prior support without evaluating the
    likelihood, so out-of-support vectors never reach curve evaluation.
    """
    if len(series) == 0:
        raise ValueError("series must be non-empty")
    arr = v.to_array()
    vals = arr.tolist()
    lp = _FlatPrior(spec).log_prior(*vals)
    if lp == -math.inf:
        return -math.inf
    return lp + loglik_fn(kind, series.doys, series.values)(vals, vals[7])


def _check_start(flat: _FlatPrior, vals) -> None:
    """Raise ValueError, naming the values, unless the eight floats ``vals``
    of a starting vector lie strictly inside the prior support."""
    if not flat.in_support(*vals):
        raise ValueError(
            "starting values must lie strictly inside the prior support: "
            f"alpha={vals[:7]}, sigma2={vals[7]}"
        )


def run_chain(kind: LikelihoodKind, series: ObservationSeries, spec: PriorSpec,
              starting: ParamVector, tuning: TuningSpec,
              config: ChainConfig) -> Chain:
    """Run the block Metropolis chain and return the retained draws.

    Parameters
    ----------
    kind : LikelihoodKind
    series : ObservationSeries
        Non-empty observations of one pixel.
    spec : PriorSpec
    starting : ParamVector
        Must lie strictly inside the prior support.
    tuning : TuningSpec
        Proposal standard deviations (log scale for sigma2).
    config : ChainConfig

    Returns
    -------
    Chain
        Retained (alpha, sigma2) draws in iteration order, the overall
        acceptance fraction (accepted / n_samples, exact), and the
        acceptance fraction over the final ``batch_len`` iterations.

    Raises
    ------
    ValueError
        If the series is empty or the starting vector is outside the prior
        support.
    """
    if len(series) == 0:
        raise ValueError("series must be non-empty")
    flat = _FlatPrior(spec)
    theta = starting.to_array()
    start_vals = theta.tolist()
    _check_start(flat, start_vals)
    loglik = loglik_fn(kind, series.doys, series.values)

    z = math.log(theta[7])
    lp = flat.log_prior(*start_vals) + loglik(theta, theta[7])

    n = config.n_samples
    retain, m = _retained(config)
    out = np.empty((m, 8), dtype=np.float64)
    ptr = 0

    batch_from = n - config.batch_len
    n_acc = 0
    n_acc_batch = 0
    i = 0
    for steps, log_u in _predraw_chunks((config.seed,), tuning, n):
        for step, dz, lu in zip(steps[:, 0], steps[:, 0, 7].tolist(),
                                log_u[:, 0].tolist()):
            prop = theta + step
            zp = z + dz
            try:
                s2p = math.exp(zp)
            except OverflowError:  # as in run_lockstep: the prior rejects it
                s2p = math.inf
            prop[7] = s2p
            p = prop.tolist()
            lpp = flat.log_prior(*p)
            if lpp != -math.inf:
                lpp += loglik(prop, s2p)
            if lu < lpp - lp + (zp - z):
                theta = prop
                z = zp
                lp = lpp
                n_acc += 1
                if i >= batch_from:
                    n_acc_batch += 1
            i += 1
            if retain[i]:
                out[ptr] = theta
                ptr += 1

    return Chain(out, n_acc / n, n_acc_batch / config.batch_len)


def _predraw_chunks(seeds, tuning: TuningSpec, n: int):
    """Yield ``(steps, log_u)`` chunks, ``(c, B, 8)`` and ``(c, B)``, of the
    contract's pre-draws for each seed, ``PREDRAW_CHUNK`` iterations at a
    time: the scaled proposal steps and the logs of the uniforms.

    Each seed's generator draws the first chunk of normals, skips the rest
    and draws the uniforms; only a chain of more than one chunk builds a
    second generator, from the first one's state after its first chunk, to
    draw the rest of the normals."""
    sizes = [min(PREDRAW_CHUNK, n - i) for i in range(0, n, PREDRAW_CHUNK)]
    scale = tuning.to_array()
    gens = [philox_generator(s) for s in seeds]
    first = [g.standard_normal((sizes[0], 8)) for g in gens]
    later = []
    if len(sizes) > 1:  # the uniforms follow all the normals in the stream
        for g in gens:
            later.append(philox_generator(0))
            later[-1].bit_generator.state = g.bit_generator.state
            for c in sizes[1:]:
                g.standard_normal((c, 8))
    for k, c in enumerate(sizes):
        steps = np.empty((c, len(seeds), 8))
        log_u = np.empty((c, len(seeds)))
        for b, g in enumerate(gens):
            steps[:, b] = later[b].standard_normal((c, 8)) if k else first[b]
            log_u[:, b] = np.log(g.random(c))
        first.clear()  # hold one chunk at a time
        steps *= scale
        yield steps, log_u


def run_lockstep(kind: LikelihoodKind, t: np.ndarray, y: np.ndarray,
                 spec: PriorSpec, starting: ParamVector, tuning: TuningSpec,
                 config: ChainConfig, seeds):
    """Run one chain per row of ``t`` and ``y``, all advancing together.

    Row ``b`` gives bit for bit the chain of :func:`run_chain` on the series
    ``(t[b], y[b])`` with ``config.seed = seeds[b]``.

    Parameters
    ----------
    t, y : (B, m) float64 arrays
        Days and values, one non-empty series per row.
    seeds : sequence of B ints

    Returns
    -------
    samples : (B, M, 8) array
        Each chain's retained draws, as ``Chain.samples``.
    acc_overall, acc_last_batch : (B,) arrays
        Each chain's acceptance fractions.

    Raises
    ------
    ValueError
        If the starting vector is outside the prior support.
    """
    flat = _FlatPrior(spec)
    start = starting.to_array()
    _check_start(flat, start.tolist())
    loglik = loglik_fn(kind, t, y)
    n_chains = len(seeds)
    theta = np.tile(start, (n_chains, 1))
    z = np.full(n_chains, math.log(start[7]))
    lp = flat.log_prior(*start.tolist()) + loglik(theta.T[:, :, None],
                                                  theta[:, 7])

    n = config.n_samples
    retain, m = _retained(config)
    out = np.empty((n_chains, m, 8), dtype=np.float64)
    ptr = 0

    batch_from = n - config.batch_len
    n_acc = np.zeros(n_chains, dtype=np.int64)
    n_acc_batch = np.zeros(n_chains, dtype=np.int64)
    i = 0
    # a row whose target is -inf before and after the step gives -inf - -inf:
    # NaN, which rejects, as in run_chain
    with np.errstate(invalid="ignore"):
        for steps, log_u in _predraw_chunks(seeds, tuning, n):
            for step, lu in zip(steps, log_u):
                prop = theta + step
                zp = z + step[:, 7]
                # libm's exp, as math.exp in run_chain (np.exp can differ in
                # the last bit); inf where it overflows
                prop[:, 7] = inv_boxcox(zp, 0.0)
                lpp = flat.log_prior(*prop.T)
                # where the prior is -inf, run_chain skips the likelihood:
                # evaluate the current state there instead, which is always
                # inside the support
                at = np.where((lpp != -math.inf)[:, None], prop, theta)
                lpp += loglik(at.T[:, :, None], at[:, 7])
                acc = lu < lpp - lp + (zp - z)
                theta = np.where(acc[:, None], prop, theta)
                z = np.where(acc, zp, z)
                lp = np.where(acc, lpp, lp)
                n_acc += acc
                if i >= batch_from:
                    n_acc_batch += acc
                i += 1
                if retain[i]:
                    out[:, ptr] = theta
                    ptr += 1

    return out, n_acc / n, n_acc_batch / config.batch_len


def write_chain_csv(chain: Chain, path) -> None:
    """Write retained draws as CSV, one row per draw.

    Header is exactly ``alpha1,...,alpha7,sigma2`` and every value is
    formatted with 17 significant digits, which round-trips float64 exactly.
    """
    np.savetxt(path, chain.samples, fmt="%.17g", delimiter=",",
               header=CHAIN_CSV_HEADER, comments="")


def read_chain_csv(path) -> Chain:
    """Read a chain CSV written by :func:`write_chain_csv`.

    Acceptance fields are not stored in the CSV, so they are None on the
    returned Chain.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CHAIN_CSV_HEADER:
            raise ValueError(
                f"unexpected chain CSV header {header!r}; "
                f"expected {CHAIN_CSV_HEADER!r}"
            )
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.size == 0:
        rows = np.empty((0, 8), dtype=np.float64)
    return Chain.from_samples(rows)
