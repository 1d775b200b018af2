"""Posterior summaries and sample-wise propagation of derived quantities.

Every derived quantity is computed draw by draw from the retained chain
(post-burn-in, post-thinning), so its posterior distribution is just the
empirical distribution of the transformed draws:

* fitted curve value at a day t,
* posterior-predictive draw at a day t,
* season length (alpha7 - alpha4),
* curve maximum (alpha1 + alpha2),
* spring/autumn crossover day delta,
* area under the curve over [t_lo, t_hi], in closed form on each logistic
  branch (split at delta, where the combined curve has a slope kink).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import spence

from .curve import _check_rates, _crossover_raw, _curve_raw
from .likelihood import LikelihoodKind, _predictive_draws
from .prior import PARAM_NAMES
from .sampler import Chain

__all__ = [
    "PosteriorSummary",
    "QuadratureConfig",
    "summarize",
    "sample_statistics",
    "STATISTICS",
    "fitted_samples",
    "predictive_samples",
    "season_length_samples",
    "curve_max_samples",
    "crossover_samples",
    "auc_samples",
    "functional_samples",
    "DERIVED_FUNCTIONALS",
    "FUNCTIONALS",
    "format_summary_csv",
    "write_summary_csv",
    "SUMMARY_CSV_HEADER",
]

SUMMARY_CSV_HEADER = "quantity,mean,sd,median,q025,q975"

STATISTICS = ("mean", "sd", "median", "q025", "q975", "width95")


@dataclass(frozen=True)
class PosteriorSummary:
    """Mean, standard deviation, median, and 95% interval endpoints."""

    mean: float
    sd: float
    median: float
    q025: float
    q975: float


@dataclass(frozen=True)
class QuadratureConfig:
    """Integration range [t_lo, t_hi] of the area under the curve, in days."""

    t_lo: float = 1.0
    t_hi: float = 365.0

    def __post_init__(self):
        if not (np.isfinite(self.t_lo) and np.isfinite(self.t_hi)
                and self.t_lo < self.t_hi):
            raise ValueError(
                f"need t_lo < t_hi, got ({self.t_lo}, {self.t_hi})"
            )


# math.fsum is correctly rounded whatever it reads, and reads a list about
# twice as fast as an array, hence the .tolist() calls below.
def sample_mean(x: np.ndarray) -> float:
    """Compensated two-pass mean, so constant input has zero deviations."""
    m = math.fsum(x.tolist()) / x.size
    return m + math.fsum((x - m).tolist()) / x.size


def sample_sd(x: np.ndarray, mean: float) -> float:
    """Standard deviation (n-1 denominator) of >= 2 samples around a mean."""
    if x.size < 2:
        raise ValueError(f"sd needs at least 2 samples, got {x.size}")
    return math.sqrt(math.fsum(((x - mean) ** 2).tolist()) / (x.size - 1))


def sample_statistics(v, statistics) -> dict:
    """Named statistics of the draws along the last axis of ``v``.

    ``statistics`` names members of :data:`STATISTICS`; each maps to an
    array of ``v.shape[:-1]``. mean and sd (n-1 denominator) come from
    :func:`sample_mean` and :func:`sample_sd` row by row; median, q025, q975
    and width95 (q975 - q025) from one ``np.quantile`` call at the levels
    0.025, 0.5 and 0.975, by linear interpolation between order statistics
    (quantile p sits at fractional position (n-1)*p, numpy's default).
    """
    v = np.asarray(v, dtype=np.float64)
    out = {}
    if {"mean", "sd"} & set(statistics):
        rows = v.reshape(-1, v.shape[-1])
        means = [sample_mean(x) for x in rows]
        out["mean"] = np.reshape(means, v.shape[:-1])
        if "sd" in statistics:
            out["sd"] = np.reshape(
                [sample_sd(x, m) for x, m in zip(rows, means)], v.shape[:-1])
    if {"median", "q025", "q975", "width95"} & set(statistics):
        q025, median, q975 = np.quantile(v, [0.025, 0.5, 0.975], axis=-1)
        out.update(q025=q025, median=median, q975=q975, width95=q975 - q025)
    return {st: out[st] for st in statistics}


def summarize(samples) -> PosteriorSummary:
    """Empirical summary of a sample vector: mean, sd, median, q025 and
    q975 as :func:`sample_statistics` computes them.

    Raises
    ------
    ValueError
        With fewer than 2 samples.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("summarize needs a 1-d vector of at least 2 samples")
    stats = sample_statistics(x, ("mean", "sd", "median", "q025", "q975"))
    return PosteriorSummary(**{k: float(v) for k, v in stats.items()})


def _require_nonempty(chain: Chain):
    if chain.retained_count == 0:
        raise ValueError("chain has no retained draws")


def fitted_samples(chain: Chain, t: float) -> np.ndarray:
    """Posterior of the fitted curve value at day ``t``: one per draw."""
    _require_nonempty(chain)
    a1, a2, a3, a4, a5, a6, a7 = chain.samples.T[:7]
    return _curve_raw(float(t), a1, a2, a3, a4, a5, a6, a7)


def predictive_samples(chain: Chain, kind: LikelihoodKind, t0: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Posterior-predictive draws of a new observation at day ``t0``.

    For each retained draw, one likelihood draw with mean equal to that
    draw's curve value at ``t0`` and that draw's sigma2, taken in draw
    order. Deterministic given the rng state; propagates predictive-draw
    errors (e.g. a Beta mean outside (0, 1)).
    """
    _require_nonempty(chain)
    return _predictive_draws(kind, fitted_samples(chain, t0),
                             chain.samples[:, 7], rng)


def season_length_samples(chain: Chain) -> np.ndarray:
    """Posterior of the season length alpha7 - alpha4: one per draw."""
    _require_nonempty(chain)
    return chain.samples[:, 6] - chain.samples[:, 3]


def curve_max_samples(chain: Chain) -> np.ndarray:
    """Posterior of the curve maximum alpha1 + alpha2: one per draw."""
    _require_nonempty(chain)
    return chain.samples[:, 0] + chain.samples[:, 1]


def crossover_samples(chain: Chain) -> np.ndarray:
    """Posterior of the crossover day delta: one per draw."""
    _require_nonempty(chain)
    a3, a4, a6, a7 = (chain.samples[:, 2], chain.samples[:, 3],
                      chain.samples[:, 5], chain.samples[:, 6])
    return _crossover_raw(a3, a4, a6, a7)


# Taylor coefficients c_j of expit(u) at u^0..u^7
_EXPIT_SERIES = np.array([1 / 2, 1 / 4, 0, -1 / 48, 0, 1 / 480, 0, -17 / 80640])


def _branch_integral(b0, a5, k, s_lo, s_hi):
    """Integral of (b0 - a5*s) * expit(k*s) over s in [s_lo, s_hi].

    With u = k*s it is b0/k * softplus(u) - a5/k^2 * (u*softplus(u) - G(u))
    between the ends, G(u) = -Li2(-e^u) = -spence(1 + e^u) for u <= 0 and
    pi^2/6 + u^2/2 - G(-u) for u > 0. That cancels badly where |u| < 1e-2 on
    the whole range (k == 0 too), so there each term c_j*u^j of the Taylor
    series of expit gives c_j*u^j*s*(b0/(j+1) - a5*s/(j+2)) instead.
    """
    def closed(s):
        u = k * s
        sp = np.logaddexp(0.0, u)
        g = -spence(1.0 + np.exp(-np.abs(u)))
        g = np.where(u > 0, np.pi ** 2 / 6 + 0.5 * u * u - g, g)
        return b0 / k * sp - a5 / (k * k) * (u * sp - g)

    def series(s):
        u, j = k * s, np.arange(1, 9)
        return s * (b0 * polyval(u, _EXPIT_SERIES / j)
                    - a5 * s * polyval(u, _EXPIT_SERIES / (j + 1)))

    small = np.maximum(np.abs(k * s_lo), np.abs(k * s_hi)) < 1e-2
    with np.errstate(divide="ignore", invalid="ignore"):  # k == 0 is small
        exact = closed(s_hi) - closed(s_lo)
    return np.where(small, series(s_hi) - series(s_lo), exact)


def auc_samples(chain: Chain, q: QuadratureConfig | None = None) -> np.ndarray:
    """Posterior of the area under the curve over [t_lo, t_hi]: one per draw.

    Exact per draw: alpha1 * (t_hi - t_lo), bit for bit for a flat curve,
    plus the spring branch up to the crossover day (clipped into [t_lo,
    t_hi]) and the autumn branch after it, by :func:`_branch_integral`.
    ValueError if any draw has degenerate rates (alpha3 + alpha6 <= 0).
    """
    _require_nonempty(chain)
    q = q or QuadratureConfig()
    a1, a2, a3, a4, a5, a6, a7 = chain.samples.T[:7]
    _check_rates(a3, a6)
    d = np.clip(_crossover_raw(a3, a4, a6, a7), q.t_lo, q.t_hi)
    spring = _branch_integral(a2 - a5 * a4, a5, a3, q.t_lo - a4, d - a4)
    autumn = _branch_integral(a2 - a5 * a7, a5, -a6, d - a7, q.t_hi - a7)
    return a1 * (q.t_hi - q.t_lo) + spring + autumn


# The one list of derived functionals: each name maps to the function that
# gives its draws. The CLI's defaults and help text are built from it.
DERIVED_FUNCTIONALS = {
    "season_length": season_length_samples,
    "curve_max": curve_max_samples,
    "auc": auc_samples,
    "delta": crossover_samples,
}

# Every name functional_samples accepts: the parameters, then the derived.
FUNCTIONALS = PARAM_NAMES + tuple(DERIVED_FUNCTIONALS)


def functional_samples(chain: Chain, functional: str,
                       q: QuadratureConfig | None = None) -> np.ndarray:
    """Sample vector of a named derived functional of the chain.

    ``functional`` is one of :data:`FUNCTIONALS`: a parameter name
    (``alpha1``..``alpha7``, ``sigma2``) or a key of
    :data:`DERIVED_FUNCTIONALS`. ``q`` sets the range of ``auc``.

    Raises
    ------
    ValueError
        For an unknown functional name.
    """
    _require_nonempty(chain)
    if functional in PARAM_NAMES:
        return chain.samples[:, PARAM_NAMES.index(functional)].copy()
    fn = DERIVED_FUNCTIONALS.get(functional)
    if fn is None:
        raise ValueError(
            f"unknown functional {functional!r}; expected one of {FUNCTIONALS}"
        )
    return fn(chain, q) if fn is auc_samples else fn(chain)


def format_summary_csv(entries) -> str:
    """Summary CSV text: the header, then one row per (name,
    PosteriorSummary) pair with 17 significant digits per value."""
    lines = [SUMMARY_CSV_HEADER]
    lines += [f"{name},{s.mean:.17g},{s.sd:.17g},{s.median:.17g},"
              f"{s.q025:.17g},{s.q975:.17g}" for name, s in entries]
    return "\n".join(lines) + "\n"


def write_summary_csv(entries, path) -> None:
    """Write (name, PosteriorSummary) pairs as the summary CSV of
    :func:`format_summary_csv` (columns ``quantity,mean,sd,median,q025,q975``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_summary_csv(entries))
