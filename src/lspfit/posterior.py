"""Posterior summaries and sample-wise propagation of derived quantities.

Every derived quantity is computed draw by draw from the retained chain
(post-burn-in, post-thinning), so its posterior distribution is just the
empirical distribution of the transformed draws:

* fitted curve value at a day t,
* posterior-predictive draw at a day t,
* season length (alpha7 - alpha4),
* curve maximum (alpha1 + alpha2),
* spring/autumn crossover day delta,
* area under the curve over [t_lo, t_hi] by composite Simpson quadrature,
  split at delta so each Simpson rule sees a smooth branch (the combined
  curve has a slope kink at delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import _crossover_raw, _curve_raw
from .likelihood import LikelihoodKind, _predictive_draws
from .sampler import Chain

__all__ = [
    "PosteriorSummary",
    "QuadratureConfig",
    "summarize",
    "fitted_samples",
    "predictive_samples",
    "season_length_samples",
    "curve_max_samples",
    "crossover_samples",
    "auc_samples",
    "functional_samples",
    "FUNCTIONALS",
    "format_summary_csv",
    "write_summary_csv",
    "SUMMARY_CSV_HEADER",
]

SUMMARY_CSV_HEADER = "quantity,mean,sd,median,q025,q975"

FUNCTIONALS = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6",
               "alpha7", "sigma2", "season_length", "curve_max", "auc",
               "delta")


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
    """Integration range and panel count for the AUC quadrature.

    ``panels`` must be even and at least 4: the rule is split at the curve's
    crossover day with a minimum of 2 panels (one Simpson pair) per side.
    The default 2912 panels is about eight per day over [1, 365], enough to
    resolve the sharpest transitions the prior allows.
    """

    t_lo: float = 1.0
    t_hi: float = 365.0
    panels: int = 2912

    def __post_init__(self):
        if not (np.isfinite(self.t_lo) and np.isfinite(self.t_hi)
                and self.t_lo < self.t_hi):
            raise ValueError(
                f"need t_lo < t_hi, got ({self.t_lo}, {self.t_hi})"
            )
        if (not isinstance(self.panels, (int, np.integer))
                or isinstance(self.panels, bool) or self.panels < 4
                or self.panels % 2):
            raise ValueError(
                f"panels must be an even integer >= 4, got {self.panels!r}"
            )


def sample_mean(x: np.ndarray) -> float:
    """Compensated two-pass mean, so constant input has zero deviations."""
    m = math.fsum(x) / x.size
    return m + math.fsum(x - m) / x.size


def sample_sd(x: np.ndarray, mean: float) -> float:
    """Standard deviation (n-1 denominator) around a given mean."""
    return math.sqrt(math.fsum((x - mean) ** 2) / (x.size - 1))


def summarize(samples) -> PosteriorSummary:
    """Empirical summary of a sample vector.

    Mean; standard deviation with the n-1 denominator; 0.025/0.5/0.975
    quantiles by linear interpolation between order statistics (the
    convention where quantile p sits at fractional order-statistic position
    (n-1)*p, numpy's default).

    Raises
    ------
    ValueError
        With fewer than 2 samples.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("summarize needs a 1-d vector of at least 2 samples")
    q025, med, q975 = np.quantile(x, [0.025, 0.5, 0.975])
    mean = sample_mean(x)
    return PosteriorSummary(
        mean=mean,
        sd=sample_sd(x, mean),
        median=float(med),
        q025=float(q025),
        q975=float(q975),
    )


def _cols(chain: Chain):
    s = chain.samples
    return (s[:, 0], s[:, 1], s[:, 2], s[:, 3], s[:, 4], s[:, 5], s[:, 6],
            s[:, 7])


def _require_nonempty(chain: Chain):
    if chain.retained_count == 0:
        raise ValueError("chain has no retained draws")


def fitted_samples(chain: Chain, t: float) -> np.ndarray:
    """Posterior of the fitted curve value at day ``t``: one per draw."""
    _require_nonempty(chain)
    a1, a2, a3, a4, a5, a6, a7 = _cols(chain)[:7]
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


def _simpson_segment(al, lo: float, hi: float, m: int) -> float:
    x = np.linspace(lo, hi, m + 1)
    f = _curve_raw(x, al[0], al[1], al[2], al[3], al[4], al[5], al[6])
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    # grouped as width * (dot / (3m)): for a constant curve the division
    # cancels the weight total exactly, making the constant-curve identity
    # integral == c * width bit-exact for dyadic c
    return (hi - lo) * (float(w @ f) / (3.0 * m))


def _auc_one(al, q: QuadratureConfig) -> float:
    delta = _crossover_raw(al[2], al[3], al[5], al[6])
    d = min(max(delta, q.t_lo), q.t_hi)
    frac = (d - q.t_lo) / (q.t_hi - q.t_lo)
    left = int(round(q.panels * frac / 2.0)) * 2
    left = min(max(left, 2), q.panels - 2)
    right = q.panels - left
    return (_simpson_segment(al, q.t_lo, d, left)
            + _simpson_segment(al, d, q.t_hi, right))


def auc_samples(chain: Chain, q: QuadratureConfig | None = None) -> np.ndarray:
    """Posterior of the area under the curve over [t_lo, t_hi]: one per draw.

    Each draw is integrated by composite Simpson quadrature split at that
    draw's crossover day (panels allocated proportionally to the two
    sub-intervals, minimum 2 per side, kept even), so each rule integrates a
    smooth logistic branch. With the default 2912 panels the result agrees
    with a 1e6-cell midpoint Riemann sum to better than 1e-6 relative across
    the prior range, including its sharpest-transition corners.
    """
    _require_nonempty(chain)
    if q is None:
        q = QuadratureConfig()
    return np.array([_auc_one(row, q) for row in chain.samples[:, :7]],
                    dtype=np.float64)


def functional_samples(chain: Chain, functional: str,
                       q: QuadratureConfig | None = None) -> np.ndarray:
    """Sample vector of a named derived functional of the chain.

    ``functional`` is one of ``alpha1``..``alpha7``, ``sigma2``,
    ``season_length``, ``curve_max``, ``auc``, or ``delta``.

    Raises
    ------
    ValueError
        For an unknown functional name.
    """
    _require_nonempty(chain)
    names = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6",
             "alpha7", "sigma2")
    if functional in names:
        return chain.samples[:, names.index(functional)].copy()
    if functional == "season_length":
        return season_length_samples(chain)
    if functional == "curve_max":
        return curve_max_samples(chain)
    if functional == "delta":
        return crossover_samples(chain)
    if functional == "auc":
        return auc_samples(chain, q)
    raise ValueError(
        f"unknown functional {functional!r}; expected one of {FUNCTIONALS}"
    )


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
