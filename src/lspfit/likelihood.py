"""Observation models for bounded vegetation-index series.

Three candidate likelihoods share a single variance-style parameter
``sigma2``:

* ``normal``: Normal(mu, sigma2).
* ``tnormal``: Normal(mu, sigma2) truncated to a closed interval [a, b];
  density is zero (log-density -inf) outside [a, b].
* ``beta``: Beta in the mean-precision parameterization with mean ``mu`` and
  precision ``phi = 1/sigma2``, i.e. shapes ``p = mu*phi`` and
  ``q = (1 - mu)*phi``.

Each model is one kernel (``_Normal``, ``_TNormal``, ``_Beta``) holding its
formulas side by side: ``log_density``, the scalar log-density on plain
floats; ``bind``, the summed series log-likelihood as a closure
``f(alphas, s2)`` with per-series constants hoisted out (the sampler's hot
path); and ``draw``, predictive draws at scalar or array means, one
generator draw per mean in order. ``_KERNELS`` maps a kind to its kernel;
it is the only place where a formula is chosen by kind.

``bind`` writes each formula once, for one series or a block of series.
Days and values are ``(m,)`` arrays, or ``(B, m)`` arrays holding one series
per row (the rows of a block may have different days). The closure then
takes seven floats and a float ``s2``, or seven ``(B, 1)`` columns and a
``(B,)`` ``s2``, and returns a float or a ``(B,)`` array. Reductions run
along the last axis (``.sum(-1)``, ``np.vecdot``), which gives every row
exactly the value of the one-series call; the log of a ``(B,)`` ``s2`` is
libm's, the function ``math.log`` calls, for the same reason (``np.log`` can
differ in the last bit).
Data a model cannot produce and means outside the admissible set give
``-inf`` on their own rows only.

Log-densities return ``-inf`` (never raise) whenever the density is zero or
undefined because the mean left the admissible set; a Metropolis step can then
simply reject such proposals. Errors are reserved for structurally invalid
parameters (``sigma2 <= 0``, truncation bounds with ``a >= b``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtr, ndtri, xlogy

from .curve import CurveParams, IndexBounds, _check_doys, _check_rates, _curve_raw

__all__ = [
    "NoiseParam",
    "LikelihoodKind",
    "ObservationSeries",
    "log_density",
    "series_log_likelihood",
    "predictive_draw",
    "simulate_series",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NoiseParam:
    """Likelihood noise parameter: the variance ``sigma2``.

    For the Beta likelihood this is the reciprocal of the precision
    (``phi = 1/sigma2``) rather than the variate's variance.
    """

    sigma2: float

    def __post_init__(self):
        _as_sigma2(self.sigma2)

    def __float__(self) -> float:
        return self.sigma2


@dataclass(frozen=True)
class LikelihoodKind:
    """One of the three observation models: normal, tnormal, or beta.

    Use the constructors :meth:`normal`, :meth:`truncated_normal`, and
    :meth:`beta`; truncation bounds are validated there.
    """

    kind: str
    a: float = float("nan")
    b: float = float("nan")

    def __post_init__(self):
        if self.kind not in _KERNELS:
            raise ValueError(f"unknown likelihood kind {self.kind!r}")
        if self.kind == "tnormal":
            if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
                raise ValueError(
                    f"truncation bounds require a < b, got ({self.a}, {self.b})"
                )

    @classmethod
    def normal(cls) -> "LikelihoodKind":
        return cls("normal")

    @classmethod
    def truncated_normal(cls, a: float, b: float) -> "LikelihoodKind":
        return cls("tnormal", float(a), float(b))

    @classmethod
    def beta(cls) -> "LikelihoodKind":
        return cls("beta")


@dataclass(frozen=True)
class ObservationSeries:
    """One pixel's (day-of-year, VI value) observations plus index bounds.

    Parameters
    ----------
    doys : array-like of float
        Days of year, real-valued, each in [1, 366].
    values : array-like of float
        VI observations, finite, same length as ``doys``.
    bounds : IndexBounds
        The index support (gamma1, gamma2) the series is recorded on. It is
        metadata only: neither the likelihood nor the prior reads it, and
        priors take their bounds from ``default_priors(bounds)``.
    """

    doys: np.ndarray
    values: np.ndarray
    bounds: IndexBounds = field(default_factory=lambda: IndexBounds(0.0, 1.0))

    def __post_init__(self):
        doys = _check_doys(self.doys)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "doys", doys)
        object.__setattr__(self, "values", values)
        if doys.ndim != 1 or values.ndim != 1 or doys.size != values.size:
            raise ValueError("doys and values must be 1-d arrays of equal length")
        if values.size and not np.isfinite(values).all():
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return self.doys.size


def _as_sigma2(sigma2):
    """``sigma2`` as a float, or as is when an array; ValueError unless every
    value is finite and > 0."""
    if isinstance(sigma2, np.ndarray):
        ok = (np.isfinite(sigma2) & (sigma2 > 0)).all()
    else:
        sigma2 = float(sigma2)
        ok = math.isfinite(sigma2) and sigma2 > 0
    if not ok:
        raise ValueError(f"sigma2 must be finite and > 0, got {sigma2}")
    return sigma2


def _tn_log_mass(mu, sd, a, b):
    """log(Phi((b-mu)/sd) - Phi((a-mu)/sd)), cancellation-safe.

    When both standardized bounds are positive the difference is reflected
    (Phi(x2) - Phi(x1) = Phi(-x1) - Phi(-x2)) so the larger CDF value is the
    well-conditioned one; the difference of logs then goes through log1p.
    Vectorized over mu.
    """
    za = (a - mu) / sd
    zb = (b - mu) / sd
    flip = za > 0
    hi = np.where(flip, -za, zb)
    lo = np.where(flip, -zb, za)
    la = log_ndtr(hi)
    lb = log_ndtr(lo)
    with np.errstate(divide="ignore"):
        return la + np.log1p(-np.exp(lb - la))


def _math_log(x):
    """``math.log`` of a float, or libm's ``log`` of each value of an array,
    which is what ``math.log`` calls (``np.log`` can differ in the last
    bit)."""
    if isinstance(x, np.ndarray):
        return xlogy(1.0, x)
    return math.log(x)


def _col(x):
    """A ``(B,)`` array as a ``(B, 1)`` column that broadcasts against
    ``(B, m)`` rows; a float as is."""
    return x[:, None] if isinstance(x, np.ndarray) else x


def _masked(ok, ll):
    """``ll`` where ``ok`` holds and -inf elsewhere, per row of a block."""
    if isinstance(ll, np.ndarray):
        return np.where(ok, ll, -math.inf)
    return float(ll) if ok else -math.inf


def _gauss_sum(r, n, s2):
    """Summed Normal(0, s2) log-density of the n residuals ``r`` (per row)."""
    return (-0.5 * n * (_LOG_2PI + _math_log(s2))
            - np.vecdot(r, r) / (2.0 * s2))


class _Normal:
    """Normal(mu, sigma2)."""

    def log_density(self, kind, y, mu, s2):
        return -0.5 * (_LOG_2PI + math.log(s2)) - (y - mu) ** 2 / (2.0 * s2)

    def bind(self, kind, t, y):
        n = y.shape[-1]

        def loglik(al, s2):
            mu = _curve_raw(t, al[0], al[1], al[2], al[3], al[4], al[5], al[6])
            return _gauss_sum(y - mu, n, s2)
        return loglik

    def draw(self, kind, mu, s2, rng):
        return mu + np.sqrt(s2) * rng.standard_normal(np.shape(mu))


class _TNormal(_Normal):
    """Normal(mu, sigma2) truncated to [kind.a, kind.b]."""

    def log_density(self, kind, y, mu, s2):
        if y < kind.a or y > kind.b:
            return -math.inf
        return (super().log_density(kind, y, mu, s2)
                - float(_tn_log_mass(np.float64(mu), math.sqrt(s2),
                                     kind.a, kind.b)))

    def bind(self, kind, t, y):
        a, b = kind.a, kind.b
        n = y.shape[-1]
        data_ok = ((y >= a) & (y <= b)).all(-1)  # else data the model cannot produce

        def loglik(al, s2):
            mu = _curve_raw(t, al[0], al[1], al[2], al[3], al[4], al[5], al[6])
            ll = (_gauss_sum(y - mu, n, s2)
                  - _tn_log_mass(mu, np.sqrt(_col(s2)), a, b).sum(-1))
            return _masked(data_ok, ll)
        return loglik

    def draw(self, kind, mu, s2, rng):
        # inverse-CDF transform of a uniform on the truncated quantile range
        # (never rejection sampling); the clip absorbs last-ulp rounding
        sd = np.sqrt(s2)
        fa = ndtr((kind.a - mu) / sd)
        fb = ndtr((kind.b - mu) / sd)
        u = rng.random(np.shape(mu))
        return np.clip(mu + sd * ndtri(fa + u * (fb - fa)), kind.a, kind.b)


class _Beta:
    """Beta(mu*phi, (1 - mu)*phi) with phi = 1/sigma2."""

    def log_density(self, kind, y, mu, s2):
        if not (0.0 < mu < 1.0) or not (0.0 < y < 1.0):
            return -math.inf
        phi = 1.0 / s2
        p = mu * phi
        q = (1.0 - mu) * phi
        return float(
            gammaln(phi) - gammaln(p) - gammaln(q)
            + (p - 1.0) * math.log(y) + (q - 1.0) * math.log1p(-y)
        )

    def bind(self, kind, t, y):
        n = y.shape[-1]
        data_ok = ((y > 0.0) & (y < 1.0)).all(-1)
        y = np.where(_col(data_ok), y, 0.5)  # finite logs on rows set to -inf
        log_y = np.log(y)
        log_1my = np.log1p(-y)

        def loglik(al, s2):
            mu = _curve_raw(t, al[0], al[1], al[2], al[3], al[4], al[5], al[6])
            phi = 1.0 / s2
            phi_col = _col(phi)
            p = mu * phi_col
            q = phi_col - p
            ll = (n * gammaln(phi) - gammaln(p).sum(-1) - gammaln(q).sum(-1)
                  + np.vecdot(p - 1.0, log_y) + np.vecdot(q - 1.0, log_1my))
            return _masked(data_ok & (mu.min(-1) > 0.0) & (mu.max(-1) < 1.0),
                           ll)
        return loglik

    def draw(self, kind, mu, s2, rng):
        bad = np.extract(~np.logical_and(mu > 0.0, mu < 1.0), mu)
        if bad.size:
            raise ValueError(f"beta predictive draw needs mean in (0, 1), "
                             f"got {bad[0]}")
        phi = 1.0 / s2
        return rng.beta(mu * phi, (1.0 - mu) * phi)


_KERNELS = {"normal": _Normal(), "tnormal": _TNormal(), "beta": _Beta()}


def log_density(kind: LikelihoodKind, y: float, mu: float, sigma2) -> float:
    """Log-density of one observation under the chosen likelihood.

    Parameters
    ----------
    kind : LikelihoodKind
    y : float
        Observed value.
    mu : float
        Mean (the curve value at the observation's day).
    sigma2 : float or NoiseParam
        Variance (Beta: reciprocal precision). Must be > 0.

    Returns
    -------
    float
        ``log f(y | mu, sigma2)``. Returns ``-inf`` when the density is zero
        or undefined: ``tnormal`` with ``y`` outside [a, b], ``beta`` with
        ``mu`` outside (0, 1) or ``y`` outside the open interval (0, 1).

    Raises
    ------
    ValueError
        Only for structurally invalid parameters (``sigma2 <= 0``; truncation
        bounds are validated at LikelihoodKind construction).
    """
    return _KERNELS[kind.kind].log_density(kind, y, mu, _as_sigma2(sigma2))


def loglik_fn(kind: LikelihoodKind, t, y):
    """Build the summed log-likelihood ``f(alphas, sigma2)`` of ``(m,)`` or
    ``(B, m)`` days ``t`` and values ``y`` (see the module docstring).

    The closure is the single code path of :func:`series_log_likelihood`,
    the sampler and the lockstep brick sampler, so they cannot diverge.
    """
    return _KERNELS[kind.kind].bind(kind, t, y)


def series_log_likelihood(kind: LikelihoodKind, series: ObservationSeries,
                          p: CurveParams, sigma2) -> float:
    """Summed log-density of a series at curve ``p`` and variance ``sigma2``.

    Equals the sum over observations of
    ``log_density(kind, y(t), curve_value(t, p), sigma2)``; ``-inf`` if any
    term is ``-inf``.

    Raises
    ------
    ValueError
        If the series is empty, ``sigma2 <= 0`` or the rates are degenerate
        (``alpha3 + alpha6 <= 0``).
    """
    s2 = _as_sigma2(sigma2)
    _check_rates(p.alpha3, p.alpha6)
    if len(series) == 0:
        raise ValueError("series must be non-empty")
    return loglik_fn(kind, series.doys, series.values)(p.to_array(), s2)


def _predictive_draws(kind: LikelihoodKind, mu, sigma2,
                      rng: np.random.Generator):
    """Predictive draws at scalar or array means ``mu``, with a scalar or a
    per-mean ``sigma2``: one generator draw per mean, in element order."""
    return _KERNELS[kind.kind].draw(kind, mu, _as_sigma2(sigma2), rng)


def predictive_draw(kind: LikelihoodKind, mu: float, sigma2,
                    rng: np.random.Generator) -> float:
    """Draw one observation from the likelihood at mean ``mu``.

    ``normal``: ``mu + sd * z``. ``tnormal``: inverse-CDF transform of a
    uniform draw on the truncated quantile range (never rejection sampling);
    the result is clamped into [a, b] to absorb last-ulp rounding. ``beta``:
    a Beta(mu*phi, (1-mu)*phi) draw.

    Raises
    ------
    ValueError
        For ``sigma2 <= 0``, or for the Beta kind when ``mu`` is outside
        (0, 1): sampling is an explicit request, so an inadmissible mean is
        an error here rather than a rejection.
    """
    return float(_predictive_draws(kind, mu, sigma2, rng))


def simulate_series(kind: LikelihoodKind, p: CurveParams, sigma2, doys,
                    rng: np.random.Generator,
                    bounds: IndexBounds | None = None) -> ObservationSeries:
    """Generate a synthetic series: one predictive draw per day of year.

    ``y(t) = predictive_draw(kind, curve_value(t, p), sigma2)`` for each t in
    ``doys``, in order, consuming the caller-owned ``rng``; deterministic
    given the rng state.

    Parameters
    ----------
    bounds : IndexBounds, optional
        Index bounds attached to the returned series; defaults to (0, 1).

    Raises
    ------
    ValueError
        If ``doys`` is empty or outside [1, 366], ``sigma2 <= 0``, the rates
        are degenerate, or (Beta) a curve value is outside (0, 1); nothing
        is drawn from ``rng`` then.
    """
    doys = _check_doys(doys)
    if doys.size == 0:
        raise ValueError("doys must be non-empty")
    _check_rates(p.alpha3, p.alpha6)
    mus = _curve_raw(doys, p.alpha1, p.alpha2, p.alpha3, p.alpha4,
                     p.alpha5, p.alpha6, p.alpha7)
    return ObservationSeries(doys, _predictive_draws(kind, mus, sigma2, rng),
                             bounds if bounds is not None else IndexBounds(0.0, 1.0))
