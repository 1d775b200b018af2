"""Double-logistic phenology curve: spring and autumn branches and their crossover.

The curve describes seasonal greenness as a function of day of year t:

* a spring (green-up) logistic rising at rate ``alpha3`` around inflection day
  ``alpha4``,
* an autumn (green-down) logistic falling at rate ``alpha6`` around inflection
  day ``alpha7``,
* joined at the crossover day ``delta = (alpha3*alpha4 + alpha6*alpha7) /
  (alpha3 + alpha6)``, where both branches take the same value, so the combined
  curve is continuous.

Both branches share a baseline ``alpha1``, an amplitude ``alpha2``, and a
linear midsummer trend ``alpha5`` through the common numerator
``alpha2 - alpha5*t``.

All evaluators accept scalar or array ``t`` (days are real-valued, so any
point between integer days is valid) and are pure and stateless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "CurveParams",
    "IndexBounds",
    "spring",
    "autumn",
    "crossover",
    "curve_value",
]


@dataclass(frozen=True)
class CurveParams:
    """The seven parameters of the double-logistic phenology curve.

    Parameters
    ----------
    alpha1 : float
        Seasonal minimum greenness (baseline, VI units).
    alpha2 : float
        Seasonal amplitude (VI units).
    alpha3 : float
        Green-up rate (1/day). Must be positive for a meaningful curve.
    alpha4 : float
        Spring inflection day of year.
    alpha5 : float
        Midsummer greenness trend (VI units per day).
    alpha6 : float
        Green-down rate (1/day). Must be positive for a meaningful curve.
    alpha7 : float
        Autumn inflection day of year. Meaningful curves have
        ``alpha4 <= alpha7``.

    Notes
    -----
    No validation is performed at construction: sampling code must be able to
    represent arbitrary proposals so that prior-support checks can reject
    them. Evaluators are total over finite inputs except for
    :func:`crossover`, which needs ``alpha3 + alpha6 > 0``.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    alpha5: float
    alpha6: float
    alpha7: float

    def to_array(self) -> np.ndarray:
        """Return the parameters as a length-7 float64 array."""
        return np.array(
            [self.alpha1, self.alpha2, self.alpha3, self.alpha4,
             self.alpha5, self.alpha6, self.alpha7],
            dtype=np.float64,
        )

    @classmethod
    def from_array(cls, arr) -> "CurveParams":
        """Build from any length-7 sequence."""
        a = [float(v) for v in arr]
        if len(a) != 7:
            raise ValueError(f"expected 7 curve parameters, got {len(a)}")
        return cls(*a)


@dataclass(frozen=True)
class IndexBounds:
    """Lower and upper bounds of the vegetation index, (gamma1, gamma2)."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma1) and np.isfinite(self.gamma2)):
            raise ValueError("index bounds must be finite")
        if not self.gamma1 < self.gamma2:
            raise ValueError(
                f"index bounds require gamma1 < gamma2, got "
                f"({self.gamma1}, {self.gamma2})"
            )


def _spring_raw(t, a1, a2, a3, a4, a5):
    return a1 + (a2 - a5 * t) * expit(a3 * (t - a4))


def _autumn_raw(t, a1, a2, a5, a6, a7):
    return a1 + (a2 - a5 * t) * expit(a6 * (a7 - t))


def _check_rates(a3, a6) -> None:
    """Raise unless each alpha3 + alpha6 > 0: the crossover day must exist."""
    s = np.asarray(a3 + a6)
    bad = s[~(s > 0)]
    if bad.size:
        raise ValueError(
            f"degenerate rates: alpha3 + alpha6 = {bad[0]} must be > 0 for "
            "the crossover day to be defined"
        )


def _in_doy_range(d):
    """True where ``d`` is a day of year in [1, 366], elementwise; False for
    NaN."""
    return (d >= 1.0) & (d <= 366.0)


def _check_doys(doys) -> np.ndarray:
    """``doys`` as a float64 array; ValueError unless every day is in [1, 366]."""
    doys = np.asarray(doys, dtype=np.float64)
    if not _in_doy_range(doys).all():
        raise ValueError("doys must be finite and within [1, 366]")
    return doys


def _crossover_raw(a3, a4, a6, a7):
    return (a3 * a4 + a6 * a7) / (a3 + a6)


def _curve_raw(t, a1, a2, a3, a4, a5, a6, a7):
    """Piecewise curve on raw arrays; broadcasts over t and the parameters."""
    delta = _crossover_raw(a3, a4, a6, a7)
    rate = np.where(t <= delta, a3 * (t - a4), a6 * (a7 - t))
    return a1 + (a2 - a5 * t) * expit(rate)


def spring(t, p: CurveParams):
    """Evaluate the spring (green-up) logistic branch.

    Parameters
    ----------
    t : float or ndarray
        Day of year, real-valued.
    p : CurveParams

    Returns
    -------
    float or ndarray
        ``alpha1 + (alpha2 - alpha5*t) / (1 + exp(-alpha3*(t - alpha4)))``,
        evaluated through the numerically stable logistic so large
        ``|alpha3*(t - alpha4)|`` cannot overflow.
    """
    out = _spring_raw(np.asarray(t, dtype=np.float64),
                      p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5)
    return float(out) if np.isscalar(t) else out


def autumn(t, p: CurveParams):
    """Evaluate the autumn (green-down) logistic branch.

    Parameters
    ----------
    t : float or ndarray
        Day of year, real-valued.
    p : CurveParams

    Returns
    -------
    float or ndarray
        ``alpha1 + (alpha2 - alpha5*t) / (1 + exp(-alpha6*(alpha7 - t)))``.
    """
    out = _autumn_raw(np.asarray(t, dtype=np.float64),
                      p.alpha1, p.alpha2, p.alpha5, p.alpha6, p.alpha7)
    return float(out) if np.isscalar(t) else out


def crossover(p: CurveParams) -> float:
    """Day where the spring and autumn branches meet.

    Returns
    -------
    float
        ``delta = (alpha3*alpha4 + alpha6*alpha7) / (alpha3 + alpha6)``.
        Both branches take the same value there, so the combined curve is
        continuous at ``delta``.

    Raises
    ------
    ValueError
        If ``alpha3 + alpha6`` is not strictly positive (degenerate rates:
        the crossover day is undefined).
    """
    _check_rates(p.alpha3, p.alpha6)
    return _crossover_raw(p.alpha3, p.alpha4, p.alpha6, p.alpha7)


def curve_value(t, p: CurveParams):
    """Evaluate the combined phenology curve.

    The spring branch is used for ``t <= delta`` (including ``t == delta``
    exactly, a fixed choice for determinism; continuity makes it
    observationally irrelevant) and the autumn branch for ``t > delta``.

    Parameters
    ----------
    t : float or ndarray
        Day of year, real-valued.
    p : CurveParams

    Returns
    -------
    float or ndarray

    Raises
    ------
    ValueError
        When ``alpha3 + alpha6 <= 0``, as for :func:`crossover`.
    """
    _check_rates(p.alpha3, p.alpha6)
    out = _curve_raw(np.asarray(t, dtype=np.float64),
                     p.alpha1, p.alpha2, p.alpha3, p.alpha4,
                     p.alpha5, p.alpha6, p.alpha7)
    return float(out) if np.isscalar(t) else out
