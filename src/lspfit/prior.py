"""Prior intervals and joint log-prior evaluation.

The seven curve parameters carry Uniform priors and the noise variance an
inverse-Gamma prior. Two of the Uniform intervals are *dependent* on other
parameters and this dependence matters for sampling correctness:

* ``alpha2 ~ U(0, gamma2 - alpha1)``: the amplitude cannot push the curve
  maximum past the upper index bound, so its interval shrinks as ``alpha1``
  grows.
* ``alpha4 ~ U(alpha4_lo, alpha7)``: spring inflection precedes autumn
  inflection.

Because those interval widths change when ``alpha1`` or ``alpha7`` moves, the
normalizing terms ``-log(gamma2 - alpha1)`` and ``-log(alpha7 - alpha4_lo)``
are state-dependent and must be part of every Metropolis acceptance ratio.
:func:`log_prior` always includes them; the sampler evaluates priors through
the same flattened helper as this module's public functions, so the sampling
hot path cannot drift from this contract.

Support membership uses strict inequalities at every interval endpoint
(boundary sets have measure zero, and strictness keeps rejection logic
simple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .curve import CurveParams, IndexBounds
from .likelihood import NoiseParam, _math_log

__all__ = [
    "PARAM_NAMES",
    "FIXED_INTERVAL_PRIORS",
    "PriorSpec",
    "ParamVector",
    "default_priors",
    "in_support",
    "log_prior",
    "override_priors",
]


# The sampled coordinates, in the order of every length-8 parameter array,
# chain CSV column and summary row.
PARAM_NAMES = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6",
               "alpha7", "sigma2")
# The parameters whose Uniform prior interval is fixed, and so stored in a
# PriorSpec and overridable; alpha2's and alpha4's depend on the state.
FIXED_INTERVAL_PRIORS = ("alpha1", "alpha3", "alpha5", "alpha6", "alpha7")


@dataclass(frozen=True)
class ParamVector:
    """A full parameter state: the seven curve parameters plus the variance."""

    curve: CurveParams
    noise: NoiseParam

    def to_array(self) -> np.ndarray:
        """Length-8 float64 array (alpha1..alpha7, sigma2)."""
        return np.append(self.curve.to_array(), self.noise.sigma2)

    @classmethod
    def from_array(cls, arr) -> "ParamVector":
        a = [float(v) for v in arr]
        if len(a) != 8:
            raise ValueError(f"expected 8 parameters, got {len(a)}")
        return cls(CurveParams(*a[:7]), NoiseParam(a[7]))


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of the joint prior.

    Fixed Uniform intervals are stored for alpha1, alpha3, alpha5, alpha6,
    and alpha7. alpha2's interval is structurally ``(0, gamma2 - alpha1)``
    and alpha4's is ``(alpha4_lo, alpha7)``; neither dependent bound is
    storable or overridable, only ``alpha4_lo`` is. The variance prior is
    inverse-Gamma(ig_shape, ig_scale).
    """

    bounds: IndexBounds
    alpha1: tuple[float, float]
    alpha3: tuple[float, float]
    alpha5: tuple[float, float]
    alpha6: tuple[float, float]
    alpha7: tuple[float, float]
    alpha4_lo: float
    ig_shape: float
    ig_scale: float

    def __post_init__(self):
        for name in FIXED_INTERVAL_PRIORS:
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(
                    f"prior interval for {name} must satisfy lo < hi, "
                    f"got ({lo}, {hi})"
                )
        if not np.isfinite(self.alpha4_lo):
            raise ValueError("alpha4_lo must be finite")
        if self.alpha4_lo >= self.alpha7[1]:
            raise ValueError(
                f"alpha4_lo ({self.alpha4_lo}) leaves no room below any "
                f"alpha7 < {self.alpha7[1]}: the alpha4 interval is empty"
            )
        if not (np.isfinite(self.ig_shape) and self.ig_shape > 0):
            raise ValueError(f"ig_shape must be > 0, got {self.ig_shape}")
        if not (np.isfinite(self.ig_scale) and self.ig_scale > 0):
            raise ValueError(f"ig_scale must be > 0, got {self.ig_scale}")


def default_priors(bounds: IndexBounds, ig_scale: float | None = None) -> PriorSpec:
    """Default priors over the index support ``bounds = (gamma1, gamma2)``.

    alpha1 ~ U(gamma1, gamma2); alpha2 ~ U(0, gamma2 - alpha1) (dependent);
    alpha3 ~ U(0, 1); alpha4 ~ U(1, alpha7) (dependent upper bound);
    alpha5 ~ U(-0.01, 0.01); alpha6 ~ U(0, 1); alpha7 ~ U(1, 365);
    sigma2 ~ IG(2, ig_scale).

    Parameters
    ----------
    bounds : IndexBounds
    ig_scale : float
        Inverse-Gamma scale for the variance prior. There is no default: the
        caller must choose one (0.001 is a reasonable choice for VI noise on
        (0, 1)).

    Raises
    ------
    ValueError
        If ``ig_scale`` is not supplied or not positive.
    """
    if ig_scale is None:
        raise ValueError(
            "ig_scale (inverse-Gamma scale for the sigma2 prior) is required; "
            "0.001 is a reasonable default for index noise on (0, 1)"
        )
    return PriorSpec(
        bounds=bounds,
        alpha1=(bounds.gamma1, bounds.gamma2),
        alpha3=(0.0, 1.0),
        alpha5=(-0.01, 0.01),
        alpha6=(0.0, 1.0),
        alpha7=(1.0, 365.0),
        alpha4_lo=1.0,
        ig_shape=2.0,
        ig_scale=float(ig_scale),
    )


def override_priors(spec: PriorSpec, *, alpha1=None, alpha3=None, alpha5=None,
                    alpha6=None, alpha7=None, alpha4_lo=None,
                    sigma2_ig=None) -> PriorSpec:
    """Return a copy of ``spec`` with the named hyperparameters replaced.

    ``alpha1``/``alpha3``/``alpha5``/``alpha6``/``alpha7`` take (lo, hi)
    pairs; ``alpha4_lo`` takes the lower bound of alpha4's interval (its
    upper bound stays dependent on alpha7); ``sigma2_ig`` takes an
    inverse-Gamma (shape, scale) pair. The dependent intervals for alpha2
    and alpha4's upper end are structural and cannot be overridden.

    Raises
    ------
    ValueError
        For an inverted or non-finite interval, or non-positive
        inverse-Gamma hyperparameters.
    """
    kwargs = {}
    for name, val in zip(FIXED_INTERVAL_PRIORS,
                         (alpha1, alpha3, alpha5, alpha6, alpha7)):
        if val is not None:
            lo, hi = (float(val[0]), float(val[1]))
            kwargs[name] = (lo, hi)
    if alpha4_lo is not None:
        kwargs["alpha4_lo"] = float(alpha4_lo)
    if sigma2_ig is not None:
        shape, scale = (float(sigma2_ig[0]), float(sigma2_ig[1]))
        kwargs["ig_shape"] = shape
        kwargs["ig_scale"] = scale
    return replace(spec, **kwargs)


class _FlatPrior:
    """Plain-float view of a PriorSpec plus its state-independent log terms.

    Shared by the public prior functions, the sampler hot loop and the
    lockstep brick sampler, so every caller computes the identical log-prior,
    bit for bit. Each method takes one state as eight floats or a block of
    states as eight ``(B,)`` columns.
    """

    __slots__ = ("lo1", "hi1", "lo3", "hi3", "lo5", "hi5", "lo6", "hi6",
                 "lo7", "hi7", "a4lo", "g2", "ig_a", "ig_b", "const")

    def __init__(self, spec: PriorSpec):
        self.lo1, self.hi1 = spec.alpha1
        self.lo3, self.hi3 = spec.alpha3
        self.lo5, self.hi5 = spec.alpha5
        self.lo6, self.hi6 = spec.alpha6
        self.lo7, self.hi7 = spec.alpha7
        self.a4lo = spec.alpha4_lo
        self.g2 = spec.bounds.gamma2
        self.ig_a = spec.ig_shape
        self.ig_b = spec.ig_scale
        # fixed-interval normalizers and the IG normalizing constant
        self.const = (
            -math.log(self.hi1 - self.lo1)
            - math.log(self.hi3 - self.lo3)
            - math.log(self.hi5 - self.lo5)
            - math.log(self.hi6 - self.lo6)
            - math.log(self.hi7 - self.lo7)
            + self.ig_a * math.log(self.ig_b) - float(gammaln(self.ig_a))
        )

    def in_support(self, a1, a2, a3, a4, a5, a6, a7, s2):
        """True where the state is strictly inside the support: a bool for
        floats, a bool array for ``(B,)`` columns of a block of states."""
        return (
            (self.lo1 < a1) & (a1 < self.hi1)
            & (0.0 < a2) & (a2 < self.g2 - a1)
            & (self.lo3 < a3) & (a3 < self.hi3)
            & (self.a4lo < a4) & (a4 < a7)
            & (self.lo5 < a5) & (a5 < self.hi5)
            & (self.lo6 < a6) & (a6 < self.hi6)
            & (self.lo7 < a7) & (a7 < self.hi7)
            & (s2 > 0.0)
        )

    def _log_terms(self, a1, a7, s2, log):
        """The log-prior inside the support, with its state-dependent terms;
        ``log`` is ``math.log``, or ``_math_log``, its vectorised libm twin,
        for a block of states."""
        return (
            self.const
            - log(self.g2 - a1)
            - log(a7 - self.a4lo)
            - (self.ig_a + 1.0) * log(s2)
            - self.ig_b / s2
        )

    def log_prior(self, a1, a2, a3, a4, a5, a6, a7, s2):
        """Log-prior of one state (floats), or of each state of a block
        (``(B,)`` columns); -inf outside the support, where the log terms
        are never evaluated."""
        inside = self.in_support(a1, a2, a3, a4, a5, a6, a7, s2)
        if isinstance(inside, np.ndarray):
            out = np.full(inside.shape, -math.inf)
            out[inside] = self._log_terms(a1[inside], a7[inside], s2[inside],
                                          _math_log)
            return out
        return self._log_terms(a1, a7, s2, math.log) if inside else -math.inf


def in_support(spec: PriorSpec, v: ParamVector) -> bool:
    """True iff every parameter lies strictly inside its prior interval.

    The dependent intervals are evaluated at the vector's own alpha1 and
    alpha7: ``0 < alpha2 < gamma2 - alpha1`` and
    ``alpha4_lo < alpha4 < alpha7``. Non-finite parameters are out of
    support.
    """
    c = v.curve
    return bool(_FlatPrior(spec).in_support(
        c.alpha1, c.alpha2, c.alpha3, c.alpha4, c.alpha5, c.alpha6, c.alpha7,
        v.noise.sigma2,
    ))


def log_prior(spec: PriorSpec, v: ParamVector) -> float:
    """Joint log-prior density of a parameter vector.

    Returns ``-inf`` outside the support. Inside, the value is the sum of
    ``-log(width)`` over all seven Uniforms, with the *dependent* widths
    ``gamma2 - alpha1`` (for alpha2) and ``alpha7 - alpha4_lo`` (for alpha4)
    evaluated at the current alpha1 and alpha7, plus the inverse-Gamma
    log-density ``a*log(b) - lgamma(a) - (a+1)*log(s2) - b/s2``. The
    dependent terms vary with the state and therefore shift Metropolis
    acceptance ratios whenever alpha1 or alpha7 moves; they are never
    dropped.
    """
    c = v.curve
    return _FlatPrior(spec).log_prior(
        c.alpha1, c.alpha2, c.alpha3, c.alpha4, c.alpha5, c.alpha6, c.alpha7,
        v.noise.sigma2,
    )
